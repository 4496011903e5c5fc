import numpy as np
import pytest

from spacinglab.gaps import (
    SEED_T0,
    build_universal_cdf,
    fredholm_g2,
    gap_curves,
    gap_probability,
    integrate_sigma,
    series_gap,
    tail_fit,
    universal_cdf,
    write_cdf_csv,
)

PI = np.pi


def seed_series(t):
    return -t / PI - (t / PI) ** 2 - t**3 / PI**3


class TestSigmaTrajectory:
    def test_matches_seed_series(self, traj):
        s = np.geomspace(1e-3, 5e-2, 40)
        assert np.all(np.abs(traj.sigma_at(s) - seed_series(s)) <= 10.0 * s**4)

    def test_large_s_asymptotics(self, traj):
        for s in (20.0, 40.0):
            v = float(traj.v(s))
            assert abs(v + s / 4.0 + 1.0 / (4.0 * s)) <= 0.5 / s**2

    def test_v_prime_at_seed(self, traj):
        # Oracle: differentiate the seed series, v'(t) = -1/pi^2 - 2t/pi^3 - ...
        expected = -1.0 / PI**2 - 2.0 * SEED_T0 / PI**3 - 3.0 * SEED_T0**2 / PI**4
        got = -float(traj.neg_v_prime(SEED_T0))
        assert got == pytest.approx(expected, abs=1e-6)

    def test_sigma_negative_and_decreasing(self, traj):
        assert np.all(traj.sigma < 0)
        assert np.all(traj.sigma_prime < 0)

    def test_reseeding_consistency(self, traj):
        other = integrate_sigma(20.0, seed_at=2 * SEED_T0)
        t = np.linspace(2 * SEED_T0, 15.0, 500)
        assert np.max(np.abs(other.sigma_at(t) - traj.sigma_at(t))) <= 1e-8

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            integrate_sigma(0.0)
        with pytest.raises(ValueError):
            integrate_sigma(500.0)

    def test_coverage_error(self, traj):
        with pytest.raises(ValueError, match="trajectory"):
            gap_curves(traj, 40.0)  # needs 2*pi*40 > 140

    @pytest.mark.parametrize("method", ["log_gap2", "log_h"])
    def test_lookup_past_range_raises(self, traj, method):
        lookup = getattr(traj, method)
        assert np.isfinite(lookup(traj.t_max))
        with pytest.raises(ValueError, match="trajectory covers"):
            lookup(traj.t_max + 1.0)
        with pytest.raises(ValueError, match="trajectory covers"):
            lookup(np.array([1.0, 2.0 * traj.t_max]))
        with pytest.raises(ValueError, match="trajectory covers"):
            gap_probability(traj, 2, traj.t_max / PI + 1.0)


class TestGapCurves:
    def test_small_gap_limit(self, curves):
        for beta in (1, 2, 4):
            assert curves[beta].gap[0] == pytest.approx(1.0, abs=1e-12)
            assert curves[beta].gap_prime[0] == pytest.approx(-1.0, abs=1e-9)

    def test_gaussian_decay_rate(self, curves):
        # log G2 ~ -(pi^2/8) s^2: secant slope against s^2 between 6 and 10.
        c = curves[2]
        i6, i10 = 6000, 10000
        slope = (np.log(c.gap[i10]) - np.log(c.gap[i6])) / (10.0**2 - 6.0**2)
        assert slope == pytest.approx(-(PI**2) / 8.0, rel=0.05)

    def test_symplectic_assembly(self, traj, curves):
        # G4(s) = (G1(2s) + G2(2s)/G1(2s)) / 2 at points within the grid.
        for s in (0.3, 0.9, 2.1):
            g1 = gap_probability(traj, 1, 2 * s)
            g2 = gap_probability(traj, 2, 2 * s)
            expected = 0.5 * (g1 + g2 / g1)
            assert gap_probability(traj, 4, s) == pytest.approx(expected, rel=1e-10)
        assert np.all(curves[4].gap_prime <= 0)

    def test_derivative_consistency(self, curves):
        # Five-point centred differences of the tabulated G against the
        # closed-form derivative at interior grid points.
        for beta in (1, 2, 4):
            c = curves[beta]
            h = c.grid[1] - c.grid[0]
            idx = np.arange(200, 4000, 137)
            fd = (
                -c.gap[idx + 2] + 8 * c.gap[idx + 1] - 8 * c.gap[idx - 1] + c.gap[idx - 2]
            ) / (12 * h)
            assert np.max(np.abs(fd - c.gap_prime[idx])) < 1e-6


class TestFredholm:
    def test_small_s_expansion(self):
        # G2(s) = 1 - s + O(s^4).
        assert abs(fredholm_g2(0.01, n=40) - 0.99) <= 1e-6

    def test_agreement_with_painleve(self, traj):
        assert fredholm_g2(1.0, n=60) == pytest.approx(
            gap_probability(traj, 2, 1.0), abs=1e-6
        )

    def test_quadrature_self_convergence(self):
        assert abs(fredholm_g2(4.0, n=40) - fredholm_g2(4.0, n=80)) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            fredholm_g2(-1.0)
        with pytest.raises(ValueError):
            fredholm_g2(1.0, n=2)


class TestSeriesGap:
    def test_first_order_is_linear(self):
        assert series_gap(2, 0.37, k_max=1) == pytest.approx(1.0 - 0.37, abs=1e-15)

    def test_unitary_matches_fredholm(self):
        assert series_gap(2, 0.5) == pytest.approx(fredholm_g2(0.5, n=60), abs=1e-4)

    def test_symplectic_matches_painleve(self, traj):
        assert series_gap(4, 0.3) == pytest.approx(
            gap_probability(traj, 4, 0.3), abs=1e-3
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            series_gap(2, 1.5)
        with pytest.raises(ValueError):
            series_gap(2, 0.5, k_max=5)


class TestUniversalCDF:
    def test_probability_distribution(self, cdfs):
        for beta, cdf in cdfs.items():
            assert cdf.cdf[0] == 0.0
            assert np.all(np.diff(cdf.cdf) >= 0)
            assert 1.0 - cdf.evaluate(8.0) <= 1e-4
            mean = np.trapezoid(cdf.survival, cdf.grid)
            assert mean == pytest.approx(1.0, abs=0.01)

    def test_nodes_are_quantiles(self, cdfs):
        for cdf in cdfs.values():
            m = cdf.node_count
            assert np.all(np.diff(cdf.nodes) > 0)
            assert np.allclose(
                cdf.evaluate(cdf.nodes), np.arange(1, m) / m, atol=1e-6
            )

    def test_median_only_node(self, curves):
        cdf = universal_cdf(2, curves[2], 2)
        assert cdf.nodes.size == 1
        assert cdf.evaluate(cdf.nodes[0]) == pytest.approx(0.5, abs=1e-9)

    def test_node_count_validation(self, curves):
        with pytest.raises(ValueError):
            universal_cdf(2, curves[2], 1)

    def test_route_agreement_grid(self, traj):
        for s in (0.1, 0.5, 1.0, 2.0, 3.0, 4.0):
            assert abs(gap_probability(traj, 2, s) - fredholm_g2(s, n=60)) <= 1e-6


class TestTailFit:
    def test_exponents(self, cdfs):
        a2, b2 = tail_fit(cdfs[2])
        assert b2 == pytest.approx(PI**2 / 8.0, rel=0.10)
        a1, b1 = tail_fit(cdfs[1])
        assert b1 == pytest.approx(PI**2 / 16.0, rel=0.15)
        for beta in (1, 2, 4):
            a, b = tail_fit(cdfs[beta])
            assert a >= 1.0
            assert b > 0.0


def test_cdf_csv_round_trip(tmp_path, cdfs):
    path = write_cdf_csv(cdfs[2], tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,F"
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert data.shape[0] == cdfs[2].grid.size
    assert np.allclose(data[:, 1], cdfs[2].cdf, atol=1e-11)


def test_build_universal_cdf_shares_trajectory(traj):
    cdf = build_universal_cdf(2, s_max=6.0, m_nodes=10, traj=traj)
    assert cdf.node_count == 10
    assert cdf.grid[-1] == pytest.approx(6.0)
