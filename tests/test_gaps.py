import contextlib
import io

import numpy as np
import pytest
import scipy.integrate

from oracles import tail_fit
from spacinglab import cli, gaps
from spacinglab.experiment import write_table
from spacinglab.gaps import (
    SEED_T0,
    SigmaTrajectory,
    _asym,
    _seed,
    _sigma_rhs,
    _solve,
    build_universal_cdf,
    fredholm_g2,
    gap_curves,
    gap_probability,
    integrate_sigma,
    series_gap,
    universal_cdf,
)

PI = np.pi


def seed_series(t):
    return -t / PI - (t / PI) ** 2 - t**3 / PI**3


class TestSigmaTrajectory:
    def test_matches_seed_series(self, traj):
        s = np.geomspace(1e-3, 5e-2, 40)
        assert np.all(np.abs(traj.at(s).sigma - seed_series(s)) <= 10.0 * s**4)

    def test_large_s_asymptotics(self, traj):
        for s in (20.0, 40.0):
            v = float(traj.at(s).v)
            assert abs(v + s / 4.0 + 1.0 / (4.0 * s)) <= 0.5 / s**2

    def test_v_prime_at_seed(self, traj):
        # Oracle: differentiate the seed series, v'(t) = -1/pi^2 - 2t/pi^3 - ...
        expected = -1.0 / PI**2 - 2.0 * SEED_T0 / PI**3 - 3.0 * SEED_T0**2 / PI**4
        got = -float(traj.at(SEED_T0).neg_v_prime)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_rows_continuous_across_seed(self, traj):
        # Below t0 every row comes from the seed series, from t0 on from the
        # solution; the boundary conditions pin sigma and both integrals at
        # t0, while -v' also depends on the solution's sigma'.
        below = traj.at(np.nextafter(SEED_T0, 0.0))
        above = traj.at(SEED_T0)
        for name in below._fields:
            tol = 1e-6 if name == "neg_v_prime" else 1e-12
            assert float(getattr(below, name)) == pytest.approx(
                float(getattr(above, name)), abs=tol
            ), name

    def test_sigma_negative_and_decreasing(self, traj):
        sigma = traj.at(np.arange(SEED_T0, traj.t_max + 5e-4, 1e-3)).sigma
        assert np.all(sigma < 0)
        assert np.all(np.diff(sigma) < 0)

    def test_reseeding_consistency(self, traj):
        other = _solve(50.0, 2 * SEED_T0)
        t = np.linspace(2 * SEED_T0, 15.0, 500)
        assert np.max(np.abs(other.at(t).sigma - traj.at(t).sigma)) <= 1e-8

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
        def lookup(t):
            return getattr(traj.at(t), method)

        assert np.isfinite(lookup(traj.t_max))
        with pytest.raises(ValueError, match="trajectory covers"):
            lookup(traj.t_max + 1.0)
        with pytest.raises(ValueError, match="trajectory covers"):
            lookup(np.array([1.0, 2.0 * traj.t_max]))
        with pytest.raises(ValueError, match="trajectory covers"):
            gap_probability(traj, 2, traj.t_max / PI + 1.0)
        for s in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and non-negative"):
                gap_probability(traj, 2, s)


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

    def test_point_lookup_matches_table(self, traj, curves):
        # gap_probability and gap_curves read the same lookup, so a point
        # value equals its table entry exactly.
        for beta in (1, 2, 4):
            curve = curves[beta]
            for i in np.linspace(0, curve.grid.size - 1, 41).astype(int):
                assert gap_probability(traj, beta, float(curve.grid[i])) == curve.gap[i]


class TestFredholm:
    def test_small_s_expansion(self):
        # G2(s) = 1 - s + O(s^4).
        assert abs(fredholm_g2(0.01, n=40) - 0.99) <= 1e-6

    def test_agreement_with_painleve(self, traj):
        assert fredholm_g2(1.0, n=60) == pytest.approx(
            gap_probability(traj, 2, 1.0), abs=1e-6
        )

    def test_painleve_matches_to_collocation_accuracy(self, traj):
        # fredholm_g2 at n = 60 and n = 120 agree to ~1e-15 on this range.
        s = np.linspace(0.1, 6.0, 60)
        diff = [abs(gap_probability(traj, 2, x) - fredholm_g2(x, n=60)) for x in s]
        assert max(diff) <= 1e-11

    def test_quadrature_self_convergence(self):
        assert abs(fredholm_g2(4.0, n=40) - fredholm_g2(4.0, n=80)) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            fredholm_g2(-1.0)
        with pytest.raises(ValueError):
            fredholm_g2(1.0, n=2)
        # NaN slips past "s <= 0" and used to return nan.
        for s in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                fredholm_g2(s)


class TestSeriesGap:
    def test_unitary_matches_fredholm(self):
        assert series_gap(2, 0.5) == pytest.approx(fredholm_g2(0.5, n=60), abs=1e-4)

    def test_symplectic_matches_painleve(self, traj):
        assert series_gap(4, 0.3) == pytest.approx(
            gap_probability(traj, 4, 0.3), abs=1e-3
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            series_gap(2, 1.5)


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
        cdf = universal_cdf(curves[2], 2)
        assert cdf.nodes.size == 1
        assert cdf.evaluate(cdf.nodes[0]) == pytest.approx(0.5, abs=1e-9)

    def test_node_count_validation(self, curves):
        with pytest.raises(ValueError):
            universal_cdf(curves[2], 1)

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
    # The rows the universal subcommand writes.
    path = write_table(tmp_path / "F_beta2.csv", "s,F", zip(cdfs[2].grid, cdfs[2].cdf))
    lines = path.read_text().splitlines()
    assert lines[0] == "s,F"
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert data.shape[0] == cdfs[2].grid.size
    assert np.allclose(data[:, 1], cdfs[2].cdf, atol=1e-11)


def test_build_universal_cdf_shares_trajectory(monkeypatch):
    # The one route to the sigma solution is the module's memoized solve.
    reaches = []
    solve = gaps.integrate_sigma
    monkeypatch.setattr(gaps, "integrate_sigma", lambda t: reaches.append(t) or solve(t))
    cdf = build_universal_cdf(2, s_max=6.0, m_nodes=10)
    assert reaches == [pytest.approx(2 * PI * 6.0)]
    assert cdf.node_count == 10
    assert cdf.grid[-1] == pytest.approx(6.0)


class TestSolveOncePerReach:
    """One process solves the sigma-BVP once per (far end, seed point)."""

    def test_reaches_up_to_50_share_one_solve(self):
        assert integrate_sigma(9.4) is integrate_sigma(15.7)
        assert integrate_sigma(9.4).t_max == 50.0
        assert integrate_sigma(2 * PI * 10) is not integrate_sigma(9.4)

    def test_memoized_equals_fresh_solve(self):
        t = np.linspace(0.0, 2 * PI * 10, 2001)
        memo = integrate_sigma(2 * PI * 10).at(t)
        fresh = _solve.__wrapped__(2 * PI * 10, SEED_T0).at(t)
        for name in memo._fields:
            assert getattr(memo, name).tobytes() == getattr(fresh, name).tobytes(), name

    def test_failed_solve_is_not_remembered(self, monkeypatch):
        real = gaps._collocate

        def failing(*args):
            raise RuntimeError("sigma-ODE collocation failed: mesh nodes exceeded")

        _solve.cache_clear()
        monkeypatch.setattr(gaps, "_collocate", failing)
        with pytest.raises(RuntimeError, match="collocation failed"):
            integrate_sigma(10.0)
        monkeypatch.setattr(gaps, "_collocate", real)
        assert integrate_sigma(10.0).t_max == 50.0

    def test_laws_sequence_solves_twice(self, monkeypatch, tmp_path):
        real, calls = gaps._collocate, []

        def counted(mesh, *args):
            calls.append(mesh[-1])
            return real(mesh, *args)

        _solve.cache_clear()
        monkeypatch.setattr(gaps, "_collocate", counted)
        argvs = [
            ["universal", "--beta", str(b), "--s-max", "10", "--out", str(tmp_path)]
            for b in (1, 2, 4)
        ]
        argvs += [
            ["gap", "--beta", str(b), "--s", s, "--method", "painleve"]
            for b in (1, 4)
            for s in ("0.7", "3.0")
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert [cli.main(argv) for argv in argvs] == [0] * len(argvs)
        assert calls == [2 * PI * 10, 50.0]


class TestCollocation:
    """The numpy collocation solve against scipy's solve_bvp, which implements
    the same Lobatto IIIA discretization and residual rule."""

    @staticmethod
    def solve_bvp_trajectory(t_far):
        # The problem exactly as gaps._solve poses it: bc, mesh and guess.
        seed, far = _seed(SEED_T0), _asym(t_far)

        def bc(ya, yb):
            return np.array(
                [ya[0] - seed[0], yb[0] - far[0], ya[2] - seed[4], ya[3] - seed[5]]
            )

        mesh = np.concatenate(
            [
                np.geomspace(SEED_T0, 4.0, 200),
                np.linspace(4.02, t_far, max(600, int(12 * t_far))),
            ]
        )
        guess = np.where(mesh < 2.0, _seed(mesh)[:2], _asym(mesh))
        y0 = np.vstack([guess, np.zeros((2, mesh.size))])
        # gaps.BVP_TOL, written out so that loosening it there shows here.
        sol = scipy.integrate.solve_bvp(
            _sigma_rhs, bc, mesh, y0, tol=1e-10, max_nodes=400000
        )
        assert sol.status == 0, sol.message
        return SigmaTrajectory(t_max=t_far, _dense=sol.sol)

    @pytest.mark.parametrize("t_far", [50.0, 2 * PI * 10, 140.0])
    def test_matches_solve_bvp(self, t_far):
        t = np.linspace(0.0, t_far, 5001)
        ours = integrate_sigma(t_far).at(t)
        theirs = self.solve_bvp_trajectory(t_far).at(t)
        for name in ours._fields:
            diff = np.max(np.abs(getattr(ours, name) - getattr(theirs, name)))
            assert diff <= 1e-11, (name, diff)

    @pytest.mark.parametrize("cap", [("MAX_NODES", 1000), ("NEWTON_STEPS", 2)])
    def test_exhausted_solve_raises(self, monkeypatch, cap):
        # The first mesh at t = 50 has 800 nodes and needs 7 Newton steps.
        monkeypatch.setattr(gaps, *cap)
        with pytest.raises(RuntimeError, match="collocation failed"):
            _solve.__wrapped__(50.0, SEED_T0)
