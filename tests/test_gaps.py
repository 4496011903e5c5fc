import contextlib
import io
import math

import numpy as np
import pytest
import scipy.integrate

from oracles import survival, tail_fit
from spacinglab import cli, gaps
from spacinglab.experiment import write_table
from spacinglab.gaps import (
    GAP_STEP,
    S_MAX_LIMIT,
    SEED_T0,
    T_MAX_LIMIT,
    T_PER_S,
    SigmaTrajectory,
    _asym,
    _band_solve,
    _collocation_residual,
    _jacobian_blocks,
    _seed,
    _sigma_rhs,
    build_universal_cdf,
    corr_fn,
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
        # solution; the seed pins sigma and both integrals at t0, while -v'
        # also depends on the solution's sigma'.
        below = traj.at(np.nextafter(SEED_T0, 0.0))
        above = traj.at(SEED_T0)
        for name in below._fields:
            tol = 1e-6 if name == "neg_v_prime" else 1e-12
            assert float(getattr(below, name)) == pytest.approx(
                float(getattr(above, name)), abs=tol
            ), name

    def test_sigma_negative_and_decreasing(self, traj):
        sigma = traj.at(np.arange(SEED_T0, T_MAX_LIMIT + 5e-4, 1e-3)).sigma
        assert np.all(sigma < 0)
        assert np.all(np.diff(sigma) < 0)

    def test_reseeding_consistency(self, traj, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(gaps, "SEED_T0", 2 * SEED_T0)
            other = integrate_sigma.__wrapped__()
        t = np.linspace(2 * SEED_T0, 15.0, 500)
        assert np.max(np.abs(other.at(t).sigma - traj.at(t).sigma)) <= 1e-8

    def test_domain_validation(self):
        # The trajectory reaches t = 200, so the laws reach s = 100/pi.
        for s_max in (0.0, S_MAX_LIMIT * (1 + 1e-9), 500.0 / PI, float("nan")):
            with pytest.raises(ValueError, match="s_max must lie"):
                build_universal_cdf(2, s_max=s_max)

    def test_coverage_error(self, traj):
        with pytest.raises(ValueError, match="trajectory"):
            gap_curves(traj, 4, 40.0)  # needs 2*pi*40 > 200

    @pytest.mark.parametrize("method", ["log_gap2", "log_h"])
    def test_lookup_past_range_raises(self, traj, method):
        def lookup(t):
            return getattr(traj.at(t), method)

        assert np.isfinite(lookup(T_MAX_LIMIT))
        with pytest.raises(ValueError, match="trajectory covers"):
            lookup(T_MAX_LIMIT + 1.0)
        with pytest.raises(ValueError, match="trajectory covers"):
            lookup(np.array([1.0, 2.0 * T_MAX_LIMIT]))
        with pytest.raises(ValueError, match="trajectory covers"):
            gap_probability(traj, 2, T_MAX_LIMIT / PI + 1.0)
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

    def test_grid_stops_at_s_max(self, traj, curves):
        # The grid of 9.9996 used to end at 10, and that of 100/pi past the
        # trajectory; a multiple of GAP_STEP keeps its grid.
        assert curves[2].grid.tobytes() == (GAP_STEP * np.arange(10001)).tobytes()
        for s_max in (9.9996, S_MAX_LIMIT):
            grid = gap_curves(traj, 2, s_max).grid
            assert grid[-1] == s_max and np.all(np.diff(grid) > 0)

    def test_tail_underflow_builds_the_law(self, traj):
        # G_4 underflows to exactly 0 from s = 17.37 on and G_2 from 24.554,
        # where F = 1 + G' is exactly 1; that used to abort the table.
        g2, g4 = (gap_curves(traj, beta, 25.0) for beta in (2, 4))
        assert g2.gap[-1] == 0.0 and g4.gap[-1] == 0.0
        assert universal_cdf(g4, 100).cdf[-1] == 1.0

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

    @pytest.mark.parametrize("n", [40, 60])
    def test_never_below_zero(self, n):
        # Where G_2 underflows the determinant's roundoff used to go below 0
        # (-1.36e-199 at n = 40, s = 30) or give -0.0 (s = 40 at n = 60).
        for s in np.linspace(20.0, 63.66, 400):
            value = fredholm_g2(float(s), n=n)
            assert value >= 0.0 and math.copysign(1.0, value) == 1.0, (s, value)

    def test_cli_prints_zero_at_the_reach(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["gap", "--beta", "2", "--s", "63.66", "--method", "fredholm"]) == 0
        assert out.getvalue() == "0\n"

    def test_validation(self):
        with pytest.raises(ValueError):
            fredholm_g2(-1.0)
        with pytest.raises(ValueError):
            fredholm_g2(1.0, n=2)
        # NaN slips past "s <= 0" and used to return nan.
        for s in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                fredholm_g2(s)

    def test_reach(self):
        # Past the reach the determinant used to return 57639462.07 at
        # s = 200 and 0.0076 at s = 100, n = 40, where G_2 is 0.
        assert fredholm_g2(T_MAX_LIMIT / T_PER_S[2]) == 0.0
        for s, n in ((200.0, 60), (100.0, 40), (63.67, 60)):
            with pytest.raises(ValueError, match=r"s must lie in \(0, 200/pi = 63\.6620\]"):
                fredholm_g2(s, n=n)


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


@pytest.mark.parametrize("beta", [0, 3])
@pytest.mark.parametrize(
    "law",
    [
        lambda beta: build_universal_cdf(beta, 6.0, 10),
        lambda beta: gap_curves(integrate_sigma(), beta, 1.0),
        lambda beta: gap_probability(integrate_sigma(), beta, 0.5),
        lambda beta: series_gap(beta, 0.5),
        lambda beta: corr_fn(beta, [0.1, 0.4]),
    ],
    ids=["build_universal_cdf", "gap_curves", "gap_probability", "series_gap", "corr_fn"],
)
def test_invalid_beta_on_every_law_entry(law, beta):
    with pytest.raises(ValueError, match=rf"^beta must be 1, 2 or 4, got {beta}$"):
        law(beta)


class TestUniversalCDF:
    def test_probability_distribution(self, cdfs, curves):
        for beta, cdf in cdfs.items():
            assert cdf.cdf[0] == 0.0
            assert np.all(np.diff(cdf.cdf) >= 0)
            assert 1.0 - cdf.evaluate(8.0) <= 1e-4
            mean = np.trapezoid(survival(curves[beta]), cdf.grid)
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
    def test_exponents(self, curves):
        a2, b2 = tail_fit(curves[2])
        assert b2 == pytest.approx(PI**2 / 8.0, rel=0.10)
        a1, b1 = tail_fit(curves[1])
        assert b1 == pytest.approx(PI**2 / 16.0, rel=0.15)
        for beta in (1, 2, 4):
            a, b = tail_fit(curves[beta])
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
    # The one route to the sigma solution is the module's cached solve.
    calls = []
    solve = gaps.integrate_sigma
    monkeypatch.setattr(gaps, "integrate_sigma", lambda: calls.append(1) or solve())
    cdf = build_universal_cdf(2, s_max=6.0, m_nodes=10)
    assert calls == [1]
    assert cdf.node_count == 10
    assert cdf.grid[-1] == pytest.approx(6.0)


def test_build_universal_cdf_tabulates_its_beta_alone(monkeypatch):
    # Every law used to tabulate and check G_1, G_2 and G_4 to keep one.
    real, betas = gaps._gap_and_slope, []

    def counted(traj, beta, s):
        betas.append(beta)
        return real(traj, beta, s)

    monkeypatch.setattr(gaps, "_gap_and_slope", counted)
    cdf = build_universal_cdf(1, 10.0, 100)
    assert betas == [1]
    assert cdf.beta == 1


class TestSolveOnce:
    """One process solves the sigma-BVP once, to T_MAX_LIMIT."""

    def test_repeated_call_returns_one_trajectory(self):
        assert integrate_sigma() is integrate_sigma()

    def test_memoized_equals_fresh_solve(self):
        t = np.linspace(0.0, T_MAX_LIMIT, 2001)
        memo = integrate_sigma().at(t)
        fresh = integrate_sigma.__wrapped__().at(t)
        for name in memo._fields:
            assert getattr(memo, name).tobytes() == getattr(fresh, name).tobytes(), name

    def test_failed_solve_is_not_remembered(self, monkeypatch):
        real = gaps._collocate

        def failing(*args):
            raise RuntimeError("sigma-ODE collocation failed: residual 2e-10 > 1e-10")

        integrate_sigma.cache_clear()
        monkeypatch.setattr(gaps, "_collocate", failing)
        with pytest.raises(RuntimeError, match="collocation failed"):
            integrate_sigma()
        monkeypatch.setattr(gaps, "_collocate", real)
        assert isinstance(integrate_sigma(), SigmaTrajectory)

    def test_laws_sequence_solves_once(self, monkeypatch, tmp_path):
        real, calls = gaps._collocate, []

        def counted(mesh, *args):
            calls.append(mesh[-1])
            return real(mesh, *args)

        integrate_sigma.cache_clear()
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
        assert calls == [T_MAX_LIMIT]


class TestCollocation:
    """The numpy collocation solve against scipy's solve_bvp, which implements
    the same Lobatto IIIA discretization and residual rule."""

    @pytest.fixture(scope="class")
    def solve_bvp_trajectory(self):
        # The problem as gaps.integrate_sigma poses it, bc, mesh and guess,
        # but with both integrals as Newton unknowns: the summed integrals
        # must equal the coupled solution.
        seed, far = _seed(SEED_T0), _asym(T_MAX_LIMIT)

        def bc(ya, yb):
            return np.array(
                [ya[0] - seed[0], yb[0] - far[0], ya[2] - seed[4], ya[3] - seed[5]]
            )

        ends = np.arcsinh(2 * np.array([SEED_T0, T_MAX_LIMIT]))
        mesh = np.sinh(np.linspace(*ends, gaps.MESH_NODES)) / 2
        mesh[[0, -1]] = SEED_T0, T_MAX_LIMIT
        guess = np.where(mesh < 2.0, _seed(mesh)[:2], _asym(mesh))
        y0 = np.vstack([guess, np.zeros((2, mesh.size))])
        # gaps.BVP_TOL, written out so that loosening it there shows here.
        sol = scipy.integrate.solve_bvp(
            _sigma_rhs, bc, mesh, y0, tol=1e-10, max_nodes=400000
        )
        assert sol.status == 0, sol.message
        return SigmaTrajectory(sol.sol)

    # Each reach is the stretch of the one solution that the laws up to
    # s = reach / (2 pi) read.
    @pytest.mark.parametrize("reach", [50.0, 2 * PI * 10, 140.0, T_MAX_LIMIT])
    def test_matches_solve_bvp(self, reach, solve_bvp_trajectory):
        t = np.linspace(0.0, reach, 5001)
        ours = integrate_sigma().at(t)
        theirs = solve_bvp_trajectory.at(t)
        for name in ours._fields:
            diff = np.max(np.abs(getattr(ours, name) - getattr(theirs, name)))
            assert diff <= 1e-11, (name, diff)

    @pytest.mark.parametrize("nodes", [49, 50])
    def test_block_solve_matches_dense_solve(self, nodes, rng):
        x = np.concatenate([np.geomspace(SEED_T0, 4.0, 20), np.linspace(5.0, 50.0, nodes - 20)])
        y = np.vstack(integrate_sigma()._dense(x)[:2])
        seed = _seed(SEED_T0)
        bc = np.array([seed[0], seed[4], seed[5], _asym(T_MAX_LIMIT)[0]])
        y_mid = _collocation_residual(x, y, bc)[3]
        d_left, d_right = _jacobian_blocks(x, y, y_mid)
        # The system in _collocation_residual's row order, unknowns node by node.
        dense = np.zeros((2 * nodes, 2 * nodes))
        dense[[0, -1], [0, 2 * nodes - 2]] = 1.0
        for i in range(nodes - 1):
            dense[1 + 2 * i : 3 + 2 * i, 2 * i : 2 * i + 2] = d_left[i]
            dense[1 + 2 * i : 3 + 2 * i, 2 * i + 2 : 2 * i + 4] = d_right[i]
        rhs = rng.standard_normal(2 * nodes)
        want = np.linalg.solve(dense, rhs).reshape(-1, 2).T
        got = _band_solve(d_left, d_right, rhs)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_singular_newton_system_raises(self, monkeypatch):
        # dgbsv reports a singular system through info, not by raising.
        integrate_sigma.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(gaps, "_lapack", lambda name: lambda kl, ku, ab, b: (ab, 0, b, 3))
            with pytest.raises(RuntimeError, match="collocation failed: LAPACK dgbsv info=3"):
                integrate_sigma()
        # The failure is not remembered: the next call solves.
        assert isinstance(integrate_sigma(), SigmaTrajectory)

    @pytest.mark.parametrize(
        "cap", [("MESH_NODES", 1500, "residual"), ("NEWTON_STEPS", 2, "no Newton")]
    )
    def test_exhausted_solve_raises(self, monkeypatch, cap):
        # The mesh has 3000 nodes and needs 8 Newton steps; on 1500 nodes
        # Newton converges, but the residual reads 2.6e-10 near t = 3.2.
        name, value, reason = cap
        monkeypatch.setattr(gaps, name, value)
        with pytest.raises(RuntimeError, match=f"collocation failed: {reason}"):
            integrate_sigma.__wrapped__()

    def test_mesh_has_margin(self, monkeypatch):
        # The largest interval residual is 0.33 BVP_TOL, so a mesh too
        # coarse for half the tolerance fails here first.
        monkeypatch.setattr(gaps, "BVP_TOL", gaps.BVP_TOL / 2)
        assert isinstance(integrate_sigma.__wrapped__(), SigmaTrajectory)

    def test_one_mesh(self, monkeypatch):
        real, meshes = gaps._hermite, []

        def recorded(x, *args):
            meshes.append(x.size)
            return real(x, *args)

        monkeypatch.setattr(gaps, "_hermite", recorded)
        integrate_sigma.__wrapped__()
        assert meshes == [gaps.MESH_NODES]
