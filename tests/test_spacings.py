import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import gue_window
from oracles import CENTER_DENSITY, gamma_cdf, variance_diagnostic
from spacinglab import spacings
from spacinglab.ensembles import EnsembleSpec, SamplerState, sample_tridiagonal
from spacinglab.spacings import (
    EmpiricalSpacingCDF,
    IdentityReport,
    RescaledSpectrum,
    Window,
    alternating_identity_check,
    default_window,
    estimate_density,
    ks_node_distance,
    rescale_localize,
    sigma_cdf,
)


def make_rs(values, size=2.0):
    # Window with |A| = size around a=0 (delta=1, psi*n = size/2).
    window = Window(a=0.0, delta=1.0, psi_a=0.5 * size, n=1)
    return RescaledSpectrum(inside=np.asarray(values, dtype=float), window=window)


class TestWindow:
    def test_size(self):
        w = Window(a=0.0, delta=0.1, psi_a=1 / np.pi, n=100)
        assert w.size == pytest.approx(2 * 100 * 0.1 / np.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            Window(a=0.0, delta=0.0, psi_a=1.0, n=5)
        with pytest.raises(ValueError):
            Window(a=0.0, delta=0.1, psi_a=-1.0, n=5)

    def test_default_window_regime(self):
        w = default_window(1000, psi_a=CENTER_DENSITY)
        assert w.delta == pytest.approx(1000.0**-0.6)
        # delta -> 0 while n*delta -> infinity and |A|/sqrt(n) -> 0.
        assert w.size / math.sqrt(1000) < 1.0


class TestEstimateDensity:
    def test_gaussian_center(self):
        spec = EnsembleSpec(beta=2, n=1000)
        draws = [
            sample_tridiagonal(spec, SamplerState(seed=51, stream=s)) for s in range(100)
        ]
        psi = estimate_density(draws, 0.0, bandwidth=0.2)
        assert psi == pytest.approx(CENTER_DENSITY, rel=0.02)

    def test_symmetry(self):
        spec = EnsembleSpec(beta=2, n=1000)
        draws = [
            sample_tridiagonal(spec, SamplerState(seed=52, stream=s)) for s in range(100)
        ]
        left = estimate_density(draws, -0.5, bandwidth=0.2)
        right = estimate_density(draws, 0.5, bandwidth=0.2)
        assert left == pytest.approx(right, rel=0.03)

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_density([], 0.0, bandwidth=0.1)
        with pytest.raises(ValueError, match="outside"):
            estimate_density([np.array([-1.0, 1.0])], 5.0, bandwidth=0.1)
        with pytest.raises(ValueError):
            estimate_density([np.array([-1.0, 1.0])], 0.0, bandwidth=0.0)


class TestRescaleLocalize:
    def test_affine_map(self):
        w = Window(a=0.3, delta=0.1, psi_a=2.0, n=50)
        rs = rescale_localize(np.array([0.1, 0.3, 0.4, 0.9]), w)
        # center -> 0, boundary -> +|A|/2.
        assert rs.inside == pytest.approx([0.0, 0.5 * w.size])

    def test_empty_selection(self):
        w = Window(a=0.0, delta=0.01, psi_a=1.0, n=10)
        rs = rescale_localize(np.array([1.0, 2.0]), w)
        assert rs.inside.size == 0
        assert sigma_cdf(rs).evaluate(1.0) == 0.0
        assert gamma_cdf(2, rs).evaluate(1.0) == 0.0

    def test_inverse_recovery(self, rng):
        w = Window(a=-0.2, delta=0.4, psi_a=0.7, n=300)
        values = np.sort(rng.uniform(-1, 1, 50))
        rs = rescale_localize(values, w)
        back = rs.inside / (w.n * w.psi_a) + w.a
        selected = values[(values >= w.a - w.delta) & (values <= w.a + w.delta)]
        assert np.allclose(back, selected, rtol=1e-12, atol=1e-14)


class TestSigmaCdf:
    def test_three_point_example(self):
        rs = make_rs([0.0, 0.4, 1.0], size=3.0)
        ecdf = sigma_cdf(rs)
        assert ecdf.evaluate(0.5) == pytest.approx(1.0 / 3.0)
        assert ecdf.evaluate(1.0) == pytest.approx(2.0 / 3.0)  # closed threshold

    def test_degenerate(self):
        assert sigma_cdf(make_rs([0.7])).evaluate(10.0) == 0.0
        assert sigma_cdf(make_rs([])).evaluate(10.0) == 0.0

    def test_total_mass(self):
        # Exactly |A|+1 points inside gives mass 1.
        rs = make_rs(np.linspace(0, 1, 5), size=4.0)
        assert sigma_cdf(rs).total_mass == pytest.approx(1.0)
        assert sigma_cdf(make_rs([0.7])).total_mass == 0.0


def brute_force_gamma_count(inside, k, s):
    """Oracle: enumerate all k-tuples of indices with endpoints spanning <= s."""
    count = 0
    p = len(inside)
    for combo in itertools.combinations(range(p), k):
        if inside[combo[-1]] - inside[combo[0]] <= s:
            count += 1
    return count


class TestGammaCdf:
    def test_three_point_examples(self):
        rs = make_rs([0.0, 0.4, 1.0], size=3.0)
        assert gamma_cdf(2, rs).count_at(1.0) == 3
        assert gamma_cdf(3, rs).count_at(1.0) == 1
        assert gamma_cdf(4, rs).count_at(10.0) == 0  # k exceeds the point count
        assert gamma_cdf(2, rs).evaluate(1.0) == pytest.approx(3.0 / 3.0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            gamma_cdf(1, make_rs([0.0, 1.0]))

    def test_matches_brute_force(self, rng):
        for trial in range(25):
            p = int(rng.integers(2, 13))
            inside = np.sort(rng.uniform(0, 6, p))
            rs = make_rs(inside, size=5.0)
            for k in range(2, min(p, 6) + 1):
                counts = gamma_cdf(k, rs)
                for s in rng.uniform(0, 6, 4):
                    assert counts.count_at(s) == brute_force_gamma_count(inside, k, s)

    def test_heights_are_integer_multiples(self, rng):
        rs = make_rs(np.sort(rng.uniform(0, 4, 9)), size=3.0)
        counts = gamma_cdf(3, rs)
        vals = counts.evaluate(np.sort(counts.spans))
        scaled = vals * rs.window.size
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)


def reference_identity_check(rs, comb=math.comb):
    """The O(p^4) check: every span count re-summed from per-interior-count
    tallies at every jump point."""
    p = rs.inside.size
    spans, gaps = spacings._pair_data(rs.inside)
    if spans.size == 0:
        return IdentityReport(ok=True, checked_points=0, violations=())
    order = np.argsort(spans, kind="stable")
    spans, gaps = spans[order], gaps[order]

    violations = []
    tally = [0] * p
    sigma_count = 0
    idx = 0
    points = 0
    while idx < spans.size:
        s = spans[idx]
        while idx < spans.size and spans[idx] <= s:
            g = int(gaps[idx])
            tally[g] += 1
            if g == 0:
                sigma_count += 1
            idx += 1
        points += 1
        gamma_counts = [
            sum(tally[g] * comb(g, k - 2) for g in range(p)) for k in range(2, p + 1)
        ]
        alternating = sum(
            (-1) ** k * gamma_counts[k - 2] for k in range(2, p + 1)
        )
        if alternating != sigma_count:
            violations.append(
                (float(s), "identity", f"alternating={alternating} sigma={sigma_count}")
            )
        partial = 0
        for m in range(2, p + 1):
            partial += (-1) ** m * gamma_counts[m - 2]
            if (-1) ** m * sigma_count > (-1) ** m * partial:
                violations.append(
                    (float(s), f"truncation m={m}", f"partial={partial} sigma={sigma_count}")
                )
    return IdentityReport(
        ok=not violations, checked_points=points, violations=tuple(violations)
    )


def assert_same_report(rs, comb=math.comb):
    got = alternating_identity_check(sigma_cdf(rs), rs)
    want = reference_identity_check(rs, comb)
    assert (got.ok, got.checked_points, got.violations) == (
        want.ok, want.checked_points, want.violations
    )


class TestAlternatingIdentity:
    def test_three_point_example(self):
        rs = make_rs([0.0, 0.4, 1.0], size=3.0)
        # gamma_2 - gamma_3 = 3 - 1 = 2 = sigma count at s = 1.
        assert gamma_cdf(2, rs).count_at(1.0) - gamma_cdf(3, rs).count_at(1.0) == 2
        assert np.searchsorted(sigma_cdf(rs).jumps, 1.0, side="right") == 2
        report = alternating_identity_check(sigma_cdf(rs), rs)
        assert report.ok
        assert report.checked_points == 3

    def test_single_point_vacuous(self):
        rs = make_rs([0.5])
        report = alternating_identity_check(sigma_cdf(rs), rs)
        assert report.ok
        assert report.checked_points == 0

    def test_random_gue_windows_exact(self):
        for stream in range(100):
            rs = gue_window(50, seed=61, stream=stream)
            report = alternating_identity_check(sigma_cdf(rs), rs)
            assert report.ok, report.violations

    def test_sides_that_disagree_are_detected(self):
        # The spacing side comes from sigma_cdf, so a span side counted on
        # other points breaks the identity at the first spacing it misses.
        rs = make_rs([0.0, 0.4, 1.0], size=3.0)
        report = alternating_identity_check(sigma_cdf(rs), make_rs([-0.1, 0.4, 1.0], size=3.0))
        assert report.violations[0] == (
            pytest.approx(0.4), "identity", "alternating=0 sigma=1"
        )
        # A jump of the spacing side alone is a checked point too.
        ecdf = EmpiricalSpacingCDF(jumps=np.array([0.5]), window_size=3.0)
        report = alternating_identity_check(ecdf, make_rs([0.7]))
        assert report.checked_points == 1
        assert report.violations == ((0.5, "identity", "alternating=0 sigma=1"),)

    def test_ties_do_not_crash(self):
        rs = make_rs([0.0, 0.2, 0.2, 0.9], size=3.0)
        assert alternating_identity_check(sigma_cdf(rs), rs).ok

    def test_matches_reference_on_random_windows(self, rng):
        for p in range(31):
            assert_same_report(make_rs(np.sort(rng.normal(size=p)), size=5.0))
            # Integer points: tied eigenvalues and tied spans.
            assert_same_report(make_rs(np.sort(rng.integers(0, 8, p)), size=5.0))
            # Equally spaced points: every span occurs many times exactly.
            assert_same_report(make_rs(0.25 * np.arange(p), size=5.0))

    def test_matches_reference_on_wide_goe_windows(self):
        n = 400
        window = default_window(n, psi_a=CENTER_DENSITY, delta_exponent=-0.3)
        for stream in range(2):
            values = sample_tridiagonal(
                EnsembleSpec(beta=1, n=n), SamplerState(seed=66, stream=stream)
            )
            rs = rescale_localize(values, window)
            assert rs.inside.size > 30
            assert_same_report(rs)

    def test_wrong_binomial_is_detected(self, monkeypatch):
        # Running counts built from a wrong C(2, 1) must break the identity
        # and the m >= 4 truncations, reported as the reference reports them.
        def comb(g, j):
            return math.comb(g, j) + (g == 2 and j == 1)

        monkeypatch.setattr(spacings, "math", SimpleNamespace(comb=comb))
        rs = make_rs([0.0, 0.3, 0.7, 1.2, 2.0])
        assert_same_report(rs, comb)
        report = alternating_identity_check(sigma_cdf(rs), rs)
        assert not report.ok
        assert {kind.split()[0] for _, kind, _ in report.violations} == {
            "identity", "truncation"
        }


class TestKsNodeDistance:
    def test_exact_match_gives_floor(self):
        m = 10
        nodes = np.linspace(0.2, 1.8, m - 1)
        # Jumps exactly at the nodes and one beyond the last, |A| = m: the
        # ecdf hits i/m at every node and the mass is one.
        ecdf = EmpiricalSpacingCDF(jumps=np.append(nodes, 2.0), window_size=m)
        report = ks_node_distance(ecdf, nodes)
        assert report.node_max == 0.0
        assert report.bound == pytest.approx(1.0 / m)

    def test_empty_window(self, cdf2_m50):
        ecdf = sigma_cdf(make_rs([], size=1.0))
        report = ks_node_distance(ecdf, cdf2_m50.nodes)
        m = cdf2_m50.node_count
        assert report.node_max == pytest.approx((m - 1) / m)
        assert report.bound >= 1.0

    def test_bound_dominates_pointwise_distance(self, cdf2_m50, rng):
        # Node-based bound >= |ecdf(s) - F(s)| at arbitrary s (the content of
        # the node construction).
        for stream in range(5):
            rs = gue_window(400, seed=62, stream=stream)
            ecdf = sigma_cdf(rs)
            report = ks_node_distance(ecdf, cdf2_m50.nodes)
            s = rng.uniform(0.0, 6.0, 200)
            pointwise = np.abs(ecdf.evaluate(s) - cdf2_m50.evaluate(s))
            assert np.all(pointwise <= report.bound + 1e-12)

    def test_mean_bound_decreases_with_size(self, cdf2_m50):
        means = []
        for n in (100, 400):
            bounds = [
                ks_node_distance(
                    sigma_cdf(gue_window(n, seed=63, stream=s)), cdf2_m50.nodes
                ).bound
                for s in range(100)
            ]
            means.append(np.mean(bounds))
        assert means[1] < means[0]

    def test_mean_mass_matches_prediction(self):
        # E(total mass) = 1 - 1/|A| up to kernel-convergence corrections.
        n = 400
        masses = []
        for s in range(200):
            rs = gue_window(n, seed=64, stream=s)
            masses.append(sigma_cdf(rs).total_mass)
        masses = np.array(masses)
        size = rs.window.size
        predicted = 1.0 - 1.0 / size
        stderr = masses.std(ddof=1) / np.sqrt(masses.size)
        assert abs(masses.mean() - predicted) < 3.0 * stderr


class TestVarianceDiagnostic:
    def test_constant_draws(self):
        rs = make_rs([0.0, 0.5, 1.0], size=2.0)
        report = variance_diagnostic({100: [rs] * 100, 200: [rs] * 100}, k=2, alpha=1.0)
        assert np.all(report.variances == 0.0)
        assert math.isnan(report.slope)

    def test_scaling_slope_with_ci(self):
        draws = {
            n: [gue_window(n, seed=65, stream=s) for s in range(150)]
            for n in (100, 400)
        }
        report = variance_diagnostic(draws, k=2, alpha=1.0, rng=1)
        assert report.slope < 0
        lo, hi = report.slope_ci
        assert lo <= report.slope <= hi

    def test_validation(self):
        rs = make_rs([0.0, 1.0])
        with pytest.raises(ValueError, match="draws"):
            variance_diagnostic({100: [rs], 200: [rs]}, k=2, alpha=1.0)
        with pytest.raises(ValueError):
            variance_diagnostic({100: [rs] * 100}, k=2, alpha=1.0)
