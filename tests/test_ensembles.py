import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal

from oracles import CENTER_DENSITY, dense_goe_matrix, sample_dense_goe
from spacinglab import ensembles
from spacinglab.ensembles import (
    EnsembleSpec,
    SamplerState,
    _semicircle_quantiles,
    log_density_diff,
    sample_mcmc,
    sample_tridiagonal,
    semicircle_density,
)
from spacinglab.experiment import write_table

each_beta = pytest.mark.parametrize("beta", [1, 2, 4])
each_potential = pytest.mark.parametrize(
    "potential",
    ["gaussian", (0.0, 0.0, 0.0, 0.0, 16.0), (0.3, 0.0, -1.0, 0.0, 0.25)],
    ids=["gaussian", "quartic", "mixed-sign"],
)


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(beta=3, n=10)
        with pytest.raises(ValueError):
            EnsembleSpec(beta=2, n=0)
        with pytest.raises(ValueError, match="even degree"):
            EnsembleSpec(beta=2, n=10, potential=(0.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="leading"):
            EnsembleSpec(beta=2, n=10, potential=(0.0, 0.0, -1.0))

    def test_quartic_ok(self):
        spec = EnsembleSpec(beta=4, n=10, potential=(0.0, 0.0, 0.0, 0.0, 1.0))
        assert not spec.is_gaussian
        # beta=4 doubles the confinement exponent.
        assert spec.log_weight(1.0) == pytest.approx(-2.0 * 10)


class TestTridiagonal:
    def test_deterministic(self):
        spec = EnsembleSpec(beta=2, n=64)
        a = sample_tridiagonal(spec, SamplerState(seed=7, stream=3))
        b = sample_tridiagonal(spec, SamplerState(seed=7, stream=3))
        assert np.array_equal(a, b)
        c = sample_tridiagonal(spec, SamplerState(seed=7, stream=4))
        assert not np.array_equal(a, c)

    def test_sorted_output(self):
        # The spectrum is returned in the eigensolver's own order, which
        # must be ascending at every beta and size.
        for beta in (1, 2, 4):
            for n in (2, 3, 101, 400):
                spec = EnsembleSpec(beta=beta, n=n)
                for stream in range(3):
                    vals = sample_tridiagonal(spec, SamplerState(seed=1, stream=stream))
                    assert vals.shape == (n,)
                    assert np.all(np.diff(vals) >= 0)

    @each_beta
    def test_same_bits_as_eigvalsh_tridiagonal(self, beta):
        # The draw calls LAPACK's dsterf itself; the model rebuilt from its
        # docstring and solved by scipy's public route to the same routine
        # must give the same bits.
        for n in (2, 3, 17, 101, 400, 1600):
            scale = 1.0 / np.sqrt(beta * n)
            for stream in range(3):
                state = SamplerState(seed=13, stream=stream)
                rng = state.generator()
                diag = rng.normal(0.0, np.sqrt(2.0), n) * scale
                off = np.sqrt(rng.chisquare(beta * np.arange(n - 1, 0, -1))) * scale
                expected = eigvalsh_tridiagonal(diag, off, lapack_driver="sterf")
                drawn = sample_tridiagonal(EnsembleSpec(beta=beta, n=n), state)
                assert drawn.dtype == expected.dtype
                assert drawn.tobytes() == expected.tobytes()

    def test_failed_eigensolve_raises(self, monkeypatch):
        # dsterf reports a failure through info, not by raising.
        monkeypatch.setattr(ensembles, "_lapack", lambda name: lambda d, e: (d, 1))
        with pytest.raises(RuntimeError, match=r"dsterf failed .* n=16 \(info=1\)"):
            sample_tridiagonal(EnsembleSpec(beta=2, n=16), SamplerState(seed=0))

    def test_requires_gaussian(self):
        spec = EnsembleSpec(beta=2, n=16, potential=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="Gaussian"):
            sample_tridiagonal(spec, SamplerState(seed=0))

    def test_single_site_is_gaussian(self):
        # n=1 reduces to one Gaussian of standard deviation sqrt(2/beta).
        beta = 2
        spec = EnsembleSpec(beta=beta, n=1)
        draws = np.array(
            [
                sample_tridiagonal(spec, SamplerState(seed=11, stream=s))[0]
                for s in range(100_000)
            ]
        )
        res = stats.kstest(draws, stats.norm(scale=np.sqrt(2.0 / beta)).cdf)
        assert res.pvalue > 0.01

    def test_two_site_spacing_law(self):
        # n=2, beta=2: spacing density ~ s^2 exp(-s^2/2); oracle CDF by
        # direct quadrature of the closed-form joint law.
        spec = EnsembleSpec(beta=2, n=2)
        gaps = np.array(
            [
                np.diff(sample_tridiagonal(spec, SamplerState(seed=5, stream=s)))[0]
                for s in range(100_000)
            ]
        )
        norm, _ = quad(lambda u: u**2 * np.exp(-(u**2) / 2.0), 0.0, np.inf)
        edges = np.quantile(gaps, np.linspace(0.0, 1.0, 41))
        edges[0], edges[-1] = 0.0, np.inf

        def cdf(u):
            return quad(lambda t: t**2 * np.exp(-(t**2) / 2.0), 0.0, u)[0] / norm

        probs = np.diff([0.0] + [cdf(e) for e in edges[1:-1]] + [1.0])
        counts = np.histogram(gaps, edges)[0]
        res = stats.chisquare(counts, probs * gaps.size)
        assert res.pvalue > 0.01

    def test_semicircle_density_at_center(self):
        # The scaling convention puts the limiting density at 1/pi at a=0.
        spec = EnsembleSpec(beta=2, n=2000)
        vals = sample_tridiagonal(spec, SamplerState(seed=2))
        frac = np.mean(np.abs(vals) < 0.25)
        assert frac == pytest.approx(2 * 0.25 * CENTER_DENSITY, rel=0.05)
        assert np.max(np.abs(vals)) < 2.1


class TestDenseGOE:
    def test_trace_and_symmetry(self):
        spec = EnsembleSpec(beta=1, n=200)
        m = dense_goe_matrix(spec, SamplerState(seed=3))
        assert np.array_equal(m, m.T)
        vals = sample_dense_goe(spec, SamplerState(seed=3))
        assert np.sum(vals) == pytest.approx(np.trace(m), rel=1e-9)
        assert np.all(np.isreal(vals))

    def test_caps_and_validation(self):
        with pytest.raises(ValueError, match="capped"):
            sample_dense_goe(EnsembleSpec(beta=1, n=2001), SamplerState(seed=0))
        with pytest.raises(ValueError, match="beta=1"):
            dense_goe_matrix(EnsembleSpec(beta=2, n=10), SamplerState(seed=0))

    def test_same_law_as_tridiagonal(self):
        # Central bulk spacing, 500 draws per sampler, two-sample KS.
        n = 200
        spec = EnsembleSpec(beta=1, n=n)
        mid = n // 2
        dense = np.array(
            [
                np.diff(sample_dense_goe(spec, SamplerState(seed=21, stream=s)))[mid]
                for s in range(500)
            ]
        )
        trid = np.array(
            [
                np.diff(sample_tridiagonal(spec, SamplerState(seed=22, stream=s)))[mid]
                for s in range(500)
            ]
        )
        res = stats.ks_2samp(dense, trid)
        assert res.pvalue > 0.01


# Significance level of the inter-class KS tests, the p-value below which a
# negative control counts as rejected, and the draws a side that reject both
# controls at every case.
ALPHA = 1e-3
CONTROL_P = 1e-6
DRAWS = 4000


def _tridiagonal_spectra(beta, n, draws, seed):
    spec = EnsembleSpec(beta=beta, n=n)
    return np.array(
        [sample_tridiagonal(spec, SamplerState(seed=seed, stream=s)) for s in range(draws)]
    )


def _log_gas_spectra(potential, n, chains, seed):
    """The last spectrum of each of ``chains`` beta = 4 log-gas chains, as
    ``experiment._draw_spectrum`` runs them: 600 + n sweeps, burn-in 500."""
    spec = EnsembleSpec(beta=4, n=n, potential=potential)
    spectra = []
    for stream in range(chains):
        state = SamplerState(seed=seed, stream=stream)
        *_, last = sample_mcmc(spec, state, steps=600 + n, burn_in=500, thin=max(1, n // 10))
        spectra.append(last)
    return np.array(spectra)


def _ks_pvalues(a, b):
    """Two-sample KS p-values of the lowest, middle and top eigenvalue and
    the bulk spacing below the middle one, for spectra in rows."""
    mid = a.shape[1] // 2

    def picks(x):
        return x[:, 0], x[:, mid], x[:, -1], x[:, mid] - x[:, mid - 1]

    return [stats.ks_2samp(u, v).pvalue for u, v in zip(picks(a), picks(b))]


class TestInterClassRelations:
    """Forrester-Rains relations between the three classes at finite n, in
    the package's scaling (semicircle on [-2, 2] at every beta):
    even(l(GOE_{2N+1})) = sqrt(2N/(2N+1)) l(GSE_N), and
    alt(sqrt(N) l(GOE_N) u sqrt(N+1) l(GOE_{N+1})) = sqrt(N) l(GUE_N), where
    even/alt keep the 2nd, 4th, ..., 2N-th of the sorted eigenvalues.  Each
    relation is checked together with two negative controls it must reject:
    the odd-indexed eigenvalues, and the right side scaled by 5 %."""

    def _check(self, spectra, target):
        even, odd = spectra[:, 1::2], spectra[:, 0:-1:2]
        assert min(_ks_pvalues(even, target)) > ALPHA
        assert min(_ks_pvalues(odd, target)) < CONTROL_P
        assert min(_ks_pvalues(even, 1.05 * target)) < CONTROL_P

    @pytest.mark.parametrize("n", [4, 16])
    def test_goe_decimation_is_gse(self, n):
        goe = _tridiagonal_spectra(1, 2 * n + 1, DRAWS, seed=1201)
        gse = _tridiagonal_spectra(4, n, DRAWS, seed=1202)
        self._check(goe, np.sqrt(2 * n / (2 * n + 1)) * gse)

    def test_goe_superposition_is_gue(self):
        n = 8
        merged = np.sort(
            np.hstack(
                [
                    np.sqrt(n) * _tridiagonal_spectra(1, n, DRAWS, seed=1203),
                    np.sqrt(n + 1) * _tridiagonal_spectra(1, n + 1, DRAWS, seed=1204),
                ]
            ),
            axis=1,
        )
        self._check(merged, np.sqrt(n) * _tridiagonal_spectra(2, n, DRAWS, seed=1205))

    @pytest.mark.slow
    def test_goe_decimation_is_log_gas_gse(self):
        # The log-gas at beta = 4 under the Gaussian, named and in its c = 2
        # polynomial form (the same weight, another start), one chain of the
        # pipeline's length per spectrum; the controls are the odd-indexed
        # eigenvalues and a 10 % stronger confinement.
        n, chains = 8, 400
        goe = _tridiagonal_spectra(1, 2 * n + 1, DRAWS, seed=1206)
        scale = np.sqrt(2 * n / (2 * n + 1))
        for potential, seed in [((0.0, 0.0, 0.5), 1207), ("gaussian", 1209)]:
            gse = scale * _log_gas_spectra(potential, n, chains, seed=seed)
            assert min(_ks_pvalues(goe[:, 1::2], gse)) > ALPHA
            assert min(_ks_pvalues(goe[:, 0:-1:2], gse)) < CONTROL_P
        stronger = scale * _log_gas_spectra((0.0, 0.0, 0.55), n, chains, seed=1208)
        assert min(_ks_pvalues(goe[:, 1::2], stronger)) < CONTROL_P


class TestMcmc:
    def test_deterministic_and_sorted(self):
        spec = EnsembleSpec(beta=2, n=12)
        out1 = list(sample_mcmc(spec, SamplerState(seed=9), steps=60, burn_in=40, thin=5))
        out2 = list(sample_mcmc(spec, SamplerState(seed=9), steps=60, burn_in=40, thin=5))
        assert len(out1) == 4
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)
            assert np.all(np.diff(a) >= 0)

    def test_validation(self):
        spec = EnsembleSpec(beta=2, n=4)
        with pytest.raises(ValueError, match="exceed"):
            list(sample_mcmc(spec, SamplerState(seed=0), steps=10, burn_in=10))

    def test_acceptance_rate_tracked(self):
        spec = EnsembleSpec(beta=2, n=16)
        state = SamplerState(seed=4)
        list(sample_mcmc(spec, state, steps=300, burn_in=200, thin=10))
        assert state.proposed == (300 - 200) * 16
        assert 0.05 <= state.acceptance_rate <= 0.95
        assert not state.warnings

    def test_relabeling_invariance(self, rng):
        # The single-site update depends on the configuration as a set, not
        # on the coordinate labels.
        spec = EnsembleSpec(beta=4, n=8)
        x = np.sort(rng.normal(size=8))
        perm = rng.permutation(8)
        i = 3
        prop = x[i] + 0.1
        d1 = _log_density_diff(spec, x, i, prop)
        xp = x[perm]
        d2 = _log_density_diff(spec, xp, int(np.where(perm == i)[0][0]), prop)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_coincident_proposal_rejected(self):
        spec = EnsembleSpec(beta=2, n=4)
        x = np.array([-1.0, 0.0, 1.0, 2.0])
        assert _log_density_diff(spec, x, 0, 1.0) == -np.inf

    @each_beta
    @each_potential
    def test_log_density_diff_matches_array_weight(self, beta, potential):
        # The scalar weight must reproduce the array formula bit for bit, so
        # that chains keep accepting exactly the same proposals; a scratch
        # buffer left dirty by the previous call must not change a byte.
        rng = np.random.default_rng([beta, len(potential)])
        for n in (2, 9, 33, 150):
            spec = EnsembleSpec(beta=beta, n=n, potential=potential)
            work = np.full((2, n), np.nan)
            for _ in range(40):
                x = rng.normal(0.0, 1.5, n)
                i = int(rng.integers(n))
                proposal = x[i] + rng.normal(0.0, 0.5)
                expected = _reference_log_density_diff(spec, x, i, proposal)
                weights = [spec.log_weight(v) for v in x.tolist()]
                got = log_density_diff(spec, x, i, proposal, work, weights)
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @each_beta
    @each_potential
    def test_carried_weights_change_no_value(self, beta, potential):
        # A chain computes each coordinate's log-weight once and refreshes it
        # on accept; over a walk of accepted and rejected moves the carried
        # weights must give the freshly computed reference, bit for bit.
        rng = np.random.default_rng([beta, 7, len(potential)])
        for n in (2, 9, 33, 150):
            spec = EnsembleSpec(beta=beta, n=n, potential=potential)
            work = np.empty((2, n))
            x = rng.normal(0.0, 1.5, n)
            weights = [spec.log_weight(v) for v in x.tolist()]
            for _ in range(40):
                i = int(rng.integers(n))
                proposal = x[i] + rng.normal(0.0, 0.5)
                carried = log_density_diff(spec, x, i, proposal, work, weights)
                fresh = _reference_log_density_diff(spec, x, i, proposal)
                assert np.float64(carried).tobytes() == np.float64(fresh).tobytes()
                if rng.random() < 0.5:
                    x[i] = proposal
                    weights[i] = spec.log_weight(float(proposal))

    @each_beta
    @each_potential
    def test_chain_matches_reference_loop(self, beta, potential):
        # The sampler must accept exactly the proposals of the plain
        # one-temporary-per-term loop below; n = 150 crosses numpy's
        # 128-element pairwise-summation block.
        for n in (2, 9, 33, 150):
            spec = EnsembleSpec(beta=beta, n=n, potential=potential)
            state, ref = SamplerState(seed=n, stream=beta), SamplerState(seed=n, stream=beta)
            got = list(sample_mcmc(spec, state, steps=40, burn_in=30, thin=3))
            want = list(_reference_mcmc(spec, ref, steps=40, burn_in=30, thin=3))
            assert len(got) == len(want) == 4
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert (state.accepted, state.proposed) == (ref.accepted, ref.proposed)
            assert state.warnings == ref.warnings

    @pytest.mark.slow
    def test_two_particle_stationary_density(self):
        # n=2, beta=2, Gaussian: target density |x-y|^2 exp(-x^2-y^2)/Z.
        # Compare a 2D histogram of the chain with the quadrature-normalized
        # analytic density on a coarse grid.
        spec = EnsembleSpec(beta=2, n=2)
        state = SamplerState(seed=13)
        samples = np.array(
            list(sample_mcmc(spec, state, steps=450_000, burn_in=2_000, thin=3))
        )
        lo, hi, nb = -2.4, 2.4, 12
        edges = np.linspace(lo, hi, nb + 1)
        xs = 0.5 * (edges[:-1] + edges[1:])
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        dens = (gx - gy) ** 2 * np.exp(-(gx**2) - gy**2)
        fine = np.linspace(-6, 6, 601)
        fx, fy = np.meshgrid(fine, fine, indexing="ij")
        z = np.trapezoid(
            np.trapezoid((fx - fy) ** 2 * np.exp(-(fx**2) - fy**2), fine, axis=1), fine
        )
        dens /= z
        # The chain state is unordered; histogram both coordinate orders.
        pts = np.concatenate([samples, samples[:, ::-1]])
        hist = np.histogram2d(pts[:, 0], pts[:, 1], bins=[edges, edges], density=True)[0]
        assert np.max(np.abs(hist - dens)) < 0.02

    def test_quartic_confinement(self):
        spec = EnsembleSpec(beta=2, n=50, potential=(0.0, 0.0, 0.0, 0.0, 1.0))
        state = SamplerState(seed=17)
        for spectrum in sample_mcmc(spec, state, steps=400, burn_in=300, thin=20):
            assert np.all(np.isfinite(spectrum))
            assert np.max(np.abs(spectrum)) < 5.0

    def test_marginal_density_matches_tridiagonal(self):
        # One uniformly chosen eigenvalue per thinned configuration gives
        # i.i.d. draws from the level density; same-law KS against the
        # tridiagonal sampler.
        n = 50
        spec = EnsembleSpec(beta=2, n=n)
        state = SamplerState(seed=29)
        draws = 3000
        picker = np.random.default_rng(71)
        mcmc_vals = np.array(
            [
                spectrum[picker.integers(0, n)]
                for spectrum in sample_mcmc(
                    spec, state, steps=200 + 2 * draws, burn_in=200, thin=2
                )
            ]
        )
        trid_vals = np.array(
            [
                sample_tridiagonal(spec, SamplerState(seed=31, stream=s))[
                    picker.integers(0, n)
                ]
                for s in range(draws)
            ]
        )
        res = stats.ks_2samp(mcmc_vals, trid_vals)
        assert res.pvalue > 0.01


def _log_density_diff(spec, x, i, proposal):
    """``log_density_diff`` with a fresh buffer and freshly computed weights."""
    weights = [spec.log_weight(v) for v in x.tolist()]
    return log_density_diff(spec, x, i, proposal, np.empty((2, x.size)), weights)


def _reference_log_weight(spec, x):
    """The one-point log-weight on an array, by numpy's ``polyval``."""
    if spec.is_gaussian:
        return -0.25 * spec.beta * spec.n * x * x
    scale = spec.n if spec.beta in (1, 2) else 2 * spec.n
    return -scale * np.polynomial.polynomial.polyval(x, np.asarray(spec.potential))


def _reference_log_density_diff(spec, x, i, proposal):
    """One temporary array per term and the array form of the weight."""
    new = np.abs(proposal - x)
    old = np.abs(x[i] - x)
    new[i] = 1.0
    old[i] = 1.0
    if np.any(new == 0.0):
        return -np.inf
    rep = np.sum(np.log(new)) - np.sum(np.log(old))
    w = _reference_log_weight(spec, np.array([proposal, x[i]]))
    return spec.beta * rep + float(w[0] - w[1])


def _reference_mcmc(spec, state, steps, burn_in, thin):
    """The sampler's loop with one temporary array per term and per-proposal
    counting: the reference that ``sample_mcmc`` must match bit for bit."""
    n = spec.n
    rng = state.generator()
    x = _semicircle_quantiles(n) if spec.is_gaussian else np.linspace(-1.0, 1.0, n)
    scales = np.full(n, 4.0 / n)
    state.accepted = 0
    state.proposed = 0
    window_acc = np.zeros(n, dtype=int)
    for sweep in range(steps):
        z = rng.standard_normal(n)
        logu = np.log(rng.random(n))
        frozen = sweep >= burn_in
        for i in range(n):
            proposal = x[i] + scales[i] * z[i]
            accept = logu[i] < _reference_log_density_diff(spec, x, i, proposal)
            if accept:
                x[i] = proposal
                window_acc[i] += 1
            if frozen:
                state.proposed += 1
                state.accepted += int(accept)
        if not frozen and (sweep + 1) % 25 == 0:
            rates = window_acc / 25
            scales[rates < 0.3] *= 0.7
            scales[rates > 0.5] *= 1.4
            np.clip(scales, 1e-4, 2.0, out=scales)
            window_acc[:] = 0
        if frozen and (sweep - burn_in) % thin == 0:
            yield np.sort(x)
    rate = state.acceptance_rate
    if not 0.05 <= rate <= 0.95:
        state.warnings.append(
            f"mcmc acceptance rate {rate:.3f} outside [0.05, 0.95] after burn-in"
        )


def test_dump_spectra(tmp_path):
    rows = [(0, 0, 0.1), (0, 1, 0.2), (1, 0, -0.3), (1, 1, np.float64(0.4))]
    path = write_table(tmp_path / "d" / "s.csv", "draw_id,index,eigenvalue", rows)
    assert path == tmp_path / "d" / "s.csv"
    lines = path.read_text().splitlines()
    assert lines == ["draw_id,index,eigenvalue", "0,0,0.1", "0,1,0.2", "1,0,-0.3", "1,1,0.4"]


def test_semicircle_density_shape():
    assert semicircle_density(0.0) == pytest.approx(CENTER_DENSITY)
    assert semicircle_density(2.0) == 0.0
    assert semicircle_density(3.0) == 0.0
