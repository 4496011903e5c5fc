"""Brute-force oracles and diagnostics that only the tests read.

They check spacinglab from outside the package: this module imports no
``_``-prefixed spacinglab name, so no oracle shares a private helper with the
code it checks.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from spacinglab.kernels import matrix_kernel

# Semicircle density on [-2, 2]; its value at the centre of the spectrum.
CENTER_DENSITY = 1.0 / np.pi

DENSE_SIZE_CAP = 2000

# The expansion sums over set partitions, block bijections and 2^k index
# words and is only meant to cross-check small k.
EXPANSION_ORDER_MAX = 4


def regularized_antideriv4(u: float, v: float, x, y):
    """beta=4 antiderivative entry at shifted arguments, recentred to decay.

    Returns I4(x+u, y+v) - 1/4 for y < x and I4(x+u, y+v) + 1/4 for y >= x.
    The shift by -sgn(x-y)/4 removes the limits +-1/4 at x-y -> +-infinity,
    leaving an O(1/|x-y|) tail that is square integrable in x uniformly in y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base = matrix_kernel(4, x + u, y + v).antideriv
    out = np.where(y < x, base - 0.25, base + 0.25)
    return float(out) if np.ndim(out) == 0 else out


def _set_partitions(items: list) -> Iterator[list[list]]:
    """All partitions of ``items`` into non-empty unordered blocks."""
    if len(items) == 1:
        yield [items]
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _cycle_block_sum(beta: int, pts: np.ndarray, block: Sequence[int]) -> float:
    """Sum over all bijections of a block of the traced cyclic kernel product.

    For a block of size p this is (1/2p) * sum over orderings of
    tr(K(t_{s1},t_{s2}) K(t_{s2},t_{s3}) ... K(t_{sp},t_{s1})); the trace
    carries out the sum over the 2^p entry-index words of the chain.
    """
    p = len(block)
    acc = 0.0
    for order in itertools.permutations(block):
        chain = np.eye(2)
        for r in range(p):
            a, b = order[r], order[(r + 1) % p]
            s, d, i = matrix_kernel(beta, pts[a], pts[b])
            chain = chain @ np.array([[s, d], [i, s]])
        acc += chain[0, 0] + chain[1, 1]
    return acc / (2.0 * p)


def corr_fn_expansion(beta: int, points: Sequence[float]) -> float:
    """Brute-force evaluation of the k-point correlation function.

    For beta=1,4 this sums over all set partitions of the points, all
    bijections of each block and all entry-index words, forming cyclic
    products of matrix-kernel factors with sign (-1)^(k - #blocks); it is
    the combinatorial expansion underlying the Pfaffian formula and serves
    as the oracle for corr_fn.  For beta=2 the Leibniz sum over permutations
    of the sine-kernel determinant plays the same role.

    Cost is super-exponential in k, hence the small cap.
    """
    pts = np.asarray(points, dtype=float)
    k = pts.size
    if k < 1:
        raise ValueError("at least one point is required")
    if k > EXPANSION_ORDER_MAX:
        raise ValueError("correlation order too large")
    if beta == 2:
        total = 0.0
        for perm in itertools.permutations(range(k)):
            term = _permutation_sign(perm)
            for i in range(k):
                term *= np.sinc(pts[i] - pts[perm[i]])
            total += term
        return float(total)
    if beta not in (1, 4):
        raise ValueError(f"beta must be 1, 2 or 4, got {beta}")
    total = 0.0
    for partition in _set_partitions(list(range(k))):
        m = len(partition)
        prod = 1.0
        for block in partition:
            prod *= _cycle_block_sum(beta, pts, sorted(block))
        total += (-1.0) ** (k - m) * prod
    return total


def dense_goe_matrix(spec, state) -> np.ndarray:
    """Dense symmetric Gaussian matrix whose eigenvalue law matches the
    beta=1 tridiagonal sampler (off-diagonal variance 1/n, diagonal 2/n)."""
    if spec.beta != 1:
        raise ValueError("dense sampler is the beta=1 validation path")
    if not spec.is_gaussian:
        raise ValueError("dense sampler requires a Gaussian potential")
    if spec.n > DENSE_SIZE_CAP:
        raise ValueError(f"dense sampler capped at n={DENSE_SIZE_CAP}")
    rng = state.generator()
    g = rng.standard_normal((spec.n, spec.n))
    return (g + g.T) / np.sqrt(2.0 * spec.n)


def sample_dense_goe(spec, state) -> np.ndarray:
    """Spectrum of the dense GOE matrix (Householder reduction plus
    tridiagonal eigensolve inside LAPACK's symmetric driver)."""
    return np.sort(np.linalg.eigvalsh(dense_goe_matrix(spec, state)))


@dataclass(frozen=True)
class GammaCounts:
    """Span counting measure for k-tuples with endpoints inside the window.

    ``spans`` are the pairwise endpoint distances in increasing order and
    ``multiplicities`` the exact integer number of k-tuples with that pair of
    endpoints; heights of the normalized step function are integers / |A|.
    """

    k: int
    spans: np.ndarray
    multiplicities: np.ndarray  # object array of Python ints, exact
    window_size: float

    def count_at(self, s: float) -> int:
        idx = int(np.searchsorted(self.spans, s, side="right"))
        return int(sum(self.multiplicities[:idx], 0))

    def evaluate(self, s):
        if np.ndim(s) == 0:
            return self.count_at(float(s)) / self.window_size
        cum = np.concatenate([[0], np.cumsum(self.multiplicities.astype(float))])
        idx = np.searchsorted(self.spans, s, side="right")
        return cum[idx] / self.window_size


def gamma_cdf(k: int, rs) -> GammaCounts:
    """Counting measure of k-tuple spans, k >= 2.

    Only the two endpoints are constrained to the window; because the
    eigenvalues are sorted, every index strictly between the endpoints is
    automatically inside, so a pair at positional distance g+1 carries
    binom(g, k-2) tuples.  Cost O(p^2) over the p inside eigenvalues.
    """
    if k < 2:
        raise ValueError("tuple order k must be at least 2")
    # Every endpoint pair (i < j) in increasing span order; equal spans keep
    # their (i, j) order.
    i, j = np.triu_indices(rs.inside.size, 1)
    spans = rs.inside[j] - rs.inside[i]
    order = np.argsort(spans, kind="stable")
    spans, gaps = spans[order], (j - i - 1)[order]
    keep = gaps >= k - 2
    return GammaCounts(
        k=k,
        spans=spans[keep],
        multiplicities=np.array([math.comb(int(g), k - 2) for g in gaps[keep]], dtype=object),
        window_size=rs.window.size,
    )


@dataclass(frozen=True)
class VarianceScalingReport:
    """Log-log scaling of the span-count variance against window length."""

    sizes: tuple
    window_sizes: np.ndarray
    variances: np.ndarray
    slope: float
    slope_ci: tuple


def variance_diagnostic(
    draws_by_size,
    k: int,
    alpha: float,
    bootstrap: int = 200,
    rng=None,
    min_draws: int = 100,
) -> VarianceScalingReport:
    """Empirical variance of the k-tuple span count up to alpha, across sizes.

    For each matrix size the variance of the normalized count over draws is
    regressed (log-log) against the rescaled window length; the expected
    decay is one over the window length.  The slope's confidence interval
    comes from a per-size bootstrap over draws.
    """
    if k < 2:
        raise ValueError("tuple order k must be at least 2")
    sizes = sorted(draws_by_size)
    if len(sizes) < 2:
        raise ValueError("need at least two matrix sizes")
    rng = np.random.default_rng(rng)
    window_sizes = []
    samples = []
    for n in sizes:
        draws = draws_by_size[n]
        if len(draws) < min_draws:
            raise ValueError(f"need at least {min_draws} draws per size, n={n}")
        vals = np.array([gamma_cdf(k, rs).evaluate(alpha) for rs in draws])
        samples.append(vals)
        window_sizes.append(draws[0].window.size)
    window_sizes = np.array(window_sizes)
    variances = np.array([v.var(ddof=1) for v in samples])

    def fit(vs):
        if np.any(vs <= 0):
            return float("nan")
        return float(np.polynomial.polynomial.polyfit(
            np.log(window_sizes), np.log(vs), 1
        )[1])

    slope = fit(variances)
    boots = []
    for _ in range(bootstrap):
        resampled = np.array(
            [v[rng.integers(0, v.size, v.size)].var(ddof=1) for v in samples]
        )
        boots.append(fit(resampled))
    boots = np.asarray(boots, dtype=float)
    if np.all(np.isfinite(boots)):
        ci = (float(np.percentile(boots, 2.5)), float(np.percentile(boots, 97.5)))
    else:
        ci = (float("nan"), float("nan"))
    return VarianceScalingReport(
        sizes=tuple(sizes),
        window_sizes=window_sizes,
        variances=variances,
        slope=slope,
        slope_ci=ci,
    )


def tail_fit(cdf, window: tuple[float, float] = (2.0, 6.0)):
    """Gaussian-tail fit of the spacing distribution.

    The decay rate B is the negative least-squares slope of log(1 - F)
    against s^2 over the window.  The prefactor A is the smallest constant
    for which 1 - F(s) <= A exp(-B s^2) holds on the whole tabulated grid
    (never below the fitted intercept); because 1 - F(0) = 1 this forces
    A >= 1, matching the envelope normalization.  If 1 - F underflows inside
    the window the fit is restricted to the usable part with a warning.
    """
    lo, hi = window
    if cdf.grid[-1] < hi:
        raise ValueError(f"CDF grid must reach s={hi}")
    mask = (cdf.grid >= lo) & (cdf.grid <= hi)
    tail = cdf.survival[mask]
    s = cdf.grid[mask]
    usable = tail > 1e-290
    if not np.all(usable):
        warnings.warn(
            f"1-F underflows before s={hi:g}; tail fit window restricted",
            RuntimeWarning,
            stacklevel=2,
        )
        s, tail = s[usable], tail[usable]
    if s.size < 8:
        raise ValueError("tail fit window contains too few usable points")
    coeffs = np.polynomial.polynomial.polyfit(s**2, np.log(tail), 1)
    rate = float(-coeffs[1])
    positive = cdf.survival > 0
    log_envelope = np.max(
        np.log(cdf.survival[positive]) + rate * cdf.grid[positive] ** 2
    )
    return float(np.exp(max(coeffs[0], log_envelope))), rate
