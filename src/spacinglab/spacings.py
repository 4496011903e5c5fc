"""Localized, rescaled spacing statistics and their exact combinatorics.

A window [a - delta, a + delta] around a bulk point is mapped affinely so
that the mean spacing near a becomes one; the (deterministically normalized)
counting measures built here are

* the nearest-neighbour spacing distribution: jumps at consecutive gaps of
  the rescaled eigenvalues inside the window, each of height 1/|A|, where
  |A| = 2 n psi(a) delta is the rescaled window length, and
* the k-tuple span counts: for every pair of inside eigenvalues at positional
  distance g+1 there are binom(g, k-2) index tuples with those endpoints, so
  span counts reduce to pair counts with binomial multiplicities.

The alternating sum over k of the span counts telescopes exactly to the
spacing count (sum_j (-1)^j binom(g, j) vanishes unless g = 0), and its
partial sums bracket the spacing count from alternating sides.  Both facts
are checked in exact integer arithmetic, never with tolerances.

Conventions: window membership and spacing thresholds are closed (boundary
eigenvalues and spacings exactly equal to s count); exact ties between
eigenvalues are zero spacings and count normally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmpiricalSpacingCDF",
    "GammaCounts",
    "IdentityReport",
    "KSReport",
    "RescaledSpectrum",
    "VarianceScalingReport",
    "Window",
    "alternating_identity_check",
    "default_window",
    "estimate_density",
    "gamma_cdf",
    "ks_node_distance",
    "rescale_localize",
    "sigma_cdf",
    "variance_diagnostic",
]

DEFAULT_DELTA_EXPONENT = -0.6


@dataclass(frozen=True)
class Window:
    """Localization window in raw eigenvalue scale.

    ``a`` is the bulk point, ``delta`` the half-width, ``psi_a`` the spectral
    density estimate at a, and ``n`` the matrix size.  The rescaled window
    length 2 n psi_a delta is the deterministic normalization of every
    counting measure downstream.
    """

    a: float
    delta: float
    psi_a: float
    n: int

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("window half-width must be positive")
        if self.psi_a <= 0:
            raise ValueError("density estimate must be positive")
        if self.n < 1:
            raise ValueError("matrix size must be at least 1")

    @property
    def size(self) -> float:
        """Rescaled window length |A| = 2 n psi_a delta."""
        return 2.0 * self.n * self.psi_a * self.delta


def default_window(
    n: int,
    psi_a: float,
    a: float = 0.0,
    delta_exponent: float = DEFAULT_DELTA_EXPONENT,
) -> Window:
    """Window with the default shrinking rule delta = n**exponent.

    The exponent -0.6 keeps delta -> 0, n*delta -> infinity and
    |A|/sqrt(n) -> 0 simultaneously, the regime in which the kernel
    convergence assumption is expected to hold.
    """
    return Window(a=a, delta=float(n) ** delta_exponent, psi_a=psi_a, n=n)


def estimate_density(spectra, a: float, bandwidth: float) -> float:
    """Pooled Epanechnikov kernel density estimate at the bulk point a.

    Each spectrum contributes with weight 1/n so the estimate integrates to
    one per matrix; pooling over draws only reduces variance.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    spectra = [np.asarray(s, dtype=float) for s in spectra]
    if not spectra:
        raise ValueError("at least one spectrum is required")
    lo = min(float(s[0]) for s in spectra)
    hi = max(float(s[-1]) for s in spectra)
    if not lo <= a <= hi:
        raise ValueError("bulk point outside spectrum support")
    total = 0.0
    for s in spectra:
        u = (a - s) / bandwidth
        total += 0.75 * np.sum(np.maximum(1.0 - u * u, 0.0)) / (s.size * bandwidth)
    psi = total / len(spectra)
    if psi <= 0:
        raise ValueError("bulk point outside spectrum support")
    return float(psi)


@dataclass(frozen=True)
class RescaledSpectrum:
    """Eigenvalues inside a window, centred at a and rescaled by n psi(a)."""

    inside: np.ndarray
    window: Window


def rescale_localize(values, window: Window) -> RescaledSpectrum:
    """Select eigenvalues in the closed window and rescale them.

    lam -> (lam - a) * n * psi(a); order is preserved and the images lie in
    [-|A|/2, +|A|/2].  An empty selection is fine: all downstream counting
    measures are identically zero then.
    """
    values = np.asarray(values, dtype=float)
    mask = (values >= window.a - window.delta) & (values <= window.a + window.delta)
    inside = (values[mask] - window.a) * window.n * window.psi_a
    return RescaledSpectrum(inside=inside, window=window)


@dataclass(frozen=True)
class EmpiricalSpacingCDF:
    """Step function s -> #(consecutive inside spacings <= s) / |A|."""

    jumps: np.ndarray  # sorted spacing values
    window_size: float

    def evaluate(self, s):
        counts = np.searchsorted(self.jumps, s, side="right")
        return counts / self.window_size

    @property
    def total_mass(self) -> float:
        return self.jumps.size / self.window_size


def sigma_cdf(rs: RescaledSpectrum) -> EmpiricalSpacingCDF:
    """Empirical spacing distribution of one rescaled window."""
    return EmpiricalSpacingCDF(
        jumps=np.sort(np.diff(rs.inside)),
        window_size=rs.window.size,
    )


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


def _pair_data(inside: np.ndarray):
    """All endpoint pairs (i < j) as (span, interior count) arrays, in
    increasing span order; equal spans keep their (i, j) order."""
    i, j = np.triu_indices(inside.size, 1)
    spans = inside[j] - inside[i]
    order = np.argsort(spans, kind="stable")
    return spans[order], (j - i - 1)[order]


def gamma_cdf(k: int, rs: RescaledSpectrum) -> GammaCounts:
    """Counting measure of k-tuple spans, k >= 2.

    Only the two endpoints are constrained to the window; because the
    eigenvalues are sorted, every index strictly between the endpoints is
    automatically inside, so a pair at positional distance g+1 carries
    binom(g, k-2) tuples.  Cost O(p^2) over the p inside eigenvalues.
    """
    if k < 2:
        raise ValueError("tuple order k must be at least 2")
    spans, gaps = _pair_data(rs.inside)
    keep = gaps >= k - 2
    return GammaCounts(
        k=k,
        spans=spans[keep],
        multiplicities=np.array([math.comb(int(g), k - 2) for g in gaps[keep]], dtype=object),
        window_size=rs.window.size,
    )


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the exact alternating-identity and truncation checks."""

    ok: bool
    checked_points: int
    violations: tuple


def alternating_identity_check(ecdf: EmpiricalSpacingCDF, rs: RescaledSpectrum) -> IdentityReport:
    """Verify, in exact integer arithmetic, the span/spacing combinatorics.

    ``ecdf`` is the spacing side, ``sigma_cdf`` of the window, and ``rs`` the
    spectrum whose k-tuple spans are counted.  At every jump point of either
    side the spacing count must equal the alternating sum over k of the span
    counts, and for every cutoff m the partial alternating sum must bracket
    the spacing count from the (-1)^m side.  Uses Python integers
    throughout; any discrepancy is reported with its jump point, never
    tolerated.

    The span counts are kept up to date as pairs enter, in increasing span
    order: a pair with g interior eigenvalues adds binom(g, k-2) to the
    count of every order k <= g + 2.  Over the ~p^2/2 pairs of p inside
    eigenvalues that is O(p^3) updates, and each of the ~p^2/2 jump points
    then reads the p - 1 counts in O(p), so the whole check costs O(p^3).
    """
    p = rs.inside.size
    spans, gaps = _pair_data(rs.inside)
    points = np.unique(np.concatenate([spans, ecdf.jumps]))
    sigma_counts = np.searchsorted(ecdf.jumps, points, side="right")
    spans, gaps = spans.tolist(), gaps.tolist()

    violations = []
    # binom[g][j] = C(g, j); gamma_counts[k - 2] is the order-k span count of
    # the pairs included so far.  All exact ints.
    binom = [[math.comb(g, j) for j in range(g + 1)] for g in range(p - 1)]
    gamma_counts = [0] * (p - 1)
    idx = 0
    for s, sigma_count in zip(points.tolist(), sigma_counts.tolist()):
        while idx < len(spans) and spans[idx] <= s:
            for j, c in enumerate(binom[gaps[idx]]):
                gamma_counts[j] += c
            idx += 1
        # Orders k = 2, 4, ... carry sign +1, k = 3, 5, ... sign -1.
        alternating = sum(gamma_counts[0::2]) - sum(gamma_counts[1::2])
        if alternating != sigma_count:
            violations.append(
                (s, "identity", f"alternating={alternating} sigma={sigma_count}")
            )
        partial = 0
        sign = 1  # (-1)**m, from m = 2
        for m, count in enumerate(gamma_counts, start=2):
            partial += sign * count
            if sign * sigma_count > sign * partial:
                violations.append(
                    (s, f"truncation m={m}", f"partial={partial} sigma={sigma_count}")
                )
            sign = -sign
    return IdentityReport(
        ok=not violations, checked_points=points.size, violations=tuple(violations)
    )


@dataclass(frozen=True)
class KSReport:
    """Node-based Kolmogorov distance bound for one draw.

    The supremum distance between the empirical spacing distribution and the
    universal law is bounded by 1/M + (node max) + |total mass - 1|, where
    the node max is taken over the M-quantile nodes of the universal law.
    """

    node_max: float
    mass_defect: float
    bound: float


def ks_node_distance(ecdf: EmpiricalSpacingCDF, nodes) -> KSReport:
    """Evaluate |ecdf - i/M| at the M-1 quantile nodes of a universal law
    (``UniversalSpacingCDF.nodes``) and assemble the distance bound."""
    nodes = np.asarray(nodes, dtype=float)
    m = nodes.size + 1
    if m < 2:
        raise ValueError("need at least one interior quantile node")
    targets = np.arange(1, m) / m
    values = np.abs(ecdf.evaluate(nodes) - targets)
    node_max = float(values.max())
    mass_defect = abs(ecdf.total_mass - 1.0)
    return KSReport(
        node_max=node_max,
        mass_defect=mass_defect,
        bound=1.0 / m + node_max + mass_defect,
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
