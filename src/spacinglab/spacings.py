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
    "IdentityReport",
    "KSReport",
    "RescaledSpectrum",
    "Window",
    "alternating_identity_check",
    "default_window",
    "estimate_density",
    "ks_node_distance",
    "rescale_localize",
    "sigma_cdf",
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


def _pair_data(inside: np.ndarray):
    """All endpoint pairs (i < j) as (span, interior count) arrays, in
    increasing span order; equal spans keep their (i, j) order."""
    i, j = np.triu_indices(inside.size, 1)
    spans = inside[j] - inside[i]
    order = np.argsort(spans, kind="stable")
    return spans[order], (j - i - 1)[order]


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
    the spacing count from the (-1)^m side.  Any discrepancy is reported
    with its jump point, never tolerated.

    A pair with g interior eigenvalues adds binom(g, k-2) to the order-k
    span count, so it adds alt[g, m] = sum_{k<=m} (-1)^k binom(g, k-2) to
    the partial alternating sum up to order m.  That table is built from
    ``math.comb`` (never from a closed form, which would assume the identity
    under check), summed over the span-sorted pairs and read at every jump
    point: O(p^3) integer additions for p inside eigenvalues.  Every count
    and partial sum is below 2^p in magnitude, so int64 holds them exactly
    for p <= 62 and Python integers (object arrays) do beyond; no float
    enters.
    """
    p = rs.inside.size
    spans, gaps = _pair_data(rs.inside)
    points = np.unique(np.concatenate([spans, ecdf.jumps]))
    sigma = np.searchsorted(ecdf.jumps, points, side="right")

    orders = max(p - 1, 0)
    dtype = np.int64 if p <= 62 else object
    # Column c is the partial sum up to order m = c + 1, signed by (-1)^m so
    # that a truncation holds where it is at least the signed spacing count;
    # the last column is the full alternating sum.  Row g is a pair with g
    # interior eigenvalues, and the zero row after them starts the sum.
    signs = np.resize([-1, 1], orders + 1)
    terms = [[0] + [(-1) ** j * math.comb(g, j) for j in range(orders)] for g in range(orders)]
    alt = signs * np.cumsum(np.array(terms + [[0] * (orders + 1)], dtype=dtype), axis=1)
    # Running row r sums the first r pairs, in blocks of about 2^18 entries
    # so that a wide window's memory stays bounded.
    entering = np.concatenate([[orders], gaps])
    reads = np.searchsorted(spans, points, side="right")
    block = max(1, 2**18 // (orders + 1))
    carry = alt[orders]
    violations = []
    for lo in range(0, entering.size, block):
        running = alt[entering[lo:lo + block]]
        running[0] += carry
        np.cumsum(running, axis=0, out=running)
        carry = running[-1]
        first, last = np.searchsorted(reads, [lo, lo + len(running)]).tolist()
        partial = running[reads[first:last] - lo]
        bound = sigma[first:last, None] * signs
        failed = np.column_stack([partial[:, -1] != bound[:, -1], partial[:, 1:] < bound[:, 1:]])
        for row, col in zip(*(i.tolist() for i in np.nonzero(failed))):
            if col:
                kind, name, c = f"truncation m={col + 1}", "partial", col
            else:  # the identity reads the full sum, in the last column
                kind, name, c = "identity", "alternating", orders
            detail = f"{name}={int(signs[c]) * partial[row, c]} sigma={sigma[first + row]}"
            violations.append((float(points[first + row]), kind, detail))
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
