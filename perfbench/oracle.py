"""Gap probabilities and spacing laws computed apart from spacinglab.

Nystrom discretisation (Gauss-Legendre) of the even and odd sine kernels
K_+-(x, y) = S(x - y) +- S(x + y), S(x) = sin(pi x)/(pi x), on (0, L).  With
D_+-(L) = det(I - K_+- on (0, L)) the gap probabilities at unit mean spacing
are (Bornemann 2010)

    G_2(s) = D_+(s/2) D_-(s/2),   G_1(s) = D_+(s/2),
    G_4(s) = (D_+(s) + D_-(s)) / 2,

and the spacing laws are F_beta = 1 + G_beta'.  Only numpy (and scipy's
root finder) is used, so the figures here share no code with the package
under test.
"""

from __future__ import annotations

import numpy as np

# Gauss-Legendre order; for L <= 10 the determinants change by less than
# 1e-15 (absolute) when the order goes up to 80.
QUAD_ORDER = 48
# Step of the five-point derivative stencil; truncation and rounding are both
# below 1e-11 at this step.
FD_STEP = 1e-3

_X, _W = np.polynomial.legendre.leggauss(QUAD_ORDER)


def _dets(length: float) -> tuple[float, float]:
    """(D_+(L), D_-(L)); both are 1 at L = 0."""
    if length <= 0.0:
        return 1.0, 1.0
    x = 0.5 * length * (_X + 1.0)
    sw = np.sqrt(0.5 * length * _W)
    minus = np.sinc(x[:, None] - x[None, :])
    plus = np.sinc(x[:, None] + x[None, :])
    eye = np.eye(QUAD_ORDER)
    scale = sw[:, None] * sw[None, :]
    d_even = np.linalg.det(eye - scale * (minus + plus))
    d_odd = np.linalg.det(eye - scale * (minus - plus))
    return float(d_even), float(d_odd)


def gap(beta: int, s: float) -> float:
    """Probability G_beta(s) that an interval of length s holds no level."""
    if beta == 1:
        return _dets(0.5 * s)[0]
    if beta == 2:
        even, odd = _dets(0.5 * s)
        return even * odd
    if beta == 4:
        even, odd = _dets(s)
        return 0.5 * (even + odd)
    raise ValueError(f"beta must be 1, 2 or 4, got {beta}")


def spacing_cdf(beta: int, s: float) -> float:
    """F_beta(s) = 1 + G_beta'(s), derivative by a five-point stencil."""
    h = FD_STEP
    if s < 2 * h:
        # A centred stencil would reach below s = 0; use a one-sided one.
        g = [gap(beta, s + k * h) for k in range(5)]
        d = (-25 * g[0] + 48 * g[1] - 36 * g[2] + 16 * g[3] - 3 * g[4]) / (12 * h)
        return 1.0 + d
    g = [gap(beta, s + k * h) for k in (-2, -1, 1, 2)]
    d = (g[0] - 8 * g[1] + 8 * g[2] - g[3]) / (12 * h)
    return 1.0 + d


def quantile_nodes(beta: int, m: int) -> np.ndarray:
    """Points s_i with F_beta(s_i) = i/m, i = 1..m-1 (Brent's method)."""
    from scipy.optimize import brentq

    nodes = []
    lo = 1e-3
    for i in range(1, m):
        lo = brentq(lambda s: spacing_cdf(beta, s) - i / m, lo, 8.0, xtol=1e-13)
        nodes.append(lo)
    return np.array(nodes)
