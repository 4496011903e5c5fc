"""Limiting bulk kernels, the skew kernel block and the Pfaffian.

The scalar sine kernel sin(pi(x-y))/(pi(x-y)) governs the unitary (beta=2)
bulk; the orthogonal (beta=1) and symplectic (beta=4) bulks are governed by a
2x2 matrix kernel whose entries are the sine kernel, its derivative, and its
antiderivative (with a sign correction for beta=1).  The k-point correlation
functions are determinants (beta=2) or Pfaffians (beta=1,4) built from these
entries; ``gaps.corr_fn`` evaluates them.

The one kernel-block builder (the skew block) and the Pfaffian take a
leading batch axis: a stack of point sets of shape (..., k) is evaluated in
one vectorised pass, which is how the correlation series of the gaps module
integrates W_k over thousands of quadrature points at once.

All functions here are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "MatrixKernelValue",
    "matrix_kernel",
    "pfaffian",
    "sinc_antideriv",
    "sinc_deriv",
    "skew_kernel_block",
]

# Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!) reaches roundoff in 17
# terms for |x| <= 4; beyond, 44 levels of the continued fraction of E1 do.
_SI_SERIES = np.array(
    [(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(17)]
)
_E1_DEPTH = 44


def sinc_deriv(z):
    """Derivative of sin(pi z)/(pi z) in z, stable across z = 0.

    Near the origin the closed form suffers 0/0 cancellation, so a Taylor
    series (error below 1e-16 for |z| < 1e-2) takes over there.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-2
    zs = z[small]
    q = (np.pi * zs) ** 2
    out[small] = -(np.pi**2) * zs / 3.0 * (1.0 - q / 10.0 + q * q / 280.0)
    zl = z[~small]
    out[~small] = (np.pi * zl * np.cos(np.pi * zl) - np.sin(np.pi * zl)) / (
        np.pi * zl * zl
    )
    return float(out[0]) if scalar else out


def sinc_antideriv(z):
    """Antiderivative of the sine kernel: integral of sinc over [0, z].

    Equals Si(pi z)/pi, the closed form of the oscillatory integral, so no
    quadrature is needed on the hot path; Si is computed with numpy.
    """
    return _sine_integral(np.pi * np.asarray(z, dtype=float)) / np.pi


def _sine_integral(x):
    """Si(x), within ~1e-15 absolute of the exact value.

    Si is odd, so |x| is evaluated: up to 4 by the Maclaurin series (Horner's
    rule in x^2), beyond by Si(x) = pi/2 + Im E1(ix), with the continued
    fraction E1(z) = e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) evaluated
    backward from a fixed depth (Abramowitz & Stegun 5.2; Numerical Recipes
    6.9, cisi).
    """
    # Past 1e300 Si is pi/2 to the last bit; the clamp keeps +-inf finite.
    ax = np.minimum(np.abs(x), 1e300)
    out = np.empty_like(ax)
    small = ax <= 4.0
    xs = ax[small]
    q = xs * xs
    acc = np.full_like(xs, _SI_SERIES[-1])
    for c in _SI_SERIES[-2::-1]:
        acc = acc * q + c
    out[small] = acc * xs
    z = 1j * ax[~small]
    t = z + (2 * _E1_DEPTH + 1)
    for k in range(_E1_DEPTH, 0, -1):
        t = z + (2 * k - 1) - k * k / t
    out[~small] = np.pi / 2 + (np.exp(-z) / t).imag
    return np.copysign(out, x)


class MatrixKernelValue(NamedTuple):
    """One 2x2 matrix-kernel evaluation: kernel value, derivative entry and
    antiderivative entry."""

    value: float
    deriv: float
    antideriv: float


def matrix_kernel(beta: int, x, y):
    """Entries of the 2x2 bulk matrix kernel at (x, y) for beta in {1, 4}.

    beta=1: (sinc(r), sinc'(r), Int_0^r sinc - sgn(r)/2) with r = x - y.
    beta=4: arguments doubled inside the sine kernel and no sign correction,
    i.e. (sinc(2r), 2 sinc'(2r), Int_0^r sinc(2t) dt).

    Returns a MatrixKernelValue of floats for scalar input, of arrays
    otherwise.  The value entry is symmetric in (x, y); the derivative and
    antiderivative entries are antisymmetric.  sgn(0) is taken as 0, making
    the beta=1 antiderivative vanish at coincidence.
    """
    if beta not in (1, 4):
        raise ValueError(f"matrix kernel is defined for beta in {{1, 4}}, got {beta}")
    r = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if beta == 1:
        s = np.sinc(r)
        d = sinc_deriv(r)
        i = sinc_antideriv(r) - 0.5 * np.sign(r)
    else:
        s = np.sinc(2.0 * r)
        d = 2.0 * np.asarray(sinc_deriv(2.0 * r))
        i = 0.5 * sinc_antideriv(2.0 * r)
    if np.ndim(r) == 0:
        return MatrixKernelValue(float(s), float(d), float(i))
    return MatrixKernelValue(s, d, i)


def pfaffian(a: np.ndarray):
    """Pfaffian of a real skew-symmetric matrix of even dimension.

    Skew-symmetric tridiagonalization by congruence (Parlett-Reid) with
    partial pivoting: O(n^3) work, the sign tracked exactly through the
    pivot swaps.  Satisfies pfaffian(a)**2 == det(a).

    ``a`` may carry leading batch axes, shape (..., n, n): the elimination
    then runs over the n columns once for the whole stack, each member with
    its own pivots (Wimmer 2012, ACM TOMS 38:30), and an array of shape
    (...) is returned; a single matrix gives a float.  A member whose pivot
    vanishes is exactly 0.0, as is the single matrix.
    """
    a = np.array(a, dtype=float, copy=True)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("pfaffian requires a square matrix")
    n = a.shape[-1]
    if n % 2:
        raise ValueError("odd-dimensional skew matrix")
    batch = a.shape[:-2]
    a = a.reshape((int(np.prod(batch)), n, n))
    members = np.arange(a.shape[0])
    pf = np.ones(a.shape[0])
    dead = np.zeros(a.shape[0], dtype=bool)
    for k in range(0, n - 1, 2):
        pivot = k + 1 + np.argmax(np.abs(a[:, k + 1 :, k]), axis=1)
        swap = pivot != k + 1
        if np.any(swap):
            rows = a[members, pivot, :]
            a[members, pivot, :] = a[:, k + 1, :]
            a[:, k + 1, :] = rows
            cols = a[members, :, pivot]
            a[members, :, pivot] = a[:, :, k + 1]
            a[:, :, k + 1] = cols
            pf = np.where(swap, -pf, pf)
        # A zero pivot column makes the Pfaffian vanish; the member stays
        # dead and is eliminated with a harmless divisor from here on.
        dead |= a[:, k + 1, k] == 0.0
        head = a[:, k, k + 1]
        pf *= head
        if k + 2 < n:
            tau = a[:, k, k + 2 :] / np.where(dead, 1.0, head)[:, None]
            col = a[:, k + 2 :, k + 1]
            a[:, k + 2 :, k + 2 :] += (
                tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
            )
    pf[dead] = 0.0
    if not batch:
        return float(pf[0])
    return pf.reshape(batch)


def skew_kernel_block(beta: int, points) -> np.ndarray:
    """The skew matrix whose Pfaffian is the beta=1, 4 correlation function.

    Block (i, j) is [[-d, s], [-s, i]] for the kernel entries (s, d, i) at
    (points[i], points[j]): the 2x2 matrix kernel [[s, d], [i, s]] times the
    symplectic unit [[0, 1], [-1, 0]] on the right.  Points of shape (..., k)
    give matrices of shape (..., 2k, 2k).
    """
    pts = np.asarray(points, dtype=float)
    k = pts.shape[-1]
    s, d, i = matrix_kernel(beta, pts[..., :, None], pts[..., None, :])
    m = np.empty(pts.shape[:-1] + (2 * k, 2 * k))
    m[..., 0::2, 0::2] = -d
    m[..., 0::2, 1::2] = s
    m[..., 1::2, 0::2] = -s
    m[..., 1::2, 1::2] = i
    return m

