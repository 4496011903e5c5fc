"""Gap probabilities and the universal spacing laws.

The probability G_beta(s) of an empty rescaled interval of length s is
parameterized, for all three symmetry classes, by one Painleve V transcendent
in sigma form,

    (t sigma'')^2 + 4 (t sigma' - sigma)(t sigma' - sigma + (sigma')^2) = 0,

with the small-t behaviour sigma(t) = -t/pi - (t/pi)^2 - t^3/pi^3 + O(t^4).
With v(t) = sigma(t)/t:

    G2(s)   = exp( Int_0^{pi s} v )
    G1(s)   = sqrt(G2(s)) / H(s),      H(s) = exp( (1/2) Int_0^{pi s} sqrt(-v') )
    G4(s/2) = ( G1(s) + G2(s)/G1(s) ) / 2

and the universal spacing distribution functions are F_beta(s) = 1 + G_beta'(s).

Note the sign of the boundary data: the seed series forces v(0) = -1/pi (so
that G2'(0) = -1 and F2(0) = 0); a positive v(0) would make G2 increasing.

The wanted sigma is a saddle connection of the ODE: it joins the power-series
behaviour at t -> 0 to sigma ~ -t^2/4 - 1/4 at t -> infinity, and both
neighbouring solution families (linear ones and movable-pole ones) are reached
by arbitrarily small perturbations.  A marching integrator therefore drifts
off the connection no matter how small its local error; the trajectory is
computed here as a two-point boundary value problem instead, collocating
between the series seed at t0 and the algebraic expansion at the far end
(Lobatto IIIA collocation on one graded mesh, solved by Newton steps
whose banded systems LAPACK's dgbsv solves).
The same solution carries Int v and (1/2) Int sqrt(-v') as two more
components, so G_1, G_2 and G_4 are read from it without a quadrature table;
their collocation equations are Simpson's rule, summed once sigma is solved.

Independent cross-checks: a Nystrom Fredholm determinant for beta=2 and a
truncated correlation-function series for all beta (small s).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ensembles import _lapack
from .kernels import corr_fn, pfaffian, skew_kernel_block

__all__ = [
    "GapCurve",
    "SigmaTrajectory",
    "UniversalSpacingCDF",
    "build_universal_cdf",
    "fredholm_g2",
    "gap_curves",
    "gap_probability",
    "integrate_sigma",
    "series_gap",
    "universal_cdf",
]

PI = np.pi

# The ODE is singular at t = 0; the trajectory is seeded from the cubic series
# at SEED_T0 instead of integrating from the origin.
SEED_T0 = 1e-3

# Large-t expansion sigma(t) = -t^2/4 - 1/4 + sum_j ASYM_COEFFS[j] * t^-j,
# obtained by substituting the ansatz into the ODE and matching orders.  With
# terms through t^-8 the truncation error is ~3e-12 at t = 50 and ~3e-18 at
# the far boundary condition, T_MAX_LIMIT.
ASYM_COEFFS = {2: -0.25, 4: -2.5, 6: -65.5, 8: -3287.5}

# Reach of the trajectory, and so of the tabulated curves: G_4 at s needs
# t = 2 pi s.
T_MAX_LIMIT = 200.0
S_MAX_LIMIT = T_MAX_LIMIT / (2 * PI)

# Roundoff near the seed can push the radicands (-v' and the ODE radicand)
# slightly negative; anything beyond this clamp is a genuine branch violation.
RADICAND_CLAMP = 1e-12

# Collocation residual per mesh interval of the sigma-BVP, the nodes of the
# one mesh it is solved on and the Newton steps (the solve takes 8), and the
# s-step of the tabulated gap curves.
BVP_TOL = 1e-10
MESH_NODES = 3000
NEWTON_STEPS = 10
GAP_STEP = 1e-3


def _seed(t):
    """The cubic seed series at t, as the rows sigma, sigma', v, -v',
    Int_0^t v and Int_0^t sqrt(-v')/2."""
    t = np.asarray(t, dtype=float)
    return np.array(
        [
            -t / PI - (t / PI) ** 2 - t**3 / PI**3,
            -1.0 / PI - 2.0 * t / PI**2 - 3.0 * t**2 / PI**3,
            -1.0 / PI - t / PI**2 - t**2 / PI**3,
            1.0 / PI**2 + 2.0 * t / PI**3 + 3.0 * t**2 / PI**4,
            -t / PI - t**2 / (2.0 * PI**2) - t**3 / (3.0 * PI**3),
            (t + t**2 / (2.0 * PI) + t**3 / (3.0 * PI**2)) / (2.0 * PI),
        ]
    )


def _asym(t):
    """The large-t expansion at t, as the rows sigma and sigma'."""
    t = np.asarray(t, dtype=float)
    sigma, prime = -t * t / 4.0 - 0.25, -t / 2.0
    for j, c in ASYM_COEFFS.items():
        sigma = sigma + c * t ** (-j)
        prime = prime - j * c * t ** (-j - 1)
    return np.array([sigma, prime])


def _sigma_rhs(t, y):
    """y = [sigma, sigma', L, H] with L' = v = sigma/t and H' = sqrt(-v')/2."""
    s, p = y[0], y[1]
    a = t * p - s
    rad = np.maximum((-a) * (a + p * p), 0.0)
    return np.vstack(
        [p, -(2.0 / t) * np.sqrt(rad), s / t, 0.5 * np.sqrt(np.maximum(-a, 0.0)) / t]
    )


class Lookup(NamedTuple):
    """The trajectory at t: sigma, v = sigma/t, -v', Int_0^t v (``log_gap2``,
    the log of the beta=2 gap probability at gap length t/pi) and
    Int_0^t sqrt(-v')/2 (``log_h``)."""

    sigma: np.ndarray
    v: np.ndarray
    neg_v_prime: np.ndarray
    log_gap2: np.ndarray
    log_h: np.ndarray


@dataclass(frozen=True)
class SigmaTrajectory:
    """Painleve sigma function and its gap integrals on [0, T_MAX_LIMIT].

    One collocation solution of the sigma-BVP carries sigma, sigma' and the
    cumulative integrals from 0 of v and of sqrt(-v')/2; ``at`` reads every
    quantity from one evaluation of that dense solution, and from the seed
    series below SEED_T0.
    """

    _dense: object = field(repr=False)

    def at(self, t) -> Lookup:
        """Every row of the trajectory at t.

        A lookup past T_MAX_LIMIT raises ValueError instead of clamping; it
        is the reach check of every G_beta read from the trajectory.  -v'
        is clamped against roundoff, and raises RuntimeError if it
        undershoots the clamp: on the true branch it is non-negative for all t.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t > T_MAX_LIMIT * (1 + 1e-12)):
            raise ValueError(
                f"trajectory covers t <= {T_MAX_LIMIT}, requested {float(np.max(t))}"
            )
        safe = np.clip(t, SEED_T0, T_MAX_LIMIT)
        sig, sigp, el, jay = self._dense(safe)
        solved = [sig, sig / safe, (sig - safe * sigp) / (safe * safe), el, jay]
        rows = np.where(t < SEED_T0, _seed(t)[[0, 2, 3, 4, 5]], solved)
        if np.any(rows[2] < -RADICAND_CLAMP):
            bad = float(t.ravel()[int(np.argmin(rows[2]))])
            raise RuntimeError(f"negative radicand in sqrt(-v') at t={bad:g}")
        rows[2] = np.maximum(rows[2], 0.0)
        return Lookup(*rows)


@functools.cache
def integrate_sigma() -> SigmaTrajectory:
    """Solve the sigma-form ODE, with the two gap integrals, to T_MAX_LIMIT.

    The boundary conditions pin the cubic series value of sigma at the seed
    and the algebraic expansion value of sigma at T_MAX_LIMIT; collocation
    then resolves the saddle connection with residual below BVP_TOL per mesh
    interval.  The computed solution is verified against the seed series on
    [t0, 10 t0] and against the positivity of both square-root radicands
    before being accepted.

    Every reach up to T_MAX_LIMIT reads this one solution, so one process
    solves once and a repeated call returns the same (frozen) trajectory.
    A failed solve raises and is not remembered.
    """
    return _solve(SEED_T0)


def _solve(seed_at: float) -> SigmaTrajectory:
    """The sigma-BVP solved between ``seed_at`` and T_MAX_LIMIT."""
    seed = _seed(seed_at)
    # sigma, Int v and (1/2) Int sqrt(-v') at the seed, sigma at the far end.
    bc = np.array([seed[0], seed[4], seed[5], _asym(T_MAX_LIMIT)[0]])
    # Uniform in asinh(2t): even steps below t ~ 1/2, geometric ones beyond.
    ends = np.arcsinh(2 * np.array([seed_at, T_MAX_LIMIT]))
    mesh = np.sinh(np.linspace(*ends, MESH_NODES)) / 2
    mesh[[0, -1]] = seed_at, T_MAX_LIMIT
    # sigma and sigma' from the series near the seed and the expansion beyond.
    guess = np.where(mesh < 2.0, _seed(mesh)[:2], _asym(mesh))
    y, dense = _collocate(mesh, guess, bc)

    # Branch acceptance: radicand sign along the mesh and seed consistency.
    sig, sigp = y[:2]
    a = mesh * sigp - sig
    rad = (-a) * (a + sigp * sigp)
    if np.any(rad < -RADICAND_CLAMP):
        bad = mesh[int(np.argmin(rad))]
        raise RuntimeError(f"sigma-ODE branch violation at t={bad:g}")
    near = np.linspace(seed_at, 10 * seed_at, 50)
    if np.max(np.abs(dense(near)[0] - _seed(near)[0])) > 1e-8:
        raise RuntimeError(f"sigma-ODE branch violation at t={10 * seed_at:g}")
    return SigmaTrajectory(dense)


def _collocate(x, y, bc):
    """Solve the sigma-BVP on the mesh x from the guess y of sigma and
    sigma'; returns the four components at the nodes and the dense solution.

    3-stage Lobatto IIIA collocation, as in Kierzenka & Shampine (ACM TOMS
    27, 2001): the solution is the C1 cubic through the nodes whose slope
    matches the rhs at the nodes and interval midpoints.  Newton steps, one
    ``_band_solve`` each, solve for sigma and sigma'; the integrals are
    then Simpson sums from their seed values ``bc[1:3]``.  Each interval's
    rms residual of all four relative to 1 + |rhs| is estimated by Lobatto
    quadrature.  Raises RuntimeError if a Newton system is singular, Newton
    does not converge or an interval's residual exceeds BVP_TOL.
    """
    h = np.diff(x)
    # Newton stops 1.5 orders of magnitude below what the rms check flags.
    tol_col = (2.0 / 3.0) * h * 5e-2 * BVP_TOL
    for steps in range(NEWTON_STEPS + 1):
        res, col, f, y_mid, f_mid = _collocation_residual(x, y, bc)
        bc_met = np.all(np.abs(res[[0, -1]]) < BVP_TOL)
        if bc_met and np.all(np.abs(col) < tol_col * (1 + np.abs(f_mid[:2]))):
            break
        if steps == NEWTON_STEPS:
            raise RuntimeError(
                f"sigma-ODE collocation failed: no Newton convergence on {x.size} nodes"
            )
        y = y - _band_solve(*_jacobian_blocks(x, y, y_mid), res)

    simpson = np.c_[bc[1:3], h / 6 * (f[2:, :-1] + 4 * f_mid[2:] + f[2:, 1:])]
    y4 = np.vstack([y, np.cumsum(simpson, axis=1)])
    dense = _hermite(x, y4, f)
    # The slope residual is 1.5 col / h at the midpoint (0 for the
    # integrals) and 0 at the nodes.
    r_mid = np.sum((1.5 * col / h / (1 + np.abs(f_mid[:2]))) ** 2, axis=0)
    mid, off = x[:-1] + 0.5 * h, 0.5 * h * np.sqrt(3 / 7)
    r_lob = 0.0
    for t in (mid + off, mid - off):
        ft = _sigma_rhs(t, dense(t))
        r_lob = r_lob + np.sum(((dense(t, 1) - ft) / (1 + np.abs(ft))) ** 2, axis=0)
    rms = np.sqrt(0.5 * (32 / 45 * r_mid + 49 / 90 * r_lob))
    worst = int(np.argmax(rms))
    if rms[worst] > BVP_TOL:
        raise RuntimeError(
            f"sigma-ODE collocation failed: residual {rms[worst]:.2g} > {BVP_TOL:g} "
            f"near t={mid[worst]:.3g}"
        )
    return y4, dense


def _collocation_residual(x, y, bc):
    """Every residual of sigma and sigma' in the Newton system's order (left
    condition, intervals, right condition), with the rhs of all four
    components at the nodes and at the midpoints, and the midpoint values."""
    h = np.diff(x)
    f = _sigma_rhs(x, y)
    y_mid = 0.5 * (y[:, 1:] + y[:, :-1]) - h / 8 * (f[:2, 1:] - f[:2, :-1])
    f_mid = _sigma_rhs(x[:-1] + 0.5 * h, y_mid)
    col = y[:, 1:] - y[:, :-1] - h / 6 * (f[:2, :-1] + f[:2, 1:] + 4 * f_mid[:2])
    res = np.concatenate([[y[0, 0] - bc[0]], col.T.ravel(), [y[0, -1] - bc[3]]])
    return res, col, f, y_mid, f_mid


def _jacobian_blocks(x, y, y_mid):
    """The collocation Jacobian of sigma and sigma' as its 2x2 blocks:
    interval i's residual moves with y_i through ``d_left[i]`` and with
    y_i+1 through ``d_right[i]``."""
    h = np.diff(x)
    jac, j_mid = _sigma_jac(x, y), _sigma_jac(x[:-1] + 0.5 * h, y_mid)
    h, eye = h[:, None, None], np.eye(2)
    # y_mid moves with y_i by I/2 + h/8 J_i and with y_i+1 by I/2 - h/8 J_i+1.
    d_left = -eye - h / 6 * (jac[:-1] + 4 * j_mid @ (eye / 2 + h / 8 * jac[:-1]))
    d_right = eye - h / 6 * (jac[1:] + 4 * j_mid @ (eye / 2 - h / 8 * jac[1:]))
    return d_left, d_right


def _band_solve(d_left, d_right, res):
    """Solve the Newton system of the collocation for its step, shape
    (2, nodes), by LAPACK's banded LU (dgbsv).

    The unknowns run node by node and the rows of ``res`` in
    ``_collocation_residual``'s order: the seed condition pins sigma at the
    first node, interval i's two rows read ``d_left[i]`` and ``d_right[i]``,
    and the far condition pins sigma at the last node.  Entry (i, j) sits at
    ``ab[4 + i - j, j]``: dgbsv's storage of two bands on each side of the
    diagonal, with two more rows for the LU's fill-in.
    """
    ab = np.zeros((7, 2 * d_left.shape[0] + 2))
    for a, b in np.ndindex(2, 2):
        ab[5 + a - b, b:-2:2] = d_left[:, a, b]
        ab[3 + a - b, 2 + b :: 2] = d_right[:, a, b]
    ab[4, 0] = ab[5, -2] = 1.0
    *_, step, info = _lapack("dgbsv")(2, 2, ab, res)
    if info:
        raise RuntimeError(f"sigma-ODE collocation failed: LAPACK dgbsv info={info}")
    return step.reshape(-1, 2).T


def _sigma_jac(t, y):
    """d (sigma', sigma'') / d (sigma, sigma') at each column of y, shape
    (columns, 2, 2); a radicand clamped at zero has a zero derivative, as
    the clamp does."""
    s, p = y[0], y[1]
    a = t * p - s
    rad = (-a) * (a + p * p)
    jac = np.zeros((t.size, 2, 2))
    jac[:, 0, 1] = 1.0
    # d sigma'' = -d rad / (t sqrt(rad)), d rad = (2a + p^2) ds - ((2a + p^2) t + 2ap) dp.
    g = np.where(rad > 0, -1.0 / (t * np.sqrt(np.abs(rad))), 0.0)
    jac[:, 1, 0] = g * (2 * a + p * p)
    jac[:, 1, 1] = -g * ((2 * a + p * p) * t + 2 * a * p)
    return jac


def _hermite(x, y, f):
    """The cubic Hermite interpolant of values y and slopes f at the nodes x,
    as ``dense(t)`` or its derivative ``dense(t, 1)``; the end pieces extend
    past the mesh."""
    h = np.diff(x)
    slope = np.diff(y) / h
    bend = (f[:, :-1] + f[:, 1:] - 2 * slope) / h
    coef = np.stack([bend / h, (slope - f[:, :-1]) / h - bend, f[:, :-1], y[:, :-1]])

    def dense(t, derivative=0):
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        d = t - x[i]
        c3, c2, c1, c0 = np.take(coef, i, axis=-1)  # contiguous, unlike coef[..., i]
        if derivative:
            return (3 * c3 * d + 2 * c2) * d + c1
        return ((c3 * d + c2) * d + c1) * d + c0

    return dense


@dataclass(frozen=True)
class GapCurve:
    """Gap probability G_beta and its derivative tabulated by ``gap_curves``."""

    beta: int
    grid: np.ndarray
    gap: np.ndarray
    gap_prime: np.ndarray


def _gap_and_slope(traj: SigmaTrajectory, beta: int, s):
    """G_beta(s) and G_beta'(s) from the trajectory's gap integrals.

    G_2 and the ratio G_2/G_1 are formed in log space so that the values
    survive far into the Gaussian tail without underflow; the symplectic
    value at s is assembled from the others at 2s.
    """
    if beta not in (1, 2, 4):
        raise ValueError(f"beta must be 1, 2 or 4, got {beta}")
    u = (2.0 if beta == 4 else 1.0) * PI * np.asarray(s, dtype=float)
    _, v, neg_v_prime, el, jay = traj.at(u)
    w = np.sqrt(neg_v_prime)
    if beta == 2:
        g = np.exp(el)
        return g, PI * v * g
    if beta == 1:
        g = np.exp(0.5 * el - jay)
        return g, g * (PI / 2.0) * (v - w)
    g1p_at_2s = np.exp(0.5 * el - jay) * (PI / 2.0) * (v - w)
    g4p = g1p_at_2s + (PI / 2.0) * np.exp(0.5 * el + jay) * (v + w)
    return np.exp(0.5 * el) * np.cosh(jay), g4p


def gap_curves(traj: SigmaTrajectory, beta: int, s_max: float) -> GapCurve:
    """Tabulate G_beta and its derivative on [0, s_max] in steps of
    GAP_STEP, up to s_max rounded to a step but never past s_max.

    G_beta at s reads the trajectory at t = pi*s, or 2*pi*s for beta=4, and
    the trajectory's lookup refuses any t past its reach.  G_4 underflows to
    0 from s = 17.37 on and G_2 from 24.554.
    """
    grid = np.minimum(np.arange(0.0, s_max + GAP_STEP / 2, GAP_STEP), s_max)
    curve = GapCurve(beta, grid, *_gap_and_slope(traj, beta, grid))
    if np.any(curve.gap_prime > 1e-10) or np.any(np.diff(curve.gap) > 1e-12):
        raise RuntimeError(f"gap probability for beta={beta} is not decreasing")
    if curve.gap[0] < 1.0 - 1e-6 or np.any(curve.gap < 0.0):
        raise RuntimeError(f"gap probability for beta={beta} leaves [0, 1]")
    return curve


@dataclass(frozen=True)
class UniversalSpacingCDF:
    """Universal spacing distribution F_beta with its quantile nodes.

    ``nodes[i-1]`` is the point s_i with F(s_i) = i/M for i = 1..M-1; the
    node list is what the Kolmogorov-distance bound of the verification
    experiment evaluates the empirical distribution at.  ``survival`` holds
    1 - F computed as -G' directly, which stays meaningful deep in the
    Gaussian tail where 1.0 - cdf would cancel to zero.
    """

    beta: int
    grid: np.ndarray
    cdf: np.ndarray
    survival: np.ndarray
    nodes: np.ndarray

    @property
    def node_count(self) -> int:
        return self.nodes.size + 1

    def evaluate(self, s):
        return np.interp(s, self.grid, self.cdf, left=0.0, right=1.0)


def universal_cdf(curve: GapCurve, m_nodes: int) -> UniversalSpacingCDF:
    """Tabulate F_beta = 1 + G_beta' of the curve's beta and extract
    M-quantile nodes.

    The tabulated derivative is monotone up to integration error; violations
    beyond 1e-8 abort, smaller ones are clamped away so the quantile
    inversion sees a monotone table.
    """
    if m_nodes < 2:
        raise ValueError("node count must be at least 2")
    f = 1.0 + curve.gap_prime
    f[0] = 0.0
    drops = np.diff(f)
    if np.any(drops < -1e-8):
        where = curve.grid[1 + int(np.argmin(drops))]
        raise RuntimeError(f"CDF monotonicity violated near s={where:g}")
    f = np.clip(np.maximum.accumulate(f), 0.0, 1.0)
    quantiles = np.arange(1, m_nodes) / m_nodes
    if f[-1] < quantiles[-1]:
        raise ValueError(
            f"grid reaches F={f[-1]:.6f} < {quantiles[-1]:.6f}; extend s_max"
        )
    # Invert on the strictly increasing part only (the tail saturates at 1).
    _, first = np.unique(f, return_index=True)
    nodes = np.interp(quantiles, f[first], curve.grid[first])
    survival = np.clip(-curve.gap_prime, 0.0, 1.0)
    survival[0] = 1.0
    return UniversalSpacingCDF(
        beta=curve.beta, grid=curve.grid, cdf=f, survival=survival, nodes=nodes
    )


def build_universal_cdf(
    beta: int, s_max: float = 10.0, m_nodes: int = 100
) -> UniversalSpacingCDF:
    """Painleve pipeline in one call: trajectory, gap curve, CDF and nodes.

    s_max must lie in (0, S_MAX_LIMIT], the reach of the trajectory.
    """
    if beta not in (1, 2, 4):
        raise ValueError(f"beta must be 1, 2 or 4, got {beta}")
    if not 0.0 < s_max <= S_MAX_LIMIT:
        raise ValueError(f"s_max must lie in (0, 100/pi = {S_MAX_LIMIT:.4f}], got {s_max:g}")
    return universal_cdf(gap_curves(integrate_sigma(), beta, s_max), m_nodes)


def gap_probability(traj: SigmaTrajectory, beta: int, s: float) -> float:
    """Gap probability G_beta(s) straight from the trajectory (no tabulation)."""
    if not 0 <= s < np.inf:
        raise ValueError(f"s must be finite and non-negative, got {s}")
    return float(_gap_and_slope(traj, beta, s)[0])


def fredholm_g2(s: float, n: int = 60) -> float:
    """beta=2 gap probability as a Nystrom Fredholm determinant.

    Gauss-Legendre nodes x_i and weights w_i on (0, s) discretize the
    sine-kernel integral operator symmetrically as sqrt(w_i) K(x_i, x_j)
    sqrt(w_j); the determinant of I minus that matrix converges spectrally
    in n because the kernel is entire.  Entirely independent of the
    Painleve route.  Where G_2 underflows the determinant's roundoff can
    fall below 0, so the value is clamped at +0.0.
    """
    if not 0 < s < np.inf:
        raise ValueError(f"s must be finite and positive, got {s}")
    if not 4 <= n <= 400:
        raise ValueError("quadrature order must lie in [4, 400]")
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * s * (x + 1.0)
    sw = np.sqrt(0.5 * s * w)
    m = np.eye(n) - sw[:, None] * np.sinc(x[:, None] - x[None, :]) * sw[None, :]
    return max(0.0, float(np.linalg.det(m)))


# Gauss-Legendre nodes per axis for each order k >= 2 of the correlation
# series; its last order is the truncation order.
_SERIES_NODES = {2: 16, 3: 12, 4: 8}


def series_gap(beta: int, s: float) -> float:
    """Truncated correlation-function series for the gap probability.

    G_beta(s) ~ 1 + sum_{k<=4} (-1)^k Int_{0<=x_1<=...<=x_k<=s} W_k dx,
    with each ordered-simplex integral evaluated by a tensor-product
    Gauss-Legendre rule mapped onto the simplex (x_j = s t_j t_{j+1}...t_k,
    Jacobian s^k prod t_i^{i-1}), which keeps all quadrature points strictly
    ordered and away from coincidences.  Truncation error is O(s^5), so the
    series is only admitted for s <= 1.
    """
    if beta not in (1, 2, 4):
        raise ValueError(f"beta must be 1, 2 or 4, got {beta}")
    if not 0.0 < s <= 1.0:
        raise ValueError("series truncation is only accurate for 0 < s <= 1")
    total = 1.0 - s  # k = 1 term: W_1 == 1
    for k, n in _SERIES_NODES.items():
        x, w = np.polynomial.legendre.leggauss(n)
        x = 0.5 * (x + 1.0)
        w = 0.5 * w
        axes = np.meshgrid(*([x] * k), indexing="ij")
        waxes = np.meshgrid(*([w] * k), indexing="ij")
        weight = np.ones_like(axes[0])
        for i in range(k):
            weight = weight * waxes[i] * axes[i] ** i
        coords = []
        running = np.ones_like(axes[0])
        for jdx in range(k - 1, -1, -1):
            running = running * axes[jdx]
            coords.append(s * running)
        coords = coords[::-1]
        pts = np.stack([c.ravel() for c in coords], axis=1)
        # One batched Pfaffian per order, called from this module (not
        # through corr_fn) so that perfbench's tracer, which wraps
        # gaps.pfaffian, sees it.
        if beta == 2:
            vals = corr_fn(2, pts)
        else:
            vals = pfaffian(skew_kernel_block(beta, pts))
        total += (-1.0) ** k * float(s**k * np.sum(weight.ravel() * vals))
    return total
