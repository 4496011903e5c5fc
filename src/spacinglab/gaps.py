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
(Lobatto IIIA collocation with residual control, solved by Newton steps on
a banded Jacobian).
The same solution carries Int v and (1/2) Int sqrt(-v') as two more
components, so G_1, G_2 and G_4 are read from it without a quadrature table.

Independent cross-checks: a Nystrom Fredholm determinant for beta=2 and a
truncated correlation-function series for all beta (small s).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_banded

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
# terms through t^-8 the truncation error at t = 50 is ~3e-12, so the far
# boundary condition is never placed below that.
ASYM_COEFFS = {2: -0.25, 4: -2.5, 6: -65.5, 8: -3287.5}
_T_FAR_MIN = 50.0

# Reach of the trajectory, and so of the tabulated curves: G_4 at s needs
# t = 2 pi s.
T_MAX_LIMIT = 200.0
S_MAX_LIMIT = T_MAX_LIMIT / (2 * PI)

# Roundoff near the seed can push the radicands (-v' and the ODE radicand)
# slightly negative; anything beyond this clamp is a genuine branch violation.
RADICAND_CLAMP = 1e-12

# Collocation residual per mesh interval of the sigma-BVP, the mesh nodes its
# refinement may reach and the Newton steps per mesh (the first mesh takes 7),
# and the s-step of the tabulated gap curves.
BVP_TOL = 1e-10
MAX_NODES = 400_000
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
    """Painleve sigma function and its gap integrals on [t0, t_max].

    One collocation solution of the sigma-BVP carries sigma, sigma' and the
    cumulative integrals from 0 of v and of sqrt(-v')/2; ``at`` reads every
    quantity from one evaluation of that dense solution, and from the seed
    series below SEED_T0.
    """

    t_max: float
    _dense: object = field(repr=False)

    def at(self, t) -> Lookup:
        """Every row of the trajectory at t.

        A lookup past ``t_max`` raises ValueError instead of clamping.  -v'
        is clamped against roundoff, and raises RuntimeError if it
        undershoots the clamp: on the true branch it is non-negative for all t.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t > self.t_max * (1 + 1e-12)):
            raise ValueError(
                f"trajectory covers t <= {self.t_max}, requested {float(np.max(t))}"
            )
        safe = np.clip(t, SEED_T0, self.t_max)
        sig, sigp, el, jay = self._dense(safe)
        solved = [sig, sig / safe, (sig - safe * sigp) / (safe * safe), el, jay]
        rows = np.where(t < SEED_T0, _seed(t)[[0, 2, 3, 4, 5]], solved)
        if np.any(rows[2] < -RADICAND_CLAMP):
            bad = float(t.ravel()[int(np.argmin(rows[2]))])
            raise RuntimeError(f"negative radicand in sqrt(-v') at t={bad:g}")
        rows[2] = np.maximum(rows[2], 0.0)
        return Lookup(*rows)


def integrate_sigma(t_max: float) -> SigmaTrajectory:
    """Solve the sigma-form ODE, with the two gap integrals, on [SEED_T0, t_max].

    The boundary conditions pin the cubic series values of sigma and of both
    integrals at the seed and the algebraic expansion value of sigma at the
    far end (placed at least at t = 50 so the expansion is accurate);
    collocation then resolves the saddle connection with residual below
    BVP_TOL per mesh interval.  The computed solution is verified against
    the seed series on [t0, 10 t0] and against the positivity of both
    square-root radicands before being accepted.

    The solution depends only on the far end, so one process solves each
    far end once: every t_max up to 50 shares the t = 50 solve, and a
    repeated call returns the same (frozen) trajectory.
    A failed solve raises and is not remembered.
    """
    if not 0.0 < t_max <= T_MAX_LIMIT:
        raise ValueError(f"t_max must lie in (0, {T_MAX_LIMIT:g}]")
    return _solve(max(float(t_max), _T_FAR_MIN), SEED_T0)


# A process reads a few reaches at most (t = 50 and 2 pi s_max); the bound
# keeps a long-lived caller from holding every trajectory it ever solved.
@functools.lru_cache(maxsize=4)
def _solve(t_far: float, seed_at: float) -> SigmaTrajectory:
    """The sigma-BVP solved between ``seed_at`` and ``t_far``, memoized."""
    seed = _seed(seed_at)
    # sigma, Int v and (1/2) Int sqrt(-v') at the seed, sigma at the far end.
    bc = np.array([seed[0], seed[4], seed[5], _asym(t_far)[0]])
    mesh = np.concatenate(
        [
            np.geomspace(seed_at, 4.0, 200),
            np.linspace(4.02, t_far, max(600, int(12 * t_far))),
        ]
    )
    # sigma and sigma' from the series near the seed and the expansion beyond;
    # the integrals feed nothing back into sigma, so they can start from zero.
    guess = np.where(mesh < 2.0, _seed(mesh)[:2], _asym(mesh))
    y0 = np.vstack([guess, np.zeros((2, mesh.size))])
    tt, y, dense = _collocate(mesh, y0, bc)

    # Branch acceptance: radicand sign along the mesh and seed consistency.
    sig, sigp = y[:2]
    a = tt * sigp - sig
    rad = (-a) * (a + sigp * sigp)
    if np.any(rad < -RADICAND_CLAMP):
        bad = tt[int(np.argmin(rad))]
        raise RuntimeError(f"sigma-ODE branch violation at t={bad:g}")
    near = np.linspace(seed_at, 10 * seed_at, 50)
    if np.max(np.abs(dense(near)[0] - _seed(near)[0])) > 1e-8:
        raise RuntimeError(f"sigma-ODE branch violation at t={10 * seed_at:g}")
    return SigmaTrajectory(t_max=t_far, _dense=dense)


def _collocate(x, y, bc):
    """Solve the sigma-BVP from the guess y on the mesh x; returns the final
    mesh, the values there and the dense solution.

    3-stage Lobatto IIIA collocation with residual control (Kierzenka &
    Shampine, ACM TOMS 27, 2001): the solution is the C1 cubic through the
    nodes whose slope matches the rhs at the nodes and interval midpoints.
    Newton steps, one banded solve each, solve a mesh; each interval's rms
    residual relative to 1 + |rhs| is then estimated by Lobatto quadrature,
    and an interval above BVP_TOL gets one node (two from 100 BVP_TOL on)
    before the next solve.  Raises RuntimeError if Newton does not converge
    or the mesh would pass MAX_NODES.
    """
    while True:
        h = np.diff(x)
        # Newton stops 1.5 orders of magnitude below what the rms rule flags.
        tol_col = (2.0 / 3.0) * h * 5e-2 * BVP_TOL
        for steps in range(NEWTON_STEPS + 1):
            res, col, f, y_mid, f_mid = _collocation_residual(x, y, bc)
            bc_met = np.all(np.abs(res[[0, 1, 2, -1]]) < BVP_TOL)
            if bc_met and np.all(np.abs(col) < tol_col * (1 + np.abs(f_mid))):
                break
            if steps == NEWTON_STEPS:
                raise RuntimeError(
                    f"sigma-ODE collocation failed: no Newton convergence on {x.size} nodes"
                )
            try:
                step = solve_banded(_BANDS, _banded_jacobian(x, y, y_mid), res)
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(f"sigma-ODE collocation failed: {exc}") from exc
            y = y - step.reshape(-1, 4).T

        dense = _hermite(x, y, f)
        # The slope residual is 1.5 col / h at the midpoint and 0 at the nodes.
        r_mid = np.sum((1.5 * col / h / (1 + np.abs(f_mid))) ** 2, axis=0)
        mid, off = x[:-1] + 0.5 * h, 0.5 * h * np.sqrt(3 / 7)
        r_lob = 0.0
        for t in (mid + off, mid - off):
            ft = _sigma_rhs(t, dense(t))
            r_lob = r_lob + np.sum(((dense(t, 1) - ft) / (1 + np.abs(ft))) ** 2, axis=0)
        rms = np.sqrt(0.5 * (32 / 45 * r_mid + 49 / 90 * r_lob))
        one = np.flatnonzero((rms > BVP_TOL) & (rms < 100 * BVP_TOL))
        two = np.flatnonzero(rms >= 100 * BVP_TOL)
        if one.size + two.size == 0:
            return x, y, dense
        if x.size + one.size + 2 * two.size > MAX_NODES:
            raise RuntimeError(f"sigma-ODE collocation failed: more than {MAX_NODES} nodes")
        thirds = (2 * x[two] + x[two + 1]) / 3, (x[two] + 2 * x[two + 1]) / 3
        x = np.sort(np.concatenate([x, 0.5 * (x[one] + x[one + 1]), *thirds]))
        y = dense(x)


def _collocation_residual(x, y, bc):
    """Every residual in banded order (left conditions, intervals, right
    condition), with the rhs at the nodes and the midpoint values and rhs."""
    h = np.diff(x)
    f = _sigma_rhs(x, y)
    y_mid = 0.5 * (y[:, 1:] + y[:, :-1]) - h / 8 * (f[:, 1:] - f[:, :-1])
    f_mid = _sigma_rhs(x[:-1] + 0.5 * h, y_mid)
    col = y[:, 1:] - y[:, :-1] - h / 6 * (f[:, :-1] + f[:, 1:] + 4 * f_mid)
    left = y[[0, 2, 3], 0] - bc[:3]
    return np.concatenate([left, col.T.ravel(), [y[0, -1] - bc[3]]]), col, f, y_mid, f_mid


# Half-widths below and above the diagonal of the collocation Jacobian: with
# unknowns node by node, interval i's rows 3 + 4i + c see columns 4i..4i + 7.
_BANDS = (6, 4)


def _banded_jacobian(x, y, y_mid):
    """The collocation Jacobian in ``solve_banded`` storage."""
    m, h = x.size, np.diff(x)
    jac, j_mid = _sigma_jac(x, y), _sigma_jac(x[:-1] + 0.5 * h, y_mid)
    h, eye = h[:, None, None], np.eye(4)
    # y_mid moves with y_i by I/2 + h/8 J_i and with y_i+1 by I/2 - h/8 J_i+1.
    d_left = -eye - h / 6 * (jac[:-1] + 4 * j_mid @ (eye / 2 + h / 8 * jac[:-1]))
    d_right = eye - h / 6 * (jac[1:] + 4 * j_mid @ (eye / 2 - h / 8 * jac[1:]))
    lower, upper = _BANDS
    ab = np.zeros((lower + upper + 1, 4 * m))
    # Entry (row r, column k) is stored at ab[upper + r - k, k].
    ab[upper, 0] = ab[upper - 1, 2] = ab[upper - 1, 3] = ab[upper + 3, -4] = 1.0
    for c in range(4):
        for d in range(4):
            ab[upper + 3 + c - d, d : -4 : 4] = d_left[:, c, d]
            ab[upper - 1 + c - d, 4 + d :: 4] = d_right[:, c, d]
    return ab


def _sigma_jac(t, y):
    """d _sigma_rhs / d y at each column of y, shape (columns, 4, 4); a
    radicand clamped at zero has a zero derivative, as the clamp does."""
    s, p = y[0], y[1]
    a = t * p - s
    rad = (-a) * (a + p * p)
    jac = np.zeros((t.size, 4, 4))
    jac[:, 0, 1] = 1.0
    # d sigma'' = -d rad / (t sqrt(rad)), d rad = (2a + p^2) ds - ((2a + p^2) t + 2ap) dp.
    g = np.where(rad > 0, -1.0 / (t * np.sqrt(np.abs(rad))), 0.0)
    jac[:, 1, 0] = g * (2 * a + p * p)
    jac[:, 1, 1] = -g * ((2 * a + p * p) * t + 2 * a * p)
    jac[:, 2, 0] = 1.0 / t
    # d H' = -d a / (4 t sqrt(-a)).
    q = np.where(a < 0, 0.25 / (t * np.sqrt(np.abs(a))), 0.0)
    jac[:, 3, 0], jac[:, 3, 1] = q, -q * t
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
    """Gap probability G_beta and its derivative tabulated on a uniform grid."""

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


def gap_curves(traj: SigmaTrajectory, s_max: float) -> dict[int, GapCurve]:
    """Tabulate G_1, G_2, G_4 and their derivatives on [0, s_max] in steps
    of GAP_STEP.

    Requires the trajectory to reach pi*s_max for beta=1,2 and 2*pi*s_max for
    beta=4.
    """
    if traj.t_max < 2 * PI * s_max * (1 - 1e-12):
        raise ValueError(
            f"trajectory reaches t={traj.t_max:g} but 2*pi*s_max={2 * PI * s_max:g} is needed"
        )
    grid = np.arange(0.0, s_max + GAP_STEP / 2, GAP_STEP)
    curves = {
        beta: GapCurve(beta, grid, *_gap_and_slope(traj, beta, grid)) for beta in (1, 2, 4)
    }
    for c in curves.values():
        if np.any(c.gap_prime > 1e-10) or np.any(np.diff(c.gap) > 1e-12):
            raise RuntimeError(f"gap probability for beta={c.beta} is not decreasing")
        if c.gap[0] < 1.0 - 1e-6 or np.any(c.gap <= 0.0):
            raise RuntimeError(f"gap probability for beta={c.beta} leaves (0, 1]")
    return curves


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
    curves = gap_curves(integrate_sigma(2 * PI * s_max), s_max)
    return universal_cdf(curves[beta], m_nodes)


def gap_probability(traj: SigmaTrajectory, beta: int, s: float) -> float:
    """Gap probability G_beta(s) straight from the trajectory (no tabulation)."""
    if not 0 <= s < np.inf:
        raise ValueError(f"s must be finite and non-negative, got {s}")
    return float(_gap_and_slope(traj, beta, s)[0])


def fredholm_g2(s: float, n: int = 40) -> float:
    """beta=2 gap probability as a Nystrom Fredholm determinant.

    Gauss-Legendre nodes x_i and weights w_i on (0, s) discretize the
    sine-kernel integral operator symmetrically as sqrt(w_i) K(x_i, x_j)
    sqrt(w_j); the determinant of I minus that matrix converges spectrally
    in n because the kernel is entire.  Entirely independent of the
    Painleve route.
    """
    if not 0 < s < np.inf:
        raise ValueError(f"s must be finite and positive, got {s}")
    if not 4 <= n <= 400:
        raise ValueError("quadrature order must lie in [4, 400]")
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * s * (x + 1.0)
    sw = np.sqrt(0.5 * s * w)
    m = np.eye(n) - sw[:, None] * np.sinc(x[:, None] - x[None, :]) * sw[None, :]
    return float(np.linalg.det(m))


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
