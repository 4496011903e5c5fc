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
between the series seed at t0 and the algebraic expansion at the far end.

Independent cross-checks: a Nystrom Fredholm determinant for beta=2 and a
truncated correlation-function series for all beta (small s).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_simpson, solve_bvp

from .kernels import CORR_ORDER_MAX, corr_fn, pfaffian, skew_kernel_block

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
    "tail_fit",
    "universal_cdf",
    "write_cdf_csv",
    "write_nodes_csv",
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

# Roundoff near the seed can push the radicands (-v' and the ODE radicand)
# slightly negative; anything beyond this clamp is a genuine branch violation.
RADICAND_CLAMP = 1e-12

_FINE_STEP = 2e-4


def _series_sigma(t):
    t = np.asarray(t, dtype=float)
    return -t / PI - (t / PI) ** 2 - t**3 / PI**3


def _series_sigma_prime(t):
    t = np.asarray(t, dtype=float)
    return -1.0 / PI - 2.0 * t / PI**2 - 3.0 * t**2 / PI**3


def _series_v(t):
    t = np.asarray(t, dtype=float)
    return -1.0 / PI - t / PI**2 - t**2 / PI**3


def _series_neg_v_prime(t):
    t = np.asarray(t, dtype=float)
    return 1.0 / PI**2 + 2.0 * t / PI**3 + 3.0 * t**2 / PI**4


def _series_log_gap2(t):
    """Integral of v over [0, t] from the seed series."""
    t = np.asarray(t, dtype=float)
    return -t / PI - t**2 / (2.0 * PI**2) - t**3 / (3.0 * PI**3)


def _series_log_h(t):
    """Integral of sqrt(-v')/2 over [0, t] from the seed series."""
    t = np.asarray(t, dtype=float)
    return (t + t**2 / (2.0 * PI) + t**3 / (3.0 * PI**2)) / (2.0 * PI)


def _asym_sigma(t):
    t = np.asarray(t, dtype=float)
    out = -t * t / 4.0 - 0.25
    for j, c in ASYM_COEFFS.items():
        out = out + c * t ** (-j)
    return out


def _asym_sigma_prime(t):
    t = np.asarray(t, dtype=float)
    out = -t / 2.0
    for j, c in ASYM_COEFFS.items():
        out = out - j * c * t ** (-j - 1)
    return out


def _sigma_rhs(t, y):
    s, p = y
    a = t * p - s
    rad = np.maximum((-a) * (a + p * p), 0.0)
    return np.vstack([p, -(2.0 / t) * np.sqrt(rad)])


@dataclass(frozen=True)
class SigmaTrajectory:
    """Painleve sigma function tabulated with its derivative on [t0, t_max].

    ``grid``/``sigma``/``sigma_prime`` carry the uniform tabulation; the
    private dense solution keeps collocation accuracy for off-grid queries.
    ``log_gap2`` and ``log_h`` are the cumulative integrals of v and of
    sqrt(-v')/2 from 0, evaluated by interpolation of a fine Simpson table.
    Every lookup past ``t_max`` raises ValueError instead of clamping.
    """

    grid: np.ndarray
    sigma: np.ndarray
    sigma_prime: np.ndarray
    t_max: float
    _dense: object = field(repr=False)
    _fine_t: np.ndarray = field(repr=False)
    _fine_log_gap2: np.ndarray = field(repr=False)
    _fine_log_h: np.ndarray = field(repr=False)

    def _check_reach(self, t: np.ndarray) -> None:
        if np.any(t > self.t_max * (1 + 1e-12)):
            raise ValueError(
                f"trajectory covers t <= {self.t_max}, requested {float(np.max(t))}"
            )

    def _eval(self, t):
        t = np.asarray(t, dtype=float)
        self._check_reach(t)
        return self._dense(np.minimum(t, self.t_max))

    def sigma_at(self, t):
        t = np.asarray(t, dtype=float)
        small = t < SEED_T0
        y = self._eval(np.where(small, SEED_T0, t))[0]
        return np.where(small, _series_sigma(t), y)

    def v(self, t):
        """sigma(t)/t, extended by its limit -1/pi at t = 0."""
        t = np.asarray(t, dtype=float)
        small = t < SEED_T0
        safe = np.where(small, 1.0, t)
        return np.where(small, _series_v(t), self.sigma_at(safe) / safe)

    def neg_v_prime(self, t):
        """-v'(t) = (sigma - t sigma')/t^2, clamped against roundoff.

        Raises if the radicand undershoots the clamp; on the true branch the
        quantity is non-negative for all t.
        """
        t = np.asarray(t, dtype=float)
        small = t < SEED_T0
        safe = np.where(small, 1.0, t)
        y = self._eval(np.where(small, SEED_T0, safe))
        raw = (y[0] - safe * y[1]) / (safe * safe)
        raw = np.where(small, _series_neg_v_prime(t), raw)
        if np.any(raw < -RADICAND_CLAMP):
            bad = float(np.asarray(t).ravel()[int(np.argmin(raw))])
            raise RuntimeError(f"negative radicand in sqrt(-v') at t={bad:g}")
        return np.maximum(raw, 0.0)

    def log_gap2(self, t):
        """Integral of v over [0, t] (the log of the beta=2 gap probability
        at gap length t/pi).  Raises past the solved range."""
        t = np.asarray(t, dtype=float)
        self._check_reach(t)
        out = np.interp(t, self._fine_t, self._fine_log_gap2)
        return np.where(t < SEED_T0, _series_log_gap2(t), out)

    def log_h(self, t):
        """Integral of sqrt(-v')/2 over [0, t].  Raises past the solved range."""
        t = np.asarray(t, dtype=float)
        self._check_reach(t)
        out = np.interp(t, self._fine_t, self._fine_log_h)
        return np.where(t < SEED_T0, _series_log_h(t), out)


def integrate_sigma(
    t_max: float, tol: float = 1e-10, seed_at: float = SEED_T0
) -> SigmaTrajectory:
    """Solve the sigma-form ODE on [seed_at, t_max].

    The boundary conditions pin the cubic series value at the seed and the
    algebraic expansion value at the far end (placed at least at t = 50 so
    the expansion is accurate); collocation then resolves the saddle
    connection with residual below ``tol`` per mesh interval.  The computed
    solution is verified against the seed series on [t0, 10 t0] and against
    the positivity of both square-root radicands before being accepted.

    ``seed_at`` exists so consistency under re-seeding (e.g. at 2 t0) can be
    exercised; production use keeps the default.
    """
    if not 0.0 < t_max <= 200.0:
        raise ValueError("t_max must lie in (0, 200]")
    if tol < 1e-12:
        raise ValueError("tol below 1e-12 is not resolvable in double precision")
    if not SEED_T0 <= seed_at <= 0.1:
        raise ValueError("seed point must lie in [SEED_T0, 0.1]")
    t_far = max(float(t_max), _T_FAR_MIN)

    def bc(ya, yb):
        return np.array(
            [ya[0] - float(_series_sigma(seed_at)), yb[0] - float(_asym_sigma(t_far))]
        )

    mesh = np.concatenate(
        [
            np.geomspace(seed_at, 4.0, 200),
            np.linspace(4.02, t_far, max(600, int(12 * t_far))),
        ]
    )
    guess = np.where(mesh < 2.0, _series_sigma(mesh), _asym_sigma(mesh))
    guess_p = np.where(mesh < 2.0, _series_sigma_prime(mesh), _asym_sigma_prime(mesh))
    sol = solve_bvp(
        _sigma_rhs, bc, mesh, np.vstack([guess, guess_p]), tol=tol, max_nodes=400000
    )
    if sol.status != 0:
        raise RuntimeError(f"sigma-ODE collocation failed: {sol.message}")

    # Branch acceptance: radicand sign along the mesh and seed consistency.
    tt = sol.x
    sig, sigp = sol.y
    a = tt * sigp - sig
    rad = (-a) * (a + sigp * sigp)
    if np.any(rad < -RADICAND_CLAMP):
        bad = tt[int(np.argmin(rad))]
        raise RuntimeError(f"sigma-ODE branch violation at s={bad:g}")
    near = np.linspace(seed_at, 10 * seed_at, 50)
    if np.max(np.abs(sol.sol(near)[0] - _series_sigma(near))) > 1e-8:
        raise RuntimeError(f"sigma-ODE branch violation at s={10 * seed_at:g}")

    fine = np.arange(seed_at, t_far + _FINE_STEP / 2, _FINE_STEP)
    ys = sol.sol(fine)
    v_fine = ys[0] / fine
    nvp_fine = np.maximum((ys[0] - fine * ys[1]) / (fine * fine), 0.0)
    log_gap2 = cumulative_simpson(v_fine, x=fine, initial=0.0) + float(
        _series_log_gap2(seed_at)
    )
    log_h = cumulative_simpson(0.5 * np.sqrt(nvp_fine), x=fine, initial=0.0) + float(
        _series_log_h(seed_at)
    )

    grid = np.arange(seed_at, t_far + 5e-4, 1e-3)
    tab = sol.sol(grid)
    return SigmaTrajectory(
        grid=grid,
        sigma=tab[0],
        sigma_prime=tab[1],
        t_max=t_far,
        _dense=sol.sol,
        _fine_t=fine,
        _fine_log_gap2=log_gap2,
        _fine_log_h=log_h,
    )


@dataclass(frozen=True)
class GapCurve:
    """Gap probability G_beta and its derivative tabulated on a uniform grid."""

    beta: int
    grid: np.ndarray
    gap: np.ndarray
    gap_prime: np.ndarray


def gap_curves(
    traj: SigmaTrajectory, s_max: float, step: float = 1e-3
) -> dict[int, GapCurve]:
    """Tabulate G_1, G_2, G_4 and their derivatives on [0, s_max].

    Requires the trajectory to reach pi*s_max for beta=1,2 and 2*pi*s_max for
    beta=4 (the symplectic curve at s is assembled from the others at 2s).
    G_2 and the ratio G_2/G_1 are formed in log space so that the tabulation
    survives far into the Gaussian tail without underflow.
    """
    if traj.t_max < 2 * PI * s_max * (1 - 1e-12):
        raise ValueError(
            f"trajectory reaches t={traj.t_max:g} but 2*pi*s_max={2 * PI * s_max:g} is needed"
        )
    grid = np.arange(0.0, s_max + step / 2, step)
    u1 = PI * grid
    u4 = 2.0 * PI * grid

    el1, jay1 = traj.log_gap2(u1), traj.log_h(u1)
    v1, w1 = traj.v(u1), np.sqrt(traj.neg_v_prime(u1))
    g2 = np.exp(el1)
    g2p = PI * v1 * g2
    g1 = np.exp(0.5 * el1 - jay1)
    g1p = g1 * (PI / 2.0) * (v1 - w1)

    el4, jay4 = traj.log_gap2(u4), traj.log_h(u4)
    v4, w4 = traj.v(u4), np.sqrt(traj.neg_v_prime(u4))
    g4 = np.exp(0.5 * el4) * np.cosh(jay4)
    g1p_at_2s = np.exp(0.5 * el4 - jay4) * (PI / 2.0) * (v4 - w4)
    g4p = g1p_at_2s + (PI / 2.0) * np.exp(0.5 * el4 + jay4) * (v4 + w4)

    curves = {
        1: GapCurve(1, grid, g1, g1p),
        2: GapCurve(2, grid, g2, g2p),
        4: GapCurve(4, grid, g4, g4p),
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


def universal_cdf(beta: int, curve: GapCurve, m_nodes: int) -> UniversalSpacingCDF:
    """Tabulate F_beta = 1 + G_beta' and extract M-quantile nodes.

    The tabulated derivative is monotone up to integration error; violations
    beyond 1e-8 abort, smaller ones are clamped away so the quantile
    inversion sees a monotone table.
    """
    if m_nodes < 2:
        raise ValueError("node count must be at least 2")
    if beta != curve.beta:
        raise ValueError(f"curve is for beta={curve.beta}, requested beta={beta}")
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
        beta=beta, grid=curve.grid, cdf=f, survival=survival, nodes=nodes
    )


def build_universal_cdf(
    beta: int,
    s_max: float = 10.0,
    m_nodes: int = 100,
    tol: float = 1e-10,
    traj: SigmaTrajectory | None = None,
) -> UniversalSpacingCDF:
    """Painleve pipeline in one call: trajectory, gap curve, CDF and nodes."""
    if beta not in (1, 2, 4):
        raise ValueError(f"beta must be 1, 2 or 4, got {beta}")
    if traj is None:
        traj = integrate_sigma(2 * PI * s_max, tol=tol)
    curves = gap_curves(traj, s_max)
    return universal_cdf(beta, curves[beta], m_nodes)


def gap_probability(traj: SigmaTrajectory, beta: int, s: float) -> float:
    """Gap probability G_beta(s) straight from the trajectory (no tabulation)."""
    if s < 0:
        raise ValueError("s must be non-negative")
    if beta == 2:
        return float(np.exp(traj.log_gap2(PI * s)))
    if beta == 1:
        return float(np.exp(0.5 * traj.log_gap2(PI * s) - traj.log_h(PI * s)))
    if beta == 4:
        u = 2.0 * PI * s
        return float(np.exp(0.5 * traj.log_gap2(u)) * np.cosh(traj.log_h(u)))
    raise ValueError(f"beta must be 1, 2 or 4, got {beta}")


def fredholm_g2(s: float, n: int = 40) -> float:
    """beta=2 gap probability as a Nystrom Fredholm determinant.

    Gauss-Legendre nodes x_i and weights w_i on (0, s) discretize the
    sine-kernel integral operator symmetrically as sqrt(w_i) K(x_i, x_j)
    sqrt(w_j); the determinant of I minus that matrix converges spectrally
    in n because the kernel is entire.  Entirely independent of the
    Painleve route.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if not 4 <= n <= 400:
        raise ValueError("quadrature order must lie in [4, 400]")
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * s * (x + 1.0)
    sw = np.sqrt(0.5 * s * w)
    m = np.eye(n) - sw[:, None] * np.sinc(x[:, None] - x[None, :]) * sw[None, :]
    return float(np.linalg.det(m))


_SERIES_NODES = {1: 1, 2: 16, 3: 12, 4: 8}


def series_gap(beta: int, s: float, k_max: int = 4) -> float:
    """Truncated correlation-function series for the gap probability.

    G_beta(s) ~ 1 + sum_{k<=k_max} (-1)^k Int_{0<=x_1<=...<=x_k<=s} W_k dx,
    with each ordered-simplex integral evaluated by a tensor-product
    Gauss-Legendre rule mapped onto the simplex (x_j = s t_j t_{j+1}...t_k,
    Jacobian s^k prod t_i^{i-1}), which keeps all quadrature points strictly
    ordered and away from coincidences.  Truncation error is O(s^{k_max+1}),
    so the series is only admitted for s <= 1.
    """
    if beta not in (1, 2, 4):
        raise ValueError(f"beta must be 1, 2 or 4, got {beta}")
    if not 0.0 < s <= 1.0:
        raise ValueError("series truncation is only accurate for 0 < s <= 1")
    if not 1 <= k_max <= 4:
        raise ValueError("k_max must lie in [1, 4]")
    if k_max > CORR_ORDER_MAX:  # pragma: no cover -- caps are consistent
        raise ValueError("correlation order too large")
    total = 1.0 - s  # k = 1 term: W_1 == 1
    for k in range(2, k_max + 1):
        n = _SERIES_NODES[k]
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


def tail_fit(cdf: UniversalSpacingCDF, window: tuple[float, float] = (2.0, 6.0)):
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


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_cdf_csv(cdf: UniversalSpacingCDF, out_dir) -> Path:
    """Write the tabulated CDF as F_beta{beta}.csv with header ``s,F``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"F_beta{cdf.beta}.csv"
    lines = ["s,F"]
    lines += [f"{_fmt(s)},{_fmt(f)}" for s, f in zip(cdf.grid, cdf.cdf)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_nodes_csv(cdf: UniversalSpacingCDF, out_dir) -> Path:
    """Write the quantile nodes as nodes_beta{beta}.csv with header ``i,s``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"nodes_beta{cdf.beta}.csv"
    lines = ["i,s"]
    lines += [f"{i + 1},{_fmt(s)}" for i, s in enumerate(cdf.nodes)]
    path.write_text("\n".join(lines) + "\n")
    return path
