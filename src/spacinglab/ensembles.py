"""Eigenvalue samplers for invariant Hermite-type ensembles.

Two routes to the joint eigenvalue law with Vandermonde repulsion |Delta|^beta:

* a tridiagonal model (Gaussian potential only): Gaussian diagonal,
  chi-distributed off-diagonal with decreasing degrees of freedom, whose
  eigenvalue density is the beta-ensemble law at any beta > 0, solved by a
  symmetric tridiagonal eigensolver in O(n^2);
* Metropolis-within-Gibbs on the log-gas density for general even polynomial
  confinement.

Scaling convention: for the Gaussian potential every sampler is normalized so
the empirical spectral density converges to the semicircle on [-2, 2], whose
value at the centre is 1/pi.  This makes the bulk density analytic for the
verification experiments; bulk spacing statistics are invariant under the
choice.  Polynomial potentials keep the raw weight exp(-n V) for beta=1,2 and
exp(-2 n V) for beta=4, and their density is estimated empirically downstream.

Randomness is counter-based (Philox keyed by (seed, stream)): the same
(seed, stream) always reproduces the same spectrum, and distinct streams are
independent by construction, so draws parallelize without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

__all__ = [
    "EnsembleSpec",
    "SamplerState",
    "sample_mcmc",
    "sample_tridiagonal",
    "semicircle_density",
]

GAUSSIAN = "gaussian"


def semicircle_density(x):
    """Limiting spectral density of the Gaussian samplers (support [-2, 2])."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * np.pi)


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble description: symmetry class, matrix size and confinement.

    ``potential`` is either the string ``"gaussian"`` or a sequence of
    polynomial coefficients in increasing-degree order; polynomial
    confinement must have even degree and positive leading coefficient so
    that the weight is normalizable.
    """

    beta: int
    n: int
    potential: object = GAUSSIAN

    def __post_init__(self):
        if self.beta not in (1, 2, 4):
            raise ValueError(f"beta must be 1, 2 or 4, got {self.beta}")
        if self.n < 1:
            raise ValueError("matrix size must be at least 1")
        if not self.is_gaussian:
            coeffs = np.asarray(self.potential)
            real = coeffs.dtype.kind in "iuf" and np.all(np.isfinite(coeffs))
            if not real or coeffs.ndim != 1:
                raise ValueError(
                    f"potential must be {GAUSSIAN!r} or real polynomial coefficients, "
                    f"got {self.potential!r}"
                )
            if coeffs.size < 3:
                raise ValueError("polynomial potential needs degree >= 2")
            degree = coeffs.size - 1
            if degree % 2:
                raise ValueError("polynomial potential must have even degree")
            if coeffs[-1] <= 0:
                raise ValueError("leading potential coefficient must be positive")
            object.__setattr__(self, "potential", tuple(float(c) for c in coeffs))

    @property
    def is_gaussian(self) -> bool:
        return isinstance(self.potential, str) and self.potential == GAUSSIAN

    def log_weight(self, x: float) -> float:
        """log of the one-point confinement weight at x (Horner's rule for a
        polynomial potential, as numpy's ``polyval`` evaluates it)."""
        if self.is_gaussian:
            # Normalized convention: semicircle support [-2, 2] at every beta.
            return -0.25 * self.beta * self.n * x * x
        c = self.potential
        v = c[-1] + x * 0
        for ck in c[-2::-1]:
            v = ck + v * x
        scale = self.n if self.beta in (1, 2) else 2 * self.n
        return -scale * v


@dataclass
class SamplerState:
    """Reproducible randomness plus (for MCMC) the chain's acceptance counts
    and warnings."""

    seed: int
    stream: int = 0
    accepted: int = 0
    proposed: int = 0
    warnings: list = field(default_factory=list)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else float("nan")


def sample_tridiagonal(spec: EnsembleSpec, state: SamplerState) -> np.ndarray:
    """One spectrum of the tridiagonal Gaussian beta-ensemble model.

    Diagonal entries are N(0, 2), off-diagonal entries chi with degrees of
    freedom beta*(n-1), beta*(n-2), ..., beta; dividing the matrix by
    sqrt(beta*n) places the limiting density on [-2, 2].  Eigenvalues come
    from the implicit-shift QL/QR tridiagonal solver (LAPACK sterf), so one
    draw costs O(n^2).
    """
    if not spec.is_gaussian:
        raise ValueError("tridiagonal model requires a Gaussian potential")
    rng = state.generator()
    n = spec.n
    scale = 1.0 / np.sqrt(spec.beta * n)
    diag = rng.normal(0.0, np.sqrt(2.0), n) * scale
    if n == 1:
        return diag.copy()
    dof = spec.beta * np.arange(n - 1, 0, -1)
    off = np.sqrt(rng.chisquare(dof)) * scale
    # sterf returns the eigenvalues in ascending order.
    return eigvalsh_tridiagonal(diag, off, lapack_driver="sterf")


def _semicircle_quantiles(n: int) -> np.ndarray:
    """Deterministic near-equilibrium start: semicircle quantiles on [-2, 2]."""
    xs = np.linspace(-2.0, 2.0, 4001)
    cdf = np.concatenate([[0.0], np.cumsum(semicircle_density(xs)[1:] * np.diff(xs))])
    cdf /= cdf[-1]
    return np.interp((np.arange(n) + 0.5) / n, cdf, xs)


def log_density_diff(
    spec: EnsembleSpec, x: np.ndarray, i: int, proposal: float, work: np.ndarray, weights: list
) -> float:
    """Log-density change of moving coordinate i to ``proposal``.

    The target log-density is beta * sum_{j<k} log|x_k - x_j| plus the sum of
    one-point log-weights; only terms containing coordinate i change.  The
    result is -inf when the proposal coincides with another coordinate, so a
    coincidence can never be accepted.

    ``work`` is a (2, n) float scratch buffer, overwritten by the call: row 0
    holds the distances from the proposal, row 1 those from x[i], and one
    ``log`` and one row sum give both log sums (each contiguous row is summed
    pairwise, exactly as ``np.sum`` of a 1-D array is).  ``weights`` carries
    the one-point log-weight of every coordinate,
    ``weights[i] == spec.log_weight(float(x[i]))``.
    """
    np.subtract(proposal, x, out=work[0])
    np.subtract(x[i], x, out=work[1])
    np.abs(work, out=work)
    work[0, i] = work[1, i] = 1.0
    if np.count_nonzero(work[0]) < x.size:
        return -np.inf
    np.log(work, out=work)
    new, old = work.sum(axis=1).tolist()
    return spec.beta * (new - old) + (spec.log_weight(float(proposal)) - weights[i])


_ADAPT_WINDOW = 25


def sample_mcmc(
    spec: EnsembleSpec,
    state: SamplerState,
    steps: int,
    burn_in: int,
    thin: int = 1,
):
    """Metropolis-within-Gibbs sampler for the joint eigenvalue density.

    Sweeps single-coordinate Gaussian proposals through the configuration;
    per-coordinate proposal scales adapt towards 30-50% acceptance during
    burn-in and are frozen afterwards.  Yields a sorted copy of the
    configuration every ``thin`` sweeps once burn-in has passed (the chain
    itself mixes in the unordered coordinates and is kept unsorted).

    Acceptance statistics after burn-in accumulate on ``state``; a rate
    outside [0.05, 0.95] appends a warning there for the run manifest.
    """
    if steps <= burn_in:
        raise ValueError("steps must exceed burn_in")
    if burn_in < 0 or thin < 1:
        raise ValueError("burn_in must be >= 0 and thin >= 1")
    n = spec.n
    rng = state.generator()
    if spec.is_gaussian:
        x = _semicircle_quantiles(n)
    else:
        x = np.linspace(-1.0, 1.0, n)
    scales = np.full(n, 4.0 / n)
    state.accepted = 0
    state.proposed = 0
    window_acc = np.zeros(n, dtype=int)
    work = np.empty((2, n))
    # The current log-weight of each coordinate changes only on accept.
    weights = [spec.log_weight(v) for v in x.tolist()]

    for sweep in range(steps):
        z = rng.standard_normal(n)
        logu = np.log(rng.random(n))
        frozen = sweep >= burn_in
        hits = 0
        for i in range(n):
            proposal = x[i] + scales[i] * z[i]
            if logu[i] < log_density_diff(spec, x, i, proposal, work, weights):
                x[i] = proposal
                weights[i] = spec.log_weight(float(proposal))
                window_acc[i] += 1
                hits += 1
        if frozen:
            state.proposed += n
            state.accepted += hits
        if not frozen and (sweep + 1) % _ADAPT_WINDOW == 0:
            rates = window_acc / _ADAPT_WINDOW
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
