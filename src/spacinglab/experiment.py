"""End-to-end experiment orchestration: configs, persistence, verification runs.

A run is fully determined by its configuration and seed: every (size, draw)
task derives its own random stream id, tasks are embarrassingly parallel, and
the single result writer emits rows in task order, so reruns are byte
identical regardless of worker count.  Every (size, draw) spectrum is drawn
once: for a non-Gaussian potential the first min(32, draws) spectra of a size
feed the density pilot and are then scored as that size's first rows.
Result CSVs are append-only with a per-row checksum.  One output directory
holds one config: a run into a directory with any result file must carry the
config digest of the manifest written before the first row; it then
validates existing rows and only computes the missing (size, draw) pairs.
"""

from __future__ import annotations

import json
import math
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from hashlib import sha256
from numbers import Integral
from pathlib import Path

import numpy as np

from . import __version__
from .ensembles import (
    EnsembleSpec,
    SamplerState,
    sample_mcmc,
    sample_tridiagonal,
    semicircle_density,
)
from .gaps import UniversalSpacingCDF, build_universal_cdf
from .spacings import (
    Window,
    alternating_identity_check,
    default_window,
    estimate_density,
    ks_node_distance,
    rescale_localize,
    sigma_cdf,
)

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "canonical_json",
    "config_hash",
    "load_config",
    "run_identity",
    "run_verify",
    "stream_id",
]

RESULT_HEADER = "beta,n,draw,window_a,window_delta,A_N,total_mass,node_max,bound,crc"

DRAWS_LIMIT = 2**20


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible description of one verification experiment."""

    beta: int = 2
    sizes: tuple = (100, 400, 1600)
    draws: int = 200
    potential: object = "gaussian"
    window_a: float = 0.0
    window_delta_exponent: float = -0.6
    node_count: int = 50
    s_max: float = 10.0
    seed: int = 0
    out_dir: str = "runs"
    workers: int = 1

    def __post_init__(self):
        if self.beta not in (1, 2, 4):
            raise ValueError(f"beta must be 1, 2 or 4, got {self.beta}")
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes or any(n < 8 for n in sizes):
            raise ValueError("all matrix sizes must be at least 8")
        object.__setattr__(self, "sizes", sizes)
        if not isinstance(self.draws, Integral) or not 1 <= self.draws < DRAWS_LIMIT:
            # stream_id packs the draw into the low 20 bits.
            raise ValueError(f"draws must be an integer in [1, {DRAWS_LIMIT})")
        # Philox truncates a fractional seed, so 1.5 would replay seed 1
        # under another digest.
        if not isinstance(self.seed, Integral) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.node_count < 2:
            raise ValueError("node count must be at least 2")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if not isinstance(self.potential, str):
            object.__setattr__(
                self, "potential", tuple(float(c) for c in self.potential)
            )

    def spec(self, n: int) -> EnsembleSpec:
        return EnsembleSpec(beta=self.beta, n=n, potential=self.potential)


def canonical_json(config: ExperimentConfig) -> str:
    """Canonical form: sorted keys, compact separators, native JSON numbers.

    Execution-environment fields (output directory, worker count) are
    excluded: they cannot change any result byte, so runs that differ only
    there share a digest.
    """
    payload = asdict(config)
    payload.pop("out_dir")
    payload.pop("workers")
    payload["sizes"] = list(config.sizes)
    if not isinstance(config.potential, str):
        payload["potential"] = list(config.potential)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(config: ExperimentConfig) -> str:
    return sha256(canonical_json(config).encode()).hexdigest()


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a config JSON file and apply overrides (CLI flags beat env vars,
    both beat the file)."""
    data = json.loads(Path(path).read_text()) if path else {}
    data.update(overrides or {})
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)


def stream_id(n: int, draw: int) -> int:
    """Deterministic random stream for task (size, draw), unique and
    independent of scheduling order."""
    return (n << 20) + draw


@dataclass
class RunManifest:
    """Run metadata: what was run, when, and with which streams.

    Wall-clock timestamps live here and only here; result files and the
    summary stay byte-deterministic in (config, seed).
    """

    config_digest: str
    code_version: str
    started_at: str
    finished_at: str = ""
    stream_scheme: str = "philox key=(seed, (n<<20)+draw)"
    warnings: list = field(default_factory=list)
    partial: bool = False
    # Per size: chains drawn by this run and their min/median/max acceptance.
    mcmc_acceptance: dict = field(default_factory=dict)

    def write(self, out_dir) -> Path:
        path = Path(out_dir) / "manifest.json"
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _row_payload(beta, n, draw, window: Window, mass, node_max, bound) -> str:
    return ",".join(
        [
            str(beta),
            str(n),
            str(draw),
            _fmt(window.a),
            _fmt(window.delta),
            _fmt(window.size),
            _fmt(mass),
            _fmt(node_max),
            _fmt(bound),
        ]
    )


def _checksum(payload: str) -> str:
    return format(zlib.crc32(payload.encode()), "08x")


def _read_completed(path: Path) -> dict:
    """Validated rows of an existing result file, keyed by (n, draw)."""
    done = {}
    if not path.exists():
        return done
    lines = path.read_text().splitlines()
    for line in lines[1:]:
        if not line.strip():
            continue
        payload, _, crc = line.rpartition(",")
        if _checksum(payload) != crc:
            raise RuntimeError(f"corrupt result row in {path}: {line!r}")
        parts = payload.split(",")
        done[(int(parts[1]), int(parts[2]))] = line
    return done


def _check_resume(out: Path, digest: str) -> None:
    """Refuse to write into a directory whose results another config wrote.

    Rows are keyed by (n, draw) alone, and every result file in a directory
    shares one manifest and one summary.  So a directory that holds any
    ``results_beta*.csv`` belongs to the config digest of the manifest written
    before its first row, and only that config may run there again.
    """
    results = sorted(out.glob("results_beta*.csv"))
    if not results:
        return
    try:
        previous = json.loads((out / "manifest.json").read_text())["config_digest"]
    except (OSError, ValueError, KeyError, TypeError):
        previous = None
    if previous != digest:
        raise RuntimeError(
            f"{results[0]} was written under config digest {previous}, not {digest}; "
            "one output directory holds one verify config: resume only with the "
            "same config or use a fresh output directory"
        )


PILOT_DRAWS = 32
PILOT_BANDWIDTH = 0.1


def _pilot_count(config: ExperimentConfig) -> int:
    """Draws per size whose spectra feed the density pilot: the first
    min(32, draws), and none for the Gaussian convention."""
    return 0 if isinstance(config.potential, str) else min(PILOT_DRAWS, config.draws)


def _psi(config: ExperimentConfig, n: int, pilot: list) -> float:
    """Bulk density at the window centre: analytic for the Gaussian
    convention, pooled estimate over the pilot spectra otherwise."""
    if not pilot:
        psi = float(semicircle_density(config.window_a))
        if psi <= 0:
            raise ValueError("window centre outside the semicircle bulk")
        return psi
    try:
        return estimate_density(pilot, config.window_a, bandwidth=PILOT_BANDWIDTH)
    except ValueError as exc:
        if len(pilot) < PILOT_DRAWS:
            hint = f"run more draws (up to {PILOT_DRAWS} feed the pilot)"
        else:
            hint = "window_a may lie outside the bulk of this potential"
        raise ValueError(
            f"density pilot at n={n} failed ({exc}): no eigenvalue of its "
            f"{len(pilot)} spectra supports window_a={config.window_a} within the "
            f"bandwidth {PILOT_BANDWIDTH}; {hint}"
        ) from exc


def _draw_spectrum(config: ExperimentConfig, n: int, draw: int):
    """Spectrum of task (n, draw) and the health of its sampler:
    ``(values, (acceptance rate or None, warnings))``."""
    spec = config.spec(n)
    state = SamplerState(seed=config.seed, stream=stream_id(n, draw))
    if spec.is_gaussian:
        return sample_tridiagonal(spec, state), (None, ())
    chain = sample_mcmc(spec, state, steps=600 + n, burn_in=500, thin=max(1, n // 10))
    last = None
    for last in chain:
        pass
    return last, (state.acceptance_rate, tuple(state.warnings))


def _verify_row(config, n, draw, values, psi, nodes) -> str:
    """Score one spectrum: localize it to the window of size n, compare its
    spacing distribution with the universal law at the nodes, and format the
    checksummed result row."""
    window = default_window(n, psi, config.window_a, config.window_delta_exponent)
    rs = rescale_localize(values, window)
    ecdf = sigma_cdf(rs)
    report = ks_node_distance(ecdf, nodes)
    payload = _row_payload(
        config.beta, n, draw, window, ecdf.total_mass, report.node_max, report.bound
    )
    return f"{payload},{_checksum(payload)}"


def _draw_task(config, task):
    n, draw = task
    return _draw_spectrum(config, n, draw)


def _row_task(config, nodes, task):
    n, draw, psi = task
    values, health = _draw_spectrum(config, n, draw)
    return _verify_row(config, n, draw, values, psi, nodes), health


@contextmanager
def _task_map(workers: int):
    """``map(fn, tasks, chunksize)`` for the run: in-process for one worker,
    else through one process pool that serves every stage of the run."""
    if workers == 1:
        yield lambda fn, tasks, chunksize=1: list(map(fn, tasks))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, tasks, chunksize=1: list(pool.map(fn, tasks, chunksize=chunksize))


def _record_health(manifest: RunManifest, health: dict) -> None:
    """Sampler warnings per (n, draw) and MCMC acceptance per size, over the
    chains this run drew, into the manifest."""
    rates = {}
    for (n, draw), (rate, warnings) in sorted(health.items()):
        manifest.warnings.extend(f"n={n}, draw={draw}: {w}" for w in warnings)
        if rate is not None:
            rates.setdefault(n, []).append(rate)
    for n, values in rates.items():
        manifest.mcmc_acceptance[str(n)] = {
            "chains": len(values),
            "min": float(np.min(values)),
            "median": float(np.median(values)),
            "max": float(np.max(values)),
        }


def _mean_ci(values: np.ndarray):
    mean = float(values.mean())
    if values.size < 2:
        return mean, None
    half = 1.96 * float(values.std(ddof=1)) / np.sqrt(values.size)
    return mean, [mean - half, mean + half]


def run_verify(
    config: ExperimentConfig, cdf: UniversalSpacingCDF | None = None
) -> dict:
    """Sample, localize, compare against the universal law, and persist.

    Writes ``results_beta{beta}.csv`` (append-only, checksummed, resumable)
    and ``summary.json`` into the output directory and returns the summary
    dict.  The summary reports, per size, the mean Kolmogorov-distance bound
    with a normal-approximation confidence interval, plus the verdict on
    whether the mean bound decreases strictly with the matrix size.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config_digest=config_hash(config), code_version=__version__, started_at=_now()
    )
    _check_resume(out, manifest.config_digest)
    manifest.write(out)
    try:
        summary = _run_verify_inner(config, cdf, out, manifest)
    except Exception as exc:
        manifest.partial = True
        manifest.warnings.append(f"aborted: {exc}")
        manifest.finished_at = _now()
        manifest.write(out)
        raise
    manifest.finished_at = _now()
    manifest.write(out)
    return summary


def _draw_rows(config, nodes, done: dict, manifest: RunManifest):
    """Draw every spectrum the run still needs, once, and score it.

    The pilot spectra (see ``_pilot_count``) give psi per size and are scored
    here as rows; the pool draws and scores only the draws past the pilot.
    Sampler health goes into the manifest, also when the run aborts.
    Returns psi per size and the new rows keyed by (n, draw).
    """
    pilots = _pilot_count(config)
    health = {}
    new_rows = {}
    try:
        with _task_map(config.workers) as task_map:
            keys = [(n, draw) for n in config.sizes for draw in range(pilots)]
            spectra = {}
            drawn = task_map(partial(_draw_task, config), keys)
            for key, (values, draw_health) in zip(keys, drawn):
                spectra[key] = values
                health[key] = draw_health
            psi_by_size = {
                n: _psi(config, n, [spectra[(n, draw)] for draw in range(pilots)])
                for n in config.sizes
            }
            for (n, draw), values in spectra.items():
                if (n, draw) not in done:
                    new_rows[(n, draw)] = _verify_row(
                        config, n, draw, values, psi_by_size[n], nodes
                    )

            tasks = [
                (n, draw, psi_by_size[n])
                for n in config.sizes
                for draw in range(pilots, config.draws)
                if (n, draw) not in done
            ]
            # Chunks of up to 8 tasks, but never fewer chunks than workers.
            chunksize = max(1, min(8, math.ceil(len(tasks) / config.workers)))
            for (n, draw, _), (row, draw_health) in zip(
                tasks, task_map(partial(_row_task, config, nodes), tasks, chunksize)
            ):
                new_rows[(n, draw)] = row
                health[(n, draw)] = draw_health
    finally:
        _record_health(manifest, health)
    return psi_by_size, new_rows


def _run_verify_inner(config, cdf, out: Path, manifest: RunManifest) -> dict:
    if cdf is None:
        cdf = build_universal_cdf(
            config.beta, s_max=config.s_max, m_nodes=config.node_count
        )
    if cdf.node_count != config.node_count:
        raise ValueError("universal CDF node count does not match the config")

    result_path = out / f"results_beta{config.beta}.csv"
    done = _read_completed(result_path)
    if done:
        manifest.warnings.append(f"resumed: {len(done)} rows already present")

    psi_by_size, new_rows = _draw_rows(config, cdf.nodes, done, manifest)

    fresh = not result_path.exists()
    with result_path.open("a") as fh:
        if fresh:
            fh.write(RESULT_HEADER + "\n")
        for n in config.sizes:
            for draw in range(config.draws):
                key = (n, draw)
                if key in new_rows:
                    fh.write(new_rows[key] + "\n")
                    fh.flush()

    all_rows = _read_completed(result_path)
    per_size = {}
    for n in config.sizes:
        bounds = np.array(
            [
                float(all_rows[(n, d)].split(",")[8])
                for d in range(config.draws)
                if (n, d) in all_rows
            ]
        )
        mean, ci = _mean_ci(bounds)
        per_size[str(n)] = {
            "draws": int(bounds.size),
            "mean_bound": mean,
            "ci95": ci,
            "window_size": default_window(
                n, psi_by_size[n], config.window_a, config.window_delta_exponent
            ).size,
        }
    means = [per_size[str(n)]["mean_bound"] for n in config.sizes]
    summary = {
        "config_digest": config_hash(config),
        "beta": config.beta,
        "sizes": list(config.sizes),
        "per_size": per_size,
        "mean_bounds_strictly_decreasing": bool(
            all(b < a for a, b in zip(means, means[1:]))
        ),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def run_identity(config: ExperimentConfig, corrupt: bool = False) -> dict:
    """Exact combinatorial identity checks over all configured draws.

    With ``corrupt=True`` one eigenvalue is displaced between the spacing
    and span computations of the first draw: the two sides then disagree and
    the violation must be reported (negative control of the detection path).
    """
    from .spacings import RescaledSpectrum, gamma_cdf

    violations = []
    checked = 0
    pilots = _pilot_count(config)
    for n in config.sizes:
        pilot = [_draw_spectrum(config, n, draw)[0] for draw in range(pilots)]
        window = default_window(
            n, _psi(config, n, pilot), config.window_a, config.window_delta_exponent
        )
        for draw in range(config.draws):
            values = pilot[draw] if draw < pilots else _draw_spectrum(config, n, draw)[0]
            rs = rescale_localize(values, window)
            if corrupt and draw == 0 and rs.inside.size >= 2:
                # Displace one eigenvalue between the two computations so the
                # span counts no longer describe the spacing counts.
                tampered = rs.inside.copy()
                tampered[0] -= 0.5 * (tampered[1] - tampered[0]) + 0.1
                rs_bad = RescaledSpectrum(inside=tampered, window=window)
                p = rs.inside.size
                # At the first true spacing the tampered span counts miss
                # exactly the widened gap, so the sides must disagree.
                s0 = float(rs.inside[1] - rs.inside[0])
                spacing_count = sigma_cdf(rs).count_at(s0)
                alternating = sum(
                    (-1) ** k * gamma_cdf(k, rs_bad).count_at(s0)
                    for k in range(2, p + 1)
                )
                checked += 1
                if alternating != spacing_count:
                    violations.append(
                        {
                            "n": n,
                            "draw": draw,
                            "jump": s0,
                            "kind": "identity",
                            "detail": "injected corruption",
                        }
                    )
                continue
            report = alternating_identity_check(rs)
            checked += report.checked_points
            for jump, kind, detail in report.violations:
                violations.append(
                    {"n": n, "draw": draw, "jump": jump, "kind": kind, "detail": detail}
                )
    return {
        "checked_jump_points": checked,
        "violations": violations,
        "ok": not violations,
    }
