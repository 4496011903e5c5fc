"""End-to-end experiment orchestration: configs, persistence, verification runs.

A run is fully determined by its configuration and seed: every (size, draw)
task derives its own random stream id, tasks are embarrassingly parallel, and
the single result writer emits rows in task order, so reruns are byte
identical regardless of worker count.  Result CSVs are append-only with a
per-row checksum; a resumed run must carry the config digest of the manifest
written before the first row, validates existing rows and only computes the
missing (size, draw) pairs.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from hashlib import sha256
from numbers import Integral
from pathlib import Path

import numpy as np

from . import __version__
from .ensembles import (
    CENTER_DENSITY,
    EnsembleSpec,
    SamplerState,
    sample_mcmc,
    sample_tridiagonal,
    semicircle_density,
)
from .gaps import UniversalSpacingCDF, build_universal_cdf, integrate_sigma
from .spacings import (
    Window,
    alternating_identity_check,
    ks_node_distance,
    estimate_density,
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


def _check_resume(result_path: Path, digest: str) -> None:
    """Refuse to resume rows that another config wrote.

    Rows are keyed by (n, draw) alone, so they may only be reused under the
    config digest of the manifest that was written before the first of them.
    """
    if not result_path.exists():
        return
    manifest_path = result_path.parent / "manifest.json"
    try:
        previous = json.loads(manifest_path.read_text())["config_digest"]
    except (OSError, ValueError, KeyError, TypeError):
        previous = None
    if previous != digest:
        raise RuntimeError(
            f"{result_path} was written under config digest {previous}, "
            f"not {digest}; resume only with the same config or use a fresh output directory"
        )


def _psi_for(config: ExperimentConfig, n: int, sampler) -> float:
    """Bulk density at the window centre: analytic for the Gaussian
    convention, pooled pilot estimate otherwise."""
    if isinstance(config.potential, str):
        psi = float(semicircle_density(config.window_a))
        if psi <= 0:
            raise ValueError("window centre outside the semicircle bulk")
        return psi
    pilot = [sampler(n, draw) for draw in range(min(32, config.draws))]
    return estimate_density(pilot, config.window_a, bandwidth=0.1)


def _draw_spectrum(config: ExperimentConfig, n: int, draw: int) -> np.ndarray:
    spec = config.spec(n)
    state = SamplerState(seed=config.seed, stream=stream_id(n, draw))
    if spec.is_gaussian:
        return sample_tridiagonal(spec, state)
    chain = sample_mcmc(spec, state, steps=600 + n, burn_in=500, thin=max(1, n // 10))
    last = None
    for last in chain:
        pass
    return last


_TASK_CONTEXT = {}


def _init_worker(config_json: str, psi_by_size: dict, nodes: list):
    _TASK_CONTEXT["config"] = ExperimentConfig(**json.loads(config_json))
    _TASK_CONTEXT["psi"] = {int(k): v for k, v in psi_by_size.items()}
    _TASK_CONTEXT["nodes"] = np.asarray(nodes)


def _verify_task(task) -> str:
    n, draw = task
    config = _TASK_CONTEXT["config"]
    psi = _TASK_CONTEXT["psi"][n]
    nodes = _TASK_CONTEXT["nodes"]
    return _verify_row(config, n, draw, psi, nodes)


def _verify_row(config, n, draw, psi, nodes) -> str:
    values = _draw_spectrum(config, n, draw)
    window = Window(
        a=config.window_a,
        delta=float(n) ** config.window_delta_exponent,
        psi_a=psi,
        n=n,
    )
    rs = rescale_localize(values, window)
    ecdf = sigma_cdf(rs)
    report = ks_node_distance(ecdf, _NodeCarrier(nodes))
    payload = _row_payload(
        config.beta, n, draw, window, ecdf.total_mass, report.node_max, report.bound
    )
    return f"{payload},{_checksum(payload)}"


class _NodeCarrier:
    """Minimal stand-in with the node array, for worker processes that only
    need the quantile nodes of the universal CDF."""

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes)


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
    _check_resume(out / f"results_beta{config.beta}.csv", manifest.config_digest)
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


def _run_verify_inner(config, cdf, out: Path, manifest: RunManifest) -> dict:
    if cdf is None:
        cdf = build_universal_cdf(
            config.beta, s_max=config.s_max, m_nodes=config.node_count
        )
    if cdf.node_count != config.node_count:
        raise ValueError("universal CDF node count does not match the config")

    def sampler(n, draw):
        return _draw_spectrum(config, n, draw)

    psi_by_size = {n: _psi_for(config, n, sampler) for n in config.sizes}

    result_path = out / f"results_beta{config.beta}.csv"
    done = _read_completed(result_path)
    if done:
        manifest.warnings.append(f"resumed: {len(done)} rows already present")
    tasks = [
        (n, draw)
        for n in config.sizes
        for draw in range(config.draws)
        if (n, draw) not in done
    ]

    new_rows = {}
    if tasks:
        if config.workers > 1:
            with ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=_init_worker,
                initargs=(canonical_json(config), psi_by_size, cdf.nodes.tolist()),
            ) as pool:
                # Chunks of up to 8 tasks, but never fewer chunks than workers.
                chunksize = min(8, math.ceil(len(tasks) / config.workers))
                rows = pool.map(_verify_task, tasks, chunksize=chunksize)
                for task, row in zip(tasks, rows):
                    new_rows[task] = row
        else:
            for task in tasks:
                new_rows[task] = _verify_row(
                    config, task[0], task[1], psi_by_size[task[0]], cdf.nodes
                )

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
            "window_size": float(
                2.0 * n * psi_by_size[n] * float(n) ** config.window_delta_exponent
            ),
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
    for n in config.sizes:
        if isinstance(config.potential, str):
            psi = float(semicircle_density(config.window_a))
        else:
            pilot = [
                _draw_spectrum(config, n, draw)
                for draw in range(min(32, config.draws))
            ]
            psi = estimate_density(pilot, config.window_a, bandwidth=0.1)
        window = Window(
            a=config.window_a,
            delta=float(n) ** config.window_delta_exponent,
            psi_a=psi,
            n=n,
        )
        for draw in range(config.draws):
            values = _draw_spectrum(config, n, draw)
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
