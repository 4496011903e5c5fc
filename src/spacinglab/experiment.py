"""End-to-end experiment orchestration: configs, persistence, verification runs.

A run is fully determined by its configuration and seed: every (size, draw)
task derives its own random stream id, tasks are embarrassingly parallel, and
the single result writer appends each row in task order as it is scored, so
reruns are byte identical regardless of worker count and a killed run keeps
the rows before it; a resume that fills a hole rewrites the file in task
order.  Every (size, draw) spectrum is drawn once, by
``_draw_spectrum``: for a non-Gaussian potential the first min(32, draws)
spectra of a size feed the density pilot and are then scored as that size's
first rows.  ``verify`` and ``identity`` share that pilot/window plan.
Result CSVs are append-only with a per-row checksum.  One output directory
holds one config: a run into a directory with any result file must carry the
config digest of the manifest written before the first row; it then
validates existing rows and only computes the missing (size, draw) pairs.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from hashlib import sha256
from numbers import Integral, Real
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
from .gaps import GAP_STEP, S_MAX_LIMIT, UniversalSpacingCDF, build_universal_cdf
from .spacings import (
    RescaledSpectrum,
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
    "write_json",
    "write_table",
]

RESULT_HEADER = "beta,n,draw,window_a,window_delta,A_N,total_mass,node_max,bound,crc"

DRAWS_LIMIT = 2**20

# A table of more rows than this is written gzipped.
GZIP_ROWS = 1_000_000


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
        # Values are checked, never coerced: a coerced value (16.5 -> 16)
        # would run another config under this one's digest.
        sizes = list(self.sizes) if isinstance(self.sizes, (list, tuple)) else []
        if not sizes:
            raise ValueError(f"sizes must be a non-empty list, got {self.sizes!r}")
        for name, value, least, bound in (
            ("beta", self.beta, 1, 5),
            *(("each size", n, 8, math.inf) for n in sizes),
            # stream_id packs the draw into the low 20 bits.
            ("draws", self.draws, 1, DRAWS_LIMIT),
            # Philox truncates a fractional seed, so 1.5 would replay seed 1
            # under another digest.
            ("seed", self.seed, 0, 2**64),
            ("node_count", self.node_count, 2, math.inf),
            ("workers", self.workers, 1, math.inf),
        ):
            # bool is an Integral, so JSON true would run as 1 under another digest.
            integer = isinstance(value, Integral) and not isinstance(value, bool)
            if not integer or not least <= value < bound:
                raise ValueError(f"{name} must be an integer in [{least}, {bound}), got {value!r}")
        object.__setattr__(self, "sizes", tuple(int(n) for n in sizes))
        spec = EnsembleSpec(beta=self.beta, n=sizes[0], potential=self.potential)
        object.__setattr__(self, "potential", spec.potential)
        # A Gaussian window centre must lie inside the semicircle's support;
        # delta = n**exponent must shrink while n*delta grows.
        edge = 2 if spec.is_gaussian else math.inf
        for name, lo, hi in (
            ("window_a", -edge, edge),
            ("window_delta_exponent", -1, 0),
            ("s_max", -math.inf, math.inf),
        ):
            value = getattr(self, name)
            real = isinstance(value, Real) and not isinstance(value, bool)
            if not real or not lo < value < hi:
                raise ValueError(f"{name} must be a real number in ({lo}, {hi}), got {value!r}")
        # The universal law is tabulated only as far as the trajectory reaches.
        if not 0 < self.s_max <= S_MAX_LIMIT:
            raise ValueError(
                f"s_max must lie in (0, 100/pi = {S_MAX_LIMIT:.4f}], got {self.s_max!r}"
            )
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")


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
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
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
    # Per size: the window density psi(window_a) the rows were scored with.
    psi: dict = field(default_factory=dict)

    def write(self, out_dir) -> Path:
        return write_json(Path(out_dir) / "manifest.json", asdict(self))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _line(*values) -> str:
    """One CSV line, every value to 12 significant digits (an integer below
    1e12 reads as ``str`` writes it)."""
    return ",".join(format(float(v), ".12g") for v in values)


def write_table(path, header: str, rows) -> Path:
    """Write ``header`` and one ``_line`` per row of values to ``path``,
    creating its directory; above GZIP_ROWS rows the file is gzipped to
    ``path`` + ``.gz``.  Returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header, *(_line(*row) for row in rows)]
    text = "\n".join(lines) + "\n"
    if len(lines) - 1 > GZIP_ROWS:
        import gzip  # only here: importing it costs every process ~0.1 MB

        path = path.with_suffix(path.suffix + ".gz")
        with gzip.open(path, "wt") as fh:
            fh.write(text)
    else:
        path.write_text(text)
    return path


def write_json(path, obj) -> Path:
    """Write ``obj`` to ``path`` as indented JSON with sorted keys and a final
    newline, creating its directory.  Returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def _checksum(payload: str) -> str:
    return format(zlib.crc32(payload.encode()), "08x")


def _read_completed(path: Path) -> dict:
    """Validated rows of an existing result file, keyed by (n, draw).  An
    unterminated last line (a killed run's last row) counts as missing."""
    done = {}
    if not path.exists():
        return done
    lines = path.read_text().split("\n")[:-1]
    for line in lines[1:]:
        if not line.strip():
            continue
        payload, _, crc = line.rpartition(",")
        if _checksum(payload) != crc:
            raise RuntimeError(f"corrupt result row in {path}: {line!r}")
        parts = payload.split(",")
        done[(int(parts[1]), int(parts[2]))] = line
    return done


def _check_resume(out: Path, digest: str) -> dict:
    """Refuse to write into a directory whose results another config wrote.

    Rows are keyed by (n, draw) alone, and every result file in a directory
    shares one manifest and one summary.  So a directory that holds any
    ``results_beta*.csv`` belongs to the config digest of the manifest written
    before its first row, and only that config may run there again.

    Returns the psi per size that the accepted manifest recorded (empty when
    there is nothing to resume or it recorded none).
    """
    results = sorted(out.glob("results_beta*.csv"))
    if not results:
        return {}
    try:
        previous = json.loads((out / "manifest.json").read_text())
        digest_found = previous["config_digest"]
    except (OSError, ValueError, KeyError, TypeError):
        previous, digest_found = {}, None
    if digest_found != digest:
        raise RuntimeError(
            f"{results[0]} was written under config digest {digest_found}, not {digest}; "
            "one output directory holds one verify config: resume only with the "
            "same config or use a fresh output directory"
        )
    try:
        recorded = {int(n): float(psi) for n, psi in previous.get("psi", {}).items()}
    except (AttributeError, TypeError, ValueError):
        return {}
    return {n: psi for n, psi in recorded.items() if math.isfinite(psi) and psi > 0}


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
        return float(semicircle_density(config.window_a))
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


def _draw_spectrum(config: ExperimentConfig, task):
    """Spectrum of task (n, draw) and the health of its sampler:
    ``(values, (acceptance rate or None, warnings))``.  Every spectrum that
    ``verify`` and ``identity`` score and ``sample`` dumps is drawn here."""
    n, draw = task
    spec = EnsembleSpec(beta=config.beta, n=n, potential=config.potential)
    state = SamplerState(seed=config.seed, stream=stream_id(n, draw))
    if spec.is_gaussian:
        return sample_tridiagonal(spec, state), (None, ())
    chain = sample_mcmc(spec, state, steps=600 + n, burn_in=500, thin=max(1, n // 10))
    last = None
    for last in chain:
        pass
    return last, (state.acceptance_rate, tuple(state.warnings))


def _draw_pilots(config: ExperimentConfig, task_map, settled: dict) -> dict:
    """Pilot spectra ``{(n, draw): (values, health)}``: the first
    ``_pilot_count`` draws of every size whose psi is not settled."""
    draws = range(_pilot_count(config))
    tasks = [(n, draw) for n in config.sizes if n not in settled for draw in draws]
    return dict(zip(tasks, task_map(partial(_draw_spectrum, config), tasks)))


def _windows(config: ExperimentConfig, settled: dict, pilots: dict) -> dict:
    """Window per size, at its settled psi or else at the psi of its pilot.

    Drawing the pilots and placing the windows are two steps, so that the
    pilot's sampler health reaches the manifest also when its psi aborts.
    """
    windows = {}
    for n in config.sizes:
        pilot = [values for (m, _), (values, _) in pilots.items() if m == n]
        psi = settled[n] if n in settled else _psi(config, n, pilot)
        windows[n] = default_window(n, psi, config.window_a, config.window_delta_exponent)
    return windows


def _verify_row(config, windows, nodes, task, values) -> str:
    """Score one spectrum: localize it to its size's window, compare its
    spacing distribution with the universal law at the nodes, and format the
    checksummed result row."""
    n, draw = task
    window = windows[n]
    rs = rescale_localize(values, window)
    ecdf = sigma_cdf(rs)
    report = ks_node_distance(ecdf, nodes)
    payload = _line(
        config.beta, n, draw, window.a, window.delta, window.size,
        ecdf.total_mass, report.node_max, report.bound,
    )
    return f"{payload},{_checksum(payload)}"


def _identity_points(windows, corrupt, task, values):
    """Exact identity check of one spectrum: ``(checked points, violations)``.

    The spacing side is the ``sigma_cdf`` count that ``verify`` scores.  With
    ``corrupt`` the span side is counted on a copy whose first eigenvalue is
    displaced, so the check must report a violation at the first true
    spacing (negative control of the detector); a window with fewer than two
    eigenvalues has nothing to displace.
    """
    n, draw = task
    rs = rescale_localize(values, windows[n])
    spans = rs
    if corrupt and rs.inside.size >= 2:
        tampered = rs.inside.copy()
        tampered[0] -= 0.5 * (tampered[1] - tampered[0]) + 0.1
        spans = RescaledSpectrum(inside=tampered, window=rs.window)
    report = alternating_identity_check(sigma_cdf(rs), spans)
    return report.checked_points, [
        {"n": n, "draw": draw, "jump": jump, "kind": kind, "detail": detail}
        for jump, kind, detail in report.violations
    ]


def _score_task(config, score, task):
    values, health = _draw_spectrum(config, task)
    return score(task, values), health


def _scored(config, task_map, score, pilots: dict, tasks: list):
    """``(task, score(task, values), health)`` for each task, lazily and in
    task order: a spectrum the pilot drew is scored here, the pool draws and
    scores the rest."""
    rest = [task for task in tasks if task not in pilots]
    # Chunks of up to 8 tasks, but never fewer chunks than workers.
    chunksize = max(1, min(8, math.ceil(len(rest) / config.workers)))
    pooled = task_map(partial(_score_task, config, score), rest, chunksize=chunksize)
    for task in tasks:
        if task in pilots:
            values, health = pilots[task]
            yield task, score(task, values), health
        else:
            result, health = next(pooled)
            yield task, result, health


@contextmanager
def _task_map(workers: int):
    """Lazy ``map(fn, tasks, chunksize=...)`` whose results come in task
    order: in-process for one worker, else through one process pool that
    serves every stage of the run."""
    if workers == 1:
        yield lambda fn, tasks, chunksize=1: map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, tasks, chunksize=1: pool.map(fn, tasks, chunksize=chunksize)


@contextmanager
def _open_results(path: Path):
    """The result file, open for appending after its last complete line; a
    file left without one starts again with the header."""
    complete = path.read_bytes().rfind(b"\n") + 1 if path.exists() else 0
    with path.open("a") as fh:
        fh.truncate(complete)
        if not complete:
            fh.write(RESULT_HEADER + "\n")
        yield fh


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

    A given ``cdf`` must be the config's law: its beta, node count and
    grid end (s_max, to within GAP_STEP/2), else nothing is written.
    """
    if cdf is None:
        cdf = build_universal_cdf(config.beta, s_max=config.s_max, m_nodes=config.node_count)
    law = (cdf.beta, cdf.node_count, float(cdf.grid[-1]))
    wanted = (config.beta, config.node_count, config.s_max)
    if law[:2] != wanted[:2] or not abs(law[2] - wanted[2]) <= GAP_STEP / 2:
        raise ValueError(
            f"universal CDF (beta, node count, s_max) = {law} does not match the config's {wanted}"
        )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config_digest=config_hash(config), code_version=__version__, started_at=_now()
    )
    recorded_psi = _check_resume(out, manifest.config_digest)
    manifest.write(out)
    try:
        summary = _run_verify_inner(config, cdf, out, manifest, recorded_psi)
    except Exception as exc:
        manifest.partial = True
        manifest.warnings.append(f"aborted: {exc}")
        manifest.finished_at = _now()
        manifest.write(out)
        raise
    manifest.finished_at = _now()
    manifest.write(out)
    return summary


def _run_verify_inner(config, cdf, out: Path, manifest: RunManifest, recorded_psi) -> dict:
    result_path = out / f"results_beta{config.beta}.csv"
    done = _read_completed(result_path)
    if done:
        manifest.warnings.append(f"resumed: {len(done)} rows already present")

    # A size whose psi an earlier run of this config recorded is settled: the
    # recorded psi stands, no pilot is drawn, and the pool draws every
    # missing row of that size, pilot draws included.
    settled = {n: recorded_psi[n] for n in config.sizes if n in recorded_psi}
    tasks = [(n, d) for n in config.sizes for d in range(config.draws) if (n, d) not in done]
    rows, health = dict(done), {}
    try:
        with _task_map(config.workers) as task_map:
            pilots = _draw_pilots(config, task_map, settled)
            health.update((task, h) for task, (_, h) in pilots.items())
            windows = _windows(config, settled, pilots)
            manifest.psi = {str(n): window.psi_a for n, window in windows.items()}
            score = partial(_verify_row, config, windows, cdf.nodes)
            with _open_results(result_path) as fh:
                for task, row, draw_health in _scored(config, task_map, score, pilots, tasks):
                    fh.write(row + "\n")
                    fh.flush()
                    rows[task], health[task] = row, draw_health
    finally:
        _record_health(manifest, health)
    # A resume that filled a hole appended rows after later ones: rewrite
    # the file in task order, so it equals a fresh run's.
    order = [(n, d) for n in config.sizes for d in range(config.draws) if (n, d) in rows]
    if list(rows) != order:
        tmp = result_path.with_name(result_path.name + ".tmp")
        tmp.write_text(RESULT_HEADER + "\n" + "".join(rows[task] + "\n" for task in order))
        os.replace(tmp, result_path)

    per_size = {}
    for n in config.sizes:
        bounds = np.array(
            [float(rows[(n, d)].split(",")[8]) for d in range(config.draws) if (n, d) in rows]
        )
        mean, ci = _mean_ci(bounds)
        per_size[str(n)] = {
            "draws": int(bounds.size),
            "mean_bound": mean,
            "ci95": ci,
            "window_size": windows[n].size,
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
    write_json(out / "summary.json", summary)
    return summary


def run_identity(config: ExperimentConfig, corrupt: bool = False) -> dict:
    """Exact combinatorial identity checks over all configured draws.

    The spectra and windows are those ``verify`` scores, drawn by the same
    pilot/window plan and task map.  ``corrupt=True`` is the negative control
    of the detector (see ``_identity_points``); it raises when no window
    could be corrupted, since a control that found nothing shows nothing.
    """
    checked, violations = 0, []
    tasks = [(n, draw) for n in config.sizes for draw in range(config.draws)]
    with _task_map(config.workers) as task_map:
        pilots = _draw_pilots(config, task_map, {})
        score = partial(_identity_points, _windows(config, {}, pilots), corrupt)
        for _, (points, found), _ in _scored(config, task_map, score, pilots, tasks):
            checked += points
            violations += found
    if corrupt and not violations:
        raise RuntimeError(
            "nothing could be corrupted: no window holds two eigenvalues to displace"
        )
    return {"checked_jump_points": checked, "violations": violations, "ok": not violations}
