"""End-to-end experiment orchestration: configs, persistence, verification runs.

A run is fully determined by its configuration and seed: every (size, draw)
task derives its own random stream id, tasks are embarrassingly parallel, and
the single result writer appends each row in task order as it is scored, so
reruns are byte identical regardless of worker count and a result file is
always a prefix of a fresh run's.  Each ``run_*`` function runs one
subcommand and writes its files.  Every (size, draw) spectrum is drawn once,
by ``_draw_spectrum``.  One plan, ``_plan``, places each size's window for
``verify`` and ``identity``: its density psi is known (the semicircle value
for the Gaussian convention, or the value a resumed run's manifest recorded)
or else estimated from the size's pilot, its first min(32, draws) spectra,
which then travel to the task map with their tasks: ``_score_task`` scores
every row, pilot or not.
Result CSVs are append-only with a per-row checksum.  One output directory
holds one config: a run into a directory with any result file must carry the
config digest of the manifest written before the first row; it then keeps
the file's rows while each is the next task's, cuts the file after them and
appends the rest.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from contextlib import contextmanager
from functools import partial
from itertools import chain
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
    DEFAULT_DELTA_EXPONENT,
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
    "run_sample",
    "run_universal",
    "run_verify",
    "stream_id",
    "write_json",
    "write_table",
]

RESULT_HEADER = "beta,n,draw,window_a,window_delta,A_N,total_mass,node_max,bound,crc"

DRAWS_LIMIT = 2**20

# A table of more rows than this is written gzipped.
GZIP_ROWS = 1_000_000

# One CSV field: a value to 12 significant digits.
FIELD = "%.12g"


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible description of one verification experiment."""

    beta: int = 2
    sizes: tuple = (100, 400, 1600)
    draws: int = 200
    potential: object = "gaussian"
    window_a: float = 0.0
    window_delta_exponent: float = DEFAULT_DELTA_EXPONENT
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
            # stream_id packs size and draw into 44 + 20 bits of Philox's key.
            *(("each size", n, 8, 2**44) for n in sizes),
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
        # A process pool starts all its workers at once.
        if self.workers > (cpus := os.cpu_count() or 1):
            raise ValueError(f"workers must not exceed the {cpus} CPUs, got {self.workers}")
        # A row names its (n, draw): a repeated size would score its rows twice.
        if len(set(sizes)) < len(sizes):
            raise ValueError(f"sizes must be distinct, got {self.sizes!r}")
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
        # An empty path would write the run into the current directory.
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ValueError(f"out_dir must be a non-empty string, got {self.out_dir!r}")


def canonical_json(config: ExperimentConfig) -> str:
    """Canonical form: sorted keys, compact separators, native JSON numbers.

    Execution-environment fields (output directory, worker count) are
    excluded: they cannot change any result byte, so runs that differ only
    there share a digest.
    """
    payload = asdict(config)
    payload.pop("out_dir")
    payload.pop("workers")
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(config: ExperimentConfig) -> str:
    return sha256(canonical_json(config).encode()).hexdigest()


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a config JSON file and apply overrides (CLI flags beat env vars,
    both beat the file)."""
    try:
        data = json.loads(Path(path).read_text()) if path else {}
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
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
    return ",".join([FIELD] * len(values)) % values


def write_table(path, header: str, rows) -> Path:
    """Write ``header`` and each row, as many ``FIELD``s as the header has
    columns, to ``path`` in one ``%``, creating its directory; above
    GZIP_ROWS rows the file is gzipped to ``path`` + ``.gz``; the other form
    is removed.  Returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width = header.count(",") + 1
    values = tuple(chain.from_iterable(rows))
    count = len(values) // width
    text = header + "\n" + ((",".join([FIELD] * width) + "\n") * count) % values
    if count > GZIP_ROWS:
        import gzip  # only here: importing it costs every process ~0.1 MB

        path.unlink(missing_ok=True)
        path = path.with_suffix(path.suffix + ".gz")
        with gzip.open(path, "wt") as fh:
            fh.write(text)
    else:
        path.write_text(text)
        path.with_suffix(path.suffix + ".gz").unlink(missing_ok=True)
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


def _check_resume(out: Path, digest: str) -> dict:
    """Refuse to write into a directory whose results another config wrote,
    or rows of another layout.

    A row names only its (n, draw), and every result file in a directory
    shares one manifest and one summary.  So a directory with a
    ``results_beta*.csv`` that holds a row after its header belongs to the
    config digest of the manifest written before its first row, and only
    that config may run there again; a header alone (a run that failed
    before its first row) binds no config.  Each such file's complete first
    line must be ``RESULT_HEADER``; an unterminated one (half a header)
    counts as missing.

    Returns the psi per size that the accepted manifest recorded (empty when
    there is nothing to resume or it recorded none).
    """
    written = []
    for path in sorted(out.glob("results_beta*.csv")):
        with path.open("rb") as fh:
            first, row = fh.readline(), fh.read(1)
        if first.endswith(b"\n") and first != f"{RESULT_HEADER}\n".encode():
            raise RuntimeError(
                f"{path} has the header {first.decode(errors='replace').rstrip()!r}, "
                f"not {RESULT_HEADER!r}: resume only with the code that wrote it "
                "or use a fresh output directory"
            )
        if row:
            written.append(path)
    try:
        previous = json.loads((out / "manifest.json").read_text())
        digest_found = previous["config_digest"]
    except (OSError, ValueError, KeyError, TypeError):
        previous, digest_found = {}, None
    if digest_found != digest and written:
        raise RuntimeError(
            f"{written[0]} was written under config digest {digest_found}, not {digest}; "
            "one output directory holds one verify config: resume only with the "
            "same config or use a fresh output directory"
        )
    recorded = previous.get("psi") if digest_found == digest else None
    psi = {}
    # Each entry stands alone: one that does not parse costs only its size's pilot.
    for n, value in (recorded.items() if isinstance(recorded, dict) else ()):
        try:
            n, value = int(n), float(value)
        except (TypeError, ValueError):
            continue
        if math.isfinite(value) and value > 0:
            psi[n] = value
    return psi


PILOT_DRAWS = 32
PILOT_BANDWIDTH = 0.1


def _psi(config: ExperimentConfig, n: int, pilot: list) -> float:
    """Bulk density at the window centre, pooled over the pilot spectra."""
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


def _tasks(sizes, draws: int) -> list:
    """The (n, draw) tasks of a run, in the order it draws, scores and writes them."""
    return [(n, draw) for n in sizes for draw in range(draws)]


def _draw_spectrum(config: ExperimentConfig, task):
    """``(values, state)``: the spectrum of task (n, draw) and the
    ``SamplerState`` that drew it, whose counts and warnings are its health.
    Every spectrum that ``verify``, ``identity`` and ``sample`` use is drawn here."""
    n, draw = task
    spec = EnsembleSpec(beta=config.beta, n=n, potential=config.potential)
    state = SamplerState(seed=config.seed, stream=stream_id(n, draw))
    if spec.is_gaussian:
        return sample_tridiagonal(spec, state), state
    chain = sample_mcmc(spec, state, steps=600 + n, burn_in=500, thin=max(1, n // 10))
    last = None
    for last in chain:
        pass
    return last, state


def _verify_row(config, nodes, task, rs) -> str:
    """Score one localized spectrum: compare its spacing distribution with
    the universal law at the nodes, and format the checksummed result row."""
    ecdf = sigma_cdf(rs)
    report = ks_node_distance(ecdf, nodes)
    payload = _line(
        config.beta, *task, rs.window.a, rs.window.delta, rs.window.size,
        ecdf.total_mass, report.node_max, report.bound,
    )
    return f"{payload},{_checksum(payload)}"


def _identity_points(corrupt, task, rs):
    """Exact identity check of one localized spectrum: ``(points, violations)``.

    The spacing side is the ``sigma_cdf`` count that ``verify`` scores.  With
    ``corrupt`` the span side is counted on a copy whose first eigenvalue is
    displaced, so the check must report a violation at the first true
    spacing (negative control of the detector); a window with fewer than two
    eigenvalues has nothing to displace.
    """
    n, draw = task
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


def _score_task(config, windows, score, job):
    """The one place a row is scored: ``job`` is ``(task, drawn)``, where
    ``drawn`` is the pilot's ``(values, state)`` of the task, or None to draw
    it here.  Returns ``(task, score(task, rs), state)``, ``rs`` the spectrum
    localized to its size's window."""
    task, drawn = job
    values, state = drawn or _draw_spectrum(config, task)
    return task, score(task, rescale_localize(values, windows[task[0]])), state


@contextmanager
def _task_map(config: ExperimentConfig):
    """Lazy ``map(fn, tasks)`` over a list of tasks whose results come in
    task order: in-process for one worker, else through one process pool
    that serves every stage of the run.  The pool takes chunks of
    ceil(tasks / (4 * workers)) tasks, at most 8: 240 tasks on 2 workers go
    8 at a time, the 4 chains of a two-size MCMC pilot one at a time, so
    that no worker draws both long chains.  The parent draws nothing; that
    of ``verify`` has loaded scipy's LAPACK module (``ensembles._lapack``,
    ~4 ms) for the law's sigma-BVP before the pool forks, and the workers
    inherit it.  A parent that builds no law loads no scipy module, and each
    worker loads the Gaussian draws' eigensolver (dsterf) on its own first
    draw.  A one-worker run does not import the pool module (nor the
    ``logging`` and ``subprocess`` it pulls in)."""
    if config.workers == 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        yield lambda fn, tasks: pool.map(
            fn, tasks, chunksize=max(1, min(8, math.ceil(len(tasks) / (4 * config.workers))))
        )


@contextmanager
def _plan(config: ExperimentConfig, recorded_psi: dict, health: dict):
    """The run plan: each size's window, and one scorer of its spectra.

    A size's psi is known for the Gaussian convention (the semicircle value)
    or when the manifest of the run being resumed recorded it; otherwise it
    is estimated from that size's pilot, its first min(32, draws) spectra.
    The pilots are drawn through the task map before any row, and their
    sampler states enter ``health`` before any estimate, so they reach the
    manifest also when an estimate aborts.

    Yields ``(windows, scored)``: ``scored(score, tasks)`` gives
    ``(task, score(task, rs), state)`` lazily and in task order.  Every
    row is scored by ``_score_task`` in the task map; a pilot spectrum
    travels there with its task, the others are drawn there.
    """
    gaussian = isinstance(config.potential, str)
    known = {n: float(semicircle_density(config.window_a)) for n in config.sizes if gaussian}
    known.update(recorded_psi)
    with _task_map(config) as task_map:
        tasks = _tasks([n for n in config.sizes if n not in known], min(PILOT_DRAWS, config.draws))
        pilots = dict(zip(tasks, task_map(partial(_draw_spectrum, config), tasks)))
        health.update((task, state) for task, (_, state) in pilots.items())
        windows = {}
        for n in config.sizes:
            pilot = [values for (m, _), (values, _) in pilots.items() if m == n]
            psi = known[n] if n in known else _psi(config, n, pilot)
            windows[n] = default_window(n, psi, config.window_a, config.window_delta_exponent)

        def scored(score, tasks):
            jobs = [(task, pilots.get(task)) for task in tasks]
            return task_map(partial(_score_task, config, windows, score), jobs)

        yield windows, scored


@contextmanager
def _open_results(path: Path, tasks: list):
    """Yields ``(fh, rows)``: the result file, open for appending, and the
    rows it keeps, a prefix of ``tasks``.

    The file keeps its complete rows while each is the next task's; the
    file is cut after the last of them.  A blank, repeated, out-of-order or
    out-of-config row ends the prefix, and it and every row after it are
    scored again, to the same bytes.  A row whose checksum fails, or that is
    not UTF-8, raises.  A file without a complete header line starts again
    with the header (``_check_resume`` has refused any other header).
    """
    lines = path.read_bytes().split(b"\n")[:-1] if path.exists() else []
    rows = []
    for line, task in zip(lines[1:], tasks):
        if not line.strip():
            break
        row = line.decode(errors="replace")
        payload, _, crc = row.rpartition(",")
        if _checksum(payload) != crc:
            raise RuntimeError(f"corrupt result row in {path}: {row!r}")
        if payload.split(",")[1:3] != _line(*task).split(","):
            break
        rows.append(row)
    with path.open("a") as fh:
        fh.truncate(sum(len(line) + 1 for line in lines[: 1 + len(rows)]))
        if not lines:
            fh.write(RESULT_HEADER + "\n")
        yield fh, rows


def _record_health(manifest: RunManifest, health: dict) -> None:
    """Sampler warnings per (n, draw) and MCMC acceptance per size, read from
    the ``SamplerState`` of each draw this run made, into the manifest."""
    rates = {}
    for (n, draw), state in sorted(health.items()):
        manifest.warnings.extend(f"n={n}, draw={draw}: {w}" for w in state.warnings)
        if state.proposed > 0:
            rates.setdefault(n, []).append(state.acceptance_rate)
    for n, values in rates.items():
        values.sort()
        mid = len(values) // 2
        manifest.mcmc_acceptance[str(n)] = {
            "chains": len(values),
            "min": values[0],
            # np.median's value; np.median would load numpy.ma, and
            # statistics.median decimal and fractions, into every process.
            "median": values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2,
            "max": values[-1],
        }


def _size_summary(bounds: np.ndarray, window) -> dict:
    """One size's summary: its draws, their mean bound with a normal-approximation
    95% interval (None for one draw), and its window's eigenvalue count."""
    mean, ci = float(bounds.mean()), None
    if bounds.size > 1:
        half = 1.96 * float(bounds.std(ddof=1)) / np.sqrt(bounds.size)
        ci = [mean - half, mean + half]
    return {"draws": int(bounds.size), "mean_bound": mean, "ci95": ci, "window_size": window.size}


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
    tasks = _tasks(config.sizes, config.draws)
    health, failure = {}, None
    try:
        with _open_results(out / f"results_beta{config.beta}.csv", tasks) as (fh, rows):
            if rows:
                manifest.warnings.append(f"resumed: {len(rows)} rows already present")
            with _plan(config, recorded_psi, health) as (windows, scored):
                manifest.psi = {str(n): window.psi_a for n, window in windows.items()}
                score = partial(_verify_row, config, cdf.nodes)
                for task, row, state in scored(score, tasks[len(rows):]):
                    fh.write(row + "\n")
                    fh.flush()
                    rows.append(row)
                    health[task] = state
        bounds = np.array([float(row.split(",")[8]) for row in rows]).reshape(-1, config.draws)
        per_size = {str(n): _size_summary(b, windows[n]) for n, b in zip(config.sizes, bounds)}
        means = [per_size[str(n)]["mean_bound"] for n in sorted(config.sizes)]
        summary = {
            "config_digest": manifest.config_digest,
            "beta": config.beta,
            "sizes": list(config.sizes),
            "per_size": per_size,
            "mean_bounds_strictly_decreasing": all(b < a for a, b in zip(means, means[1:])),
        }
        write_json(out / "summary.json", summary)
    except Exception as exc:
        failure = exc
    # An interrupt, not an Exception, leaves the manifest as the run began it.
    _record_health(manifest, health)
    if failure is not None:
        manifest.partial = True
        manifest.warnings.append(f"aborted: {failure}")
    manifest.finished_at = _now()
    manifest.write(out)
    if failure is not None:
        raise failure
    return summary


def run_identity(config: ExperimentConfig, corrupt: bool = False) -> dict:
    """Exact combinatorial identity checks over all configured draws.

    The spectra and windows are those ``verify`` scores, from the same
    ``_plan``.  Writes the report with the config digest to ``identity.json``
    and returns it.  ``corrupt=True`` is the negative control of the detector
    (see ``_identity_points``); it raises, writing nothing, when no window
    could be corrupted, since a control that found nothing shows nothing.
    """
    checked, violations = 0, []
    with _plan(config, {}, {}) as (_, scored):
        score = partial(_identity_points, corrupt)
        for _, (points, found), _ in scored(score, _tasks(config.sizes, config.draws)):
            checked += points
            violations += found
    if corrupt and not violations:
        raise RuntimeError(
            "nothing could be corrupted: no window holds two eigenvalues to displace"
        )
    report = {"checked_jump_points": checked, "violations": violations, "ok": not violations}
    record = {**report, "config_digest": config_hash(config)}
    write_json(Path(config.out_dir) / "identity.json", record)
    return report


def run_sample(config: ExperimentConfig) -> list:
    """Dump every configured spectrum, as ``verify`` draws it, to one
    ``spectra_beta{beta}_n{n}.csv`` per size in the output directory.
    Returns the paths written, in size order."""
    paths = []
    with _task_map(config) as task_map:
        for n in config.sizes:
            spectra = task_map(partial(_draw_spectrum, config), _tasks((n,), config.draws))
            rows = (
                (draw, index, value)
                for draw, (values, _) in enumerate(spectra)
                for index, value in enumerate(values)
            )
            path = Path(config.out_dir) / f"spectra_beta{config.beta}_n{n}.csv"
            paths.append(write_table(path, "draw_id,index,eigenvalue", rows))
    return paths


def run_universal(beta: int, s_max: float, nodes: int, out) -> list:
    """Tabulate F_beta on its grid up to ``s_max`` to ``F_beta{beta}.csv``
    and its ``nodes`` quantile nodes to ``nodes_beta{beta}.csv`` in ``out``.
    Returns the two paths written."""
    cdf = build_universal_cdf(beta, s_max=s_max, m_nodes=nodes)
    return [
        write_table(Path(out) / f"F_beta{cdf.beta}.csv", "s,F", zip(cdf.grid, cdf.cdf)),
        write_table(Path(out) / f"nodes_beta{cdf.beta}.csv", "i,s", enumerate(cdf.nodes, 1)),
    ]
