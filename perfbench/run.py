#!/usr/bin/env python3
"""spacinglab benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run measures, for ``--seconds`` seconds, whole rounds
of the workload, each in a fresh process, plus set-up-only processes, and
reports the medians of ``setup_s``, ``wall_s``, ``cpu_s`` and
``peak_rss_mb``.  With ``--trace 1`` it runs every workload once in one
traced process (one worker, spans around each layer's public functions) and
reports the per-layer metrics, each from the workload that exercises that
layer, plus the tracing overhead of the named workload.  Outputs are
checked after the timed region.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
# The checks recompute rows and spectra through the package's public samplers.
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# A round takes seconds; a process still running after this is killed, so a
# run stays well inside three minutes.
CHILD_TIMEOUT_S = 90
MIN_SETUP_PROBES = 2


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPACINGLAB_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(argv, log):
    """Run ``python3 argv`` in a new session; return (exit code, wall s,
    CPU s of the whole process tree, peak RSS MB, spawn time)."""
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=fh, stderr=subprocess.STDOUT,
            env=_env(), cwd=ROOT, start_new_session=True,
        )
    killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
    killer.start()
    try:
        # wait4 reports the child's usage plus that of every descendant it
        # waited for (the pool workers): CPU summed, RSS the largest.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing of the run outlives it
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, start


class RunFailed(Exception):
    """A process of the run failed, so it has no metrics to report."""


class Round:
    """One fresh process running one mode of one workload."""

    def __init__(self, mode, name, seed, base):
        self.dir = base
        self.out = base / "out"
        self.out.mkdir(parents=True)
        result = base / "result.json"
        self.code, self.wall, self.cpu, self.rss, start = spawn(
            [str(HERE / "child.py"), mode, name, str(seed), str(self.out), str(result)],
            base / "log.txt",
        )
        self.result = json.loads(result.read_text()) if self.code == 0 else {}
        self.setup = self.result.get("setup_done", start) - start

    def log_tail(self):
        return (self.dir / "log.txt").read_text(errors="replace")[-2000:]


def _outputs(out):
    """Output files whose bytes must repeat for the same (config, seed)."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name not in ("manifest.json", "spans.json")
    }


def _corrupt_control(seed, base):
    base.mkdir(parents=True)

    def run_cli(args):
        log = base / "log.txt"
        code, *_ = spawn(["-m", "spacinglab.cli", *args], log)
        return code, log.read_text(errors="replace")

    return workloads.corrupt_control(run_cli, seed, base)


def _completed(rounds):
    """Rounds that exited 0; the log of any other goes to standard error."""
    for r in rounds:
        if r.code != 0:
            print(f"{r.dir.name} exited {r.code}:\n{r.log_tail()}", file=sys.stderr)
    return [r for r in rounds if r.code == 0]


def measure(name, seed, seconds, base):
    """End-to-end metrics of one workload (tracing off)."""
    w = workloads.WORKLOADS[name]
    deadline = time.monotonic() + seconds
    rounds = []
    while True:
        rounds.append(Round("round", name, seed, base / f"round{len(rounds)}"))
        if time.monotonic() + max(r.wall for r in rounds) > deadline:
            break
    # Set-up-only processes fill the rest of the run; with the rounds' own
    # set-up they are the sample that setup_s is the median of.
    probes = []
    while len(probes) < MIN_SETUP_PROBES or (
        time.monotonic() + max(p.wall for p in probes) <= deadline
    ):
        probes.append(Round("setup", name, seed, base / f"setup{len(probes)}"))
    done = _completed(rounds)
    setups = [r.setup for r in done + _completed(probes)]
    if not done or not setups:
        raise RunFailed(f"{name}: no round completed")

    attempted = w.ops() * len(rounds)
    failed = w.ops() * (len(rounds) - len(done))
    problems = []
    first = done[0]
    for r in done:
        f, p = w.check(seed, r.out, r.result["report"], deep=r is first)
        failed += f
        problems += p
        if r is not first and (
            _outputs(r.out) != _outputs(first.out) or r.result["report"] != first.result["report"]
        ):
            problems.append(f"{name}: {r.dir.name} output differs from {first.dir.name}")
    if name == "identity-wide":
        problems += _corrupt_control(seed, base / "corrupt")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall for r in done), "s"),
        "cpu_s": (statistics.median(r.cpu for r in done), "s"),
        "peak_rss_mb": (statistics.median(r.rss for r in done), "MB"),
    }
    return attempted, failed, problems, metrics


def trace(name, seed, base):
    """Per-layer metrics from one traced process running every workload."""
    wl = workloads.WORKLOADS
    traced = Round("trace", name, seed, base / "trace")
    plain = Round("plain", name, seed, base / "plain")
    quartic = Round("round", "verify-quartic", seed, base / "quartic")
    if len(_completed([traced, plain, quartic])) < 3:
        raise RunFailed(f"{name}: a traced or reference process failed")
    attempted = sum(w.ops() for w in wl.values()) + wl[name].ops() + wl["verify-quartic"].ops()
    checks = [(w, traced.out / w.name, traced.result["reports"][w.name], True)
              for w in wl.values()]
    checks.append((wl[name], plain.out, plain.result["report"], False))
    failed, problems = 0, []
    for w, out, report, deep in checks:
        f, p = w.check(seed, out, report, deep)
        failed += f
        problems += p
    if _outputs(quartic.out) != _outputs(traced.out / "verify-quartic"):
        problems.append("verify-quartic: 2-worker output differs from the 1-worker traced run")
    data = json.loads((traced.out / "spans.json").read_text())
    problems += workloads.check_trace_identity(data["tridiagonal"])
    problems += workloads.check_virial(data["mcmc"])
    problems += _corrupt_control(seed, base / "corrupt")

    metrics = layer_metrics(data, traced)
    metrics["experiment.parallel_efficiency"] = (
        quartic.cpu / (wl["verify-quartic"].workers * quartic.wall), "ratio")
    metrics["trace.overhead_s"] = (traced.result["work_s"][name] - plain.result["work_s"], "s")
    return attempted, failed, problems, metrics


def layer_metrics(data, traced):
    spans = data["spans"]
    own = tracer.self_times(spans)

    def select(workload, span_name):
        return [(s, t) for s, t in zip(spans, own) if s[1] == workload and s[0] == span_name]

    def self_s(workload, span_name):
        return sum(t for _, t in select(workload, span_name))

    def mean_us(workload, span_name):
        sel = select(workload, span_name)
        return 1e6 * sum(t for _, t in sel) / len(sel)

    laws, gauss, quartic, ident = "laws", "verify-gauss", "verify-quartic", "identity-wide"
    tri = select(gauss, "ensembles.sample_tridiagonal")
    eigs = sum(s[4]["eigs"] for s, _ in tri)
    inside = [s[4]["inside"] for s, _ in select(gauss, "spacings.rescale_localize")]
    chains = [s for s, _ in select(quartic, "ensembles.sample_mcmc")]
    mcmc_s = self_s(quartic, "ensembles.sample_mcmc")
    proposals = sum(s[4]["proposals"] for s in chains)
    density = [s for s, _ in select(quartic, "spacings.estimate_density")]
    points = sum(s[4]["points"] for s, _ in select(ident, "spacings.alternating_identity_check"))
    identity_s = self_s(ident, "spacings.alternating_identity_check")
    rows = 0
    result_bytes = 0
    for workload in (gauss, quartic):
        w = workloads.WORKLOADS[workload]
        path = w.result_path(traced.out / workload)
        rows += len(path.read_text().splitlines()) - 1
        result_bytes += path.stat().st_size
    quartic_rows = workloads.WORKLOADS[quartic].ops()
    pfaffians = select(laws, "kernels.pfaffian")
    return {
        "cli.import_s": (traced.result["import_s"], "s"),
        "gaps.integrate_sigma_s": (self_s(laws, "gaps.integrate_sigma"), "s"),
        "gaps.gap_curves_s": (self_s(laws, "gaps.gap_curves"), "s"),
        "gaps.universal_cdf_s": (self_s(laws, "gaps.universal_cdf"), "s"),
        "gaps.series_gap_s": (self_s(laws, "gaps.series_gap"), "s"),
        "gaps.fredholm_g2_s": (self_s(laws, "gaps.fredholm_g2"), "s"),
        "gaps.painleve_fredholm_maxdiff": (
            workloads.painleve_fredholm_maxdiff(data["painleve"]), "abs"),
        "kernels.pfaffian_calls": (len(pfaffians), "count"),
        "kernels.pfaffian_s": (sum(t for _, t in pfaffians), "s"),
        "ensembles.tridiagonal_calls": (len(tri), "count"),
        "ensembles.tridiagonal_ms_n1600": (
            1e3 * statistics.median(t for s, t in tri if s[4]["n"] == 1600), "ms"),
        "ensembles.eigs_computed": (eigs, "count"),
        "ensembles.eigs_in_window": (sum(inside), "count"),
        "ensembles.eigs_used_ratio": (sum(inside) / eigs, "ratio"),
        "ensembles.mcmc_chains": (len(chains), "count"),
        "ensembles.mcmc_s": (mcmc_s, "s"),
        "ensembles.mcmc_us_per_proposal": (1e6 * mcmc_s / proposals, "us"),
        "ensembles.mcmc_acceptance": (
            sum(s[4]["accepted"] for s in chains) / sum(s[4]["counted"] for s in chains), "ratio"),
        "experiment.spectra_per_row": (len(chains) / quartic_rows, "ratio"),
        # The density pilot runs before any row: from the first chain to the
        # last density estimate.
        "experiment.psi_s": (max(s[3] for s in density) - min(s[2] for s in chains), "s"),
        "experiment.rows_written": (rows, "count"),
        "experiment.result_bytes": (result_bytes, "bytes"),
        "spacings.rescale_localize_us": (mean_us(gauss, "spacings.rescale_localize"), "us"),
        "spacings.sigma_cdf_us": (mean_us(gauss, "spacings.sigma_cdf"), "us"),
        "spacings.ks_node_distance_us": (mean_us(gauss, "spacings.ks_node_distance"), "us"),
        "spacings.inside_mean": (statistics.fmean(inside), "count"),
        "spacings.identity_points": (points, "count"),
        "spacings.identity_s": (identity_s, "s"),
        "spacings.identity_us_per_point": (1e6 * identity_s / points, "us"),
    }


def run_one(name, seed, seconds, trace_on):
    base = RUNS / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        if trace_on:
            attempted, failed, problems, metrics = trace(name, seed, base)
        else:
            attempted, failed, problems, metrics = measure(name, seed, seconds, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"{name:15s} {metric:34s} {value:14.6g} {unit}")
    print(f"{name:15s} {'operations':34s} {attempted:14d} attempted, {failed} failed")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spacinglab" / "__init__.py").is_file():
        print(f"error: no spacinglab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, args.seconds, args.trace) for n in names}
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
