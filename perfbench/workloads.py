"""The four workloads: what each runs, and how its outputs are checked.

``setup`` and ``work`` run in a fresh child process (see ``child.py``) and
import spacinglab; ``check`` runs in the benchmark process after the timed
region and recomputes what it can without the package's own code paths.
Every input comes from the benchmark seed, and every round performs the same
operations whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# V(x) = 16 x^4: the x^4/4 ensemble scaled by 1/64^(1/4).  The density pilot
# (bandwidth 0.1 at a = 0) needs an eigenvalue within 0.1 of the centre; with
# x^4/4 at n = 16 a spectrum has none ~20 % of the time, so two pilots fail
# on some seeds.  At 16 x^4 no empty pilot window was seen in ~1,400 spectra.
QUARTIC = (0.0, 0.0, 0.0, 0.0, 16.0)

# Literature spacing variances at unit mean spacing (Mehta, Random Matrices,
# 3rd ed., table A.15): beta = 1, 2, 4.
SPACING_VARIANCE = {1: 0.286, 2: 0.180, 4: 0.104}

# Tolerances, each set from the agreement measured on this code (README).
TOL_GAP = 1e-9  # Painleve and Fredholm routes against the oracle (seen 5e-10)
TOL_SERIES = 5e-8  # series route at s <= 1 (seen 1.9e-8 at s = 1, beta = 1)
TOL_TABLE = 5e-9  # tabulated F_beta (seen 7.5e-10)
TOL_NODE = 1e-6  # F_beta at the quantile nodes (seen 3.0e-7)
TOL_VARIANCE = 1e-3  # literature values carry three decimals
TOL_TRACE = 1e-11  # relative, sum of squared eigenvalues against tr T^2
VIRIAL_SE = 4.0  # standard errors allowed in the virial identity


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """Benchmark-side randomness for choosing inputs and sampled checks."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode())])


# ---------------------------------------------------------------------------
# verify-gauss and verify-quartic


@dataclass(frozen=True)
class Verify:
    name: str
    why: str
    beta: int
    sizes: tuple
    draws: int
    potential: object
    workers: int
    # Whether the mean bound must fall strictly in n (the paper's theorem);
    # two quartic draws per size are too few to assert it.
    decreasing: bool

    def ops(self) -> int:
        return len(self.sizes) * self.draws

    def config(self, seed, out, workers):
        from spacinglab.experiment import ExperimentConfig

        return ExperimentConfig(
            beta=self.beta, sizes=self.sizes, draws=self.draws,
            potential=self.potential, seed=seed, out_dir=str(out), workers=workers,
        )

    def setup(self, seed, out, workers):
        from spacinglab.gaps import build_universal_cdf

        config = self.config(seed, out, workers)
        cdf = build_universal_cdf(
            config.beta, s_max=config.s_max, m_nodes=config.node_count
        )
        return config, cdf

    def work(self, ctx):
        from spacinglab.experiment import run_verify

        config, cdf = ctx
        return {"summary": run_verify(config, cdf=cdf)}

    def result_path(self, out) -> Path:
        return Path(out) / f"results_beta{self.beta}.csv"

    def check(self, seed, out, report, deep):
        """(failed operations, problems) for one round's output directory."""
        problems = []
        rows = {}
        lines = self.result_path(out).read_text().splitlines()
        if lines[0] != "beta,n,draw,window_a,window_delta,A_N,total_mass,node_max,bound,crc":
            problems.append(f"{self.name}: unexpected header {lines[0]!r}")
        for line in lines[1:]:
            payload, _, crc = line.rpartition(",")
            if format(zlib.crc32(payload.encode()), "08x") != crc:
                problems.append(f"{self.name}: bad CRC in {line!r}")
                continue
            fields = payload.split(",")
            key = (int(fields[1]), int(fields[2]))
            if key in rows or int(fields[0]) != self.beta:
                problems.append(f"{self.name}: unexpected row {line!r}")
            rows[key] = [float(v) for v in fields[3:]]
        expected = {(n, d) for n in self.sizes for d in range(self.draws)}
        failed = len(expected - set(rows))
        if set(rows) - expected:
            problems.append(f"{self.name}: rows outside the config")

        means = []
        summary = report["summary"]
        for n in self.sizes:
            bounds = [rows[(n, d)][5] for d in range(self.draws) if (n, d) in rows]
            mean = float(np.mean(bounds)) if bounds else math.nan
            means.append(mean)
            entry = summary["per_size"][str(n)]
            if entry["draws"] != len(bounds) or not math.isclose(
                entry["mean_bound"], mean, rel_tol=1e-12
            ):
                problems.append(f"{self.name}: summary for n={n} disagrees with rows")
        decreasing = all(b < a for a, b in zip(means, means[1:]))
        if summary["mean_bounds_strictly_decreasing"] != decreasing:
            problems.append(f"{self.name}: summary verdict disagrees with rows")
        if self.decreasing and not decreasing:
            problems.append(f"{self.name}: mean bound not strictly decreasing: {means}")
        if deep and self.potential == "gaussian":
            problems += self._recompute_rows(seed, rows)
        return failed, problems

    def _recompute_rows(self, seed, rows):
        """Recompute two rows per size from ``sample_tridiagonal`` under the
        documented key (seed, (n << 20) + draw), with the benchmark's own
        window, spacing and node-distance code and the oracle's nodes; the
        spectra must also pass the trace identity."""
        from spacinglab.ensembles import EnsembleSpec, SamplerState, sample_tridiagonal

        from spacinglab.experiment import ExperimentConfig

        problems = []
        m = ExperimentConfig.node_count
        nodes = oracle.quantile_nodes(self.beta, m)
        targets = np.arange(1, m) / m
        pick = rng_for(seed, self.name + "/rows")
        for n in self.sizes:
            for draw in pick.choice(self.draws, size=min(2, self.draws), replace=False):
                draw = int(draw)
                stream = (n << 20) + draw
                values = sample_tridiagonal(
                    EnsembleSpec(beta=self.beta, n=n), SamplerState(seed=seed, stream=stream)
                )
                problems += check_trace_identity(
                    [(self.beta, n, seed, stream, float(values @ values))]
                )
                a, delta = 0.0, float(n) ** -0.6
                psi = math.sqrt(4.0 - a * a) / (2.0 * math.pi)
                inside = values[(values >= a - delta) & (values <= a + delta)]
                gaps = np.sort(np.diff((inside - a) * n * psi))
                size = 2.0 * n * psi * delta
                mass = (inside.size - 1) / size if inside.size > 1 else 0.0
                # A spacing within the node error of a node may count either
                # way: bracket the node maximum over both counts.
                lo = np.searchsorted(gaps, nodes - TOL_NODE, side="right") / size
                hi = np.searchsorted(gaps, nodes + TOL_NODE, side="right") / size
                dev_lo, dev_hi = np.abs(lo - targets), np.abs(hi - targets)
                least = np.where((lo <= targets) & (targets <= hi), 0.0,
                                 np.minimum(dev_lo, dev_hi))
                node_lo = float(np.max(least))
                node_hi = float(np.max(np.maximum(dev_lo, dev_hi)))
                row = rows.get((n, draw))
                if row is None:
                    continue
                got_delta, got_size, got_mass, got_node, got_bound = row[1:6]
                ok = (
                    math.isclose(got_delta, delta, rel_tol=1e-10)
                    and math.isclose(got_size, size, rel_tol=1e-10)
                    and abs(got_mass - mass) <= 1e-10
                    and node_lo - 1e-10 <= got_node <= node_hi + 1e-10
                    and abs(got_bound - (1.0 / m + got_node + abs(mass - 1.0))) <= 1e-10
                )
                if not ok:
                    problems.append(
                        f"{self.name}: row n={n} draw={draw} {row} does not match the "
                        f"recomputation (size {size}, mass {mass}, node {node_lo}..{node_hi})"
                    )
        return problems


def check_trace_identity(tridiagonal):
    """Every traced tridiagonal spectrum satisfies sum lambda^2 = tr T^2,
    with T rebuilt by the benchmark from the documented model and key."""
    problems = []
    for beta, n, seed, stream, sum_sq in tridiagonal:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        scale = 1.0 / math.sqrt(beta * n)
        diag = rng.normal(0.0, math.sqrt(2.0), n) * scale
        off = np.sqrt(rng.chisquare(beta * np.arange(n - 1, 0, -1))) * scale
        trace = float(np.dot(diag, diag) + 2.0 * np.dot(off, off))
        if abs(sum_sq - trace) > TOL_TRACE * trace:
            problems.append(
                f"trace identity: n={n} stream={stream} sum lambda^2={sum_sq!r} tr T^2={trace!r}"
            )
    return problems


def _mean_and_se(series):
    """Mean of chains of equal law and its standard error, with the
    integrated autocorrelation time from the pooled autocorrelation summed
    over Geyer's initial positive sequence (Geyer 1992, Stat. Sci. 7:473)."""
    centred = [s - s.mean() for s in series]
    total = sum(s.size for s in series)
    var = sum(float(c @ c) for c in centred) / total
    lags = min(s.size for s in series) // 2
    acf = [sum(float(c[: c.size - k] @ c[k:]) for c in centred) / (total * var)
           for k in range(lags)]
    tau = -1.0
    for m in range(0, lags - 1, 2):
        pair = acf[m] + acf[m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    mean = float(np.mean(np.concatenate(series)))
    return mean, math.sqrt(var * max(tau, 1.0) / total)


def check_virial(chains):
    """Finite-n virial identity of the weight |Delta|^beta exp(-c n sum V):
    E[sum x V'(x)] = (1 + beta (n - 1)/2) / c, c = 1 (beta = 1, 2) or 2
    (beta = 4), within VIRIAL_SE standard errors at each size."""
    problems = []
    by_size = {}
    for n, _stream, beta, _potential, virial in chains:
        by_size.setdefault((n, beta), []).append(np.asarray(virial))
    for (n, beta), series in sorted(by_size.items()):
        c = 2.0 if beta == 4 else 1.0
        target = (1.0 + beta * (n - 1) / 2.0) / c
        mean, se = _mean_and_se(series)
        if abs(mean - target) > VIRIAL_SE * se:
            problems.append(
                f"virial identity at n={n}: {mean:.4f} +- {se:.4f}, expected {target}"
            )
    return problems


# ---------------------------------------------------------------------------
# laws


@dataclass(frozen=True)
class Laws:
    name: str
    why: str
    workers: int = 1
    s_max: float = 10.0
    nodes: int = 100

    def inputs(self, seed):
        """(beta, method, s) for every gap value; the s values come from the
        seed, the work per value does not depend on them."""
        rng = rng_for(seed, self.name)
        pick = lambda lo, hi, k: [round(float(v), 6) for v in rng.uniform(lo, hi, k)]
        gaps = [(b, "series", s) for b in (1, 4) for s in pick(0.2, 1.0, 2)]
        gaps += [(2, "fredholm", s) for s in pick(0.2, 4.0, 3)]
        gaps += [(b, "painleve", s) for b in (1, 4) for s in pick(0.2, 3.0, 2)]
        return gaps

    def ops(self) -> int:
        return 3 * 2 + len(self.inputs(0))  # two tables per beta, one per gap

    def setup(self, seed, out, workers):
        return seed, out

    def work(self, ctx):
        from spacinglab import cli

        seed, out = ctx
        tables, gaps = {}, []

        def call(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue().split()

        for beta in (1, 2, 4):
            tables[str(beta)], _ = call(["universal", "--beta", str(beta), "--s-max",
                                         str(self.s_max), "--nodes", str(self.nodes),
                                         "--out", str(out)])
        for beta, method, s in self.inputs(seed):
            code, words = call(["gap", "--beta", str(beta), "--s", repr(s), "--method", method])
            gaps.append([beta, method, s, code, float(words[0]) if code == 0 else None])
        return {"tables": tables, "gaps": gaps}

    def check(self, seed, out, report, deep):
        problems = []
        failed = 2 * sum(1 for code in report["tables"].values() if code != 0)
        for beta, method, s, code, value in report["gaps"]:
            if code != 0:
                failed += 1
                continue
            tol = TOL_SERIES if method == "series" else TOL_GAP
            want = oracle.gap(beta, s)
            if abs(value - want) > tol:
                problems.append(f"laws: G_{beta}({s}) {method} {value!r}, oracle {want!r}")
        if deep:
            for beta in (1, 2, 4):
                if report["tables"][str(beta)] == 0:
                    problems += self._check_tables(beta, Path(out))
        return failed, problems

    def _check_tables(self, beta, out):
        problems = []
        grid, cdf = np.loadtxt(out / f"F_beta{beta}.csv", delimiter=",", skiprows=1).T
        worst = max(
            abs(oracle.spacing_cdf(beta, s) - f) for s, f in zip(grid[::97], cdf[::97])
        )
        if worst > TOL_TABLE:
            problems.append(f"laws: F_{beta} table off the oracle by {worst:.3g}")
        index, nodes = np.loadtxt(out / f"nodes_beta{beta}.csv", delimiter=",", skiprows=1).T
        m = self.nodes
        if index.size != m - 1 or np.any(index != np.arange(1, m)):
            problems.append(f"laws: nodes_beta{beta}.csv does not hold i = 1..{m - 1}")
        worst = max(abs(oracle.spacing_cdf(beta, s) - i / m) for i, s in zip(index, nodes))
        if worst > TOL_NODE:
            problems.append(f"laws: F_{beta}(s_i) off i/M by {worst:.3g}")
        survival = 1.0 - cdf
        mean = np.trapezoid(survival, grid)
        variance = 2.0 * np.trapezoid(grid * survival, grid) - mean * mean
        if abs(variance - SPACING_VARIANCE[beta]) > TOL_VARIANCE:
            problems.append(
                f"laws: beta={beta} spacing variance {variance:.5f}, literature "
                f"{SPACING_VARIANCE[beta]}"
            )
        return problems


def painleve_fredholm_maxdiff(painleve):
    """Largest |G_beta Painleve - G_beta oracle| over the traced solves."""
    return max(abs(value - oracle.gap(beta, s)) for beta, s, value in painleve)


# ---------------------------------------------------------------------------
# identity-wide


@dataclass(frozen=True)
class Identity:
    name: str
    why: str
    beta: int
    n: int
    draws: int
    delta_exponent: float
    workers: int = 1

    def ops(self) -> int:
        return self.draws

    def setup(self, seed, out, workers):
        from spacinglab.experiment import ExperimentConfig

        return ExperimentConfig(
            beta=self.beta, sizes=(self.n,), draws=self.draws, seed=seed,
            window_delta_exponent=self.delta_exponent, out_dir=str(out),
        )

    def work(self, config):
        from spacinglab.experiment import run_identity

        report = run_identity(config)
        return {"checked": report["checked_jump_points"],
                "violations": len(report["violations"]), "ok": report["ok"]}

    def check(self, seed, out, report, deep):
        problems = []
        if report["violations"] or not report["ok"]:
            problems.append(f"identity: {report['violations']} violations")
        if deep:
            expected = self.distinct_spans(seed)
            if report["checked"] != expected:
                problems.append(
                    f"identity: {report['checked']} jump points checked, "
                    f"{expected} distinct spans in the windows"
                )
        return 0, problems

    def distinct_spans(self, seed):
        """Distinct pairwise spans per window, summed over the draws, from
        the same spectra and the benchmark's own windowing."""
        from spacinglab.ensembles import EnsembleSpec, SamplerState, sample_tridiagonal

        n, a = self.n, 0.0
        delta = float(n) ** self.delta_exponent
        psi = math.sqrt(4.0 - a * a) / (2.0 * math.pi)
        total = 0
        for draw in range(self.draws):
            values = sample_tridiagonal(
                EnsembleSpec(beta=self.beta, n=n), SamplerState(seed=seed, stream=(n << 20) + draw)
            )
            inside = (values[(values >= a - delta) & (values <= a + delta)] - a) * n * psi
            spans = np.concatenate(
                [inside[i + 1:] - inside[i] for i in range(inside.size - 1)] or [np.empty(0)]
            )
            total += int(np.unique(spans).size)
        return total


WORKLOADS = {
    w.name: w
    for w in (
        Verify(
            name="verify-gauss",
            why="verify beta=4 at n=100,400,1600 on 2 workers: full tridiagonal "
                "eigensolves dominate; the MCMC and Pfaffian paths are idle",
            beta=4, sizes=(100, 400, 1600), draws=80, potential="gaussian",
            workers=2, decreasing=True,
        ),
        Verify(
            name="verify-quartic",
            why="verify beta=1 with V=16x^4 at n=16,32 on 2 workers: MCMC sweeps and "
                "serial density pilots dominate; the tridiagonal path is idle",
            beta=1, sizes=(16, 32), draws=2, potential=QUARTIC,
            workers=2, decreasing=False,
        ),
        Laws(
            name="laws",
            why="universal F_1,F_2,F_4 and gap values by the series, Fredholm and "
                "Painleve routes: the universal-law layer alone; samplers idle",
        ),
        Identity(
            name="identity-wide",
            why="exact span/spacing identity at beta=1, n=400 with a wide window "
                "(|A|~42): the only workload where that integer path dominates",
            beta=1, n=400, draws=12, delta_exponent=-0.3,
        ),
    )
}


def corrupt_control(run_child_cli, seed, out):
    """``identity --corrupt`` must exit 1 and report a violation."""
    w = WORKLOADS["identity-wide"]
    config = Path(out) / "corrupt.json"
    config.write_text(json.dumps({
        "beta": w.beta, "sizes": [w.n], "draws": 1,
        "window_delta_exponent": w.delta_exponent,
    }))
    code, output = run_child_cli(
        ["identity", "--corrupt", "--config", str(config), "--seed", str(seed),
         "--out", str(out)]
    )
    if code != 1 or "violation:" not in output:
        return [f"identity --corrupt exited {code} without a reported violation"]
    return []
