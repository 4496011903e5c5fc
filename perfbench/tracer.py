"""Spans around the public functions of each spacinglab layer.

The tracer wraps module attributes in place, under the name the caller looks
each function up by (``experiment.sample_tridiagonal``, ``gaps.pfaffian``,
...), so no file of the package changes.  Spans are kept in memory and
written once, at the end of the traced run.  A span is
``[name, workload, start, end, extra]`` with ``time.perf_counter`` times;
``extra`` carries the few facts a metric needs (matrix size, chain length,
eigenvalues in the window, ...).

The traced run is single-threaded (in-process, one worker), so spans nest
properly and a span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.workload = ""
        # Data for checks that only the traced run can make.
        self.tridiagonal = []  # (beta, n, seed, stream, sum of squares)
        self.mcmc = {}  # (n, stream) -> (spec, yielded spectra)
        self.painleve = []  # (beta, s, G) at full precision

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` by a timed wrapper recording span ``name``.

        ``on_result(args, kwargs, result)`` may return a dict stored as the
        span's extra data.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = perf_counter()
            result = original(*args, **kwargs)
            extra = on_result(args, kwargs, result) if on_result else None
            self.spans.append([name, self.workload, start, perf_counter(), extra])
            return result

        setattr(module, attr, traced)

    def wrap_mcmc(self, module):
        """Wrap the MCMC generator: its span runs from the first ``next``
        until the chain is exhausted.  The first run of each (n, stream)
        keeps its yielded spectra for the virial check; a chain drawn again
        (the density pilot repeats draws) is not kept twice."""
        original = module.sample_mcmc

        @functools.wraps(original)
        def traced(spec, state, steps, burn_in, thin=1):
            def run():
                start = perf_counter()
                kept = []
                for x in original(spec, state, steps, burn_in, thin):
                    kept.append(x)
                    yield x
                key = (spec.n, int(state.stream))
                self.mcmc.setdefault(key, (spec, kept))
                extra = {"n": spec.n, "proposals": int(steps) * spec.n,
                         "accepted": int(state.accepted), "counted": int(state.proposed)}
                self.spans.append(
                    ["ensembles.sample_mcmc", self.workload, start, perf_counter(), extra]
                )

            return run()

        module.sample_mcmc = traced

    def install(self):
        """Wrap every public function the workloads reach, by caller."""
        from spacinglab import cli, experiment, gaps

        # experiment -> ensembles / spacings / gaps
        self.wrap(experiment, "sample_tridiagonal", "ensembles.sample_tridiagonal",
                  self._on_tridiagonal)
        self.wrap_mcmc(experiment)
        self.wrap(experiment, "rescale_localize", "spacings.rescale_localize",
                  lambda a, k, rs: {"inside": int(rs.inside.size)})
        self.wrap(experiment, "sigma_cdf", "spacings.sigma_cdf")
        self.wrap(experiment, "ks_node_distance", "spacings.ks_node_distance")
        self.wrap(experiment, "estimate_density", "spacings.estimate_density")
        self.wrap(experiment, "alternating_identity_check",
                  "spacings.alternating_identity_check",
                  lambda a, k, rep: {"points": int(rep.checked_points)})
        # gaps -> gaps / kernels
        self.wrap(gaps, "integrate_sigma", "gaps.integrate_sigma")
        self.wrap(gaps, "gap_curves", "gaps.gap_curves")
        self.wrap(gaps, "universal_cdf", "gaps.universal_cdf")
        self.wrap(gaps, "pfaffian", "kernels.pfaffian")
        # cli -> gaps
        self.wrap(cli, "integrate_sigma", "gaps.integrate_sigma")
        self.wrap(cli, "gap_probability", "gaps.gap_probability", self._on_gap)
        self.wrap(cli, "fredholm_g2", "gaps.fredholm_g2")
        self.wrap(cli, "series_gap", "gaps.series_gap")

    # -- captured data -------------------------------------------------------

    def _on_tridiagonal(self, args, kwargs, values):
        spec, state = args
        self.tridiagonal.append(
            (spec.beta, spec.n, int(state.seed), int(state.stream),
             float(np.dot(values, values)))
        )
        return {"n": spec.n, "eigs": int(values.size)}

    def _on_gap(self, args, kwargs, value):
        _, beta, s = args
        self.painleve.append((int(beta), float(s), float(value)))
        return None

    def dump(self, path):
        data = {
            "spans": self.spans,
            "tridiagonal": self.tridiagonal,
            "mcmc": [
                [spec.n, stream, spec.beta, list(spec.potential), _virial(spec, kept)]
                for (_, stream), (spec, kept) in self.mcmc.items()
            ],
            "painleve": self.painleve,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _virial(spec, spectra):
    """sum_i x_i V'(x_i) of each spectrum, with V'(x) x = sum_k k c_k x^k."""
    coeffs = np.asarray(spec.potential, dtype=float)
    powers = np.arange(coeffs.size)
    return [float(np.sum((powers * coeffs) * x[:, None] ** powers)) for x in spectra]


def self_times(spans):
    """Self time of every span: duration minus its direct children's."""
    order = sorted(range(len(spans)), key=lambda i: (spans[i][2], -spans[i][3]))
    own = [s[3] - s[2] for s in spans]
    stack = []
    for i in order:
        start = spans[i][2]
        while stack and spans[stack[-1]][3] <= start:
            stack.pop()
        if stack:
            own[stack[-1]] -= spans[i][3] - spans[i][2]
        stack.append(i)
    return own
