"""Command line interface: it parses the arguments, calls one run of
``experiment`` (or one gap route) and prints what it returns; every file is
written by ``experiment``.

Subcommands:
  universal  tabulate a universal spacing CDF and its quantile nodes to CSV
  verify     run the sample -> localize -> compare experiment of the config
  identity   exact combinatorial identity checks over sampled spectra
  gap        print one gap probability (painleve, fredholm or series route)
  sample     draw spectra and dump them as CSV for audit

verify, identity and sample share one set of run flags and build their
config one way.  Precedence: flags the user typed > SPACINGLAB_* environment
variables > --config JSON file > built-in defaults.  universal reads
SPACINGLAB_OUT when --out is not given.  Exit codes: 0 success, 1 numeric
failure or bad config, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .experiment import (
    ExperimentConfig,
    load_config,
    run_identity,
    run_sample,
    run_universal,
    run_verify,
)
from .gaps import T_MAX_LIMIT, fredholm_g2, gap_probability, integrate_sigma, series_gap

ENV_PREFIX = "SPACINGLAB_"

NUMERIC_ERROR = 1


# The run flags of verify, identity and sample as (flag, config field, type of
# its SPACINGLAB_<FLAG> variable, or None when it has none); --config is read
# from SPACINGLAB_CONFIG too.
RUN_FLAGS = (("seed", "seed", int), ("out", "out_dir", str), ("workers", "workers", int),
             ("beta", "beta", None), ("sizes", "sizes", None), ("draws", "draws", None))


def _env(name: str, cast):
    key = ENV_PREFIX + name.upper()
    raw = os.environ.get(key)
    if raw == "":
        raise ValueError(f"{key} is empty")
    try:
        return None if raw is None else cast(raw)
    except ValueError:
        raise ValueError(f"{key} must be {cast.__name__}, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacinglab",
        description="bulk spacing statistics of invariant random-matrix ensembles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Every default is None: a config-file value yields only to a flag the
    # user typed or to its environment variable.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", type=Path, help="experiment config JSON")
    run.add_argument("--seed", type=int, help="base random seed (u64)")
    run.add_argument("--out", help="output directory")
    run.add_argument("--workers", type=int, help="worker process count")
    run.add_argument("--beta", type=int, choices=(1, 2, 4))
    run.add_argument("--sizes", type=int, nargs="+", help="matrix sizes (each in [8, 2**44))")
    run.add_argument("--draws", type=int, help="draws per size")

    p = sub.add_parser("universal", help="tabulate F_beta")
    p.add_argument("--beta", type=int, choices=(1, 2, 4), required=True)
    p.add_argument("--s-max", type=float, default=10.0)
    p.add_argument("--nodes", type=int, default=100, help="quantile node count M")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_universal)

    p = sub.add_parser("verify", parents=[run], help="run the main experiment")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("identity", parents=[run], help="exact identity checks")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="test mode: inject a corrupted spectrum to exercise the detector",
    )
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("gap", help="print one gap probability")
    p.add_argument("--beta", type=int, choices=(1, 2, 4), required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument(
        "--method", choices=("painleve", "fredholm", "series"), default="painleve"
    )
    p.set_defaults(func=partial(_cmd_gap, parser=p))

    p = sub.add_parser("sample", parents=[run], help="dump sampled spectra")
    p.set_defaults(func=_cmd_sample)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config file (or built-in defaults), overridden by environment
    variables and then by the flags the user typed."""
    overrides = {}
    for flag, field, env_cast in RUN_FLAGS:
        value = getattr(args, flag)
        if value is None and env_cast is not None:
            value = _env(flag, env_cast)
        if value is not None:
            overrides[field] = value
    return load_config(args.config or _env("config", Path), overrides)


def _cmd_universal(args) -> int:
    if args.out == "":
        raise ValueError("--out is empty")
    out = Path(args.out or _env("out", str) or ".")
    print(*run_universal(args.beta, args.s_max, args.nodes, out), sep="\n")
    return 0


def _cmd_verify(args) -> int:
    print(json.dumps(run_verify(_config_from_args(args)), indent=2, sort_keys=True))
    return 0


def _cmd_identity(args) -> int:
    report = run_identity(_config_from_args(args), corrupt=args.corrupt)
    for v in report["violations"]:
        print(
            f"violation: n={v['n']} draw={v['draw']} jump={v['jump']:.12g} "
            f"{v['kind']}: {v['detail']}",
            file=sys.stderr,
        )
    print(
        f"checked {report['checked_jump_points']} jump points, "
        f"{len(report['violations'])} violations"
    )
    return 0 if report["ok"] else 1


def _cmd_gap(args, parser) -> int:
    if not 0 < args.s < math.inf:
        parser.error(f"--s must be finite and positive, got {args.s:g}")
    if args.method == "fredholm" and args.beta != 2:
        parser.error("the fredholm route exists for beta=2 only")
    if args.method == "series" and args.s > 1.0:
        parser.error("the series route requires s <= 1")
    # G_beta(s) reads the trajectory at t = pi*s, or 2*pi*s for beta=4; past
    # that reach 60 Fredholm nodes no longer resolve the sine kernel either.
    span = 2.0 if args.beta == 4 else 1.0
    if span * math.pi * args.s > T_MAX_LIMIT:
        limit = f"{T_MAX_LIMIT / span:g}/pi = {T_MAX_LIMIT / (span * math.pi):.4f}"
        parser.error(f"--s must lie in (0, {limit}] for beta={args.beta}, got {args.s:g}")
    if args.method == "painleve":
        value = gap_probability(integrate_sigma(), args.beta, args.s)
    elif args.method == "fredholm":
        value = fredholm_g2(args.s)
    else:
        value = series_gap(args.beta, args.s)
    print(format(value, ".10g"))
    return 0


def _cmd_sample(args) -> int:
    print(*run_sample(_config_from_args(args)), sep="\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
