"""Command line interface.

Subcommands:
  universal  tabulate a universal spacing CDF and its quantile nodes to CSV
  verify     run the sample -> localize -> compare experiment of the config
  identity   exact combinatorial identity checks over sampled spectra
  gap        print one gap probability (painleve, fredholm or series route)
  sample     draw spectra and dump them as CSV for audit

Configuration precedence: command-line flags > SPACINGLAB_* environment
variables > --config JSON file > built-in defaults.  Exit codes: 0 success,
1 numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .ensembles import dump_spectra
from .experiment import (
    ExperimentConfig, _draw_spectrum, load_config, run_identity, run_verify
)
from .gaps import (
    T_MAX_LIMIT,
    build_universal_cdf,
    fredholm_g2,
    gap_probability,
    integrate_sigma,
    series_gap,
    write_cdf_csv,
    write_nodes_csv,
)

ENV_PREFIX = "SPACINGLAB_"

USAGE_ERROR = 2
NUMERIC_ERROR = 1


def _env(name: str, cast, default=None):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return default
    return cast(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacinglab",
        description="bulk spacing statistics of invariant random-matrix ensembles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="experiment config JSON")
    common.add_argument("--seed", type=int, help="base random seed (u64)")
    common.add_argument("--out", type=Path, help="output directory")
    common.add_argument("--workers", type=int, help="worker process count")

    p = sub.add_parser("universal", parents=[common], help="tabulate F_beta")
    p.add_argument("--beta", type=int, choices=(1, 2, 4), required=True)
    p.add_argument("--s-max", type=float, default=10.0)
    p.add_argument("--nodes", type=int, default=100, help="quantile node count M")

    p = sub.add_parser("verify", parents=[common], help="run the main experiment")
    p.add_argument("--beta", type=int, choices=(1, 2, 4))
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument("--draws", type=int)

    p = sub.add_parser("identity", parents=[common], help="exact identity checks")
    p.add_argument("--beta", type=int, choices=(1, 2, 4))
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument("--draws", type=int)
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="test mode: inject a corrupted spectrum to exercise the detector",
    )

    p = sub.add_parser("gap", parents=[common], help="print one gap probability")
    p.add_argument("--beta", type=int, choices=(1, 2, 4), required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument(
        "--method", choices=("painleve", "fredholm", "series"), default="painleve"
    )

    p = sub.add_parser("sample", parents=[common], help="dump sampled spectra")
    p.add_argument("--beta", type=int, choices=(1, 2, 4), default=2)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--draws", type=int, default=1)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    overrides = {}
    env_seed = _env("seed", int)
    env_out = _env("out", str)
    env_workers = _env("workers", int)
    if env_seed is not None:
        overrides["seed"] = env_seed
    if env_out is not None:
        overrides["out_dir"] = env_out
    if env_workers is not None:
        overrides["workers"] = env_workers
    for key, attr in (
        ("seed", "seed"),
        ("out", "out_dir"),
        ("workers", "workers"),
        ("beta", "beta"),
        ("sizes", "sizes"),
        ("draws", "draws"),
    ):
        value = getattr(args, key, None)
        if value is not None:
            overrides[attr] = value if key != "out" else str(value)
    config_path = args.config or _env("config", Path)
    return load_config(config_path, overrides)


def _cmd_universal(args) -> int:
    out = Path(args.out or _env("out", str) or ".")
    cdf = build_universal_cdf(args.beta, s_max=args.s_max, m_nodes=args.nodes)
    cdf_path = write_cdf_csv(cdf, out)
    nodes_path = write_nodes_csv(cdf, out)
    print(cdf_path)
    print(nodes_path)
    return 0


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    summary = run_verify(config)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_identity(args) -> int:
    config = _config_from_args(args)
    report = run_identity(config, corrupt=args.corrupt)
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
    if args.s <= 0:
        parser.error("--s must be positive")
    if args.method == "fredholm" and args.beta != 2:
        print("usage error: the fredholm route exists for beta=2 only", file=sys.stderr)
        return USAGE_ERROR
    if args.method == "series" and args.s > 1.0:
        print("usage error: the series route requires s <= 1", file=sys.stderr)
        return USAGE_ERROR
    if args.method == "painleve":
        # G_beta(s) reads the trajectory at t = pi*s, or 2*pi*s for beta=4.
        span = 2.0 if args.beta == 4 else 1.0
        if span * math.pi * args.s > T_MAX_LIMIT:
            limit = f"{T_MAX_LIMIT / span:g}/pi = {T_MAX_LIMIT / (span * math.pi):.4f}"
            raise ValueError(
                f"--s must lie in (0, {limit}] for beta={args.beta}, got {args.s:g}"
            )
        traj = integrate_sigma(min(span * math.pi * args.s * 1.001, T_MAX_LIMIT))
        value = gap_probability(traj, args.beta, args.s)
    elif args.method == "fredholm":
        value = fredholm_g2(args.s, n=60)
    else:
        value = series_gap(args.beta, args.s)
    print(format(value, ".10g"))
    return 0


def _cmd_sample(args) -> int:
    config = _config_from_args(args)
    spectra = [_draw_spectrum(config, (args.n, draw))[0] for draw in range(args.draws)]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = dump_spectra(spectra, out / f"spectra_beta{args.beta}_n{args.n}.csv")
    print(path)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "universal":
            return _cmd_universal(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "identity":
            return _cmd_identity(args)
        if args.command == "gap":
            return _cmd_gap(args, parser)
        if args.command == "sample":
            return _cmd_sample(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
