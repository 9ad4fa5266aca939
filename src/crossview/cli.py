"""Command line front end: tile generation, simulation, end-to-end runs, eval.

Subcommands:
  gen-tiles   write a regular tile grid to a file
  simulate    generate a seeded flight with drifting VO and save it
  run         run all four pipelines and write trajectories + summary.csv
  eval        compare an estimated trajectory file against a truth file
  losses      --self-test re-checks the analytic loss gradients
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from functools import cache

from .config import SimConfig, describe_defaults, load_config
from .losses import gradient_self_test
# eval scores columns and calls neither; perfbench/tracing.py still wraps
# both as cli.<name>.
from .sim import load_trajectory, rmse  # noqa: F401
from .sim import (
    METHODS,
    _read_trajectory,
    _score,
    gen_trajectory,
    run_experiment,
    save_estimates,
    save_trajectory,
    simulate_vo,
    summary_table,
    write_summary,
)
from .tiles import DEFAULT_SPACING_M, generate_grid, load_tiles, save_tiles


def _load_config_arg(path: str | None) -> SimConfig:
    if path is None:
        return SimConfig()
    return load_config(path)


def _cmd_gen_tiles(args: argparse.Namespace) -> int:
    tile_set = generate_grid(
        args.bounds[0], args.bounds[1], args.bounds[2], args.bounds[3], args.spacing
    )
    save_tiles(tile_set, args.out)
    print(f"wrote {len(tile_set)} tiles to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config_arg(args.config)
    flight = simulate_vo(gen_trajectory(cfg, args.seed), cfg, args.seed)
    save_trajectory(args.out, flight)
    print(f"wrote {len(flight)} frames to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config_arg(args.config)
    tile_set = load_tiles(args.tiles)
    result = run_experiment(cfg, tile_set, args.seed)
    os.makedirs(args.out, exist_ok=True)
    times = result.frames.t.tolist()
    save_trajectory(os.path.join(args.out, "truth.txt"), result.frames)
    for method in METHODS:
        save_estimates(
            os.path.join(args.out, f"{method}.txt"), times, result.estimates[method]
        )
    write_summary(os.path.join(args.out, "summary.csv"), result.summaries)
    print("\n".join(summary_table(result.summaries, "{:.2f}".format)))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    """Print ``sim._score`` of the estimate file against the truth file, one
    ``name value`` line per figure. Files whose frame times or counts differ
    are refused naming the estimate; a refusal of the score names the truth."""
    est, truth = _read_trajectory(args.est), _read_trajectory(args.truth)
    for i, (a, b) in enumerate(zip(est[:, 0].tolist(), truth[:, 0].tolist())):
        if a != b:
            raise ValueError(f"{args.est}: frame {i} is at t={a!r} but the truth is at t={b!r}")
    if len(est) != len(truth):
        raise ValueError(f"{args.est}: {len(est)} frames but the truth {args.truth} has {len(truth)}")
    try:
        summary = _score(est[:, 1:], truth[:, 1:])
    except ValueError as exc:
        raise ValueError(f"{args.truth}: {exc}") from None
    for f in fields(summary):
        print(f"{f.name} {getattr(summary, f.name)!r}")
    return 0


def _cmd_losses(args: argparse.Namespace) -> int:
    if not args.self_test:
        print("nothing to do; pass --self-test", file=sys.stderr)
        return 2
    results = gradient_self_test(points=args.points, seed=args.seed)
    failed = False
    for r in results:
        status = "ok" if r["passed"] else "FAIL"
        print(
            f"{status} {r['name']}: {r['points']} points,"
            f" max rel err {r['max_rel_err']:.3e} (tol {r['tol']:.1e})"
        )
        failed = failed or not r["passed"]
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossview",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config file keys and their defaults:\n" + describe_defaults(),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tiles", help="write a regular tile grid")
    p.add_argument(
        "--bounds",
        nargs=4,
        type=float,
        required=True,
        metavar=("X_MIN", "X_MAX", "Y_MIN", "Y_MAX"),
    )
    p.add_argument("--spacing", type=float, default=DEFAULT_SPACING_M)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_tiles)

    p = sub.add_parser("simulate", help="generate a flight with drifting VO")
    p.add_argument("--config", default=None, help="key = value file; defaults if omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", help="run all pipelines, write trajectories + summary")
    p.add_argument("--config", default=None, help="key = value file; defaults if omitted")
    p.add_argument("--tiles", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="RMSE of an estimate file against a truth file")
    p.add_argument("--est", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("losses", help="loss-function utilities")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_losses)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main call, not at import, then reused: a build
    # costs about a millisecond and parse_args leaves the parser unchanged.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
