"""Command-line entry point with the solve/mc/altitude-profile/gen commands.

Exit codes: 0 success, 1 input error (bad arguments, unparseable or invalid
files, or a size above a ceiling), 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from ..channel import ENVIRONMENTS, ChannelConfig, coverage_radius, optimal_altitude
from ..experiment import run_experiment
from ..scenario import DEFAULT_FIELD_SIZE_M, MAX_COUNT, generate_scenario, quoted, validate
from ..solver import solve
from .files import load_experiment_config, load_scenario, save_scenario
from .report import altitude_profile_csv, mc_csv, placement_svg, solve_csv

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; bad arguments are an
    # input error here.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    violations = validate(scenario)
    if violations:
        for v in violations:
            print(f"invalid scenario: {v}", file=sys.stderr)
        return EXIT_INPUT
    result = solve(scenario)
    Path(args.out).write_text(solve_csv(scenario, result), encoding="utf-8")
    if args.svg:
        Path(args.svg).write_text(placement_svg(scenario, result), encoding="utf-8")
    return EXIT_OK


def _cmd_mc(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    summary = run_experiment(config)
    Path(args.out).write_text(mc_csv(summary), encoding="utf-8")
    return EXIT_OK


def _cmd_altitude_profile(args: argparse.Namespace) -> int:
    if args.env not in ENVIRONMENTS:
        raise ValueError(f"unknown environment preset {quoted(args.env)}")
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    if args.steps > MAX_COUNT:  # every sample is a radius search and a row held in memory
        raise ValueError(f"--steps must be at most {MAX_COUNT}, got {args.steps}")
    for flag in ("threshold_db", "frequency_hz", "h_min", "h_max"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    env = ENVIRONMENTS[args.env]
    cfg = ChannelConfig(frequency_hz=args.frequency_hz, max_path_loss_db=args.threshold_db)
    # The search checks the altitude window before anything is sampled.
    h_star, r_max = optimal_altitude(args.threshold_db, env, cfg, (args.h_min, args.h_max))
    altitudes = [
        args.h_min + k * (args.h_max - args.h_min) / args.steps for k in range(args.steps + 1)
    ]
    samples = [(h, coverage_radius(h, args.threshold_db, env, cfg)) for h in altitudes]
    Path(args.out).write_text(altitude_profile_csv(samples, h_star, r_max), encoding="utf-8")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.env not in ENVIRONMENTS:
        raise ValueError(f"unknown environment preset {quoted(args.env)}")
    scenario = generate_scenario(
        args.seed, args.n_users, args.mvnos, ENVIRONMENTS[args.env], args.field_size
    )
    save_scenario(scenario, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Building it costs a sizable share of a small solve (argparse looks up
    translations and the terminal size on every ``add_argument``), so
    ``main`` reuses it.  Parsing keeps no state in the parser, and each
    call gets a fresh namespace.
    """
    parser = _Parser(prog="dronecell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one scenario file")
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="optional placement diagram path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mc", help="run a Monte Carlo policy comparison")
    p.add_argument("config", help="experiment config JSON path")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("altitude-profile", help="scan coverage radius vs altitude")
    p.add_argument("--env", required=True, help="environment preset name")
    p.add_argument("--threshold-db", type=float, default=ChannelConfig.max_path_loss_db)
    p.add_argument("--h-min", type=float, required=True)
    p.add_argument("--h-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--frequency-hz", type=float, default=ChannelConfig.frequency_hz)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_altitude_profile)

    p = sub.add_parser("gen", help="generate a random scenario file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-users", type=int, required=True)
    p.add_argument("--mvnos", type=int, default=2)
    p.add_argument("--env", required=True, help="environment preset name")
    p.add_argument("--field-size", type=float, default=DEFAULT_FIELD_SIZE_M)
    p.add_argument("--out", required=True, help="output scenario path")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
