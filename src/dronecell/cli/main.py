"""Command-line entry point with the solve/mc/altitude-profile/gen commands.

Exit codes: 0 success, 1 input error (bad arguments, unparseable or invalid
files, a scenario shape the exact engine does not support or a size above
its ceiling), 2 infeasible placement region, 3 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from ..channel import ENVIRONMENTS, ChannelConfig, coverage_radii, optimal_altitude
from ..experiment import run_experiment
from ..scenario import generate_scenario, validate
from ..solver import (
    InfeasibleRegionError,
    ResourceGuardError,
    UnsupportedConfigurationError,
    solve,
)
from .files import (
    FileFormatError,
    load_experiment_config,
    load_scenario,
    save_scenario,
)
from .report import altitude_profile_csv, mc_csv, placement_svg, solve_csv

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; bad arguments are an
    # input error here, and 2 is reserved for infeasible regions.
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
        raise FileFormatError(f"unknown environment preset {args.env!r}")
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    for flag in ("threshold_db", "frequency_hz", "h_min", "h_max"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    if not 0.0 < args.h_min <= args.h_max:
        raise ValueError("altitude range must satisfy 0 < h-min <= h-max")
    env = ENVIRONMENTS[args.env]
    cfg = ChannelConfig(frequency_hz=args.frequency_hz, max_path_loss_db=args.threshold_db)
    altitudes = [
        args.h_min + k * (args.h_max - args.h_min) / args.steps for k in range(args.steps + 1)
    ]
    radii = coverage_radii(altitudes, args.threshold_db, env, cfg).tolist()
    samples = list(zip(altitudes, radii))
    h_star, r_max = optimal_altitude(args.threshold_db, env, cfg, (args.h_min, args.h_max))
    Path(args.out).write_text(altitude_profile_csv(samples, h_star, r_max), encoding="utf-8")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.env not in ENVIRONMENTS:
        raise FileFormatError(f"unknown environment preset {args.env!r}")
    scenario = generate_scenario(
        args.seed, args.n_users, args.mvnos, ENVIRONMENTS[args.env], args.field_size
    )
    save_scenario(scenario, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--threshold-db", type=float, default=100.0)
    p.add_argument("--h-min", type=float, required=True)
    p.add_argument("--h-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--frequency-hz", type=float, default=2.0e9)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_altitude_profile)

    p = sub.add_parser("gen", help="generate a random scenario file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-users", type=int, required=True)
    p.add_argument("--mvnos", type=int, default=2)
    p.add_argument("--env", required=True, help="environment preset name")
    p.add_argument("--field-size", type=float, default=2000.0)
    p.add_argument("--out", required=True, help="output scenario path")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleRegionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (
        FileFormatError,
        UnsupportedConfigurationError,
        ResourceGuardError,
        OSError,
        ValueError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
