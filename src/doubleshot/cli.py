"""Command-line workbench.

Subcommands
-----------
gen-ising     Emit a perturbed-Ising observable file (builtin or generated).
reference     Exact mean, per-term probabilities, and ground energy as JSON.
estimate      One allocation run: report JSON plus optional trace CSV.
curve         Scaled-variance statistics over budgets for both arms (CSV).
calibrate     Per-repetition z-scores at a fixed budget (CSV).
double-usage  Pair-copy shot usage versus total shots with a slope fit (CSV).

Exit codes: 0 success, 2 usage or invalid input, 3 numerical failure,
4 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .allocator import AllocationConfig, run_allocation
from .errors import InvalidInputError, NumericalError, ResourceLimitError
from .experiments import (
    ExperimentSpec,
    GROUND_STATE_SOURCE,
    calibrate_rows,
    curve_rows,
    double_usage_rows,
    reference_report,
    rep_seed,
    resolve_observable,
    resolve_state,
    trace_document,
    write_csv,
)
from .hamiltonians import (
    BUILTIN_NAMES,
    IsingSpec,
    build_ising,
    builtin_text,
    random_ising_spec,
)
from .pauli import build_group_cover, serialize_observable
from .simulator import DEFAULT_MAX_QUBITS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_RESOURCE = 4


def _int_at_least(low: int):
    """An argparse type: an integer of at least *low*."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_observable_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--observable", metavar="FILE", help="observable file to load"
    )
    source.add_argument(
        "--builtin",
        choices=BUILTIN_NAMES,
        help="bundled observable to load",
    )


def _add_state_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state",
        default=GROUND_STATE_SOURCE,
        metavar="SOURCE",
        help="'ground-state' (default) or an amplitude file",
    )
    parser.add_argument(
        "--max-qubits",
        type=_int_at_least(1),
        default=DEFAULT_MAX_QUBITS,
        help=f"dense-simulation width cap (default {DEFAULT_MAX_QUBITS})",
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    _add_state_args(parser)
    parser.add_argument(
        "--seed", type=_int_at_least(0), default=0, help="base seed (default 0)"
    )
    parser.add_argument(
        "--no-double",
        action="store_true",
        help="never assign shots to the two-copy scheme",
    )


def _observable_source(args) -> str:
    if args.builtin is not None:
        return f"builtin:{args.builtin}"
    return args.observable


def _experiment_spec(args, budgets) -> ExperimentSpec:
    return ExperimentSpec(
        observable_source=_observable_source(args),
        budgets=tuple(budgets),
        repetitions=args.reps,
        state_source=args.state,
        enable_double=not args.no_double,
        base_seed=args.seed,
        max_qubits=args.max_qubits,
    )


def _out_path(args, default_name: str) -> Path:
    return Path(args.out if args.out else default_name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubleshot",
        description="Adaptive Bayesian shot allocation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen-ising",
        help="emit a perturbed-Ising observable file",
        description=(
            "Write a perturbed-Ising observable.  Either select a bundled "
            "instance (--builtin, emitted byte-verbatim), or generate one on "
            "an nx-by-ny periodic lattice from a JSON coefficient file "
            "(--coefficients) or from seeded random draws (--random)."
        ),
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", choices=BUILTIN_NAMES)
    source.add_argument(
        "--coefficients",
        metavar="JSON",
        help="explicit coefficient file (see IsingSpec.to_json)",
    )
    source.add_argument(
        "--random",
        action="store_true",
        help="draw random coefficients with the documented defaults",
    )
    p.add_argument("--nx", type=int, help="lattice extent along x")
    p.add_argument("--ny", type=int, help="lattice extent along y")
    p.add_argument(
        "--seed", type=_int_at_least(0), default=0, help="seed for --random"
    )
    p.add_argument("--out", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(handler=_cmd_gen_ising)

    p = sub.add_parser(
        "reference",
        help="exact mean, per-term probabilities, ground energy (JSON)",
    )
    _add_observable_args(p)
    _add_state_args(p)
    p.add_argument("--out", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(handler=_cmd_reference)

    p = sub.add_parser(
        "estimate", help="run one seeded allocation and write its report"
    )
    _add_observable_args(p)
    _add_run_args(p)
    p.add_argument("--budget", type=int, required=True, help="effective-shot cap")
    p.add_argument("--out", metavar="FILE", help="report JSON path (default stdout)")
    p.add_argument("--trace-out", metavar="FILE", help="also write the action trace CSV")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser(
        "curve",
        help="scaled-variance statistics per budget for both arms (CSV)",
    )
    _add_observable_args(p)
    _add_run_args(p)
    p.add_argument(
        "--budgets",
        type=int,
        nargs="+",
        required=True,
        help="strictly increasing effective-shot caps",
    )
    p.add_argument("--reps", type=int, default=25, help="repetitions (default 25)")
    p.add_argument("--out", metavar="FILE", help="CSV path (default curve.csv)")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser(
        "calibrate", help="per-repetition z-scores at a fixed budget (CSV)"
    )
    _add_observable_args(p)
    _add_run_args(p)
    p.add_argument("--budget", type=int, required=True, help="effective-shot cap")
    p.add_argument("--reps", type=int, default=300, help="repetitions (default 300)")
    p.add_argument("--out", metavar="FILE", help="CSV path (default calibrate.csv)")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser(
        "double-usage",
        help="pair-copy usage versus total shots with slope fit (CSV)",
    )
    _add_observable_args(p)
    _add_run_args(p)
    p.add_argument("--budget", type=int, required=True, help="effective-shot cap")
    p.add_argument("--reps", type=int, default=25, help="repetitions (default 25)")
    p.add_argument(
        "--fit-min",
        type=int,
        default=20,
        help="fit uses rows with m > this (default 20)",
    )
    p.add_argument(
        "--fit-max",
        type=int,
        default=None,
        help="fit uses rows with m <= this (default: largest common m)",
    )
    p.add_argument("--out", metavar="FILE", help="CSV path (default double_usage.csv)")
    p.set_defaults(handler=_cmd_double_usage)

    return parser


def _emit_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_gen_ising(args) -> int:
    if args.builtin is not None:
        text = builtin_text(args.builtin)
    elif args.coefficients is not None:
        spec = IsingSpec.from_json(
            Path(args.coefficients).read_text(encoding="utf-8")
        )
        text = serialize_observable(build_ising(spec))
    else:
        if args.nx is None or args.ny is None:
            raise InvalidInputError("--random requires --nx and --ny")
        spec = random_ising_spec(args.nx, args.ny, np.random.default_rng(args.seed))
        text = serialize_observable(build_ising(spec))
    _emit_text(text, args.out)
    return EXIT_OK


def _cmd_reference(args) -> int:
    obs = resolve_observable(_observable_source(args))
    state = resolve_state(args.state, obs, args.max_qubits)
    payload = reference_report(obs, state, args.state, args.max_qubits)
    _emit_text(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    obs = resolve_observable(_observable_source(args))
    state = resolve_state(args.state, obs, args.max_qubits)
    cover = build_group_cover(obs)
    config = AllocationConfig(
        budget=args.budget,
        enable_double=not args.no_double,
        seed=rep_seed(args.seed, 0),
        max_qubits=args.max_qubits,
    )
    result = run_allocation(obs, state, cover, config)
    payload = result.report.to_dict()
    payload["seed"] = args.seed
    payload["budget"] = args.budget
    _emit_text(json.dumps(payload, indent=2) + "\n", args.out)
    if args.trace_out:
        write_csv(trace_document(result, f"seed = {args.seed}"), args.trace_out)
    return EXIT_OK


def _cmd_curve(args) -> int:
    spec = _experiment_spec(args, args.budgets)
    write_csv(curve_rows(spec), _out_path(args, "curve.csv"))
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    spec = _experiment_spec(args, (args.budget,))
    write_csv(calibrate_rows(spec), _out_path(args, "calibrate.csv"))
    return EXIT_OK


def _cmd_double_usage(args) -> int:
    spec = _experiment_spec(args, (args.budget,))
    doc = double_usage_rows(spec, fit_min=args.fit_min, fit_max=args.fit_max)
    write_csv(doc, _out_path(args, "double_usage.csv"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with its own code; normalize errors to EXIT_USAGE.
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
