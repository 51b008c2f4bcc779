"""Command-line front end.

Subcommands: classify (parameter-point verdict), cycle (closed-form cycle
of a configured system), scan (parameter-plane CSV), simulate (orbit tail
CSV plus summary), plrnn (boundary localization and cycle analysis).

Exit codes: 0 success, 2 flag or config error, 3 solver precondition,
4 I/O failure, 5 structural (boundary/adjacency) error. All machine
output is deterministic: repr floats, LF line endings, sorted JSON keys.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys as _sys

from .config import read_config
from .cycle_solver import CanonicalSystem, solve_cycle, solve_symbolic_cycle
from .errors import (
    ConfigError,
    DegenerateOffsetError,
    DivergenceError,
    EigenvalueOneError,
    NotAdjacentError,
    NotAdmissibleError,
    SameRegionError,
    SingularDenominatorError,
    StructureViolationError,
)
from .plrnn import PLRNNSystem, RegionIndex, local_cycle_analysis
from .region_atlas import GridSpec, scan
from .simulator import (
    DEFAULT_CYCLE_TOL,
    DEFAULT_GAP_FACTOR,
    DEFAULT_MAX_PERIOD,
    DEFAULT_STEPS,
    DEFAULT_TRANSIENT,
    band_count,
    detect_cycle,
    itinerary,
    trajectory,
)
from .skew_tent import DEFAULT_CURVE_TOL, classify

__all__ = ["build_parser", "main", "entry_point"]

_ITINERARY_PREFIX = 32


class _ArgumentParser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float literal as a value.

    argparse's stock pattern covers -4 and -4.5 but not -4.6e+21, which
    it takes for an option flag. Subparsers inherit this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"
        )


def _bits_word(text: str) -> str:
    if not text or any(c not in "01" for c in text):
        raise argparse.ArgumentTypeError(
            f"region word must be a nonempty string of 0/1 digits, got {text!r}"
        )
    return text


def _format_complex(v: complex) -> str:
    if v.imag == 0.0:
        return f"{v.real:.6g}"
    return f"{v.real:.6g}{v.imag:+.6g}j"


def _print_solution(sol) -> None:
    print(f"n: {sol.n}")
    print(f"sequence: {sol.sequence}")
    for idx, point in enumerate(sol.points, start=1):
        coords = " ".join(f"{float(v):.6f}" for v in point)
        print(f"point {idx}: {coords}")
    print("multipliers: " + ", ".join(_format_complex(v) for v in sol.multipliers))
    print(f"stable: {sol.stable}")
    print(f"admissible: {sol.admissible}")
    print(f"residual: {sol.residual:.3e}")


def _emit_solution(sol, emit: str, out: str) -> None:
    if emit == "csv":
        m = len(sol.points[0]) - 1
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["i", "x"] + [f"Y{k}" for k in range(1, m + 1)])
            for idx, point in enumerate(sol.points, start=1):
                writer.writerow([idx] + [repr(float(v)) for v in point])
        return
    doc = {
        "n": sol.n,
        "sequence": sol.sequence,
        "points": [[float(v) for v in point] for point in sol.points],
        "multipliers": [[v.real, v.imag] for v in sol.multipliers],
        "stable": sol.stable,
        "admissible": sol.admissible,
        "residual": sol.residual,
    }
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_classify(args) -> int:
    result = classify(args.a, args.d, args.n, mu_sign=args.mu_sign, tol=args.tol)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "verdict": result.verdict.value,
                    "n": result.n,
                    "details": result.details,
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"verdict: {result.verdict.value}")
    print(f"n: {result.n}")
    for key in sorted(result.details):
        print(f"  {key}: {result.details[key]!r}")
    return 0


def _cmd_cycle(args) -> int:
    if args.emit and not args.out:
        raise ValueError("--emit requires --out")
    system = read_config(args.config)
    if not isinstance(system, CanonicalSystem):
        raise ConfigError("the cycle command requires a 'canonical' config")
    if args.sequence is not None:
        sol = solve_symbolic_cycle(system, args.sequence, zero_tol=args.zero_tol)
    else:
        sol = solve_cycle(system, args.n, zero_tol=args.zero_tol)
    _print_solution(sol)
    if args.emit:
        _emit_solution(sol, args.emit, args.out)
    return 0


def _cmd_scan(args) -> int:
    spec = GridSpec(
        a_min=args.a_min,
        a_max=args.a_max,
        a_steps=args.a_steps,
        d_min=args.d_min,
        d_max=args.d_max,
        d_steps=args.d_steps,
        n_list=tuple(args.n),
        mu_sign=args.mu_sign,
    )
    grid = scan(spec, tol=args.tol)

    def _write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "d", "n", "verdict"])
        for n in spec.n_list:
            cells = grid.cells[n]
            for i, a in enumerate(grid.a_values):
                for j, d in enumerate(grid.d_values):
                    writer.writerow([repr(float(a)), repr(float(d)), n, cells[i, j]])

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(_sys.stdout)
    return 0


def _cmd_simulate(args) -> int:
    system = read_config(args.config)
    if not isinstance(system, CanonicalSystem):
        raise ConfigError("the simulate command requires a 'canonical' config")
    z0 = None
    if args.x0 is not None:
        z0 = [args.x0] + [0.0] * system.m
    try:
        orbit = trajectory(system, steps=args.steps, transient=args.transient, z0=z0)
    except DivergenceError as err:
        print(f"diverged at step {err.step}")
        if args.emit_csv:
            with open(args.emit_csv, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["t", "x"] + [f"Y{k}" for k in range(1, system.m + 1)])
        return 0

    cycle = detect_cycle(orbit, max_period=args.max_period, tol=args.cycle_tol)
    symbols = itinerary(orbit, zero_tol=args.zero_tol)
    bands = band_count(orbit, gap_factor=args.gap_factor)
    if cycle is None:
        print(f"period: none (no cycle up to {args.max_period})")
    else:
        print(f"period: {cycle.period}")
    print(f"itinerary: {symbols[:_ITINERARY_PREFIX]}")
    print(f"bands: {bands}")

    if args.emit_csv:
        with open(args.emit_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "x"] + [f"Y{k}" for k in range(1, system.m + 1)])
            for offset, row in enumerate(orbit.states):
                writer.writerow(
                    [orbit.transient + offset] + [repr(float(v)) for v in row]
                )
    return 0


def _cmd_plrnn(args) -> int:
    system = read_config(args.config)
    if not isinstance(system, PLRNNSystem):
        raise ConfigError("the plrnn command requires a 'plrnn' config")
    words = args.pair
    if len(words[0]) != system.M or len(words[1]) != system.M:
        raise ValueError(
            f"region words must have length M={system.M}, "
            f"got {len(words[0])} and {len(words[1])}"
        )
    region_i = RegionIndex.from_bits(tuple(int(c) for c in words[0]))
    region_j = RegionIndex.from_bits(tuple(int(c) for c in words[1]))

    report = local_cycle_analysis(system, region_i, region_j, args.n,
                                  zero_tol=args.zero_tol)
    loc = report.localized
    can = loc.canonical
    print(f"boundary: s = {loc.s}")
    print(f"regions: {''.join(map(str, loc.region_neg.bits))} (x <= 0) / "
          f"{''.join(map(str, loc.region_pos.bits))} (x > 0)")
    print(f"permutation: {' '.join(str(p + 1) for p in loc.permutation)}")
    print(f"a: {can.a!r}")
    print(f"d: {can.d!r}")
    print(f"mu_hat: {can.mu_hat!r}")
    print("b_vec: " + " ".join(repr(float(v)) for v in can.b_vec))
    print("e_vec: " + " ".join(repr(float(v)) for v in can.e_vec))
    if loc.degenerate_kink:
        print(f"DegenerateKink: a = d = {can.a!r}; the reduced map has no kink")
    print(f"classification: {report.classification.verdict.value}")
    if report.solution is not None:
        _print_solution(report.solution)
    else:
        err = report.solve_error
        print(f"cycle: not solved ({type(err).__name__}: {err})")
    if report.locality_ok is None:
        print("locality: not applicable")
    elif report.locality_ok:
        print(f"locality: ok ({len(report.boundary_warnings)} boundary warnings)")
    else:
        print(f"locality: violated at {len(report.violations)} point-coordinates")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pwlcycles",
        description="Cycles and bifurcations of piecewise-linear maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a parameter point")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu-sign", choices=["+", "-"], default="+")
    p.add_argument("--tol", type=float, default=DEFAULT_CURVE_TOL)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cycle", help="closed-form cycle of a configured system")
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--sequence")
    p.add_argument("--zero-tol", type=float, default=None)
    p.add_argument("--emit", choices=["csv", "json"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("scan", help="classify a parameter-plane grid to CSV")
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--a-steps", type=int, required=True)
    p.add_argument("--d-min", type=float, required=True)
    p.add_argument("--d-max", type=float, required=True)
    p.add_argument("--d-steps", type=int, required=True)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--mu-sign", choices=["+", "-"], default="+")
    p.add_argument("--tol", type=float, default=DEFAULT_CURVE_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("simulate", help="simulate a configured system")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--transient", type=int, default=DEFAULT_TRANSIENT)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--max-period", type=int, default=DEFAULT_MAX_PERIOD)
    p.add_argument("--cycle-tol", type=float, default=DEFAULT_CYCLE_TOL)
    p.add_argument("--zero-tol", type=float, default=1e-9)
    p.add_argument("--gap-factor", type=float, default=DEFAULT_GAP_FACTOR)
    p.add_argument("--emit-csv", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("plrnn", help="localize a network at a switching boundary")
    p.add_argument("--config", required=True)
    p.add_argument("--pair", nargs=2, type=_bits_word, required=True,
                   metavar=("BITS_I", "BITS_J"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--zero-tol", type=float, default=None)
    p.set_defaults(func=_cmd_plrnn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {type(err).__name__}: {err}", file=_sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=_sys.stderr)
        return 2
    except (
        EigenvalueOneError,
        SingularDenominatorError,
        DegenerateOffsetError,
        NotAdmissibleError,
    ) as err:
        print(f"error: {type(err).__name__}: {err}", file=_sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=_sys.stderr)
        return 4
    except (StructureViolationError, NotAdjacentError, SameRegionError) as err:
        print(f"error: {type(err).__name__}: {err}", file=_sys.stderr)
        return 5


def entry_point() -> None:
    _sys.exit(main())


if __name__ == "__main__":
    entry_point()
