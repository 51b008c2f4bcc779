"""Command-line front end.

Subcommands: classify (parameter-point verdict), cycle (closed-form cycle
of a configured system), scan (parameter-plane CSV), simulate (orbit tail
CSV plus summary), plrnn (boundary localization and cycle analysis).

Exit codes: 0 success (or a reader that closed stdout early), 2 flag
error (a size flag beyond memory included), 4 I/O failure; a typed error
exits with the exit_code of its class (2 config, 3 solver precondition,
5 structural). cycle --n solves the family the sign of mu_hat names, as
classify --mu-sign reads it. All machine output is deterministic: repr
floats, LF line endings, sorted JSON keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys as _sys
from typing import NamedTuple

import numpy as np

from .config import _SCHEMA, read_config
from .cycle_solver import solve_cycle, solve_symbolic_cycle
from .errors import ConfigError, DivergenceError, PwlcyclesError
from .plrnn import RegionIndex, local_cycle_analysis
from .region_atlas import GridSpec, scan
from .simulator import (
    DEFAULT_CYCLE_TOL,
    DEFAULT_MAX_PERIOD,
    DEFAULT_STEPS,
    DEFAULT_TRANSIENT,
    Orbit,
    band_count,
    detect_cycle,
    itinerary,
    trajectory,
)
from .skew_tent import DEFAULT_CURVE_TOL, classify

__all__ = ["build_parser", "main", "entry_point"]

_ITINERARY_PREFIX = 32


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _ArgumentParser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float literal as a value.

    argparse's stock pattern covers -4 and -4.5 but not -4.6e+21, which
    it takes for an option flag. Subparsers inherit this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


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


def _write_lines(path, lines) -> None:
    """Write lines of text, already joined, one write each, to path or stdout.

    A CSV field is a name, an int or a repr float, none of which contains
    a comma, a quote or a line break, so no field is quoted.
    """
    if not path:
        _sys.stdout.writelines(lines)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def _state_lines(index: str, m: int, rows):
    """A header of index, x, Y1..Ym, then one line per (index, state) row."""
    yield ",".join([index, "x"] + [f"Y{k}" for k in range(1, m + 1)]) + "\n"
    for i, state in rows:
        yield f"{i}," + ",".join(map(repr, state)) + "\n"


def _emit_solution(sol, emit: str, out: str) -> None:
    if emit == "csv":
        rows = enumerate((point.tolist() for point in sol.points), start=1)
        _write_lines(out, _state_lines("i", len(sol.points[0]) - 1, rows))
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
    _write_lines(out, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def _read_system(args, kind: str):
    system = read_config(args.config)
    if not isinstance(system, _SCHEMA[kind].cls):
        raise ConfigError(f"the {args.command} command requires a {kind!r} config")
    return system


def _cmd_classify(args) -> int:
    result = classify(args.a, args.d, args.n, mu_sign=args.mu_sign, tol=args.tol)
    if args.format == "json":
        doc = {"verdict": result.verdict.value, "n": result.n, "details": result.details}
        print(json.dumps(doc, sort_keys=True))
        return 0
    print(f"verdict: {result.verdict.value}")
    print(f"n: {result.n}")
    for key in sorted(result.details):
        print(f"  {key}: {result.details[key]!r}")
    return 0


def _cmd_cycle(args) -> int:
    if args.emit and not args.out:
        raise ValueError("--emit requires --out")
    if args.out is not None and not args.emit:
        raise ValueError("--out requires --emit")
    system = _read_system(args, "canonical")
    if args.sequence is not None:
        sol = solve_symbolic_cycle(system, args.sequence, zero_tol=args.zero_tol)
    else:
        sol = solve_cycle(system, args.n, zero_tol=args.zero_tol)
    _print_solution(sol)
    if args.emit:
        _emit_solution(sol, args.emit, args.out)
    return 0


def _cmd_scan(args) -> int:
    spec = GridSpec(a_min=args.a_min, a_max=args.a_max, a_steps=args.a_steps,
                    d_min=args.d_min, d_max=args.d_max, d_steps=args.d_steps,
                    n_list=tuple(args.n), mu_sign=args.mu_sign)
    grid = scan(spec, tol=args.tol)

    a_reprs = [repr(v) for v in grid.a_values.tolist()]
    d_reprs = [repr(v) for v in grid.d_values.tolist()]

    names = np.array(grid.VERDICTS, dtype=object)
    cols = np.arange(len(d_reprs))

    def _lines():
        # numpy appends each verdict name to each ",d,n," text once per n,
        # and each a-row picks its texts by verdict code, so only one row
        # of text is alive at a time, and each a-row is one write
        yield "a,d,n,verdict\n"
        for n in spec.n_list:
            tails = np.array([f",{d},{n}," for d in d_reprs], dtype=object)
            table = tails + names[:, None]
            for a, codes in zip(a_reprs, grid.codes[n]):
                yield a + ("\n" + a).join(table[codes, cols].tolist()) + "\n"

    _write_lines(args.out, _lines())
    return 0


def _cmd_simulate(args) -> int:
    system = _read_system(args, "canonical")
    z0 = None if args.x0 is None else [args.x0] + [0.0] * system.m
    try:
        orbit = trajectory(system, steps=args.steps, transient=args.transient, z0=z0)
    except DivergenceError as err:
        print(f"diverged at step {err.step} (threshold {err.threshold!r})")
        if args.emit_csv:
            _write_lines(args.emit_csv, _state_lines("t", system.m, ()))
        return 0

    cycle = detect_cycle(orbit, max_period=args.max_period, tol=args.cycle_tol)
    # only the printed prefix is read
    head = Orbit(orbit.states[:_ITINERARY_PREFIX], orbit.transient, orbit.mu_hat)
    symbols = itinerary(head, zero_tol=args.zero_tol)
    bands = band_count(orbit)
    if cycle is None:
        print(f"period: none (no cycle up to {args.max_period})")
    else:
        print(f"period: {cycle.period}")
    print(f"itinerary: {symbols}")
    print(f"bands: {bands}")

    if args.emit_csv:
        rows = enumerate(orbit.states.tolist(), start=orbit.transient)
        _write_lines(args.emit_csv, _state_lines("t", system.m, rows))
    return 0


def _cmd_plrnn(args) -> int:
    system = _read_system(args, "plrnn")
    words = args.pair
    if len(words[0]) != system.M or len(words[1]) != system.M:
        raise ValueError(
            f"region words must have length M={system.M}, "
            f"got {len(words[0])} and {len(words[1])}"
        )
    region_i, region_j = (RegionIndex.from_bits(tuple(map(int, w))) for w in words)

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


class _Command(NamedTuple):
    """A subcommand: its help text and flags; main runs _cmd_<name>."""

    help: str
    # (flag, keywords) pairs; a tuple of pairs is a required exclusive group
    args: tuple


_COMMANDS = {
    "classify": _Command("classify a parameter point", (
        ("--a", dict(type=float, required=True)),
        ("--d", dict(type=float, required=True)),
        ("--n", dict(type=int, required=True)),
        ("--mu-sign", dict(choices=["+", "-"], default="+")),
        ("--tol", dict(type=float, default=DEFAULT_CURVE_TOL)),
        ("--format", dict(choices=["text", "json"], default="text")),
    )),
    "cycle": _Command("closed-form cycle of a configured system", (
        ("--config", dict(required=True)),
        (("--n", dict(type=int)), ("--sequence", dict())),
        ("--zero-tol", dict(type=float, default=None)),
        ("--emit", dict(choices=["csv", "json"], default=None)),
        ("--out", dict(default=None)),
    )),
    "scan": _Command("classify a parameter-plane grid to CSV", (
        ("--a-min", dict(type=float, required=True)),
        ("--a-max", dict(type=float, required=True)),
        ("--a-steps", dict(type=int, required=True)),
        ("--d-min", dict(type=float, required=True)),
        ("--d-max", dict(type=float, required=True)),
        ("--d-steps", dict(type=int, required=True)),
        ("--n", dict(type=int, nargs="+", required=True)),
        ("--mu-sign", dict(choices=["+", "-"], default="+")),
        ("--tol", dict(type=float, default=DEFAULT_CURVE_TOL)),
        ("--out", dict(default=None)),
    )),
    "simulate": _Command("simulate a configured system", (
        ("--config", dict(required=True)),
        ("--steps", dict(type=int, default=DEFAULT_STEPS)),
        ("--transient", dict(type=int, default=DEFAULT_TRANSIENT)),
        ("--x0", dict(type=float, default=None)),
        ("--max-period", dict(type=int, default=DEFAULT_MAX_PERIOD)),
        ("--cycle-tol", dict(type=float, default=DEFAULT_CYCLE_TOL)),
        ("--zero-tol", dict(type=float, default=None)),
        ("--emit-csv", dict(default=None)),
    )),
    "plrnn": _Command("localize a network at a switching boundary", (
        ("--config", dict(required=True)),
        ("--pair", dict(nargs=2, type=_bits_word, required=True,
                        metavar=("BITS_I", "BITS_J"))),
        ("--n", dict(type=int, required=True)),
        ("--zero-tol", dict(type=float, default=None)),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of every subcommand."""
    parser = _ArgumentParser(
        prog="pwlcycles", description="Cycles and bifurcations of piecewise-linear maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for arg in spec.args:
            if isinstance(arg[0], tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for flag, options in arg:
                    group.add_argument(flag, **options)
            else:
                p.add_argument(arg[0], **arg[1])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call of main and kept for the process.

    parse_args leaves a parser as it found it, so main can reuse one;
    build_parser itself keeps returning a fresh parser that a caller may
    change.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # looked up at each call, so a _cmd_* patched after the first call
        # (a test double, a tracer) is the one that runs
        code = globals()[f"_cmd_{args.command}"](args)
        _sys.stdout.flush()  # a reader's closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # quiet; the flush at exit then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return 0
    except PwlcyclesError as err:
        print(f"error: {type(err).__name__}: {err}", file=_sys.stderr)
        return err.exit_code
    # a non-UTF-8 config is a ValueError, a size flag beyond memory a MemoryError
    except (ValueError, MemoryError, OSError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=_sys.stderr)
        return 4 if isinstance(err, OSError) else 2


def entry_point() -> None:
    _sys.exit(main())


if __name__ == "__main__":
    entry_point()
