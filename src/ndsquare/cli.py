"""Command-line interface.

Subcommands
-----------
sweep            negative-count vs bound comparison over a b grid (CSV/JSON)
trajectories     full difference spectra over a b grid (CSV/JSON)
crossing         crossing experiment at a Neumann eigenvalue level
bound            print the lattice bound for a coefficient window
assemble-dump    write the closed-form matrix in the plain-text dump format
truncation-check per-operator and difference truncation-error estimates

Exit codes: 0 success, 1 invalid flags (usage), 2 precondition or
resonance errors, an --out path that cannot be written, a stdout whose
reader has gone and a --size whose blocks cannot be allocated (one-line
diagnostic on stderr).  Output files are byte-identical for identical
configurations; reals in CSV carry 17 significant digits and round-trip
exactly; JSON holds the records' fields.  The trajectories CSV streams:
every b is decided before the first byte is written, and each point's
rows are written once its batch is solved, so memory is flat in the
grid length.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import re
import sys
from typing import Iterable, Sequence

from . import experiments, nd_matrix
from .spectrum import (
    DEFAULT_GUARD,
    ProblemParams,
    negative_eigenvalue_bound,
)

SWEEP_CSV_HEADER = (
    "b,measured_negative,theoretical_bound,"
    "min_eigenvalue,max_eigenvalue,skipped"
)
TRAJECTORIES_CSV_HEADER = "b,index,eigenvalue"

#: Largest number of points a --b-min/--b-max/--b-step grid may have.
MAX_GRID_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse parser using exit code 1 for usage errors.

    Any float literal with a leading minus, such as ``-1e5`` or
    ``-inf``, is read as a flag value; plain argparse reads only
    ``-10`` and ``-1.5`` that way and takes the rest for unknown flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(e[-+]?\d[\d_]*)?$"
            r"|^-(inf|infinity|nan)$",
            re.IGNORECASE,
        )

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _add_common(parser: argparse.ArgumentParser, *, tol: bool = True) -> None:
    parser.add_argument("--k", type=float, default=1.0, help="wavenumber (default 1)")
    parser.add_argument(
        "--size", type=int, default=400,
        help="matrix size 4J; must be divisible by 4 (default 400)",
    )
    if tol:
        parser.add_argument(
            "--tol", type=float, default=experiments.DEFAULT_DELTA,
            help="negative-eigenvalue threshold delta (default 1e-5)",
        )
    parser.add_argument(
        "--guard", type=float, default=DEFAULT_GUARD,
        help="resonance guard tolerance (default 1e-9)",
    )
    parser.add_argument(
        "--out", type=str, default=None, help="output path (default stdout)"
    )


def _add_b_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b", type=float, action="append", default=None,
                        help="single b value (repeatable; argparse takes time "
                             "quadratic in the number of --b flags, so give a "
                             "long grid as --b-min/--b-max/--b-step)")
    parser.add_argument("--b-min", type=float, default=None)
    parser.add_argument("--b-max", type=float, default=None)
    parser.add_argument("--b-step", type=float, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="ndsquare", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True
    # each subparser is handed to its runner, so usage errors name it

    p = sub.add_parser("sweep", help="negative counts vs lattice bound over a b grid")
    p.add_argument("--a", type=float, required=True)
    _add_b_grid(p)
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(run=_run_sweep, parser=p)

    p = sub.add_parser("trajectories", help="difference spectra over a b grid")
    p.add_argument("--a", type=float, required=True)
    _add_b_grid(p)
    _add_common(p, tol=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(run=_run_trajectories, parser=p)

    p = sub.add_parser("crossing", help="crossing experiment at level pi^2*n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(run=_run_crossing, parser=p)

    p = sub.add_parser("bound", help="print the lattice bound for (a, b)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--guard", type=float, default=DEFAULT_GUARD)
    p.set_defaults(run=_run_bound, parser=p)

    p = sub.add_parser("assemble-dump", help="dump the closed-form matrix")
    p.add_argument("--a", type=float, required=True)
    _add_common(p, tol=False)
    p.set_defaults(run=_run_assemble_dump, parser=p)

    p = sub.add_parser(
        "truncation-check",
        help="per-operator (and, with --b, operator-difference) "
             "truncation-error estimates",
    )
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, default=None)
    _add_common(p, tol=False)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_run_truncation_check, parser=p)
    return parser


def _modes_per_side(parser: _Parser, size: int) -> int:
    if size < 4 or size % 4 != 0:
        parser.error(f"--size must be a positive multiple of 4, got {size}")
    return size // 4


def _b_grid(parser: _Parser, args: argparse.Namespace) -> list[float]:
    explicit = args.b is not None
    ranged = any(v is not None for v in (args.b_min, args.b_max, args.b_step))
    if explicit == ranged:
        parser.error("provide either --b or the --b-min/--b-max/--b-step range")
    if explicit:
        return list(args.b)
    if args.b_min is None or args.b_max is None or args.b_step is None:
        parser.error("--b-min, --b-max and --b-step must be given together")
    for flag, value in (("--b-min", args.b_min), ("--b-max", args.b_max),
                        ("--b-step", args.b_step)):
        if not math.isfinite(value):
            parser.error(f"{flag} must be finite, got {value}")
    if args.b_step <= 0:
        parser.error(f"--b-step must be positive, got {args.b_step}")
    if args.b_max < args.b_min:
        parser.error("--b-max must be >= --b-min")
    # the span may still overflow to inf, e.g. from -1e308 to 1e308
    span = (args.b_max - args.b_min) / args.b_step + 1e-9
    if not span < MAX_GRID_POINTS:
        parser.error(
            f"the --b-min/--b-max/--b-step grid has more than "
            f"{MAX_GRID_POINTS} points"
        )
    return [args.b_min + i * args.b_step for i in range(int(span) + 1)]


def _emit(pieces: Iterable[str], out: str | None) -> None:
    # written piece by piece, so a long output is never one string
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _json_dumps(obj) -> str:
    """Indented sorted JSON; ``default=vars`` encodes a record as its fields."""
    return json.dumps(obj, indent=2, sort_keys=True, default=vars) + "\n"


def _run_sweep(parser: _Parser, args: argparse.Namespace) -> int:
    j_modes = _modes_per_side(parser, args.size)
    if not args.tol > 0:
        parser.error(f"--tol must be positive, got {args.tol}")
    b_values = _b_grid(parser, args)
    reports = experiments.sweep(
        args.a, b_values, k=args.k, modes_per_side=j_modes,
        delta=args.tol, guard=args.guard,
    )
    if args.format == "json":
        _emit((_json_dumps(reports),), args.out)
        return 0
    lines = [SWEEP_CSV_HEADER]
    for r in reports:
        if r.skipped:
            lines.append(f"{_fmt(r.b)},,,,,1")
        else:
            lines.append(
                f"{_fmt(r.b)},{r.measured_negative},{r.theoretical_bound},"
                f"{_fmt(r.min_eigenvalue)},{_fmt(r.max_eigenvalue)},0"
            )
    _emit(("\n".join(lines) + "\n",), args.out)
    return 0


def _run_trajectories(parser: _Parser, args: argparse.Namespace) -> int:
    j_modes = _modes_per_side(parser, args.size)
    b_values = _b_grid(parser, args)
    if args.format == "json":
        points = experiments.trajectories(
            args.a, b_values, k=args.k, modes_per_side=j_modes,
            guard=args.guard,
        )
        _emit((_json_dumps(points),), args.out)
        return 0

    def render(b: float, eigs) -> str:
        if eigs is None:  # a resonant b has no rows
            return ""
        return template.replace("%s", _fmt(b)) % tuple(eigs.tolist())

    # every b is decided here, before a byte is written, and the
    # buffers are allocated, which refuses a --size too large at once;
    # each point comes rendered by the process that solved it
    rows = experiments.difference_spectra(
        args.a, b_values, args.k, j_modes, args.guard, render
    )
    # one template fills the 4J rows of a point at once; %.17g gives
    # the bytes of _fmt, -0, inf and nan included
    template = "".join(f"%s,{idx},%.17g\n" for idx in range(4 * j_modes))
    header = TRAJECTORIES_CSV_HEADER + "\n"
    _emit(itertools.chain([header], rows), args.out)
    return 0


def _run_crossing(parser: _Parser, args: argparse.Namespace) -> int:
    j_modes = _modes_per_side(parser, args.size)
    if not args.tol > 0:
        parser.error(f"--tol must be positive, got {args.tol}")
    report = experiments.verify_crossing(
        args.n, eps=args.eps, k=args.k, modes_per_side=j_modes,
        delta=args.tol, guard=args.guard,
    )
    attempts = " ".join(
        f"eps={at.eps!r}:measured={at.measured}" for at in report.attempts
    )
    sys.stdout.write(
        f"n={report.n} expected={report.expected} measured={report.measured} "
        f"agreed={int(report.agreed)} attempts=[{attempts}]\n"
    )
    if args.out is not None:
        _emit((_json_dumps(report),), args.out)
    return 0


def _run_bound(parser: _Parser, args: argparse.Namespace) -> int:
    value = negative_eigenvalue_bound(args.a, args.b, args.k, args.guard)
    sys.stdout.write(f"{value}\n")
    return 0


def _run_assemble_dump(parser: _Parser, args: argparse.Namespace) -> int:
    j_modes = _modes_per_side(parser, args.size)
    params = ProblemParams(
        a=args.a, k=args.k, modes_per_side=j_modes, guard=args.guard
    )
    _emit(nd_matrix.dump_lines(nd_matrix.assemble(params)), args.out)
    return 0


def _run_truncation_check(parser: _Parser, args: argparse.Namespace) -> int:
    j_modes = _modes_per_side(parser, args.size)
    if j_modes % 2 != 0:
        parser.error(
            f"--size must correspond to an even mode count for halving, "
            f"got size={args.size} (J={j_modes})"
        )
    params_a = ProblemParams(
        a=args.a, k=args.k, modes_per_side=j_modes, guard=args.guard
    )
    per_a = nd_matrix.truncation_error(params_a)
    per_b = diff = None
    if args.b is not None:
        per_b = nd_matrix.truncation_error(dataclasses.replace(params_a, a=args.b))
        diff = nd_matrix.difference_truncation_error(
            args.a, args.b, args.k, j_modes, args.guard
        )
    if args.format == "json":
        payload = {
            "a": args.a, "b": args.b, "k": args.k, "modes_per_side": j_modes,
            "per_operator_a": per_a, "per_operator_b": per_b,
            "difference": diff,
        }
        _emit((_json_dumps(payload),), args.out)
        return 0
    lines = [f"per_operator_truncation_error a={_fmt(args.a)}: {_fmt(per_a)}"]
    if per_b is not None:
        lines.append(
            f"per_operator_truncation_error b={_fmt(args.b)}: {_fmt(per_b)}"
        )
        lines.append(f"difference_truncation_error: {_fmt(diff)}")
    _emit(("\n".join(lines) + "\n",), args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        code = args.run(args.parser, args)
        # a reader of stdout that has gone fails here, not at exit
        sys.stdout.flush()
        return code
    # ResonanceError is a ValueError; MemoryError is a --size too large
    # to allocate
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"ndsquare {args.command}: {exc}\n")
        return 2


def console_entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # main has reported it; what is still buffered goes to
        # /dev/null, so the flush at exit does not fail once more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
