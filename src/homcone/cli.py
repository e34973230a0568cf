"""Command-line surface: project points, emit the reference bisection table,
query polar memberships, and emit CSV point clouds of the cones.  Each
subcommand parses its arguments, calls the library and prints; the trace
and figure CSV are rendered by :mod:`homcone.paper`.

Subcommands: project | table1 | figure | polar.  All output is UTF-8 with '.'
as the decimal separator and '\\n' line endings; identical inputs produce
byte-identical output.  Exit codes: 0 success; 2 a bad value (``ValueError``,
a malformed set spec or an unreadable spec file among them) or a missing
capability (``CapabilityMissing``); 3 a numerical failure (a root search out of
budget, or an answer beyond the float64 range).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import CapabilityMissing, MaxIterationsExceeded
from .homproj import project_homogenization
from .paper import (FIGURES, REFERENCE_TABLE, bisection_projection, figure_csv,
                    reference_trace, trace_csv)
from .polar import homogenization_polar_membership, polar_cone_membership
from .sets import MEMBERSHIP_TOL, set_from_spec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _g8(x) -> float:
    """Round to 8 significant digits (the table's alpha/beta precision)."""
    return float(f"{x:.8g}")


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _load_set(text):
    """Parse a set spec given inline or as a path to a JSON file."""
    text = text.strip()
    if not text.startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read set spec file: {exc}") from exc
    return set_from_spec(text)


def _parse_point(text):
    try:
        coords = [float(t) for t in text.replace(" ", "").split(",")]
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from exc
    return np.array(coords)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_project(args) -> int:
    set_ = _load_set(args.set)
    y = _parse_point(args.point)
    if args.alpha0 is None and args.beta0 is None:
        result = project_homogenization(set_, (y, args.height), args.eps, args.max_iter,
                                        args.force_iterative, args.trace)
    else:
        result = bisection_projection(set_, (y, args.height), args.alpha0, args.beta0,
                                      args.eps, args.max_iter, args.force_iterative)
    payload = {
        "alpha_star": _g8(result.alpha_star),
        "point": [_g8(v) for v in result.point.y],
        "height": _g8(result.point.s),
        "branch": result.branch.value,
        "iterations": result.iterations,
    }
    lines = [json.dumps(payload)]
    if args.trace and result.trace is not None:
        lines.extend(trace_csv(result.trace))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_table1(args) -> int:
    rows = trace_csv(reference_trace()[1])
    if args.verify:
        computed = [tuple(line.split(",")) for line in rows[1:]]
        expected = [tuple(str(v) for v in row) for row in REFERENCE_TABLE]
        if computed != expected:
            for got, want in zip(computed, expected):
                if got != want:
                    print(f"row {want[0]}: got {got}, want {want}", file=sys.stderr)
            if len(computed) != len(expected):
                print(f"got {len(computed)} rows, want {len(expected)}", file=sys.stderr)
            print("reference table verification failed", file=sys.stderr)
            return EXIT_NUMERIC
    _emit(rows, args.out)
    return EXIT_OK


def cmd_figure(args) -> int:
    _emit(figure_csv(args.name, args.density), args.out)
    return EXIT_OK


def cmd_polar(args) -> int:
    set_ = _load_set(args.set)
    y = _parse_point(args.point)
    sigma = set_.support(y)
    payload = {
        "sigma": "+inf" if math.isinf(sigma) else _g8(sigma),
        # polar_cone_membership, next, rejects a bad tolerance.
        "in_polar_set": sigma <= 1.0 + args.tol,
        "in_polar_cone": polar_cone_membership(set_, y, args.tol),
        "in_K_polar": (
            None
            if args.height is None
            else homogenization_polar_membership(set_, (y, args.height), args.tol)
        ),
    }
    _emit([json.dumps(payload)], args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcone",
        description="Projections onto the homogenization cone of a convex set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("project", help="project a point (y, s) onto the cone")
    pr.add_argument("--set", required=True,
                    help="set spec: inline JSON or a path to a JSON file")
    pr.add_argument("--point", required=True,
                    help="comma-separated coordinates of y")
    pr.add_argument("--height", required=True, type=float, help="the height s")
    pr.add_argument("--alpha0", type=float, default=None,
                    help="with --beta0, a starting bracket: selects the paper's "
                         "reference bisection (homcone.paper) on every set")
    pr.add_argument("--beta0", type=float, default=None)
    pr.add_argument("--eps", type=float, default=1e-6,
                    help="tolerance on alpha*: relative by default, the absolute "
                         "bracket width with --alpha0/--beta0")
    pr.add_argument("--max-iter", type=int, default=200)
    pr.add_argument("--trace", action="store_true",
                    help="append the search steps as CSV")
    pr.add_argument("--force-iterative", action="store_true",
                    help="bypass the sets' exact cone kernels")
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_project)

    t1 = sub.add_parser(
        "table1",
        help="emit the reference bisection trace for the built-in worked instance",
    )
    t1.add_argument("--verify", action="store_true",
                    help="exit 3 if any row deviates from the embedded reference")
    t1.add_argument("--out", default=None)
    t1.set_defaults(func=cmd_table1)

    fg = sub.add_parser("figure", help="emit a labeled 3-D CSV point cloud")
    fg.add_argument("--name", required=True, choices=sorted(FIGURES))
    fg.add_argument("--density", type=int, default=200,
                    help="points per boundary segment")
    fg.add_argument("--out", default=None)
    fg.set_defaults(func=cmd_figure)

    pl = sub.add_parser("polar", help="polar set / polar cone membership queries")
    pl.add_argument("--set", required=True)
    pl.add_argument("--point", required=True)
    pl.add_argument("--height", type=float, default=None,
                    help="when given, also test (point, height) against the polar cone of K")
    pl.add_argument("--tol", type=float, default=MEMBERSHIP_TOL,
                    help="membership band, finite and nonnegative")
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_polar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MaxIterationsExceeded, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CapabilityMissing, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
