"""Command-line surface: project points, emit the reference bisection table,
query polar memberships, and emit CSV point clouds of the cones.

Subcommands: project | table1 | figure | polar.  All output is UTF-8 with '.'
as the decimal separator and '\\n' line endings; identical inputs produce
byte-identical output.  Exit codes: 0 success, 2 validation error, 3 numerical
failure (a root search out of budget, or an answer beyond the float64 range).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import HomconeError, InvalidSetSpec, MaxIterationsExceeded
from . import homproj
from .homproj import project_homogenization, reference_trace
from .polar import (
    homogenization_polar_membership,
    polar_cone_membership,
    polar_membership,
)
from .sets import MEMBERSHIP_TOL, EuclideanBall, set_from_spec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

TRACE_HEADER = "n,alpha,mid,beta,dpsi_alpha,dpsi_mid,dpsi_beta"


def _g8(x) -> float:
    """Round to 8 significant digits (the table's alpha/beta precision)."""
    return float(f"{x:.8g}")


def _fmt8(x) -> str:
    """8 significant digits, trailing zeros kept."""
    return "" if x is None else f"{x:#.8g}"


def _fmt_dpsi(x) -> str:
    """Scientific notation with 3 significant digits."""
    return "" if x is None else f"{x:.2e}"


def _trace_csv_rows(trace):
    rows = [TRACE_HEADER]
    for r in trace:
        rows.append(
            ",".join(
                [
                    str(r.n),
                    _fmt8(r.alpha),
                    _fmt8(r.mid),
                    _fmt8(r.beta),
                    _fmt_dpsi(r.dpsi_alpha),
                    _fmt_dpsi(r.dpsi_mid),
                    _fmt_dpsi(r.dpsi_beta),
                ]
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Reference table (23 rows)
# ---------------------------------------------------------------------------

# Expected rows of the reference bisection trace, in the exact CSV formatting
# emitted by `table1`.  Two derivative entries of the upstream reference table
# (rows 3 and 4, printed there as -1.310e0) are internally inconsistent with
# the table's own update rule; recomputation gives -1.3981560..., stored here
# as -1.40e+00.  Every other entry matches the upstream table as printed.
REFERENCE_TABLE = (
    (1, "3.0000000", "", "5.0000000", "4.10e+00", "", "8.11e+00"),
    (2, "1.5000000", "", "3.0000000", "1.49e-01", "", "4.10e+00"),
    (3, "0.75000000", "1.1250000", "1.5000000", "-3.35e+00", "-1.40e+00", "1.49e-01"),
    (4, "1.1250000", "1.3125000", "1.5000000", "-1.40e+00", "-5.79e-01", "1.49e-01"),
    (5, "1.3125000", "1.4062500", "1.5000000", "-5.79e-01", "-2.04e-01", "1.49e-01"),
    (6, "1.4062500", "1.4531250", "1.5000000", "-2.04e-01", "-2.48e-02", "1.49e-01"),
    (7, "1.4531250", "1.4765625", "1.5000000", "-2.48e-02", "6.29e-02", "1.49e-01"),
    (8, "1.4531250", "1.4648438", "1.4765625", "-2.48e-02", "1.92e-02", "6.29e-02"),
    (9, "1.4531250", "1.4589844", "1.4648438", "-2.48e-02", "-2.76e-03", "1.92e-02"),
    (10, "1.4589844", "1.4619141", "1.4648438", "-2.76e-03", "8.23e-03", "1.92e-02"),
    (11, "1.4589844", "1.4604492", "1.4619141", "-2.76e-03", "2.74e-03", "8.23e-03"),
    (12, "1.4589844", "1.4597168", "1.4604492", "-2.76e-03", "-1.06e-05", "2.74e-03"),
    (13, "1.4597168", "1.4600830", "1.4604492", "-1.06e-05", "1.36e-03", "2.74e-03"),
    (14, "1.4597168", "1.4598999", "1.4600830", "-1.06e-05", "6.77e-04", "1.36e-03"),
    (15, "1.4597168", "1.4598083", "1.4598999", "-1.06e-05", "3.33e-04", "6.77e-04"),
    (16, "1.4597168", "1.4597626", "1.4598083", "-1.06e-05", "1.61e-04", "3.33e-04"),
    (17, "1.4597168", "1.4597397", "1.4597626", "-1.06e-05", "7.53e-05", "1.61e-04"),
    (18, "1.4597168", "1.4597282", "1.4597397", "-1.06e-05", "3.24e-05", "7.53e-05"),
    (19, "1.4597168", "1.4597225", "1.4597282", "-1.06e-05", "1.09e-05", "3.24e-05"),
    (20, "1.4597168", "1.4597197", "1.4597225", "-1.06e-05", "1.65e-07", "1.09e-05"),
    (21, "1.4597168", "1.4597182", "1.4597197", "-1.06e-05", "-5.20e-06", "1.65e-07"),
    (22, "1.4597182", "1.4597189", "1.4597197", "-5.20e-06", "-2.52e-06", "1.65e-07"),
    (23, "1.4597189", "1.4597193", "1.4597197", "-2.52e-06", "-1.18e-06", "1.65e-07"),
)


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
            raise InvalidSetSpec(f"cannot read set spec file: {exc}") from exc
    return set_from_spec(text)


def _parse_point(text):
    try:
        coords = [float(t) for t in text.replace(" ", "").split(",")]
    except ValueError as exc:
        raise InvalidSetSpec(f"bad point {text!r}: {exc}") from exc
    return np.array(coords)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_project(args) -> int:
    set_ = _load_set(args.set)
    y = _parse_point(args.point)
    result = project_homogenization(
        set_,
        (y, args.height),
        alpha0=args.alpha0,
        beta0=args.beta0,
        eps=args.eps,
        max_iter=args.max_iter,
        force_iterative=args.force_iterative,
        keep_trace=args.trace,
    )
    payload = {
        "alpha_star": _g8(result.alpha_star),
        "point": [_g8(v) for v in result.point.y],
        "height": _g8(result.point.s),
        "branch": result.branch.value,
        "iterations": result.iterations,
    }
    lines = [json.dumps(payload)]
    if args.trace and result.trace is not None:
        lines.extend(_trace_csv_rows(result.trace))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_table1(args) -> int:
    _, trace = reference_trace()
    rows = _trace_csv_rows(trace)
    if args.verify:
        computed = [tuple(line.split(",")) for line in rows[1:]]
        expected = [tuple(str(v) for v in row) for row in REFERENCE_TABLE]
        if computed != expected:
            for got, want in zip(computed, expected):
                if got != want:
                    print(f"row {want[0]}: got {got}, want {want}", file=sys.stderr)
            print("reference table verification failed", file=sys.stderr)
            return EXIT_NUMERIC
    _emit(rows, args.out)
    return EXIT_OK


def cmd_polar(args) -> int:
    set_ = _load_set(args.set)
    y = _parse_point(args.point)
    sigma = set_.support(y)
    payload = {
        "sigma": "+inf" if math.isinf(sigma) else _g8(sigma),
        "in_polar_set": polar_membership(set_, y, args.tol),
        "in_polar_cone": polar_cone_membership(set_, y, args.tol),
        "in_K_polar": (
            None
            if args.height is None
            else homogenization_polar_membership(set_, (y, args.height), args.tol)
        ),
    }
    _emit([json.dumps(payload)], args.out)
    return EXIT_OK


# --- figure emission --------------------------------------------------------

#: Heights at which the boundary rays of the cones are sampled.
_RHO_LEVELS = (0.4, 0.8, 1.2, 1.6, 2.0)


def _sample_segments(segments, density):
    """Sample each (t0, t1, include_end, fn) curve segment at `density` points."""
    pts = []
    for t0, t1, include_end, fn in segments:
        for t in np.linspace(t0, t1, density, endpoint=include_end):
            pts.append(np.asarray(fn(t), dtype=float))
    return pts


def _polygon_segments(vertices):
    """Closed polygon boundary as one segment per edge (endpoint excluded)."""
    segs = []
    m = len(vertices)
    for i in range(m):
        a = np.asarray(vertices[i], dtype=float)
        b = np.asarray(vertices[(i + 1) % m], dtype=float)
        segs.append((0.0, 1.0, False, lambda t, a=a, b=b: a + t * (b - a)))
    return segs


def _circle_segments(center, radius, t0=0.0, t1=2.0 * math.pi, closed=True):
    cx, cy = center
    return [
        (
            t0,
            t1,
            not closed,
            lambda t: (cx + radius * math.cos(t), cy + radius * math.sin(t)),
        )
    ]


def _figure_fig41():
    primal = _polygon_segments([(1, 0), (0, 1), (-1, 0), (0, -1)])
    polar = _polygon_segments([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    return primal, polar, []


def _figure_fig31():
    primal = [(-3.0, 3.0, True, lambda t: (1.0 - math.hypot(1.0, t), t))]
    polar = [
        (0.0, 1.0, False, lambda t: (t, t)),
        (0.0, 1.0, False, lambda t: (t, -t)),
        (-1.0, 1.0, True, lambda t: (0.5 * (1.0 + t * t), t)),
    ]
    return primal, polar, []


def _figure_fig22():
    primal = _circle_segments((0.0, 0.0), 1.0, math.pi, 2.0 * math.pi, closed=False)
    primal.append((0.0, 2.0, True, lambda t: (1.0, t)))
    primal.append((0.0, 2.0, True, lambda t: (-1.0, t)))
    polar = _circle_segments((0.0, 0.0), 1.0, math.pi, 2.0 * math.pi, closed=False)
    polar.append((-1.0, 1.0, True, lambda t: (t, 0.0)))
    return primal, polar, []


def _figure_fig2a():
    primal = _circle_segments(homproj.REFERENCE_CENTER, homproj.REFERENCE_RADIUS)
    polar = [(-3.0, 3.0, True, lambda t: (0.5 * (1.0 - t * t), t))]
    y, s = homproj.REFERENCE_QUERY
    result = project_homogenization(
        EuclideanBall(homproj.REFERENCE_CENTER, homproj.REFERENCE_RADIUS),
        (y, s),
        *homproj.REFERENCE_BRACKET,
        eps=homproj.REFERENCE_EPS,
    )
    extra = [
        ("query", *y, s),
        ("projection", result.point.y[0], result.point.y[1], result.point.s),
    ]
    return primal, polar, extra


_FIGURES = {
    "fig41": _figure_fig41,
    "fig31": _figure_fig31,
    "fig22": _figure_fig22,
    "fig2a": _figure_fig2a,
}


def cmd_figure(args) -> int:
    if args.density < 1:
        print("density must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    primal, polar, extra = _FIGURES[args.name]()
    lines = ["label,x1,x2,x3"]

    def add(label, x1, x2, x3):
        lines.append(f"{label},{x1:.8g},{x2:.8g},{x3:.8g}")

    for c in _sample_segments(primal, args.density):
        for rho in _RHO_LEVELS:
            add("cone", rho * c[0], rho * c[1], rho)
    for w in _sample_segments(polar, args.density):
        for rho in _RHO_LEVELS:
            add("polar", rho * w[0], rho * w[1], -rho)
    for label, x1, x2, x3 in extra:
        add(label, x1, x2, x3)
    _emit(lines, args.out)
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
                    help="with --beta0, a starting bracket: selects the traced "
                         "reference bisection")
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
    fg.add_argument("--name", required=True, choices=sorted(_FIGURES))
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
    except (HomconeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
