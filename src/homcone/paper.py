"""The paper's worked examples: the off-centre ball's residual quartic, the
reference bisection on psi' with its Table 1 trace of 23 expected rows, and
the figure point clouds, with the two CSV renderings of ``homcone``:
:func:`trace_csv` and :func:`figure_csv`.  ``import homcone`` does not load
this module; :mod:`homcone.cli` imports it for ``table1``, ``figure``,
``project --trace`` and ``project --alpha0 --beta0``."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .homproj import (_SAFE_EXPONENT, PsiEvaluator, TraceRow, _answer,
                      _check_solver_args, _member, _result)
from .roots import MaxIterationsExceeded
from .sets import EuclideanBall, _as_float, _as_query


# ---------------------------------------------------------------------------
# Residual quartic for the off-centre ball
# ---------------------------------------------------------------------------

class QuarticCoefficients(NamedTuple):
    """Coefficients of the residual quartic for the off-centre ball case."""

    xi0: float
    xi1: float
    xi2: float
    xi3: float
    xi4: float

    def residual(self, alpha) -> float:
        a = float(alpha)
        return self.xi0 + a * (self.xi1 + a * (self.xi2 + a * (self.xi3 + a * self.xi4)))


def quartic_coefficients(center, radius, y, s) -> QuarticCoefficients:
    """Coefficients (xi0..xi4) of the quartic that alpha* satisfies for a ball
    not centred at the origin (outside-the-ball case).

    The quartic arises from squaring the stationarity equation, which can
    introduce spurious roots; it is therefore used only as a residual check,
    never solved for alpha*.  The ball's cone kernel reaches alpha* without
    it, as a projection onto a quadratic cone (see :class:`EuclideanBall`).
    """
    ball = EuclideanBall(center, radius)
    z, g = ball.center, ball.radius
    y, s = _as_query(y, ball.dim, s)[:2]
    nz = float(np.linalg.norm(z))
    zy = float(z @ y)
    ny2 = float(y @ y)
    nz2 = float(z @ z)
    g2 = g * g
    u = s + zy
    k = g2 + nz2 + 1.0
    xi0 = u * u * ny2 - g2 * ny2 * ny2
    xi1 = -2.0 * u * k * ny2 - 2.0 * zy * u * u + 6.0 * g2 * ny2 * zy
    xi2 = (
        -4.0 * g2 * ny2 * nz2
        - 9.0 * g2 * zy * zy
        + k * k * ny2
        + u * u * nz2
        + 4.0 * k * u * zy
    )
    xi3 = 12.0 * g2 * zy * nz2 - 2.0 * k * u * nz2 - 2.0 * k * k * zy
    xi4 = nz2 * (1.0 + (g + nz) ** 2) * (1.0 + (g - nz) ** 2)
    return QuarticCoefficients(xi0, xi1, xi2, xi3, xi4)


# ---------------------------------------------------------------------------
# Reference bisection on psi'
# ---------------------------------------------------------------------------

#: Reference bisection: a derivative value within this of zero ends the
#: search, and halving the left end below this certifies the recession branch.
_ZERO_TOL = 1e-12
_ALPHA_FLOOR = 1e-12


def _check_bracket_args(alpha0, beta0, eps, max_iter):
    """``(alpha0, beta0, eps)`` as the floats they are checked as: ValueError
    for a bad eps or max_iter, or a bracket not 0 < alpha0 < beta0 < inf."""
    alpha0, beta0 = _as_float(alpha0), _as_float(beta0)
    if not 0.0 < alpha0 < beta0 < math.inf:
        raise ValueError("require 0 < alpha0 < beta0, both finite")
    return alpha0, beta0, _check_solver_args(eps, max_iter)


def find_alpha_star(dpsi, alpha0=1.0, beta0=2.0, eps=1e-6, max_iter=200):
    """Locate the minimizer of psi by bisection on its monotone derivative.

    ``dpsi(alpha)`` is psi', the only thing the search reads.  Returns
    ``(alpha_star, trace)``, the trace a tuple of :class:`TraceRow`.
    ``alpha_star`` is the left endpoint of the final bracket (width below
    ``eps``), or the midpoint when the derivative hits zero to within
    1e-12, or exactly 0.0 when the left endpoint was halved below 1e-12 with
    the derivative still positive, which certifies the recession branch
    because psi' is nondecreasing.

    The termination check runs after the row is recorded, so the final
    bracket appears in the trace.
    """
    a, b, eps = _check_bracket_args(alpha0, beta0, eps, max_iter)
    da, db = dpsi(a), dpsi(b)
    rows = []
    for n in range(1, max_iter + 1):
        if da < 0.0 < db:
            mid = 0.5 * (a + b)
            dm = dpsi(mid)
            rows.append(TraceRow(n, a, mid, b, da, dm, db))
            if b - a < eps:
                return a, tuple(rows)
            if abs(dm) < _ZERO_TOL:
                return mid, tuple(rows)
            if dm < 0.0:
                a, da = mid, dm
            else:
                b, db = mid, dm
        else:
            rows.append(TraceRow(n, a, None, b, da, None, db))
            if abs(da) < _ZERO_TOL:
                return a, tuple(rows)
            if abs(db) < _ZERO_TOL:
                return b, tuple(rows)
            if da > 0.0:
                b, db = a, da
                a = 0.5 * a
                if a < _ALPHA_FLOOR:
                    return 0.0, tuple(rows)
                da = dpsi(a)
            else:
                a, da = b, db
                b = 2.0 * b
                db = dpsi(b)
    raise MaxIterationsExceeded(f"bracket search did not stabilize in {max_iter} steps")


def bisection_projection(set_, p, alpha0, beta0, eps=1e-6, max_iter=200,
                         force_iterative=False):
    """Project (y, s) onto the homogenization cone of the set by the paper's
    bisection :func:`find_alpha_star` from the bracket [alpha0, beta0], on
    every set, kernel or not (``homcone project --alpha0 --beta0``).

    ``eps`` is the absolute final bracket width and ``iterations`` counts the
    outer steps, whose trace the result keeps.  Validation, the rescale
    (bracket too), the membership shortcut (unless ``force_iterative``) and
    the answer are ``project_homogenization``'s.  A bad bracket, eps or
    max_iter is a ValueError before any work, and so is one that leaves the
    float64 range on that rescale or whose two ends round to one value there.
    """
    alpha0, beta0, eps = _check_bracket_args(alpha0, beta0, eps, max_iter)
    y, s = p
    y, s, e, n = _as_query(y, set_.dim, s, _SAFE_EXPONENT)
    if e:
        alpha0, beta0, eps = (_down(name, v, e) for name, v in
                              (("alpha0", alpha0), ("beta0", beta0), ("eps", eps)))
        if not alpha0 < beta0:
            raise ValueError("alpha0 and beta0 round to one value at this query's scale")
    found = None if force_iterative else _member(set_, y, s, math.hypot(n, s))
    if found is not None:
        return _result(found, 0, None, e)
    ev = PsiEvaluator._of_valid(set_, y, s, n)
    alpha_star, trace = find_alpha_star(ev.psi_prime, alpha0, beta0, eps, max_iter)
    return _result(_answer(ev, alpha_star), len(trace), trace, e)


def _down(name, v, e) -> float:
    """v 2^-e, the bracket value `name` on the query's rescale; ValueError
    where that underflows to 0 or exceeds the float64 range."""
    try:
        v = math.ldexp(v, -e)
    except OverflowError:
        v = 0.0
    if v == 0.0:
        raise ValueError(f"{name} leaves the float64 range at this query's scale")
    return v


# ---------------------------------------------------------------------------
# Built-in reference instance and its trace
# ---------------------------------------------------------------------------

#: Worked instance behind the bundled reference trace: the disc centred at
#: (1, 0) with radius 1, query point ((1, 2), 1), bracket [3, 5], eps 1e-6.
REFERENCE_CENTER = (1.0, 0.0)
REFERENCE_RADIUS = 1.0
REFERENCE_QUERY = ((1.0, 2.0), 1.0)
REFERENCE_BRACKET = (3.0, 5.0)
REFERENCE_EPS = 1e-6


def reference_trace():
    """Recompute the 23-row reference bisection trace; returns (alpha*, trace).

    psi' of the disc is evaluated with the outside-the-ball radial expression
    on both branches, the convention the bundled trace was generated under.
    It differs from the projector-based derivative only where y/alpha lies
    inside the scaled ball (there the true derivative of phi is zero); the
    sign, and hence the bracket decisions, agree on the reference instance.
    """
    (z1, z2), r = REFERENCE_CENTER, REFERENCE_RADIUS
    (y1, y2), s = REFERENCE_QUERY

    def dpsi(alpha):
        w1, w2 = y1 - alpha * z1, y2 - alpha * z2
        nw = math.sqrt(w1 * w1 + w2 * w2)
        slope = z1 * w1 + z2 * w2 + r * nw
        return -2.0 * (1.0 - alpha * r / nw) * slope + 2.0 * (alpha - s)

    return find_alpha_star(dpsi, *REFERENCE_BRACKET, eps=REFERENCE_EPS, max_iter=200)


# Expected rows of the reference bisection trace, in the CSV fields that
# `trace_csv` formats.  Two derivative entries of the upstream reference table
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


def trace_csv(trace):
    """A trace as CSV lines (``homcone table1``, ``homcone project --trace``):
    the header, then per row n, alpha, mid and beta to 8 significant digits
    with trailing zeros kept and the three derivative values to 3, a missing
    midpoint as empty fields."""
    return ["n,alpha,mid,beta,dpsi_alpha,dpsi_mid,dpsi_beta",
            *(",".join([str(r.n), *("" if x is None else f"{x:#.8g}" for x in r[1:4]),
                        *("" if x is None else f"{x:.2e}" for x in r[4:])])
              for r in trace)]


# ---------------------------------------------------------------------------
# Figure point clouds
# ---------------------------------------------------------------------------

#: Heights at which the boundary rays of the cones are sampled.
_RHO_LEVELS = (0.4, 0.8, 1.2, 1.6, 2.0)


def _curve(fn, t0, t1, density, endpoint=True):
    """fn at `density` evenly spaced points of [t0, t1], t1 only if `endpoint`."""
    return [fn(t) for t in np.linspace(t0, t1, density, endpoint=endpoint)]


def _polygon(vertices, density):
    """Closed polygon boundary, `density` points per edge (its end excluded)."""
    v = np.asarray(vertices, dtype=float)
    return [x for a, b in zip(v, np.roll(v, -1, axis=0))
            for x in _curve(lambda t: a + t * (b - a), 0.0, 1.0, density, False)]


def _circle(center, radius, density, t0=0.0, t1=2.0 * math.pi, endpoint=False):
    """The arc of the circle from angle t0 to t1 (the whole circle, open at 0)."""
    cx, cy = center
    return _curve(lambda t: (cx + radius * math.cos(t), cy + radius * math.sin(t)),
                  t0, t1, density, endpoint)


def _figure_fig41(density):
    return (_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)], density),
            _polygon([(1, 1), (-1, 1), (-1, -1), (1, -1)], density), [])


def _figure_fig31(density):
    primal = _curve(lambda t: (1.0 - math.hypot(1.0, t), t), -3.0, 3.0, density)
    polar = (_curve(lambda t: (t, t), 0.0, 1.0, density, False)
             + _curve(lambda t: (t, -t), 0.0, 1.0, density, False)
             + _curve(lambda t: (0.5 * (1.0 + t * t), t), -1.0, 1.0, density))
    return primal, polar, []


def _figure_fig22(density):
    arc = _circle((0.0, 0.0), 1.0, density, math.pi, 2.0 * math.pi, endpoint=True)
    primal = (arc + _curve(lambda t: (1.0, t), 0.0, 2.0, density)
              + _curve(lambda t: (-1.0, t), 0.0, 2.0, density))
    return primal, arc + _curve(lambda t: (t, 0.0), -1.0, 1.0, density), []


def _figure_fig2a(density):
    primal = _circle(REFERENCE_CENTER, REFERENCE_RADIUS, density)
    polar = _curve(lambda t: (0.5 * (1.0 - t * t), t), -3.0, 3.0, density)
    y, s = REFERENCE_QUERY
    x = bisection_projection(EuclideanBall(REFERENCE_CENTER, REFERENCE_RADIUS), (y, s),
                             *REFERENCE_BRACKET, eps=REFERENCE_EPS).point
    return primal, polar, [("query", *y, s), ("projection", *x.y, x.s)]


#: The figures by name: each maps a density to the boundary points c of C,
#: the boundary points w of its polar set and the marked (label, x1, x2, x3).
FIGURES = {
    "fig41": _figure_fig41,
    "fig31": _figure_fig31,
    "fig22": _figure_fig22,
    "fig2a": _figure_fig2a,
}


def figure_csv(name, density):
    """The CSV lines of figure `name` (``homcone figure``): the header, the
    cone's rays rho (c, 1) and the polar cone's rays rho (w, -1) at five
    heights rho, `density` points per boundary piece, then the marked points."""
    if density < 1:
        raise ValueError("density must be at least 1")
    primal, polar, marked = FIGURES[name](density)
    rows = [*(("cone", rho * c[0], rho * c[1], rho) for c in primal for rho in _RHO_LEVELS),
            *(("polar", rho * w[0], rho * w[1], -rho) for w in polar for rho in _RHO_LEVELS),
            *marked]
    return ["label,x1,x2,x3", *(f"{label},{x1:.8g},{x2:.8g},{x3:.8g}"
                                 for label, x1, x2, x3 in rows)]
