"""Projection onto the homogenization cone K = cl cone(C x {1}).

The unique minimizer alpha* >= 0 of psi (see :mod:`homcone.scaledfun`)
determines the projection:

    P_K(y, s) = (P_rec(y), 0)                       if alpha* = 0,
                (alpha* P_C(y / alpha*), alpha*)    if alpha* > 0.

By default alpha* is the root of the monotone derivative psi' on the a priori
bracket [0, s+ + ||(y, s)||], found by a safeguarded Brent iteration
(:mod:`homcone.roots`) to a tolerance relative to alpha*; for bounded sets
the support function decides the recession branch without a projector call.
Every step scales with the query, so P_K(t v) = t P_K(v) holds to the
tolerance at every scale.  A set whose cone has an exact projector answers
through its ``_project_cone`` kernel instead, with no psi' iteration
(:mod:`homcone.sets` documents the kernels); any set without one takes the
solver.  A caller-given bracket selects the reference bisection
:func:`find_alpha_star` on every set, kernel or not, as ``force_iterative``
selects the solver.  A query whose largest entry lies beyond 2^(+-500) is
projected on its exact power-of-2 rescale, ahead of the kernel and the
solver alike, so neither forms a squared norm that overflows or underflows.
The kernel and the solver both yield (alpha*, x, branch) with their
iterations and trace, and one site, which names no set class, scales them
back and builds the result.

Each entry point validates its query in one pass (a finite y of the set's
dimension and a finite height s), which also sizes it for the rescale;
everything after that calls the sets' unchecked kernels (see
:mod:`homcone.sets`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import MaxIterationsExceeded
from .roots import brent_root
from .scaledfun import PsiEvaluator
from .sets import _ROOT_RTOL, MEMBERSHIP_TOL, Branch, _as_query, _ldexp_array

#: Queries whose largest entry has a binary exponent beyond this are projected
#: on an exact power-of-2 rescale, so that squared norms neither overflow nor
#: underflow; within it answers are computed as given.
_SAFE_EXPONENT = 500


class ConePoint(NamedTuple):
    """A point (y, s) of X x R, the argument of the cone projector."""

    y: np.ndarray
    s: float


class TraceRow(NamedTuple):
    """One outer step of the bracket search; a trace is a tuple of these.

    Bracket-move steps carry no midpoint; bisection steps record the midpoint
    and its derivative value.  On the default Brent path the first row is the
    a priori bracket (no midpoint) and each later row one trial point, in
    ``mid``, inside the bracket of that step.
    """

    n: int
    alpha: float
    mid: Optional[float]
    beta: float
    dpsi_alpha: float
    dpsi_mid: Optional[float]
    dpsi_beta: float


@dataclass(slots=True)
class ProjectionResult:
    alpha_star: float
    point: ConePoint
    branch: Branch
    iterations: int
    trace: Optional[tuple] = None


# ---------------------------------------------------------------------------
# Bracket search on psi'
# ---------------------------------------------------------------------------

#: Reference bisection: a derivative value within this of zero ends the
#: search, and halving the left end below this certifies the recession branch.
_ZERO_TOL = 1e-12
_ALPHA_FLOOR = 1e-12


def _check_solver_args(alpha0, beta0, eps, max_iter):
    """ValueError for a bad or non-finite bracket (when given), eps or max_iter."""
    if alpha0 is not None and not 0.0 < float(alpha0) < float(beta0) < math.inf:
        raise ValueError("require 0 < alpha0 < beta0, both finite")
    if not 0.0 < float(eps) < math.inf:
        raise ValueError("eps must be positive and finite")
    if not max_iter >= 1:
        raise ValueError("max_iter must be at least 1")


def find_alpha_star(ev, alpha0=1.0, beta0=2.0, eps=1e-6, max_iter=200):
    """Locate the minimizer of psi by bisection on its monotone derivative.

    ``ev`` needs only a ``psi_prime(alpha)`` method.  Returns
    ``(alpha_star, trace)``, the trace a tuple of :class:`TraceRow`.
    ``alpha_star`` is the left endpoint of the final bracket (width below
    ``eps``), or the midpoint when the derivative hits zero to within
    1e-12, or exactly 0.0 when the left endpoint was halved below 1e-12 with
    the derivative still positive, which certifies the recession branch
    because psi' is nondecreasing.

    The termination check runs after the row is recorded, so the final
    bracket appears in the trace.
    """
    _check_solver_args(alpha0, beta0, eps, max_iter)
    a, b = float(alpha0), float(beta0)
    da = ev.psi_prime(a)
    db = ev.psi_prime(b)
    rows = []
    n = 0
    while True:
        n += 1
        if n > max_iter:
            raise MaxIterationsExceeded(
                f"bracket search did not stabilize in {max_iter} steps"
            )
        if da < 0.0 < db:
            mid = 0.5 * (a + b)
            dm = ev.psi_prime(mid)
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
                da = ev.psi_prime(a)
            else:
                a, da = b, db
                b = 2.0 * b
                db = ev.psi_prime(b)


def _alpha_star(ev, scale, eps, max_iter, rows):
    """alpha* by Brent's method on psi' over [0, s+ + scale], scale = ||(y, s)||.

    The bracket holds because (alpha* - s)^2 <= psi(alpha*) <= psi(0) <=
    scale^2.  For bounded sets the left end is 0 with psi'(0+) from the
    support function; unbounded sets start from psi' at 1e-12 scale.  A
    nonnegative psi' at the left end certifies the recession branch.  The
    search stops when the bracket is narrower than ``eps`` alpha, with
    ``eps`` floored at ``_ROOT_RTOL`` as below a few ulps the bracket can no
    longer shrink, and returns the best iterate.  Returns
    ``(alpha_star, psi' evaluations)``; when ``rows`` is a list, one TraceRow
    per step is appended to it.
    """
    if scale == 0.0:
        return 0.0, 0
    psi_prime = ev.psi_prime
    if ev.set.bounded:
        lo, f_lo, calls = 0.0, ev.psi_prime_plus_zero(), 0
    else:
        lo = 1e-12 * scale
        f_lo, calls = psi_prime(lo), 1
    if f_lo >= 0.0:
        return 0.0, calls
    hi = max(ev.s, 0.0) + scale
    f_hi = psi_prime(hi)
    calls += 1
    if rows is not None:
        rows.append(TraceRow(1, lo, None, hi, f_lo, None, f_hi))
        psi_prime = _recorded(psi_prime, rows, lo, hi, f_lo, f_hi)
    if f_hi <= 0.0:
        # Only roundoff puts the root at or past the a priori bound.
        return hi, calls
    if calls >= max_iter:
        # Brent needs at least one evaluation inside (lo, hi).
        raise MaxIterationsExceeded(
            f"root search did not converge in {max_iter} evaluations"
        )
    alpha, n = brent_root(psi_prime, lo, hi, f_lo, f_hi, 0.0,
                          max(eps, _ROOT_RTOL), max_iter - calls)
    return alpha, calls + n


def _recorded(psi_prime, rows, lo, hi, f_lo, f_hi):
    """psi_prime that appends a TraceRow per call.  psi' is monotone, so the
    sign of each value moves one end of the bracket."""
    def step(alpha):
        nonlocal lo, hi, f_lo, f_hi
        d = psi_prime(alpha)
        rows.append(TraceRow(len(rows) + 1, lo, alpha, hi, f_lo, d, f_hi))
        if d < 0.0:
            lo, f_lo = alpha, d
        else:
            hi, f_hi = alpha, d
        return d

    return step


# ---------------------------------------------------------------------------
# General projection
# ---------------------------------------------------------------------------

def _in_cone(set_, y, s, scale) -> bool:
    """Membership of (y, s) in K via the disjoint split rays-over-C versus
    recession-at-height-0, to MEMBERSHIP_TOL; heights within 1e-12 scale of 0
    count as 0, with scale = ||(y, s)||."""
    height_tol = 1e-12 * scale
    if s < -height_tol:
        return False
    if s <= height_tol:
        return set_._recession_distance(y) <= MEMBERSHIP_TOL * scale
    return set_._contains(y / s, MEMBERSHIP_TOL)


def project_homogenization(set_, p, alpha0=None, beta0=None, eps=1e-6, max_iter=200,
                           force_iterative=False, keep_trace=False) -> ProjectionResult:
    """Project (y, s) onto the homogenization cone of the set.

    The query is validated in one pass, which also sizes it: one whose
    largest entry lies beyond 2^(+-500) is projected on its exact power-of-2
    rescale (a caller's bracket and width rescaled alike), and the answer and
    trace are scaled back.  Dispatch then runs on the rescaled query: the
    set's ``_project_cone`` kernel answers exactly where it has one, with
    ``iterations`` 0; where it returns None alpha* is solved for on psi'.
    ``force_iterative`` bypasses the kernel and the membership shortcut so
    the iterative route can be compared against the kernels.

    Without a bracket the solve is Brent's method on the a priori bracket,
    ``eps`` is relative to alpha*, ``max_iter`` bounds the psi' evaluations
    and ``iterations`` counts them.  A bracket ``alpha0 < beta0`` bypasses
    the kernel and selects the reference bisection :func:`find_alpha_star`
    on every set, with ``eps`` an absolute width and ``iterations`` its
    outer steps.  ``max_iter`` below 1, an ``eps`` that is not positive and
    finite, and a bracket that is not 0 < alpha0 < beta0 with both finite
    are a ValueError before any work.
    """
    if (alpha0 is None) != (beta0 is None):
        raise ValueError("give both alpha0 and beta0, or neither")
    _check_solver_args(alpha0, beta0, eps, max_iter)
    y, s = p
    y, s, e = _as_query(y, set_.dim, s)
    rescale = abs(e) > _SAFE_EXPONENT
    if rescale:
        # P_K is positively homogeneous and the rescale is exact.
        y, s = np.ldexp(y, -e), math.ldexp(s, -e)
        if alpha0 is not None:
            alpha0, beta0, eps = (math.ldexp(v, -e) for v in (alpha0, beta0, eps))
    found = None
    if not force_iterative and alpha0 is None:
        found = set_._project_cone(y, s)
    if found is None:
        found, iterations, trace = _solve(set_, y, s, alpha0, beta0, eps, max_iter,
                                          force_iterative, keep_trace)
    else:
        iterations, trace = 0, None
    alpha_star, x, branch = found
    if rescale:
        # psi' is positively homogeneous, so trace derivatives scale alike.
        alpha_star, x = _up(alpha_star, e), _ldexp_array(x, e)
        if trace is not None:
            trace = tuple(TraceRow(r.n, *(None if v is None else _up(v, e)
                                          for v in r[1:])) for r in trace)
    # tuple.__new__ skips the NamedTuple's Python-level constructor.
    return ProjectionResult(alpha_star, tuple.__new__(ConePoint, (x, alpha_star)),
                            branch, iterations, trace)


def _up(v, e) -> float:
    """v 2^e; OverflowError where it exceeds the float64 range."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        raise OverflowError("the projection exceeds the float64 range") from None


def _solve(set_, y, s, alpha0, beta0, eps, max_iter, force_iterative, keep_trace):
    """The solver route of :func:`project_homogenization` on a validated query
    within 2^(+-500): the membership shortcut, then the root search.  Returns
    ``((alpha*, x, branch), iterations, trace)``."""
    scale = math.hypot(float(np.linalg.norm(y)), s)
    if not force_iterative and _in_cone(set_, y, s, scale):
        return (s if s > 0.0 else 0.0, y.copy(), Branch.ALREADY_IN_K), 0, None
    ev = PsiEvaluator._of_valid(set_, y, s)
    if alpha0 is None:
        rows = [] if keep_trace else None
        alpha_star, iterations = _alpha_star(ev, scale, eps, max_iter, rows)
        trace = tuple(rows) if keep_trace else None
    else:
        alpha_star, trace = find_alpha_star(ev, alpha0, beta0, eps, max_iter)
        iterations = len(trace)
        trace = trace if keep_trace else None
    if alpha_star == 0.0:
        return (0.0, set_._project_recession(y), Branch.RECESSION), iterations, trace
    # alpha* is almost always a point psi' was just evaluated at.
    x = alpha_star * ev._projection(alpha_star)
    return (alpha_star, x, Branch.CONE_INTERIOR), iterations, trace
