"""Projection onto the homogenization cone K = cl cone(C x {1}).

The unique minimizer alpha* >= 0 of psi (see :mod:`homcone.scaledfun`)
determines the projection:

    P_K(y, s) = (P_rec(y), 0)                       if alpha* = 0,
                (alpha* P_C(y / alpha*), alpha*)    if alpha* > 0.

alpha* is the root of the monotone derivative psi' on the a priori bracket
[0, s+ + ||(y, s)||], found by a safeguarded Brent iteration
(:mod:`homcone.roots`), the library's one root loop on psi', to a tolerance
relative to alpha*; for bounded sets the support function decides the
recession branch without a projector call.  Every step scales with the
query, so P_K(t v) = t P_K(v) holds to the tolerance at every scale.  A set
whose cone has an exact projector answers through its ``_project_cone``
kernel instead, with no psi' iteration (:mod:`homcone.sets` documents the
kernels); any set without one takes the solver, and ``force_iterative``
selects it on every set.  Without a kernel, a query in K takes the
membership shortcut :func:`_member`, unless ``force_iterative``, and the
solver's answer reads P_C(y / alpha*) from the evaluator's memo.  Each
route yields (alpha*, x, branch) with its iterations and trace, and one
site, which names no set class, scales them back and builds the result.
The paper's bisection, :func:`homcone.paper.bisection_projection`, shares
the shortcut, the answer and the site.

Each entry point validates its query in one pass (a finite y of the set's
dimension and a finite height s), which also sizes it: one whose largest
entry lies beyond 2^(+-500) is projected on its exact power-of-2 rescale,
ahead of the kernel and the solver alike, so neither forms a squared norm
that overflows or underflows.  Everything after the pass calls the sets'
unchecked kernels (see :mod:`homcone.sets`).

The polar cone of K is cl cone(C° x {-1}), with C° = {sigma_C <= 1} the
polar set (``ConvexSet.polar``): (y, s) belongs to it iff sigma_C(y) + s <= 0,
which fails for every s > 0 because C contains the origin.  Its slice at
s = 0 is the polar cone of C (:func:`homogenization_polar_membership`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .roots import _ROOT_RTOL, brent_root
from .scaledfun import PsiEvaluator
from .sets import MEMBERSHIP_TOL, Branch, _as_query, _as_tolerance, _ldexp_array

#: Queries whose largest entry has a binary exponent beyond this are projected
#: on an exact power-of-2 rescale, so that squared norms neither overflow nor
#: underflow; within it answers are computed as given.
_SAFE_EXPONENT = 500


class ConePoint(NamedTuple):
    """A point (y, s) of X x R, the argument of the cone projector."""

    y: np.ndarray
    s: float


class TraceRow(NamedTuple):
    """One step of a root search on psi'; a trace is a tuple of these.

    On the Brent path the first row is the a priori bracket (no midpoint) and
    each later row one trial point, in ``mid``, inside that step's bracket.
    The paper's bisection (:mod:`homcone.paper`) records a midpoint only on
    its bisection steps, not on its bracket moves.
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
# Root search on psi'
# ---------------------------------------------------------------------------

def _check_solver_args(eps, max_iter):
    """ValueError for an eps that is not positive and finite, or a max_iter
    that is not an integer (a Python or numpy one, not a bool) of at least 1."""
    if not 0.0 < float(eps) < math.inf:
        raise ValueError("eps must be positive and finite")
    # type() first, which also rejects a bool: isinstance against np.integer
    # is slow next to a whole kernel query.
    if type(max_iter) is not int and not isinstance(max_iter, np.integer):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


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
    return brent_root(psi_prime, lo, hi, f_lo, f_hi, 0.0, max(eps, _ROOT_RTOL),
                      max_iter, calls)


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

def _member(set_, y, s, scale, e) -> Optional[ProjectionResult]:
    """The ALREADY_IN_K result of a query in K, else None: rays over C or, for
    heights within 1e-12 scale = ||(y, s)|| of 0, recession directions, to
    MEMBERSHIP_TOL.  ``e`` is the query's rescale (see :func:`_query`)."""
    height_tol = 1e-12 * scale
    if s > height_tol:
        inside = set_._contains(y / s, MEMBERSHIP_TOL)
    else:
        inside = s >= -height_tol and set_._recession_distance(y) <= MEMBERSHIP_TOL * scale
    if inside:
        return _result((s if s > 0.0 else 0.0, y.copy(), Branch.ALREADY_IN_K), 0, None, e)
    return None


def project_homogenization(set_, p, eps=1e-6, max_iter=200, force_iterative=False,
                           keep_trace=False) -> ProjectionResult:
    """Project (y, s) onto the homogenization cone of the set.

    The query is validated in one pass, which also sizes it: one whose
    largest entry lies beyond 2^(+-500) is projected on its exact power-of-2
    rescale, and the answer and trace are scaled back.  The set's
    ``_project_cone`` kernel answers exactly where it has one, with
    ``iterations`` 0; where it returns None alpha* is solved for by Brent's
    method on psi', with ``eps`` relative to alpha* and ``iterations`` the
    psi' evaluations, at most ``max_iter``.  ``force_iterative`` bypasses
    the kernel and the membership shortcut.  An ``eps`` that is not positive
    and finite, and a ``max_iter`` that is not an integer of at least 1, are
    a ValueError before any work.
    """
    _check_solver_args(eps, max_iter)
    y, s, e = _query(set_, p)
    found = None if force_iterative else set_._project_cone(y, s)
    if found is not None:
        return _result(found, 0, None, e)
    scale = math.hypot(float(np.linalg.norm(y)), s)
    member = None if force_iterative else _member(set_, y, s, scale, e)
    if member is not None:
        return member
    ev = PsiEvaluator._of_valid(set_, y, s)
    rows = [] if keep_trace else None
    alpha_star, iterations = _alpha_star(ev, scale, eps, max_iter, rows)
    return _result(_answer(ev, alpha_star), iterations,
                   None if rows is None else tuple(rows), e)


def _query(set_, p):
    """``(y, s, e)``: the query validated in one pass and, where its largest
    entry lies beyond 2^(+-500), rescaled exactly by 2^-e (else e is 0)."""
    y, s = p
    y, s, e = _as_query(y, set_.dim, s)
    if abs(e) <= _SAFE_EXPONENT:
        return y, s, 0
    return np.ldexp(y, -e), math.ldexp(s, -e), e


def _answer(ev, alpha_star):
    """``(alpha*, x, branch)`` for the minimizer alpha* of ev's psi."""
    if alpha_star == 0.0:
        return 0.0, ev.set._project_recession(ev.y), Branch.RECESSION
    # alpha* is almost always a point psi' was just evaluated at: the memo's.
    return alpha_star, alpha_star * ev._at(alpha_star)[2], Branch.CONE_INTERIOR


def _result(found, iterations, trace, e) -> ProjectionResult:
    """The one site that builds a ProjectionResult: the (alpha*, x, branch)
    found for a query rescaled by 2^-e (see :func:`_query`), scaled back."""
    alpha_star, x, branch = found
    if e:
        # P_K and psi' are positively homogeneous and the rescale is exact.
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


# ---------------------------------------------------------------------------
# Polar cone
# ---------------------------------------------------------------------------

def homogenization_polar_membership(set_, p, tol=MEMBERSHIP_TOL) -> bool:
    """Membership of (y, s) in the polar cone of K; at s = 0, of y in the
    polar cone of C.

    True iff sigma_C(y) + s <= tol ||(y, s)||, a band relative to the query,
    as the set is a cone, so (t y, t s) is answered alike at every scale
    t > 0.  No division by s: a height near 0 needs no branch.  Both sides
    are taken on the exact power-of-2 rescale of the query, where neither
    sigma_C nor the norm can overflow.  A tolerance that is not finite and
    nonnegative is a ValueError.
    """
    y, s = p
    y, s, e = _as_query(y, set_.dim, s)
    tol = _as_tolerance(tol)
    y, s = np.ldexp(y, -e), math.ldexp(s, -e)
    return set_._support(y) + s <= tol * math.hypot(float(np.linalg.norm(y)), s)
