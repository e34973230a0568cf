"""Moreau certificate of a projection onto K and the reference alpha*.

With v = (y, s), p = P_K(v) as returned and q = v - p, p is the projection iff
p is in K, q is in the polar cone K° = {(y, s) : s + sigma_C(y) <= 0} and
<p, q> = 0.  The certificate is the largest of the three residuals, each
relative to ||v||, and checks the answer without trusting the root finder.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

#: Relative certificate bound above which an answer counts as a failure.  It
#: admits the accuracy the program is designed for (an absolute eps of 1e-6
#: on alpha at unit scale).
CERT_TOL = 1e-4


def dual_residual(geom, yq, sq, scale):
    """max(0, s_q + sigma_C(y_q)) / scale, finite for unbounded sets.

    For a ball-pen sigma_C is +inf as soon as <d, y_q> > 0, which roundoff
    produces on exact answers.  The residual there is the distance-like
    quantity <d, y_q>+ + (s_q + ||y_q - <d, y_q>+ d||)+ instead, which is
    zero exactly on K° and grows continuously off it.
    """
    if geom.bounded:
        return max(0.0, sq + geom.support(yq)) / scale
    along = max(0.0, float(geom.d @ yq))
    rest = float(np.linalg.norm(yq - along * geom.d))
    return (along + max(0.0, sq + rest)) / scale


def primal_residual(set_, geom, py, ps, scale):
    """Distance from p = (py, ps) to K, relative to scale, via P_C."""
    if ps <= 0.0:
        rec = geom.project_recession(py)
        return (float(np.linalg.norm(py - rec)) - min(ps, 0.0)) / scale
    c = py / ps
    return ps * float(np.linalg.norm(c - set_.project(c))) / scale


def certificate(set_, geom, y, s, py, ps):
    """Relative Moreau certificate of the answer (py, ps) for the query (y, s)."""
    scale = float(np.sqrt(float(y @ y) + s * s))
    yq, sq = y - py, s - ps
    orth = abs(float(py @ yq) + ps * sq) / (scale * scale)
    return max(primal_residual(set_, geom, py, ps, scale),
               dual_residual(geom, yq, sq, scale), orth)


class ReferenceFailure(Exception):
    """The reference solve could not bracket or evaluate the root."""


def reference_alpha(hc, set_, y, s, xtol=1e-14):
    """alpha* / ||v|| by brentq on the public psi', solved at unit scale.

    psi' of the scaled query t v at t a equals t times psi' of v at a, so the
    root for v / ||v|| times ||v|| is the root for v.  At unit scale
    0 <= alpha* <= s+ + 1 because psi(alpha*) <= psi(0) <= ||v||^2.  The
    left end 1e-12 certifies alpha* = 0 when psi' is already nonnegative there.
    """
    scale = float(np.sqrt(float(y @ y) + s * s))
    try:
        ev = hc.PsiEvaluator(set_, y / scale, s / scale)
        lo, hi = 1e-12, max(s / scale, 0.0) + 1.0 + 1e-9
        if ev.psi_prime(lo) >= 0.0:
            return 0.0
        if ev.psi_prime(hi) <= 0.0:
            raise ReferenceFailure("psi' is not positive at the a priori bound")
        return brentq(ev.psi_prime, lo, hi, xtol=xtol, maxiter=500)
    except ReferenceFailure:
        raise
    except Exception as exc:  # any failure of the reference itself
        raise ReferenceFailure(f"{type(exc).__name__}: {exc}") from exc
