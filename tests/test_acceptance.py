"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass line on success; pytest reports the failure
otherwise.  Criterion 1 carries a strict variant, marked xfail, that compares
against the upstream reference table verbatim: two of its printed derivative
entries are internally inconsistent with its own update rule (see the frozen
table note) and cannot be reproduced by any evaluation.
"""

import math
import time

import numpy as np
import pytest

from homcone import (
    BallPen,
    Branch,
    EuclideanBall,
    PsiEvaluator,
    homogenization_polar_membership,
    project_homogenization,
)
from homcone.paper import (
    REFERENCE_TABLE,
    bisection_projection,
    find_alpha_star,
    quartic_coefficients,
    reference_trace,
)
from oracle import OracleConfig, brute_force_alpha_star
from set_catalog import CORE, pairs

from test_homproj import format_rows


def _pass(name):
    print(f"[acceptance] {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Reference-table reproduction
# ---------------------------------------------------------------------------

def test_table1_reproduction():
    alpha_star, trace = reference_trace()  # warm-up
    t0 = time.perf_counter()
    alpha_star, trace = reference_trace()
    elapsed = time.perf_counter() - t0

    rows = format_rows(trace)
    assert len(rows) == 23
    assert rows == list(REFERENCE_TABLE)
    assert abs(alpha_star - 1.4597189) < 5e-8
    assert elapsed < 0.010

    # The two corrected entries genuinely deviate from the upstream print of
    # -1.310e0; everything else matches it verbatim.
    assert rows[2][5] == "-1.40e+00" != "-1.31e+00"
    assert rows[3][4] == "-1.40e+00" != "-1.31e+00"
    _pass("table1 reproduction (23 rows, alpha* to 8 digits, <10ms)")


UPSTREAM_PRINTED_TRACE = [
    list(row) for row in REFERENCE_TABLE
]
UPSTREAM_PRINTED_TRACE[2][5] = "-1.31e+00"
UPSTREAM_PRINTED_TRACE[3][4] = "-1.31e+00"


@pytest.mark.xfail(
    reason=(
        "rows 3-4 of the upstream reference table print the midpoint "
        "derivative as -1.310e0, which is inconsistent with the table's own "
        "update rule; recomputation from its derivative expression gives "
        "-1.3981560 (-1.40e0 at 3 significant digits)"
    ),
    strict=True,
)
def test_table1_reproduction_strict_printed_values():
    _, trace = reference_trace()
    assert [list(r) for r in format_rows(trace)] == UPSTREAM_PRINTED_TRACE


# ---------------------------------------------------------------------------
# 2. Projection value
# ---------------------------------------------------------------------------

def test_projection_value():
    ball = EuclideanBall((1.0, 0.0), 1.0)
    res = bisection_projection(ball, ((1.0, 2.0), 1.0), 3.0, 5.0)
    assert abs(res.point.y[0] - 1.1327162) < 1e-6
    assert abs(res.point.y[1] - 1.4226203) < 1e-6
    assert abs(res.point.s - 1.4597189) < 1e-6
    _pass("projection value ((1.1327162, 1.4226203), 1.4597189) within 1e-6")


# ---------------------------------------------------------------------------
# 3. Quartic consistency
# ---------------------------------------------------------------------------

def test_quartic_consistency():
    q = quartic_coefficients((1.0, 0.0), 1.0, (1.0, 2.0), 1.0)
    assert q == (-5.0, -38.0, 44.0, -18.0, 5.0)
    alpha_star, _ = reference_trace()
    assert abs(q.residual(alpha_star)) < 1e-4
    _pass("quartic residual < 1e-4 and coefficients (-5, -38, 44, -18, 5) exact")


# ---------------------------------------------------------------------------
# 4. Ice cream equivalence
# ---------------------------------------------------------------------------

def test_ice_cream_equivalence():
    rng = np.random.default_rng(2022)
    counts = {Branch.ALREADY_IN_K: 0, Branch.RECESSION: 0, Branch.CONE_INTERIOR: 0}
    worst = 0.0
    t0 = time.perf_counter()
    for gamma in (0.5, 1.0, 2.0):
        ball = EuclideanBall((0.0, 0.0), gamma)
        for _ in range(1000):
            y = rng.uniform(-10, 10, 2)
            s = rng.uniform(-10, 10)
            fast = project_homogenization(ball, (y, s))
            slow = project_homogenization(ball, (y, s), force_iterative=True)
            err = math.hypot(
                float(np.linalg.norm(fast.point.y - slow.point.y)),
                fast.point.s - slow.point.s,
            )
            worst = max(worst, err)
            counts[fast.branch] += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert all(c >= 50 for c in counts.values()), counts
    assert elapsed < 2.0
    _pass(
        "ice cream closed form vs bracket search within 1e-5 "
        f"(branches {counts[Branch.ALREADY_IN_K]}/{counts[Branch.RECESSION]}/"
        f"{counts[Branch.CONE_INTERIOR]}, {elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 5. Ball-pen equivalence and polar-cone consistency
# ---------------------------------------------------------------------------

def test_ball_pen_equivalence():
    rng = np.random.default_rng(2023)
    pen = BallPen((0.0, 1.0))
    counts = {Branch.ALREADY_IN_K: 0, Branch.RECESSION: 0, Branch.CONE_INTERIOR: 0}
    worst = 0.0
    polar_checked = 0
    t0 = time.perf_counter()
    for _ in range(1000):
        y = rng.uniform(-10, 10, 2)
        s = rng.uniform(-10, 10)
        fast = project_homogenization(pen, (y, s))
        slow = project_homogenization(pen, (y, s), force_iterative=True)
        err = math.hypot(
            float(np.linalg.norm(fast.point.y - slow.point.y)),
            fast.point.s - slow.point.s,
        )
        worst = max(worst, err)
        counts[fast.branch] += 1
        member = homogenization_polar_membership(pen, (y, s))
        at_apex = math.hypot(float(np.linalg.norm(fast.point.y)), fast.point.s) <= 1e-6
        assert member == at_apex
        polar_checked += member
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert all(c >= 50 for c in counts.values()), counts
    assert polar_checked > 0
    assert elapsed < 2.0
    _pass(
        "ball-pen closed form vs bracket search within 1e-5, polar-cone "
        f"membership consistent on {polar_checked} hits ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 6. Moreau decomposition
# ---------------------------------------------------------------------------

def test_moreau_decomposition():
    rng = np.random.default_rng(2024)
    for gamma in (0.5, 1.0, 2.0):
        for _ in range(1000):
            y = rng.uniform(-10, 10, 2)
            s = rng.uniform(-10, 10)
            pk = project_homogenization(EuclideanBall((0.0, 0.0), gamma), (y, s))
            dual = project_homogenization(EuclideanBall((0.0, 0.0), 1.0 / gamma), (y, -s))
            m_y, m_s = dual.point.y, -dual.point.s
            split = math.hypot(
                float(np.linalg.norm(y - pk.point.y - m_y)),
                s - pk.point.s - m_s,
            )
            inner = float(pk.point.y @ m_y) + pk.point.s * m_s
            assert split < 1e-7
            assert abs(inner) < 1e-7
    _pass("Moreau decomposition via the dual ball 1/gamma within 1e-7")


# ---------------------------------------------------------------------------
# 7. Polar catalog
# ---------------------------------------------------------------------------

def test_polar_catalog():
    from test_polar import polar_cases

    rng = np.random.default_rng(2025)
    total = 0
    for name, set_, box in polar_cases():
        polar = set_.polar()
        pts = rng.uniform(-box, box, size=(10_000, set_.dim))
        for y in pts:
            sigma = set_.support(y)
            if not math.isinf(sigma) and abs(sigma - 1.0) < 1e-7:
                continue
            assert polar.contains(y, tol=1e-9) == (sigma <= 1.0 + 1e-9), (
                name,
                y,
                sigma,
            )
            total += 1
    _pass(f"polar catalog closed forms agree with the sigma oracle on {total} points")


# ---------------------------------------------------------------------------
# 8. Derivative checks
# ---------------------------------------------------------------------------

def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_derivative_checks():
    rng = np.random.default_rng(2026)
    variants = [set_ for _, set_ in pairs(CORE, projectable=True)]
    h = 1e-6
    for set_ in variants:
        accepted = 0
        attempts = 0
        while accepted < 100 and attempts < 5000:
            attempts += 1
            ev = PsiEvaluator(set_, rng.uniform(-8, 8, set_.dim), rng.uniform(-8, 8))
            alpha = rng.uniform(0.2, 5.0)
            fd1 = _central(ev.phi, alpha, h)
            fd2 = _central(ev.phi, alpha, 0.5 * h)
            # Smooth-point filter: the stencil must be self consistent and
            # the slope large enough for a relative comparison.
            if abs(fd1) < 1e-2 or abs(fd1 - fd2) > 1e-4 * max(1.0, abs(fd1)):
                continue
            assert abs(ev.phi_prime(alpha) - fd1) < 1e-5 * abs(fd1)
            accepted += 1
        assert accepted == 100, (type(set_).__name__, accepted, attempts)

    # Midpoint convexity of psi on 10000 sampled triples.
    triples = 0
    while triples < 10_000:
        set_ = variants[triples % len(variants)]
        ev = PsiEvaluator(set_, rng.uniform(-8, 8, set_.dim), rng.uniform(-8, 8))
        a1, a2 = sorted(rng.uniform(0.0, 15.0, 2))
        t = rng.uniform(0.0, 1.0)
        mid = t * a1 + (1.0 - t) * a2
        assert ev.psi(mid) <= t * ev.psi(a1) + (1.0 - t) * ev.psi(a2) + 1e-9
        triples += 1
    _pass("derivatives match central differences (rel 1e-5); psi midpoint-convex")


# ---------------------------------------------------------------------------
# 9. Oracle agreement
# ---------------------------------------------------------------------------

def test_oracle_agreement():
    rng = np.random.default_rng(2027)
    variants = [set_ for _, set_ in pairs(CORE, projectable=True)]
    cfg = OracleConfig(grid_points=1500, alpha_max=80.0, samples=1000, seed=11)
    worst = 0.0
    for i in range(200):
        set_ = variants[i % len(variants)]
        ev = PsiEvaluator(set_, rng.uniform(-10, 10, set_.dim), rng.uniform(-10, 10))
        bf = brute_force_alpha_star(ev, cfg)
        fa, _ = find_alpha_star(ev)
        worst = max(worst, abs(bf - fa))
    assert worst < 1e-4
    _pass(f"brute-force and bracket-search minimizers agree (worst {worst:.2e})")
