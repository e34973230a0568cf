"""The breakpoint root behind the box, l1 and simplex kernels, above the size
at which it brackets its root by a strided sample before it sorts."""

import math
from fractions import Fraction

import numpy as np
import pytest

import homcone.sets as sets
from homcone import Box, Branch, L1Ball, PBall, Simplex, project_homogenization
from test_homproj import SCALES, kernel_queries

# Just above the sampling threshold, a power of 2, and the benchmark's size.
SIZES = (4 * sets._SAMPLE + 1, 4096, 20000)


def exact_root(t, slope, offset, u=None, w=None):
    """The root of F(x) = offset - slope x + sum max(u_i - w_i x, 0) as a
    Fraction.  Floats are dyadic, so over their largest denominator every
    sum below is an exact integer."""
    if w is None:
        u, w = t, np.ones_like(t)
    values = [slope, offset, *t.tolist(), *u.tolist(), *w.tolist()]
    den = max(v.as_integer_ratio()[1] for v in values)

    def num(v):
        n, d = v.as_integer_ratio()
        return n * (den // d)

    top, base = num(offset), num(slope)
    root = (top, base)
    for i in np.argsort(-t, kind="stable").tolist():
        top += num(u[i])
        base += num(w[i])
        # t_i > x_k = top / base, both sides times den * base > 0.
        if num(t[i]) * base > top * den:
            root = (top, base)
    return Fraction(*root)


def assert_exact(x, t, slope, offset, u=None, w=None):
    root = exact_root(t, slope, offset, u, w)
    if w is None:
        u, w = t, np.ones_like(t)
    scale = (abs(offset) + float(np.abs(u).sum())) / (slope + float(w.sum()))
    assert abs(Fraction(x) - root) <= 1e-14 * scale


def offset_for_rank(t, slope, j, u=None, w=None):
    """An offset that puts the root of F between the j-th and (j+1)-th
    largest breakpoints (above the largest for j = 0, below the least for
    j = n)."""
    if w is None:
        u, w = t, np.ones_like(t)
    order = np.argsort(-t, kind="stable")
    ts = t[order]
    upper = ts[j - 1] if j > 0 else ts[0] + 1.0
    lower = ts[j] if j < t.size else ts[-1] - 1.0
    x = 0.5 * (upper + lower)
    return (slope + float(w[order[:j]].sum())) * x - float(u[order[:j]].sum())


def shapes(t, rng, j):
    """The three call shapes with the root near rank j: the box's (weights
    b^2 for b in {0.5, 1, 2}, so that t = u / w exactly), the l1 and simplex
    cone's (unweighted, slope r^2) and the simplex threshold's (slope 0,
    breakpoints at most 0, the largest exactly 0)."""
    b = rng.choice((0.5, 1.0, 2.0), t.size)
    u, w = t * b * b, b * b
    yield (t, 1.0, offset_for_rank(t, 1.0, j, u, w), u, w)
    yield (t, 1.44, offset_for_rank(t, 1.44, j))
    d = t - float(t.max())
    yield (d, 0.0, offset_for_rank(d, 0.0, max(j, 1)))


def layouts(n, rng):
    """(name, breakpoints, rank of the root) on the layouts the sample must
    handle: spread, tied, one breakpoint active, all active, none active."""
    spread = rng.uniform(-3.0, 5.0, n)
    tied = rng.integers(-3, 4, n).astype(float)
    return [
        ("middle", spread, n // 2),
        ("top_tenth", spread, n // 10),
        ("bottom_tenth", spread, n - n // 10),
        ("tied", tied, int(np.count_nonzero(tied > 0.0))),
        ("one_active", spread, 1),
        ("all_active", spread, n),
        ("none_active", spread, 0),
    ]


@pytest.mark.parametrize("n", SIZES)
def test_breakpoint_root_is_the_exact_root(n):
    rng = np.random.default_rng(n)
    for _, t, j in layouts(n, rng):
        for args in shapes(t, rng, j):
            assert_exact(sets._breakpoint_root(*args), *args)


def test_breakpoint_root_up_to_the_threshold_is_the_sorted_formula():
    # At 4 _SAMPLE breakpoints and below, no bracket: the one sort, bit for bit.
    rng = np.random.default_rng(3)
    t = rng.uniform(-3.0, 5.0, 4 * sets._SAMPLE)
    for args in shapes(t, rng, 300):
        full = (*args, None, None)[:5]
        assert sets._breakpoint_root(*args) == sets._sorted_root(*full)[0]


def stride_layout(n, rng, sample_high):
    """Breakpoints whose stride-th entries, the sample, lie in [10, 20] and
    the rest in [0, 1], or the sample in [0, 1] and the rest in [10, 11],
    with F's root in the middle of the rest: the sample brackets the wrong
    cluster and misses."""
    step = n // sets._SAMPLE
    t = rng.uniform(0.0, 1.0, n)
    picked = np.zeros(n, dtype=bool)
    picked[::step] = True
    m = int(np.count_nonzero(picked))
    if sample_high:
        t[picked] = rng.uniform(10.0, 20.0, m)
        return t, m + (n - m) // 2
    t[~picked] += 10.0
    return t, (n - m) // 2


@pytest.fixture
def passes(monkeypatch):
    """The bracket (lo, hi) of every _window_root pass."""
    seen = []
    window_root = sets._window_root

    def counted(*args):
        seen.append(args[-2:])
        return window_root(*args)

    monkeypatch.setattr(sets, "_window_root", counted)
    return seen


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("sample_high", [True, False], ids=["miss_below", "miss_above"])
def test_a_missed_bracket_moves_to_the_side_of_the_root(n, sample_high, passes):
    rng = np.random.default_rng(n + sample_high)
    t, j = stride_layout(n, rng, sample_high)
    for args in shapes(t, rng, j):
        passes.clear()
        assert_exact(sets._breakpoint_root(*args), *args)
        # The first bracket misses, and so do the next 2 g ranks of the
        # sample where the sample has them; the whole side finds the root.
        assert len(passes) in (2, 3)
        (lo, hi), (lo_end, hi_end) = passes[-2:]
        if sample_high:
            assert lo_end == -math.inf and hi_end == lo
        else:
            assert hi_end == math.inf and lo_end == hi


@pytest.mark.parametrize("n", SIZES)
def test_a_near_miss_takes_the_next_sample_ranks(n, passes):
    # The sample is the rest shifted up by 0.2, about 2 g of its ranks: the
    # first bracket lies above F's root and the next 2 g ranks below it find it.
    rng = np.random.default_rng(n + 5)
    t = rng.uniform(0.0, 1.0, n)
    t[:: n // sets._SAMPLE] += 0.2
    for args in shapes(t, rng, n // 2):
        passes.clear()
        assert_exact(sets._breakpoint_root(*args), *args)
        (lo, hi), (lo_next, hi_next) = passes
        assert hi_next == lo and -math.inf < lo_next < lo


def large_kernel_sets(n, rng):
    zeros = rng.uniform(0.5, 2.0, n)
    zeros[::7] = 0.0
    return [
        ("box", Box(rng.uniform(0.5, 2.0, n))),
        ("box_zero_halfwidths", Box(zeros)),
        ("l1", L1Ball(1.2, dim=n)),
        ("simplex", Simplex(n)),
        ("pballinf", PBall(math.inf, 0.9, dim=n)),
    ]


@pytest.mark.parametrize("n", SIZES)
def test_large_cone_kernels_agree_with_the_generic_solver(n):
    # As test_cone_kernel_agrees_with_the_generic_solver, on the sampled path;
    # heights just above -sigma_C(y), and fractions of ||y||_1, put the root
    # among the middle and the lower breakpoints.
    rng = np.random.default_rng(n + 7)
    for name, set_ in large_kernel_sets(n, rng):
        branches = set()
        queries = kernel_queries(set_, rng, count=9)
        for frac in (-0.5, -0.9, -0.999):
            y = rng.uniform(-4.0, 4.0, n)
            queries.append((y, frac * set_.support(y)))
        for frac in (2.0 / n, 0.3):
            y = rng.uniform(-4.0, 4.0, n)
            queries.append((y, frac * float(np.abs(y).sum())))
        for y, s in queries:
            for t in SCALES:
                v = (t * y, t * s)
                v_norm = math.hypot(float(np.linalg.norm(v[0])), v[1])
                fast = project_homogenization(set_, v)
                slow = project_homogenization(set_, v, eps=1e-13, force_iterative=True)
                branches.add(fast.branch)
                assert fast.iterations == 0
                assert abs(fast.alpha_star - slow.alpha_star) <= 1e-12 * v_norm, name
                assert float(np.linalg.norm(fast.point.y - slow.point.y)) <= 1e-12 * v_norm, name
        assert branches == set(Branch), name


@pytest.mark.parametrize("n", SIZES)
def test_large_l1_and_simplex_projectors_sum_to_the_radius(n):
    # P_C through the sampled threshold: on the boundary, and max(v - theta, 0)
    # for the one theta the exact root gives.
    rng = np.random.default_rng(n + 11)
    v = rng.uniform(-2.0, 3.0, n)
    for set_, radius, target in ((L1Ball(2.5, dim=n), 2.5, np.abs(v)), (Simplex(n), 1.0, v)):
        x = np.abs(set_.project(v))
        assert abs(float(x.sum()) - radius) <= 1e-12 * float(np.abs(v).sum())
        d = target - float(target.max())
        theta = float(target.max()) + float(exact_root(d, 0.0, -radius))
        np.testing.assert_allclose(x, np.maximum(target - theta, 0.0), rtol=0, atol=1e-13)
