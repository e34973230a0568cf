"""The breakpoint root behind the box, l1 and simplex kernels, above the size
at which Newton steps from the root on a strided sample replace the sort."""

import math
import operator
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

import homcone.roots as roots
from homcone import Box, Branch, L1Ball, PBall, Simplex, project_homogenization
from set_catalog import CATALOG, params
from test_homproj import SCALES, kernel_branch, kernel_queries

# Just above the sampling threshold, a power of 2, and the benchmark's size.
SIZES = (4 * roots._SAMPLE + 1, 4096, 20000)


def exact_root(t, slope, offset, u=None, w=None):
    """The root of F(x) = offset - slope x + sum max(u_i - w_i x, 0) as a
    Fraction, from floats or Fractions: t = u / w orders the breakpoints,
    and offset, slope, u and w have power-of-2 denominators, so over the
    largest one they are exact integers.

    With the breakpoints sorted down, the piece roots x_k = (offset + U_k) /
    (slope + W_k) rise while the k-th breakpoint exceeds x_(k-1) and fall
    after, so the root is x_k for the largest such k, which a bisection over
    the prefix sums finds."""
    t = t.tolist() if isinstance(t, np.ndarray) else list(t)
    if w is None:
        u, w = t, [1] * len(t)
    elif isinstance(w, np.ndarray):
        u, w = u.tolist(), w.tolist()
    order = sorted(range(len(t)), key=t.__getitem__, reverse=True)
    ratios = [v.as_integer_ratio() for v in (slope, offset, *u, *w)]
    bits = max(d for _, d in ratios).bit_length()
    slope, offset, *nums = [n << (bits - d.bit_length()) for n, d in ratios]
    u, w = nums[:len(t)], nums[len(t):]
    top = list(accumulate([u[i] for i in order], initial=offset))
    base = list(accumulate([w[i] for i in order], initial=slope))
    lo, hi = 0, len(t)
    while lo < hi:
        k = (lo + hi + 1) // 2
        i = order[k - 1]
        # t_i > x_(k-1), that is u_i > w_i top / base, with base > 0.
        if base[k - 1] == 0 or u[i] * base[k - 1] > w[i] * top[k - 1]:
            lo = k
        else:
            hi = k - 1
    return Fraction(top[lo], base[lo])


def assert_exact(x, t, slope, offset, u=None, w=None):
    root = exact_root(t, slope, offset, u, w)
    if w is None:
        u, w = t, np.ones_like(t)
    # Relative to the mean breakpoint, or to the root where it lies above it.
    scale = (abs(offset) + float(np.abs(u).sum())) / (slope + float(w.sum()))
    assert abs(Fraction(x) - root) <= 1e-14 * max(scale, abs(float(root)))


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


def spiked_layout(n, rng):
    """Ties at 1 with spikes 10, 6 and 3 at indices that no stride-th sample
    holds: the sample sees only the ties."""
    t = np.ones(n)
    off_sample = np.flatnonzero(np.arange(n) % (n // roots._SAMPLE))
    t[rng.choice(off_sample, 3, replace=False)] = (10.0, 6.0, 3.0)
    return t


def far_spiked_layout(n):
    """Ties at 1e-3 with spikes 100, 60 and 30 in the last three entries,
    the spike point: with the root between the first two spikes it lies
    far above the mean breakpoint."""
    t = np.full(n, 1e-3)
    t[-3:] = (100.0, 60.0, 30.0)
    return t


def layouts(n, rng):
    """(name, breakpoints, rank of the root) on the layouts the start must
    handle: spread, tied, one breakpoint active, all active, none active,
    geometric (1e3 2^-i, permuted; below 2^-1074 the tail ties at 0),
    spiked and far spiked.  Between them the sample root has every sample
    breakpoint above it (k = S) and none (k = 0); on the spiked layout,
    with the root between the spikes, k = S, and a bracket taken from the
    sample misses."""
    spread = rng.uniform(-3.0, 5.0, n)
    tied = rng.integers(-3, 4, n).astype(float)
    geometric = rng.permutation(1e3 * 2.0 ** -np.arange(n))
    return [
        ("geometric", geometric, 10),
        ("spiked", spiked_layout(n, rng), 2),
        ("middle", spread, n // 2),
        ("top_tenth", spread, n // 10),
        ("bottom_tenth", spread, n - n // 10),
        ("tied", tied, int(np.count_nonzero(tied > 0.0))),
        ("one_active", spread, 1),
        ("all_active", spread, n),
        ("none_active", spread, 0),
        ("far_spiked", far_spiked_layout(n), 1),
    ]


@pytest.mark.parametrize("n", SIZES)
def test_breakpoint_root_is_the_exact_root(n):
    rng = np.random.default_rng(n)
    for _, t, j in layouts(n, rng):
        for args in shapes(t, rng, j):
            assert_exact(roots._breakpoint_root(*args), *args)


@pytest.mark.parametrize("n", SIZES)
def test_a_root_far_above_the_mean_breakpoint_is_correctly_rounded(n):
    # The root 80 (or -20 for the threshold) differs from the exact Fraction
    # root by more than 1e-14 times the mean breakpoint at slope 1.44; it is
    # that root rounded to the nearest float.
    rng = np.random.default_rng(n + 13)
    for args in shapes(far_spiked_layout(n), rng, 1):
        assert roots._breakpoint_root(*args) == float(exact_root(*args))


def test_breakpoint_root_up_to_the_threshold_is_the_sorted_formula():
    # At 4 _SAMPLE breakpoints and below, no Newton step: the one sort, bit
    # for bit.
    rng = np.random.default_rng(3)
    t = rng.uniform(-3.0, 5.0, 4 * roots._SAMPLE)
    for args in shapes(t, rng, 300):
        full = (*args, None, None)[:5]
        assert roots._breakpoint_root(*args) == roots._sorted_root(*full)


def stride_layout(n, rng, sample_high):
    """Breakpoints whose stride-th entries, the sample, lie in [10, 20] and
    the rest in [0, 1], or the sample in [0, 1] and the rest in [10, 11],
    with F's root in the middle of the rest: the sample root lies in the
    wrong cluster."""
    step = n // roots._SAMPLE
    t = rng.uniform(0.0, 1.0, n)
    picked = np.zeros(n, dtype=bool)
    picked[::step] = True
    m = int(np.count_nonzero(picked))
    if sample_high:
        t[picked] = rng.uniform(10.0, 20.0, m)
        return t, m + (n - m) // 2
    t[~picked] += 10.0
    return t, (n - m) // 2


def newton_start(t, slope, offset, u=None, w=None):
    """The sample root the Newton steps start from, and the first step."""
    step = t.size // roots._SAMPLE
    cut = slice(None, None, step)
    x = roots._sorted_root(t[cut], slope / step, offset / step,
                          None if w is None else u[cut],
                          None if w is None else w[cut])
    if w is None:
        u, w = t, np.ones_like(t)
    above = t > x
    return x, (offset + float(u[above].sum())) / (slope + float(w[above].sum()))


@pytest.fixture
def sorts(monkeypatch):
    """The breakpoints of every _sorted_root call."""
    seen = []
    sorted_root = roots._sorted_root

    def recorded(t, *args):
        seen.append(t)
        return sorted_root(t, *args)

    monkeypatch.setattr(roots, "_sorted_root", recorded)
    return seen


def assert_sorts_above_a_step(sorts, t, root):
    """After the sample's sort, at most one more, of exactly the breakpoints
    above some x at or below the root."""
    assert sorts[0].size == t[:: t.size // roots._SAMPLE].size
    assert len(sorts) <= 2
    for kept in sorts[1:]:
        # The breakpoints above some x: all those at or above the least kept
        # one are kept ...
        assert np.count_nonzero(t >= kept.min()) == kept.size
        # ... with x at or below the root: every active breakpoint is kept.
        assert np.count_nonzero(t > float(root)) <= kept.size


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("sample_high", [True, False], ids=["miss_below", "miss_above"])
def test_a_missed_bracket_moves_to_the_side_of_the_root(n, sample_high, sorts):
    # The sample root misses F's root, above it or below it with the
    # sample's cluster; the first Newton step lands at or left of the root
    # all the same, and the steps end on it exactly.
    rng = np.random.default_rng(n + sample_high)
    t, j = stride_layout(n, rng, sample_high)
    for args in shapes(t, rng, j):
        root = exact_root(*args)
        start, first = newton_start(*args)
        assert (start > root) == sample_high
        assert first <= root
        sorts.clear()
        assert_exact(roots._breakpoint_root(*args), *args)
        assert_sorts_above_a_step(sorts, args[0], root)


@pytest.mark.parametrize("n", SIZES)
def test_a_near_miss_takes_the_next_sample_ranks(n, sorts):
    # The sample is the rest shifted up by 0.2: its root lies above F's, and
    # the steps from it end on F's root exactly.
    rng = np.random.default_rng(n + 5)
    t = rng.uniform(0.0, 1.0, n)
    t[:: n // roots._SAMPLE] += 0.2
    for args in shapes(t, rng, n // 2):
        root = exact_root(*args)
        start, first = newton_start(*args)
        assert first <= root < start
        sorts.clear()
        assert_exact(roots._breakpoint_root(*args), *args)
        assert_sorts_above_a_step(sorts, args[0], root)


@pytest.mark.parametrize("n", SIZES)
def test_past_the_cap_one_sort_of_the_breakpoints_above_a_step(n, sorts, monkeypatch):
    # The geometric layout takes 3-5 steps and the middle one 2-3, so with
    # one step allowed the cap engages on both; one sort of exactly the
    # breakpoints above that step finds the root.
    monkeypatch.setattr(roots, "_NEWTON_STEPS", 1)
    rng = np.random.default_rng(n)
    for name, t, j in layouts(n, rng):
        if name not in ("geometric", "middle"):
            continue
        for args in shapes(t, rng, j):
            sorts.clear()
            assert_exact(roots._breakpoint_root(*args), *args)
            assert len(sorts) == 2
            assert_sorts_above_a_step(sorts, args[0], exact_root(*args))


def test_the_spike_point_answers_exactly():
    # Every stride-th entry is 1e-3, so every sample breakpoint lies above
    # the sample root, and alpha* = (100 + 60) / 3 lies above them all.
    y = np.full(2000, 1e-3)
    y[-3:] = (100.0, 60.0, 30.0)
    for set_ in (Box(np.ones(2000)), L1Ball(1.0, 2000), Simplex(2000)):
        result = project_homogenization(set_, (y, 0.0))
        assert abs(result.alpha_star - 160.0 / 3.0) <= 1e-15 * 160.0 / 3.0
    for set_ in (Simplex(2000), L1Ball(1.0, 2000)):
        x = set_.project(y)
        assert x[-3:].tolist() == [1.0, 0.0, 0.0]
        assert not x[:-3].any()


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
        queries = kernel_queries(set_, rng, count=9)
        for frac in (-0.5, -0.9, -0.999):
            y = rng.uniform(-4.0, 4.0, n)
            queries.append((y, frac * set_.support(y)))
        for frac in (2.0 / n, 0.3):
            y = rng.uniform(-4.0, 4.0, n)
            queries.append((y, frac * float(np.abs(y).sum())))
        branches = {kernel_branch(set_, (t * y, t * s)) for y, s in queries for t in SCALES}
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


def exact_alpha(set_, y, s):
    """alpha* of P_K(y, s) as a Fraction for the box (and the inf-ball), the
    l1 ball and the simplex: 0 where s + sigma_C(y) <= 0, else for the box
    the root of alpha - s - sum b_i max(|y_i| - alpha b_i, 0), and for the
    l1 ball (v = |y|) and the simplex (v = y) of radius r, s + r max(theta,
    0) with theta the root of -r s - r^2 theta + sum max(v_i - theta, 0)."""
    s = Fraction(s)
    if isinstance(set_, (Box, PBall)):
        b = set_.halfwidths if isinstance(set_, Box) else np.full(set_.dim, set_.radius)
        b, a = [Fraction(x) for x in b], [abs(Fraction(x)) for x in y]
        if s + sum(map(operator.mul, b, a)) <= 0:
            return Fraction(0)
        live = [(bi, ai) for bi, ai in zip(b, a) if bi > 0]
        return exact_root([ai / bi for bi, ai in live], Fraction(1), s,
                          [bi * ai for bi, ai in live], [bi * bi for bi, _ in live])
    r = Fraction(set_.radius if isinstance(set_, L1Ball) else 1.0)
    v = [abs(Fraction(x)) if isinstance(set_, L1Ball) else Fraction(x) for x in y]
    if s + r * max(max(v), 0) <= 0:
        return Fraction(0)
    return s + r * max(exact_root(v, r * r, -r * s), 0)


def breakpoint_kernel(entry):
    """The box, l1 and simplex kernels (and the inf-ball's, the box's) up to
    40 entries, where the Fraction sums stay cheap."""
    spec = entry.build if isinstance(entry.build, dict) else {}
    kind = spec.get("type")
    if kind == "p_ball" and spec["p"] == "inf" or kind in ("l1_ball", "simplex"):
        return spec.get("dim", 2) <= 40
    return kind == "box" and len(spec["halfwidths"]) <= 40


@pytest.mark.parametrize("entry", params(filter(breakpoint_kernel, CATALOG), "oracle"))
def test_breakpoint_kernels_are_exact_to_a_few_ulps(entry):
    # alpha* of the box, l1 and simplex kernels against the exact Fraction
    # root on every branch and scale: within 16 ulps of ||(y, s)||_inf, where
    # the kernels' sums over up to 40 entries round.  (At 2,000 entries
    # test_breakpoint_root_is_the_exact_root checks the root itself.)
    set_ = entry.make()
    rng = np.random.default_rng(61)
    for y, s in [*kernel_queries(set_, rng, count=15), *entry.queries]:
        for t in SCALES:
            v = (t * y, t * s)
            alpha = project_homogenization(set_, v).alpha_star
            size = max(float(np.abs(v[0]).max()), abs(v[1]))
            assert abs(Fraction(alpha) - exact_alpha(set_, *v)) <= 16 * math.ulp(size)


@pytest.mark.parametrize("n", [2, 13, 2000])
def test_the_breakpoint_root_is_the_largest_piece_root(n):
    # Every piece root (offset + U_k) / (slope + W_k) of the huge box rounds
    # to its breakpoint 1e-16; a root taken only where a breakpoint exceeds
    # its piece root fell back to offset / slope = s = -0.5.
    box, v = Box(np.full(n, 1e16)), (np.ones(n), -0.5)
    assert kernel_branch(box, v) is Branch.CONE_INTERIOR
    assert project_homogenization(box, v).alpha_star == pytest.approx(1e-16, rel=1e-15)
