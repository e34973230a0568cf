"""Everything that switches at ``roots._FLOATS`` entries, on Python floats
against its numpy form: up to that size the quadratic-cone core (the list
core :func:`_quadratic_cone_floats`, as the ellipsoid kernel picks it,
with :func:`_secular_root`), :func:`_breakpoint_root`, the norm
:func:`_norm`, the query validation :func:`_as_query` and the branch tests
of the box, l1 and simplex kernels run on floats, above it on numpy
arrays.  Each test calls the same inputs on both sides of that switch, at
one entry, at the switch and one entry above it, and asks for agreement to
1e-13 relative for the root cores, 1e-15 for the closed forms and bit for
bit for the validation, and for the same branch in every kernel but on the
boundary of the off-centre ball's K, where the two answers agree; every
RuntimeWarning is an error.  The straight-line plane solve
(:func:`_plane_cone`) of the off-centre ball and of the 2-entry ellipsoid
must match the list core bit for bit, and so must the paths that take
stored factors or hand the branch tests' lists to the breakpoint root, and
the 2-entry paths of the box, l1, simplex, ball and ball-pen kernels must
match the general path, which ``sets._FLOATS`` = 1 selects."""

import ast
import importlib
import itertools
import math
import operator
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import homcone
import homcone.roots as roots
import homcone.sets as sets
from homcone import (
    BallPen,
    Box,
    Branch,
    Ellipsoid,
    EuclideanBall,
    L1Ball,
    MaxIterationsExceeded,
    Simplex,
    project_homogenization,
)
from set_catalog import CATALOG, CORE, OFF_AXIS, select
from test_breakpoints import shapes
from test_homproj import extreme_radii_queries, kernel_queries

pytestmark = pytest.mark.filterwarnings("error")

SIZES = (1, roots._FLOATS, roots._FLOATS + 1)
RTOL = 1e-13

#: Every module that binds the switch: ``roots`` defines it and ``sets``
#: imports it, so a patch of one binding leaves the other's code unswitched.
FLOATS_BINDINGS = (roots, sets)


def set_floats(monkeypatch, limit):
    """Switch every binding of ``_FLOATS`` to ``limit``."""
    for module in FLOATS_BINDINGS:
        monkeypatch.setattr(module, "_FLOATS", limit)


def test_set_floats_reaches_every_binding():
    bound = set()
    for info in pkgutil.iter_modules(homcone.__path__):
        module = importlib.import_module(f"homcone.{info.name}")
        if hasattr(module, "_FLOATS"):
            bound.add(module)
    assert bound == set(FLOATS_BINDINGS)


#: The cores that live in roots.py alone.
MOVED = {"_breakpoint_root", "_sorted_root", "_sorted_root_floats",
         "_secular_root", "_secular_root_floats", "_quadratic_cone",
         "_quadratic_cone_floats", "_plane_cone", "_pair_root", "_norm", "_FLOATS",
         "_NORM_FLOOR", "_ROOT_RTOL", "_ROOT_MAX_STEPS", "_SAMPLE", "_NEWTON_STEPS"}


def module_tree(name):
    return ast.parse((Path(homcone.__file__).parent / f"{name}.py").read_text())


def test_roots_imports_nothing_of_the_package():
    modules = set()
    for node in ast.walk(module_tree("roots")):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(f"homcone.{node.module or ''}" if node.level else node.module)
    assert {m for m in modules if m.split(".")[0] == "homcone"} == set()


def test_sets_defines_none_of_the_cores():
    defined = set()
    for node in module_tree("sets").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert not defined & MOVED
    assert MOVED <= set(vars(roots))


#: The kernel route's hot path, per module: every ``_project_cone`` of
#: ``sets`` and these functions.
HOT_PATH = {
    "homproj": {"project_homogenization", "_member", "_answer"},
    "sets": {"_as_query", "_simplex_cone", "_simplex_pair", "_project_cone",
             "_pair_cone"},
    "roots": {"_pair_root", "_plane_cone", "_quadratic_cone_floats",
              "_secular_root_floats"},
}


def hot_path_functions():
    """``(qualified name, its ast node)`` of each function of HOT_PATH."""
    for module, names in HOT_PATH.items():
        for node in module_tree(module).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in names:
                        yield f"{module}.{node.name}.{item.name}", item
            elif isinstance(node, ast.FunctionDef) and node.name in names:
                yield f"{module}.{node.name}", node


def slow_reads(function):
    """The ``Branch.<member>`` reads of a function, and its calls of the
    builtin ``max`` or ``min`` on two or more positional arguments: on
    CPython 3.11 each costs about 100 ns against under 20 ns for a
    module-level name or a comparison."""
    for node in ast.walk(function):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "Branch"):
            yield f"line {node.lineno}: Branch.{node.attr}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("max", "min") and len(node.args) >= 2):
            yield f"line {node.lineno}: {node.func.id}() of {len(node.args)} arguments"


def test_hot_path_lists_every_function():
    found = {}
    for name, node in hot_path_functions():
        found.setdefault(f"{name.split('.')[0]}.{node.name}", []).append(name)
    assert set(found) == {f"{m}.{n}" for m, names in HOT_PATH.items() for n in names}
    # The base class's default and one per set class with a cone kernel.
    assert len(found["sets._project_cone"]) >= 8


@pytest.mark.parametrize("name, function", list(hot_path_functions()),
                         ids=[name for name, _ in hot_path_functions()])
def test_hot_path_reads_no_enum_member_and_calls_no_builtin_max_min(name, function):
    assert list(slow_reads(function)) == []


def two_entry_gates(function):
    """Each test ``<vector>.size == 2`` of a function, as True where it is
    the first operand of an ``and`` whose second is ``2 <= _FLOATS``."""
    gated = set()
    for node in ast.walk(function):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            first, second = node.values[:2]
            if ast.unparse(second) == "2 <= _FLOATS":
                gated.add(id(first))
    for node in ast.walk(function):
        if isinstance(node, ast.Compare) and ast.unparse(node).endswith(".size == 2"):
            yield id(node) in gated


def test_two_entry_paths_run_only_below_the_switch():
    # The box, l1 and simplex kernels, the origin ball and the off-centre
    # ball (one test each) and the ball pen take their 2-entry paths only
    # while 2 <= _FLOATS, so that the switch at 0 or 1 reaches numpy.
    gates = {name: list(two_entry_gates(function))
             for name, function in hot_path_functions()}
    assert all(all(g) for g in gates.values())
    assert {name: len(g) for name, g in gates.items() if g} == {
        "sets.EuclideanBall._project_cone": 2, "sets.Box._project_cone": 1,
        "sets.L1Ball._project_cone": 1, "sets.Simplex._project_cone": 1,
        "sets.BallPen._project_cone": 1}


@pytest.fixture
def on_both_sides(monkeypatch):
    """Call ``fn(*args)`` once with every core on floats and once with every
    core on numpy arrays, and return both answers."""
    def call(fn, *args):
        answers = []
        for limit in (math.inf, 0):
            set_floats(monkeypatch, limit)
            answers.append(fn(*args))
        return answers

    return call


def quadratic_cone(u, w, s):
    """The quadratic-cone core with sqrt(w) and 1 + w taken per call: the list
    core up to ``roots._FLOATS`` entries, the numpy core above."""
    root, one = np.sqrt(w), 1.0 + w
    if u.size <= roots._FLOATS:
        return roots._quadratic_cone_floats(u.tolist(), w.tolist(), s,
                                            root.tolist(), one.tolist())
    return roots._quadratic_cone(u, w, s, root, one)


def breakpoint_scale(t, slope, offset, u=None, w=None):
    """The size of the root of F, as in test_breakpoints.assert_exact."""
    if w is None:
        u, w = t, np.ones_like(t)
    return (abs(offset) + float(np.abs(u).sum())) / (slope + float(w.sum()))


@pytest.mark.parametrize("n", SIZES)
def test_breakpoint_root_on_both_sides(n, on_both_sides):
    # The weighted (box), unweighted (l1 and simplex cone) and slope-0
    # (simplex threshold) shapes, on spread and on tied breakpoints, with
    # the root above, among and below them.
    rng = np.random.default_rng(n)
    for t in (rng.uniform(-3.0, 5.0, n), rng.integers(-3, 4, n).astype(float)):
        for j in sorted({0, 1, n // 2, n}):
            for args in shapes(t, rng, j):
                if args[1] == 0.0 and not args[2] < 0.0:
                    continue  # the simplex threshold's target is positive
                floats, arrays = on_both_sides(roots._breakpoint_root, *args)
                assert abs(floats - arrays) <= RTOL * breakpoint_scale(*args)


def eighths(rng, n, low=-8, high=8):
    """n multiples of 1/8 in [low / 8, high / 8]: with the dyadic halfwidths,
    radii and heights below, every sum and product is exact."""
    return rng.integers(low, high + 1, n) / 8.0


def box_edges(n, rng):
    """The box with |y_i| = s b_i on some entries and inside elsewhere, then
    with one of them pushed out; with s = -sigma_C(y), the apex, then with s
    just above it."""
    b = rng.choice((0.0, 0.5, 1.0, 2.0), n)
    b[0] = 1.0
    box = Box(b)
    s = 0.75
    y = s * b * eighths(rng, n, -7, 7)
    edge = rng.random(n) < 0.5
    edge[0] = True
    y[edge] = s * b[edge] * rng.choice((-1.0, 1.0), int(edge.sum()))
    yield box, y, s, Branch.ALREADY_IN_K
    out = y.copy()
    out[0] += math.copysign(0.125, out[0])
    yield box, out, s, Branch.CONE_INTERIOR
    y = eighths(rng, n)
    y[0] = 1.0
    sigma = float(b @ np.abs(y))
    yield box, y, -sigma, Branch.RECESSION
    yield box, y, 0.125 - sigma, Branch.CONE_INTERIOR


def simplex_edges(n, rng):
    """The l1 ball (radius 1/2) and the simplex with sum v = r s, for v = |y|
    and v = y, and with s = -r max(v), the apex, then s just above them; the
    simplex with negative entries whose positive part sums to r s."""
    l1 = L1Ball(0.5, n)
    y = eighths(rng, n, 1, 8) * rng.choice((-1.0, 1.0), n)
    total, top = float(np.abs(y).sum()), float(np.abs(y).max())
    yield l1, y, 2.0 * total, Branch.ALREADY_IN_K
    yield l1, y, 2.0 * total - 0.125, Branch.CONE_INTERIOR
    yield l1, y, -0.5 * top, Branch.RECESSION
    yield l1, y, 0.125 - 0.5 * top, Branch.CONE_INTERIOR
    simplex = Simplex(n)
    v = eighths(rng, n, 0, 8)
    v[0] = 0.5
    yield simplex, v, float(v.sum()), Branch.ALREADY_IN_K
    yield simplex, v, float(v.sum()) - 0.125, Branch.CONE_INTERIOR
    yield simplex, v, -float(v.max()), Branch.RECESSION
    # Several negative entries, then one.  theta = 0 at alpha = s: only the
    # negative entries move.  With one entry, the positive part is 0 and so
    # is s: the apex.
    for v in (eighths(rng, n), eighths(rng, n, 0, 8)):
        v[0] = -0.5
        if n > 1:
            v[-1] = 0.5
        yield (simplex, v, float(np.maximum(v, 0.0).sum()),
               Branch.CONE_INTERIOR if n > 1 else Branch.RECESSION)


def signed_zero_edges(n, rng):
    """The l1 ball on y with +0.0 and -0.0 entries, at heights on every
    branch and on the edges between them."""
    l1 = L1Ball(0.5, n)
    y = eighths(rng, n)
    y[rng.random(n) < 0.5] = 0.0
    y[0] = 0.0
    y[rng.random(n) < 0.5] *= -1.0
    y[0] = -0.0
    total, top = float(np.abs(y).sum()), float(np.abs(y).max())
    for s in (2.0 * total, 2.0 * total - 0.125, 0.25, 0.0, -0.5 * top,
              0.125 - 0.5 * top):
        yield l1, y, s, None


@pytest.mark.parametrize("n", SIZES)
def test_breakpoint_kernels_on_both_sides(n, on_both_sides):
    # The box (zero halfwidths and ties included), l1, simplex kernels and
    # projectors on every branch, a third of the queries on the boundary of
    # K, where a sum of Python floats and numpy's pairwise sum may round to
    # either side of r s.
    rng = np.random.default_rng(n + 1)
    zeros = rng.choice((0.0, 0.5, 1.0), n)
    zeros[0] = 0.0
    for set_ in (Box(rng.uniform(0.5, 2.0, n)), Box(zeros), Box(np.ones(n)),
                 L1Ball(1.3, n), Simplex(n)):
        for y, s in kernel_queries(set_, rng, count=30):
            (a_f, x_f, b_f), (a_n, x_n, b_n) = on_both_sides(set_._project_cone, y, s)
            size = math.hypot(*y, s)
            assert b_f is b_n
            assert abs(a_f - a_n) <= RTOL * size
            np.testing.assert_allclose(x_f, x_n, rtol=0.0, atol=RTOL * size)
            floats, arrays = on_both_sides(set_.project, y)
            np.testing.assert_allclose(floats, arrays, rtol=0.0,
                                       atol=RTOL * float(np.abs(y).max()))
    # Where a branch test holds with equality in exact sums, both sides take
    # the same branch, the expected one, and give the same answer; the l1
    # ball keeps the sign of each zero of y off the apex.
    for set_, y, s, expected in [*box_edges(n, rng), *simplex_edges(n, rng),
                                 *signed_zero_edges(n, rng)]:
        (a_f, x_f, b_f), (a_n, x_n, b_n) = on_both_sides(set_._project_cone, y, s)
        size = math.hypot(*y, s)
        assert b_f is b_n
        assert expected is None or b_f is expected
        assert abs(a_f - a_n) <= RTOL * size
        np.testing.assert_allclose(x_f, x_n, rtol=0.0, atol=RTOL * size)
        if isinstance(set_, L1Ball) and b_f is not Branch.RECESSION:
            zero = y == 0.0
            for x in (x_f, x_n):
                assert (np.signbit(x[zero]) == np.signbit(y[zero])).all()


@pytest.mark.parametrize("n", SIZES)
def test_kernels_branch_alike_where_the_sums_round_apart(n, on_both_sides):
    # Heights that put a branch edge exactly on the sum of Python floats or
    # on numpy's sum or dot product, where the two round apart: the box at
    # s = -sigma_C(y), the l1 ball (radius 1/2) at r s = sum |y|, the simplex
    # at s = sum v and, with negative entries, at s = sum max(v, 0).
    rng = np.random.default_rng(n + 9)
    b = rng.uniform(0.5, 2.0, n)
    box, l1, simplex = Box(b), L1Ball(0.5, n), Simplex(n)
    splits = 0
    for _ in range(40):
        a = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-3, 4, n)
        y = a * rng.choice((-1.0, 1.0), n)
        pos = np.maximum(y, 0.0)
        sigma = (float(b @ a), sum(map(operator.mul, b.tolist(), a.tolist())))
        total = (float(a.sum()), sum(a.tolist()))
        plus = (float(pos.sum()), sum(pos.tolist()))
        for set_, v, sums, height in ((box, y, sigma, -1.0), (l1, y, total, 2.0),
                                      (simplex, a, total, 1.0), (simplex, y, plus, 1.0)):
            splits += sums[0] != sums[1]
            for edge in sums:
                (_, _, b_f), (_, _, b_n) = on_both_sides(set_._project_cone, v,
                                                         height * edge)
                assert b_f is b_n
    assert n == 1 or splits


@pytest.mark.parametrize("n", SIZES)
def test_recession_answers_are_zeros_of_the_dimension(n, on_both_sides):
    # Every kernel whose apex answer is the origin of R^n, on a query in the
    # interior of the polar cone of K: float64 zeros, shape (n,).
    rng = np.random.default_rng(n + 6)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q = q @ np.diag(rng.uniform(0.25, 4.0, n)) @ q.T
    b = rng.uniform(0.5, 2.0, n)
    for set_ in (EuclideanBall(np.zeros(n), 0.5),
                 EuclideanBall(0.5 * np.eye(n)[0], 1.0), Ellipsoid(q), Box(b),
                 L1Ball(1.3, n), Simplex(n)):
        for _ in range(3):
            y = rng.normal(size=n)
            for alpha, x, branch in on_both_sides(set_._project_cone, y,
                                                  -set_.support(y) - 1.0):
                assert branch is Branch.RECESSION and alpha == 0.0
                assert x.dtype == np.float64 and x.shape == (n,)
                assert x.tobytes() == bytes(8 * n)


def cone_queries(n, rng):
    """(u, w, s) with weights spread over 1e-12..1e12 and heights inside
    the quadratic cone, in its polar, at 0, and between them (s < 0 and
    s > 0); u has its largest entry 1, as a rescaled query."""
    for _ in range(6):
        w = 10.0 ** rng.uniform(-12.0, 12.0, n)
        u = rng.normal(size=n)
        u /= float(np.abs(u).max())
        cone = float(np.linalg.norm(np.sqrt(w) * u))
        polar = float(np.linalg.norm(u / np.sqrt(w)))
        for s in (1.5 * cone, 0.5 * cone, 1e-6 * cone, 0.0, -1e-6 * polar,
                  -0.5 * polar, -1.5 * polar):
            yield u, w, s


@pytest.mark.parametrize("n", SIZES)
def test_quadratic_cone_on_both_sides(n, on_both_sides):
    rng = np.random.default_rng(n + 2)
    for u, w, s in cone_queries(n, rng):
        floats, arrays = on_both_sides(quadratic_cone, u, w, s)
        if arrays is None:
            assert floats is None
            continue
        (t_f, z_f), (t_n, z_n) = floats, arrays
        size = math.hypot(*u, s)
        assert abs(t_f - t_n) <= RTOL * size
        if t_n == 0.0:
            assert t_f == 0.0 and z_f is None and z_n is None
        else:
            np.testing.assert_allclose(z_f, z_n, rtol=0.0, atol=RTOL * size)


@pytest.mark.parametrize("n", SIZES)
def test_ellipsoid_kernels_on_both_sides(n, on_both_sides):
    # The cone kernel and the projector P_C, which both end in the secular
    # Newton solve, on a Q with eigenvalues over 1e-6..1e6.
    rng = np.random.default_rng(n + 3)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    ell = Ellipsoid(q @ np.diag(10.0 ** rng.uniform(-6.0, 6.0, n)) @ q.T)
    for y, s in kernel_queries(ell, rng, count=30):
        (a_f, x_f, b_f), (a_n, x_n, b_n) = on_both_sides(ell._project_cone, y, s)
        size = math.hypot(*y, s)
        assert b_f is b_n
        assert abs(a_f - a_n) <= RTOL * size
        np.testing.assert_allclose(x_f, x_n, rtol=0.0, atol=RTOL * size)
        for x in (y, 1e3 * y):
            floats, arrays = on_both_sides(ell.project, x)
            np.testing.assert_allclose(floats, arrays, rtol=RTOL)


@pytest.mark.parametrize("exponent", range(-100, 101, 25))
@pytest.mark.parametrize("rho", [1e-12, 0.5, 1.0])
def test_off_centre_ball_kernel_on_both_sides(rho, exponent, on_both_sides,
                                              monkeypatch):
    # At the radii and query scales of
    # test_off_centre_ball_kernel_at_extreme_radii: the kernel's float path
    # against its numpy path, then the plane solve on the rotated, rescaled
    # 2-vectors and heights that the kernel handed it, bit for bit with the
    # list core on the same weights and to 1e-13 with the numpy core.
    gamma = 10.0 ** exponent
    ball = EuclideanBall(rho * gamma * OFF_AXIS, gamma)
    weights = np.array(ball._weights)
    assert ball._roots == tuple(np.sqrt(weights).tolist())
    assert ball._ones == tuple((1.0 + weights).tolist())
    calls = []
    plane = sets._plane_cone
    monkeypatch.setattr(sets, "_plane_cone",
                        lambda *args: calls.append(args) or plane(*args))
    queries = [(t * y, t * s) for t, y, s in extreme_radii_queries(gamma)]
    for v in queries:
        f, a = on_both_sides(project_homogenization, ball, v)
        size = math.hypot(*v[0], v[1])
        assert f.branch is a.branch
        assert abs(f.alpha_star - a.alpha_star) <= RTOL * size
        np.testing.assert_allclose(f.point.y, a.point.y, rtol=0.0, atol=RTOL * size)
    assert len(calls) == 2 * len(queries)
    for r, p, w, root, one, s in calls:
        got = plane(r, p, w, root, one, s)
        lists, arrays = on_both_sides(quadratic_cone, np.array([r, p]), weights, s)
        if lists is None:
            assert got is None and arrays is None
            continue
        assert got[0] == lists[0]
        if got[0] > 0.0:
            assert list(got[1:]) == lists[1]
        size = math.hypot(r, p, s)
        assert abs(got[0] - arrays[0]) <= RTOL * size
        if got[0] > 0.0:
            np.testing.assert_allclose(got[1:], arrays[1], rtol=0.0, atol=RTOL * size)


def test_plane_solve_raises_when_its_budget_is_spent(monkeypatch, on_both_sides):
    # One Newton evaluation is too few here: the plane solve raises the list
    # core's MaxIterationsExceeded, and so does the ball on both sides.
    monkeypatch.setattr(roots, "_ROOT_MAX_STEPS", 1)
    ball = EuclideanBall((0.5, 0.0), 1.0)
    with pytest.raises(MaxIterationsExceeded) as plane_error:
        roots._plane_cone(0.6, -0.4, ball._weights, ball._roots, ball._ones, 0.05)
    with pytest.raises(MaxIterationsExceeded) as list_error:
        roots._quadratic_cone_floats([0.6, -0.4], ball._weights, 0.05, ball._roots,
                                     ball._ones)
    assert str(plane_error.value) == str(list_error.value)
    for limit in (math.inf, 0):
        set_floats(monkeypatch, limit)
        with pytest.raises(MaxIterationsExceeded, match="in 1 steps"):
            project_homogenization(ball, ((3.0, -1.0), 0.2))


@pytest.mark.parametrize("n", SIZES)
def test_off_centre_ball_kernel_at_every_size(n, on_both_sides):
    # The kernel takes ||y_perp|| from _norm, on Python floats up to _FLOATS
    # entries and on numpy above, on every branch; at n = 1, and on the
    # centre axis, y_perp is 0.
    rng = np.random.default_rng(n + 7)
    branches = set()
    for rho in (1e-12, 0.5, 1.0):
        c = rng.normal(size=n)
        ball = EuclideanBall(rho * c / np.linalg.norm(c), 1.3)
        axis = [(a * ball._axis, s) for a in (-2.0, 0.5) for s in (-3.0, 0.2, 3.0)]
        for y, s in kernel_queries(ball, rng, count=30) + axis:
            for t in (1e-9, 1.0, 1e12):
                (a_f, x_f, b_f), (a_n, x_n, b_n) = on_both_sides(
                    ball._project_cone, t * y, t * s)
                size = t * math.hypot(*y, s)
                # On the boundary of K, ||y_perp|| by math.hypot and by numpy
                # may round to either side of it: the identity on one side,
                # within rounding of it on the other.
                assert b_f is b_n or Branch.ALREADY_IN_K in (b_f, b_n)
                assert abs(a_f - a_n) <= RTOL * size
                np.testing.assert_allclose(x_f, x_n, rtol=0.0, atol=RTOL * size)
                assert x_f.dtype == np.float64 and x_f.shape == (n,)
                branches.add(b_f)
    assert branches == set(Branch)
    # With the centre on e_1, y = a e_1 has y_perp exactly 0: both paths
    # answer h e_1, signed zeros included.
    ball = EuclideanBall(0.5 * np.eye(n)[0], 1.3)
    for a in (-2.0, 0.5):
        for s in (-0.5, 0.2, 3.0):
            (_, x_f, _), (_, x_n, _) = on_both_sides(ball._project_cone,
                                                     a * ball._axis, s)
            assert x_f.tobytes() == x_n.tobytes()


def validation_outcome(y, dim, s):
    """``_as_query``'s answer, bit for bit, or its exception type and message."""
    try:
        v, s, e, _ = sets._as_query(y, dim, s)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)
    return v.tobytes(), v.shape, s.hex(), e


def validation_inputs(n):
    """(y, dim, s) with nan, inf, signed zeros, subnormals, entries near
    2^(+-500) and the float64 limit, a wrong length and bad heights."""
    ones = np.ones(n)
    for i in sorted({0, n // 2, n - 1}):
        for bad in (math.nan, math.inf, -math.inf):
            y = ones.copy()
            y[i] = bad
            yield y, n, 1.0
    both = ones.copy()
    both[0], both[-1] = math.inf, math.nan
    yield both, n, 1.0
    yield np.full(n, -0.0), n, -0.0
    yield np.full(n, -0.0), n, 0.0
    yield np.full(n, 5e-324), n, 0.0
    yield np.linspace(-1e-310, 3e-320, n), n, -5e-324
    for k in (500, -500):
        for top in (math.ldexp(1.0, k), math.ldexp(1.0 - 2.0 ** -53, k)):
            yield np.linspace(-top, 0.5 * top, n), n, 0.25 * top
            yield np.linspace(0.5 * top, -top, n), n, 2.0 * top
    yield np.resize([-1.7e308, 1.7e308, 1e300], n), n, -1.7e308
    yield np.full(n, 1.7e308).tolist(), n, 1.0
    yield ones, n + 1, 1.0
    yield np.r_[ones[:-1], math.nan], n + 1, 1.0
    for s in (math.nan, math.inf, -math.inf):
        yield ones, n, s


@pytest.mark.parametrize("n", SIZES)
def test_query_validation_on_both_sides(n, on_both_sides):
    for y, dim, s in validation_inputs(n):
        floats, arrays = on_both_sides(validation_outcome, y, dim, s)
        assert floats == arrays


def rescale_outcome(y, dim, s, safe):
    """``_as_query``'s rescaled query, bit for bit, or its exception type and
    message.  n is left out: hypot and numpy's norm may differ by an ulp."""
    try:
        v, s, e, _ = sets._as_query(y, dim, s, safe)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)
    return v.tobytes(), s.hex(), e


@pytest.mark.parametrize("safe", (0, 500))
@pytest.mark.parametrize("n", SIZES)
def test_query_rescale_on_both_sides(n, safe, on_both_sides):
    # The rescale is the exact 2^-e of the size max(||y||, |s|), whose
    # exponent is taken from the inline hypot on floats and from _norm on
    # numpy alike.
    rescaled = 0
    for y, dim, s in validation_inputs(n):
        floats, arrays = on_both_sides(rescale_outcome, y, dim, s, safe)
        assert floats == arrays
        rescaled += len(floats) == 3 and floats[2] != 0
    assert rescaled >= 4


def window_queries(n, rng):
    """(y, s) whose norm lies 2^-20 inside or outside 2^500 or 2^-501, the
    edges of the rescale window: beyond 2^500 with every entry below it, and
    at or above 2^-501 with every entry below 2^-501.  The entries lie within
    a factor 2 of each other, so that no square leaves the normal range."""
    for k in (500, -501):
        for size in (1.0 - 2.0 ** -20, 1.0 + 2.0 ** -20):
            v = rng.uniform(0.5, 1.0, n) * rng.choice((-1.0, 1.0), n)
            y = np.ldexp(v * (size / math.hypot(*v)), k)
            assert float(np.abs(y).max()) < math.ldexp(1.0, k)
            for h in (-0.9, -0.3, 0.0, 0.3, 0.9):
                yield y, h * math.ldexp(1.0, k)


@pytest.mark.parametrize("entry", select(CORE, kernel=True), ids=lambda e: e.id)
def test_rescale_window_edges_on_both_sides(entry, monkeypatch):
    # The query is sized by max(||y||, |s|): on either side of each edge of
    # 2^(+-500), on floats and on numpy, the answer is 2^e times the answer
    # on the query rescaled exactly by 2^-e, bit for bit.
    set_ = entry.make()
    rng = np.random.default_rng(61)
    for limit in (math.inf, 0):
        set_floats(monkeypatch, limit)
        for y, s in window_queries(set_.dim, rng):
            e = math.frexp(max(math.hypot(*y), abs(s)))[1]
            got = project_homogenization(set_, (y, s))
            unit = project_homogenization(set_, (np.ldexp(y, -e), math.ldexp(s, -e)))
            assert got.branch is unit.branch
            assert got.alpha_star == math.ldexp(unit.alpha_star, e)
            assert got.point.y.tobytes() == np.ldexp(unit.point.y, e).tobytes()


def scaled_by_largest_entry(f, v):
    """:func:`sets._scaled` sized by the largest entry of v, not its norm."""
    e = math.frexp(float(np.abs(v).max()))[1]
    return roots._ldexp_or_inf(f(np.ldexp(v, -e)), e)


@pytest.mark.parametrize("n", SIZES)
def test_scaled_by_the_norm_on_both_sides(n, on_both_sides):
    # Sized by ||v||, and by its largest entry where the norm overflows or
    # an entry is not finite, _scaled answers as the largest entry sized it:
    # entries of 1.7e308, subnormals, and one inf or nan entry, with no
    # floating-point warning.
    ones = np.ones(n)
    cases = [np.full(n, 1.7e308), np.resize([1.7e308, -1e300], n),
             np.full(n, 5e-324), np.linspace(-1e-310, 3e-320, n), 0.0 * ones,
             np.resize([3.0, -4.0], n)]
    for bad in (math.inf, -math.inf, math.nan):
        v = ones.copy()
        v[n // 2] = bad
        cases.append(v)
    box = Box(np.linspace(0.5, 2.0, n))
    for v in cases:
        for f in (np.sum, box._support, lambda u: float(np.abs(u).max())):
            want = scaled_by_largest_entry(f, v)
            for got in on_both_sides(sets._scaled, f, v):
                assert got == want or math.isnan(got) and math.isnan(want)


def closed_form_queries(set_, rng):
    """Queries (y, s) on every branch of the ice-cream and ball-pen kernels:
    inside K, in its polar, at height 0 and between, and the origin.  The
    ball pen's y has <d, y> > 0, < 0 and, for d = e_1, = 0."""
    ys = []
    for _ in range(3):
        y = rng.normal(size=set_.dim)
        if isinstance(set_, BallPen):
            y *= math.copysign(1.0, float(np.dot(set_.direction, y)))
            ys.append(-y)
            if set_.direction[0] == 1.0:
                ys.append(np.r_[0.0, y[1:]])
        ys.append(y)
    for y in ys:
        if isinstance(set_, BallPen):
            inside = polar = set_.recession_distance(y)
        else:
            inside = float(np.linalg.norm(y)) / set_.radius
            polar = float(np.linalg.norm(y)) * set_.radius
        for s in (2.0 * inside, 0.5 * inside, 0.0, -0.5 * polar, -2.0 * polar):
            yield y, s
    yield np.zeros(set_.dim), 0.0


@pytest.mark.parametrize("n", SIZES)
def test_closed_forms_on_both_sides(n, on_both_sides):
    rng = np.random.default_rng(n + 4)
    d = rng.normal(size=n)
    sets_ = [EuclideanBall(np.zeros(n), 0.5), EuclideanBall(np.zeros(n), 2.0),
             BallPen(np.eye(n)[0]), BallPen(d / np.linalg.norm(d))]
    branches = set()
    for set_ in sets_:
        for y, s in closed_form_queries(set_, rng):
            for t in (1e-300, 1e-150, 1e-9, 1.0, 1e12, 1e150, 1e300):
                v = (t * y, t * s)
                f, a = on_both_sides(project_homogenization, set_, v)
                size = math.hypot(*v[0], v[1])
                assert f.branch is a.branch
                assert f.iterations == a.iterations == 0
                assert abs(f.alpha_star - a.alpha_star) <= 1e-15 * size
                np.testing.assert_allclose(f.point.y, a.point.y, rtol=0.0,
                                           atol=1e-15 * size)
                branches.add(f.branch)
    assert branches == set(Branch)


def per_call_ellipsoid_kernel(ell, y, s):
    """The ellipsoid's cone kernel with sqrt(w) and 1 + w taken per call by
    :func:`quadratic_cone` (on floats up to ``_FLOATS`` entries)."""
    cone = quadratic_cone(ell._evecs.T @ y, ell._evals, s)
    if cone is None:
        return s, y.copy(), Branch.ALREADY_IN_K
    t, z = cone
    if t == 0.0:
        return 0.0, np.zeros(y.size), Branch.RECESSION
    return t, ell._evecs @ z, Branch.CONE_INTERIOR


def ellipsoid_queries(ell, rng):
    """kernel_queries plus the origin, the apex's ray (0, s > 0), y on the
    boundary of C at s = 1 (the boundary of K) and s = -sigma_C(y) (the
    boundary of its polar)."""
    queries = kernel_queries(ell, rng, count=30)
    queries += [(np.zeros(ell.dim), 0.0), (np.zeros(ell.dim), 2.0)]
    for _ in range(6):
        y = rng.normal(size=ell.dim)
        queries.append((ell.project(10.0 * y), 1.0))
        queries.append((y, -ell.support(y)))
    return queries


def random_ellipsoid(n, rng, spread):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Ellipsoid(q @ np.diag(10.0 ** rng.uniform(-spread, spread, n)) @ q.T)


def assert_same_answer(got, expected):
    (a_g, x_g, b_g), (a_e, x_e, b_e) = got, expected
    assert b_g is b_e
    assert a_g.hex() == a_e.hex()
    assert x_g.dtype == x_e.dtype and x_g.tobytes() == x_e.tobytes()


def test_two_entry_ellipsoid_takes_the_plane_solve_bit_for_bit(monkeypatch):
    # At two entries the ellipsoid kernel solves through _plane_cone on its
    # stored factors; the list core with the factors taken per call answers
    # bit for bit, on every branch, on the boundaries of K and of its polar,
    # and at the apex.
    calls = []
    plane = sets._plane_cone
    monkeypatch.setattr(sets, "_plane_cone",
                        lambda *args: calls.append(args) or plane(*args))
    rng = np.random.default_rng(31)
    branches = set()
    count = 0
    for spread in (0.0, 1.0, 3.0, 6.0):
        ell = random_ellipsoid(2, rng, spread)
        for y, s in ellipsoid_queries(ell, rng):
            for t in (1e-9, 1.0, 1e12):
                got = ell._project_cone(t * y, t * s)
                assert_same_answer(got, per_call_ellipsoid_kernel(ell, t * y, t * s))
                branches.add(got[2])
                count += 1
    assert branches == set(Branch)
    assert len(calls) == count


@pytest.mark.parametrize("n", [3, 12, 13, 40])
def test_ellipsoid_stored_factors_answer_bit_for_bit(n):
    # The kernel on the stored sqrt(w) and 1 + w (lists up to _FLOATS
    # entries, arrays above) against the same factors taken per call; the
    # projector P_C divides by the stored roots.
    rng = np.random.default_rng(n + 40)
    for spread in (0.0, 3.0, 6.0):
        ell = random_ellipsoid(n, rng, spread)
        w = ell._evals
        assert ell._roots.tobytes() == np.sqrt(w).tobytes()
        assert ell._ones.tobytes() == (1.0 + w).tobytes()
        assert ell._floats == (w.tolist(), np.sqrt(w).tolist(), (1.0 + w).tolist())
        for y, s in ellipsoid_queries(ell, rng):
            for t in (1e-9, 1.0, 1e12):
                assert_same_answer(ell._project_cone(t * y, t * s),
                                   per_call_ellipsoid_kernel(ell, t * y, t * s))


def breakpoint_reference(set_, y, s):
    """The cone-interior alpha* of the box, l1 and simplex kernels with the
    breakpoints built on numpy arrays and solved by _breakpoint_root, zero
    halfwidths skipped."""
    if isinstance(set_, Box):
        b, a = set_.halfwidths, np.abs(y)
        live = b > 0.0
        return roots._breakpoint_root(a[live] / b[live], 1.0, s, b[live] * a[live],
                                      b[live] * b[live])
    r, v = (set_.radius, np.abs(y)) if isinstance(set_, L1Ball) else (1.0, y)
    top = float(v.max())
    lift = s + r * max(top, 0.0)
    return lift + r * roots._breakpoint_root(v - top, r * r, -r * lift)


@pytest.mark.parametrize("n", [1, 2, 12])
def test_breakpoint_kernels_hand_their_lists_to_the_root_bit_for_bit(n, monkeypatch):
    # Up to _FLOATS entries the box, l1 and simplex kernels solve on the
    # floats of their branch tests: the box hands its lists to
    # _sorted_root_floats, the l1 and simplex kernels their breakpoints to
    # _breakpoint_root, which lists them, and at two entries all three take
    # _pair_root.  Each gives the same root, bit for bit, as _breakpoint_root
    # on the breakpoints built on numpy arrays, zero halfwidths included.
    solved = []
    for module, name in ((sets, "_sorted_root_floats"), (roots, "_sorted_root_floats"),
                         (sets, "_pair_root")):
        root = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, root=root: solved.append(1) or root(*args))
    rng = np.random.default_rng(n + 50)
    zeros = rng.choice((0.0, 0.5, 1.0), n)
    zeros[0] = 0.0
    sets_ = [Box(rng.uniform(0.5, 2.0, n)), Box(zeros), Box(np.zeros(n)),
             Box(np.ones(n)), L1Ball(1.3, n), Simplex(n)]
    queries = [(set_, y, s) for set_ in sets_
               for y, s in kernel_queries(set_, rng, count=30)]
    queries += [(set_, y, s) for set_, y, s, _ in [*box_edges(n, rng),
                                                   *simplex_edges(n, rng),
                                                   *signed_zero_edges(n, rng)]]
    rooted = 0
    for set_, y, s in queries:
        for t in (1e-9, 1.0, 1e12):
            del solved[:]
            alpha, _, branch = set_._project_cone(t * y, t * s)
            if not solved:
                continue
            assert branch is Branch.CONE_INTERIOR
            assert alpha.hex() == breakpoint_reference(set_, t * y, t * s).hex()
            rooted += 1
    assert rooted > 50


#: The catalog's 2-D sets whose kernels take a 2-entry path: all but the
#: ellipsoid, whose V^T y and V z stay numpy's, and the logged defects.
PAIR_ENTRIES = [e for e in select(CATALOG, kernel=True) if not e.xfail
                and e.make().dim == 2 and e.spec_type != "ellipsoid"]

#: Query scales that put the query on both sides of the rescale window.
PAIR_SCALES = (1e-300, 1e-150, 1e-9, 1.0, 1e12, 1e150, 1e300)


def assert_pair_path_is_general(monkeypatch, set_, queries):
    """project_homogenization on each query at every scale of PAIR_SCALES,
    bit for bit on the 2-entry path and on the general path, which
    ``sets._FLOATS`` = 1 selects while the cores of roots stay on floats;
    returns the branches met.  A scale that leaves the float64 range is
    skipped."""
    branches = set()
    for y, s in queries:
        for t in PAIR_SCALES:
            if not math.isfinite(math.hypot(*(t * y), t * s)):
                continue
            answers = []
            for limit in (roots._FLOATS, 1):
                monkeypatch.setattr(sets, "_FLOATS", limit)
                r = project_homogenization(set_, (t * y, t * s))
                answers.append((r.alpha_star.hex(), r.point.y.tobytes(),
                                r.point.s.hex(), r.branch, r.iterations))
            assert answers[0] == answers[1]
            branches.add(answers[0][3])
    return branches


@pytest.mark.parametrize("entry", PAIR_ENTRIES, ids=lambda e: e.id)
def test_two_entry_paths_answer_as_the_general_path(entry, monkeypatch):
    set_ = entry.make()
    rng = np.random.default_rng(71)
    queries = kernel_queries(set_, rng, count=30) + [(np.zeros(2), 0.0)]
    assert assert_pair_path_is_general(monkeypatch, set_, queries) == set(Branch)


def test_two_entry_paths_answer_as_the_general_path_on_the_edges(monkeypatch):
    # Branch edges in exact sums, zero halfwidths, ties and signed zeros.
    rng = np.random.default_rng(72)
    for _ in range(10):
        for set_, y, s, _ in [*box_edges(2, rng), *simplex_edges(2, rng),
                              *signed_zero_edges(2, rng)]:
            assert_pair_path_is_general(monkeypatch, set_, [(y, s)])


#: Entries and heights of the dyadic grid: signed zeros, ties and branch
#: edges in exact sums.
GRID = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 2.0, -2.0)
GRID_HEIGHTS = GRID + (0.375, 3.0)


def test_two_entry_kernels_answer_as_the_general_path_on_a_grid(monkeypatch):
    # Every y with entries in GRID at every height of GRID_HEIGHTS, on each
    # 2-entry kernel and on the kernel of its polar view, which takes the
    # height reflected: bit for bit with the general path, where the clip,
    # the positive part and the sign of each zero follow numpy's tie rule.
    sets_ = [Box([1.0, 2.0]), Box([0.5, 0.5]), Box([0.0, 1.0]), Box([-0.0, 0.5]),
             Box([0.0, 0.0]), L1Ball(0.5, 2), Simplex(2),
             EuclideanBall((0.0, 0.0), 1.5), EuclideanBall((0.5, 0.0), 1.0),
             BallPen((0.0, 1.0)), BallPen((0.6, -0.8))]
    for set_ in sets_:
        for kernel in (set_._project_cone, sets._Polar(set_)._project_cone):
            for y0 in GRID:
                for y1 in GRID:
                    y = np.array([y0, y1])
                    for s in GRID_HEIGHTS:
                        answers = []
                        for limit in (roots._FLOATS, 1):
                            monkeypatch.setattr(sets, "_FLOATS", limit)
                            a, x, branch = kernel(y, s)
                            answers.append((a.hex(), x.tobytes(), branch))
                        assert answers[0] == answers[1]


def test_pair_root_is_the_sorted_root_bit_for_bit():
    # On two breakpoints, ties and signed zeros included, weighted and
    # unweighted, with slope 0 and above.
    values = (-1.0, -0.0, 0.0, 0.5, 1.0)
    for t0, t1, u0, u1 in itertools.product(values, repeat=4):
        for w0, w1 in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (100.0, 1.0)):
            for slope in (0.0, 0.25, 1.0):
                for offset in (-1.0, -0.0, 0.0, 0.5):
                    want = roots._sorted_root_floats([t0, t1], slope, offset,
                                                     [u0, u1], [w0, w1])
                    got = roots._pair_root(t0, t1, slope, offset, u0, u1, w0, w1)
                    assert got.hex() == want.hex()
        for slope, offset in ((0.0, -1.0), (0.0, -0.0), (1.0, -0.0), (0.25, 0.5)):
            want = roots._sorted_root_floats([t0, t1], slope, offset, None, None)
            got = roots._pair_root(t0, t1, slope, offset, t0, t1, 1.0, 1.0)
            assert got.hex() == want.hex()


def test_box_keeps_one_copy_of_its_halfwidths():
    # Where no halfwidth is zero the cone kernel takes them as they are.
    box = Box([0.5, 2.0, 1.0])
    assert box._live is None and box._live_b is box.halfwidths
    box = Box([0.5, 0.0, 1.0])
    assert box._live.tolist() == [0, 2] and box._live_b.tolist() == [0.5, 1.0]


@pytest.mark.parametrize("spread", [0.0, 2.0, 4.0])
def test_two_entry_ellipsoid_agrees_with_the_generic_solver(spread):
    rng = np.random.default_rng(int(spread) + 60)
    ell = random_ellipsoid(2, rng, spread)
    for y, s in ellipsoid_queries(ell, rng):
        for t in (1e-9, 1e-3, 1.0, 1e6, 1e12):
            v = (t * y, t * s)
            kernel = project_homogenization(ell, v)
            generic = project_homogenization(ell, v, force_iterative=True, eps=1e-12)
            size = t * math.hypot(*y, s)
            assert abs(kernel.alpha_star - generic.alpha_star) <= 1e-9 * size
            np.testing.assert_allclose(kernel.point.y, generic.point.y, rtol=0.0,
                                       atol=1e-9 * size)
