import doctest
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import homcone
from homcone import BallPen
from homcone.cli import main

BALL = '{"type":"euclidean_ball","center":[1,0],"radius":1}'
UNIT_BALL = '{"type":"euclidean_ball","center":[0,0],"radius":1}'
PEN = '{"type":"ball_pen","direction":[0,1]}'
BOX = '{"type":"box","halfwidths":[1,1]}'
# "--height=-inf" keeps argparse from reading -inf as an option.
NON_FINITE_HEIGHTS = pytest.mark.parametrize(
    "height", [["--height", "nan"], ["--height", "inf"], ["--height=-inf"]],
    ids=["nan", "inf", "-inf"])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_python(code):
    """``python -c code`` in a new interpreter on this checkout's homcone."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(homcone.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)


def test_import_does_not_load_scipy():
    # Start-up cost of every `homcone` process: the package needs numpy only.
    proc = fresh_python("import sys, homcone, homcone.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: Exits 0 where ``import homcone`` loads neither ``homcone.paper`` nor
#: ``homcone.cli`` and the names of the paper's worked examples, its
#: reference bisection among them, come from ``homcone.paper`` alone; the CI
#: runs the same check on the installed package.
SPLIT_CHECK = """
import sys, homcone, homcone.homproj
assert 'homcone.paper' not in sys.modules, 'import homcone loads homcone.paper'
assert 'homcone.cli' not in sys.modules, 'import homcone loads homcone.cli'
from homcone.paper import (QuarticCoefficients, bisection_projection, find_alpha_star,
                           quartic_coefficients, reference_trace)
for name in ('QuarticCoefficients', 'bisection_projection', 'find_alpha_star',
             'quartic_coefficients', 'reference_trace'):
    assert not hasattr(homcone, name) and not hasattr(homcone.homproj, name), name
assert len(homcone.__all__) == 18, homcone.__all__
"""


def test_import_leaves_the_paper_and_the_cli_unloaded():
    # A fresh interpreter, as this session has imported every module.
    proc = fresh_python(SPLIT_CHECK)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_reference_instance(capsys):
    code, out, _ = run(
        capsys,
        "project", "--set", BALL, "--point", "1,2", "--height", "1",
        "--alpha0", "3", "--beta0", "5", "--eps", "1e-6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_star"] == pytest.approx(1.4597189, abs=1e-7)
    assert payload["point"] == pytest.approx([1.1327162, 1.4226203], abs=1e-6)
    assert payload["height"] == pytest.approx(1.4597189, abs=1e-7)
    assert payload["branch"] == "cone_interior"
    assert payload["iterations"] == 23


def test_project_apex(capsys):
    code, out, _ = run(
        capsys, "project", "--set", UNIT_BALL, "--point", "0,0", "--height", "-1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == [0.0, 0.0]
    assert payload["height"] == 0.0
    assert payload["branch"] == "recession"


def test_project_ball_pen_ray_branch(capsys):
    code, out, _ = run(
        capsys, "project", "--set", PEN, "--point", "4,0", "--height", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_star"] == pytest.approx(2.0)
    assert payload["point"] == pytest.approx([2.0, 0.0])
    assert payload["height"] == pytest.approx(2.0)


def test_project_trace_output(capsys):
    code, out, _ = run(
        capsys,
        "project", "--set", BALL, "--point", "1,2", "--height", "1",
        "--alpha0", "3", "--beta0", "5", "--trace", "--force-iterative",
    )
    assert code == 0
    lines = out.strip().split("\n")
    json.loads(lines[0])
    assert lines[1] == "n,alpha,mid,beta,dpsi_alpha,dpsi_mid,dpsi_beta"
    assert len(lines) == 2 + 23
    # Bracket-move rows mark the missing midpoint with empty fields.
    assert lines[2].split(",")[2] == ""


def test_project_set_from_file(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(UNIT_BALL, encoding="utf-8")
    code, out, _ = run(
        capsys, "project", "--set", str(path), "--point", "3,4", "--height", "0"
    )
    assert code == 0
    assert json.loads(out)["height"] == pytest.approx(2.5)


def test_project_rejects_malformed_spec(capsys):
    code, _, err = run(
        capsys, "project", "--set", "{broken", "--point", "1,1", "--height", "0"
    )
    assert code == 2
    assert "error" in err


def test_project_rejects_infinite_radius(capsys):
    code, out, err = run(
        capsys,
        "project", "--set", '{"type":"euclidean_ball","center":[0,0],"radius":Infinity}',
        "--point", "3,4", "--height", "0.5",
    )
    assert code == 2
    assert out == ""
    assert "radius must be positive and finite" in err


def test_project_rejects_non_square_q(capsys):
    code, out, err = run(capsys, "project", "--set", '{"type":"ellipsoid","q":[[1,0,0],[0,1,0]]}',
                         "--point", "1,1", "--height", "1")
    assert (code, out) == (2, "")
    assert "Q must be a square matrix" in err


def test_project_rejects_unknown_type(capsys):
    code, _, _ = run(
        capsys,
        "project", "--set", '{"type":"dodecahedron"}', "--point", "1,1",
        "--height", "0",
    )
    assert code == 2


def test_project_rejects_an_unhashable_type(capsys):
    # A list as the type once escaped as a TypeError traceback with exit 1.
    code, out, err = run(capsys, "project", "--set", '{"type":[1]}', "--point", "1",
                         "--height", "1")
    assert (code, out, err) == (2, "", "error: unknown set type [1]\n")


def test_project_rejects_unprojectable_variant(capsys):
    code, _, _ = run(
        capsys,
        "project", "--set", '{"type":"hyperbolic"}', "--point", "1,1",
        "--height", "0",
    )
    assert code == 2


@pytest.mark.parametrize("spec, expected", [
    ('{"type":"ball_plus_strip"}', PEN),
    ('{"type":"shifted_unit_ball","d":[0,1]}',
     '{"type":"euclidean_ball","center":[0,-1],"radius":1}'),
], ids=["ball_plus_strip", "shifted_unit_ball"])
def test_project_paper_example_specs(capsys, spec, expected):
    # The two spec types build a ball pen and a ball and project as those do.
    argv = ["--point", "1,2", "--height", "1"]
    code, out, _ = run(capsys, "project", "--set", spec, *argv)
    assert code == 0
    assert run(capsys, "project", "--set", expected, *argv) == (0, out, "")


def test_project_p_ball_without_projector_is_usage_error(capsys):
    # At p = 1e308 the p-th powers of the rescaled query underflow, which once
    # put (5, 0) inside the unit p-ball and answered "already_in_k".
    code, out, err = run(capsys, "project", "--set", '{"type":"p_ball","p":1e308,"radius":1}',
                         "--point", "5,0", "--height", "1")
    assert (code, out) == (2, "")
    assert err == "error: p-ball projection is implemented for p in {2, inf} only\n"


def test_project_unrecognized_p_is_usage_error(capsys):
    code, out, err = run(
        capsys,
        "project", "--set", '{"type":"p_ball","p":"two","radius":1}',
        "--point", "1,1", "--height", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: bad parameters for p_ball: unrecognized p value 'two'\n"


def test_project_bad_point(capsys):
    code, _, _ = run(
        capsys, "project", "--set", UNIT_BALL, "--point", "1,zebra", "--height", "0"
    )
    assert code == 2


# Each point has the set's dimension once its empty coordinate is dropped, so
# only parsing every token rejects it.  A nan entry is rejected on floats (3
# entries) and on numpy (40), and so are a wrong length, an outside centre and
# a set without a projector.
@pytest.mark.parametrize("point, spec, message", [
    ("3,,4", UNIT_BALL, "bad point"),
    ("1,2,", UNIT_BALL, "bad point"),
    (",1", '{"type":"box","halfwidths":[1]}', "bad point"),
    ("1,nan,1", '{"type":"simplex","dim":3}', "vector entries must be finite"),
    ("1," * 20 + "nan" + ",1" * 19, '{"type":"simplex","dim":40}', "entries must be finite"),
    ("1,2,3", BOX, "expected dimension 2, got 3"),
    ("1,2", '{"type":"euclidean_ball","center":[2,0],"radius":1}', "must contain the origin"),
    ("1,1", '{"type":"hyperbolic"}', "has no projector"),
], ids=["3,,4", "1,2,", ",1", "nan_3", "nan_40", "dimension", "centre_outside", "hyperbolic"])
def test_project_empty_coordinate_is_bad_point(capsys, point, spec, message):
    code, out, err = run(capsys, "project", "--set", spec, "--point", point,
                         "--height", "1")
    assert code == 2
    assert out == ""
    assert message in err


def test_project_point_may_contain_spaces(capsys):
    code, out, _ = run(capsys, "project", "--set", UNIT_BALL, "--point", "3, 4",
                       "--height", "0")
    assert code == 0
    assert json.loads(out)["point"] == pytest.approx([1.5, 2.0])


# Each point has the dimension that int() would read from the value.
@pytest.mark.parametrize("dim, point", [("2.7", "1,1"), ("true", "1"), ('"3"', "1,1,1")])
def test_project_non_integer_dim_is_usage_error(capsys, dim, point):
    spec = f'{{"type":"simplex","dim":{dim}}}'
    code, out, err = run(capsys, "project", "--set", spec, "--point", point,
                         "--height", "0")
    assert code == 2
    assert out == ""
    assert "dimension must be an integer" in err


@pytest.mark.parametrize("spec", [UNIT_BALL, BALL, PEN, BOX])
@NON_FINITE_HEIGHTS
def test_project_non_finite_height_is_usage_error(capsys, spec, height):
    code, out, err = run(capsys, "project", "--set", spec, "--point", "1,2", *height)
    assert code == 2
    assert out == ""
    assert "height must be finite" in err


def test_project_max_iter_exhaustion_is_numerical_failure(capsys):
    code, _, err = run(
        capsys,
        "project", "--set", BALL, "--point", "1,2", "--height", "1",
        "--alpha0", "3", "--beta0", "5", "--max-iter", "1",
    )
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("spec, solver", [
    (UNIT_BALL, []),
    ('{"type":"euclidean_ball","center":[0.1,0],"radius":1}', ["--force-iterative"]),
], ids=["kernel", "solver"])
def test_project_beyond_the_float_range_is_numerical_failure(capsys, spec, solver):
    # alpha* is about 2e308 on both balls, from the cone kernel and from the
    # generic solver: a one-line error, no traceback.
    code, out, err = run(
        capsys,
        "project", "--set", spec, "--point", "1.7e308,1.7e308", "--height", "1.7e308",
        *solver,
    )
    assert code == 3
    assert out == ""
    assert err == "error: the projection exceeds the float64 range\n"


def test_project_on_the_boundary_of_the_polar_of_k(capsys):
    # s = -sigma_C(y) for a stretched ellipsoid: the apex, not a stalled search.
    code, out, _ = run(
        capsys,
        "project", "--set",
        '{"type":"ellipsoid","q":[[4851861,0,0],[0,33559308,0],[0,0,156042]]}',
        "--point", "2.8,-0.1,0.1", "--height", "-0.001296247702469466",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "recession"
    assert payload["alpha_star"] == 0.0


def test_project_bracket_beyond_the_rescaled_range_is_usage_error(capsys):
    # Valid as given, but beta0 overflows on this tiny query's rescale by 2^995.
    code, out, err = run(
        capsys,
        "project", "--set", BALL, "--point=1e-300,2e-300", "--height=1e-300",
        "--alpha0=1e-300", "--beta0=2e300",
    )
    assert (code, out) == (2, "")
    assert err == "error: beta0 leaves the float64 range at this query's scale\n"


@pytest.mark.parametrize("bracket", [[], ["--alpha0", "3", "--beta0", "5"]],
                         ids=["default", "bracket"])
@pytest.mark.parametrize("max_iter", ["0", "-2"])
def test_project_nonpositive_max_iter_is_usage_error(capsys, bracket, max_iter):
    code, out, err = run(
        capsys,
        "project", "--set", BOX, "--point", "3,4", "--height", "0.5",
        "--max-iter", max_iter, *bracket,
    )
    assert code == 2
    assert out == ""
    assert "max_iter must be at least 1" in err


@pytest.mark.parametrize("spec", [BOX, UNIT_BALL], ids=["box", "ball0"])
@pytest.mark.parametrize("solver", [
    ["--alpha0", "0.1", "--beta0", "inf"],
    ["--alpha0", "nan", "--beta0", "5"],
    ["--eps", "inf"],
    ["--eps", "nan"],
], ids=["beta0_inf", "alpha0_nan", "eps_inf", "eps_nan"])
def test_project_non_finite_solver_parameter_is_usage_error(capsys, spec, solver):
    # --beta0 inf once ran 200 bisection steps and exited 3.
    code, out, err = run(
        capsys, "project", "--set", spec, "--point", "3,4", "--height", "0.5", *solver,
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("spec", [
    '{"type":"euclidean_ball","center":[0,0],"radius":true}',
    '{"type":"euclidean_ball","center":[0,0],"radius":"2"}',
    '{"type":"box","halfwidths":[true,1]}',
    '{"type":"ball_pen","direction":[false,true]}',
    '{"type":"p_ball","p":true,"radius":1}',
    '{"type":"ellipsoid","q":[[2,"0"],[0,1]]}',
])
def test_project_non_numeric_spec_field_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "project", "--set", spec, "--point", "1,2", "--height", "1")
    assert code == 2
    assert out == ""
    assert "must be numeric" in err


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_emits_23_rows(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,alpha,mid,beta,dpsi_alpha,dpsi_mid,dpsi_beta"
    assert len(lines) == 24
    assert lines[1] == "1,3.0000000,,5.0000000,4.10e+00,,8.11e+00"
    assert lines[7].split(",")[2] == "1.4765625"
    assert lines[7].split(",")[5] == "6.29e-02"
    assert lines[23].split(",")[1] == "1.4597189"


def test_table1_verify_passes(capsys):
    code, _, err = run(capsys, "table1", "--verify")
    assert code == 0
    assert err == ""


def test_table1_deterministic(capsys):
    _, first, _ = run(capsys, "table1")
    _, second, _ = run(capsys, "table1")
    assert first == second


def test_table1_verify_detects_deviation(capsys, monkeypatch):
    import homcone.cli as cli

    corrupted = list(cli.REFERENCE_TABLE)
    corrupted[0] = (1, "3.0000001", "", "5.0000000", "4.10e+00", "", "8.11e+00")
    monkeypatch.setattr(cli, "REFERENCE_TABLE", tuple(corrupted))
    code, _, err = run(capsys, "table1", "--verify")
    assert code == 3
    assert "verification failed" in err


@pytest.mark.parametrize("rows", [22, 24])
def test_table1_verify_reports_a_row_count_mismatch(capsys, monkeypatch, rows):
    import homcone.cli as cli

    table = cli.REFERENCE_TABLE
    monkeypatch.setattr(cli, "REFERENCE_TABLE", (table + table[-1:])[:rows])
    code, out, err = run(capsys, "table1", "--verify")
    assert (code, out) == (3, "")
    assert err == f"got 23 rows, want {rows}\nreference table verification failed\n"


def test_missing_spec_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "nope.json"
    code, out, err = run(
        capsys,
        "project", "--set", str(path), "--point", "1,1",
        "--height", "0",
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot read set spec file: [Errno 2] No such file or directory: '{path}'\n"


def test_unreadable_spec_file_is_usage_error(capsys, tmp_path):
    # A directory is a path that exists but cannot be read as a file.
    code, out, err = run(capsys, "project", "--set", str(tmp_path), "--point", "1,1",
                         "--height", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read set spec file: ")
    assert str(tmp_path) in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def test_figure_fig41_minimal_density(capsys):
    code, out, _ = run(capsys, "figure", "--name", "fig41", "--density", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,x1,x2,x3"
    # 4 vertices per polytope, 5 heights, cone plus polar.
    assert len(lines) == 1 + 4 * 5 * 2
    assert all(line.split(",")[0] in ("cone", "polar") for line in lines[1:])


def test_figure_fig2a_includes_query_and_projection(capsys):
    code, out, _ = run(capsys, "figure", "--name", "fig2a", "--density", "5")
    assert code == 0
    lines = out.strip().split("\n")
    labels = [line.split(",")[0] for line in lines[1:]]
    assert "query" in labels and "projection" in labels
    proj = [line for line in lines if line.startswith("projection,")][0]
    parts = proj.split(",")
    assert float(parts[1]) == pytest.approx(1.1327162, abs=1e-6)
    assert float(parts[3]) == pytest.approx(1.4597189, abs=1e-6)


def test_figure_all_names_emit_csv(capsys):
    for name in ("fig41", "fig31", "fig22", "fig2a"):
        code, out, _ = run(capsys, "figure", "--name", name, "--density", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "label,x1,x2,x3"
        assert len(lines) > 1
        for line in lines[1:]:
            assert len(line.split(",")) == 4


def test_figure_deterministic(capsys):
    _, first, _ = run(capsys, "figure", "--name", "fig31", "--density", "20")
    _, second, _ = run(capsys, "figure", "--name", "fig31", "--density", "20")
    assert first == second


#: md5 of the rendered bytes of each figure and of the reference instance's
#: `project --trace`, on the bracket route and with --force-iterative.
RENDERED_MD5 = {
    ("figure", "--name", "fig41", "--density", "1"): "d1205aea86a3a6d5616e7cd8cbe51ead",
    ("figure", "--name", "fig41", "--density", "3"): "aad4435cc701be0102b021b9f9114db4",
    ("figure", "--name", "fig31", "--density", "1"): "b86af54f2fc809f4f3209e49a8b10a1c",
    ("figure", "--name", "fig31", "--density", "3"): "79d0e8f1c5bcce1f475f2ee5807bdfb4",
    ("figure", "--name", "fig22", "--density", "1"): "fbbfaabb809262546802464aacc90d31",
    ("figure", "--name", "fig22", "--density", "3"): "12436a0a887d188a6b38e3fdc826b71a",
    ("figure", "--name", "fig2a", "--density", "1"): "3f7bf0100afdbdd8a4c59ecdb702537d",
    ("figure", "--name", "fig2a", "--density", "3"): "78d2e36e0dabc19a7c8a29f286741cf6",
    ("project", "--set", BALL, "--point", "1,2", "--height", "1",
     "--alpha0", "3", "--beta0", "5", "--trace"): "4f01a2e4d73dddefcffd830ba296ab9b",
    ("project", "--set", BALL, "--point", "1,2", "--height", "1",
     "--trace", "--force-iterative"): "47f683c0b85f85f748d19c38bd6f1884",
}


@pytest.mark.parametrize("argv", list(RENDERED_MD5), ids=[
    "fig41-1", "fig41-3", "fig31-1", "fig31-3", "fig22-1", "fig22-3", "fig2a-1",
    "fig2a-3", "trace-bracket", "trace-iterative"])
def test_rendered_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == RENDERED_MD5[argv]


def test_figure_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--name", "fig99"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_figure_bad_density(capsys):
    code, out, err = run(capsys, "figure", "--name", "fig41", "--density", "0")
    assert (code, out, err) == (2, "", "error: density must be at least 1\n")


def test_figure_out_file(tmp_path, capsys):
    path = tmp_path / "cloud.csv"
    code, out, _ = run(
        capsys, "figure", "--name", "fig22", "--density", "2", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.startswith("label,x1,x2,x3\n")
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# polar
# ---------------------------------------------------------------------------

def test_polar_simplex(capsys):
    code, out, _ = run(
        capsys, "polar", "--set", '{"type":"simplex","dim":3}', "--point", "1,1,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["in_polar_set"] is True
    assert payload["in_polar_cone"] is False
    assert payload["in_K_polar"] is None


def test_polar_cone_band_is_relative(capsys):
    # sigma = 2e-12 is below the default band 1e-9 but not below 1e-9 ||y||.
    code, out, _ = run(capsys, "polar", "--set", BOX, "--point", "1e-12,1e-12")
    assert code == 0
    assert json.loads(out)["in_polar_cone"] is False


def test_polar_hyperbolic_infinite_sigma(capsys):
    code, out, _ = run(
        capsys, "polar", "--set", '{"type":"hyperbolic"}', "--point", "1,2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == "+inf"
    assert payload["in_polar_set"] is False


@pytest.mark.parametrize("spec", ['{"type":"hyperbolic"}',
                                  '{"type":"shifted_unit_ball","d":[1,0]}'],
                         ids=["hyperbolic", "shifted_disc"])
def test_polar_sigma_does_not_cancel(capsys, spec):
    # sigma = 2 at this point of both sets; it once read 0.0, in the polar.
    code, out, _ = run(capsys, "polar", "--set", spec, "--point=1e17,632455532.0336759")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == 2.0
    assert payload["in_polar_set"] is False


def test_polar_sigma_is_strict_json_at_extreme_scales(capsys):
    # sigma is finite here; its squares would overflow unscaled.
    code, out, _ = run(
        capsys, "polar", "--set", '{"type":"hyperbolic"}', "--point", "1e200,1e199"
    )
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(out, parse_constant=reject)
    assert payload["sigma"] == pytest.approx(5.0125629e197, rel=1e-8)


def test_polar_ball_boundary(capsys):
    code, out, _ = run(
        capsys,
        "polar", "--set", '{"type":"euclidean_ball","center":[0,0],"radius":2}',
        "--point", "0.4,0.3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == pytest.approx(1.0)
    assert payload["in_polar_set"] is True


def test_polar_with_height(capsys):
    code, out, _ = run(
        capsys, "polar", "--set", PEN, "--point", "0,-1", "--height", "-1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["in_K_polar"] is True
    code, out, _ = run(
        capsys, "polar", "--set", PEN, "--point", "0,-1", "--height", "1"
    )
    assert json.loads(out)["in_K_polar"] is False


def test_polar_set_flag_is_the_sigma_rule_not_the_polar_sets_own(capsys):
    # in_polar_set is sigma <= 1 + tol; C.polar().contains is the polar set's
    # own rule, here the ball pen's closed form, whose band admits <d, y> =
    # 1e-10 where sigma is +inf.  The two differ inside the band.
    code, out, _ = run(capsys, "polar", "--set", PEN, "--point", "0.5,1e-10")
    assert code == 0
    assert out == ('{"sigma": "+inf", "in_polar_set": false, "in_polar_cone": false, '
                   '"in_K_polar": null}\n')
    assert BallPen((0.0, 1.0)).polar().contains((0.5, 1e-10))


def test_polar_p_ball_near_p_one(capsys):
    # q = 10,001: the q-th powers of the rescaled point underflow, which once
    # gave sigma = 0 and put (3, 3) in the polar set and both polar cones.
    code, out, _ = run(capsys, "polar", "--set", '{"type":"p_ball","p":1.0001,"radius":1}',
                       "--point", "3,3", "--height", "-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == pytest.approx(3.0 * 2.0 ** (1.0 / 10001.0), rel=1e-7)
    assert payload["in_polar_set"] is payload["in_polar_cone"] is payload["in_K_polar"] is False


#: One spec of each kind of polar set (cataloged: the centred ball and the l1
#: ball; a closed-form rule: the ball pen and the hyperbolic region; the
#: sigma_C rule: an unequal box and the simplex), each with a point where
#: sigma_C is 1 + 5e-10, inside the default band of 1e-9.
POLAR_KINDS = [
    ('{"type":"euclidean_ball","center":[0,0],"radius":2}', "0.50000000025,0"),
    ('{"type":"l1_ball","radius":1}', "1.0000000005,0"),
    ('{"type":"ball_pen","direction":[0,1]}', "1.0000000005,0"),
    ('{"type":"hyperbolic"}', "1.0000000005,1.0000000005"),
    ('{"type":"box","halfwidths":[0.5,2]}', "0,0.50000000025"),
    ('{"type":"simplex","dim":3}', "1.0000000005,0,0"),
]

#: Per extra flag: the exit code, stdout and stderr of ``homcone polar``.
POLAR_PINNED = [
    ([], 0, '{"sigma": 1.0, "in_polar_set": true, "in_polar_cone": false, '
            '"in_K_polar": null}\n', ""),
    (["--tol=0"], 0, '{"sigma": 1.0, "in_polar_set": false, "in_polar_cone": false, '
                     '"in_K_polar": null}\n', ""),
    (["--height=-1.0000000005"], 0, '{"sigma": 1.0, "in_polar_set": true, '
                                    '"in_polar_cone": false, "in_K_polar": true}\n', ""),
    (["--tol", "nan"], 2, "", "error: tolerance must be finite and nonnegative\n"),
]


def test_polar_output_is_pinned_for_every_kind_of_polar_set(capsys):
    # The bytes, the stderr and the exit code of every kind, in and out of
    # the band and with a bad band, whichever rule the set's polar has.
    for spec, point in POLAR_KINDS:
        for flags, code, out, err in POLAR_PINNED:
            argv = ["polar", "--set", spec, "--point", point, *flags]
            assert run(capsys, *argv) == (code, out, err), argv


@NON_FINITE_HEIGHTS
def test_polar_non_finite_height_is_usage_error(capsys, height):
    code, out, err = run(capsys, "polar", "--set", BOX, "--point=-1,-1", *height)
    assert code == 2
    assert out == ""
    assert "height must be finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_polar_bad_tolerance_is_usage_error(capsys, tol):
    code, out, err = run(capsys, "polar", "--set", BOX, "--point", "0.5,0.5",
                         f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "tolerance must be finite" in err


# ---------------------------------------------------------------------------
# Every subcommand, and the README's examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["project", "--set", UNIT_BALL, "--point", "3,4", "--height", "1"],
    ["table1"],
    ["figure", "--name", "fig41", "--density", "2"],
    ["polar", "--set", BOX, "--point", "1,1"],
], ids=["project", "table1", "figure", "polar"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output file: ")
    assert str(path) in err
    assert not path.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """``(argv, expected)`` for each ``homcone`` command in the README's CLI
    section, with ``expected`` the JSON of the ``# {...}`` comment lines
    under it, or None where it has none."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("homcone "):
                examples.append((shlex.split(line, comments=True)[1:], []))
            elif line.startswith("#"):
                examples[-1][1].append(line.lstrip("# "))
    return [(argv, json.loads(" ".join(lines)) if lines else None)
            for argv, lines in examples]


def test_readme_cli_examples(capsys, tmp_path, monkeypatch):
    # The figure example writes cloud.csv into the working directory.
    monkeypatch.chdir(tmp_path)
    examples = readme_cli_examples()
    assert sorted(argv[0] for argv, expected in examples if expected is not None) == [
        "polar", "project", "project"]
    assert ["table1", "--verify"] in [argv for argv, _ in examples]
    for argv, expected in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if expected is not None:
            assert json.loads(out) == expected, argv
    assert (tmp_path / "cloud.csv").read_text(encoding="utf-8").startswith("label,")


def readme_library_steps():
    """The lines of the python block under the README's "Library surface",
    each as ``(line, expected)``: ``expected`` is the ``# (...)`` comment
    under an expression line, or None."""
    section = README.read_text(encoding="utf-8").split("\n## Library surface\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    steps = []
    for line in block.splitlines():
        if line.startswith("# ("):
            steps[-1] = (steps[-1][0], line[2:])
        elif line.strip():
            steps.append((line, None))
    return steps


def test_readme_library_example():
    # Each commented expression's repr matches its comment, with doctest's
    # ELLIPSIS; every other line runs.
    checker = doctest.OutputChecker()
    steps = readme_library_steps()
    assert sum(expected is not None for _, expected in steps) == 2
    namespace = {}
    for line, expected in steps:
        if expected is None:
            exec(line, namespace)
        else:
            got = repr(eval(line, namespace))
            assert checker.check_output(expected, got, doctest.ELLIPSIS), (line, got)
