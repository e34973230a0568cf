"""Tests of the benchmark itself: generator, certificate, reference, tracing.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import calibrate
import catalog
import certify
import homcone as hc
import run
import tracing

from conftest import BENCH, ROOT

IN_PROCESS = ("iter_small", "iter_large", "closed_form")


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_generator_hits_declared_branch_mix(workload):
    spec = catalog.WORKLOADS[workload]
    geoms, queries = catalog.generate(workload, 7)
    per_set = Counter((i, b) for i, _, _, b, _ in queries)
    for i in range(len(geoms)):
        for branch, count in catalog.branch_counts(spec["per_set"]).items():
            assert per_set[(i, branch)] == count
    lo, hi = spec["scale"]
    for i, y, s, branch, t in queries:
        geom = geoms[i]
        y, s = y / t, s / t  # the unit-scale query
        assert lo <= math.log10(t) <= hi
        edge = -geom.rec_support(y)
        if branch == "already_in_k":
            assert s > 0 and geom.gauge(y) < s
        elif branch == "recession":
            assert s < edge
        else:
            assert edge < s < geom.gauge(y)


def test_same_seed_same_inputs():
    _, a = catalog.generate("iter_small", 3)
    _, b = catalog.generate("iter_small", 3)
    _, c = catalog.generate("iter_small", 4)
    assert all(np.array_equal(p[1], q[1]) and p[2] == q[2] for p, q in zip(a, b))
    assert not all(np.array_equal(p[1], q[1]) for p, q in zip(a, c))


def test_certificate_accepts_closed_forms_and_rejects_perturbed():
    geoms, queries = catalog.generate("closed_form", 5)
    sets = [catalog.build_set(hc, g) for g in geoms]
    rejected = 0
    for i, y, s, branch, _ in queries[:300]:
        r = hc.project_homogenization(sets[i], (y, s))
        py, ps = r.point.y, r.point.s
        assert certify.certificate(sets[i], geoms[i], y, s, py, ps) < 1e-9
        if branch == "cone_interior":
            # What a root finder stopping at half the root would return.
            a = 0.5 * r.alpha_star
            bad = certify.certificate(sets[i], geoms[i], y, s,
                                      a * sets[i].project(y / a), a)
            assert bad > certify.CERT_TOL
            rejected += 1
    assert rejected > 100


def test_ball_pen_dual_residual_tolerates_roundoff():
    geom = catalog.BallPen(np.array([1.0, 0.0]))
    # <d, y_q> is roundoff-positive: sigma_C is +inf, the residual is tiny.
    assert geom.support(np.array([1e-17, -1.0])) == math.inf
    assert certify.dual_residual(geom, np.array([1e-17, -1.0]), -1.0, 1.0) < 1e-15
    assert certify.dual_residual(geom, np.array([0.5, -1.0]), -1.0, 1.0) >= 0.5


def test_reference_matches_closed_form():
    geoms, queries = catalog.generate("closed_form", 2)
    sets = [catalog.build_set(hc, g) for g in geoms]
    for i, y, s, _, _ in queries[:200]:
        scale = math.sqrt(float(y @ y) + s * s)
        alpha = hc.project_homogenization(sets[i], (y, s)).alpha_star
        assert abs(alpha / scale - certify.reference_alpha(hc, sets[i], y, s)) < 1e-9


def test_reference_bracket_failure_is_a_reference_failure():
    class Broken(hc.Box):
        def project(self, x):
            raise IndexError("broken projector")

    with pytest.raises(certify.ReferenceFailure):
        certify.reference_alpha(hc, Broken(np.ones(2)), np.array([3.0, 1.0]), 1.0)


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_tracer_reports_missing_targets_and_restores():
    original = hc.sets.Box.project
    tracer = tracing.Tracer()
    tracer.install("gone", "homcone.homproj", "no_such_function")
    tracer.install("gone.module", "homcone.no_such_module", "f")
    tracer.install_methods("gone.methods", "homcone.sets", "NoSuchBase", "project")
    tracing.install_homcone_spans(tracer)
    try:
        hc.project_homogenization(hc.Box(np.ones(2)), (np.array([3.0, 1.0]), 1.0))
    finally:
        tracer.uninstall()
    assert tracer.absent == {"gone", "gone.module", "gone.methods"}
    assert hc.sets.Box.project is original
    assert tracer.spans["homproj.project_homogenization"].calls == 1
    psi = tracer.spans["scaledfun.psi_prime"]
    # One projection per psi' call plus the final one at alpha*.
    assert tracer.spans["sets.project"].calls == psi.calls + 1 > 1
    assert 0 < psi.self_ns < psi.total_ns


def test_calibration_scales_to_the_kernel_nominal_speed(monkeypatch):
    ticks = iter(range(10 ** 9))
    # Every clock reading is 1 ms after the last, so every raw latency is 1 ms.
    monkeypatch.setattr(run.time, "perf_counter", lambda: 1e-3 * next(ticks))

    class SlowKernel:
        nominal = 1e-4

        def seconds(self, clock):
            return 2 * self.nominal  # the host runs at half the nominal speed

    result = SimpleNamespace(alpha_star=1.0, point=SimpleNamespace(y=0.0, s=1.0),
                             branch=SimpleNamespace(value="cone_interior"),
                             iterations=3)
    latency, fastest, outcomes, passes, _, mismatches = run.timed_passes(
        lambda c, v: result, [None], [(0, 0.0, 1.0, None, 1.0)] * 5, 0.05,
        SlowKernel())
    assert passes > 1 and mismatches == 0
    assert latency == pytest.approx([0.5e-3] * 5) and fastest == pytest.approx([1e-3] * 5)
    assert all(o.iterations == 3 for o in outcomes)


def test_kernels_run():
    for kernel in calibrate.KERNELS.values():
        assert 0.0 < kernel.run() < 10.0 and kernel.seconds() > 0.0


def _traced(workload, seed, seconds=0.5):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly():
    # The second run is longer and makes more passes; counts must not change.
    a, b = _traced("iter_small", 11), _traced("iter_small", 11, seconds=8)
    exact = [k for k, m in a["metrics"].items()
             if m["unit"] == "count" or k.startswith("homproj.branch_share")]
    assert "homproj.find_alpha_star.steps_per_query" in exact
    assert a["metrics"]["homproj.find_alpha_star.steps_per_query"]["value"] > 0
    for k in exact:
        assert a["metrics"][k]["value"] == b["metrics"][k]["value"], k
    assert a["failed"] > 0 and a["correct"] and b["correct"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
