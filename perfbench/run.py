"""homcone benchmark: one workload, one seed, one closed-loop caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload iter_small --seed 1 --seconds 15 --trace 0

It imports the package from ``src/`` of the working directory, generates the
workload's sets and queries from the seed, times the queries, checks every
answer with a Moreau certificate and prints a report.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics, from a separate traced loop, with ``--trace 1``.
"""

import os

# One closed-loop caller on a small host: keep BLAS from adding threads.  This
# must run before numpy is first imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import calibrate
import catalog
import certify
import tracing

#: Fresh interpreters started to time set-up, half before and half after the
#: timed loop; the median is reported.
SETUP_PROBES = 6
#: Untimed warm-up before the timed loop, in seconds.
WARMUP_S = 1.0
#: Distinct queries, evenly spaced, that get a reference alpha* (report only).
REFERENCE_QUERIES = 300
#: Calibrated repeats kept per query, in a ring over the passes.
SAMPLES_PER_QUERY = 1024
#: Seconds allowed for one ``homcone`` process before the run is abandoned.
PROCESS_TIMEOUT_S = 60.0

#: Exception types reported as their own per-layer metric; any other type is
#: counted under ``fail.other`` and still named in the report.
NAMED_FAILURES = ("IndexError", "MaxIterationsExceeded")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with fewer than eleven samples the maximum,
    at percentile 100.
    """
    v = sorted(values)
    k = max(len(v) - 11, 0) if len(v) > 10 else len(v) - 1
    return v[k], 100.0 * (k + 1) / len(v)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def locate_package():
    """Put ``src`` of the working directory first on the path, or exit."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "homcone", "__init__.py")):
        sys.exit("error: no src/homcone in the working directory; run from the "
                 "root of a homcone checkout")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    import homcone

    if not os.path.abspath(homcone.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported homcone from {homcone.__file__}, not {src}")
    return homcone


def run_child(argv):
    """Run a child interpreter; return (wall seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def setup_probes(workload, seed, count):
    """Import and set-build times, in seconds, of ``count`` fresh interpreters.

    Each probe is calibrated by ``calibrate.PROCESS`` timed just before
    and just after it.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    ref = calibrate.PROCESS
    setups, builds = [], []
    k_prev = ref.seconds()
    for _ in range(count):
        _, code, out, err = run_child([os.path.join(here, "probe.py"), workload,
                                       str(seed)])
        if code != 0:
            raise RuntimeError(f"set-up probe failed:\n{err}")
        k = ref.seconds()
        factor, k_prev = ref.nominal / (0.5 * (k_prev + k)), k
        probe = json.loads(out)
        setups.append(factor * (probe["import_s"] + probe["build_s"]))
        builds.append(factor * probe["build_s"])
    return setups, builds


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

class Outcome:
    """Result of one distinct query on its first timed repeat."""

    __slots__ = ("alpha", "py", "ps", "branch", "iterations", "error")

    def __init__(self, result=None, error=None):
        self.error = error
        if result is not None:
            self.alpha = result.alpha_star
            self.py, self.ps = result.point.y, result.point.s
            self.branch = result.branch.value
            self.iterations = result.iterations

    def same(self, other):
        return self.error == other.error and (
            self.error is not None or self.alpha == other.alpha)


def warm_up(project, sets, queries, seconds, kernel):
    """Untimed calls, cycling over the queries, for ``seconds``."""
    end = time.perf_counter() + seconds
    for i, y, s, _, _ in itertools.cycle(queries):
        if time.perf_counter() >= end:
            break
        try:
            project(sets[i], (y, s))
        except Exception:  # failures are counted in the timed loop
            pass
        kernel.run()


def timed_passes(project, sets, queries, seconds, kernel):
    """Whole passes over the queries until ``seconds`` have elapsed.

    Each query runs once per pass, so its repeats are spread over the run.
    Its latency is the median of its repeats, each calibrated by ``kernel``
    (see ``calibrate.py``).  Its fastest raw repeat is kept for the report.

    Returns (calibrated latency of each query in seconds, fastest raw repeat
    of each query, first-pass outcomes, passes, wall seconds, repeats that
    disagreed with the first pass).
    """
    n = len(queries)
    fastest = [math.inf] * n
    # Filled up front, so the resident set does not depend on the passes run.
    samples = np.full((n, SAMPLES_PER_QUERY), np.nan)
    outcomes = [None] * n
    mismatches = 0
    passes = 0
    block = []
    clock = time.perf_counter

    def close_block(k_before):
        k_after = kernel.seconds(clock)
        factor = kernel.nominal / (0.5 * (k_before + k_after))
        for j, slot, dt in block:
            samples[j, slot] = dt * factor
        block.clear()
        return k_after, clock()

    k_prev = kernel.seconds(clock)
    start = block_start = clock()
    while passes == 0 or clock() - start < seconds:
        slot = passes % SAMPLES_PER_QUERY
        for j, (i, y, s, _, _) in enumerate(queries):
            t0 = clock()
            try:
                result = project(sets[i], (y, s))
                t1 = clock()
                outcome = Outcome(result)
            except Exception as exc:  # every failure is counted, none stops the run
                t1 = clock()
                outcome = Outcome(error=type(exc).__name__)
            fastest[j] = min(fastest[j], t1 - t0)
            if outcomes[j] is None:
                outcomes[j] = outcome
            elif not outcomes[j].same(outcome):
                mismatches += 1
            block.append((j, slot, t1 - t0))
            if t1 - block_start >= calibrate.BLOCK_S:
                k_prev, block_start = close_block(k_prev)
        passes += 1
    wall = clock() - start
    if block:
        close_block(k_prev)
    latency = list(np.nanmedian(samples, axis=1))
    return latency, fastest, outcomes, passes, wall, mismatches


def check_outcomes(hc, sets, geoms, queries, outcomes):
    """Certificate and reference error of every distinct query."""
    failures = Counter()
    relerr = []
    ref_failures = 0
    passed = [False] * len(queries)
    stride = max(1, len(queries) // REFERENCE_QUERIES)
    for j, ((i, y, s, _, _), out) in enumerate(zip(queries, outcomes)):
        if out.error is not None:
            failures[out.error] += 1
            continue
        try:
            cert = certify.certificate(sets[i], geoms[i], y, s, out.py, out.ps)
        except Exception:  # the answer cannot even be checked
            cert = math.inf
        if cert > certify.CERT_TOL:
            failures["certificate"] += 1
        else:
            passed[j] = True
        if j % stride:
            continue
        try:
            ref = certify.reference_alpha(hc, sets[i], y, s)
        except certify.ReferenceFailure:
            ref_failures += 1
            continue
        scale = math.sqrt(float(y @ y) + s * s)
        relerr.append(abs(out.alpha / scale - ref))
    return passed, failures, relerr, ref_failures


def in_process(hc, workload, seed, seconds, trace):
    geoms, queries = catalog.generate(workload, seed)
    sets = [catalog.build_set(hc, g) for g in geoms]
    kernel = calibrate.KERNELS[catalog.WORKLOADS[workload]["calibration"]]
    warm_up(hc.project_homogenization, sets, queries, WARMUP_S, kernel)

    report = {}
    latency, fastest, outcomes, passes, wall, mismatches = timed_passes(
        hc.project_homogenization, sets, queries, seconds / 2 if trace else seconds,
        kernel)
    if trace:
        # The second half of the time runs traced: the per-layer numbers come
        # from it, and its ratio to the untraced half is the tracing overhead.
        tracer = tracing.Tracer()
        tracing.install_homcone_spans(tracer)
        try:
            t_latency, _, t_outcomes, t_passes, _, t_mismatches = timed_passes(
                hc.project_homogenization, sets, queries, seconds / 2, kernel)
        finally:
            tracer.uninstall()
        report["tracer"] = tracer
        report["traced_passes"] = t_passes
        report["trace_overhead"] = (statistics.median(t_latency)
                                    / statistics.median(latency) - 1)
        mismatches += t_mismatches + sum(not a.same(b)
                                         for a, b in zip(outcomes, t_outcomes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passed, failures, relerr, ref_failures = check_outcomes(hc, sets, geoms,
                                                            queries, outcomes)
    n, n_pass = len(queries), sum(passed)
    report.update(
        distinct=n, passes=passes, wall=wall, mismatches=mismatches,
        latency=latency, fastest=fastest,
        # Checked-correct queries per second of calibrated query time.
        qps=n_pass / sum(latency), raw_qps=passes * n_pass / wall,
        n_fail=n - n_pass, failures=failures, relerr=relerr,
        ref_failures=ref_failures, peak_rss_mb=peak_rss_mb, outcomes=outcomes,
        # Every distinct query is checked once and its repeats must agree
        # with it (``mismatches``), so the counts depend on the seed alone.
        attempted=n, failed=n - n_pass,
        known_failing=workload in catalog.KNOWN_FAILING,
    )
    return report


# ---------------------------------------------------------------------------
# The cli_project workload
# ---------------------------------------------------------------------------

def cli_commands(seed):
    """``homcone`` argument lists: one project query per set, then table1."""
    geoms, queries = catalog.generate("cli_project", seed)
    commands = []
    for i, y, s, _, _ in queries:
        commands.append(["project", "--set", json.dumps(geoms[i].spec),
                         "--point=" + ",".join(repr(float(v)) for v in y),
                         f"--height={float(s)!r}"])
    commands.append(["table1", "--verify"])
    return geoms, queries, commands


def in_process_cli(hc, argv):
    """Exit code and standard output of the CLI run inside this process."""
    from homcone import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_project(hc, seed, seconds, trace):
    geoms, queries, commands = cli_commands(seed)
    expected = [in_process_cli(hc, argv) for argv in commands]
    sets = [catalog.build_set(hc, g) for g in geoms]

    # A command fails if its in-process answer fails the certificate or any
    # of its processes differs from the in-process exit code and output.
    failures = Counter()
    failed_cmds = set()
    for j, ((i, y, s, _, _), (code, out)) in enumerate(zip(queries, expected)):
        payload = json.loads(out) if code == 0 else None
        if payload is None or certify.certificate(
                sets[i], geoms[i], y, s, np.array(payload["point"]),
                payload["height"]) > certify.CERT_TOL:
            failures["certificate"] += 1
            failed_cmds.add(j)
    if expected[-1][0] != 0:
        failures["table1"] += 1
        failed_cmds.add(len(commands) - 1)

    run_child(["-m", "homcone", "table1"])  # warm the file cache
    # Each process is calibrated by the reference process run just before
    # and just after it (see calibrate.py).
    ref = calibrate.PROCESS
    timings = [[] for _ in commands]
    raw = []
    bad_runs = []
    passes = 0
    start = time.perf_counter()
    k_prev = ref.seconds()
    while passes == 0 or time.perf_counter() - start < seconds:
        for j, argv in enumerate(commands):
            wall, code, out, err = run_child(["-m", "homcone", *argv])
            k = ref.seconds()
            timings[j].append(wall * ref.nominal / (0.5 * (k_prev + k)))
            raw.append(wall)
            k_prev = k
            if (code, out) != expected[j]:
                bad_runs.append((argv[0], code, err.strip()[-200:]))
                failed_cmds.add(j)
        passes += 1
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    samples = [t for ts in timings for t in ts]
    ok_time = sum(sum(ts) for j, ts in enumerate(timings) if j not in failed_cmds)
    n_ok = sum(len(ts) for j, ts in enumerate(timings) if j not in failed_cmds)
    report = dict(
        distinct=len(commands), passes=passes, wall=wall,
        mismatches=len(bad_runs), bad=bad_runs, latency=samples, raw=raw,
        qps=n_ok / ok_time if n_ok else 0.0, raw_qps=n_ok / wall,
        n_fail=len(failed_cmds), failures=failures, relerr=[], ref_failures=0,
        peak_rss_mb=peak_rss_mb, attempted=len(samples),
        failed=len(samples) - n_ok, known_failing=False,
    )
    if trace:
        # A process is the interpreter, the import of homcone.cli and the
        # command itself, which is timed here with everything imported.
        interp = statistics.median(run_child(["-c", "pass"])[0]
                                   for _ in range(SETUP_PROBES))
        imp = statistics.median(run_child(["-c", "import homcone.cli"])[0]
                                for _ in range(SETUP_PROBES))
        command = []
        for argv in commands:
            times = []
            for _ in range(SETUP_PROBES):
                t0 = time.perf_counter()
                in_process_cli(hc, argv)
                times.append(time.perf_counter() - t0)
            command.append(min(times))
        report["cli"] = {"interpreter_ms": 1e3 * interp,
                         "import_ms": 1e3 * (imp - interp),
                         "command_ms": 1e3 * statistics.median(command)}
    return report


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------



def end_to_end(r, setup_s):
    latency = r["latency"]
    return {
        "setup_s": (setup_s, "s"),
        "query_us_p50": (1e6 * statistics.median(latency), "us"),
        "query_us_tail": (1e6 * tail(latency)[0], "us"),
        "throughput_qps": (r["qps"], "1/s"),
        "pass_rate": (1.0 - r["n_fail"] / r["distinct"], "ratio"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def per_layer(r, build_s):
    tracer = r.get("tracer")
    spans = tracer.spans if tracer else {}

    def span(name):
        return spans.get(name) or tracing.Span()

    queries = r["traced_passes"] * r["distinct"] if tracer else 0
    per_q = (lambda x: x / queries) if queries else (lambda x: 0.0)
    us = 1e-3  # microseconds per nanosecond
    ok = [o for o in r.get("outcomes") or [] if o.error is None]
    top = span("homproj.project_homogenization")
    proj = span("sets.project")
    psi = span("scaledfun.psi_prime")
    closed = span("homproj.project_ice_cream").total_ns + \
        span("homproj.project_ball_pen").total_ns
    cli = r.get("cli", {})
    metrics = {
        "sets.project.calls_per_query": (per_q(proj.calls), "count"),
        "sets.project.us_per_call": (us * proj.total_ns / proj.calls
                                     if proj.calls else 0.0, "us"),
        "sets.project.share": (proj.total_ns / top.total_ns if top.total_ns else 0.0,
                               "ratio"),
        "scaledfun.psi_prime.calls_per_query": (per_q(psi.calls), "count"),
        "scaledfun.psi_prime.self_us_per_call": (us * psi.self_ns / psi.calls
                                                 if psi.calls else 0.0, "us"),
        "homproj.find_alpha_star.steps_per_query": (
            sum(o.iterations for o in ok) / len(ok) if ok else 0.0, "count"),
        "homproj.find_alpha_star.self_us_per_query": (
            per_q(us * span("homproj.find_alpha_star").self_ns), "us"),
        "homproj.project_homogenization.self_us_per_query": (
            per_q(us * top.self_ns), "us"),
        "sets.as_vector.calls_per_query": (per_q(span("sets.as_vector").calls),
                                           "count"),
        "sets.contains.calls_per_query": (per_q(span("sets.contains").calls),
                                          "count"),
        "homproj.closed_form.us_per_query": (per_q(us * closed), "us"),
    }
    for b in catalog.BRANCH_MIX:
        share = sum(o.branch == b for o in ok) / len(ok) if ok else 0.0
        metrics[f"homproj.branch_share.{b}"] = (share, "ratio")
    failures = r["failures"]
    for name in NAMED_FAILURES:
        metrics[f"fail.{name}"] = (failures.get(name, 0), "count")
    metrics["fail.certificate"] = (failures.get("certificate", 0), "count")
    metrics["fail.other"] = (sum(c for k, c in failures.items()
                                 if k not in NAMED_FAILURES + ("certificate",)),
                             "count")
    metrics["fail.reference"] = (r["ref_failures"], "count")
    for k in ("interpreter_ms", "import_ms", "command_ms"):
        metrics[f"cli.{k}"] = (cli.get(k, 0.0), "ms")
    metrics["setup.set_build_ms"] = (1e3 * build_s, "ms")
    metrics["trace.overhead_share"] = (r.get("trace_overhead", 0.0), "ratio")
    metrics["trace.absent_spans"] = (len(tracer.absent) if tracer else 0, "count")
    return metrics


def print_report(workload, seed, r, e2e, layers):
    """Human-readable lines; the JSON result follows on the last line."""
    latency = r["latency"]
    t, pct = tail(latency)
    kind = "processes" if workload == "cli_project" else "distinct queries"
    print(f"workload {workload}  seed {seed}  {r['distinct']} {kind} x "
          f"{r['passes']} passes in {r['wall']:.2f} s wall")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    print(f"  query tail percentile       p{pct:.1f} of {len(latency)} samples")
    print(f"  fail_rate                   {r['n_fail'] / r['distinct']:.6g} "
          f"({r['n_fail']} of {r['distinct']} distinct)")
    if r["failures"]:
        print("  failures by type            " + ", ".join(
            f"{k}={v}" for k, v in sorted(r["failures"].items())))
    if workload == "cli_project":
        print(f"  process_ms_p50              "
              f"{1e3 * statistics.median(latency):.6g} ms")
        print(f"  process_ms_tail             {1e3 * t:.6g} ms (p{pct:.1f})")
        print(f"  raw process_ms_p50          {1e3 * statistics.median(r['raw']):.6g} ms")
        for b in r["bad"][:5]:
            print(f"  MISMATCH {b}")
    else:
        rel = r["relerr"]
        if rel:
            print(f"  alpha_relerr_p50            {statistics.median(rel):.6g}")
            print(f"  alpha_relerr_max            {max(rel):.6g}")
        fast = r["fastest"]
        print(f"  raw fastest-repeat p50      {1e6 * statistics.median(fast):.6g} us")
        print(f"  raw fastest-repeat tail     {1e6 * tail(fast)[0]:.6g} us")
        print(f"  reference failures          {r['ref_failures']}")
        print(f"  repeats disagreeing         {r['mismatches']}")
    print(f"  raw wall throughput         {r['raw_qps']:.6g} 1/s")
    if layers:
        for name, (value, unit) in layers.items():
            print(f"  {name:<48} {value:.6g} {unit}")
        tracer = r.get("tracer")
        if tracer and tracer.absent:
            print("  absent spans: " + ", ".join(sorted(tracer.absent)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hc = locate_package()
    setups, builds = setup_probes(args.workload, args.seed, SETUP_PROBES // 2)
    if args.workload == "cli_project":
        r = cli_project(hc, args.seed, args.seconds, args.trace)
    else:
        r = in_process(hc, args.workload, args.seed, args.seconds, args.trace)
    more = setup_probes(args.workload, args.seed, SETUP_PROBES - len(setups))
    setup_s = statistics.median(setups + more[0])
    build_s = statistics.median(builds + more[1])

    correct = r["mismatches"] == 0 and (r["known_failing"] or r["n_fail"] == 0)
    e2e = end_to_end(r, setup_s)
    layers = per_layer(r, build_s) if args.trace else None
    print_report(args.workload, args.seed, r, e2e, layers)
    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
