#!/usr/bin/env python3
"""chroma benchmark: closed-loop CLI jobs, end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 25 --trace 0

One process, one thread: each job is an in-process ``chroma.cli.main(argv)``
call on an input file generated from the seed, and the next job starts
when the previous one returns.  The workload's job list runs in complete
rounds, at least MIN_ROUNDS and until ``--seconds`` have passed.  Every
report is checked against the outcome its generator expects, against the
digest of its first round, and for seed 1 against the digests committed in
``digests/``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs one round untraced and the same round again with every public
chroma function wrapped (layertrace.py), prints the per-layer metrics, and
writes the spans to ``.perfbench_work/``.  The last line of stdout is
always the JSON result.  Without ``src/chroma`` in the checkout the
benchmark exits with code 2 and prints no result.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests")
DEFAULT_SEED = 1    # reports of this seed are checked against digests/
SECOND_SEED = 2     # the held-out seed for checking a claimed gain
SETUP_REPEATS = 7   # setup_s is the median of this many full set-ups
TAIL_BEYOND = 10    # the tail percentile keeps this many jobs beyond it
MIN_ROUNDS = 5      # so the tail is the 2nd or 3rd slowest job of a round
# Timings are scaled to a host on which the calibration loop takes this long
# (its median on the 2-core machine the benchmark was written on).
CALIBRATION_LOOP = 20000
REFERENCE_CALIBRATION_S = 0.0017

sys.path.insert(0, HERE)
import layertrace  # noqa: E402
import workloads  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


def host_scale(calibrations) -> float:
    """Factor that scales times measured alongside ``calibrations`` to the
    reference host speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)


def setup(workload: str, seed: int, workdir: str):
    """Import chroma afresh, generate and write the inputs; return the
    median scaled set-up time, the cli module and the job list."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "chroma" or m.startswith("chroma.")]:
            del sys.modules[name]
        before = calibrate()
        start = time.perf_counter()
        cli = importlib.import_module("chroma.cli")
        jobs = workloads.build(workload, seed, workdir)
        seconds = time.perf_counter() - start
        times.append(seconds * host_scale([before, calibrate()]))
    return statistics.median(times), cli, jobs


class Checker:
    """Decides whether a job's outcome is the one its generator expects."""

    def __init__(self, expected_digests: dict | None):
        self.expected = expected_digests
        self.first = {}      # job id -> digest of its first report in this run

    def ok(self, job, code, report_path) -> bool:
        if code != job.exit or not os.path.exists(report_path):
            return False
        with open(report_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if self.first.setdefault(job.id, digest) != digest:
            return False
        if self.expected is not None and self.expected.get(job.id) != digest:
            return False
        if job.invariants:
            try:
                report = json.loads(data)
            except ValueError:
                return False
            if any(report.get(k) != v for k, v in job.invariants.items()):
                return False
        return True


def run_job(cli, job, workdir):
    """One timed cli.main call; returns (exit code or None, seconds, report)."""
    report = os.path.join(workdir, "report.out")
    if os.path.exists(report):
        os.remove(report)
    argv = job.argv + ["--input", os.path.join(workdir, job.input), "--output", report]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash counts as a failed job
        code = None
        print(f"job {job.id} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return code, time.perf_counter() - start, report


def run_round(cli, jobs, workdir, checker, latencies, on_job=None) -> tuple:
    """Run every job once; append each latency to latencies[job.id];
    return the number failed and the calibrations taken between jobs."""
    failed = 0
    calibrations = [calibrate()]
    for job in jobs:
        if on_job is not None:
            on_job(job)
        code, seconds, report = run_job(cli, job, workdir)
        latencies.setdefault(job.id, []).append(seconds)
        if not checker.ok(job, code, report):
            failed += 1
            print(f"job {job.id} failed: exit {code}, expected {job.exit}",
                  file=sys.stderr)
        # start each job from a collected heap, as a fresh process would
        gc.collect()
        calibrations.append(calibrate())
    return failed, calibrations


def tail(typical, rounds):
    """(percentile, value) of the highest percentile of a run of ``rounds``
    rounds that has at least TAIL_BEYOND jobs beyond it; ``typical`` holds
    one latency per job of a round."""
    ordered = sorted(typical)
    n = len(ordered)
    beyond = min(n - 1, math.ceil(TAIL_BEYOND / rounds))
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def timed_run(cli, jobs, workdir, checker, seconds, setup_s):
    """At least MIN_ROUNDS complete rounds, and more until ``seconds`` have
    passed.  The host's speed swings by up to 40%, in phases of seconds to
    minutes, for pure-Python code of any kind.  So each round's job times
    are scaled by the calibration loop timed between its jobs, each job's
    latency is its median scaled time over the rounds, and every timing
    metric is taken from those medians."""
    latencies: dict = {}
    failed = rounds = 0
    scales = []
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        raw: dict = {}
        round_failed, calibrations = run_round(cli, jobs, workdir, checker, raw)
        failed += round_failed
        scales.append(host_scale(calibrations))
        for job_id, (seconds_taken,) in raw.items():
            latencies.setdefault(job_id, []).append(seconds_taken * scales[-1])
        rounds += 1
    typical = [statistics.median(latencies[job.id]) for job in jobs]
    attempted = rounds * len(jobs)
    pct, tail_s = tail(typical, rounds)
    print(f"{attempted} jobs in {rounds} rounds of {len(jobs)}; "
          f"job_tail_ms is p{pct:.2f} (at least {TAIL_BEYOND} jobs beyond it); "
          f"failed_frac {failed / attempted:.4f}; host scale per round "
          + " ".join(f"{s:.3f}" for s in scales))
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(jobs) / sum(typical), "1/s"),
        "job_p50_ms": (1000 * statistics.median(typical), "ms"),
        "job_tail_ms": (1000 * tail_s, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return attempted, failed, metrics, True


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

CYCLO_OPS = ("mul", "add", "inverse", "is_zero")
CONDUCTORS = (1, 3, 5, 7, 12, 21)
# (metric, traced function, field); field is calls, s or self_s
TRACED_METRICS = [
    *[(f"scalars.Cyclo.{op}.calls", f"scalars.Cyclo.{op}", "calls") for op in CYCLO_OPS],
    *[(f"scalars.Cyclo.{op}.self_s", f"scalars.Cyclo.{op}", "self_s") for op in CYCLO_OPS],
    ("scalars.Rational01.init.calls", "scalars.Rational01.init", "calls"),
    ("scalars.Rational01.init.self_s", "scalars.Rational01.init", "self_s"),
    ("scalars.Scalar.mul.calls", "scalars.Scalar.mul", "calls"),
    ("scalars.Scalar.mul.self_s", "scalars.Scalar.mul", "self_s"),
    ("datum.Datum.init.calls", "datum.Datum.init", "calls"),
    ("datum.Datum.init.self_s", "datum.Datum.init", "self_s"),
    ("groups.Bicharacter.is_nondegenerate.calls", "groups.Bicharacter.is_nondegenerate", "calls"),
    ("groups.Bicharacter.is_nondegenerate.self_s", "groups.Bicharacter.is_nondegenerate", "self_s"),
    ("weyl.reflect_datum.calls", "weyl.reflect_datum", "calls"),
    ("weyl.reflect_datum.self_s", "weyl.reflect_datum", "self_s"),
    ("weyl.cartan_row.calls", "weyl.cartan_row", "calls"),
    ("weyl.check_consistent_coloring.s", "weyl.check_consistent_coloring", "s"),
    ("groups.Bicharacter.radical.s", "groups.Bicharacter.radical", "s"),
    ("groups.perp.s", "groups.perp", "s"),
    ("groups.quotient.s", "groups.quotient", "s"),
    ("zlinalg.smith_normal_form.calls", "zlinalg.smith_normal_form", "calls"),
    ("zlinalg.smith_normal_form.s", "zlinalg.smith_normal_form", "s"),
    ("triangular.reduce_commutation_factor.s", "triangular.reduce_commutation_factor", "s"),
    ("triangular.scheunert_cocycle.s", "triangular.scheunert_cocycle", "s"),
    ("hopfcheck.check_axioms.self_s", "hopfcheck.check_axioms", "self_s"),
    ("hopfcheck.solve_antipode.self_s", "hopfcheck.solve_antipode", "self_s"),
    ("hopfcheck.convolve.calls", "hopfcheck.convolve", "calls"),
    ("hopfcheck.StructBialgebra.from_json.s", "hopfcheck.StructBialgebra.from_json", "s"),
    ("extensions.build_bicrossed.s", "extensions.build_bicrossed", "s"),
    ("extensions.aut_ext_solve.s", "extensions.aut_ext_solve", "s"),
    ("extensions.kac_condition.s", "extensions.kac_condition", "s"),
    ("extensions.check_split_color_extension.s", "extensions.check_split_color_extension", "s"),
    ("extensions.ring_family.s", "extensions.ring_family", "s"),
    ("dynkin.colored_diagram.s", "dynkin.colored_diagram", "s"),
    ("dynkin.isomorphic.s", "dynkin.isomorphic", "s"),
    ("doubles.color_retraction_count.s", "doubles.color_retraction_count", "s"),
    ("doubles.single_copy_color_check.s", "doubles.single_copy_color_check", "s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]
LAYERS = ("scalars", "groups", "zlinalg", "datum", "weyl", "dynkin", "doubles",
          "triangular", "extensions", "hopfcheck", "cli")
# the layers' self time must add up to the traced job wall time this closely
SELF_SUM_TOLERANCE = 0.05


def kernel_timings(seed: int) -> dict:
    """Per-operation times of the scalar kernels on seeded operands."""
    from fractions import Fraction
    from chroma.scalars import Cyclo, Rational01, Scalar, cyclotomic_polynomial

    rng = random.Random(f"kernels:{seed}")

    def cyclo(N):
        deg = len(cyclotomic_polynomial(N)) - 1
        return Cyclo(N, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                         for _ in range(deg)])

    def per_op(fn, reps):
        # median over 7 batches of the time per call
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            samples.append((time.perf_counter() - start) / reps)
        return statistics.median(samples)

    out = {}
    for N, reps in ((1, 2000), (7, 200), (21, 20)):
        a, b = cyclo(N), cyclo(N)
        out[f"scalars.cyclo_mul_us.N{N}"] = (1e6 * per_op(lambda: a * b, reps), "us")
    c = cyclo(21)
    while c.is_zero():
        c = cyclo(21)
    out["scalars.cyclo_inverse_us.N21"] = (1e6 * per_op(c.inverse, 5), "us")
    r, s = Rational01(rng.randrange(1, 60), 60), Rational01(rng.randrange(1, 84), 84)
    out["scalars.rational01_add_ns"] = (1e9 * per_op(lambda: r + s, 20000), "ns")
    x = Scalar(r, {"q": rng.randrange(-3, 4), "p": 1})
    y = Scalar(s, {"q": rng.randrange(-3, 4)})
    out["scalars.scalar_mul_ns"] = (1e9 * per_op(lambda: x * y, 20000), "ns")
    return out


def traced_run(cli, jobs, workdir, checker, seed):
    untraced: dict = {}
    failed, _ = run_round(cli, jobs, workdir, checker, untraced)
    tracer = layertrace.Tracer()
    traced: dict = {}

    def on_job(job):
        tracer.job = job.id

    with tracer:
        failed += run_round(cli, jobs, workdir, checker, traced, on_job)[0]
    leftover = layertrace.installed_wrappers()
    tracer.write(os.path.join(workdir, "trace.json"))

    summary = tracer.summary()
    metrics = {}
    for metric, fn, field in TRACED_METRICS:
        value = summary.get(fn, {}).get(field, 0)
        metrics[metric] = (value, "count" if field == "calls" else "s")
    for op in CYCLO_OPS:
        by_n = summary.get(f"scalars.Cyclo.{op}", {}).get("calls_by_conductor", {})
        for N in CONDUCTORS:
            metrics[f"scalars.Cyclo.{op}.calls.N{N}"] = (by_n.get(str(N), 0), "count")
    attempts = tracer.pairs[("weyl.weyl_orbit", "weyl.reflect_datum")]
    metrics["weyl.new_node_frac"] = (
        tracer.orbit_new_nodes / attempts if attempts else 0.0, "fraction")
    layers = tracer.layer_self_s()
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    wall = sum(sum(v) for v in traced.values())
    self_sum = sum(layers.values())
    metrics["trace.self_sum_frac"] = (self_sum / wall, "fraction")
    metrics["trace.overhead_frac"] = (
        wall / sum(sum(v) for v in untraced.values()) - 1, "fraction")
    metrics.update(kernel_timings(seed))

    # the tracer is sound when self times add up to the job wall time and
    # every wrapper is gone afterwards
    sane = abs(self_sum / wall - 1) <= SELF_SUM_TOLERANCE and not leftover
    cyclo_calls = sum(metrics[f"scalars.Cyclo.{op}.calls"][0] for op in CYCLO_OPS)
    print(f"traced {len(jobs)} jobs: self time {self_sum:.3f} s of {wall:.3f} s "
          f"job wall time (tolerance {SELF_SUM_TOLERANCE}); Cyclo calls "
          f"{cyclo_calls}; wrappers left {leftover}; spans kept "
          f"{len(tracer.spans)}, dropped {tracer.spans_dropped}")
    return 2 * len(jobs), failed, metrics, sane


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chroma", "cli.py")):
        print(f"error: no chroma sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("CHROMA_THREADS", None)
    workdir = os.path.join(WORK, args.workload)

    setup_s, cli, jobs = setup(args.workload, args.seed, workdir)
    expected = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(DIGESTS, f"{args.workload}.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
    checker = Checker(expected)
    # objects made during set-up are never garbage; keep the collector off them
    gc.collect()
    gc.freeze()
    if args.trace:
        attempted, failed, metrics, sane = traced_run(cli, jobs, workdir, checker,
                                                      args.seed)
    else:
        attempted, failed, metrics, sane = timed_run(cli, jobs, workdir, checker,
                                                     args.seconds, setup_s)
    print(json.dumps({
        "correct": failed == 0 and sane,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
