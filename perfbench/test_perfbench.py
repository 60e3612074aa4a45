"""Tests of the benchmark itself (not collected by the library's suite).

    python3 -m pytest perfbench -q

They use the cheap jobs of each workload so they finish in about a minute.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

import layertrace
import run
import workloads

sys.path.insert(0, run.SRC)

# job-id prefixes of the cheap jobs of each workload
CHEAP = {
    "orbit": ("rank2_c3_", "small_"),
    "triangular": ("tri_2x2x2_", "tri_2x6_", "tri_3x3_", "tri_4x4_", "tri_2x2x2x2_"),
    "bicrossed": ("c5c4.", "c7c3.sigma_mut.", "c7c3.tau_mut."),
    "color": ("ring_z3_c2_",),
}
EXACT_COUNTS = ("scalars.Cyclo.mul", "weyl.cartan_row", "datum.Datum.init",
                "zlinalg.smith_normal_form")


def cheap_setup(workload, seed, workdir):
    _, cli, jobs = run.setup(workload, seed, str(workdir))
    return cli, [j for j in jobs if j.id.startswith(CHEAP[workload])]


def digests(cli, jobs, workdir, tracer=None):
    out = {}
    checker = run.Checker(None)
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        code, _, report = run.run_job(cli, job, str(workdir))
        assert checker.ok(job, code, report), job.id
        with open(report, "rb") as fh:
            out[job.id] = hashlib.sha256(fh.read()).hexdigest()
    return out


def traced(cli, jobs, workdir):
    tracer = layertrace.Tracer()
    with tracer:
        found = digests(cli, jobs, workdir, tracer)
    return tracer, found


def files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_input_bytes(workload, tmp_path):
    first = workloads.build(workload, 5, str(tmp_path / "a"))
    second = workloads.build(workload, 5, str(tmp_path / "b"))
    other = workloads.build(workload, 6, str(tmp_path / "c"))
    assert first == second
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert sorted(j.id for j in first) == sorted(j.id for j in other)
    assert files(tmp_path / "a") != files(tmp_path / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reproduces_untraced_digests(workload, tmp_path):
    cli, jobs = cheap_setup(workload, run.DEFAULT_SEED, tmp_path)
    plain = digests(cli, jobs, tmp_path)
    tracer, found = traced(cli, jobs, tmp_path)
    assert found == plain
    with open(os.path.join(run.DIGESTS, f"{workload}.json")) as fh:
        committed = json.load(fh)
    assert all(committed[k] == v for k, v in plain.items())
    # trace sanity: the layers' self time is the traced jobs' time, and
    # orbit and triangular never touch the cyclotomic field
    stats = tracer.summary()
    root = stats["cli.main"]["s"]
    assert sum(tracer.layer_self_s().values()) == pytest.approx(root, rel=1e-6)
    if workload in ("orbit", "triangular"):
        assert not any(name.startswith("scalars.Cyclo.") for name in stats)


def test_wrappers_are_removed(tmp_path):
    cli, jobs = cheap_setup("orbit", 3, tmp_path)
    mods = layertrace.chroma_modules()
    import chroma

    def snapshot():
        owners = [chroma, *mods.values()]
        owners += [c for m in mods.values() for c in vars(m).values()
                   if isinstance(c, type)]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    tracer, _ = traced(cli, jobs[:4], tmp_path)
    assert tracer.summary()["cli.main"]["calls"] == 4
    assert layertrace.installed_wrappers() == []
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_exact_counts_repeat(tmp_path):
    counts = []
    for attempt in range(2):
        found = {}
        for workload in ("orbit", "triangular", "bicrossed"):
            workdir = tmp_path / f"{workload}{attempt}"
            cli, jobs = cheap_setup(workload, run.SECOND_SEED, workdir)
            digests(cli, jobs, workdir)          # fill the library's caches
            tracer, _ = traced(cli, jobs, workdir)
            stats = tracer.summary()
            for name in EXACT_COUNTS:
                found[(workload, name)] = stats.get(name, {}).get("calls", 0)
        counts.append(found)
    assert counts[0] == counts[1]
    assert counts[0][("bicrossed", "scalars.Cyclo.mul")] > 0
    assert counts[0][("orbit", "weyl.cartan_row")] > 0
    assert counts[0][("orbit", "datum.Datum.init")] > 0
    assert counts[0][("triangular", "zlinalg.smith_normal_form")] > 0


def test_tail_keeps_ten_jobs_beyond():
    # 100 jobs once: the 11th largest; 20 jobs in 5 rounds: the 3rd largest
    assert run.tail([float(i) for i in range(100)], 1) == (90.0, 89.0)
    assert run.tail([float(i) for i in range(20)], 5) == (90.0, 17.0)
    assert run.tail([1.0, 3.0, 2.0], 2) == (100 / 3, 1.0)


def test_host_scale_maps_reference_speed_to_one():
    ref = run.REFERENCE_CALIBRATION_S
    assert run.host_scale([ref, ref, 3 * ref]) == 1.0
    # a host twice as slow as the reference halves every measured time
    assert run.host_scale([2 * ref, 2 * ref]) == 0.5
