#!/usr/bin/env python3
"""Write digests/<workload>.json: the sha256 of every report for seed 1.

    python3 perfbench/record_digests.py [workload ...]

Each job runs once and must produce the exit code and report fields its
generator expects; the digests are written only when every job does.
Reports must stay byte-identical, so re-record only for a deliberate
change of the report format, and say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads


def record(workload: str) -> dict:
    workdir = os.path.join(run.WORK, f"{workload}-digests")
    _, cli, jobs = run.setup(workload, run.DEFAULT_SEED, workdir)
    checker = run.Checker(None)
    digests = {}
    for job in jobs:
        code, _, report = run.run_job(cli, job, workdir)
        if not checker.ok(job, code, report):
            raise SystemExit(f"{workload}: job {job.id} gave an unexpected outcome")
        with open(report, "rb") as fh:
            digests[job.id] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main() -> None:
    sys.path.insert(0, run.SRC)
    os.makedirs(run.DIGESTS, exist_ok=True)
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        digests = record(workload)
        path = os.path.join(run.DIGESTS, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(digests)} digests -> {path}")


if __name__ == "__main__":
    main()
