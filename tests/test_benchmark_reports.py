"""Every benchmark job's report, pinned byte for byte.

Each job of the four ``perfbench`` workloads, on seeds 1-3, runs through
``chroma.cli.main`` on inputs that ``perfbench/workloads.py`` writes into a
temporary directory.  Its exit code must be the one the workload expects,
and the sha256 of its report the recorded one: seed 1's from
``perfbench/digests/``, seeds 2 and 3's from ``report_digests.json`` here.
Where ``main`` emits with ``json.dumps`` (Python 3.13 on), every report
must also come out the same from the ``cli._dumps`` shim.
Reports must stay byte-identical, so re-record only for a deliberate
change of a report, and say so:

    PYTHONPATH=src python tests/test_benchmark_reports.py
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from chroma import cli

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).resolve().parent / "report_digests.json"
HELD_OUT_SEEDS = (2, 3)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def reports(workload: str, seed: int, workdir: Path) -> dict:
    """job id -> (exit code, expected exit code, sha256 of the report)."""
    out = {}
    report = workdir / "report.out"
    for job in workloads.build(workload, seed, str(workdir)):
        report.unlink(missing_ok=True)
        code = cli.main(job.argv + ["--input", str(workdir / job.input),
                                    "--output", str(report)])
        digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
        out[job.id] = (code, job.exit, digest)
    return out


def recorded(workload: str, seed: int) -> dict:
    if seed == 1:
        with open(ROOT / "perfbench" / "digests" / f"{workload}.json", encoding="utf-8") as fh:
            return json.load(fh)
    with open(RECORDED, encoding="utf-8") as fh:
        return json.load(fh)[str(seed)][workload]


@pytest.mark.parametrize("seed", (1,) + HELD_OUT_SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_reports_are_pinned(workload, seed, tmp_path, capsys, monkeypatch):
    shim_misses = []
    if cli._emit is not cli._dumps:  # from 3.13 on, main emits with json.dumps

        def emit_and_check_shim(report, emit=cli._emit):
            text = emit(report)
            if cli._dumps(report) != text:
                shim_misses.append(report["command"])
            return text

        monkeypatch.setattr(cli, "_emit", emit_and_check_shim)
    got = reports(workload, seed, tmp_path)
    capsys.readouterr()
    assert [job for job, (code, expected, _) in got.items() if code != expected] == []
    assert {job: digest for job, (_, _, digest) in got.items()} == recorded(workload, seed)
    assert shim_misses == []


def record() -> None:
    """Rewrite ``report_digests.json`` from the reports of the held-out seeds."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in HELD_OUT_SEEDS:
            for workload in workloads.WORKLOADS:
                workdir = Path(tmp) / f"{workload}-{seed}"
                got = reports(workload, seed, workdir)
                if bad := [job for job, (code, expected, _) in got.items() if code != expected]:
                    raise SystemExit(f"{workload} seed {seed}: unexpected exit code of {bad}")
                digests.setdefault(str(seed), {})[workload] = {
                    job: digest for job, (_, _, digest) in got.items()}
    with open(RECORDED, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {RECORDED}")


if __name__ == "__main__":
    record()
