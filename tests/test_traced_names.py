"""Every function the benchmark's per-layer metrics name is traced.

``perfbench/run.py`` reads each metric of ``TRACED_METRICS`` from the
spans of one named function, and ``perfbench/layertrace.py`` wraps the
private or special methods listed in ``EXTRA`` besides the public ones.  A
renamed or deleted function would not fail the benchmark: its metric would
silently read 0.  So each name must be among the tracer's targets.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_metrics_name_tracer_targets():
    run = _load_run()
    layertrace = run.layertrace
    targets = {metric for *_, metric in layertrace._targets(layertrace.chroma_modules())}
    named = {fn for _, fn, _ in run.TRACED_METRICS}
    named |= {metric for *_, metric in layertrace.EXTRA}
    assert sorted(named - targets) == []
