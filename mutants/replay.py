#!/usr/bin/env python3
"""Replay the committed mutants of src/chroma against the tests that must kill them.

    python3 mutants/replay.py

Run from the root of a checkout; it needs pytest.  ``mutants.json`` lists
the mutants, each an object with:

- ``name``: a short unique label;
- ``file``: a path under ``src/``, relative to the checkout;
- ``old`` and ``new``: ``old`` must occur exactly once in the file, and
  the mutant replaces it by ``new``;
- ``tests``: pytest node ids, at least one of which must fail.

Each mutant is applied to its own temporary copy of ``src``, and the named
tests run against that copy.  The named tests of every mutant are first run
once against an unchanged copy, where they must pass.  Exit 0 when every
mutant is killed, 1 when some survive (they are listed), 2 when an entry
no longer applies or the unchanged copy fails its tests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRIES = os.path.join(ROOT, "mutants", "mutants.json")


def run_tests(src: str, tests: list) -> bool:
    """Whether every test in ``tests`` passes with chroma imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return result.returncode == 0


def copy_of_src(work: str) -> str:
    src = os.path.join(work, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    with open(ENTRIES, encoding="utf-8") as fh:
        entries = json.load(fh)
    for e in entries:
        with open(os.path.join(ROOT, e["file"]), encoding="utf-8") as fh:
            if fh.read().count(e["old"]) != 1 or not e["tests"]:
                print(f"{e['name']}: no tests, or the old text does not occur "
                      f"exactly once in {e['file']}")
                return 2
    tests = sorted({t for e in entries for t in e["tests"]})
    with tempfile.TemporaryDirectory() as work:
        if not run_tests(copy_of_src(work), tests):
            print("the named tests fail on the unchanged source")
            return 2
    survivors = []
    for e in entries:
        with tempfile.TemporaryDirectory() as work:
            src = copy_of_src(work)
            path = os.path.join(work, e["file"])
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(e["old"], e["new"]))
            killed = not run_tests(src, e["tests"])
        print(f"{'killed' if killed else 'SURVIVED'}: {e['name']}")
        if not killed:
            survivors.append(e["name"])
    print(f"{len(entries) - len(survivors)} of {len(entries)} mutants killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
