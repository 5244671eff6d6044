"""An instance that raises makes the run incorrect.

Run with: PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

workloads.load_program(os.path.dirname(BENCH_DIR))

STRATA = workloads.EXACT[:3]


def _passes():
    # A checked pass first, then one more, as run.main makes them.
    return [worker.run_workload("exact-small", 7, check=i == 0, strata=STRATA) for i in range(2)]


def test_clean_passes_are_correct():
    correct, attempted, failed, messages = run.verdict(_passes())
    assert (correct, failed, messages) == (True, 0, [])
    assert attempted == 2 * sum(s.count for s in STRATA)


def test_a_runner_that_raises_makes_the_run_fail(monkeypatch):
    real = workloads.WORKLOADS["exact-small"]
    first = workloads.generate("exact-small", 7, STRATA)[0]

    def runner(inst):
        if inst == first:
            raise RuntimeError("boom")
        return real.run(inst)

    monkeypatch.setitem(workloads.WORKLOADS, "exact-small", dataclasses.replace(real, run=runner))
    correct, _, failed, messages = run.verdict(_passes())
    assert not correct
    assert failed == 2
    assert messages == [f"RAISED: pass {n}, instance 0: RuntimeError: boom" for n in range(2)]
