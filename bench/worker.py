"""One benchmark pass: a fresh process that runs a workload's instance set once.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--check] [--setup-only]

Imports layersec from ../src, generates the seeded inputs (and, for
metrics-cli, writes the scenario files), then runs every instance in a
fixed order and times each one.  Checks and the known-defect probe run
after the timed loop.  Prints one JSON object on stdout.

A fresh process per pass keeps the solver's process-global memo from
carrying results from one pass into the next: the instance order inside a
pass is fixed, so every pass does the same work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import sys
import tempfile
import time
from collections import deque
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import workloads  # noqa: E402


# The reference kernel: fixed, program-independent work (breadth-first
# searches on a seeded graph plus Fraction sums, the same kinds of work the
# solvers do).  Its time, sampled between instances, measures how fast the
# machine is running at that moment; run.py rescales each instance's time
# by the samples taken just before and just after it (see calibrate()).
_REF_RNG = random.Random(0)
_REF_ADJ = [_REF_RNG.sample(range(60), 4) for _ in range(60)]
REF_EVERY_S = 0.1
# Nominal time of reference_kernel(): about its median on the machine the
# benchmark was written on (Python 3.11, 2 vCPUs).
REF_NOMINAL_S = 0.010


def reference_kernel() -> float:
    """Seconds taken by one run of the reference kernel."""
    start = time.perf_counter()
    total = Fraction(0)
    for _ in range(40):
        for source in range(0, 60, 6):
            seen = {source}
            queue = deque([source])
            while queue:
                for y in _REF_ADJ[queue.popleft()]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            total += Fraction(len(seen), source + 7)
    return time.perf_counter() - start


def run_pass(workload: str, items, spans=None):
    """Run every item once.

    Returns (per-item seconds, answers, reference-kernel samples, and for
    each item the index of the last sample taken before it).  The kernel
    runs before the first item, after the last, and between items once
    REF_EVERY_S of item time has passed; never inside an item's timer.
    """
    runner = workloads.WORKLOADS[workload].run
    times, answers, ref_before = [], [], []
    ref = [reference_kernel()]
    since_ref = 0.0
    if spans is not None:
        spans.install()
    try:
        for item in items:
            if since_ref >= REF_EVERY_S:
                ref.append(reference_kernel())
                since_ref = 0.0
            ref_before.append(len(ref) - 1)
            t0 = time.perf_counter()
            try:
                answer = runner(item)
            except Exception as exc:  # an in-domain input that raises counts as failed
                answer = exc
            times.append(time.perf_counter() - t0)
            answers.append(answer)
            since_ref += times[-1]
    finally:
        if spans is not None:
            spans.uninstall()
    ref.append(reference_kernel())
    return times, answers, ref, ref_before


def calibrate(times, ref, ref_before) -> tuple:
    """Rescale a pass's item times to the reference speed (see README.md).

    Each item is scaled by the mean of the kernel samples just before and
    just after it.  Returns (calibrated item seconds, raw wall seconds,
    scale), where scale is calibrated over raw wall time: the factor for
    times that span the whole pass (set-up, per-layer times).
    """
    item_s = [t * REF_NOMINAL_S * 2 / (ref[b] + ref[b + 1]) for t, b in zip(times, ref_before)]
    raw_wall_s = sum(times)
    return item_s, raw_wall_s, sum(item_s) / raw_wall_s


def check_answers(workload: str, items, answers) -> list:
    """(index, message) per failed check; items that raised are not checked."""
    check = workloads.WORKLOADS[workload].check
    bad = []
    for i, (item, answer) in enumerate(zip(items, answers)):
        if not isinstance(answer, Exception):
            bad += [(i, msg) for msg in check(item, answer)]
    return bad


@contextlib.contextmanager
def prepared(workload: str, seed: int, strata=None):
    """The set-up of a pass: yields the seeded items (scenario files for metrics-cli)."""
    instances = workloads.generate(workload, seed, strata)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as scenario_dir:
        if workload == "metrics-cli":
            yield workloads.write_scenarios(instances, scenario_dir)
        else:
            yield instances


def set_up_only(workload: str, seed: int) -> dict:
    """Set up as a pass does, then stop; scaled by one kernel sample."""
    with prepared(workload, seed):
        ready_at = time.monotonic()
    return {"ready_at": ready_at, "scale": REF_NOMINAL_S / reference_kernel()}


def run_workload(workload: str, seed: int, trace: bool = False, check: bool = False, strata=None) -> dict:
    """One pass: generate the seeded inputs, run them, and report.

    ``ready_at`` is the monotonic time when the inputs were ready; the
    caller measures set-up from its own clock and multiplies by ``scale``.
    """
    with prepared(workload, seed, strata) as items:
        spans = tracer.Tracer(workloads.layersec) if trace else None
        ready_at = time.monotonic()

        times, answers, ref, ref_before = run_pass(workload, items, spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        item_s, raw_wall_s, scale = calibrate(times, ref, ref_before)

        result = {
            "ready_at": ready_at,
            "item_s": item_s,
            "raw_wall_s": raw_wall_s,
            "wall_s": sum(item_s),
            "scale": scale,
            "ref_s": ref,
            "peak_rss_mb": peak_rss_mb,
            "raised": [
                (i, f"{type(a).__name__}: {a}") for i, a in enumerate(answers) if isinstance(a, Exception)
            ],
            "digest": workloads.answer_digest(workload, items, answers),
        }
        if spans is not None:
            layers = spans.layer_metrics()
            result["layers"] = {
                name: value * scale if name.endswith("_s") else value for name, value in layers.items()
            }
        if check:
            result["check_failures"] = check_answers(workload, items, answers)
            if workload == "structured-large":
                result["probe"] = workloads.run_probe()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workloads.load_program(ROOT)
    if args.setup_only:
        result = set_up_only(args.workload, args.seed)
    else:
        result = run_workload(args.workload, args.seed, args.trace, args.check)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
