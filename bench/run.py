"""layersec benchmark: one workload, one seed, for a fixed number of seconds.

    python3 bench/run.py --workload structured-large --seed 1 --seconds 30 --trace 0

Runs passes of the workload (each a fresh worker process running the whole
seeded instance set once, in a fixed order) one after another until
``--seconds`` have passed, then reports medians over passes.  Before the
passes it starts a few set-up-only workers, so that ``setup_s`` is a median
over more set-ups than there are passes.  The first pass also checks every answer and, on structured-large, runs the
known-defect probe.  An instance that raises, a wrong answer, or passes
that disagree on the answer digest set ``correct`` to false and exit 1.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead (traced over untraced wall_s).

The last line of stdout is the JSON result; a human-readable summary with
the run metadata goes to stderr.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PASS_TIMEOUT_S = 120
# Set-up-only workers per run, on top of the one set-up in every pass: a
# pass set-up alone gives two or three samples per run, too few for a
# steady median of a ~0.2 s time.
SETUP_SAMPLES = 6


def run_worker(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # Set-up is timed from here so that interpreter start-up counts too.
    result["setup_s"] = (result["ready_at"] - started) * result["scale"]
    return result


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, pct, n)."""
    ordered = sorted(values)
    n = len(ordered)
    i = max(0, n - 11)
    return ordered[i], 100 * (i + 1) / n, n


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "layersec", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def end_to_end(passes: list, setups: list) -> tuple:
    # Per instance, the median over passes; then p50 and tail over instances.
    per_item = [statistics.median(ts) for ts in zip(*(p["item_s"] for p in passes))]
    tail_ms, pct, n = tail(per_item)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "instance_p50_ms": (1000 * statistics.median(per_item), "ms"),
        "instance_tail_ms": (1000 * tail_ms, "ms"),
        "setup_s": (statistics.median(setups + [p["setup_s"] for p in passes]), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = {
        "instances": n, "tail_percentile": round(pct, 1), "passes": len(passes),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "reference_ms": 1000 * statistics.median(statistics.median(p["ref_s"]) for p in passes),
    }
    return metrics, notes


def per_layer(untraced: list, traced: list) -> dict:
    names = traced[0]["layers"]
    metrics = {}
    for name in names:
        value = statistics.median(p["layers"][name] for p in traced)
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in untraced
    )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def verdict(passes: list) -> tuple:
    """(correct, attempted, failed, messages) over all passes.

    passes[0] is the checked pass.  Every instance that raised, in any
    pass, and every instance that failed a check counts as failed; any
    failure, or passes that disagree on the answer digest, make the run
    incorrect.
    """
    attempted = sum(len(p["item_s"]) for p in passes)
    raised = [(n, i, msg) for n, p in enumerate(passes) for i, msg in p["raised"]]
    failures = passes[0]["check_failures"]
    failed = len(raised) + len({i for i, _ in failures})
    messages = [f"RAISED: pass {n}, instance {i}: {msg}" for n, i, msg in raised]
    messages += [f"CHECK FAILED: instance {i}: {msg}" for i, msg in failures]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        messages.append(f"CHECK FAILED: passes disagree on the answer digest: {digests}")
    return failed == 0 and len(digests) == 1, attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + args.seconds
    setups = [run_worker(args.workload, args.seed, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    started_first = time.monotonic()
    first = run_worker(args.workload, args.seed, "--check")
    untraced, traced = [first], []
    # Two passes at least: the answer digest is compared across processes.
    # Start no pass that would end well past the deadline.
    last = time.monotonic() - started_first
    while time.monotonic() + last / 2 < deadline or len(untraced) + len(traced) < 2 + args.trace:
        trace_next = bool(args.trace) and len(traced) < len(untraced)
        started = time.monotonic()
        result = run_worker(args.workload, args.seed, *["--trace"] * trace_next)
        last = time.monotonic() - started
        (traced if trace_next else untraced).append(result)
    passes = untraced + traced

    correct, attempted, failed, messages = verdict(passes)

    e2e, notes = end_to_end(untraced, setups)
    metrics = per_layer(untraced, traced) if args.trace else e2e

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_lines(), "digest": sorted({p["digest"] for p in passes}), **notes,
        "failed_frac": failed / attempted,
    }
    log = sys.stderr
    print(f"# {json.dumps(info)}", file=log)
    for name, (value, unit) in metrics.items():
        label = name
        if name == "instance_tail_ms":
            label += f" (p{notes['tail_percentile']} of {notes['instances']} instances)"
        elif name == "instance_p50_ms":
            label += f" (of {notes['instances']} instances)"
        print(f"{label:48s} {value:14.6f} {unit}", file=log)
    print(f"{'failed_frac':48s} {failed / attempted:14.6f} ratio ({failed}/{attempted})", file=log)
    for stratum, outcome in first.get("probe", []):
        print(f"known-defect probe {stratum}: {outcome}", file=log)
    for message in messages:
        print(message, file=log)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
