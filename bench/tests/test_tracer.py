"""The tracer changes no answer and leaves no wrapper installed.

Run with: PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction as F

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Stratum  # noqa: E402

layersec = workloads.load_program(os.path.dirname(BENCH_DIR))

# Small stand-ins for each workload's strata, so the test runs in seconds.
SMALL = {
    "structured-large": (
        Stratum("t9-k3", 9, 9, 3, 2, ("intra", F(1, 5), F(3, 5)), "odd k"),
        Stratum("t12-k4", 12, 12, 4, 1, ("intra", F(1, 8), F(1, 2)), "even k"),
    ),
    "exact-small": workloads.EXACT[:3] + (workloads.EXACT[8],),
    "metrics-cli": (workloads.CLI[0], workloads.CLI[5]),
}


# The entry span each workload makes once per item.
LOADED = {
    "structured-large": "construction.build_calls",
    "exact-small": "game.solve_calls",
    "metrics-cli": "cli.calls",
}


def _items(workload, directory):
    instances = workloads.generate(workload, 7, SMALL[workload])
    if workload == "metrics-cli":
        return workloads.write_scenarios(instances, directory)
    return instances


def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "layersec" or name.startswith("layersec.")]
    out = {(m.__name__, attr): obj for m in mods for attr, obj in vars(m).items()}
    out[("EdgeUniverse", "lam")] = layersec.game.EdgeUniverse.lam
    return out


def test_traced_pass_matches_untraced_and_restores_every_binding(tmp_path):
    before = _bindings()
    for workload in SMALL:
        items = _items(workload, str(tmp_path))
        _, plain, _, _ = worker.run_pass(workload, items)
        spans = tracer.Tracer(layersec)
        _, traced, _, _ = worker.run_pass(workload, items, spans)
        assert not any(isinstance(a, Exception) for a in plain + traced)
        assert workloads.answer_digest(workload, items, traced) == workloads.answer_digest(
            workload, items, plain
        )
        layers = spans.layer_metrics()
        assert layers[LOADED[workload]] == len(items)
        assert (layers["metrics.repeat_solve_ratio"] > 0) == (workload == "metrics-cli")
        after = _bindings()
        assert after.keys() == before.keys()
        assert [key for key in before if after[key] is not before[key]] == []


def test_tracer_counts_lambda_memo_hits_and_nesting():
    spans = tracer.Tracer(layersec)
    spans.install()
    try:
        uni = layersec.game.EdgeUniverse(2, 2)
        full = uni.intra1_mask | uni.intra2_mask | uni.cross_mask
        uni.lam(full)
        uni.lam(full)
    finally:
        spans.uninstall()
    layers = spans.layer_metrics()
    assert layers["game.lam_calls"] == 2
    assert layers["game.lam_hit_ratio"] == 0.5
    assert layers["connectivity.lambda_calls"] == 1
    assert layers["connectivity.lambda_edges"] == 6
    assert layers["connectivity.under_game_s"] > 0
