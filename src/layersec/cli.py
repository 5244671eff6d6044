"""Command-line front end.

Subcommands: solve, construct, attack, verify, reproduce, oracle, metrics.
Exit codes are stable and scriptable: 0 success, 1 error, 2 null
equilibrium.  Each subcommand returns (report, exit code); its report
holds game quantities (costs, utilities, ratios) as ``Fraction``s, and
``main`` alone writes it, through ``io.rational_json``, so they print as
exact rational strings, never floats.  ``reproduce`` builds no report of
its own: it runs the ``solve`` and ``metrics`` report code on each entry
of ``claims.CLAIMS`` and checks the written fields, one PASS/FAIL line
each.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import claims, io
from .connectivity import is_connected, is_p_resistant, link_connectivity
from .construction import ConstructionError
from .game import (
    GameError,
    SearchCapExceeded,
    SpeSolution,
    attack_budget,
    adversary_best_response,
    bruteforce_spe_oracle,
    solve_spe_exact,
)
from .graph import ADMISSIBLE, GraphError, LayeredGraph, degrees, remove_edges
from .metrics import MetricsError, efficiency, solve_game

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NULL = 2

_ERRORS = (
    ConstructionError,
    GameError,
    GraphError,
    MetricsError,
    SearchCapExceeded,
    io.FormatError,
    OSError,
)


def _counts(g: LayeredGraph) -> dict:
    """Links per operator and per class that operator may build, as the JSON reports them."""
    tally = g.tally()
    return {f"operator{o.value}": {c.value: tally[o, c] for c in classes} for o, classes in ADMISSIBLE.items()}


def cmd_solve(args) -> tuple:
    return solve_report(io.load_scenario(args.scenario))


def solve_report(scn: io.Scenario) -> tuple:
    solution, _ = solve_game(scn.n1, scn.n2, scn.costs, mode=scn.mode, cap=scn.cap)
    bundle = {
        "scenario": scn.echo(),
        "k": solution.k,
        "mode_used": solution.method,
        "null": solution.is_null,
        "u1": solution.u1,
        "uA": solution.uA,
        "u2_classes": solution.u2_values,
        "operator2_cost_classes": [1 - v for v in solution.u2_values],
    }
    if not solution.is_null:
        graph = solution.profiles[0].network
        bundle.update(_counts(graph))
        bundle["u2"] = solution.u2
        attack = adversary_best_response(graph, scn.costs.ca)
        bundle["verification"] = {
            "p": link_connectivity(graph).p,
            "adversary_attack": sorted(attack),
            "post_attack_connected": is_connected(remove_edges(graph, attack)),
        }
        if len(solution.profiles) > 1:
            bundle["classes"] = [
                {"u2": u2, **_counts(prof.network)}
                for u2, prof in zip(solution.u2_values, solution.profiles)
            ]
    return bundle, EXIT_NULL if solution.is_null else EXIT_OK


def cmd_construct(args) -> tuple:
    scn = io.load_scenario(args.scenario)
    solution, built = solve_game(scn.n1, scn.n2, scn.costs, mode=scn.mode, cap=scn.cap)
    if solution.is_null:
        print("null equilibrium: nothing to construct", file=sys.stderr)
        return None, EXIT_NULL
    graph = solution.profiles[0].network
    io.save_graph(graph, args.out)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(io.to_dot(graph))
    report = {
        "k": solution.k,
        "edges": sum(map(len, graph.links)),
        **_counts(graph),
        "cycles_built": 0 if built is None else len(built.cycle_tags),  # exact search lays out no cycles
        "p": link_connectivity(graph).p,
        "u1": solution.u1,
        "u2": solution.u2,
        "out": str(args.out),
    }
    return report, EXIT_OK


def cmd_attack(args) -> tuple:
    g = io.load_graph(args.graph)
    ca = io.parse_rational(args.ca)
    k = attack_budget(ca)
    p = link_connectivity(g).p
    attack = adversary_best_response(g, ca)
    connected_after = is_connected(remove_edges(g, attack))
    report = {
        "k": k,
        "p": p,
        "attack": sorted(attack),
        "post_attack_connected": connected_after,
        "uA": (0 if connected_after else 1) - ca * len(attack),
    }
    return report, EXIT_OK


def cmd_verify(args) -> tuple:
    g = io.load_graph(args.graph)
    resistant = is_p_resistant(g, args.k)
    report = {
        "connected": is_connected(g),
        "p": link_connectivity(g).p,
        "k": args.k,
        "resistant": resistant,
        "degrees": degrees(g.n, g.edge_pairs()),
    }
    return report, EXIT_OK if resistant else EXIT_ERROR


def cmd_oracle(args) -> tuple:
    scn = io.load_scenario(args.scenario)
    # The oracle goes first: it refuses n1 + n2 > 6 before any exact search.
    oracle = bruteforce_spe_oracle(scn.n1, scn.n2, scn.costs)
    exact = solve_spe_exact(scn.n1, scn.n2, scn.costs, cap=scn.cap)
    agree = (
        exact.is_null == oracle.is_null
        and exact.u1 == oracle.u1
        and set(exact.u2_values) == set(oracle.u2_values)
    )

    def summary(solution: SpeSolution) -> dict:
        return {"null": solution.is_null, "u1": solution.u1, "u2_classes": solution.u2_values}

    return {"agree": agree, "exact": summary(exact), "oracle": summary(oracle)}, EXIT_OK if agree else EXIT_ERROR


def cmd_metrics(args) -> tuple:
    return metrics_report(io.load_scenario(args.scenario))


def metrics_report(scn: io.Scenario) -> tuple:
    eff = efficiency(scn.n1, scn.n2, scn.costs, mode=scn.mode, cap=scn.cap)
    report = {
        "k": eff.k,
        "lower_bound": eff.lower_bound,
        "upper_bound": eff.upper_bound,
        "team": {"null": eff.c_co is None, "cost": eff.c_co, "exact": True},
        "poa": {"c_spe": eff.c_spe, "c_co": eff.c_co, "value": eff.poa, "spe_null": eff.c_spe is None},
        "pos": {
            "c2_second": eff.c2_second,
            "c2_first": eff.c2_first,
            "value": "infinite" if eff.pos is None else eff.pos,
        },
    }
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# Named reproductions: each claim of ``claims.CLAIMS`` is one field of a
# ``solve`` or ``metrics`` report, checked as ``main`` would write it.
# ---------------------------------------------------------------------------

_REPORTS = {"solve": solve_report, "metrics": metrics_report}


def _written(report, path: str) -> str:
    """The JSON text at a dotted path of a written report, or ``missing``,
    which no JSON value is written as."""
    for key in path.split("."):
        if not isinstance(report, dict) or key not in report:
            return "missing"
        report = report[key]
    return json.dumps(report)


def cmd_reproduce(args) -> tuple:
    failures = 0
    for command, data, expected in claims.CLAIMS[args.case]:
        scn = io.scenario_from_dict(data)
        report, _ = _REPORTS[command](scn)
        written = json.loads(json.dumps(report, default=io.rational_json))
        for path, want in expected.items():
            computed, wanted = _written(written, path), json.dumps(want)
            failures += computed != wanted
            print(
                f"{'PASS' if computed == wanted else 'FAIL'}  {scn.n1}+{scn.n2} cA={scn.costs.ca} {scn.mode} "
                f"{path}: computed {computed}  expected {wanted}"
            )
    if args.case in claims.NOTES:
        print(f"note  {claims.NOTES[args.case]}")
    return None, EXIT_OK if failures == 0 else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layersec",
        description="Three-stage build-and-attack game on two-layer networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="equilibrium of a scenario")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("construct", help="build the equilibrium network")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("attack", help="adversary best response against a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--ca", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="resilience report for a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="run a named reproduction case")
    p.add_argument("case", choices=sorted(claims.CLAIMS))
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("oracle", help="cross-check the two exact solvers")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("metrics", help="bounds, team optimum, PoA, PoS")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        report, code = args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if report is not None:
        print(json.dumps(report, indent=2, default=io.rational_json))
    return code


if __name__ == "__main__":
    sys.exit(main())
