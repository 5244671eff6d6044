"""Command-line front end.

Subcommands: solve, construct, attack, verify, reproduce, oracle, metrics.
Exit codes are stable and scriptable: 0 success, 1 error, 2 null
equilibrium.  Each subcommand returns (report, exit code); its report
holds game quantities (costs, utilities, ratios) as ``Fraction``s, and
``main`` alone writes it, through ``io.rational_json``, so they print as
exact rational strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import io
from .connectivity import is_connected, is_p_resistant, link_connectivity
from .construction import ConstructionError, stage1_allocate, structured_solve
from .game import (
    CostProfile,
    GameError,
    SearchCapExceeded,
    SpeSolution,
    attack_budget,
    adversary_best_response,
    bruteforce_spe_oracle,
    solve_spe_exact,
)
from .graph import ADMISSIBLE, GraphError, LayeredGraph, degrees, remove_edges
from .metrics import (
    MODES,
    MetricsError,
    cost_bounds,
    price_of_anarchy,
    price_of_seniority,
    solve_game,
    team_optimal,
    threat_sweep,
)

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
    json.JSONDecodeError,
)


def _counts(g: LayeredGraph) -> dict:
    """Links per operator and per class that operator may build, as the JSON reports them."""
    tally = g.tally()
    return {f"operator{o.value}": {c.value: tally[o, c] for c in classes} for o, classes in ADMISSIBLE.items()}


def _representative_graph(scn: io.Scenario, solution: SpeSolution, built) -> LayeredGraph:
    if built is not None:
        return built.graph
    return solution.profiles[0].to_graph(scn.n1, scn.n2)


def cmd_solve(args) -> tuple:
    scn = io.load_scenario(args.scenario)
    mode = args.mode or scn.mode
    cap = scn.cap if args.cap is None else io.search_cap(args.cap, "--cap")
    solution, built = solve_game(scn.n1, scn.n2, scn.costs, mode=mode, cap=cap)
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
        graph = _representative_graph(scn, solution, built)
        bundle.update(_counts(graph))
        bundle["u2"] = solution.u2
        attack = adversary_best_response(graph, scn.costs.ca)
        bundle["verification"] = {
            "p": link_connectivity(graph).p,
            "adversary_attack": sorted(e.pair for e in attack),
            "post_attack_connected": is_connected(remove_edges(graph, attack)),
        }
        if len(solution.profiles) > 1:
            bundle["classes"] = [
                {"u2": u2, **_counts(prof.to_graph(scn.n1, scn.n2))}
                for u2, prof in zip(solution.u2_values, solution.profiles)
            ]
    return bundle, EXIT_NULL if solution.is_null else EXIT_OK


def cmd_construct(args) -> tuple:
    scn = io.load_scenario(args.scenario)
    solution, built = solve_game(scn.n1, scn.n2, scn.costs, mode=scn.mode, cap=scn.cap)
    if solution.is_null:
        print("null equilibrium: nothing to construct", file=sys.stderr)
        return None, EXIT_NULL
    graph = _representative_graph(scn, solution, built)
    io.save_graph(graph, args.out)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(io.to_dot(graph))
    report = {
        "k": solution.k,
        "edges": len(graph.edges),
        **_counts(graph),
        "cycles_built": 0 if built is None else built.cycles_built,  # exact search lays out no cycles
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
        "attack": sorted(e.pair for e in attack),
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
    scn = io.load_scenario(args.scenario)
    solution, _ = solve_game(scn.n1, scn.n2, scn.costs, mode=scn.mode, cap=scn.cap)
    eff = price_of_anarchy(scn.n1, scn.n2, scn.costs, mode=scn.mode, cap=scn.cap, solution=solution)
    sen = price_of_seniority(scn.n1, scn.n2, scn.costs, mode=scn.mode, cap=scn.cap, solution=solution)
    report = {
        "k": attack_budget(scn.costs.ca),
        "lower_bound": eff.lower_bound,
        "upper_bound": eff.upper_bound,
        "team": {"null": eff.c_co is None, "cost": eff.c_co, "exact": True},
        "poa": {"c_spe": eff.c_spe, "c_co": eff.c_co, "value": eff.poa, "spe_null": eff.spe_null},
        "pos": {
            "c2_second": sen.c2_second,
            "c2_first": sen.c2_first,
            "value": "infinite" if sen.infinite else sen.pos,
        },
    }
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# Named reproductions: computed vs expected, one pass/fail line each.
# ---------------------------------------------------------------------------


class _Report:
    def __init__(self):
        self.failures = 0

    def check(self, label: str, computed, expected):
        ok = computed == expected
        self.failures += 0 if ok else 1
        tag = "PASS" if ok else "FAIL"
        print(f"{tag}  {label}: computed {io.as_text(computed)}  expected {io.as_text(expected)}")

    def note(self, text: str):
        print(f"note  {text}")

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.failures == 0 else EXIT_ERROR


def _case_a_costs() -> CostProfile:
    return CostProfile(
        c1=Fraction(1, 30),
        c2=Fraction(1, 45),
        c12=Fraction(1, 20),
        c21=Fraction(2, 45),
        ca=Fraction(1, 3),
    )


def _repro_algo_example(rep: _Report):
    costs = CostProfile(Fraction(1, 20), Fraction(1, 20), Fraction(1, 10), Fraction(1, 10), Fraction(1, 3))
    solution, built = structured_solve(5, 5, costs)
    plan = built.plan
    rep.check("e12", plan.e12, 0)
    rep.check("e11", plan.e11, 7)
    rep.check("operator-2 intra links", plan.op2_intra, 7)
    rep.check("operator-2 cross links", plan.op2_cross, 6)
    rep.check("u1", solution.u1, Fraction(13, 20))
    rep.check("u2", solution.u2, Fraction(1, 20))
    rep.check("all degrees", sorted(set(degrees(built.graph.n, built.graph.edge_pairs()))), [4])
    rep.check("resilience level p", link_connectivity(built.graph).p, 3)


def _repro_case_a(rep: _Report):
    solution, built = structured_solve(9, 9, _case_a_costs())
    plan = built.plan
    rep.check("k", solution.k, 3)
    rep.check("operator-1 intra links", plan.e11, 10)
    rep.check("operator-1 cross links", plan.e12, 0)
    rep.check("operator-2 intra links", plan.op2_intra, 10)
    rep.check("operator-2 cross links", plan.op2_cross, 16)
    rep.check("u2", solution.u2, Fraction(1, 15))
    rep.check("u1 (computed from the stated strategy)", solution.u1, Fraction(2, 3))
    attack = adversary_best_response(built.graph, _case_a_costs().ca)
    rep.check("adversary best response", sorted(attack), [])
    rep.check("resilience level p", link_connectivity(built.graph).p, 3)
    rep.check("every node degree", sorted(set(degrees(built.graph.n, built.graph.edge_pairs()))), [4])
    rep.note(
        "u1: 10 links at unit cost 1/30 give 1 - 1/3 = 2/3; the commonly "
        "quoted 5/6 for this case is inconsistent with its own link count "
        "and unit cost, so the computed 2/3 is reported."
    )


def _repro_case_b_sweep(rep: _Report):
    entries = threat_sweep(9, _case_a_costs(), range(0, 9))
    for e in entries:
        ops = f"op1 {e.op1_intra}+{e.op1_cross}, op2 {e.op2_intra}+{e.op2_cross}"
        print(f"      k={e.k}: null={e.null} {ops} u1={io.as_text(e.u1)} u2={io.as_text(e.u2)}")
    rep.check("operator 1 idle for k <= 1", [e.op1_intra + e.op1_cross for e in entries[:2]], [0, 0])
    rep.check(
        "operator 1 contributes for 2 <= k <= 6",
        [e.op1_intra + e.op1_cross > 0 and not e.null for e in entries[2:7]],
        [True] * 5,
    )
    rep.check("null equilibrium for k >= 7", [e.null for e in entries[7:]], [True, True])
    rep.check(
        "operator-2 cost constant for 2 <= k <= 6",
        sorted({1 - e.u2 for e in entries[2:7]}),
        [Fraction(14, 15)],
    )


def _repro_case_c(rep: _Report):
    costs = _case_a_costs()
    solution, built = structured_solve(8, 8, costs)
    plan = built.plan
    rep.check("operator-1 links", plan.e11 + plan.e12, 7)
    rep.check("operator-2 intra links", plan.op2_intra, 7)
    rep.check("operator-2 cross links", plan.op2_cross, 18)
    rep.check("u1", solution.u1, Fraction(23, 30))
    rep.check("u2", solution.u2, Fraction(2, 45))
    rep.check("total links", len(built.graph.edges), 32)
    rep.check("resilience level p", link_connectivity(built.graph).p, 3)
    # scalability measure: how much of the 9-per-layer build survives when
    # one node leaves each layer (old layer-2 ids shift down by one)
    _, built9 = structured_solve(9, 9, costs)
    relabel = lambda v: v if v < 8 else v - 1
    survived = {
        tuple(sorted((relabel(e.u), relabel(e.v))))
        for e in built9.graph.edges
        if 8 not in (e.u, e.v) and 17 not in (e.u, e.v)
    }
    new_edges = built.graph.edge_pairs()
    rewired = len(new_edges - survived)
    rep.note(
        f"node departure rewiring: {len(new_edges)} links in the 8-per-layer "
        f"build, {len(new_edges) - rewired} inherited from the 9-per-layer "
        f"build, {rewired} rewired"
    )


def _repro_example_1(rep: _Report):
    costs = CostProfile(
        c1=Fraction("0.19"), c2=Fraction("0.21"), c12=Fraction("0.19"), c21=Fraction("0.21"), ca=Fraction(1, 2)
    )
    plan1 = stage1_allocate(3, 1, costs)
    rep.check("k=1 operator-1 cost", plan1.c1_total, Fraction(19, 50))
    rep.check("k=1 operator-2 cost", plan1.c2_total, Fraction(21, 25))
    plan2 = stage1_allocate(3, 2, costs)
    rep.check("k=2 operator-1 cost", plan2.c1_total, Fraction(19, 20))
    rep.check("k=2 operator-2 cost", plan2.c2_total, Fraction(21, 25))


def _repro_prop3(rep: _Report):
    costs = CostProfile(
        c1=Fraction(9, 100), c2=Fraction(9, 100), c12=Fraction(9, 100), c21=Fraction(9, 100), ca=Fraction(2, 5)
    )
    solution = solve_spe_exact(4, 3, costs)
    rep.check("k", solution.k, 2)
    rep.check("u1", solution.u1, Fraction(91, 100))
    rep.check(
        "operator-2 equilibrium cost classes",
        sorted(1 - v for v in solution.u2_values),
        [Fraction(9, 10), Fraction(99, 100)],
    )


def _repro_prop4(rep: _Report):
    costs = CostProfile(
        c1=Fraction(1, 20), c2=Fraction(1, 20), c12=Fraction(1, 10), c21=Fraction(1, 10), ca=Fraction(2, 3)
    )
    solution, built = structured_solve(3, 3, costs)
    rep.check("u1 (first mover builds nothing)", solution.u1, Fraction(1))
    rep.check("u2", solution.u2, 1 - 6 * Fraction(1, 10))
    rep.check(
        "all links are cross links",
        (built.plan.e11, built.plan.op2_intra, built.plan.op2_cross),
        (0, 0, 6),
    )
    exact = solve_spe_exact(3, 3, costs)
    rep.check("exact search agrees on u1", exact.u1, solution.u1)
    rep.check("exact search agrees on u2", exact.u2, solution.u2)
    sen = price_of_seniority(3, 3, costs)
    rep.check("price of seniority is infinite", sen.infinite, True)


def _repro_poa_family(rep: _Report):
    for n1 in (3, 4, 5):
        costs = CostProfile(
            c1=Fraction(1, n1**3),
            c2=Fraction(1, n1**3),
            c12=Fraction(1, n1**2),
            c21=Fraction(1, 3 * n1),
            ca=Fraction(2, 3),
        )
        eff = price_of_anarchy(n1, 2, costs)
        rep.check(f"n1={n1} equilibrium cost", eff.c_spe, Fraction(2, 3))
        rep.check(f"n1={n1} coordinated cost", eff.c_co, Fraction(3, n1**2))
        quoted_cco = n1 * costs.c1 + 2 * costs.c12
        rep.check(f"n1={n1} quoted-convention coordinated cost", quoted_cco, eff.c_co)
        rep.check(f"n1={n1} cost ratio", eff.poa, Fraction(2 * n1**2, 9))


def _repro_pos_family(rep: _Report):
    for n1, k in ((3, 1), (5, 1)):
        ca = Fraction(2, 3) if k == 1 else Fraction(1, k)
        costs = CostProfile(
            c1=Fraction(1, 8 * n1), c2=Fraction(1, 8 * n1), c12=Fraction(1, 4 * n1), c21=Fraction(1, 4 * n1), ca=ca
        )
        sen = price_of_seniority(n1, n1, costs)
        rep.check(f"n1={n1} first-mover cost", sen.c2_first, Fraction(0))
        rep.check(
            f"n1={n1} second-mover cost", sen.c2_second, n1 * (k + 1) * costs.c21
        )
        rep.check(f"n1={n1} price of seniority infinite", sen.infinite, True)
    costs = CostProfile(Fraction(1, 9), Fraction(1, 8), Fraction(1, 7), Fraction(1, 6), Fraction(2, 3))
    sen = price_of_seniority(2, 2, costs)
    rep.check("asymmetric-cost instance has pos >= 1", sen.infinite or sen.pos >= 1, True)


def _repro_bounds_sweep(rep: _Report):
    costs = CostProfile(Fraction(1, 10), Fraction(1, 12), Fraction(1, 8), Fraction(1, 9), Fraction(1, 2))
    for n1, n2 in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)):
        for k in (1, 2):
            team = team_optimal(n1, n2, k, costs)
            lower, upper = cost_bounds(n1, n2, k, costs)
            if team.null:
                print(f"      ({n1},{n2}) k={k}: null benchmark")
                continue
            ok = lower <= team.cost and (upper is None or team.cost <= upper)
            sandwich = " <= ".join(map(io.as_text, (lower, team.cost, upper)))
            rep.check(f"({n1},{n2}) k={k} bounds sandwich the optimum [{sandwich}]", ok, True)


_REPRODUCTIONS = {
    "algo-example": _repro_algo_example,
    "case-a": _repro_case_a,
    "case-b-sweep": _repro_case_b_sweep,
    "case-c": _repro_case_c,
    "example-1": _repro_example_1,
    "prop3": _repro_prop3,
    "prop4": _repro_prop4,
    "poa-family": _repro_poa_family,
    "pos-family": _repro_pos_family,
    "bounds-sweep": _repro_bounds_sweep,
}


def cmd_reproduce(args) -> tuple:
    rep = _Report()
    _REPRODUCTIONS[args.case](rep)
    return None, rep.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layersec",
        description="Three-stage build-and-attack game on two-layer networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="equilibrium of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--cap", type=int)
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
    p.add_argument("case", choices=sorted(_REPRODUCTIONS))
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
