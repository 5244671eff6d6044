import random
import time
from fractions import Fraction as F

import pytest

from helpers import graph_degrees, lambda_by_enumeration, stage1_by_steps
from layersec.connectivity import connected_pairs, edge_connectivity, edge_connectivity_pairs, link_connectivity
from layersec.construction import (
    ConstructionError,
    StageOnePlan,
    _assemble,
    _build_cycle_superposition,
    _opening_edge,
    _verify_built,
    build_generalized,
    build_harary,
    ham_path_decomposition,
    stage1_allocate,
    structured_solve,
)
from layersec.game import CostProfile, StrategyProfile
from layersec.graph import EdgeClass, Owner, count_by


def costs_of(c1, c2, c12, c21, ca="1/2") -> CostProfile:
    return CostProfile(F(c1), F(c2), F(c12), F(c21), F(ca))


CASE_A = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")


def test_stage1_case_a():
    plan = stage1_allocate(9, 3, CASE_A)
    assert (plan.e11, plan.e12) == (10, 0)
    assert (plan.op2_intra, plan.op2_cross) == (10, 16)
    assert plan.c2_total == F(42, 45)
    assert plan.c1_total == F(1, 3)
    assert plan.feasible


def test_stage1_case_c():
    plan = stage1_allocate(8, 3, CASE_A)
    assert (plan.e11, plan.e12) == (7, 0)
    assert (plan.op2_intra, plan.op2_cross) == (7, 18)
    assert plan.feasible


def test_stage1_example_1():
    costs = costs_of("0.19", "0.21", "0.19", "0.21")
    plan = stage1_allocate(3, 2, costs)
    assert (plan.e11, plan.e12) == (3, 2)
    assert plan.c1_total == F(19, 20)
    assert plan.c2_total == F(21, 25)
    plan = stage1_allocate(3, 1, costs)
    assert (plan.e11, plan.e12) == (2, 0)
    assert plan.c1_total == F(19, 50)
    assert plan.c2_total == F(21, 25)


def test_stage1_threshold_minimality():
    # one fewer operator-1 link must push operator 2 back to cost >= 1
    for n1, k, costs in ((9, 3, CASE_A), (5, 3, costs_of("1/20", "1/20", "1/10", "1/10")), (3, 2, costs_of("0.19", "0.21", "0.19", "0.21"))):
        plan = stage1_allocate(n1, k, costs)
        assert plan.feasible and plan.e1 > 0
        e1 = plan.e1 - 1
        nb11 = (n1 - 1) * (k + 1) // 2
        e12 = max(0, e1 - nb11)
        e11 = e1 - e12
        c2 = e11 * costs.c2 + (n1 * (k + 1) - 2 * e11 - e12) * costs.c21
        assert c2 >= 1


def test_stage1_closed_form_matches_one_link_at_a_time():
    # Costs scaled to the link budget so that plans end in every phase:
    # no operator-1 link, intra links only, cross links, and the k + 1 cap.
    rng = random.Random(17)
    for _ in range(1000):
        n1 = rng.randint(2, 60)
        k = rng.randint(1, n1 - 1)
        total = n1 * (k + 1)
        c21 = F(rng.randint(1, 60), 20 * total)
        c1 = F(rng.randint(1, 20), 10 * total)
        costs = CostProfile(c1, c21 * F(rng.randint(1, 10), 10), c1 + F(rng.randint(0, 20), 10 * total), c21, F(1, 2))
        assert stage1_allocate(n1, k, costs) == stage1_by_steps(n1, k, costs), (n1, k, costs)


def test_stage1_rejects_bad_inputs():
    with pytest.raises(ConstructionError):
        stage1_allocate(9, 0, CASE_A)
    with pytest.raises(ConstructionError):
        stage1_allocate(9, 3, costs_of("1/20", "1/45", "1/30", "2/45"))  # c1 > c12


def test_stage1_infeasible_case_b_k7():
    plan = stage1_allocate(9, 7, CASE_A)
    assert not plan.feasible


def test_build_harary_edge_counts_and_connectivity():
    for n in range(3, 10):
        for r in range(2, n):
            pairs = build_harary(n, r)
            assert len(pairs) == -(-n * r // 2)
            assert edge_connectivity_pairs(n, pairs) == r
            if n * r % 2 == 0:
                degs = [0] * n
                for u, v in pairs:
                    degs[u] += 1
                    degs[v] += 1
                assert set(degs) == {r}
    with pytest.raises(ConstructionError):
        build_harary(5, 5)
    with pytest.raises(ConstructionError):
        build_harary(5, 1)


def test_harary_small_brute_force():
    for n, r in ((6, 3), (5, 3), (7, 4), (8, 4)):
        pairs = build_harary(n, r)
        assert lambda_by_enumeration(n, pairs) == r


def test_min_cut_size_of_case_a_build():
    from layersec.connectivity import is_connected, min_edge_cut
    from layersec.graph import remove_edges

    built = build_generalized(9, 9, 3, CASE_A)
    cut = min_edge_cut(built.graph)
    assert cut.size == 4
    assert not is_connected(remove_edges(built.graph, cut.edges))


def test_built_profiles_price_out_through_the_payoff_function():
    # plan arithmetic and the payoff definition must give the same numbers
    from layersec.game import utilities

    for n1, costs, want in (
        (9, CASE_A, (F(2, 3), F(1, 15))),
        (8, CASE_A, (F(23, 30), F(2, 45))),
        (5, costs_of("1/20", "1/20", "1/10", "1/10"), (F(13, 20), F(1, 20))),
    ):
        built = build_generalized(n1, n1, 3, costs)
        out = utilities(StrategyProfile.from_graph(built.graph), costs, n1, n1)
        assert out.connected_after_attack
        assert (out.u1, out.u2) == want
        assert out.uA == 0


def test_ham_path_decomposition_covers_complete_graph():
    for n in range(3, 13):
        seqs = ham_path_decomposition(n)
        closed = n % 2 == 1
        seen = set()
        for seq in seqs:
            assert sorted(seq) == list(range(n))
            edges = [(min(a, b), max(a, b)) for a, b in zip(seq, seq[1:])]
            if closed:
                edges.append((min(seq[0], seq[-1]), max(seq[0], seq[-1])))
            assert len(set(edges)) == len(edges)
            assert not (seen & set(edges))
            seen |= set(edges)
        assert len(seen) == n * (n - 1) // 2


BUILD_CASES = [
    # (n1, k, costs) spanning odd and even layers, odd and even k
    (5, 3, costs_of("1/20", "1/20", "1/10", "1/10")),
    (9, 3, CASE_A),
    (9, 5, costs_of("1/50", "1/50", "1/40", "1/40")),
    (7, 5, costs_of("1/40", "1/40", "1/30", "1/30")),
    (9, 7, costs_of("1/100", "1/41", "1/100", "1/41")),  # four mirrored cycles, odd layers
    (8, 3, CASE_A),
    (8, 5, costs_of("1/50", "1/50", "1/40", "1/40")),
    (6, 3, costs_of("1/30", "1/40", "1/25", "1/35")),
    (10, 7, costs_of("1/100", "1/100", "1/90", "1/90")),
    (3, 1, costs_of("1/100", "1/4", "1/50", "1/4")),  # e12 > 0
    (5, 2, costs_of("1/20", "1/20", "1/15", "1/15")),
    (9, 4, CASE_A),
    (4, 2, costs_of("1/20", "1/20", "1/15", "1/15")),
    (6, 4, costs_of("1/50", "1/50", "1/40", "1/40")),
    (8, 5, costs_of("1/100", "1/31", "1/100", "1/31")),  # two mirrored + one mixed, even layers
    (8, 7, costs_of("1/100", "1/45", "1/100", "1/45")),  # mirrored + mixed + all-cross, even layers
    (11, 7, costs_of("1/300", "1/64", "1/300", "1/64")),  # two mirrored + mixed + all-cross, odd layers
    (11, 7, costs_of("1/300", "1/180", "1/300", "1/55")),  # two mirrored + two all-cross, no mixed cycle
]


@pytest.mark.parametrize("n1,k,costs", BUILD_CASES)
def test_builder_invariants(n1, k, costs):
    built = build_generalized(n1, n1, k, costs)
    assert not built.is_null
    g, plan = built.graph, built.plan
    assert len(g.edges) == n1 * (k + 1)
    assert count_by(g, Owner.OPERATOR1, EdgeClass.INTRA1) == plan.e11
    assert count_by(g, Owner.OPERATOR1, EdgeClass.CROSS) == plan.e12
    assert count_by(g, Owner.OPERATOR2, EdgeClass.INTRA2) == plan.op2_intra
    assert count_by(g, Owner.OPERATOR2, EdgeClass.CROSS) == plan.op2_cross
    assert count_by(g, cls=EdgeClass.CROSS) >= k + 1
    assert set(graph_degrees(g)) == {k + 1}
    assert link_connectivity(g).p >= k
    # ownership/cost consistency with the plan
    cost1 = plan.e11 * costs.c1 + plan.e12 * costs.c12
    cost2 = plan.op2_intra * costs.c2 + plan.op2_cross * costs.c21
    assert (cost1, cost2) == (plan.c1_total, plan.c2_total)
    # floor((k+1)/2) Hamiltonian cycles; for even k the untagged rest is
    # the matching, a perfect one since every degree is k + 1.
    assert built.cycles_built == (k + 1) // 2
    assert len(built.cycle_tags) == built.cycles_built
    seen = set()
    for tag in built.cycle_tags:
        assert len(tag) == 2 * n1
        assert not (seen & tag)
        seen |= tag
        degs = [0] * (2 * n1)
        for u, v in tag:
            degs[u] += 1
            degs[v] += 1
        assert set(degs) == {2}
        assert connected_pairs(2 * n1, tag)
    assert len(seen) == 2 * n1 * ((k + 1) // 2)


@pytest.mark.parametrize(
    "n1,k,costs",
    [(5, 3, costs_of("1/20", "1/20", "1/10", "1/10")), (3, 1, costs_of("1/100", "1/4", "1/50", "1/4"))],
)
def test_builder_resistance_by_enumeration(n1, k, costs):
    built = build_generalized(n1, n1, k, costs)
    pairs = list(built.graph.edge_pairs())
    assert lambda_by_enumeration(2 * n1, pairs) == k + 1


def test_build_generalized_guards():
    with pytest.raises(ConstructionError):
        build_generalized(8, 9, 3, CASE_A)
    with pytest.raises(ConstructionError):
        build_generalized(4, 4, 4, costs_of("1/50", "1/50", "1/40", "1/40"))


def test_cycle_route_builds_every_plan():
    # Every stage-1 split a plan can take (e1 operator-1 links, intra
    # first, then cross), for every k of either parity, builds and passes
    # verification, which raises on any count, degree, cycle or resilience
    # failure.
    built = {0: 0, 1: 0}
    for n1 in range(2, 12):
        for k in range(1, n1):
            nb11 = (n1 - 1) * (k + 1) // 2
            for e1 in range(nb11 + k + 2):
                e12 = max(0, e1 - nb11)
                plan = StageOnePlan(n1, k, e1 - e12, e12, F(0), F(0))
                g = _assemble(n1, plan, *_build_cycle_superposition(n1, k, plan)).graph
                if k % 2:
                    # The lambda the cycles prove, audited by a fresh flow.
                    assert edge_connectivity(g) == edge_connectivity_pairs(g.n, g.edge_pairs()) == k + 1
                built[k % 2] += 1
    assert (built[1], built[0]) == (695, 675)


def _built_and_tags(k):
    built = build_generalized(5, 5, k, costs_of("1/50", "1/50", "1/40", "1/40"))
    return built.graph, built.plan, [sorted(tag) for tag in built.cycle_tags]


@pytest.mark.parametrize("k", [3, 4])
def test_verify_built_reads_tags_as_unordered_links(k):
    g, plan, tags = _built_and_tags(k)
    _verify_built(g, plan, tags)
    _verify_built(g, plan, [[(v, u) for u, v in tag] for tag in tags])
    with pytest.raises(ConstructionError, match="edge-disjoint"):
        _verify_built(g, plan, [tags[0], [(v, u) for u, v in tags[0]]])


@pytest.mark.parametrize("k", [3, 4])
def test_verify_built_rejects_a_tagged_pair_that_is_not_a_link(k):
    # A Hamiltonian cycle edge-disjoint from the first tag, but not made of
    # the graph's links, must not count towards the certificate.
    g, plan, tags = _built_and_tags(k)
    rng = random.Random(3)
    while True:
        order = rng.sample(range(g.n), g.n)
        cycle = {(min(u, v), max(u, v)) for u, v in zip(order, order[1:] + order[:1])}
        if not cycle & set(tags[0]) and not cycle <= g.edge_pairs():
            break
    with pytest.raises(ConstructionError, match="graph's links"):
        _verify_built(g, plan, [tags[0], sorted(cycle)])


@pytest.mark.parametrize("k", [3, 4])
def test_verify_built_rejects_a_tag_that_is_not_hamiltonian(k):
    g, plan, tags = _built_and_tags(k)
    two_rings = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    with pytest.raises(ConstructionError, match="Hamiltonian"):
        _verify_built(g, plan, [two_rings, tags[1]])


def test_structured_solve_at_two_thousand_nodes_per_layer_is_fast():
    costs = costs_of("1/80040", "1/80040", "1/40020", "1/8004", "1/3")
    start = time.perf_counter()
    sol, built = structured_solve(2001, 2001, costs)
    assert time.perf_counter() - start < 5
    assert (sol.k, sol.is_null, built.plan.e11, built.plan.e12) == (3, False, 1, 0)
    assert link_connectivity(built.graph).p == 3


def test_opening_edges_lie_on_their_cycles_and_share_no_endpoint():
    for n in range(3, 202, 2):
        ends = set()
        for r, seq in enumerate(ham_path_decomposition(n)):
            edge = _opening_edge(n, r)
            assert edge in {frozenset(p) for p in zip(seq, seq[1:] + seq[:1])}
            assert not (ends & edge)
            ends |= edge


def test_large_k_all_cross_build_is_fast():
    # k = n1 - 2 with every cycle all-cross: a search for disjoint cycle
    # openings would backtrack for about a minute here.
    costs = costs_of("1/2000", "1/2000", "1/2000", "1/2000")
    start = time.perf_counter()
    built = build_generalized(43, 43, 41, costs)
    assert (built.plan.e1, built.cycles_built) == (0, 21)
    assert count_by(built.graph, Owner.OPERATOR2, EdgeClass.CROSS) == 43 * 42
    assert time.perf_counter() - start < 5


def test_infeasible_plan_returns_null_network():
    built = build_generalized(9, 9, 7, CASE_A)
    assert built.is_null
    assert len(built.graph.edges) == 0


def test_prop4_regime_all_cross_by_operator2():
    costs = costs_of("1/20", "1/20", "1/10", "1/10", "2/3")
    built = build_generalized(3, 3, 1, costs)
    assert count_by(built.graph, Owner.OPERATOR2, EdgeClass.CROSS) == 6
    assert len(built.graph.edges) == 6
    assert link_connectivity(built.graph).p >= 1


def test_structured_solve_null_paths():
    sol, built = structured_solve(2, 2, costs_of("1/10", "1/10", "1/8", "1/8", "1/5"))
    assert sol.is_null and built is None
    sol, built = structured_solve(9, 9, CostProfile(F(1, 30), F(1, 45), F(1, 20), F(2, 45), F(1, 8)))
    assert sol.is_null  # k = 8 is beyond the feasible range for these costs
