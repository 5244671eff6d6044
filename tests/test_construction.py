import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

import layersec.connectivity
import layersec.graph
from helpers import (
    SWEEP_SCALE,
    count_calls,
    count_flows,
    graph_degrees,
    lambda_by_enumeration,
    random_costs,
    ring_links,
    stage1_by_scan,
    structured_matches_exact,
)
from layersec.connectivity import connected_pairs, edge_connectivity, edge_connectivity_pairs, link_connectivity
from layersec.construction import (
    ConstructionError,
    StageOnePlan,
    _arc_floor,
    _add_matching,
    _build_cycle_superposition,
    _realize,
    _verify_built,
    _zigzag,
    build_generalized,
    stage1_allocate,
    structured_solve,
)
from layersec.game import CostProfile, StrategyProfile, _level_floor, null_spe_check
from layersec.graph import Edge, EdgeClass, Owner, count_by, from_pairs


def costs_of(c1, c2, c12, c21, ca="1/2") -> CostProfile:
    return CostProfile(F(c1), F(c2), F(c12), F(c21), F(ca))


CASE_A = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")


def test_stage1_case_a():
    plan = stage1_allocate(9, 3, CASE_A)
    assert (plan.e11, plan.e12) == (10, 0)
    assert (plan.op2_intra, plan.op2_cross) == (10, 16)
    assert plan.c2_total == F(42, 45)
    assert plan.c1_total == F(1, 3)


def test_stage1_case_c():
    plan = stage1_allocate(8, 3, CASE_A)
    assert (plan.e11, plan.e12) == (7, 0)
    assert (plan.op2_intra, plan.op2_cross) == (7, 18)


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
    # The scan's plan is the brute-force minimum over every (e11, e12)
    # level whose floor is below 1, by operator-1 cost, then floor, then e12.
    rng = random.Random(11)
    cases = [(9, 3, CASE_A), (5, 3, costs_of("1/20", "1/20", "1/10", "1/10")), (3, 2, costs_of("0.19", "0.21", "0.19", "0.21"))]
    for _ in range(30):
        n1 = rng.randint(2, 7)
        k = rng.randint(1, n1 - 1)
        cases.append((n1, k, random_costs(rng, max_den=60, scale=(F(1, 2 * n1 * (k + 1)), F(4, n1 * (k + 1))))))
    for n1, k, costs in cases:
        levels = [
            (a * costs.c1 + b * costs.c12, _level_floor(n1, n1, k, a, b, costs.c2, costs.c21)[0], b, a)
            for a in range(n1 * (n1 - 1) // 2 + 1)
            for b in range(n1 * n1 + 1)
        ]
        best = min((level for level in levels if level[0] < 1 and level[1] < 1), default=None)
        plan = stage1_allocate(n1, k, costs)
        if best is None:
            assert plan is None
        else:
            assert (plan.c1_total, plan.c2_total, plan.e12, plan.e11) == best, (n1, k, costs)


def test_stage1_closed_form_matches_the_scan():
    # Three seeded draws for every 2 <= n1 <= 40 and 1 <= k < n1, the link
    # costs either fractions over primes from 2 to 104729 scaled round
    # 1/(n1(k+1)), or unit fractions, so that null and non-null games and
    # exact ties with 1 all occur: the closed form gives the scan's whole
    # plan, None, or raise.
    primes = (2, 3, 5, 7, 11, 13, 31, 101, 997, 7919, 104729)
    rng = random.Random(30)

    def outcome(stage1, n1, k, costs):
        try:
            return stage1(n1, k, costs)
        except ConstructionError as err:
            return str(err)

    orders, plans, draws = set(), 0, 0
    for n1 in range(2, 41):
        for k in range(1, n1):
            for _ in range(3):
                if rng.random() < 0.5:
                    s = F(rng.randint(1, 800), 100 * n1 * (k + 1))
                    c1, c2, c12, c21 = (min(s * F(rng.randint(1, p - 1), p), F(p - 1, p)) for p in rng.choices(primes, k=4))
                else:  # unit fractions, so that some bounds meet 1 exactly
                    c1, c2, c12, c21 = (F(1, rng.randint(2, 3 * n1 * (k + 1))) for _ in range(4))
                costs = CostProfile(c1, c2, c12, c21, F(1, k + 1))
                want = outcome(stage1_by_scan, n1, k, costs)
                assert outcome(stage1_allocate, n1, k, costs) == want, (n1, k, costs)
                orders.add(c1 <= c12)
                plans += isinstance(want, StageOnePlan)
                draws += 1
    assert orders == {True, False}
    assert draws > 2000 and draws // 4 < plans < draws


@pytest.mark.parametrize(
    "n,ks,draws", [(3, (1, 2), 200), (4, (1, 2, 3), 40), (5, (1, 2, 3, 4), 30)], ids=["3+3", "4+4", "5+5"]
)
def test_structured_solve_matches_exact_search_in_every_cost_order(n, ks, draws):
    # Scaled costs make almost every game non-null; each of the four
    # orders of (c1, c12) and (c2, c21) must occur among them.  Exact
    # search is forced, and a game that reaches its cap fails the test.
    rng = random.Random(17)
    orders = set()
    for _ in range(draws):
        k = rng.choice(ks)
        costs = replace(random_costs(rng, max_den=60, scale=SWEEP_SCALE), ca=F(2, 2 * k + 1))
        structured_matches_exact(n, costs)
        orders.add((costs.c1 <= costs.c12, costs.c2 <= costs.c21))
    assert len(orders) == 4


def test_stage1_rejects_bad_inputs():
    with pytest.raises(ConstructionError, match=r"1 <= k < n1, got n1 = 9, n2 = 9, k = 0"):
        stage1_allocate(9, 0, CASE_A)
    with pytest.raises(ConstructionError, match=r"1 <= k < n1, got n1 = 9, n2 = 9, k = 9"):
        stage1_allocate(9, 9, CASE_A)


def test_stage1_infeasible_case_b_k7():
    assert stage1_allocate(9, 7, CASE_A) is None


def test_min_cut_size_of_case_a_build():
    from layersec.connectivity import is_connected, min_edge_cut
    from layersec.graph import remove_edges

    built = build_generalized(9, 9, 3, CASE_A)
    cut = min_edge_cut(built.graph)
    assert len(cut) == 4
    assert not is_connected(remove_edges(built.graph, cut))


def test_built_profiles_price_out_through_the_payoff_function():
    # plan arithmetic and the payoff definition must give the same numbers
    from layersec.game import utilities

    for n1, costs, want in (
        (9, CASE_A, (F(2, 3), F(1, 15))),
        (8, CASE_A, (F(23, 30), F(2, 45))),
        (5, costs_of("1/20", "1/20", "1/10", "1/10"), (F(13, 20), F(1, 20))),
    ):
        built = build_generalized(n1, n1, 3, costs)
        out = utilities(StrategyProfile(built.graph), costs, n1, n1)
        assert out.connected_after_attack
        assert (out.u1, out.u2) == want
        assert out.uA == 0


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
    for order in built.cycle_tags:
        tag = ring_links(order)
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
    with pytest.raises(ConstructionError, match=r"n1 == n2 and 1 <= k < n1, got n1 = 8, n2 = 9, k = 3"):
        build_generalized(8, 9, 3, CASE_A)
    with pytest.raises(ConstructionError, match=r"n1 == n2 and 1 <= k < n1, got n1 = 4, n2 = 4, k = 4"):
        build_generalized(4, 4, 4, costs_of("1/50", "1/50", "1/40", "1/40"))


def test_cycle_route_builds_every_plan():
    # Every stage-1 split a plan can take, for every k of either parity,
    # builds and passes verification, which raises on any count, degree,
    # cycle or resilience failure: e1 operator-1 links, intra first, then
    # up to k + 1 cross; for n1 <= 7 also every e11 up to the intra budget
    # with every e12 up to all the remaining cross links.
    built = {0: 0, 1: 0}
    for n1 in range(2, 12):
        for k in range(1, n1):
            nb11, total = (n1 - 1) * (k + 1) // 2, n1 * (k + 1)
            splits = {(min(e1, nb11), max(0, e1 - nb11)) for e1 in range(nb11 + k + 2)}
            if n1 <= 7:
                splits |= {(e11, e12) for e11 in range(nb11 + 1) for e12 in range(total - 2 * e11 + 1)}
            for e11, e12 in sorted(splits):
                plan = StageOnePlan(e11, e12, total - 2 * e11 - e12, F(0), F(0))
                g, tags = _realize(n1, k, plan.counts)
                if not e12:
                    # The lambda the certificate proves, audited by a fresh
                    # flow (e12 moves owners only: every e11 occurs with
                    # e12 = 0); for even k the arc floor is that lambda.
                    fresh = edge_connectivity_pairs(g.n, g.edge_pairs())
                    assert edge_connectivity(g) == fresh == k + 1
                    if k % 2 == 0:
                        assert _arc_floor(tags[0], g.edge_pairs()) == fresh
                built[k % 2] += 1
    assert (built[1], built[0]) == (2153, 2308)


def test_stage1_plan_is_the_tally_of_the_solved_build():
    # A caller that re-derives the plan, as the benchmark's structured
    # check does, relies on this: for a solved instance in any cost order,
    # stage1_allocate's counts are the built graph's tally, the least degree
    # is k + 1 and only the two ends of a parity shape's extra vertical have
    # more, and the utilities are the plan's.  Some plans give operator 1
    # more than k + 1 cross links, more than the cycle closers.
    rng = random.Random(5)
    solved = wide = 0
    while solved < 60:
        n1 = rng.randint(3, 12)
        k = rng.randint(1, n1 - 1)
        total = n1 * (k + 1)
        costs = replace(random_costs(rng, max_den=60, scale=(F(1, total), F(3, total))), ca=F(2, 2 * k + 1))
        sol, built = structured_solve(n1, n1, costs)
        if sol.is_null:
            continue
        solved += 1
        plan = stage1_allocate(n1, k, costs)
        want = {
            (Owner.OPERATOR1, EdgeClass.INTRA1): plan.e11,
            (Owner.OPERATOR1, EdgeClass.CROSS): plan.e12,
            (Owner.OPERATOR2, EdgeClass.INTRA2): plan.op2_intra,
            (Owner.OPERATOR2, EdgeClass.CROSS): plan.op2_cross,
        }
        assert built.graph.tally() == {key: n for key, n in want.items() if n}, (n1, k, costs)
        degs = graph_degrees(built.graph)
        assert min(degs) == k + 1
        wider = {v for v, d in enumerate(degs) if d == k + 2}
        if sum(want.values()) == total + 1:
            assert len(wider) == 2 and tuple(sorted(wider)) in built.graph.edge_pairs()
            assert max(wider) - min(wider) == n1
        else:
            assert not wider
        assert (sol.u1, sol.u2) == (1 - plan.c1_total, 1 - plan.c2_total)
        wide += plan.e12 > k + 1
    assert wide


def test_structured_solve_realizes_every_cheapest_level_on_even_layers():
    # Seeded draws on even n = 4..16, each link cost u/60 * v/30 and k
    # uniform in 1..n-1: every non-null game solves, and every parity-shape
    # build (one extra vertical, n(k+1) + 1 links) has lambda = k + 1 by a
    # fresh flow up to n = 12.
    rng = random.Random(17)
    draw = lambda: F(rng.randint(1, 59), 60) * F(rng.randint(1, 10), 30)
    shapes = flows = 0
    for n in range(4, 17, 2):
        for _ in range(600):
            k = rng.randint(1, n - 1)
            costs = CostProfile(draw(), draw(), draw(), draw(), F(2, 2 * k + 1))
            if null_spe_check(n, n, k, costs):
                continue
            sol, built = structured_solve(n, n, costs)
            if sol.is_null or len(built.graph.edges) == n * (k + 1):
                continue
            assert len(built.graph.edges) == n * (k + 1) + 1, (n, k, costs)
            shapes += 1
            if n <= 12:
                assert edge_connectivity_pairs(built.graph.n, built.graph.edge_pairs()) == k + 1, (n, k, costs)
                flows += 1
    assert (shapes, flows) == (40, 36)


def _built_and_tags(k):
    built = build_generalized(5, 5, k, costs_of("1/50", "1/50", "1/40", "1/40"))
    return built.graph, built.plan.counts, [list(order) for order in built.cycle_tags]


@pytest.mark.parametrize("k", [3, 4])
def test_verify_built_reads_tags_as_unordered_links(k):
    # A cycle's links are unordered: its order reversed or started at any
    # node is the same cycle, so it shares its links with the original.
    g, counts, tags = _built_and_tags(k)
    _verify_built(g, k, counts, tags)
    _verify_built(g, k, counts, [tag[::-1] for tag in tags])
    _verify_built(g, k, counts, [tag[3:] + tag[:3] for tag in tags])
    with pytest.raises(ConstructionError, match="edge-disjoint"):
        _verify_built(g, k, counts, [tags[0], tags[0][::-1]])


@pytest.mark.parametrize("k", [3, 4])
def test_verify_built_rejects_a_tagged_pair_that_is_not_a_link(k):
    # A Hamiltonian cycle edge-disjoint from the first one, but not made of
    # the graph's links, must not count towards the certificate.
    g, counts, tags = _built_and_tags(k)
    rng = random.Random(3)
    while True:
        order = rng.sample(range(g.n), g.n)
        if not ring_links(order) & ring_links(tags[0]) and not ring_links(order) <= g.edge_pairs():
            break
    with pytest.raises(ConstructionError, match="graph's links"):
        _verify_built(g, k, counts, [tags[0], order])


@pytest.mark.parametrize("k", [3, 4])
def test_verify_built_rejects_a_tag_that_is_not_hamiltonian(k):
    # Orders that do not visit each of the ten nodes once: a repeated node,
    # a missing one, and nodes outside 0..9.  A negative node must not wrap
    # into range the way a Python index does.
    g, counts, tags = _built_and_tags(k)
    first = tags[0]
    for order in (
        first[:-1] + first[:1],  # the first node twice, the last one never
        first[:-1],  # nine nodes
        first[:-1] + [10],
        first[:-1] + [-1],
        first[:-1] + [-10],
        first + [first[0]],  # eleven entries
    ):
        with pytest.raises(ConstructionError, match="Hamiltonian"):
            _verify_built(g, k, counts, [tags[1], order])


@pytest.mark.parametrize("k", [3, 4])
def test_verify_built_rejects_wrong_counts_degrees_and_too_few_cycles(k):
    g, counts, tags = _built_and_tags(k)
    key = (Owner.OPERATOR1, EdgeClass.INTRA1)
    with pytest.raises(ConstructionError, match="count mismatch"):
        _verify_built(g, k, {**counts, key: counts[key] + 1}, tags)
    with pytest.raises(ConstructionError, match="degree below k \\+ 1"):
        _verify_built(g, k + 1, counts, tags)
    with pytest.raises(ConstructionError, match="do not cover"):
        _verify_built(g, k, counts, tags[:1])
    with pytest.raises(ConstructionError, match="do not cover"):
        _verify_built(g, k, counts, [])


@pytest.mark.parametrize("n1,k,e11,x", [(3, 2, 1, 8), (2, 1, 1, 3)])
def test_realize_refuses_a_parity_shape_with_no_free_node(n1, k, e11, x):
    # The counts total n1(k+1) + 1, but the cycle closers (and, for odd n1
    # and even k, the matching) already give every node a vertical.
    counts = {
        (Owner.OPERATOR1, EdgeClass.INTRA1): e11,
        (Owner.OPERATOR1, EdgeClass.CROSS): 0,
        (Owner.OPERATOR2, EdgeClass.INTRA2): e11,
        (Owner.OPERATOR2, EdgeClass.CROSS): x,
    }
    assert sum(counts.values()) == n1 * (k + 1) + 1
    with pytest.raises(ConstructionError, match=f"parity shape's extra vertical has no free node: all n1 = {n1}"):
        _realize(n1, k, counts)


@pytest.mark.parametrize("ca", [F(1, 3), F(1, 4)])
def test_a_structured_solve_builds_one_graph_and_runs_no_search(monkeypatch, ca):
    # One from_pairs for the whole build; each cycle is checked through its
    # node order, so no component search or flow runs.  The count check
    # and the reported profile read the graph's link sets, so no Edge is
    # built.
    builds = count_calls(monkeypatch, layersec.graph, "from_pairs")
    searches = count_calls(monkeypatch, layersec.connectivity, "connected_pairs")
    flows = count_flows(monkeypatch)
    inner, edges = Edge.__new__, []

    def new_edge(cls, *args, **kwargs):
        edges.append(args)
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(Edge, "__new__", new_edge)
    assert Edge(0, 1, Owner.OPERATOR1, EdgeClass.INTRA1) and len(edges) == 1  # the count sees a new Edge
    edges.clear()
    sol, built = structured_solve(101, 101, CostProfile(F(1, 1010), F(1, 1010), F(1, 505), F(1, 101), ca))
    assert (sol.is_null, built.cycles_built) == (False, 2)
    assert (len(builds), len(searches), len(flows), len(edges)) == (1, 0, 0, 0)


def _arcs_brute_force(order, pairs):
    """Fewest links leaving any arc of the cycle through ``order``."""
    n = len(order)
    arcs = [{order[(s + i) % n] for i in range(size)} for s in range(n) for size in range(1, n)]
    return min(sum((u in arc) != (v in arc) for u, v in pairs) for arc in arcs)


def test_arc_floor_is_the_least_cut_over_the_arcs():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(3, 12)
        order = rng.sample(range(n), n)
        chords = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.random()}
        pairs = ring_links(order) | chords
        floor = _arc_floor(order, pairs)
        assert floor == _arcs_brute_force(order, pairs), (order, pairs)
        # The same cycle read from another node, or the other way round.
        i = rng.randrange(n)
        assert _arc_floor(order[i:] + order[:i], pairs) == _arc_floor(order[::-1], pairs) == floor


def test_verify_built_rejects_an_even_k_build_with_a_cut_of_k():
    # Counts, degrees and the one cycle 0-1-...-7-0 all pass, but the
    # arc {0, 1, 2, 3} of that cycle has only the links (3, 4) and (7, 0)
    # leaving it: a cut of k = 2.
    op1, op2 = Owner.OPERATOR1, Owner.OPERATOR2
    cycle = [(i, (i + 1) % 8) for i in range(8)]
    links = [(u, v, op1 if max(u, v) < 4 else op2) for u, v in cycle]
    links += [(0, 2, op1), (1, 3, op1), (4, 6, op2), (5, 7, op2)]
    plan = StageOnePlan(5, 0, 2, F(0), F(0))
    with pytest.raises(ConstructionError, match="failed the resilience check"):
        _verify_built(from_pairs(4, 4, links), 2, plan.counts, [list(range(8))])


def test_verify_built_needs_the_extra_vertical_of_an_even_n_even_k_design():
    # The team design at x = k + 1 cross links for n = 6, k = 4: the build
    # at e11 = 13 mirrored intra links per layer is 5-regular with only the
    # k = 4 cycle closers as cross links, so layer 1, an arc of the first
    # cycle, is a cut of k.  The realizer's extra vertical, planned as one
    # more cross link, makes it k-resistant, with two nodes of degree k + 2.
    n, k, e11 = 6, 4, 13
    out, closer_slots, tags = _build_cycle_superposition(n, k, e11)
    counts = {
        (Owner.OPERATOR1, EdgeClass.INTRA1): e11,
        (Owner.OPERATOR1, EdgeClass.CROSS): 0,
        (Owner.OPERATOR2, EdgeClass.INTRA2): e11,
        (Owner.OPERATOR2, EdgeClass.CROSS): k,
    }
    with pytest.raises(ConstructionError, match="failed the resilience check"):
        _verify_built(from_pairs(n, n, [tuple(t) for t in out]), k, counts, tags)
    g, _ = _realize(n, k, {**counts, (Owner.OPERATOR2, EdgeClass.CROSS): k + 1})
    assert sorted(graph_degrees(g)) == [k + 1] * (2 * n - 2) + [k + 2] * 2
    assert edge_connectivity(g) == edge_connectivity_pairs(g.n, g.edge_pairs()) == k + 1


def test_structured_solve_at_two_thousand_nodes_per_layer_is_fast():
    costs = costs_of("1/80040", "1/80040", "1/40020", "1/8004", "1/3")
    start = time.perf_counter()
    sol, built = structured_solve(2001, 2001, costs)
    assert time.perf_counter() - start < 5
    assert (sol.k, sol.is_null, built.plan.e11, built.plan.e12) == (3, False, 1, 0)
    assert link_connectivity(built.graph).p == 3


def test_zigzag_paths_are_disjoint_and_the_matching_misses_them():
    for n in range(2, 202):
        used, ends = set(), set()  # links and ends of zigzag paths 0..c-1
        for c in range(n // 2 + 1):
            if 2 * c < n:  # even k = 2c: the matching of pairs beside c paths
                out = []
                _add_matching(n, c, n, out, [])  # every pair as intra links
                pairs = {frozenset(e[:2]) for e in out if e[2] == Owner.OPERATOR1}
                left = set(range(n)) - {v for p in pairs for v in p}
                verticals = [e[0] for e in out if e[1] == e[0] + n]
                assert len(pairs) == n // 2 and not (used & pairs)
                assert left == set(verticals) == ({c} if n % 2 else set())
                assert not (left & ends)
            if c < n // 2:
                path = _zigzag(n, c)
                links = {frozenset(p) for p in zip(path, path[1:])}
                assert sorted(path) == list(range(n)) and len(links) == n - 1
                assert not (used & links)
                assert (path[0], path[-1]) == (c, c + (n + 1) // 2)
                assert not (ends & {path[0], path[-1]})
                used |= links
                ends |= {path[0], path[-1]}


def test_large_k_all_cross_build_is_fast():
    # k = n1 - 2 with every cycle all-cross: 21 zigzag paths of K_43, laid
    # out in closed form with no search.
    costs = costs_of("1/2000", "1/2000", "1/2000", "1/2000")
    start = time.perf_counter()
    built = build_generalized(43, 43, 41, costs)
    assert (built.plan.e11 + built.plan.e12, built.cycles_built) == (0, 21)
    assert count_by(built.graph, Owner.OPERATOR2, EdgeClass.CROSS) == 43 * 42
    assert time.perf_counter() - start < 5


def test_infeasible_plan_returns_null_network():
    assert build_generalized(9, 9, 7, CASE_A) is None


def test_prop4_regime_all_cross_by_operator2():
    costs = costs_of("1/20", "1/20", "1/10", "1/10", "2/3")
    built = build_generalized(3, 3, 1, costs)
    assert count_by(built.graph, Owner.OPERATOR2, EdgeClass.CROSS) == 6
    assert len(built.graph.edges) == 6
    assert link_connectivity(built.graph).p >= 1


def test_structured_solve_null_paths():
    sol, built = structured_solve(2, 2, costs_of("1/10", "1/10", "1/8", "1/8", "1/5"))
    assert sol.is_null and built is None
    # k = 8 passes the null test, but stage 1 finds no level below 1.
    sol, built = structured_solve(9, 9, CostProfile(F(1, 30), F(1, 45), F(1, 20), F(2, 45), F(1, 8)))
    assert sol.is_null and built is None
    # An asymmetric game the null test settles is null too; one it does
    # not settle lies outside the structured domain.
    sol, built = structured_solve(5, 4, costs_of("1/2", "1/2", "1/2", "1/2", "1/3"))
    assert sol.is_null and built is None
    with pytest.raises(ConstructionError, match=r"n1 == n2 and 1 <= k < n1, got n1 = 9, n2 = 8, k = 3"):
        structured_solve(9, 8, CASE_A)
