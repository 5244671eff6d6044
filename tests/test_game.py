import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import layersec.game
from helpers import (
    SWEEP_SCALE,
    count_calls,
    count_flows,
    embed,
    graph_degrees,
    joint_floor_by_scan,
    lambda_by_bipartition,
    place_by_scan,
    random_costs,
    random_pairs,
    spe_by_pair_enumeration,
    spe_by_unfiltered_scan,
    structured_matches_exact,
    well_formed,
)
from layersec.connectivity import edge_connectivity_pairs, is_connected, link_connectivity
from layersec.construction import structured_solve
from layersec.game import (
    DEFAULT_SEARCH_CAP,
    CostProfile,
    EdgeUniverse,
    GameError,
    SearchCapExceeded,
    StrategyProfile,
    _count_floor,
    _Budget,
    _joint_cost_floor,
    _place,
    _strategies,
    _team_network,
    adversary_best_response,
    attack_budget,
    bruteforce_spe_oracle,
    null_spe_check,
    operator2_best_response_exact,
    solve_spe_exact,
    utilities,
)
from layersec.graph import Owner, from_pairs, remove_edges
from layersec.metrics import solve_game, team_optimal


def costs_of(c1, c2, c12, c21, ca) -> CostProfile:
    return CostProfile(F(c1), F(c2), F(c12), F(c21), F(ca))


PROP3_COSTS = costs_of("0.09", "0.09", "0.09", "0.09", "2/5")


def test_attack_budget():
    assert attack_budget(F(1, 3)) == 3
    assert attack_budget(F("0.49")) == 2
    assert attack_budget(F(1, 2)) == 2
    for bad in (0, 1, 2, F(-1, 2)):
        with pytest.raises(GameError):
            attack_budget(bad)


def test_utilities_all_empty():
    out = utilities(StrategyProfile(from_pairs(3, 2, ())), PROP3_COSTS, 3, 2)
    assert (out.u1, out.u2, out.uA) == (0, 0, 1)
    assert not out.connected_after_attack


def test_utilities_malformed():
    g = from_pairs(4, 3, [(0, 1, Owner.OPERATOR1), (0, 4, Owner.OPERATOR2)])
    not_a_pair = "malformed attack: an attack is a collection of \\(u, v\\) pairs"
    rows = {
        "unbuilt link": ([(1, 2)], "not built"),
        "self-loop": ([(2, 2)], "not built"),
        "node out of range": ([(0, 7)], "not built"),
        "one built, one not": ([(0, 1), (5, 4)], "not built"),
        "one-element tuple": ([(0,)], not_a_pair),
        "edge-shaped 4-tuple": ([(0, 1, Owner.OPERATOR1, "intra1")], not_a_pair),
        "bare node": ([0], not_a_pair),
        "incomparable ends": ([(0, "1")], not_a_pair),
    }
    for name, (attack, message) in rows.items():
        with pytest.raises(GameError, match=message):
            utilities(StrategyProfile(g, frozenset(attack)), PROP3_COSTS, 4, 3)
            pytest.fail(name)


def test_utilities_refuses_a_network_of_other_layer_sizes():
    g = from_pairs(4, 3, [(0, 1, Owner.OPERATOR1), (0, 4, Owner.OPERATOR2)])
    for n1, n2 in ((3, 4), (4, 4), (5, 3)):
        with pytest.raises(GameError, match="a 4\\+3 network in a"):
            utilities(StrategyProfile(g), PROP3_COSTS, n1, n2)


def test_profiles_round_trip_and_utilities_match_a_hand_count():
    rng = random.Random(23)
    for _ in range(200):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 3)
        costs = random_costs(rng)
        triples, counts = [], [0, 0, 0, 0]  # op1 intra, op1 cross, op2 intra, op2 cross
        for u, v in random_pairs(rng, n1, n2, p=0.5):
            ends = (u < n1) + (v < n1)
            kind = 0 if ends == 2 else 2 if ends == 0 else rng.choice((1, 3))
            counts[kind] += 1
            triples.append((u, v, Owner.OPERATOR1 if kind < 2 else Owner.OPERATOR2))
        net = from_pairs(n1, n2, triples)
        # the network, written as triples and read back, is the same network
        assert well_formed(net)
        # utilities takes each attacked pair in either order
        hit = {p for p in sorted(net.edge_pairs()) if rng.random() < 0.3}
        attack = frozenset((v, u) if rng.random() < 0.5 else (u, v) for u, v in sorted(hit))
        out = utilities(StrategyProfile(net, attack), costs, n1, n2)
        one = int(lambda_by_bipartition(n1 + n2, net.edge_pairs() - hit) > 0)
        e1i, e1c, e2i, e2c = counts
        assert (out.connected_after_attack, out.u1, out.u2, out.uA) == (
            bool(one),
            one - costs.c1 * e1i - costs.c12 * e1c,
            one - costs.c2 * e2i - costs.c21 * e2c,
            1 - one - costs.ca * len(attack),
        )


def test_utilities_counts_costs():
    costs = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")
    op1, op2 = Owner.OPERATOR1, Owner.OPERATOR2
    net = from_pairs(9, 9, [(0, 1, op1), (2, 10, op1), (9, 10, op2), (0, 9, op2)])
    profile = StrategyProfile(net, frozenset([(0, 1)]))
    out = utilities(profile, costs, 9, 9)
    assert not out.connected_after_attack
    assert out.u1 == 0 - F(1, 30) - F(1, 20)
    assert out.u2 == 0 - F(1, 45) - F(2, 45)
    assert out.uA == 1 - F(1, 3)


def band_graph(n1, k, owner=Owner.OPERATOR1):
    return from_pairs(n1, n1, [(i, n1 + (i + c) % n1, owner) for i in range(n1) for c in range(k + 1)])


def test_adversary_best_response_cases():
    ca = F(1, 3)
    # disconnected network: no attack
    assert adversary_best_response(from_pairs(3, 3, ()), ca) == frozenset()
    # 3-resistant network, k = 3: no attack
    resistant = band_graph(5, 3)
    assert link_connectivity(resistant).p == 3
    assert adversary_best_response(resistant, ca) == frozenset()
    # a plain cycle against k = 3: two-link cut, adversary nets 1 - 2/3
    n = 8
    g = embed(4, 4, [(i, (i + 1) % n) for i in range(n)])
    attack = adversary_best_response(g, ca)
    assert len(attack) == 2
    assert not is_connected(remove_edges(g, attack))
    # the best response is a profile's attack, and nets the adversary 1 - 2 cA
    out = utilities(StrategyProfile(g, attack), replace(PROP3_COSTS, ca=ca), 4, 4)
    assert (out.connected_after_attack, out.uA) == (False, 1 - 2 * ca)


def test_adversary_attacks_at_zero_net_payoff():
    # cut size 2 at ca = 1/2 costs exactly 1: convention says attack
    g = embed(2, 2, [(0, 2), (2, 1), (1, 3), (3, 0)])
    attack = adversary_best_response(g, F(1, 2))
    assert len(attack) == 2


def test_operator2_response_when_already_resistant():
    g1 = band_graph(4, 2)
    assert operator2_best_response_exact(g1, PROP3_COSTS, 2) == frozenset()


def test_operator2_response_sizes_by_first_move():
    # one cross link forces an 11-link completion, one intra link a 10-link one
    g_cross = from_pairs(4, 3, [(0, 4, Owner.OPERATOR1)])
    resp = operator2_best_response_exact(g_cross, PROP3_COSTS, 2)
    assert len(resp) == 11
    g_intra = from_pairs(4, 3, [(0, 1, Owner.OPERATOR1)])
    resp = operator2_best_response_exact(g_intra, PROP3_COSTS, 2)
    assert len(resp) == 10
    union = resp | {(0, 1)}
    assert link_connectivity(embed(4, 3, union)).p >= 2


def test_operator2_buys_when_the_base_passes_every_count_screen_but_does_not_resist():
    # Two K4 blocks joined by (0, 2) and (4, 6): every degree is at least
    # 3 and there are 8 cross links, so the empty purchase passes every
    # count screen at k = 2, yet the two joining links cut the network.
    blocks = [(0, 1, 4, 5), (2, 3, 6, 7)]
    pairs = [p for block in blocks for p in itertools.combinations(block, 2)] + [(0, 2), (4, 6)]
    g1 = embed(4, 4, pairs, cross_owner=Owner.OPERATOR1)
    assert min(graph_degrees(g1)) >= 3
    assert sum(u < 4 <= v for u, v in pairs) == 8
    assert lambda_by_bipartition(8, pairs) == 2
    resp = operator2_best_response_exact(g1, costs_of("1/10", "1/12", "1/10", "1/9", "1/2"), 2)
    assert resp == {(4, 7)}


def test_floats_are_refused():
    # Fraction(0.1) is slightly above 1/10, so a float would floor 1/cA to 9.
    with pytest.raises(GameError):
        attack_budget(0.1)
    with pytest.raises(GameError):
        attack_budget(True)
    with pytest.raises(GameError):
        CostProfile(F(1, 10), 0.2, F(1, 10), F(1, 10), F(1, 3))
    assert attack_budget(F(1, 10)) == attack_budget("0.1") == attack_budget("1/10") == 10
    assert CostProfile("0.1", F(1, 5), "1/10", F(1, 10), "1/3") == costs_of("1/10", "1/5", "1/10", "1/10", "1/3")


@pytest.mark.parametrize("k", [-1, 1.5, True, "2", None], ids=["negative", "float", "bool", "str", "none"])
def test_the_game_entry_points_refuse_a_k_that_is_not_an_int_at_least_0(k):
    # null_spe_check(3, 3, -1, c) returned None, and 1.5 raised a raw
    # TypeError from _joint_cost_floor.
    costs = costs_of("1/10", "1/12", "1/10", "1/9", "1/2")
    with pytest.raises(GameError, match=r"^k must be an int >= 0, got "):
        null_spe_check(3, 3, k, costs)
    with pytest.raises(GameError, match=r"^k must be an int >= 0, got "):
        operator2_best_response_exact(from_pairs(4, 3, ()), costs, k)
    assert null_spe_check(3, 3, 0, costs) is None


@pytest.mark.parametrize(
    "n1,n2,name",
    [(3.0, 2, "n1"), (2, 3.0, "n2"), (True, 2, "n1"), (0, 2, "n1"), (2, -1, "n2"), ("2", 2, "n1")],
    ids=["float", "float-n2", "bool", "zero", "negative", "str"],
)
def test_the_exact_solvers_refuse_layer_sizes_that_are_not_ints_at_least_1(n1, n2, name):
    costs = costs_of("1/10", "1/12", "1/10", "1/9", "1/2")
    for solver in (solve_spe_exact, bruteforce_spe_oracle):
        with pytest.raises(GameError, match=f"^{name} must be an int >= 1, got "):
            solver(n1, n2, costs)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda c: null_spe_check(2.0, 3, 1, c), "^n1 must be an int >= 1, got 2.0"),
        (lambda c: null_spe_check(0, 3, 1, c), "^n1 must be an int >= 1, got 0"),
        (lambda c: null_spe_check(3, True, 1, c), "^n2 must be an int >= 1, got True"),
        (lambda c: utilities(StrategyProfile(from_pairs(9, 9, ())), c, 9.0, 9), "^n1 must be an int >= 1, got 9.0"),
        (lambda c: solve_spe_exact(3, 3, c, cap="x"), "^cap must be an int >= 1, got 'x'"),
        (lambda c: solve_spe_exact(3, 3, c, cap=-5), "^cap must be an int >= 1, got -5"),
        (lambda c: solve_spe_exact(3, 3, c, cap=1.5), "^cap must be an int >= 1, got 1.5"),
        (lambda c: solve_spe_exact(3, 3, c, cap=True), "^cap must be an int >= 1, got True"),
        (lambda c: operator2_best_response_exact(from_pairs(3, 3, ()), c, 1, cap=0), "^cap must be an int >= 1, got 0"),
        (lambda c: operator2_best_response_exact(from_pairs(3, 3, ()), c, 1, cap=None), "^cap must be an int >= 1"),
        (lambda c: CostProfile("abc", c.c2, c.c12, c.c21, c.ca), "^c1 = 'abc' is not a rational number"),
        (lambda c: CostProfile(c.c1, None, c.c12, c.c21, c.ca), "^c2 = None is not a rational number"),
        (lambda c: CostProfile(c.c1, c.c2, "1/0", c.c21, c.ca), "^c12 = '1/0' is not a rational number"),
        (lambda c: CostProfile(c.c1, c.c2, c.c12, 0.5, c.ca), "^c21 = 0.5 is a float: pass a Fraction or a string$"),
    ],
    ids=[
        "null-check-float-n1",
        "null-check-zero-n1",
        "null-check-bool-n2",
        "utilities-float-n1",
        "exact-str-cap",
        "exact-negative-cap",
        "exact-float-cap",
        "exact-bool-cap",
        "operator2-zero-cap",
        "operator2-none-cap",
        "cost-str",
        "cost-none",
        "cost-zero-denominator",
        "cost-float",
    ],
)
def test_the_game_entry_points_refuse_malformed_arguments(call, message):
    # Each row raised a raw TypeError or ValueError, answered (null_spe_check
    # on 0 nodes said "degree-bound"), or ran out of a negative cap.
    with pytest.raises(GameError, match=message):
        call(costs_of("1/30", "1/45", "1/20", "2/45", "1/3"))


def test_the_joint_floor_is_met_on_every_shape_up_to_nine_nodes_for_k_at_least_1():
    # For every shape of n1 + n2 <= 9 nodes, every k in 1..n-2 and every x
    # that _count_floor scans in _joint_cost_floor's range (lo, lo + 1,
    # hi - 1, hi and each shortfall ni(k+1) and its neighbours), _place
    # finds a k-resistant network of x cross links and ceil((ni(k+1) -
    # x)/2) intra links in layer i.  So every x the floor may take is
    # realized at the floor's cost, and team_optimal, which places its
    # network at the floor's argmin, is the optimum whenever the floor is
    # below 2.  At k = 0 (a connected network) 124 of 206 such counts have
    # no network: at 2+2 with x = 2 the two cross links are a matching,
    # and team_optimal(3, 3, 0, CASE_A), a spanning tree, costs 7/45,
    # above its floor of 1/10.
    def cases(ks, cap):
        for n in range(2, 10):
            for n1 in range(1, n):
                n2 = n - n1
                for k in ks(n):
                    lo, hi = max(k + 1, n1 * (k + 2 - n1), n2 * (k + 2 - n2)), n1 * n2
                    shorts = (n1 * (k + 1), n2 * (k + 1))
                    candidates = {lo, lo + 1, hi - 1, hi, *(s + step for s in shorts for step in (-1, 0, 1))}
                    for x in sorted(x for x in candidates if lo <= x <= hi):
                        uni = EdgeUniverse(n1, n2)
                        intra = [(max(0, s - x) + 1) // 2 for s in shorts]
                        groups = [(uni.intra1_bits, intra[0]), (uni.intra2_bits, intra[1]), (uni.cross_bits, x)]
                        yield (n1, n2, k, x), _place(uni, k, 0, groups, _Budget(cap)) is not None

    # team_optimal places these under the default cap, which each must fit.
    met = dict(cases(lambda n: range(1, n - 1), DEFAULT_SEARCH_CAP))
    assert len(met) == 679 and all(met.values())
    met = dict(cases(lambda n: (0,), 10**9))
    assert (len(met), sum(not found for found in met.values())) == (206, 124)
    assert not met[2, 2, 0, 2]
    case_a = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")
    assert (_joint_cost_floor(3, 3, 0, case_a)[0], team_optimal(3, 3, 0, case_a).cost) == (F(1, 10), F(7, 45))


def test_the_team_network_refuses_counts_that_no_network_has():
    # The 124 k = 0 counts above that have no network never reach it: at
    # k = 0 team_optimal builds its spanning tree without a placement.  At
    # 2+2 two cross links alone are a matching.
    with pytest.raises(GameError, match=r"^no 0-resistant 2\+2 network has .* counts \(0, 0, 2\)$"):
        _team_network(2, 2, 0, (0, 0, 2), True)


def test_operator2_response_refuses_at_cost_one():
    # completion needs 12 cross links at 1/12 each: exactly cost 1, so null
    costs = costs_of("1/100", "1/12", "1/100", "1/12", "1/2")
    assert operator2_best_response_exact(from_pairs(4, 3, ()), costs, 2) == frozenset()


def test_null_spe_check():
    assert null_spe_check(2, 2, 4, PROP3_COSTS) == "degree-bound"
    case_b = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")
    assert null_spe_check(9, 9, 7, case_b) == "cost-bound"
    assert null_spe_check(9, 9, 3, case_b) is None


def test_joint_cost_floor_matches_a_scan_over_the_cross_count():
    rng = random.Random(41)
    for _ in range(400):
        n1, n2 = rng.randint(1, 30), rng.randint(1, 30)
        k = rng.randint(1, max(1, n1 + n2 - 2))
        costs = random_costs(rng, max_den=50)
        assert _joint_cost_floor(n1, n2, k, costs) == joint_floor_by_scan(n1, n2, k, costs), (n1, n2, k, costs)
        # The operator-2 form (the level bound): layer 1 takes cross links only.
        a, b = rng.randint(0, n1 * (n1 - 1) // 2), rng.randint(0, n1 * n2)
        d1, d2 = n1 * (k + 1) - 2 * a - b, n2 * (k + 1) - b
        lo, hi = max(d1, k + 1 - b, 0), n1 * n2 - b
        scan = min((x * costs.c21 + (max(0, d2 - x) + 1) // 2 * costs.c2 for x in range(lo, hi + 1)), default=None)
        assert _count_floor(lo, hi, costs.c21, [(d2, costs.c2)])[0] == scan, (n1, n2, k, a, b, costs)


def test_cheap_cross_links_do_not_make_an_instance_null():
    # Two cross links (2/10) cost less than an intra link in each layer
    # (5/9 + 1/16), so pricing every node's degree with intra links
    # overstated the cost: an all-cross network by operator 2 solves it.
    costs = costs_of("5/9", "1/16", "37/41", "1/10", "6/11")
    assert null_spe_check(4, 4, 1, costs) is None
    structured, _ = solve_game(4, 4, costs, mode="structured")
    exact = solve_spe_exact(4, 4, costs)
    assert (structured.method, structured.is_null, structured.u1, structured.u2) == ("structured", False, 1, F(1, 5))
    assert (exact.is_null, exact.u1, exact.u2_values) == (False, 1, (F(1, 5),))


def test_solve_spe_exact_prop3():
    sol = solve_spe_exact(4, 3, PROP3_COSTS)
    assert not sol.is_null
    assert sol.u1 == F(91, 100)
    assert sorted(1 - v for v in sol.u2_values) == [F(9, 10), F(99, 100)]
    assert sol.uA == 0
    for profile, u2 in zip(sol.profiles, sol.u2_values):
        out = utilities(profile, PROP3_COSTS, 4, 3)
        assert (out.u1, out.u2) == (sol.u1, u2)


def test_solve_spe_exact_null_when_degree_bound():
    sol = solve_spe_exact(2, 2, costs_of("1/10", "1/10", "1/8", "1/8", "1/5"))
    assert sol.is_null
    assert (sol.u1, sol.u2, sol.uA) == (0, 0, 1)


def test_solve_spe_exact_prop4_symmetric():
    costs = costs_of("1/10", "1/10", "1/10", "1/10", "2/3")
    sol = solve_spe_exact(3, 3, costs)
    assert sol.u1 == 1
    assert sol.u2 == 1 - 6 * F(1, 10)


def test_search_cap():
    with pytest.raises(SearchCapExceeded):
        solve_spe_exact(4, 3, PROP3_COSTS, cap=50)
    # The search spends exactly 58 ticks here, one per operator-1 row node
    # and one per node of operator 2's placement search: pins the level
    # bound, the rows that operator 1's generator cuts and the placement
    # search's pruning, which must not change the work done.
    with pytest.raises(SearchCapExceeded):
        solve_spe_exact(4, 3, PROP3_COSTS, cap=57)
    assert solve_spe_exact(4, 3, PROP3_COSTS, cap=58).u1 == F(91, 100)
    # Lazy rows: a forced-exact 20+20 game reaches its cap quickly.
    with pytest.raises(SearchCapExceeded, match=r"level \(a, b\) = \(38, 3\)"):
        solve_spe_exact(20, 20, costs_of("1/200", "1/200", "1/400", "1/2", "1/3"), cap=20_000)


@pytest.mark.parametrize("n1,n2", [(2, 3), (3, 2), (3, 3), (4, 1), (1, 4), (4, 2), (2, 4)])
def test_strategies_are_the_scan_that_no_adjacent_swap_maps_earlier(n1, n2):
    # Brute force from permutation images: every level's operator-1
    # strategies in scan order (intra links, then cross links, each in
    # lexicographic order), less those that swapping two adjacent nodes of
    # one layer maps to an earlier strategy of the level.
    uni = EdgeUniverse(n1, n2)
    key = lambda mask: tuple(tuple(b for b in bits if mask >> b & 1) for bits in (uni.intra1_bits, uni.cross_bits))
    adjacent = []
    for p in [*range(n1 - 1), *range(n1, n1 + n2 - 1)]:
        perm = list(range(n1 + n2))
        perm[p], perm[p + 1] = p + 1, p
        adjacent.append(perm)

    def image(perm, mask):
        return uni.mask_of([(perm[u], perm[v]) for u, v in uni.pairs_of(mask)])

    for a in range(len(uni.intra1_bits) + 1):
        for b in range(len(uni.cross_bits) + 1):
            scan = [
                sum(1 << i for i in intra + cross)
                for intra in itertools.combinations(uni.intra1_bits, a)
                for cross in itertools.combinations(uni.cross_bits, b)
            ]
            assert scan == sorted(scan, key=key)
            kept = [m for m in scan if all(key(m) <= key(image(perm, m)) for perm in adjacent)]
            assert list(_strategies(n1, n2, a, b, _Budget(10**6))) == kept, (a, b)


def test_exact_search_matches_the_unfiltered_scan():
    # Seeded draws on every shape of 5 to 7 nodes, on the 8-node shapes
    # nearest symmetry and on the skewed ones, whose rows are longest (k <= 2
    # keeps 7+1 under a second unfiltered): generating only the strategies
    # no adjacent swap maps earlier keeps u1, the operator-2 cost classes
    # and each class's profile.
    rng = random.Random(18)
    shapes = [(n1, n - n1) for n in range(5, 8) for n1 in range(1, n)] + [(4, 4), (5, 3), (3, 5)]
    non_null = 0
    for shape in [None] * 60 + [(7, 1), (1, 7), (6, 2), (2, 6)] * 2:
        n1, n2 = shape or rng.choice(shapes)
        k = rng.randint(1, 2 if shape else 3)
        link = [F(rng.randint(1, 59), 60) * F(rng.randint(1, 10), 30) for _ in range(4)]
        costs = CostProfile(*link, ca=F(2, 2 * k + 1))
        exact = solve_spe_exact(n1, n2, costs)
        assert exact == spe_by_unfiltered_scan(n1, n2, costs), (n1, n2, costs)
        assert all(well_formed(p.network) for p in exact.profiles), (n1, n2, costs)
        non_null += not exact.is_null
    assert non_null >= 58


def test_search_cap_pins_the_team_and_operator2_searches(monkeypatch):
    # Exact tick counts of the team optimum's one placement, which runs
    # under the default cap, and of operator 2's lattice search, which
    # raises one tick short and solves at the pinned cap.
    budgets = []

    class Recorded(_Budget):
        def __init__(self, cap):
            super().__init__(cap)
            budgets.append(self)

    monkeypatch.setattr(layersec.game, "_Budget", Recorded)
    costs = costs_of("1/9", "1/8", "1/7", "1/6", "2/3")
    assert team_optimal(3, 4, 1, costs).cost == F(445, 504)
    assert [(b.cap, b.used) for b in budgets] == [(DEFAULT_SEARCH_CAP, 62)]
    ring = from_pairs(4, 3, [(u, (u + 1) % 4, Owner.OPERATOR1) for u in range(4)])
    with pytest.raises(SearchCapExceeded):
        operator2_best_response_exact(ring, PROP3_COSTS, 2, cap=47)
    assert len(operator2_best_response_exact(ring, PROP3_COSTS, 2, cap=48)) == 7


def test_place_returns_the_first_resisting_placement_of_the_scan():
    # Pools as ``_completion`` hands them over (operator 2's, then the
    # team's, less the links of the base), counts from 0 up to 4 or the
    # pool size: the slot and coverage pruning keeps the take-before-pass
    # order.
    rng = random.Random(22)
    found = 0
    for _ in range(300):
        n1 = rng.randint(1, 5)
        n2 = rng.randint(1, 6 - n1)
        uni = EdgeUniverse(n1, n2)
        k = rng.randint(1, 3)
        base = uni.mask_of(random_pairs(rng, n1, n2, p=rng.choice([0.2, 0.4, 0.6])))
        pools = rng.choice([[uni.cross_bits, uni.intra2_bits], [uni.intra1_bits, uni.intra2_bits, uni.cross_bits]])
        free = [[b for b in bits if not base >> b & 1] for bits in pools]
        groups = [(bits, rng.randint(0, min(len(bits), 4))) for bits in free]
        want = place_by_scan(uni, k, base, groups)
        assert _place(uni, k, base, groups, _Budget(10**6)) == want, (n1, n2, k, base, groups)
        found += want is not None
    assert found >= 60


@pytest.mark.parametrize("n1,n2", [(2, 3), (3, 2)])
def test_resists_matches_lambda_by_bipartition(n1, n2):
    uni = EdgeUniverse(n1, n2)
    for mask in range(1 << len(uni.pairs)):
        lam = lambda_by_bipartition(uni.n, uni.pairs_of(mask))
        for k in (1, 2, 3):
            assert uni.resists(mask, k) == (lam >= k + 1), (mask, k)


@pytest.mark.parametrize("n1,n2", [(3, 3), (4, 2), (4, 3), (5, 2)])
def test_resists_matches_lambda_on_dense_masks(monkeypatch, n1, n2):
    # Seeded masks, mostly near-complete, on both sides of the degree rule
    # 2 * least >= n - 1, under which resists runs no flow.  Half of them
    # thin out the links across a random split of the nodes, which gives
    # masks below the rule whose lambda is less than their least degree.
    calls = count_flows(monkeypatch)
    rng = random.Random(n1 * 10 + n2)
    uni = EdgeUniverse(n1, n2)
    sides = {True: 0, False: 0}  # masks with least > 1, by whether the rule applies
    below_least = 0
    for _ in range(200):
        p = rng.choice([0.05, 0.15, 0.3, 0.45])
        q = rng.choice([p, 0.9])  # the drop rate across the split
        split = rng.getrandbits(uni.n)
        mask = sum(
            1 << b for b, (u, v) in enumerate(uni.pairs) if rng.random() > (q if (split >> u ^ split >> v) & 1 else p)
        )
        lam = lambda_by_bipartition(uni.n, uni.pairs_of(mask))
        least = min((mask & inc).bit_count() for inc in uni.incident)
        dense = 2 * least >= uni.n - 1
        if least > 1:
            sides[dense] += 1
            below_least += lam < least
        for k in range(1, uni.n - 1):
            before = len(calls)
            assert uni.resists(mask, k) == (lam >= k + 1), (mask, k)
            if dense:
                assert len(calls) == before, (mask, k)
    assert min(sides.values()) >= 20 and below_least >= 5, (sides, below_least)


def test_dense_masks_resist_without_a_flow(monkeypatch):
    # Past the degree test, a least degree of at least floor(n/2) is
    # lambda (Chartrand), so K_n and any such mask need no flow, and the
    # 4+3 team optimum's placement below runs none.
    calls = count_flows(monkeypatch)
    uni = EdgeUniverse(4, 3)
    full = (1 << len(uni.pairs)) - 1
    assert uni.resists(full, 5) and not uni.resists(full, 6)
    ring = [(i, (i + 1) % 7) for i in range(7)]
    chords = uni.mask_of(ring + [(0, 3), (1, 4), (2, 5), (3, 6)])  # least degree 3 = floor(7/2)
    assert uni.resists(chords, 2) and not uni.resists(chords, 3)
    assert calls == []
    assert team_optimal(4, 3, 3, costs_of("27/280", "1/20", "41/700", "17/280", "1/3")).cost == F(627, 700)
    assert calls == []
    # A 7-cycle has least degree 2 < 3: one flow settles k = 1.
    assert uni.resists(uni.mask_of(ring), 1)
    assert len(calls) == 1


def test_repeated_solves_do_the_same_connectivity_work(monkeypatch):
    # No state survives a solve: an identical second solve repeats every
    # lambda computation of the first.
    calls = count_flows(monkeypatch)
    costs = costs_of("13/70", "87/700", "13/175", "27/140", "2/3")
    first = solve_spe_exact(4, 3, costs)
    n_first = len(calls)
    second = solve_spe_exact(4, 3, costs)
    assert n_first > 0
    assert len(calls) - n_first == n_first
    assert first == second
    assert first.u1 == F(136, 175)


def test_oracle_agreement_spec_instances():
    for n1, n2, costs in (
        (2, 2, costs_of("1/10", "1/10", "1/10", "1/10", "2/3")),
        (3, 2, costs_of("1/27", "1/27", "1/9", "1/15", "2/3")),
        (2, 2, costs_of("1/10", "1/10", "1/8", "1/8", "1/5")),  # null instance
    ):
        exact = solve_spe_exact(n1, n2, costs)
        oracle = bruteforce_spe_oracle(n1, n2, costs)
        assert exact.is_null == oracle.is_null
        assert exact.u1 == oracle.u1
        assert set(exact.u2_values) == set(oracle.u2_values)


def test_oracle_poa_family_instance_u1():
    sol = bruteforce_spe_oracle(3, 2, costs_of("1/27", "1/27", "1/9", "1/15", "2/3"))
    assert sol.u1 == 1


def test_oracle_rejects_large_instances():
    with pytest.raises(GameError):
        bruteforce_spe_oracle(4, 3, PROP3_COSTS)


def test_integer_costs_keep_the_strict_boundaries():
    # The searches compare integer costs (units of 1/L) against L; each
    # instance puts a decision exactly on a boundary.
    cases = [
        # 0-1 alone leaves operator 2 a completion costing exactly 1 (two
        # cross links and 2-3, or all four cross links at c21 = 1/4), which
        # it does not buy, so operator 1 pays 9/10 for a cross link instead.
        (2, 2, costs_of("1/10", "1/2", "9/10", "1/4", "2/3"), False, F(1, 10), {F(1, 4)}),
        # The only securable operator-1 level costs exactly 1: null ...
        (2, 1, costs_of("1/2", "1/2", "1/2", "3/4", "2/3"), True, 0, {0}),
        # ... and 1/1000 below it, not null.
        (2, 1, costs_of("1/2", "1/2", "499/1000", "3/4", "2/3"), False, F(1, 1000), {F(1, 4)}),
        # c2 = 3 in units of 1/4 is odd: after 0-1, 0-2, 1-3 the floor is
        # 2 * min(c21, c2/2) = 3/4 < 1 and 2-3 completes at 3/4 (u2 = 1/4).
        (2, 2, costs_of("1/4", "3/4", "1/4", "1/2", "2/3"), False, F(1, 4), {F(1, 2), F(1, 4)}),
        # After 0-1 operator 2 must buy at least x >= 2 cross links and
        # ceil((4 - x) / 2) intra links: 2 * 3/10 + 2/5 is exactly 1 (4 cross
        # links cost more, 3 cross and 1 intra too), so the level bound skips
        # {0-1} and operator 1 settles for a cross link ...
        (2, 2, costs_of("1/10", "2/5", "1/5", "3/10", "2/3"), False, F(4, 5), {F(1, 10)}),
        # ... and 1/1000 below it operator 2 completes 0-1.
        (2, 2, costs_of("1/10", "399/1000", "1/5", "3/10", "2/3"), False, F(9, 10), {F(1, 1000)}),
        # Pairwise-coprime denominators: L = 997 * 991 * 983 * 977.
        (2, 2, costs_of("100/997", "301/991", "250/983", "260/977", "2/3"), False, F(897, 997), None),
        (3, 2, costs_of("100/997", "101/991", "150/983", "160/977", "2/3"), False, 1, {F(17, 977)}),
    ]
    for n1, n2, costs, is_null, u1, u2_values in cases:
        exact = solve_spe_exact(n1, n2, costs)
        oracle = bruteforce_spe_oracle(n1, n2, costs)
        assert (exact.is_null, exact.u1, set(exact.u2_values)) == (
            oracle.is_null,
            oracle.u1,
            set(oracle.u2_values),
        ), costs
        assert (exact.is_null, exact.u1) == (is_null, u1), costs
        if u2_values is not None:
            assert set(exact.u2_values) == u2_values, costs
        for sol in (exact, oracle):
            assert all(isinstance(u, F) for u in (sol.u1, *sol.u2_values))
        team = team_optimal(n1, n2, exact.k, costs)
        assert team.null or isinstance(team.cost, F)

    # Skipping the level bounded at exactly 1 is what keeps the search at
    # 8 ticks; with the bound's floor in place of its ceiling, or a strict
    # comparison against 1, it would take more.
    level_at_one = costs_of("1/10", "2/5", "1/5", "3/10", "2/3")
    with pytest.raises(SearchCapExceeded):
        solve_spe_exact(2, 2, level_at_one, cap=7)
    assert solve_spe_exact(2, 2, level_at_one, cap=8).u1 == F(4, 5)

    # Operator 2 alone: four cross links at exactly 1 are not bought.
    empty = from_pairs(2, 2, ())
    at_one = costs_of("1/10", "1/2", "9/10", "1/4", "2/3")
    below_one = costs_of("1/10", "1/2", "9/10", "249/1000", "2/3")
    assert operator2_best_response_exact(empty, at_one, 1) == frozenset()
    bought = operator2_best_response_exact(empty, below_one, 1)
    assert sorted(bought) == [(0, 2), (0, 3), (1, 2), (1, 3)]


ORACLE_SHAPES = [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5) if n1 + n2 <= 5]


def regime_draws(rng, count):
    """``count`` cost draws from each of three regimes, one regime after another."""
    return [
        draw(rng)
        for draw in (
            random_costs,
            lambda rng: random_costs(rng, max_den=60, scale=SWEEP_SCALE),
            # Small denominators make ties between operator-2 completions.
            lambda rng: random_costs(rng, max_den=7),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("n1, n2", ORACLE_SHAPES)
def test_oracle_matches_the_pair_enumeration(n1, n2):
    rng = random.Random(100 * n1 + n2)
    for costs in regime_draws(rng, 5):
        oracle = bruteforce_spe_oracle(n1, n2, costs)
        assert repr(oracle) == repr(spe_by_pair_enumeration(n1, n2, costs)), costs
        assert all(well_formed(p.network) for p in oracle.profiles), costs


@pytest.mark.parametrize("n1", range(1, 6))
def test_six_node_oracle_matches_exact_search(n1):
    n2 = 6 - n1
    rng = random.Random(100 * n1 + n2)
    # The three regimes give mostly null six-node games; the test-draw rule,
    # cA = 2/(2k + 1) with k in 1..4, gives mostly non-null ones.
    ks = [rng.randint(1, 4) for _ in range(4)]
    draws = [replace(random_costs(rng, max_den=60, scale=SWEEP_SCALE), ca=F(2, 2 * k + 1)) for k in ks]
    non_null = 0
    for costs in draws + regime_draws(rng, 2):
        exact, oracle = solve_spe_exact(n1, n2, costs), bruteforce_spe_oracle(n1, n2, costs)
        assert (exact.is_null, exact.u1, set(exact.u2_values)) == (
            oracle.is_null,
            oracle.u1,
            set(oracle.u2_values),
        ), costs
        assert all(well_formed(p.network) for p in exact.profiles + oracle.profiles), costs
        non_null += not exact.is_null
    assert non_null > 0


@pytest.mark.parametrize("k", [1, 2])
def test_structured_route_reports_the_oracle_best_class(k):
    # The test draws on 3+3 with cA = 2/(2k + 1), so the attack budget is k.
    rng = random.Random(60 + k)
    draws = [replace(random_costs(rng, max_den=60, scale=SWEEP_SCALE), ca=F(2, 2 * k + 1)) for _ in range(3)]
    if k == 1:
        # Draw 62 of the same rule: two operator-2 classes, 439/3250 and 5861/68640.
        draws.append(costs_of("12181/63000", "6559/132000", "937/12750", "937/3250", "2/3"))
        assert len(bruteforce_spe_oracle(3, 3, draws[-1]).u2_values) == 2
    for costs in draws:
        structured, _ = structured_solve(3, 3, costs)
        oracle = bruteforce_spe_oracle(3, 3, costs)
        assert structured.is_null == oracle.is_null, costs
        if not oracle.is_null:
            assert (structured.u1, structured.u2) == (oracle.u1, oracle.u2_values[0]), costs


def test_oracle_matches_the_pair_enumeration_on_the_strict_boundaries():
    # The instances of test_integer_costs_keep_the_strict_boundaries.
    for n1, n2, costs in [
        (2, 2, costs_of("1/10", "1/2", "9/10", "1/4", "2/3")),
        (2, 1, costs_of("1/2", "1/2", "1/2", "3/4", "2/3")),
        (2, 1, costs_of("1/2", "1/2", "499/1000", "3/4", "2/3")),
        (2, 2, costs_of("1/4", "3/4", "1/4", "1/2", "2/3")),
        (2, 2, costs_of("1/10", "2/5", "1/5", "3/10", "2/3")),
        (2, 2, costs_of("1/10", "399/1000", "1/5", "3/10", "2/3")),
        (2, 2, costs_of("100/997", "301/991", "250/983", "260/977", "2/3")),
        (3, 2, costs_of("100/997", "101/991", "150/983", "160/977", "2/3")),
    ]:
        assert repr(bruteforce_spe_oracle(n1, n2, costs)) == repr(spe_by_pair_enumeration(n1, n2, costs)), costs


def test_oracle_breaks_operator2_ties_towards_the_largest_mask():
    # After 0-1 operator 2 completes the square with 2-3 and either
    # {0-2, 1-3} or {0-3, 1-2}, both at 1/3 + 2 * 1/4 = 5/6.  The oracle
    # reports the numerically largest operator-2 mask: {0-2, 1-3} holds
    # cross bits 0 and 3 of 0-2, 0-3, 1-2, 1-3.
    n1, n2, costs = 2, 2, costs_of("3/5", "1/3", "2/3", "1/4", "3/4")
    sol = bruteforce_spe_oracle(n1, n2, costs)
    assert (sol.k, sol.is_null, sol.u1, sol.u2_values) == (1, False, F(2, 5), (F(1, 6),))
    (profile,) = sol.profiles
    e1i, e1c, e2i, e2c = profile.network.links
    assert e1i == {(0, 1)} and not e1c
    assert e2i | e2c == {(0, 2), (1, 3), (2, 3)}
    op1, op2 = Owner.OPERATOR1, Owner.OPERATOR2
    other = StrategyProfile(from_pairs(n1, n2, [(0, 1, op1), (2, 3, op2), (0, 3, op2), (1, 2, op2)]))
    assert utilities(profile, costs, n1, n2) == utilities(other, costs, n1, n2)
    assert utilities(other, costs, n1, n2).u2 == F(1, 6)


def test_oracle_uses_nothing_of_the_pruned_search(monkeypatch):
    pruned = {
        name: count_calls(monkeypatch, layersec.game, name)
        for name in ("_lattice", "_completion", "_place", "_strategies", "_level_floor", "null_spe_check")
    }
    resists = []
    inner = EdgeUniverse.resists

    def counted(self, mask, k):
        resists.append(mask)
        return inner(self, mask, k)

    monkeypatch.setattr(EdgeUniverse, "resists", counted)
    sol = bruteforce_spe_oracle(3, 2, costs_of("1/27", "1/27", "1/9", "1/15", "2/3"))
    assert not sol.is_null
    assert {name: len(calls) for name, calls in pruned.items()} == dict.fromkeys(pruned, 0)
    # k-resistance (k = 1) is settled only on masks where every node keeps
    # degree >= 2, each at most once: 37 of the 1,024 masks of the 10
    # candidate links.
    uni = EdgeUniverse(3, 2)
    assert all((mask & inc).bit_count() >= 2 for mask in resists for inc in uni.incident)
    assert len(set(resists)) == len(resists) == 37


def test_equilibrium_network_is_k_resistant():
    rng = random.Random(23)
    checked = 0
    while checked < 12:
        costs = random_costs(rng)
        sol = solve_spe_exact(2, 2, costs)
        if sol.is_null:
            continue
        checked += 1
        g = embed(2, 2, sol.profiles[0].built_pairs())
        assert link_connectivity(g).p >= sol.k
        assert adversary_best_response(g, costs.ca) == frozenset()


def test_no_profitable_operator2_deviation():
    # spot check the equilibrium property on an oracle-sized instance
    costs = costs_of("1/6", "1/7", "1/5", "1/4", "2/3")
    k = attack_budget(costs.ca)
    sol = solve_spe_exact(2, 2, costs)
    if sol.is_null:
        pytest.skip("instance solved to null; nothing to deviate from")
    uni = EdgeUniverse(2, 2)
    profile = sol.profiles[0]
    e1i, e1c, _, _ = profile.network.links
    mask1 = uni.mask_of(e1i | e1c)
    base_u2 = sol.u2
    allowed = (uni.intra2_mask | uni.cross_mask) & ~mask1
    sub = allowed
    while True:
        lam = uni.lam(mask1 | sub)
        survives = lam - 1 >= k
        intra = (sub & uni.intra2_mask).bit_count()
        cross = (sub & uni.cross_mask).bit_count()
        u2 = (1 if survives else 0) - (costs.c2 * intra + costs.c21 * cross)
        assert u2 <= base_u2
        if sub == 0:
            break
        sub = (sub - 1) & allowed


def test_structured_route_matches_exact_search_on_small_symmetric():
    # both solvers must assign the same value to every symmetric instance
    # within exact reach (the structured route is used for the large ones);
    # scaled 4+4 costs make most of its games non-null
    for n, draws, scale in ((3, 60, None), (4, 24, SWEEP_SCALE)):
        rng = random.Random(99)
        checked = 0
        while checked < draws:
            costs = random_costs(rng, ordered=True, scale=scale)
            if not 1 <= attack_budget(costs.ca) < n:
                continue
            checked += 1
            structured_matches_exact(n, costs)


# Equilibria where operator 1 buys more than k + 1 cross links, shapes
# (a, b, y, x) = (1, 4, 1, 0), (2, 4, 2, 0) and (1, 6, 1, 0), where a and y
# are the intra links of operators 1 and 2 and b and x their cross links.
MANY_CROSS_LINKS = [
    (3, ("2/57", "31/50", "1/10", "23/29", "32/39")),
    (3, ("1/7", "24/37", "1/5", "46/57", "16/31")),
    (3, ("4/55", "42/47", "1/5", "17/18", "31/50")),
    (4, ("1/21", "16/45", "4/37", "5/6", "17/33")),
    (4, ("2/57", "31/50", "1/10", "23/29", "32/39")),
]


@pytest.mark.parametrize("n,costs", MANY_CROSS_LINKS)
def test_structured_route_finds_the_exact_equilibrium(n, costs):
    structured_matches_exact(n, costs_of(*costs))


def test_structured_route_solves_a_parity_shape_cheapest_level():
    # 4+4, k = 2: the cheapest level is 5 intra links by operator 1, and
    # operator 2 completes it with 5 intra and 3 cross links, 13 links
    # where a 3-regular network has 12: the parity shape, with one extra
    # vertical.
    costs = costs_of("7/41", "1/35", "2/9", "8/29", "1/2")
    sol, built = structured_solve(4, 4, costs)
    plan = built.plan
    assert (plan.e11, plan.e12, plan.op2_intra, plan.op2_cross) == (5, 0, 5, 3)
    assert (sol.u1, sol.u2) == (F(6, 41), F(6, 203))
    exact = solve_spe_exact(4, 4, costs)
    assert (exact.u1, exact.u2_values) == (sol.u1, (sol.u2,))
    # 8+8, k = 4: beyond exact search's cap; a fresh flow certifies the build.
    costs = costs_of("139/3200", "3197/62000", "417/9500", "2641/42000", "2/9")
    sol, built = structured_solve(8, 8, costs)
    plan, g = built.plan, built.graph
    assert (plan.e11, plan.e12, plan.op2_intra, plan.op2_cross) == (18, 4, 18, 1)
    assert edge_connectivity_pairs(g.n, g.edge_pairs()) == 5
    assert sorted(graph_degrees(g)) == [5] * 14 + [6] * 2


def test_utilities_bounded_by_one():
    rng = random.Random(29)
    for _ in range(40):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        costs = random_costs(rng)
        triples = []
        for u, v in random_pairs(rng, n1, n2, p=0.5):
            op1 = v < n1 or (u < n1 <= v and rng.random() < 0.5)
            triples.append((u, v, Owner.OPERATOR1 if op1 else Owner.OPERATOR2))
        attack = {(u, v) for u, v, _ in triples if rng.random() < 0.3}
        profile = StrategyProfile(from_pairs(n1, n2, triples), frozenset(attack))
        out = utilities(profile, costs, n1, n2)
        assert out.u1 <= 1 and out.u2 <= 1 and out.uA <= 1
        sign = 1 if out.connected_after_attack else 0
        assert out.uA == 1 - sign - costs.ca * len(attack)
