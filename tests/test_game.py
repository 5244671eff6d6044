import random
from fractions import Fraction as F

import pytest

from helpers import embed, random_costs, random_pairs
from layersec.connectivity import is_connected, link_connectivity
from layersec.game import (
    CostProfile,
    GameError,
    SearchCapExceeded,
    StrategyProfile,
    adversary_best_response,
    attack_budget,
    bruteforce_spe_oracle,
    get_universe,
    null_spe_check,
    operator2_best_response_exact,
    solve_spe_exact,
    utilities,
)
from layersec.graph import Owner, add_edge, new_graph, remove_edges


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
    out = utilities(StrategyProfile.empty(), PROP3_COSTS, 3, 2)
    assert (out.u1, out.u2, out.uA) == (0, 0, 1)
    assert not out.connected_after_attack


def test_utilities_malformed():
    costs = PROP3_COSTS
    with pytest.raises(GameError):
        utilities(
            StrategyProfile(frozenset([(4, 5)]), frozenset(), frozenset(), frozenset(), frozenset()),
            costs, 4, 3,
        )  # layer-2 pair declared as operator-1 intra
    with pytest.raises(GameError):
        utilities(
            StrategyProfile(frozenset(), frozenset([(0, 4)]), frozenset(), frozenset([(0, 4)]), frozenset()),
            costs, 4, 3,
        )  # same cross link built twice
    with pytest.raises(GameError):
        utilities(
            StrategyProfile(frozenset(), frozenset(), frozenset(), frozenset(), frozenset([(0, 1)])),
            costs, 4, 3,
        )  # attack on a link nobody built


def test_utilities_counts_costs():
    costs = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")
    profile = StrategyProfile(
        e1_intra=frozenset([(0, 1)]),
        e1_cross=frozenset([(2, 10)]),
        e2_intra=frozenset([(9, 10)]),
        e2_cross=frozenset([(0, 9)]),
        attack=frozenset([(0, 1)]),
    )
    out = utilities(profile, costs, 9, 9)
    assert not out.connected_after_attack
    assert out.u1 == 0 - F(1, 30) - F(1, 20)
    assert out.u2 == 0 - F(1, 45) - F(2, 45)
    assert out.uA == 1 - F(1, 3)


def band_graph(n1, k, owner=Owner.OPERATOR1):
    g = new_graph(n1, n1)
    for i in range(n1):
        for c in range(k + 1):
            g = add_edge(g, i, n1 + (i + c) % n1, owner)
    return g


def test_adversary_best_response_cases():
    ca = F(1, 3)
    # disconnected network: no attack
    assert adversary_best_response(new_graph(3, 3), ca) == frozenset()
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
    g_cross = add_edge(new_graph(4, 3), 0, 4, Owner.OPERATOR1)
    resp = operator2_best_response_exact(g_cross, PROP3_COSTS, 2)
    assert len(resp) == 11
    g_intra = add_edge(new_graph(4, 3), 0, 1, Owner.OPERATOR1)
    resp = operator2_best_response_exact(g_intra, PROP3_COSTS, 2)
    assert len(resp) == 10
    union = {e.pair for e in resp} | {(0, 1)}
    assert link_connectivity(embed(4, 3, union)).p >= 2


def test_operator2_response_refuses_at_cost_one():
    # completion needs 12 cross links at 1/12 each: exactly cost 1, so null
    costs = costs_of("1/100", "1/12", "1/100", "1/12", "1/2")
    assert operator2_best_response_exact(new_graph(4, 3), costs, 2) == frozenset()


def test_null_spe_check():
    assert null_spe_check(2, 2, 4, PROP3_COSTS) == (True, "degree-bound")
    case_b = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")
    assert null_spe_check(9, 9, 7, case_b) == (True, "cost-bound")
    assert null_spe_check(9, 9, 3, case_b) == (False, None)


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
    # The search spends exactly 277 ticks here: pins the operator-2
    # placement search's pruning, which must not change the work done.
    with pytest.raises(SearchCapExceeded):
        solve_spe_exact(4, 3, PROP3_COSTS, cap=276)
    assert solve_spe_exact(4, 3, PROP3_COSTS, cap=277).u1 == F(91, 100)


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
    uni = get_universe(2, 2)
    profile = sol.profiles[0]
    mask1 = uni.mask_of(profile.e1_intra | profile.e1_cross)
    base_u2 = sol.u2
    allowed = (uni.intra2_mask | uni.cross_mask) & ~mask1
    sub = allowed
    while True:
        lam = uni.lam(mask1 | sub)
        survives = lam - 1 >= k
        u2 = (1 if survives else 0) - uni.op2_cost(sub, costs)
        assert u2 <= base_u2
        if sub == 0:
            break
        sub = (sub - 1) & allowed


def test_structured_route_matches_exact_search_on_small_symmetric():
    # both solvers must assign the same value to every symmetric instance
    # within exact reach (the structured route is used for the large ones)
    from layersec.construction import structured_solve

    rng = random.Random(99)
    checked = 0
    while checked < 60:
        costs = random_costs(rng, ordered=True)
        k = attack_budget(costs.ca)
        if not 1 <= k < 3:
            continue
        checked += 1
        structured, _ = structured_solve(3, 3, costs)
        exact = solve_spe_exact(3, 3, costs)
        assert structured.is_null == exact.is_null, costs
        if not exact.is_null:
            assert structured.u1 == exact.u1, costs
            assert structured.u2 in exact.u2_values, costs


def test_utilities_bounded_by_one():
    rng = random.Random(29)
    for _ in range(40):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        costs = random_costs(rng)
        pairs = random_pairs(rng, n1, n2, p=0.5)
        e1i, e1c, e2i, e2c = set(), set(), set(), set()
        for u, v in pairs:
            if v < n1:
                e1i.add((u, v))
            elif u >= n1:
                e2i.add((u, v))
            elif rng.random() < 0.5:
                e1c.add((u, v))
            else:
                e2c.add((u, v))
        built = e1i | e1c | e2i | e2c
        attack = {p for p in built if rng.random() < 0.3}
        profile = StrategyProfile(
            frozenset(e1i), frozenset(e1c), frozenset(e2i), frozenset(e2c), frozenset(attack)
        )
        out = utilities(profile, costs, n1, n2)
        assert out.u1 <= 1 and out.u2 <= 1 and out.uA <= 1
        sign = 1 if out.connected_after_attack else 0
        assert out.uA == 1 - sign - costs.ca * len(attack)
