import functools
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import lambda_by_bipartition, random_costs
from layersec.connectivity import link_connectivity
from layersec.construction import structured_solve
from layersec.game import CostProfile, attack_budget, bruteforce_spe_oracle, null_spe_check, solve_spe_exact
from layersec.metrics import (
    MetricsError,
    cost_bounds,
    price_of_anarchy,
    price_of_seniority,
    solve_game,
    team_optimal,
    threat_sweep,
)


def costs_of(c1, c2, c12, c21, ca="1/2") -> CostProfile:
    return CostProfile(F(c1), F(c2), F(c12), F(c21), F(ca))


CASE_A = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")


def test_cost_bounds_case_a():
    lower, upper = cost_bounds(9, 9, 3, CASE_A)
    assert lower == 4 * F(2, 45) + 32 * F(1, 45)
    assert upper == 4 * F(2, 45) + 18 * F(1, 30) + 18 * F(1, 45)


def test_cost_bounds_uniform():
    c = F(1, 10)
    lower, upper = cost_bounds(2, 2, 1, costs_of(c, c, c, c))
    assert lower == 4 * c
    assert upper == 2 * c + 2 * c + 2 * c


def test_cost_bounds_upper_undefined():
    lower, upper = cost_bounds(3, 2, 2, CASE_A)
    assert upper is None
    assert lower > 0


def test_team_optimal_cycle_instance():
    costs = costs_of("1/64", "1/64", "1/16", "1/12")
    team = team_optimal(4, 2, 1, costs)
    assert not team.null and team.exact
    assert team.cost == F(4, 64) + F(2, 16)
    assert link_connectivity(team.graph).p >= 1


def test_team_optimal_square():
    c = F(1, 12)
    team = team_optimal(2, 2, 1, costs_of(c, c, c, c))
    assert team.cost == 4 * c
    assert len(team.graph.edges) == 4


def test_team_optimal_null_cases():
    assert team_optimal(2, 2, 4, CASE_A).null  # degree bound
    expensive = costs_of("9/10", "9/10", "99/100", "99/100")
    assert team_optimal(3, 3, 2, expensive).null  # joint cost floor >= 2


def test_team_optimal_k_zero_on_the_structured_route_names_its_domain():
    c = F(1, 20)
    with pytest.raises(MetricsError, match="1 <= k < n1"):
        team_optimal(4, 4, 0, costs_of(c, c, c, c))


def test_out_of_order_costs_with_a_floor_of_two_are_null_everywhere():
    # c1 > c12 and c2 > c21; the joint floor is 72/5.  The team search
    # used to return the all-cross band at 72/5, and stage 1 raised.
    costs = costs_of("1/2", "1/2", "2/5", "2/5", "1/3")
    assert null_spe_check(9, 9, 3, costs) == (True, "cost-bound")
    assert team_optimal(9, 9, 3, costs).null
    assert structured_solve(9, 9, costs)[0].is_null
    assert [(e.null, e.reason) for e in threat_sweep(9, costs, [3])] == [(True, "cost-bound")]


@functools.cache
def _edge_sets(n1, n2):
    """Every edge set of the (n1, n2) instance with its edge connectivity."""
    n = n1 + n2
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [
        (sub, lambda_by_bipartition(n, sub))
        for r in range(len(pairs) + 1)
        for sub in itertools.combinations(pairs, r)
    ]


def _team_by_brute_force(n1, n2, k, costs):
    """Cheapest k-resistant edge set, cross links priced at min(c12, c21)."""
    cmin = min(costs.c12, costs.c21)
    price = lambda u, v: costs.c1 if v < n1 else costs.c2 if u >= n1 else cmin
    return min(
        (sum(price(u, v) for u, v in sub) for sub, lam in _edge_sets(n1, n2) if lam >= k + 1),
        default=None,
    )


def _assert_team_matches_brute_force(n1, n2, k, costs):
    best = _team_by_brute_force(n1, n2, k, costs)
    team = team_optimal(n1, n2, k, costs)
    if best is None or best >= 2:
        assert team.null, (n1, n2, k, costs, best)
    else:
        assert not team.null and team.cost == best, (n1, n2, k, costs, best)
        assert isinstance(team.cost, F)
        assert link_connectivity(team.graph).p >= k


def test_team_optimal_matches_brute_force():
    # Null exactly when no k-resistant edge set costs less than 2, the
    # optimum otherwise; cross links are priced at min(c12, c21).  Costs
    # are drawn both ordered and unordered, so the analytic lower bound
    # does not always hold.
    rng = random.Random(47)
    shapes = [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5) if 3 <= n1 + n2 <= 5]
    for trial in range(400):
        n1, n2 = rng.choice(shapes)
        k = rng.randint(1, n1 + n2 - 1)
        costs = random_costs(rng, ordered=trial % 2 == 0)
        _assert_team_matches_brute_force(n1, n2, k, costs)


def test_null_check_is_sound_in_every_cost_order():
    # Whenever null_spe_check says null, neither the oracle's equilibrium
    # nor the brute-force team optimum is non-null, whichever of c1, c12
    # and of c2, c21 is the larger.
    rng = random.Random(53)
    shapes = [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5) if 3 <= n1 + n2 <= 5]
    orders = set()  # cost orders that gave a cost-bound null
    for _ in range(400):
        n1, n2 = rng.choice(shapes)
        costs = random_costs(rng, max_den=6)
        k = attack_budget(costs.ca)
        order = (costs.c1 <= costs.c12, costs.c2 <= costs.c21)
        is_null, reason = null_spe_check(n1, n2, k, costs)
        if not is_null:
            continue
        if reason == "cost-bound":
            orders.add(order)
        assert bruteforce_spe_oracle(n1, n2, costs).is_null, (n1, n2, costs)
        best = _team_by_brute_force(n1, n2, k, costs)
        assert best is None or best >= 2, (n1, n2, k, costs, best)
    assert len(orders) == 4, orders


def _fractions_in(lo, hi):
    """Fractions strictly inside (lo, hi) with denominators up to 10,000."""
    return st.fractions(min_value=lo, max_value=hi, max_denominator=10_000).filter(
        lambda c: lo < c < hi
    )


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    shape=st.sampled_from([(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5) if 3 <= n1 + n2 <= 5]),
    link=st.tuples(*[_fractions_in(0, F(1, 2))] * 4),
    ca=_fractions_in(F(1, 3), 1),
    data=st.data(),
)
def test_scaled_searches_match_references_on_random_fractions(shape, link, ca, data):
    # Costs with unrelated denominators up to 10,000 scale to a large L.
    # The pruned search must agree with the full-enumeration oracle, and
    # the team search with a brute force that prices every edge set in
    # Fraction arithmetic.  Link costs stay below 1/2 and floor(1/cA) is 1
    # or 2, so that most instances are not null.
    n1, n2 = shape
    costs = CostProfile(*link, ca)
    exact = solve_spe_exact(n1, n2, costs)
    oracle = bruteforce_spe_oracle(n1, n2, costs)
    assert (exact.is_null, exact.u1, set(exact.u2_values)) == (
        oracle.is_null,
        oracle.u1,
        set(oracle.u2_values),
    )
    k = data.draw(st.integers(1, n1 + n2 - 1), label="k")
    _assert_team_matches_brute_force(n1, n2, k, costs)


def test_team_optimal_structured_large():
    c = F(1, 20)
    team = team_optimal(4, 4, 1, costs_of(c, c, c, c))
    assert team.cost == 8 * c
    assert team.exact  # meets the analytic lower bound
    assert link_connectivity(team.graph).p >= 1


def test_poa_is_one_for_uniform_symmetric_costs():
    c = F(1, 20)
    eff = price_of_anarchy(4, 4, costs_of(c, c, c, c, "2/3"))
    assert eff.poa == 1
    assert eff.c_spe == eff.c_co == 8 * c


def test_poa_family_values():
    for n1 in (3, 4, 5):
        costs = CostProfile(F(1, n1**3), F(1, n1**3), F(1, n1**2), F(1, 3 * n1), F(2, 3))
        eff = price_of_anarchy(n1, 2, costs, mode="exact")
        assert eff.poa == F(2 * n1 * n1, 9)
        assert eff.lower_bound <= eff.c_co
        assert eff.upper_bound is None or eff.c_co <= eff.upper_bound


def test_poa_at_least_one_on_random_small_instances():
    rng = random.Random(31)
    seen = 0
    while seen < 10:
        costs = random_costs(rng)
        n1, n2 = rng.choice([(2, 2), (3, 2), (2, 3)])
        eff = price_of_anarchy(n1, n2, costs, mode="exact")
        if eff.poa is None:
            continue
        seen += 1
        assert eff.poa >= 1


def test_pos_infinite_in_prop4_regime():
    costs = costs_of("1/20", "1/20", "1/10", "1/10", "2/3")
    sen = price_of_seniority(3, 3, costs)
    assert sen.infinite
    assert sen.c2_first == 0
    assert sen.c2_second == 6 * F(1, 10)


def test_pos_at_least_one():
    rng = random.Random(37)
    seen = 0
    while seen < 8:
        costs = random_costs(rng)
        sen = price_of_seniority(2, 2, costs, mode="exact")
        if sen.c2_second == 0 and sen.c2_first == 0:
            assert sen.pos == 1
            continue
        seen += 1
        assert sen.infinite or sen.pos >= 1


def test_pos_symmetric_first_cost_matches_operator1():
    costs = costs_of("1/20", "1/20", "1/10", "1/10", "2/3")
    sol, _ = solve_game(3, 3, costs)
    sen = price_of_seniority(3, 3, costs)
    assert sen.c2_first == 1 - sol.u1


def test_threat_sweep_case_b():
    entries = threat_sweep(9, CASE_A, range(0, 9))
    by_k = {e.k: e for e in entries}
    assert by_k[1].op1_intra + by_k[1].op1_cross == 0
    assert by_k[2].op1_intra == 4
    assert by_k[7].null and by_k[8].null
    costs2 = {1 - by_k[k].u2 for k in range(2, 7)}
    assert costs2 == {F(14, 15)}


def test_threat_sweep_is_null_for_k_at_least_n1():
    # A 3+3 network has 9 cross pairs; k = 3, 4 would plan 12 and 15
    # operator-2 cross links, and no null condition catches them.
    costs = costs_of("1/100", "1/100", "1/50", "1/50", "1/3")
    entries = threat_sweep(3, costs, [2, 3, 4, 5])
    assert not entries[0].null
    assert [(e.null, e.reason, e.op2_cross) for e in entries[1:3]] == [(True, "k >= n1", 0)] * 2
    assert (entries[3].null, entries[3].reason) == (True, "degree-bound")


def test_threat_sweep_rejects_negative_k():
    with pytest.raises(MetricsError):
        threat_sweep(3, CASE_A, [-1])


def test_solve_game_dispatch():
    from layersec.game import SearchCapExceeded

    sol, built = solve_game(9, 9, CASE_A)
    assert sol.method == "structured" and built is not None
    sol, built = solve_game(4, 3, costs_of("0.09", "0.09", "0.09", "0.09", "2/5"))
    assert sol.method == "exact" and built is None
    with pytest.raises(MetricsError):
        solve_game(9, 8, CASE_A)  # asymmetric and too large for exact search
    with pytest.raises(SearchCapExceeded):
        solve_game(9, 9, CASE_A, mode="exact", cap=20_000)  # forced exact burns its budget


def test_bounds_sandwich_exact_team():
    # the analytic bounds assume intra links are no pricier than cross links
    rng = random.Random(41)
    for _ in range(10):
        n1, n2 = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
        k = rng.choice([1, 2])
        costs = random_costs(rng, ordered=True)
        team = team_optimal(n1, n2, k, costs)
        if team.null:
            continue
        lower, upper = cost_bounds(n1, n2, k, costs)
        assert lower <= team.cost
        if upper is not None:
            assert team.cost <= upper


def test_exact_team_at_most_exact_spe_cost():
    # coordination can never cost more than the worst equilibrium
    rng = random.Random(43)
    seen = 0
    while seen < 8:
        costs = random_costs(rng)
        n1, n2 = rng.choice([(2, 2), (3, 2)])
        sol = solve_spe_exact(n1, n2, costs)
        if sol.is_null:
            continue
        team = team_optimal(n1, n2, sol.k, costs)
        if team.null:
            continue
        seen += 1
        c_spe = (1 - sol.u1) + max(1 - u2 for u2 in sol.u2_values)
        assert team.cost <= c_spe
