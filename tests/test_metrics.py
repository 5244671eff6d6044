import functools
import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import SWEEP_SCALE, count_flows, joint_floor_by_scan, lambda_by_bipartition, random_costs, well_formed
from layersec.connectivity import edge_connectivity_pairs, link_connectivity
from layersec.construction import ConstructionError, _team_design, structured_solve
from layersec.game import (
    DEFAULT_SEARCH_CAP,
    CostProfile,
    _joint_cost_floor,
    _solve_team_exact,
    attack_budget,
    bruteforce_spe_oracle,
    null_spe_check,
    solve_spe_exact,
    utilities,
)
from layersec.metrics import (
    MetricsError,
    cost_bounds,
    efficiency,
    solve_game,
    team_optimal,
)


def costs_of(c1, c2, c12, c21, ca="1/2") -> CostProfile:
    return CostProfile(F(c1), F(c2), F(c12), F(c21), F(ca))


CASE_A = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")


def test_cost_bounds_case_a():
    # The capped joint floor: the k + 1 = 4 bridges at min(c12, c21) and
    # 16 intra links per layer, each at its own layer's cost.
    lower, upper = cost_bounds(9, 9, 3, CASE_A)
    assert lower == 4 * F(2, 45) + 16 * (F(1, 30) + F(1, 45)) == F(16, 15)
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
    assert not team.null
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
    with pytest.raises(ConstructionError, match=r"1 <= k < n1, got n1 = 5, n2 = 5, k = 0"):
        team_optimal(5, 5, 0, costs_of(c, c, c, c))


def test_out_of_order_costs_with_a_floor_of_two_are_null_everywhere():
    # c1 > c12 and c2 > c21; the joint floor is 72/5.  The team search
    # used to return the all-cross band at 72/5, and stage 1 raised.
    costs = costs_of("1/2", "1/2", "2/5", "2/5", "1/3")
    assert null_spe_check(9, 9, 3, costs) == "cost-bound"
    assert team_optimal(9, 9, 3, costs).null
    assert structured_solve(9, 9, costs)[0].is_null


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
        assert well_formed(team.graph)


def test_team_optimal_matches_brute_force():
    # Null exactly when no k-resistant edge set costs less than 2, the
    # optimum otherwise; cross links are priced at min(c12, c21).  Costs
    # are drawn both ordered and unordered.
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
        reason = null_spe_check(n1, n2, k, costs)
        if reason is None:
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
    assert team.cost == 8 * c  # the capped joint floor
    assert link_connectivity(team.graph).p >= 1


ALGO_EXAMPLE = costs_of("1/20", "1/20", "1/10", "1/10", "1/3")


def test_team_optimum_meets_the_capped_floor_on_the_algorithm_example():
    # The ring-plus-bridges design cost 7/5 and gave PoA = 13/14 < 1.
    eff = efficiency(5, 5, ALGO_EXAMPLE)
    assert (eff.c_spe, eff.c_co, eff.poa) == (F(13, 10), F(6, 5), F(13, 12))
    assert eff.lower_bound == eff.c_co


def test_team_optimum_below_two_where_a_design_cost_two_or_more():
    team = team_optimal(9, 9, 3, costs_of("1/20", "1/20", "9/100", "9/100"))
    assert (team.null, team.cost) == (False, F(49, 25))  # was 54/25
    team = team_optimal(8, 8, 3, ALGO_EXAMPLE)
    assert (team.null, team.cost) == (False, F(9, 5))  # was a design at 2
    # A non-null team design always costs less than 2.
    rng = random.Random(7)
    nonnull = 0
    for _ in range(1000):
        n = rng.randint(4, 12)
        k = rng.randint(1, n - 1)
        costs = random_costs(rng, max_den=60, scale=(F(1, 2 * n * (k + 1)), F(8, n * (k + 1))))
        team = team_optimal(n, n, k, costs)
        if not team.null:
            nonnull += 1
            assert team.cost < 2, (n, k, costs, team.cost)
    assert nonnull > 700


def test_structured_team_designs_meet_the_floor():
    # For every n, k and four cost orders the design passes a fresh flow
    # and costs exactly the capped joint floor.  Cross links cheap take
    # the all-cross build; intra links cheap the fewest cross links,
    # k + 1, where n and k even add one vertical to the build at k; with
    # min(c12, c21) between (c1 + c2)/2 and c1 + c2 n and k even take
    # k + 2; at min(c12, c21) = c1 + c2 the tie goes to k + 1.
    for n in range(4, 17):
        for k in range(1, n):
            u = F(1, 2 * n * (k + 1))
            for c1, c2, c12, c21 in ((3, 3, 1, 2), (1, 1, 3, 3), (1, 2, 2, 3), (1, 1, 3, 2)):
                costs = CostProfile(c1 * u, c2 * u, c12 * u, c21 * u, F(1, 2))
                g, cost = _team_design(n, n, k, costs)
                assert cost == joint_floor_by_scan(n, n, k, costs)[0], (n, k, costs)
                assert edge_connectivity_pairs(g.n, g.edge_pairs()) == k + 1, (n, k, costs)
                assert len(g.edges) == n * (k + 1) + (c12 == 3 and n % 2 == k % 2 == 0), (n, k, costs)
    # The designs agree with exact team search where it reaches.
    rng = random.Random(59)
    nonnull = 0
    for trial in range(40):
        n = 4 if trial % 2 else 5
        k = rng.randint(1, n - 1)
        costs = random_costs(rng, max_den=40, scale=SWEEP_SCALE)
        graph, cost = _solve_team_exact(n, n, k, costs, DEFAULT_SEARCH_CAP)
        null = null_spe_check(n, n, k, costs) is not None
        assert (null, None if null else _team_design(n, n, k, costs)[1]) == (graph is None, cost), (n, k, costs)
        nonnull += graph is not None
    assert nonnull >= 20


def test_exact_team_search_meets_the_joint_floor():
    # On every shape of up to 8 nodes and every k, the team optimum costs
    # exactly _joint_cost_floor, under both draw rules: scaled test draws,
    # and near-threshold draws of 1/randint(2, 3n(k+1)) per link.  A draw
    # is null exactly when the floor is None or reaches 2.
    rng = random.Random(31)
    nonnull = 0
    for n in range(3, 9):
        for n1 in range(1, n):
            n2 = n - n1
            for k in range(1, n - 1):
                ca = F(2, 2 * k + 1)
                for _ in range(2):
                    scaled = replace(random_costs(rng, max_den=60, scale=SWEEP_SCALE), ca=ca)
                    near = CostProfile(*(F(1, rng.randint(2, 3 * n * (k + 1))) for _ in range(4)), ca)
                    for costs in (scaled, near):
                        floor = _joint_cost_floor(n1, n2, k, costs)[0]
                        want = None if floor is None or floor >= 2 else floor
                        assert team_optimal(n1, n2, k, costs).cost == want, (n1, n2, k, costs)
                        nonnull += want is not None
    assert nonnull >= 350, nonnull


@pytest.mark.parametrize("k", [3, 4])
def test_a_large_team_design_runs_no_flow(monkeypatch, k):
    calls = count_flows(monkeypatch)
    costs = costs_of("1/3010", "1/3010", "1/1505", "1/301")
    team = team_optimal(301, 301, k, costs)
    assert (team.null, team.cost) == (False, joint_floor_by_scan(301, 301, k, costs)[0])
    assert link_connectivity(team.graph).p == k
    assert calls == []


def test_poa_is_one_for_uniform_symmetric_costs():
    c = F(1, 20)
    eff = efficiency(4, 4, costs_of(c, c, c, c, "2/3"))
    assert eff.poa == 1
    assert eff.c_spe == eff.c_co == 8 * c


def test_poa_family_values():
    for n1 in (3, 4, 5):
        costs = CostProfile(F(1, n1**3), F(1, n1**3), F(1, n1**2), F(1, 3 * n1), F(2, 3))
        eff = efficiency(n1, 2, costs, mode="exact")
        assert eff.poa == F(2 * n1 * n1, 9)
        assert eff.lower_bound <= eff.c_co
        assert eff.upper_bound is None or eff.c_co <= eff.upper_bound


def test_poa_at_least_one_on_random_small_instances():
    rng = random.Random(31)
    seen = 0
    while seen < 10:
        costs = random_costs(rng)
        n1, n2 = rng.choice([(2, 2), (3, 2), (2, 3)])
        eff = efficiency(n1, n2, costs, mode="exact")
        if eff.poa is None:
            continue
        seen += 1
        assert eff.poa >= 1


def test_pos_infinite_in_prop4_regime():
    costs = costs_of("1/20", "1/20", "1/10", "1/10", "2/3")
    sen = efficiency(3, 3, costs)
    assert sen.pos is None
    assert sen.c2_first == 0
    assert sen.c2_second == 6 * F(1, 10)


def test_pos_at_least_one():
    rng = random.Random(37)
    seen = 0
    while seen < 8:
        costs = random_costs(rng)
        sen = efficiency(2, 2, costs, mode="exact")
        if sen.c2_second == 0 and sen.c2_first == 0:
            assert sen.pos == 1
            continue
        seen += 1
        assert sen.pos is None or sen.pos >= 1


def test_pos_of_a_null_game_charges_operator2_nothing():
    # Nobody builds in a null game, whichever operator moves first.
    sen = efficiency(2, 2, costs_of("1/10", "1/10", "1/8", "1/8", "1/5"))
    assert (sen.c2_second, sen.c2_first, sen.pos, sen.pos is None) == (0, 0, 1, False)


def test_pos_symmetric_first_cost_matches_operator1():
    costs = costs_of("1/20", "1/20", "1/10", "1/10", "2/3")
    sol, _ = solve_game(3, 3, costs)
    sen = efficiency(3, 3, costs)
    assert sen.c2_first == 1 - sol.u1


def test_structured_solve_raises_the_domain_error_for_k_at_least_n1():
    # Exact search solves 3+3 non-null at k = 3 and k = 4, so a null answer
    # would be wrong: the structured route's one domain error names them.
    # k = 5 is settled by the null test first.
    def costs_at(k):
        return costs_of("1/100", "1/100", "1/50", "1/50", f"1/{k}")

    assert not structured_solve(3, 3, costs_at(2))[0].is_null
    assert null_spe_check(3, 3, 5, costs_at(5)) == "degree-bound"
    assert structured_solve(3, 3, costs_at(5))[0].is_null
    for k, u1 in ((3, F(49, 50)), (4, F(97, 100))):
        exact = solve_spe_exact(3, 3, costs_at(k))
        assert (exact.is_null, exact.u1) == (False, u1)
        with pytest.raises(ConstructionError, match="1 <= k < n1"):
            structured_solve(3, 3, costs_at(k))


def test_structured_solve_is_null_outside_stage_1():
    # k = 2 passes the null test, but no operator-1 level has a floor below 1.
    costs = costs_of("1/10", "1/10", "2/5", "2/5")  # cA = 1/2, so k = 2
    assert null_spe_check(3, 3, 2, costs) is None
    sol, built = structured_solve(3, 3, costs)
    assert (sol.k, sol.is_null, sol.method, built) == (2, True, "structured", None)


def test_solve_game_dispatch():
    from layersec.game import SearchCapExceeded

    sol, built = solve_game(9, 9, CASE_A)
    assert sol.method == "structured" and built is not None
    # auto routes by size only: exact search up to n1 + n2 = 9, else the
    # structured route in any cost order (here c1 > c12 and c2 > c21)
    prop4 = costs_of("1/20", "1/20", "1/10", "1/10", "2/3")
    assert solve_game(3, 3, prop4)[0].method == "exact"
    assert solve_game(3, 3, prop4, mode="structured")[0].method == "structured"
    for call in (solve_game, efficiency):
        with pytest.raises(MetricsError, match="unknown mode 'Exact'"):
            call(3, 3, prop4, mode="Exact")
    sol, built = solve_game(5, 5, costs_of("1/20", "1/20", "1/40", "1/40", "1/3"))
    assert sol.method == "structured" and not sol.is_null
    sol, built = solve_game(4, 3, costs_of("0.09", "0.09", "0.09", "0.09", "2/5"))
    assert sol.method == "exact" and built is None
    with pytest.raises(ConstructionError, match=r"n1 == n2 and 1 <= k < n1, got n1 = 9, n2 = 8, k = 3"):
        solve_game(9, 8, CASE_A)  # asymmetric and too large for exact search
    # Outside the structured domain, a game the null test settles is null,
    # on whichever route its size takes.
    for n1, n2, costs, method in ((5, 5, costs_of("1/20", "1/20", "1/10", "1/10", "1/9"), "structured"),  # k = 9: degree-bound
                                  (5, 4, costs_of("1/2", "1/2", "1/2", "1/2", "1/3"), "exact")):  # cost-bound
        assert null_spe_check(n1, n2, attack_budget(costs.ca), costs)
        sol, built = solve_game(n1, n2, costs)
        assert (sol.is_null, sol.method, built) == (True, method, None)
    with pytest.raises(SearchCapExceeded):
        solve_game(9, 9, CASE_A, mode="exact", cap=20_000)  # forced exact burns its budget


@pytest.mark.parametrize("n1", range(1, 9))
def test_nine_node_games_take_exact_search(n1):
    # The test-draw rule, cA = 2/(2k + 1) with k in 1..4: no draw hits the
    # cap, and each reported class is a k-resistant profile whose payoffs
    # re-evaluate to the reported ones.
    n2 = 9 - n1
    rng = random.Random(100 * n1 + n2)
    ks = [rng.randint(1, 4) for _ in range(3)]
    non_null = 0
    for k in ks:
        costs = replace(random_costs(rng, max_den=60, scale=SWEEP_SCALE), ca=F(2, 2 * k + 1))
        sol, built = solve_game(n1, n2, costs)
        assert (sol.method, sol.k, built) == ("exact", k, None), costs
        if sol.is_null:
            continue
        non_null += 1
        for profile, u2 in zip(sol.profiles, sol.u2_values, strict=True):
            outcome = utilities(profile, costs, n1, n2)
            assert (outcome.u1, outcome.u2, outcome.uA) == (sol.u1, u2, sol.uA), costs
            assert lambda_by_bipartition(n1 + n2, profile.built_pairs()) > k, costs
    assert non_null > 0


def test_bounds_sandwich_exact_team():
    # the lower bound is the capped joint floor; the upper bound prices two
    # Harary rings plus k + 1 bridges
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
