"""Equilibrium efficiency: coordinated benchmark, cost bounds, PoA, PoS.

The coordinated benchmark prices every cross link at the cheaper of the
two operators' cross costs, since a joint designer would always hand a
cross link to whichever side builds it more cheaply.  On small instances
(n1 + n2 <= 7) the benchmark is an exact minimum-cost search; on larger
symmetric instances it is the cheaper of two certified constructions
(an all-cross band, or one Harary ring per layer plus k + 1 bridges),
reported together with the analytic lower bound and an exactness flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connectivity import edge_connectivity_pairs
from .construction import build_harary, stage1_allocate, structured_solve
from .game import (
    DEFAULT_SEARCH_CAP,
    CostProfile,
    EdgeUniverse,
    _Budget,
    _place,
    _profile_from_masks,
    _scale,
    attack_budget,
    null_spe_check,
    solve_spe_exact,
)
from .graph import LayeredGraph, Owner, from_pairs


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class TeamResult:
    """Coordinated (team-optimal) design: graph, total cost, exactness."""

    graph: LayeredGraph | None
    cost: Fraction | None
    exact: bool
    null: bool


@dataclass(frozen=True)
class EfficiencyReport:
    c_spe: Fraction | None
    c_co: Fraction | None
    poa: Fraction | None
    lower_bound: Fraction
    upper_bound: Fraction | None
    spe_null: bool
    co_exact: bool


@dataclass(frozen=True)
class SeniorityReport:
    c2_second: Fraction
    c2_first: Fraction
    pos: Fraction | None
    infinite: bool


@dataclass(frozen=True)
class SweepEntry:
    k: int
    null: bool
    reason: str | None
    op1_intra: int
    op1_cross: int
    op2_intra: int
    op2_cross: int
    u1: Fraction | None
    u2: Fraction | None


def cost_bounds(n1: int, n2: int, k: int, costs: CostProfile):
    """Analytic (lower, upper) bounds on the coordinated build cost.

    The lower bound prices the k + 1 mandatory cross links at the cheaper
    cross cost and every remaining link at min(c1, c2); it is valid when
    intra links are no pricier than cross links (min(c1, c2) <=
    min(c12, c21)), the framework's standing assumption.  The upper bound
    (two Harary rings plus k + 1 bridges) is only defined when both
    layers have at least k + 1 nodes; None otherwise.
    """
    cmin = min(costs.c12, costs.c21)
    lower = (k + 1) * cmin + (((n1 + n2 - 2) * (k + 1) + 1) // 2) * min(
        costs.c1, costs.c2
    )
    upper = None
    if n1 >= k + 1 and n2 >= k + 1:
        upper = (
            (k + 1) * cmin
            + ((n1 * (k + 1) + 1) // 2) * costs.c1
            + ((n2 * (k + 1) + 1) // 2) * costs.c2
        )
    return lower, upper


def _solve_team_exact(n1, n2, k, costs, cap):
    """(graph, cost) of the cheapest k-resistant design costing less than
    2, or (None, None)."""
    uni = EdgeUniverse(n1, n2)
    L, c1, c2, c12, c21 = _scale(costs)
    cmin = min(c12, c21)
    budget = _Budget(cap)
    p1, p2, px = uni.intra1_bits, uni.intra2_bits, uni.cross_bits
    need_total = ((n1 + n2) * (k + 1) + 1) // 2

    lattice = []
    for a in range(len(p1) + 1):
        for b in range(len(p2) + 1):
            for x in range(len(px) + 1):
                if x < k + 1 or a + b + x < need_total:
                    continue
                if 2 * a + x < n1 * (k + 1) or 2 * b + x < n2 * (k + 1):
                    continue
                cost = a * c1 + b * c2 + x * cmin
                if cost < 2 * L:
                    lattice.append((cost, a + b + x, a, b, x))
    lattice.sort()

    for cost, _, a, b, x in lattice:
        mask = _place(uni, k, 0, [(p1, a), (p2, b), (px, x)], budget)
        if mask is not None:
            # Cross links go to the cheaper cross builder.
            op1_pool = uni.intra1_mask | (uni.cross_mask if c12 <= c21 else 0)
            graph = _profile_from_masks(uni, mask & op1_pool, mask & ~op1_pool).to_graph(n1, n2)
            return graph, Fraction(cost, L)
    return None, None


def _team_structured(n1, n2, k, costs):
    """Cheapest certified large-instance construction (symmetric only)."""
    if n1 != n2 or not 1 <= k < n1:
        raise MetricsError("structured benchmark needs n1 == n2 and 1 <= k < n1")
    cmin = min(costs.c12, costs.c21)
    cross_owner = Owner.OPERATOR1 if costs.c12 <= costs.c21 else Owner.OPERATOR2
    candidates = []

    band = [(i, n1 + (i + c) % n1, cross_owner) for i in range(n1) for c in range(k + 1)]
    candidates.append((Fraction(n1 * (k + 1)) * cmin, band))

    if k + 1 < n1:
        ring = build_harary(n1, k + 1)
        triples = [(u, v, Owner.OPERATOR1) for u, v in ring]
        triples += [(u + n1, v + n1, Owner.OPERATOR2) for u, v in ring]
        triples += [(i, n1 + i, cross_owner) for i in range(k + 1)]
        cost = (
            ((n1 * (k + 1) + 1) // 2) * (costs.c1 + costs.c2) + (k + 1) * cmin
        )
        candidates.append((cost, triples))

    best = None
    for cost, triples in sorted(candidates, key=lambda t: t[0]):
        pairs = [(u, v) for u, v, _ in triples]
        if edge_connectivity_pairs(n1 + n2, pairs, cap_at=k + 1) >= k + 1:
            best = (cost, triples)
            break
    if best is None:
        raise MetricsError("no certified structured benchmark construction")
    cost, triples = best
    return from_pairs(n1, n2, triples), cost


def team_optimal(
    n1: int, n2: int, k: int, costs: CostProfile, cap: int = DEFAULT_SEARCH_CAP
) -> TeamResult:
    """Minimum-cost k-resistant design when the operators coordinate.

    Null when no k-resistant design costs less than 2: ``null_spe_check``
    says so, or the exact search finds none.  Otherwise exact for
    n1 + n2 <= 7; for larger symmetric instances with 1 <= k < n1 a
    certified upper-bound construction, flagged exact only when it meets
    ``cost_bounds``' lower bound and that bound holds (min(c1, c2) <=
    min(c12, c21)).
    """
    if null_spe_check(n1, n2, k, costs)[0]:
        return TeamResult(None, None, exact=True, null=True)
    if n1 + n2 <= 7:
        graph, cost = _solve_team_exact(n1, n2, k, costs, cap)
        return TeamResult(graph, cost, exact=True, null=graph is None)
    graph, cost = _team_structured(n1, n2, k, costs)
    lower, _ = cost_bounds(n1, n2, k, costs)
    bound_holds = min(costs.c1, costs.c2) <= min(costs.c12, costs.c21)
    return TeamResult(graph, cost, exact=bound_holds and cost == lower, null=False)


def solve_game(
    n1: int,
    n2: int,
    costs: CostProfile,
    mode: str = "auto",
    cap: int = DEFAULT_SEARCH_CAP,
):
    """Dispatch to the structured or exact equilibrium solver.

    Returns (SpeSolution, BuiltNetwork or None).  Auto mode prefers the
    structured route on symmetric instances satisfying its cost-ordering
    precondition, falls back to exact search for n1 + n2 <= 7, and
    raises otherwise.
    """
    k = attack_budget(costs.ca)
    structured_ok = (
        n1 == n2 and 1 <= k < n1 and costs.c1 <= costs.c12 and costs.c2 <= costs.c21
    )
    if mode == "structured" or (mode == "auto" and structured_ok):
        if not structured_ok:
            raise MetricsError("instance violates structured-solver preconditions")
        return structured_solve(n1, n2, costs)
    if mode == "exact" or (mode == "auto" and n1 + n2 <= 7):
        if n1 + n2 > 7 and mode != "exact":
            raise MetricsError("instance too large for exact search")
        return solve_spe_exact(n1, n2, costs, cap=cap), None
    raise MetricsError("no applicable solver for this instance")


def price_of_anarchy(
    n1: int,
    n2: int,
    costs: CostProfile,
    mode: str = "auto",
    cap: int = DEFAULT_SEARCH_CAP,
    *,
    solution=None,
) -> EfficiencyReport:
    """Worst equilibrium build cost over the coordinated optimum.

    ``solution`` is the (n1, n2) equilibrium if the caller already has it.
    """
    k = attack_budget(costs.ca)
    if solution is None:
        solution, _ = solve_game(n1, n2, costs, mode=mode, cap=cap)
    lower, upper = cost_bounds(n1, n2, k, costs)
    team = team_optimal(n1, n2, k, costs, cap=cap)
    c_spe = None
    if not solution.is_null:
        c_spe = (1 - solution.u1) + max(1 - u2 for u2 in solution.u2_values)
    return EfficiencyReport(
        c_spe=c_spe,
        c_co=team.cost,
        poa=None if c_spe is None or team.null else c_spe / team.cost,
        lower_bound=lower,
        upper_bound=upper,
        spe_null=solution.is_null,
        co_exact=team.exact,
    )


def price_of_seniority(
    n1: int,
    n2: int,
    costs: CostProfile,
    mode: str = "auto",
    cap: int = DEFAULT_SEARCH_CAP,
    *,
    solution=None,
) -> SeniorityReport:
    """Operator 2's cost penalty for moving second instead of first.

    The swapped ordering relabels the layers: the new first mover keeps
    operator 2's admissible pools and unit costs.  ``solution`` is the
    (n1, n2) equilibrium if the caller already has it; the swapped game
    is always solved here.
    """
    if solution is None:
        solution, _ = solve_game(n1, n2, costs, mode=mode, cap=cap)
    swapped = CostProfile(
        c1=costs.c2, c2=costs.c1, c12=costs.c21, c21=costs.c12, ca=costs.ca
    )
    solution_swapped, _ = solve_game(n2, n1, swapped, mode=mode, cap=cap)
    c2_second = max(1 - u2 for u2 in solution.u2_values)
    c2_first = 1 - solution_swapped.u1
    if c2_first == 0:
        if c2_second == 0:
            return SeniorityReport(c2_second, c2_first, Fraction(1), False)
        return SeniorityReport(c2_second, c2_first, None, True)
    return SeniorityReport(c2_second, c2_first, c2_second / c2_first, False)


def threat_sweep(n1: int, costs: CostProfile, ks) -> list:
    """Equilibrium link counts and utilities across attack budgets.

    Symmetric instances only; ``costs.ca`` is ignored (each entry fixes k
    directly).  k = 0 falls outside the (k+1)-regular family: there the
    cheapest design is operator 2's spanning tree (n1 cross links plus
    n1 - 1 intra links), recorded when it costs less than 1.  A k >= n1
    that no null condition settles falls outside the builder's domain and
    gives a null entry with reason "k >= n1".
    """
    entries = []
    for k in ks:
        if k < 0:
            raise MetricsError("attack budget must be non-negative")
        if k == 0:
            tree_cost = n1 * costs.c21 + (n1 - 1) * costs.c2
            if tree_cost < 1:
                entries.append(
                    SweepEntry(0, False, "spanning-tree", 0, 0, n1 - 1, n1, Fraction(1), 1 - tree_cost)
                )
            else:
                entries.append(
                    SweepEntry(0, True, "outside modeled regime", 0, 0, 0, 0, Fraction(0), Fraction(0))
                )
            continue
        is_null, reason = null_spe_check(n1, n1, k, costs)
        if not is_null and k >= n1:
            is_null, reason = True, "k >= n1"
        plan = None
        if not is_null:
            plan = stage1_allocate(n1, k, costs)
            if not plan.feasible:
                is_null, reason = True, "stage1-infeasible"
        if is_null:
            entries.append(SweepEntry(k, True, reason, 0, 0, 0, 0, Fraction(0), Fraction(0)))
        else:
            entries.append(
                SweepEntry(
                    k,
                    False,
                    None,
                    plan.e11,
                    plan.e12,
                    plan.op2_intra,
                    plan.op2_cross,
                    1 - plan.c1_total,
                    1 - plan.c2_total,
                )
            )
    return entries
