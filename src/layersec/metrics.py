"""Equilibrium efficiency: coordinated benchmark, cost bounds, PoA, PoS.

The coordinated benchmark prices every cross link at the cheaper of the
two operators' cross costs, since a joint designer would always hand a
cross link to whichever side builds it more cheaply.  One rule prices it,
the capped joint floor ``game._joint_cost_floor``: it is the null test,
``cost_bounds``' lower bound and the large-instance design.  Small
instances (n1 + n2 <= EXACT_MAX_NODES) take exact search.  A larger
symmetric one takes the floor's argmin of x cross links, built by
``construction._team_design`` with the realizer of both networks and
certified by its cycle and arc lemmas with no flow; it costs the floor,
so it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construction import _team_design, stage1_allocate, structured_solve
from .game import (
    DEFAULT_SEARCH_CAP,
    CostProfile,
    _joint_cost_floor,
    _solve_team_exact,
    attack_budget,
    null_spe_check,
    solve_spe_exact,
)
from .graph import LayeredGraph


# The largest game, in nodes, that ``solve_game`` and ``team_optimal`` send to exact search.
EXACT_MAX_NODES = 9
# The solver routes ``solve_game`` accepts: a scenario's ``mode`` and ``solve --mode``.
MODES = ("auto", "exact", "structured")


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class TeamResult:
    """Coordinated (team-optimal) design and its total cost; None for both when null."""

    graph: LayeredGraph | None
    cost: Fraction | None

    @property
    def null(self) -> bool:
        return self.graph is None


@dataclass(frozen=True)
class EfficiencyReport:
    c_spe: Fraction | None
    c_co: Fraction | None
    poa: Fraction | None
    lower_bound: Fraction | None
    upper_bound: Fraction | None
    spe_null: bool


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
    """(lower, upper) bounds on the coordinated build cost.

    The lower bound is the capped joint floor ``game._joint_cost_floor``,
    valid in any cost order; None when no node can reach degree k + 1.
    The upper bound (two Harary rings plus k + 1 bridges) is only defined
    when both layers have at least k + 1 nodes; None otherwise.
    """
    upper = None
    if n1 >= k + 1 and n2 >= k + 1:
        upper = (
            (k + 1) * min(costs.c12, costs.c21)
            + ((n1 * (k + 1) + 1) // 2) * costs.c1
            + ((n2 * (k + 1) + 1) // 2) * costs.c2
        )
    return _joint_cost_floor(n1, n2, k, costs)[0], upper


def team_optimal(
    n1: int, n2: int, k: int, costs: CostProfile, cap: int = DEFAULT_SEARCH_CAP
) -> TeamResult:
    """Minimum-cost k-resistant design when the operators coordinate.

    Null when no k-resistant design costs less than 2: ``null_spe_check``
    says so, or the exact search finds none.  Otherwise exact search for
    n1 + n2 <= EXACT_MAX_NODES; for larger instances in the structured
    domain the certified design of ``construction._team_design``, which
    costs the capped joint floor and so is exact.
    """
    if null_spe_check(n1, n2, k, costs)[0]:
        return TeamResult(None, None)
    if n1 + n2 <= EXACT_MAX_NODES:
        return TeamResult(*_solve_team_exact(n1, n2, k, costs, cap))
    return TeamResult(*_team_design(n1, n2, k, costs))


def solve_game(
    n1: int,
    n2: int,
    costs: CostProfile,
    mode: str = "auto",
    cap: int = DEFAULT_SEARCH_CAP,
):
    """Dispatch to the structured or exact equilibrium solver.

    Returns (SpeSolution, BuiltNetwork or None).  ``mode`` is auto, exact
    or structured; auto routes by size only: exact search for
    n1 + n2 <= EXACT_MAX_NODES, otherwise
    ``construction.structured_solve``, in any cost order.
    """
    if mode not in MODES:
        raise MetricsError(f"unknown mode {mode!r}: expected auto, exact or structured")
    if mode == "exact" or (mode == "auto" and n1 + n2 <= EXACT_MAX_NODES):
        return solve_spe_exact(n1, n2, costs, cap=cap), None
    return structured_solve(n1, n2, costs)


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
    c2_second = Fraction(0) if solution.is_null else max(1 - u2 for u2 in solution.u2_values)
    c2_first = Fraction(0) if solution_swapped.is_null else 1 - solution_swapped.u1
    if c2_first == 0:
        if c2_second == 0:
            return SeniorityReport(c2_second, c2_first, Fraction(1), False)
        return SeniorityReport(c2_second, c2_first, None, True)
    return SeniorityReport(c2_second, c2_first, c2_second / c2_first, False)


def threat_sweep(n1: int, costs: CostProfile, ks) -> list:
    """Equilibrium link counts and utilities across attack budgets.

    Symmetric instances only; ``costs.ca`` is ignored (each entry fixes k
    directly).  k = 0 falls outside the stage-1 family: there the
    cheapest design is operator 2's spanning tree, x cross links plus
    2*n1 - 1 - x intra links for x = n1 or the all-cross x = 2*n1 - 1,
    ties to x = n1, recorded when it costs less than 1.  A k >= n1 that
    no null condition settles lies outside the structured domain, and
    ``stage1_allocate`` raises its ``ConstructionError``.
    """
    entries = []
    for k in ks:
        if k < 0:
            raise MetricsError("attack budget must be non-negative")
        if k == 0:
            tree_cost, x = min((x * costs.c21 + (2 * n1 - 1 - x) * costs.c2, x) for x in (n1, 2 * n1 - 1))
            if tree_cost < 1:
                entries.append(
                    SweepEntry(0, False, "spanning-tree", 0, 0, 2 * n1 - 1 - x, x, Fraction(1), 1 - tree_cost)
                )
            else:
                entries.append(
                    SweepEntry(0, True, "outside modeled regime", 0, 0, 0, 0, Fraction(0), Fraction(0))
                )
            continue
        is_null, reason = null_spe_check(n1, n1, k, costs)
        plan = None if is_null else stage1_allocate(n1, k, costs)
        if plan is None:
            entries.append(SweepEntry(k, True, reason or "stage1-infeasible", 0, 0, 0, 0, Fraction(0), Fraction(0)))
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
