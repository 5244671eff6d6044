"""Equilibrium efficiency: coordinated benchmark, cost bounds, PoA, PoS.

``efficiency`` reports one game against its coordinated benchmark: the
cost bounds, the team optimum, the price of anarchy (equilibrium build
cost over the team optimum) and the price of seniority (operator 2's
cost moving second over its cost moving first).

The coordinated benchmark prices every cross link at the cheaper of the
two operators' cross costs, since a joint designer would always hand a
cross link to whichever side builds it more cheaply.  The capped joint
floor ``game._joint_cost_floor`` is the null test and ``cost_bounds``'
lower bound, and for k >= 1 the team optimum's cost; at k = 0 the
optimum is a minimum spanning tree.  ``team_optimal`` takes its link
counts in closed form and builds one network at them: a tree at k = 0,
else the first that ``game._place`` finds up to EXACT_MAX_NODES nodes
or the structured realizer's, certified by its cycle and arc lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construction import _check_domain, _realize, _spanning_tree, structured_solve
from .game import (
    DEFAULT_SEARCH_CAP,
    CostProfile,
    _check_int,
    _check_layers,
    _joint_cost_floor,
    _team_network,
    attack_budget,
    null_spe_check,
    solve_spe_exact,
)
from .graph import LayeredGraph


# The largest game, in nodes, that ``solve_game`` and ``team_optimal`` send to exact search.
EXACT_MAX_NODES = 9
# The solver routes ``solve_game`` accepts, as a scenario's ``mode`` names them.
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
    """``efficiency``'s report.  c_spe and poa are None for a null game,
    c_co and poa for a null team optimum; pos is None when it is infinite
    (operator 2 pays nothing moving first, something moving second)."""

    k: int
    lower_bound: Fraction | None
    upper_bound: Fraction | None
    c_co: Fraction | None
    c_spe: Fraction | None
    poa: Fraction | None
    c2_second: Fraction
    c2_first: Fraction
    pos: Fraction | None


def cost_bounds(n1: int, n2: int, k: int, costs: CostProfile):
    """(lower, upper) bounds on the coordinated build cost.

    The lower bound is the capped joint floor ``game._joint_cost_floor``,
    valid in any cost order; None when no node can reach degree k + 1.
    The upper bound (two Harary rings plus k + 1 bridges) is only defined
    when both layers have at least k + 1 nodes; None otherwise.  n1, n2
    must be ints >= 1, k an int >= 0.
    """
    _check_layers(n1, n2, MetricsError)
    _check_int(k, "k", 0, MetricsError)
    upper = None
    if n1 >= k + 1 and n2 >= k + 1:
        upper = (
            (k + 1) * min(costs.c12, costs.c21)
            + ((n1 * (k + 1) + 1) // 2) * costs.c1
            + ((n2 * (k + 1) + 1) // 2) * costs.c2
        )
    return _joint_cost_floor(n1, n2, k, costs)[0], upper


def team_optimal(n1: int, n2: int, k: int, costs: CostProfile) -> TeamResult:
    """Minimum-cost k-resistant design when the operators coordinate.

    Null when ``null_spe_check`` says so or its cost reaches 2.  The link
    counts are closed form: for k >= 1, x cross links at the capped joint
    floor's argmin and ceil(max(0, ni(k+1) - x)/2) intra links in layer
    i; at k = 0 a minimum spanning tree (Kruskal over the three classes),
    built by ``construction._spanning_tree``.  Else the network is
    ``game._team_network``'s up to EXACT_MAX_NODES nodes, or
    ``construction._realize``'s in the structured domain.  Layer sizes
    must be ints >= 1 and k an int >= 0.
    """
    _check_layers(n1, n2, MetricsError)
    _check_int(k, "k", 0, MetricsError)
    if null_spe_check(n1, n2, k, costs):
        return TeamResult(None, None)
    cmin = min(costs.c12, costs.c21)
    if k:
        x = _joint_cost_floor(n1, n2, k, costs)[1]
        a1, a2 = ((max(0, n * (k + 1) - x) + 1) // 2 for n in (n1, n2))
    else:
        a1, a2 = (n - 1 if c < cmin else 0 for n, c in ((n1, costs.c1), (n2, costs.c2)))
        x = n1 + n2 - 1 - a1 - a2
    cost = a1 * costs.c1 + a2 * costs.c2 + x * cmin
    if cost >= 2:
        return TeamResult(None, None)
    op1_builds = costs.c12 <= costs.c21  # the cheaper cross builder owns every cross link
    if not k:
        return TeamResult(_spanning_tree(n1, n2, a1, a2, op1_builds), cost)
    if n1 + n2 <= EXACT_MAX_NODES:
        return TeamResult(_team_network(n1, n2, k, (a1, a2, x), op1_builds), cost)
    _check_domain(n1, n2, k)
    op1_cross = x if op1_builds else 0
    return TeamResult(_realize(n1, k, a1, op1_cross, x - op1_cross)[0], cost)


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
    ``construction.structured_solve``, in any cost order.  Layer sizes
    must be ints >= 1, and the cap an int >= 1.
    """
    _check_layers(n1, n2, MetricsError)
    _check_int(cap, "cap", 1, MetricsError)
    if mode not in MODES:
        raise MetricsError(f"unknown mode {mode!r}: expected auto, exact or structured")
    if mode == "exact" or (mode == "auto" and n1 + n2 <= EXACT_MAX_NODES):
        return solve_spe_exact(n1, n2, costs, cap=cap), None
    return structured_solve(n1, n2, costs)


def efficiency(
    n1: int, n2: int, costs: CostProfile, mode: str = "auto", cap: int = DEFAULT_SEARCH_CAP
) -> EfficiencyReport:
    """Bounds, team optimum, PoA and PoS of one game.

    Solves the game, then the coordinated optimum, then the game with the
    layers swapped: the new first mover keeps operator 2's admissible
    pools and unit costs.  Operator 2's worst equilibrium cost class
    prices both the equilibrium build (with operator 1's cost) and the
    second mover's cost; a null game charges nobody.
    """
    solution, _ = solve_game(n1, n2, costs, mode=mode, cap=cap)
    k = attack_budget(costs.ca)
    lower, upper = cost_bounds(n1, n2, k, costs)
    team = team_optimal(n1, n2, k, costs)
    swapped = CostProfile(c1=costs.c2, c2=costs.c1, c12=costs.c21, c21=costs.c12, ca=costs.ca)
    solution_swapped, _ = solve_game(n2, n1, swapped, mode=mode, cap=cap)
    c_spe = None
    c2_second = Fraction(0)
    if not solution.is_null:
        c2_second = max(1 - u2 for u2 in solution.u2_values)
        c_spe = (1 - solution.u1) + c2_second
    c2_first = Fraction(0) if solution_swapped.is_null else 1 - solution_swapped.u1
    if c2_first:
        pos = c2_second / c2_first
    else:
        pos = None if c2_second else Fraction(1)
    return EfficiencyReport(
        k=k,
        lower_bound=lower,
        upper_bound=upper,
        c_co=team.cost,
        c_spe=c_spe,
        poa=None if c_spe is None or team.null else c_spe / team.cost,
        c2_second=c2_second,
        c2_first=c2_first,
        pos=pos,
    )
