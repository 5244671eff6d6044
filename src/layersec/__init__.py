"""Secure two-layer network formation: game solvers, builders, metrics."""

from types import ModuleType as _Module

from .connectivity import (
    LinkConnectivity,
    is_connected,
    is_p_resistant,
    link_connectivity,
    min_edge_cut,
)
from .construction import (
    BuiltNetwork,
    ConstructionError,
    stage1_allocate,
    structured_solve,
)
from .game import (
    CostProfile,
    GameError,
    GameOutcome,
    SearchCapExceeded,
    SpeSolution,
    StrategyProfile,
    adversary_best_response,
    attack_budget,
    bruteforce_spe_oracle,
    null_spe_check,
    operator2_best_response_exact,
    solve_spe_exact,
    utilities,
)
from .graph import (
    Edge,
    EdgeClass,
    GraphError,
    LayeredGraph,
    Owner,
    from_pairs,
    remove_edges,
)
from .metrics import (
    EfficiencyReport,
    MetricsError,
    TeamResult,
    cost_bounds,
    efficiency,
    solve_game,
    team_optimal,
)

__all__ = sorted(n for n, value in globals().items() if not n.startswith("_") and not isinstance(value, _Module))
__version__ = "0.1.0"
