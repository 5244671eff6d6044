"""Secure two-layer network formation: game solvers, builders, metrics."""

from .connectivity import (
    LinkConnectivity,
    MinCut,
    is_connected,
    is_p_resistant,
    link_connectivity,
    min_edge_cut,
)
from .construction import (
    BuiltNetwork,
    ConstructionError,
    StageOnePlan,
    build_generalized,
    build_harary,
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
    add_edge,
    count_by,
    degree,
    new_graph,
    remove_edges,
)
from .metrics import (
    EfficiencyReport,
    SeniorityReport,
    TeamResult,
    cost_bounds,
    price_of_anarchy,
    price_of_seniority,
    solve_game,
    team_optimal,
    threat_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
