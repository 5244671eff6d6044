"""Every public entry point, called with junk in one value argument.

Each function in the package's exports, and ``CostProfile``, is called
with valid arguments on at most 3 + 3 nodes, then with one value argument
replaced by junk: a float, a bool, a str, None, -1, 0, something that is
not a collection of pairs, and 10**30 for k, caps and resistance levels.
Graph, profile and cost arguments stay valid.  A call returns or raises
one of the package's errors, never a raw Python error.
"""

import inspect
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import layersec
from layersec import (
    ConstructionError,
    CostProfile,
    GameError,
    GraphError,
    MetricsError,
    Owner,
    SearchCapExceeded,
    StrategyProfile,
    from_pairs,
)

OP1, OP2 = Owner.OPERATOR1, Owner.OPERATOR2
PACKAGE_ERRORS = (ConstructionError, GameError, GraphError, MetricsError, SearchCapExceeded)
COSTS = CostProfile(F(1, 30), F(1, 45), F(1, 20), F(2, 45), F(1, 2))
SQUARE = from_pairs(2, 2, [(0, 1, OP1), (1, 3, OP1), (2, 3, OP2), (0, 2, OP2)])
TRIPLES = [(0, 1, OP1), (0, 2, OP1), (2, 3, OP2)]

# Each exported function (and CostProfile) with valid arguments, as keywords.
VALID = {
    "CostProfile": dict(c1=F(1, 30), c2=F(1, 45), c12=F(1, 20), c21=F(2, 45), ca=F(1, 3)),
    "adversary_best_response": dict(g=SQUARE, ca=F(1, 2)),
    "attack_budget": dict(ca=F(1, 3)),
    "bruteforce_spe_oracle": dict(n1=2, n2=2, costs=COSTS),
    "cost_bounds": dict(n1=3, n2=3, k=1, costs=COSTS),
    "efficiency": dict(n1=2, n2=2, costs=COSTS, mode="auto", cap=2**20),
    "from_pairs": dict(n1=2, n2=2, owned_pairs=TRIPLES),
    "is_connected": dict(g=SQUARE),
    "is_p_resistant": dict(g=SQUARE, p=1),
    "link_connectivity": dict(g=SQUARE),
    "min_edge_cut": dict(g=SQUARE),
    "null_spe_check": dict(n1=3, n2=3, k=1, costs=COSTS),
    "operator2_best_response_exact": dict(g1=from_pairs(2, 2, TRIPLES[:2]), costs=COSTS, k=1, cap=2**20),
    "remove_edges": dict(g=SQUARE, cut=[(1, 0), (2, 3)]),
    "solve_game": dict(n1=3, n2=3, costs=COSTS, mode="exact", cap=2**20),
    "solve_spe_exact": dict(n1=3, n2=2, costs=COSTS, cap=2**20),
    "stage1_allocate": dict(n1=3, k=1, costs=COSTS),
    "structured_solve": dict(n1=3, n2=3, costs=COSTS),
    "team_optimal": dict(n1=3, n2=3, k=1, costs=COSTS),
    "utilities": dict(profile=StrategyProfile(SQUARE, frozenset({(0, 1)})), costs=COSTS, n1=2, n2=2),
}
KEPT = {"g", "g1", "costs", "profile"}  # graph, profile and cost arguments stay valid
HUGE = 10**30  # tried only for k, caps and resistance levels
NOT_PAIRS = st.sampled_from([(0,), [5], [(0,)], [(0, 1, 2, 3)], [("0", 1)], {0: 1}])
JUNK = st.one_of(
    st.floats(),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.sampled_from([-1, 0, HUGE]),
    NOT_PAIRS,
)
# Junk inside the links of a collection of links.
IN_LINKS = {
    "owned_pairs": lambda x: [TRIPLES[0], (x, 3, OP2), (2, 3, x)],
    "cut": lambda x: [(1, 0), (x, 3)],
}


def test_valid_arguments_cover_every_exported_function():
    functions = {name for name in layersec.__all__ if inspect.isfunction(getattr(layersec, name))}
    assert set(VALID) == functions | {"CostProfile"}
    for name, args in VALID.items():
        getattr(layersec, name)(**args)  # raises nothing


@settings(derandomize=True, deadline=None, max_examples=200)
@given(JUNK)
def test_junk_in_one_argument_returns_or_raises_a_package_error(junk):
    # Every value argument of every entry point in turn takes the junk,
    # and a collection of links also takes it inside a link.
    for name, valid in VALID.items():
        for arg in [arg for arg in valid if arg not in KEPT]:
            if junk == HUGE and arg not in ("k", "cap", "p"):
                continue
            for value in (junk, IN_LINKS[arg](junk)) if arg in IN_LINKS else (junk,):
                try:
                    result = getattr(layersec, name)(**{**valid, arg: value})
                except PACKAGE_ERRORS:
                    continue
                if name == "from_pairs":
                    assert all(type(x) is int for pairs in result.links for pair in pairs for x in pair)
