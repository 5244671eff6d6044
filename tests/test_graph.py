import ast
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import layersec
from helpers import add_edge, add_edge_fold
from layersec.connectivity import min_cut_pairs, min_edge_cut
from layersec.graph import (
    ADMISSIBLE,
    LINK_KINDS,
    Edge,
    EdgeClass,
    GraphError,
    Owner,
    degrees,
    from_pairs,
    remove_edges,
)

OP1, OP2 = Owner.OPERATOR1, Owner.OPERATOR2


def class_by_ends(n1, u, v):
    """The class of link (u, v): intra-1 with both ends in layer 1, cross with one, intra-2 with none."""
    return {2: EdgeClass.INTRA1, 1: EdgeClass.CROSS, 0: EdgeClass.INTRA2}[(u < n1) + (v < n1)]


def test_the_package_exports():
    # Every name added to or removed from the package's exports shows here;
    # the submodules are not exported.
    assert sorted(layersec.__all__) == [
        "BuiltNetwork",
        "ConstructionError",
        "CostProfile",
        "Edge",
        "EdgeClass",
        "EfficiencyReport",
        "GameError",
        "GameOutcome",
        "GraphError",
        "LayeredGraph",
        "LinkConnectivity",
        "MetricsError",
        "Owner",
        "SearchCapExceeded",
        "SpeSolution",
        "StrategyProfile",
        "TeamResult",
        "adversary_best_response",
        "attack_budget",
        "bruteforce_spe_oracle",
        "cost_bounds",
        "efficiency",
        "from_pairs",
        "is_connected",
        "is_p_resistant",
        "link_connectivity",
        "min_edge_cut",
        "null_spe_check",
        "operator2_best_response_exact",
        "remove_edges",
        "solve_game",
        "solve_spe_exact",
        "stage1_allocate",
        "structured_solve",
        "team_optimal",
        "utilities",
    ]


def test_new_graph_sizes():
    for n1, n2 in ((3, 3), (9, 9), (4, 3)):
        g = from_pairs(n1, n2, ())
        assert g.n == n1 + n2
        assert len(g.edges) == 0
        assert g == add_edge_fold(n1, n2, ())


@pytest.mark.parametrize("n1,n2", [(0, 3), (3, 0), (0, 0)])
def test_new_graph_rejects_empty_layer(n1, n2):
    with pytest.raises(GraphError, match="^both layers need at least one node$"):
        from_pairs(n1, n2, ())


@pytest.mark.parametrize("n1,n2", [(True, 3), (3, False), (2.0, 2), ("3", 3), (None, 1), (3, [3])])
def test_from_pairs_rejects_layer_sizes_that_are_not_ints(n1, n2):
    with pytest.raises(GraphError, match=r"^layer sizes must be ints, not ") as err:
        from_pairs(n1, n2, ())
    with pytest.raises(GraphError) as ref:
        add_edge_fold(n1, n2, ())
    assert str(err.value) == str(ref.value)


def test_add_edge_classes():
    # The reference and from_pairs file each link under the class its ends
    # give it, by hand-written expectation.
    triples = [(0, 1, OP1), (4, 0, OP1), (4, 5, OP2), (6, 3, OP2)]
    for g in (from_pairs(4, 3, triples), add_edge_fold(4, 3, triples)):
        assert g.tally() == Counter(dict.fromkeys(LINK_KINDS, 1))
        assert [(e.pair, e.cls) for e in g.edges] == [
            ((0, 1), EdgeClass.INTRA1),
            ((0, 4), EdgeClass.CROSS),
            ((3, 6), EdgeClass.CROSS),
            ((4, 5), EdgeClass.INTRA2),
        ]


def test_add_edge_rejections():
    # The reference and from_pairs refuse the same hand-picked links.
    g = add_edge_fold(4, 3, [(0, 1, OP1)])
    for u, v, owner in (
        (4, 5, OP1),  # layer-2 link by operator 1
        (0, 1, OP2),  # layer-1 link by operator 2
        (2, 2, OP1),  # self-loop
        (0, 99, OP1),  # out of range
        (1, 0, OP1),  # duplicate, reversed
    ):
        with pytest.raises(GraphError):
            add_edge(g, u, v, owner)
        with pytest.raises(GraphError):
            from_pairs(4, 3, [(0, 1, OP1), (u, v, owner)])


GOOD_TRIPLES = [(0, 1, OP1), (0, 4, OP2), (5, 4, OP2)]
BAD_TRIPLES = {
    "duplicate": (0, 1, OP1),
    "duplicate-reversed": (4, 0, OP1),
    "self-loop": (2, 2, OP1),
    "inadmissible-owner": (5, 6, OP1),
    "out-of-range": (0, 99, OP1),
    "one-past-the-end": (0, 7, OP2),
    "both-out-of-range": (9, 8, OP2),
    "negative": (-1, 0, OP1),
    "not-an-owner": (1, 2, 1),
    "unhashable-owner": (1, 2, [1]),
    "float-node": (0.0, 2, OP1),
    "bool-node": (True, 2, OP1),
    "str-node": (2, "1", OP1),
    "none-node": (None, 2, OP1),
    "pair-not-triple": (0, 2),
    "four-tuple": (0, 2, OP1, OP1),
    "bare-int": 5,
}


def add_edge_message(bad):
    with pytest.raises(GraphError) as err:
        add_edge_fold(4, 3, GOOD_TRIPLES + [bad])
    return str(err.value)


def test_from_pairs_matches_add_edge():
    assert from_pairs(4, 3, GOOD_TRIPLES) == add_edge_fold(4, 3, GOOD_TRIPLES)


@pytest.mark.parametrize("name", BAD_TRIPLES)
def test_from_pairs_rejects_like_add_edge(name):
    bad = BAD_TRIPLES[name]
    with pytest.raises(GraphError) as err:
        from_pairs(4, 3, GOOD_TRIPLES + [bad])
    assert str(err.value) == add_edge_message(bad)


def test_from_pairs_reports_the_first_bad_triple():
    bads = list(BAD_TRIPLES.values())
    assert len({add_edge_message(t) for t in bads}) == len(bads)
    for i, first in enumerate(bads):
        rest = bads[:i] + bads[i + 1 :]
        with pytest.raises(GraphError) as err:
            from_pairs(4, 3, GOOD_TRIPLES + [first] + rest)
        assert str(err.value) == add_edge_message(first)


# Over 4 + 3 nodes: any triple, junk nodes and owners included, an element
# that is not a 3-tuple, or a triple that add_edge admits on an empty graph,
# in either node order.
JUNK = [0.0, 1.0, True, False, "1", None]
ANY_NODE = st.integers(-2, 9) | st.sampled_from(JUNK)
ANY_OWNER = st.sampled_from([*Owner, 1, None])
ANY_TRIPLE = st.tuples(ANY_NODE, ANY_NODE, ANY_OWNER)
NOT_A_TRIPLE = ANY_NODE | st.tuples(ANY_NODE, ANY_NODE) | st.tuples(ANY_NODE, ANY_NODE, ANY_OWNER, ANY_OWNER)
ADMITTED_TRIPLE = st.sampled_from(
    [
        (u, v, owner)
        for u in range(7)
        for v in range(7)
        for owner, classes in ADMISSIBLE.items()
        if u != v and class_by_ends(4, u, v) in classes
    ]
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    st.lists(st.one_of(ANY_TRIPLE, ADMITTED_TRIPLE), max_size=12)
    | st.lists(st.one_of(ADMITTED_TRIPLE, NOT_A_TRIPLE), max_size=6)
    | st.lists(ADMITTED_TRIPLE, unique_by=lambda t: frozenset(t[:2]))
)
def test_from_pairs_is_the_add_edge_fold(triples):
    # The same graph as adding the triples one by one, or the GraphError
    # of the first one refused; no built graph holds a node that is not an int.
    try:
        g, message = add_edge_fold(4, 3, triples), None
    except GraphError as err:
        message = str(err)
    if message is None:
        built = from_pairs(4, 3, triples)
        assert built == g
        assert all(type(x) is int for pairs in built.links for pair in pairs for x in pair)
    else:
        with pytest.raises(GraphError) as err:
            from_pairs(4, 3, triples)
        assert str(err.value) == message


def random_admitted_triples(rng, n1, n2):
    """Each link of K_(n1+n2) with probability 1/2, by an owner allowed to
    build it, in either node order, shuffled."""
    n, triples = n1 + n2, []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                owners = [owner for owner, classes in ADMISSIBLE.items() if class_by_ends(n1, u, v) in classes]
                triples.append((*rng.sample((u, v), 2), rng.choice(owners)))
    rng.shuffle(triples)
    return triples


def grouping_of(edges):
    """The pairs per (owner, class) of ``edges``, as sets."""
    groups = {}
    for e in edges:
        groups.setdefault((e.owner, e.cls), set()).add(e.pair)
    return groups


def links_of(g):
    """The graph's non-empty link sets per (owner, class), as sets."""
    assert len(g.links) == len(LINK_KINDS)
    assert all(type(pairs) is frozenset for pairs in g.links)
    return {kind: set(pairs) for kind, pairs in zip(LINK_KINDS, g.links) if pairs}


def test_from_pairs_returns_its_grouping_filled():
    # The link sets are the grouping of the Edge view, for graphs from
    # every way to a graph.
    rng = random.Random(29)
    for _ in range(200):
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        triples = random_admitted_triples(rng, n1, n2)
        g = from_pairs(n1, n2, triples)
        assert links_of(g) == grouping_of(g.edges)
        for e in g.edges:
            twin = Edge(e.u, e.v, e.owner, e.cls)
            assert type(e) is Edge and e == twin
            assert (repr(e), hash(e)) == (repr(twin), hash(twin))
        if not triples:
            continue
        for h in (from_pairs(n1, n2, triples[:1]), remove_edges(g, [next(iter(g.edge_pairs()))])):
            assert links_of(h) == grouping_of(h.edges)


def test_edge_pairs_is_a_fresh_set():
    rng = random.Random(31)
    for _ in range(100):
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        g = from_pairs(n1, n2, random_admitted_triples(rng, n1, n2))
        pairs = g.edge_pairs()
        assert pairs == {e.pair for e in g.edges}
        pairs.add((-1, -1))
        assert g.edge_pairs() == {e.pair for e in g.edges}


def test_the_minimum_cut_does_not_depend_on_pair_order():
    # A Hamiltonian cycle plus random chords has many minimum cuts; the
    # sweep takes the same one whatever order its pairs arrive in.
    rng = random.Random(37)
    for _ in range(200):
        n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
        n = n1 + n2
        order = rng.sample(range(n), n)
        pairs = {tuple(sorted(p)) for p in zip(order, order[1:] + order[:1])}
        pairs |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15}
        triples = [(u, v, Owner.OPERATOR1 if u < n1 else Owner.OPERATOR2) for u, v in sorted(pairs)]
        cuts, pair_cuts = set(), set()
        for _ in range(4):
            rng.shuffle(triples)
            cuts.add(min_edge_cut(from_pairs(n1, n2, triples)))
            flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v, _ in triples]
            pair_cuts.add(frozenset(tuple(sorted(p)) for p in min_cut_pairs(n, flipped)))
        assert len(cuts) == 1 and len(pair_cuts) == 1
        assert cuts.pop() == pair_cuts.pop()


def test_remove_edges():
    g = from_pairs(3, 1, [(0, 1, OP1), (1, 2, OP1), (0, 2, OP1)])
    assert remove_edges(g, []) == g
    empty = remove_edges(g, [(1, 0), (1, 2), (2, 0)])  # pairs in either order
    assert empty == from_pairs(3, 1, ())
    with pytest.raises(GraphError, match=r"absent edges: \[\(0, 3\), \(1, 2\)\]$"):
        remove_edges(remove_edges(g, [(1, 2)]), [(0, 1), (3, 0), (2, 1)])
    rows = {
        "one-element tuple": [(0,)],
        "edge-shaped 4-tuple": [(0, 1, Owner.OPERATOR1, EdgeClass.INTRA1)],
        "bare node": [0],
        "incomparable ends": [(0, "1")],
        "not a collection": 5,
    }
    for name, cut in rows.items():
        with pytest.raises(GraphError, match=r"malformed cut: a cut is a collection of \(u, v\) pairs"):
            remove_edges(g, cut)
            pytest.fail(name)


def test_an_edge_is_a_tuple():
    (e,) = from_pairs(4, 3, [(4, 0, OP1)]).edges
    u, v, owner, cls = e
    assert (u, v, owner, cls) == (0, 4, OP1, EdgeClass.CROSS)
    assert repr(e) == "Edge(u=0, v=4, owner=<Owner.OPERATOR1: 1>, cls=<EdgeClass.CROSS: 'cross'>)"
    with pytest.raises(AttributeError):
        e.owner = OP2
    # the view lists the links in (u, v) order, whoever built them
    edges = from_pairs(4, 3, [(6, 5, OP2), (4, 0, OP1), (1, 0, OP1), (1, 4, OP2)]).edges
    assert type(edges) is tuple
    assert [e.pair for e in edges] == [(0, 1), (0, 4), (1, 4), (5, 6)]


def test_edges_and_graphs_that_differ_in_an_owner_are_unequal():
    by1 = from_pairs(4, 3, [(0, 4, Owner.OPERATOR1)])
    by2 = from_pairs(4, 3, [(0, 4, Owner.OPERATOR2)])
    assert by1.edge_pairs() == by2.edge_pairs()
    assert by1.edges != by2.edges
    assert by1 != by2
    # a pair names the link whoever built it
    assert remove_edges(by1, [(4, 0)]) == remove_edges(by2, [(0, 4)]) == from_pairs(4, 3, ())


# Builds the case-a 9 + 9 network and prints its pairs in set order.
CASE_A_PAIRS = """
from fractions import Fraction
from layersec import CostProfile, structured_solve
costs = CostProfile(*map(Fraction, ("1/30", "1/45", "1/20", "2/45", "1/3")))
_, built = structured_solve(9, 9, costs)
print(list(built.graph.edge_pairs()), hash(built.graph))
"""


def test_edge_order_is_the_same_in_every_process():
    # Owner and EdgeClass hash by their names, which str hashing salts per
    # process; a graph files its owners by position in its link sets, so
    # it hashes over ints alone, and its pairs iterate in one order.
    src = os.path.dirname(os.path.dirname(os.path.abspath(layersec.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = [
        subprocess.run([sys.executable, "-c", CASE_A_PAIRS], env=env, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    pairs, _ = runs[0].rsplit(" ", 1)
    assert len(ast.literal_eval(pairs)) == 36  # the case-a build's links
    assert runs[0] == runs[1]


def test_remove_one_cycle_edge_keeps_connectivity():
    from layersec.connectivity import is_connected

    g = from_pairs(2, 2, [(0, 2, OP1), (2, 1, OP1), (1, 3, OP1), (3, 0, OP1)])  # a 4-cycle
    cut = [next(iter(g.edge_pairs()))]
    assert is_connected(remove_edges(g, cut))


def test_degree():
    assert degrees(4, from_pairs(2, 2, ()).edge_pairs()) == [0, 0, 0, 0]
    g = from_pairs(2, 2, [(0, 2, OP1), (0, 3, OP1)])
    assert degrees(g.n, g.edge_pairs()) == [2, 0, 1, 1]


def test_tally_of_the_empty_graph():
    tally = from_pairs(3, 3, ()).tally()
    assert tally == Counter()
    for owner in Owner:
        for cls in EdgeClass:
            assert tally[owner, cls] == 0


def test_tally_counts_each_link_kind():
    g = from_pairs(2, 2, [(0, 1, OP1), (0, 2, OP1), (1, 3, OP2), (2, 3, OP2)])
    assert g.tally() == {kind: 1 for kind in LINK_KINDS}
    assert sum(g.tally().values()) == len(g.edges) == 4


@st.composite
def graph_builds(draw):
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(1, 4))
    n = n1 + n2
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates)))
    builds = []
    for u, v in picks:
        if v < n1:
            builds.append((u, v, Owner.OPERATOR1))
        elif u >= n1:
            builds.append((u, v, Owner.OPERATOR2))
        else:
            builds.append((u, v, draw(st.sampled_from([Owner.OPERATOR1, Owner.OPERATOR2]))))
    return n1, n2, builds


@settings(derandomize=True, deadline=None)
@given(graph_builds())
def test_graph_invariants(build):
    n1, n2, triples = build
    g = from_pairs(n1, n2, triples)
    assert g == add_edge_fold(n1, n2, triples)
    # degree sum identity
    assert sum(degrees(g.n, g.edge_pairs())) == 2 * len(g.edges)
    # stored class always matches the class re-derived from the endpoints
    for e in g.edges:
        assert e.cls == class_by_ends(n1, e.u, e.v)
        assert e.owner in (OP1, OP2)
        if e.owner == OP1:
            assert e.cls in (EdgeClass.INTRA1, EdgeClass.CROSS)
        else:
            assert e.cls in (EdgeClass.INTRA2, EdgeClass.CROSS)
    # remove followed by a rebuild with the link last is the identity
    if triples:
        u, v, owner = triples[0]
        before = remove_edges(g, [(u, v)])
        again = from_pairs(n1, n2, [(*e.pair, e.owner) for e in before.edges] + [(u, v, owner)])
        assert again == g
