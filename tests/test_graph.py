import ast
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import layersec
from layersec.connectivity import min_cut_pairs, min_edge_cut
from layersec.graph import (
    ADMISSIBLE,
    LINK_KINDS,
    Edge,
    EdgeClass,
    GraphError,
    Owner,
    add_edge,
    count_by,
    degree,
    from_pairs,
    new_graph,
    remove_edges,
)


def class_by_ends(n1, u, v):
    """The class of link (u, v): intra-1 with both ends in layer 1, cross with one, intra-2 with none."""
    return {2: EdgeClass.INTRA1, 1: EdgeClass.CROSS, 0: EdgeClass.INTRA2}[(u < n1) + (v < n1)]


def test_new_graph_sizes():
    for n1, n2 in ((3, 3), (9, 9), (4, 3)):
        g = new_graph(n1, n2)
        assert g.n == n1 + n2
        assert len(g.edges) == 0


@pytest.mark.parametrize("n1,n2", [(0, 3), (3, 0), (0, 0)])
def test_new_graph_rejects_empty_layer(n1, n2):
    with pytest.raises(GraphError):
        new_graph(n1, n2)


def test_add_edge_classes():
    g = new_graph(4, 3)
    g = add_edge(g, 0, 1, Owner.OPERATOR1)
    assert next(iter(g.edges)).cls == EdgeClass.INTRA1
    g2 = add_edge(g, 0, 4, Owner.OPERATOR1)
    assert {e.cls for e in g2.edges} == {EdgeClass.INTRA1, EdgeClass.CROSS}
    g3 = add_edge(g, 4, 5, Owner.OPERATOR2)
    assert any(e.cls == EdgeClass.INTRA2 for e in g3.edges)


def test_add_edge_rejections():
    g = new_graph(4, 3)
    with pytest.raises(GraphError):
        add_edge(g, 4, 5, Owner.OPERATOR1)  # layer-2 link by operator 1
    with pytest.raises(GraphError):
        add_edge(g, 0, 1, Owner.OPERATOR2)  # layer-1 link by operator 2
    with pytest.raises(GraphError):
        add_edge(g, 2, 2, Owner.OPERATOR1)  # self-loop
    with pytest.raises(GraphError):
        add_edge(g, 0, 99, Owner.OPERATOR1)  # out of range
    g = add_edge(g, 0, 1, Owner.OPERATOR1)
    with pytest.raises(GraphError):
        add_edge(g, 1, 0, Owner.OPERATOR1)  # duplicate, reversed


GOOD_TRIPLES = [(0, 1, Owner.OPERATOR1), (0, 4, Owner.OPERATOR2), (5, 4, Owner.OPERATOR2)]
BAD_TRIPLES = {
    "duplicate": (0, 1, Owner.OPERATOR1),
    "duplicate-reversed": (4, 0, Owner.OPERATOR1),
    "self-loop": (2, 2, Owner.OPERATOR1),
    "inadmissible-owner": (5, 6, Owner.OPERATOR1),
    "out-of-range": (0, 99, Owner.OPERATOR1),
    "one-past-the-end": (0, 7, Owner.OPERATOR2),
    "negative": (-1, 0, Owner.OPERATOR1),
    "not-an-owner": (1, 2, 1),
}


def add_edge_message(triple):
    g = new_graph(4, 3)
    for t in GOOD_TRIPLES:
        g = add_edge(g, *t)
    with pytest.raises(GraphError) as err:
        add_edge(g, *triple)
    return str(err.value)


def test_from_pairs_matches_add_edge():
    g = new_graph(4, 3)
    for t in GOOD_TRIPLES:
        g = add_edge(g, *t)
    built = from_pairs(4, 3, GOOD_TRIPLES)
    assert {(e.u, e.v, e.owner, e.cls) for e in built.edges} == {
        (e.u, e.v, e.owner, e.cls) for e in g.edges
    }


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


# Over 4 + 3 nodes: any triple, or one that add_edge admits on an empty
# graph, in either node order.
ANY_TRIPLE = st.tuples(st.integers(-1, 7), st.integers(-1, 7), st.sampled_from([*Owner, 1]))
ADMITTED_TRIPLE = st.sampled_from(
    [
        (u, v, owner)
        for u in range(7)
        for v in range(7)
        for owner, classes in ADMISSIBLE.items()
        if u != v and class_by_ends(4, u, v) in classes
    ]
)


@given(
    st.lists(st.one_of(ANY_TRIPLE, ADMITTED_TRIPLE), max_size=12)
    | st.lists(ADMITTED_TRIPLE, unique_by=lambda t: frozenset(t[:2]))
)
def test_from_pairs_is_the_add_edge_fold(triples):
    # The same edges, owners and classes as adding the triples one by one,
    # or the GraphError of the first one refused.
    g, message = new_graph(4, 3), None
    try:
        for t in triples:
            g = add_edge(g, *t)
    except GraphError as err:
        message = str(err)
    if message is None:
        built = from_pairs(4, 3, triples)
        assert {(e.u, e.v, e.owner, e.cls) for e in built.edges} == {(e.u, e.v, e.owner, e.cls) for e in g.edges}
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
        for h in (add_edge(new_graph(n1, n2), *triples[0]), remove_edges(g, [next(iter(g.edge_pairs()))])):
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
    g = new_graph(3, 1)
    for u, v in ((0, 1), (1, 2), (0, 2)):
        g = add_edge(g, u, v, Owner.OPERATOR1)
    assert remove_edges(g, []) == g
    empty = remove_edges(g, [(1, 0), (1, 2), (2, 0)])  # pairs in either order
    assert empty == new_graph(3, 1)
    with pytest.raises(GraphError, match=r"absent edges: \[\(0, 3\), \(1, 2\)\]$"):
        remove_edges(remove_edges(g, [(1, 2)]), [(0, 1), (3, 0), (2, 1)])


def test_an_edge_is_a_tuple_hashed_by_its_pair():
    (e,) = from_pairs(4, 3, [(4, 0, Owner.OPERATOR1)]).edges
    u, v, owner, cls = e
    assert (u, v, owner, cls) == (0, 4, Owner.OPERATOR1, EdgeClass.CROSS)
    assert repr(e) == "Edge(u=0, v=4, owner=<Owner.OPERATOR1: 1>, cls=<EdgeClass.CROSS: 'cross'>)"
    assert hash(e) == hash((e.u, e.v))
    with pytest.raises(AttributeError):
        e.owner = Owner.OPERATOR2


def test_edges_and_graphs_that_differ_in_an_owner_are_unequal():
    by1 = from_pairs(4, 3, [(0, 4, Owner.OPERATOR1)])
    by2 = from_pairs(4, 3, [(0, 4, Owner.OPERATOR2)])
    assert by1.edge_pairs() == by2.edge_pairs()
    assert by1.edges != by2.edges
    assert by1 != by2
    assert hash(by1) == hash(by2)  # the hash reads only the pairs
    # a pair names the link whoever built it
    assert remove_edges(by1, [(4, 0)]) == remove_edges(by2, [(0, 4)]) == new_graph(4, 3)


# Builds the case-a 9 + 9 network and prints its pairs in set order.
CASE_A_PAIRS = """
from fractions import Fraction
from layersec import CostProfile, structured_solve
costs = CostProfile(*map(Fraction, ("1/30", "1/45", "1/20", "2/45", "1/3")))
_, built = structured_solve(9, 9, costs)
print(list(built.graph.edge_pairs()), hash(built.graph))
"""


def test_edge_order_is_the_same_in_every_process():
    # Owner and EdgeClass hash by identity, so an edge hashed over all its
    # fields would iterate in an order that moves with object addresses.
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

    g = new_graph(2, 2)
    cycle = [(0, 2), (2, 1), (1, 3), (3, 0)]
    for u, v in cycle:
        g = add_edge(g, min(u, v), max(u, v), Owner.OPERATOR1)
    cut = [next(iter(g.edge_pairs()))]
    assert is_connected(remove_edges(g, cut))


def test_degree():
    g = new_graph(2, 2)
    assert degree(g, 0) == 0
    g = add_edge(g, 0, 2, Owner.OPERATOR1)
    g = add_edge(g, 0, 3, Owner.OPERATOR1)
    assert degree(g, 0) == 2
    assert degree(g, 1) == 0
    with pytest.raises(GraphError):
        degree(g, 4)


def test_count_by_empty():
    g = new_graph(3, 3)
    for owner in Owner:
        for cls in EdgeClass:
            assert count_by(g, owner, cls) == 0


def test_count_by_filters():
    g = new_graph(2, 2)
    g = add_edge(g, 0, 1, Owner.OPERATOR1)
    g = add_edge(g, 0, 2, Owner.OPERATOR1)
    g = add_edge(g, 1, 3, Owner.OPERATOR2)
    g = add_edge(g, 2, 3, Owner.OPERATOR2)
    assert count_by(g, Owner.OPERATOR1, EdgeClass.INTRA1) == 1
    assert count_by(g, Owner.OPERATOR1, EdgeClass.CROSS) == 1
    assert count_by(g, Owner.OPERATOR2, EdgeClass.CROSS) == 1
    assert count_by(g, Owner.OPERATOR2, EdgeClass.INTRA2) == 1
    assert count_by(g, owner=Owner.OPERATOR1) == 2
    assert count_by(g, cls=EdgeClass.CROSS) == 2
    assert count_by(g) == 4


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


@given(graph_builds())
def test_graph_invariants(build):
    n1, n2, triples = build
    g = new_graph(n1, n2)
    for u, v, owner in triples:
        g = add_edge(g, u, v, owner)
    # degree sum identity
    assert sum(degree(g, v) for v in range(g.n)) == 2 * len(g.edges)
    # stored class always matches the class re-derived from the endpoints
    for e in g.edges:
        assert e.cls == class_by_ends(n1, e.u, e.v)
        assert e.owner in (Owner.OPERATOR1, Owner.OPERATOR2)
        if e.owner == Owner.OPERATOR1:
            assert e.cls in (EdgeClass.INTRA1, EdgeClass.CROSS)
        else:
            assert e.cls in (EdgeClass.INTRA2, EdgeClass.CROSS)
    # add followed by remove is the identity on the edge set
    if triples:
        u, v, owner = triples[0]
        before = remove_edges(g, [(u, v)])
        again = add_edge(before, u, v, owner)
        assert again.edges == g.edges
