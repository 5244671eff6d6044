import random
import tracemalloc
from fractions import Fraction

import pytest

from helpers import count_flows, embed, harary_pairs, lambda_by_bipartition, lambda_by_enumeration, random_pairs
from layersec.connectivity import (
    connected_pairs,
    edge_connectivity,
    edge_connectivity_pairs,
    is_connected,
    is_p_resistant,
    link_connectivity,
    min_cut_pairs,
    min_edge_cut,
)
from layersec.construction import build_generalized, structured_solve
from layersec.game import CostProfile, adversary_best_response
from layersec.graph import GraphError, Owner, from_pairs, remove_edges


def cycle_graph(n1, n2):
    n = n1 + n2
    return embed(n1, n2, [(i, (i + 1) % n) for i in range(n)])


def test_is_connected_basics():
    assert not is_connected(embed(2, 2, []))
    assert is_connected(cycle_graph(2, 2))


def test_too_few_links_answer_disconnected_with_no_per_node_memory():
    # Fewer than n - 1 links cannot connect n nodes: the answer comes
    # before any list of n entries is made.
    tracemalloc.start()
    try:
        assert not connected_pairs(10**6, [])
        assert not connected_pairs(10**6, {(0, 1)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert connected_pairs(1, []) and connected_pairs(3, [(0, 1), (1, 2)]) and not connected_pairs(0, [])


def test_link_connectivity_examples():
    for n1, n2 in ((2, 2), (3, 2), (3, 3)):
        assert link_connectivity(cycle_graph(n1, n2)).p == 1
    # tree: any bridge removal disconnects
    tree = embed(2, 2, [(0, 2), (2, 1), (1, 3)])
    assert link_connectivity(tree).p == 0
    assert link_connectivity(embed(3, 3, [])).p == -1


def test_harary_connectivity_small():
    for n in range(4, 9):
        for r in range(2, n):
            pairs = harary_pairs(n, r)
            assert edge_connectivity_pairs(n, pairs) == r


def test_min_edge_cut_cycle_and_star():
    g = cycle_graph(2, 2)
    cut = min_edge_cut(g)
    assert len(cut) == 2
    assert not is_connected(remove_edges(g, cut))
    star = embed(1, 3, [(0, 1), (0, 2), (0, 3)])
    cut = min_edge_cut(star)
    assert len(cut) == 1
    assert not is_connected(remove_edges(star, cut))
    with pytest.raises(GraphError):
        min_edge_cut(embed(2, 2, []))


def test_p_resistance():
    g = cycle_graph(3, 3)
    assert is_p_resistant(g, 0)
    assert is_p_resistant(g, 1)
    assert not is_p_resistant(g, 2)
    with pytest.raises(GraphError):
        is_p_resistant(g, -1)


def test_enumeration_agreement_exhaustive_four_nodes():
    # every graph on 4 nodes (2 per layer)
    candidates = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for bits in range(1 << len(candidates)):
        pairs = [p for i, p in enumerate(candidates) if bits >> i & 1]
        assert edge_connectivity_pairs(4, pairs) == lambda_by_enumeration(4, pairs)


def test_enumeration_agreement_random():
    rng = random.Random(7)
    for _ in range(60):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        pairs = random_pairs(rng, n1, n2, p=rng.choice([0.3, 0.5, 0.8]))
        if len(pairs) > 12:
            pairs = pairs[:12]
        n = n1 + n2
        assert edge_connectivity_pairs(n, pairs) == lambda_by_enumeration(n, pairs)


def test_menger_consistency():
    # lambda and the size of the returned minimum cut both equal the fewest
    # links crossing a split of the nodes into two sides
    rng = random.Random(11)
    for _ in range(25):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        n = n1 + n2
        pairs = random_pairs(rng, n1, n2, p=0.6)
        lam = edge_connectivity_pairs(n, pairs)
        assert lam == lambda_by_bipartition(n, pairs)
        if lam > 0:
            assert len(min_edge_cut(embed(n1, n2, pairs))) == lam


def test_capped_queries_truncate_lambda():
    rng = random.Random(19)
    seen = set()
    for _ in range(60):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        n = n1 + n2
        pairs = random_pairs(rng, n1, n2, p=rng.choice([0.2, 0.5, 0.8]))
        lam = lambda_by_bipartition(n, pairs)
        seen.add(lam > 0)
        g = embed(n1, n2, pairs)
        for c in range(1, lam + 2):
            assert link_connectivity(g).p == lam - 1
            assert is_p_resistant(g, c - 1) == (lam >= c)
    assert seen == {False, True}  # both disconnected and connected graphs ran


def test_monotone_in_edges():
    rng = random.Random(13)
    for _ in range(30):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        n = n1 + n2
        pairs = random_pairs(rng, n1, n2, p=0.5)
        lam = edge_connectivity_pairs(n, pairs)
        missing = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in pairs
        ]
        if missing:
            extra = pairs + [missing[0]]
            assert edge_connectivity_pairs(n, extra) >= lam


def test_min_cut_removal_disconnects_random():
    rng = random.Random(17)
    for _ in range(30):
        n1, n2 = rng.randint(1, 3), rng.randint(2, 3)
        g = embed(n1, n2, random_pairs(rng, n1, n2, p=0.7))
        if not is_connected(g):
            continue
        cut = min_edge_cut(g)
        assert not is_connected(remove_edges(g, cut))
        assert len(cut) == link_connectivity(g).p + 1


def check_lambda(n, pairs):
    lam = lambda_by_bipartition(n, pairs)
    assert edge_connectivity_pairs(n, pairs) == lam
    return lam


def relabel(rng, n, pairs):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in pairs]


def test_clique_chains_below_min_degree():
    # Barbells (two cliques) and chains of three cliques, each pair of
    # neighbouring cliques joined by fewer links than the smaller clique's
    # degree: lambda is the thinnest junction, below the minimum degree, so
    # the minimum cut must be found by a sink on the far side of it.
    rng = random.Random(23)
    for _ in range(24):
        sizes = [rng.randint(4, 7) for _ in range(rng.choice([2, 3]))]
        while sum(sizes) > 14:
            sizes[sizes.index(max(sizes))] -= 1
        starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        n = starts[-1]
        pairs, junctions = [], []
        for lo, hi in zip(starts, starts[1:]):
            pairs += [(u, v) for u in range(lo, hi) for v in range(u + 1, hi)]
        for i in range(len(sizes) - 1):
            links = rng.randint(1, min(sizes[i], sizes[i + 1]) - 2)
            span = range(starts[i], starts[i + 1]), range(starts[i + 1], starts[i + 2])
            pairs += rng.sample([(u, v) for u in span[0] for v in span[1]], links)
            junctions.append(links)
        pairs = relabel(rng, n, pairs)
        assert check_lambda(n, pairs) == min(junctions)
        assert len(min_cut_pairs(n, pairs)) == min(junctions)


def test_hamiltonian_cycle_unions_with_links_removed():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(5, 12)
        pairs = set()
        for _ in range(rng.randint(1, 3)):
            order = list(range(n))
            rng.shuffle(order)
            pairs |= {tuple(sorted((order[i - 1], order[i]))) for i in range(n)}
        pairs = sorted(pairs)
        for _ in range(rng.randint(1, 3)):
            pairs.pop(rng.randrange(len(pairs)))
        rng.shuffle(pairs)
        lam = check_lambda(n, pairs)
        if lam:
            assert len(min_cut_pairs(n, pairs)) == lam


def test_multigraph_takes_every_sink():
    # lambda = 2 (the links 0-2 and 0-3) is below the minimum degree 3, yet
    # node 0 dominates every node; with parallel links the dominating-set
    # argument does not hold, so all sinks must be swept.
    pairs = [(0, 2), (0, 3)] + [(0, 1)] * 3 + [(2, 3)] * 3
    assert check_lambda(4, pairs) == 2
    assert sorted(min_cut_pairs(4, pairs)) == [(0, 2), (0, 3)]


CASE_A = CostProfile(c1=Fraction(1, 30), c2=Fraction(1, 45), c12=Fraction(1, 20), c21=Fraction(2, 45),
                     ca=Fraction(1, 3))


def test_a_graph_keeps_its_own_lambda(monkeypatch):
    calls = count_flows(monkeypatch)
    first = build_generalized(9, 9, 3, CASE_A).graph
    assert len(calls) == 0  # an odd-k build is certified by its cycles
    assert link_connectivity(first).p == 3
    assert is_p_resistant(first, 3) and not is_p_resistant(first, 4)
    assert adversary_best_response(first, CASE_A.ca) == frozenset()
    assert len(calls) == 0
    # An equal graph built apart keeps its own proven lambda.
    second = build_generalized(9, 9, 3, CASE_A).graph
    assert second == first and second is not first
    assert len(calls) == 0
    assert edge_connectivity(second) == 4
    assert len(calls) == 0
    # A graph derived from a built one starts with nothing kept.
    cut = remove_edges(first, [min(first.edge_pairs())])
    assert edge_connectivity(cut) == 3
    assert len(calls) == 1


def test_an_even_k_build_is_certified_without_a_flow(monkeypatch):
    calls = count_flows(monkeypatch)
    even_k = CostProfile(c1=CASE_A.c1, c2=CASE_A.c2, c12=CASE_A.c12, c21=CASE_A.c21, ca=Fraction(1, 4))
    built = build_generalized(9, 9, 4, even_k)
    assert built.cycles_built == 2
    assert len(calls) == 0  # the arc sweep over the first cycle is the certificate
    assert link_connectivity(built.graph).p == 4
    assert adversary_best_response(built.graph, even_k.ca) == frozenset()
    assert len(calls) == 0


def test_a_large_even_k_solve_runs_no_flow(monkeypatch):
    calls = count_flows(monkeypatch)
    costs = CostProfile(Fraction(1, 3010), Fraction(1, 3010), Fraction(1, 1505), Fraction(1, 301), Fraction(1, 4))
    sol, built = structured_solve(301, 301, costs)
    assert (sol.k, sol.is_null, built.cycles_built) == (4, False, 2)
    assert link_connectivity(built.graph).p == 4
    assert len(calls) == 0


def test_the_kept_lambda_is_not_part_of_the_value():
    op1, op2 = Owner.OPERATOR1, Owner.OPERATOR2
    ring = [(0, 1, op1), (1, 2, op1), (2, 4, op1), (3, 4, op2), (0, 3, op2)]
    g, twin = from_pairs(3, 2, ring), from_pairs(3, 2, ring)
    before = (repr(g), hash(g))
    assert edge_connectivity(g) == 2
    assert (repr(g), hash(g)) == before
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
