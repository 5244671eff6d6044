"""Shared test utilities: enumeration oracles and random instance generators."""

from __future__ import annotations

import itertools
from fractions import Fraction

import layersec
from layersec.connectivity import connected_pairs
from layersec.construction import StageOnePlan
from layersec.game import CostProfile
from layersec.graph import Owner, from_pairs


def lambda_by_enumeration(n, pairs):
    """Edge connectivity as the smallest disconnecting subset size (0 if already split)."""
    pairs = list(pairs)
    if n <= 1:
        return 0
    if not connected_pairs(n, pairs):
        return 0
    for size in range(1, len(pairs) + 1):
        for cut in itertools.combinations(range(len(pairs)), size):
            keep = [p for i, p in enumerate(pairs) if i not in cut]
            if not connected_pairs(n, keep):
                return size
    raise AssertionError("a connected graph on >= 2 nodes always has a cut")


def lambda_by_bipartition(n, pairs):
    """Edge connectivity as the fewest links crossing a split of the nodes
    into two non-empty sides (0 if already split, or if n == 1)."""
    # Bits of ``side`` mark one side; node n - 1 is never marked, so each
    # of the 2^(n-1) - 1 splits is counted once.
    return min(
        (sum((side >> u & 1) != (side >> v & 1) for u, v in pairs) for side in range(1, 1 << (n - 1))),
        default=0,
    )


def embed(n1, n2, pairs, cross_owner=Owner.OPERATOR2):
    """LayeredGraph from bare pairs, owners chosen per class."""
    triples = []
    for u, v in pairs:
        u, v = min(u, v), max(u, v)
        if v < n1:
            triples.append((u, v, Owner.OPERATOR1))
        elif u >= n1:
            triples.append((u, v, Owner.OPERATOR2))
        else:
            triples.append((u, v, cross_owner))
    return from_pairs(n1, n2, triples)


def random_pairs(rng, n1, n2, p=0.5):
    n = n1 + n2
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]


def random_fraction(rng, max_den=12) -> Fraction:
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def random_costs(rng, max_den=12, ordered=False) -> CostProfile:
    """Random cost profile; ordered=True enforces c1 <= c12 and c2 <= c21."""
    c1, c12 = random_fraction(rng, max_den), random_fraction(rng, max_den)
    c2, c21 = random_fraction(rng, max_den), random_fraction(rng, max_den)
    if ordered:
        c1, c12 = min(c1, c12), max(c1, c12)
        c2, c21 = min(c2, c21), max(c2, c21)
    return CostProfile(c1=c1, c2=c2, c12=c12, c21=c21, ca=random_fraction(rng, max_den))


def graph_degrees(g):
    degs = [0] * g.n
    for e in g.edges:
        degs[e.u] += 1
        degs[e.v] += 1
    return degs


def count_flows(monkeypatch):
    """List that records every ``edge_connectivity_pairs`` call from here on,
    from whichever layersec module makes it."""
    calls = []
    inner = layersec.connectivity.edge_connectivity_pairs

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    for module in (layersec.connectivity, layersec.game, layersec.metrics):
        monkeypatch.setattr(module, "edge_connectivity_pairs", counted)
    return calls


def stage1_by_steps(n1, k, costs):
    """``stage1_allocate``'s plan, adding operator-1 links one at a time
    (intra first, then up to k + 1 cross) until operator 2's cost is below 1.
    Takes inputs inside ``stage1_allocate``'s domain only."""
    nb11 = (n1 - 1) * (k + 1) // 2
    total = n1 * (k + 1)
    c2 = total * costs.c21
    e1 = 0
    while c2 >= 1 and e1 < nb11 + k + 1:
        e1 += 1
        c2 -= 2 * costs.c21 - costs.c2 if e1 <= nb11 else costs.c21
    e12 = max(0, e1 - nb11)
    e11 = e1 - e12
    return StageOnePlan(n1, k, e11, e12, e12 * costs.c12 + e11 * costs.c1, c2)
