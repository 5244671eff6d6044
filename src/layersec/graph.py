"""Two-layer network model.

Nodes use a single 0-based index space: indices ``0..n1-1`` form layer 1,
indices ``n1..n1+n2-1`` form layer 2.  Edges are undirected, simple, and
carry an owner tag (which operator built the link) plus a class derived
from the endpoint layers.  Graph values are immutable; every operation
either answers a read-only query or returns a new graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable


class EdgeClass(Enum):
    INTRA1 = "intra1"
    INTRA2 = "intra2"
    CROSS = "cross"


class Owner(Enum):
    OPERATOR1 = 1
    OPERATOR2 = 2
    UNOWNED = 0


# Edge classes each operator is allowed to build.
ADMISSIBLE = {
    Owner.OPERATOR1: (EdgeClass.INTRA1, EdgeClass.CROSS),
    Owner.OPERATOR2: (EdgeClass.INTRA2, EdgeClass.CROSS),
}


class GraphError(ValueError):
    """Raised on malformed graph operations (self-loop, duplicate, bad owner)."""


@dataclass(frozen=True, order=True)
class Edge:
    u: int
    v: int
    owner: Owner = field(compare=False)
    cls: EdgeClass = field(compare=False)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class LayeredGraph:
    n1: int
    n2: int
    edges: frozenset[Edge]

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def layer(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise GraphError(f"node {v} out of range [0, {self.n})")
        return 1 if v < self.n1 else 2

    def classify(self, u: int, v: int) -> EdgeClass:
        lu, lv = self.layer(u), self.layer(v)
        if lu == lv:
            return EdgeClass.INTRA1 if lu == 1 else EdgeClass.INTRA2
        return EdgeClass.CROSS

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {e.pair for e in self.edges}

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return any(e.u == u and e.v == v for e in self.edges)

    def tally(self) -> Counter:
        """Edge count per (owner, class); absent combinations count 0."""
        return Counter((e.owner, e.cls) for e in self.edges)


def new_graph(n1: int, n2: int) -> LayeredGraph:
    """Return the empty two-layer network on n1 + n2 nodes."""
    if n1 < 1 or n2 < 1:
        raise GraphError("both layers need at least one node")
    return LayeredGraph(n1, n2, frozenset())


def add_edge(g: LayeredGraph, u: int, v: int, owner: Owner) -> LayeredGraph:
    """Return ``g`` plus the undirected edge (u, v) built by ``owner``."""
    if u == v:
        raise GraphError("self-loops are not allowed")
    if u > v:
        u, v = v, u
    cls = g.classify(u, v)
    if owner not in ADMISSIBLE or cls not in ADMISSIBLE[owner]:
        raise GraphError(f"owner {owner} may not build a {cls.value} edge")
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) already present")
    return LayeredGraph(g.n1, g.n2, g.edges | {Edge(u, v, owner, cls)})


def remove_edges(g: LayeredGraph, cut: Iterable[Edge]) -> LayeredGraph:
    """Return ``g`` with exactly the edges in ``cut`` removed."""
    cut = frozenset(cut)
    missing = cut - g.edges
    if missing:
        raise GraphError(f"cannot remove absent edges: {sorted(e.pair for e in missing)}")
    return LayeredGraph(g.n1, g.n2, g.edges - cut)


def degrees(n: int, pairs) -> list[int]:
    """Degree of each node 0..n-1 in the (multi)graph given by ``pairs``."""
    degs = [0] * n
    for u, v in pairs:
        degs[u] += 1
        degs[v] += 1
    return degs


def degree(g: LayeredGraph, v: int) -> int:
    g.layer(v)  # range check
    return degrees(g.n, g.edge_pairs())[v]


def count_by(g: LayeredGraph, owner: Owner | None = None, cls: EdgeClass | None = None) -> int:
    """Count edges matching the owner and class filters (None = any)."""
    return sum(
        count
        for (o, c), count in g.tally().items()
        if (owner is None or o == owner) and (cls is None or c == cls)
    )


def from_pairs(
    n1: int,
    n2: int,
    owned_pairs: Iterable[tuple[int, int, Owner]],
) -> LayeredGraph:
    """Build a graph from (u, v, owner) triples, validating each edge."""
    g = new_graph(n1, n2)
    for u, v, owner in owned_pairs:
        g = add_edge(g, u, v, owner)
    return g
