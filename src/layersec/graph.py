"""Two-layer network model.

Nodes use a single 0-based index space: indices ``0..n1-1`` form layer 1,
indices ``n1..n1+n2-1`` form layer 2.  Edges are undirected, simple, and
carry an owner tag (which operator built the link) plus a class derived
from the endpoint layers.  Graph values are immutable; every operation
either answers a read-only query or returns a new graph.  ``from_pairs``
admits an edge by plain comparisons (its class from how many ends lie in
layer 1, its owner by identity) and hands only a refused one to the checks
of ``add_edge``, so both raise the same ``GraphError``.  ``Owner`` and
``EdgeClass`` members, singletons equal only to themselves, hash by identity.
An ``Edge`` is a ``NamedTuple``, equal over all four fields but hashed
over (u, v) alone: with the identity-hashed owner and class in the hash,
the order of every edge set, and so the minimum cut an attack takes,
would move with object addresses from run to run.

Because a graph never changes, it keeps its edge connectivity once known,
in a private slot that takes no part in ``==``, ``hash`` or ``repr``.
``connectivity.keep_lambda`` fills it, with the value of a flow or, for an
equilibrium build, the value its cycle certificate proves.  A second such
slot keeps ``grouped``'s pairs per (owner, class), so a build's count
check and its strategy profile share one grouping.  The slots live and
die with the graph object, and two equal graphs built apart each fill
their own.  ``from_pairs`` returns its graph grouped, filled by the loop
that admits the edges, with the lambda slot empty; graphs from
``add_edge``, ``remove_edges`` or ``LayeredGraph(...)`` start with both
empty, and ``grouped`` fills its slot on first use.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, NamedTuple


class EdgeClass(Enum):
    INTRA1 = "intra1"
    INTRA2 = "intra2"
    CROSS = "cross"
    __hash__ = object.__hash__


class Owner(Enum):
    OPERATOR1 = 1
    OPERATOR2 = 2
    __hash__ = object.__hash__


# Edge classes each operator is allowed to build.
ADMISSIBLE = {
    Owner.OPERATOR1: (EdgeClass.INTRA1, EdgeClass.CROSS),
    Owner.OPERATOR2: (EdgeClass.INTRA2, EdgeClass.CROSS),
}
# The four kinds of built link, as (owner, class), in ``StrategyProfile``'s field order.
LINK_KINDS = tuple((owner, cls) for owner, classes in ADMISSIBLE.items() for cls in classes)
_BY_ENDS = (EdgeClass.INTRA2, EdgeClass.CROSS, EdgeClass.INTRA1)  # by the edge's layer-1 ends


class GraphError(ValueError):
    """Raised on malformed graph operations (self-loop, duplicate, bad owner)."""


class Edge(NamedTuple):
    u: int
    v: int
    owner: Owner
    cls: EdgeClass

    def __hash__(self):
        return hash((self.u, self.v))

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class LayeredGraph:
    n1: int
    n2: int
    edges: frozenset[Edge]
    # Edge connectivity, or None until connectivity.keep_lambda fills it.
    _lam: int | None = field(default=None, init=False, compare=False, repr=False)
    # The pairs per (owner, class), or None until ``grouped`` fills it.
    _groups: dict | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def edge_pairs(self) -> set[tuple[int, int]]:
        """A fresh set of the (u, v) pairs, inserted in the order of ``edges``."""
        return set(map(itemgetter(0, 1), self.edges))

    def grouped(self) -> dict:
        """The (u, v) pairs per (owner, class) present, read-only: filled by
        ``from_pairs``, or grouped in one pass over the edges on the first
        call, and kept with the graph."""
        if self._groups is None:
            groups = defaultdict(list)
            for e in self.edges:
                groups[e.owner, e.cls].append((e.u, e.v))
            object.__setattr__(self, "_groups", {key: tuple(pairs) for key, pairs in groups.items()})
        return self._groups

    def tally(self) -> Counter:
        """Edge count per (owner, class); absent combinations count 0."""
        return Counter({key: len(pairs) for key, pairs in self.grouped().items()})


def new_graph(n1: int, n2: int) -> LayeredGraph:
    """Return the empty two-layer network on n1 + n2 nodes."""
    if n1 < 1 or n2 < 1:
        raise GraphError("both layers need at least one node")
    return LayeredGraph(n1, n2, frozenset())


def _checked_edge(g: LayeredGraph, u: int, v: int, owner: Owner, present) -> Edge:
    """The edge (u, v) built by ``owner``, if ``g`` admits it next to the
    ``present`` pairs; otherwise the ``GraphError`` that refuses it."""
    if u == v:
        raise GraphError("self-loops are not allowed")
    if u > v:
        u, v = v, u
    if not 0 <= u < v < g.n:
        raise GraphError(f"node {v if 0 <= u < g.n else u} out of range [0, {g.n})")
    cls = _BY_ENDS[(u < g.n1) + (v < g.n1)]
    if owner not in ADMISSIBLE or cls not in ADMISSIBLE[owner]:
        raise GraphError(f"owner {owner} may not build a {cls.value} edge")
    if (u, v) in present:
        raise GraphError(f"edge ({u}, {v}) already present")
    return Edge(u, v, owner, cls)


def add_edge(g: LayeredGraph, u: int, v: int, owner: Owner) -> LayeredGraph:
    """Return ``g`` plus the undirected edge (u, v) built by ``owner``."""
    edge = _checked_edge(g, u, v, owner, g.edge_pairs())
    return LayeredGraph(g.n1, g.n2, g.edges | {edge})


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
    if not 0 <= v < g.n:
        raise GraphError(f"node {v} out of range [0, {g.n})")
    return sum(e.u == v or e.v == v for e in g.edges)


def count_by(g: LayeredGraph, owner: Owner | None = None, cls: EdgeClass | None = None) -> int:
    """Count edges matching the owner and class filters (None = any)."""
    return sum(
        count
        for (o, c), count in g.tally().items()
        if (owner is None or o == owner) and (cls is None or c == cls)
    )


def from_pairs(n1: int, n2: int, owned_pairs: Iterable[tuple[int, int, Owner]]) -> LayeredGraph:
    """Build a graph from (u, v, owner) triples, validating each edge.

    The first triple that ``add_edge`` would refuse after the ones before
    it raises the same ``GraphError``.  The graph comes back grouped: the
    loop that admits the edges fills ``grouped``'s slot as it goes.
    """
    g = new_graph(n1, n2)
    n, op1, op2 = n1 + n2, Owner.OPERATOR1, Owner.OPERATOR2
    edges: dict[tuple[int, int], Edge] = {}
    groups = defaultdict(list)
    for u, v, owner in owned_pairs:
        if u > v:
            u, v = v, u
        pair, ends = (u, v), (u < n1) + (v < n1)
        if not (0 <= u < v < n and (owner is op1 and ends or owner is op2 and ends < 2)) or pair in edges:
            _checked_edge(g, u, v, owner, edges)  # raises
        cls = _BY_ENDS[ends]
        # What Edge(u, v, owner, cls) does, without its extra Python frame.
        edges[pair] = tuple.__new__(Edge, (u, v, owner, cls))
        groups[owner, cls].append(pair)
    g = LayeredGraph(n1, n2, frozenset(edges.values()))
    object.__setattr__(g, "_groups", {key: tuple(pairs) for key, pairs in groups.items()})
    return g
