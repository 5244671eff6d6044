"""Two-layer network model.

Nodes use a single 0-based index space: indices ``0..n1-1`` form layer 1,
indices ``n1..n1+n2-1`` form layer 2.  Edges are undirected, simple, and
carry an owner tag (which operator built the link) plus a class derived
from the endpoint layers.  Graph values are immutable; every operation
either answers a read-only query or returns a new graph.

A graph stores its links as ``links``: one frozenset of (u, v) pairs,
u < v, per ``LINK_KINDS`` entry, in that order; a ``StrategyProfile``
holds the graph itself.  ``edges`` builds the ``Edge`` tuples from them
only when a caller asks.  ``from_pairs`` admits a link by plain
comparisons (its class from how many ends lie in layer 1, its owner by
identity) and hands only a refused one to the checks of ``add_edge``, so
both raise the same ``GraphError``.  ``Owner`` and ``EdgeClass`` members,
singletons equal only to themselves, hash by identity.  An ``Edge`` is a
``NamedTuple``, equal over all four fields but hashed over (u, v) alone:
with the identity-hashed owner and class in the hash, the order of every
edge set would move with object addresses from run to run.  A graph
hashes over its layer sizes and its pairs alone, so its hash is the same
in every process too.

Because a graph never changes, it keeps its edge connectivity once known,
in a private slot that takes no part in ``==``, ``hash`` or ``repr``.
``connectivity.keep_lambda`` fills it, with the value of a flow or, for an
equilibrium build, the value its cycle certificate proves.  The slot lives
and dies with the graph object, and two equal graphs built apart each fill
their own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
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
# The four kinds of built link, as (owner, class), in ``LayeredGraph.links`` order.
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
    links: tuple  # a frozenset of (u, v) pairs, u < v, per LINK_KINDS entry
    # Edge connectivity, or None until connectivity.keep_lambda fills it.
    _lam: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        return hash((self.n1, self.n2, frozenset().union(*self.links)))

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def edges(self) -> frozenset[Edge]:
        """The links as ``Edge`` tuples, built on each call."""
        return frozenset(
            Edge(u, v, owner, cls) for (owner, cls), pairs in zip(LINK_KINDS, self.links) for u, v in pairs
        )

    def edge_pairs(self) -> set[tuple[int, int]]:
        """A fresh set of the (u, v) pairs."""
        return set().union(*self.links)

    def tally(self) -> Counter:
        """Edge count per (owner, class); absent combinations count 0."""
        return Counter({kind: len(pairs) for kind, pairs in zip(LINK_KINDS, self.links) if pairs})


def new_graph(n1: int, n2: int) -> LayeredGraph:
    """Return the empty two-layer network on n1 + n2 nodes."""
    if n1 < 1 or n2 < 1:
        raise GraphError("both layers need at least one node")
    return LayeredGraph(n1, n2, (frozenset(),) * len(LINK_KINDS))


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
    e = _checked_edge(g, u, v, owner, g.edge_pairs())
    links = (pairs | {e.pair} if kind == (e.owner, e.cls) else pairs for kind, pairs in zip(LINK_KINDS, g.links))
    return LayeredGraph(g.n1, g.n2, tuple(links))


def remove_edges(g: LayeredGraph, cut: Iterable[tuple[int, int]]) -> LayeredGraph:
    """Return ``g`` with exactly the links of ``cut``, (u, v) pairs in
    either order, removed, whoever built them."""
    try:
        removed = {(u, v) if u < v else (v, u) for u, v in cut}
    except (TypeError, ValueError) as exc:
        raise GraphError(f"malformed cut: a cut is a collection of (u, v) pairs ({exc})") from exc
    missing = removed - g.edge_pairs()
    if missing:
        raise GraphError(f"cannot remove absent edges: {sorted(missing)}")
    return LayeredGraph(g.n1, g.n2, tuple(pairs - removed for pairs in g.links))


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
    return sum(v in pair for pairs in g.links for pair in pairs)


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
    it raises the same ``GraphError``.
    """
    g = new_graph(n1, n2)
    n, op1, op2 = n1 + n2, Owner.OPERATOR1, Owner.OPERATOR2
    seen = set()
    links = ([], [], [], [])  # per LINK_KINDS entry: op1 intra1, op1 cross, op2 intra2, op2 cross
    for u, v, owner in owned_pairs:
        if u > v:
            u, v = v, u
        pair, ends = (u, v), (u < n1) + (v < n1)
        if not (0 <= u < v < n and (owner is op1 and ends or owner is op2 and ends < 2)) or pair in seen:
            _checked_edge(g, u, v, owner, seen)  # raises
        seen.add(pair)
        links[2 - ends if owner is op1 else 2 + ends].append(pair)
    return LayeredGraph(n1, n2, tuple(map(frozenset, links)))
