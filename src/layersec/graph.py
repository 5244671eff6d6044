"""Two-layer network model.

Nodes use a single 0-based index space: indices ``0..n1-1`` form layer 1,
indices ``n1..n1+n2-1`` form layer 2.  Edges are undirected, simple, and
carry an owner tag (which operator built the link) plus a class derived
from the endpoint layers.  Graph values are immutable; every operation
either answers a read-only query or returns a new graph.

A graph stores its links as ``links``: one frozenset of (u, v) pairs,
u < v, per ``LINK_KINDS`` entry, in that order; a ``StrategyProfile``
holds the graph itself.  ``from_pairs`` is the one constructor that
checks its links, each in turn for int ends, a self-loop, range, an
owner allowed its class and a repeat.  Three internal paths build a
``LayeredGraph`` from link sets they already trust: ``remove_edges`` (a
graph's own links less a cut), ``game._profile_from_masks`` (the pairs
of an ``EdgeUniverse``'s masks) and ``construction._realize`` (a build's
certified links, filed by their ends).  ``edges`` lists the links as
``Edge`` tuples in (u, v) order, built only when a caller asks.  A graph
hashes over its layer sizes and link sets, which hold ints alone, so its
hash is the same in every process.

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


class Owner(Enum):
    OPERATOR1 = 1
    OPERATOR2 = 2


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

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The links as ``Edge`` tuples in (u, v) order, built on each call."""
        return tuple(
            sorted(Edge(u, v, owner, cls) for (owner, cls), pairs in zip(LINK_KINDS, self.links) for u, v in pairs)
        )

    def edge_pairs(self) -> set[tuple[int, int]]:
        """A fresh set of the (u, v) pairs."""
        return set().union(*self.links)

    def tally(self) -> Counter:
        """Edge count per (owner, class); absent combinations count 0."""
        return Counter({kind: len(pairs) for kind, pairs in zip(LINK_KINDS, self.links) if pairs})


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


def from_pairs(n1: int, n2: int, owned_pairs: Iterable[tuple[int, int, Owner]]) -> LayeredGraph:
    """Build a graph on n1 + n2 nodes from (u, v, owner) triples.

    The first triple refused after the ones before it raises its
    ``GraphError``; so do an element that is not a 3-tuple and layer
    sizes that are not ints >= 1.
    """
    if type(n1) is not int or type(n2) is not int:
        raise GraphError(f"layer sizes must be ints, not {n1!r} and {n2!r}")
    if n1 < 1 or n2 < 1:
        raise GraphError("both layers need at least one node")
    n, seen = n1 + n2, set()
    links = ([], [], [], [])  # per LINK_KINDS entry
    try:  # around the loop, not each link: iterating and unpacking raise its only raw errors
        for u, v, owner in owned_pairs:
            if type(u) is not int or type(v) is not int:  # before ``u > v``, which a str or None would fail
                raise GraphError(f"node {v if type(u) is int else u!r} is not an int")
            if u == v:
                raise GraphError("self-loops are not allowed")
            if u > v:
                u, v = v, u
            if not 0 <= u < v < n:
                raise GraphError(f"node {v if 0 <= u < n else u} out of range [0, {n})")
            cls = _BY_ENDS[(u < n1) + (v < n1)]
            if (owner, cls) not in LINK_KINDS:
                raise GraphError(f"owner {owner} may not build a {cls.value} edge")
            if (u, v) in seen:
                raise GraphError(f"edge ({u}, {v}) already present")
            seen.add((u, v))
            links[LINK_KINDS.index((owner, cls))].append((u, v))
    except GraphError:
        raise
    except (TypeError, ValueError) as exc:
        raise GraphError(f"malformed links: each is a (u, v, owner) triple ({exc})") from exc
    return LayeredGraph(n1, n2, tuple(map(frozenset, links)))
