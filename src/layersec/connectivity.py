"""Connectivity queries for two-layer networks.

The public answers use the deletion-resilience convention: a connected
network has resilience level ``p`` when it survives the removal of any p
links and some set of p + 1 links disconnects it, so p equals the standard
edge connectivity minus one.  A disconnected network has level -1.  The
standard edge connectivity (size of a minimum edge cut) is kept internal.

One kernel, ``_sweep``, answers lambda, threshold and cut queries with
unit-capacity max flows from source 0 to each sink 1..n-1 in turn, each on
a copy of one residual built per query.  Lambda and threshold queries stop
a flow at the best value so far; cut queries stop one augmentation later,
so a flow that ends at the best value is a full maximum flow.  The nodes
reached by the last, failed search of the flow that set the best value are
the source side of a minimum cut.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Edge, GraphError, LayeredGraph, degrees


@dataclass(frozen=True)
class LinkConnectivity:
    """Resilience level p; p = -1 encodes a disconnected network."""

    p: int


@dataclass(frozen=True)
class MinCut:
    edges: frozenset[Edge]
    size: int


def connected_pairs(n: int, pairs) -> bool:
    """True iff (n, pairs) is one component; the graph on no nodes is not."""
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [True] + [False] * (n - 1)
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return all(seen)


def _sweep(n: int, pairs, best: int, cut: bool):
    """Smallest 0-t max flow over all sinks, capped at ``best``: (best, side)."""
    cap: dict[tuple[int, int], int] = {}
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        if (u, v) not in cap:
            adj[u].append(v)
            adj[v].append(u)
        cap[(u, v)] = cap.get((u, v), 0) + 1
        cap[(v, u)] = cap.get((v, u), 0) + 1
    side = None
    for t in range(1, n):
        res, flow = dict(cap), 0
        while flow < best + cut:
            parent = [0] + [-1] * (n - 1)
            queue = deque([0])
            while queue and parent[t] == -1:
                x = queue.popleft()
                for y in adj[x]:
                    if parent[y] == -1 and res[(x, y)] > 0:
                        parent[y] = x
                        queue.append(y)
            if parent[t] == -1:
                break
            y = t
            while y != 0:
                x = parent[y]
                res[(x, y)] -= 1
                res[(y, x)] += 1
                y = x
            flow += 1
        if flow < best or (cut and flow == best and side is None):
            best, side = flow, [x != -1 for x in parent]
    return best, side


def edge_connectivity_pairs(n: int, pairs, cap_at: int | None = None) -> int:
    """Standard edge connectivity of (n, pairs); 0 if disconnected.

    ``cap_at`` truncates the answer: values >= cap_at are reported as
    cap_at, which keeps threshold queries cheap.
    """
    pairs = list(pairs)
    if n <= 1 or not connected_pairs(n, pairs):
        return 0
    best = min(degrees(n, pairs))  # lambda <= min degree
    if cap_at is not None:
        best = min(best, cap_at)
    return _sweep(n, pairs, best, cut=False)[0]


def min_cut_pairs(n: int, pairs) -> list[tuple[int, int]]:
    """A concrete minimum disconnecting edge set of (n, pairs)."""
    pairs = list(pairs)
    if n < 2 or not connected_pairs(n, pairs):
        raise GraphError("graph is already disconnected")
    best, side = _sweep(n, pairs, min(degrees(n, pairs)), cut=True)
    cut = [(u, v) for u, v in pairs if side[u] != side[v]]
    assert len(cut) == best
    return cut


def is_connected(g: LayeredGraph) -> bool:
    return connected_pairs(g.n, g.edge_pairs())


def link_connectivity(g: LayeredGraph, cap_at: int | None = None) -> LinkConnectivity:
    """Resilience level of ``g`` (edge connectivity minus one; -1 if disconnected)."""
    lam = edge_connectivity_pairs(g.n, g.edge_pairs(), cap_at=cap_at)
    return LinkConnectivity(lam - 1)


def min_edge_cut(g: LayeredGraph) -> MinCut:
    """A minimum disconnecting edge set of a connected graph."""
    cut_pairs = set(min_cut_pairs(g.n, g.edge_pairs()))
    cut = frozenset(e for e in g.edges if e.pair in cut_pairs)
    return MinCut(cut, len(cut))


def is_p_resistant(g: LayeredGraph, p: int) -> bool:
    """True iff the network survives the deletion of any p links."""
    if p < 0:
        raise GraphError("resistance level must be non-negative")
    return link_connectivity(g, cap_at=p + 1).p >= p
