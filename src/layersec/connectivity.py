"""Connectivity queries for two-layer networks.

The public answers use the deletion-resilience convention: a connected
network has resilience level ``p`` when it survives the removal of any p
links and some set of p + 1 links disconnects it, so p equals the standard
edge connectivity minus one.  A disconnected network has level -1.  The
standard edge connectivity (size of a minimum edge cut) is kept internal.
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


def _components(n: int, pairs) -> int:
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        queue = deque([s])
        seen[s] = True
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return comps


def connected_pairs(n: int, pairs) -> bool:
    return _components(n, pairs) == 1


def _max_flow_unit(n: int, pairs, s: int, t: int, stop_at: int | None = None):
    """Edge-disjoint s-t path count on an undirected unit-capacity graph.

    Returns (flow, residual capacity map).  ``stop_at`` aborts augmentation
    early once the flow reaches that value (the caller only needs a bound).
    """
    cap: dict[tuple[int, int], int] = {}
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        if (u, v) not in cap:
            adj[u].append(v)
            adj[v].append(u)
        cap[(u, v)] = cap.get((u, v), 0) + 1
        cap[(v, u)] = cap.get((v, u), 0) + 1
    flow = 0
    while stop_at is None or flow < stop_at:
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue and parent[t] == -1:
            x = queue.popleft()
            for y in adj[x]:
                if parent[y] == -1 and cap.get((x, y), 0) > 0:
                    parent[y] = x
                    queue.append(y)
        if parent[t] == -1:
            break
        y = t
        while y != s:
            x = parent[y]
            cap[(x, y)] -= 1
            cap[(y, x)] = cap.get((y, x), 0) + 1
            y = x
        flow += 1
    return flow, cap, adj


def edge_connectivity_pairs(n: int, pairs, cap_at: int | None = None) -> int:
    """Standard edge connectivity of (n, pairs); 0 if disconnected.

    ``cap_at`` truncates the answer: values >= cap_at are reported as
    cap_at, which keeps threshold queries cheap.
    """
    pairs = list(pairs)
    if n <= 1:
        return n - 1 if n else 0
    if not connected_pairs(n, pairs):
        return 0
    best = min(degrees(n, pairs))  # lambda <= min degree
    if cap_at is not None:
        best = min(best, cap_at)
    for t in range(1, n):
        flow, _, _ = _max_flow_unit(n, pairs, 0, t, stop_at=best)
        if flow < best:
            best = flow
            if best == 0:
                break
    return best


def min_cut_pairs(n: int, pairs) -> list[tuple[int, int]]:
    """A concrete minimum disconnecting edge set of (n, pairs).

    One sweep over the sinks t: each 0-t flow runs one augmentation past
    the best value so far, so a flow that stops at or below it is a full
    maximum flow.  The residual of the first sink reaching the minimum
    gives the cut.
    """
    pairs = list(pairs)
    if n < 2 or not connected_pairs(n, pairs):
        raise GraphError("graph is already disconnected")
    best, kept = min(degrees(n, pairs)), None
    for t in range(1, n):
        flow, cap, adj = _max_flow_unit(n, pairs, 0, t, stop_at=best + 1)
        if flow < best or (flow == best and kept is None):
            best, kept = flow, (cap, adj)
    cap, adj = kept
    # Source side of the cut = nodes reachable in the residual graph.
    reach = [False] * n
    reach[0] = True
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if not reach[y] and cap.get((x, y), 0) > 0:
                reach[y] = True
                queue.append(y)
    cut = [(u, v) for u, v in pairs if reach[u] != reach[v]]
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
