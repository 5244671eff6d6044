"""Connectivity queries for two-layer networks.

The public answers use the deletion-resilience convention: a connected
network has resilience level ``p`` when it survives the removal of any p
links and some set of p + 1 links disconnects it, so p equals the standard
edge connectivity minus one.  A disconnected network has level -1.  The
standard edge connectivity (size of a minimum edge cut), lambda, is what
the package's own modules ask for.

Lambda of a graph.  A graph keeps its lambda once known (graphs are
immutable), and ``keep_lambda`` is the one writer of that slot.
``edge_connectivity(g)`` fills it with one sweep per graph object; the
builder in ``construction`` fills it with no flow, with the value that a
build's edge-disjoint Hamiltonian cycles prove (for even k, together with
one pass over the arcs of the first cycle).  The level queries here and
``game.adversary_best_response`` read it, so a graph pays for at most one
flow however often it is judged, and a built network for none.  Cut queries and queries on raw
pairs (``edge_connectivity_pairs``) run their own sweep.

One kernel, ``_sweep``, answers lambda and cut queries with unit-capacity
max flows from source 0 to a list of sinks, each on a copy of one residual
built per query.  The residual is an arc array: arc ``a`` points to
``head[a]``, its reverse is ``a ^ 1``, and repeated pairs merge into one
capacity.  Lambda queries stop a flow at the best value so far; cut
queries stop one augmentation later, so a flow that ends at the best value
is a full maximum flow.  The nodes reached by the last, failed search of
the flow that set the best value are the source side of a minimum cut.

Sink rule.  Cut queries, and every query on a multigraph (a repeated
unordered pair or a self-loop), use all sinks 1..n-1, in order.  Lambda
queries on a simple graph use only D - {0}, in increasing order, where D
is the dominating set built greedily by scanning 0..n-1 and taking each
node not yet dominated (so 0 is in D).

Lemma (Matula 1987; Esfahanian and Hakimi 1984).  In a simple graph with
minimum degree delta and lambda < delta, each side S of a minimum cut has
more than delta nodes: with |S| <= delta, each node of S has at least
delta - |S| + 1 neighbours outside S, so at least |S| (delta - |S| + 1) >=
delta links leave S.  At most lambda < |S| nodes of S touch a cut link, so
some node of S has its whole closed neighbourhood in S, and the node of D
that dominates it lies in S.  D thus meets both sides, and the smallest
0-d flow over d in D - {0} is lambda.  When lambda >= delta the answer is
delta, the sweep's starting bound.  The lemma fails on multigraphs:
0-2, 0-3, three 0-1 links and three 2-3 links give lambda = 2 (the cut
{0-2, 0-3}) and delta = 3, but node 0 dominates every node, so D = {0}
and a sweep over D would answer 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphError, LayeredGraph, degrees


@dataclass(frozen=True)
class LinkConnectivity:
    """Resilience level p; p = -1 encodes a disconnected network."""

    p: int


def connected_pairs(n: int, pairs) -> bool:
    """True iff (n, pairs) is one component; the graph on no nodes is not.
    ``pairs`` is a list or a set; with fewer than n - 1 of them the answer
    is False before any per-node list is made."""
    if n == 0 or len(pairs) < n - 1:
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
    """Smallest 0-t max flow over the sinks, capped at ``best``: (best, side)."""
    head: list[int] = []
    cap: list[int] = []
    arc: dict[tuple[int, int], int] = {}
    adj = [[] for _ in range(n)]
    simple = True
    for u, v in pairs:
        key = (u, v) if u < v else (v, u)
        a = arc.get(key)
        simple = simple and a is None and u != v
        if a is None:
            arc[key] = a = len(head)
            head += (v, u)
            cap += (0, 0)
            adj[u].append(a)
            adj[v].append(a + 1)
        cap[a] += 1
        cap[a + 1] += 1
    if simple and not cut:
        sinks, dominated = [], [False] * n
        for x in range(n):
            if not dominated[x]:
                sinks.append(x)
                dominated[x] = True
                for a in adj[x]:
                    dominated[head[a]] = True
        sinks = sinks[1:]
    else:
        sinks = range(1, n)
    side = None
    for t in sinks:
        res, flow = cap[:], 0
        while flow < best + cut:
            pred = [0] + [-1] * (n - 1)  # arc into each reached node; 0 marks the source
            queue = [0]
            for x in queue:
                for a in adj[x]:
                    if res[a]:
                        y = head[a]
                        if pred[y] == -1:
                            pred[y] = a
                            queue.append(y)
                if pred[t] != -1:
                    break
            if pred[t] == -1:
                break
            y = t
            while y:
                a = pred[y]
                res[a] -= 1
                res[a ^ 1] += 1
                y = head[a ^ 1]
            flow += 1
        if flow < best or (cut and flow == best and side is None):
            best, side = flow, [p != -1 for p in pred]
    return best, side


def edge_connectivity_pairs(n: int, pairs) -> int:
    """Standard edge connectivity of (n, pairs); 0 if disconnected."""
    pairs = list(pairs)
    if n <= 1 or not connected_pairs(n, pairs):
        return 0
    return _sweep(n, pairs, min(degrees(n, pairs)), cut=False)[0]  # lambda <= min degree


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


def keep_lambda(g: LayeredGraph, lam: int) -> None:
    """Record ``lam``, a flow's answer or a proven value, as the edge
    connectivity of ``g``; later queries on ``g`` read it."""
    object.__setattr__(g, "_lam", lam)


def edge_connectivity(g: LayeredGraph) -> int:
    """Standard edge connectivity of ``g`` (0 if disconnected), kept on ``g``."""
    if g._lam is None:
        keep_lambda(g, edge_connectivity_pairs(g.n, g.edge_pairs()))
    return g._lam


def link_connectivity(g: LayeredGraph) -> LinkConnectivity:
    """Resilience level of ``g`` (edge connectivity minus one; -1 if disconnected)."""
    return LinkConnectivity(edge_connectivity(g) - 1)


def min_edge_cut(g: LayeredGraph) -> frozenset[tuple[int, int]]:
    """A minimum disconnecting link set of a connected graph, as (u, v) pairs."""
    return frozenset(min_cut_pairs(g.n, g.edge_pairs()))


def is_p_resistant(g: LayeredGraph, p: int) -> bool:
    """True iff the network survives the deletion of any p links."""
    if p < 0:
        raise GraphError("resistance level must be non-negative")
    return edge_connectivity(g) > p
