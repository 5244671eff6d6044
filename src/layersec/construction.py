"""Network construction.

The structured route covers n1 == n2 with 1 <= k < n1, checked in one
place (``_check_domain``).  One realizer, ``_realize``, turns link counts
per (owner, class) into both the equilibrium network
(``build_generalized``) and the team design (``_team_design``) over the
2*n1 nodes (either layer parity):
a superposition of floor((k+1)/2) pairwise edge-disjoint Hamiltonian
cycles, plus, for even k, one perfect matching of pairs no cycle uses,
plus one extra vertical when the counts total n1(k+1) + 1 links.
The equilibrium network follows a stage-1 split of the link budget
between the two operators:

  stage 1  the cheapest operator-1 level (e11 intra, e12 cross links) whose
           ``game._level_floor`` is below 1; operator 2 mirrors its intra
           links and buys the floor's argmin x of cross links;
  stage 2  m mirrored cycles: a layer-1 Hamiltonian path by operator 1,
           its mirror image in layer 2 by operator 2, two vertical closers;
  stage 3  one mixed cycle consuming the leftover z intra links per layer;
  stage 4  remaining cycles built purely from cross links;
  stage 5  (even k) the matching: the intra budget the cycles could not
           hold as mirrored intra pairs, the rest cross or vertical links;
  stage 6  the extra vertical, at the first node without one, when
           2*e11 + e12 + x = n1(k+1) + 1;
  stage 7  operator 1 takes e12 of the cross links, closers first.

Every layer size takes the same layout: cycle r runs along zigzag path r
of K_n1 (``_zigzag``), and the even-k matching pairs consecutive nodes of
zigzag path (k+1)//2.

Every constructed network is re-verified (exact edge counts per owner and
class, least degree k + 1, the cycles are edge-disjoint Hamiltonian cycles
made of the graph's links, and the whole graph survives any k link
removals); a construction that fails verification raises instead of
returning silently.  The builder keeps each cycle as its node order, the
certificate a build carries (``BuiltNetwork.cycle_tags``): an order is a
Hamiltonian cycle when it is a permutation of the nodes, and its links are
its n consecutive pairs, the last one back to the first node.
The cycles and the matching hold n1(k+1) links and give every node degree
k + 1; the extra vertical raises its two ends to k + 2 (the parity shape),
which leaves the least degree at k + 1.

Lemma (cycle certificate).  Every edge cut crosses a Hamiltonian cycle at
least twice: the cycle visits both sides and must come back.  So r
edge-disjoint Hamiltonian cycles among a graph's links give lambda >= 2r.
For odd k the (k+1)/2 cycles, as unordered pairs, are exactly the
graph's links, so lambda >= k + 1, and degree k + 1 gives lambda <= k + 1.

Lemma (arc certificate, even k).  The k/2 cycles give lambda >= k
and least degree k + 1 gives lambda <= k + 1; no regularity is needed.
A cut of size k then crosses each cycle exactly twice, the first one
included, so its side is a contiguous arc of the first cycle.  Hence
lambda = k + 1 exactly when every arc S of that cycle (1 <= |S| < n) has
more than k links leaving it, which one sweep over the arcs, numbered by
the first cycle's order (``_arc_floor``), decides with no flow.

Either way the build records lambda = k + 1 on the returned graph, so
later lambda queries on it run no flow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .connectivity import keep_lambda
from .game import (
    CostProfile,
    SpeSolution,
    StrategyProfile,
    _joint_cost_floor,
    _level_floor,
    _scale,
    attack_budget,
    null_spe_check,
)
from .graph import LINK_KINDS, EdgeClass, LayeredGraph, Owner, degrees, from_pairs

OP1 = Owner.OPERATOR1
OP2 = Owner.OPERATOR2


class ConstructionError(ValueError):
    """A game outside the structured domain or a build that failed verification."""


def _check_domain(n1: int, n2: int, k: int):
    """Raise unless the structured route covers the game: n1 == n2 and 1 <= k < n1."""
    if n1 != n2 or not 1 <= k < n1:
        raise ConstructionError(
            f"the structured route needs n1 == n2 and 1 <= k < n1, got n1 = {n1}, n2 = {n2}, k = {k}"
        )


@dataclass(frozen=True)
class StageOnePlan:
    """Link-budget split decided in stage 1 (layer sizes equal)."""

    e11: int
    e12: int
    op2_cross: int
    c1_total: Fraction
    c2_total: Fraction

    @property
    def op2_intra(self) -> int:
        """Operator 2 mirrors every operator-1 intra link."""
        return self.e11

    @property
    def counts(self) -> dict:
        """Planned links per (owner, class)."""
        return dict(zip(LINK_KINDS, (self.e11, self.e12, self.op2_intra, self.op2_cross)))


@dataclass(frozen=True)
class BuiltNetwork:
    graph: LayeredGraph
    plan: StageOnePlan
    cycle_tags: tuple  # the node order of each cycle

    @property
    def cycles_built(self) -> int:
        return len(self.cycle_tags)


def stage1_allocate(n1: int, k: int, costs: CostProfile) -> StageOnePlan | None:
    """Operator 1's cheapest count level that operator 2 can complete below 1.

    The plan is the cheapest level (e11 intra, e12 cross links) whose
    ``game._level_floor`` is below 1, ties to the lower floor, then to
    fewer cross links; None when no level is below 1.  Operator 2 mirrors
    every intra link and buys the floor's argmin x of cross links; the
    plan then totals n1(k+1) links, or n1(k+1) + 1 in the parity shape.
    Raises if that completion misses the floor, which would report a wrong
    equilibrium.  Requires 1 <= k < n1.

    Each e12 = b takes its least e11 in closed form, with no search.  With
    n = n1, d2 = n(k+1) - b, B = max(k+1-b, d2 - n(n-1), 0) and
    hi = n^2 - b, the floor of (a, b) is the least
    h(x) = x*c21 + ceil(max(0, d2-x)/2)*c2 over max(d2 - 2a, B) <= x <= hi.
    So it is below 1 exactly when d2 - 2a <= X, the largest x in [B, hi]
    with h(x) < 1 (``_last_below``): the least e11 is
    max(0, ceil((d2 - X)/2)), and b has none when X does not exist or that
    e11 is above ``top``.  Only a level within the bound pays one
    ``_level_floor`` call, for its floor2 tie-break and argmin x.
    """
    _check_domain(n1, n1, k)
    L, c1, c2, c12, c21 = _scale(costs)
    top = min(n1 * (n1 - 1) // 2, (L - 1) // c1)  # the most intra links operator 1 affords
    best = None  # the cheapest level so far, as (cost1, floor2, e12, e11, x)
    for b in range(n1 * n1 + 1):
        bound = L - 1 if best is None else best[0]  # the most operator 1 may pay
        if b * c12 > bound:
            break
        d2 = n1 * (k + 1) - b
        last = _last_below(L, max(k + 1 - b, d2 - n1 * (n1 - 1), 0), n1 * n1 - b, d2, c2, c21)
        if last is None:
            continue
        a = max(0, (d2 - last + 1) // 2)
        cost1 = a * c1 + b * c12
        if a <= top and cost1 <= bound:
            floor2, x = _level_floor(n1, n1, k, a, b, c2, c21)
            level = (cost1, floor2, b, a, x)
            best = level if best is None else min(best, level)
    if best is None:
        return None
    cost1, floor2, e12, e11, x = best
    if e11 * c2 + x * c21 != floor2:
        raise ConstructionError(f"the mirrored completion of (e11, e12) = ({e11}, {e12}) misses its floor")
    return StageOnePlan(e11, e12, x, Fraction(cost1, L), Fraction(floor2, L))


def _last_below(L: int, lo: int, hi: int, d2: int, c2: int, c21: int):
    """The largest x in [lo, hi] with h(x) = x*c21 + ceil(max(0, d2-x)/2)*c2
    below L, or None.

    From d2 up, h(x) = x*c21 rises with x.  Below d2, on each parity p of
    d2 - x, 2h(x) = x*(2*c21 - c2) + (d2 + p)*c2 is linear in x, so the
    largest x of that parity below L is one division away.
    """
    start = max(lo, d2)
    if start <= hi and start * c21 < L:
        return min(hi, (L - 1) // c21)
    slope, best = 2 * c21 - c2, None
    for p in (0, 1):
        room = 2 * L - (d2 + p) * c2  # 2h(x) < 2L exactly when x * slope < room
        x = min(hi, d2)
        if slope > 0:
            x = min(x, (room - 1) // slope)
        x -= (d2 - x - p) % 2
        if lo <= x and x * slope < room and (best is None or x > best):
            best = x
    return best


# ---------------------------------------------------------------------------
# Hamiltonian building blocks.
# ---------------------------------------------------------------------------


def _zigzag(length: int, r: int) -> list:
    """Zigzag sequence r, r+1, r-1, r+2, ... covering Z_length.

    Its steps alternate between the layer-1 pairs of sum 2r + 1 and of
    sum 2r (mod length), and it holds every such pair, so zigzag paths r
    and r' share no link when 2r, 2r + 1, 2r', 2r' + 1 are distinct mod
    length.  It ends at r and at r + ceil(length/2).
    """
    seq = [r]
    for i in range(1, length):
        off = (i + 1) // 2
        seq.append((r + off) % length if i % 2 == 1 else (r - off) % length)
    return seq


def _mixed_cycle(n1: int, seq: list, z: int, out: list, closer_slots: list):
    """Cycle unit: z mirrored intra steps, the rest cross-switched.

    Each mirrored step is a layer-1 link by operator 1 and its layer-2
    mirror by operator 2; each cross-switched step is two cross links by
    operator 2.  The two end links (closer slots, operator 2 until stage 1
    hands some to operator 1) are the verticals at the sequence ends; they
    join the two strands into a single cycle through all 2*n1 nodes.
    With z = 0 this is an all-cross Hamiltonian cycle.

    Returns the cycle's node order: the top strand, seq[:z+1] in layer 1
    and then alternating layers, followed by the bottom strand reversed.
    """
    for i in range(z):
        a, b = seq[i], seq[i + 1]
        out.append([a, b, OP1])
        out.append([a + n1, b + n1, OP2])
    for i in range(z, len(seq) - 1):
        a, b = seq[i], seq[i + 1]
        out.append([a, b + n1, OP2])
        out.append([b, a + n1, OP2])
    for a in (seq[0], seq[-1]):
        closer_slots.append(len(out))
        out.append([a, a + n1, OP2])
    top = [a + n1 * (i > z and (i - z) % 2) for i, a in enumerate(seq)]
    bottom = [2 * a + n1 - t for a, t in zip(seq, top)]  # each node's other copy
    return tuple(top + bottom[::-1])


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def _build_cycle_superposition(n1: int, k: int, e11: int):
    """Edge list, closer slots and cycle node orders for any k and layer parity,
    with e11 mirrored intra links per layer and the rest cross links.

    (k+1)//2 Hamiltonian cycles take the intra budget first; for even k a
    perfect matching of pairs no cycle uses adds the last degree.  Cycle
    r is laid on zigzag path r of layer 1.  Since k < n1, C = (k+1)//2 is
    at most n1//2, so the sum classes 0..2C-1 of the C paths are distinct
    mod n1: the paths are edge-disjoint, and their 2C ends r and
    r + ceil(n1/2) are distinct, so are the verticals closing them.
    """
    N = n1
    C = (k + 1) // 2
    held = min(e11, C * (N - 1))  # intra links per layer the cycles hold
    m, z = divmod(held, N - 1)
    out: list = []
    closer_slots: list = []
    # The first m paths are mirrored, the next one carries the z leftover
    # intra steps, the rest are all-cross.
    steps = [N - 1] * m + [z] + [0] * C
    orders = tuple(_mixed_cycle(N, _zigzag(N, r), steps[r], out, closer_slots) for r in range(C))
    if k % 2 == 0:
        _add_matching(N, C, e11 - held, out, closer_slots)
    return out, closer_slots, orders


def _add_matching(N: int, C: int, q: int, out: list, closer_slots: list):
    """Even-k unit: a perfect matching of the 2*N nodes on pairs no cycle uses.

    The layer-1 pairs are consecutive nodes of zigzag path C: positions
    (0, 1), (2, 3), ... for even N, all of sum 2C + 1; positions (1, 2),
    (3, 4), ... for odd N, all of sum 2C (mod N).  As k = 2C < N (so
    2C + 1 < N for even N), no cycle's path, of sum 0..2C-1, uses that
    class.  The first q pairs carry the leftover intra budget as mirrored
    intra links; the others become the two cross links (a, b+N) and
    (b, a+N).  For odd N the leftover node C takes a vertical; C <
    ceil(N/2), so it ends no path and no cycle holds that vertical.
    """
    seq = _zigzag(N, C)
    links = []
    for i, (a, b) in enumerate(zip(seq[N % 2 :: 2], seq[N % 2 + 1 :: 2])):
        if i < q:
            out.append([a, b, OP1])
            out.append([a + N, b + N, OP2])
        else:
            links += [(a, b + N), (b, a + N)]
    if N % 2:
        links.append((C, C + N))
    for a, b in links:
        closer_slots.append(len(out))
        out.append([a, b, OP2])


def _realize(n1: int, k: int, counts: dict):
    """(graph, cycle orders): the certified network with ``counts`` links per
    (owner, class), counts[(OP1, INTRA1)] mirrored intra links per layer.

    When the counts total n1(k+1) + 1 links, one vertical at the first
    node without one adds the last (the parity shape), or it raises if no
    node is left.  Operator 1 takes counts[(OP1, CROSS)] of the cross
    links, the cycle closers first.
    """
    out, closer_slots, orders = _build_cycle_superposition(n1, k, counts[OP1, EdgeClass.INTRA1])
    if sum(counts.values()) == n1 * (k + 1) + 1:
        free = set(range(n1)) - {a for a, b, _ in out if b == a + n1}
        if not free:
            raise ConstructionError(f"the parity shape's extra vertical has no free node: all n1 = {n1} have one")
        v = min(free)
        out.append([v, v + n1, OP2])
    # Closers first; ``rest`` reads owners lazily, after the closers went to operator 1.
    rest = (i for i, (a, b, owner) in enumerate(out) if a < n1 <= b and owner == OP2)
    for slot in itertools.islice(itertools.chain(closer_slots, rest), counts[OP1, EdgeClass.CROSS]):
        out[slot][2] = OP1
    graph = from_pairs(n1, n1, out)
    _verify_built(graph, k, counts, orders)
    return graph, orders


def _verify_built(graph: LayeredGraph, k: int, counts: dict, orders):
    """Check the links per (owner, class) against ``counts`` and certify
    lambda = k + 1 by the module docstring's lemmas, or raise."""
    got = graph.tally()
    for key, want in counts.items():
        if got[key] != want:
            raise ConstructionError(f"count mismatch for {key}: built {got[key]}, planned {want}")
    pairs = graph.edge_pairs()
    if min(degrees(graph.n, pairs)) < k + 1:
        raise ConstructionError("a node of the constructed network has degree below k + 1")
    if len(orders) != (k + 1) // 2:
        raise ConstructionError(f"{len(orders)} cycle orders do not cover (k+1)//2 = {(k + 1) // 2} cycles")
    # Each order visits every node once, and its n consecutive links, the
    # last back to the first node, are links of the graph no other cycle uses.
    nodes, seen = set(range(graph.n)), set()
    for order in orders:
        if len(order) != graph.n or set(order) != nodes:
            raise ConstructionError("a cycle order is not a Hamiltonian cycle: it does not visit each node once")
        links = _cycle_links(order)
        if not seen.isdisjoint(links):
            raise ConstructionError("cycles are not edge-disjoint")
        seen |= links
    if not (seen == pairs if k % 2 else seen <= pairs):
        raise ConstructionError("cycle orders are not the graph's links")
    # The module docstring's lemmas: the cycles prove lambda = k + 1 for odd
    # k, and with an arc floor of k + 1 on the first cycle for even k.
    if k % 2 == 0 and _arc_floor(orders[0], pairs) <= k:
        raise ConstructionError("constructed network failed the resilience check")
    keep_lambda(graph, k + 1)


def _cycle_links(order) -> set:
    """The unordered links (u, v), u < v, of the cycle through ``order``."""
    return {(u, v) if u < v else (v, u) for u, v in zip(order, order[1:] + order[:1])}


def _arc_floor(order, pairs) -> int:
    """Fewest ``pairs`` links leaving an arc of the Hamiltonian cycle
    through ``order``.

    Number the nodes 0..n-1 along the cycle.  Each arc or its complement is
    I = [g1, g2) with 0 <= g1 < g2 < n, and a link at positions p < q leaves
    I when g1 <= p < g2 <= q or p < g1 <= q < g2.  For one g1, ``diff[j]``
    counts the links with p = j - 1, minus those with q = j - 1, plus twice
    those with q = j - 1 and p < g1; the prefix sums of diff[g1 + 1 : n]
    are then the links leaving I for g2 = g1 + 1, ..., n - 1.
    """
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    diff = [0] * (n + 1)
    turns = [[] for _ in range(n)]  # at g1 = p + 1: the q + 1 of each link
    for u, v in pairs:
        p, q = sorted((pos[u], pos[v]))
        diff[p + 1] += 1
        diff[q + 1] -= 1
        turns[p + 1].append(q + 1)
    best = len(pairs)
    for g1 in range(n - 1):
        for j in turns[g1]:
            diff[j] += 2
        best = min(best, min(itertools.accumulate(diff[g1 + 1 : n])))
    return best


def build_generalized(n1: int, n2: int, k: int, costs: CostProfile) -> BuiltNetwork | None:
    """Equilibrium network of a symmetric instance (n1 == n2, 1 <= k < n1).

    Runs the stage-1 split, then ``_realize`` builds its counts: the
    superposition of floor((k+1)/2) edge-disjoint Hamiltonian cycles
    (either layer parity), plus one perfect matching when k is even, plus
    the extra vertical of the parity shape.  Every output realizes
    exactly the planned per-owner link counts and is certified
    k-resistant before being returned; None when stage 1 finds no level.
    """
    _check_domain(n1, n2, k)
    plan = stage1_allocate(n1, k, costs)
    if plan is None:
        return None
    graph, orders = _realize(n1, k, plan.counts)
    return BuiltNetwork(graph, plan, orders)


def _team_design(n1: int, n2: int, k: int, costs: CostProfile):
    """(graph, cost) of a coordinated design at the capped joint floor,
    realized by ``_realize`` from the floor's argmin of x cross links.

    Each layer takes ceil((n(k+1) - x)/2) mirrored intra links, so the
    counts total n(k+1) + 1 links when n(k+1) - x is odd (x = k + 1 with
    n and k even): the parity shape, with its extra vertical.  The
    cheaper cross builder owns every cross link.
    """
    _check_domain(n1, n2, k)
    cost, x = _joint_cost_floor(n1, n1, k, costs)
    e11 = (n1 * (k + 1) - x + 1) // 2
    op1_cross = x if costs.c12 <= costs.c21 else 0
    counts = dict(zip(LINK_KINDS, (e11, op1_cross, e11, x - op1_cross)))
    return _realize(n1, k, counts)[0], cost


def structured_solve(n1: int, n2: int, costs: CostProfile):
    """Equilibrium of a symmetric instance via the stage-1 split, with
    attack budget k = floor(1/cA).

    Returns (SpeSolution, BuiltNetwork), or (null SpeSolution, None).  A
    game that ``null_spe_check`` settles is null in any shape; any other
    must lie in the structured domain (``_check_domain``), in any cost
    order.
    """
    k = attack_budget(costs.ca)
    built = None if null_spe_check(n1, n2, k, costs) else build_generalized(n1, n2, k, costs)
    if built is None:
        return SpeSolution.null(k, n1, n2, "structured"), None
    plan = built.plan
    solution = SpeSolution(
        k=k,
        is_null=False,
        u1=1 - plan.c1_total,
        profiles=(StrategyProfile(built.graph),),
        u2_values=(1 - plan.c2_total,),
        method="structured",
    )
    return solution, built
