"""Network construction.

The structured route covers n1 == n2 with 1 <= k < n1, checked in one
place (``_check_domain``).  One realizer, ``_realize``, turns a plan's
three counts (e11 intra links per layer, e12 and operator 2's cross links)
into both the equilibrium network (``build_generalized``) and a large
team optimum (``metrics.team_optimal``) over the 2*n1 nodes (either
layer parity): a superposition of floor((k+1)/2) pairwise edge-disjoint
Hamiltonian cycles, plus, for even k, one perfect matching of pairs no
cycle uses, plus one extra vertical when the counts total n1(k+1) + 1.
The equilibrium network follows a stage-1 split of the link budget
between the two operators:

  stage 1  the cheapest operator-1 level (e11 intra, e12 cross links) whose
           ``game._level_floor`` is below 1; operator 2 mirrors its intra
           links and buys the floor's argmin x of cross links;
  stage 2  m mirrored cycles: a layer-1 Hamiltonian path, its mirror image
           in layer 2, two vertical closers;
  stage 3  one mixed cycle consuming the leftover z intra links per layer;
  stage 4  remaining cycles built purely from cross links;
  stage 5  (even k) the matching: the intra budget the cycles could not
           hold as mirrored intra pairs, the rest cross or vertical links;
  stage 6  the extra vertical, at the first node without one, when
           2*e11 + e12 + x = n1(k+1) + 1;
  stage 7  the certificate (``_verify_built``) proves the links
           k-resistant and returns them;
  stage 8  each link is filed by its ends, and operator 1 takes e12 of the
           cross links, closers first; the four built counts must be
           (e11, e12, e11, x), the plan's.

Every layer size takes the same layout: cycle r runs along zigzag path r
of K_n1 (``_zigzag``), and the even-k matching pairs consecutive nodes of
zigzag path (k+1)//2.  The builder returns each cycle as its node order,
the certificate a build carries (``BuiltNetwork.cycle_tags``), and R, the
links on no cycle (stages 5 and 6); the two are the one source of the
build's links.  An order is a Hamiltonian cycle when it is a permutation
of the nodes, and its links are its n consecutive pairs, the last one
back to the first node.  A build that fails a check raises.

Lemma (cycle certificate).  Every edge cut crosses a Hamiltonian cycle at
least twice: the cycle visits both sides and must come back.  So r
edge-disjoint Hamiltonian cycles among a graph's links give lambda >= 2r.
For odd k the (k+1)/2 cycles, as unordered pairs, are exactly the
graph's links (R is empty), so lambda >= k + 1.

Lemma (arc certificate, even k).  Let k = 2c, H_0, ..., H_{c-1} the
cycles and R the other links (the matching, and the parity shape's extra
vertical).  A cut crosses each H_r at least twice, so lambda(G) >=
2(c - 1) + lambda(H_0 + R).  A cut of H_0 + R crosses H_0 an even number
of times, and exactly twice only when its side is an arc of H_0.  So if
an R link leaves every proper arc of H_0, then lambda(H_0 + R) >= 3 and
lambda >= k + 1.  ``_closed_arc`` decides that in O(n + |R|) expected
time, with no flow.  The lemma is a proof, not an iff: a build that fails
it raises.

Least degree k + 1.  Each cycle gives every node degree 2, and for even k
each single node is an arc of H_0, so an R link leaves it: every degree
is at least k + 1.  The counts total at most n1(k+1) + 1 links, so the
degrees sum to at most 2*n1(k+1) + 2 < 2*n1(k+2) (n1 >= 2), and some node
has degree below k + 2.  So the least degree is exactly k + 1 (the parity
shape's extra vertical raises only its two ends to k + 2), which gives
lambda <= k + 1; with either lemma, lambda = k + 1.  The build records it
on the returned graph, so later lambda queries on it run no flow.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .connectivity import keep_lambda
from .game import (
    CostProfile,
    SpeSolution,
    StrategyProfile,
    _check_layers,
    _level_floor,
    _scale,
    attack_budget,
    null_spe_check,
)
from .graph import LayeredGraph


class ConstructionError(ValueError):
    """A game outside the structured domain or a build that failed verification."""


def _check_domain(n1: int, n2: int, k: int):
    """Raise unless the structured route covers the game: ints n1 == n2 and 1 <= k < n1."""
    if not all(type(v) is int for v in (n1, n2, k)) or n1 != n2 or not 1 <= k < n1:
        raise ConstructionError(
            f"the structured route needs n1 == n2 and 1 <= k < n1, got n1 = {n1!r}, n2 = {n2!r}, k = {k!r}"
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


@dataclass(frozen=True)
class BuiltNetwork:
    graph: LayeredGraph
    plan: StageOnePlan
    cycle_tags: tuple  # the node order of each cycle


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
    """Zigzag sequence r, r+1, r-1, r+2, ... covering Z_length, 0 <= r < length.

    Its steps alternate between the layer-1 pairs of sum 2r + 1 and of
    sum 2r (mod length), and it holds every such pair, so zigzag paths r
    and r' share no link when 2r, 2r + 1, 2r', 2r' + 1 are distinct mod
    length.  It ends at r and at r + ceil(length/2).
    """
    seq = [r] * length
    seq[::2] = [v % length for v in range(r, r - (length + 1) // 2, -1)]  # r, r-1, r-2, ...
    seq[1::2] = [v % length for v in range(r + 1, r + 1 + length // 2)]  # r+1, r+2, ...
    return seq


def _mixed_cycle(n1: int, seq: list, z: int) -> tuple:
    """Node order of a cycle unit: z mirrored intra steps, the rest cross-switched.

    Each mirrored step is a layer-1 link and its layer-2 mirror; each
    cross-switched step is two cross links.  The two verticals at the
    sequence ends (the closers) join the two strands into a single cycle
    through all 2*n1 nodes.  With z = 0 this is an all-cross Hamiltonian
    cycle.  The order is the top strand, seq[:z+1] in layer 1 and then
    alternating layers, followed by the bottom strand reversed.
    """
    top, bottom = list(seq), [a + n1 for a in seq]
    top[z + 1 :: 2], bottom[z + 1 :: 2] = bottom[z + 1 :: 2], top[z + 1 :: 2]  # the strands cross
    return tuple(top + bottom[::-1])


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def _build_cycle_superposition(n1: int, k: int, e11: int, extra: int):
    """(orders, rest): the cycle node orders and the links on no cycle, for
    any k and layer parity, with e11 mirrored intra links per layer.

    (k+1)//2 Hamiltonian cycles take the intra budget first; for even k a
    perfect matching of pairs no cycle uses adds the last degree, and
    ``extra`` = 1 adds the parity shape's vertical at the first node
    without one, last in ``rest``.  Cycle r is laid on zigzag path r of
    layer 1.  Since k < n1, C = (k+1)//2 is at most n1//2, so the sum
    classes 0..2C-1 of the C paths are distinct mod n1: the paths are
    edge-disjoint, and their 2C ends r and r + ceil(n1/2) are distinct,
    so are the verticals closing them.
    """
    N = n1
    C = (k + 1) // 2
    held = min(e11, C * (N - 1))  # intra links per layer the cycles hold
    m, z = divmod(held, N - 1)
    # The first m paths are mirrored, the next one carries the z leftover
    # intra steps, the rest are all-cross.
    steps = [N - 1] * m + [z] + [0] * C
    orders = tuple(_mixed_cycle(N, _zigzag(N, r), steps[r]) for r in range(C))
    rest = _add_matching(N, C, e11 - held) if k % 2 == 0 else []
    if extra:
        taken = {a for order in orders for a in (order[0], order[N - 1] % N)}
        taken |= {a for a, b in rest if b == a + N}
        v = next((v for v in range(N) if v not in taken), None)
        if v is None:
            raise ConstructionError(f"the parity shape's extra vertical has no free node: all n1 = {N} have one")
        rest.append((v, v + N))
    return orders, rest


def _add_matching(N: int, C: int, q: int) -> list:
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
        links += [(a, b), (a + N, b + N)] if i < q else [(a, b + N), (b, a + N)]
    if N % 2:
        links.append((C, C + N))
    return links


def _cross_order(n1: int, orders, rest: list, extra: int):
    """The cross links in the order operator 1 takes them: each cycle's
    two closers, the matching's cross links, each cycle's other cross
    links step by step, then the parity shape's extra vertical."""
    for order in orders:
        yield from ((a, a + n1) for a in (order[0], order[n1 - 1] % n1))
    matching = rest[: len(rest) - extra]
    yield from (link for link in matching if link[0] < n1 <= link[1])
    for order in orders:
        for a, b in zip(order[: n1 - 1], order[1:n1]):
            if (a < n1) != (b < n1):
                a, b = a % n1, b % n1
                yield from ((a, b + n1), (b, a + n1))
    yield from rest[len(rest) - extra :]


def _realize(n1: int, k: int, e11: int, e12: int, op2_cross: int):
    """(graph, cycle orders): the certified network with e11 mirrored intra
    links per layer, e12 cross links of operator 1 and op2_cross of
    operator 2.

    The counts total n1(k+1) links, or n1(k+1) + 1 for the parity shape,
    whose extra vertical goes at the first node without one (it raises if
    no node is left).  ``_verify_built`` proves the links k-resistant and
    returns them; each is filed by its ends, and operator 1 takes the
    first e12 cross links of ``_cross_order``.  With the four counts the
    planned ones, the least degree is k + 1 (module docstring), and
    lambda = k + 1 is recorded on the graph.
    """
    extra = 2 * e11 + e12 + op2_cross - n1 * (k + 1)
    if extra not in (0, 1):
        raise ConstructionError(f"the counts total {n1 * (k + 1) + extra} links, not n1(k+1) or one more")
    orders, rest = _build_cycle_superposition(n1, k, e11, extra)
    links = _verify_built(2 * n1, k, orders, rest)
    intra1 = frozenset(link for link in links if link[1] < n1)
    intra2 = frozenset(link for link in links if link[0] >= n1)
    cross = links - intra1 - intra2
    op1_cross = cross.intersection(itertools.islice(_cross_order(n1, orders, rest, extra), e12))
    graph = LayeredGraph(n1, n1, (intra1, frozenset(op1_cross), intra2, frozenset(cross - op1_cross)))
    built, planned = tuple(map(len, graph.links)), (e11, e12, e11, op2_cross)
    if built != planned:
        raise ConstructionError(f"count mismatch: built {built} links per kind, planned {planned}")
    keep_lambda(graph, k + 1)
    return graph, orders


def _spanning_tree(n1: int, n2: int, a1: int, a2: int, op1_cross: bool) -> LayeredGraph:
    """The spanning tree at Kruskal's counts (each ai is ni - 1 or 0): a path
    through each layer with ai = ni - 1, the link (0, n1), node 0 to every
    other layer-2 node when a2 = 0 and node n1 to every other layer-1 node
    when a1 = 0.  Operator 1 owns the cross links when ``op1_cross``, else
    operator 2; lambda = 1 is recorded."""
    n, none = n1 + n2, frozenset()
    intra1 = frozenset((u, u + 1) for u in range(n1 - 1)) if a1 else none
    intra2 = frozenset((u, u + 1) for u in range(n1, n - 1)) if a2 else none
    cross = {(0, n1)} | {(0, v) for v in range(n1 + 1, n) if not a2}
    cross = frozenset(cross | {(u, n1) for u in range(1, n1) if not a1})
    graph = LayeredGraph(n1, n2, (intra1, cross, intra2, none) if op1_cross else (intra1, none, intra2, cross))
    keep_lambda(graph, 1)
    return graph


def _verify_built(n: int, k: int, orders, rest) -> set:
    """The links of the Hamiltonian cycles through ``orders`` plus the links
    ``rest``, (u, v) pairs, u < v, on nodes 0..n-1, once the module
    docstring's lemmas prove that no k of them cut the graph; raises
    otherwise.

    With k >= 1, there must be (k+1)//2 orders, each a permutation of 0..n-1,
    whose cycles share no link.  The ``rest`` links must be int pairs in
    range, no self-loop, each once and on no cycle.  For odd k there are
    none; for even k they leave every arc of the first cycle
    (``_closed_arc``), single nodes included, so they touch every node.
    A caller holding a graph compares the returned set with its pairs.
    """
    if k < 1:
        raise ConstructionError(f"the cycle certificate needs k >= 1, got k = {k}")
    if len(orders) != (k + 1) // 2:
        raise ConstructionError(f"{len(orders)} cycle orders do not cover (k+1)//2 = {(k + 1) // 2} cycles")
    nodes, links = set(range(n)), set()
    for order in orders:
        if len(order) != n or set(order) != nodes or set(map(type, order)) != {int}:
            raise ConstructionError("a cycle order is not a Hamiltonian cycle: it does not visit each node once")
        links.update(_cycle_links(order))
    if len(links) != n * len(orders):  # a permutation of n >= 3 nodes has n distinct links
        raise ConstructionError("cycles are not edge-disjoint")
    try:
        others = {(u, v) if u < v else (v, u) for u, v in rest}
    except (TypeError, ValueError) as exc:
        raise ConstructionError(f"a link off the cycles is not a (u, v) pair ({exc})") from exc
    if not all(type(u) is int and type(v) is int and 0 <= u < v < n for u, v in others):
        raise ConstructionError(f"a link off the cycles is not a pair of distinct int nodes in 0..{n - 1}")
    if len(others) != len(rest):
        raise ConstructionError("a link off the cycles is listed twice")
    if not links.isdisjoint(others):
        raise ConstructionError("a link off the cycles lies on a cycle")
    if k % 2 and others:
        raise ConstructionError("an odd-k build has links off its cycles")
    # The module docstring's lemmas: for odd k the cycles prove lambda >= k + 1;
    # for even k they do once the other links leave every arc of the first cycle.
    if k % 2 == 0 and _closed_arc(orders[0], others) is not None:
        raise ConstructionError("constructed network failed the resilience check")
    links |= others
    return links


def _cycle_links(order) -> set:
    """The unordered links (u, v), u < v, of the cycle through ``order``."""
    return {(u, v) if u < v else (v, u) for u, v in zip(order, order[1:] + order[:1])}


def _closed_arc(order, links):
    """Positions (g1, g2) of an arc order[g1:g2] of the Hamiltonian cycle
    through ``order`` that no link of ``links`` leaves, or None.

    Number the nodes 0..n-1 along the cycle.  A link at positions p < q
    crosses cut point j (0 <= j < n) when p < j <= q, and leaves the arc
    [g1, g2) exactly when it crosses one of g1 and g2; so the arc is closed
    exactly when g1 and g2 have the same crossing set.  The prefix XOR at
    j of a random 64-bit label per link, flipped at p + 1 and q + 1,
    fingerprints j's set.  Only cut points of equal fingerprint are
    compared exactly, in O(|links|) each, so a label collision costs time,
    never the answer; two distinct sets collide with probability 2^-64.
    """
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    spans = [(pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in links]
    flips = [0] * (n + 1)
    for (p, q), label in zip(spans, _link_labels(len(spans))):
        flips[p + 1] ^= label
        flips[q + 1] ^= label
    first, later = {}, {}  # fingerprint -> its first cut point, and its later ones
    for j, fingerprint in enumerate(itertools.accumulate(flips[:n], operator.xor)):
        i = first.setdefault(fingerprint, j)
        if i == j:
            continue
        # Cut points of one fingerprint hold pairwise distinct crossing sets.
        for i in (i, *later.get(fingerprint, ())):
            if all((i <= p < j) == (i <= q < j) for p, q in spans):
                return i, j
        later.setdefault(fingerprint, []).append(j)
    return None


def _link_labels(count: int) -> list:
    """``count`` 64-bit labels from a fixed-seed generator, for ``_closed_arc``."""
    rng = random.Random(0)
    return [rng.getrandbits(64) for _ in range(count)]


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
    graph, orders = _realize(n1, k, plan.e11, plan.e12, plan.op2_cross)
    return BuiltNetwork(graph, plan, orders)


def structured_solve(n1: int, n2: int, costs: CostProfile):
    """Equilibrium of a symmetric instance via the stage-1 split, with
    attack budget k = floor(1/cA).

    Returns (SpeSolution, BuiltNetwork), or (null SpeSolution, None).  A
    game that ``null_spe_check`` settles is null in any shape; any other
    must lie in the structured domain (``_check_domain``), in any cost
    order.  Layer sizes must be ints >= 1.
    """
    _check_layers(n1, n2, ConstructionError)
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
