"""Equilibrium network construction.

``build_generalized`` is the one builder.  It realizes the equilibrium
topology over the 2*n1 nodes (either layer parity) as a superposition of
floor((k+1)/2) pairwise edge-disjoint Hamiltonian cycles, plus, for even
k, one perfect matching of pairs no cycle uses, after a closed-form
stage-1 split of the link budget between the two operators:

  stage 1  decide how many links operator 1 contributes (intra first,
           cross only after the intra budget is exhausted);
  stage 2  m mirrored cycles: a layer-1 Hamiltonian path by operator 1,
           its mirror image in layer 2 by operator 2, two cross closers;
  stage 3  one mixed cycle consuming the leftover z intra links per layer;
  stage 4  remaining cycles built purely from cross links;
  stage 5  (even k) the matching: the intra budget the cycles could not
           hold as mirrored intra pairs, the rest cross or vertical links.

The cycles come from the Walecki decomposition of K_n1 for odd n1, each
opened at a closed-form edge, and from the zigzag path decomposition for
even n1.

Every constructed network is re-verified (exact edge counts against the
stage-1 plan, degree k + 1 everywhere, the tagged cycles are edge-disjoint
Hamiltonian cycles made of the graph's links, and the whole graph
survives any k link removals); a construction that fails verification
raises instead of returning silently.

Lemma (cycle certificate).  Every edge cut crosses a Hamiltonian cycle at
least twice: the cycle visits both sides and must come back.  So r
edge-disjoint Hamiltonian cycles among a graph's links give lambda >= 2r.
For odd k the (k+1)/2 tagged cycles, as unordered pairs, are exactly the
graph's links, so lambda >= k + 1, and degree k + 1 gives lambda <= k + 1:
the builder records lambda = k + 1 on the graph and runs no flow.  For
even k the k/2 cycles prove only lambda >= k, so one max flow is the
certificate.  Either way the lambda stays on the returned graph, so later
lambda queries on it run no flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connectivity import connected_pairs, edge_connectivity, keep_lambda
from .game import (
    CostProfile,
    SpeSolution,
    StrategyProfile,
    attack_budget,
    null_spe_check,
)
from .graph import EdgeClass, LayeredGraph, Owner, degrees, from_pairs, new_graph

OP1 = Owner.OPERATOR1
OP2 = Owner.OPERATOR2


class ConstructionError(ValueError):
    """Infeasible parameters or a build that failed verification."""


@dataclass(frozen=True)
class StageOnePlan:
    """Link-budget split decided in stage 1 (layer sizes equal)."""

    n1: int
    k: int
    e11: int
    e12: int
    c1_total: Fraction
    c2_total: Fraction

    @property
    def total_links(self) -> int:
        return self.n1 * (self.k + 1)

    @property
    def e1(self) -> int:
        return self.e11 + self.e12

    @property
    def op2_intra(self) -> int:
        """Operator 2 mirrors every operator-1 intra link."""
        return self.e11

    @property
    def op2_cross(self) -> int:
        return self.total_links - 2 * self.e11 - self.e12

    @property
    def feasible(self) -> bool:
        return self.c1_total < 1 and self.c2_total < 1


@dataclass(frozen=True)
class BuiltNetwork:
    graph: LayeredGraph
    plan: StageOnePlan
    cycle_tags: tuple  # frozenset of (u, v) pairs per cycle; empty for a null network

    @property
    def is_null(self) -> bool:
        return not self.plan.feasible

    @property
    def cycles_built(self) -> int:
        return len(self.cycle_tags)


def stage1_allocate(n1: int, k: int, costs: CostProfile) -> StageOnePlan:
    """Operator 1's minimal contribution letting operator 2 stay under cost 1.

    Starting from the all-cross estimate x = n1*(k+1)*c21, each operator-1
    intra link replaces two operator-2 cross links with one mirrored intra
    link, saving d = 2*c21 - c2 > 0; once the intra budget (n1-1)(k+1)/2
    is exhausted, further operator-1 links are cross links saving c21
    each, up to k + 1 of them.  Operator 1 adds links until operator 2's
    cost falls below 1, so each phase's count is one floor division.
    Runs in exact rationals so the strict cost < 1 boundary is decided
    correctly.
    Requires 1 <= k < n1, the builder's domain; beyond it a plan's counts
    need not fit the graph (n1 = 3, k = 4 would plan 15 cross links among
    9 cross pairs).
    """
    if k < 1:
        raise ConstructionError("attack budget must be at least 1")
    if k >= n1:
        raise ConstructionError("requires k < n1")
    if not (costs.c1 <= costs.c12 and costs.c2 <= costs.c21):
        raise ConstructionError("requires c1 <= c12 and c2 <= c21")
    nb11 = (n1 - 1) * (k + 1) // 2
    total = n1 * (k + 1)
    x = total * costs.c21
    d = 2 * costs.c21 - costs.c2
    e1 = _steps_below_one(x, d)
    if e1 > nb11:
        # Beyond e12 = k + 1 operator 2's cross count would go negative, so
        # the instance is infeasible for this topology family.
        e1 = min(nb11 + _steps_below_one(x - nb11 * d, costs.c21), nb11 + k + 1)
    e12 = max(0, e1 - nb11)
    e11 = e1 - e12
    c1_total = e12 * costs.c12 + e11 * costs.c1
    c2_total = e11 * costs.c2 + (total - 2 * e11 - e12) * costs.c21
    return StageOnePlan(n1, k, e11, e12, c1_total, c2_total)


def _steps_below_one(x: Fraction, step: Fraction) -> int:
    """Fewest subtractions of ``step`` > 0 that take ``x`` below 1."""
    return (x - 1) // step + 1 if x >= 1 else 0


def build_harary(n: int, r: int) -> list:
    """Edge set of the circulant Harary graph H(n, r) on nodes 0..n-1.

    Edge connectivity r with the minimum possible ceil(n*r/2) edges.
    """
    if not 2 <= r < n:
        raise ConstructionError(f"Harary graph needs 2 <= r < n, got ({n}, {r})")
    edges = set()
    for d in range(1, r // 2 + 1):
        for i in range(n):
            u, v = i, (i + d) % n
            edges.add((min(u, v), max(u, v)))
    if r % 2 == 1:
        if n % 2 == 0:
            for i in range(n // 2):
                edges.add((i, i + n // 2))
        else:
            for i in range(n // 2 + 1):
                u, v = i, (i + n // 2) % n
                edges.add((min(u, v), max(u, v)))
    assert len(edges) == (n * r + 1) // 2
    return sorted(edges)


# ---------------------------------------------------------------------------
# Hamiltonian building blocks.
# ---------------------------------------------------------------------------


def _zigzag(length: int, r: int) -> list:
    """Zigzag sequence r, r+1, r-1, r+2, ... covering Z_length."""
    seq = [r]
    for i in range(1, length):
        off = (i + 1) // 2
        seq.append((r + off) % length if i % 2 == 1 else (r - off) % length)
    return seq


def _walecki_cycle(n: int, r: int) -> list:
    """r-th Hamiltonian cycle of the classical decomposition of K_n (n odd)."""
    hub = n - 1
    return [hub] + _zigzag(n - 1, r)


def _ham_sequence(n: int, r: int) -> list:
    """r-th sequence of ``ham_path_decomposition(n)``, built on its own."""
    return _zigzag(n, r) if n % 2 == 0 else _walecki_cycle(n, r)


def ham_path_decomposition(n: int) -> list:
    """Edge-disjoint Hamiltonian path/cycle sequences covering K_n.

    For even n: n/2 Hamiltonian paths (as node sequences).  For odd n:
    (n-1)/2 Hamiltonian cycles (sequences whose closing edge is implied).
    """
    return [_ham_sequence(n, r) for r in range(n // 2)]


def _mixed_cycle(n1: int, seq: list, z: int, out: list, closer_slots: list):
    """Cycle unit: z mirrored intra steps, the rest cross-switched.

    Each mirrored step is a layer-1 link by operator 1 and its layer-2
    mirror by operator 2; each cross-switched step is two cross links by
    operator 2.  The two end links (closer slots, operator 2 until stage 1
    hands some to operator 1) join the two strands into a single cycle
    through all 2*n1 nodes: verticals at the sequence ends, or, for a
    fully mirrored cycle (z = n1 - 1) on odd n1, the twisted pair
    (u, w+n1), (w, u+n1), the cross versions of the edge the Walecki
    cycle was opened at.  With z = 0 this is an all-cross Hamiltonian cycle.
    """
    tag = []
    for i in range(z):
        a, b = seq[i], seq[i + 1]
        out.append([a, b, OP1])
        tag.append((a, b))
        out.append([a + n1, b + n1, OP2])
        tag.append((a + n1, b + n1))
    for i in range(z, len(seq) - 1):
        a, b = seq[i], seq[i + 1]
        out.append([a, b + n1, OP2])
        tag.append((a, b + n1))
        out.append([b, a + n1, OP2])
        tag.append((b, a + n1))
    u, w = seq[0], seq[-1]
    twisted = n1 % 2 == 1 and z == n1 - 1
    for a, b in [(u, w + n1), (w, u + n1)] if twisted else [(u, u + n1), (w, w + n1)]:
        closer_slots.append(len(out))
        out.append([a, b, OP2])
        tag.append((a, b))
    return tag


def _opening_edge(n: int, r: int) -> frozenset:
    """Edge at which Walecki cycle r of K_n (n odd) is opened.

    With c = (n-1)/2 and hub n-1 = 2c, cycle r holds every pair of
    0..2c-1 whose sum is 2r+1 mod 2c, so {r, r+1} (r even) and
    {c+r, c+r+1} (r odd, c+r+1 < 2c) lie on it.  For r = c-1 with c even
    the second is {2c-1, 2c}, the cycle's link to the hub.  The c edges
    so chosen share no endpoint, so no node ends two opened paths.
    """
    a = r if r % 2 == 0 else (n - 1) // 2 + r
    return frozenset((a, a + 1))


def _open_at(seq: list, edge: frozenset) -> list:
    """Hamiltonian path left by removing ``edge`` from the closed ``seq``."""
    n = len(seq)
    return _rotate_open(seq, next(p for p in range(n) if {seq[p], seq[(p + 1) % n]} == edge))


def _rotate_open(seq: list, p: int) -> list:
    """Open a cyclic sequence by removing the edge after position p."""
    return seq[p + 1 :] + seq[: p + 1]


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def _build_cycle_superposition(n1: int, k: int, plan: StageOnePlan):
    """Edge list, closer slots and cycle tags for any k and layer parity.

    (k+1)//2 Hamiltonian cycles take the intra budget first; for even k a
    perfect matching of pairs no cycle uses adds the last degree.
    """
    N = n1
    C = (k + 1) // 2
    held = min(plan.e11, C * (N - 1))  # intra links per layer the cycles hold
    m, z = divmod(held, N - 1)
    out: list = []
    closer_slots: list = []

    # One Hamiltonian path of the complete-graph decomposition per cycle:
    # a Walecki cycle opened at its closed-form edge for odd N, a zigzag
    # path for even N.  The first m are mirrored, the next one carries
    # the z leftover intra steps, the rest are all-cross.  Stage 1 hands
    # closers to operator 1 only once the intra budget is spent (e12 > 0
    # implies m = C), so only mirrored cycles' closers change hands.
    paths = [_ham_sequence(N, r) for r in range(C)]
    openings = []
    if N % 2 == 1:
        openings = [_opening_edge(N, r) for r in range(C)]
        paths = [_open_at(seq, e) for seq, e in zip(paths, openings)]
    steps = [N - 1] * m + [z] + [0] * C
    tags = [_mixed_cycle(N, path, steps[i], out, closer_slots) for i, path in enumerate(paths)]
    if k % 2 == 0:
        _add_matching(N, plan.e11 - held, paths, openings, m, out, closer_slots)
    return out, closer_slots, tags


def _add_matching(N: int, q: int, paths: list, openings: list, m: int, out: list, closer_slots: list):
    """Even-k unit: a perfect matching of the 2*N nodes on pairs no cycle uses.

    The layer-1 pairs are consecutive nodes of one sequence: zigzag path C
    for even N; for odd N and C < (N-1)/2 the last Walecki cycle, which no
    cycle took, rotated to end at the last node that ends no opened path;
    for odd N and C = (N-1)/2 the opening edges, mirrored cycles' first.
    The first q pairs carry the leftover intra budget as mirrored intra
    links; the others become the two cross links (a, b+N) and (b, a+N),
    except the opening pair of a mirrored cycle, whose cross versions are
    that cycle's twisted closers and which becomes two verticals.  For odd
    N the node no pair covers takes a vertical; it ends no opened path, so
    no cycle holds that vertical.
    """
    C = len(paths)
    if N % 2 == 0:
        seq = _zigzag(N, C)
    elif C < (N - 1) // 2:
        ends = {v for path in paths for v in (path[0], path[-1])}
        cycle = _walecki_cycle(N, (N - 1) // 2 - 1)
        seq = _rotate_open(cycle, cycle.index([v for v in cycle if v not in ends][-1]))
    else:
        seq = [v for e in openings for v in sorted(e)]
        seq += sorted(set(range(N)) - set(seq))
    mirrored, links = openings[:m], []
    for i, (a, b) in enumerate(zip(seq[0::2], seq[1::2])):
        if i < q:
            out.append([a, b, OP1])
            out.append([a + N, b + N, OP2])
        elif {a, b} in mirrored:
            links += [(a, a + N), (b, b + N)]
        else:
            links += [(a, b + N), (b, a + N)]
    if N % 2 == 1:
        links.append((seq[-1], seq[-1] + N))
    for a, b in links:
        closer_slots.append(len(out))
        out.append([a, b, OP2])


def _assemble(n1: int, plan: StageOnePlan, out, closer_slots, tags) -> BuiltNetwork:
    for slot in closer_slots[: plan.e12]:
        out[slot][2] = OP1
    graph = from_pairs(n1, n1, [(a, b, o) for a, b, o in out])
    _verify_built(graph, plan, tags)
    return BuiltNetwork(graph, plan, tuple(frozenset(t) for t in tags))


def _verify_built(graph: LayeredGraph, plan: StageOnePlan, tags):
    n1, k = plan.n1, plan.k
    counts = {
        (OP1, EdgeClass.INTRA1): plan.e11,
        (OP1, EdgeClass.CROSS): plan.e12,
        (OP2, EdgeClass.INTRA2): plan.op2_intra,
        (OP2, EdgeClass.CROSS): plan.op2_cross,
    }
    got = graph.tally()
    for key, want in counts.items():
        if got[key] != want:
            raise ConstructionError(f"count mismatch for {key}: built {got[key]}, planned {want}")
    if len(graph.edges) != plan.total_links:
        raise ConstructionError("total link count does not match the plan")
    if any(d != k + 1 for d in degrees(graph.n, graph.edge_pairs())):
        raise ConstructionError("constructed network is not (k+1)-regular")
    # The (k+1)//2 tagged cycles take degree 2 at every node; with every
    # degree k + 1 the untagged rest of an even-k build is a perfect matching.
    # Links are unordered, so (u, v) and (v, u) are one link.
    seen = set()
    for tag in tags:
        tag = {(min(u, v), max(u, v)) for u, v in tag}
        if seen & tag:
            raise ConstructionError("cycles are not edge-disjoint")
        seen |= tag
        if not _is_ham_cycle(graph.n, tag):
            raise ConstructionError("a tagged edge set is not a Hamiltonian cycle")
    if len(seen) != graph.n * ((k + 1) // 2):
        raise ConstructionError("cycle tags do not cover 2 * n1 * floor((k+1)/2) links")
    pairs = graph.edge_pairs()
    if not (seen == pairs if k % 2 else seen <= pairs):
        raise ConstructionError("cycle tags are not the graph's links")
    # Odd k: the module docstring's lemma proves lambda = k + 1.  Even k:
    # every degree is k + 1, so the certificate is the full flow.  Either
    # way lambda stays on the graph for every later lambda query.
    if k % 2:
        keep_lambda(graph, k + 1)
    elif edge_connectivity(graph) < k + 1:
        raise ConstructionError("constructed network failed the resilience check")


def _is_ham_cycle(n: int, pairs: set) -> bool:
    if len(pairs) != n:
        return False
    return all(d == 2 for d in degrees(n, pairs)) and connected_pairs(n, pairs)


def build_generalized(n1: int, n2: int, k: int, costs: CostProfile) -> BuiltNetwork:
    """Equilibrium network of a symmetric instance (n1 == n2, k < n1).

    Runs the stage-1 split, then builds the topology: the superposition
    of floor((k+1)/2) edge-disjoint Hamiltonian cycles (either layer
    parity), plus one perfect matching when k is even.  Every output
    realizes exactly the planned per-owner link counts and is certified
    k-resistant before being returned; a null network is returned when
    stage 1 is infeasible.
    """
    if n1 != n2:
        raise ConstructionError("generalized builder needs equal layer sizes")
    plan = stage1_allocate(n1, k, costs)
    if not plan.feasible:
        return BuiltNetwork(new_graph(n1, n1), plan, ())
    return _assemble(n1, plan, *_build_cycle_superposition(n1, k, plan))


def structured_solve(n1: int, n2: int, costs: CostProfile):
    """Equilibrium of a symmetric instance via the stage-1 split, with
    attack budget k = floor(1/cA).

    Returns (SpeSolution, BuiltNetwork or None).  Requires n1 == n2.  An
    instance that ``null_spe_check`` declares null answers null with no
    network, whatever the cost order; any other needs 1 <= k < n1,
    c1 <= c12 and c2 <= c21.
    """
    if n1 != n2:
        raise ConstructionError("structured solver needs equal layer sizes")
    k = attack_budget(costs.ca)
    if null_spe_check(n1, n2, k, costs)[0]:
        return SpeSolution.null(k, method="structured"), None
    built = build_generalized(n1, n2, k, costs)
    if built.is_null:
        return SpeSolution.null(k, method="structured"), built
    plan = built.plan
    solution = SpeSolution(
        k=k,
        is_null=False,
        u1=1 - plan.c1_total,
        uA=Fraction(0),
        profiles=(StrategyProfile.from_graph(built.graph),),
        u2_values=(1 - plan.c2_total,),
        method="structured",
    )
    return solution, built
