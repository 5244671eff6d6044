"""Equilibrium network construction.

``build_generalized`` is the one builder.  For odd k it realizes the
equilibrium topology as a superposition of (k + 1)/2 pairwise
edge-disjoint Hamiltonian cycles over the 2*n1 nodes (either layer
parity), after a closed-form stage-1 split of the link budget between the
two operators:

  stage 1  decide how many links operator 1 contributes (intra first,
           cross only after the intra budget is exhausted);
  stage 2  m mirrored cycles: a layer-1 Hamiltonian path by operator 1,
           its mirror image in layer 2 by operator 2, two cross closers;
  stage 3  one mixed cycle consuming the leftover z intra links per layer;
  stage 4  remaining cycles built purely from cross links.

The cycles come from the Walecki decomposition of K_n1 for odd n1 and
from the zigzag path decomposition for even n1.

Every constructed network is re-verified (exact edge counts against the
stage-1 plan, degree k + 1 everywhere, the cycles partition the edge set,
and the whole graph survives any k link removals); a construction that
fails verification raises instead of returning silently.  The lambda of
that last check stays on the returned graph, so later lambda queries on
it run no flow.

For even k the builder uses a mirrored partial circulant plus
degree-driven cross placement, certified and locally rewired if the
resilience check fails.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from .connectivity import connected_pairs, edge_connectivity, edge_connectivity_pairs
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
    e1: int
    e11: int
    e12: int
    op2_intra: int
    op2_cross: int
    c1_total: Fraction
    c2_total: Fraction
    feasible: bool

    @property
    def total_links(self) -> int:
        return self.n1 * (self.k + 1)


@dataclass(frozen=True)
class BuiltNetwork:
    graph: LayeredGraph
    plan: StageOnePlan
    cycles_built: int
    cycle_tags: tuple  # frozenset of (u, v) pairs per cycle; empty if untagged

    @property
    def is_null(self) -> bool:
        return not self.plan.feasible


def stage1_allocate(n1: int, k: int, costs: CostProfile) -> StageOnePlan:
    """Operator 1's minimal contribution letting operator 2 stay under cost 1.

    Starting from the all-cross estimate n1*(k+1)*c21, each operator-1
    intra link replaces two operator-2 cross links with one mirrored intra
    link; once the intra budget (n1-1)(k+1)/2 is exhausted, further
    operator-1 links are cross links replacing one each.  Runs in exact
    rationals so the strict cost < 1 boundary is decided correctly.
    """
    if k < 1:
        raise ConstructionError("attack budget must be at least 1")
    if not (costs.c1 <= costs.c12 and costs.c2 <= costs.c21):
        raise ConstructionError("requires c1 <= c12 and c2 <= c21")
    nb11 = (n1 - 1) * (k + 1) // 2
    total = n1 * (k + 1)
    c2 = total * costs.c21
    e1 = 0
    # Beyond e12 = k + 1 operator 2's cross count would go negative, so the
    # instance is infeasible for this topology family.
    cap = nb11 + (k + 1)
    while c2 >= 1 and e1 < cap:
        e1 += 1
        if e1 <= nb11:
            c2 = c2 - 2 * costs.c21 + costs.c2
        else:
            c2 = c2 - costs.c21
    e12 = max(0, e1 - nb11)
    e11 = e1 - e12
    c1_total = e12 * costs.c12 + e11 * costs.c1
    op2_intra = e11
    op2_cross = total - 2 * e11 - e12
    feasible = c2 < 1 and c1_total < 1
    if feasible:
        assert c2 == op2_intra * costs.c2 + op2_cross * costs.c21
    return StageOnePlan(
        n1=n1,
        k=k,
        e1=e1,
        e11=e11,
        e12=e12,
        op2_intra=op2_intra,
        op2_cross=op2_cross,
        c1_total=c1_total,
        c2_total=c2,
        feasible=feasible,
    )


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


def _seq_edges(seq: list, closed: bool) -> list:
    edges = [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
    if closed:
        edges.append((seq[-1], seq[0]))
    return edges


def _mirrored_cycle(n1: int, path: list, closer: str, out: list, closer_slots: list):
    """Stage-2 unit: layer-1 path + mirrored layer-2 path + 2 cross closers."""
    tag = []
    for a, b in _seq_edges(path, closed=False):
        out.append([a, b, OP1])
        tag.append((a, b))
        out.append([a + n1, b + n1, OP2])
        tag.append((a + n1, b + n1))
    u, w = path[0], path[-1]
    if closer == "twisted":
        closers = [(u, w + n1), (w, u + n1)]
    else:
        closers = [(u, u + n1), (w, w + n1)]
    for a, b in closers:
        closer_slots.append(len(out))
        out.append([a, b, OP2])
        tag.append((a, b))
    return tag


def _mixed_cycle(n1: int, seq: list, z: int, out: list):
    """Stage-3/4 unit: z mirrored intra steps, the rest cross-switched.

    With z = 0 this is an all-cross Hamiltonian cycle.  The two vertical
    links at the sequence ends join the two alternating strands into a
    single cycle through all 2*n1 nodes.
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
    for v in (seq[0], seq[-1]):
        out.append([v, v + n1, OP2])
        tag.append((v, v + n1))
    return tag


def _steer_removals(cycles: list, blocked: set):
    """Pick one removal edge per cycle with pairwise-disjoint endpoints."""
    if not cycles:
        return []
    seq = cycles[0]
    for p, (a, b) in enumerate(_seq_edges(seq, closed=True)):
        if a in blocked or b in blocked:
            continue
        sub = _steer_removals(cycles[1:], blocked | {a, b})
        if sub is not None:
            return [p] + sub
    return None


def _rotate_open(seq: list, p: int) -> list:
    """Open a cyclic sequence by removing the edge after position p."""
    return seq[p + 1 :] + seq[: p + 1]


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def _build_cycle_superposition(n1: int, k: int, plan: StageOnePlan):
    """Edge list + cycle tags for odd k (layer size of either parity)."""
    N = n1
    C = (k + 1) // 2
    m = plan.e11 // (N - 1)
    z = plan.e11 - m * (N - 1)
    m12 = C - m - (1 if z else 0)
    out: list = []
    closer_slots: list = []
    tags = []

    # One Hamiltonian path of the complete-graph decomposition per cycle
    # (Walecki cycles for odd N, zigzag paths for even N), cross-switched
    # for the all-cross cycles.  Only the first C sequences are used.
    seqs = [_ham_sequence(N, r) for r in range(C)]
    if N % 2 == 1:
        switch = seqs[m : C]
        removals = _steer_removals(switch, set())
        if removals is None:
            raise ConstructionError("could not steer cycle openings")
        paths = [_rotate_open(seqs[r], 0) for r in range(m)]
        opened = [_rotate_open(sq, p) for sq, p in zip(switch, removals)]
        closer = "twisted"
    else:
        paths = seqs[:m]
        opened = seqs[m:C]
        closer = "vertical"
    for path in paths:
        tags.append(_mirrored_cycle(N, path, closer, out, closer_slots))
    if z:
        tags.append(_mixed_cycle(N, opened[0], z, out))
        opened = opened[1:]
    for seq in opened[:m12]:
        tags.append(_mixed_cycle(N, seq, 0, out))
    return out, closer_slots, tags, C


def _build_even_k(n1: int, k: int, plan: StageOnePlan):
    """Mirrored partial circulant + degree-driven cross placement (even k)."""
    N = n1
    intra: dict = {}  # pairs in insertion order
    d = 1
    while len(intra) < plan.e11:
        if d > N // 2:
            raise ConstructionError("intra budget exceeds the layer-1 pool")
        for i in range(N):
            u, v = i, (i + d) % N
            intra[(min(u, v), max(u, v))] = None
            if len(intra) == plan.e11:
                break
        d += 1
    out = [[a, b, OP1] for a, b in intra]
    out += [[a + N, b + N, OP2] for a, b in intra]

    deficit = [k + 1 - d for d in degrees(2 * N, [(a, b) for a, b, _ in out])]
    total_cross = N * (k + 1) - 2 * plan.e11
    assert sum(deficit) == 2 * total_cross

    # Each layer's nodes by positive remaining deficit, in index order.  A
    # link goes from the layer-1 node u of largest deficit (smallest index
    # on ties) to the layer-2 node of largest deficit not yet linked to u,
    # the first one at or after u's mirror N + u on ties, cyclically.
    levels = [[[] for _ in range(k + 2)] for _ in range(2)]
    for v, dv in enumerate(deficit):
        if dv > 0:
            levels[v // N][dv].append(v)

    def lower(v):
        side = levels[v // N]
        del side[deficit[v]][bisect_left(side[deficit[v]], v)]
        deficit[v] -= 1
        if deficit[v]:
            insort(side[deficit[v]], v)

    cross = []
    used = set()
    for _ in range(total_cross):
        u = next((level[0] for level in reversed(levels[0]) if level), None)
        w = None if u is None else next(
            (x for level in reversed(levels[1]) for x in _cyclic_from(level, N + u) if (u, x) not in used),
            None,
        )
        if w is None:
            raise ConstructionError("cross placement ran out of slots")
        used.add((u, w))
        cross.append((u, w))
        lower(u)
        lower(w)

    fixed = [(a, b) for a, b, _ in out]
    cross = _repair_cross(2 * N, fixed, cross, k)
    closer_slots = list(range(len(out), len(out) + len(cross)))
    out += [[a, b, OP2] for a, b in cross]
    return out, closer_slots, [], 0


def _cyclic_from(level: list, v: int):
    """The sorted ``level`` read cyclically from its first entry >= v."""
    start = bisect_left(level, v)
    return (level[(start + j) % len(level)] for j in range(len(level)))


def _repair_cross(n: int, fixed: list, cross: list, k: int, max_rounds: int = 64):
    """Bounded 2-opt rewiring of cross links until the graph resists k removals."""
    def lam(cr):
        return edge_connectivity_pairs(n, fixed + cr, cap_at=k + 1)

    current = lam(cross)
    rounds = 0
    while current < k + 1 and rounds < max_rounds:
        rounds += 1
        improved = False
        for i in range(len(cross)):
            for j in range(i + 1, len(cross)):
                a, b = cross[i]
                c, d = cross[j]
                if a == c or b == d:
                    continue
                if (a, d) in cross or (c, b) in cross:
                    continue
                trial = list(cross)
                trial[i], trial[j] = (a, d), (c, b)
                value = lam(trial)
                if value > current:
                    cross, current = trial, value
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    if current < k + 1:
        raise ConstructionError("could not certify resilience after rewiring")
    return cross


def _assemble(n1: int, plan: StageOnePlan, out, closer_slots, tags, cycles) -> BuiltNetwork:
    for slot in closer_slots[: plan.e12]:
        out[slot][2] = OP1
    graph = from_pairs(n1, n1, [(a, b, o) for a, b, o in out])
    _verify_built(graph, plan, tags)
    return BuiltNetwork(graph, plan, cycles, tuple(frozenset(t) for t in tags))


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
    if tags:
        seen = set()
        for tag in tags:
            tag = set(tag)
            if seen & tag:
                raise ConstructionError("cycles are not edge-disjoint")
            seen |= tag
            if not _is_ham_cycle(graph.n, tag):
                raise ConstructionError("a tagged edge set is not a Hamiltonian cycle")
        if len(seen) != len(graph.edges):
            raise ConstructionError("cycle tags do not cover the edge set")
    # Every degree is k + 1, so this is the full flow, and it stays on the
    # graph for every later lambda query.
    if edge_connectivity(graph) < k + 1:
        raise ConstructionError("constructed network failed the resilience check")


def _is_ham_cycle(n: int, pairs: set) -> bool:
    if len(pairs) != n:
        return False
    return all(d == 2 for d in degrees(n, pairs)) and connected_pairs(n, pairs)


def build_generalized(n1: int, n2: int, k: int, costs: CostProfile) -> BuiltNetwork:
    """Equilibrium network of a symmetric instance (n1 == n2, k < n1).

    Runs the stage-1 split, then builds the topology: the superposition
    of (k+1)/2 edge-disjoint Hamiltonian cycles when k is odd (either
    layer parity), a mirrored partial circulant with degree-driven cross
    placement when k is even.  Every output realizes exactly the planned
    per-owner link counts and is certified k-resistant before being
    returned; a null network is returned when stage 1 is infeasible.
    """
    if n1 != n2:
        raise ConstructionError("generalized builder needs equal layer sizes")
    if k >= n1:
        raise ConstructionError("requires k < n1")
    plan = stage1_allocate(n1, k, costs)
    if not plan.feasible:
        return BuiltNetwork(new_graph(n1, n1), plan, 0, ())
    if k % 2 == 1:
        out, closer_slots, tags, cycles = _build_cycle_superposition(n1, k, plan)
    else:
        out, closer_slots, tags, cycles = _build_even_k(n1, k, plan)
    return _assemble(n1, plan, out, closer_slots, tags, cycles)


def structured_solve(n1: int, n2: int, costs: CostProfile, k: int | None = None):
    """Equilibrium of a symmetric instance via the stage-1 split.

    Returns (SpeSolution, BuiltNetwork or None).  Requires n1 == n2,
    1 <= k < n1, c1 <= c12 and c2 <= c21; the attack budget defaults to
    floor(1/cA).
    """
    if n1 != n2:
        raise ConstructionError("structured solver needs equal layer sizes")
    if k is None:
        k = attack_budget(costs.ca)
    is_null, _ = null_spe_check(n1, n2, k, costs)
    if is_null:
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
