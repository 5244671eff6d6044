"""Three-stage build-and-attack game: payoffs and exact equilibrium solvers.

Stage order: operator 1 builds links in E1 (layer-1 pairs) and E12 (cross
pairs); operator 2 then builds links in E2 and the remaining cross pairs;
the adversary finally removes any subset of the built links.  Utilities:

    u1 = [connected after attack] - c1*|E1 links| - c12*|cross links by 1|
    u2 = [connected after attack] - c2*|E2 links| - c21*|cross links by 2|
    uA = 1 - [connected after attack] - cA*|attacked links|

All arithmetic is exact (fractions.Fraction); equilibrium selection hinges
on strict comparisons at the cost-1 and zero-payoff boundaries, so no
floating point is used anywhere.  Boundary conventions: the adversary does
attack when its net payoff is exactly 0, the operators do not build when
their net payoff would be exactly 0.

Two solvers are provided: a pruned cost-ordered search (solve_spe_exact)
and a deliberately naive full-enumeration oracle (bruteforce_spe_oracle)
used to cross-check it on tiny instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .connectivity import edge_connectivity_pairs, min_cut_pairs
from .graph import EdgeClass, LayeredGraph, Owner, degrees, from_pairs

DEFAULT_SEARCH_CAP = 2**20


class GameError(ValueError):
    """Malformed profile or out-of-range game parameter."""


class SearchCapExceeded(RuntimeError):
    """Exact search exceeded its configured subset-evaluation budget."""


@dataclass(frozen=True)
class CostProfile:
    """Normalized unitary link costs; each must lie strictly in (0, 1)."""

    c1: Fraction
    c2: Fraction
    c12: Fraction
    c21: Fraction
    ca: Fraction

    def __post_init__(self):
        for name in ("c1", "c2", "c12", "c21", "ca"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))
        for name in ("c1", "c2", "c12", "c21", "ca"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise GameError(f"{name} = {value} is outside (0, 1)")


@dataclass(frozen=True)
class StrategyProfile:
    """Edge-set choices of the three players, as (u, v) pairs."""

    e1_intra: frozenset
    e1_cross: frozenset
    e2_intra: frozenset
    e2_cross: frozenset
    attack: frozenset

    @staticmethod
    def empty() -> "StrategyProfile":
        return StrategyProfile(
            frozenset(), frozenset(), frozenset(), frozenset(), frozenset()
        )

    def built_pairs(self) -> frozenset:
        return self.e1_intra | self.e1_cross | self.e2_intra | self.e2_cross

    @staticmethod
    def from_graph(g: LayeredGraph) -> "StrategyProfile":
        """The operators' choices realized by ``g`` (the adversary stays null)."""
        sel = lambda owner, cls: frozenset(
            e.pair for e in g.edges if e.owner == owner and e.cls == cls
        )
        return StrategyProfile(
            sel(Owner.OPERATOR1, EdgeClass.INTRA1),
            sel(Owner.OPERATOR1, EdgeClass.CROSS),
            sel(Owner.OPERATOR2, EdgeClass.INTRA2),
            sel(Owner.OPERATOR2, EdgeClass.CROSS),
            frozenset(),
        )

    def to_graph(self, n1: int, n2: int) -> LayeredGraph:
        """The network the two operators build (the attack is not applied)."""
        triples = [(u, v, Owner.OPERATOR1) for u, v in self.e1_intra | self.e1_cross]
        triples += [(u, v, Owner.OPERATOR2) for u, v in self.e2_intra | self.e2_cross]
        return from_pairs(n1, n2, triples)


@dataclass(frozen=True)
class GameOutcome:
    connected_after_attack: bool
    u1: Fraction
    u2: Fraction
    uA: Fraction


@dataclass(frozen=True)
class SpeSolution:
    """Equilibrium summary: one representative profile per operator-2 cost class.

    Across all equilibria operator 1's payoff is unique; operator 2's may
    take several values, listed in ``u2_values`` (best first) and aligned
    with ``profiles``.
    """

    k: int
    is_null: bool
    u1: Fraction
    uA: Fraction
    profiles: tuple
    u2_values: tuple
    method: str = "exact"

    @property
    def u2(self) -> Fraction:
        return self.u2_values[0]

    @staticmethod
    def null(k: int, method: str = "exact") -> "SpeSolution":
        return SpeSolution(
            k=k,
            is_null=True,
            u1=Fraction(0),
            uA=Fraction(1),
            profiles=(StrategyProfile.empty(),),
            u2_values=(Fraction(0),),
            method=method,
        )


def attack_budget(ca) -> int:
    """Largest attack size affordable at non-negative adversary payoff."""
    ca = Fraction(ca)
    if not 0 < ca < 1:
        raise GameError(f"attack cost {ca} is outside (0, 1)")
    return int(Fraction(1) / ca)  # floor of 1/ca


def _norm_pair(p) -> tuple:
    u, v = p
    return (u, v) if u < v else (v, u)


def utilities(profile: StrategyProfile, costs: CostProfile, n1: int, n2: int) -> GameOutcome:
    """Evaluate the three payoffs of a (possibly off-equilibrium) profile."""
    n = n1 + n2

    def check(pairs, kinds, label):
        out = set()
        for p in pairs:
            u, v = _norm_pair(p)
            if not (0 <= u < v < n):
                raise GameError(f"{label}: pair {p} out of range")
            cls = (
                EdgeClass.INTRA1
                if v < n1
                else EdgeClass.INTRA2
                if u >= n1
                else EdgeClass.CROSS
            )
            if cls not in kinds:
                raise GameError(f"{label}: pair {p} has class {cls.value}")
            out.add((u, v))
        return frozenset(out)

    e1i = check(profile.e1_intra, {EdgeClass.INTRA1}, "operator-1 intra")
    e1c = check(profile.e1_cross, {EdgeClass.CROSS}, "operator-1 cross")
    e2i = check(profile.e2_intra, {EdgeClass.INTRA2}, "operator-2 intra")
    e2c = check(profile.e2_cross, {EdgeClass.CROSS}, "operator-2 cross")
    if e1c & e2c:
        raise GameError("a cross link may be built by only one operator")
    built = e1i | e1c | e2i | e2c
    attack = frozenset(_norm_pair(p) for p in profile.attack)
    if not attack <= built:
        raise GameError("attack targets a link that was not built")
    remaining = built - attack
    connected = edge_connectivity_pairs(n, remaining, cap_at=1) >= 1
    one = Fraction(1 if connected else 0)
    u1 = one - costs.c1 * len(e1i) - costs.c12 * len(e1c)
    u2 = one - costs.c2 * len(e2i) - costs.c21 * len(e2c)
    ua = 1 - one - costs.ca * len(attack)
    return GameOutcome(connected, u1, u2, ua)


def adversary_best_response(g: LayeredGraph, ca) -> frozenset:
    """Optimal attack on the built network: empty, or a minimum cut.

    Empty if the network is already disconnected or survives any k-link
    removal (k = attack budget); otherwise a minimum disconnecting set,
    whose size m + 1 is then affordable.  At the exact break-even point
    cA * |attack| = 1 the adversary attacks.
    """
    k = attack_budget(ca)
    pairs = list(g.edge_pairs())
    lam = edge_connectivity_pairs(g.n, pairs, cap_at=k + 1)
    if lam == 0 or lam == k + 1:
        return frozenset()
    cut = set(min_cut_pairs(g.n, pairs))
    return frozenset(e for e in g.edges if e.pair in cut)


def null_spe_check(n1: int, n2: int, k: int, costs: CostProfile):
    """Sufficient conditions for the all-null equilibrium.

    Returns (True, "degree-bound") when no node can reach degree k + 1,
    (True, "cost-bound") when the joint lower bound on build cost reaches
    2 (requires c1 <= c12 and c2 <= c21), else (False, None).
    """
    if n1 + n2 - 1 < k + 1:
        return True, "degree-bound"
    if costs.c1 <= costs.c12 and costs.c2 <= costs.c21:
        bound = (
            (k + 1) * min(costs.c12, costs.c21)
            + ((n1 - 1) * (k + 1) // 2) * costs.c1
            + ((n2 - 1) * (k + 1) // 2) * costs.c2
        )
        if bound >= 2:
            return True, "cost-bound"
    return False, None


# ---------------------------------------------------------------------------
# Bitmask machinery shared by the exact solvers.
# ---------------------------------------------------------------------------


class EdgeUniverse:
    """All candidate edges of a (n1, n2) instance, indexed for bitmasks."""

    def __init__(self, n1: int, n2: int):
        self.n1, self.n2 = n1, n2
        self.n = n1 + n2
        intra1 = [(u, v) for u in range(n1) for v in range(u + 1, n1)]
        intra2 = [(u, v) for u in range(n1, self.n) for v in range(u + 1, self.n)]
        cross = [(u, n1 + w) for u in range(n1) for w in range(n2)]
        self.pairs = intra1 + intra2 + cross
        self.intra1_bits = list(range(len(intra1)))
        self.intra2_bits = list(range(len(intra1), len(intra1) + len(intra2)))
        self.cross_bits = list(
            range(len(intra1) + len(intra2), len(self.pairs))
        )
        self.intra1_mask = sum(1 << b for b in self.intra1_bits)
        self.intra2_mask = sum(1 << b for b in self.intra2_bits)
        self.cross_mask = sum(1 << b for b in self.cross_bits)
        self.bit_of = {p: i for i, p in enumerate(self.pairs)}
        self._lam = {}

    def mask_of(self, pairs) -> int:
        mask = 0
        for p in pairs:
            mask |= 1 << self.bit_of[_norm_pair(p)]
        return mask

    def pairs_of(self, mask: int) -> list:
        out = []
        while mask:
            b = mask & -mask
            out.append(self.pairs[b.bit_length() - 1])
            mask ^= b
        return out

    def lam(self, mask: int) -> int:
        """Memoized edge connectivity of the graph selected by ``mask``."""
        hit = self._lam.get(mask)
        if hit is None:
            hit = edge_connectivity_pairs(self.n, self.pairs_of(mask))
            self._lam[mask] = hit
        return hit

    def op1_cost(self, mask: int, costs: CostProfile) -> Fraction:
        return costs.c1 * (mask & self.intra1_mask).bit_count() + costs.c12 * (
            mask & self.cross_mask
        ).bit_count()

    def op2_cost(self, mask: int, costs: CostProfile) -> Fraction:
        return costs.c2 * (mask & self.intra2_mask).bit_count() + costs.c21 * (
            mask & self.cross_mask
        ).bit_count()


_universes: dict = {}


def get_universe(n1: int, n2: int) -> EdgeUniverse:
    key = (n1, n2)
    if key not in _universes:
        _universes[key] = EdgeUniverse(n1, n2)
    return _universes[key]


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def tick(self, amount: int = 1):
        self.used += amount
        if self.used > self.cap:
            raise SearchCapExceeded(f"search cap of {self.cap} subsets exceeded")


def _op2_best_response_masks(
    uni: EdgeUniverse, mask1: int, k: int, costs: CostProfile, budget: _Budget
):
    """Cheapest operator-2 completion mask2 with lam(mask1 | mask2) >= k + 1.

    Returns (cost2, mask2), with (0, 0) when mask1 already resists k
    removals, or (None, None) when no completion costing strictly less
    than 1 exists.
    """
    if uni.lam(mask1) >= k + 1:
        return Fraction(0), 0
    avail_cross = uni.cross_mask & ~mask1
    avail_intra = uni.intra2_mask

    defc = [max(0, k + 1 - d) for d in degrees(uni.n, uni.pairs_of(mask1))]
    need_cross = sum(defc[: uni.n1])  # layer-1 deficiencies: cross links only
    need_l2 = sum(defc[uni.n1 :])
    cross_built = (mask1 & uni.cross_mask).bit_count()
    # Cheapest conceivable completion; rejects hopeless subgames before any
    # connectivity work.  xm cross links are mandatory; whatever layer-2
    # degree they leave uncovered costs at least min(c21, c2/2) per unit.
    xm = max(need_cross, k + 1 - cross_built)
    floor_cost = xm * costs.c21 + max(0, need_l2 - xm) * min(
        costs.c21, costs.c2 / 2
    )
    if floor_cost >= 1:
        return None, None

    cross_cands = [b for b in uni.cross_bits if avail_cross >> b & 1]
    intra_cands = uni.intra2_bits
    slots = degrees(uni.n, map(uni.pairs.__getitem__, cross_cands + intra_cands))
    if any(d > s for d, s in zip(defc, slots)):
        return None, None

    counts = []
    for x in range(len(cross_cands) + 1):
        for y in range(len(intra_cands) + 1):
            if x == 0 and y == 0:
                continue
            cost = x * costs.c21 + y * costs.c2
            if cost < 1:
                counts.append((cost, x, y))
    counts.sort(key=lambda t: (t[0], t[1], t[2]))

    pool_checked = False
    for cost, x, y in counts:
        # Cross links are the only way to raise a layer-1 degree; layer-2
        # degrees rise by 1 per cross link and 2 per intra link.
        if x < need_cross or x + 2 * y < need_l2:
            continue
        if x + cross_built < k + 1:
            continue
        if not pool_checked:
            pool_checked = True
            if uni.lam(mask1 | avail_cross | avail_intra) < k + 1:
                return None, None
        mask2 = _place(uni, k, mask1, [(cross_cands, x), (intra_cands, y)], budget)
        if mask2 is not None:
            return cost, mask2
    return None, None


def _place(uni: EdgeUniverse, k: int, base: int, groups: list, budget: _Budget):
    """First placement making ``base`` plus the placed edges k-resistant.

    ``groups`` lists (candidate bits, count), each group holding one edge
    class: exactly ``count`` edges are taken from each group.  Groups are consumed in order and every
    candidate is tried taken before it is passed over, so the answer is
    the first qualifying placement in that order (None if there is none).
    A branch is pruned when some node's degree deficit exceeds its
    unvisited candidate slots, or when a layer's deficit exceeds what the
    remaining picks can cover: 2 per same-layer intra pick, 1 per cross
    pick.  Both layer sums and both coverages are kept as running counters.
    """
    n1 = uni.n1
    side = [0] * n1 + [1] * uni.n2
    slots = degrees(uni.n, [uni.pairs[b] for bits, _ in groups for b in bits])
    need = [k + 1 - d for d in degrees(uni.n, uni.pairs_of(base))]
    lack = [sum(max(0, d) for d in need[:n1]), sum(max(0, d) for d in need[n1:])]
    cover = [0, 0]
    for bits, count in groups:
        if count:
            u, v = uni.pairs[bits[0]]
            cover[side[u]] += count
            cover[side[v]] += count

    def rec(gi, idx, left, mask):
        budget.tick()
        while left == 0:
            gi += 1
            if gi == len(groups):
                return mask if uni.lam(base | mask) >= k + 1 else None
            idx, left = 0, groups[gi][1]
        if lack[0] > cover[0] or lack[1] > cover[1]:
            return None
        if any(d > s for d, s in zip(need, slots)):
            return None
        bits = groups[gi][0]
        if left > len(bits) - idx:
            return None
        bit = bits[idx]
        u, v = uni.pairs[bit]
        su, sv = side[u], side[v]
        # Candidate bit is spent in both branches (take it or pass it over).
        slots[u] -= 1
        slots[v] -= 1
        lack[su] -= need[u] > 0
        lack[sv] -= need[v] > 0
        need[u] -= 1
        need[v] -= 1
        cover[su] -= 1
        cover[sv] -= 1
        result = rec(gi, idx + 1, left - 1, mask | (1 << bit))
        cover[su] += 1
        cover[sv] += 1
        need[u] += 1
        need[v] += 1
        lack[su] += need[u] > 0
        lack[sv] += need[v] > 0
        if result is None:
            result = rec(gi, idx + 1, left, mask)
        slots[u] += 1
        slots[v] += 1
        return result

    return rec(0, 0, groups[0][1], 0)


def operator2_best_response_exact(
    g1: LayeredGraph, costs: CostProfile, k: int, cap: int = DEFAULT_SEARCH_CAP
) -> frozenset:
    """Operator 2's cheapest securing response to the round-1 network.

    Returns the empty set when the standing network already resists k
    removals or when no response costing strictly less than 1 achieves
    that; otherwise a minimum-cost edge set (owner tag OPERATOR2).
    """
    uni = get_universe(g1.n1, g1.n2)
    mask1 = uni.mask_of(g1.edge_pairs())
    cost, mask2 = _op2_best_response_masks(uni, mask1, k, costs, _Budget(cap))
    if cost is None:
        return frozenset()
    return _profile_from_masks(uni, 0, mask2).to_graph(g1.n1, g1.n2).edges


def _profile_from_masks(uni: EdgeUniverse, mask1: int, mask2: int) -> StrategyProfile:
    e1i = frozenset(uni.pairs_of(mask1 & uni.intra1_mask))
    e1c = frozenset(uni.pairs_of(mask1 & uni.cross_mask))
    e2i = frozenset(uni.pairs_of(mask2 & uni.intra2_mask))
    e2c = frozenset(uni.pairs_of(mask2 & uni.cross_mask))
    return StrategyProfile(e1i, e1c, e2i, e2c, frozenset())


def solve_spe_exact(
    n1: int, n2: int, costs: CostProfile, cap: int = DEFAULT_SEARCH_CAP
) -> SpeSolution:
    """Backward-induction equilibrium by pruned exact search.

    Operator-1 strategies are scanned in nondecreasing cost order (ties by
    cross-link count, then lexicographic edge order); the first cost level
    admitting a securable completion is the equilibrium level, and every
    securable strategy at that level is collected.  Intended for
    n1 + n2 <= 7.
    """
    k = attack_budget(costs.ca)
    if n1 + n2 - 1 < k + 1:
        return SpeSolution.null(k)
    uni = get_universe(n1, n2)
    budget = _Budget(cap)

    count_levels = []
    for a in range(len(uni.intra1_bits) + 1):
        for b in range(len(uni.cross_bits) + 1):
            cost = a * costs.c1 + b * costs.c12
            if cost < 1:
                count_levels.append((cost, b, a))
    count_levels.sort(key=lambda t: (t[0], t[1], t[2]))

    found_cost = None
    found = []  # (mask1, cost2, mask2) in enumeration order
    for cost1, b, a in count_levels:
        if found_cost is not None and cost1 > found_cost:
            break
        for intra_sel in itertools.combinations(uni.intra1_bits, a):
            for cross_sel in itertools.combinations(uni.cross_bits, b):
                budget.tick()
                mask1 = sum(1 << i for i in intra_sel) + sum(1 << i for i in cross_sel)
                cost2, mask2 = _op2_best_response_masks(uni, mask1, k, costs, budget)
                if cost2 is None:
                    continue
                found_cost = cost1
                found.append((mask1, cost2, mask2))
    if not found:
        return SpeSolution.null(k)

    by_class = {}
    for mask1, cost2, mask2 in found:
        if cost2 not in by_class:
            by_class[cost2] = (mask1, mask2)
    classes = sorted(by_class)  # ascending operator-2 cost = descending u2
    profiles = tuple(
        _profile_from_masks(uni, *by_class[c]) for c in classes
    )
    return SpeSolution(
        k=k,
        is_null=False,
        u1=1 - found_cost,
        uA=Fraction(0),
        profiles=profiles,
        u2_values=tuple(1 - c for c in classes),
        method="exact",
    )


def bruteforce_spe_oracle(n1: int, n2: int, costs: CostProfile) -> SpeSolution:
    """Ground-truth equilibrium by full enumeration (n1 + n2 <= 5).

    Evaluates every operator-1 subset against every operator-2 subset,
    resolving the adversary by minimum cut, with no pruning beyond the
    problem size cap.  Must agree with solve_spe_exact on u1, null status,
    and the set of operator-2 equilibrium payoffs.
    """
    if n1 + n2 > 5:
        raise GameError("oracle instances are capped at n1 + n2 <= 5")
    k = attack_budget(costs.ca)
    uni = get_universe(n1, n2)
    op1_pool = uni.intra1_mask | uni.cross_mask
    op2_base = uni.intra2_mask | uni.cross_mask

    results = []  # (u1, cost1, mask1, secured, cost2, mask2)
    mask1 = op1_pool
    while True:
        cost1 = uni.op1_cost(mask1, costs)
        # Operator 2 plays empty first; later strict improvement only, so
        # zero-net-payoff securing never displaces the null response.
        lam1 = uni.lam(mask1)
        if lam1 - 1 >= k and lam1 > 0:
            best_u2, best_conn, best_cost2, best_mask2 = Fraction(1), True, Fraction(0), 0
        else:
            best_u2, best_conn, best_cost2, best_mask2 = Fraction(0), False, Fraction(0), 0
        allowed = op2_base & ~mask1
        sub = allowed
        while sub:
            cost2 = uni.op2_cost(sub, costs)
            lam = uni.lam(mask1 | sub)
            survives = lam > 0 and lam - 1 >= k
            u2 = (1 if survives else 0) - cost2
            if u2 > best_u2:
                best_u2, best_conn, best_cost2, best_mask2 = u2, survives, cost2, sub
            sub = (sub - 1) & allowed
        u1 = (1 if best_conn else 0) - cost1
        results.append((u1, cost1, mask1, best_conn, best_cost2, best_mask2))
        if mask1 == 0:
            break
        mask1 = (mask1 - 1) & op1_pool

    best_u1 = max(r[0] for r in results)
    if best_u1 <= 0:
        return SpeSolution.null(k, method="oracle")
    by_class = {}
    for u1, cost1, mask1, conn, cost2, mask2 in results:
        if u1 == best_u1 and cost2 not in by_class:
            by_class[cost2] = (mask1, mask2)
    classes = sorted(by_class)
    return SpeSolution(
        k=k,
        is_null=False,
        u1=best_u1,
        uA=Fraction(0),
        profiles=tuple(_profile_from_masks(uni, *by_class[c]) for c in classes),
        u2_values=tuple(1 - c for c in classes),
        method="oracle",
    )
