"""Three-stage build-and-attack game: payoffs and exact equilibrium solvers.

Stage order: operator 1 builds links in E1 (layer-1 pairs) and E12 (cross
pairs); operator 2 then builds links in E2 and the remaining cross pairs;
the adversary finally removes any subset of the built links.  Utilities:

    u1 = [connected after attack] - c1*|E1 links| - c12*|cross links by 1|
    u2 = [connected after attack] - c2*|E2 links| - c21*|cross links by 2|
    uA = 1 - [connected after attack] - cA*|attacked links|

All arithmetic is exact; equilibrium selection hinges on strict
comparisons at the cost-1 and zero-payoff boundaries, so no floating point
is used anywhere, and CostProfile and attack_budget refuse floats.
Payoffs at the API boundary are fractions.Fraction.  The search layers
(solve_spe_exact, operator2_best_response_exact, the oracle and the team
search) scale the four link costs once per call to integers over
L = lcm(denominators) (``_scale``), compare against L instead of 1, and
convert back to Fraction only in the result they return.  Boundary
conventions: the adversary does attack when its net payoff is exactly 0,
the operators do not build when their net payoff would be exactly 0.

Two solvers are provided: a pruned cost-ordered search (solve_spe_exact)
and an exhaustive oracle (bruteforce_spe_oracle) used to cross-check it
on instances of up to 6 nodes.  Each search call builds its own
EdgeUniverse (candidate links as bitmasks, plus a lambda memo), so
nothing outlives a call.  Every k-resistance test is
EdgeUniverse.resists(mask, k): without a flow, a node of degree <= k
answers no (lambda <= min degree) and a least degree >= floor(n/2) yes
(lambda is then that degree, Chartrand 1966); otherwise lambda > k
decides.  The oracle lists the resisting
masks with EdgeUniverse.resisting, which calls resists only on masks
where every degree exceeds k and no one-link-smaller subset resists.  It
folds each resisting union onto the operator-1 strategy left when its
intra-2 links are dropped, then takes operator 2's best response to
every operator-1 strategy as one minimum over the supersets that add
cross links (the cheapest resisting union, ties to the largest mask); it
uses nothing of the pruned search.  Both solvers fill one table of
operator-2 cost classes while they scan, keeping the first strategy of
each, and report through one summary (``_equilibrium``).

The three exact searches (operator 2's best response, operator 1's
equilibrium scan and the team optimum) pick link counts per class in cost
order from one count lattice (``_lattice``) and complete a base network
through one loop (``_completion``), which skips a purchase that cannot
cover the degree shortfall or the k + 1 cross links and hands the rest to
``_place``.  That depth-first placement search prunes by running counts
alone (layer deficits against the picks left, and the nodes whose deficit
exceeds their unvisited slots), so each search node costs O(1) and ticks
once.  One closed-form floor (``_count_floor``, which also names the least
cross count that reaches it) serves the null test, the team design and the
level bound ``_level_floor``: an operator-1 level of a intra and b cross
links leaves layer 1 d1 = n1(k+1) - 2a - b degrees short, which only
operator-2 cross links cover, and layer 2 d2 = n2(k+1) - b short, where an
intra link covers 2 and at most C(n2, 2) fit, so operator 2 pays at least
min x*c21 + ceil(max(0, d2 - x)/2)*c2 over max(d1, k+1-b, d2 - n2(n2-1),
0) <= x <= n1*n2 - b.  The exact search skips a level whose bound reaches
1; the structured route's stage 1 takes the cheapest level whose bound is
below 1, and operator 2 the bound's argmin x.

Operator 1's scan completes few strategies per orbit of S_n1 x S_n2, the
relabellings of nodes within a layer.  They change no price and no
payoff, so securability and operator 2's completion cost are constant on
an orbit and each operator-2 cost class is a union of orbits.  The scan
generates row by row (``_strategies``) only the strategies that no swap
of two adjacent nodes of one layer maps to an earlier one of its level.
The least member of an orbit passes every swap, and the first securable
strategy of a class, the one reported, is the least of its orbit; so u1,
the cost classes and their profiles are those of the unfiltered scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .connectivity import connected_pairs, edge_connectivity, edge_connectivity_pairs, min_edge_cut
from .graph import LayeredGraph, degrees, new_graph

DEFAULT_SEARCH_CAP = 2**20


class GameError(ValueError):
    """Malformed profile or out-of-range game parameter."""


class SearchCapExceeded(RuntimeError):
    """Exact search exceeded its configured tick budget."""


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
            value = _exact_cost(getattr(self, name), name)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class StrategyProfile:
    """The three players' choices: the network both operators build, its
    links filed by owner and class in ``network.links``, and the links
    the adversary removes, as (u, v) pairs in either order."""

    network: LayeredGraph
    attack: frozenset = frozenset()

    def built_pairs(self) -> frozenset:
        return frozenset().union(*self.network.links)


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
    with ``profiles``, each a network with no attack (the empty one if null).
    """

    k: int
    is_null: bool
    u1: Fraction
    profiles: tuple
    u2_values: tuple
    method: str = "exact"

    @property
    def u2(self) -> Fraction:
        return self.u2_values[0]

    @property
    def uA(self) -> Fraction:
        """The adversary's payoff: 1 if nothing is built, else 0 (no affordable attack cuts it)."""
        return Fraction(int(self.is_null))

    @staticmethod
    def null(k: int, n1: int, n2: int, method: str = "exact") -> "SpeSolution":
        return SpeSolution(
            k=k,
            is_null=True,
            u1=Fraction(0),
            profiles=(StrategyProfile(new_graph(n1, n2)),),
            u2_values=(Fraction(0),),
            method=method,
        )


def _exact_cost(value, name: str) -> Fraction:
    """``value`` as a Fraction strictly inside (0, 1).  Floats and bools
    are refused: Fraction(0.1) is slightly above 1/10, which moves the
    strict comparisons every answer hinges on."""
    if isinstance(value, (bool, float)):
        kind = type(value).__name__
        raise GameError(f"{name} = {value!r} is a {kind}: pass a Fraction, an int or a string")
    value = Fraction(value)
    if not 0 < value < 1:
        raise GameError(f"{name} = {value} is outside (0, 1)")
    return value


def attack_budget(ca) -> int:
    """Largest attack size affordable at non-negative adversary payoff."""
    return int(1 / _exact_cost(ca, "attack cost"))  # floor of 1/ca


def _scale(costs: CostProfile) -> tuple:
    """(L, c1, c2, c12, c21): the link costs as integers in units of 1/L,
    where L is the lcm of their denominators."""
    link = (costs.c1, costs.c2, costs.c12, costs.c21)
    L = math.lcm(*(c.denominator for c in link))
    return (L,) + tuple(c.numerator * (L // c.denominator) for c in link)


def _norm_pair(p) -> tuple:
    u, v = p
    return (u, v) if u < v else (v, u)


def utilities(profile: StrategyProfile, costs: CostProfile, n1: int, n2: int) -> GameOutcome:
    """Evaluate the three payoffs of a (possibly off-equilibrium) profile.

    Each operator pays for its links as the network files them.  The
    profile is refused when the network's layers are not (n1, n2) or the
    attack names a link that was not built."""
    graph = profile.network
    if (graph.n1, graph.n2) != (n1, n2):
        raise GameError(f"malformed profile: a {graph.n1}+{graph.n2} network in a {n1}+{n2} game")
    e1i, e1c, e2i, e2c = graph.links
    attack = frozenset(_norm_pair(p) for p in profile.attack)
    built = graph.edge_pairs()
    if not attack <= built:
        raise GameError("attack targets a link that was not built")
    connected = connected_pairs(n1 + n2, built - attack)
    one = Fraction(1 if connected else 0)
    u1 = one - costs.c1 * len(e1i) - costs.c12 * len(e1c)
    u2 = one - costs.c2 * len(e2i) - costs.c21 * len(e2c)
    ua = 1 - one - costs.ca * len(attack)
    return GameOutcome(connected, u1, u2, ua)


def adversary_best_response(g: LayeredGraph, ca) -> frozenset:
    """Optimal attack on the built network, as (u, v) pairs: empty, or a minimum cut.

    Empty if the network is already disconnected or survives any k-link
    removal (k = attack budget); otherwise a minimum disconnecting set,
    whose size m + 1 is then affordable.  At the exact break-even point
    cA * |attack| = 1 the adversary attacks.  Reads the edge connectivity
    kept on ``g`` and runs a cut sweep only when it attacks.
    """
    k = attack_budget(ca)
    lam = edge_connectivity(g)
    if lam == 0 or lam > k:
        return frozenset()
    return min_edge_cut(g)


def null_spe_check(n1: int, n2: int, k: int, costs: CostProfile):
    """The one null test of every solver: the reason, when no
    k-resistant network costs less than 2 in total, else None.

    A non-null equilibrium is a k-resistant network that each operator
    pays less than 1 for, and a non-null team design is one that costs
    less than 2, so either needs a k-resistant network of total cost
    below 2.  Reads ``_joint_cost_floor``: "degree-bound" when it is None
    (no node can reach degree k + 1), "cost-bound" when it reaches 2.
    The floor prices each link at its own class's cost (cross links at
    min(c12, c21)), so it holds for any order of the four link costs.
    """
    floor, _ = _joint_cost_floor(n1, n2, k, costs)
    if floor is None:
        return "degree-bound"
    if floor >= 2:
        return "cost-bound"
    return None


def _joint_cost_floor(n1: int, n2: int, k: int, costs: CostProfile):
    """(cost, x): the least joint cost of a network with every degree
    >= k + 1 and at least k + 1 cross links, which every k-resistant
    network has, and the fewest cross links x at that cost; (None, None)
    when no such network exists (n1 + n2 - 1 < k + 1).

    With x cross links, at min(c12, c21) each, layer i is still
    max(0, ni(k+1) - x) degrees short and each intra link covers 2, so
    the cost is at least the ``_count_floor`` of
    x*cmin + ceil(max(0, n1(k+1) - x)/2)*c1 + ceil(max(0, n2(k+1) - x)/2)*c2
    over x <= n1*n2 and x >= max(k + 1, ni(k+1) - ni(ni-1)) for each
    layer: a node has at most ni - 1 intra links, a layer at most
    C(ni, 2).  Priced in units of 1/L (``_scale``).
    """
    L, c1, c2, c12, c21 = _scale(costs)
    lo = max(k + 1, n1 * (k + 2 - n1), n2 * (k + 2 - n2))
    shorts = [(n1 * (k + 1), c1), (n2 * (k + 1), c2)]
    floor, x = _count_floor(lo, n1 * n2, min(c12, c21), shorts)
    return (None, None) if floor is None else (Fraction(floor, L), x)


def _level_floor(n1: int, n2: int, k: int, a: int, b: int, c2, c21):
    """(cost, x): the level bound of the module docstring, operator 2's
    least cost to complete a intra and b cross links of operator 1, and the
    fewest cross links x at that cost; (None, None) if no x fits."""
    d2 = n2 * (k + 1) - b
    lo = max(n1 * (k + 1) - 2 * a - b, k + 1 - b, d2 - n2 * (n2 - 1), 0)
    return _count_floor(lo, n1 * n2 - b, c21, [(d2, c2)])


def _count_floor(lo: int, hi: int, cx: int, shorts: list):
    """(cost, x): the least x*cx + sum of ceil(max(0, s - x)/2)*c over
    (s, c) in ``shorts``, over integers lo <= x <= hi, and the least x
    that reaches it; (None, None) if lo > hi.

    x counts cross links at cx each; each (s, c) is a degree shortfall s
    that a cross link covers by 1 and an intra link, at c, by 2.
    Restricted to one parity of x the sum is linear between the
    breakpoints lo, hi and each s, so its minimum lies at a breakpoint or
    one step from one.
    """
    best = arg = None
    for x in {lo, lo + 1, hi - 1, hi, *[s + step for s, _ in shorts for step in (-1, 0, 1)]}:
        if lo <= x <= hi:
            cost = x * cx
            for s, c in shorts:
                if x < s:
                    cost += (s - x + 1) // 2 * c
            if best is None or cost < best or cost == best and x < arg:
                best, arg = cost, x
    return best, arg


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
        self.incident = [0] * self.n  # per node, the bits of its candidate edges
        for i, (u, v) in enumerate(self.pairs):
            self.incident[u] |= 1 << i
            self.incident[v] |= 1 << i
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

    def resists(self, mask: int, k: int) -> bool:
        """Whether the graph selected by ``mask`` survives any k removals
        (lam > k).  lam <= min degree, so a least degree <= k settles it
        without a flow, and so does one >= floor(n/2), where a simple
        graph's lam equals it (Chartrand 1966)."""
        least = min((mask & inc).bit_count() for inc in self.incident)
        if least <= k:
            return False
        return 2 * least >= self.n - 1 or self.lam(mask) > k

    def resisting(self, k: int) -> set:
        """Every mask that survives any k removals.

        Only a mask with every degree >= k + 1 can: it is the complete
        graph less a removed set of at most n - 2 - k links at each node,
        and one recursion over the links lists those sets.  They are
        settled in ascending popcount order of the mask.  Resistance is
        monotone, so a mask with a resisting one-link-smaller subset
        resists; ``resists`` settles the rest, each once.
        """
        m = len(self.pairs)
        full = (1 << m) - 1
        spare = [self.n - 2 - k] * self.n
        by_size = [[] for _ in range(m + 1)]  # masks by the number of links removed

        def rec(start, removed):
            by_size[removed.bit_count()].append(full ^ removed)
            for i in range(start, m):
                u, v = self.pairs[i]
                if spare[u] and spare[v]:
                    spare[u] -= 1
                    spare[v] -= 1
                    rec(i + 1, removed | 1 << i)
                    spare[u] += 1
                    spare[v] += 1

        if k <= self.n - 2:  # otherwise even the complete graph has degree n - 1 <= k
            rec(0, 0)
        out = set()
        for masks in reversed(by_size):
            for mask in masks:
                if any((mask ^ 1 << b) in out for b in range(m) if mask >> b & 1) or self.resists(mask, k):
                    out.add(mask)
        return out


class _Budget:
    """A search call's ticks, and the operator-1 level it scans since tick ``since``."""

    def __init__(self, cap: int):
        self.cap, self.used, self.since, self.level = cap, 0, 0, None

    def tick(self):
        self.used += 1
        if self.used > self.cap:
            at = f" while scanning operator-1 level (a, b) = {self.level}, {self.cap - self.since} of them on it"
            raise SearchCapExceeded(f"search cap of {self.cap} ticks exceeded" + (at if self.level else ""))


def _lattice(uni: EdgeUniverse, pools: list, prices: list, limit: int) -> list:
    """Every purchase of counts[i] links from pools[i], at prices[i] each,
    that costs less than ``limit``, sorted by (cost, counts): the empty
    purchase comes first.  Each entry is (cost, counts, layer-1 link ends,
    layer-2 link ends, cross links); a pool holds links of one class."""
    n1 = uni.n1
    entries = [(0, (), 0, 0, 0)]
    for bits, price in zip(pools, prices):
        u, v = uni.pairs[bits[0]] if bits else (0, 0)  # an empty pool sells nothing
        e1, e2 = (u < n1) + (v < n1), (u >= n1) + (v >= n1)
        steps = [(c * price, (c,), c * e1, c * e2, c * (e1 == 1)) for c in range(len(bits) + 1)]
        grown = []
        for cost, counts, ends1, ends2, cross in entries:
            for price_c, c, ends1_c, ends2_c, cross_c in steps:
                if cost + price_c >= limit:
                    break
                grown.append((cost + price_c, counts + c, ends1 + ends1_c, ends2 + ends2_c, cross + cross_c))
        entries = grown
    entries.sort()
    return entries


def _completion(uni: EdgeUniverse, k: int, base: int, pools: list, lattice: list, budget: _Budget):
    """Cheapest entry of ``lattice`` (built by ``_lattice`` over ``pools``)
    whose links, placed by ``_place``, make ``base`` k-resistant.

    Returns (cost, mask) with the placed links in ``mask``, (0, 0) when
    ``base`` resists on its own, or (None, None).  Links of ``base`` are
    not for sale.  An entry is skipped before any placement when its link
    ends leave a layer's degree shortfall uncovered (a node of degree
    d <= k in ``base`` is k + 1 - d short), when it leaves fewer than
    k + 1 cross links, or when it asks for more links than a pool has.
    Only when a first entry survives is the purchase of every pooled link
    tested: if that does not resist, nothing does.
    """
    n1 = uni.n1
    degs = [(base & inc).bit_count() for inc in uni.incident]
    short1 = sum(k + 1 - d for d in degs[:n1] if d <= k)
    short2 = sum(k + 1 - d for d in degs[n1:] if d <= k)
    lack = k + 1 - (base & uni.cross_mask).bit_count()
    free = None
    for cost, counts, ends1, ends2, cross in lattice:
        if ends1 < short1 or ends2 < short2 or cross < lack:
            continue
        if not cost:  # the empty purchase places nothing
            if uni.resists(base, k):
                return 0, 0
            continue
        if free is None:
            free = [[b for b in bits if not base >> b & 1] for bits in pools]
            if not uni.resists(base | sum(1 << b for bits in free for b in bits), k):
                return None, None
        if any(c > len(bits) for c, bits in zip(counts, free)):
            continue
        mask = _place(uni, k, base, list(zip(free, counts)), budget)
        if mask is not None:
            return cost, mask
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
    pick.  Both layer sums and both coverages are kept as running counters,
    and so is the slot test: ``over`` counts the nodes whose deficit
    exceeds their slots.  Every node passes that test before a branch, and
    taking a candidate lowers its ends' deficit and slots together, so only
    passing it over can raise ``over``, and only at its two ends.  A search
    node thus costs O(1), and the nodes and ticks are those of a per-node
    scan.
    """
    n1 = uni.n1
    side = [0] * n1 + [1] * uni.n2
    slots = degrees(uni.n, [uni.pairs[b] for bits, _ in groups for b in bits])
    need = [k + 1 - (base & inc).bit_count() for inc in uni.incident]
    lack = [sum(max(0, d) for d in need[:n1]), sum(max(0, d) for d in need[n1:])]
    cover = [0, 0]
    for bits, count in groups:
        if count:
            u, v = uni.pairs[bits[0]]
            cover[side[u]] += count
            cover[side[v]] += count

    def rec(gi, idx, left, mask, over):
        budget.tick()
        while left == 0:
            gi += 1
            if gi == len(groups):
                return mask if uni.resists(base | mask, k) else None
            idx, left = 0, groups[gi][1]
        if lack[0] > cover[0] or lack[1] > cover[1] or over:
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
        result = rec(gi, idx + 1, left - 1, mask | (1 << bit), 0)
        cover[su] += 1
        cover[sv] += 1
        need[u] += 1
        need[v] += 1
        lack[su] += need[u] > 0
        lack[sv] += need[v] > 0
        if result is None:
            result = rec(gi, idx + 1, left, mask, (need[u] > slots[u]) + (need[v] > slots[v]))
        slots[u] += 1
        slots[v] += 1
        return result

    return rec(0, 0, groups[0][1], 0, sum(d > s for d, s in zip(need, slots)))


def operator2_best_response_exact(
    g1: LayeredGraph, costs: CostProfile, k: int, cap: int = DEFAULT_SEARCH_CAP
) -> frozenset:
    """Operator 2's cheapest securing response to the round-1 network.

    Returns the empty set when the standing network already resists k
    removals or when no response costing strictly less than 1 achieves
    that; otherwise a minimum-cost set of (u, v) pairs for operator 2 to build.
    """
    uni = EdgeUniverse(g1.n1, g1.n2)
    L, _, c2, _, c21 = _scale(costs)
    pools = [uni.cross_bits, uni.intra2_bits]
    lattice = _lattice(uni, pools, [c21, c2], L)
    cost, mask2 = _completion(uni, k, uni.mask_of(g1.edge_pairs()), pools, lattice, _Budget(cap))
    if cost is None:
        return frozenset()
    return frozenset(uni.pairs_of(mask2))


def _profile_from_masks(uni: EdgeUniverse, mask1: int, mask2: int) -> StrategyProfile:
    """The profile whose operators 1 and 2 build the links of the disjoint
    masks ``mask1`` and ``mask2``, filed by class (``uni`` pairs have u < v)."""
    masks = (mask1 & uni.intra1_mask, mask1 & uni.cross_mask, mask2 & uni.intra2_mask, mask2 & uni.cross_mask)
    return StrategyProfile(LayeredGraph(uni.n1, uni.n2, tuple(frozenset(uni.pairs_of(m)) for m in masks)))


def _equilibrium(uni: EdgeUniverse, k: int, L: int, cost1, by_class: dict, method: str) -> SpeSolution:
    """The equilibrium summary of both exact solvers: null when ``cost1``,
    operator 1's least securing cost in units of 1/L, is None; otherwise
    one profile per operator-2 cost class of ``by_class`` (cost ->
    (mask1, mask2)), cheapest first, so u2 descends."""
    if cost1 is None:
        return SpeSolution.null(k, uni.n1, uni.n2, method)
    classes = sorted(by_class)
    return SpeSolution(
        k=k,
        is_null=False,
        u1=Fraction(L - cost1, L),
        profiles=tuple(_profile_from_masks(uni, *by_class[c]) for c in classes),
        u2_values=tuple(Fraction(L - c, L) for c in classes),
        method=method,
    )


def _row_patterns(width: int, lo: int, hi: int, tied: int, ref):
    """Rows of ``width`` columns (bit c is column c), lo to hi ones, in scan
    order (lowest differing column set first), but no row with 0 at c and 1
    at c + 1 for a bit c of ``tied`` or before ``ref`` (None: no bound).  Only
    forced columns can miss lo, so work between rows is polynomial in width."""

    def rec(c, pat, ones, tight):
        if c == width:
            yield pat
            return
        bit = 1 << c
        if ones < hi and not (tied & ~pat) << 1 & bit and not (tight and not ref & bit):
            yield from rec(c + 1, pat | bit, ones + 1, tight)
        if ones + width - c > lo:
            yield from rec(c + 1, pat, ones, tight and not ref & bit)

    return rec(0, 0, 0, ref is not None)


def _strategies(n1: int, n2: int, a: int, b: int, budget: _Budget):
    """Operator 1's strategies of a intra and b cross links that no swap
    of two adjacent nodes of one layer maps earlier, in scan order, with a
    tick per row node.  Intra row u holds the links (u, u + 1 + c) as
    columns c, cross row u the links (u, n1 + c); bits rise row by row,
    intra rows first, and the lowest link a swap moves decides.  Layer-1
    nodes p, p + 1 exchange columns p, p + 1 (as nodes) of the intra rows
    above p, then intra rows p and p + 1 beyond node p + 1, then, if those
    agree, cross rows p and p + 1; layer-2 nodes n1 + w, n1 + w + 1
    exchange columns w, w + 1 of every cross row.  So a row with 0 and 1
    at exchanged columns is cut while every row before agrees on both, and
    row p + 1 when it comes before row p.  Bit p + 1 of ``tie1`` and bit w
    of ``tie2`` mark those swaps undecided."""

    def intra(u, start, left, mask, prev, tie1):
        width = n1 - 1 - u
        if width <= 0:
            yield from cross(0, start + n2 * (n2 - 1) // 2, b, mask, 0, tie1, (1 << n2) - 1 >> 1)
            return
        ref = prev >> 1 if tie1 >> u & 1 else None
        for pat in _row_patterns(width, left - width * (width - 1) // 2, left, tie1 >> u + 2, ref):
            budget.tick()
            tie = tie1 & ~((pat & ~pat >> 1) << u + 2) & ~((pat != ref) << u)
            yield from intra(u + 1, start + width, left - pat.bit_count(), mask | pat << start, pat, tie)

    def cross(u, start, left, mask, prev, tie1, tie2):
        if u == n1:
            yield mask
            return
        ref = prev if tie1 >> u & 1 else None
        for pat in _row_patterns(n2, left - (n1 - 1 - u) * n2, left, tie2, ref):
            budget.tick()
            tie = tie2 & ~(pat & ~pat >> 1)
            yield from cross(u + 1, start + n2, left - pat.bit_count(), mask | pat << start, pat, tie1, tie)

    return intra(0, 0, a, 0, 0, (1 << n1) - 2)


def solve_spe_exact(
    n1: int, n2: int, costs: CostProfile, cap: int = DEFAULT_SEARCH_CAP
) -> SpeSolution:
    """Backward-induction equilibrium by pruned exact search.

    Operator 1's count levels (b cross, a intra links) are scanned in
    nondecreasing cost order, ties by b, then a; within a level, its
    strategies go in lexicographic order of the intra links, then of the
    cross links.  A level is skipped when its level bound shows that
    operator 2 cannot complete it below 1; ``_strategies`` generates only
    strategies that no adjacent swap within a layer maps earlier, among
    them each operator-2 cost class's first securable one (module
    docstring).  The first cost admitting a securable completion is the
    equilibrium level, and each operator-2 cost class keeps the first
    securable strategy generated at that cost.  The cap counts a tick per
    generated row node of operator 1's strategies and per node of operator
    2's placement search.  Intended for n1 + n2 <= 9.
    """
    k = attack_budget(costs.ca)
    if null_spe_check(n1, n2, k, costs):
        return SpeSolution.null(k, n1, n2)
    uni = EdgeUniverse(n1, n2)
    budget = _Budget(cap)
    L, c1, c2, c12, c21 = _scale(costs)
    op2_pools = [uni.cross_bits, uni.intra2_bits]
    op2_lattice = _lattice(uni, op2_pools, [c21, c2], L)
    levels = _lattice(uni, [uni.cross_bits, uni.intra1_bits], [c12, c1], L)

    found_cost = None
    by_class = {}  # operator-2 cost -> (mask1, mask2) of its first securable strategy
    for cost1, (b, a), *_ in levels:
        if found_cost is not None and cost1 > found_cost:
            break
        floor2 = _level_floor(n1, n2, k, a, b, c2, c21)[0]
        if floor2 is None or floor2 >= L:
            continue
        budget.level, budget.since = (a, b), budget.used
        for mask1 in _strategies(n1, n2, a, b, budget):
            cost2, mask2 = _completion(uni, k, mask1, op2_pools, op2_lattice, budget)
            if cost2 is not None:
                found_cost = cost1
                by_class.setdefault(cost2, (mask1, mask2))
    return _equilibrium(uni, k, L, found_cost, by_class, "exact")


def _solve_team_exact(n1: int, n2: int, k: int, costs: CostProfile, cap: int):
    """(graph, cost) of the cheapest k-resistant design costing less than
    2, or (None, None).  Every link is priced at its own class's cost,
    cross links at min(c12, c21), and the cheaper cross builder owns them."""
    uni = EdgeUniverse(n1, n2)
    L, c1, c2, c12, c21 = _scale(costs)
    pools = [uni.intra1_bits, uni.intra2_bits, uni.cross_bits]
    lattice = _lattice(uni, pools, [c1, c2, min(c12, c21)], 2 * L)
    cost, mask = _completion(uni, k, 0, pools, lattice, _Budget(cap))
    if cost is None:
        return None, None
    op1_pool = uni.intra1_mask | (uni.cross_mask if c12 <= c21 else 0)
    return _profile_from_masks(uni, mask & op1_pool, mask & ~op1_pool).network, Fraction(cost, L)


def bruteforce_spe_oracle(n1: int, n2: int, costs: CostProfile) -> SpeSolution:
    """Ground-truth equilibrium by exhaustive backward induction (n1 + n2 <= 6).

    Ranks every resisting union (``EdgeUniverse.resisting``) and keeps,
    per operator-1 strategy, the best union that adds only intra-2 links;
    a minimum over the supersets that add cross links then gives
    operator 2's best response to every operator-1 subset, ties going to
    the largest mask.  One descending scan keeps
    operator 1's least securing cost and, per operator-2 cost class, the
    first strategy at it; like solve_spe_exact it reports through
    ``_equilibrium``.  Nothing of the pruned search is used.  Must agree
    with solve_spe_exact on u1, null status, and the set of operator-2
    equilibrium payoffs.
    """
    if n1 + n2 > 6:
        raise GameError("oracle instances are capped at n1 + n2 <= 6")
    k = attack_budget(costs.ca)
    uni = EdgeUniverse(n1, n2)
    L, c1, c2, c12, c21 = _scale(costs)
    intra2, cross = uni.intra2_mask, uni.cross_mask
    i1, i2, m = len(uni.intra1_bits), len(uni.intra2_bits), len(uni.pairs)
    full, low = (1 << m) - 1, (1 << i1) - 1
    # Payoffs and costs in units of 1/L.  Operator 2 earns L*[mask1|sub
    # resists] - cost2(sub), and every link costs > 0.  So its best response
    # is the cheapest securing sub (empty when mask1 resists alone), ties to
    # the numerically largest, if that payoff is positive, and the empty
    # response otherwise: the first strict improvement of a descending scan
    # from the empty response.  key ranks a resisting union M by its cost
    # with every cross link at c21, then by size (full ^ M in the low m
    # bits); top lies above every key.  Operator 1 holds no intra-2 link, so
    # M serves only the operator-1 strategies inside M & ~intra2: key is
    # indexed by the intra-1 bits, then the cross bits above them, and each
    # entry starts as the least key of the unions that fold onto it.
    top = (c2 * i2 + c21 * cross.bit_count() + 1) << m
    key = [top] * (1 << (m - i2))
    for mask in uni.resisting(k):
        rank = (c2 * (mask & intra2).bit_count() + c21 * (mask & cross).bit_count()) << m | (full ^ mask)
        j = mask & low | mask >> (i1 + i2) << i1
        if rank < key[j]:
            key[j] = rank
    # Minimum over supersets by each cross bit: key[j] is then the best
    # resisting union that adds only operator 2's links to strategy j.
    for bit in range(i1, m - i2):
        step = 1 << bit
        for j in range(0, len(key), 2 * step):
            key[j:j + step] = [x if x < y else y for x, y in zip(key[j:j + step], key[j + step:j + 2 * step])]

    # Operator 1 keeps its least securing cost below L, and per operator-2
    # cost class the first strategy of the descending scan at that cost.
    found_cost = None
    by_class = {}
    for j in reversed(range(len(key))):
        b = (j >> i1).bit_count()
        cost1 = c1 * (j & low).bit_count() + c12 * b
        best = key[j]
        # The key priced operator 1's own cross links at c21 too.
        cost2 = (best >> m) - c21 * b
        if best < top and cost2 < L and cost1 < L:
            if found_cost is None or cost1 < found_cost:
                found_cost, by_class = cost1, {}
            if cost1 == found_cost:
                mask1 = j & low | j >> i1 << (i1 + i2)
                by_class.setdefault(cost2, (mask1, (full & ~best) ^ mask1))
    return _equilibrium(uni, k, L, found_cost, by_class, "oracle")
