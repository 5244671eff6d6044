"""Shared test utilities: enumeration oracles and random instance generators."""

from __future__ import annotations

import bisect
import itertools
import sys
from fractions import Fraction

import layersec
from layersec.connectivity import connected_pairs
from layersec.construction import ConstructionError, StageOnePlan, _check_domain, structured_solve
from layersec.game import (
    DEFAULT_SEARCH_CAP,
    CostProfile,
    EdgeUniverse,
    GameError,
    SpeSolution,
    _Budget,
    _completion,
    _lattice,
    _level_floor,
    _profile_from_masks,
    _scale,
    attack_budget,
    null_spe_check,
    solve_spe_exact,
)
from layersec.graph import Owner, from_pairs


def lambda_by_enumeration(n, pairs):
    """Edge connectivity as the smallest disconnecting subset size (0 if already split)."""
    pairs = list(pairs)
    if n <= 1:
        return 0
    if not connected_pairs(n, pairs):
        return 0
    for size in range(1, len(pairs) + 1):
        for cut in itertools.combinations(range(len(pairs)), size):
            keep = [p for i, p in enumerate(pairs) if i not in cut]
            if not connected_pairs(n, keep):
                return size
    raise AssertionError("a connected graph on >= 2 nodes always has a cut")


def lambda_by_bipartition(n, pairs):
    """Edge connectivity as the fewest links crossing a split of the nodes
    into two non-empty sides (0 if already split, or if n == 1)."""
    # Bits of ``side`` mark one side; node n - 1 is never marked, so each
    # of the 2^(n-1) - 1 splits is counted once.
    return min(
        (sum((side >> u & 1) != (side >> v & 1) for u, v in pairs) for side in range(1, 1 << (n - 1))),
        default=0,
    )


def embed(n1, n2, pairs, cross_owner=Owner.OPERATOR2):
    """LayeredGraph from bare pairs, owners chosen per class."""
    triples = []
    for u, v in pairs:
        u, v = min(u, v), max(u, v)
        if v < n1:
            triples.append((u, v, Owner.OPERATOR1))
        elif u >= n1:
            triples.append((u, v, Owner.OPERATOR2))
        else:
            triples.append((u, v, cross_owner))
    return from_pairs(n1, n2, triples)


def well_formed(net) -> bool:
    """Whether ``from_pairs`` files the links of ``net``, given with their
    owners, exactly as ``net`` does."""
    return from_pairs(net.n1, net.n2, [(e.u, e.v, e.owner) for e in net.edges]) == net


def random_pairs(rng, n1, n2, p=0.5):
    n = n1 + n2
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]


def random_fraction(rng, max_den=12) -> Fraction:
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


# Unscaled draws average 1/2 a link and make mostly null games; scaled by
# s in [1/30, 1/3] with max_den=60, about 99% of 3+3 games with k = 2 are
# non-null.
SWEEP_SCALE = (Fraction(1, 30), Fraction(1, 3))


def random_costs(rng, max_den=12, ordered=False, scale=None) -> CostProfile:
    """Random cost profile; ordered=True enforces c1 <= c12 and c2 <= c21.
    scale=(lo, hi) multiplies the four link costs by one draw of s in
    [lo, hi] (in hundredths of the range)."""
    s = 1
    if scale is not None:
        lo, hi = scale
        s = lo + (hi - lo) * Fraction(rng.randint(0, 100), 100)
    c1, c12 = s * random_fraction(rng, max_den), s * random_fraction(rng, max_den)
    c2, c21 = s * random_fraction(rng, max_den), s * random_fraction(rng, max_den)
    if ordered:
        c1, c12 = min(c1, c12), max(c1, c12)
        c2, c21 = min(c2, c21), max(c2, c21)
    return CostProfile(c1=c1, c2=c2, c12=c12, c21=c21, ca=random_fraction(rng, max_den))


def joint_floor_by_scan(n1, n2, k, costs):
    """The capped joint floor and its least argmin, (cost, x), by a scan
    over every cross count x: x cross links at min(c12, c21), each layer's
    remaining degree shortfall in intra links at 2 degrees each, with
    x >= k + 1, x <= n1*n2 and x >= ni(k+1) - ni(ni-1) per layer;
    (None, None) when no x fits."""
    cmin = min(costs.c12, costs.c21)
    lo = max(k + 1, n1 * (k + 1) - n1 * (n1 - 1), n2 * (k + 1) - n2 * (n2 - 1))
    return min(
        (
            (
                x * cmin
                + (max(0, n1 * (k + 1) - x) + 1) // 2 * costs.c1
                + (max(0, n2 * (k + 1) - x) + 1) // 2 * costs.c2,
                x,
            )
            for x in range(lo, n1 * n2 + 1)
        ),
        default=(None, None),
    )


def harary_pairs(n, r):
    """Links of the circulant Harary graph H(n, r) on nodes 0..n-1
    (2 <= r < n): edge connectivity r with ceil(n*r/2) links."""
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
    return sorted(edges)


def ring_links(order):
    """The unordered links (u, v), u < v, of the cycle through ``order``."""
    return {(min(u, v), max(u, v)) for u, v in zip(order, order[1:] + order[:1])}


def graph_degrees(g):
    degs = [0] * g.n
    for e in g.edges:
        degs[e.u] += 1
        degs[e.v] += 1
    return degs


def count_calls(monkeypatch, module, name):
    """List that records every call of ``module.name`` from here on, from
    whichever layersec module makes it."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "layersec" and vars(mod).get(name) is inner:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_flows(monkeypatch):
    """List that records every ``edge_connectivity_pairs`` call from here on."""
    return count_calls(monkeypatch, layersec.connectivity, "edge_connectivity_pairs")


def stage1_by_scan(n1, k, costs):
    """``stage1_allocate`` by a search over the levels: the least e11 of
    each e12 is bisected for the first e12 that has one and stepped down
    for each next e12, as the floor does not rise with e11 or e12."""
    _check_domain(n1, n1, k)
    L, c1, c2, c12, c21 = _scale(costs)
    top = min(n1 * (n1 - 1) // 2, (L - 1) // c1)  # the most intra links operator 1 affords
    floor = lambda a, b: _level_floor(n1, n1, k, a, b, c2, c21)[0]
    best = None  # the cheapest level so far, as (cost1, floor2, e12, e11)
    a = top + 1  # above top: no e11 fits yet
    for b in range(n1 * n1 + 1):
        bound = L - 1 if best is None else best[0]  # the most operator 1 may pay
        if b * c12 > bound:
            break
        if a > top:
            a = bisect.bisect_left(range(top + 1), True, key=lambda e11: floor(e11, b) < L)
        while 0 < a <= top and floor(a - 1, b) < L:
            a -= 1
        cost1 = a * c1 + b * c12
        if a <= top and cost1 <= bound:
            level = (cost1, floor(a, b), b, a)
            best = level if best is None else min(best, level)
    if best is None:
        return None
    cost1, _, e12, e11 = best
    floor2, x = _level_floor(n1, n1, k, e11, e12, c2, c21)
    if e11 * c2 + x * c21 != floor2:
        raise ConstructionError(f"the mirrored completion of (e11, e12) = ({e11}, {e12}) misses its floor")
    return StageOnePlan(e11, e12, x, Fraction(cost1, L), Fraction(floor2, L))


def spe_by_unfiltered_scan(n1, n2, costs):
    """``solve_spe_exact`` without its orbit pruning: every operator-1
    strategy of every level in the same scan order is completed, and each
    operator-2 cost class keeps its first securable strategy."""
    k = attack_budget(costs.ca)
    if null_spe_check(n1, n2, k, costs):
        return SpeSolution.null(k, n1, n2)
    uni = EdgeUniverse(n1, n2)
    L, c1, c2, c12, c21 = _scale(costs)
    op2_pools = [uni.cross_bits, uni.intra2_bits]
    op2_lattice = _lattice(uni, op2_pools, [c21, c2], L)
    found_cost, by_class = None, {}
    for cost1, (b, a), *_ in _lattice(uni, [uni.cross_bits, uni.intra1_bits], [c12, c1], L):
        if found_cost is not None and cost1 > found_cost:
            break
        floor2 = _level_floor(n1, n2, k, a, b, c2, c21)[0]
        if floor2 is None or floor2 >= L:
            continue
        for intra_sel in itertools.combinations(uni.intra1_bits, a):
            for cross_sel in itertools.combinations(uni.cross_bits, b):
                mask1 = sum(1 << i for i in intra_sel + cross_sel)
                budget = _Budget(DEFAULT_SEARCH_CAP)
                cost2, mask2 = _completion(uni, k, mask1, op2_pools, op2_lattice, budget)
                if cost2 is not None:
                    found_cost = cost1
                    by_class.setdefault(cost2, (mask1, mask2))
    if found_cost is None:
        return SpeSolution.null(k, n1, n2)
    classes = sorted(by_class)
    return SpeSolution(
        k=k,
        is_null=False,
        u1=Fraction(L - found_cost, L),
        profiles=tuple(_profile_from_masks(uni, *by_class[c]) for c in classes),
        u2_values=tuple(Fraction(L - c, L) for c in classes),
    )


def spe_by_pair_enumeration(n1, n2, costs):
    """``bruteforce_spe_oracle`` as a pair loop: every operator-1 subset
    against every operator-2 subset, operator 2 keeping the first strict
    improvement over the empty response in descending subset order."""
    if n1 + n2 > 5:
        raise GameError("oracle instances are capped at n1 + n2 <= 5")
    k = attack_budget(costs.ca)
    uni = EdgeUniverse(n1, n2)
    L, c1, c2, c12, c21 = _scale(costs)
    op1_pool = uni.intra1_mask | uni.cross_mask
    op2_base = uni.intra2_mask | uni.cross_mask
    intra1, intra2, cross = uni.intra1_mask, uni.intra2_mask, uni.cross_mask
    # Every mask of the universe is the union of some (mask1, sub) pair, and
    # most unions recur many times: settle each one once.
    resists = [uni.resists(mask, k) for mask in range(1 << len(uni.pairs))]

    # Payoffs and costs in units of 1/L.
    results = []  # (u1, cost1, mask1, secured, cost2, mask2)
    mask1 = op1_pool
    while True:
        cost1 = c1 * (mask1 & intra1).bit_count() + c12 * (mask1 & cross).bit_count()
        # Operator 2 plays empty first; later strict improvement only, so
        # zero-net-payoff securing never displaces the null response.
        if resists[mask1]:
            best_u2, best_conn, best_cost2, best_mask2 = L, True, 0, 0
        else:
            best_u2, best_conn, best_cost2, best_mask2 = 0, False, 0, 0
        allowed = op2_base & ~mask1
        sub = allowed
        while sub:
            cost2 = c2 * (sub & intra2).bit_count() + c21 * (sub & cross).bit_count()
            survives = resists[mask1 | sub]
            u2 = (L if survives else 0) - cost2
            if u2 > best_u2:
                best_u2, best_conn, best_cost2, best_mask2 = u2, survives, cost2, sub
            sub = (sub - 1) & allowed
        u1 = (L if best_conn else 0) - cost1
        results.append((u1, cost1, mask1, best_conn, best_cost2, best_mask2))
        if mask1 == 0:
            break
        mask1 = (mask1 - 1) & op1_pool

    best_u1 = max(r[0] for r in results)
    if best_u1 <= 0:
        return SpeSolution.null(k, n1, n2, "oracle")
    by_class = {}
    for u1, cost1, mask1, conn, cost2, mask2 in results:
        if u1 == best_u1 and cost2 not in by_class:
            by_class[cost2] = (mask1, mask2)
    classes = sorted(by_class)
    return SpeSolution(
        k=k,
        is_null=False,
        u1=Fraction(best_u1, L),
        profiles=tuple(_profile_from_masks(uni, *by_class[c]) for c in classes),
        u2_values=tuple(Fraction(L - c, L) for c in classes),
        method="oracle",
    )


def place_by_scan(uni, k, base, groups):
    """The first mask, taking ``count`` of ``bits`` for each (bits, count)
    of ``groups``, whose union with ``base`` resists k removals, in
    itertools.product order of each group's combinations (None if none)."""
    for picks in itertools.product(*(itertools.combinations(bits, c) for bits, c in groups)):
        mask = sum(1 << b for pick in picks for b in pick)
        if uni.resists(base | mask, k):
            return mask
    return None


def structured_matches_exact(n, costs):
    """Check ``structured_solve`` against ``solve_spe_exact`` on an n+n game:
    the same null status and u1, and the u2 of the best exact class."""
    exact = solve_spe_exact(n, n, costs)
    structured, _ = structured_solve(n, n, costs)
    assert structured.is_null == exact.is_null, costs
    if not exact.is_null:
        assert structured.u1 == exact.u1, costs
        assert structured.u2 == exact.u2_values[0], costs
