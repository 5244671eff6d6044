"""Seeded, stratified instance sets for the three benchmark workloads.

Each workload is a fixed list of strata (shape x attack budget k x cost
regime) with a fixed instance count per stratum.  The seed only draws costs
inside a stratum's bounds, so two seeds give instance sets of the same
make-up and nearly the same amount of work; unstratified draws differ by
more than an order of magnitude in solve time (see README.md).

Every function here drives the public API of ``layersec`` through module
attributes looked up at call time, so the tracer's wrappers see the calls.
Checks run outside the timed section and use code paths other than the one
being timed: independent edge counting, degree counting, exact cost
arithmetic, vertex-bipartition enumeration, the brute-force oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io as _stdio
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as F

# Bound by load_program(): the package under test, loaded from src/.
layersec = None


def load_program(root: str):
    """Import ``layersec`` from ``<root>/src`` and refuse any other copy."""
    global layersec
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "layersec", "__init__.py")):
        raise SystemExit(f"bench: no layersec sources under {src}")
    sys.path.insert(0, src)
    pkg = importlib.import_module("layersec")
    importlib.import_module("layersec.cli")
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"bench: imported layersec from {pkg.__file__}, not {src}")
    layersec = pkg
    return pkg


@dataclass(frozen=True)
class Stratum:
    name: str
    n1: int
    n2: int
    k: int
    count: int
    # (c1, c2, c12, c21) centres, or a structured regime:
    # ("intra", lo, hi), ("cross",), ("e11", value) or ("null",); see
    # _structured_costs.
    costs: tuple
    why: str


@dataclass(frozen=True)
class Instance:
    stratum: str
    n1: int
    n2: int
    c1: F
    c2: F
    c12: F
    c21: F
    ca: F

    def cost_profile(self):
        return layersec.game.CostProfile(self.c1, self.c2, self.c12, self.c21, self.ca)


def _ca(k: int) -> F:
    """Attack cost with floor(1/cA) = k, strictly inside (0, 1)."""
    return F(2, 3) if k == 1 else F(1, k)


def _between(rng: random.Random, lo: F, hi: F) -> F:
    """Seeded rational strictly inside (lo, hi)."""
    return lo + (hi - lo) * F(rng.randint(1, 999), 1000)


def _jitter(rng: random.Random, centre: F, rel: F = F(4, 100)) -> F:
    return _between(rng, centre * (1 - rel), centre * (1 + rel))


# ---------------------------------------------------------------------------
# structured-large: symmetric instances in the low hundreds, structured route.
# ---------------------------------------------------------------------------

# Regime "intra": operator 1 builds intra-layer links only; the seed draws
# the stage-1 intra count e11 in (lo, hi) * n1 and the ratio c2/c21, and the
# costs are solved for so that stage 1 stops exactly there.  Regime
# "cross": operator 1 exhausts its intra budget and adds e12 in 1..k+1
# cross links.  Even-k windows stay below e11 = n1 - 4: budgets just under
# one full intra ring hit the known even-k placement defect, which the
# DEFECT_PROBE below runs on every structured-large run instead.
STRUCTURED = (
    Stratum("s101-k1-intra", 101, 101, 1, 5, ("intra", F(1, 10), F(2, 5)),
            "odd n, k=1: the cheapest cycle superposition"),
    Stratum("s101-k3-intra", 101, 101, 3, 4, ("intra", F(1, 5), F(3, 5)),
            "odd n, odd k: build_spe_network with mirrored and mixed cycles"),
    Stratum("s100-k3-intra", 100, 100, 3, 4, ("intra", F(1, 5), F(3, 5)),
            "even n, odd k: generalized cycle superposition, vertical closers"),
    Stratum("s81-k5-cross", 81, 81, 5, 4, ("cross",),
            "intra budget exhausted, e12 > 0: closer slots change owner"),
    Stratum("s81-k7-intra", 81, 81, 7, 2, ("intra", F(1, 5), F(3, 5)),
            "largest k: certificate cost grows with n*k*m"),
    Stratum("s80-k4-intra", 80, 80, 4, 4, ("intra", F(1, 8), F(1, 2)),
            "even k: circulant plus degree-driven cross placement"),
    Stratum("s81-k6-intra", 81, 81, 6, 1, ("intra", F(1, 8), F(1, 2)),
            "even k=6 with an odd layer size"),
    # The repair's lambda calls fall linearly with e11 (59 at e11=4, 33 at
    # 17), so a narrow window keeps this stratum's work nearly seed-free.
    Stratum("s35-k2-intra", 35, 35, 2, 3, ("intra", F(1, 4), F(1, 3)),
            "even k=2: the 2-opt repair path, many lambda calls per build"),
    Stratum("s101-k3-null", 101, 101, 3, 1, ("null",),
            "null stratum: the joint cost bound reaches 2, nothing is built"),
)



# Inputs in the solver's stated domain that raise today ("cross placement
# ran out of slots", ROADMAP item 4).  Run once per structured-large run,
# outside the timed section and outside `attempted`, so the defect stays
# visible in every report until it is fixed.
DEFECT_PROBE = (
    Stratum("probe-s100-k4", 100, 100, 4, 1, ("e11", 97),
            "even k, intra budget n1-3: greedy cross placement dead-ends"),
    Stratum("probe-s41-k2", 41, 41, 2, 1, ("e11", 38),
            "even k=2, intra budget n1-3"),
)


def _structured_costs(rng: random.Random, s: Stratum):
    """Costs with c1 <= c12, c2 <= c21 that stop stage 1 at a drawn e11/e12."""
    n, k = s.n1, s.k
    total = n * (k + 1)
    nb11 = (n - 1) * (k + 1) // 2
    regime = s.costs[0]
    if regime == "null":  # nb11 * (c1 + c2) alone exceeds 2
        c1 = _between(rng, F(11, 10), F(3, 2)) / nb11
        return c1, c1, 2 * c1, 2 * c1
    r = _between(rng, F(1, 5), F(4, 5))  # c2 / c21
    step = 2 - r  # operator-2 cost saved per operator-1 intra link, in c21
    if regime == "cross":
        e12 = rng.randint(1, k + 1)
        x = total - nb11 * step
        c21 = 1 / _between(rng, x - e12, x - e12 + 1)
        c1 = _between(rng, F(1, 10), F(1, 2)) / nb11
        c12 = _between(rng, max(c1, c21), (1 - nb11 * c1) / e12)
    else:
        if regime == "e11":
            e11 = s.costs[1]
        else:
            e11 = rng.randint(int(s.costs[1] * n), int(s.costs[2] * n))
        c21 = 1 / _between(rng, total - e11 * step, total - (e11 - 1) * step)
        c1 = _between(rng, F(1, 10), F(9, 10)) / nb11
        c12 = max(c1, c21) * _between(rng, F(1), F(2))
    return c1, r * c21, c12, c21


# ---------------------------------------------------------------------------
# exact-small: n1 + n2 in 5..7, routed to solve_spe_exact.
# ---------------------------------------------------------------------------

# Centres were picked from a seeded scan as non-null instances whose solve
# time moves by at most ~10% under a 4% cost jitter; the seed jitters each
# cost by up to 4%.  Symmetric shapes violate c1 <= c12 so `auto` routes
# them to exact search.  Shapes with n1 + n2 <= 5 are checked against the
# brute-force oracle.
def _c(*xs):
    return tuple(F(x) for x in xs)


EXACT = (
    Stratum("e23-k3", 2, 3, 3, 4, _c("77/500", "19/200", "4/125", "31/250"),
            "oracle-checked 5-node shape, layer 2 larger"),
    Stratum("e32-k2", 3, 2, 2, 4, _c("71/400", "39/200", "13/200", "43/400"),
            "oracle-checked 5-node shape, layer 1 larger"),
    Stratum("e41-k2", 4, 1, 2, 4, _c("71/400", "83/800", "39/800", "27/160"),
            "oracle-checked, single layer-2 node: cross links only for op 2"),
    Stratum("e41-k3", 4, 1, 3, 4, _c("1/10", "3/20", "57/500", "18/125"),
            "oracle-checked, k at its ceiling n-2"),
    Stratum("e24-k1", 2, 4, 1, 4, _c("19/75", "17/75", "23/120", "19/100"),
            "6 nodes, k=1"),
    Stratum("e24-k3", 2, 4, 3, 4, _c("31/300", "137/1200", "3/50", "43/600"),
            "6 nodes, k=3, cheap cross links"),
    Stratum("e42-k3", 4, 2, 3, 4, _c("19/300", "77/600", "41/600", "8/75"),
            "6 nodes, operator 1 owns the larger layer"),
    Stratum("e42-k4", 4, 2, 4, 3, _c("127/1500", "113/1500", "19/300", "11/375"),
            "6 nodes, k=4: deep operator-2 completion search"),
    Stratum("e33-k1", 3, 3, 1, 4, _c("13/60", "13/50", "3/40", "31/120"),
            "symmetric but c1 > c12: auto must take the exact route"),
    Stratum("e33-k3", 3, 3, 3, 4, _c("231/2000", "27/400", "31/600", "13/150"),
            "symmetric, c1 > c12, k=3"),
    Stratum("e15-k2", 1, 5, 2, 4, _c("31/180", "91/900", "4/75", "157/900"),
            "operator 1 has no intra links to buy"),
    Stratum("e34-k2", 3, 4, 2, 4, _c("11/200", "4/125", "9/200", "149/1000"),
            "7 nodes, k=2"),
    Stratum("e34-k3", 3, 4, 3, 4, _c("33/1400", "31/350", "5/56", "73/700"),
            "7 nodes, k=3"),
    Stratum("e34-k4", 3, 4, 4, 4, _c("127/1800", "11/600", "2/75", "1/36"),
            "7 nodes, k=4"),
    Stratum("e34-k5", 3, 4, 5, 2, _c("37/2100", "109/2100", "13/525", "51/700"),
            "7 nodes, k=5: one of the heavy tails"),
    Stratum("e43-k1", 4, 3, 1, 3, _c("13/70", "87/700", "13/175", "27/140"),
            "7 nodes, k=1, many cheap operator-1 levels scanned"),
    Stratum("e43-k3", 4, 3, 3, 4, _c("27/280", "1/20", "41/700", "17/280"),
            "7 nodes, k=3"),
    Stratum("e43-k4", 4, 3, 4, 4, _c("59/1800", "41/900", "37/900", "7/180"),
            "7 nodes, k=4"),
    Stratum("e43-k5", 4, 3, 5, 2, _c("34/525", "11/420", "143/2100", "7/300"),
            "7 nodes, k=5: the other heavy tail"),
    Stratum("e25-k1", 2, 5, 1, 4, _c("139/700", "39/175", "137/700", "51/350"),
            "7 nodes, operator 2 owns most of the graph"),
    Stratum("e23-null", 2, 3, 3, 2, _c("3/10", "3/10", "3/10", "3/10"),
            "null stratum: no operator can afford a 4-regular graph"),
)


# ---------------------------------------------------------------------------
# metrics-cli: scenario files through cli.main (solve, metrics, oracle).
# ---------------------------------------------------------------------------

CLI = (
    Stratum("c-oracle-23", 2, 3, 3, 6, EXACT[0].costs,
            "solve + metrics + brute-force oracle on a 5-node shape"),
    Stratum("c-oracle-32", 3, 2, 2, 6, EXACT[1].costs,
            "oracle shape with operator 1 owning the larger layer"),
    Stratum("c-exact-24", 2, 4, 3, 6, EXACT[5].costs,
            "exact route plus exact team search, PoS re-solves swapped layers"),
    Stratum("c-exact-33", 3, 3, 3, 6, EXACT[9].costs,
            "symmetric with c1 > c12: exact route on both orderings"),
    Stratum("c-exact-34", 3, 4, 3, 4, EXACT[12].costs,
            "7 nodes: the largest exact team search metrics will run"),
    Stratum("c-struct-9", 9, 9, 3, 6, ("intra", F(1, 5), F(3, 5)),
            "structured route and the structured Harary team benchmark"),
    Stratum("c-struct-15", 15, 15, 5, 6, ("intra", F(1, 5), F(3, 5)),
            "larger structured instance, odd k"),
    Stratum("c-struct-12", 12, 12, 3, 4, ("intra", F(1, 5), F(3, 5)),
            "even n, odd k structured route"),
    Stratum("c-null", 2, 3, 3, 2, _c("3/10", "3/10", "3/10", "3/10"),
            "null scenario: solve exits 2"),
)



def _costs_for(rng: random.Random, s: Stratum):
    if isinstance(s.costs[0], str):
        return _structured_costs(rng, s)
    return tuple(_jitter(rng, c) for c in s.costs)


def generate(workload: str, seed: int, strata=None) -> list:
    """The workload's instances, stratum by stratum, in a fixed order."""
    out, seen = [], set()
    for s in strata if strata is not None else WORKLOADS[workload].strata:
        rng = random.Random(f"{workload}/{s.name}/{seed}")
        made = 0
        while made < s.count:
            inst = Instance(s.name, s.n1, s.n2, *_costs_for(rng, s), _ca(s.k))
            key = (inst.n1, inst.n2, inst.c1, inst.c2, inst.c12, inst.c21, inst.ca)
            if key in seen:  # distinct inputs: repeats only come from the program
                continue
            seen.add(key)
            out.append(inst)
            made += 1
    return out


# ---------------------------------------------------------------------------
# Running one instance (the timed part) and checking it (untimed).
# ---------------------------------------------------------------------------


def scenario_dict(inst: Instance) -> dict:
    return {
        "n1": inst.n1, "n2": inst.n2,
        "c1": str(inst.c1), "c2": str(inst.c2),
        "c12": str(inst.c12), "c21": str(inst.c21), "cA": str(inst.ca),
        "mode": "auto",
    }


def write_scenarios(instances, directory: str) -> list:
    """One scenario file per instance; returns the cli calls to make."""
    calls = []
    for i, inst in enumerate(instances):
        path = os.path.join(directory, f"{i:03d}-{inst.stratum}.json")
        with open(path, "w") as fh:
            json.dump(scenario_dict(inst), fh)
        commands = ["solve", "metrics"]
        if inst.n1 + inst.n2 <= 5:
            commands.append("oracle")
        calls += [(inst, cmd, path) for cmd in commands]
    return calls


def run_structured(inst: Instance):
    costs = inst.cost_profile()
    solution, built = layersec.metrics.solve_game(inst.n1, inst.n2, costs)
    if solution.is_null:  # `layersec solve` verifies nothing on a null answer
        return solution, built, None, None
    attack = layersec.game.adversary_best_response(built.graph, costs.ca)
    level = layersec.connectivity.link_connectivity(built.graph)
    return solution, built, attack, level


def run_exact(inst: Instance):
    solution, _ = layersec.metrics.solve_game(inst.n1, inst.n2, inst.cost_profile())
    return solution


def run_cli(call):
    inst, cmd, path = call
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = layersec.cli.main([cmd, "--scenario", path])
    return code, out.getvalue(), err.getvalue()


def _degrees(n: int, pairs) -> list:
    degs = [0] * n
    for u, v in pairs:
        degs[u] += 1
        degs[v] += 1
    return degs


def _min_cut_by_bipartition(n: int, pairs) -> int:
    """Edge connectivity by enumerating every vertex bipartition (n <= 8)."""
    best = len(pairs)
    for bits in range(1, 1 << (n - 1)):
        side = [(bits >> v) & 1 for v in range(n)]
        best = min(best, sum(1 for u, v in pairs if side[u] != side[v]))
    return best


def check_structured(inst: Instance, answer) -> list:
    solution, built, attack, level = answer
    k = solution.k
    nb = (inst.n1 - 1) * (k + 1) // 2
    # Joint lower bound on the build cost (symmetric layers): at least 2 means null.
    bound = (k + 1) * min(inst.c12, inst.c21) + nb * (inst.c1 + inst.c2)
    if solution.is_null or bound >= 2:
        return [] if solution.is_null and bound >= 2 else [f"null={solution.is_null}, cost bound {bound}"]
    g = built.graph
    errors = []
    plan = layersec.construction.stage1_allocate(inst.n1, k, inst.cost_profile())
    tally = {}
    for e in g.edges:
        tally[(e.owner.value, e.cls.value)] = tally.get((e.owner.value, e.cls.value), 0) + 1
    want = {
        (1, "intra1"): plan.e11, (1, "cross"): plan.e12,
        (2, "intra2"): plan.op2_intra, (2, "cross"): plan.op2_cross,
    }
    if tally != {key: n for key, n in want.items() if n}:
        errors.append(f"link counts {tally} != stage-1 plan {want}")
    if set(_degrees(g.n, (e.pair for e in g.edges))) != {k + 1}:
        errors.append(f"not every degree is k+1 = {k + 1}")
    u1 = 1 - tally.get((1, "intra1"), 0) * inst.c1 - tally.get((1, "cross"), 0) * inst.c12
    u2 = 1 - tally.get((2, "intra2"), 0) * inst.c2 - tally.get((2, "cross"), 0) * inst.c21
    if solution.u1 != u1 or solution.u2 != u2:
        errors.append(f"utilities ({solution.u1}, {solution.u2}) != counted ({u1}, {u2})")
    if attack or level.p != k:
        errors.append(f"attack {len(attack)} links / level {level.p} on a certified build")
    return errors


def check_exact(inst: Instance, solution) -> list:
    errors = []
    n = inst.n1 + inst.n2
    costs = inst.cost_profile()
    if solution.method != "exact":
        errors.append(f"auto took the {solution.method} route")
    if n <= 5:
        oracle = layersec.game.bruteforce_spe_oracle(inst.n1, inst.n2, costs)
        if (oracle.is_null, oracle.u1, set(oracle.u2_values)) != (
            solution.is_null, solution.u1, set(solution.u2_values)
        ):
            errors.append("exact search disagrees with the brute-force oracle")
        return errors
    if solution.is_null:
        return errors
    for u2, profile in zip(solution.u2_values, solution.profiles):
        outcome = layersec.game.utilities(profile, costs, inst.n1, inst.n2)
        if (outcome.u1, outcome.u2) != (solution.u1, u2):
            errors.append(f"re-evaluated ({outcome.u1}, {outcome.u2}) != ({solution.u1}, {u2})")
        if _min_cut_by_bipartition(n, list(profile.built_pairs())) < solution.k + 1:
            errors.append("an equilibrium profile does not resist k removals")
    return errors


def check_cli(call, answer) -> list:
    inst, cmd, _ = call
    code, out, err = answer
    try:
        data = json.loads(out) if out else None
    except json.JSONDecodeError:
        return [f"{cmd}: stdout is not JSON"]
    if data is None:
        return [f"{cmd}: exit {code}, no output ({err.strip()})"]
    if cmd == "solve":
        want = 2 if data["null"] else 0
        return [] if code == want else [f"solve: exit {code}, expected {want}"]
    if cmd == "oracle":
        return [] if code == 0 and data["agree"] else [f"oracle: exit {code}, disagreement"]
    if code != 0:
        return [f"metrics: exit {code} ({err.strip()})"]
    errors = []
    lower = F(data["lower_bound"])
    upper = F(data["upper_bound"]) if data["upper_bound"] is not None else None
    team = data["team"]
    # The lower bound holds only when intra links are no pricier than cross links.
    lower_valid = min(inst.c1, inst.c2) <= min(inst.c12, inst.c21)
    if not team["null"]:
        cost = F(team["cost"])
        if (lower_valid and cost < lower) or (upper is not None and cost > upper):
            errors.append(f"metrics: team cost {cost} outside [{lower}, {upper}]")
    poa = data["poa"]
    if poa["value"] is not None and F(poa["value"]) != F(poa["c_spe"]) / F(poa["c_co"]):
        errors.append("metrics: PoA != c_spe / c_co")
    return errors


def digest_structured(inst, answer) -> str:
    solution, built, attack, level = answer
    if solution.is_null:
        return f"null|{solution.k}"
    edges = sorted((e.u, e.v, e.owner.value) for e in built.graph.edges)
    return f"{solution.u1}|{solution.u2}|{level.p}|{len(attack)}|{edges}"


def digest_exact(inst, solution) -> str:
    profiles = [sorted(p.built_pairs()) for p in solution.profiles]
    return f"{solution.is_null}|{solution.u1}|{list(solution.u2_values)}|{profiles}"


def digest_cli(call, answer) -> str:
    code, out, _ = answer
    # Scenario paths differ per process; the JSON carries no paths.
    return f"{call[1]}|{code}|{out}"


@dataclass(frozen=True)
class Workload:
    strata: tuple
    run: object
    check: object
    digest: object


WORKLOADS = {
    "structured-large": Workload(STRUCTURED, run_structured, check_structured, digest_structured),
    "exact-small": Workload(EXACT, run_exact, check_exact, digest_exact),
    "metrics-cli": Workload(CLI, run_cli, check_cli, digest_cli),
}


def answer_digest(workload: str, items, answers) -> str:
    h = hashlib.sha256()
    for item, answer in zip(items, answers):
        text = "error" if isinstance(answer, BaseException) else WORKLOADS[workload].digest(item, answer)
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def run_probe():
    """Run DEFECT_PROBE; returns (stratum, outcome) pairs."""
    outcomes = []
    for inst in generate("structured-large", 0, DEFECT_PROBE):
        try:
            run_structured(inst)
            outcomes.append((inst.stratum, "solved"))
        except layersec.construction.ConstructionError as exc:
            outcomes.append((inst.stratum, f"ConstructionError: {exc}"))
    return outcomes
