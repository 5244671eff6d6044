"""Acceptance gate.

Criteria 1-8 are the paper's claims: one test per ``reproduce`` case of
``claims.CLAIMS``, which must print a PASS line for every expected field
within the criterion's time limit.  Criteria 9 and 10 each print a
pass/fail line.  Every expected value is exact.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import ast
import dataclasses
import importlib
import pkgutil
import random
import re
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from types import ModuleType

import pytest

import layersec
from helpers import graph_degrees, lambda_by_enumeration, random_costs, random_pairs, ring_links
from layersec import claims
from layersec.cli import main
from layersec.connectivity import edge_connectivity_pairs, link_connectivity
from layersec.construction import build_generalized
from layersec.game import CostProfile, bruteforce_spe_oracle, solve_spe_exact
from layersec.graph import EdgeClass, Owner
from layersec.metrics import team_optimal, cost_bounds


def costs_of(c1, c2, c12, c21, ca="1/2") -> CostProfile:
    return CostProfile(F(c1), F(c2), F(c12), F(c21), F(ca))


CASE_A = costs_of("1/30", "1/45", "1/20", "2/45", "1/3")


def _report(num, label, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


# Seconds each reproduce case must finish in, where the criterion states a limit.
TIME_LIMITS = {"algo-example": 1.0, "case-a": 5.0, "prop3": 60.0}


@pytest.mark.parametrize("case", sorted(claims.CLAIMS))
def test_criteria_1_to_8_reproduce_the_claims(capsys, case):
    t0 = time.monotonic()
    code = main(["reproduce", case])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    assert out.count("PASS") == sum(len(expected) for _, _, expected in claims.CLAIMS[case])
    assert elapsed < TIME_LIMITS.get(case, float("inf")), elapsed


def test_criterion_2_discrepancy_note_is_printed(capsys):
    from layersec.cli import main

    code = main(["reproduce", "case-a"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5/6" in out and "2/3" in out


def test_criterion_9_oracle_equivalence():
    rng = random.Random(20260810)
    shapes = [(2, 2)] * 90 + [(3, 2)] * 35 + [(2, 3)] * 35 + [(4, 1)] * 20 + [(1, 4)] * 20
    assert len(shapes) == 200
    for n1, n2 in shapes:
        costs = random_costs(rng)
        exact = solve_spe_exact(n1, n2, costs)
        oracle = bruteforce_spe_oracle(n1, n2, costs)
        assert exact.is_null == oracle.is_null, (n1, n2, costs)
        assert exact.u1 == oracle.u1, (n1, n2, costs)
        assert set(exact.u2_values) == set(oracle.u2_values), (n1, n2, costs)

    for i in range(200):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        n = n1 + n2
        pairs = random_pairs(rng, n1, n2, p=rng.choice([0.25, 0.5, 0.75]))[:12]
        assert edge_connectivity_pairs(n, pairs) == lambda_by_enumeration(n, pairs)
    _report(9, "200 solver cross-checks and 200 connectivity cross-checks", True)


BUILDER_SWEEP = [
    (5, 3, costs_of("1/20", "1/20", "1/10", "1/10")),
    (9, 3, CASE_A),
    (8, 3, CASE_A),
    (7, 5, costs_of("1/40", "1/40", "1/30", "1/30")),
    (9, 7, costs_of("1/100", "1/41", "1/100", "1/41")),
    (6, 3, costs_of("1/30", "1/40", "1/25", "1/35")),
    (3, 1, costs_of("1/100", "1/4", "1/50", "1/4")),
    (5, 2, costs_of("1/20", "1/20", "1/15", "1/15")),
    (9, 4, CASE_A),
]


def test_criterion_10_structural_invariants():
    from layersec.connectivity import connected_pairs

    for n1, k, costs in BUILDER_SWEEP:
        built = build_generalized(n1, n1, k, costs)
        g = built.graph
        assert len(g.edges) == n1 * (k + 1)
        tally = g.tally()
        assert tally[Owner.OPERATOR1, EdgeClass.CROSS] + tally[Owner.OPERATOR2, EdgeClass.CROSS] >= k + 1
        assert link_connectivity(g).p >= k
        assert set(graph_degrees(g)) == {k + 1}
        assert len(built.cycle_tags) == (k + 1) // 2
        seen = set()
        for order in built.cycle_tags:
            tag = ring_links(order)
            assert not (seen & tag)
            seen |= tag
            degs = [0] * g.n
            for u, v in tag:
                degs[u] += 1
                degs[v] += 1
            assert set(degs) == {2} and connected_pairs(g.n, tag)
        assert len(seen) == g.n * ((k + 1) // 2)

    costs = costs_of("1/10", "1/12", "1/8", "1/9")
    sandwich_checked = 0
    for n1, n2 in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (4, 1), (1, 4), (5, 1), (1, 5)):
        for k in (1, 2, 3):
            team = team_optimal(n1, n2, k, costs)
            lower, upper = cost_bounds(n1, n2, k, costs)
            if team.null:
                continue
            sandwich_checked += 1
            assert lower <= team.cost
            if upper is not None:
                assert team.cost <= upper
    assert sandwich_checked >= 10
    _report(10, "builder invariants and bound sandwiches", True)


def test_the_package_imports_only_the_standard_library():
    # The solver stays stdlib-only: every absolute import in the package
    # names a standard-library module (relative imports stay inside it).
    sources = sorted(Path(layersec.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_every_module_parses_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # newer syntax (an except* clause, a type parameter list).  ast checks
    # the grammar only: a library call newer than the floor still parses.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert floor and tuple(map(int, floor.groups())) == (3, 10)
    sources = sorted(Path(layersec.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_every_dotted_name_the_readme_gives_resolves():
    # A backticked dotted name whose first part is the package, one of its
    # modules or a name one of them binds (not a stdlib module) must
    # resolve, part by part, as a module attribute, a class attribute or a
    # dataclass field: a deletion that leaves the README naming the deleted
    # thing fails here.  Report paths (`poa.c_co`), scenario keys
    # (`caps.search`) and stdlib names (`fractions.Fraction`) fall outside.
    modules = {m.name: importlib.import_module(f"layersec.{m.name}") for m in pkgutil.iter_modules(layersec.__path__)}
    roots = {"layersec": layersec, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            if not isinstance(value, ModuleType):
                roots.setdefault(name, value)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    spans = re.findall(r"`([^`\n]+)`", readme)
    names = {name for span in spans for name in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)}
    checked = sorted(name for name in names if name.split(".")[0] in roots)
    for name in checked:
        first, *parts = name.split(".")
        value = roots[first]
        for i, part in enumerate(parts):
            if hasattr(value, part):
                value = getattr(value, part)
            else:
                fields = {f.name for f in dataclasses.fields(value)} if dataclasses.is_dataclass(value) else ()
                assert part in fields and i == len(parts) - 1, f"README names {name}, which does not resolve"
    assert len(checked) >= 15, checked
