import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from layersec import io
from layersec.cli import main
from layersec.graph import EdgeClass, Owner, count_by, new_graph, add_edge

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_parse_rational():
    assert io.parse_rational("0.09") == F(9, 100)
    assert io.parse_rational("2/45") == F(2, 45)
    assert io.parse_rational(1) == 1
    with pytest.raises(io.FormatError):
        io.parse_rational(0.09)  # floats are refused, they are inexact
    with pytest.raises(io.FormatError):
        io.parse_rational("a/b")


def test_scenario_parsing():
    scn = io.load_scenario(SCENARIOS / "case-a.json")
    assert (scn.n1, scn.n2) == (9, 9)
    assert scn.costs.c21 == F(2, 45)
    assert scn.mode == "auto"
    with pytest.raises(io.FormatError):
        io.scenario_from_dict({"n1": 2, "n2": 2, "c1": "1/2", "c2": "1/2", "c12": "1/2", "c21": "1/2"})
    with pytest.raises(io.FormatError):
        io.scenario_from_dict(
            {"n1": 2, "n2": 2, "c1": "1/2", "c2": "1/2", "c12": "1/2", "c21": "1/2", "cA": "1/2", "mode": "x"}
        )


def test_graph_round_trip(tmp_path):
    g = new_graph(3, 2)
    g = add_edge(g, 0, 1, Owner.OPERATOR1)
    g = add_edge(g, 0, 3, Owner.OPERATOR2)
    g = add_edge(g, 3, 4, Owner.OPERATOR2)
    path = tmp_path / "g.json"
    io.save_graph(g, path)
    back = io.load_graph(path)
    assert back.edges == g.edges
    assert count_by(back, Owner.OPERATOR2, EdgeClass.CROSS) == 1


def test_dot_export_styles():
    g = new_graph(2, 2)
    g = add_edge(g, 0, 1, Owner.OPERATOR1)
    g = add_edge(g, 1, 2, Owner.OPERATOR2)
    dot = io.to_dot(g, attacked=[(1, 2)])
    assert "0 -- 1 [penwidth=2.5];" in dot
    assert "1 -- 2 [style=dashed];" in dot
    assert "shape=circle" in dot and "shape=box" in dot


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_GOOD = {"n1": 2, "n2": 2, "c1": "1/10", "c2": "1/10", "c12": "1/10", "c21": "1/10", "cA": "1/2"}


@pytest.mark.parametrize(
    "command,content",
    [
        ("solve", {**_GOOD, "n1": "x"}),
        ("solve", {**_GOOD, "caps": "abc"}),
        ("solve", {**_GOOD, "caps": {"search": "q"}}),
        ("solve", [_GOOD]),
        ("verify", {"n1": 2, "n2": 2, "edges": [{"u": 0, "v": "a", "owner": 1}]}),
        ("verify", {"n1": "x", "n2": 2, "edges": []}),
    ],
    ids=["n1-text", "caps-text", "search-cap-text", "top-level-array", "edge-node-text", "graph-n1-text"],
)
def test_cli_malformed_values_exit_with_error(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    where = ["--graph", str(path), "--k", "1"] if command == "verify" else ["--scenario", str(path)]
    code, out, err = run_cli(capsys, command, *where)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_cli_solve_case_a(capsys):
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(SCENARIOS / "case-a.json"))
    assert code == 0
    bundle = json.loads(out)
    assert bundle["k"] == 3
    assert bundle["u2"] == "1/15"
    assert bundle["operator1"] == {"intra1": 10, "cross": 0}
    assert bundle["operator2"] == {"intra2": 10, "cross": 16}
    assert bundle["verification"]["p"] == 3
    assert bundle["verification"]["adversary_attack"] == []


def test_cli_solve_null_exit_code(capsys):
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(SCENARIOS / "null-degree-bound.json"))
    assert code == 2
    assert json.loads(out)["null"] is True


def test_cli_solve_prop3_classes(capsys):
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(SCENARIOS / "prop3.json"))
    assert code == 0
    bundle = json.loads(out)
    assert bundle["u1"] == "91/100"
    assert bundle["u2_classes"] == ["1/10", "1/100"]
    assert bundle["operator2_cost_classes"] == ["9/10", "99/100"]


def test_cli_construct_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "built.json"
    dot_path = tmp_path / "built.dot"
    code, out, _ = run_cli(
        capsys, "construct", "--scenario", str(SCENARIOS / "case-a.json"),
        "--out", str(out_path), "--dot", str(dot_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["edges"] == 36
    g = io.load_graph(out_path)
    assert count_by(g, Owner.OPERATOR1, EdgeClass.INTRA1) == report["operator1"]["intra1"]
    assert count_by(g, Owner.OPERATOR2, EdgeClass.CROSS) == report["operator2"]["cross"]
    assert dot_path.read_text().startswith("graph layersec")

    code, out, _ = run_cli(capsys, "verify", "--graph", str(out_path), "--k", "3")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["resistant"] is True
    assert verdict["p"] == 3
    assert set(verdict["degrees"]) == {4}


def test_cli_construct_null_exit(tmp_path, capsys):
    scn = {
        "n1": 2, "n2": 2, "c1": "1/10", "c2": "1/10",
        "c12": "1/8", "c21": "1/8", "cA": "1/5",
    }
    path = tmp_path / "null.json"
    path.write_text(json.dumps(scn))
    code, _, err = run_cli(capsys, "construct", "--scenario", str(path), "--out", str(tmp_path / "g.json"))
    assert code == 2
    assert "null" in err


def test_cli_verify_failure_exit(tmp_path, capsys):
    # drop one link from the case-a build: some node falls to degree 3
    out_path = tmp_path / "built.json"
    run_cli(capsys, "construct", "--scenario", str(SCENARIOS / "case-a.json"), "--out", str(out_path))
    data = json.loads(out_path.read_text())
    data["edges"] = data["edges"][1:]
    weakened = tmp_path / "weakened.json"
    weakened.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", "--graph", str(weakened), "--k", "3")
    assert code == 1
    assert json.loads(out)["resistant"] is False


def test_cli_attack_on_cycle(tmp_path, capsys):
    n = 18
    g = new_graph(9, 9)
    for i in range(n):
        u, v = i, (i + 1) % n
        owner = Owner.OPERATOR1 if max(u, v) < 9 or (min(u, v) < 9 <= max(u, v)) else Owner.OPERATOR2
        g = add_edge(g, min(u, v), max(u, v), owner)
    path = tmp_path / "cycle.json"
    io.save_graph(g, path)
    code, out, _ = run_cli(capsys, "attack", "--graph", str(path), "--ca", "1/3")
    assert code == 0
    report = json.loads(out)
    assert report["k"] == 3
    assert report["p"] == 1
    assert len(report["attack"]) == 2
    assert report["post_attack_connected"] is False
    assert report["uA"] == "1/3"


def test_cli_attack_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n1": 2, "n2": 2, "edges": []}))
    code, out, _ = run_cli(capsys, "attack", "--graph", str(path), "--ca", "1/3")
    assert code == 0
    report = json.loads(out)
    assert report["attack"] == []
    assert report["uA"] == "1"
    code, out, _ = run_cli(capsys, "verify", "--graph", str(path), "--k", "0")
    assert json.loads(out)["p"] == -1


def test_cli_oracle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--scenario", str(SCENARIOS / "oracle-tiny.json"))
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_cli_oracle_rejects_big_instances(capsys):
    code, _, err = run_cli(capsys, "oracle", "--scenario", str(SCENARIOS / "case-a.json"))
    assert code == 1
    assert "capped" in err


def test_cli_metrics(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--scenario", str(SCENARIOS / "poa-n3.json"))
    assert code == 0
    report = json.loads(out)
    assert report["poa"]["value"] == "2"
    assert report["team"]["exact"] is True


def test_cli_error_exit_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--scenario", "/nonexistent.json")
    assert code == 1
    assert "error:" in err


def test_cli_reproduce_example_1(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "example-1")
    assert code == 0
    assert out.count("PASS") == 4
