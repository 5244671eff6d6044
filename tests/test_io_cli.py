import contextlib
import json
import tempfile
from fractions import Fraction as F
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import count_flows, lambda_by_bipartition
from layersec import claims, cli, io, metrics
from layersec.cli import main
from layersec.graph import EdgeClass, Owner, count_by, new_graph, add_edge

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_GOOD = {"n1": 2, "n2": 2, "c1": "1/10", "c2": "1/10", "c12": "1/10", "c21": "1/10", "cA": "1/2"}


def test_parse_rational():
    assert io.parse_rational("0.09") == F(9, 100)
    assert io.parse_rational("2/45") == F(2, 45)
    assert io.parse_rational(1) == 1
    with pytest.raises(io.FormatError):
        io.parse_rational(0.09)  # floats are refused, they are inexact
    with pytest.raises(io.FormatError):
        io.parse_rational("a/b")


def test_the_json_writer_takes_fractions_and_refuses_other_objects():
    report = {"u1": F(2, 45), "classes": (F(1), F(3, 2)), "k": 3, "bound": None}
    assert json.dumps(report, default=io.rational_json) == '{"u1": "2/45", "classes": ["1", "3/2"], "k": 3, "bound": null}'
    edge = next(iter(add_edge(new_graph(2, 1), 0, 2, Owner.OPERATOR1).edges))
    with pytest.raises(TypeError):
        io.rational_json(edge)
    with pytest.raises(TypeError):
        json.dumps({"attack": [edge]}, default=io.rational_json)


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
    # Every key is read: a misspelt one is refused by name, not ignored.
    full = {**_GOOD, "mode": "exact", "caps": {"search": 7}}
    scn = io.scenario_from_dict(full)
    assert (scn.mode, scn.cap) == ("exact", 7)
    for key in ("mdoe", "cap"):
        with pytest.raises(io.FormatError, match=f"unknown scenario key.*'{key}'"):
            io.scenario_from_dict({**full, key: "structured"})


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
    dot = io.to_dot(g)
    assert "0 -- 1 [penwidth=2.5];" in dot
    assert "  1 -- 2;" in dot
    assert "shape=circle" in dot and "shape=box" in dot


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "command,content,flags",
    [
        ("solve", {**_GOOD, "n1": "x"}, ()),
        ("solve", {**_GOOD, "caps": "abc"}, ()),
        ("solve", {**_GOOD, "caps": {"search": "q"}}, ()),
        ("solve", [_GOOD], ()),
        ("verify", {"n1": 2, "n2": 2, "edges": [{"u": 0, "v": "a", "owner": 1}]}, ()),
        ("verify", {"n1": "x", "n2": 2, "edges": []}, ()),
        ("solve", {**_GOOD, "n1": 2.7}, ()),
        ("solve", {**_GOOD, "n1": True}, ()),
        ("solve", {**_GOOD, "cA": "1/5", "caps": True}, ()),  # null by degree: a cap of 1 would solve
        ("solve", {**_GOOD, "caps": {"search": 100.0}}, ()),
        # Caps below 1, on a degree-bound null that needs no tick to solve.
        ("solve", {**_GOOD, "cA": "1/5"}, ("--cap", "0")),
        ("solve", {**_GOOD, "cA": "1/5"}, ("--cap", "-1")),
        ("solve", {**_GOOD, "cA": "1/5", "caps": 0}, ()),
        ("solve", {**_GOOD, "cA": "1/5", "caps": {"search": -3}}, ()),
        # Keys a scenario does not define, and caps in any but the object form.
        ("solve", {**_GOOD, "mdoe": "structured"}, ()),
        ("solve", {**_GOOD, "cap": {"search": 1}}, ()),
        ("solve", {**_GOOD, "cA": "1/5", "caps": 1}, ()),
        ("solve", {**_GOOD, "cA": "1/5", "caps": {"search": 5, "ticks": 5}}, ()),
    ],
    ids=[
        "n1-text", "caps-text", "search-cap-text", "top-level-array", "edge-node-text", "graph-n1-text",
        "n1-float", "n1-bool", "caps-bool", "search-cap-float",
        "cap-flag-zero", "cap-flag-negative", "caps-zero", "search-cap-negative",
        "unknown-key", "unknown-key-cap", "caps-bare-number", "caps-unknown-key",
    ],
)
def test_cli_malformed_values_exit_with_error(tmp_path, capsys, command, content, flags):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    where = ["--graph", str(path), "--k", "1"] if command == "verify" else ["--scenario", str(path)]
    code, out, err = run_cli(capsys, command, *where, *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"[" * 200_000], ids=["not-utf8", "too-deep"])
def test_cli_unreadable_files_exit_with_error(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    where = ["--graph", str(path), "--k", "1"] if command == "verify" else ["--scenario", str(path)]
    code, out, err = run_cli(capsys, command, *where)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


_FUZZ_COST = st.fractions(0, 1, max_denominator=30).filter(lambda c: 0 < c < 1).map(str)
_FUZZ_CAP = st.integers(1, 10**4)
_FUZZ_SCENARIO = st.fixed_dictionaries(
    {
        "n1": st.integers(1, 4),
        "n2": st.integers(1, 4),
        **{key: _FUZZ_COST for key in ("c1", "c2", "c12", "c21")},
        "cA": st.fractions(F(1, 4), 1, max_denominator=30).filter(lambda c: c < 1).map(str),
        "caps": st.fixed_dictionaries({"search": _FUZZ_CAP}),
    },
    optional={"mode": st.sampled_from(metrics.MODES)},
)
_FUZZ_JUNK = st.one_of(
    st.integers(-2, 0),
    st.fractions(-1, 2, max_denominator=30).map(str),
    st.sampled_from(["x", "", "1/0", 0.5, 2.0, True, None, [], {}, "fast"]),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    command=st.sampled_from(["solve", "metrics", "oracle"]),
    content=_FUZZ_SCENARIO,
    spoil=st.none() | st.tuples(st.sampled_from(["n1", "n2", "c1", "c21", "cA", "caps", "mode"]), _FUZZ_JUNK),
)
def test_cli_fuzzed_scenarios_exit_cleanly(command, content, spoil):
    # Any scenario, valid or with one spoiled field, ends in exit code 0, 1
    # or 2, never in a traceback.
    if spoil is not None:
        content = {**content, spoil[0]: spoil[1]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(content))
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
            code = main([command, "--scenario", str(path)])
    assert code in (0, 1, 2)


@pytest.mark.parametrize(
    "command,ca,k,flows",
    [
        ("solve", "1/3", 3, 0),
        ("construct", "1/3", 3, 0),
        ("solve", "1/4", 4, 0),
        ("construct", "1/4", 4, 0),
    ],
    ids=["odd-k-solve", "odd-k-construct", "even-k-solve", "even-k-construct"],
)
def test_a_structured_solve_flows_only_for_even_k(tmp_path, capsys, monkeypatch, command, ca, k, flows):
    # An odd-k build is certified by its Hamiltonian cycles and an even-k
    # build by one sweep over the arcs of its first cycle, neither by a
    # flow; the adversary's check and the reported level read the lambda
    # kept on the built graph.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**json.loads((SCENARIOS / "case-a.json").read_text()), "cA": ca}))
    calls = count_flows(monkeypatch)
    out = ["--out", str(tmp_path / "built.json")] if command == "construct" else []
    code, stdout, _ = run_cli(capsys, command, "--scenario", str(scenario), *out)
    assert code == 0
    bundle = json.loads(stdout)
    assert bundle["k"] == k
    level = bundle["p"] if command == "construct" else bundle["verification"]["p"]
    assert level == k
    if command == "construct":
        assert bundle["cycles_built"] == 2
    assert len(calls) == flows


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


@st.composite
def _fuzz_graph(draw):
    """A valid graph dict with n <= 7: any edge subset, admissible owners."""
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(1, 7 - n1))
    edges = []
    for u in range(n1 + n2):
        for v in range(u + 1, n1 + n2):
            if draw(st.booleans()):
                owner = 1 if v < n1 else 2 if u >= n1 else draw(st.sampled_from([1, 2]))
                edges.append({"u": u, "v": v, "owner": owner})
    return {"n1": n1, "n2": n2, "edges": edges}


def _spoil_graph(content, spoil):
    key, junk = spoil
    if key in ("n1", "n2", "edges"):
        return {**content, key: junk}
    if key == "top-level":
        return junk
    edge = {"u": 0, "v": 1, "owner": 1, key: junk}
    return {**content, "edges": content["edges"] + [edge]}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    command=st.sampled_from(["verify", "attack"]),
    content=_fuzz_graph(),
    spoil=st.none()
    | st.tuples(
        st.sampled_from(["n1", "n2", "edges", "u", "v", "owner", "top-level"]),
        st.one_of(st.integers(-2, 8), _FUZZ_JUNK, st.just([{"u": 0}]), st.just([[0, 1, 1]])),
    ),
    level=st.integers(0, 4),
)
def test_cli_fuzzed_graphs_exit_cleanly(command, content, spoil, level):
    # Any graph file, valid or spoiled, ends in exit code 0, 1 or 2, never
    # in a traceback; on a valid graph the printed level is lambda - 1.
    data = content if spoil is None else _spoil_graph(content, spoil)
    flags = ["--k", str(level)] if command == "verify" else ["--ca", f"1/{level + 1}" if level else "2/3"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(json.dumps(data))
        out = StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(StringIO()):
            code = main([command, "--graph", str(path), *flags])
    assert code in (0, 1, 2)
    if spoil is None:
        pairs = [(e["u"], e["v"]) for e in content["edges"]]
        lam = lambda_by_bipartition(content["n1"] + content["n2"], pairs)
        report = json.loads(out.getvalue())
        assert report["p"] == lam - 1
        if command == "verify":
            assert code == (0 if lam > level else 1)
        else:
            assert code == 0
            k = report["k"]
            assert len(report["attack"]) == (lam if 0 < lam <= k else 0)
            assert report["post_attack_connected"] == (lam > k)


def test_cli_solve_null_exit_code(capsys):
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(SCENARIOS / "null-degree-bound.json"))
    assert code == 2
    assert json.loads(out)["null"] is True


@pytest.mark.parametrize(
    "game",
    [
        {"n1": 5, "n2": 5, "c1": "1/20", "c2": "1/20", "c12": "1/10", "c21": "1/10", "cA": "1/9"},
        {"n1": 5, "n2": 4, "c1": "1/2", "c2": "1/2", "c12": "1/2", "c21": "1/2", "cA": "1/3"},
    ],
    ids=["degree-bound", "cost-bound"],
)
def test_cli_solve_null_outside_the_structured_domain_exits_2(tmp_path, capsys, game):
    path = tmp_path / "null.json"
    path.write_text(json.dumps(game))
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(path))
    assert code == 2
    assert json.loads(out)["null"] is True


def test_cli_solve_outside_the_structured_domain_exits_1(tmp_path, capsys):
    # 9+8 passes the null test and is too large for exact search.
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps({"n1": 9, "n2": 8, "c1": "1/30", "c2": "1/45", "c12": "1/20", "c21": "2/45", "cA": "1/3"}))
    code, out, err = run_cli(capsys, "solve", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err == "error: the structured route needs n1 == n2 and 1 <= k < n1, got n1 = 9, n2 = 8, k = 3\n"


def test_cli_construct_null_outside_the_structured_domain_exits_2(tmp_path, capsys):
    path = tmp_path / "null.json"
    path.write_text(json.dumps({"n1": 5, "n2": 4, "c1": "1/2", "c2": "1/2", "c12": "1/2", "c21": "1/2", "cA": "1/3"}))
    code, _, err = run_cli(capsys, "construct", "--scenario", str(path), "--out", str(tmp_path / "g.json"))
    assert code == 2
    assert "null" in err
    assert not (tmp_path / "g.json").exists()


def test_cli_solves_and_constructs_a_parity_shape_level(tmp_path, capsys):
    # 4+4, k = 2: operator 2 completes the cheapest level with 13 links, one
    # more than a 3-regular network, so the build adds one extra vertical.
    # (`auto` would take exact search at 8 nodes.)
    path = tmp_path / "parity.json"
    path.write_text(json.dumps({"n1": 4, "n2": 4, "c1": "7/41", "c2": "1/35", "c12": "2/9", "c21": "8/29", "cA": "1/2", "mode": "structured"}))
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(path))
    assert code == 0
    bundle = json.loads(out)
    assert (bundle["mode_used"], bundle["u1"], bundle["verification"]["p"]) == ("structured", "6/41", 2)
    code, out, _ = run_cli(capsys, "construct", "--scenario", str(path), "--out", str(tmp_path / "built.json"))
    assert code == 0
    report = json.loads(out)
    assert (report["edges"], report["cycles_built"]) == (13, 1)


def test_cli_solves_an_eight_node_game_outside_the_structured_domain(tmp_path, capsys):
    # 4+4 with k = 4 = n1: `auto` takes exact search at 8 nodes, so every
    # command answers where the structured route's domain check exited 1;
    # `construct` saves the first equilibrium profile, which `verify` accepts.
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({"n1": 4, "n2": 4, "c1": "1/40", "c2": "1/40", "c12": "1/40", "c21": "1/40", "cA": "1/4"}))
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(path))
    bundle = json.loads(out)
    assert (code, bundle["k"], bundle["mode_used"], bundle["u1"], bundle["u2"]) == (0, 4, "exact", "19/20", "11/20")
    code, out, _ = run_cli(capsys, "metrics", "--scenario", str(path))
    report = json.loads(out)
    # c_spe = (1 - u1) + (1 - u2); moving second, operator 2 pays 1 - u2.
    assert (code, report["poa"]["c_spe"], report["pos"]["c2_second"]) == (0, "1/2", "9/20")
    out_path = tmp_path / "built.json"
    code, out, _ = run_cli(capsys, "construct", "--scenario", str(path), "--out", str(out_path))
    report = json.loads(out)
    assert (code, report["cycles_built"], report["u1"], report["u2"]) == (0, 0, "19/20", "11/20")
    assert report["p"] >= 4
    code, out, _ = run_cli(capsys, "verify", "--graph", str(out_path), "--k", "4")
    verdict = json.loads(out)
    assert (code, verdict["resistant"]) == (0, True)
    assert verdict["p"] >= 4


def test_cli_cap_error_names_the_level_it_reached(capsys):
    code, out, err = run_cli(capsys, "solve", "--scenario", str(SCENARIOS / "prop3.json"), "--cap", "57")
    assert (code, out) == (1, "")
    assert err == "error: search cap of 57 ticks exceeded while scanning operator-1 level (a, b) = (0, 1), 21 of them on it\n"


def test_cli_solve_prop3_classes(capsys):
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(SCENARIOS / "prop3.json"))
    assert code == 0
    bundle = json.loads(out)
    assert bundle["u1"] == "91/100"
    assert bundle["u2_classes"] == ["1/10", "1/100"]
    assert bundle["operator2_cost_classes"] == ["9/10", "99/100"]


def test_cli_solve_echoes_the_mode_it_was_asked_for(capsys):
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(SCENARIOS / "prop4.json"), "--mode", "structured")
    assert code == 0
    bundle = json.loads(out)
    assert (bundle["scenario"]["mode"], bundle["mode_used"]) == ("structured", "structured")


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


def test_cli_verify_refuses_a_negative_level(tmp_path, capsys):
    path = tmp_path / "triangle.json"
    edges = [{"u": u, "v": v, "owner": 1} for u, v in ((0, 1), (1, 2), (0, 2))]
    path.write_text(json.dumps({"n1": 2, "n2": 1, "edges": edges}))
    code, out, err = run_cli(capsys, "verify", "--graph", str(path), "--k", "-2")
    assert (code, out) == (1, "")
    assert err == "error: resistance level must be non-negative\n"


@pytest.mark.parametrize(
    "content,message",
    [
        (
            {"n1": 2, "n2": 2, "edgs": [], "edges": [{"u": 0, "v": 2, "owner": 1, "layer": 9}]},
            "unknown graph key(s): 'edgs'",
        ),
        ({"n1": 2, "n2": 2, "edges": [{"u": 0, "v": 2, "owner": 1, "layer": 9}]}, "unknown edge key(s): 'layer'"),
    ],
    ids=["graph-key", "edge-key"],
)
def test_cli_verify_refuses_a_graph_file_with_an_unknown_key(tmp_path, capsys, content, message):
    # A misspelt key is refused by name, not dropped.
    path = tmp_path / "g.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, "verify", "--graph", str(path), "--k", "1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_cli_attack_on_the_case_a_build(tmp_path, capsys):
    # At ca = 1/4 the adversary affords k = 4 removals of the 3-resistant
    # case-a build, and takes the four links of node 0.
    path = tmp_path / "built.json"
    run_cli(capsys, "construct", "--scenario", str(SCENARIOS / "case-a.json"), "--out", str(path))
    code, out, _ = run_cli(capsys, "attack", "--graph", str(path), "--ca", "1/4")
    assert code == 0
    report = json.loads(out)
    assert (report["k"], report["p"]) == (4, 3)
    assert report["attack"] == [[0, 1], [0, 2], [0, 9], [0, 12]]
    assert (report["post_attack_connected"], report["uA"]) == (False, "0")


def test_cli_attack_on_a_sparse_graph_file_of_a_million_nodes(tmp_path, capsys):
    # One link among a million nodes is disconnected, and is found so with
    # no per-node list.
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"n1": 10**6, "n2": 1, "edges": [{"u": 0, "v": 1, "owner": 1}]}))
    code, out, _ = run_cli(capsys, "attack", "--graph", str(path), "--ca", "1/3")
    assert code == 0
    assert json.loads(out) == {"k": 3, "p": -1, "attack": [], "post_attack_connected": False, "uA": "1"}


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


def test_cli_metrics_team_is_null_when_the_joint_floor_reaches_two(tmp_path, capsys):
    # The cheapest ring-plus-bridges design costs 119/50, and the joint
    # floor (54/25) proves that no coordinated design costs under 2.
    path = tmp_path / "floor.json"
    costs = {"c1": "1/100", "c2": "1/10", "c12": "1/10", "c21": "1/10", "cA": "1/3"}
    path.write_text(json.dumps({"n1": 9, "n2": 9, **costs}))
    code, out, _ = run_cli(capsys, "metrics", "--scenario", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["team"] == {"null": True, "cost": None, "exact": True}
    assert report["poa"]["spe_null"] is True


def test_cli_metrics_solves_the_team_optimum_once(capsys, monkeypatch):
    calls, original = [], metrics.team_optimal

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "team_optimal", counted)
    code, _, _ = run_cli(capsys, "metrics", "--scenario", str(SCENARIOS / "poa-n3.json"))
    assert code == 0
    assert len(calls) == 1


def test_cli_metrics_solves_the_game_once_per_ordering(capsys, monkeypatch):
    calls, original = [], metrics.solve_game

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "solve_game", counted)
    monkeypatch.setattr(cli, "solve_game", counted)
    code, _, _ = run_cli(capsys, "metrics", "--scenario", str(SCENARIOS / "poa-n3.json"))
    assert code == 0
    assert calls == [(3, 2), (2, 3)]  # the PoA/PoS game, then the swapped one


def test_cli_error_exit_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--scenario", "/nonexistent.json")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "args,message",
    [
        (["solve"], "the following arguments are required: --scenario"),
        (["solve", "--scenario", "s.json", "--mode", "bogus"], "invalid choice: 'bogus' (choose from 'auto', 'exact', 'structured')"),
        (["verify", "--graph", "g.json", "--k", "notanint"], "argument --k: invalid int value: 'notanint'"),
    ],
    ids=["missing-scenario", "unknown-mode", "k-not-an-int"],
)
def test_cli_usage_errors_exit_with_error_not_the_null_code(capsys, args, message):
    # argparse exits 2 on a usage error, which is the null-equilibrium code.
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage: layersec {args[0]}")
    assert message in err


def test_cli_help_exits_ok(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: layersec")


def test_cli_reproduce_example_1(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "example-1")
    assert code == 0
    assert out.count("PASS") == 6


def test_cli_reproduce_fails_on_a_wrong_expected_value(capsys, monkeypatch):
    command, scenario, _ = claims.CLAIMS["example-1"][0]
    monkeypatch.setitem(claims.CLAIMS, "example-1", [(command, scenario, {"k": 1, "u1": "1/2", "null": 0})])
    code, out, _ = run_cli(capsys, "reproduce", "example-1")
    assert code == 1
    assert out.splitlines() == [
        "PASS  3+3 cA=2/3 structured k: computed 1  expected 1",
        'FAIL  3+3 cA=2/3 structured u1: computed "31/50"  expected "1/2"',
        "FAIL  3+3 cA=2/3 structured null: computed false  expected 0",  # no bool/int confusion
    ]


def test_cli_reproduce_fails_on_a_missing_path_even_when_null_is_expected(capsys, monkeypatch):
    command, scenario, expected = claims.CLAIMS["bounds-sweep"][1]
    assert expected["upper_bound"] is None  # the report holds a real null here
    monkeypatch.setitem(claims.CLAIMS, "bounds-sweep", [(command, scenario, {"upper_bound": None, "upper_bond": None})])
    code, out, _ = run_cli(capsys, "reproduce", "bounds-sweep")
    assert code == 1
    assert out.splitlines() == [
        "PASS  2+2 cA=2/5 auto upper_bound: computed null  expected null",
        "FAIL  2+2 cA=2/5 auto upper_bond: computed missing  expected null",
    ]


def test_cli_reproduce_reads_no_file(capsys, monkeypatch, tmp_path):
    def refuse(path):
        raise AssertionError(f"reproduce read {path}")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(io, "_read_json", refuse)
    for case in sorted(claims.CLAIMS):
        code, out, _ = run_cli(capsys, "reproduce", case)
        assert code == 0, case
        assert "FAIL" not in out, case
