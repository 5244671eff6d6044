"""File formats: scenario JSON, graph JSON, DOT export.

Costs travel as exact rational strings ("2/45", "0.09", "1/3"); decimals
are parsed exactly, so "0.09" means 9/100.  Graph files carry only the
layer sizes and an owned edge list, with the edge class re-derived on
load.  Every report writes its utilities and costs through
``rational_json`` as rational strings, never as floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .game import DEFAULT_SEARCH_CAP, CostProfile
from .graph import ADMISSIBLE, LayeredGraph, Owner, from_pairs
from .metrics import MODES


class FormatError(ValueError):
    pass


def parse_rational(value) -> Fraction:
    """Exact rational from "p/q", a decimal string, or an int."""
    try:
        if isinstance(value, float):
            raise FormatError(
                f"refusing float {value!r}: write it as a string to keep it exact"
            )
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"cannot parse rational {value!r}") from exc


def rational_json(value) -> str:
    """``json.dumps`` hook: a ``Fraction`` as its exact "p/q" string.

    Anything else that JSON cannot hold raises ``TypeError``, so no object
    is written through an accidental ``str``.
    """
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot write {type(value).__name__} {value!r} as exact JSON")


def _int(value, what: str) -> int:
    try:
        if isinstance(value, (bool, float)):
            raise TypeError(f"{type(value).__name__} is not an integer")
        return int(value)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} must be an integer, got {value!r}") from exc


def search_cap(value, what: str = "caps.search") -> int:
    cap = _int(value, what)
    if cap < 1:
        raise FormatError(f"{what} must be at least 1, got {cap}")
    return cap


def _refuse_unknown(data, keys: set, what: str) -> None:
    """Raise ``FormatError`` naming every key of the object ``data`` outside ``keys``."""
    unknown = sorted(set(data) - keys) if isinstance(data, dict) else ()
    if unknown:
        raise FormatError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


# Scenario cost keys, in file and parse order, and the CostProfile field each sets.
_COST_KEYS = {"c1": "c1", "c2": "c2", "c12": "c12", "c21": "c21", "cA": "ca"}
# Every key a scenario may hold; any other is refused, not ignored.
_SCENARIO_KEYS = {"n1", "n2", *_COST_KEYS, "mode", "caps"}


@dataclass(frozen=True)
class Scenario:
    n1: int
    n2: int
    costs: CostProfile
    mode: str = "auto"
    cap: int = DEFAULT_SEARCH_CAP

    def echo(self) -> dict:
        """The scenario as a report echoes it, costs as ``Fraction``s."""
        costs = {key: getattr(self.costs, field) for key, field in _COST_KEYS.items()}
        return {"n1": self.n1, "n2": self.n2, **costs, "mode": self.mode}


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise FormatError("a scenario must be a JSON object")
    _refuse_unknown(data, _SCENARIO_KEYS, "scenario")
    try:
        n1, n2 = _int(data["n1"], "n1"), _int(data["n2"], "n2")
        costs = CostProfile(**{field: parse_rational(data[key]) for key, field in _COST_KEYS.items()})
    except KeyError as exc:
        raise FormatError(f"scenario is missing key {exc}") from exc
    if n1 < 1 or n2 < 1:
        raise FormatError("scenario needs n1, n2 >= 1")
    mode = data.get("mode", "auto")
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r}")
    caps = data.get("caps", {})
    if not isinstance(caps, dict) or set(caps) - {"search"}:
        raise FormatError(f'caps must be an object {{"search": N}}, got {caps!r}')
    cap = search_cap(caps.get("search", DEFAULT_SEARCH_CAP))
    return Scenario(n1, n2, costs, mode, cap)


def _read_json(path):
    """A JSON file's value; a file that is not UTF-8 JSON, or nests too
    deeply to parse, raises ``FormatError`` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: not a readable JSON file: {exc}") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_read_json(path))


# A graph file names each link's owner by its operator number.
_CODE_OWNER = {owner.value: owner for owner in ADMISSIBLE}
# Every key a graph file and each of its edges may hold; any other is refused, not ignored.
_GRAPH_KEYS = {"n1", "n2", "edges"}
_EDGE_KEYS = {"u", "v", "owner"}


def graph_to_dict(g: LayeredGraph) -> dict:
    edges = sorted(g.edges, key=lambda e: (e.u, e.v))
    return {
        "n1": g.n1,
        "n2": g.n2,
        "edges": [{"u": e.u, "v": e.v, "owner": e.owner.value} for e in edges],
    }


def graph_from_dict(data: dict) -> LayeredGraph:
    _refuse_unknown(data, _GRAPH_KEYS, "graph")
    try:
        n1, n2 = _int(data["n1"], "n1"), _int(data["n2"], "n2")
        triples = []
        for e in data["edges"]:
            _refuse_unknown(e, _EDGE_KEYS, "edge")
            triples.append((_int(e["u"], "u"), _int(e["v"], "v"), _CODE_OWNER[_int(e["owner"], "owner")]))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed graph file: {exc}") from exc
    return from_pairs(n1, n2, triples)


def save_graph(g: LayeredGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> LayeredGraph:
    return graph_from_dict(_read_json(path))


def to_dot(g: LayeredGraph) -> str:
    """DOT rendering: operator-1 links bold, operator-2 links thin;
    layer-1 nodes circles, layer-2 nodes boxes."""
    lines = ["graph layersec {"]
    for v in range(g.n1):
        lines.append(f'  {v} [shape=circle, label="{v}"];')
    for v in range(g.n1, g.n):
        lines.append(f'  {v} [shape=box, label="{v}"];')
    for e in sorted(g.edges, key=lambda e: (e.u, e.v)):
        suffix = " [penwidth=2.5]" if e.owner == Owner.OPERATOR1 else ""
        lines.append(f"  {e.u} -- {e.v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
