"""File formats: scenario JSON, graph JSON, DOT export.

Costs travel as exact rational strings ("2/45", "0.09", "1/3"); decimals
are parsed exactly, so "0.09" means 9/100.  Graph files carry only the
layer sizes and an owned edge list, with the edge class re-derived on
load.  Utilities and costs are always serialized as rational strings,
never as floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .game import DEFAULT_SEARCH_CAP, CostProfile
from .graph import LayeredGraph, Owner, from_pairs


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


def _int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} must be an integer, got {value!r}") from exc


def frac_str(value: Fraction) -> str:
    return str(Fraction(value))


@dataclass(frozen=True)
class Scenario:
    n1: int
    n2: int
    costs: CostProfile
    mode: str = "auto"
    cap: int = DEFAULT_SEARCH_CAP

    def echo(self) -> dict:
        return {
            "n1": self.n1,
            "n2": self.n2,
            "c1": frac_str(self.costs.c1),
            "c2": frac_str(self.costs.c2),
            "c12": frac_str(self.costs.c12),
            "c21": frac_str(self.costs.c21),
            "cA": frac_str(self.costs.ca),
            "mode": self.mode,
        }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise FormatError("a scenario must be a JSON object")
    try:
        n1, n2 = _int(data["n1"], "n1"), _int(data["n2"], "n2")
        costs = CostProfile(
            c1=parse_rational(data["c1"]),
            c2=parse_rational(data["c2"]),
            c12=parse_rational(data["c12"]),
            c21=parse_rational(data["c21"]),
            ca=parse_rational(data["cA"]),
        )
    except KeyError as exc:
        raise FormatError(f"scenario is missing key {exc}") from exc
    if n1 < 1 or n2 < 1:
        raise FormatError("scenario needs n1, n2 >= 1")
    mode = data.get("mode", "auto")
    if mode not in ("auto", "exact", "structured"):
        raise FormatError(f"unknown mode {mode!r}")
    caps = data.get("caps", {})
    cap = _int(caps.get("search", DEFAULT_SEARCH_CAP) if isinstance(caps, dict) else caps, "caps.search")
    return Scenario(n1, n2, costs, mode, cap)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


_OWNER_CODE = {Owner.OPERATOR1: 1, Owner.OPERATOR2: 2}
_CODE_OWNER = {1: Owner.OPERATOR1, 2: Owner.OPERATOR2}


def graph_to_dict(g: LayeredGraph) -> dict:
    edges = sorted(g.edges, key=lambda e: (e.u, e.v))
    return {
        "n1": g.n1,
        "n2": g.n2,
        "edges": [{"u": e.u, "v": e.v, "owner": _OWNER_CODE[e.owner]} for e in edges],
    }


def graph_from_dict(data: dict) -> LayeredGraph:
    try:
        n1, n2 = _int(data["n1"], "n1"), _int(data["n2"], "n2")
        triples = [
            (_int(e["u"], "u"), _int(e["v"], "v"), _CODE_OWNER[_int(e["owner"], "owner")])
            for e in data["edges"]
        ]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed graph file: {exc}") from exc
    return from_pairs(n1, n2, triples)


def save_graph(g: LayeredGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> LayeredGraph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def to_dot(g: LayeredGraph, attacked=frozenset(), name: str = "layersec") -> str:
    """DOT rendering: operator-1 links bold, operator-2 links thin,
    attacked links dashed; layer-1 nodes circles, layer-2 nodes boxes."""
    attacked = {tuple(sorted(p)) for p in attacked}
    lines = [f"graph {name} {{"]
    for v in range(g.n1):
        lines.append(f'  {v} [shape=circle, label="{v}"];')
    for v in range(g.n1, g.n):
        lines.append(f'  {v} [shape=box, label="{v}"];')
    for e in sorted(g.edges, key=lambda e: (e.u, e.v)):
        styles = []
        if e.owner == Owner.OPERATOR1:
            styles.append("penwidth=2.5")
        if e.pair in attacked:
            styles.append("style=dashed")
        suffix = f" [{', '.join(styles)}]" if styles else ""
        lines.append(f"  {e.u} -- {e.v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
