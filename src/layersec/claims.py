"""The paper's claims as data: what ``layersec reproduce <case>`` checks.

``CLAIMS`` maps a case name to (command, scenario, expected) entries.  The
command is ``"solve"`` or ``"metrics"``, the scenario a dict as
``io.scenario_from_dict`` reads it, and expected maps a dotted path into
that command's JSON report to the JSON value written there (rationals as
exact strings).  cA = 2/(2k + 1) sets the attack budget floor(1/cA) to k.
``NOTES`` holds the remark a case prints after its checks.
"""

_ALGO = {"c1": "1/20", "c2": "1/20", "c12": "1/10", "c21": "1/10"}
_CASE_A = {"n1": 9, "n2": 9, "c1": "1/30", "c2": "1/45", "c12": "1/20", "c21": "2/45"}
_EXAMPLE_1 = {"n1": 3, "n2": 3, "c1": "0.19", "c2": "0.21", "c12": "0.19", "c21": "0.21", "mode": "structured"}
_BOUNDS = {"c1": "1/10", "c2": "1/12", "c12": "1/8", "c21": "1/9"}

# prop4: c1 = c2 = c12/2 and c12 = c21, so operator 1 leaves every link to operator 2.
_PROP4 = {
    3: {"n1": 3, "n2": 3, "c1": "1/20", "c2": "1/20", "c12": "1/10", "c21": "1/10", "cA": "2/3"},
    5: {"n1": 5, "n2": 5, "c1": "1/50", "c2": "1/50", "c12": "1/25", "c21": "1/25", "cA": "2/7"},
    9: {"n1": 9, "n2": 9, "c1": "1/40", "c2": "1/40", "c12": "1/20", "c21": "1/20", "cA": "2/3"},
}

# case B at 9+9: operator 1 idles at k = 1, builds these intra links alone for
# 2 <= k <= 6 at a constant operator-2 cost, and no network forms for k >= 7.
_CASE_B_OPERATOR1 = {2: 4, 3: 10, 4: 16, 5: 22, 6: 28}

# bounds-sweep: (n1, n2, cA) -> (lower bound, team optimum, upper bound)
_SANDWICH = {
    (2, 2, "2/3"): ("73/180", "73/180", "53/90"),
    (2, 2, "2/5"): ("113/180", "113/180", None),
    (3, 2, "2/3"): ("91/180", "91/180", "31/45"),
    (3, 2, "2/5"): ("149/180", "149/180", None),
    (2, 3, "2/3"): ("22/45", "22/45", "121/180"),
    (2, 3, "2/5"): ("143/180", "143/180", None),
    (3, 3, "2/3"): ("53/90", "53/90", "139/180"),
    (3, 3, "2/5"): ("53/60", "53/60", "5/4"),
    (4, 2, "2/3"): ("109/180", "109/180", "71/90"),
    (4, 2, "2/5"): ("167/180", "167/180", None),
    (2, 4, "2/3"): ("103/180", "103/180", "34/45"),
    (2, 4, "2/5"): ("79/90", "79/90", None),
}

CLAIMS = {
    "algo-example": [
        ("solve", {"n1": 5, "n2": 5, **_ALGO, "cA": "1/3"},
         {"operator1.cross": 0, "operator1.intra1": 7, "operator2.intra2": 7, "operator2.cross": 6,
          "u1": "13/20", "u2": "1/20", "verification.p": 3}),
    ],
    "case-a": [
        ("solve", {**_CASE_A, "cA": "1/3"},
         {"k": 3, "operator1.intra1": 10, "operator1.cross": 0, "operator2.intra2": 10, "operator2.cross": 16,
          "u2": "1/15", "u1": "2/3", "verification.adversary_attack": [], "verification.p": 3}),
    ],
    "case-b-sweep": [
        ("solve", {**_CASE_A, "cA": "2/3"}, {"k": 1, "operator1.intra1": 0, "operator1.cross": 0}),
        *(("solve", {**_CASE_A, "cA": f"2/{2 * k + 1}"},
           {"k": k, "operator1.intra1": e11, "operator1.cross": 0, "operator2_cost_classes": ["14/15"]})
          for k, e11 in _CASE_B_OPERATOR1.items()),
        *(("solve", {**_CASE_A, "cA": f"2/{2 * k + 1}"}, {"k": k, "null": True}) for k in (7, 8)),
    ],
    "case-c": [
        ("solve", {**_CASE_A, "n1": 8, "n2": 8, "cA": "1/3"},
         {"operator1.intra1": 7, "operator1.cross": 0, "operator2.intra2": 7, "operator2.cross": 18,
          "u1": "23/30", "u2": "2/45", "verification.p": 3}),
    ],
    "example-1": [
        ("solve", {**_EXAMPLE_1, "cA": "2/3"}, {"k": 1, "u1": "31/50", "operator2_cost_classes": ["21/25"]}),
        ("solve", {**_EXAMPLE_1, "cA": "1/2"}, {"k": 2, "u1": "1/20", "operator2_cost_classes": ["21/25"]}),
    ],
    "prop3": [
        ("solve", {"n1": 4, "n2": 3, "c1": "9/100", "c2": "9/100", "c12": "9/100", "c21": "9/100", "cA": "2/5"},
         {"k": 2, "u1": "91/100", "operator2_cost_classes": ["9/10", "99/100"]}),
    ],
    "prop4": [
        ("solve", {**_PROP4[3], "mode": "structured"},
         {"u1": "1", "u2": "2/5", "operator1.intra1": 0, "operator2.intra2": 0, "operator2.cross": 6}),
        ("solve", {**_PROP4[3], "mode": "exact"}, {"u1": "1", "u2": "2/5"}),
        ("metrics", _PROP4[3], {"pos.value": "infinite"}),
        ("solve", _PROP4[5], {"u1": "1", "u2": "1/5", "operator2.cross": 20}),
        ("metrics", _PROP4[5], {"pos.value": "infinite"}),
        ("solve", _PROP4[9], {"u1": "1", "u2": "1/10", "operator2.cross": 18}),
        ("metrics", _PROP4[9], {"pos.value": "infinite"}),
    ],
    # c1 = c2 = 1/n1^3, c12 = 1/n1^2, c21 = 1/(3 n1): the ratio grows as 2 n1^2 / 9.
    "poa-family": [
        ("metrics", {"n1": 3, "n2": 2, "c1": "1/27", "c2": "1/27", "c12": "1/9", "c21": "1/9", "cA": "2/3"},
         {"poa.c_spe": "2/3", "poa.c_co": "1/3", "poa.value": "2"}),
        ("metrics", {"n1": 4, "n2": 2, "c1": "1/64", "c2": "1/64", "c12": "1/16", "c21": "1/12", "cA": "2/3"},
         {"poa.c_spe": "2/3", "poa.c_co": "3/16", "poa.value": "32/9"}),
        ("metrics", {"n1": 5, "n2": 2, "c1": "1/125", "c2": "1/125", "c12": "1/25", "c21": "1/15", "cA": "2/3"},
         {"poa.c_spe": "2/3", "poa.c_co": "3/25", "poa.value": "50/9"}),
    ],
    # c1 = c2 = 1/(8 n1), c12 = c21 = 1/(4 n1): the first mover pays nothing.
    "pos-family": [
        ("metrics", {"n1": 3, "n2": 3, "c1": "1/24", "c2": "1/24", "c12": "1/12", "c21": "1/12", "cA": "2/3"},
         {"pos.c2_first": "0", "pos.c2_second": "1/2", "pos.value": "infinite"}),
        ("metrics", {"n1": 5, "n2": 5, "c1": "1/40", "c2": "1/40", "c12": "1/20", "c21": "1/20", "cA": "2/3"},
         {"pos.c2_first": "0", "pos.c2_second": "1/2", "pos.value": "infinite"}),
        ("metrics", {"n1": 2, "n2": 2, "c1": "1/9", "c2": "1/8", "c12": "1/7", "c21": "1/6", "cA": "2/3"},
         {"pos.value": "infinite"}),
    ],
    "bounds-sweep": [
        ("metrics", {"n1": n1, "n2": n2, **_BOUNDS, "cA": ca},
         {"lower_bound": lower, "team.cost": team, "upper_bound": upper})
        for (n1, n2, ca), (lower, team, upper) in _SANDWICH.items()
    ],
}

NOTES = {
    "case-a": (
        "u1: 10 links at unit cost 1/30 give 1 - 1/3 = 2/3; the commonly "
        "quoted 5/6 for this case is inconsistent with its own link count "
        "and unit cost, so the computed 2/3 is reported."
    ),
}
