"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps every public function of each layersec module at
every module that imports it (``from .connectivity import ...`` binds the
function in the importing module too, so wrapping only the defining module
would miss those calls), plus ``EdgeUniverse.lam`` at class level.
``uninstall()`` puts every original back.

Spans are aggregated in memory as (name, parent) totals: calls, inclusive
time, self time (inclusive minus the time of child spans), exceptions that
escaped, and calls that made no child call.  ``layer_metrics()`` folds
them into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("graph", "connectivity", "game", "construction", "metrics", "io", "cli")

_CALLS, _TOTAL, _SELF, _ERRORS, _LEAF = range(5)


def _layer(name):
    return name.split(".", 1)[0] if name else "bench"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = {}  # (name, parent name or None) -> [calls, total, self, errors, leaf]
        self.lambda_edges = 0
        self.edges_built = 0
        self.solve_keys = set()
        self.repeat_solves = 0
        self._stack = []  # [name, child time, child calls] per open span
        self._installed = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        mods = [self.package]
        mods += [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]
        return mods

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    if vars(owner).get(attr) is fn:
                        self._installed.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)
        universe = self.package.game.EdgeUniverse
        lam = universe.lam
        self._installed.append((universe, "lam", lam))
        universe.lam = self._wrap("game.EdgeUniverse.lam", lam)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        if name == "connectivity.edge_connectivity_pairs":
            before = self._count_edges
        elif name == "metrics.solve_game":
            before = functools.partial(self._note_solve, inspect.signature(fn))
        else:
            before = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0, 0]
            stack.append(frame)
            failed = 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                    stack[-1][2] += 1
                rec = self.spans.get((name, parent))
                if rec is None:
                    rec = self.spans[(name, parent)] = [0, 0.0, 0.0, 0, 0]
                rec[_CALLS] += 1
                rec[_TOTAL] += duration
                rec[_SELF] += duration - frame[1]
                rec[_ERRORS] += failed
                rec[_LEAF] += frame[2] == 0
            if name == "graph.from_pairs":
                self.edges_built += len(result.edges)
            return result

        return wrapper

    def _count_edges(self, args, kwargs):
        n, pairs, *rest = args  # every caller passes the pairs positionally
        if not hasattr(pairs, "__len__"):
            pairs = list(pairs)
        self.lambda_edges += len(pairs)
        return (n, pairs, *rest)

    def _note_solve(self, sig, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.items())
        if key in self.solve_keys:
            self.repeat_solves += 1
        self.solve_keys.add(key)
        return args

    # -- aggregation ----------------------------------------------------------

    def _sum(self, field, name=None, layer=None, outside=False):
        """Sum a span field by span name and/or layer.

        ``outside`` keeps only spans whose parent is in another layer, so
        nested calls within one layer count once (outermost entries).
        """
        total = 0
        for (span, parent), rec in self.spans.items():
            if name is not None and span != name:
                continue
            if layer is not None and _layer(span) != layer:
                continue
            if outside and _layer(parent) == _layer(span):
                continue
            total += rec[field]
        return total

    def _under(self, parent_layer):
        """Inclusive connectivity time entered from ``parent_layer``."""
        return sum(
            rec[_TOTAL]
            for (span, parent), rec in self.spans.items()
            if _layer(span) == "connectivity" and _layer(parent) == parent_layer
        )

    def layer_metrics(self) -> dict:
        lam_calls = self._sum(_CALLS, name="game.EdgeUniverse.lam")
        solve_calls = self._sum(_CALLS, name="metrics.solve_game")
        # Equilibrium-network builds; build_generalized delegates to
        # build_spe_network on odd/odd shapes, which counts once.
        builders = ("construction.build_generalized", "construction.build_spe_network")
        builds = sum(
            rec[_CALLS]
            for (span, parent), rec in self.spans.items()
            if span in builders and parent not in builders
        )
        out = {
            "connectivity.lambda_calls": self._sum(_CALLS, name="connectivity.edge_connectivity_pairs"),
            "connectivity.lambda_edges": self.lambda_edges,
            "connectivity.mincut_calls": self._sum(_CALLS, name="connectivity.min_cut_pairs"),
            "connectivity.under_construction_s": self._under("construction"),
            "connectivity.under_game_s": self._under("game"),
            "graph.from_pairs_calls": self._sum(_CALLS, name="graph.from_pairs"),
            "graph.edges_built": self.edges_built,
            "game.solve_calls": self._sum(_CALLS, name="game.solve_spe_exact"),
            "game.oracle_calls": self._sum(_CALLS, name="game.bruteforce_spe_oracle"),
            "game.adversary_calls": self._sum(_CALLS, name="game.adversary_best_response"),
            "game.lam_calls": lam_calls,
            "game.lam_hit_ratio": (
                self._sum(_LEAF, name="game.EdgeUniverse.lam") / lam_calls if lam_calls else 0.0
            ),
            "construction.build_calls": builds,
            "metrics.solve_game_calls": solve_calls,
            "metrics.team_calls": self._sum(_CALLS, name="metrics.team_optimal"),
            "metrics.repeat_solve_ratio": self.repeat_solves / solve_calls if solve_calls else 0.0,
            "cli.calls": self._sum(_CALLS, name="cli.main"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self._sum(_SELF, layer=layer)
        for layer in ("game", "construction", "metrics"):
            out[f"{layer}.errors"] = self._sum(_ERRORS, layer=layer, outside=True)
        return out
