"""Spans around qugame's public functions, installed from outside the program.

:func:`install` wraps the functions in :data:`TARGETS` and rebinds every
name that refers to them in every qugame module (``quantum`` holds its own
``canonicalize_phase`` from ``from .linalg import ...``, for example).
Constructors are traced by wrapping the class's ``__init__``. The returned
callable puts every original back. Only the traced run calls it.

Each span records its name, start, end, parent span and operation id. Spans
are kept in memory and written out by :meth:`Tracer.dump`; the per-layer
aggregates (calls, inclusive time, self time, result counters) are kept
exactly even when the stored span list is capped.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

MODULES = ("qugame", "qugame.linalg", "qugame.classical", "qugame.quantum",
           "qugame.geometry", "qugame.builders", "qugame.gamedoc", "qugame.cli")

READ, WRITE = "gamedoc.read", "gamedoc.write"


def _text_bytes(args, kwargs, result, ns):
    return {"bytes": len(args[0])}


def _file_bytes(args, kwargs, result, ns):
    return {"bytes": os.path.getsize(args[0])}


def _result_bytes(args, kwargs, result, ns):
    return {"bytes": len(result)}


def _written_bytes(args, kwargs, result, ns):
    return {"bytes": len(args[1])}


# (module, attribute, span name, group, result counters)
TARGETS = [
    ("qugame.cli", "run_cli", "cli.run_cli", None,
     lambda a, k, r, ns: {f"command.{a[0][0]}": 1}),
    *[("qugame.gamedoc", f, f"gamedoc.{f}", READ, _text_bytes)
      for f in ("parse_game", "parse_play", "parse_schedule", "parse_profile")],
    ("qugame.gamedoc", "read_point_cloud", "gamedoc.read_point_cloud", READ, _file_bytes),
    *[("qugame.gamedoc", f, f"gamedoc.{f}", WRITE, _result_bytes)
      for f in ("serialize_game", "serialize_play", "serialize_profile", "serialize_schedule")],
    ("qugame.gamedoc", "write_text_atomic", "gamedoc.write_text_atomic", WRITE, _written_bytes),
    *[("qugame.gamedoc", f, f"gamedoc.{f}", WRITE, _file_bytes)
      for f in ("write_trace_csv", "write_sweep_csv", "write_point_cloud")],
    ("qugame.quantum", "iterated_best_response", "quantum.iterated_best_response", None,
     lambda a, k, r, ns: {"sweeps": r.iterations, "converged": int(r.converged)}),
    ("qugame.quantum", "best_response_overlap", "quantum.best_response_overlap", None, None),
    ("qugame.quantum", "best_response_observable", "quantum.best_response_observable", None,
     lambda a, k, r, ns: {f"d{a[0].joint_dimension}.calls": 1, f"d{a[0].joint_dimension}.ns": ns}),
    ("qugame.quantum", "effective_observable", "quantum.effective_observable", None, None),
    ("qugame.quantum", "overlap_contraction", "quantum.overlap_contraction", None, None),
    ("qugame.quantum", "payoff", "quantum.payoff", None, None),
    ("qugame.quantum", "verify_epsilon_nash_quantum", "quantum.verify_epsilon_nash_quantum", None,
     lambda a, k, r, ns: {"accepted": int(r is not None)}),
    ("qugame.quantum", "grid_search_pure_nash", "quantum.grid_search_pure_nash", None,
     lambda a, k, r, ns: {"plays": r.num_plays}),
    ("qugame.quantum", "overlap_fixed_point_candidates", "quantum.overlap_fixed_point_candidates",
     None, None),
    ("qugame.linalg", "canonicalize_phase", "linalg.canonicalize_phase", None, None),
    ("qugame.linalg", "tensor_product", "linalg.tensor_product", None, None),
    ("qugame.linalg", "partial_contraction", "linalg.partial_contraction", None, None),
    ("qugame.linalg", "haar_random_state", "linalg.haar_random_state", None, None),
    ("qugame.builders", "sweep_adiabatic", "builders.sweep_adiabatic", None,
     lambda a, k, r, ns: {"rows": r.num_rows}),
    ("qugame.builders", "build_adiabatic_game", "builders.build_adiabatic_game", None, None),
    ("qugame.classical", "support_enumeration_nash", "classical.support_enumeration_nash", None,
     lambda a, k, r, ns: {"equilibria": len(r)}),
    ("qugame.classical", "verify_countering_convexity", "classical.verify_countering_convexity",
     None, lambda a, k, r, ns: {"combinations": r.performed, "rejected": r.rejected_draws}),
    ("qugame.geometry", "convex_hull", "geometry.convex_hull", None,
     lambda a, k, r, ns: {"facets": int(r.facets.shape[0]), f"n{len(a[0])}.calls": 1,
                          f"n{len(a[0])}.ns": ns}),
    ("qugame.geometry", "boundary_coincidence_check", "geometry.boundary_coincidence_check",
     None, None),
]

CONSTRUCTORS = [
    ("qugame.linalg", "PureState", "linalg.PureState"),
    ("qugame.linalg", "UnitaryOperator", "linalg.UnitaryOperator"),
    ("qugame.classical", "MixedProfile", "classical.MixedProfile"),
]

# (ancestor span, descendant span): descendant calls and time inside the ancestor
NESTED = [
    ("builders.sweep_adiabatic", "quantum.verify_epsilon_nash_quantum"),
    ("cli.run_cli", "geometry.convex_hull"),
    ("classical.verify_countering_convexity", "classical.MixedProfile"),
]


class Stat:
    __slots__ = ("calls", "ns", "self_ns", "extra")

    def __init__(self):
        self.calls = self.ns = self.self_ns = 0
        self.extra = Counter()


# spans kept for the dump; aggregates keep counting past this
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []   # [span id, name, child ns, group]
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.nested: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.op_id = 0
        self._next_id = 0
        self._watch = defaultdict(list)
        for ancestor, name in NESTED:
            self._watch[name].append(ancestor)

    def wrap(self, name, fn, group=None, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            outermost = group is not None and all(f[3] != group for f in stack)
            frame = [self._next_id, name, 0, group]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._close(frame, parent, start, end, outermost)
            if counters is not None:
                extra = counters(args, kwargs, result, end - start)
                self.stats[name].extra.update(extra)
                if outermost:
                    self.stats[group].extra.update(extra)
            return result

        return traced

    def _close(self, frame, parent, start, end, outermost):
        span_id, name, child_ns, group = frame
        dur = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.ns += dur
        stat.self_ns += dur - child_ns
        if parent is not None:
            parent[2] += dur
        if outermost:
            self.stats[group].calls += 1
            self.stats[group].ns += dur
        for ancestor in self._watch.get(name, ()):
            if any(f[1] == ancestor for f in self.stack):
                self.nested[ancestor, name].calls += 1
                self.nested[ancestor, name].ns += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, None if parent is None else parent[0],
                               self.op_id, name, start, end))
        else:
            self.dropped += 1

    def dump(self, path: str) -> None:
        """Write every stored span as one JSON line, after a header line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped,
                                     "fields": ["id", "parent", "op", "name",
                                                "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(tracer: Tracer):
    """Wrap every target in place; returns the function that undoes it."""
    modules = [sys.modules[m] for m in MODULES]
    undo = []
    for module_name, attr, name, group, counters in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(name, original, group, counters)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    for module_name, attr, name in CONSTRUCTORS:
        cls = getattr(sys.modules[module_name], attr)
        original = cls.__init__
        cls.__init__ = tracer.wrap(name, original)
        undo.append((cls, "__init__", original))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


# ------------------------------------------------------------ layer metrics ---

def _ms(stat: Stat) -> float:
    return stat.ns / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per operation cycle, keyed by metric name."""
    s = tracer.stats
    out: dict[str, tuple[float, str]] = {}

    def per_cycle(metric, value, unit):
        out[metric] = (value / cycles, unit + "/cycle")

    def calls_ms(name, count_word="calls"):
        per_cycle(f"{name}.{count_word}", s[name].calls, "count")
        per_cycle(f"{name}.ms", _ms(s[name]), "ms")

    per_cycle("cli.run_cli.calls", s["cli.run_cli"].calls, "count")
    per_cycle("cli.run_cli.self_ms", s["cli.run_cli"].self_ns / 1e6, "ms")
    for group in (READ, WRITE):
        calls_ms(group)
        per_cycle(f"{group}.bytes", s[group].extra["bytes"], "B")

    ibr = s["quantum.iterated_best_response"]
    calls_ms("quantum.iterated_best_response")
    per_cycle("quantum.iterated_best_response.sweeps", ibr.extra["sweeps"], "count")
    out["quantum.iterated_best_response.converged_ratio"] = (
        _ratio(ibr.extra["converged"], ibr.calls), "ratio")
    for name in ("best_response_overlap", "best_response_observable", "effective_observable",
                 "overlap_contraction", "payoff"):
        calls_ms(f"quantum.{name}")
    verify = s["quantum.verify_epsilon_nash_quantum"]
    calls_ms("quantum.verify_epsilon_nash_quantum")
    out["quantum.verify_epsilon_nash_quantum.accepted_ratio"] = (
        _ratio(verify.extra["accepted"], verify.calls), "ratio")
    calls_ms("quantum.grid_search_pure_nash")
    per_cycle("quantum.grid_search_pure_nash.plays",
              s["quantum.grid_search_pure_nash"].extra["plays"], "count")
    calls_ms("quantum.overlap_fixed_point_candidates")

    calls_ms("linalg.PureState", "constructions")
    calls_ms("linalg.UnitaryOperator", "constructions")
    for name in ("canonicalize_phase", "tensor_product", "partial_contraction", "haar_random_state"):
        calls_ms(f"linalg.{name}")

    sweep = s["builders.sweep_adiabatic"]
    calls_ms("builders.sweep_adiabatic")
    per_cycle("builders.sweep_adiabatic.rows", sweep.extra["rows"], "count")
    out["builders.sweep_adiabatic.verifications_per_row"] = (_ratio(
        tracer.nested["builders.sweep_adiabatic", "quantum.verify_epsilon_nash_quantum"].calls,
        sweep.extra["rows"]), "ratio")
    calls_ms("builders.build_adiabatic_game")

    calls_ms("classical.support_enumeration_nash")
    per_cycle("classical.support_enumeration_nash.equilibria",
              s["classical.support_enumeration_nash"].extra["equilibria"], "count")
    convexity = s["classical.verify_countering_convexity"]
    calls_ms("classical.verify_countering_convexity")
    per_cycle("classical.verify_countering_convexity.combinations",
              convexity.extra["combinations"], "count")
    useful = 2 * convexity.extra["combinations"]
    out["classical.verify_countering_convexity.useful_draw_ratio"] = (
        _ratio(useful, useful + convexity.extra["rejected"]), "ratio")
    calls_ms("classical.MixedProfile", "constructions")

    hull = s["geometry.convex_hull"]
    calls_ms("geometry.convex_hull")
    per_cycle("geometry.convex_hull.facets", hull.extra["facets"], "count")
    out["geometry.convex_hull.builds_per_command"] = (_ratio(
        tracer.nested["cli.run_cli", "geometry.convex_hull"].calls,
        s["cli.run_cli"].extra["command.geometry"]), "ratio")
    calls_ms("geometry.boundary_coincidence_check")
    return out


def reconciliation(tracer: Tracer) -> dict[str, float]:
    """Per-call figures comparable with the hand-profiled baseline."""
    s, nested = tracer.stats, tracer.nested
    out = {}
    observable = s["quantum.best_response_observable"]
    for dim in (256, 1024):
        calls = observable.extra[f"d{dim}.calls"]
        if calls:
            mean_ms = observable.extra[f"d{dim}.ns"] / 1e6 / calls
            out[f"best_response_observable_d{dim}_mean_ms"] = mean_ms
    hull = s["geometry.convex_hull"]
    for points in (1000, 4000):
        calls = hull.extra[f"n{points}.calls"]
        if calls:
            out[f"convex_hull_n{points}_mean_ms"] = hull.extra[f"n{points}.ns"] / 1e6 / calls
    convexity = s["classical.verify_countering_convexity"]
    if convexity.ns:
        inner = nested["classical.verify_countering_convexity", "classical.MixedProfile"]
        out["convexity_share_in_MixedProfile_init"] = inner.ns / convexity.ns
    return out
