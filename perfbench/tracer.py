"""Spans around calls into permlat's public functions, recorded from the
benchmark side: the program's source is never edited.

Every public module-level function of a layer module is replaced, in every
permlat module that binds it, by a wrapper that records one span (name,
start, end, parent span, run id). Replacing the name each caller imported
is what makes calls between modules visible, for example ``generic``
calling ``is_distributive``. Spans stay in memory until ``write``.

Self time is a span's duration minus the time of its direct children; with
one thread the children nest strictly, so it is computed as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("lattice", "spaces", "sqorders", "generic", "permstruct", "formats", "cli")


# Counts read off a call's arguments or result, keyed by span name. Each
# extractor returns {metric: value}; values computed from input sizes rather
# than reported by the program are marked computed in METRICS below.
EXTRACTORS = {
    "generic.generate_generic": lambda args, out: {
        "generic.points": out.structure.space.n, "generic.steps": out.steps},
    "generic.extension_property_check": lambda args, out: {
        "generic.ext.pair_total": out.pair_total,
        "generic.ext.pattern_total": out.pattern_total,
        "generic.ext.pattern_realized": out.pattern_realized},
    "generic.homogeneity_check": lambda args, out: {
        "generic.hom.pairs_checked": out.pairs_checked,
        "generic.hom.pattern_failures": out.pattern_failures},
    "lattice.enumerate_lattices": lambda args, out: {"lattice.enumerated": len(out)},
    "spaces.amalgam_validity_sweep": lambda args, out: {
        "spaces.sweep.instances": out.instances,
        "spaces.sweep.failures": len(out.failures)},
    "permstruct.encode_orders": lambda args, out: {
        "permstruct.orders_emitted": out.emitted},
    "permstruct.decode_relations": lambda args, out: {
        "permstruct.decode.triples": math.perm(args[0].N, 3),
        "permstruct.decode.relations": len(out.relations)},
    "permstruct.profile": lambda args, out: {
        "permstruct.profile.tuples": math.perm(args[0].N, args[1]),
        "permstruct.profile.types": len(out)},
    "formats.dump_structure": lambda args, out: {"formats.bytes_written": len(out.encode())},
    "formats.dump_perm": lambda args, out: {"formats.bytes_written": len(out.encode())},
}

# Per-layer metrics: name -> (unit, kind, source). kind "self" sums the self
# time of the listed spans, "calls" counts them, "count" sums an extracted
# count, "ratio" divides two extracted counts, "layer" sums the self time of
# every span of one module. COMPUTED counts come from input sizes or
# returned text, not from a figure the program reports.
METRICS = {
    "generic.generate_s": ("s", "self", ["generic.generate_generic"]),
    "generic.realize_s": ("s", "self", ["generic.realize_type"]),
    "generic.realize_calls": ("count", "calls", ["generic.realize_type"]),
    "generic.points": ("count", "count", "generic.points"),
    "generic.steps": ("count", "count", "generic.steps"),
    "generic.ext_s": ("s", "self", ["generic.extension_property_check"]),
    "generic.ext.pair_total": ("count", "count", "generic.ext.pair_total"),
    "generic.ext.pattern_total": ("count", "count", "generic.ext.pattern_total"),
    # realized / total ext patterns over the pass; 0 when no ext check ran
    "generic.ext.pattern_ratio": ("ratio", "ratio", "generic.ext.pattern"),
    "generic.hom_s": ("s", "self", ["generic.homogeneity_check"]),
    "generic.hom.pairs_checked": ("count", "count", "generic.hom.pairs_checked"),
    "generic.hom.pattern_failures": ("count", "count", "generic.hom.pattern_failures"),
    "lattice.enumerate_s": ("s", "self", ["lattice.enumerate_lattices",
                                          "lattice.enumerate_distributive_lattices"]),
    "lattice.enumerated": ("count", "count", "lattice.enumerated"),
    "lattice.is_distributive_s": ("s", "self", ["lattice.is_distributive"]),
    "lattice.is_distributive_calls": ("count", "calls", ["lattice.is_distributive"]),
    "lattice.chain_cover_s": ("s", "self", ["lattice.min_chain_cover"]),
    "spaces.sweep_s": ("s", "self", ["spaces.amalgam_validity_sweep"]),
    "spaces.sweep.instances": ("count", "count", "spaces.sweep.instances"),
    "spaces.sweep.failures": ("count", "count", "spaces.sweep.failures"),
    "spaces.probe_s": ("s", "self", ["spaces.amalgamation_failure_probe"]),
    "spaces.probe.calls": ("count", "calls", ["spaces.amalgamation_failure_probe"]),
    "sqorders.compose_s": ("s", "self", ["sqorders.compose_lex"]),
    "sqorders.compose_calls": ("count", "calls", ["sqorders.compose_lex"]),
    "sqorders.filler_s": ("s", "self", ["sqorders.generic_filler"]),
    "permstruct.encode_s": ("s", "self", ["permstruct.encode_orders"]),
    "permstruct.orders_emitted": ("count", "count", "permstruct.orders_emitted"),
    "permstruct.decode_s": ("s", "self", ["permstruct.decode_relations"]),
    "permstruct.decode.triples": ("count", "count", "permstruct.decode.triples"),
    "permstruct.decode.relations": ("count", "count", "permstruct.decode.relations"),
    "permstruct.profile_s": ("s", "self", ["permstruct.profile"]),
    "permstruct.profile.tuples": ("count", "count", "permstruct.profile.tuples"),
    "permstruct.profile.types": ("count", "count", "permstruct.profile.types"),
    "formats.load_s": ("s", "self", ["formats.load_lattice", "formats.load_structure",
                                     "formats.load_perm"]),
    "formats.dump_s": ("s", "self", ["formats.dump_structure", "formats.dump_perm",
                                     "formats.write_manifest"]),
    "formats.bytes_written": ("B", "count", "formats.bytes_written"),
    "cli.self_s": ("s", "self", ["cli.main"]),
}
COMPUTED = {"permstruct.decode.triples", "permstruct.profile.tuples",
            "formats.bytes_written"}
for _layer in LAYERS:
    if _layer != "cli":
        METRICS[f"{_layer}.self_s"] = ("s", "layer", _layer)


def _public_functions(module) -> dict:
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Installs span wrappers, aggregates self time and counts per pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [id, parent, name, start, end]
        self.passes: list[dict] = []  # per pass: {"self": {}, "calls": {}, "count": {}}
        self._stack: list[list] = []  # [span id, child time]
        self._patches: list[tuple] = []
        self._current: dict | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"permlat.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module).items():
                wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in [importlib.import_module("permlat"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        extract = EXTRACTORS.get(name)
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._current is None:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            record = [span_id, parent, name, time.perf_counter(), None]
            self.spans.append(record)
            frame = [span_id, 0.0]
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
                if generator:
                    # consume inside the span so the generator's work is timed
                    out = list(out)
            finally:
                record[4] = time.perf_counter()
                self._stack.pop()
                duration = record[4] - record[3]
                if self._stack:
                    self._stack[-1][1] += duration
                self._current["self"][name] += duration - frame[1]
                self._current["calls"][name] += 1
            if extract is not None:
                for key, value in extract(args, out).items():
                    self._current["count"][key] += value
            return iter(out) if generator else out

        return wrapper

    # -- passes ------------------------------------------------------------

    def begin_pass(self) -> None:
        self._current = {"self": defaultdict(float), "calls": defaultdict(int),
                         "count": defaultdict(int)}

    def end_pass(self) -> None:
        self.passes.append(self._current)
        self._current = None

    @staticmethod
    def pass_metrics(agg: dict) -> dict:
        """Per-layer metric values for one pass."""
        out = {}
        for metric, (_unit, kind, source) in METRICS.items():
            if kind == "self":
                out[metric] = sum((agg["self"].get(s, 0.0) for s in source), 0.0)
            elif kind == "calls":
                out[metric] = sum(agg["calls"].get(s, 0) for s in source)
            elif kind == "count":
                out[metric] = agg["count"].get(source, 0)
            elif kind == "ratio":
                total = agg["count"].get(source + "_total", 0)
                out[metric] = agg["count"].get(source + "_realized", 0) / total if total else 0.0
            else:
                out[metric] = sum((v for s, v in agg["self"].items()
                                   if s.startswith(source + ".")), 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span_id, parent, name, start, end in self.spans:
                f.write(json.dumps({"run": self.run_id, "id": span_id, "parent": parent,
                                    "name": name, "start": start, "end": end}) + "\n")
