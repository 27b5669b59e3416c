"""Spans and counters recorded from outside legclus.

``Tracer.install`` wraps public functions and methods of each layer (the
modules of ``legclus``) and ``Tracer.uninstall`` puts the originals back.
A function imported by name into other modules is replaced wherever a
module of the package holds it, and method aliases (``__rmul__`` is
``__mul__``) are replaced under every name.  Targets missing from the
program are skipped, so their metrics read 0.

Each call records one span (name, start, end, parent) into flat arrays
kept in memory; ``self_times`` subtracts child spans from each span.
"""

from __future__ import annotations

import array
import contextlib
import gzip
import io
import json
import sys
import time
from collections import defaultdict

PACKAGE = "legclus"

# layer -> (owner, attribute) pairs; an owner "mod:Class" names a class
TARGETS: dict[str, list[tuple[str, str]]] = {
    "ring": [
        ("ring:LaurentPolynomial", "__mul__"),
        ("ring:LaurentPolynomial", "__add__"),
        ("ring:LaurentPolynomial", "substitute"),
        ("ring", "exact_divide"),
    ],
    "continuant": [("continuant", "continuant")],
    "dga": [("dga", "build_dga"), ("dga", "block_continuants"), ("dga", "disk_table")],
    "augvar": [
        ("augvar", "presentation"),
        ("augvar", "initial_seed"),
        ("augvar", "count_points"),
        ("augvar", "matrix_distribution"),
        ("augvar", "enumerate_points"),
    ],
    "cluster": [
        ("cluster:Seed", "mutate"),
        ("cluster:Seed", "canonical_key"),
        ("cluster", "mutation_class"),
    ],
    "polygon": [
        ("polygon", "block_models"),
        ("polygon:BlockModel", "seed_from_triangulation"),
    ],
    "fillings": [
        ("fillings", "run_sequence"),
        ("fillings:PinchState", "apply_pinch"),
        ("fillings", "chart_image"),
        ("fillings", "is_torus_chart"),
        ("fillings", "representative_sequence"),
        ("fillings", "sequence_to_triangulations"),
        ("fillings", "enumerate_filling_classes"),
    ],
    "rulings": [("rulings", "enumerate_rulings"), ("rulings", "kauffman_identity_check")],
    "bridge": [("bridge:BridgeWord", "block_chords")],
    "cli": [("cli", "main")],
}

SHORT = {"__mul__": "mul", "__add__": "add"}


def span_name(layer: str, attr: str) -> str:
    if attr == layer:
        return layer
    return f"{layer}.{SHORT.get(attr, attr)}"


def _size(poly) -> int:
    terms = getattr(poly, "terms", None)
    if terms is not None:
        return len(terms)
    return len(poly.to_json_terms())


class _CountingCache(dict):
    """A continuant cache that counts the lookups it answers."""

    __slots__ = ("tracer",)

    def __contains__(self, key) -> bool:
        found = dict.__contains__(self, key)
        if found and not self.tracer.paused:
            self.tracer.counts["continuant.cache_hits"] += 1
        return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = ["op"]
        self.name_id: array.array = array.array("i")
        self.parent: array.array = array.array("i")
        self.start: array.array = array.array("d")
        self.end: array.array = array.array("d")
        self.stack = [-1]
        self.ncalls = [0]
        self.counts: dict[str, float] = defaultdict(float)
        self.paused = True
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.ncalls[nid] += 1
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def active(self, name: str):
        """Trace the program inside one span opened by the benchmark;
        outside such spans the wrappers call straight through."""
        if name not in self.names:
            self.names.append(name)
            self.ncalls.append(0)
        i = self._open(self.names.index(name))
        self.paused = False
        try:
            yield
        finally:
            self.paused = True
            self._close(i)

    def _wrap(self, name: str, fn, after=None):
        self.names.append(name)
        self.ncalls.append(0)
        nid = len(self.names) - 1
        open_, close, ncalls = self._open, self._close, self.ncalls
        # mutation_class also counts the mutations it tried
        counted = None
        if name == "cluster.mutation_class" and "cluster.mutate" in self.names:
            counted = self.names.index("cluster.mutate")
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            before = ncalls[counted] if counted is not None else 0
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
                if counted is not None:
                    counts["cluster.mutation_class.tried"] += ncalls[counted] - before
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # counters taken from results

    def _hooks(self):
        counts = self.counts

        def mul(result):
            counts["ring.mul.terms_out"] += _size(result)

        def build_dga(result):
            counts["dga.terms"] += sum(_size(p) for p in result.differentials.values())

        def matrix_distribution(result):
            key = "augvar.matrix_distribution.states"
            counts[key] = max(counts[key], len(result))

        def mutation_class(result):
            counts["cluster.mutation_class.new"] += len(result[0]) - 1

        def cli_main(result):
            out = sys.stdout  # the caller captures the output in a StringIO
            if isinstance(out, io.StringIO):
                counts["cli.output_bytes"] += len(out.getvalue().encode())

        return {"ring.mul": mul, "dga.build_dga": build_dga,
                "augvar.matrix_distribution": matrix_distribution,
                "cluster.mutation_class": mutation_class, "cli.main": cli_main}

    # ------------------------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
        hooks = self._hooks()
        for layer, targets in TARGETS.items():
            for owner, attr in targets:
                mod_name, _, cls_name = owner.partition(":")
                mod = mods.get(f"{PACKAGE}.{mod_name}")
                holder = getattr(mod, cls_name, None) if cls_name else mod
                orig = getattr(holder, attr, None) if holder is not None else None
                if orig is None:
                    continue
                name = span_name(layer, attr)
                wrapped = self._wrap(name, orig, hooks.get(name))
                if cls_name:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            self._set(holder, key, wrapped)
                else:
                    for m in mods.values():
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                self._set(m, key, wrapped)
        self._install_cache_counter(mods)

    def _install_cache_counter(self, mods) -> None:
        ring = mods.get(f"{PACKAGE}.ring")
        table_cls = getattr(ring, "VariableTable", None)
        if table_cls is None or "continuant_cache" not in getattr(table_cls, "__slots__", ()):
            return
        orig_init = table_cls.__init__
        tracer = self

        def init(obj, *args, **kwargs):
            orig_init(obj, *args, **kwargs)
            cache = _CountingCache(obj.continuant_cache)
            cache.tracer = tracer
            obj.continuant_cache = cache

        self._set(table_cls, "__init__", init)

    def _set(self, holder, key, value) -> None:
        self._restore.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: self seconds, inclusive seconds and calls.  No
        traced function calls itself, so inclusive time is a plain sum."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end, nid = self.parent, self.start, self.end, self.name_id
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        names = self.names
        for i in range(n):
            name = names[nid[i]]
            dur = end[i] - start[i]
            self_s[name] += dur - child[i]
            calls[name] += 1
            incl[name] += dur
        return self_s, incl, calls

    def write(self, path) -> None:
        """All spans as gzipped JSON columns: names, name ids, parents,
        start and end in seconds."""
        data = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": [round(t, 7) for t in self.start],
            "end": [round(t, 7) for t in self.end],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh, separators=(",", ":"))


# ----------------------------------------------------------------------
# per-layer metrics of one traced round

SELF_MS = [
    "ring.mul", "ring.add", "ring.substitute", "ring.exact_divide", "continuant",
    "dga.build_dga", "dga.block_continuants", "dga.disk_table",
    "cluster.mutate", "cluster.canonical_key", "polygon.block_models",
    "polygon.seed_from_triangulation", "fillings.apply_pinch", "fillings.chart_image",
    "fillings.representative_sequence", "fillings.sequence_to_triangulations",
    "rulings.enumerate_rulings", "rulings.kauffman_identity_check", "bridge.block_chords",
    "cli.main",
]
CALLS = [
    "ring.mul", "ring.substitute", "ring.exact_divide", "continuant", "cluster.mutate",
    "polygon.block_models", "fillings.sequence_to_triangulations", "bridge.block_chords",
]
INCLUSIVE_MS = ["augvar.count_points", "augvar.enumerate_points", "fillings.run_sequence", "fillings.chart_image"]


def metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, as (value, unit)."""
    self_s, incl, calls = tracer.self_times()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (self_s.get(name, 0.0) * 1e3, "ms")
    for name in CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in INCLUSIVE_MS:
        out[f"{name}.ms"] = (incl.get(name, 0.0) * 1e3, "ms")
    for layer in TARGETS:
        total = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"{layer}.layer_self_ms"] = (total * 1e3, "ms")
    out["ring.mul.terms_out"] = (counts["ring.mul.terms_out"], "count")
    out["dga.terms"] = (counts["dga.terms"], "count")
    out["augvar.matrix_distribution.states"] = (counts["augvar.matrix_distribution.states"], "count")
    n_cont = calls.get("continuant", 0)
    out["continuant.cache_hit_ratio"] = (counts["continuant.cache_hits"] / n_cont if n_cont else 0.0, "ratio")
    tried = counts["cluster.mutation_class.tried"]
    out["cluster.mutation_class.useful_ratio"] = (counts["cluster.mutation_class.new"] / tried if tried else 0.0, "ratio")
    out["cli.output_bytes"] = (counts["cli.output_bytes"], "bytes")
    out["trace.spans"] = (len(tracer.start), "count")
    out["trace.traced_round_s"] = (traced_s, "s")
    out["trace.untraced_round_s"] = (untraced_s, "s")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out


def shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of the traced operations' time; "op" is time
    spent outside every traced function."""
    self_s, _, _ = tracer.self_times()
    total = sum(self_s.values())
    by_layer: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        by_layer[name.split(".")[0]] += value
    return {layer: value / total for layer, value in sorted(by_layer.items(), key=lambda kv: -kv[1])}
