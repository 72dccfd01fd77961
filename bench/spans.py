"""Spans around homcert's layers, recorded from outside the package.

`Tracer.install` replaces the public functions of each layer module with
wrappers, re-binds every name another homcert module imported from that
layer, and wraps `Mat.__post_init__`, `Complex.__post_init__` and
`BuildTree.evaluate`.  A wrapper records one span (name, layer, start,
end, parent) in memory; `uninstall` puts the originals back.  Recording
is paused outside benchmark cases, so input generation and result
checks leave no spans.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Work the
tracer does to fingerprint inputs is recorded as a child span of layer
"trace", so it is subtracted from the span that caused it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import weakref

LAYERS = ("matrices", "modules", "complexes", "homspaces", "generator",
          "flatness", "duality", "documents", "cli")

# Elimination entry points; every other matrices routine reaches them.
KERNEL = "matrices.kernel_right"
SOLVE = "matrices.solve_right"
COLSPAN = "matrices.colspan_canonical"
SMITH = "matrices.smith_invariants"
ELIM = (KERNEL, SOLVE, COLSPAN, SMITH)
MAT_NEW = "matrices.Mat.__post_init__"
COMPLEX_NEW = "complexes.Complex.__post_init__"
EVALUATE = "duality.BuildTree.evaluate"
HOMOLOGY = "complexes.homology_data"
PARSE = "documents.parse_document"
EMIT = "documents.emit_document"
METHODS = (MAT_NEW, COMPLEX_NEW, EVALUATE)


def _mat_key(m):
    return (m.ring.kind, m.ring.n, m.rows, m.cols, m.entries)


def _complex_key(c):
    return (c.ring.kind, c.ring.n, c.side, tuple(sorted(c.ranks.items())),
            tuple((j, _mat_key(d)) for j, d in sorted(c.diffs.items())),
            c.tail_below, c.tail_above)


class Tracer:
    def __init__(self, homcert_modules: dict):
        self.mods = homcert_modules
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.stack: list[int] = []
        self.paused = True
        self.originals: list[tuple[object, str, object]] = []
        self.max_bits = 0
        self.max_cells = 0
        self.elim_keys: set[int] = set()
        self.elim_calls = 0
        self.homology_keys: set[int] = set()
        self.homology_calls = 0
        self.tree_keys: dict[int, int] = {}
        self.evaluate_keys: set[int] = set()
        self.evaluate_calls = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        obs_id = self._name_id("trace.observe")
        clock = time.perf_counter
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                o = len(names)
                names.append(obs_id)
                parents.append(stack[-1] if stack else -1)
                starts.append(clock())
                ends.append(0.0)
                tracer.paused = True
                try:
                    observe(args, out)
                finally:
                    tracer.paused = False
                    ends[o] = clock()
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        mods = self.mods
        replaced = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                replaced[id(fn)] = (fn, self._wrap(name, fn, self._observer(name)))
        # every homcert module holding one of the originals gets the wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "homcert" or mod_name.startswith("homcert.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self.originals.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for name in METHODS:
            layer, cls_name, meth = name.split(".")
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            self.originals.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn, self._observer(name)))

    def uninstall(self):
        for owner, attr, value in reversed(self.originals):
            setattr(owner, attr, value)
        self.originals.clear()

    # -- observations ----------------------------------------------------

    def _observer(self, name: str):
        layer = name.split(".")[0]
        if name in ELIM:
            return lambda args, out: self._observe_elim(name, args, out)
        if layer == "matrices" and name not in METHODS:
            return self._observe_matrices
        if name == HOMOLOGY:
            return self._observe_homology
        if name == EVALUATE:
            return self._observe_evaluate
        if name == PARSE:
            return self._observe_parse
        if name == EMIT:
            return self._observe_emit
        return None

    def _observe_matrices(self, args, out):
        Mat = self.mods["matrices"].Mat
        for a in args:
            if isinstance(a, Mat) and a.rows * a.cols > self.max_cells:
                self.max_cells = a.rows * a.cols
        best = 0
        if isinstance(out, Mat):
            best = max((abs(e).bit_length() for e in out.entries), default=0)
        elif isinstance(out, list):
            best = max((abs(e).bit_length() for e in out if isinstance(e, int)), default=0)
        if best > self.max_bits:
            self.max_bits = best

    def _observe_elim(self, name, args, out):
        self._observe_matrices(args, out)
        self.elim_calls += 1
        self.elim_keys.add(hash((name,) + tuple(_mat_key(a) for a in args)))

    def _observe_homology(self, args, out):
        c, j = args
        self.homology_calls += 1
        self.homology_keys.add(hash((c.side, _mat_key(c.diff(j)), _mat_key(c.diff(j - 1)))))

    def _tree_key(self, node) -> int:
        key = self.tree_keys.get(id(node))
        if key is None:
            key = hash((node.kind, node.shift, node.residual,
                        _complex_key(node.payload) if node.payload is not None else None,
                        tuple((j, _mat_key(m)) for j, m in sorted((node.components or {}).items())),
                        tuple(self._tree_key(c) for c in node.children)))
            self.tree_keys[id(node)] = key
            weakref.finalize(node, self.tree_keys.pop, id(node), None)
        return key

    def _observe_evaluate(self, args, out):
        self.evaluate_calls += 1
        self.evaluate_keys.add(self._tree_key(args[0]))

    def _observe_parse(self, args, out):
        self.bytes_in += len(args[0])

    def _observe_emit(self, args, out):
        self.bytes_out += len(out)

    # -- results ---------------------------------------------------------

    def write_spans(self, path, t0: float):
        with open(path, "w") as fh:
            for i, nid in enumerate(self.span_name):
                fh.write(json.dumps({
                    "id": i, "name": self.names[nid],
                    "start": round(self.span_start[i] - t0, 9),
                    "end": round(self.span_end[i] - t0, 9),
                    "parent": self.span_parent[i]}, separators=(",", ":")) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        names = [self.names[n] for n in self.span_name]
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        layer_self: dict[str, float] = {}
        layer_calls: dict[str, int] = {}
        count: dict[str, int] = {}
        incl: dict[str, float] = {}
        for i, name in enumerate(names):
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child[i]
            count[name] = count.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
            if name not in METHODS:
                layer_calls[layer] = layer_calls.get(layer, 0) + 1

        def outer_time(target: str) -> float:
            # inclusive time of `target` spans not nested in another one
            total = 0.0
            tid = self.name_ids.get(target)
            for i, nid in enumerate(self.span_name):
                if nid != tid:
                    continue
                p = self.span_parent[i]
                while p >= 0 and self.span_name[p] != tid:
                    p = self.span_parent[p]
                if p < 0:
                    total += dur[i]
            return total

        def ratio(distinct: int, calls: int) -> float:
            return distinct / calls if calls else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (layer_calls.get(layer, 0), "count")
            out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
        out.update({
            "matrices.kernel_s": (outer_time(KERNEL), "s"),
            "matrices.solve_s": (outer_time(SOLVE), "s"),
            "matrices.kernel_calls": (count.get(KERNEL, 0), "count"),
            "matrices.solve_calls": (count.get(SOLVE, 0), "count"),
            "matrices.colspan_calls": (count.get(COLSPAN, 0), "count"),
            "matrices.smith_calls": (count.get(SMITH, 0), "count"),
            "matrices.out_max_bits": (self.max_bits, "bits"),
            "matrices.max_in_cells": (self.max_cells, "cells"),
            "matrices.mat_new": (count.get(MAT_NEW, 0), "count"),
            "matrices.mat_new_s": (incl.get(MAT_NEW, 0.0), "s"),
            "matrices.distinct_input_ratio": (ratio(len(self.elim_keys), self.elim_calls), "ratio"),
            "matrices.distinct_input_base": (self.elim_calls, "count"),
            "complexes.complex_new": (count.get(COMPLEX_NEW, 0), "count"),
            "complexes.complex_new_s": (incl.get(COMPLEX_NEW, 0.0), "s"),
            "complexes.homology_calls": (self.homology_calls, "count"),
            "complexes.homology_distinct_ratio": (
                ratio(len(self.homology_keys), self.homology_calls), "ratio"),
            "duality.evaluate_calls": (self.evaluate_calls, "count"),
            "duality.evaluate_distinct_ratio": (
                ratio(len(self.evaluate_keys), self.evaluate_calls), "ratio"),
            "documents.parse_s": (outer_time(PARSE), "s"),
            "documents.emit_s": (outer_time(EMIT), "s"),
            "documents.bytes_in": (self.bytes_in, "bytes"),
            "documents.bytes_out": (self.bytes_out, "bytes"),
        })
        return out
