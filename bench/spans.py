"""Span tracing from outside the library, for the traced benchmark run.

``Tracer.install`` wraps each public function listed in ``TARGETS`` in every
properwalk module namespace that binds it (``properwalk.decompose.bridges``
and ``properwalk.construct.bridges`` alike).  Library code looks globals up
at call time, so both cross-module and intra-module calls go through the
wrapper.  ``Tracer.uninstall`` puts the originals back.

Each call records a span (id, parent id, name, start, end).  A span's self
time is its duration minus the durations of its direct children; per-name
totals are kept for every span, and the first ``MAX_SPANS`` spans are kept
whole for the run record.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import check

# (span name, module, attribute).  Names are "<layer>.<function>"; several
# functions may share a name (both parsers count as graphs.parse).
TARGETS = [
    ("verify.all_pairs", "properwalk.verify", "verify_all_pairs"),
    ("verify.directed", "properwalk.verify", "verify_all_pairs_directed"),
    ("verify.path", "properwalk.verify", "path_reachable"),
    ("verify.path", "properwalk.verify", "path_reachable_directed"),
    ("decompose.bridges", "properwalk.decompose", "bridges"),
    ("decompose.blocks", "properwalk.decompose", "blocks"),
    ("decompose.bridgeless_core", "properwalk.decompose", "bridgeless_core"),
    ("decompose.bipartition", "properwalk.decompose", "bipartition"),
    ("decompose.shortest_odd_cycle", "properwalk.decompose", "shortest_odd_cycle"),
    ("decompose.disjoint_odd_cycles", "properwalk.decompose", "disjoint_odd_cycles"),
    ("decompose.two_disjoint_paths", "properwalk.decompose", "two_disjoint_paths"),
    ("decompose.contract_core_graph", "properwalk.decompose", "contract_core_graph"),
    ("orient.robbins", "properwalk.orient", "robbins_orientation"),
    ("orient.path_anchored", "properwalk.orient", "path_anchored_orientation"),
    ("exact.pw", "properwalk.exact", "exact_pw"),
    ("exact.pp", "properwalk.exact", "exact_pp"),
    ("exact.directed", "properwalk.exact", "exact_directed"),
    ("construct.pw_auto", "properwalk.construct", "pw_auto"),
    ("construct.color_tree", "properwalk.construct", "color_tree"),
    ("construct.color_unicyclic3", "properwalk.construct", "color_unicyclic3"),
    ("construct.color_bipartite2", "properwalk.construct", "color_bipartite2"),
    ("construct.color_two_odd_cycles2", "properwalk.construct", "color_two_odd_cycles2"),
    ("construct.color_spanning_odd_cycle2", "properwalk.construct", "color_spanning_odd_cycle2"),
    ("construct.color_theta_block2", "properwalk.construct", "color_theta_block2"),
    ("construct.color_bridgeless2", "properwalk.construct", "color_bridgeless2"),
    ("construct.color_cycle_feet2", "properwalk.construct", "color_cycle_feet2"),
    ("construct.classify_cycle_feet", "properwalk.construct", "classify_cycle_feet"),
    ("construct.reduce_theta", "properwalk.construct", "reduce_theta"),
    # one candidate coloring per theta phase alignment tried
    ("construct.theta_phase", "properwalk.construct", "_assemble_theta_coloring"),
    ("graphs.parse", "properwalk.graphs", "parse_graph"),
    ("graphs.parse", "properwalk.graphs", "parse_coloring"),
    ("graphs.emit", "properwalk.graphs", "emit_graph"),
    ("graphs.is_connected", "properwalk.graphs", "Graph.is_connected"),
    ("cli.main", "properwalk.cli", "main"),
]

MAX_SPANS = 50_000
ITEM = "item"


class Tracer:
    def __init__(self):
        self.stack = []            # [span id, name, start ns, child ns]
        self.next_id = 1
        self.spans = []            # (id, parent, name, start ns, end ns), capped
        self.span_count = 0
        self.calls = {}
        self.self_ns = {}
        self.root_ns = 0           # time inside top-level library spans
        self.item_ns = 0           # time inside item spans
        self.verify = {}           # name -> [rejects, vertices]
        self.exact = {"colorings": 0, "by_level": {}}   # level -> [colorings, self ns]
        self.kind = None
        self.by_kind = {}          # item kind -> {span name: self ns}
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        sid = self.next_id
        self.next_id += 1
        self.stack.append([sid, name, time.perf_counter_ns(), 0])
        return sid

    def _exit(self):
        end = time.perf_counter_ns()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.span_count += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent[0] if parent else 0, name, start, end))
        if name == ITEM:
            self.item_ns += dur
            return dur - child
        if parent is None or parent[1] == ITEM:
            self.root_ns += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        per = self.by_kind.setdefault(self.kind, {})
        per[name] = per.get(name, 0) + dur - child
        return dur - child

    def item(self, kind, fn):
        """Run one benchmark item under a root span shared by its calls."""
        self.kind = kind
        self._enter(ITEM)
        try:
            return fn()
        finally:
            self._exit()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        if name.startswith("verify."):
            record = self._record_verify
        elif name.startswith("exact."):
            record = self._record_exact
        else:
            record = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._exit()
                raise
            own = self._exit()
            if record is not None:
                record(name, sig.bind(*args, **kwargs), out, own)
            return out

        return wrapper

    def _record_verify(self, name, bound, out, own):
        ok = out[0] if isinstance(out, tuple) else out
        graph = next(iter(bound.arguments.values()))
        row = self.verify.setdefault(name, [0, 0])
        row[0] += not ok
        row[1] += graph.n

    def _record_exact(self, name, bound, out, own):
        bound.apply_defaults()
        graph = next(iter(bound.arguments.values()))
        max_k = bound.arguments["max_k"]
        if out is None:
            colorings, level = check.refutation_count(graph.m, max_k), max_k
        else:
            colorings, level = out.explored, out.k
        self.exact["colorings"] += colorings
        row = self.exact["by_level"].setdefault(level, [0, 0])
        row[0] += colorings
        row[1] += own

    def install(self):
        mods = [m for key, m in list(sys.modules.items())
                if key == "properwalk" or key.startswith("properwalk.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:                      # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- metrics -----------------------------------------------------------

    def self_time_by_kind(self):
        """{item kind: {span name: self seconds over all traced rounds}},
        largest first."""
        return {kind: dict(sorted(((k, v / 1e9) for k, v in per.items()), key=lambda kv: -kv[1]))
                for kind, per in sorted(self.by_kind.items())}

    def metrics(self, rounds, untraced_s, traced_s):
        """Per-layer metrics as {name: (value, unit)}, per traced round.
        ``untraced_s`` and ``traced_s`` are the summed fastest item times of
        the untraced and the traced rounds."""
        s = lambda ns: ns / 1e9 / rounds
        calls = lambda name: self.calls.get(name, 0) // rounds
        self_s = lambda name: s(self.self_ns.get(name, 0))
        layer_s = lambda prefix: s(sum(v for k, v in self.self_ns.items() if k.startswith(prefix)))
        out = {}
        for short in ("all_pairs", "directed", "path"):
            name = f"verify.{short}"
            rejects, vertices = (v // rounds for v in self.verify.get(name, (0, 0)))
            n = calls(name)
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.self_s"] = (self_s(name), "s")
            out[f"{name}.rejects"] = (rejects, "count")
            out[f"{name}.accept_ratio"] = ((n - rejects) / n if n else 0.0, "ratio")
            out[f"{name}.vertices"] = (vertices, "count")
        out["verify.self_s"] = (layer_s("verify."), "s")
        for fn in ("bridges", "blocks", "bridgeless_core", "bipartition", "shortest_odd_cycle",
                   "disjoint_odd_cycles", "two_disjoint_paths", "contract_core_graph"):
            out[f"decompose.{fn}.calls"] = (calls(f"decompose.{fn}"), "count")
            out[f"decompose.{fn}.self_s"] = (self_s(f"decompose.{fn}"), "s")
        out["decompose.self_s"] = (layer_s("decompose."), "s")
        out["exact.calls"] = (sum(calls(f"exact.{k}") for k in ("pw", "pp", "directed")), "count")
        out["exact.self_s"] = (layer_s("exact."), "s")
        out["exact.colorings"] = (self.exact["colorings"] // rounds, "count")
        for level in (2, 3):
            count, ns = self.exact["by_level"].get(level, (0, 0))
            out[f"exact.colorings_per_s.k{level}"] = (count / rounds / s(ns) if ns else 0.0, "1/s")
        out["construct.pw_auto.calls"] = (calls("construct.pw_auto"), "count")
        out["construct.self_s"] = (layer_s("construct."), "s")
        out["construct.reduce_theta.self_s"] = (self_s("construct.reduce_theta"), "s")
        out["construct.theta.phase_attempts"] = (calls("construct.theta_phase"), "count")
        for short in ("robbins", "path_anchored"):
            out[f"orient.{short}.calls"] = (calls(f"orient.{short}"), "count")
            out[f"orient.{short}.self_s"] = (self_s(f"orient.{short}"), "s")
        out["orient.self_s"] = (layer_s("orient."), "s")
        for short in ("parse", "emit", "is_connected"):
            out[f"graphs.{short}.calls"] = (calls(f"graphs.{short}"), "count")
            out[f"graphs.{short}.self_s"] = (self_s(f"graphs.{short}"), "s")
        out["graphs.self_s"] = (layer_s("graphs."), "s")
        out["cli.main.calls"] = (calls("cli.main"), "count")
        out["cli.self_s"] = (layer_s("cli."), "s")
        out["trace.items_s"] = (s(self.item_ns), "s")
        out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
        out["trace.unattributed_s"] = (s(self.item_ns - self.root_ns), "s")
        return out
