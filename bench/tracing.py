"""Per-layer spans around nahn's public functions, installed from outside nahn.

``Tracer.install`` replaces each traced function, wherever a nahn module
holds a reference to it, by a wrapper that records a span
``[id, parent id, name, start, end, thread, error, extra]``. Spans stay in
memory until ``dump`` appends them to a JSON-lines file, one line per
process. ``summarize`` turns the spans of a run into the per-layer metrics.
Nothing here runs unless a traced run installs it; untraced runs never
import this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

#: (module, function) -> span name. eig_dense is named by its eigenvectors flag.
TRACED = {
    ("cli", "main"): "cli.main",
    ("config", "load_config"): "config.load",
    ("model", "real_space_hamiltonian"): "model.assemble",
    ("model", "bloch_hamiltonian"): "model.bloch_hamiltonian",
    ("model", "analytic_eigenvalues"): "model.analytic_eigenvalues",
    ("eigensolve", "eig_dense"): "eigensolve.eig_dense",
    ("eigensolve", "sort_bands_by_continuity"): "eigensolve.sort",
    ("skin", "densities_from_eigenvectors"): "skin.densities",
    ("skin", "gamma"): "skin.gamma",
    ("skin", "classify_localization"): "skin.classify",
    ("skin", "obc_eigenstates"): "skin.obc_eigenstates",
    ("topology", "braiding_degree"): "topology.braiding_degree",
    ("topology", "braiding_degree_of_samples"): "topology.braiding_degree_of_samples",
    ("topology", "spectral_winding"): "topology.spectral_winding",
    ("topology", "spectral_winding_profile"): "topology.spectral_winding_profile",
    ("topology", "band_resolved_winding"): "topology.band_resolved_winding",
    ("topology", "exceptional_scan"): "topology.exceptional_scan",
    ("topology", "compute_phase_diagram"): "topology.compute_phase_diagram",
    ("circuit", "circuit_chain"): "circuit.circuit_chain",
    ("circuit", "admittance_bloch"): "circuit.admittance_bloch",
    ("circuit", "simulated_measurement"): "circuit.measure",
    ("output", "write_table"): "output.write_table",
    ("output", "write_report"): "output.write_report",
}

#: span name -> layer whose time and calls it counts toward.
LAYER = {
    "cli.main": "cli.main",
    "config.load": "config.load",
    "model.assemble": "model.assemble",
    "model.bloch_hamiltonian": "model.bloch",
    "model.analytic_eigenvalues": "model.bloch",
    "eigensolve.eig": "eigensolve.eig",
    "eigensolve.eigvals": "eigensolve.eigvals",
    "eigensolve.lapack": "eigensolve.lapack",
    "eigensolve.sort": "eigensolve.sort",
    "skin.densities": "skin.densities",
    "skin.gamma": "skin.localization",
    "skin.classify": "skin.localization",
    "skin.obc_eigenstates": "skin.obc_eigenstates",
    "topology.braiding_degree": "topology.braiding",
    "topology.braiding_degree_of_samples": "topology.braiding",
    "topology.spectral_winding": "topology.winding",
    "topology.spectral_winding_profile": "topology.winding",
    "topology.band_resolved_winding": "topology.winding",
    "topology.exceptional_scan": "topology.ep_scan",
    "topology.compute_phase_diagram": "topology.sweep",
    "circuit.circuit_chain": "circuit.assemble",
    "circuit.admittance_bloch": "circuit.assemble",
    "circuit.measure": "circuit.measure",
    "output.write_table": "output.write",
    "output.write_report": "output.write",
}

MODULES = ("cli", "config", "model", "eigensolve", "skin", "topology", "circuit", "output")

#: The spans that make up one phase-diagram cell, in the order a cell calls them.
CELL_PARTS = ("topology.braiding_degree", "skin.obc_eigenstates", "skin.gamma")


def _extra(name, args, kwargs):
    """Counts recorded with a span, read from the call's arguments."""
    if name == "output.write_table":
        rows = kwargs.get("rows", args[4] if len(args) > 4 else ())
        path = kwargs.get("path", args[0])
        return {"rows": len(rows), "bytes": os.path.getsize(path)}
    if name == "output.write_report":
        return {"bytes": os.path.getsize(kwargs.get("path", args[0]))}
    if name == "eigensolve.sort":
        return {"points": len(kwargs.get("k_values", args[0]))}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, fn, name):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            span_name = name
            if name == "eigensolve.eig_dense":
                vectors = kwargs.get("eigenvectors", args[1] if len(args) > 1 else True)
                span_name = "eigensolve.eig" if vectors else "eigensolve.eigvals"
            stack.append(sid)
            error = None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = _extra(span_name, args, kwargs) if error is None else None
                spans.append([sid, parent, span_name, t0, t1, threading.get_ident(), error, extra])

        return traced

    def install(self):
        """Wrap every traced function in every nahn module that refers to it."""
        import importlib

        import numpy

        modules = [importlib.import_module("nahn")]
        modules += [importlib.import_module(f"nahn.{m}") for m in MODULES]
        wrappers = {}
        for (mod, fname), name in TRACED.items():
            fn = getattr(importlib.import_module(f"nahn.{mod}"), fname)
            wrappers[id(fn)] = self._wrap(fn, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        numpy.linalg.eig = self._wrap(numpy.linalg.eig, "eigensolve.lapack")
        numpy.linalg.eigvals = self._wrap(numpy.linalg.eigvals, "eigensolve.lapack")

    def reset(self):
        self.spans.clear()

    def dump(self, path):
        with open(path, "a") as f:
            f.write(json.dumps({"main_thread": threading.main_thread().ident, "spans": self.spans}) + "\n")


def load(path) -> list:
    with open(path) as f:
        return [json.loads(line) for line in f]


def summarize(processes: list, n_ops: int) -> dict:
    """Per-layer metrics from the spans of one or more traced processes.

    Times and counts are totals divided by ``n_ops``, the operations the
    traced run completed. A span nested inside another span of the same
    layer is not counted again. ``cli.self_ms`` is command time not covered
    by the command's direct child spans.
    """
    time_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    cli_self = command_wall = 0.0
    refined = 0
    cells, rejected = [], 0
    for proc in processes:
        spans = proc["spans"]
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                children[s[1]].append(s)

        def nested_in_same_layer(s):
            layer = LAYER[s[2]]
            parent = by_id.get(s[1])
            while parent is not None:
                if LAYER[parent[2]] == layer:
                    return True
                parent = by_id.get(parent[1])
            return False

        per_thread = defaultdict(list)
        for s in spans:
            sid, parent, name, t0, t1, thread, error, extra = s
            layer = LAYER[name]
            if not nested_in_same_layer(s):
                time_s[layer] += t1 - t0
                calls[layer] += 1
            for key, value in (extra or {}).items():
                counts[key] += value
            if name == "cli.main":
                command_wall += t1 - t0
                cli_self += (t1 - t0) - sum(c[4] - c[3] for c in children[sid])
            if name == "topology.braiding_degree":
                if sum(c[2] == "model.bloch_hamiltonian" for c in children[sid]) > 1:
                    refined += 1
            if parent is None and thread != proc["main_thread"] and name in CELL_PARTS:
                per_thread[thread].append(s)
        for parts in per_thread.values():
            parts.sort(key=lambda s: s[3])
            for s in parts:
                if s[2] == CELL_PARTS[0]:
                    cells.append([0.0, False])
                if cells:
                    cells[-1][0] += s[4] - s[3]
                    cells[-1][1] |= s[6] is not None

    def ms(layer):
        return 1000.0 * time_s[layer] / n_ops

    def per_op(n):
        return n / n_ops

    lapack = time_s["eigensolve.lapack"]
    cell_total = sum(c[0] for c in cells)
    rejected = sum(c[1] for c in cells)
    return {
        "config.load_ms": ms("config.load"),
        "cli.self_ms": 1000.0 * cli_self / n_ops,
        "model.assemble_ms": ms("model.assemble"),
        "model.assemble_calls": per_op(calls["model.assemble"]),
        "model.bloch_ms": ms("model.bloch"),
        "model.bloch_calls": per_op(calls["model.bloch"]),
        "eigensolve.eig_ms": ms("eigensolve.eig"),
        "eigensolve.eig_calls": per_op(calls["eigensolve.eig"]),
        "eigensolve.lapack_ms": 1000.0 * lapack / n_ops,
        "eigensolve.bookkeeping_ms": 1000.0 * (time_s["eigensolve.eig"] + time_s["eigensolve.eigvals"] - lapack) / n_ops,
        "eigensolve.eigvals_ms": ms("eigensolve.eigvals"),
        "eigensolve.eigvals_calls": per_op(calls["eigensolve.eigvals"]),
        "eigensolve.sort_ms": ms("eigensolve.sort"),
        "eigensolve.sort_points": per_op(counts["points"]),
        "skin.densities_ms": ms("skin.densities"),
        "skin.localization_ms": ms("skin.localization"),
        "topology.braiding_ms": ms("topology.braiding"),
        "topology.braiding_calls": per_op(calls["topology.braiding"]),
        "topology.braiding_refined": per_op(refined),
        "topology.winding_ms": ms("topology.winding"),
        "topology.winding_calls": per_op(calls["topology.winding"]),
        "topology.ep_scan_ms": ms("topology.ep_scan"),
        "topology.cell_ms_p50": 1000.0 * statistics.median(c[0] for c in cells) if cells else 0.0,
        "topology.cells_in_flight": cell_total / command_wall if command_wall else 0.0,
        "topology.cells_rejected": rejected,
        "circuit.assemble_ms": ms("circuit.assemble"),
        "circuit.measure_ms": ms("circuit.measure"),
        "circuit.measure_calls": per_op(calls["circuit.measure"]),
        "output.write_ms": ms("output.write"),
        "output.rows": per_op(counts["rows"]),
        "output.bytes": per_op(counts["bytes"]),
    }
