"""Spans around the public functions of each graphdiffusion module.

The tracer replaces a function in every module namespace that holds it,
because `cli` and `cluster` import names directly (`from .engine import
diffuse`), so patching only the defining module would miss their calls.
Each call records a span: name, start, end, parent, self time, CPU time,
tracemalloc peak and nnz in/out. Spans are kept in memory and written out
once the traced run ends.

tracemalloc slows allocation-heavy Python code several times over (the
edge-list parser most of all), so a Tracer records either timings or
memory peaks: the benchmark runs one traced operation of each kind.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
import tracemalloc

import numpy as np
import scipy.sparse as sp

MODULES = ("graphdiffusion", "graphdiffusion.graph", "graphdiffusion.engine",
           "graphdiffusion.sparsify", "graphdiffusion.cluster",
           "graphdiffusion.cli", "graphdiffusion.spectral")

# (module, attribute, span name); attribute "Class.method" wraps a classmethod
TRACED = (
    ("graph", "read_edge_list", "graph.read_edge_list"),
    ("graph", "load_graph", "graph.load_graph"),
    ("graph", "load_edge_list", "graph.load_edge_list"),
    ("graph", "largest_connected_component", "graph.largest_connected_component"),
    ("graph", "transition_matrix", "graph.transition_matrix"),
    ("graph", "save_edge_list", "graph.save_edge_list"),
    ("graph", "SparseGraph.from_scipy", "graph.from_scipy"),
    ("engine", "diffuse", "engine.diffuse"),
    ("sparsify", "sparsify", "sparsify.sparsify"),
    ("sparsify", "epsilon_for_degree", "sparsify.epsilon_for_degree"),
    ("sparsify", "postprocess", "sparsify.postprocess"),
    ("cluster", "generate_sbm", "cluster.generate_sbm"),
    ("cluster", "spectral_embedding", "cluster.spectral_embedding"),
    ("cluster", "kmeans", "cluster.kmeans"),
    ("cluster", "run_gdc_for_clustering", "cluster.run_gdc_for_clustering"),
    ("cli", "run_pipeline", "cli.run_pipeline"),
    ("cli", "cmd_eval_cluster", "cli.eval_cluster"),
)


def nnz_of(obj):
    """Stored entries of a graph-like value; None when it has no such notion."""
    if isinstance(obj, tuple) and obj:
        return nnz_of(obj[0])
    if isinstance(obj, list):
        return len(obj)  # parsed edge tuples
    if isinstance(obj, np.ndarray):
        return int(np.count_nonzero(obj))
    if sp.issparse(obj) or hasattr(obj, "nnz"):
        return int(obj.nnz)
    if hasattr(obj, "matrix"):  # TransitionMatrix
        return int(obj.matrix.nnz)
    if hasattr(obj, "exactness"):  # DiffusionMatrix
        return nnz_of(obj.data)
    return None


def _files_size(path):
    return sum(os.path.getsize(p) for p in (str(path), f"{path}.meta")
               if os.path.exists(p))


def _exact_residual(args, result):
    """max |a I - (X - (1-a) T X)| of an exact geometric diffusion result."""
    t, spec = args[0], args[1]
    x = result.data
    if getattr(result, "exactness", None) != "exact" or sp.issparse(x):
        return None
    alpha = spec.alpha
    resid = x - (1.0 - alpha) * (t.matrix @ x)
    resid[np.diag_indices_from(resid)] -= alpha
    return float(np.abs(resid).max())


# position of the argument whose nnz is recorded as nnz_in (default 0)
ARG_INDEX = {"graph.save_edge_list": 1, "graph.from_scipy": 1}

# extra per-span measurements taken after the call, outside its own timing
AFTER = {
    "graph.save_edge_list": lambda args, out: {"bytes_out": _files_size(args[0])},
    "engine.diffuse": lambda args, out: {"residual_max": _exact_residual(args, out)},
}


class Tracer:
    def __init__(self, memory):
        self.memory = memory  # record tracemalloc peaks; the caller starts it
        self.spans = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _memory_checkpoint(self):
        """Fold the peak since the last checkpoint into every open span."""
        if not self.memory:
            return 0
        cur, peak = tracemalloc.get_traced_memory()
        for span in self._open:
            span["_peak"] = max(span["_peak"], peak)
        tracemalloc.reset_peak()
        return cur

    def wrap(self, name, fn):
        tracer = self
        arg_index = ARG_INDEX.get(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span = {"id": tracer._next_id, "name": name,
                        "parent": stack[-1]["id"] if stack else None,
                        "thread": threading.current_thread().name,
                        "_child_s": 0.0}
                tracer._next_id += 1
                span["_mem0"] = span["_peak"] = tracer._memory_checkpoint()
                tracer._open.append(span)
            stack.append(span)
            span["cpu0"] = time.process_time()
            span["start"] = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu_s"] = time.process_time() - span.pop("cpu0")
                stack.pop()
                with tracer._lock:
                    tracer._memory_checkpoint()
                    tracer._open.remove(span)
            t0 = time.perf_counter()
            dur = span["end"] - span["start"]
            span["wall_s"] = dur
            span["self_s"] = dur - span.pop("_child_s")
            peak_mb = (span.pop("_peak") - span.pop("_mem0")) / 2 ** 20
            span["peak_mb"] = peak_mb if tracer.memory else None
            span["nnz_in"] = nnz_of(args[arg_index]) if len(args) > arg_index else None
            span["nnz_out"] = nnz_of(return_value)
            if name in AFTER:
                span.update(AFTER[name](args, return_value))
            extra = time.perf_counter() - t0
            with tracer._lock:
                tracer.spans.append(span)
            if stack:
                # the parent's self time excludes this span and its bookkeeping
                stack[-1]["_child_s"] += dur + extra
            return return_value

        return traced

    def install(self):
        """Wrap every TRACED function wherever graphdiffusion modules hold it.

        Raises if a traced name no longer exists, so a rename cannot silently
        zero a layer.
        """
        mods = [importlib.import_module(m) for m in MODULES]
        for short, attr, name in TRACED:
            home = importlib.import_module(f"graphdiffusion.{short}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                if not isinstance(orig, classmethod):
                    raise RuntimeError(f"{attr} is no longer a classmethod")
                setattr(cls, meth, classmethod(self.wrap(name, orig.__func__)))
                continue
            orig = getattr(home, attr)  # AttributeError names the missing span
            wrapped = self.wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
