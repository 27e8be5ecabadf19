"""Layer tracing from outside the library.

The public functions of each package module are wrapped, and the wrapper is
patched into every ``tridecomp.*`` namespace that binds the function, so
nothing under ``src/`` changes.  A wrapped call records one span (name,
start, end, parent span, operation id) in memory; the hot leaves get a
count-only wrapper.  Patches are installed only around traced operations.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import math
import sys
import types
from collections import Counter
from time import perf_counter

import stats

# module -> wrapped functions ("Class.method" for methods)
LAYERS = {
    "states": ("inner", "term_gram", "partial_trace", "densify", "sparsify",
               "norm"),
    "spectral": ("spectrum", "entropy", "reduced_spectra",
                 "triortho_necessary_test"),
    "decomp": ("schmidt", "linear_independence", "verify_tridecomposition",
               "extract_triortho", "decompositions_equivalent",
               "canonical_phase"),
    "matching": ("match_single_product", "match_components"),
    "constructions": ("instability_pair", "structure_mover",
                      "MoverUnitary.trace_norm_minus_identity",
                      "non_triortho_perturb"),
    "experiments": ("run_stability_campaign", "run_isolation_scan",
                    "run_closure_test", "run_instability_sweep"),
    "serialize": ("state_to_json", "decomposition_to_json", "state_from_json",
                  "decomposition_from_json", "dump", "load"),
    "cli": ("main",),
}

# hot leaves: metric name -> attribute wrapped with a call counter only
COUNTED = {
    "states.sv_inner": "sv_inner",
    "states.sparse_vector": "sparse_vector",
    "states.ProductTerm": "ProductTerm.__post_init__",
}

# metric name -> unit; ratios are per call, everything else per traced op
DERIVED = {
    "decomp.verify_tridecomposition.pass_ratio": "ratio",
    "decomp.extract_triortho.certified_ratio": "ratio",
    "constructions.instability_pair.theta_candidates": "count/call",
    "states.partial_trace.computed_bytes": "B/op",
    "decomp.schmidt.computed_bytes": "B/op",
    "decomp.linear_independence.svd_cells": "cells/op",
}

SUMMARY = {
    "traced.op_p50_s": "s",
    "untraced.op_p50_s": "s",
    "traced.overhead_s": "s",
}


def metric_units() -> dict:
    """Every per-layer metric name of a traced run, with its unit."""
    out = {}
    for module, names in LAYERS.items():
        for name in names:
            out[f"{module}.{name}.calls"] = "count/op"
            out[f"{module}.{name}.self_s"] = "s/op"
    for name in COUNTED:
        out[f"{name}.calls"] = "count/op"
    for module in LAYERS:
        out[f"{module}.self_s"] = "s/op"
        out[f"{module}.errors"] = "count/op"
    out.update(DERIVED)
    out.update(SUMMARY)
    return out


def _resolve(owner, dotted: str):
    """(object holding the attribute, attribute name) for "f" or "C.m"."""
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        import tridecomp as td  # here, so metric_units() needs no library

        self._td = td
        self.spans = []            # (span id, name, start, end, parent, op id)
        self.counts = Counter()    # count-only leaves
        self.errors = Counter()    # module -> exceptions that left a wrapper
        self.derived = Counter()   # raw sums behind DERIVED
        self.op = None             # id of the traced operation in progress
        self._stack = []
        self._ids = itertools.count()
        self._raised = []          # exceptions already counted at a deeper span
        self._patches = []         # (owner, attribute, original, wrapper)
        mods = {m: importlib.import_module(f"tridecomp.{m}") for m in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "tridecomp" or n.startswith("tridecomp.")]
        posts = {
            "decomp.verify_tridecomposition": self._post_verify,
            "decomp.extract_triortho": self._post_extract,
            "constructions.instability_pair": self._post_pair,
            "states.partial_trace": self._post_partial_trace,
            "decomp.schmidt": self._post_schmidt,
            "decomp.linear_independence": self._post_linear_independence,
        }
        for module, names in LAYERS.items():
            for name in names:
                q = f"{module}.{name}"
                owner, attr = _resolve(mods[module], name)
                fn = getattr(owner, attr)
                self._plan(namespaces, owner, attr, fn,
                           self._span_wrapper(q, module, fn, posts.get(q)))
        for metric, name in COUNTED.items():
            owner, attr = _resolve(td.states, name)
            fn = getattr(owner, attr)
            self._plan(namespaces, owner, attr, fn,
                       self._count_wrapper(metric, fn))

    def _plan(self, namespaces, owner, attr, original, wrapper):
        if isinstance(owner, types.ModuleType):
            # a function: patch every tridecomp namespace that binds it
            for ns in namespaces:
                for key, val in vars(ns).items():
                    if val is original:
                        self._patches.append((ns, key, original, wrapper))
        else:  # a method: patch the class
            self._patches.append((owner, attr, original, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _count_wrapper(self, metric, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name, module, fn, post):
        """``post(args, kwargs, result)`` runs after a call that returned."""

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(module, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op))
            if post is not None:
                post(args, kwargs, result)
            return result
        return traced

    def _count_error(self, module, exc):
        """Count an exception once, at the innermost span it left."""
        if not any(exc is seen for seen in self._raised):
            self._raised.append(exc)
            self.errors[module] += 1

    # -- derived counters, computed from arguments and results -------------

    def _post_verify(self, args, kwargs, cert):
        self.derived["verify_passed"] += bool(cert.passed)

    def _post_extract(self, args, kwargs, result):
        self.derived["extract_certified"] += isinstance(
            result, self._td.OrderedTriortho)

    def _post_pair(self, args, kwargs, pair):
        self.derived["theta_j"] += round(-math.log2(pair.theta))

    def _post_partial_trace(self, args, kwargs, rho):
        s, td = args[0], self._td
        if isinstance(s, td.DenseState):
            read = s.amplitudes.nbytes
        elif isinstance(s, td.SumState):
            read = sum(fmat.nbytes for _, fmat in s._packed)
        else:
            read = s.matrix.nbytes
        self.derived["partial_trace_bytes"] += read + rho.matrix.nbytes

    def _post_schmidt(self, args, kwargs, sd):
        self.derived["schmidt_bytes"] += (16 * sd.space.dim
                                          + sd.left_vectors.nbytes
                                          + sd.right_vectors.nbytes)

    def _post_linear_independence(self, args, kwargs, result):
        vectors = list(args[0])
        k = len(vectors)
        if all(hasattr(v, "shape") for v in vectors):
            rows = vectors[0].shape[0]
        else:
            rows = len({i for v in vectors for i, _ in v})
        dim = args[2] if len(args) > 2 else kwargs.get("dim")
        if rows >= k and (dim is None or k <= dim):
            self.derived["svd_cells"] += rows * k

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics averaged over ``ops`` traced operations."""
        selfs = stats.self_times([(sid, start, end, parent)
                                  for sid, _, start, end, parent, _ in self.spans])
        calls, self_s = Counter(), Counter()
        for sid, name, *_ in self.spans:
            calls[name] += 1
            self_s[name] += selfs[sid]
        out = {}
        for module, names in LAYERS.items():
            for name in names:
                q = f"{module}.{name}"
                out[f"{q}.calls"] = calls[q] / ops
                out[f"{q}.self_s"] = self_s[q] / ops
            out[f"{module}.self_s"] = sum(self_s[f"{module}.{n}"]
                                          for n in names) / ops
            out[f"{module}.errors"] = self.errors[module] / ops
        for metric in COUNTED:
            out[f"{metric}.calls"] = self.counts[metric] / ops

        def ratio(num, den):
            return self.derived[num] / calls[den] if calls[den] else 0.0
        out["decomp.verify_tridecomposition.pass_ratio"] = ratio(
            "verify_passed", "decomp.verify_tridecomposition")
        out["decomp.extract_triortho.certified_ratio"] = ratio(
            "extract_certified", "decomp.extract_triortho")
        out["constructions.instability_pair.theta_candidates"] = ratio(
            "theta_j", "constructions.instability_pair")
        out["states.partial_trace.computed_bytes"] = \
            self.derived["partial_trace_bytes"] / ops
        out["decomp.schmidt.computed_bytes"] = self.derived["schmidt_bytes"] / ops
        out["decomp.linear_independence.svd_cells"] = \
            self.derived["svd_cells"] / ops
        return out

    def write(self, path, ops: list, meta: dict):
        """Write the spans and the traced operations as gzipped JSON."""
        doc = dict(meta, schema="perfbench-trace/1",
                   span_fields=["id", "name", "start", "end", "parent", "op"],
                   spans=self.spans,
                   op_fields=["id", "label", "start", "end"], ops=ops)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
