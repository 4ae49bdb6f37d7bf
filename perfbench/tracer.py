"""Call-boundary tracer for the per-layer run.

Wraps every public function of the kmsbif layer modules (for ``cli`` only the
entry point ``main``) in its home module and wherever a kmsbif module bound it
by name, plus ``numpy.linalg.eig``/``eigvals`` when called under a kmsbif span
(the ``lapack`` pseudo-layer).  Spans are aggregated in memory per
(parent, name) edge: calls, total time and self time, where self time is the
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time
import warnings

import numpy as np

LAYERS = ("chebyshev", "critical", "kms", "oracle", "puiseux", "geometry",
          "imag_axis", "cli")
CLI_BOUNDARY = ("main",)

# Golub & Van Loan (Matrix Computations, 4th ed., table 7.7.1): QR algorithm
# flop counts per n^3, eigenvalues only vs eigenvalues and eigenvectors.
GVL_FLOPS_PER_N3 = {"eigvals": 10, "eig": 25}


class Tracer:
    def __init__(self):
        self._stack = []        # open spans: [name, child_ns]
        self.edges = {}         # (parent, name) -> [calls, total_ns, self_ns]
        self.counters = collections.Counter()
        self._oracle_keys = collections.Counter()  # (n, rho) of oracle solves
        self._points = set()                       # (n, rho_c) of catalog points

    def _wrap(self, name, fn, before=None, after=None, nested_only=False):
        stack, edges, clock = self._stack, self.edges, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested_only and not stack:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent is not None else "", name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if after is not None:
                after(result)
            return result

        return traced

    # computed counts; each hook mirrors the signature of the function it sees

    def _on_build_matrix(self, n, rho):
        self.counters["kms.matrix_bytes"] += 16 * n * n

    def _on_eigenvalues(self, m, want_vectors=False):
        self.counters["oracle.eigenvalues.vector_calls"] += bool(want_vectors)
        rho = getattr(m, "rho", None)
        if rho is not None:
            self._oracle_keys[(m.n, rho)] += 1

    def _on_numeric_borderline(self, n, bounds, resolution=64, eig_type=None):
        self.counters["oracle.grid_nodes"] += resolution * resolution

    def _on_points(self, points):
        self._points.update((p.n, p.rho_c) for p in points)

    def _flops_hook(self, per_n3):
        def count(a, *args, **kwargs):
            self.counters["lapack.flops_est"] += per_n3 * np.shape(a)[0] ** 3
        return count

    def _steps_counter(self, recurrence):
        def counted(k, z):
            self.counters["chebyshev.degree_sum"] += k
            return recurrence(k, z)
        return counted

    def _warn_counter(self, warn):
        def counted(message, category=None, stacklevel=1, source=None, **kwargs):
            if self._stack:
                self.counters[f"{self._stack[-1][0]}.warnings"] += 1
            return warn(message, category, stacklevel + 1, source, **kwargs)
        return counted

    def install(self):
        """Patch the imported kmsbif package in place; call before any op."""
        pkg = importlib.import_module("kmsbif")
        mods = {layer: importlib.import_module(f"kmsbif.{layer}") for layer in LAYERS}
        hooks = {"kms.build_matrix": (self._on_build_matrix, None),
                 "oracle.eigenvalues": (self._on_eigenvalues, None),
                 "oracle.numeric_borderline": (self._on_numeric_borderline, None),
                 "critical.all_critical_points": (None, self._on_points)}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (layer == "cli" and attr not in CLI_BOUNDARY)):
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = self._wrap(name, obj, *hooks.get(name, (None, None)))
        for ns in [vars(pkg)] + [vars(m) for m in mods.values()]:
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    ns[attr] = wrapped[obj]
        for attr, per_n3 in GVL_FLOPS_PER_N3.items():
            setattr(np.linalg, attr, self._wrap(f"lapack.{attr}", getattr(np.linalg, attr),
                                                self._flops_hook(per_n3), nested_only=True))
        cheb = mods["chebyshev"]
        for attr in ("_t_recurrence", "_u_recurrence"):
            setattr(cheb, attr, self._steps_counter(getattr(cheb, attr)))
        warnings.warn = self._warn_counter(warnings.warn)

    def report(self) -> dict:
        point_calls = sum(c for key, c in self._oracle_keys.items() if key in self._points)
        return {
            "edges": [[parent, name, calls, total / 1e9, self_ns / 1e9]
                      for (parent, name), (calls, total, self_ns) in sorted(self.edges.items())],
            "counters": dict(self.counters),
            "points": len(self._points),
            "point_oracle_calls": point_calls,
        }
