"""Spans around the calls into cauchygap's layer modules, recorded from outside.

Public functions are replaced by timing wrappers on the module where their
callers look them up (``spectral.assemble_mode`` for ``numeric_gap`` and
``semigroup.assemble_mode`` for the heat flow, ``quadrature.make_random_test``
for the identity verifier, ...).  Nothing under ``src/`` changes.  A function
that no longer exists is simply not wrapped, so its metrics are absent.

Each span is ``[name, start, end, parent, op, points, extra]``; spans stay in
memory and are written out once the run ends.  A span's self time is its
duration minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).
"""
from __future__ import annotations

import dataclasses
import json
import math
import time

from cauchygap import functions, quadrature, semigroup, spectral

NAME, START, END, PARENT, OP, POINTS, EXTRA = range(7)

# Dense generalized eigh below this mode size, shift-invert eigsh above it
# (the switch in spectral.lowest_eigs).
DENSE_LIMIT = 2048

# (module, attribute, span name): every place a workload's calls cross a layer.
PATCH_POINTS = (
    (spectral, "numeric_gap", "spectral.numeric_gap"),
    (spectral, "assemble_mode", "spectral.assemble_mode"),
    (spectral, "lowest_eigs", "spectral.lowest_eigs"),
    (semigroup, "assemble_mode", "spectral.assemble_mode"),
    (semigroup, "lowest_eigs", "spectral.lowest_eigs"),
    (semigroup, "integrate_nd", "quadrature.integrate_nd"),
    (semigroup, "variance_representation_check",
     "semigroup.variance_representation_check"),
    (semigroup, "deficit", "semigroup.deficit"),
    (quadrature, "verify_all", "quadrature.verify_all"),
    (quadrature, "lowfact_sign_check", "quadrature.lowfact_sign_check"),
    (quadrature, "integrate_nd", "quadrature.integrate_nd"),
    (quadrature, "make_random_test", "functions.make_random_test"),
    (functions, "make_random_test", "functions.make_random_test"),
)

FIELD_METHODS = ("value", "gradient", "hessian")


def _points(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _extra_for(name, args, kwargs, out=None):
    """Work counts read from a call's inputs (before it runs) or its output."""
    if name == "spectral.assemble_mode" and out is not None:
        return {"cells": len(out.radii) - 1, "bytes": out.A.nbytes + out.B.nbytes}
    if name == "spectral.lowest_eigs" and out is None:
        problem = args[0] if args else kwargs["problem"]
        return {"nn": problem.A.shape[0]}
    if name == "semigroup.variance_representation_check" and out is None:
        given = dict(zip(("f", "rho", "T", "dt"), args), **kwargs)
        return {"cn_steps": max(1, math.ceil(given["T"] / given["dt"] - 1e-12))}
    return None


def span_cost_s(calls=20000) -> float:
    """Measured cost of one span over a bare call, from a no-op function."""
    traced = Tracer().wrap("probe", _noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        _noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _noop():
    return None


class Tracer:
    """Installs the wrappers, records spans, and turns them into metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.names: set[str] = set()

    # -- recording ------------------------------------------------------

    def wrap(self, name, fn, count_points=False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   _points(args[0]) if count_points else 0,
                   _extra_for(name, args, kwargs)]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if rec[EXTRA] is None:
                rec[EXTRA] = _extra_for(name, args, kwargs, out)
            if name == "functions.make_random_test":
                out = self._wrap_fields(out)
            return out

        self.names.add(name)
        return traced

    def _wrap_fields(self, f):
        swaps = {m: self.wrap("functions." + m, getattr(f, m), count_points=True)
                 for m in FIELD_METHODS}
        return dataclasses.replace(f, **swaps)

    def install(self):
        for module, attr, name in PATCH_POINTS:
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            self._restore.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "op": s[OP], "points": s[POINTS],
                                     "extra": s[EXTRA]}) + "\n")

    # -- metrics ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, wall_s: float, span_cost: float,
                      verify_trials: int) -> dict:
        """Per-layer metrics as {name: (value, unit)} for every wrapped name."""
        own = self.self_times()
        calls, self_s, points = {}, {}, {}
        cells = matrix_bytes = dense = sparse = cn_steps = 0
        for s, t in zip(self.spans, own):
            name = s[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + t
            points[name] = points.get(name, 0) + s[POINTS]
            extra = s[EXTRA] or {}
            cells += extra.get("cells", 0)
            matrix_bytes = max(matrix_bytes, extra.get("bytes", 0))
            cn_steps += extra.get("cn_steps", 0)
            if "nn" in extra:
                if extra["nn"] <= DENSE_LIMIT:
                    dense += 1
                else:
                    sparse += 1

        def has(name):
            return name in self.names

        out = {}
        if has("spectral.assemble_mode"):
            out["spectral.assemble_mode.calls"] = (calls.get("spectral.assemble_mode", 0), "count")
            out["spectral.assemble_mode.cells"] = (cells, "count")
            out["spectral.assemble_mode.self_s"] = (self_s.get("spectral.assemble_mode", 0.0), "s")
            out["spectral.matrix_bytes"] = (matrix_bytes, "B")
        if has("spectral.lowest_eigs"):
            out["spectral.lowest_eigs.calls"] = (calls.get("spectral.lowest_eigs", 0), "count")
            out["spectral.lowest_eigs.dense_calls"] = (dense, "count")
            out["spectral.lowest_eigs.sparse_calls"] = (sparse, "count")
            out["spectral.lowest_eigs.self_s"] = (self_s.get("spectral.lowest_eigs", 0.0), "s")
        if has("spectral.numeric_gap"):
            out["spectral.numeric_gap.self_s"] = (self_s.get("spectral.numeric_gap", 0.0), "s")
        if has("functions.make_random_test"):
            out["functions.make_random_test.calls"] = (calls.get("functions.make_random_test", 0), "count")
            out["functions.make_random_test.self_s"] = (self_s.get("functions.make_random_test", 0.0), "s")
            for m in FIELD_METHODS:
                key = "functions." + m
                out[key + ".calls"] = (calls.get(key, 0), "count")
                out[key + ".points"] = (points.get(key, 0), "count")
                out[key + ".self_s"] = (self_s.get(key, 0.0), "s")
            # hessian calls made inside verify_all, per random trial
            in_verify = sum(self.calls_by_op("functions.hessian",
                                             "quadrature.verify_all").values())
            out["functions.hessian.calls_per_trial"] = (
                in_verify / verify_trials if verify_trials else 0.0, "count")
        for name in ("quadrature.verify_all", "quadrature.integrate_nd",
                     "semigroup.deficit"):
            if has(name):
                out[name + ".calls"] = (calls.get(name, 0), "count")
                out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
        if has("quadrature.lowfact_sign_check"):
            out["quadrature.lowfact_sign_check.self_s"] = (
                self_s.get("quadrature.lowfact_sign_check", 0.0), "s")
        if has("semigroup.variance_representation_check"):
            vself = self_s.get("semigroup.variance_representation_check", 0.0)
            out["semigroup.variance_representation_check.self_s"] = (vself, "s")
            out["semigroup.cn_steps"] = (cn_steps, "count")
            out["semigroup.step_us"] = (1e6 * vself / cn_steps if cn_steps else 0.0, "us")
        roots = sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unattributed_s"] = (wall_s - roots, "s")
        out["trace.overhead_frac"] = (span_cost * len(self.spans) / wall_s, "ratio")
        return out

    def calls_by_op(self, name, under) -> dict:
        """{op: number of `name` spans nested inside an `under` span}."""
        counts = {}
        for s in self.spans:
            if s[NAME] != name:
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] != under:
                p = self.spans[p][PARENT]
            if p >= 0:
                counts[s[OP]] = counts.get(s[OP], 0) + 1
        return counts
