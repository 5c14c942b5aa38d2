"""Span tracing of the conicpd layers, installed from outside the library.

Every public function defined in a ``conicpd`` module is replaced by a
wrapper under each name that refers to it, in every ``conicpd`` module, so
the wrapper sits where the caller looks the name up (``conicpd.laplace.
gamma_batch``, ``conicpd.mellin.log_gamma_complex``, ``conicpd.cli.
mc_laplace``, ...).  Kernels handed to ``pooled_mean`` are wrapped on the
way in, so each estimator chunk is a span of its own.

Spans are kept in memory as ``(id, parent, label, start_ns, end_ns, attrs,
post_ns)`` tuples, one list per traced pass; self times and counts are
computed from them afterwards, and ``write`` dumps them as gzipped JSON
lines.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

def _conicpd_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "conicpd" or name.startswith("conicpd."))]


def _label(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects nested spans around conicpd functions while installed."""

    def __init__(self):
        self.passes: list[list[tuple]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        modules = _conicpd_modules()
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__.startswith("conicpd.")):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value)
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrappers[id(value)])

    def uninstall(self):
        for mod, name, value in reversed(self._patches):
            setattr(mod, name, value)
        self._patches.clear()

    def begin_pass(self):
        self.passes.append([])

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn):
        label = _label(fn)
        if label == "estimation.pooled_mean":
            return self._wrap_pooled_mean(fn)
        attrs_of = _ATTRS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, start = self._enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                attrs = attrs_of(args, kwargs, result) if attrs_of else None
                self._exit(span_id, label, start, end, attrs)

        return wrapper

    def _wrap_pooled_mean(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = list(args)
            if "kernel" in kwargs:
                kwargs["kernel"] = self._wrap_kernel(kwargs["kernel"])
            else:
                args[3] = self._wrap_kernel(args[3])
            span_id, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span_id, "estimation.pooled_mean", start,
                           time.perf_counter_ns(), None)

        return wrapper

    def _wrap_kernel(self, kernel):
        label = f"{kernel.__module__.rsplit('.', 1)[-1]}.kernel"

        def traced_kernel(gen, rows):
            span_id, start = self._enter()
            try:
                return kernel(gen, rows)
            finally:
                self._exit(span_id, label, start, time.perf_counter_ns(), None)

        return traced_kernel

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id, time.perf_counter_ns()

    def _exit(self, span_id, label, start, end, attrs):
        # Time spent here after ``end`` (attribute counting, bookkeeping) is
        # tracer overhead; it is credited to the parent as child time so that
        # it lands in no layer's self time.
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.passes[-1].append((span_id, parent, label, start, end, attrs,
                                time.perf_counter_ns() - end))

    # -- output -------------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, spans in enumerate(self.passes):
                for span in spans:
                    fh.write(json.dumps([index, *span]) + "\n")

    def metrics(self, bytes_out: list[int]) -> dict[str, float]:
        """Per-layer metrics, as medians over the traced passes."""
        per_pass = [pass_metrics(spans, nbytes) for spans, nbytes in zip(self.passes, bytes_out)]
        names = set().union(*per_pass)
        return {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in sorted(names)}


def _stick_attrs(args, kwargs, result):
    if result is None:
        return None
    masses = result[0]
    rows, cols = masses.shape
    return {"kept": int(np.count_nonzero(masses)), "cells": rows * cols,
            "mb": rows * cols * masses.itemsize / 1e6}


def _command_attrs(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


_ATTRS = {"processes.stick_masses_batch": _stick_attrs, "cli.main": _command_attrs}


def pass_metrics(spans, bytes_out: int) -> dict[str, float]:
    """Metrics of one traced pass.

    For every span label ``<layer>.<name>``: ``.calls``, ``.s`` (inclusive
    time) and ``.self_s`` (span time minus child spans); per layer,
    ``<layer>.self_s``; per CLI subcommand, ``cli.<subcommand>.s``; and the
    counts taken at the span boundaries.
    """
    child_ns = defaultdict(int)
    for _id, parent, _label, start, end, _attrs, post in spans:
        child_ns[parent] += end - start + post
    out = defaultdict(float)
    kept = cells = 0
    for span_id, _parent, label, start, end, attrs, _post in spans:
        dur = (end - start) * 1e-9
        own = dur - child_ns[span_id] * 1e-9
        out[f"{label}.calls"] += 1
        out[f"{label}.s"] += dur
        out[f"{label}.self_s"] += own
        out[f"{label.split('.', 1)[0]}.self_s"] += own
        if label == "processes.stick_masses_batch" and attrs:
            kept += attrs["kept"]
            cells += attrs["cells"]
            out["processes.stick_matrix_mb"] = max(out["processes.stick_matrix_mb"], attrs["mb"])
        elif label == "cli.main":
            out[f"cli.{attrs['command']}.s"] += dur
    out["processes.stick_fill"] = kept / cells if cells else 0.0
    out["estimation.chunks"] = sum(v for k, v in out.items() if k.endswith(".kernel.calls"))
    out["cli.bytes_out"] = bytes_out
    return out
