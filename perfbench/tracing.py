"""Span recording for the traced benchmark run.

The wrappers live here, outside the package: ``install`` rebinds every
module-level name in ``edgeplasmon.*`` that refers to a traced function
(modules import names directly, e.g. ``dispersion.adaptive_gk``) and
wraps the traced methods on their classes.  ``uninstall`` puts the
originals back.  Each wrapper records a span (name, start, end, parent)
in memory; a span's self time is its duration minus the time covered by
its child spans.  Counts are read from arguments and return values only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# complex128 bytes per (evaluation point, table node) pair of CauchyTable.phi
PAIR_BYTES = 16


def _quad_counts(stats, args, kwargs, result):
    stats["n_eval"] += result.n_eval
    stats["n_segments"] += result.n_segments


def _solve_counts(stats, args, kwargs, result):
    stats["residual_evals"] += result.iterations
    stats["converged"] += int(result.converged)


def _table_nodes(table):
    return table.nodes.size + table.tail_z.size


def _build_counts(stats, args, kwargs, result):
    stats["nodes"] += _table_nodes(result)


def _phi_counts(stats, args, kwargs, result):
    table = args[0]
    points = np.size(args[1] if len(args) > 1 else kwargs["xi0"])
    stats["points"] += points
    stats["pair_ops"] += points * _table_nodes(table)


def _grid_counts(stats, args, kwargs, result):
    stats["nodes"] += result[0].size


def _profile_counts(stats, args, kwargs, result):
    stats["x_points"] += result.x.size


# (metric prefix, module, attribute path, counts read from the call)
TRACED = (
    ("quadrature.adaptive_gk", "quadrature", "adaptive_gk", _quad_counts),
    ("wiener_hopf.cauchy_transform", "wiener_hopf", "cauchy_transform", None),
    ("wiener_hopf.build_log_kernel", "wiener_hopf", "build_log_kernel", None),
    ("wiener_hopf.UnwrappedLogKernel.root_constants", "wiener_hopf",
     "UnwrappedLogKernel.root_constants", None),
    ("wiener_hopf.CauchyTable.build", "wiener_hopf", "CauchyTable.build", _build_counts),
    ("wiener_hopf.CauchyTable.phi", "wiener_hopf", "CauchyTable.phi", _phi_counts),
    ("dispersion.solve", "dispersion", "solve", _solve_counts),
    ("dispersion.residual", "dispersion", "residual", None),
    ("field.edge_limits", "field", "edge_limits", None),
    ("field.phi_profile", "field", "phi_profile", _profile_counts),
    ("spectrum.unwrapped_phase_grid", "spectrum", "unwrapped_phase_grid", _grid_counts),
    ("spectrum.bulk_zeros", "spectrum", "bulk_zeros", None),
    ("spectrum.conjecture_check", "spectrum", "conjecture_check", None),
    ("spectrum.winding_index", "spectrum", "winding_index", None),
    ("spectrum.dual_winding_index", "spectrum", "dual_winding_index", None),
    ("cli.main", "cli", "main", None),
    ("cli._dispatch", "cli", "_dispatch", None),
)

# Called once per batch of quadrature nodes: counted, not spanned, so the
# recorder stays small; its time is part of its caller's self time.
COUNTED = (("kernel.p_of_xi", "kernel", "p_of_xi"),)


class Tracer:
    """In-memory span recorder with per-function aggregates."""

    def __init__(self):
        self.spans: list = []
        self.stats: dict[str, Counter] = {}
        self._stack: list[list] = []   # [span index, time covered by children]
        self._undo: list = []

    def _stat(self, name: str) -> Counter:
        return self.stats.setdefault(name, Counter())

    def spanned(self, name: str, fn, counts=None):
        stats = self._stat(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats["errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - frame[1]
                spans[index] = (name, start, end, parent)
            if counts is not None:
                counts(stats, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        stats = self._stat(name)

        @functools.wraps(fn)
        def wrapper(problem, xi, *args, **kwargs):
            stats["calls"] += 1
            stats["points"] += np.size(xi)
            return fn(problem, xi, *args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == "edgeplasmon"]
        for name, mod, attr, counts in TRACED:
            self._patch(modules, f"edgeplasmon.{mod}", attr,
                        lambda fn, n=name, c=counts: self.spanned(n, fn, c))
        for name, mod, attr in COUNTED:
            self._patch(modules, f"edgeplasmon.{mod}", attr,
                        lambda fn, n=name: self.counted(n, fn))

    def _patch(self, modules, module_name: str, attr: str, make):
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, meth, new)
            self._undo.append((cls, meth, raw))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write_spans(self, fh, pass_index: int):
        for index, span in enumerate(self.spans):
            name, start, end, parent = span
            fh.write(json.dumps({"pass": pass_index, "id": index, "name": name,
                                 "start": start, "end": end, "parent": parent}) + "\n")
