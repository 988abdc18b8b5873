"""Boundary spans around semap's public entry points.

Nothing under ``src/`` is edited: :meth:`Tracer.install` rebinds every
name that a loaded ``semap`` module holds for a traced function, so calls
between modules (``classify`` calling ``entry_by_name``, ``operators``
calling ``build_map``) go through the wrapper too.  Each span records its
name, the operation it belongs to, start and end, and its parent span, so
a layer's self time is its duration minus that of its children.  Spans are
kept in memory and reduced to per-layer metrics once the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns

NONPLANAR_RESIDUAL = 1e-6


def _count_faces(tracer, args, result, exc):
    if result is not None:
        tracer.counts["faces_built"] += len(result.faces)


def _count_flags(tracer, args, result, exc):
    tracer.counts["certified_flags"] += 4 * args[0].edge_count


def _record_name(tracer, args, result, exc):
    tracer.catalog_names.add(args[0])


def _record_relaxation(tracer, args, result, exc):
    realization = result if result is not None else getattr(exc, "realization", None)
    if realization is None:
        return
    report = realization.report
    tracer.counts["relax_iterations"] += report.iterations
    tracer.counts["relax_nonconverged"] += not report.converged
    tracer.counts["relax_nonplanar"] += report.max_planarity_residual > NONPLANAR_RESIDUAL


# (module, function, span name, counter hook)
TRACED = (
    ("semap.map_core", "build_map", "map_core.build_map", _count_faces),
    ("semap.map_core", "parse_map_text", "map_core.parse_map_text", None),
    ("semap.map_core", "format_map_text", "map_core.format_map_text", None),
    ("semap.vtype", "semi_equivelar_type", "vtype.semi_equivelar_type", None),
    ("semap.flags", "flag_system", "flags.flag_system", None),
    ("semap.symmetry", "canonical_certificate", "symmetry.canonical_certificate", _count_flags),
    ("semap.symmetry", "automorphism_group", "symmetry.automorphism_group", None),
    ("semap.symmetry", "isomorphism_witness", "symmetry.isomorphism_witness", None),
    ("semap.symmetry", "double_cover", "symmetry.double_cover", None),
    ("semap.operators", "truncate", "operators.forward", None),
    ("semap.operators", "rectify", "operators.forward", None),
    ("semap.operators", "dual", "operators.forward", None),
    ("semap.operators", "insert_diagonal_matching", "operators.forward", None),
    ("semap.operators", "inverse_truncation", "operators.inverse", None),
    ("semap.operators", "inverse_rectification", "operators.inverse", None),
    ("semap.operators", "remove_deep_blue", "operators.inverse", None),
    ("semap.catalog", "entry_by_name", "catalog.entry_by_name", _record_name),
    ("semap.classify", "identify", "classify.identify", None),
    ("semap.geometry", "realize_on_sphere", "geometry.realize_on_sphere", _record_relaxation),
)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, start_ns, end_ns, parent index]
        self.counts: Counter = Counter()
        self.catalog_names: set = set()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, perf_counter_ns(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[3] = perf_counter_ns()
                stack.pop()
                if hook is not None:
                    hook(self, args, None, exc)
                raise
            span[3] = perf_counter_ns()
            stack.pop()
            if hook is not None:
                hook(self, args, result, None)
            return result

        return traced

    def install(self) -> None:
        # import every traced module before rebinding anything, so no module
        # picks up a wrapper at import time that uninstall would not restore
        modules = {name: importlib.import_module(name) for name, *_ in TRACED}
        for module_name, attr, name, hook in TRACED:
            original = getattr(modules[module_name], attr)
            wrapped = self._wrap(name, original, hook)
            for loaded_name, module in list(sys.modules.items()):
                if loaded_name != "semap" and not loaded_name.startswith("semap."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def layer_metrics(self, ops: int, passes: int, op_seconds: float) -> dict[str, float]:
        """Per-operation counts and self times, plus the derived ratios.

        Every pass holds the same inputs, so the distinct catalog names of
        one pass are those of the run, and ``distinct_ratio`` is taken per
        pass: one means no entry was built twice within a pass.
        """
        child_ns = [0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        root_ns = 0
        for i, (name, _, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - child_ns[i]) / 1e6
            if parent < 0:
                root_ns += end - start
        counts = self.counts
        per_op = 1.0 / max(ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {}
        for name in {span for _, _, span, _ in TRACED}:
            metrics[name + ".calls"] = calls[name] * per_op
            metrics[name + ".self_ms"] = self_ms[name] * per_op
        realize_calls = calls["geometry.realize_on_sphere"]
        metrics.update({
            "map_core.faces_built": counts["faces_built"] * per_op,
            "symmetry.certified_flags": counts["certified_flags"] * per_op,
            "catalog.distinct_ratio": ratio(
                len(self.catalog_names) * passes, calls["catalog.entry_by_name"]
            ),
            "classify.inverse_steps_per_identify": ratio(
                calls["operators.inverse"], calls["classify.identify"]
            ),
            "geometry.iterations": ratio(counts["relax_iterations"], realize_calls),
            "geometry.us_per_iteration": ratio(
                self_ms["geometry.realize_on_sphere"] * 1e3, counts["relax_iterations"]
            ),
            "geometry.nonconverged": ratio(counts["relax_nonconverged"], realize_calls),
            "geometry.nonplanar": ratio(counts["relax_nonplanar"], realize_calls),
            "trace.coverage": ratio(root_ns / 1e9, op_seconds),
        })
        return metrics
