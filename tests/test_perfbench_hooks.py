"""The benchmark's tracer still finds what it traces.

``perfbench/spans.py`` wraps semap functions by rebinding module
attributes.  A renamed function, or a call that reaches a function
through a reference the tracer cannot rebind, would silently drop spans
from the per-layer metrics; these tests catch both.
"""
import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from semap.catalog import archimedean
from semap.classify import identify
from semap.map_core import build_map


def _load_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, function", [(m, f) for m, f, *_ in spans.TRACED])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function))


def test_tracer_records_each_inverse_step_of_identify():
    m = archimedean("great-rhombicosidodecahedron").map
    rng = random.Random(5)
    perm = list(range(m.vertex_count))
    rng.shuffle(perm)
    relabelled = build_map([tuple(perm[v] for v in f) for f in m.faces])

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert identify(relabelled).name == "great-rhombicosidodecahedron"
    finally:
        tracer.uninstall()
    # inverse truncation to the icosidodecahedron, then inverse
    # rectification to the dodecahedron
    assert [s[0] for s in tracer.spans].count("operators.inverse") == 2
