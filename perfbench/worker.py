"""Benchmark worker: one fresh process runs one workload.

Reads a JSON spec on stdin (written by ``run.py``), imports semap plus the
modules the workload calls while timing that import, then runs whole
passes over the workload's items in a closed loop: one client, no threads,
the next operation starts when the previous one returns.  Every operation
starts from map text relabelled here from the seed, and every answer is
checked here with the benchmark's own code, never with ``assert``.  A
wrong answer, or any exception the program raises, is a failed operation.
Before each operation, and once after the last, the worker times a fixed
piece of reference work, so ``run.py`` can scale every timing to one
reference speed of the machine.  Prints one JSON result line on stdout.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
from time import perf_counter

from spans import Tracer

# timed as set-up: semap plus exactly the modules each workload calls
MODULES = {
    "identify-relabelled": ("semap", "semap.map_core", "semap.symmetry", "semap.classify"),
    "drum-symmetry": ("semap", "semap.map_core", "semap.symmetry"),
    "ingest-large": ("semap", "semap.map_core", "semap.vtype", "semap.operators"),
    "realize-sphere": ("semap", "semap.map_core", "semap.geometry"),
}

REALIZE_TOLERANCE = 1e-9
AUTOMORPHISMS_CHECKED = 8
SWEEP_BUILD_SIZES = (50, 100, 200, 400, 800, 1600)
SWEEP_CERTIFICATE_SIZES = (16, 32, 64, 128)
REFERENCE_AROUND_IMPORT = 5  # reference timings before and after the import


def reference_work() -> float:
    """Wall time of a fixed pure-Python loop, about 2.5 ms on an idle core.

    The loop uses no semap code, so a change to the program never moves it;
    its time follows how fast the shared machine runs Python right now.
    """
    start = perf_counter()
    total = 0
    for i in range(25_000):
        total += i * i % 7
    return perf_counter() - start


# --------------------------------------------------------------------------
# inputs and the benchmark's own face arithmetic


def relabel(faces, n, rng) -> tuple[str, list[tuple[int, ...]]]:
    """Random vertex permutation and face order, as map text plus faces."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [tuple(perm[v] for v in f) for f in faces]
    rng.shuffle(out)
    text = f"map {n}\n" + "".join("f " + " ".join(map(str, f)) + "\n" for f in out)
    return text, out


def face_key(face) -> tuple[int, ...]:
    """Least rotation of the cycle over both directions."""
    k = len(face)
    best = None
    for seq in (tuple(face), tuple(reversed(face))):
        for r in range(k):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    return best


def key_set(faces) -> set:
    return {face_key(f) for f in faces}


def vertex_count(faces) -> int:
    return 1 + max(max(f) for f in faces)


def edge_set(faces) -> set:
    edges = set()
    for f in faces:
        for i in range(len(f)):
            u, v = f[i - 1], f[i]
            edges.add((u, v) if u < v else (v, u))
    return edges


def witness_error(sigma, faces, target_keys) -> str | None:
    n = vertex_count(faces)
    if sorted(sigma) != list(range(n)):
        return "witness is not a vertex permutation"
    if key_set([tuple(sigma[v] for v in f) for f in faces]) != target_keys:
        return "witness does not map the face set onto the target"
    return None


def parse_text(text) -> tuple[int, list[tuple[int, ...]]]:
    """Header vertex count and faces of map text, without semap."""
    header, *lines = text.splitlines()
    return int(header.split()[1]), [tuple(map(int, ln.split()[1:])) for ln in lines if ln]


# --------------------------------------------------------------------------
# workloads: op(item, inputs) times the program; check(item, inputs, out)
# returns None or what was wrong


def identify_op(item, inputs):
    from semap import classify, map_core, symmetry

    m = map_core.parse_map_text(inputs[0][0])
    cover = symmetry.double_cover(m)[0] if item["double_cover"] else None
    return cover, classify.identify(cover if cover is not None else m)


def identify_check(item, inputs, out):
    cover, verdict = out
    if verdict.name != item["expect"]:
        return f"named {verdict.name!r}, expected {item['expect']!r}"
    faces = inputs[0][1]
    if cover is not None:
        if cover.vertex_count != 2 * vertex_count(faces) or cover.face_count != 2 * len(faces):
            return "double cover does not have twice the vertices and faces"
        faces = cover.faces
    return witness_error(verdict.witness, faces, item["target_keys"])


def drum_op(item, inputs):
    from semap import map_core, symmetry

    a = map_core.parse_map_text(inputs[0][0])
    b = map_core.parse_map_text(inputs[1][0])
    iso = symmetry.are_isomorphic(a, b)
    group = symmetry.automorphism_group(a)
    witness = symmetry.isomorphism_witness(a, b) if iso else None
    return iso, group, witness


def drum_check(item, inputs, out):
    iso, group, witness = out
    if iso != item["same"]:
        return f"are_isomorphic said {iso}"
    if group.order != 4 * item["n"]:
        return f"automorphism group of order {group.order}, expected {4 * item['n']}"
    faces_a, faces_b = inputs[0][1], inputs[1][1]
    keys_a = key_set(faces_a)
    step = max(1, group.order // AUTOMORPHISMS_CHECKED)
    for sigma in group.permutations[::step]:
        if witness_error(sigma, faces_a, keys_a):
            return "a group element is not an automorphism"
    if iso:
        return witness_error(witness, faces_a, key_set(faces_b))
    return None


def ingest_op(item, inputs):
    from semap import map_core, operators, vtype

    m = map_core.parse_map_text(inputs[0][0])
    t = vtype.semi_equivelar_type(m)
    y = getattr(operators, item["op"])(m)
    return m, t, map_core.format_map_text(y)


def ingest_check(item, inputs, out):
    m, t, text = out
    faces = inputs[0][1]
    n, e, f = vertex_count(faces), sum(map(len, faces)) // 2, len(faces)
    if (m.vertex_count, m.edge_count, m.face_count) != (n, e, f):
        return "parsed f-vector differs from the input"
    degree = [0] * n
    around = [[] for _ in range(n)]
    for face in faces:
        for v in face:
            degree[v] += 1
            around[v].append(len(face))
    profiles = {tuple(sorted(sizes)) for sizes in around}
    if len(profiles) == 1:
        if type(t).__name__ != "VertexType" or tuple(sorted(t.sizes)) != profiles.pop():
            return f"semi_equivelar_type gave {t!r}"
    elif type(t).__name__ != "NotSemiEquivelar":
        return f"semi_equivelar_type gave {t!r} on a map with mixed vertex profiles"
    laws = {  # f-vector and face sizes of the result, from the input alone
        "truncate": ((2 * e, 3 * e, f + n), [2 * len(x) for x in faces] + degree),
        "rectify": ((e, 2 * e, f + n), [len(x) for x in faces] + degree),
        "dual": ((f, e, n), degree),
    }
    (n2, e2, f2), sizes = laws[item["op"]]
    declared, out_faces = parse_text(text)
    got_n = vertex_count(out_faces)
    got_e = sum(map(len, out_faces)) // 2
    if (declared, got_n, got_e, len(out_faces)) != (n2, n2, e2, f2):
        return f"{item['op']} output has f-vector {(got_n, got_e, len(out_faces))}"
    if got_n - got_e + len(out_faces) != 2 or len(edge_set(out_faces)) != got_e:
        return f"{item['op']} output is not a sphere"
    if sorted(map(len, out_faces)) != sorted(sizes):
        return f"{item['op']} output has the wrong face sizes"
    return None


def realize_op(item, inputs):
    from semap import geometry, map_core

    return geometry.realize_on_sphere(map_core.parse_map_text(inputs[0][0]))


def realize_check(item, inputs, out):
    faces = inputs[0][1]
    coords = out.coordinates.tolist()
    if len(coords) != vertex_count(faces):
        return "wrong number of coordinates"
    norm_dev = max(abs(math.sqrt(sum(c * c for c in p)) - 1.0) for p in coords)
    lengths = [math.dist(coords[u], coords[v]) for u, v in edge_set(faces)]
    if norm_dev > REALIZE_TOLERANCE or max(lengths) - min(lengths) > REALIZE_TOLERANCE:
        return f"norm deviation {norm_dev:.2e}, edge spread {max(lengths) - min(lengths):.2e}"
    if not out.report.faces_simple:
        return "faces are not simple"
    return None


WORKLOADS = {
    "identify-relabelled": (identify_op, identify_check),
    "drum-symmetry": (drum_op, drum_check),
    "ingest-large": (ingest_op, ingest_check),
    "realize-sphere": (realize_op, realize_check),
}


def _prepare(items) -> None:
    for item in items:
        item["maps"] = [item["faces"]] + ([item["other"]] if "other" in item else [])
        item["sizes"] = [vertex_count(faces) for faces in item["maps"]]
        if "target" in item:
            item["target_keys"] = key_set(item["target"])


def make_pass(items, rng) -> list[tuple[dict, list]]:
    """Every item once, in seeded order, each map freshly relabelled."""
    order = rng.sample(items, len(items))
    return [
        (item, [relabel(faces, n, rng) for faces, n in zip(item["maps"], item["sizes"])])
        for item in order
    ]


# --------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs operations one after another and keeps their outcomes."""

    def __init__(self, op, check, tracer=None):
        self.op, self.check, self.tracer = op, check, tracer
        self.latencies: list[float] = []
        self.reference: list[float] = []  # one before each operation
        self.failures: list[str] = []
        self.wrong = 0

    def run_pass(self, batch) -> float:
        total = 0.0
        for item, inputs in batch:
            if self.tracer is not None:
                self.tracer.op = len(self.latencies)
            self.reference.append(reference_work())
            start = perf_counter()
            try:
                out = self.op(item, inputs)
                error = None
            except Exception as exc:  # a raised error is a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            self.latencies.append(elapsed)
            total += elapsed
            if error is None:
                try:
                    problem = self.check(item, inputs, out)
                except Exception as exc:  # an answer of the wrong shape is wrong
                    problem = f"unreadable answer ({type(exc).__name__}: {exc})"
                if problem is not None:
                    self.wrong += 1
                    error = f"wrong answer: {problem}"
            if error is not None:
                self.failures.append(f"{item['label']}: {error}")
        return total


def _median_ms(timed_call) -> float:
    """Median of up to three timings, stopping once 0.3 s is spent."""
    times = []
    while len(times) < 3 and sum(times) < 0.3:
        times.append(timed_call())
    return statistics.median(times) * 1e3


def _build_seconds(faces) -> float:
    from semap import map_core

    start = perf_counter()
    map_core.build_map(faces)
    return perf_counter() - start


def _certificate_seconds(faces) -> float:
    from semap import map_core, symmetry

    m = map_core.build_map(faces)  # a fresh map, so its certificate cache is empty
    start = perf_counter()
    symmetry.canonical_certificate(m)
    return perf_counter() - start


def _drum_faces(kind, n) -> list[tuple[int, ...]]:
    faces = [tuple(range(n)), tuple(range(n, 2 * n))]
    for i in range(n):
        j = (i + 1) % n
        if kind == "prism":
            faces.append((i, j, n + j, n + i))
        else:
            faces.extend(((i, n + i, n + j), (i, n + j, j)))
    return faces


def _slope(series) -> float:
    """Least-squares log-log slope, one intercept per drum family."""
    xs, ys = [], []
    for kind in ("prism", "antiprism"):
        pts = [(math.log(n), math.log(ms)) for (k, n), ms in series.items() if k == kind]
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        xs.extend(x - mx for x, _ in pts)
        ys.extend(y - my for _, y in pts)
    return sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)


def scaling_sweep() -> dict[str, float]:
    """build_map and canonical_certificate over prism-N and antiprism-N.

    Maps of 65 536 flags or more (prism-5462 and up) end in OverflowError
    in the certificate; they stay out only because building one alone
    takes more than 5 s.
    """
    metrics = {}
    for layer, sizes, timer in (
        ("map_core.build_map", SWEEP_BUILD_SIZES, _build_seconds),
        ("symmetry.canonical_certificate", SWEEP_CERTIFICATE_SIZES, _certificate_seconds),
    ):
        series = {}
        for n in sizes:
            for kind in ("prism", "antiprism"):
                faces = _drum_faces(kind, n)
                series[kind, n] = _median_ms(lambda: timer(faces))
                metrics[f"{layer}.sweep_ms.{kind}-{n}"] = series[kind, n]
        metrics[f"{layer}.scaling_exponent"] = _slope(series)
    return metrics


def geometry_pass(items, rng) -> dict[str, float]:
    """geometry.* metrics from one traced realize-sphere pass.

    The realize-sphere workload is too sensitive to the machine's speed to
    gate on, so every traced run measures the geometry layer this way;
    each operation is one realize_on_sphere call, so per-op is per-call.
    """
    _prepare(items)
    tracer = Tracer()
    loop = Loop(realize_op, realize_check, tracer)
    tracer.install()
    seconds = loop.run_pass(make_pass(items, rng))
    tracer.uninstall()
    layers = tracer.layer_metrics(len(loop.latencies), 1, seconds)
    return {name: value for name, value in layers.items() if name.startswith("geometry.")}


def overhead_ratio(op, check, batch, tracer) -> float:
    """Traced over untraced time, minus one.

    Each operation runs twice back to back, once traced, so drift in
    machine speed cancels; which run goes first alternates.
    """
    plain, traced = Loop(op, check), Loop(op, check, tracer)

    def run_traced(one):
        tracer.install()
        traced.run_pass([one])
        tracer.uninstall()

    for i, one in enumerate(batch):
        if i % 2:
            run_traced(one)
            plain.run_pass([one])
        else:
            plain.run_pass([one])
            run_traced(one)
    return sum(traced.latencies) / sum(plain.latencies) - 1.0


def run(spec) -> dict:
    """Run the spec's workload; see the module docstring."""
    reference_work()  # warm the loop before it is timed
    reference = [reference_work() for _ in range(REFERENCE_AROUND_IMPORT)]
    start = perf_counter()
    for name in MODULES[spec["workload"]]:
        importlib.import_module(name)
    setup_s = perf_counter() - start
    reference += [reference_work() for _ in range(REFERENCE_AROUND_IMPORT)]
    setup_reference_s = statistics.median(reference)
    semap_file = os.path.realpath(sys.modules["semap"].__file__)
    if not semap_file.startswith(os.path.realpath(spec["src"]) + os.sep):
        raise RuntimeError(f"semap imported from {semap_file}, not from {spec['src']}")
    if spec.get("import_only"):
        return {"setup_s": setup_s, "setup_reference_s": setup_reference_s}

    op, check = WORKLOADS[spec["workload"]]
    items = spec["items"]
    _prepare(items)
    rng = random.Random(spec["seed"])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    loop = Loop(op, check, tracer)
    pass_seconds = []
    # whole passes, so every run holds the same mix of inputs; at least
    # min_ops operations, so the 90th percentile has ten samples beyond it
    while (
        not pass_seconds
        or sum(pass_seconds) < spec["seconds"]
        or len(loop.latencies) < spec["min_ops"]
    ):
        batch = make_pass(items, rng)
        pass_seconds.append(loop.run_pass(batch))
    loop.reference.append(reference_work())  # so the last operation is bracketed
    result = {
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "latencies": loop.latencies,
        "reference": loop.reference,
        "failures": loop.failures,
        "wrong": loop.wrong,
        "pass_seconds": pass_seconds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(len(loop.latencies), len(pass_seconds), sum(pass_seconds))
        layers["trace.overhead_ratio"] = overhead_ratio(op, check, batch, Tracer())
        layers.update(scaling_sweep())
        layers.update(geometry_pass(spec["geometry_items"], rng))
        result["layers"] = layers
    return result


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
    sys.stdout.write("\n")
