import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from semap.catalog import (
    DERIVATIONS,
    antiprism,
    archimedean,
    entry_by_name,
    platonic,
    prism,
    pseudo_rhombicuboctahedron,
    sphere_catalog,
)
from semap.classify import (
    exhaustive_generate,
    identify,
    square_type_counts,
)
from semap.errors import (
    ClassificationViolation,
    CountMismatch,
    MapBuildError,
    NotSemiEquivelar,
    TooLarge,
    WrongShape,
    WrongSphere,
)
from semap.map_core import build_map, face_key, format_map_text
from semap.symmetry import are_isomorphic, automorphism_group
from semap.vtype import normalize, semi_equivelar_type


def _relabel(m, rng):
    perm = list(range(m.vertex_count))
    rng.shuffle(perm)
    return build_map([tuple(perm[v] for v in f) for f in m.faces])


def test_square_type_counts():
    small = archimedean("small-rhombicuboctahedron").map
    pseudo = pseudo_rhombicuboctahedron().map
    assert square_type_counts(small) == square_type_counts(_relabel(small, random.Random(1)))
    cs = square_type_counts(small)
    cp = square_type_counts(pseudo)
    assert (cs.s2, cs.s3, cs.s4) == (12, 0, 6)
    assert (cp.s2, cp.s3, cp.s4) == (8, 8, 2)
    with pytest.raises(WrongShape):
        square_type_counts(platonic("cube").map)
    with pytest.raises(WrongShape):
        square_type_counts(archimedean("snub-cube").map)


def test_identify_named_examples():
    rng = random.Random(42)
    td = _relabel(archimedean("truncated-dodecahedron").map, rng)
    assert identify(td).name == "truncated-dodecahedron"
    p11 = _relabel(prism(11).map, rng)
    assert identify(p11).name == "prism-11"
    pseudo = _relabel(pseudo_rhombicuboctahedron().map, rng)
    verdict = identify(pseudo)
    assert verdict.name == "pseudo-rhombicuboctahedron"
    assert verdict.describe().startswith("name=pseudo-rhombicuboctahedron witness=")


def test_identify_whole_catalog_relabelled():
    rng = random.Random(2718)
    for entry in sphere_catalog(12):
        shuffled = _relabel(entry.map, rng)
        verdict = identify(shuffled)
        assert verdict.name == entry.name
        image = {face_key(tuple(verdict.witness[v] for v in f)) for f in shuffled.faces}
        assert image == {face_key(f) for f in entry.map.faces}


def test_identify_guards():
    from semap.catalog import rp2_catalog

    rp2 = rp2_catalog()[0].map
    with pytest.raises(WrongSphere):
        identify(rp2)
    bipyramid = build_map(
        [(0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 1, 4), (1, 2, 4), (2, 0, 4)]
    )
    with pytest.raises(NotSemiEquivelar):
        identify(bipyramid)


def test_identify_refuses_a_wrong_base(monkeypatch):
    # build the entry before the table is changed, so its memoized map
    # stays the true cuboctahedron; rectify(octahedron) has the
    # cuboctahedron's type too, so the row still claims [3,4,3,4]
    m = _relabel(archimedean("cuboctahedron").map, random.Random(3))
    monkeypatch.setitem(DERIVATIONS, "cuboctahedron", ("rectify", "octahedron"))
    with pytest.raises(ClassificationViolation, match="led to cube, not octahedron"):
        identify(m)


def test_cold_identify_builds_only_the_named_chain():
    # a fresh process reads the derivation types from the type law, so
    # naming a snub dodecahedron builds it, the small
    # rhombicosidodecahedron and the icosidodecahedron, and no other
    # Archimedean entry
    text = format_map_text(_relabel(archimedean("snub-dodecahedron").map, random.Random(5)))
    script = (
        "import sys\n"
        "from semap import catalog, classify, map_core\n"
        "m = map_core.parse_map_text(sys.stdin.read())\n"
        "print(classify.identify(m).name, catalog.archimedean.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=text,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["snub-dodecahedron", "3"]


def test_identify_family_members_beyond_catalog_bound():
    rng = random.Random(31)
    assert identify(_relabel(prism(23).map, rng)).name == "prism-23"
    assert identify(_relabel(antiprism(19).map, rng)).name == "antiprism-19"


def test_direct_certificate_match_agrees():
    # brute force: the one catalog entry isomorphic to the map
    def direct_match(m):
        return [e.name for e in sphere_catalog(12) if are_isomorphic(m, e.map)]

    rng = random.Random(9)
    for name in ("snub-dodecahedron", "antiprism-9", "cube"):
        m = _relabel(entry_by_name(name).map, rng)
        assert direct_match(m) == [identify(m).name]
    assert direct_match(build_map([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])) == ["tetrahedron"]


# --------------------------------------------------------------------------
# exhaustive generation


def test_generation_guards():
    with pytest.raises(TooLarge):
        exhaustive_generate(20, normalize((5, 5, 5)))
    with pytest.raises(CountMismatch):
        exhaustive_generate(10, normalize((3, 3, 3)))


@pytest.mark.parametrize(
    "count,sizes,name",
    [
        (4, (3, 3, 3), "tetrahedron"),
        (6, (3, 3, 3, 3), "octahedron"),
        (8, (4, 4, 4), "cube"),
        (12, (3, 3, 3, 3, 3), "icosahedron"),
    ],
)
def test_regular_uniqueness(count, sizes, name):
    found = exhaustive_generate(count, normalize(sizes))
    assert len(found) == 1
    assert are_isomorphic(found[0], platonic(name).map)


@pytest.mark.parametrize(
    "count,sizes,name",
    [
        (6, (3, 4, 4), "prism-3"),
        (10, (4, 4, 5), "prism-5"),
        (12, (4, 4, 6), "prism-6"),
        (8, (3, 3, 3, 4), "antiprism-4"),
        (10, (3, 3, 3, 5), "antiprism-5"),
        (12, (3, 3, 3, 6), "antiprism-6"),
        (12, (3, 4, 3, 4), "cuboctahedron"),
        (12, (3, 6, 6), "truncated-tetrahedron"),
    ],
)
def test_family_uniqueness_within_generator_reach(count, sizes, name):
    found = exhaustive_generate(count, normalize(sizes))
    assert len(found) == 1
    assert are_isomorphic(found[0], entry_by_name(name).map)


# -- independent labelled enumeration (no fan logic, no canonical pruning) --


def _all_polygons(n, size):
    """Every polygon on vertices 0..n-1 as a canonical tuple."""
    out = set()
    for combo in itertools.combinations(range(n), size):
        for perm in itertools.permutations(combo[1:]):
            out.add(face_key((combo[0],) + perm))
    return sorted(out)


def _labelled_count(count, t):
    """Count labelled face sets of type ``t`` by plain lexicographic search."""
    from bisect import bisect_right

    d = t.degree
    mult = t.size_multiset()
    total_faces = sum(count * m // s for s, m in mult.items())
    candidates = []
    for s in sorted(mult):
        candidates.extend(_all_polygons(count, s))
    cands_at = [[fi for fi, f in enumerate(candidates) if v in f] for v in range(count)]
    cand_edges = []
    for f in candidates:
        k = len(f)
        cand_edges.append(
            tuple(
                ((f[i], f[(i + 1) % k]) if f[i] < f[(i + 1) % k] else (f[(i + 1) % k], f[i]))
                for i in range(k)
            )
        )

    faces_at = [0] * count
    sizes_at = [dict() for _ in range(count)]
    edge_uses: dict[tuple[int, int], int] = {}
    open_edges = [0] * count   # edges at v lying in exactly one chosen face
    distinct_edges = [0] * count
    chosen: list[int] = []
    found = 0

    def try_push(fi):
        f = candidates[fi]
        k = len(f)
        for v in f:
            if faces_at[v] >= d or sizes_at[v].get(k, 0) >= mult.get(k, 0):
                return False
        for e in cand_edges[fi]:
            if edge_uses.get(e, 0) >= 2:
                return False
        for v in f:
            faces_at[v] += 1
            sizes_at[v][k] = sizes_at[v].get(k, 0) + 1
        for a, b in cand_edges[fi]:
            use = edge_uses.get((a, b), 0) + 1
            edge_uses[(a, b)] = use
            if use == 1:
                open_edges[a] += 1
                open_edges[b] += 1
                distinct_edges[a] += 1
                distinct_edges[b] += 1
            else:
                open_edges[a] -= 1
                open_edges[b] -= 1
        chosen.append(fi)
        # every open edge at v still needs a second face through v,
        # and v ends with exactly d edges
        for v in f:
            if (
                distinct_edges[v] > d
                or open_edges[v] > 2 * (d - faces_at[v])
                or (faces_at[v] == d and open_edges[v] != 0)
            ):
                pop()
                return False
        return True

    def pop():
        fi = chosen.pop()
        f = candidates[fi]
        k = len(f)
        for v in f:
            faces_at[v] -= 1
            sizes_at[v][k] -= 1
        for a, b in cand_edges[fi]:
            use = edge_uses[(a, b)] - 1
            edge_uses[(a, b)] = use
            if use == 0:
                open_edges[a] -= 1
                open_edges[b] -= 1
                distinct_edges[a] -= 1
                distinct_edges[b] -= 1
            else:
                open_edges[a] += 1
                open_edges[b] += 1

    def rec(active, last):
        nonlocal found
        while active < count and faces_at[active] == d:
            active += 1
            last = -1
        if active == count:
            if len(chosen) == total_faces:
                try:
                    m = build_map([candidates[fi] for fi in chosen])
                except MapBuildError:
                    return
                if semi_equivelar_type(m) == t:
                    found += 1
            return
        pool = cands_at[active]
        for j in range(bisect_right(pool, last), len(pool)):
            fi = pool[j]
            if try_push(fi):
                rec(active, fi)
                pop()

    rec(0, -1)
    return found


@pytest.mark.parametrize(
    "count,sizes",
    [
        (4, (3, 3, 3)),
        (6, (3, 3, 3, 3)),
        (6, (3, 4, 4)),
        (8, (4, 4, 4)),
        (8, (3, 3, 3, 4)),
    ],
)
def test_no_omissions_against_labelled_recount(count, sizes):
    t = normalize(sizes)
    generated = exhaustive_generate(count, t)
    # orbit sizes: distinct relabellings of each representative
    orbit_total = 0
    for m in generated:
        orbit_total += math.factorial(count) // automorphism_group(m).order
    assert orbit_total == _labelled_count(count, t)
