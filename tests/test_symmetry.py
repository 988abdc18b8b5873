import itertools
import random

import pytest

from semap import symmetry
from semap.catalog import (
    antiprism,
    archimedean,
    entry_by_name,
    platonic,
    prism,
    pseudo_rhombicuboctahedron,
    rp2_catalog,
)
from semap.errors import (
    AlreadySpherical,
    InvalidInvolution,
    NonPolyhedralQuotient,
    SymmetryCheckFailed,
)
from semap.map_core import build_map, face_key
from semap.symmetry import (
    are_isomorphic,
    automorphism_group,
    canonical_certificate,
    cycle_notation,
    double_cover,
    free_involutions,
    is_vertex_transitive,
    isomorphism_witness,
    quotient,
)
from semap.vtype import semi_equivelar_type, vertex_type_at


def _relabel(m, perm):
    return build_map([tuple(perm[v] for v in f) for f in m.faces])


def test_certificate_label_invariance():
    cube = platonic("cube").map
    rng = random.Random(11)
    for _ in range(5):
        perm = list(range(8))
        rng.shuffle(perm)
        assert canonical_certificate(_relabel(cube, perm)) == canonical_certificate(cube)


def test_certificates_distinguish():
    assert canonical_certificate(platonic("cube").map) != canonical_certificate(
        platonic("octahedron").map
    )
    assert canonical_certificate(
        archimedean("small-rhombicuboctahedron").map
    ) != canonical_certificate(pseudo_rhombicuboctahedron().map)


def test_isomorphism_examples():
    assert are_isomorphic(antiprism(3).map, platonic("octahedron").map)
    assert are_isomorphic(prism(4).map, platonic("cube").map)
    assert not are_isomorphic(prism(6).map, antiprism(6).map)


def test_witness_is_a_face_bijection():
    dodeca = platonic("dodecahedron").map
    perm = list(range(20))
    random.Random(5).shuffle(perm)
    other = _relabel(dodeca, perm)
    sigma = isomorphism_witness(other, dodeca)
    assert sigma is not None
    assert {face_key(tuple(sigma[v] for v in f)) for f in other.faces} == {
        face_key(f) for f in dodeca.faces
    }


def test_witness_check_raises_instead_of_asserting(monkeypatch):
    cube = platonic("cube").map
    other = _relabel(cube, [3, 1, 4, 0, 5, 7, 2, 6])
    monkeypatch.setattr(symmetry, "_maps_faces", lambda a, b, sigma: False)
    with pytest.raises(SymmetryCheckFailed):
        isomorphism_witness(other, cube)


def test_group_check_raises_when_generators_are_missing(monkeypatch):
    real = symmetry.canonical_search
    monkeypatch.setattr(
        symmetry, "canonical_search", lambda *tables: real(*tables)._replace(generators=[])
    )
    fresh = build_map(prism(5).map.faces)  # no search cached on it yet
    with pytest.raises(SymmetryCheckFailed):
        automorphism_group(fresh)


def test_tetrahedron_group_is_full_symmetric():
    tetra = platonic("tetrahedron").map
    group = automorphism_group(tetra)
    assert group.order == 24
    # independent oracle: every vertex permutation preserves the face set
    face_set = {face_key(f) for f in tetra.faces}
    brute = [
        perm
        for perm in itertools.permutations(range(4))
        if {face_key(tuple(perm[v] for v in f)) for f in tetra.faces} == face_set
    ]
    assert sorted(group.permutations) == sorted(brute)


def test_cube_group_attains_flag_bound():
    cube = platonic("cube").map
    group = automorphism_group(cube)
    assert group.order == 48 == 4 * cube.edge_count


def test_flag_bound_and_regularity():
    for name in ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"):
        m = platonic(name).map
        group = automorphism_group(m)
        assert group.order == 4 * m.edge_count  # Platonic boundaries are regular
    for entry in (archimedean("snub-cube"), prism(7)):
        g = automorphism_group(entry.map)
        assert 4 * entry.map.edge_count % g.order == 0


def test_group_axioms_and_invariants():
    m = prism(5).map
    group = automorphism_group(m)
    perms = set(group.permutations)
    ident = tuple(range(m.vertex_count))
    assert ident in perms
    for p in group.permutations:
        inverse = [0] * len(p)
        for i, x in enumerate(p):
            inverse[x] = i
        assert tuple(inverse) in perms
    sample = random.Random(3).sample(sorted(perms), 8)
    for p, q in itertools.product(sample, repeat=2):
        composed = tuple(p[q[v]] for v in range(m.vertex_count))
        assert composed in perms
    # orbits partition and sizes divide the order
    seen = sorted(v for orbit in group.orbits for v in orbit)
    assert seen == list(range(m.vertex_count))
    assert all(group.order % len(o) == 0 for o in group.orbits)


def test_automorphisms_preserve_types():
    m = archimedean("truncated-cube").map
    group = automorphism_group(m)
    face_sizes = {face_key(f): len(f) for f in m.faces}
    for p in group.permutations[:10]:
        for v in range(m.vertex_count):
            assert vertex_type_at(m, p[v]) == vertex_type_at(m, v)
        for f in m.faces:
            assert face_sizes[face_key(tuple(p[v] for v in f))] == len(f)


def test_pseudo_orbits_split_8_16():
    group = automorphism_group(pseudo_rhombicuboctahedron().map)
    assert sorted(len(o) for o in group.orbits) == [8, 16]


def test_vertex_transitivity():
    assert is_vertex_transitive(archimedean("snub-cube").map)
    assert is_vertex_transitive(prism(9).map)
    assert not is_vertex_transitive(pseudo_rhombicuboctahedron().map)


def test_free_involutions_are_free_everywhere():
    for entry in (platonic("dodecahedron"), archimedean("truncated-octahedron")):
        m = entry.map
        involutions = free_involutions(m)
        assert involutions
        face_keys = {face_key(f) for f in m.faces}
        for sigma in involutions:
            assert all(sigma[sigma[v]] == v for v in range(m.vertex_count))
            assert all(sigma[v] != v for v in range(m.vertex_count))
            assert all({sigma[u], sigma[v]} != {u, v} for u, v in m.edges)
            for f in m.faces:
                image = face_key(tuple(sigma[v] for v in f))
                assert image in face_keys and image != face_key(f)


def test_free_involutions():
    assert free_involutions(pseudo_rhombicuboctahedron().map) == []
    tetra = platonic("tetrahedron").map
    # oracle: no order-2 automorphism of the tetrahedron is free on edges
    group = automorphism_group(tetra)
    for sigma in group.permutations:
        if all(sigma[sigma[v]] == v for v in range(4)) and sigma != tuple(range(4)):
            assert any({sigma[u], sigma[v]} == {u, v} for u, v in tetra.edges)
    assert free_involutions(tetra) == []
    assert free_involutions(platonic("dodecahedron").map)


def test_quotient_examples():
    ico = platonic("icosahedron").map
    sigma = free_involutions(ico)[0]
    q = quotient(ico, sigma)
    assert q.vertex_count == 6 and q.euler_characteristic == 1
    assert semi_equivelar_type(q) == vertex_type_at(ico, 0)

    small = archimedean("small-rhombicuboctahedron").map
    q = quotient(small, free_involutions(small)[0])
    assert q.vertex_count == 12 and q.euler_characteristic == 1

    tc = archimedean("truncated-cube").map
    with pytest.raises(NonPolyhedralQuotient):
        quotient(tc, free_involutions(tc)[0])
    # the cuboctahedron is centrally symmetric, yet its quotient also fails
    co = archimedean("cuboctahedron").map
    with pytest.raises(NonPolyhedralQuotient):
        quotient(co, free_involutions(co)[0])


def test_quotient_validates_involution():
    ico = platonic("icosahedron").map
    with pytest.raises(InvalidInvolution):
        quotient(ico, tuple(range(12)))


def _scrambled(m, rng):
    """A relabelled copy of m with faces reversed, rotated and reordered."""
    perm = list(range(m.vertex_count))
    rng.shuffle(perm)
    faces = []
    for f in m.faces:
        g = [perm[v] for v in f][:: rng.choice((1, -1))]
        r = rng.randrange(len(g))
        faces.append(tuple(g[r:] + g[:r]))
    rng.shuffle(faces)
    return build_map(faces)


def test_double_cover_round_trips():
    rng = random.Random(0xC0DE)
    for entry in rp2_catalog():
        sphere = entry_by_name(entry.name[len("rp2-"):]).map
        for y in [entry.map] + [_scrambled(entry.map, rng) for _ in range(3)]:
            cover, deck = double_cover(y)
            assert cover.euler_characteristic == 2
            assert cover.vertex_count == 2 * y.vertex_count
            assert deck == tuple(w ^ 1 for w in range(cover.vertex_count))
            assert are_isomorphic(cover, sphere)
            assert are_isomorphic(quotient(cover, deck), y)


def test_double_cover_guards():
    with pytest.raises(AlreadySpherical):
        double_cover(platonic("cube").map)


def test_isomorphism_is_equivalence_on_catalog_sample():
    maps = [
        platonic("cube").map,
        prism(4).map,
        platonic("octahedron").map,
        antiprism(3).map,
        prism(6).map,
    ]
    for a in maps:
        assert are_isomorphic(a, a)
    for a, b in itertools.product(maps, repeat=2):
        assert are_isomorphic(a, b) == are_isomorphic(b, a)
    for a, b, c in itertools.product(maps, repeat=3):
        if are_isomorphic(a, b) and are_isomorphic(b, c):
            assert are_isomorphic(a, c)


def test_cycle_notation():
    assert cycle_notation((0, 1, 2)) == "()"
    assert cycle_notation((1, 0, 2)) == "(0 1)"
    assert cycle_notation((1, 2, 0, 4, 3)) == "(0 1 2)(3 4)"
