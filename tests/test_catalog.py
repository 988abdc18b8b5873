import itertools

import pytest

from semap.catalog import (
    antiprism,
    archimedean,
    entry_by_name,
    platonic,
    prism,
    pseudo_rhombicuboctahedron,
    rp2_catalog,
    sphere_catalog,
    write_catalog,
)
from semap.errors import MaxGonTooSmall, NTooSmall, UnknownName
from semap.map_core import parse_map_text
from semap.symmetry import are_isomorphic, canonical_certificate
from semap.vtype import normalize, predicted_vertex_count, semi_equivelar_type

EXPECTED = {
    "tetrahedron": (4, (3, 3, 3)),
    "cube": (8, (4, 4, 4)),
    "octahedron": (6, (3, 3, 3, 3)),
    "dodecahedron": (20, (5, 5, 5)),
    "icosahedron": (12, (3, 3, 3, 3, 3)),
    "truncated-tetrahedron": (12, (3, 6, 6)),
    "truncated-cube": (24, (3, 8, 8)),
    "truncated-octahedron": (24, (4, 6, 6)),
    "truncated-dodecahedron": (60, (3, 10, 10)),
    "truncated-icosahedron": (60, (5, 6, 6)),
    "cuboctahedron": (12, (3, 4, 3, 4)),
    "icosidodecahedron": (30, (3, 5, 3, 5)),
    "small-rhombicuboctahedron": (24, (3, 4, 4, 4)),
    "great-rhombicuboctahedron": (48, (4, 6, 8)),
    "small-rhombicosidodecahedron": (60, (3, 4, 5, 4)),
    "great-rhombicosidodecahedron": (120, (4, 6, 10)),
    "snub-cube": (24, (3, 3, 3, 3, 4)),
    "snub-dodecahedron": (60, (3, 3, 3, 3, 5)),
    "pseudo-rhombicuboctahedron": (24, (3, 4, 4, 4)),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_solids_match_table(name):
    entry = entry_by_name(name)
    count, sizes = EXPECTED[name]
    assert entry.vertex_count == count
    assert entry.vertex_type == normalize(sizes)
    assert predicted_vertex_count(entry.vertex_type) == count


def test_face_cycles_of_family_members():
    p5 = prism(5).map
    for v in range(10):
        assert sorted(len(p5.faces[f]) for f in p5.rotations[v]) == [4, 4, 5]
    ico = platonic("icosahedron").map
    assert all(len(ico.rotations[v]) == 5 for v in range(12))


def test_prism_family():
    p5 = prism(5)
    assert p5.vertex_count == 10 and p5.vertex_type == normalize((4, 4, 5))
    assert are_isomorphic(prism(4).map, platonic("cube").map)
    p3 = prism(3)
    assert p3.vertex_count == 6 and p3.vertex_type == normalize((3, 4, 4))
    with pytest.raises(NTooSmall):
        prism(2)


def test_antiprism_family():
    a4 = antiprism(4)
    assert a4.vertex_count == 8 and a4.vertex_type == normalize((3, 3, 3, 4))
    assert are_isomorphic(antiprism(3).map, platonic("octahedron").map)
    a8 = antiprism(8)
    assert a8.vertex_count == 16 and a8.vertex_type == normalize((3, 3, 3, 8))
    with pytest.raises(NTooSmall):
        antiprism(2)


def test_unknown_names():
    with pytest.raises(UnknownName):
        entry_by_name("rhombic-dodecahedron")
    with pytest.raises(UnknownName):
        entry_by_name("prism-x")


def test_finite_constructors_are_memoized():
    assert entry_by_name("snub-cube") is archimedean("snub-cube")
    assert platonic("cube") is platonic("cube")
    assert pseudo_rhombicuboctahedron() is pseudo_rhombicuboctahedron()
    assert prism(5) is not prism(5)  # the family key is unbounded
    with pytest.raises(UnknownName):  # errors are not cached as results
        platonic("rhombic-dodecahedron")


def test_pseudo_rco():
    from semap.classify import square_type_counts

    entry = pseudo_rhombicuboctahedron()
    counts = square_type_counts(entry.map)
    assert (counts.s2, counts.s3, counts.s4) == (8, 8, 2)
    assert not are_isomorphic(entry.map, archimedean("small-rhombicuboctahedron").map)


def test_sphere_catalog_shape():
    entries = sphere_catalog(12)
    assert len(entries) == 37
    names = [e.name for e in entries]
    assert len(set(names)) == 37
    assert "prism-4" not in names and "antiprism-3" not in names
    pairs = [(e.vertex_count, e.vertex_type) for e in entries]
    assert pairs.count((24, normalize((3, 4, 4, 4)))) == 2
    assert len(set(pairs)) == 36  # every other (count, type) pair is unique
    # pairwise distinct up to isomorphism
    certs = [canonical_certificate(e.map).code for e in entries]
    assert len(set(certs)) == 37
    with pytest.raises(MaxGonTooSmall):
        sphere_catalog(11)


def test_sphere_catalog_deterministic():
    a = sphere_catalog(12)
    b = sphere_catalog(12)
    assert [e.map.faces for e in a] == [e.map.faces for e in b]
    assert [e.recipe for e in a] == [e.recipe for e in b]


def test_cuboctahedron_golden_text():
    # frozen output: any construction-order drift shows up here
    from semap.map_core import format_map_text

    assert format_map_text(archimedean("cuboctahedron").map) == (
        "map 12\n"
        "f 0 3 5 1\nf 8 10 11 9\nf 0 4 8 2\nf 3 6 10 4\nf 5 7 11 6\nf 1 2 9 7\n"
        "f 1 0 2\nf 0 3 4\nf 3 5 6\nf 5 1 7\nf 9 8 2\nf 8 10 4\nf 10 11 6\nf 11 9 7\n"
    )


def test_rp2_catalog_table():
    expected = {
        "rp2-icosahedron": (6, (3, 3, 3, 3, 3)),
        "rp2-dodecahedron": (10, (5, 5, 5)),
        "rp2-truncated-octahedron": (12, (4, 6, 6)),
        "rp2-icosidodecahedron": (15, (3, 5, 3, 5)),
        "rp2-small-rhombicuboctahedron": (12, (3, 4, 4, 4)),
        "rp2-great-rhombicuboctahedron": (24, (4, 6, 8)),
        "rp2-small-rhombicosidodecahedron": (30, (3, 4, 5, 4)),
        "rp2-great-rhombicosidodecahedron": (60, (4, 6, 10)),
        "rp2-truncated-dodecahedron": (30, (3, 10, 10)),
        "rp2-truncated-icosahedron": (30, (5, 6, 6)),
    }
    entries = rp2_catalog()
    assert {e.name for e in entries} == set(expected)
    for e in entries:
        count, sizes = expected[e.name]
        assert e.vertex_count == count
        assert e.vertex_type == normalize(sizes)
        assert e.map.euler_characteristic == 1
        assert semi_equivelar_type(e.map) == e.vertex_type


def test_write_catalog_round_trip(tmp_path):
    entries = [platonic("tetrahedron"), prism(5)]
    manifest = write_catalog(entries, str(tmp_path))
    with open(manifest, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines == [
        "tetrahedron\t[3^3]\t4\tface list",
        "prism-5\t[4^2,5]\t10\tprism(5)",
    ]
    for e in entries:
        with open(tmp_path / f"{e.name}.map", encoding="utf-8") as fh:
            assert parse_map_text(fh.read()) == e.map


FROZEN_MANIFEST = [
    "tetrahedron\t[3^3]\t4\tface list",
    "cube\t[4^3]\t8\tprism(4)",
    "octahedron\t[3^4]\t6\tface list",
    "dodecahedron\t[5^3]\t20\tdual(icosahedron)",
    "icosahedron\t[3^5]\t12\tface list",
    "truncated-tetrahedron\t[3,6^2]\t12\ttruncate(tetrahedron)",
    "truncated-cube\t[3,8^2]\t24\ttruncate(cube)",
    "truncated-octahedron\t[4,6^2]\t24\ttruncate(octahedron)",
    "truncated-dodecahedron\t[3,10^2]\t60\ttruncate(dodecahedron)",
    "truncated-icosahedron\t[5,6^2]\t60\ttruncate(icosahedron)",
    "cuboctahedron\t[3,4,3,4]\t12\trectify(cube)",
    "icosidodecahedron\t[3,5,3,5]\t30\trectify(dodecahedron)",
    "small-rhombicuboctahedron\t[3,4^3]\t24\trectify(cuboctahedron)",
    "great-rhombicuboctahedron\t[4,6,8]\t48\ttruncate(cuboctahedron)",
    "small-rhombicosidodecahedron\t[3,4,5,4]\t60\trectify(icosidodecahedron)",
    "great-rhombicosidodecahedron\t[4,6,10]\t120\ttruncate(icosidodecahedron)",
    "snub-cube\t[3^4,4]\t24\tinsert_diagonal_matching(small-rhombicuboctahedron)",
    "snub-dodecahedron\t[3^4,5]\t60\tinsert_diagonal_matching(small-rhombicosidodecahedron)",
    "pseudo-rhombicuboctahedron\t[3,4^3]\t24\tgyrate(small-rhombicuboctahedron)",
    "rp2-icosahedron\t[3^5]\t6\tquotient(icosahedron)",
    "rp2-dodecahedron\t[5^3]\t10\tquotient(dodecahedron)",
    "rp2-truncated-octahedron\t[4,6^2]\t12\tquotient(truncated-octahedron)",
    "rp2-icosidodecahedron\t[3,5,3,5]\t15\tquotient(icosidodecahedron)",
    "rp2-small-rhombicuboctahedron\t[3,4^3]\t12\tquotient(small-rhombicuboctahedron)",
    "rp2-great-rhombicuboctahedron\t[4,6,8]\t24\tquotient(great-rhombicuboctahedron)",
    "rp2-small-rhombicosidodecahedron\t[3,4,5,4]\t30\tquotient(small-rhombicosidodecahedron)",
    "rp2-great-rhombicosidodecahedron\t[4,6,10]\t60\tquotient(great-rhombicosidodecahedron)",
    "rp2-truncated-dodecahedron\t[3,10^2]\t30\tquotient(truncated-dodecahedron)",
    "rp2-truncated-icosahedron\t[5,6^2]\t30\tquotient(truncated-icosahedron)",
]


def test_manifest_recipes_are_frozen(tmp_path):
    """Names, types, counts and recipes of every non-drum entry, in
    catalog order: a change to the derivation table shows here."""
    entries = [
        e for e in sphere_catalog(12) if not e.name.startswith(("prism-", "antiprism-"))
    ] + rp2_catalog()
    with open(write_catalog(entries, str(tmp_path)), encoding="utf-8") as fh:
        assert fh.read().splitlines() == FROZEN_MANIFEST
