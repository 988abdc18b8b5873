import pytest

from semap.catalog import antiprism, archimedean, platonic, prism
from semap.errors import NotEligibleSquare, PropagationConflict, WrongShape
from semap.map_core import build_map
from semap.operators import (
    _eligible_squares,
    canonical_seed_diagonal,
    dual,
    edge_coloring,
    insert_diagonal_matching,
    inverse_rectification,
    inverse_truncation,
    minority_links,
    rectify,
    remove_deep_blue,
    truncate,
    type_after,
)
from semap.symmetry import are_isomorphic
from semap.vtype import normalize, semi_equivelar_type


def test_truncate_examples():
    t = truncate(platonic("tetrahedron").map)
    assert t.vertex_count == 12 and semi_equivelar_type(t) == normalize((3, 6, 6))
    t = truncate(platonic("icosahedron").map)
    assert t.vertex_count == 60 and semi_equivelar_type(t) == normalize((5, 6, 6))
    t = truncate(archimedean("cuboctahedron").map)
    assert t.vertex_count == 48 and semi_equivelar_type(t) == normalize((4, 6, 8))


def test_truncate_laws():
    for name in ("cube", "octahedron", "dodecahedron"):
        x = platonic(name).map
        t = truncate(x)
        assert t.vertex_count == 2 * x.edge_count
        assert all(t.degree(v) == 3 for v in range(t.vertex_count))
        assert t.euler_characteristic == x.euler_characteristic


def test_rectify_examples():
    r = rectify(platonic("cube").map)
    assert r.vertex_count == 12 and semi_equivelar_type(r) == normalize((3, 4, 3, 4))
    assert are_isomorphic(r, archimedean("cuboctahedron").map)
    r = rectify(platonic("dodecahedron").map)
    assert r.vertex_count == 30 and semi_equivelar_type(r) == normalize((3, 5, 3, 5))
    r = rectify(archimedean("icosidodecahedron").map)
    assert r.vertex_count == 60 and semi_equivelar_type(r) == normalize((3, 4, 5, 4))


def test_rectify_laws():
    for name in ("tetrahedron", "icosahedron"):
        x = platonic(name).map
        r = rectify(x)
        assert r.vertex_count == x.edge_count
        assert all(r.degree(v) == 4 for v in range(r.vertex_count))
        assert r.euler_characteristic == 2


def test_type_law_examples():
    assert type_after("truncate", normalize((3, 3, 3))) == normalize((3, 6, 6))
    assert type_after("rectify", normalize((4, 4, 4))) == normalize((3, 4, 3, 4))
    assert type_after("insert_diagonal_matching", normalize((3, 4, 5, 4))) == normalize((3, 3, 3, 3, 5))
    # the pairs (3,4) and (4,4) of [3,4^3] give [4,6,8] and [4,8^2]
    assert type_after("truncate", normalize((3, 4, 4, 4))) is None
    assert type_after("rectify", normalize((3, 4, 4, 4))) is None
    assert type_after("insert_diagonal_matching", normalize((4, 6, 8))) is None
    assert type_after("dual", normalize((3, 3, 3))) is None


def test_dual():
    assert are_isomorphic(dual(platonic("octahedron").map), platonic("cube").map)
    assert are_isomorphic(
        dual(platonic("icosahedron").map), platonic("dodecahedron").map
    )
    p5 = prism(5).map
    assert are_isomorphic(dual(dual(p5)), p5)


def test_inverse_truncation():
    for name in ("truncated-icosahedron", "truncated-cube"):
        x = archimedean(name).map
        seed = inverse_truncation(x)
        assert are_isomorphic(truncate(seed), x)
    assert are_isomorphic(
        inverse_truncation(archimedean("truncated-icosahedron").map),
        platonic("icosahedron").map,
    )
    assert are_isomorphic(
        inverse_truncation(archimedean("truncated-cube").map), platonic("cube").map
    )
    assert are_isomorphic(
        inverse_truncation(archimedean("great-rhombicosidodecahedron").map),
        archimedean("icosidodecahedron").map,
    )


def test_inverse_truncation_wrong_shape():
    with pytest.raises(WrongShape):
        inverse_truncation(platonic("cube").map)
    with pytest.raises(WrongShape):
        inverse_truncation(prism(6).map)  # [4^2,6]: the 6-gons do not partition


def test_inverse_rectification():
    assert are_isomorphic(
        inverse_rectification(archimedean("cuboctahedron").map), platonic("cube").map
    )
    assert are_isomorphic(
        inverse_rectification(archimedean("icosidodecahedron").map),
        platonic("dodecahedron").map,
    )
    assert are_isomorphic(
        inverse_rectification(archimedean("small-rhombicosidodecahedron").map),
        archimedean("icosidodecahedron").map,
    )


def test_inverse_rectification_wrong_shape():
    with pytest.raises(WrongShape):
        inverse_rectification(platonic("octahedron").map)  # [3^4]: no lone pair
    with pytest.raises(WrongShape):
        inverse_rectification(archimedean("small-rhombicuboctahedron").map)
    with pytest.raises(WrongShape):
        inverse_rectification(platonic("cube").map)


def test_minority_adjacency_graphs_are_simple():
    for name in (
        "truncated-tetrahedron",
        "truncated-cube",
        "truncated-octahedron",
        "truncated-dodecahedron",
        "truncated-icosahedron",
    ):
        x = archimedean(name).map
        t = semi_equivelar_type(x)
        minority = min(p for p, _ in t.runs)
        links = minority_links(x, minority)
        assert len(set(links)) == len(links), name  # no double links
        assert all(a != b for a, b in links), name  # no loops


def test_edge_coloring_snub_cube():
    sc = archimedean("snub-cube").map
    col = edge_coloring(sc)
    assert len(col.deep_blue) == 12
    assert len(col.red) == 24 and len(col.blue) == 36
    assert col.deep_blue <= col.blue
    per_vertex = [0] * sc.vertex_count
    for u, v in col.deep_blue:
        per_vertex[u] += 1
        per_vertex[v] += 1
    assert per_vertex == [1] * 24  # perfect matching


def test_edge_coloring_snub_dodecahedron():
    sd = archimedean("snub-dodecahedron").map
    assert len(edge_coloring(sd).deep_blue) == 30


def test_edge_coloring_wrong_shape():
    with pytest.raises(WrongShape):
        edge_coloring(platonic("cube").map)


def test_remove_deep_blue():
    sc = archimedean("snub-cube").map
    opened = remove_deep_blue(sc)
    assert opened.vertex_count == sc.vertex_count
    assert semi_equivelar_type(opened) == normalize((3, 4, 4, 4))
    assert are_isomorphic(opened, archimedean("small-rhombicuboctahedron").map)

    sd = archimedean("snub-dodecahedron").map
    opened = remove_deep_blue(sd)
    assert opened.vertex_count == 60
    assert semi_equivelar_type(opened) == normalize((3, 4, 5, 4))
    assert are_isomorphic(opened, archimedean("small-rhombicosidodecahedron").map)


def test_insert_matching_round_trip():
    for base_name, want_type in (
        ("small-rhombicuboctahedron", (3, 3, 3, 3, 4)),
        ("small-rhombicosidodecahedron", (3, 3, 3, 3, 5)),
    ):
        base = archimedean(base_name).map
        seed = canonical_seed_diagonal(base)
        closed = insert_diagonal_matching(base, seed)
        assert semi_equivelar_type(closed) == normalize(want_type)
        assert are_isomorphic(remove_deep_blue(closed), base)


def test_insert_matching_seed_guards():
    base = archimedean("small-rhombicuboctahedron").map
    with pytest.raises(NotEligibleSquare):
        insert_diagonal_matching(base, (0, 1))  # adjacent corners, no diagonal
    with pytest.raises(WrongShape):
        insert_diagonal_matching(platonic("cube").map, (0, 2))


@pytest.mark.parametrize(
    "base_name, snub_name",
    [
        ("small-rhombicuboctahedron", "snub-cube"),
        ("small-rhombicosidodecahedron", "snub-dodecahedron"),
    ],
)
def test_insert_matching_every_seed(base_name, snub_name):
    base = archimedean(base_name).map
    closed = set()
    for si in _eligible_squares(base):
        a, b, c, d = base.faces[si]
        for seed in ((a, c), (c, a), (b, d), (d, b)):
            closed.add(insert_diagonal_matching(base, seed))
        with pytest.raises(NotEligibleSquare):
            insert_diagonal_matching(base, (a, b))
    # one matching per chirality, each forced by any of its diagonals
    assert len(closed) == 2
    for m in closed:
        assert are_isomorphic(m, archimedean(snub_name).map)
        assert are_isomorphic(remove_deep_blue(m), base)


def test_insert_matching_rejects_gyrated_input():
    from semap.catalog import pseudo_rhombicuboctahedron

    pseudo = pseudo_rhombicuboctahedron().map
    seeds = [canonical_seed_diagonal(pseudo)]
    for f in pseudo.faces:
        if len(f) == 4:
            a, b, c, d = f
            seeds.extend(((a, c), (c, a), (b, d), (d, b), (a, b)))
    for seed in seeds:
        with pytest.raises(PropagationConflict):
            insert_diagonal_matching(pseudo, seed)


def test_operators_preserve_euler_characteristic():
    x = platonic("dodecahedron").map
    for image in (truncate(x), rectify(x), dual(x)):
        assert image.euler_characteristic == 2
    snub = archimedean("snub-cube").map
    opened = remove_deep_blue(snub)
    assert opened.euler_characteristic == 2
    closed = insert_diagonal_matching(opened, canonical_seed_diagonal(opened))
    assert closed.euler_characteristic == 2
