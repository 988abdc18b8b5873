import math
import random

import numpy as np
import pytest

from semap import geometry
from semap.catalog import ARCHIMEDEAN_NAMES, PLATONIC_NAMES, antiprism, entry_by_name, platonic, prism
from semap.classify import identify
from semap.errors import CountMismatch, InvariantViolated, MapFormatError, NTooSmall, TooLarge
from semap.geometry import (
    MAX_REALIZE_VERTICES,
    _face_residuals,
    _report,
    antiprism_coordinates,
    export,
    parse_off,
    prism_coordinates,
    realize_on_sphere,
)
from semap.map_core import build_map, square_neighbour_counts

NON_DRUM_NAMES = (*PLATONIC_NAMES, *ARCHIMEDEAN_NAMES, "pseudo-rhombicuboctahedron")


def _distance_multiset(points):
    n = len(points)
    return np.sort(
        [np.linalg.norm(points[i] - points[j]) for i in range(n) for j in range(i + 1, n)]
    )


@pytest.mark.parametrize("n", range(3, 25))
def test_prism_coordinates_exact(n):
    r = prism_coordinates(n)
    assert r.provenance == "exact-formula"
    assert r.report.unit_norm_deviation <= 1e-12
    assert r.report.edge_length_spread <= 1e-9
    assert r.report.max_planarity_residual <= 1e-9


@pytest.mark.parametrize("n", range(3, 25))
def test_antiprism_coordinates_exact(n):
    r = antiprism_coordinates(n)
    assert r.report.unit_norm_deviation <= 1e-12
    assert r.report.edge_length_spread <= 1e-9
    assert r.report.max_regularity_residual <= 1e-9


def test_prism4_is_a_cube():
    r = prism_coordinates(4)
    d = _distance_multiset(r.coordinates)
    edge = d[0]
    # cube distance pattern: 12 edges, 12 face diagonals, 4 space diagonals
    assert np.allclose(d[:12], edge, atol=1e-12)
    assert np.allclose(d[12:24], edge * math.sqrt(2), atol=1e-12)
    assert np.allclose(d[24:], edge * math.sqrt(3), atol=1e-12)


def test_antiprism3_is_a_regular_octahedron():
    r = antiprism_coordinates(3)
    octa = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], float
    )
    assert np.max(np.abs(_distance_multiset(r.coordinates) - _distance_multiset(octa))) <= 1e-9


def test_guards():
    with pytest.raises(NTooSmall):
        prism_coordinates(2)
    with pytest.raises(NTooSmall):
        antiprism_coordinates(1)


def _relabel(m, rng):
    perm = list(range(m.vertex_count))
    rng.shuffle(perm)
    return build_map([tuple(perm[v] for v in f) for f in m.faces])


@pytest.mark.parametrize("name", NON_DRUM_NAMES)
def test_relabelled_entry_realizes_exactly(name):
    entry = entry_by_name(name).map
    shuffled = _relabel(entry, random.Random(name))
    r = realize_on_sphere(shuffled)
    assert r.provenance == "eigenvector"
    assert r.report.unit_norm_deviation <= 1e-12
    assert r.report.edge_length_spread <= 1e-12
    assert r.report.max_planarity_residual <= 1e-12
    assert r.report.max_regularity_residual <= 1e-12
    witness = list(identify(shuffled).witness)
    assert np.array_equal(r.coordinates, realize_on_sphere(entry).coordinates[witness])


def test_pseudo_moves_only_its_axis_square():
    small = entry_by_name("small-rhombicuboctahedron").map
    pseudo = entry_by_name("pseudo-rhombicuboctahedron").map
    moved = np.any(realize_on_sphere(small).coordinates != realize_on_sphere(pseudo).coordinates, axis=1)
    axis = min(i for i, c in square_neighbour_counts(small).items() if c == 4)
    assert set(np.flatnonzero(moved)) == set(small.faces[axis])


def test_no_three_dimensional_eigenspace_is_an_invariant_violation(monkeypatch):
    def flat_spectrum(a):
        return np.zeros(len(a)), np.eye(len(a))

    monkeypatch.setattr(np.linalg, "eigh", flat_spectrum)
    with pytest.raises(InvariantViolated, match="dimension 0, not 3"):
        realize_on_sphere(platonic("cube").map)


def test_realize_rejects_projective_plane():
    from semap.catalog import rp2_catalog

    with pytest.raises(CountMismatch):
        realize_on_sphere(rp2_catalog()[0].map)


def test_realize_refuses_maps_past_the_bound():
    m = prism(MAX_REALIZE_VERTICES // 2 + 1).map
    assert m.vertex_count == MAX_REALIZE_VERTICES + 2
    with pytest.raises(TooLarge, match=f"at most {MAX_REALIZE_VERTICES} vertices"):
        realize_on_sphere(m)


def test_off_round_trip():
    entry = prism(3)
    blob = export(prism_coordinates(3), entry.map, "off")
    lines = blob.decode().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "6 5 9"
    coords, faces = parse_off(blob)
    assert tuple(faces) == entry.map.faces
    assert np.array_equal(coords, prism_coordinates(3).coordinates)


@pytest.mark.parametrize(
    "data",
    [
        b"OFF\n",  # no count line
        b"OFF\n3 1 0\n0 0 0\n",  # vertex and face lines missing
        b"OFF\nx y z\n",
        b"OFF\n1 0 0\n1 2\n",  # two coordinates
        b"OFF\n1 1 0\n0 0 0\n3 0 x 1\n",
        b"OFF\n" + b"9" * 5000 + b" 1 0\n",
        "OFF\n0 0 0\n# caf\u00e9\n".encode("utf-8"),
    ],
)
def test_parse_off_rejects_malformed_data(data):
    with pytest.raises(MapFormatError):
        parse_off(data)


def test_off_counts_tetrahedron():
    m = platonic("tetrahedron").map
    blob = export(realize_on_sphere(m), m, "off")
    assert blob.decode().splitlines()[1] == "4 4 6"


def test_export_count_mismatch():
    with pytest.raises(CountMismatch):
        export(prism_coordinates(3), prism(4).map, "off")


def test_svg_structure():
    import xml.etree.ElementTree as ET

    entry = antiprism(4)
    blob = export(antiprism_coordinates(4), entry.map, "svg")
    root = ET.fromstring(blob)  # well-formed XML
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == entry.map.edge_count


def _face_check_loop(coords, face):
    """Planarity, regularity and convexity margin of one face, vertex by
    vertex: the reference for the checks that geometry runs on all faces of
    a size at once."""
    pts = coords[list(face)]
    centre = pts.mean(axis=0)
    centred = pts - centre
    normal = np.linalg.svd(centred, full_matrices=False)[2][-1]
    sides = np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1)
    radii = np.linalg.norm(centred, axis=1)
    regularity = max(np.max(np.abs(sides - sides.mean())), np.max(np.abs(radii - radii.mean())))
    others = [float(np.dot(p - centre, normal)) for v, p in enumerate(coords) if v not in face]
    return float(np.max(np.abs(centred @ normal))), float(regularity), max(min(others), -max(others))


@pytest.mark.parametrize("name", ["prism-5", "antiprism-7", "cube", "truncated-cube"])
def test_face_checks_match_the_loop_reference(name):
    m = entry_by_name(name).map
    exact = realize_on_sphere(m).coordinates
    rng = np.random.default_rng(len(name))
    verdicts = set()
    for scale in (0.0, 0.05, 1.0):
        for _ in range(10):
            coords = exact + scale * rng.normal(size=exact.shape)
            if scale == 0.0:
                coords[m.faces[0][1]] = coords[m.faces[0][0]]
            loop = [_face_check_loop(coords, f) for f in m.faces]
            planarity, regularity, margin = _face_residuals(m, coords)
            assert planarity == pytest.approx(max(p for p, _, _ in loop), rel=1e-9, abs=1e-12)
            assert regularity == pytest.approx(max(r for _, r, _ in loop), rel=1e-9, abs=1e-12)
            assert margin == pytest.approx(min(c for _, _, c in loop), rel=1e-9, abs=1e-12)
            verdicts.add(margin > 1e-12)
    assert verdicts == {True, False}


def test_star_faces_are_refused(monkeypatch):
    # prism-5 with both rings in pentagram order: every face is regular
    # and planar, but each square's plane cuts through the solid
    half_chord = math.sin(2 * math.pi / 5)
    a = 4 * math.pi * np.arange(5) / 5
    rings = [np.column_stack((np.cos(a), np.sin(a), np.full(5, z))) for z in (half_chord, -half_chord)]
    star = np.vstack(rings) / math.hypot(1.0, half_chord)
    m = prism(5).map
    r = _report(m, star)
    for residual in (
        r.unit_norm_deviation, r.edge_length_spread, r.max_planarity_residual, r.max_regularity_residual
    ):
        assert residual <= 1e-12
    assert r.convexity_margin < 0
    assert not r.faces_simple
    monkeypatch.setattr(geometry, "_entry_coordinates", lambda name: (star, "exact-formula", 0))
    with pytest.raises(InvariantViolated, match="convexity margin -"):
        realize_on_sphere(m)
