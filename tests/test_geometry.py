import math

import numpy as np
import pytest

from semap.catalog import antiprism, platonic, prism
from semap.errors import CountMismatch, MapFormatError, NTooSmall, TooLarge
from semap.geometry import (
    MAX_REALIZE_VERTICES,
    antiprism_coordinates,
    export,
    parse_off,
    prism_coordinates,
    realize_on_sphere,
)


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


def test_relaxed_tetrahedron_is_regular():
    m = platonic("tetrahedron").map
    r = realize_on_sphere(m)
    assert r.provenance == "relaxed"
    assert r.report.converged
    assert r.report.unit_norm_deviation <= 1e-9
    c = r.coordinates
    dots = [float(np.dot(c[i], c[j])) for i in range(4) for j in range(i + 1, 4)]
    assert max(abs(d + 1.0 / 3.0) for d in dots) <= 1e-6


def test_relaxed_prism6_near_exact():
    m = prism(6).map
    r = realize_on_sphere(m)
    assert r.report.converged
    assert r.report.edge_length_spread < 0.05
    assert r.report.unit_norm_deviation <= 1e-9


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
