import collections
import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semap.catalog import entry_by_name
from semap.errors import (
    Disconnected,
    EdgeDegreeNotTwo,
    InvalidFaceList,
    MapFormatError,
    NonPolyhedralIntersection,
    PinchedVertex,
    RepeatedVertexInFace,
    SemapError,
    UnsupportedSurface,
)
from semap.map_core import build_map, face_cycle, face_key, format_map_text, parse_map_text

TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
OCTA = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (1, 2, 5), (2, 3, 5), (3, 4, 5), (4, 1, 5)]
CUBE = [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)]
# 6-vertex neighbourly triangulation of the projective plane
# (derived once as the antipodal quotient of the icosahedron)
RP2_6 = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 4, 2), (2, 5, 3), (3, 1, 4), (4, 2, 5), (5, 3, 1),
]


def test_tetrahedron_builds():
    m = build_map(TETRA)
    assert (m.vertex_count, m.edge_count, m.face_count) == (4, 6, 4)
    assert m.euler_characteristic == 2
    assert m.orientable


def test_octahedron_builds():
    m = build_map(OCTA)
    assert (m.vertex_count, m.edge_count, m.face_count) == (6, 12, 8)
    assert m.euler_characteristic == 2


def test_cube_euler():
    assert build_map(CUBE).euler_characteristic == 2


def test_projective_plane_euler():
    m = build_map(RP2_6)
    assert m.euler_characteristic == 1
    assert not m.orientable
    # neighbourly: every vertex pair spans an edge
    assert all(
        tuple(sorted(p)) in set(m.edges) for p in itertools.combinations(range(6), 2)
    )


def test_repeated_vertex_rejected():
    with pytest.raises(RepeatedVertexInFace):
        build_map([(0, 1, 0), (0, 1, 2), (1, 2, 0)])


def test_duplicate_face_rejected():
    with pytest.raises(EdgeDegreeNotTwo):
        build_map([(0, 1, 2), (0, 1, 2)])
    with pytest.raises(EdgeDegreeNotTwo):
        build_map([(0, 1, 2), (2, 1, 0)])  # same polygon reversed


def _face_key_all_rotations(seq):
    """Least of all 2k rotations of both directions: the old face key."""
    best = None
    for cand_seq in (tuple(seq), tuple(reversed(seq))):
        for r in range(len(cand_seq)):
            cand = cand_seq[r:] + cand_seq[:r]
            if best is None or cand < best:
                best = cand
    return best


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        # vertex-type sequences: few distinct entries, many repeats
        st.lists(st.integers(3, 6), min_size=1, max_size=12),
        # faces: distinct vertex ids
        st.lists(st.integers(0, 10**6), min_size=1, max_size=30, unique=True),
    )
)
def test_face_key_matches_all_rotations_oracle(seq):
    assert face_key(seq) == _face_key_all_rotations(seq)


def test_edge_corners_run_along_their_edge():
    for faces in (TETRA, OCTA, CUBE, RP2_6):
        m = build_map(faces)
        assert tuple(m.edge_corners) == m.edges
        for (u, v), corners in m.edge_corners.items():
            assert len({i for i, _ in corners}) == 2
            for i, j in corners:
                f = m.faces[i]
                assert {f[j], f[(j + 1) % len(f)]} == {u, v}


def test_open_edge_rejected():
    with pytest.raises(EdgeDegreeNotTwo):
        build_map(TETRA[:3])


def _all_pairs_bad_pair(faces):
    """The rule checked on every pair of faces, as an oracle: some two
    faces share over two vertices, two edges, or two vertices but no edge."""
    edges = [{frozenset((f[i - 1], f[i])) for i in range(len(f))} for f in faces]
    for i, j in itertools.combinations(range(len(faces)), 2):
        shared = set(faces[i]) & set(faces[j])
        common = edges[i] & edges[j]
        if len(shared) > 2 or len(common) > 1 or (len(shared) == 2 and not common):
            return True
    return False


def _distances_from(m, source):
    adj = [[] for _ in range(m.vertex_count)]
    for a, b in m.edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {source: 0}
    queue = collections.deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _glued_face_lists(m):
    """Face lists of ``m`` with two vertices at distance >= 3 made one,
    relabelled densely, keeping those whose faces stay simple and whose
    edges each lie in exactly two faces."""
    for u in range(m.vertex_count):
        for v, d in _distances_from(m, u).items():
            if v < u or d < 3:
                continue
            faces = [tuple(u if x == v else x - (x > v) for x in f) for f in m.faces]
            if any(len(set(f)) != len(f) for f in faces):
                continue
            uses = collections.Counter(frozenset((f[i - 1], f[i])) for f in faces for i in range(len(f)))
            if set(uses.values()) == {2}:
                yield faces


def test_vertex_pair_check_matches_all_pairs_oracle():
    names = [
        "cube", "icosahedron", "dodecahedron", "cuboctahedron", "truncated-tetrahedron",
        "truncated-octahedron", "prism-6", "antiprism-5", "snub-cube",
    ]
    outcomes = collections.Counter()
    for name in names:
        for faces in _glued_face_lists(entry_by_name(name).map):
            bad = _all_pairs_bad_pair(faces)
            try:
                build_map(faces)
                rejected = False
            except NonPolyhedralIntersection:
                rejected = True
            except SemapError:
                rejected = False
            assert rejected == bad, (name, faces)
            outcomes[bad] += 1
    # both verdicts occur, so the comparison says something either way
    assert outcomes[True] > 50 and outcomes[False] > 50, outcomes


def test_nonpolyhedral_intersection_rejected():
    improper = [
        # the cube with two antipodal vertices made one: (0, 1, 2, 3) and
        # (1, 2, 0, 5) share three vertices
        [(0, 1, 2, 3), (4, 5, 0, 6), (0, 1, 5, 4), (1, 2, 0, 5), (2, 3, 6, 0), (3, 0, 4, 6)],
        # (0, 1, 2, 3) and (3, 2, 1, 4) share the edges 1-2 and 2-3
        [(0, 1, 2, 3), (3, 2, 1, 4), (0, 1, 4, 3)],
        # 0 and 2 are consecutive in (0, 2, 4) but opposite in (0, 1, 2, 3)
        [
            (0, 1, 2, 3), (0, 2, 4), (1, 2, 4), (0, 1, 4),
            (0, 3, 5), (2, 3, 5), (0, 2, 5),
        ],
    ]
    for faces in improper:
        assert _all_pairs_bad_pair(faces)
        with pytest.raises(NonPolyhedralIntersection):
            build_map(faces)


def test_pinched_vertex_rejected():
    # two tetrahedra joined at one vertex
    faces = list(TETRA) + [(0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]
    with pytest.raises(PinchedVertex):
        build_map(faces)


def test_disconnected_rejected():
    faces = list(TETRA) + [
        (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7),
    ]
    with pytest.raises((Disconnected, PinchedVertex)):
        build_map(faces)


def test_vertex_id_gap_rejected():
    with pytest.raises(InvalidFaceList):
        build_map([(0, 1, 3), (0, 1, 4), (0, 3, 4), (1, 3, 4)])


def test_sparse_vertex_id_rejected_in_bounded_memory():
    # Run in a child capped at 2 GiB of address space, so that an error
    # path which materialises every id up to 10**11 fails with
    # MemoryError there instead of exhausting the machine.
    script = textwrap.dedent(
        """
        import resource
        limit = 2 * 1024 ** 3
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        from semap.errors import InvalidFaceList
        from semap.map_core import build_map
        try:
            build_map([(0, 1, 99999999999)])
        except InvalidFaceList as exc:
            print("InvalidFaceList:", exc)
        """
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvalidFaceList: vertex ids not dense, missing [2, 3, 4, 5]")


def test_torus_rejected():
    # 7-vertex triangulation of the torus (Moebius-Kantor complex)
    faces = []
    for i in range(7):
        faces.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    faces = [tuple(f) for f in {f for f in faces}]
    with pytest.raises(UnsupportedSurface):
        build_map(sorted(faces))


def test_handshake():
    for faces in (TETRA, OCTA, CUBE, RP2_6):
        m = build_map(faces)
        assert sum(len(f) for f in m.faces) == 2 * m.edge_count


def test_face_cycle_lengths():
    m = build_map(CUBE)
    for v in range(8):
        fc = face_cycle(m, v)
        assert len(fc) == 3
        assert all(len(m.faces[f]) == 4 for f in fc.faces)


def test_face_cycle_matches_edges():
    for faces in (TETRA, OCTA, CUBE, RP2_6):
        m = build_map(faces)
        for v in range(m.vertex_count):
            incident_edges = [e for e in m.edges if v in e]
            assert len(face_cycle(m, v)) == len(incident_edges)


def test_rebuild_is_identity():
    m = build_map(OCTA)
    assert build_map(m.faces) == m


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_label_covariance(rnd):
    from semap.symmetry import are_isomorphic

    m = build_map(OCTA)
    perm = list(range(m.vertex_count))
    rnd.shuffle(perm)
    relabelled = build_map([tuple(perm[v] for v in f) for f in m.faces])
    assert are_isomorphic(m, relabelled)


def test_text_round_trip():
    m = build_map(CUBE)
    text = format_map_text(m)
    assert text.startswith("map 8\n")
    again = parse_map_text(text)
    assert again == m
    assert format_map_text(again) == text


def test_text_comments_and_blank_lines():
    m = parse_map_text("# a tetrahedron\nmap 4\n\nf 0 1 2 # top\nf 0 1 3\nf 0 2 3\nf 1 2 3\n")
    assert m.vertex_count == 4


@pytest.mark.parametrize(
    "bad",
    [
        "f 0 1 2\n",                                  # face before header
        "map 4\nmap 4\nf 0 1 2\n",                    # duplicate header
        "map four\nf 0 1 2\n",                        # malformed header
        "map 4\nf 0 1\n",                             # too-short face
        "map 4\nf 0 1 x\n",                           # non-integer id
        "map 4\nf 0 1 2 extra junk\nf 0 1 3\n",       # would need integers
        "map 5\nf 0 1 2\nf 0 1 3\nf 0 2 3\nf 1 2 3\n",  # header count off
        "hello\n",
    ],
)
def test_text_rejects_garbage(bad):
    with pytest.raises(MapFormatError):
        parse_map_text(bad)


def test_parse_rejects_invalid_map():
    with pytest.raises(EdgeDegreeNotTwo):
        parse_map_text("map 3\nf 0 1 2\nf 0 1 2\n")
