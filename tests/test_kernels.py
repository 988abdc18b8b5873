"""The flag tables and the pruned canonical search against oracles.

The flag-table oracle is the construction from (vertex, edge, face)
triples: the flag tables read off the edge-corner table must equal it.
The search oracle runs one full BFS from every start flag: the least
code is the certificate, and every start whose code equals the best
start's code gives one automorphism.  The pruned search must give the
same code bytes, start flag and automorphism group on relabelled inputs.
"""
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semap import _certpure
from semap.catalog import prism, rp2_catalog, sphere_catalog
from semap.flags import flag_system
from semap.map_core import build_map
from semap.symmetry import automorphism_group, canonical_certificate


def _full_bfs(s0, s1, s2, start):
    count = len(s0)
    label = [-1] * count
    label[start] = 0
    order = [start]
    code = []
    for fl in order:
        for table in (s0, s1, s2):
            u = table[fl]
            if label[u] < 0:
                label[u] = len(order)
                order.append(u)
            code.append(label[u])
    return code, order


def oracle(m):
    """(code bytes, start, vertex permutations) from every start flag."""
    fs = flag_system(m)
    runs = [_full_bfs(fs.s0, fs.s1, fs.s2, g) for g in range(fs.flag_count)]
    best_start = min(range(fs.flag_count), key=lambda g: runs[g][0])
    best_code, best_order = runs[best_start]
    perms = set()
    for code, order in runs:
        if code == best_code:
            sigma = [0] * m.vertex_count
            for a, b in zip(best_order, order):
                sigma[fs.flag_vertex[a]] = fs.flag_vertex[b]
            perms.add(tuple(sigma))
    return struct.pack(f">{len(best_code)}I", *best_code), best_start, perms


def _relabel(m, rng):
    perm = list(range(m.vertex_count))
    rng.shuffle(perm)
    faces = [tuple(perm[v] for v in f) for f in m.faces]
    rng.shuffle(faces)
    return build_map(faces)


_RNG = random.Random(2024)
CASES = [
    (e.name, _relabel(e.map, _RNG))
    for e in sphere_catalog(12) + rp2_catalog() + [prism(100)]
]


def flag_tables_oracle(m):
    """s0, s1, s2 and flag_vertex indexed by (vertex, edge, face) triples.

    Corner i of face fi carries the flags of its edge into and out of
    the corner, in that order; the faces of each edge are found from
    the face list alone.
    """
    edge_id = {e: i for i, e in enumerate(m.edges)}
    edge_faces = [[] for _ in m.edges]
    index = {}
    flag_vertex, flag_edge, flag_face, s1 = [], [], [], []
    for fi, face in enumerate(m.faces):
        k = len(face)
        for i, v in enumerate(face):
            e_prev = edge_id[tuple(sorted((face[i - 1], v)))]
            e_next = edge_id[tuple(sorted((v, face[(i + 1) % k])))]
            a = len(flag_vertex)
            index[(v, e_prev, fi)] = a
            index[(v, e_next, fi)] = a + 1
            flag_vertex += [v, v]
            flag_edge += [e_prev, e_next]
            flag_face += [fi, fi]
            s1 += [a + 1, a]
            edge_faces[e_next].append(fi)
    s0, s2 = [], []
    for v, e, fi in zip(flag_vertex, flag_edge, flag_face):
        u, w = m.edges[e]
        s0.append(index[(w if v == u else u, e, fi)])
        f1, f2 = edge_faces[e]
        s2.append(index[(v, e, f2 if fi == f1 else f1)])
    return s0, s1, s2, flag_vertex


def _reversed_faces(m, rng):
    """The same map with every face listed backwards from a random corner."""
    faces = []
    for f in m.faces:
        r = rng.randrange(len(f))
        faces.append(tuple(reversed(f[r:] + f[:r])))
    return build_map(faces)


_FLAG_CASES = [
    (e.name, e.map) for e in sphere_catalog(12) + rp2_catalog()
] + [
    (f"relabelled-{name}", m) for name, m in CASES
] + [
    (f"reversed-{name}", _reversed_faces(m, _RNG)) for name, m in CASES
] + [("prism-1000", prism(1000).map)]


@pytest.mark.parametrize("m", [m for _, m in _FLAG_CASES], ids=[name for name, _ in _FLAG_CASES])
def test_flag_tables_match_triple_oracle(m):
    fs = flag_system(m)
    assert (fs.s0, fs.s1, fs.s2, fs.flag_vertex) == flag_tables_oracle(m)
    assert fs.flag_count == 4 * m.edge_count
    flags = range(fs.flag_count)
    for table in (fs.s0, fs.s1, fs.s2):
        assert all(table[a] != a and table[table[a]] == a for a in flags)
    assert all(fs.s0[fs.s2[a]] == fs.s2[fs.s0[a]] for a in flags)


@pytest.mark.parametrize("m", [m for _, m in CASES], ids=[name for name, _ in CASES])
def test_pruned_search_matches_oracle(m):
    code, start, perms = oracle(m)
    fs = flag_system(m)
    search = _certpure.canonical_search(fs.s0, fs.s1, fs.s2)
    assert (search.code, search.start) == (code, start)
    assert canonical_certificate(m).code == code
    assert search.orbit_size == len(perms)
    assert set(automorphism_group(m).permutations) == perms


def _ring(count):
    """Involutions of a 2*count-flag cycle: s0 pairs 2k with 2k+1, s1 closes the ring."""
    flags = 2 * count
    s0 = [x ^ 1 for x in range(flags)]
    s1 = [(x + 1) % flags if x % 2 else (x - 1) % flags for x in range(flags)]
    return s0, s1, list(s0)


def oracle_code(s0, s1, s2):
    best = min(_full_bfs(s0, s1, s2, g)[0] for g in range(len(s0)))
    return struct.pack(f">{len(best)}I", *best)


def test_labels_past_sixteen_bits():
    s0, s1, s2 = _ring(40_000)  # 80 000 flags
    search = _certpure.canonical_search(s0, s1, s2)
    labels = struct.unpack(f">{3 * len(s0)}I", search.code)
    assert max(labels) == len(s0) - 1 > 1 << 16
    assert search.orbit_size == len(s0)  # the dihedral group of the ring
    small = _ring(50)
    assert _certpure.canonical_search(*small).code == oracle_code(*small)


_SAMPLE = {e.name: e.map for e in sphere_catalog(12)}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(_SAMPLE)), seed=st.integers(0, 2**32 - 1))
def test_certificate_and_group_order_ignore_relabelling(name, seed):
    m = _SAMPLE[name]
    r = _relabel(m, random.Random(seed))
    assert canonical_certificate(r) == canonical_certificate(m)
    assert automorphism_group(r).order == automorphism_group(m).order
