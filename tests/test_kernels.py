"""The pruned canonical search against an exhaustive all-starts oracle.

The oracle runs one full BFS from every start flag: the least code is
the certificate, and every start whose code equals the best start's
code gives one automorphism.  The pruned search must give the same code
bytes, start flag and automorphism group on relabelled inputs.
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
