"""Canonical-form kernel: one pruned search over start flags.

A breadth-first traversal of the flag graph from a fixed start flag,
labelling flags in discovery order with moves tried in the order
s0, s1, s2, produces a code: for each flag in label order, the labels
of its three neighbours.  The code is independent of the input
labelling given the start flag, so the minimum over all starts is a
canonical form (Brinkmann & McKay's plantri codes for embedded graphs).

Two starts give equal codes exactly when an automorphism maps one to
the other, and then ``order_a[i] -> order_b[i]`` is that automorphism.
The search keeps these as generators and prunes with them in the style
of McKay & Piperno, "Practical graph isomorphism II" (2014): a start in
the orbit of an already tried start has the same code, so it is
skipped.  Automorphisms act freely on flags, so the orbit of the best
start under the generators found is its full orbit, whose size is the
order of the automorphism group; the generators and that regular orbit
are the whole group, as in nauty and Traces, with no element listed.
"""
from __future__ import annotations

import struct
from typing import NamedTuple

KERNEL_NAME = "pruned"


class CanonicalSearch(NamedTuple):
    code: bytes                      # least code, 32-bit big-endian labels
    start: int                       # least start flag giving that code
    order: list[int]                 # flags in BFS discovery order from start
    generators: list[list[int]]      # flag automorphisms found along the way
    orbit_size: int                  # flags in the orbit of start = |Aut|


def _bfs(s0, s1, s2, start, best=None):
    """Code and discovery order from ``start``; None once the code exceeds ``best``."""
    label = [-1] * len(s0)
    label[start] = 0
    order = [start]
    code = []
    comparing = best is not None
    for fl in order:
        for u in (s0[fl], s1[fl], s2[fl]):
            lu = label[u]
            if lu < 0:
                lu = label[u] = len(order)
                order.append(u)
            if comparing:
                b = best[len(code)]
                if lu > b:
                    return None
                if lu < b:
                    comparing = False
            code.append(lu)
    return code, order


def _find(parent, x):
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def canonical_search(s0, s1, s2) -> CanonicalSearch:
    """Least code over all start flags, its start, and automorphism generators."""
    count = len(s0)
    parent = list(range(count))
    size = [1] * count  # these two are indexed by union-find root
    tried = [False] * count
    best, best_order = _bfs(s0, s1, s2, 0)
    best_start = 0
    tried[0] = True
    generators = []
    for g in range(1, count):
        root = _find(parent, g)
        if tried[root]:
            continue
        tried[root] = True
        found = _bfs(s0, s1, s2, g, best)
        if found is None:
            continue
        code, order = found
        if code != best:
            best, best_order, best_start = code, order, g
            continue
        perm = [0] * count
        for a, b in zip(best_order, order):
            perm[a] = b
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[rb] = ra
                size[ra] += size[rb]
                tried[ra] = tried[ra] or tried[rb]
        generators.append(perm)
    orbit_size = size[_find(parent, best_start)]
    return CanonicalSearch(
        struct.pack(f">{len(best)}I", *best), best_start, best_order, generators, orbit_size
    )
