"""Flag systems: the (vertex, edge, face) incidence triples of a map.

Each flag has three fixed-point-free involutions: change the vertex
(walk along the edge), change the edge (turn inside the face), change
the face (cross the edge).  Every symmetry computation in this package
is a traversal of this 3-regular coloured graph.
"""
from __future__ import annotations

from semap.map_core import PolyhedralMap


class FlagSystem:
    """Move tables s0/s1/s2 over the 4*f1 flags of a map.

    Corner c (the corners numbered face by face) carries flags 2c, on
    the edge into the corner, and 2c+1, on the edge out of it.
    """

    __slots__ = ("flag_count", "s0", "s1", "s2", "flag_vertex")

    def __init__(self, m: PolyhedralMap):
        first: list[int] = []  # corner number of each face's corner 0
        flag_vertex: list[int] = []
        for face in m.faces:
            first.append(len(flag_vertex) // 2)
            for v in face:
                flag_vertex.extend((v, v))

        count = len(flag_vertex)
        s0 = [0] * count
        s1 = [a ^ 1 for a in range(count)]  # the two corner flags swap edges
        s2 = [0] * count
        for (i, p), (j, q) in m.edge_corners.values():
            # face i runs along the edge from its corner p to p+1: flag a
            # leaves corner p and flag b enters the next; c, d likewise in j
            fi, fj = m.faces[i], m.faces[j]
            a = 2 * (first[i] + p) + 1
            b = 2 * (first[i] + (p + 1) % len(fi))
            c = 2 * (first[j] + q) + 1
            d = 2 * (first[j] + (q + 1) % len(fj))
            s0[a], s0[b], s0[c], s0[d] = b, a, d, c
            # s2 keeps the vertex: a meets c when both faces run the
            # edge the same way, d when they run it oppositely
            if fi[p] != fj[q]:
                c, d = d, c
            s2[a], s2[c], s2[b], s2[d] = c, a, d, b

        self.flag_count = count
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2
        self.flag_vertex = flag_vertex


def flag_system(m: PolyhedralMap) -> FlagSystem:
    """Cached flag system of a map."""
    fs = m._cache.get("flags")
    if fs is None:
        fs = FlagSystem(m)
        m._cache["flags"] = fs
    return fs
