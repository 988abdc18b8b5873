"""Flag systems: the (vertex, edge, face) incidence triples of a map.

Each flag has three fixed-point-free involutions: change the vertex
(walk along the edge), change the edge (turn inside the face), change
the face (cross the edge).  Every symmetry computation in this package
is a traversal of this 3-regular coloured graph.
"""
from __future__ import annotations

from semap.map_core import PolyhedralMap, _norm_edge


class FlagSystem:
    """Move tables s0/s1/s2 over the 4*f1 flags of a map."""

    __slots__ = ("flag_count", "s0", "s1", "s2", "flag_vertex")

    def __init__(self, m: PolyhedralMap):
        edge_id = {e: i for i, e in enumerate(m.edges)}
        index: dict[tuple[int, int, int], int] = {}
        flag_vertex: list[int] = []
        flag_edge: list[int] = []
        flag_face: list[int] = []
        s1: list[int] = []

        for fi, face in enumerate(m.faces):
            k = len(face)
            for i in range(k):
                v = face[i]
                e_prev = edge_id[_norm_edge(face[i - 1], v)]
                e_next = edge_id[_norm_edge(v, face[(i + 1) % k])]
                a = len(flag_vertex)
                index[(v, e_prev, fi)] = a
                index[(v, e_next, fi)] = a + 1
                flag_vertex.extend((v, v))
                flag_edge.extend((e_prev, e_next))
                flag_face.extend((fi, fi))
                s1.extend((a + 1, a))  # the two corner flags swap edges

        count = len(flag_vertex)
        s0 = [0] * count
        s2 = [0] * count
        for a in range(count):
            v = flag_vertex[a]
            e = flag_edge[a]
            fi = flag_face[a]
            u, w = m.edges[e]
            other_v = w if v == u else u
            s0[a] = index[(other_v, e, fi)]
            f1, f2 = m.edge_faces[m.edges[e]]
            other_f = f2 if fi == f1 else f1
            s2[a] = index[(v, e, other_f)]

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
