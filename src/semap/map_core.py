"""Validated polyhedral maps on closed surfaces.

A map is stored as its face list; everything else (edges, rotations,
orientability, Euler characteristic) is derived at build time.  The
derivation starts from one edge table, ``edge_corners``: for every edge
its two face corners ``(i, j)``, where face ``i`` runs along the edge as
``(f[j], f[j+1])``.  Rotations, orientation and the flag tables of
``semap.flags`` all read that table.  The factory ``build_map``
validates polyhedrality, so any PolyhedralMap in circulation satisfies
the full battery of invariants:

* faces are simple polygons with at least 3 distinct vertices,
* every edge lies in exactly two distinct faces,
* two faces meet in nothing, one vertex, or one edge (checked for the
  pairs of faces at each vertex, since faces that meet share one),
* the faces around each vertex form a single cycle,
* the underlying graph is connected (checked on the faces, which are
  connected exactly when the vertices are),
* the Euler characteristic is 2 (sphere) or 1 (projective plane).

Only those two surfaces are supported.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from semap.errors import (
    Disconnected,
    EdgeDegreeNotTwo,
    InvalidFaceList,
    InvariantViolated,
    MapFormatError,
    NonPolyhedralIntersection,
    PinchedVertex,
    RepeatedVertexInFace,
    UnsupportedSurface,
)

Face = tuple[int, ...]


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def face_key(face: Sequence[int]) -> Face:
    """Canonical key of a polygon: least rotation over both directions.

    Only rotations that start at the least entry can win, so only those
    are built: one per direction when the entries are distinct.
    """
    least = min(face)
    best = None
    for seq in (tuple(face), tuple(reversed(face))):
        for r, x in enumerate(seq):
            if x == least:
                cand = seq[r:] + seq[:r]
                if best is None or cand < best:
                    best = cand
    return best


@dataclass(frozen=True)
class FaceCycle:
    """Cyclic order of the faces around one vertex."""

    vertex: int
    faces: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.faces)


class PolyhedralMap:
    """Immutable combinatorial map; construct through :func:`build_map`."""

    __slots__ = (
        "vertex_count",
        "faces",
        "edges",
        "edge_corners",
        "rotations",
        "links",
        "orientable",
        "_cache",
    )

    def __init__(self, vertex_count, faces, edges, edge_corners, rotations, links, orientable):
        self.vertex_count = vertex_count
        self.faces = faces              # tuple of vertex cycles
        self.edges = edges              # sorted tuple of (u, v) pairs, u < v
        self.edge_corners = edge_corners  # edge -> its two corners (face id, j)
        self.rotations = rotations      # per vertex: cyclic tuple of face ids
        self.links = links              # per vertex: cyclic tuple of neighbours
        self.orientable = orientable
        self._cache = {}                # lazy flags, symmetry, face keys

    # -- elementary counts -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def face_sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.faces)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyhedralMap)
            and self.vertex_count == other.vertex_count
            and self.faces == other.faces
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.faces))

    def __repr__(self) -> str:
        return (
            f"PolyhedralMap(f0={self.vertex_count}, f1={self.edge_count}, "
            f"f2={self.face_count}, chi={self.euler_characteristic})"
        )


def face_cycle(m: PolyhedralMap, v: int) -> FaceCycle:
    """The cyclic sequence of faces incident to ``v``; length = degree."""
    return FaceCycle(v, m.rotations[v])


def face_keys(m: PolyhedralMap) -> frozenset[Face]:
    """Cached set of the face keys of ``m``."""
    keys = m._cache.get("face_keys")
    if keys is None:
        keys = frozenset(face_key(f) for f in m.faces)
        m._cache["face_keys"] = keys
    return keys


def square_neighbour_counts(m: PolyhedralMap) -> dict[int, int]:
    """Square face id -> number of squares sharing an edge with it."""
    counts = {i: 0 for i, f in enumerate(m.faces) if len(f) == 4}
    for (f1, _), (f2, _) in m.edge_corners.values():
        if f1 in counts and f2 in counts:
            counts[f1] += 1
            counts[f2] += 1
    return counts


# --------------------------------------------------------------------------
# construction


def build_map(face_list: Iterable[Sequence[int]]) -> PolyhedralMap:
    """Build and validate a map from its faces.

    Faces are the single source of truth; edges and rotations are always
    derived.  Vertex ids must densely cover 0..f0-1 (gaps are rejected,
    never compacted, so fixtures stay deterministic).
    """
    faces = tuple(tuple(f) for f in face_list)
    if not faces:
        raise InvalidFaceList("empty face list")

    seen_vertices = set()
    for f in faces:
        if len(f) < 3:
            raise InvalidFaceList(f"face {f} has fewer than 3 vertices")
        for v in f:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidFaceList(f"bad vertex id {v!r} in face {f}")
        if len(set(f)) != len(f):
            raise RepeatedVertexInFace(f"face {f} repeats a vertex")
        seen_vertices.update(f)

    n = max(seen_vertices) + 1
    if len(seen_vertices) != n:
        # at least four of the first len(seen) + 4 ids are missing
        scan = range(min(n, len(seen_vertices) + 4))
        missing = [v for v in scan if v not in seen_vertices][:4]
        raise InvalidFaceList(f"vertex ids not dense, missing {missing}")

    # A face listed twice (up to rotation/reversal) would give its edges
    # two incidences with what is geometrically a single face.
    keys = {}
    for i, f in enumerate(faces):
        k = face_key(f)
        if k in keys:
            raise EdgeDegreeNotTwo(f"faces {keys[k]} and {i} are the same polygon")
        keys[k] = i

    # derive edges, each with its two corners
    corners_all: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, f in enumerate(faces):
        k = len(f)
        for j in range(k):
            e = _norm_edge(f[j], f[(j + 1) % k])
            corners_all.setdefault(e, []).append((i, j))
    for e, inc in corners_all.items():
        if len(inc) != 2:
            raise EdgeDegreeNotTwo(f"edge {e} lies in {len(inc)} faces")

    edges = tuple(sorted(corners_all))
    edge_corners = {e: tuple(corners_all[e]) for e in edges}

    # Faces that meet share a vertex, so only the pairs at each vertex
    # are checked, each once: at its least shared vertex.
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, f in enumerate(faces):
        for j, v in enumerate(f):
            incident[v].append((i, j))
    sets = [set(f) for f in faces]
    for v, inc in enumerate(incident):
        for a, (i, p) in enumerate(inc):
            for j, q in inc[a + 1:]:
                shared = sets[i] & sets[j]
                if min(shared) == v and not faces_meet_properly(faces[i], p, faces[j], q, shared):
                    raise NonPolyhedralIntersection(
                        f"faces {i} and {j} share vertices {sorted(shared)}, "
                        "not one vertex or one edge"
                    )

    rotations, links = _vertex_rotations(faces, edge_corners, incident)

    orientable = _orientable(faces, edge_corners)

    chi = n - len(edges) + len(faces)
    if chi not in (2, 1):
        raise UnsupportedSurface(f"Euler characteristic {chi} is not 2 or 1")
    # closed-surface classification: chi 2 is the sphere, chi 1 the
    # projective plane; a mismatch here would be a logic error
    if orientable != (chi == 2):
        raise InvariantViolated("orientability inconsistent with Euler characteristic")

    return PolyhedralMap(n, faces, edges, edge_corners, rotations, links, orientable)


def faces_meet_properly(f: Face, p: int, g: Face, q: int, shared: set[int]) -> bool:
    """Whether two distinct faces meet in nothing, one vertex or one edge.

    ``shared`` is their common vertex set and, when it is not empty,
    ``f[p] == g[q] == min(shared)``.  It may hold at most two vertices,
    and two only when the other one neighbours ``f[p]`` in both faces.
    """
    if len(shared) != 2:
        return len(shared) < 2
    w = max(shared)
    return w in (f[p - 1], f[(p + 1) % len(f)]) and w in (g[q - 1], g[(q + 1) % len(g)])


def _vertex_rotations(faces, edge_corners, incident):
    rotations = []
    links = []
    for v, inc in enumerate(incident):
        d = len(inc)
        if d < 3:
            # a vertex of a closed polyhedral surface lies in >= 3 faces
            raise PinchedVertex(f"vertex {v} lies in only {d} faces")
        f0, p = inc[0]  # v's corner in its least face
        g = faces[f0]
        a = g[p - 1]
        rot = [f0]
        link = [a]
        seen = {f0}
        cur_f, cur_u = f0, g[(p + 1) % len(g)]
        for _ in range(d - 1):
            c1, c2 = edge_corners[_norm_edge(v, cur_u)]
            nf, q = c2 if c1[0] == cur_f else c1
            if nf in seen:
                raise PinchedVertex(f"faces at vertex {v} do not form a single cycle")
            # nf runs along the edge as (g[q], g[q+1]); v's other
            # neighbour in nf lies beyond v
            g = faces[nf]
            nxt = g[q - 1] if g[q] == v else g[(q + 2) % len(g)]
            rot.append(nf)
            link.append(cur_u)
            seen.add(nf)
            cur_f, cur_u = nf, nxt
        if cur_u != a:
            raise PinchedVertex(f"faces at vertex {v} do not form a single cycle")
        c1, c2 = edge_corners[_norm_edge(v, a)]
        if (c2 if c1[0] == cur_f else c1)[0] != f0:
            raise PinchedVertex(f"faces at vertex {v} do not close up")
        rotations.append(tuple(rot))
        links.append(tuple(link))
    return tuple(rotations), tuple(links)


def _orientable(faces, edge_corners) -> bool:
    """Propagate face sides across edges; a sign conflict means non-orientable.

    The propagation runs to the end and raises Disconnected when it
    leaves a face unreached: with the faces at every vertex in one
    cycle, the faces are connected exactly when the vertices are.
    """
    # neighbours[i]: (j, same_dir) for each edge shared between faces i and j
    neighbours: list[list[tuple[int, bool]]] = [[] for _ in range(len(faces))]
    for (i, p), (j, q) in edge_corners.values():
        same_dir = faces[i][p] == faces[j][q]
        neighbours[i].append((j, same_dir))
        neighbours[j].append((i, same_dir))
    sign = [0] * len(faces)
    sign[0] = 1
    stack = [0]
    reached = 1
    orientable = True
    while stack:
        i = stack.pop()
        for j, same_dir in neighbours[i]:
            want = -sign[i] if same_dir else sign[i]
            if sign[j] == 0:
                sign[j] = want
                reached += 1
                stack.append(j)
            elif sign[j] != want:
                orientable = False
    if reached != len(faces):
        raise Disconnected(f"only {reached} of {len(faces)} faces reachable")
    return orientable


# --------------------------------------------------------------------------
# text interchange format
#
#   map <f0>
#   f v1 v2 ... vk
#
# '#' starts a comment; the parser rejects anything else.


def format_map_text(m: PolyhedralMap) -> str:
    lines = [f"map {m.vertex_count}"]
    lines.extend("f " + " ".join(str(v) for v in face) for face in m.faces)
    return "\n".join(lines) + "\n"


def parse_map_text(text: str) -> PolyhedralMap:
    declared = None
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "map":
            if declared is not None:
                raise MapFormatError(f"line {lineno}: duplicate map header")
            if faces:
                raise MapFormatError(f"line {lineno}: map header after faces")
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise MapFormatError(f"line {lineno}: malformed map header")
            try:
                declared = int(tokens[1])
            except ValueError:  # past int()'s 4300-digit limit
                raise MapFormatError(f"line {lineno}: map header number too long") from None
        elif tokens[0] == "f":
            if declared is None:
                raise MapFormatError(f"line {lineno}: face before map header")
            if len(tokens) < 4:
                raise MapFormatError(f"line {lineno}: face needs at least 3 vertices")
            try:
                faces.append(tuple(int(t) for t in tokens[1:]))
            except ValueError:
                raise MapFormatError(f"line {lineno}: non-integer vertex id") from None
        else:
            raise MapFormatError(f"line {lineno}: unrecognised line {raw!r}")
    if declared is None:
        raise MapFormatError("missing map header")
    m = build_map(faces)
    if m.vertex_count != declared:
        raise MapFormatError(
            f"header declares {declared} vertices but faces use {m.vertex_count}"
        )
    return m
