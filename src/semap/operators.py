"""Map-to-map constructions.

Truncation, rectification and the dual work on any valid map.  The
inverse operators contract a distinguished face family back to a seed
map; the snub surgeries exchange a [3^4,q] map with its diagonal-free
companion by removing or inserting a perfect matching of edges.
"""
from __future__ import annotations

from dataclasses import dataclass

from semap.errors import (
    InvariantViolated,
    MultiEdgeDetected,
    NotEligibleSquare,
    NotSemiEquivelar,
    PropagationConflict,
    WrongShape,
)
from semap.map_core import PolyhedralMap, _norm_edge, build_map, square_neighbour_counts
from semap.vtype import VertexType, normalize, semi_equivelar_type


def truncate(x: PolyhedralMap) -> PolyhedralMap:
    """Cut every corner: one vertex per directed edge of ``x``.

    Each q-gon survives as a 2q-gon and each vertex of degree d leaves a
    d-gon behind; new ids follow the lexicographic order of the directed
    edges, so output is deterministic.
    """
    ids = {}
    for u, v in x.edges:
        ids[(u, v)] = None
        ids[(v, u)] = None
    for i, key in enumerate(sorted(ids)):
        ids[key] = i

    faces = []
    for face in x.faces:
        k = len(face)
        big = []
        for i in range(k):
            a, b = face[i], face[(i + 1) % k]
            big.append(ids[(a, b)])
            big.append(ids[(b, a)])
        faces.append(tuple(big))
    for v in range(x.vertex_count):
        faces.append(tuple(ids[(v, u)] for u in x.links[v]))
    return build_map(faces)


def rectify(x: PolyhedralMap) -> PolyhedralMap:
    """One vertex per edge of ``x``, joined when adjacent inside a face."""
    eid = {e: i for i, e in enumerate(x.edges)}
    faces = []
    for face in x.faces:
        k = len(face)
        faces.append(tuple(eid[_norm_edge(face[i], face[(i + 1) % k])] for i in range(k)))
    for v in range(x.vertex_count):
        faces.append(tuple(eid[_norm_edge(v, u)] for u in x.links[v]))
    return build_map(faces)


def dual(x: PolyhedralMap) -> PolyhedralMap:
    """Faces and vertices exchanged; involutive up to isomorphism."""
    return build_map(x.rotations)


# --------------------------------------------------------------------------
# inverse operators


def _required_type(x: PolyhedralMap) -> VertexType:
    t = semi_equivelar_type(x)
    if isinstance(t, NotSemiEquivelar):
        raise WrongShape(f"map is not semi-equivelar: {t}")
    return t


def _face_partition(x: PolyhedralMap, size: int) -> tuple[list[int], list[int]]:
    """Ids of the size-``size`` faces plus the vertex -> face-node map.

    Raises WrongShape unless those faces partition the vertex set.
    """
    members = [i for i, f in enumerate(x.faces) if len(f) == size]
    node_of = [-1] * x.vertex_count
    for idx, fi in enumerate(members):
        for v in x.faces[fi]:
            if node_of[v] != -1:
                raise WrongShape(f"{size}-gons do not partition the vertices")
            node_of[v] = idx
    if any(nid == -1 for nid in node_of):
        raise WrongShape(f"{size}-gons do not cover the vertices")
    return members, node_of


def minority_links(x: PolyhedralMap, size: int) -> list[tuple[int, int]]:
    """Connecting-edge multiset between the size-``size`` faces.

    One entry per edge of ``x`` whose endpoints lie in different
    size-``size`` faces; nodes are indexed by face order.
    """
    _, node_of = _face_partition(x, size)
    links = []
    for u, v in x.edges:
        a, b = node_of[u], node_of[v]
        if a != b:
            links.append((a, b) if a < b else (b, a))
    return links


def _contract(x: PolyhedralMap, members: list[int]) -> PolyhedralMap:
    """Shrink each member face to a node; the other faces become the cycles."""
    node_of_face = {fi: idx for idx, fi in enumerate(members)}
    faces = []
    for fi, face in enumerate(x.faces):
        if fi in node_of_face:
            continue
        k = len(face)
        cycle = []
        for i in range(k):
            (g1, _), (g2, _) = x.edge_corners[_norm_edge(face[i], face[(i + 1) % k])]
            other = g2 if g1 == fi else g1
            if other in node_of_face:
                cycle.append(node_of_face[other])
        if len(set(cycle)) != len(cycle):
            raise MultiEdgeDetected(f"face {fi} touches a contracted face more than once")
        faces.append(tuple(cycle))
    return build_map(faces)


def inverse_truncation(x: PolyhedralMap) -> PolyhedralMap:
    """Undo a truncation: contract the corner polygons.

    Accepts the two truncated shapes, [p,(2q)^2] and [4,(2p),(2q)]; in
    both, the minority family (the lone-run faces, squares in the second
    shape) marks the cut corners and partitions the vertex set.
    """
    t = _required_type(x)
    runs = t.runs
    if len(runs) == 2 and runs[0][1] + runs[1][1] == 3:
        lone = [p for p, n in runs if n == 1]
        double = [p for p, n in runs if n == 2]
        if len(lone) == 1 and len(double) == 1 and double[0] % 2 == 0 and double[0] >= 6:
            p = lone[0]
            # the corner-polygon adjacency graph must be simple
            pair_counts: dict[tuple[int, int], int] = {}
            for pair in minority_links(x, p):
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
            bad = [pair for pair, c in pair_counts.items() if c > 1]
            if bad:
                raise MultiEdgeDetected(f"double link between corner polygons {bad[0]}")
            return _contract(x, _face_partition(x, p)[0])
    if (
        len(runs) == 3
        and all(n == 1 for _, n in runs)
        and sorted(p for p, _ in runs)[0] == 4
        and all(p % 2 == 0 for p, _ in runs)
    ):
        return _contract(x, _face_partition(x, 4)[0])
    raise WrongShape(f"cannot invert truncation on type {t}")


def inverse_rectification(x: PolyhedralMap) -> PolyhedralMap:
    """Undo a rectification: contract the face family that hits every
    vertex exactly twice, on opposite corners of its degree-4 pattern."""
    t = _required_type(x)
    if t.degree != 4:
        raise WrongShape(f"cannot invert rectification on type {t}")
    sizes = t.sizes
    candidates = sorted(
        {
            sizes[i]
            for i in range(4)
            if sizes[i] == sizes[(i + 2) % 4] and sizes.count(sizes[i]) == 2
        }
    )
    if not candidates:
        raise WrongShape(f"cannot invert rectification on type {t}")
    p = candidates[0]

    members = [i for i, f in enumerate(x.faces) if len(f) == p]
    incidence = [0] * x.vertex_count
    for fi in members:
        for v in x.faces[fi]:
            incidence[v] += 1
    if any(c != 2 for c in incidence):
        raise WrongShape(f"{p}-gons do not cover every vertex twice")
    node_ids = set(members)
    for e, ((f1, _), (f2, _)) in x.edge_corners.items():
        if (f1 in node_ids) == (f2 in node_ids):
            raise WrongShape(f"edge {e} does not border exactly one {p}-gon")
    return _contract(x, members)


# --------------------------------------------------------------------------
# snub surgery


@dataclass(frozen=True)
class EdgeColoring:
    """Edge classes of a [3^4,q] map.

    red: triangle against q-gon; blue: triangle against triangle;
    deep_blue: blue edges whose four endpoint triangles split 3+1 on both
    sides.  The deep-blue edges form a perfect matching.
    """

    red: frozenset[tuple[int, int]]
    blue: frozenset[tuple[int, int]]
    deep_blue: frozenset[tuple[int, int]]


def _snub_type_q(t: VertexType) -> int | None:
    runs = dict(t.runs)
    if t.degree == 5 and runs.get(3) == 4 and len(runs) == 2:
        q = next(p for p in runs if p != 3)
        if q in (4, 5):
            return q
    return None


def edge_coloring(x: PolyhedralMap) -> EdgeColoring:
    t = _required_type(x)
    q = _snub_type_q(t)
    if q is None:
        raise WrongShape(f"edge colouring needs type [3^4,q], q in 4..5, not {t}")

    red = set()
    blue = set()
    for e, ((f1, _), (f2, _)) in x.edge_corners.items():
        s1, s2 = len(x.faces[f1]), len(x.faces[f2])
        if s1 == 3 and s2 == 3:
            blue.add(e)
        elif {s1, s2} == {3, q}:
            red.add(e)
        else:
            raise InvariantViolated(f"edge {e} lies between two {q}-gons")

    # At a vertex whose rotation is (Q, t1, t2, t3, t4), the edges in
    # rotation order are red, red, b1, b2, b3; the 3+1 triangle splits
    # happen exactly at b1 and b3, the blue edges bordering a red one.
    deep_at: list[set[int]] = [set() for _ in range(x.vertex_count)]
    for v in range(x.vertex_count):
        rot = x.rotations[v]
        link = x.links[v]
        j = next(i for i, f in enumerate(rot) if len(x.faces[f]) == q)
        deep_at[v].add(link[(j + 2) % 5])
        deep_at[v].add(link[(j + 4) % 5])
    deep = {
        e for e in blue if e[1] in deep_at[e[0]] and e[0] in deep_at[e[1]]
    }

    counts = [[0, 0, 0] for _ in range(x.vertex_count)]
    for u, v in red:
        counts[u][0] += 1
        counts[v][0] += 1
    for u, v in blue:
        counts[u][1] += 1
        counts[v][1] += 1
    for u, v in deep:
        counts[u][2] += 1
        counts[v][2] += 1
    if any(c != [2, 3, 1] for c in counts):
        raise InvariantViolated("a vertex does not meet 2 red, 3 blue and 1 deep-blue edge")
    return EdgeColoring(frozenset(red), frozenset(blue), frozenset(deep))


def remove_deep_blue(x: PolyhedralMap) -> PolyhedralMap:
    """Open the deep-blue matching: each such edge's two triangles merge
    into a square.  Vertex count is preserved."""
    colouring = edge_coloring(x)
    drop = set()
    squares = []
    for u, v in sorted(colouring.deep_blue):
        (f1, _), (f2, _) = x.edge_corners[(u, v)]
        drop.update((f1, f2))
        (a,) = set(x.faces[f1]) - {u, v}
        (b,) = set(x.faces[f2]) - {u, v}
        squares.append((u, a, v, b))
    faces = [f for i, f in enumerate(x.faces) if i not in drop]
    faces.extend(squares)
    return build_map(faces)


def _eligible_squares(y: PolyhedralMap) -> list[int]:
    t = _required_type(y)
    if t == normalize((3, 4, 4, 4)) and y.vertex_count == 24:
        # only squares flanked by exactly two other squares take a diagonal
        return [i for i, c in square_neighbour_counts(y).items() if c == 2]
    if t == normalize((3, 4, 5, 4)):
        return [i for i, f in enumerate(y.faces) if len(f) == 4]
    raise WrongShape(f"no diagonal surgery for type {t}")


def insert_diagonal_matching(
    y: PolyhedralMap, seed_diagonal: tuple[int, int] | None = None
) -> PolyhedralMap:
    """Split eligible squares along forced diagonals.

    The seed fixes one diagonal; without one, it is
    ``canonical_seed_diagonal(y)``.  The requirement that every vertex
    meet exactly one diagonal forces all the others by breadth-first
    propagation.  Conflicts mean the input was not one of the two
    admissible seeds and raise PropagationConflict.
    """
    if seed_diagonal is None:
        seed_diagonal = canonical_seed_diagonal(y)
    eligible = _eligible_squares(y)
    squares_at: dict[int, list[int]] = {}
    for si in eligible:
        for v in y.faces[si]:
            squares_at.setdefault(v, []).append(si)
    if any(len(s) != 2 for s in squares_at.values()) or len(squares_at) != y.vertex_count:
        raise PropagationConflict("eligible squares do not cover every vertex twice")

    def diagonals(si):
        f = y.faces[si]
        return (frozenset((f[0], f[2])), frozenset((f[1], f[3])))

    a, c = seed_diagonal
    seed_square = None
    for si in eligible:
        if frozenset((a, c)) in diagonals(si):
            seed_square = si
            break
    if seed_square is None:
        raise NotEligibleSquare(f"{seed_diagonal} is not a diagonal of an eligible square")

    chosen: dict[int, frozenset] = {}
    covered: dict[int, int] = {}  # vertex -> square whose diagonal covers it

    def choose(si, diag):
        prev = chosen.get(si)
        if prev is not None:
            if prev != diag:
                raise PropagationConflict(f"square {si} forced both diagonals")
            return []
        chosen[si] = diag
        newly = []
        for v in diag:
            if v in covered and covered[v] != si:
                raise PropagationConflict(f"vertex {v} covered twice")
            covered[v] = si
            newly.append(v)
        return newly

    frontier = choose(seed_square, frozenset((a, c)))
    while frontier:
        next_frontier = []
        for v in sorted(frontier):
            si = covered[v]
            # corners of si missed by its diagonal must be covered elsewhere;
            # corners on the diagonal block their other square
            for w in y.faces[si]:
                other = next(s for s in squares_at[w] if s != si)
                d1, d2 = diagonals(other)
                want = None
                if w in chosen[si]:
                    if w in d1:
                        want = d2
                    if w in d2:
                        want = d1
                else:
                    if w in d1:
                        want = d1
                    elif w in d2:
                        want = d2
                if want is not None:
                    next_frontier.extend(choose(other, want))
        frontier = next_frontier

    if len(chosen) != len(eligible):
        raise PropagationConflict(
            f"propagation stalled with {len(chosen)} of {len(eligible)} squares decided"
        )
    if len(covered) != y.vertex_count:
        raise PropagationConflict("diagonals do not form a perfect matching")

    faces = []
    for fi, face in enumerate(y.faces):
        diag = chosen.get(fi)
        if diag is None:
            faces.append(face)
            continue
        if frozenset((face[0], face[2])) == diag:
            faces.append((face[0], face[1], face[2]))
            faces.append((face[0], face[2], face[3]))
        else:
            faces.append((face[1], face[2], face[3]))
            faces.append((face[1], face[3], face[0]))
    return build_map(faces)


def canonical_seed_diagonal(y: PolyhedralMap) -> tuple[int, int]:
    """Lexicographically least diagonal of an eligible square."""
    best = None
    for si in _eligible_squares(y):
        f = y.faces[si]
        for d in ((f[0], f[2]), (f[1], f[3])):
            d = tuple(sorted(d))
            if best is None or d < best:
                best = d
    if best is None:
        raise NotEligibleSquare("the map has no eligible square")
    return best
