"""Isomorphism and symmetry machinery built on flag traversals.

Certificates are minimum flag-BFS codes, so isomorphism naturally
includes orientation-reversing correspondences.  The same search that
finds the minimum code finds generators of the automorphism group: two
start flags with equal codes determine exactly one automorphism, since
the flag graph of a polyhedral map is rigid.  The group is kept as those
generators plus the orbit of the start flag, on which it acts regularly:
each orbit flag names one element, built when iterated, never stored.

The orientation double cover of a projective-plane map needs no flags:
a cover vertex is a base vertex with a direction of its link cycle, each
face lifts once read forward and once reversed, and the deck swap flips
the direction.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from semap._certpure import CanonicalSearch, _find, canonical_search
from semap.errors import (
    AlreadySpherical,
    InvalidInvolution,
    MapBuildError,
    NonPolyhedralQuotient,
    SymmetryCheckFailed,
)
from semap.flags import flag_system
from semap.map_core import PolyhedralMap, build_map, face_key, face_keys


def _search(m: PolyhedralMap) -> CanonicalSearch:
    search = m._cache.get("search")
    if search is None:
        fs = flag_system(m)
        search = canonical_search(fs.s0, fs.s1, fs.s2)
        m._cache["search"] = search
    return search


@dataclass(frozen=True)
class CanonicalCertificate:
    """Minimum flag code plus the vertex relabelling that realises it.

    Two maps are isomorphic exactly when their ``code`` fields are
    equal; ``vertex_order[i]`` is the original id of the vertex with
    canonical label i.
    """

    code: bytes
    vertex_order: tuple[int, ...]

    def __eq__(self, other) -> bool:
        return isinstance(other, CanonicalCertificate) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)


def canonical_certificate(m: PolyhedralMap) -> CanonicalCertificate:
    cert = m._cache.get("certificate")
    if cert is not None:
        return cert
    search = _search(m)
    flag_vertex = flag_system(m).flag_vertex
    seen = [False] * m.vertex_count
    vertex_order = []
    for fl in search.order:
        v = flag_vertex[fl]
        if not seen[v]:
            seen[v] = True
            vertex_order.append(v)
    cert = CanonicalCertificate(search.code, tuple(vertex_order))
    m._cache["certificate"] = cert
    return cert


def are_isomorphic(a: PolyhedralMap, b: PolyhedralMap) -> bool:
    return canonical_certificate(a).code == canonical_certificate(b).code


def isomorphism_witness(a: PolyhedralMap, b: PolyhedralMap) -> tuple[int, ...] | None:
    """A vertex bijection a -> b realising an isomorphism, or None.

    The bijection pairs vertices with equal canonical labels; the face
    sets are checked before returning.
    """
    ca = canonical_certificate(a)
    cb = canonical_certificate(b)
    if ca.code != cb.code:
        return None
    to_label = {v: i for i, v in enumerate(ca.vertex_order)}
    sigma = tuple(cb.vertex_order[to_label[v]] for v in range(a.vertex_count))
    if not _maps_faces(a, b, sigma):
        raise SymmetryCheckFailed("certificate-derived witness failed verification")
    return sigma


def _maps_faces(a: PolyhedralMap, b: PolyhedralMap, sigma) -> bool:
    return {face_key(tuple(sigma[v] for v in f)) for f in a.faces} == face_keys(b)


@dataclass(frozen=True)
class AutomorphismGroup:
    """Vertex generators plus a breadth-first tree over the start flag's orbit.

    Aut acts freely on flags, so orbit flag k names one element: the
    automorphism taking the start flag to it.  Element 0 is the identity
    and element k is ``generators[via[k]]`` after element ``parent[k]``.
    """

    vertex_count: int
    generators: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]
    via: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.parent)

    @property
    def permutations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self)

    def __iter__(self):
        """Elements in orbit order, holding only those with children still to come."""
        held = [tuple(range(self.vertex_count))]
        first = 0  # the element number of held[0]; parents never decrease
        yield held[0]
        for p, j in zip(self.parent[1:], self.via[1:]):
            del held[: p - first]
            first = p
            held.append(itemgetter(*held[0])(self.generators[j]))  # generator after held[0]
            yield held[-1]


def automorphism_group(m: PolyhedralMap) -> AutomorphismGroup:
    """The group generated by the automorphisms the canonical search found.

    Complete because the search's orbit of its best start flag is the
    full flag orbit, whose size is the group order; the orbit reached
    from the generators is checked against that size, and every
    generator against the face set.
    """
    group = m._cache.get("autgroup")
    if group is not None:
        return group
    search = _search(m)
    flag_vertex = flag_system(m).flag_vertex
    generators = []
    for perm in search.generators:
        sigma = [0] * m.vertex_count
        for a, b in enumerate(perm):
            sigma[flag_vertex[a]] = flag_vertex[b]
        sigma = tuple(sigma)
        if not _maps_faces(m, m, sigma):
            raise SymmetryCheckFailed("flag automorphism does not preserve the faces")
        generators.append(sigma)

    orbit, parent, via = [search.start], [-1], [-1]
    seen = {search.start}
    for k, fl in enumerate(orbit):
        for j, perm in enumerate(search.generators):
            if perm[fl] not in seen:
                seen.add(perm[fl])
                orbit.append(perm[fl])
                parent.append(k)
                via.append(j)
    if len(orbit) != search.orbit_size:
        raise SymmetryCheckFailed(
            f"generated group has {len(orbit)} elements, "
            f"but the start flag orbit has {search.orbit_size}"
        )

    root = list(range(m.vertex_count))
    for sigma in generators:
        for v, w in enumerate(sigma):
            root[_find(root, w)] = _find(root, v)
    orbits = {}  # keyed by root, in order of each orbit's least vertex
    for v in range(m.vertex_count):
        orbits.setdefault(_find(root, v), []).append(v)
    orbits = tuple(map(tuple, orbits.values()))
    group = AutomorphismGroup(m.vertex_count, tuple(generators), tuple(parent), tuple(via), orbits)
    m._cache["autgroup"] = group
    return group


def is_vertex_transitive(m: PolyhedralMap) -> bool:
    return len(automorphism_group(m).orbits) == 1


# --------------------------------------------------------------------------
# antipodal symmetry and the projective-plane quotient


def is_free_involution(m: PolyhedralMap, sigma) -> bool:
    """Order-2 automorphism with no fixed vertex, edge or face."""
    n = m.vertex_count
    if len(sigma) != n or sorted(sigma) != list(range(n)):
        return False
    if any(sigma[sigma[v]] != v or sigma[v] == v for v in range(n)):
        return False
    if not _maps_faces(m, m, sigma):
        return False
    if any({sigma[u], sigma[v]} == {u, v} for u, v in m.edges):
        return False
    return all(face_key(tuple(sigma[v] for v in f)) != face_key(f) for f in m.faces)


def free_involutions(m: PolyhedralMap) -> list[tuple[int, ...]]:
    """All automorphisms of order 2 acting freely on vertices, edges and faces."""
    return sorted(s for s in automorphism_group(m) if is_free_involution(m, s))


def quotient(m: PolyhedralMap, sigma) -> PolyhedralMap:
    """Identify antipodal cells; valid results live on the projective plane."""
    if not is_free_involution(m, sigma):
        raise InvalidInvolution("permutation is not a free involution of the map")
    reps = sorted(v for v in range(m.vertex_count) if v < sigma[v])
    new_id = {}
    for i, v in enumerate(reps):
        new_id[v] = i
        new_id[sigma[v]] = i

    qfaces = []
    seen_keys = set()
    for f in m.faces:
        img = tuple(new_id[v] for v in f)
        key = face_key(img)
        if key not in seen_keys:
            seen_keys.add(key)
            qfaces.append(img)
    try:
        q = build_map(qfaces)
    except MapBuildError as exc:
        raise NonPolyhedralQuotient(f"quotient is not polyhedral: {exc}") from exc
    if q.euler_characteristic != 1:
        raise NonPolyhedralQuotient(
            f"quotient has Euler characteristic {q.euler_characteristic}"
        )
    return q


def double_cover(y: PolyhedralMap) -> tuple[PolyhedralMap, tuple[int, ...]]:
    """Orientation double cover of a projective-plane map, with its deck swap.

    A cover vertex is a base vertex with a direction of its link cycle:
    ``2v`` follows ``y.links[v]`` and ``2v+1`` runs against it.  Each
    face lifts twice, read forward and reversed; a lifted face passing
    ``a -> v -> b`` uses ``2v`` exactly when ``b`` follows ``a`` in
    ``y.links[v]``.  The deck swap is ``w ^ 1``.
    """
    if y.euler_characteristic == 2:
        raise AlreadySpherical("map is already on the sphere")
    # succ[v][a]: the neighbour that follows a in v's link cycle
    succ = [dict(zip(link, link[1:] + link[:1])) for link in y.links]

    def lift(f):
        # f passes f[j-1] -> v -> f[j+1] at corner j
        return tuple(
            2 * v + (succ[v][f[j - 1]] != f[(j + 1) % len(f)]) for j, v in enumerate(f)
        )

    cover = build_map(lift(g) for f in y.faces for g in (f, f[::-1]))
    deck = tuple(w ^ 1 for w in range(cover.vertex_count))

    if cover.euler_characteristic != 2:
        raise SymmetryCheckFailed("double cover is not a sphere")
    if cover.vertex_count != 2 * y.vertex_count:
        raise SymmetryCheckFailed("double cover does not have twice the vertices")
    if not is_free_involution(cover, deck):
        raise SymmetryCheckFailed("deck transformation is not free")
    return cover, deck


def cycle_notation(sigma) -> str:
    """Permutation in cycle notation, fixed points omitted; identity is ().

    >>> cycle_notation((1, 2, 0, 4, 3))
    '(0 1 2)(3 4)'
    >>> cycle_notation((0, 1))
    '()'
    """
    seen = [False] * len(sigma)
    parts = []
    for v in range(len(sigma)):
        if seen[v] or sigma[v] == v:
            seen[v] = True
            continue
        cycle = [v]
        seen[v] = True
        w = sigma[v]
        while w != v:
            cycle.append(w)
            seen[w] = True
            w = sigma[w]
        parts.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(parts) if parts else "()"
