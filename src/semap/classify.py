"""Decision procedure for spherical semi-equivelar maps.

``identify`` names the catalog entry of any valid spherical input by
walking ``catalog.DERIVATIONS`` backwards through the inverse operators
(contract corner polygons, undo rectification, open the snub matching)
down to the Platonic, prism and antiprism base cases, then certifies
the answer with an isomorphism witness.  ``exhaustive_generate`` is the
independent small-scale oracle: a backtracking search over face lists
whose complete maps are merged up to isomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass

from semap import operators
from semap.catalog import DERIVATIONS, PLATONIC_NAMES, derivation_type, entry_by_name, platonic
from semap.errors import (
    ClassificationViolation,
    CountMismatch,
    InvariantViolated,
    NotSemiEquivelar,
    TooLarge,
    WrongShape,
    WrongSphere,
)
from semap.map_core import (
    PolyhedralMap,
    build_map,
    faces_meet_properly,
    format_map_text,
    square_neighbour_counts,
)
from semap.symmetry import are_isomorphic, canonical_certificate, cycle_notation, isomorphism_witness
from semap.vtype import (
    VertexType,
    drum_family,
    normalize,
    predicted_vertex_count,
    semi_equivelar_type,
)


@dataclass(frozen=True)
class SquareTypeCounts:
    """How many squares touch 2, 3 and 4 other squares along edges."""

    s2: int
    s3: int
    s4: int


def square_type_counts(m: PolyhedralMap) -> SquareTypeCounts:
    t = semi_equivelar_type(m)
    if not isinstance(t, VertexType) or t != normalize((3, 4, 4, 4)) or m.vertex_count != 24:
        raise WrongShape("square-type counts need a 24-vertex map of type [3,4^3]")
    counts = [0, 0, 0]
    for c in square_neighbour_counts(m).values():
        if not 2 <= c <= 4:
            raise _violation(m, f"a square meets {c} other squares, not 2..4")
        counts[c - 2] += 1
    result = SquareTypeCounts(*counts)
    if 2 * result.s2 + result.s3 != 24 or result.s2 + result.s3 + result.s4 != 18:
        raise _violation(m, f"square-type counts {result} break the square census")
    return result


@dataclass(frozen=True)
class Verdict:
    name: str
    witness: tuple[int, ...]

    def describe(self) -> str:
        return f"name={self.name} witness={cycle_notation(self.witness)}"


# forward operator of catalog.DERIVATIONS -> the function of
# semap.operators that undoes it
_INVERSES = {
    "truncate": "inverse_truncation",
    "rectify": "inverse_rectification",
    "insert_diagonal_matching": "remove_deep_blue",
}


def _violation(m: PolyhedralMap, message: str) -> ClassificationViolation:
    return ClassificationViolation(message, map_text=format_map_text(m))


def _derive_name(m: PolyhedralMap, t: VertexType) -> str:
    if len(t.runs) == 1:
        for name in PLATONIC_NAMES:
            if are_isomorphic(m, platonic(name).map):
                return name
        raise _violation(m, f"[q^p] map of type {t} matches no Platonic boundary")

    drum = drum_family(t)
    if drum is not None:
        return f"{drum[0]}-{drum[1]}"

    if t == normalize((3, 4, 4, 4)):
        counts = square_type_counts(m)
        if counts.s4 == 6:
            return "small-rhombicuboctahedron"
        if counts.s4 == 2:
            return "pseudo-rhombicuboctahedron"
        raise _violation(m, f"unexpected square-type counts {counts}")

    for name, (op, base) in DERIVATIONS.items():
        if derivation_type(name) == t:
            inverse = _INVERSES[op]
            inner = getattr(operators, inverse)(m)
            inner_name = _derive_name(inner, _type_of(inner))
            if inner_name != base:
                raise _violation(m, f"{inverse} led to {inner_name}, not {base}")
            return name

    raise _violation(m, f"no reduction applies to type {t}")


def _type_of(m: PolyhedralMap) -> VertexType:
    t = semi_equivelar_type(m)
    if isinstance(t, NotSemiEquivelar):
        raise t
    return t


def identify(m: PolyhedralMap) -> Verdict:
    """Name the catalog entry isomorphic to ``m`` and prove it.

    The name is derived by walking ``catalog.DERIVATIONS`` backwards:
    the row whose type under the type law (``catalog.derivation_type``)
    is ``m``'s names an inverse operator, whose result must reduce to
    that row's base, down to the Platonic, prism and antiprism cases.
    The walk builds no Archimedean entry.  The reduction chain is not
    returned; the witness comes from a final certificate comparison
    against the named entry.
    """
    if m.euler_characteristic != 2:
        raise WrongSphere(f"Euler characteristic {m.euler_characteristic}, need 2")
    t = _type_of(m)
    if predicted_vertex_count(t) != m.vertex_count:
        raise _violation(
            m, f"{m.vertex_count} vertices but type {t} forces {predicted_vertex_count(t)}"
        )
    try:
        name = _derive_name(m, t)
    except WrongShape as exc:
        raise _violation(m, f"reduction failed: {exc}") from exc
    entry = entry_by_name(name)
    witness = isomorphism_witness(m, entry.map)
    if witness is None:
        raise _violation(m, f"derived name {name} but certificates differ")
    return Verdict(name, witness)


# --------------------------------------------------------------------------
# isomorph-free exhaustive generation (the small-scale uniqueness oracle)


class _Generator:
    def __init__(self, count: int, t: VertexType):
        self.n = count
        self.t = t
        self.d = t.degree
        self.mult = t.size_multiset()
        # face sizes tried in the order they appear in the target type
        self.size_order = list(dict.fromkeys(t.sizes))
        self.faces: list[tuple[int, ...]] = []
        self.edge_uses: dict[tuple[int, int], int] = {}
        self.corners: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        self.sizes_at: list[dict[int, int]] = [{} for _ in range(count)]
        self.used = 0
        self.results: dict[bytes, PolyhedralMap] = {}

    # -- corner-fan bookkeeping ---------------------------------------

    def _fan_ok(self, v: int) -> bool:
        """Corners at v must form disjoint paths, or one full cycle at degree d."""
        corners = self.corners[v]
        deg: dict[int, int] = {}
        adj: dict[int, list[int]] = {}
        for a, b in corners:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if any(c > 2 for c in deg.values()):
            return False
        components = 0
        seen: set[int] = set()
        for start in adj:
            if start in seen:
                continue
            components += 1
            stack = [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        if len(corners) == self.d:
            # the final corner must close one cycle through all d neighbours
            return (
                len(adj) == self.d
                and components == 1
                and all(c == 2 for c in deg.values())
            )
        # otherwise disjoint simple paths: E = V - #components, no cycles
        return len(corners) == len(adj) - components

    def _complete(self, v: int) -> bool:
        return len(self.corners[v]) == self.d

    # -- face commit / rollback ----------------------------------------

    def _try_add(self, seq: tuple[int, ...]) -> bool:
        k = len(seq)
        vertices = set(seq)
        for f in self.faces:
            shared = vertices.intersection(f)
            if shared:
                u = min(shared)
                if not faces_meet_properly(f, f.index(u), seq, seq.index(u), shared):
                    return False
        for i in range(k):
            a, b = seq[i], seq[(i + 1) % k]
            e = (a, b) if a < b else (b, a)
            if self.edge_uses.get(e, 0) >= 2:
                return False
        for v in seq:
            if len(self.corners[v]) >= self.d:
                return False
            if self.sizes_at[v].get(k, 0) >= self.mult.get(k, 0):
                return False

        # commit
        for i in range(k):
            a, b = seq[i], seq[(i + 1) % k]
            e = (a, b) if a < b else (b, a)
            self.edge_uses[e] = self.edge_uses.get(e, 0) + 1
        for i in range(k):
            v = seq[i]
            self.corners[v].append((seq[i - 1], seq[(i + 1) % k]))
            self.sizes_at[v][k] = self.sizes_at[v].get(k, 0) + 1
        self.faces.append(seq)

        if all(self._fan_ok(v) for v in seq):
            return True
        self._remove_last()
        return False

    def _remove_last(self) -> None:
        seq = self.faces.pop()
        k = len(seq)
        for i in range(k):
            a, b = seq[i], seq[(i + 1) % k]
            e = (a, b) if a < b else (b, a)
            self.edge_uses[e] -= 1
            if self.edge_uses[e] == 0:
                del self.edge_uses[e]
        for v in seq:
            self.corners[v].pop()
            self.sizes_at[v][k] -= 1

    # -- search ----------------------------------------------------------

    def run(self) -> list[PolyhedralMap]:
        seed_size = max(self.t.sizes)
        if seed_size > self.n:
            return []
        seed = tuple(range(seed_size))
        self.used = seed_size
        if not self._try_add(seed):
            raise InvariantViolated(f"seed face {seed} rejected by an empty map")
        self._extend()
        self._remove_last()
        return [self.results[c] for c in sorted(self.results)]

    def _open_vertex(self) -> int | None:
        for v in range(self.used):
            if self.corners[v] and not self._complete(v):
                return v
        return None

    def _extend(self) -> None:
        v_star = self._open_vertex()
        if v_star is None:
            if self.used == self.n and all(
                self._complete(v) for v in range(self.n)
            ):
                self._record()
            return
        # lowest open edge at the lowest incomplete vertex
        open_ends = []
        for (a, b), c in self.edge_uses.items():
            if c == 1:
                if a == v_star:
                    open_ends.append(b)
                elif b == v_star:
                    open_ends.append(a)
        if not open_ends:
            raise InvariantViolated(f"incomplete fan at {v_star} leaves no open edge")
        u = min(open_ends)
        for size in self.size_order:
            if self.sizes_at[v_star].get(size, 0) >= self.mult.get(size, 0):
                continue
            self._faces_through(v_star, u, size)

    def _faces_through(self, v_star: int, u: int, size: int) -> None:
        path = [u, v_star]
        in_path = {u, v_star}

        def extend_path() -> None:
            if len(path) == size:
                last = path[-1]
                e = (last, u) if last < u else (u, last)
                if self.edge_uses.get(e, 0) >= 2:
                    return
                seq = tuple(path)
                if self._try_add(seq):
                    self._extend()
                    self._remove_last()
                return
            last = path[-1]
            limit = min(self.used + 1, self.n)
            for w in range(limit):
                if w in in_path:
                    continue
                e = (last, w) if last < w else (w, last)
                if self.edge_uses.get(e, 0) >= 2:
                    continue
                if w < self.used and len(self.corners[w]) >= self.d:
                    continue
                if w < self.used and self.sizes_at[w].get(size, 0) >= self.mult.get(size, 0):
                    continue
                was_fresh = w == self.used
                if was_fresh:
                    self.used += 1
                path.append(w)
                in_path.add(w)
                extend_path()
                path.pop()
                in_path.remove(w)
                if was_fresh:
                    self.used -= 1

        extend_path()

    def _record(self) -> None:
        m = build_map(list(self.faces))
        t = semi_equivelar_type(m)
        if not isinstance(t, VertexType) or t != self.t:
            return
        code = canonical_certificate(m).code
        if code not in self.results:
            self.results[code] = m


def exhaustive_generate(count: int, t: VertexType) -> list[PolyhedralMap]:
    """All maps with ``count`` vertices of type ``t``, pairwise
    non-isomorphic.

    A backtracking search over face lists finds every complete map,
    isomorphic copies included; duplicates are merged by canonical
    certificate at the leaves, not pruned during the search.

    Deliberately capped at 12 vertices: large enough for every
    uniqueness base case, small enough for a runtime guarantee.
    """
    if count > 12:
        raise TooLarge(f"generation capped at 12 vertices, asked for {count}")
    if predicted_vertex_count(t) != count:
        raise CountMismatch(
            f"type {t} forces {predicted_vertex_count(t)} vertices, not {count}"
        )
    return _Generator(count, t).run()
