"""The catalog of semi-equivelar maps on the sphere and projective plane.

Only three Platonic face lists are hard-coded; everything else is
produced by operator recipes (so the operator laws are exercised every
time the catalog is built), by the drum face lists for the two infinite
families, by cap gyration for the pseudorhombicuboctahedron, and by
antipodal quotients for the projective-plane entries.  The Archimedean
recipes are the rows of one table, ``DERIVATIONS``, which
``semap.classify.identify`` walks backwards.

The constructors whose names form a finite set are memoized, so each
of those entries, and the certificate cached on its map, is built once
per process and shared by every caller.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass

from semap import operators
from semap.errors import (
    InvariantViolated,
    MaxGonTooSmall,
    NoFreeInvolution,
    NTooSmall,
    TooLarge,
    UnknownName,
)
from semap.map_core import PolyhedralMap, build_map, format_map_text, square_neighbour_counts
from semap.vtype import MAX_GON, VertexType

_TETRAHEDRON = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
_OCTAHEDRON = (
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 4),
    (0, 4, 1),
    (1, 2, 5),
    (2, 3, 5),
    (3, 4, 5),
    (4, 1, 5),
)
# gyroelongated pentagonal bipyramid: poles 0 and 11, rings 1-5 and 6-10
_ICOSAHEDRON = tuple(
    [(0, 1 + k, 1 + (k + 1) % 5) for k in range(5)]
    + [(1 + k, 6 + k, 1 + (k + 1) % 5) for k in range(5)]
    + [(6 + k, 6 + (k + 1) % 5, 1 + (k + 1) % 5) for k in range(5)]
    + [(11, 6 + (k + 1) % 5, 6 + k) for k in range(5)]
)

PLATONIC_NAMES = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")

# Archimedean name -> (function of semap.operators, the entry it is
# applied to).  Operators are named, not held: each call looks the
# function up on the module, so a wrapper bound there (as perfbench's
# tracer binds one) sees every call.
DERIVATIONS = {
    "truncated-tetrahedron": ("truncate", "tetrahedron"),
    "truncated-cube": ("truncate", "cube"),
    "truncated-octahedron": ("truncate", "octahedron"),
    "truncated-dodecahedron": ("truncate", "dodecahedron"),
    "truncated-icosahedron": ("truncate", "icosahedron"),
    "cuboctahedron": ("rectify", "cube"),
    "icosidodecahedron": ("rectify", "dodecahedron"),
    "small-rhombicuboctahedron": ("rectify", "cuboctahedron"),
    "great-rhombicuboctahedron": ("truncate", "cuboctahedron"),
    "small-rhombicosidodecahedron": ("rectify", "icosidodecahedron"),
    "great-rhombicosidodecahedron": ("truncate", "icosidodecahedron"),
    "snub-cube": ("insert_diagonal_matching", "small-rhombicuboctahedron"),
    "snub-dodecahedron": ("insert_diagonal_matching", "small-rhombicosidodecahedron"),
}

ARCHIMEDEAN_NAMES = tuple(DERIVATIONS)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    map: PolyhedralMap
    vertex_type: VertexType
    vertex_count: int
    recipe: str


def _entry(name: str, m: PolyhedralMap, recipe: str) -> CatalogEntry:
    from semap.vtype import predicted_vertex_count, semi_equivelar_type

    t = semi_equivelar_type(m)
    if not isinstance(t, VertexType):
        raise InvariantViolated(f"{name} is not semi-equivelar: {t}")
    if m.vertex_count != predicted_vertex_count(t):
        raise InvariantViolated(
            f"{name} has {m.vertex_count} vertices but type {t} forces {predicted_vertex_count(t)}"
        )
    return CatalogEntry(name, m, t, m.vertex_count, recipe)


def prism(n: int) -> CatalogEntry:
    """Drum over an n-gon: rings u_0..u_{n-1} and b_0..b_{n-1} = n..2n-1."""
    if n < 3:
        raise NTooSmall(f"prism needs n >= 3, got {n}")
    top = tuple(range(n))
    bottom = tuple(range(n, 2 * n))
    faces = [top, bottom]
    for i in range(n):
        j = (i + 1) % n
        faces.append((i, j, n + j, n + i))
    return _entry(f"prism-{n}", build_map(faces), f"prism({n})")


def antiprism(n: int) -> CatalogEntry:
    """Twisted drum: 2n triangles between the two n-gon rings."""
    if n < 3:
        raise NTooSmall(f"antiprism needs n >= 3, got {n}")
    top = tuple(range(n))
    bottom = tuple(range(n, 2 * n))
    faces = [top, bottom]
    for i in range(n):
        j = (i + 1) % n
        faces.append((i, n + i, n + j))
        faces.append((i, n + j, j))
    return _entry(f"antiprism-{n}", build_map(faces), f"antiprism({n})")


@functools.cache
def platonic(name: str) -> CatalogEntry:
    if name == "tetrahedron":
        return _entry(name, build_map(_TETRAHEDRON), "face list")
    if name == "octahedron":
        return _entry(name, build_map(_OCTAHEDRON), "face list")
    if name == "icosahedron":
        return _entry(name, build_map(_ICOSAHEDRON), "face list")
    if name == "cube":
        return _entry(name, prism(4).map, "prism(4)")
    if name == "dodecahedron":
        return _entry(name, operators.dual(platonic("icosahedron").map), "dual(icosahedron)")
    raise UnknownName(f"unknown Platonic solid {name!r}")


@functools.cache
def archimedean(name: str) -> CatalogEntry:
    try:
        op, base = DERIVATIONS[name]
    except KeyError:
        raise UnknownName(f"unknown Archimedean solid {name!r}") from None
    return _entry(name, getattr(operators, op)(entry_by_name(base).map), f"{op}({base})")


@functools.cache
def pseudo_rhombicuboctahedron() -> CatalogEntry:
    """Gyrate one square cupola of the small rhombicuboctahedron.

    The cap around an axis square (the square with four square
    neighbours) is detached along its octagonal rim and reattached one
    rim step around.  The square-neighbour signature (8, 8, 2) pins the
    result; see classify.square_type_counts.
    """
    y = archimedean("small-rhombicuboctahedron").map
    axis = min(i for i, c in square_neighbour_counts(y).items() if c == 4)

    beta = set(y.faces[axis])
    cap = {axis}
    for fi, face in enumerate(y.faces):
        if fi != axis and set(face) & beta:
            cap.add(fi)
    if len(cap) != 9:
        raise InvariantViolated("cap is not one square, four squares and four triangles")

    boundary_edges = [
        e
        for e, ((f1, _), (f2, _)) in y.edge_corners.items()
        if (f1 in cap) != (f2 in cap)
    ]
    rim_adj: dict[int, list[int]] = {}
    for u, v in boundary_edges:
        rim_adj.setdefault(u, []).append(v)
        rim_adj.setdefault(v, []).append(u)
    if any(len(nb) != 2 for nb in rim_adj.values()):
        raise InvariantViolated("cap boundary is not a cycle")
    start = min(rim_adj)
    rim = [start, min(rim_adj[start])]
    while True:
        nxt = [w for w in rim_adj[rim[-1]] if w != rim[-2]][0]
        if nxt == start:
            break
        rim.append(nxt)
    if len(rim) != 8:
        raise InvariantViolated("cap rim is not an octagon")

    shift = {rim[i]: rim[(i + 1) % 8] for i in range(8)}
    faces = []
    for fi, face in enumerate(y.faces):
        if fi in cap:
            faces.append(tuple(shift.get(v, v) for v in face))
        else:
            faces.append(face)
    m = build_map(faces)
    entry = _entry(
        "pseudo-rhombicuboctahedron", m, "gyrate(small-rhombicuboctahedron)"
    )
    from semap.classify import square_type_counts

    counts = square_type_counts(m)
    if (counts.s2, counts.s3, counts.s4) != (8, 8, 2):
        raise InvariantViolated(f"gyration gave square-type counts {counts}")
    return entry


# sphere_catalog(200) takes seconds and about 90 MiB; memory grows with
# the square of the bound
MAX_CATALOG_GON = 200


def entry_by_name(name: str) -> CatalogEntry:
    """Resolve any catalog grammar name, including prism-N / antiprism-N."""
    if name in PLATONIC_NAMES:
        return platonic(name)
    if name in ARCHIMEDEAN_NAMES:
        return archimedean(name)
    if name == "pseudo-rhombicuboctahedron":
        return pseudo_rhombicuboctahedron()
    for prefix, maker in (("prism-", prism), ("antiprism-", antiprism)):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if not suffix.isdecimal():
                raise UnknownName(f"bad family parameter in {name!r}")
            # a drum's largest face is its N-gon; compare the length
            # first: int() refuses over 4300 digits
            digits = suffix.lstrip("0") or "0"
            if len(digits) > len(str(MAX_GON)) or int(digits) > MAX_GON:
                raise TooLarge(f"{prefix}N needs N <= {MAX_GON}")
            return maker(int(digits))
    raise UnknownName(f"unknown catalog name {name!r}")


def sphere_catalog(max_gon: int) -> list[CatalogEntry]:
    """All spherical entries with face sizes up to ``max_gon``.

    Prism-4 and antiprism-3 are left out: they duplicate the cube and
    the octahedron.
    """
    if max_gon < 12:
        raise MaxGonTooSmall(f"max_gon {max_gon} < 12")
    if max_gon > MAX_CATALOG_GON:
        raise TooLarge(f"max_gon {max_gon} > {MAX_CATALOG_GON}")
    entries = [platonic(name) for name in PLATONIC_NAMES]
    entries.extend(archimedean(name) for name in ARCHIMEDEAN_NAMES)
    entries.append(pseudo_rhombicuboctahedron())
    entries.extend(prism(n) for n in range(3, max_gon + 1) if n != 4)
    entries.extend(antiprism(n) for n in range(4, max_gon + 1))
    return entries


_RP2_BASES = (
    "icosahedron",
    "dodecahedron",
    "truncated-octahedron",
    "icosidodecahedron",
    "small-rhombicuboctahedron",
    "great-rhombicuboctahedron",
    "small-rhombicosidodecahedron",
    "great-rhombicosidodecahedron",
    "truncated-dodecahedron",
    "truncated-icosahedron",
)


def rp2_catalog() -> list[CatalogEntry]:
    """The ten projective-plane entries: antipodal quotients of the
    centrally symmetric catalog solids."""
    from semap.symmetry import free_involutions, quotient
    from semap.vtype import semi_equivelar_type

    entries = []
    for base_name in _RP2_BASES:
        base = entry_by_name(base_name)
        involutions = free_involutions(base.map)
        if not involutions:
            raise NoFreeInvolution(f"{base_name} has no antipodal symmetry")
        q = quotient(base.map, involutions[0])
        t = semi_equivelar_type(q)
        entries.append(
            CatalogEntry(
                f"rp2-{base_name}", q, t, q.vertex_count, f"quotient({base_name})"
            )
        )
    return entries


def write_catalog(entries: list[CatalogEntry], directory: str) -> str:
    """Serialize entries as text map files plus a tab-separated manifest."""
    os.makedirs(directory, exist_ok=True)
    lines = []
    for e in entries:
        path = os.path.join(directory, f"{e.name}.map")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_map_text(e.map))
        lines.append(f"{e.name}\t{e.vertex_type}\t{e.vertex_count}\t{e.recipe}")
    manifest = os.path.join(directory, "manifest.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest
