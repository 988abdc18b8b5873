"""Coordinates on the unit sphere, validation and OFF/SVG export.

``realize_on_sphere`` names a sphere map's catalog entry with
``identify``, realizes the entry and pulls its coordinates back through
the witness.  Prisms and antiprisms have closed forms (``exact-formula``).
The other entries are eigenpolytopes (``eigenvector``; Godsil, "Graphs,
groups and polytopes", 1978), but for the pseudorhombicuboctahedron: the
small rhombicuboctahedron with one square turned.  Every realization meets
1e-12 on norms, edge lengths, planarity and regularity, and has a
convexity margin above 1e-12, or raises ``InvariantViolated``: the map is
then the boundary of a convex polyhedron with regular faces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from semap.catalog import antiprism, entry_by_name, prism
from semap.classify import identify
from semap.errors import CountMismatch, InvariantViolated, MapFormatError, TooLarge
from semap.map_core import PolyhedralMap, square_neighbour_counts
from semap.symmetry import automorphism_group

# every residual of a realization's report stays within this
_TOLERANCE = 1e-12
# eigenvalues closer than this, relative to the top one, are one eigenvalue
_EIGEN_GAP = 1e-9
# Newton on the edge-orbit weights: finite-difference step, the residual
# at round-off level where it stops, and its step cap
_NEWTON_DELTA = 1e-7
_NEWTON_ROUNDOFF = 1e-14
_NEWTON_STEPS = 8

# guards identify's canonical search on large drums, and the convexity
# margin, one distance per face and vertex; exporting prism-1000, at this
# bound, takes about 0.5 s and 62 MiB on two cores
MAX_REALIZE_VERTICES = 2000


@dataclass(frozen=True)
class ValidationReport:
    """Numeric residuals of a realization.

    ``planarity`` is the largest distance of a face vertex from its
    face's best-fit plane; ``regularity`` the largest deviation of face
    edge lengths and circumradii from their per-face means.
    ``convexity_margin`` is the least distance from a face's plane to a
    vertex off the face, negative if some face plane has vertices on
    both sides.  ``iterations`` counts Newton steps; ``converged`` is
    True on every report that is returned.

    A positive margin, with the residuals at zero, makes the map the
    boundary of the convex hull P of its vertices, with regular faces:
    - a planar face with every other vertex strictly on one side of its
      plane is a facet of P;
    - two faces on an edge are not coplanar, as the second face's other
      vertex is off the first one's plane, so no map edge is a diagonal
      of a facet; the face's vertices lie on one circle, so its cycle is
      the facet's boundary;
    - the faces form a closed sphere inside the sphere ∂P, so they are
      all of ∂P.
    """

    unit_norm_deviation: float
    edge_length_spread: float
    max_planarity_residual: float
    max_regularity_residual: float
    convexity_margin: float
    iterations: int = 0
    converged: bool = True

    @property
    def faces_simple(self) -> bool:
        """True if the margin certifies every face as a facet of a convex hull."""
        return self.convexity_margin > _TOLERANCE


@dataclass(frozen=True)
class Realization:
    coordinates: np.ndarray  # (f0, 3)
    provenance: str          # "exact-formula" | "eigenvector"
    report: ValidationReport


def _edge_lengths(m: PolyhedralMap, coords: np.ndarray) -> np.ndarray:
    e = np.array(m.edges)
    return np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1)


def _face_residuals(m: PolyhedralMap, coords: np.ndarray) -> tuple[float, float, float]:
    """Planarity, regularity and convexity margin, each face size at once."""
    planarity = regularity = 0.0
    margin = math.inf
    sizes: dict[int, list] = {}
    for face in m.faces:
        sizes.setdefault(len(face), []).append(face)
    for faces in map(np.array, sizes.values()):
        pts = coords[faces]
        centres = pts.mean(axis=1)
        centred = pts - centres[:, None]
        # the last right singular vector is the normal of the best-fit plane
        normals = np.linalg.svd(centred, full_matrices=False)[2][:, -1]
        planarity = max(planarity, float(np.max(np.abs(np.einsum("fkd,fd->fk", centred, normals)))))
        sides = np.linalg.norm(centred - np.roll(centred, -1, axis=1), axis=2)
        radii = np.linalg.norm(centred, axis=2)
        for lengths in (sides, radii):
            regularity = max(regularity, float(np.abs(lengths - lengths.mean(axis=1, keepdims=True)).max()))
        # the distance of every vertex from every face plane, NaN on the
        # face's own corners; either sign of the normal gives one margin
        d = normals @ coords.T
        d -= np.einsum("fd,fd->f", normals, centres)[:, None]
        d[np.arange(len(faces))[:, None], faces] = np.nan
        margin = min(margin, float(np.min(np.maximum(np.nanmin(d, axis=1), -np.nanmax(d, axis=1)))))
    return planarity, regularity, margin


def _report(m, coords, iterations=0) -> ValidationReport:
    norms = np.linalg.norm(coords, axis=1)
    lengths = _edge_lengths(m, coords)
    planarity, regularity, margin = _face_residuals(m, coords)
    return ValidationReport(
        unit_norm_deviation=float(np.max(np.abs(norms - 1.0))),
        edge_length_spread=float(lengths.max() - lengths.min()),
        max_planarity_residual=planarity,
        max_regularity_residual=regularity,
        convexity_margin=margin,
        iterations=iterations,
    )


def _drum_points(family: str, n: int) -> np.ndarray:
    """Two n-gon rings at heights +h and -h, scaled onto the unit sphere."""
    s, half = math.sin(math.pi / n), math.sin(math.pi / (2 * n))
    twist, h = (0.0, s) if family == "prism" else (math.pi / n, math.sqrt(s * s - half * half))
    a = 2.0 * math.pi * np.arange(n) / n
    top = np.column_stack((np.cos(a + twist), np.sin(a + twist), np.full(n, h)))
    bottom = np.column_stack((np.cos(a), np.sin(a), np.full(n, -h)))
    return np.vstack((top, bottom)) / math.hypot(1.0, h)


def prism_coordinates(n: int) -> Realization:
    """Both n-gon rings at the same angles, scaled onto the unit sphere."""
    m = prism(n).map  # raises NTooSmall below 3
    coords = _drum_points("prism", n)
    return Realization(coords, "exact-formula", _report(m, coords))


def antiprism_coordinates(n: int) -> Realization:
    """Upper ring rotated half a step; triangles come out equilateral."""
    m = antiprism(n).map  # raises NTooSmall below 3
    coords = _drum_points("antiprism", n)
    return Realization(coords, "exact-formula", _report(m, coords))


# --------------------------------------------------------------------------
# realization of every sphere entry


def _eigenspace(a: np.ndarray) -> np.ndarray:
    """Unit rows of the eigenspace of ``a`` just below its top eigenvalue.

    Raises InvariantViolated unless that eigenspace is 3-dimensional.
    """
    values, vectors = np.linalg.eigh(a)  # ascending
    ends = [-1, -1, *np.flatnonzero(np.diff(values) > _EIGEN_GAP * abs(values[-1]))]
    low, high = ends[-2] + 1, ends[-1] + 1
    if high - low != 3:
        raise InvariantViolated(f"the eigenspace below the top one has dimension {high - low}, not 3")
    x = vectors[:, low:high]
    return x / np.linalg.norm(x, axis=1)[:, None]


def _eigenpolytope(m: PolyhedralMap) -> tuple[np.ndarray, int]:
    """Eigenvector coordinates with all edges equal, and the Newton steps taken.

    The adjacency matrix carries one weight per edge orbit of the
    automorphism group, so the edges of an orbit have one length.
    Newton on the weights, the first held at 1, makes the orbits agree.
    """
    index = {e: i for i, e in enumerate(m.edges)}
    least = list(range(m.edge_count))  # the least edge of each edge's orbit
    for sigma in automorphism_group(m):
        for i, (u, v) in enumerate(m.edges):
            least[i] = min(least[i], index[tuple(sorted((sigma[u], sigma[v])))])
    firsts, orbit = np.unique(least, return_inverse=True)
    edges = np.array(m.edges)
    n = m.vertex_count

    def solve(weights):
        a = np.zeros((n, n))
        a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = weights[orbit]
        x = _eigenspace(a)
        lengths = np.linalg.norm(x[edges[firsts, 0]] - x[edges[firsts, 1]], axis=1)
        return x, lengths[1:] - lengths[0]

    weights = np.ones(len(firsts))
    coords, residual = solve(weights)
    steps = 0
    while steps < _NEWTON_STEPS and np.max(np.abs(residual), initial=0.0) > _NEWTON_ROUNDOFF:
        jacobian = np.column_stack([
            (solve(weights + _NEWTON_DELTA * unit)[1] - residual) / _NEWTON_DELTA
            for unit in np.eye(len(weights))[1:]
        ])
        weights[1:] -= np.linalg.solve(jacobian, residual)
        coords, residual = solve(weights)
        steps += 1
    return coords, steps


def _entry_coordinates(name: str) -> tuple[np.ndarray, str, int]:
    """A catalog entry's coordinates, their provenance and Newton steps."""
    family, _, n = name.rpartition("-")
    if family in ("prism", "antiprism"):
        return _drum_points(family, int(n)), "exact-formula", 0
    if name != "pseudo-rhombicuboctahedron":
        coords, steps = _eigenpolytope(entry_by_name(name).map)
        return coords, "eigenvector", steps
    # pseudo_rhombicuboctahedron gyrates the cap on the small
    # rhombicuboctahedron's first axis square and keeps every label, so
    # only that square moves: each corner goes halfway to the next one.
    # Stated by the labels, the turn is blind to the eigenbasis' handedness.
    y = entry_by_name("small-rhombicuboctahedron").map
    coords, steps = _eigenpolytope(y)
    square = list(y.faces[min(i for i, c in square_neighbour_counts(y).items() if c == 4)])
    p = coords[square]
    centre = p.mean(axis=0)
    coords[square] = centre + (p + np.roll(p, -1, axis=0) - 2.0 * centre) / math.sqrt(2.0)
    return coords, "eigenvector", steps


def realize_on_sphere(m: PolyhedralMap) -> Realization:
    """The coordinates of ``m``'s catalog entry, pulled back through its witness.

    Raises CountMismatch off the sphere, TooLarge above
    ``MAX_REALIZE_VERTICES``, NotSemiEquivelar (from ``identify``) on a
    map that is not semi-equivelar, and InvariantViolated if a residual
    exceeds 1e-12 or the convexity margin does not.
    """
    if m.euler_characteristic != 2:
        raise CountMismatch("spherical realization needs a sphere map")
    if m.vertex_count > MAX_REALIZE_VERTICES:
        raise TooLarge(
            f"spherical realization takes at most {MAX_REALIZE_VERTICES} vertices, got {m.vertex_count}"
        )
    verdict = identify(m)
    entry_coords, provenance, steps = _entry_coordinates(verdict.name)
    coords = entry_coords[list(verdict.witness)]
    r = _report(m, coords, steps)
    worst = max(
        r.unit_norm_deviation, r.edge_length_spread, r.max_planarity_residual, r.max_regularity_residual
    )
    if worst > _TOLERANCE or not r.faces_simple:
        raise InvariantViolated(f"{verdict.name}: residual {worst:.1e}, convexity margin {r.convexity_margin:.1e}")
    return Realization(coords, provenance, r)


# --------------------------------------------------------------------------
# export


def export(r: Realization, m: PolyhedralMap, format: str) -> bytes:
    if len(r.coordinates) != m.vertex_count:
        raise CountMismatch(
            f"{len(r.coordinates)} coordinates for {m.vertex_count} vertices"
        )
    if format == "off":
        return _export_off(r, m)
    if format == "svg":
        return _export_svg(r, m)
    raise MapFormatError(f"unknown export format {format!r}")


def _export_off(r: Realization, m: PolyhedralMap) -> bytes:
    lines = ["OFF", f"{m.vertex_count} {m.face_count} {m.edge_count}"]
    for p in r.coordinates:
        lines.append(" ".join(f"{c:.17g}" for c in p))
    for face in m.faces:
        lines.append(f"{len(face)} " + " ".join(str(v) for v in face))
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_off(data: bytes) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Vertex coordinates and faces of OFF data; any flaw is a MapFormatError."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise MapFormatError("OFF data is not ASCII") from None
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and ln[0] != "#"]
    if not rows or rows[0] != ["OFF"]:
        raise MapFormatError("missing OFF header")
    counts = rows[1][:2] if len(rows) > 1 else []
    if len(counts) != 2 or not all(t.isdecimal() for t in counts):
        raise MapFormatError("malformed OFF count line")
    # compare lengths first: int() refuses over 4300 digits
    room = len(rows) - 2
    if any(len(t.lstrip("0")) > len(str(room)) for t in counts) or sum(map(int, counts)) > room:
        raise MapFormatError("OFF data ends before its vertices and faces")
    nv, nf = map(int, counts)
    try:
        coords = [[float(t) for t in row] for row in rows[2 : 2 + nv]]
        faces = [[int(t) for t in row] for row in rows[2 + nv : 2 + nv + nf]]
    except ValueError:
        raise MapFormatError("non-numeric OFF field") from None
    if any(len(p) != 3 for p in coords):
        raise MapFormatError("OFF vertex line without three coordinates")
    for i, tokens in enumerate(faces):
        if tokens[0] != len(tokens) - 1:
            raise MapFormatError(f"face line {i} count mismatch")
    return np.array(coords), [tuple(tokens[1:]) for tokens in faces]


def _export_svg(r: Realization, m: PolyhedralMap, segments: int = 32) -> bytes:
    coords = np.array(r.coordinates, dtype=float)
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    # nudge away from the projection pole by a fixed rotation if needed
    while np.any(coords[:, 2] > 1.0 - 1e-6):
        c, s = math.cos(0.1), math.sin(0.1)
        rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
        coords = coords @ rot.T

    def project(p):
        return p[0] / (1.0 - p[2]), p[1] / (1.0 - p[2])

    paths = []
    extent = 1.0
    for u, v in m.edges:
        a, b = coords[u], coords[v]
        dot = float(np.clip(np.dot(a, b), -1.0, 1.0))
        angle = math.acos(dot)
        points = []
        for k in range(segments + 1):
            t = k / segments
            if angle < 1e-12:
                q = a
            else:
                q = (
                    math.sin((1 - t) * angle) * a + math.sin(t * angle) * b
                ) / math.sin(angle)
            q = q / np.linalg.norm(q)
            x, y = project(q)
            extent = max(extent, abs(x), abs(y))
            points.append((x, y))
        paths.append(points)

    size = 800.0
    scale = size / (2.2 * extent)

    def to_px(x, y):
        return size / 2 + scale * x, size / 2 - scale * y

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
    ]
    for points in paths:
        d = "M " + " L ".join(f"{to_px(x, y)[0]:.3f} {to_px(x, y)[1]:.3f}" for x, y in points)
        parts.append(f'<path d="{escape(d)}" fill="none" stroke="black" stroke-width="1"/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
