"""Coordinates on the unit sphere, validation and OFF/SVG export.

Prisms and antiprisms have closed-form coordinates; everything else is
realised by a planar embedding lifted to the sphere and relaxed toward
equal edge lengths.  Closed-form realizations are tagged
``exact-formula`` and meet tight tolerances (1e-12 on norms, 1e-9 on
derived identities); relaxed ones are tagged ``relaxed`` and only their
invariants are guaranteed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from semap.catalog import antiprism, prism
from semap.errors import ConvergenceFailure, CountMismatch, MapFormatError, NTooSmall, TooLarge
from semap.map_core import PolyhedralMap

_STEP_BUDGET = 100_000
_STEP_TOLERANCE = 1e-12

# realize_on_sphere solves a dense n x n system for the planar layout;
# exporting prism-1000, at this bound, takes 4 to 8 s on two cores
MAX_REALIZE_VERTICES = 2000


@dataclass(frozen=True)
class ValidationReport:
    """Numeric residuals of a realization.

    ``planarity`` is the largest distance of a face vertex from its
    face's best-fit plane; ``regularity`` the largest deviation of face
    edge lengths and circumradii from their per-face means.
    ``faces_simple`` records the per-face simple-polygon validation
    (the only crossing check performed).
    """

    unit_norm_deviation: float
    edge_length_spread: float
    max_planarity_residual: float
    max_regularity_residual: float
    iterations: int = 0
    converged: bool = True
    faces_simple: bool = True


@dataclass(frozen=True)
class Realization:
    coordinates: np.ndarray  # (f0, 3)
    provenance: str          # "exact-formula" | "relaxed"
    report: ValidationReport


def _edge_lengths(m: PolyhedralMap, coords: np.ndarray) -> np.ndarray:
    e = np.array(m.edges)
    return np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1)


def _face_residuals(m: PolyhedralMap, coords: np.ndarray) -> tuple[float, float]:
    planarity = 0.0
    regularity = 0.0
    for face in m.faces:
        pts = coords[list(face)]
        centre = pts.mean(axis=0)
        centred = pts - centre
        # smallest singular value = max deviation scale from best-fit plane
        _, s, vt = np.linalg.svd(centred, full_matrices=False)
        normal = vt[-1]
        planarity = max(planarity, float(np.max(np.abs(centred @ normal))))
        sides = np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1)
        radii = np.linalg.norm(centred, axis=1)
        regularity = max(
            regularity,
            float(np.max(np.abs(sides - sides.mean()))),
            float(np.max(np.abs(radii - radii.mean()))),
        )
    return planarity, regularity


def _segments_cross(p, q, r, s) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    return (
        orient(p, q, r) * orient(p, q, s) < 0
        and orient(r, s, p) * orient(r, s, q) < 0
    )


def _faces_simple(m: PolyhedralMap, coords: np.ndarray) -> bool:
    """Per-face check: distinct vertices, non-crossing boundary.

    Each face is projected to its best-fit plane; non-adjacent boundary
    segments must not intersect there.
    """
    for face in m.faces:
        pts = coords[list(face)]
        k = len(face)
        for i in range(k):
            for j in range(i + 1, k):
                if np.linalg.norm(pts[i] - pts[j]) < 1e-9:
                    return False
        centre = pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts - centre, full_matrices=False)
        flat = (pts - centre) @ vt[:2].T
        for i in range(k):
            a, b = flat[i], flat[(i + 1) % k]
            for j in range(i + 1, k):
                if j == i or (j + 1) % k == i or j == (i + 1) % k:
                    continue
                c, d = flat[j], flat[(j + 1) % k]
                if _segments_cross(a, b, c, d):
                    return False
    return True


def _report(m, coords, iterations=0, converged=True) -> ValidationReport:
    norms = np.linalg.norm(coords, axis=1)
    lengths = _edge_lengths(m, coords)
    planarity, regularity = _face_residuals(m, coords)
    return ValidationReport(
        unit_norm_deviation=float(np.max(np.abs(norms - 1.0))),
        edge_length_spread=float(lengths.max() - lengths.min()),
        max_planarity_residual=planarity,
        max_regularity_residual=regularity,
        iterations=iterations,
        converged=converged,
        faces_simple=_faces_simple(m, coords),
    )


def prism_coordinates(n: int) -> Realization:
    """Both n-gon rings at the same angles, scaled onto the unit sphere."""
    if n < 3:
        raise NTooSmall(f"prism needs n >= 3, got {n}")
    m = prism(n).map
    scale = (1.0 + math.sin(math.pi / n) ** 2) ** -0.5
    h = math.sin(math.pi / n)
    coords = np.empty((2 * n, 3))
    for k in range(n):
        a = 2.0 * k * math.pi / n
        coords[k] = (math.cos(a), math.sin(a), h)
        coords[n + k] = (math.cos(a), math.sin(a), -h)
    coords *= scale
    return Realization(coords, "exact-formula", _report(m, coords))


def antiprism_coordinates(n: int) -> Realization:
    """Upper ring rotated half a step; triangles come out equilateral."""
    if n < 3:
        raise NTooSmall(f"antiprism needs n >= 3, got {n}")
    m = antiprism(n).map
    s2 = math.sin(math.pi / n) ** 2
    scale = (s2 + math.cos(math.pi / (2 * n)) ** 2) ** -0.5
    h = math.sqrt(s2 - math.sin(math.pi / (2 * n)) ** 2)
    coords = np.empty((2 * n, 3))
    for k in range(n):
        a_up = (2 * k + 1) * math.pi / n
        a_dn = 2 * k * math.pi / n
        coords[k] = (math.cos(a_up), math.sin(a_up), h)
        coords[n + k] = (math.cos(a_dn), math.sin(a_dn), -h)
    coords *= scale
    return Realization(coords, "exact-formula", _report(m, coords))


# --------------------------------------------------------------------------
# generic spherical realization


def _tutte_plane(m: PolyhedralMap) -> np.ndarray:
    """Planar layout: largest face pinned to a circle, rest harmonic."""
    outer = max(range(len(m.faces)), key=lambda i: (len(m.faces[i]), -i))
    boundary = m.faces[outer]
    n = m.vertex_count
    pos = np.zeros((n, 2))
    pinned = np.zeros(n, dtype=bool)
    k = len(boundary)
    for i, v in enumerate(boundary):
        a = 2.0 * math.pi * i / k
        pos[v] = (math.cos(a), math.sin(a))
        pinned[v] = True
    inner = [v for v in range(n) if not pinned[v]]
    if inner:
        index = {v: i for i, v in enumerate(inner)}
        a_mat = np.zeros((len(inner), len(inner)))
        rhs = np.zeros((len(inner), 2))
        for v in inner:
            i = index[v]
            nbrs = m.links[v]
            a_mat[i, i] = len(nbrs)
            for u in nbrs:
                if pinned[u]:
                    rhs[i] += pos[u]
                else:
                    a_mat[i, index[u]] -= 1.0
        sol = np.linalg.solve(a_mat, rhs)
        for v in inner:
            pos[v] = sol[index[v]]
    return pos


def _lift_to_sphere(pos: np.ndarray) -> np.ndarray:
    # inverse stereographic projection from the north pole
    r2 = (pos ** 2).sum(axis=1)
    denominator = r2 + 1.0
    coords = np.column_stack(
        (2.0 * pos[:, 0], 2.0 * pos[:, 1], r2 - 1.0)
    ) / denominator[:, None]
    return coords


def realize_on_sphere(m: PolyhedralMap) -> Realization:
    """Relax a lifted planar layout toward equal edge lengths.

    Tangent-space gradient steps on the squared deviation of edge
    lengths from their mean, recentred and renormalised every step.
    Raises ConvergenceFailure (carrying the partial result) if the step
    budget runs out, and TooLarge above ``MAX_REALIZE_VERTICES``.
    """
    if m.euler_characteristic != 2:
        raise CountMismatch("spherical realization needs a sphere map")
    if m.vertex_count > MAX_REALIZE_VERTICES:
        raise TooLarge(
            f"spherical realization takes at most {MAX_REALIZE_VERTICES} vertices, got {m.vertex_count}"
        )
    coords = _lift_to_sphere(_tutte_plane(m))
    coords -= coords.mean(axis=0)
    coords /= np.linalg.norm(coords, axis=1)[:, None]

    e = np.array(m.edges)
    step = 0.05
    iterations = 0
    converged = False
    for iterations in range(1, _STEP_BUDGET + 1):
        diff = coords[e[:, 0]] - coords[e[:, 1]]
        lengths = np.linalg.norm(diff, axis=1)
        target = lengths.mean()
        # gradient of sum (l_e - target)^2 wrt endpoints
        unit = diff / lengths[:, None]
        pull = (lengths - target)[:, None] * unit
        grad = np.zeros_like(coords)
        np.add.at(grad, e[:, 0], pull)
        np.add.at(grad, e[:, 1], -pull)
        # tangent component only
        grad -= (np.sum(grad * coords, axis=1))[:, None] * coords
        update = -step * grad
        coords = coords + update
        coords -= coords.mean(axis=0)
        coords /= np.linalg.norm(coords, axis=1)[:, None]
        if float(np.max(np.linalg.norm(update, axis=1))) < _STEP_TOLERANCE:
            converged = True
            break
    realization = Realization(
        coords, "relaxed", _report(m, coords, iterations, converged)
    )
    if not converged:
        raise ConvergenceFailure(
            f"no convergence within {_STEP_BUDGET} steps", realization
        )
    return realization


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
