"""Named verification suites: the machine-checkable exit criteria.

Each suite re-derives one headline claim from scratch (enumeration
exactness, catalog integrity, operator laws, surgery, classification,
transitivity, uniqueness, geometry) and carries its own runtime budget.
``semap verify --suite NAME`` and the acceptance tests both run these.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from semap.catalog import PLATONIC_NAMES, entry_by_name, rp2_catalog, sphere_catalog
from semap.classify import exhaustive_generate, identify, square_type_counts
from semap.errors import NonPolyhedralQuotient
from semap.map_core import build_map, face_key
from semap.operators import (
    edge_coloring,
    insert_diagonal_matching,
    inverse_rectification,
    inverse_truncation,
    rectify,
    remove_deep_blue,
    truncate,
)
from semap.symmetry import (
    are_isomorphic,
    canonical_certificate,
    double_cover,
    free_involutions,
    is_vertex_transitive,
    quotient,
)
from semap.vtype import (
    SPORADIC_TYPES,
    defect,
    enumerate_admissible,
    normalize,
    predicted_vertex_count,
    semi_equivelar_type,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        budget = f" (budget {self.budget:.0f}s)" if self.budget else ""
        return f"{status} {self.name}: {self.detail} [{self.elapsed:.1f}s{budget}]"


class _Failure(Exception):
    pass


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise _Failure(message)


# --------------------------------------------------------------------------


def _suite_admissible() -> str:
    result = enumerate_admissible(50)
    _check(result.sporadic == frozenset(SPORADIC_TYPES), "sporadic set differs")
    prisms, antiprisms = result.families
    want_prisms = tuple(normalize((4, 4, r)) for r in range(5, 51))
    want_antiprisms = tuple(normalize((3, 3, 3, s)) for s in range(4, 51))
    _check(prisms.members == want_prisms, "[4^2,r] members differ")
    _check(antiprisms.members == want_antiprisms, "[3^3,s] members differ")
    _check(not result.violations, f"violations: {result.violations}")
    return "19 sporadic + 46 prism + 47 antiprism types, no violations"


_EXPECTED_COUNTS = (4, 6, 8, 12, 20, 60, 24, 30, 12, 60, 24, 60, 48, 120, 24, 12, 24, 60, 6)


def _suite_counts() -> str:
    for t, want in zip(SPORADIC_TYPES, _EXPECTED_COUNTS):
        got = predicted_vertex_count(t)
        _check(got == want, f"{t}: predicted {got}, want {want}")
        _check(defect(t) == Fraction(4, want), f"{t}: defect mismatch")
    return "all 19 sporadic vertex counts exact"


def _suite_catalog() -> str:
    entries = sphere_catalog(12)
    _check(len(entries) == 37, f"{len(entries)} entries, want 37")
    admissible = enumerate_admissible(12)
    known = set(admissible.sporadic)
    for family in admissible.families:
        known.update(family.members)
    for e in entries:
        t = semi_equivelar_type(e.map)
        _check(t == e.vertex_type, f"{e.name}: type {t} != {e.vertex_type}")
        _check(e.map.vertex_count == e.vertex_count, f"{e.name}: count")
        _check(
            predicted_vertex_count(t) == e.vertex_count,
            f"{e.name}: count vs angle defect",
        )
        _check(t in known, f"{e.name}: type {t} not admissible")
    certs = [canonical_certificate(e.map).code for e in entries]
    _check(len(set(certs)) == 37, "catalog entries are not pairwise non-isomorphic")
    shared = [
        (e.vertex_count, e.vertex_type) for e in entries
    ]
    _check(
        shared.count((24, normalize((3, 4, 4, 4)))) == 2,
        "exactly two entries share (24, [3,4^3])",
    )
    return "37 entries valid, admissible, pairwise non-isomorphic"


def _suite_square_types() -> str:
    small = entry_by_name("small-rhombicuboctahedron").map
    pseudo = entry_by_name("pseudo-rhombicuboctahedron").map
    cs = square_type_counts(small)
    cp = square_type_counts(pseudo)
    _check((cs.s2, cs.s3, cs.s4) == (12, 0, 6), f"small: {cs}")
    _check((cp.s2, cp.s3, cp.s4) == (8, 8, 2), f"pseudo: {cp}")
    _check(
        small.vertex_count == pseudo.vertex_count == 24
        and semi_equivelar_type(small) == semi_equivelar_type(pseudo),
        "must share (24, [3,4^3])",
    )
    _check(not are_isomorphic(small, pseudo), "must be non-isomorphic")
    return "(12,0,6) vs (8,8,2), same type and count, non-isomorphic"


_QUASIREGULAR = ("cuboctahedron", "icosidodecahedron")


def _suite_operator_laws() -> str:
    checked = 0
    for name in PLATONIC_NAMES + _QUASIREGULAR:
        x = entry_by_name(name).map
        t = semi_equivelar_type(x)
        runs = t.runs
        tx = truncate(x)
        rx = rectify(x)
        _check(tx.vertex_count == 2 * x.edge_count, f"truncate({name}): f0")
        _check(all(tx.degree(v) == 3 for v in range(tx.vertex_count)), "degree 3")
        _check(rx.vertex_count == x.edge_count, f"rectify({name}): f0")
        _check(all(rx.degree(v) == 4 for v in range(rx.vertex_count)), "degree 4")
        if len(runs) == 1:
            q, p = runs[0]
            want_t = normalize([p] + [2 * q] * 2)
            want_r = normalize([p, q, p, q])
        else:
            (p, _), (q, _) = runs[0], runs[1]
            want_t = normalize([4, 2 * p, 2 * q])
            want_r = normalize([4, p, 4, q])
        _check(semi_equivelar_type(tx) == want_t, f"truncate({name}): type")
        _check(semi_equivelar_type(rx) == want_r, f"rectify({name}): type")
        _check(tx.euler_characteristic == 2 and rx.euler_characteristic == 2, "chi")
        _check(are_isomorphic(inverse_truncation(tx), x), f"untruncate({name})")
        checked += 1
    # rectification is invertible where one face family keeps every
    # vertex on opposite corners: the face-seeded members
    for name in ("cube", "dodecahedron", "icosidodecahedron"):
        x = entry_by_name(name).map
        _check(are_isomorphic(inverse_rectification(rectify(x)), x), f"unrectify({name})")
        checked += 1
    return f"type and f0 laws plus {checked} inverse round trips"


def _suite_surgery() -> str:
    for snub_name, base_name, matching in (
        ("snub-cube", "small-rhombicuboctahedron", 12),
        ("snub-dodecahedron", "small-rhombicosidodecahedron", 30),
    ):
        snub = entry_by_name(snub_name).map
        base = entry_by_name(base_name).map
        colouring = edge_coloring(snub)
        _check(len(colouring.deep_blue) == matching, f"{snub_name}: deep-blue count")
        touched: set[int] = set()
        for u, v in colouring.deep_blue:
            _check(u not in touched and v not in touched, "not a matching")
            touched.update((u, v))
        _check(len(touched) == snub.vertex_count, "matching not perfect")
        opened = remove_deep_blue(snub)
        _check(are_isomorphic(opened, base), f"open({snub_name}) != {base_name}")
        _check(opened.vertex_count == snub.vertex_count, "vertex count preserved")
        squares = [f for f in base.faces if len(f) == 4]
        seeds = []
        from semap.operators import canonical_seed_diagonal

        seed1 = canonical_seed_diagonal(base)
        square = next(f for f in squares if set(seed1) <= set(f))
        seed2 = tuple(sorted(set(square) - set(seed1)))
        m1 = insert_diagonal_matching(base, seed1)
        m2 = insert_diagonal_matching(base, seed2)
        _check(are_isomorphic(m1, m2), f"{base_name}: seed choices differ")
        _check(are_isomorphic(m1, snub), f"close({base_name}) != {snub_name}")
        _check(are_isomorphic(remove_deep_blue(m1), base), "round trip")
    return "12 and 30 deep-blue matchings; open/close round trips hold"


_RP2_EXPECTED = {
    "rp2-icosahedron": (6, (3, 3, 3, 3, 3)),
    "rp2-dodecahedron": (10, (5, 5, 5)),
    "rp2-truncated-octahedron": (12, (4, 6, 6)),
    "rp2-icosidodecahedron": (15, (3, 5, 3, 5)),
    "rp2-small-rhombicuboctahedron": (12, (3, 4, 4, 4)),
    "rp2-great-rhombicuboctahedron": (24, (4, 6, 8)),
    "rp2-small-rhombicosidodecahedron": (30, (3, 4, 5, 4)),
    "rp2-great-rhombicosidodecahedron": (60, (4, 6, 10)),
    "rp2-truncated-dodecahedron": (30, (3, 10, 10)),
    "rp2-truncated-icosahedron": (30, (5, 6, 6)),
}


def _suite_identify() -> str:
    entries = sphere_catalog(12)
    rng = random.Random(0x5E3A9)
    for i in range(100):
        entry = entries[rng.randrange(len(entries))]
        perm = list(range(entry.map.vertex_count))
        rng.shuffle(perm)
        shuffled = build_map([tuple(perm[v] for v in f) for f in entry.map.faces])
        verdict = identify(shuffled)
        _check(verdict.name == entry.name, f"draw {i}: {verdict.name} != {entry.name}")
        image = {
            face_key(tuple(verdict.witness[v] for v in f)) for f in shuffled.faces
        }
        target = {face_key(f) for f in entry.map.faces}
        _check(image == target, f"draw {i}: witness does not map faces")

    rp2 = rp2_catalog()
    _check(len(rp2) == 10, f"{len(rp2)} projective entries")
    for e in rp2:
        want_count, want_sizes = _RP2_EXPECTED[e.name]
        _check(e.vertex_count == want_count, f"{e.name}: count")
        _check(e.vertex_type == normalize(want_sizes), f"{e.name}: type")
        _check(e.map.euler_characteristic == 1, f"{e.name}: chi")
        cover, _ = double_cover(e.map)
        base = entry_by_name(e.name[len("rp2-"):]).map
        _check(are_isomorphic(cover, base), f"{e.name}: cover mismatch")

    tc = entry_by_name("truncated-cube").map
    sigmas = free_involutions(tc)
    _check(bool(sigmas), "truncated cube must be centrally symmetric")
    try:
        quotient(tc, sigmas[0])
        raise _Failure("truncated-cube quotient must be rejected")
    except NonPolyhedralQuotient:
        pass
    return "100 relabelled draws named and witnessed; 10 projective entries; bad quotient rejected"


def _suite_transitivity() -> str:
    for e in sphere_catalog(12):
        expected = e.name != "pseudo-rhombicuboctahedron"
        got = is_vertex_transitive(e.map)
        _check(got == expected, f"{e.name}: vertex-transitive {got}")
    pseudo = entry_by_name("pseudo-rhombicuboctahedron").map
    _check(free_involutions(pseudo) == [], "pseudo has no antipodal symmetry")
    return "all entries vertex-transitive except the pseudorhombicuboctahedron"


_UNIQUENESS_CASES = (
    (4, (3, 3, 3), "tetrahedron"),
    (6, (3, 3, 3, 3), "octahedron"),
    (8, (4, 4, 4), "cube"),
    (12, (3, 3, 3, 3, 3), "icosahedron"),
)


def _suite_uniqueness() -> str:
    for count, sizes, name in _UNIQUENESS_CASES:
        found = exhaustive_generate(count, normalize(sizes))
        _check(len(found) == 1, f"({count},{normalize(sizes)}): {len(found)} maps")
        _check(
            are_isomorphic(found[0], entry_by_name(name).map),
            f"({count},{normalize(sizes)}): not the {name}",
        )
    return "each regular case is unique and matches its solid"


def _suite_geometry() -> str:
    from semap.catalog import antiprism, prism
    from semap.geometry import (
        antiprism_coordinates,
        export,
        parse_off,
        prism_coordinates,
    )

    for n in range(3, 25):
        for realize, family in ((prism_coordinates, prism), (antiprism_coordinates, antiprism)):
            r = realize(n)
            _check(
                r.report.unit_norm_deviation <= 1e-12,
                f"{family.__name__}({n}): norms off by {r.report.unit_norm_deviation}",
            )
            _check(
                r.report.edge_length_spread <= 1e-9,
                f"{family.__name__}({n}): spread {r.report.edge_length_spread}",
            )

    r3 = antiprism_coordinates(3).coordinates
    octa = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], float
    )

    def multiset(pts):
        return np.sort(
            [
                np.linalg.norm(pts[i] - pts[j])
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            ]
        )

    _check(
        float(np.max(np.abs(multiset(r3) - multiset(octa)))) <= 1e-9,
        "antiprism(3) is not a regular octahedron",
    )

    entry = prism(3)
    blob = export(prism_coordinates(3), entry.map, "off")
    coords, faces = parse_off(blob)
    _check(tuple(faces) == entry.map.faces, "OFF face list round trip")
    _check(
        np.array_equal(coords, prism_coordinates(3).coordinates),
        "OFF coordinate round trip",
    )

    # relaxed realizations: only the invariants are asserted
    from semap.geometry import realize_on_sphere

    for name in ("tetrahedron", "snub-cube"):
        r = realize_on_sphere(entry_by_name(name).map)
        _check(r.provenance == "relaxed", f"{name}: provenance tag")
        _check(r.report.unit_norm_deviation <= 1e-9, f"{name}: norms")
        _check(r.report.converged and r.report.iterations > 0, f"{name}: bookkeeping")
        _check(r.report.faces_simple, f"{name}: face validation")
    return "exact drum coordinates within tolerance; OFF round trip lossless; relaxation invariants hold"


SUITES: dict[str, tuple] = {
    # name -> (callable, runtime budget in seconds or None)
    "admissible": (_suite_admissible, 5.0),
    "counts": (_suite_counts, None),
    "catalog": (_suite_catalog, 60.0),
    "square-types": (_suite_square_types, None),
    "operator-laws": (_suite_operator_laws, None),
    "surgery": (_suite_surgery, None),
    "identify": (_suite_identify, 120.0),
    "transitivity": (_suite_transitivity, None),
    "uniqueness": (_suite_uniqueness, 300.0),
    "geometry": (_suite_geometry, 5.0),
}


def run_suite(name: str) -> SuiteResult:
    func, budget = SUITES[name]
    start = time.perf_counter()
    try:
        detail = func()
        passed = True
    except _Failure as exc:
        detail = str(exc)
        passed = False
    elapsed = time.perf_counter() - start
    if passed and budget is not None and elapsed > budget:
        passed = False
        detail = f"exceeded runtime budget: {elapsed:.1f}s > {budget:.0f}s"
    return SuiteResult(name, passed, detail, elapsed, budget)


def run_all() -> list[SuiteResult]:
    return [run_suite(name) for name in SUITES]
