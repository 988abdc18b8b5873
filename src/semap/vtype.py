"""Vertex-type algebra.

A vertex type is the cyclic pattern of face sizes around a vertex,
identified up to rotation and reversal.  Types are stored canonically
(lexicographically least expanded sequence) and printed in run-length
syntax, e.g. ``[3^4,5]``.

All arithmetic here is exact rational: the angle-defect computation
must either yield an exact integer vertex count or be rejected.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable

from semap.errors import (
    DegreeTooSmall,
    MaxGonTooSmall,
    NonIntegerCount,
    NonPositiveDefect,
    NotSemiEquivelar,
    SizeTooSmall,
    TooLarge,
    TypeSyntaxError,
)
from semap.map_core import PolyhedralMap, face_key

Runs = tuple[tuple[int, int], ...]

# The largest face size enumerate_admissible and catalog.entry_by_name
# accept: at this bound the enumeration, like building prism-10000,
# takes a few seconds.
MAX_GON = 10_000


def _run_length(seq: tuple[int, ...]) -> Runs:
    runs: list[list[int]] = []
    for p in seq:
        if runs and runs[-1][0] == p:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    # cyclic sequence: a run may wrap around the end
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        runs[0][1] += runs[-1][1]
        runs.pop()
    return tuple((p, n) for p, n in runs)


@dataclass(frozen=True)
class VertexType:
    """Canonical cyclic face-size pattern around a vertex."""

    sizes: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.sizes)

    @property
    def runs(self) -> Runs:
        return _run_length(self.sizes)

    def size_multiset(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for p in self.sizes:
            counts[p] = counts.get(p, 0) + 1
        return counts

    def __str__(self) -> str:
        parts = []
        for p, n in self.runs:
            parts.append(f"{p}^{n}" if n > 1 else f"{p}")
        return "[" + ",".join(parts) + "]"

    def __repr__(self) -> str:
        return f"VertexType({self})"


def normalize(raw: Iterable[int]) -> VertexType:
    """Canonicalize a cyclic size sequence; idempotent.

    >>> normalize((6, 6, 3))
    VertexType([3,6^2])
    >>> normalize((3, 4, 3, 4)) == normalize((3, 3, 4, 4))
    False
    >>> normalize((4, 3, 3, 3, 3))
    VertexType([3^4,4])
    """
    seq = tuple(raw)
    if len(seq) < 3:
        raise DegreeTooSmall(f"degree {len(seq)} < 3")
    for p in seq:
        if p < 3:
            raise SizeTooSmall(f"face size {p} < 3")
    return VertexType(face_key(seq))


def vertex_type_at(m: PolyhedralMap, v: int) -> VertexType:
    """Vertex type read off the face cycle at ``v``."""
    return normalize(len(m.faces[f]) for f in m.rotations[v])


def semi_equivelar_type(m: PolyhedralMap):
    """The common vertex type, or a NotSemiEquivelar value with witnesses."""
    t0 = vertex_type_at(m, 0)
    for v in range(1, m.vertex_count):
        tv = vertex_type_at(m, v)
        if tv != t0:
            return NotSemiEquivelar(0, v, t0, tv)
    return t0


def degree_profile(t: VertexType) -> Runs:
    """Sorted multiset form (q1^m1, ..., qk^mk) with q1 < ... < qk."""
    counts = t.size_multiset()
    return tuple(sorted(counts.items()))


def defect(t: VertexType) -> Fraction:
    """Exact angle defect 2 - sum n_i (p_i - 2) / p_i; positive on the sphere.

    >>> defect(normalize((3, 3, 3, 3, 3)))
    Fraction(1, 3)
    >>> defect(normalize((6, 6, 6)))
    Fraction(0, 1)
    """
    total = Fraction(0)
    for p, n in t.runs:
        total += Fraction(n * (p - 2), p)
    return 2 - total


def predicted_vertex_count(t: VertexType) -> int:
    """Vertex count forced by the Euler relation: 4 / defect, exactly.

    >>> predicted_vertex_count(normalize((3, 3, 3, 3, 5)))
    60
    >>> predicted_vertex_count(normalize((4, 4, 7)))
    14
    """
    d = defect(t)
    if d <= 0:
        raise NonPositiveDefect(f"{t} has defect {d}")
    n = Fraction(4) / d
    if n.denominator != 1:
        raise NonIntegerCount(f"{t} would need {n} vertices")
    return int(n)


# --------------------------------------------------------------------------
# parity obstructions
#
# Three patterns around an odd face size are incompatible with every
# vertex being of the same type; they prune the admissible enumeration.


@dataclass(frozen=True)
class Obstruction:
    condition: str  # "i", "ii" or "iii"
    run_index: int

    def __str__(self) -> str:
        return f"condition ({self.condition}) at run {self.run_index}"


def obstruction(t: VertexType) -> Obstruction | None:
    """First parity obstruction in order (i), (ii), (iii), or None.

    (i)   some odd p occurs as a lone run of length exactly 2;
    (ii)  some odd p occurs as a lone run of length 1 whose cyclic
          neighbours have distinct sizes;
    (iii) the pattern is [p, q^m, p, r^n] with p odd and p, q, r distinct.
    """
    runs = t.runs
    k = len(runs)
    sizes = [p for p, _ in runs]
    for i, (p, n) in enumerate(runs):
        if n == 2 and p % 2 == 1 and sizes.count(p) == 1:
            return Obstruction("i", i)
    for i, (p, n) in enumerate(runs):
        if n == 1 and p % 2 == 1 and sizes.count(p) == 1 and k >= 3:
            if sizes[(i - 1) % k] != sizes[(i + 1) % k]:
                return Obstruction("ii", i)
    if k == 4:
        for i in (0, 1):
            p1, n1 = runs[i]
            p2, n2 = runs[i + 2]
            if n1 == 1 and n2 == 1 and p1 == p2 and p1 % 2 == 1:
                if sizes[(i + 1) % 4] != sizes[(i + 3) % 4]:
                    return Obstruction("iii", i)
    return None


# --------------------------------------------------------------------------
# enumeration of admissible spherical types

# the nineteen sporadic admissible types
SPORADIC_TYPES: tuple[VertexType, ...] = tuple(
    normalize(s)
    for s in (
        (3, 3, 3),
        (3, 3, 3, 3),
        (4, 4, 4),
        (3, 3, 3, 3, 3),
        (5, 5, 5),
        (3, 3, 3, 3, 5),
        (3, 3, 3, 3, 4),
        (3, 5, 3, 5),
        (3, 4, 3, 4),
        (3, 4, 5, 4),
        (3, 4, 4, 4),
        (5, 6, 6),
        (4, 6, 8),
        (4, 6, 10),
        (4, 6, 6),
        (3, 6, 6),
        (3, 8, 8),
        (3, 10, 10),
        (3, 4, 4),
    )
)


@dataclass(frozen=True)
class TypeFamily:
    """One of the two one-parameter families of admissible types."""

    label: str            # "[4^2,r]" or "[3^3,s]"
    parameter_min: int
    members: tuple[VertexType, ...]


@dataclass(frozen=True)
class AdmissibleEnumeration:
    sporadic: frozenset[VertexType]
    families: tuple[TypeFamily, TypeFamily]
    violations: tuple[VertexType, ...]


def _positive_defect_multisets(d: int, max_gon: int):
    """Nondecreasing d-tuples over 3..max_gon with positive angle defect."""

    def rec(prefix: tuple[int, ...], start: int, remaining: int, total: Fraction):
        if remaining == 0:
            yield prefix
            return
        for p in range(start, max_gon + 1):
            term = Fraction(p - 2, p)
            # entries are nondecreasing, so each remaining slot costs >= term
            if total + remaining * term >= 2:
                break
            yield from rec(prefix + (p,), p, remaining - 1, total + term)

    yield from rec((), 3, d, Fraction(0))


def _cyclic_arrangements(multiset: tuple[int, ...]) -> list[VertexType]:
    out = {VertexType(face_key(perm)) for perm in permutations(multiset)}
    return sorted(out, key=lambda t: t.sizes)


def drum_family(t: VertexType) -> tuple[str, int] | None:
    """("prism", r) for [4^2,r], ("antiprism", s) for [3^3,s], else None."""
    counts = t.size_multiset()
    if len(counts) == 2:
        if t.degree == 3 and counts.get(4) == 2:
            return "prism", next(p for p in counts if p != 4)
        if t.degree == 4 and counts.get(3) == 3:
            return "antiprism", next(p for p in counts if p != 3)
    return None


def enumerate_admissible(max_gon: int) -> AdmissibleEnumeration:
    """All vertex types a spherical semi-equivelar map can have.

    Exhausts cyclic size sequences of degree 3..5 with entries up to
    ``max_gon``, keeps those with positive defect that pass the parity
    obstructions, and partitions the survivors into the nineteen
    sporadic types and the two families [4^2,r] (r >= 5), [3^3,s]
    (s >= 4).  Anything else lands in ``violations``.
    """
    if max_gon < 12:
        raise MaxGonTooSmall(f"max_gon {max_gon} < 12")
    if max_gon > MAX_GON:
        raise TooLarge(f"max_gon {max_gon} > {MAX_GON}")

    survivors: list[VertexType] = []
    # positive defect forces degree < 6 (sum of (p-2)/p >= d/3)
    for d in (3, 4, 5):
        for multiset in _positive_defect_multisets(d, max_gon):
            for t in _cyclic_arrangements(multiset):
                if obstruction(t) is None:
                    survivors.append(t)

    sporadic = set()
    members: dict[str, dict[int, VertexType]] = {"prism": {}, "antiprism": {}}
    violations = []
    sporadic_set = set(SPORADIC_TYPES)
    for t in survivors:
        drum = drum_family(t)
        if t in sporadic_set:
            sporadic.add(t)
        elif drum is not None:
            family, n = drum
            members[family][n] = t
        else:
            violations.append(t)

    prisms, antiprisms = members["prism"], members["antiprism"]
    families = (
        TypeFamily("[4^2,r]", 5, tuple(prisms[r] for r in sorted(prisms))),
        TypeFamily("[3^3,s]", 4, tuple(antiprisms[s] for s in sorted(antiprisms))),
    )
    return AdmissibleEnumeration(frozenset(sporadic), families, tuple(violations))


# --------------------------------------------------------------------------
# text syntax: [3^4,5] with ^1 omissible

_RUN_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def _run_number(digits: str, part: str) -> int:
    # compare the length first: int() refuses over 4300 digits, and a
    # number longer than MAX_GON is never a face size or a degree
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_GON)):
        raise TypeSyntaxError(f"number over {len(str(MAX_GON))} digits in a run")
    return int(digits)


def parse_vertex_type(text: str) -> VertexType:
    """Read run-length syntax such as ``[3^4,5]``.

    Face sizes and the total degree are bounded by MAX_GON, each run
    checked before it is expanded.
    """
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise TypeSyntaxError(f"missing brackets in {text!r}")
    body = s[1:-1]
    if not body:
        raise TypeSyntaxError("empty vertex type")
    sizes: list[int] = []
    for part in body.split(","):
        m = _RUN_RE.match(part.strip())
        if not m:
            raise TypeSyntaxError(f"bad run {part!r} in {text!r}")
        p = _run_number(m.group(1), part)
        n = _run_number(m.group(2), part) if m.group(2) else 1
        if n < 1:
            raise TypeSyntaxError(f"bad multiplicity in {part!r}")
        if p > MAX_GON:
            raise TooLarge(f"face size {p} > {MAX_GON}")
        if len(sizes) + n > MAX_GON:
            raise TooLarge(f"total degree over {MAX_GON}")
        sizes.extend([p] * n)
    return normalize(sizes)

