"""Exception vocabulary shared by all modules.

Map-building errors name the violated invariant; operator errors name
the violated precondition.  The CLI maps any SemapError to exit code 1
and prints the class name, so these names are part of the external
contract.
"""
from __future__ import annotations


class SemapError(Exception):
    """Base class for every domain error raised by this package."""


class InvariantViolated(SemapError):
    """An invariant the mathematics guarantees did not hold.

    Must never occur; raised instead of going on from a state nobody
    checked, and unlike ``assert`` it survives ``python -O``.
    """


# ---------------------------------------------------------------- map_core

class MapBuildError(SemapError):
    """A face list does not describe a valid polyhedral map."""


class InvalidFaceList(MapBuildError):
    """Structurally bad input: empty list, non-dense ids, faces shorter than 3."""


class RepeatedVertexInFace(MapBuildError):
    pass


class EdgeDegreeNotTwo(MapBuildError):
    pass


class NonPolyhedralIntersection(MapBuildError):
    pass


class PinchedVertex(MapBuildError):
    pass


class Disconnected(MapBuildError):
    pass


class UnsupportedSurface(MapBuildError):
    """Valid closed complex, but its Euler characteristic is neither 2 nor 1."""


class MapFormatError(SemapError):
    """Text map syntax violation (treated as a usage error by the CLI)."""


# ---------------------------------------------------------------- vtype

class SizeTooSmall(SemapError):
    pass


class DegreeTooSmall(SemapError):
    pass


class NonPositiveDefect(SemapError):
    pass


class NonIntegerCount(SemapError):
    pass


class MaxGonTooSmall(SemapError):
    pass


# ---------------------------------------------------------------- operators

class WrongShape(SemapError):
    """Input map does not have the vertex type the operator requires."""


class MultiEdgeDetected(SemapError):
    """Contracted face-adjacency graph is not simple (internal consistency check)."""


class NotEligibleSquare(SemapError):
    pass


class PropagationConflict(SemapError):
    pass


# ---------------------------------------------------------------- catalog

class UnknownName(SemapError):
    pass


class NTooSmall(SemapError):
    pass


# ---------------------------------------------------------------- symmetry

class NonPolyhedralQuotient(SemapError):
    """Identifying antipodal cells produced faces that meet badly."""


class AlreadySpherical(SemapError):
    pass


class NoFreeInvolution(SemapError):
    pass


class InvalidInvolution(SemapError):
    """Permutation handed to quotient() is not a free involution of the map."""


class SymmetryCheckFailed(SemapError):
    """A computed witness, automorphism group or double cover failed its check.

    Must never occur; raised instead of returning an uncertified answer.
    """


# ---------------------------------------------------------------- classify

class NotSemiEquivelar(SemapError):
    """Two vertices disagree on their vertex type.

    Also used as the non-exceptional return value of
    semi_equivelar_type(); identify() raises it.
    """

    def __init__(self, vertex_a: int, vertex_b: int, type_a, type_b):
        self.vertex_a = vertex_a
        self.vertex_b = vertex_b
        self.type_a = type_a
        self.type_b = type_b
        super().__init__(
            f"vertex {vertex_a} has type {type_a} but vertex {vertex_b} has type {type_b}"
        )


class WrongSphere(SemapError):
    pass


class ClassificationViolation(SemapError):
    """A valid spherical semi-equivelar map matched no catalog entry.

    Must never occur; carries the offending map in text form for the
    post-mortem.
    """

    def __init__(self, message: str, map_text: str = ""):
        self.map_text = map_text
        super().__init__(message)


class CountMismatch(SemapError):
    pass


class TooLarge(SemapError):
    pass
