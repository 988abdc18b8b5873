import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semap.catalog import antiprism, prism, pseudo_rhombicuboctahedron
from semap.errors import (
    DegreeTooSmall,
    MaxGonTooSmall,
    NonIntegerCount,
    NonPositiveDefect,
    NotSemiEquivelar,
    SizeTooSmall,
)
from semap.map_core import build_map
from semap.vtype import (
    SPORADIC_TYPES,
    defect,
    enumerate_admissible,
    normalize,
    obstruction,
    predicted_vertex_count,
    semi_equivelar_type,
    vertex_type_at,
)

size_sequences = st.lists(st.integers(3, 14), min_size=3, max_size=8).map(tuple)


def test_normalize_examples():
    assert normalize((6, 6, 3)).sizes == (3, 6, 6)
    assert normalize((3, 4, 3, 4)) != normalize((3, 3, 4, 4))
    assert normalize((3, 4, 3, 4)).runs == ((3, 1), (4, 1), (3, 1), (4, 1))
    assert normalize((3, 3, 4, 4)).runs == ((3, 2), (4, 2))
    assert normalize((4, 4, 4)) == normalize(tuple(reversed((4, 4, 4))))
    assert str(normalize((5, 3, 3, 3, 3))) == "[3^4,5]"


def test_normalize_guards():
    with pytest.raises(SizeTooSmall):
        normalize((2, 3, 4))
    with pytest.raises(DegreeTooSmall):
        normalize((3, 3))


@settings(max_examples=200, deadline=None)
@given(size_sequences)
def test_normalize_idempotent(seq):
    t = normalize(seq)
    assert normalize(t.sizes) == t


@settings(max_examples=200, deadline=None)
@given(size_sequences, st.integers(0, 7), st.booleans())
def test_defect_invariance(seq, rotation, flip):
    r = rotation % len(seq)
    other = seq[r:] + seq[:r]
    if flip:
        other = tuple(reversed(other))
    assert defect(normalize(seq)) == defect(normalize(other))


def test_defect_values():
    assert defect(normalize((3,) * 5)) == Fraction(1, 3)
    assert defect(normalize((6, 6, 6))) == 0
    assert defect(normalize((4, 6, 8))) == Fraction(1, 12)


def test_predicted_counts():
    assert predicted_vertex_count(normalize((3, 3, 3, 3, 5))) == 60
    assert predicted_vertex_count(normalize((4, 4, 7))) == 14
    assert predicted_vertex_count(normalize((3, 3, 3))) == 4
    with pytest.raises(NonPositiveDefect):
        predicted_vertex_count(normalize((6, 6, 6)))
    with pytest.raises(NonIntegerCount):
        predicted_vertex_count(normalize((3, 3, 4, 5)))  # 4 / (7/30)


def test_obstruction_conditions():
    assert obstruction(normalize((3, 3, 5, 5))).condition == "i"
    assert obstruction(normalize((3, 4, 5))).condition == "ii"
    assert obstruction(normalize((3, 5, 3, 7))).condition == "iii"
    assert obstruction(normalize((3, 4, 3, 4))) is None
    assert obstruction(normalize((3, 3, 3, 9))) is None  # families pass
    assert obstruction(normalize((4, 4, 9))) is None


def test_vertex_type_at_catalog_members():
    pseudo = pseudo_rhombicuboctahedron().map
    assert all(
        vertex_type_at(pseudo, v) == normalize((3, 4, 4, 4))
        for v in range(pseudo.vertex_count)
    )
    q6 = antiprism(6).map
    assert vertex_type_at(q6, 0) == normalize((3, 3, 3, 6))
    tetra = build_map([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert vertex_type_at(tetra, 2) == normalize((3, 3, 3))


def test_semi_equivelar_type():
    cube = prism(4).map
    assert semi_equivelar_type(cube) == normalize((4, 4, 4))


def test_semi_equivelar_witnesses_on_corner_cut_cube():
    # one cube corner shaved off: [3,5,5] corners meet [4,5,5] and [4,4,4] ones
    mixed = build_map(
        [
            (7, 0, 1, 2, 8),
            (7, 0, 4, 3, 9),
            (2, 8, 9, 3, 6),
            (7, 8, 9),
            (3, 4, 5, 6),
            (0, 1, 5, 4),
            (1, 2, 6, 5),
        ]
    )
    assert mixed.vertex_count == 10
    witness = semi_equivelar_type(mixed)
    assert isinstance(witness, NotSemiEquivelar)
    assert witness.type_a != witness.type_b
    assert vertex_type_at(mixed, witness.vertex_a) == witness.type_a
    assert vertex_type_at(mixed, witness.vertex_b) == witness.type_b


def test_enumeration_exact_at_12():
    result = enumerate_admissible(12)
    assert result.sporadic == frozenset(SPORADIC_TYPES)
    assert len(result.sporadic) == 19
    prisms, antiprisms = result.families
    assert prisms.members == tuple(normalize((4, 4, r)) for r in range(5, 13))
    assert antiprisms.members == tuple(normalize((3, 3, 3, s)) for s in range(4, 13))
    assert result.violations == ()


def test_enumeration_no_degree_six():
    result = enumerate_admissible(20)
    everything = set(result.sporadic)
    for fam in result.families:
        everything.update(fam.members)
    assert all(t.degree <= 5 for t in everything)
    assert normalize((3,) * 6) not in everything


def test_enumeration_guard():
    with pytest.raises(MaxGonTooSmall):
        enumerate_admissible(11)


def test_enumeration_sporadic_stable_across_bounds():
    assert enumerate_admissible(12).sporadic == enumerate_admissible(30).sporadic


def test_enumeration_independent_of_search_order():
    # order-free oracle: canonicalize every raw tuple instead of recursing
    # through nondecreasing multisets
    survivors = set()
    for degree in (3, 4, 5):
        for raw in itertools.product(range(3, 13), repeat=degree):
            t = normalize(raw)
            if t in survivors:
                continue
            if defect(t) > 0 and obstruction(t) is None:
                survivors.add(t)
    result = enumerate_admissible(12)
    expected = set(result.sporadic)
    for fam in result.families:
        expected.update(fam.members)
    assert survivors == expected


def test_catalog_types_are_admissible():
    from semap.catalog import sphere_catalog

    result = enumerate_admissible(12)
    known = set(result.sporadic)
    for fam in result.families:
        known.update(fam.members)
    for entry in sphere_catalog(12):
        assert entry.vertex_type in known
        assert predicted_vertex_count(entry.vertex_type) == entry.vertex_count


def test_doctests_stay_honest():
    import doctest

    import semap.symmetry
    import semap.vtype

    for module in (semap.vtype, semap.symmetry):
        result = doctest.testmod(module)
        assert result.failed == 0
