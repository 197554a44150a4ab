"""Group, character, and parity-map behavior."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcover import (
    Character,
    Cyclotomic,
    GroupElement,
    ParityMap,
    character_table,
    make_group,
    parse_group_spec,
    parse_parity_spec,
    root_of_unity,
)
from conftest import entries


def test_make_group_examples():
    z4 = make_group([4])
    assert z4.order == 4 and z4.exponent == 4
    klein = make_group([2, 2])
    assert klein.order == 4 and klein.exponent == 2
    z2z3 = make_group([2, 3])
    assert z2z3.order == 6 and z2z3.exponent == 6


def test_make_group_rejects_bad_factors():
    with pytest.raises(ValueError):
        make_group([1])
    with pytest.raises(ValueError):
        make_group([0, 2])
    with pytest.raises(ValueError):
        make_group([2] * 13)  # order 8192 > the bound
    assert make_group([2] * 12).order == 4096  # at the bound
    # a value that is not an int is refused by name, not truncated
    for bad, text in (([2.9, 4.2], "2.9"), ([2, "3"], "'3'"), ([4.0], "4.0")):
        with pytest.raises(ValueError, match=f"cyclic factor orders must be ints, got {text}"):
            make_group(bad)
    g = make_group([2, 4])
    assert g.factors == (2, 4) and type(g.factors) is tuple
    for build in (g.element, g.character):
        for bad in ((1.9, 3.7), ("1", "2"), (1, 2.0)):
            with pytest.raises(ValueError, match=r"residues must be ints, got \("):
                build(bad)
        assert build([5, -1]).residues == (1, 3)  # ints reduce as before
        assert build(r for r in (1, 2)).residues == (1, 2)


def test_enumeration_is_lexicographic():
    g = make_group([2, 3])
    assert [e.residues for e in g.elements()] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_character_values_on_cyclic_group():
    z4 = make_group([4])
    chi = z4.character((1,))
    assert chi(z4.element((1,))) == root_of_unity(4, 1)
    assert chi(z4.element((2,))) == -1
    e = z4.identity_character
    for g in z4.elements():
        assert e(g) == 1


def test_klein_character_values():
    klein = make_group([2, 2])
    a, b = klein.element((1, 0)), klein.element((0, 1))
    chi_a, chi_b = klein.character((1, 0)), klein.character((0, 1))
    assert chi_a(a) == -1 and chi_a(b) == 1
    assert chi_b(a) == 1 and chi_b(b) == -1
    chi_ab = chi_a * chi_b
    assert chi_ab(a) == -1 and chi_ab(b) == -1


def test_character_product_and_inverse():
    z4 = make_group([4])
    assert (z4.character((1,)) * z4.character((3,))).residues == (0,)
    klein = make_group([2, 2])
    for chi in klein.characters():
        assert (chi * chi.inverse()).is_identity()


def test_wrong_residue_length_rejected():
    g = make_group([2, 2])
    with pytest.raises(ValueError):
        g.element((1,))
    with pytest.raises(ValueError):
        g.character((0, 1, 0))


def test_cross_group_operations_rejected():
    g1, g2 = make_group([2]), make_group([3])
    with pytest.raises(ValueError):
        g1.element((1,)) * g2.element((1,))
    with pytest.raises(ValueError):
        g1.character((1,))(g2.element((1,)))


def test_character_evaluation_is_multiplicative_exhaustive():
    # every group of order <= 16 with these shapes, all pairs and points
    for factors in ([16], [2, 8], [4, 4], [2, 2, 4], [3, 3], [2, 6]):
        g = make_group(factors)
        chars = g.characters()
        elements = g.elements()
        for chi in chars:
            for mu in chars:
                prod = chi * mu
                for x in elements:
                    assert prod(x) == chi(x) * mu(x)


def test_character_evaluation_is_multiplicative_random():
    rng = random.Random(3)
    g = make_group([4, 9])
    chars = g.characters()
    elements = g.elements()
    for _ in range(200):
        chi, mu = rng.choice(chars), rng.choice(chars)
        x = rng.choice(elements)
        assert (chi * mu)(x) == chi(x) * mu(x)


def test_character_value_is_homomorphism_in_the_point():
    g = make_group([2, 4])
    for chi in g.characters():
        for x in g.elements():
            for y in g.elements():
                assert chi(x * y) == chi(x) * chi(y)


def test_klein_table_is_plus_minus_one():
    table = character_table(make_group([2, 2]))
    assert len(table) == 4 and all(len(row) == 4 for row in table)
    for row in table:
        for value in row:
            assert value == 1 or value == -1


def test_z2_table():
    assert character_table(make_group([2])) == [
        [Cyclotomic.from_rational(1), Cyclotomic.from_rational(1)],
        [Cyclotomic.from_rational(1), Cyclotomic.from_rational(-1)],
    ]


def test_column_sums_detect_the_identity():
    for factors in ([6], [2, 2], [8], [3, 4]):
        g = make_group(factors)
        table = character_table(g)
        for col, element in enumerate(g.elements()):
            total = Cyclotomic.from_rational(0)
            for row in table:
                total = total + row[col]
            assert total == (g.order if element.is_identity() else 0)


def test_parity_map_examples():
    klein = make_group([2, 2])
    pm = ParityMap(klein, (1, 1))
    chi_a, chi_b = klein.character((1, 0)), klein.character((0, 1))
    assert pm(chi_a) == 1 and pm(chi_b) == 1
    assert pm(chi_a * chi_b) == 0 and pm(klein.identity_character) == 0

    trivial = ParityMap.trivial(make_group([2]))
    for chi in trivial.group.characters():
        assert trivial(chi) == 0

    z4 = make_group([4])
    pm4 = ParityMap(z4, (1,))
    assert [pm4(z4.character((k,))) for k in range(4)] == [0, 1, 0, 1]


def test_parity_map_rejects_odd_factor_bits():
    with pytest.raises(ValueError):
        ParityMap(make_group([3]), (1,))
    with pytest.raises(ValueError):
        ParityMap(make_group([2, 9]), (0, 1))
    with pytest.raises(ValueError):
        ParityMap(make_group([2]), (1, 0))
    g = make_group([2, 4])
    for bad, text in (((0.6, 1), "0.6"), ((0, 1.0), "1.0"), ((0, "1"), "'1'"), ((2, 0), "2")):
        with pytest.raises(ValueError, match=f"parity bits must be 0 or 1, got {text}$"):
            ParityMap(g, bad)
    assert ParityMap(g, [True, 0]).bits == (1, 0)  # a bool is an int, as before


def test_parity_is_a_homomorphism():
    for factors in ([4], [2, 2], [2, 4], [2, 3]):
        g = make_group(factors)
        bits = tuple(1 if q % 2 == 0 else 0 for q in g.factors)
        pm = ParityMap(g, bits)
        for chi in g.characters():
            for mu in g.characters():
                assert pm(chi * mu) == (pm(chi) + pm(mu)) % 2


def test_group_spec_parsing():
    assert parse_group_spec("2x2").factors == (2, 2)
    assert parse_group_spec("12").factors == (12,)
    with pytest.raises(ValueError):
        parse_group_spec("2xq")
    with pytest.raises(ValueError):
        parse_group_spec("")
    with pytest.raises(ValueError):
        parse_group_spec("x".join(["2"] * 13))  # order 8192 > default bound


def test_parity_spec_parsing():
    g = make_group([2, 2])
    assert parse_parity_spec(g, "11").bits == (1, 1)
    with pytest.raises(ValueError):
        parse_parity_spec(g, "2x")
    with pytest.raises(ValueError):
        parse_parity_spec(g, "1")  # wrong length


@st.composite
def residue_pairs(draw):
    """A group and two residue tuples in it."""
    group = make_group(draw(st.sampled_from([[2], [3], [4], [6], [12], [2, 2], [2, 4], [3, 3]])))
    residues = st.tuples(*(st.integers(-20, 20) for _ in group.factors))
    return group, draw(residues), draw(residues)


@settings(max_examples=60, deadline=None)
@given(residue_pairs())
def test_elements_and_characters_keep_their_types(pair):
    group, r, s = pair
    g, h = group.element(r), group.element(s)
    chi, psi = group.character(r), group.character(s)
    assert type(g * h) is GroupElement and type(g.inverse()) is GroupElement
    assert type(chi * psi) is Character and type(chi.inverse()) is Character
    assert (g * h).residues == (chi * psi).residues
    assert (g * g.inverse()).is_identity() and (chi * chi.inverse()).is_identity()
    assert g != chi and chi != g
    assert (chi * psi)(g) == chi(g) * psi(g)


@settings(max_examples=60, deadline=None)
@given(residue_pairs(), st.integers(-30, 30))
def test_powers_are_repeated_products(pair, k):
    group, r, _ = pair
    for x, identity in [(group.element(r), group.element((0,) * group.rank)),
                        (group.character(r), group.identity_character)]:
        expected = identity
        for _ in range(abs(k)):
            expected = expected * (x if k >= 0 else x.inverse())
        assert x ** k == expected and type(x ** k) is type(x)
        assert x ** -1 == x.inverse() and (x * x ** -1).is_identity()
        assert all(0 <= a < q for a, q in zip((x ** k).residues, group.factors))


def test_character_exponent_gives_its_value():
    for factors in ([12], [2, 6], [3, 3], [2, 2, 2], [4, 6]):
        group = make_group(factors)
        n = group.exponent
        for chi in group.characters():
            for g in group.elements():
                e = chi.exponent_at(g)
                assert 0 <= e < n
                value = chi(g)
                assert value.conductor == n and entries(value) == entries(root_of_unity(n, e))
                # the module docstring's product of one root per cyclic factor
                expected = Cyclotomic.from_rational(1)
                for k, x, q in zip(chi.residues, g.residues, factors):
                    expected = expected * root_of_unity(q, k * x)
                assert value == expected
