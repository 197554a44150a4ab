"""What each constructor and operation refuses, the operators that give way
to the other operand, and how each value type prints.

Each error names its type and message; each ``NotImplemented`` is returned,
not raised, so Python tries the reflected operation before a ``TypeError``.
"""

import operator
import re
from fractions import Fraction

import pytest

from gradedcover import (
    Cyclotomic,
    GradedMorphism,
    GradedSignature,
    NotInvertibleError,
    ParityMap,
    SignatureMismatchError,
    SuperMonomial,
    SuperMorphism,
    SuperPolynomial,
    SuperRational,
    SuperSignature,
    covering_signature,
    cyclotomic_polynomial,
    lift_mixed,
    make_group,
    root_of_unity,
)
from gradedcover import algebra

Z4, Z2 = make_group([4]), make_group([2])
PM4, PM2 = ParityMap(Z4, (1,)), ParityMap(Z2, (1,))
GRADED = GradedSignature(Z4, PM4, even=[("x", Z4.character((0,)))], odd=[("s", Z4.character((1,)))])
PLAIN = SuperSignature(even=["x"], odd=["s"])


# -- errors ---------------------------------------------------------------------


def test_signatures_refuse_unknown_names_and_foreign_groups():
    for sig in (PLAIN, GRADED):
        with pytest.raises(KeyError, match="nope"):
            sig.parity_of_var("nope")
    with pytest.raises(KeyError, match="nope"):
        GRADED.weight_of_var("nope")
    with pytest.raises(ValueError, match="^parity map belongs to a different group$"):
        GradedSignature(Z4, PM2)
    with pytest.raises(ValueError, match="^weight of 'x' belongs to a different group$"):
        GradedSignature(Z4, PM4, even=[("x", Z2.character((0,)))])


def test_weights_and_decomposition_need_a_graded_signature():
    f = SuperRational.variable(PLAIN, "x")
    for call in (lambda: algebra._graded(PLAIN), f.decompose, f.numerator.termwise_weight,
                 lambda: f.act(Z4.element((1,)))):
        with pytest.raises(TypeError, match="^this operation requires a graded signature$"):
            call()


def test_polynomials_refuse_malformed_monomials():
    one = Cyclotomic.from_rational(1)
    for mono, message in [
        (SuperMonomial((1, 2), ()), r"monomial .* has wrong even arity"),
        (SuperMonomial((-1,), ()), r"negative exponent in monomial"),
        (SuperMonomial((0,), (1,)), r"monomial .* has invalid odd indices"),  # past the last
        (SuperMonomial((0,), (0, 0)), r"monomial .* has invalid odd indices"),  # repeated
        (SuperMonomial((0,), (-1,)), r"monomial .* has invalid odd indices"),
    ]:
        with pytest.raises(ValueError, match=message):
            SuperPolynomial(PLAIN, {mono: one})
    sig = SuperSignature(odd=["s", "t"])
    with pytest.raises(ValueError, match=r"monomial .* has invalid odd indices"):
        SuperPolynomial(sig, {SuperMonomial((), (1, 0)): one})  # unsorted
    assert SuperPolynomial(sig, {SuperMonomial((), (0, 1)): one}).has_odd_content()


def test_polynomial_variables_and_powers():
    with pytest.raises(KeyError, match="unknown variable 'q'"):
        SuperPolynomial.variable(PLAIN, "q")
    x = SuperPolynomial.variable(PLAIN, "x")
    for bad in (-1, 2.0):
        with pytest.raises(ValueError, match="^polynomial powers take nonnegative integer exponents$"):
            x**bad
    assert x**0 == 1


def test_the_action_refuses_an_element_of_another_group():
    x = SuperPolynomial.variable(GRADED, "x")
    for f in (x, SuperRational(x)):
        with pytest.raises(SignatureMismatchError, match="^element belongs to a different group$"):
            f.act(Z2.element((1,)))


def test_substitute_needs_images_over_one_signature_or_a_target():
    f = SuperRational.constant(PLAIN, 3)
    other = SuperSignature(even=["y"])
    images = {"x": SuperRational.variable(GRADED, "x"), "s": SuperRational.variable(PLAIN, "s")}
    with pytest.raises(SignatureMismatchError, match="^images live over different signatures$"):
        f.substitute(images)
    with pytest.raises(ValueError, match="^no images given and no target signature specified$"):
        f.substitute({})
    assert f.substitute({}, signature=other) == SuperRational.constant(other, 3)
    assert algebra._substitute([], images, PLAIN) == []


def test_coverings_refuse_foreign_parities_and_plain_sources():
    with pytest.raises(ValueError, match="^parity map belongs to a different group$"):
        covering_signature(PLAIN, Z4, PM2)
    target = SuperSignature(even=["y"])
    phi = SuperMorphism(PLAIN, target, {"y": SuperRational.variable(PLAIN, "x")})
    with pytest.raises(TypeError, match="^the morphism must start from a graded domain$"):
        lift_mixed(phi)


def test_cyclotomic_conductors_must_be_positive_and_lifts_multiples():
    with pytest.raises(ValueError, match="^conductor must be >= 1, got 0$"):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError, match="^cannot lift conductor 3 into 4$"):
        root_of_unity(3, 1).lift(4)
    assert root_of_unity(3, 1).lift(6) == root_of_unity(6, 2)


def test_a_parity_map_refuses_a_character_of_another_group():
    with pytest.raises(ValueError, match="^character belongs to a different group$"):
        PM4(Z2.character((1,)))


def test_morphisms_refuse_foreign_images_and_plain_graded_signatures():
    target = SuperSignature(even=["y"])
    with pytest.raises(SignatureMismatchError,
                       match="^image of 'y' is not a function over the source signature$"):
        SuperMorphism(PLAIN, target, {"y": SuperRational.variable(GRADED, "x")})
    with pytest.raises(TypeError, match="^graded morphisms need graded signatures on both sides$"):
        GradedMorphism(PLAIN, target, {"y": SuperRational.variable(PLAIN, "x")})
    with pytest.raises(TypeError, match="^graded morphisms need graded signatures on both sides$"):
        GradedMorphism(GRADED, target, {"y": SuperRational.variable(GRADED, "x")})


# -- operators that give way ----------------------------------------------------


def operands():
    x = SuperPolynomial.variable(GRADED, "x")
    return [x, SuperRational(x, x + 1), root_of_unity(4, 1)]


@pytest.mark.parametrize("value", operands(), ids=lambda v: type(v).__name__)
def test_operators_give_way_to_a_string(value):
    names = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__"]
    if not isinstance(value, SuperPolynomial):
        names += ["__truediv__", "__rtruediv__", "__pow__"]
    for name in names:
        assert getattr(value, name)("a") is NotImplemented, name
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((value, "a"), ("a", value)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
        "a" - value  # refused by the reflected subtraction, not from inside an addition
    assert value != "a" and not value == "a"


def test_values_over_other_signatures_or_sources_are_unequal():
    x_graded = SuperRational.variable(GRADED, "x")
    x_plain = SuperRational.variable(PLAIN, "x")
    assert (x_graded == x_plain) is False
    target = SuperSignature(even=["y"])
    maps = [SuperMorphism(sig, target, {"y": SuperRational.variable(sig, "x")})
            for sig in (PLAIN, SuperSignature(even=["x"]))]
    assert (maps[0] == maps[1]) is False
    assert maps[0].__eq__("a") is NotImplemented and maps[0] != "a"
    assert maps[0] == SuperMorphism(PLAIN, target, {"y": x_plain})


def test_a_cyclotomic_value_is_true_unless_zero():
    assert bool(root_of_unity(5, 2)) is True and bool(Cyclotomic([0, 0], 3)) is False
    assert bool(Cyclotomic.from_rational(Fraction(-1, 2))) is True
    x = SuperPolynomial.variable(GRADED, "x")
    for value in (x, SuperRational(x, x + 1)):
        assert bool(value) is True and bool(value - value) is False


def test_a_polynomial_has_no_division():
    x = SuperPolynomial.variable(GRADED, "x")
    for a, b in ((x, x), (x, 2), (2, x)):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for /"):
            a / b


def test_division_by_zero_raises_the_inverse_error():
    """``/`` inverts through each type's own rule, so it keeps that rule's error."""
    for call in (lambda: root_of_unity(4, 1) / 0, lambda: 1 / Cyclotomic.from_rational(0)):
        with pytest.raises(ZeroDivisionError, match="^inverse of zero cyclotomic value$"):
            call()
    x, s = SuperRational.variable(GRADED, "x"), SuperRational.variable(GRADED, "s")
    with pytest.raises(NotInvertibleError) as refused:
        s.invert()
    for call in (lambda: x / s, lambda: 1 / s):
        with pytest.raises(NotInvertibleError, match=f"^{re.escape(str(refused.value))}$"):
            call()


# -- repr -----------------------------------------------------------------------


def test_every_value_type_prints_its_repr():
    x = SuperPolynomial.variable(GRADED, "x")
    s = SuperPolynomial.variable(GRADED, "s")
    f = SuperRational(x * s, x + 1)
    target = GradedSignature(Z4, PM4, even=[("y", Z4.character((0,)))])
    plain = "SuperSignature(even=['x'], odd=['s'])"
    graded = "GradedSignature(group=4, even=['x:(0)'], odd=['s:(1)'])"
    poly = f"SuperPolynomial(2 terms over {graded})"
    assert repr(PLAIN) == plain
    assert repr(GRADED) == graded
    assert repr(x + 1) == poly
    assert repr(f) == f"SuperRational(SuperPolynomial(1 terms over {graded}) / {poly})"
    assert repr(SuperMorphism(PLAIN, SuperSignature(even=["y"]), {
        "y": SuperRational.variable(PLAIN, "x")})) == (
        f"SuperMorphism({plain} -> SuperSignature(even=['y'], odd=[]))")
    assert repr(GradedMorphism(GRADED, target, {"y": SuperRational(x)})) == (
        f"GradedMorphism({graded} -> GradedSignature(group=4, even=['y:(0)'], odd=[]))")
    # the stored integers: num over one positive den, at the conductor
    assert repr(root_of_unity(4, 1) / 2) == "Cyclotomic(num=(0, 1), den=2, conductor=4)"
    assert repr(Cyclotomic([Fraction(-2, 3), Fraction(1, 6)], 3)) == (
        "Cyclotomic(num=(-4, 1), den=6, conductor=3)")
    assert repr(Cyclotomic.from_rational(0)) == "Cyclotomic(num=(0,), den=1, conductor=1)"
