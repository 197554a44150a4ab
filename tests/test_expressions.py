"""Parsing, evaluation, and canonical formatting of expression text."""

import random
from fractions import Fraction

import pytest

from gradedcover import (
    ExprSyntaxError,
    GradedSignature,
    NotInvertibleError,
    ParityMap,
    SuperRational,
    SuperSignature,
    format_expression,
    make_group,
    parse_expression,
    root_of_unity,
)
from gradedcover.expressions import MAX_NESTING
from conftest import random_group, random_parity, random_rational, random_signature


def line_signature():
    g = make_group([2])
    return GradedSignature(
        g,
        ParityMap.trivial(g),
        even=[("x0", g.character((0,))), ("x1", g.character((1,)))],
    )


def super_pair():
    return SuperSignature(even=["x0", "x2"], odd=["xi1", "xi3"])


def test_parse_reciprocal_of_a_sum():
    sig = line_signature()
    f = parse_expression("1/(x0 + x1)", sig)
    x0 = SuperRational.variable(sig, "x0")
    x1 = SuperRational.variable(sig, "x1")
    assert f == 1 / (x0 + x1)
    assert not f.denominator.has_odd_content()


def test_parse_anticommutator_collapses_to_zero():
    sig = super_pair()
    assert parse_expression("xi1*xi2 + xi2*xi1", SuperSignature(odd=["xi1", "xi2"])).is_zero()
    assert parse_expression("xi1*xi1", sig).is_zero()


def test_parse_the_odd_transition_component():
    sig = super_pair()
    f = parse_expression("(x0*xi1 - x2*xi3)/((x0)^2 - (x2)^2)", sig)
    x0 = SuperRational.variable(sig, "x0")
    x2 = SuperRational.variable(sig, "x2")
    xi1 = SuperRational.variable(sig, "xi1")
    xi3 = SuperRational.variable(sig, "xi3")
    assert f == (x0 * xi1 - x2 * xi3) / (x0**2 - x2**2)


def test_numeric_atoms():
    sig = super_pair()
    assert parse_expression("1/2", sig) == SuperRational.constant(sig, Fraction(1, 2))
    assert parse_expression("i", sig) == SuperRational.constant(sig, root_of_unity(4, 1))
    assert parse_expression("zeta(3,2)", sig) == SuperRational.constant(
        sig, root_of_unity(3, 2)
    )
    assert parse_expression("i^2", sig) == -1


def test_weight_suffix_shorthand():
    sig = line_signature()
    assert parse_expression("x0 - x0", sig).is_zero()
    g = make_group([2])
    weighted = GradedSignature(
        g,
        ParityMap.trivial(g),
        even=[("x@(0)", g.character((0,))), ("x@(1)", g.character((1,)))],
    )
    # shorthand x@0 resolves to the canonical name x@(0)
    assert parse_expression("x@0 + x@(0)", weighted) == 2 * SuperRational.variable(
        weighted, "x@(0)"
    )


def test_unary_minus_and_powers():
    sig = line_signature()
    x0 = SuperRational.variable(sig, "x0")
    assert parse_expression("-x0^2", sig) == -(x0**2)
    assert parse_expression("2*x0^3", sig) == 2 * x0**3
    assert parse_expression("x0^0", sig) == 1


def test_syntax_errors_carry_positions():
    sig = line_signature()
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x0 + ", sig)
    assert err.value.position == 6
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x0 $ x1", sig)
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_expression("x0^(2)", sig)  # exponents are plain integers
    with pytest.raises(ExprSyntaxError):
        parse_expression("2 x0", sig)  # no implicit multiplication


def test_long_flat_sums_and_minus_chains_need_no_recursion():
    sig = line_signature()
    x0 = SuperRational.variable(sig, "x0")
    assert parse_expression(" + ".join(["x0"] * 5000), sig) == 5000 * x0
    assert parse_expression("-" * 1001 + "x0", sig) == -x0


def test_parenthesis_nesting_is_bounded():
    sig = line_signature()
    x0 = SuperRational.variable(sig, "x0")
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("(" * 3000 + "x0" + ")" * 3000, sig)
    assert err.value.position == MAX_NESTING + 1
    assert parse_expression("(" * MAX_NESTING + "x0" + ")" * MAX_NESTING, sig) == x0


def test_whole_text_is_syntax_checked_before_evaluation():
    sig = line_signature()
    with pytest.raises((ZeroDivisionError, NotInvertibleError)):
        parse_expression("1/0", sig)
    for text in ("1/0 )", "zeta(3,1) )"):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, sig)
        assert err.value.position == len(text)


def test_unknown_identifier_is_reported_with_position():
    sig = line_signature()
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x0 + nope", sig)
    assert "nope" in str(err.value)
    assert err.value.position == 6


def test_division_by_pure_odd_is_rejected():
    sig = super_pair()
    with pytest.raises(NotInvertibleError):
        parse_expression("1/xi1", sig)


def test_format_zero():
    sig = line_signature()
    assert format_expression(SuperRational.zero(sig)) == "0"


def test_format_round_trips_worked_examples():
    sig = line_signature()
    for text in ("1/(x0 + x1)", "(x0^2 - x1^2)/(x0*x1)", "-x0 + 1/2"):
        f = parse_expression(text, sig)
        assert parse_expression(format_expression(f), sig) == f

    pair = super_pair()
    f = parse_expression("(x0*xi1 - x2*xi3)/((x0)^2 - (x2)^2)", pair)
    assert parse_expression(format_expression(f), pair) == f


def test_format_is_deterministic():
    sig = line_signature()
    f = parse_expression("(x1 + x0)^3/(x0 - x1)", sig)
    assert format_expression(f) == format_expression(f)
    g = parse_expression("(x0 + x1)^3/(-x1 + x0)", sig)
    assert format_expression(f) == format_expression(g)


def test_format_cyclotomic_coefficients():
    sig = super_pair()
    f = parse_expression("(1/2)*i*x0 + zeta(3,1)*x2", sig)
    text = format_expression(f)
    assert parse_expression(text, sig) == f
    assert "zeta(3,1)" in text and "i" in text


def test_random_round_trips():
    rng = random.Random(101)
    for _ in range(40):
        grp = random_group(rng)
        sig = random_signature(rng, grp, random_parity(rng, grp))
        f = random_rational(rng, sig)
        assert parse_expression(format_expression(f), sig) == f
