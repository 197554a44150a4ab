"""Parsing, evaluation, and canonical formatting of expression text."""

import functools
import json
import operator
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcover import (
    Cyclotomic,
    ExprSyntaxError,
    GradedSignature,
    NotInvertibleError,
    ParityMap,
    SuperMonomial,
    SuperPolynomial,
    SuperRational,
    SuperSignature,
    format_expression,
    make_group,
    parse_expression,
    parse_group_spec,
    parse_parity_spec,
    root_of_unity,
)
from gradedcover.cli import dump_atlas, load_atlas, parse_graded_signature
from gradedcover.covering import lift_atlas
from gradedcover.expressions import _END, MAX_NESTING, MEMO_SPAN, _Reader
from gradedcover.expressions import parse_residues, parse_var_name
from conftest import NINES, SOUP_TOKENS, entries, random_group, random_parity, random_rational
from conftest import random_signature, unpacked_tower
from reference_parser import _Parser, _kind, reference_parse_expression

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402  (the benchmark's seeded decompose specs and atlas texts)


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
    with pytest.raises(ExprSyntaxError, match="above the bound 4096") as err:
        parse_expression("x0 + zeta(4097,1)", sig)
    assert err.value.position == 6
    with pytest.raises(ExprSyntaxError, match="above the size bound 500") as err:
        parse_expression("x0 + (1 + x0)^500", sig)
    assert err.value.position == 14  # the "^"


def test_single_term_powers_are_bounded_by_the_digits_they_print():
    sig = SuperSignature(even=["x"], odd=["s"])
    # 2^14284 has 4300 digits, 2^14285 has 4301
    assert parse_expression("(2*x)^14284", sig) == SuperRational.constant(sig, 2**14284) * (
        parse_expression("x^14284", sig))
    assert len(format_expression(parse_expression("(2*x)^14284", sig))) == 4300 + len("*x^14284")
    for text, position in [("(2*x)^14285", 6), ("(2*x)^999999", 6), ("(x/10)^4300", 7),
                           ("(-3*x)^1000000000", 7),
                           ("(2*zeta(3,1)*x)^999999", 16), ("(2*i*x)^14285", 8)]:
        with pytest.raises(ExprSyntaxError, match="more than 4300 digits") as err:
            parse_expression(text, sig)
        assert err.value.position == position  # the "^"
    # roots of unity, units and odd squares stay small, at any exponent
    for text in ("(zeta(3,1)*x)^100000000", "(-x)^100000001", "(2*s)^999999", "(x/10)^4299"):
        parse_expression(text, sig)


def test_integer_literals_are_bounded_by_the_digits_the_interpreter_reads():
    sig = SuperSignature(even=["x"])
    digits = "1" * 4301
    for text, position in [(digits, 1), (f"x^{digits}", 3), (f"2 + zeta({digits},1)", 10),
                           (f"zeta(3,{digits})", 8)]:
        with pytest.raises(ExprSyntaxError, match="integer literal has more than 4300 digits") as err:
            parse_expression(text, sig)
        assert err.value.position == position  # the literal
    assert parse_expression(digits[1:], sig) == SuperRational.constant(sig, int(digits[1:]))


def test_single_term_products_and_quotients_are_bounded_by_the_printable_digits():
    """A product or a quotient of one term by one term may not make a
    coefficient the interpreter cannot print: it is refused at its operator."""
    sig = SuperSignature(even=["x"])
    big = "(10*x)^4000"  # 10^4000 has 4001 digits
    for text, what, position in [(f"{big}*{big}", "product", 12),
                                 (f"{big}/(1/10)^4000", "quotient", 12),
                                 (f"x*{big}*10^300", "product", 14)]:
        with pytest.raises(ExprSyntaxError, match=f"coefficient of the {what} has more than "
                                                  "4300 digits") as err:
            parse_expression(text, sig)
        assert err.value.position == position  # the operator
    # 4,300 digits are printable
    value = parse_expression(f"{big}*10^299", sig)
    assert value.numerator.terms[SuperMonomial((4000,), ())] == 10**4299


def test_multi_term_and_quotient_results_are_bounded_by_the_printable_digits():
    """A product, quotient or power that goes beyond single terms, or a sum
    or difference of quotients, may not make a coefficient the interpreter
    cannot print either: it is refused at its operator, a power at the first
    product of its binary powering that passes the bound."""
    sig = SuperSignature(even=["x"])
    big = "(10*x)^4000"  # 10^4000 has 4001 digits
    for lhs, op, rhs, what in [
        (big, "*", "(10^4000*x + 1)", "product"),
        (f"x/{big}", "/", big, "quotient"),
        ("1/(10^4000*x + 1)", "+", "1/(10^4000*x + 2)", "sum"),
        ("1/(10^4000*x + 1)", "-", "1/(10^4000*x + 2)", "difference"),
        ("(10^4000*x + 1)", "^", "2", "power to the 2"),
        # refused at its first squaring, not after 8 more
        ("(10^4000*x + 1)", "^", "499", "power to the 499"),
        ("(1/(1 + 10^3000*x))", "^", "3", "power to the 3"),
    ]:
        with pytest.raises(ExprSyntaxError, match=f"coefficient of the {what} has more than "
                                                  "4300 digits") as err:
            parse_expression(lhs + op + rhs, sig)
        assert err.value.position == len(lhs) + 1  # the operator
    # 4,300 digits are printable
    value = parse_expression("(10^4000*x + 1)*(10^299*x + 1)", sig)
    assert value.numerator.terms[SuperMonomial((2,), ())] == 10**4299


def test_sums_and_irrational_powers_are_bounded_by_the_printable_digits():
    """A sum of polynomials adds at most one digit: each stacked sum is
    checked once, as it leaves the stack, and refused at its own last ``+``
    or ``-``.  An irrational single-term power is refused at the first
    product of its binary powering past the bound."""
    sig = SuperSignature(even=["x"])
    nines = "9" * 4300
    for text, what, position in [(f"{nines} + {nines}", "sum", 4302),
                                 (f"{nines}*x - (-{nines}*x)", "difference", 4304),
                                 (f"({nines} + {nines})/(x + 1)", "sum", 4303),
                                 (f"x + 1 + ({nines} + {nines})*x", "sum", 4311),
                                 (f"-({nines} + {nines})", "sum", 4304),
                                 (f"({nines} - 1 + {nines})^2", "sum", 4307),
                                 ("((1+zeta(5,1))*x)^10000000", "power to the 10000000", 18)]:
        with pytest.raises(ExprSyntaxError, match=f"coefficient of the {what} has more than "
                                                  "4300 digits") as err:
            parse_expression(text, sig)
        assert err.value.position == position
    # 4,300 digits are printable
    value = parse_expression(f"{nines[1:]} + {nines[1:]}", sig)
    assert value.numerator.terms[SuperMonomial((0,), ())] == 2 * int(nines[1:])


def test_power_bound_counts_terms_times_field_width():
    sig = line_signature()
    # 500 terms of width 1, and C(32,2) = 496 terms of (1 + x0 + x1)^30
    assert len(parse_expression("(1 + x0)^499", sig).numerator.terms) == 500
    assert len(parse_expression("(1 + x0 + x1)^30", sig).numerator.terms) == 496
    assert len(parse_expression("(1/(1 + x0))^499", sig).denominator.terms) == 500
    # one term, or an exponent of 0 or 1, is never counted; one term is bounded
    # only by the digits of its coefficient (2^14284 has 4300)
    assert parse_expression("(x0*x1)^100000", sig).numerator.as_constant() is None
    assert parse_expression("(2*x0*x1)^14284", sig).numerator.as_constant() is None
    long_sum = "(" + " + ".join(f"x0^{k}" for k in range(600)) + ")"
    assert parse_expression(long_sum + "^1", sig) == parse_expression(long_sum, sig)
    assert parse_expression(long_sum + "^0", sig) == 1
    for text in ["(1 + x0)^500", "(1 + x0 + x1)^31", "(x0/(1 + x0))^500",
                 "(1 + zeta(12,1)*x0)^125", "(1 + x0)^1000000000"]:
        with pytest.raises(ExprSyntaxError, match="above the size bound 500"):
            parse_expression(text, sig)
    # (1 + x0)^125 has 126 terms of width 1; over Q(zeta_12) each has width 4
    assert len(parse_expression("(1 + x0)^125", sig).numerator.terms) == 126


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


def cyclic_line(q, even):
    grp = make_group([q])
    return parse_graded_signature(grp, ParityMap.trivial(grp), even, "")


def test_printed_coefficients_do_not_depend_on_how_products_are_grouped():
    """A numerator times each twist of its denominator in turn, times their
    product once, and the orbit tower's ``_normed`` give one value, so one
    text.  Over Z_6 the first two once printed one term as
    12*zeta(120,15)*x@(1)*y@(3)^2 and as 12*zeta(24,3)*x@(1)*y@(3)^2."""
    sig = cyclic_line(6, "x@1,y@3")
    f = parse_expression("(zeta(5,1) + y@3)/(1 + 2*zeta(8,1)*x@1 + 3*y@3)", sig)
    num, den = f.numerator, f.denominator
    # D has monomial weights 0, 1 and 3: every g != 0 gives a distinct twist
    twists = [den.act(g) for g in sig.group.elements()[1:]]
    one_at_a_time, at_once = num, twists[0]
    for t in twists:
        one_at_a_time = one_at_a_time * t
    for t in twists[1:]:
        at_once = at_once * t
    at_once = num * at_once
    tower = functools.reduce(operator.mul, unpacked_tower(f._normed()[0], sig), num)
    assert one_at_a_time == at_once == tower
    texts = {format_expression(p) for p in (one_at_a_time, at_once, tower)}
    assert len(texts) == 1
    (text,) = texts
    assert "12*zeta(8,1)*x@(1)*y@(3)^2" in text and parse_expression(text, sig) == tower


@pytest.mark.parametrize("group, even, text, printed", [
    # Q(zeta_6) holds zeta_3 = zeta_6 - 1: print over the group's field
    ("6", "x@0", "zeta(3,1)*x@0", "(-1 + zeta(6,1))*x@(0)"),
    ("12", "x@0", "zeta(3,1)", "(-1 + zeta(12,2))"),
    ("4", "x@0", "zeta(8,2)*x@0 + zeta(12,3)", "i*x@(0) + i"),
    # no field of the group holds it: its least conductor
    ("2", "x@0", "zeta(3,1)", "zeta(3,1)"),
    ("2", "x@0", "zeta(24,6)*x@0 + zeta(30,6)", "i*x@(0) + zeta(5,1)"),
    ("3", "x@0", "zeta(6,1)", "(1 + zeta(3,1))"),
    ("2", "x@0", "zeta(10,3)*zeta(4,1)", "-zeta(20,1)"),
    # rationals print alike at any conductor
    ("2", "x@0", "zeta(8,1)^8*x@0 - zeta(12,6)/2", "x@(0) + 1/2"),
])
def test_coefficients_print_over_the_group_field_or_at_their_least_conductor(
    group, even, text, printed
):
    sig = cyclic_line(int(group), even)
    f = parse_expression(text, sig)
    assert format_expression(f) == printed
    assert parse_expression(printed, sig) == f


def test_random_round_trips():
    rng = random.Random(101)
    for _ in range(40):
        grp = random_group(rng)
        sig = random_signature(rng, grp, random_parity(rng, grp))
        f = random_rational(rng, sig)
        assert parse_expression(format_expression(f), sig) == f


@st.composite
def signed_functions(draw):
    """A signature over a group of order at most 12 and a seeded random function on it."""
    grp = make_group(draw(st.sampled_from([[2], [3], [4], [6], [12], [2, 2], [2, 6], [3, 3]])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sig = random_signature(rng, grp, random_parity(rng, grp))
    return sig, random_rational(rng, sig)


@settings(max_examples=60, deadline=None)
@given(signed_functions())
def test_format_then_parse_is_the_identity(case):
    sig, f = case
    for g in [f, *f.decompose().values()]:
        text = format_expression(g)
        back = parse_expression(text, sig)
        assert back == g
        assert format_expression(back) == text


# -- polynomial-first evaluation against the all-SuperRational evaluator ----

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def reference_parse(text, signature):
    """The evaluator with a ``SuperRational`` for every value on the stack."""
    stack = []
    for step in _Parser(text).parse():
        op = step[0]
        if op == "var":
            stack.append(SuperRational.variable(signature, parse_var_name(step[1])[0]))
        elif op == "const":
            stack.append(SuperRational.constant(signature, step[1]))
        elif op == "root":
            stack.append(SuperRational.constant(signature, root_of_unity(step[1], step[2])))
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "^":
            stack[-1] = stack[-1] ** step[1]
        else:
            rhs = stack.pop()
            stack[-1] = _OPS[op](stack[-1], rhs)
    return stack[0]


def _items(poly):
    return [(mono, c.conductor, entries(c)) for mono, c in poly.terms.items()]


def evaluation(parse, text, signature):
    """Numerator and denominator items in order, or the exception raised."""
    try:
        f = parse(text, signature)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return _items(f.numerator), _items(f.denominator)


ATOMS = ["x0", "x1", "xi1", "xi2", "0", "1", "2", "(3/2)", "i", "zeta(12,5)", "zeta(3,1)"]
# zeta(12,0) and zeta(4,4) equal 1 at conductors 12 and 4
CONSTANT_DIVISORS = ["2", "(3/2)", "i", "zeta(12,5)", "zeta(12,0)", "zeta(4,4)", "1"]
POLYNOMIAL_DIVISORS = ["(1 + x0)", "(x0 - 2*x1)", "(3 + xi1*xi2)", "(x1 + xi1)", "xi2", "(x0 - x0)"]


def random_text(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["", "", "-", "--"]) + rng.choice(ATOMS)
    kind = rng.choice(["+", "-", "*", "/", "/", "/", "^", "neg"])
    a = random_text(rng, depth - 1)
    if kind == "/":
        r = rng.random()
        if r < 0.5:
            b = rng.choice(CONSTANT_DIVISORS)
        elif r < 0.8:
            b = rng.choice(POLYNOMIAL_DIVISORS)
        else:
            b = f"({random_text(rng, depth - 1)})"
        return f"({a})/{b}"
    if kind == "^":
        return f"({a})^{rng.choice([0, 0, 1, 2])}"
    if kind == "neg":
        opening, closing = rng.choice([("-(-(", "))"), ("--(", ")"), ("-(--(", "))")])
        return opening + a + closing
    return f"{a} {kind} {random_text(rng, depth - 1)}"


def test_polynomial_first_evaluation_matches_the_rational_evaluator():
    sig = SuperSignature(even=["x0", "x1"], odd=["xi1", "xi2"])
    rng = random.Random(5)
    divisions_by_zero = ["x0/0", "x0/(x0-x0)"]
    texts = divisions_by_zero + [
        f"3/2*zeta(12,5)*x0/{d}" for d in CONSTANT_DIVISORS + POLYNOMIAL_DIVISORS
    ]
    texts += ["x0^0", "---x0", "-(-(-x0))^2", "(x0/(1 + x0))*(1 + x0)", "x1/zeta(12,0) + x0"]
    texts += [random_text(rng, 3) for _ in range(300 - len(texts))]
    # single terms folded on the stack: odd squares, zeros, a conductor that
    # resets once its sum cancels, powers of a root, and the zeroth power
    texts += ["xi1^2", "(x0*xi1)^2", "0*x0", "x0/0", "0/3", "x0 - x0 + zeta(12,5)*x0",
              "zeta(6,1)^3*x1", "(x0*xi2)^0"]
    # single-term powers above 2: rationals, a unit, roots and an odd monomial
    texts += ["((3/2)*x0)^7", "(-x0)^9", "(x0/(3/2))^4", "(2*zeta(12,5)*x1)^5", "(i*x1)^6",
              "(x0*xi1)^3"]
    # long sums accumulated in place, with cancellations and re-insertions
    long_rng = random.Random(7)
    texts += [
        " + ".join(random_text(long_rng, 1) for _ in range(long_rng.randint(50, 80)))
        for _ in range(6)
    ]
    texts += [" - ".join(["x0*xi1", "zeta(12,5)*x1^2", "(3/2)*x0"] * 20) + " + x0*x1"]
    outcomes = {}
    for text in texts:
        outcomes[text] = evaluation(reference_parse, text, sig)
        assert evaluation(parse_expression, text, sig) == outcomes[text], text
    failed = [text for text, out in outcomes.items() if isinstance(out[0], type)]
    # a constant denominator other than 1 is folded, so these equal 1
    unit_denominators = [
        out[1] for out in outcomes.values()
        if not isinstance(out[0], type) and len(out[1]) == 1 and out[1][0][0].degree() == 0
    ]
    assert set(divisions_by_zero) <= set(failed) and len(failed) < 100
    assert any(conductor > 1 for ((_, conductor, _),) in unit_denominators)


def test_a_span_memo_matches_the_rational_evaluator():
    """One memo for many texts, as a morphism load passes it: each span of
    at least ``MEMO_SPAN`` characters repeats, then stands left of every
    operator.  A span's value is shared, so a sum into it must take a copy."""
    sig = SuperSignature(even=["x0", "x1"], odd=["xi1", "xi2"])
    spans = [
        "(x0 + 2*x1 - zeta(12,5)*x0*x1)",
        "((3/2)*zeta(12,5)*x0^2*x1*xi1)",  # one term
        "((x0 + xi1*xi2)/(1 + x0*x1 + x1))",  # a quotient
        "(x0 - x0 + zeta(3,1) - zeta(3,1))",  # zero
    ]
    assert min(map(len, spans)) >= MEMO_SPAN
    texts = []
    for span in spans:
        texts += [span, f"{span} + x0", f"{span} - x1*xi2", f"{span} * x0", f"{span} / (1 + x1)",
                  f"{span} / zeta(12,5)", f"{span}^3", f"{span}^0", f"-{span}", f"x0 - {span}",
                  f"{span} + {span}", f"({span} + x1)", span]
    rng = random.Random(11)
    pool = [f"({random_text(rng, 3)})" for _ in range(12)]
    texts += [f"{rng.choice(pool)} {rng.choice('+-*/')} {rng.choice(pool)}" for _ in range(150)]
    texts += [f"{rng.choice(pool)}^{rng.choice([0, 1, 2])}" for _ in range(30)]
    memo: dict = {}
    for text in texts:
        with_memo = evaluation(lambda t, s: parse_expression(t, s, memo), text, sig)
        assert with_memo == evaluation(reference_parse, text, sig), text
    assert all(span in memo[span[:MEMO_SPAN]] for span in spans)
    # equal spans give one object
    den = "(1 + x0*x1 + zeta(12,5)*x1^2)"
    f, g = (parse_expression(f"{num}/{den}", sig, memo) for num in ("x0", "(x1 - 3)"))
    assert f.denominator is g.denominator


def test_a_load_reads_each_identifier_of_a_transition_once(monkeypatch):
    """The span memo of a morphism load also keeps each identifier's
    monomial, in its own dict under the key None: reading lifted P^1/Z_4 back spells and builds each name of a
    transition once, and an unknown name is never kept and still raises
    where it stands."""
    from gradedcover import expressions

    p1 = {"charts": {"0": {"even": ["x"]}, "1": {"even": ["y"]}},
          "transitions": {"0->1": {"y": "1/x"}, "1->0": {"x": "1/y"}}}
    group = make_group([4])
    parity = ParityMap.trivial(group)
    data = dump_atlas(lift_atlas(load_atlas(p1)[0], group, parity), group, parity)
    spelled, built = [], []
    spell, variable = expressions.parse_var_name, SuperPolynomial.variable.__func__
    monkeypatch.setattr(expressions, "parse_var_name", lambda n: spelled.append(n) or spell(n))
    monkeypatch.setattr(SuperPolynomial, "variable", classmethod(
        lambda cls, sig, n: built.append((id(sig), n)) or variable(cls, sig, n)))
    load_atlas(data)
    assert sorted(spelled) == [f"{c}@({k})" for c in "xy" for k in range(4)]
    assert len(built) == len(set(built)) == 8
    sig = SuperSignature(even=["x0", "x1"])
    memo: dict = {}
    parse_expression("x0 + x1", sig, memo)
    for _ in range(2):
        with pytest.raises(ExprSyntaxError, match=r"unknown identifier 'x2' \(position 6\)"):
            parse_expression("x0 + x2", sig, memo)
    assert memo.keys() == {None} and memo[None].keys() == {"x0", "x1"}


def test_a_span_past_the_printable_digits_is_refused_where_it_was():
    """A sum is checked as it leaves the stack: the memo keeps no value
    that has not passed that check, so the next text that holds the span
    is refused at the span's own operator, as without a memo."""
    sig = SuperSignature(even=["x0"])
    big = f"({NINES} + {NINES})"  # 4,301 digits
    texts = [f"{big} - {NINES} - {NINES}", f"x0 + {big}*x0"]
    memo: dict = {}
    outcomes = [evaluation(lambda t, s: parse_expression(t, s, memo), text, sig) for text in texts]
    assert outcomes == [evaluation(parse_expression, text, sig) for text in texts]
    assert outcomes[0] == ([], [(SuperMonomial((0,), ()), 1, (1,))])
    position = texts[1].index(" + ", 5) + 2
    assert outcomes[1] == (
        ExprSyntaxError, f"coefficient of the sum has more than 4300 digits (position {position})"
    )


def test_a_root_to_a_power_is_the_root_at_the_product():
    sig = SuperSignature(even=["x0"])
    x0 = SuperRational.variable(sig, "x0")
    for n, k in [(1, 0), (2, 1), (3, 2), (4, 1), (6, 5), (12, 7), (4096, 5)]:
        for e in [0, 1, 2, 3, 7, 1000]:
            power = SuperRational.constant(sig, root_of_unity(n, k)) ** e * x0
            expected = (_items(power.numerator), _items(power.denominator))
            negated = (_items(-power.numerator), _items(power.denominator))
            texts = [f"zeta({n},{k})^{e}*x0", f"(zeta({n},{k}))^{e}*x0"]
            texts += [f"i^{e}*x0"] if (n, k) == (4, 1) else []
            for text in texts:
                assert evaluation(parse_expression, text, sig) == expected, text
            assert evaluation(parse_expression, f"-zeta({n},{k})^{e}*x0", sig) == negated


def test_printed_lift_images_parse_without_polynomial_arithmetic(monkeypatch):
    cp1 = {
        "charts": {"0": {"even": ["x"], "odd": []}, "1": {"even": ["y"], "odd": []}},
        "transitions": {"0->1": {"y": "1/x"}, "1->0": {"x": "1/y"}},
    }
    atlas, _, _ = load_atlas(cp1)
    group = make_group([4])
    parity = ParityMap.trivial(group)
    lifted = lift_atlas(atlas, group, parity)
    images = [
        (lifted.charts[key.split("->")[0]], text)
        for key, mapping in dump_atlas(lifted, group, parity)["transitions"].items()
        for text in mapping.values()
    ]
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__pow__"):
        method = getattr(SuperPolynomial, name)

        def counted(self, other, _name=name, _method=method):
            calls.append(_name)
            return _method(self, other)

        monkeypatch.setattr(SuperPolynomial, name, counted)
    for sig, text in images:
        f = parse_expression(text, sig)
        assert len(f.numerator.terms) > 1 and len(f.denominator.terms) > 1
    assert len(images) == 8 and calls == []


def test_lexer_errors_point_at_the_character():
    sig = line_signature()
    cases = [
        ("x0\t+\t$", 6),  # a tab is whitespace of width one
        ("x0 + \u00e9", 6),  # no identifier starts with a non-ASCII letter
        ("x0 + x1 #", 9),  # trailing garbage
        ("x0@ + x1", 3),  # a weight suffix needs its residues
    ]
    for text, pos in cases:
        with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
            parse_expression(text, sig)
        assert err.value.position == pos, text
        assert repr(text[pos - 1]) in str(err.value)
    assert [(_kind(t), pos) for t, pos in read_tokens("\tx0^2")] == [
        ("ident", 2), ("^", 4), ("int", 5), ("end", 6)
    ]


def read_tokens(text):
    """The reader's tokens, (text, position) each, read one at a time from
    the text by position, the end token last."""
    reader = _Reader(text, SuperSignature(), None)
    tokens = [(reader.tok, reader.at)]
    while reader.tok != _END:
        reader.advance()
        tokens.append((reader.tok, reader.at))
    return tokens


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:@(?:\(\s*\d+(?:\s*,\s*\d+)*\s*\)|\d+))?)
  | (?P<op>[-+*/^(),])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_lex(text):
    """The match-by-match lexer: (kind, text, position) per token, the end last."""
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start() + 1)
        if kind != "ws":
            tokens.append((m.group() if kind == "op" else kind, m.group(), m.start() + 1))
    tokens.append(("end", "end of input", len(text) + 1))
    return tokens


def reader_lex(text):
    return [(_kind(token), token, pos) for token, pos in read_tokens(text)]


def test_the_one_call_lexer_matches_the_match_by_match_loop():
    rng = random.Random(3)
    texts = SOUP_TOKENS + ["".join(rng.choices(SOUP_TOKENS, k=rng.randint(1, 12)))
                           for _ in range(400)]
    texts += ["x0\t+\t$", "x0 + \u00e9", "x0 + x1 #", "x0@ + x1", "\tx0^2", "", "  ", "x0 + ",
              "x@(1", "x@(1,)", "x@ (1)", "x0\n+\r\n1"]
    for seed in range(20):
        rng = random.Random(seed)
        grp = random_group(rng)
        f = random_rational(rng, random_signature(rng, grp, random_parity(rng, grp)))
        texts += [format_expression(g) for g in [f, *f.decompose().values()]]
    # letters no identifier starts with, superscript digits that \d does not
    # match, decimal digits of other scripts that it does, and Unicode spaces
    texts += ["\u00e9", "x\u00e9", "x0\u00b2", "\u00b2", "\u0663", "x0*\u0663\u0661 + 2",
              "x@\u0663", "x@(\u0661, \u0662)", "\u00a0x0\u2003+\u30001", "x0\x1c+\x1f1"]
    texts += [chr(c) for c in range(0x3000)]
    texts += [f"1{c}x" for c in map(chr, range(0x110000)) if c.isdecimal() or c.isspace()]
    for text in texts:
        outcomes = []
        for lex in (reference_lex, reader_lex):
            try:
                outcomes.append(lex(text))
            except ExprSyntaxError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], repr(text)


# -- the one-descent reader against the postfix reference -------------------


def assert_read_as_the_reference(texts, signature):
    """The same items in the same order, or the same exception type and
    message, which holds a syntax error's position."""
    for text in texts:
        same = evaluation(parse_expression, text, signature) == evaluation(
            reference_parse_expression, text, signature)
        assert same, text  # not the outcomes, whose integers may pass the printable digits


def soup_signature():
    group = make_group([4])
    return parse_graded_signature(group, ParityMap(group, (1,)), "x@0,y@2", "s@1,t@3")


# the order of the error contract: a character no token starts with wins,
# then the first grammar error, then the first arithmetic failure, each
# partial product refused at its own operator
CONTRACT_TEXTS = [
    "1/0 )", "1/0 + w", "w + 1/0", "1/0 ) $", "w + (", "w $", "zeta(4097,1) + w",
    "w + zeta(4097,1)", "(10*x@0)^4000*(10*x@0)^4000", "x@0*(10*x@0)^4000*10^300*w",
    "(10*x@0)^4000/(1/10)^4000", f"({NINES} + {NINES})*zeta(4097,1)",
    f"({NINES} + {NINES}) + 1", f"-({NINES} + {NINES})", "zeta(4093,1)*zeta(4091,1)",
    "zeta(4093,1)*s@1*s@1*zeta(4091,1)", "s@1*zeta(4093,1)*s@1*zeta(4091,1)",
    "x@0/zeta(4093,1)/zeta(4091,1)", "x@0/0", "x@0/(x@0 - x@0)", "0*w", "s@1^2*zeta(4097,1)",
    "x@0/s@1", "x@0/1", "x@0/-1", "x@0/--1", "x@0/zeta(4,0)", "x@0/-zeta(4,2)", "x@0/i^4",
    "x@0/1^7", "x@0/y@2^0", "x@0/-y@2^0", "2/4*3/6*x@0", "-3/-6*i/i^3", "0^0*x@0", "x@0*0^0",
    "zeta(12,5)^0/zeta(1,3)*zeta(2,1)", "s@1*t@3*s@1", "t@3*s@1", "-s@1^1*t@3^0*x@0^2",
    "zeta(0,1)", "zeta(12,", "x@0^", "x@0^-1", "x@(1", "1" * 4301, f"x@0^{NINES}*x@0^{NINES}",
    "(" * 101 + "x@0" + ")" * 101, "x@(" + "1" * 4301 + ")", "x@0 + é + w", "٣*x@0",
    # runs of atoms past and at the printable digits, refused at their own operator
    f"{NINES}*{NINES}*x@0", f"x@0*{NINES}/{NINES}*{NINES}*w", f"1/{NINES}/{NINES}*w",
    f"{NINES}*zeta(3,1)*{NINES}", f"-s@1*{NINES}/i*{NINES}", "10^2150*10^2149*x@0",
    "10^2150*10^2150*x@0", "x@0/10^2150/10^2149", "x@0/10^2150/10^2150",
]


def test_the_reader_matches_the_reference_on_token_soups():
    rng = random.Random(34)
    texts = CONTRACT_TEXTS + ["".join(rng.choices(SOUP_TOKENS, k=rng.randint(1, 12)))
                              for _ in range(500)]
    assert_read_as_the_reference(texts, soup_signature())


def test_the_reader_matches_the_reference_on_random_and_printed_texts():
    sig = SuperSignature(even=["x0", "x1"], odd=["xi1", "xi2"])
    rng = random.Random(35)
    assert_read_as_the_reference([random_text(rng, 4) for _ in range(300)], sig)
    for seed in range(40):
        rng = random.Random(seed)
        grp = random_group(rng)
        sig = random_signature(rng, grp, random_parity(rng, grp))
        f = random_rational(rng, sig)
        assert_read_as_the_reference([format_expression(g) for g in [f, *f.decompose().values()]],
                                     sig)


def test_the_reader_matches_the_reference_on_the_decompose_universe():
    for index in range(256):
        spec = inputs.decompose_spec(index)
        group = parse_group_spec(spec["group"])
        parity = parse_parity_spec(group, spec["parity"])
        sig = parse_graded_signature(group, parity, spec["even"], spec["odd"])
        assert_read_as_the_reference([spec["expr"]], sig)


BENCHMARK_LIFTS = sorted({
    *inputs.lift_sweep([]), *inputs.cocycle_sweep([]),
    *(("shear", j, g, p) for j in range(inputs.SHEAR_UNIVERSE)
      for g, p in inputs.SHEAR_LIFT_GROUPS + inputs.SHEAR_COCYCLE_GROUPS),
})


def test_the_reader_shares_what_the_reference_shares_on_the_benchmark_lifts():
    """Each lifted atlas of the benchmark, and the broken one, read back one
    transition at a time with one memo each: the same values, and equal
    spans shared as one object exactly where the reference shares them."""
    shared = 0
    for family, index, group_spec, parity_spec in BENCHMARK_LIFTS:
        group = parse_group_spec(group_spec)
        parity = parse_parity_spec(group, parity_spec)
        atlas = load_atlas(json.loads(inputs.atlas_text(family, index)))[0]
        lifted = lift_atlas(atlas, group, parity)
        texts = [json.dumps(dump_atlas(lifted, group, parity))]
        if (family, index, group_spec, parity_spec) == inputs.BROKEN_BASE:
            texts.append(inputs.break_lifted(texts[0]))
        for key, images in (item for text in texts
                            for item in json.loads(text)["transitions"].items()):
            sig = lifted.charts[key.split("->")[0]]
            reads = []
            for parse in (parse_expression, reference_parse_expression):
                memo: dict = {}
                reads.append([parse(text, sig, memo) for text in images.values()])
            for f, g in zip(*reads):
                assert (_items(f.numerator), _items(f.denominator)) == (
                    _items(g.numerator), _items(g.denominator)), key
            for fs in reads:
                fs[:] = [[a.denominator is b.denominator for b in fs] for a in fs]
            assert reads[0] == reads[1], key
            shared += sum(map(sum, reads[0])) > len(reads[0])
    assert shared == 2 * 12 + 2  # each transition of the 12 lifted P^1 and P^{1|1}, and the broken one


def test_a_span_read_again_is_not_lexed(monkeypatch):
    """A span the memo holds is stepped over: no token is read inside it."""
    from gradedcover import expressions

    sig = SuperSignature(even=["x0", "x1"])
    span = "(1 + x0*x1 + 2*x0^2 - x1^3)"
    memo: dict = {}
    parse_expression(f"x0/{span}", sig, memo)
    starts = []
    token_re = expressions._TOKEN_RE

    class Spy:
        def match(self, text, pos):
            starts.append(pos)
            return token_re.match(text, pos)

    monkeypatch.setattr(expressions, "_TOKEN_RE", Spy())
    text = f"x1/{span} + x0"
    f = parse_expression(text, sig, memo)
    begin = text.index(span)
    assert starts and not [pos for pos in starts if begin < pos < begin + len(span)]
    assert f.denominator is memo[span[:MEMO_SPAN]][span]


# -- one texts dict renders each distinct terms dict once ---------------------


def test_shared_and_unshared_denominators_print_as_alone():
    sig = line_signature()
    x0, x1 = (parse_expression(n, sig).numerator for n in ("x0", "x1"))
    shared, other = x0 * x0 - x1 * x1, x0 + 2 * x1
    copy = SuperPolynomial(sig, dict(shared.terms))  # equal terms, another dict
    items = [
        SuperRational(x0, shared), SuperRational(x1, other), SuperRational(-x1, shared),
        x0 + 1, SuperRational(x0 * x1, shared), SuperRational(x1, copy),
        SuperRational(x0, SuperPolynomial.one(sig)), SuperRational(1 + x1, shared),
        SuperRational(x1, other),
    ]
    texts: dict = {}
    printed = [format_expression(f, texts) for f in items]
    assert printed == [format_expression(f) for f in items]
    assert printed[0].endswith(f"/({format_expression(shared)})")
    # one entry per distinct terms dict printed, numerators and denominators
    # alike; the denominator 1 is not printed
    polys = [x0, shared, x1, other, items[2].numerator, items[3], items[4].numerator, copy,
             items[7].numerator]
    assert len({id(p.terms) for p in polys}) == len(polys) == 9
    assert texts.keys() == {id(p.terms) for p in polys}
    assert all(key == id(terms) for key, (terms, _, _, _, _) in texts.items())
    # each entry keeps the text it filled for its signature, and serves it again
    entry = texts[id(shared.terms)]
    assert entry[3] is sig and entry[4] == format_expression(shared)
    assert format_expression(items[0], texts) == printed[0] and texts[id(shared.terms)] is entry


def test_a_freed_denominator_does_not_leak_its_text():
    sig = line_signature()
    one, mono, x1 = SuperMonomial((0, 0), ()), SuperMonomial((1, 0), ()), SuperMonomial((0, 1), ())
    texts: dict = {}

    def printed(k, texts):
        # the quotient is freed on return, so without the dict holding its
        # terms the next call's dicts could take their addresses
        f = SuperRational(SuperPolynomial(sig, {x1: k}), SuperPolynomial(sig, {one: 1, mono: k}))
        return format_expression(f, texts)

    # each k comes three times in a row, each time in new objects
    ks = [k - k % 3 + 1 for k in range(30)]
    assert [printed(k, texts) for k in ks] == [printed(k, None) for k in ks]
    assert len(texts) == 60 and len({template for _, _, template, _, _ in texts.values()}) == 20


def test_a_relabelled_polynomial_prints_through_the_memo_as_alone():
    """A polynomial over other names that shares the terms dict takes the
    template and fills in its own names, even where one name is a prefix of
    another, and a group of another exponent renders the terms anew."""
    source = SuperSignature(even=["x", "xx"], odd=["xi", "xxi"])
    p = parse_expression(
        "x*xx^2*xi + zeta(3,1)*x*xxi - 2/3*xx*xi*xxi + (1 + i)*x^10 + xx - 7", source
    ).numerator
    z6 = make_group([6])
    parity = ParityMap(z6, (1,))
    weight = z6.character
    graded = GradedSignature(z6, parity, even=[("xx@(2)", weight((2,))), ("x@(0)", weight((0,)))],
                             odd=[("xxi@(1)", weight((1,))), ("xi@(3)", weight((3,)))])
    den = parse_expression("x^2 + zeta(3,1)*xx + 1", source).numerator
    texts: dict = {}
    for sig in (
        source,
        SuperSignature(even=["xx", "x"], odd=["xxi", "xi"]),  # names swapped
        SuperSignature(even=["x", "xxx"], odd=["xi", "xxxi"]),
        graded,
        source,
    ):
        q, d = (SuperPolynomial._raw(sig, r.terms) for r in (p, den))
        for f in (q, SuperRational(q, d)):
            assert format_expression(f, texts) == format_expression(f)
    swapped = SuperSignature(even=["xx", "x"], odd=["xxi", "xi"])
    assert format_expression(SuperPolynomial._raw(swapped, p.terms), texts) == (
        "(1 + i)*xx^10 + xx*x^2*xxi + zeta(3,1)*xx*xi - 2/3*x*xxi*xi + x - 7")
    # zeta(3,1) over Q(zeta_6), the field of the Z_6 grading
    relabelled = format_expression(SuperPolynomial._raw(graded, p.terms))
    assert "(-1 + zeta(6,1))*xx@(2)*xi@(3)" in relabelled
    assert len(texts) == 2  # one entry per terms dict, rebuilt for another exponent
    # wider than any signature before: the slot texts grow to it
    wide = SuperSignature(even=[f"v{k}" for k in range(300)], odd=["w0", "w1"])
    q = parse_expression("v299^2*w1 - v0*w0*w1 + 3*v256", wide).numerator
    assert format_expression(q, texts) == "v299^2*w1 - v0*w0*w1 + 3*v256"


def count_templates(monkeypatch, atlas, order, parity):
    """(templates built, distinct polynomial objects printed) by ``dump_atlas``
    of ``atlas`` lifted over Z_order."""
    from gradedcover import expressions

    built = []
    template = expressions._template
    monkeypatch.setattr(expressions, "_template", lambda p, n: built.append(p) or template(p, n))
    group = make_group([order])
    parity = ParityMap(group, (parity,))
    lifted = lift_atlas(load_atlas(atlas)[0], group, parity)
    dump_atlas(lifted, group, parity)
    printed = {id(p) for m in lifted.transitions.values() for f in m.images.values()
               for p in (f.numerator, f.denominator) if p.as_constant() != 1}
    return len(built), len(printed)


def test_a_lifted_atlas_renders_each_shared_polynomial_once(monkeypatch):
    """The twin transitions of a lifted P^1 or P^{1|1} are relabelled copies
    that share their terms: each numerator and the one denominator of a
    transition are rendered once for both."""
    p1 = {"charts": {"0": {"even": ["x"]}, "1": {"even": ["y"]}},
          "transitions": {"0->1": {"y": "1/x"}, "1->0": {"x": "1/y"}}}
    p11 = {"charts": {"0": {"even": ["x"], "odd": ["xi"]}, "1": {"even": ["y"], "odd": ["eta"]}},
           "transitions": {"0->1": {"y": "1/x", "eta": "xi/x"},
                           "1->0": {"x": "1/y", "xi": "eta/y"}}}
    assert count_templates(monkeypatch, p1, 7, 0) == (8, 16)
    assert count_templates(monkeypatch, p11, 12, 1) == (13, 26)


@pytest.mark.parametrize("text, residues", [
    ("1", (1,)), ("(1)", (1,)), ("1,0", (1, 0)), ("(1,0)", (1, 0)), (" ( 1 , 0 ) ", (1, 0)),
])
def test_residue_text_takes_optional_parentheses(text, residues):
    assert parse_residues(text, "residues") == residues
    assert parse_var_name(f"x@{text}") == (f"x@({','.join(map(str, residues))})", residues)


@pytest.mark.parametrize("text", ["((1", "1)", "(1", "()", "", "1;0", "(1,)"])
def test_malformed_residue_text_is_quoted(text):
    with pytest.raises(ValueError, match=r"malformed weight suffix in 'x@"):
        parse_var_name(f"x@{text}")
    with pytest.raises(ValueError, match="malformed element"):
        parse_residues(text, "element")


# -- the one-pass printer against the termwise one it replaced -----------------


def reference_format_term(signature, mono, c):
    """One term as ``format_expression`` printed it term by term: the names
    of every exponent, then the coefficient through ``_basis_pieces``."""
    from gradedcover.cyclotomic import _basis_pieces, _join_signed

    vars_parts = []
    for i, e in enumerate(mono.even):
        if e == 1:
            vars_parts.append(signature.even[i])
        elif e > 1:
            vars_parts.append(f"{signature.even[i]}^{e}")
    vars_parts.extend(signature.odd[j] for j in mono.odd)
    if not c.is_rational():
        n = signature.group.exponent if isinstance(signature, GradedSignature) else 1
        c = c if n % c.conductor == 0 else c.least()
        c = c.lift(n) if n % c.conductor == 0 else c
    n = c.conductor
    pieces = _basis_pieces(c.num, c.den, lambda k: "i" if n == 4 else f"zeta({n},{k})")
    if len(pieces) > 1:
        coeff_txt = f"({_join_signed(pieces)})"
    else:
        coeff_txt = pieces[0]
        if vars_parts and coeff_txt == "1":
            coeff_txt = ""
        elif vars_parts and coeff_txt == "-1":
            coeff_txt = "-"
    body = "*".join(vars_parts)
    if coeff_txt in ("", "-"):
        return coeff_txt + body
    return coeff_txt + ("*" + body if body else "")


def reference_format_poly(poly):
    from gradedcover.cyclotomic import _join_signed

    if poly.is_zero():
        return "0"
    return _join_signed([reference_format_term(poly.signature, m, c) for m, c in sorted(
        poly.terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)])


# Groups of exponent 1 (a plain signature), 2, 3, 4, 6, 12 and rank 3; the
# coefficient conductors 1, 3, 4, 5, 7, 8 and 12, lifted to a multiple, often
# divide none of them, which sends a coefficient through ``least()``.
PRINT_GROUPS = [None, [2], [3], [4], [6], [12], [2, 2, 2], [2, 2, 3]]
PRINT_CONDUCTORS = [1, 3, 4, 5, 7, 8, 12]


@st.composite
def printed_polynomials(draw):
    factors = draw(st.sampled_from(PRINT_GROUPS))
    n_even, n_odd = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    if factors is None:
        sig = SuperSignature([f"x{i}" for i in range(n_even)], [f"s{j}" for j in range(n_odd)])
    else:
        grp = make_group(factors)
        odd_bit = int(factors[0] % 2 == 0 and n_odd > 0)
        parity = ParityMap(grp, (odd_bit,) + (0,) * (grp.rank - 1))
        weights = [[w for w in grp.characters() if parity(w) == b] for b in (0, 1)]
        sig = GradedSignature(
            grp, parity, even=[(f"x{i}", draw(st.sampled_from(weights[0]))) for i in range(n_even)],
            odd=[(f"s{j}", draw(st.sampled_from(weights[1]))) for j in range(n_odd * odd_bit)])
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 10**50))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        even = tuple(draw(exponent) for _ in sig.even)
        odd = tuple(j for j in range(len(sig.odd)) if draw(st.booleans()))
        n = draw(st.sampled_from(PRINT_CONDUCTORS))
        c = sum((root_of_unity(n, k) * Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
                 for k in range(draw(st.integers(1, 3)))), Cyclotomic.from_rational(0))
        if draw(st.booleans()):
            c = Cyclotomic.from_rational(draw(st.sampled_from([1, -1, Fraction(-5, 3), 7])))
        terms[SuperMonomial(even, odd)] = c.lift(n * draw(st.sampled_from([1, 2, 3]))) if (
            c.conductor == n) else c
    return SuperPolynomial(sig, terms)


@settings(max_examples=300, deadline=None)
@given(printed_polynomials())
def test_the_one_pass_printer_prints_what_the_termwise_one_did(poly):
    assert format_expression(poly) == reference_format_poly(poly)


def test_the_printer_oracle_covers_units_least_conductors_and_zero():
    """Fixed rows of the property: a unit coefficient before a monomial, a
    coefficient stored at a conductor the group's exponent does not divide,
    and the zero polynomial."""
    grp = make_group([4])
    sig = GradedSignature(grp, ParityMap.trivial(grp), even=[("x", grp.character((1,)))])
    mono = SuperMonomial((10**50,), ())
    cases = {
        "x^" + str(10**50): {mono: 1},
        "-x^" + str(10**50): {mono: -1},
        "-5/3*x^" + str(10**50) + " - 1": {mono: Fraction(-5, 3), SuperMonomial((0,), ()): -1},
        "zeta(3,1)*x^" + str(10**50): {mono: root_of_unity(3, 1).lift(12)},
        "(1 + i)": {SuperMonomial((0,), ()): root_of_unity(8, 2).lift(24) + 1},
        "0": {},
    }
    for text, terms in cases.items():
        poly = SuperPolynomial(sig, terms)
        assert format_expression(poly) == reference_format_poly(poly) == text
