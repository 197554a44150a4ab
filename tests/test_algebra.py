"""Behavior of the graded function algebra: products, action, decomposition."""

import cmath
import copy
import functools
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedcover import (
    Character,
    Cyclotomic,
    GradedError,
    GradedSignature,
    NotInvertibleError,
    ParityMap,
    SignatureMismatchError,
    SuperMonomial,
    SuperMorphism,
    SuperPolynomial,
    SuperRational,
    SuperSignature,
    decompose_oracle,
    euler_phi,
    format_expression,
    lift_super,
    make_group,
    parse_expression,
    parse_group_spec,
    parse_parity_spec,
    root_of_unity,
)
from gradedcover import algebra
from conftest import (
    assert_components_match_the_reference,
    cofactor_terms,
    entries,
    nested_residue_weight,
    random_group,
    random_parity,
    random_polynomial,
    random_rational,
    random_signature,
    sum_components,
    unpacked_tower,
)


def klein_xy_signature():
    """Two commuting variables: x of identity weight, y of weight chi_ab."""
    klein = make_group([2, 2])
    pm = ParityMap(klein, (1, 1))
    return GradedSignature(
        klein,
        pm,
        even=[("x", klein.identity_character), ("y", klein.character((1, 1)))],
    )


def z4_signature():
    """Weights modulo 4 with parity k mod 2: x even copies, s odd copies."""
    z4 = make_group([4])
    pm = ParityMap(z4, (1,))
    return GradedSignature(
        z4,
        pm,
        even=[("x0", z4.character((0,))), ("x2", z4.character((2,)))],
        odd=[("s1", z4.character((1,))), ("s3", z4.character((3,)))],
    )


def pair_signature():
    """Ungraded-flavored helper: one commuting, two anticommuting variables."""
    g = make_group([2])
    pm = ParityMap(g, (1,))
    return GradedSignature(
        g,
        pm,
        even=[("x", g.identity_character)],
        odd=[("s1", g.character((1,))), ("s2", g.character((1,)))],
    )


def test_signature_rejects_wrong_parities():
    z4 = make_group([4])
    pm = ParityMap(z4, (1,))
    with pytest.raises(ValueError):
        GradedSignature(z4, pm, even=[("x", z4.character((1,)))])
    with pytest.raises(ValueError):
        GradedSignature(z4, pm, odd=[("s", z4.character((2,)))])
    with pytest.raises(ValueError):
        GradedSignature(z4, pm, even=[("x", z4.character((0,))), ("x", z4.character((2,)))])


def test_signature_refuses_a_bare_string_of_names():
    """``even="x1"`` would declare two variables, x and 1, and no expression
    can spell 1: a bare str is refused, in either slot and either signature."""
    for kwargs in ({"even": "x1"}, {"odd": "s"}, {"even": ["x"], "odd": "st"}):
        with pytest.raises(ValueError, match="must be sequences of names, got"):
            SuperSignature(**kwargs)
    z4 = make_group([4])
    pm = ParityMap(z4, (1,))
    for kwargs in ({"even": "x1"}, {"odd": "s"}):
        with pytest.raises(ValueError, match="must be sequences of pairs, got"):
            GradedSignature(z4, pm, **kwargs)
    assert SuperSignature(even=["x1"], odd=("s",)).even == ("x1",)


def test_signatures_are_equal_by_type_and_fields():
    z2 = make_group([2])
    plain = SuperSignature(even=("x",), odd=("s",))
    graded = GradedSignature(z2, ParityMap(z2, (1,)), even=[("x", z2.character((0,)))],
                             odd=[("s", z2.character((1,)))])
    # the same names graded or not
    assert plain != graded and graded != plain
    # the same names and weights under two parities
    x_only = [("x", z2.character((0,)))]
    assert GradedSignature(z2, ParityMap(z2, (0,)), even=x_only) != GradedSignature(
        z2, ParityMap(z2, (1,)), even=x_only)
    # built twice from the same data
    for build in (lambda: SuperSignature(even=["x"], odd=["s"]), z4_signature):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)


def frozen_values():
    """One value of each immutable type, by name."""
    sig = z4_signature()
    x0, x2, s1, s3 = (SuperPolynomial.variable(sig, v) for v in ("x0", "x2", "s1", "s3"))
    poly = Fraction(2, 3) * x0 * x2 + root_of_unity(12, 5) * s1 * s3 - 1
    x = SuperRational.variable(SuperSignature(even=["x"]), "x")
    psi = SuperMorphism(x.signature, SuperSignature(even=["y"], odd=["t"]),
                        {"y": 1 / (x + 2), "t": SuperRational.zero(x.signature)})
    z3 = make_group([3])
    return {
        "rational Cyclotomic": Cyclotomic.from_rational(Fraction(-3, 4)),
        "irrational Cyclotomic": root_of_unity(12, 5) * Fraction(2, 3) + 1,
        "SuperSignature": SuperSignature(even=["x", "y"], odd=["s"]),
        "GradedSignature": sig,
        "SuperPolynomial": poly,
        "SuperRational": SuperRational(poly, x0 + 3 * x2 * x2 + 2),
        "SuperMorphism": psi,
        "lifted GradedMorphism": lift_super(
            SuperMorphism(x.signature, SuperSignature(even=["y"]), {"y": 1 / (x + 2)}),
            z3, ParityMap.trivial(z3)),
    }


@pytest.mark.parametrize("name", list(frozen_values()))
def test_values_copy_and_pickle_and_stay_frozen(name):
    value = frozen_values()[name]
    value_equality = not isinstance(value, SuperSignature)  # signatures alone hash
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value
        for field in type(value)._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(copied, field, None)
        if value_equality:
            with pytest.raises(TypeError):
                hash(copied)
        else:
            assert hash(copied) == hash(value)


def test_anticommuting_variables_anticommute():
    sig = pair_signature()
    s1 = SuperPolynomial.variable(sig, "s1")
    s2 = SuperPolynomial.variable(sig, "s2")
    assert (s1 * s2 + s2 * s1).is_zero()
    assert (s1 * s1).is_zero()


def test_nilpotent_square_cancels_in_products():
    sig = pair_signature()
    x = SuperPolynomial.variable(sig, "x")
    s1 = SuperPolynomial.variable(sig, "s1")
    s2 = SuperPolynomial.variable(sig, "s2")
    assert (x + s1 * s2) * (x - s1 * s2) == x * x


def test_commuting_variables_are_central():
    sig = pair_signature()
    x = SuperPolynomial.variable(sig, "x")
    s1 = SuperPolynomial.variable(sig, "s1")
    assert x * s1 == s1 * x


def test_product_is_associative_on_random_triples():
    rng = random.Random(23)
    for _ in range(30):
        g = random_group(rng)
        sig = random_signature(rng, g, random_parity(rng, g))
        a = random_polynomial(rng, sig)
        b = random_polynomial(rng, sig)
        c = random_polynomial(rng, sig)
        assert (a * b) * c == a * (b * c)
        assert a * b == _reverse_sign_check(a, b)


def _reverse_sign_check(a, b):
    """Supercommutativity: b*a equals a*b up to the Koszul sign per term pair."""
    pa, pb = a.grassmann_parity(), b.grassmann_parity()
    if pa is None or pb is None:
        return a * b  # mixed parity: rule applies termwise, skip here
    sign = -1 if pa == 1 and pb == 1 else 1
    return b * a * sign


def test_mixed_products_keep_the_factor_order():
    # odd a, b: a*b = -b*a, so a polynomial times a rational must not swap
    sig = pair_signature()
    s1 = SuperPolynomial.variable(sig, "s1")
    s2 = SuperRational.variable(sig, "s2")
    expected = SuperRational(s1 * s2.numerator)
    assert s1 * s2 == expected
    assert s1 * s2 != -expected
    assert format_expression(s1 * s2) == "s1*s2"
    assert 3 * s2 == s2 * 3


def test_signature_mismatch_rejected():
    sig1 = pair_signature()
    sig2 = z4_signature()
    with pytest.raises(SignatureMismatchError):
        SuperPolynomial.variable(sig1, "x") * SuperPolynomial.variable(sig2, "x0")


def test_action_scales_variables_by_weight():
    sig = z4_signature()
    g = sig.group.element((1,))
    x2 = SuperRational.variable(sig, "x2")
    s1 = SuperRational.variable(sig, "s1")
    assert x2.act(g) == x2 * (-1)
    assert s1.act(g) == s1 * root_of_unity(4, 1)


def test_action_of_identity_is_trivial():
    rng = random.Random(5)
    g = random_group(rng)
    sig = random_signature(rng, g, random_parity(rng, g))
    f = random_rational(rng, sig)
    assert f.act(g.element((0,) * g.rank)) == f


def test_action_is_an_algebra_automorphism():
    rng = random.Random(6)
    for _ in range(10):
        grp = random_group(rng)
        sig = random_signature(rng, grp, random_parity(rng, grp))
        f1 = random_rational(rng, sig)
        f2 = random_rational(rng, sig)
        g = rng.choice(grp.elements())
        h = rng.choice(grp.elements())
        assert (f1 * f2).act(g) == f1.act(g) * f2.act(g)
        assert f1.act(g).act(h) == f1.act(g * h)


def test_klein_action_flips_the_odd_weight_variable():
    sig = klein_xy_signature()
    a = sig.group.element((1, 0))
    x = SuperRational.variable(sig, "x")
    y = SuperRational.variable(sig, "y")
    f = x**2 * y + y**3 + x
    # acting by a sends (x, y) to (x, -y)
    assert f.act(a) == f.substitute({"x": x, "y": -y})


def test_weight_of_monomials_multiplies():
    sig = klein_xy_signature()
    x = SuperRational.variable(sig, "x")
    y = SuperRational.variable(sig, "y")
    assert (x * y).weight() == sig.group.character((1, 1))
    assert SuperRational.one(sig).weight() == sig.group.identity_character


def test_weight_adds_residues_mod_four():
    sig = z4_signature()
    f = SuperRational.variable(sig, "s3") * SuperRational.variable(sig, "x2")
    assert f.weight() == sig.group.character((1,))  # 3 + 2 mod 4


def reference_residues(sig, mono):
    """A monomial's weight residues as a generator per factor computed them."""
    return tuple((sum(map(operator.mul, mono.even, even)) + sum(odd[j] for j in mono.odd)) % q
                 for q, even, odd in sig.weight_rows)


@st.composite
def weighted_monomials(draw):
    """A graded signature over a group of rank 1 to 3, odd variables where the
    parity has odd weights, and one monomial with exponents up to 10^50."""
    grp = make_group(draw(st.sampled_from([[2], [5], [12], [2, 4], [2, 2, 2], [2, 3, 4]])))
    bits = tuple(draw(st.integers(0, 1)) if q % 2 == 0 else 0 for q in grp.factors)
    parity = ParityMap(grp, bits)
    weights = [[w for w in grp.characters() if parity(w) == b] for b in (0, 1)]
    n_odd = draw(st.integers(0, 3)) if weights[1] else 0
    sig = GradedSignature(
        grp, parity,
        even=[(f"x{i}", draw(st.sampled_from(weights[0]))) for i in range(draw(st.integers(0, 3)))],
        odd=[(f"s{j}", draw(st.sampled_from(weights[1]))) for j in range(n_odd)])
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 10**50))
    mono = SuperMonomial(tuple(draw(exponent) for _ in sig.even),
                         tuple(j for j in range(n_odd) if draw(st.booleans())))
    return sig, mono


@settings(max_examples=300, deadline=None)
@given(weighted_monomials())
def test_residues_agree_with_the_generator_they_replaced(case):
    sig, mono = case
    assert algebra._residues(sig, mono) == reference_residues(sig, mono)


def test_weight_of_inhomogeneous_is_none():
    sig = z4_signature()
    f = SuperRational.variable(sig, "x0") + SuperRational.variable(sig, "x2")
    assert f.weight() is None
    with pytest.raises(ValueError):
        SuperRational.zero(sig).weight()


def test_weight_sees_through_inhomogeneous_denominators():
    sig = z4_signature()
    x0 = SuperRational.variable(sig, "x0")
    x2 = SuperRational.variable(sig, "x2")
    f = (x0 * (x0 + x2)) / (x0 + x2)
    assert f.weight() == sig.group.identity_character
    assert f.is_zero() or f.weight() == sig.group.identity_character


def test_klein_decomposition_into_even_and_odd_parts():
    sig = klein_xy_signature()
    klein = sig.group
    x = SuperRational.variable(sig, "x")
    y = SuperRational.variable(sig, "y")
    f = 3 * x**2 * y + y**2 + x * y**3 + Fraction(1, 2) * x

    half = Fraction(1, 2)
    f_flip = f.substitute({"x": x, "y": -y})
    expected_even = (f + f_flip) * half
    expected_odd = (f - f_flip) * half

    parts = f.decompose()
    assert set(parts) == {klein.identity_character, klein.character((1, 1))}
    assert parts[klein.identity_character] == expected_even
    assert parts[klein.character((1, 1))] == expected_odd


def test_polynomial_decomposition_is_termwise():
    sig = z4_signature()
    x0 = SuperRational.variable(sig, "x0")
    x2 = SuperRational.variable(sig, "x2")
    parts = (x0 + x2).decompose()
    assert parts[sig.group.character((0,))] == x0
    assert parts[sig.group.character((2,))] == x2
    assert len(parts) == 2


def test_rational_decomposition_of_reciprocal_sum():
    g = make_group([2])
    pm = ParityMap.trivial(g)
    sig = GradedSignature(
        g, pm, even=[("x0", g.character((0,))), ("x1", g.character((1,)))]
    )
    x0 = SuperRational.variable(sig, "x0")
    x1 = SuperRational.variable(sig, "x1")
    f = 1 / (x0 + x1)
    delta = x0**2 - x1**2
    parts = f.decompose()
    assert parts[g.character((0,))] == x0 / delta
    assert parts[g.character((1,))] == -x1 / delta


def test_oracle_agrees_on_the_worked_examples():
    sig = klein_xy_signature()
    x = SuperRational.variable(sig, "x")
    y = SuperRational.variable(sig, "y")
    for f in (x * y + y**2, 1 / (x + y**2), (x + y) / (x**2)):
        assert f.decompose() == decompose_oracle(f)


def test_oracle_fixes_homogeneous_functions():
    sig = z4_signature()
    f = SuperRational.variable(sig, "x2") * SuperRational.variable(sig, "s1")
    chi = sig.group.character((3,))
    assert f.weight() == chi
    assert decompose_oracle(f) == {chi: f}
    one = SuperRational.one(sig)
    assert decompose_oracle(one) == {sig.group.identity_character: one}


def test_decomposition_reconstructs_and_is_equivariant():
    rng = random.Random(91)
    for _ in range(15):
        grp = random_group(rng, max_order=16)
        sig = random_signature(rng, grp, random_parity(rng, grp))
        f = random_rational(rng, sig)
        parts = f.decompose()
        assert sum_components(parts, sig) == f
        for chi, part in parts.items():
            assert part.is_zero() or part.weight() == chi
            g = rng.choice(grp.elements())
            assert part.act(g) == part * chi(g)


def test_shared_norms_match_by_layout_and_terms_not_by_names(monkeypatch):
    """Calls that share ``seen`` reuse a norm and a numerator split only over
    signatures of one layout: y/(1 + x) over x@(1), y@(2) and v/(1 + u) over
    u@(1), v@(2) take one norm, and y/(1 + x) over x@(2), y@(1), of equal
    terms, its own."""
    z3 = make_group([3])
    pm = ParityMap.trivial(z3)

    def over(*names_and_weights):
        sig = GradedSignature(z3, pm, even=[(n, z3.character((k,))) for n, k in names_and_weights])
        return parse_expression(f"{names_and_weights[1][0]}/(1 + {names_and_weights[0][0]})", sig)

    fs = [over(("x", 1), ("y", 2)), over(("u", 1), ("v", 2)), over(("x", 2), ("y", 1))]
    assert fs[0].denominator.terms == fs[2].denominator.terms
    assert fs[0].numerator.terms == fs[2].numerator.terms
    calls, real = [], algebra._orbit_tower
    monkeypatch.setattr(algebra, "_orbit_tower", lambda *a: calls.append(a) or real(*a))
    seen = []
    shared = [algebra._components([f], seen)[0] for f in fs]
    assert len(calls) == 2 and len(seen) == 2
    monkeypatch.undo()
    for f, parts in zip(fs, shared):
        alone = f.decompose()
        assert list(parts) == list(alone)
        for chi, part in parts.items():
            assert part.signature is f.signature
            assert part.numerator.terms == alone[chi].numerator.terms
            assert part.denominator.terms == alone[chi].denominator.terms
    assert [format_expression(p) for p in shared[0].values()] != [
        format_expression(p) for p in shared[2].values()]


def test_reflected_subtraction_and_negative_powers_are_exact():
    """``c - f`` for a scalar c and f a quotient or a polynomial, and f^-k,
    the inverse to the k."""
    sig = klein_xy_signature()
    f = parse_expression("(1 + x*y)/(2 + y)", sig)
    i = root_of_unity(4, 1)
    assert (3 - f) + f == 3
    assert (i - f) + f == i
    assert Fraction(1, 2) - f == -(f - Fraction(1, 2))
    p = f.numerator  # 1 + x*y, a polynomial, stays one
    assert (3 - p) + p == 3 and (i - p) + p == i and isinstance(3 - p, SuperPolynomial)
    assert Fraction(1, 2) - p == -(p - Fraction(1, 2))
    for k in (1, 2, 3):
        assert f ** -k * f ** k == 1
    assert f ** -1 == f.invert()
    assert f ** -2 == parse_expression("(2 + y)^2/(1 + x*y)^2", sig)


def test_decomposition_is_idempotent():
    rng = random.Random(17)
    for _ in range(8):
        grp = random_group(rng)
        sig = random_signature(rng, grp, random_parity(rng, grp))
        parts = random_rational(rng, sig).decompose()
        for chi, part in parts.items():
            again = part.decompose()
            assert set(again) == {chi}
            assert again[chi] == part


def test_even_functions_have_no_odd_weight_components():
    rng = random.Random(29)
    for _ in range(10):
        grp = random_group(rng)
        pm = random_parity(rng, grp)
        sig = random_signature(rng, grp, pm)
        f = SuperRational(
            random_polynomial(rng, sig, with_odd=False),
            random_polynomial(rng, sig, max_terms=2, max_degree=2, with_odd=False, nonzero=True),
        )
        for chi in f.decompose():
            assert pm(chi) == 0


def test_substitute_into_reciprocal():
    g = make_group([2])
    sig = GradedSignature(
        g, ParityMap.trivial(g),
        even=[("x0", g.character((0,))), ("x1", g.character((1,)))],
    )
    x0 = SuperRational.variable(sig, "x0")
    x1 = SuperRational.variable(sig, "x1")

    single = GradedSignature(g, ParityMap.trivial(g), even=[("x", g.character((0,)))])
    f = 1 / SuperRational.variable(single, "x")
    assert f.substitute({"x": x0 + x1}) == 1 / (x0 + x1)


def test_substitute_collapses_repeated_odd_images():
    sig = pair_signature()
    s1 = SuperRational.variable(sig, "s1")
    s2 = SuperRational.variable(sig, "s2")
    f = s1 * s2
    assert f.substitute({"s1": s1, "s2": s1}).is_zero()


def test_substitute_is_an_algebra_homomorphism():
    rng = random.Random(41)
    for _ in range(10):
        grp = random_group(rng)
        pm = random_parity(rng, grp)
        source = random_signature(rng, grp, pm)
        target = random_signature(rng, grp, pm)
        images = {}
        for name in source.even:
            images[name] = SuperRational(
                random_polynomial(rng, target, max_terms=2, max_degree=2, with_odd=False)
            )
        for k, name in enumerate(source.odd):
            img = SuperRational.zero(target)
            if target.odd:
                img = SuperRational.variable(target, target.odd[k % len(target.odd)])
            images[name] = img
        f1 = random_rational(rng, source, max_terms=2, max_degree=2)
        f2 = random_rational(rng, source, max_terms=2, max_degree=2)
        try:
            lhs = (f1 * f2).substitute(images, signature=target)
        except NotInvertibleError:
            continue  # the image of a denominator may be non-invertible
        rhs = f1.substitute(images, signature=target) * f2.substitute(images, signature=target)
        assert lhs == rhs


def test_substitute_rejects_parity_mismatch_and_gaps():
    sig = pair_signature()
    x = SuperRational.variable(sig, "x")
    s1 = SuperRational.variable(sig, "s1")
    with pytest.raises(ValueError, match="parity"):
        (x * s1).substitute({"x": s1, "s1": s1})
    with pytest.raises(ValueError, match="missing"):
        (x * s1).substitute({"x": x})


def test_invert_plain_variable():
    sig = pair_signature()
    x = SuperRational.variable(sig, "x")
    assert x.invert() == 1 / x
    assert (x.invert() * x) == 1


def test_invert_with_nilpotent_tail():
    sig = pair_signature()
    x = SuperRational.variable(sig, "x")
    s1 = SuperRational.variable(sig, "s1")
    s2 = SuperRational.variable(sig, "s2")
    f = x + s1 * s2
    inv = f.invert()
    assert f * inv == 1
    assert inv == 1 / x - (s1 * s2) / (x**2)


def three_loop_inverse(f):
    """1/N as sum_k (-1)^k n^k E^(m-k) over E*E^m, built from the list of
    powers of n and the list of powers of E, with n^(m+1) = 0."""
    num = f.numerator
    even = num.even_part()
    nil = num - even
    powers = [SuperPolynomial.one(num.signature)]
    acc = SuperPolynomial.one(num.signature)
    while True:
        acc = acc * nil
        if acc.is_zero():
            break
        powers.append(acc)
    m = len(powers) - 1
    series = SuperPolynomial.zero(num.signature)
    even_pow = SuperPolynomial.one(num.signature)
    partial = [even_pow]
    for _ in range(m):
        even_pow = even_pow * even
        partial.append(even_pow)
    for k, nk in enumerate(powers):
        term = nk * partial[m - k]
        series = series + (term if k % 2 == 0 else -term)
    return SuperRational(f.denominator * series, even * partial[m]), m


def term_items(poly):
    return [(mono, c.conductor, entries(c)) for mono, c in poly.terms.items()]


def value_items(poly):
    """Terms in dict order, each coefficient as a value: equal across conductors."""
    return list(poly.terms.items())


def assert_inverse_matches_three_loops(f):
    inv, (ref, depth) = f.invert(), three_loop_inverse(f)
    assert value_items(inv.numerator) == value_items(ref.numerator)
    assert value_items(inv.denominator) == value_items(ref.denominator)
    assert all(type(x) is int for p in (inv.numerator, inv.denominator)
               for c in p.terms.values() for x in (c.den, *c.num))
    return depth


def test_invert_matches_the_three_loop_series_on_deep_nilpotent_tails():
    g = make_group([2])
    sig = GradedSignature(
        g, ParityMap(g, (1,)), even=[("x", g.character((0,))), ("y", g.character((0,)))],
        odd=[(f"s{j}", g.character((1,))) for j in range(1, 5)],
    )
    x, y, s1, s2, s3, s4 = (SuperRational.variable(sig, v) for v in sig.even + sig.odd)
    z3, i = root_of_unity(3, 1), root_of_unity(4, 1)
    for f in [x + s1 * s2 + s3 * s4,
              (x + s1 * s2 + s3 * s4) / (1 + y),
              Fraction(3, 2) * x + z3 * s1 * s2 - i * y * s3 * s4,
              x * y + 1 + z3 * s1 * s2 + i * s1 * s3 + s2 * s4 + x * s3 * s4]:
        assert assert_inverse_matches_three_loops(f) >= 2
        assert f * f.invert() == 1
    # seeded numerators E + n, n a sum of one- and two-variable odd monomials
    rng = random.Random(11)
    depths = []
    for _ in range(80):
        num = random_polynomial(rng, sig, max_terms=3, max_degree=2, with_odd=False, nonzero=True)
        for _ in range(rng.randint(1, 4)):
            odd = tuple(sorted(rng.sample(range(4), rng.randint(1, 2))))
            mono = SuperMonomial((rng.randint(0, 1), 0), odd)
            c = rng.choice([1, Fraction(-2, 3), z3, i, root_of_unity(12, 5), root_of_unity(5, 2)])
            num = num + SuperPolynomial(sig, {mono: c})
        depths.append(assert_inverse_matches_three_loops(SuperRational(num)))
    assert depths.count(2) >= 10


def test_invert_rejects_pure_nilpotents():
    sig = pair_signature()
    with pytest.raises(NotInvertibleError):
        SuperRational.variable(sig, "s1").invert()


def test_base_restriction_kills_non_identity_weights():
    g = make_group([2])
    sig = GradedSignature(
        g, ParityMap.trivial(g),
        even=[("x0", g.character((0,))), ("x1", g.character((1,)))],
    )
    x0 = SuperRational.variable(sig, "x0")
    x1 = SuperRational.variable(sig, "x1")
    delta = x0**2 - x1**2
    assert (x0 / delta).restrict_to_base() == 1 / x0
    assert (-x1 / delta).restrict_to_base().is_zero()


def test_base_restriction_kills_odd_content():
    sig = z4_signature()
    f = SuperRational.variable(sig, "x0") * SuperRational.variable(sig, "s1")
    assert f.restrict_to_base().is_zero()


def test_quotients_check_their_denominator():
    sig = pair_signature()
    x, s1, s2 = (SuperPolynomial.variable(sig, v) for v in ("x", "s1", "s2"))
    with pytest.raises(SignatureMismatchError, match="different signatures"):
        SuperRational(x, SuperPolynomial.one(z4_signature()))
    with pytest.raises(ValueError, match="free of anticommuting variables"):
        SuperRational(x, x + s1 * s2)
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        SuperRational(x, SuperPolynomial.zero(sig))


def test_base_restriction_needs_a_surviving_denominator():
    sig = z4_signature()
    f = 1 / SuperRational.variable(sig, "x2")
    with pytest.raises(ZeroDivisionError):
        f.restrict_to_base()


def test_numeric_evaluation_of_even_functions():
    sig = pair_signature()
    x = SuperRational.variable(sig, "x")
    values = (x**2 + 1).evaluate_even({"x": 2.0})
    assert abs(values[()] - 5.0) < 1e-12

    s1 = SuperRational.variable(sig, "s1")
    values = (x * s1).evaluate_even({"x": 3.0})
    assert abs(values[("s1",)] - 3.0) < 1e-12


def test_numeric_evaluation_rejects_tiny_denominators():
    sig = pair_signature()
    x = SuperRational.variable(sig, "x")
    with pytest.raises(ZeroDivisionError):
        (1 / x).evaluate_even({"x": 1e-15})


def test_numeric_equivariance_spot_check():
    rng = random.Random(59)
    sig = z4_signature()
    f = random_rational(rng, sig, max_terms=3, max_degree=3)
    parts = f.decompose()
    g = sig.group.element((1,))
    for chi, part in parts.items():
        moved = part.act(g)
        factor = chi(g).embed()
        for _ in range(3):
            point = {n: complex(rng.uniform(1, 2), rng.uniform(1, 2)) for n in sig.even}
            try:
                base = part.evaluate_even(point)
                after = moved.evaluate_even(point)
            except ZeroDivisionError:
                continue
            for key, val in base.items():
                assert abs(after.get(key, 0j) - factor * val) < 1e-9


def float_evaluate_even(f, point, tol=1e-12):
    """``evaluate_even`` as it was computed in complex floats: each coefficient
    embedded and each monomial evaluated numerically, then one division by
    the denominator's value; the reference for the exact evaluator."""
    sig = f.signature

    def even_value(mono):
        val = 1 + 0j
        for i, e in enumerate(mono.even):
            if e:
                val *= complex(point[sig.even[i]]) ** e
        return val

    den = sum((c.embed() * even_value(m) for m, c in f.denominator.terms.items()), 0j)
    if abs(den) <= tol:
        raise ZeroDivisionError(f"denominator too close to zero: |{den}| <= {tol}")
    out = {}
    for mono, c in f.numerator.terms.items():
        key = tuple(sig.odd[j] for j in mono.odd)
        out[key] = out.get(key, 0j) + c.embed() * even_value(mono)
    return {key: val / den for key, val in out.items()}, den


def test_numeric_evaluation_is_exact_until_the_result():
    """(x - 10^8)^2 at x = 10^8 + 1 is 1; expanded, its terms cancel in
    floats to 0, and exactly to 1."""
    sig = pair_signature()
    x = SuperRational.variable(sig, "x")
    f = x**2 - 200000000 * x + 10**16
    assert float_evaluate_even(f, {"x": 100000001.0})[0] == {(): 0j}
    assert f.evaluate_even({"x": 100000001.0}) == {(): 1 + 0j}
    assert f.evaluate_even({"x": Fraction(100000001)}) == {(): 1 + 0j}


def test_numeric_evaluation_drops_monomials_whose_value_is_zero():
    sig = pair_signature()
    x, s1 = (SuperRational.variable(sig, v) for v in ("x", "s1"))
    assert ((x - 2) * s1).evaluate_even({"x": 2}) == {}
    values = ((x - 2) * s1 + x).evaluate_even({"x": 2.0})
    assert values == {(): 2 + 0j}
    with pytest.raises(ZeroDivisionError, match=r"\|0j\| <= 1e-12"):
        (1 / (x - 2)).evaluate_even({"x": 2.0})


@pytest.mark.parametrize("point, digits", [(1e300, "601"), (1e200, "400")])
def test_numeric_evaluation_past_the_float_range_names_the_monomial(point, digits):
    """x^2 at a float whose square passes the float range: the exact value is
    known, so a ValueError names the monomial and the value's decimal digits."""
    sig = pair_signature()
    x, s1 = (SuperRational.variable(sig, v) for v in ("x", "s1"))
    assert len(str(int(Fraction(point)) ** 2)) == int(digits)
    past = rf"past the float range: its exact integer part has {digits} decimal digits"
    with pytest.raises(ValueError, match="coefficient of 1 is " + past):
        (x**2).evaluate_even({"x": point})
    with pytest.raises(ValueError, match="coefficient of s1 is " + past):
        (x + x**2 * s1).evaluate_even({"x": point})
    with pytest.raises(ValueError, match="exact integer part has 60,001 decimal digits"):
        (x**200).evaluate_even({"x": 1e300})


def test_numeric_evaluation_near_the_float_range_still_embeds():
    """x^2 at 1e150 is about 1e300, a float; 1/x^2 at 1e300 has a denominator
    past the float range, which is far from 0, and its value underflows to 0."""
    sig = pair_signature()
    x = SuperRational.variable(sig, "x")
    assert (x**2).evaluate_even({"x": 1e150}) == {(): complex(int(Fraction(1e150)) ** 2)}
    assert (1 / x**2).evaluate_even({"x": 1e300}) == {(): 0j}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
def test_numeric_evaluation_rejects_coordinates_that_are_not_finite(value):
    sig = pair_signature()
    x = SuperRational.variable(sig, "x")
    with pytest.raises(ValueError, match="variable 'x' is not finite"):
        (x + 1).evaluate_even({"x": value})


def test_numeric_evaluation_needs_a_value_for_every_variable_in_use():
    sig = SuperSignature(even=["x", "y"])
    x, y = (SuperRational.variable(sig, v) for v in ("x", "y"))
    with pytest.raises(ValueError, match="no value given for variable 'x'"):
        (x + 1).evaluate_even({"y": 1.0})
    assert (y + 1).evaluate_even({"y": 1.0}) == {(): 2 + 0j}


def test_numeric_evaluation_reads_a_complex_point_at_conductor_4():
    """A point with an imaginary part is a Gaussian rational: zeta_4 joins the
    coefficients' conductor, which must stay within the bound."""
    sig = pair_signature()
    x = SuperRational.variable(sig, "x")
    root = root_of_unity(16411, 1)  # prime, and 4 * 16411 is past the bound
    assert abs((x * root).evaluate_even({"x": 2.0})[()] - 2 * root.embed()) < 1e-12
    with pytest.raises(GradedError, match="conductor 65644 is above the bound"):
        (x * root).evaluate_even({"x": 2 + 1j})
    assert (x * x).evaluate_even({"x": 1j}) == {(): -1 + 0j}


def test_numeric_evaluation_matches_the_float_reference():
    """Seeded random functions over groups of order up to 12, with odd
    variables, at points of [1, 2]^2: each exact value agrees with the float
    loop's to 1e-9 relative wherever the float denominator is at least 1e-6.
    A value that is exactly 0 has no key, so the float one must be 0 too."""
    rng = random.Random(2035)
    pairs = 0
    for _ in range(200):
        grp = random_group(rng, max_order=12)
        sig = random_signature(rng, grp, random_parity(rng, grp))
        f = random_rational(rng, sig, max_terms=3, max_degree=3)
        for _ in range(3):
            point = {n: complex(rng.uniform(1, 2), rng.uniform(1, 2)) for n in sig.even}
            want, den = float_evaluate_even(f, point, tol=0)
            if abs(den) < 1e-6:
                continue
            got = f.evaluate_even(point, tol=0)
            assert set(got) <= set(want)
            for key, val in want.items():
                assert cmath.isclose(got.get(key, 0j), val, rel_tol=1e-9), (f, point, key)
                pairs += 1
    assert pairs > 400


def test_klein_odd_variables_multiply_to_the_even_weight():
    klein = make_group([2, 2])
    pm = ParityMap(klein, (1, 1))
    sig = GradedSignature(
        klein,
        pm,
        odd=[("sa", klein.character((1, 0))), ("sb", klein.character((0, 1)))],
    )
    product = SuperRational.variable(sig, "sa") * SuperRational.variable(sig, "sb")
    assert product.weight() == klein.character((1, 1))
    assert product.grassmann_parity() == 0


# -- the orbit tower of _normed against the twist chain -------------------------


def twist_classes(den):
    """The group split by the values of D's monomial weights.

    g.D = h.D exactly when every monomial weight of D takes one value at g
    and h.  Classes come in ``elements()`` order, so the first is the
    stabilizer of D and the first member of each class gives a new twist.
    """
    weights = dict.fromkeys(nested_residue_weight(den.signature, m) for m in den.terms)
    classes = {}
    for g in den.signature.group.elements():
        classes.setdefault(tuple(w.exponent_at(g) for w in weights), []).append(g)
    return list(classes.values())


def reference_twist_chain(polys, twists):
    """Each polynomial times every twist in turn, one ``SuperPolynomial.__mul__``
    per twist."""
    for twisted in twists:
        polys = [p * twisted for p in polys]
    return polys


def normed_chain(f):
    """The oracle of ``_normed``: N and D times each distinct twist of D."""
    den = f.denominator
    return reference_twist_chain([f.numerator, den], [den.act(c[0]) for c in twist_classes(den)[1:]])


def rational_polynomial(rng, sig, n_terms, max_degree, with_odd):
    """Rational coefficients, a third of them tagged at the group exponent."""
    n = sig.group.exponent
    terms = {}
    for _ in range(n_terms):
        evens = [0] * len(sig.even)
        for _ in range(rng.randint(0, max_degree)):
            evens[rng.randrange(len(evens))] += 1
        odd = ()
        if with_odd and sig.odd and rng.random() < 0.5:
            odd = tuple(sorted(rng.sample(range(len(sig.odd)), rng.randint(1, len(sig.odd)))))
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        if rng.random() < 0.3:
            c = root_of_unity(n, rng.choice([0, n // 2] if n % 2 == 0 else [0])) * c
        terms[SuperMonomial(tuple(evens), odd)] = c
    return SuperPolynomial(sig, terms)


def assert_tower_matches_chain(f):
    """Equal values (``Cyclotomic.__eq__`` compares across conductors), an
    invariant denominator, and a rational one for rational N and D."""
    tower, den = f._normed()
    num = functools.reduce(operator.mul, unpacked_tower(tower, f.signature), f.numerator)
    chain_num, chain_den = normed_chain(f)
    assert num.terms == chain_num.terms
    assert den.terms == chain_den.terms
    assert den.termwise_weight().is_identity()
    if all(c.is_rational() for p in (f.numerator, f.denominator) for c in p.terms.values()):
        assert all(c.is_rational() for c in den.terms.values())


TOWER_GROUPS = [[q] for q in range(2, 13)] + [[2, 2, 2], [2, 6], [3, 3]]


def test_orbit_tower_matches_the_chain_on_seeded_rational_functions():
    rng = random.Random(2024)
    for factors in TOWER_GROUPS:
        grp = make_group(factors)
        for _ in range(4):
            sig = random_signature(rng, grp, random_parity(rng, grp))
            den = rational_polynomial(rng, sig, rng.randint(1, 3), 2, with_odd=False)
            num = rational_polynomial(rng, sig, rng.randint(1, 3), 3, with_odd=True)
            if den.is_zero():
                continue
            assert_tower_matches_chain(SuperRational(num, den))
        # a denominator with a trivial stabilizer: the whole orbit
        units = [grp.character([int(t == j) for t in range(grp.rank)]) for j in range(grp.rank)]
        sig = GradedSignature(
            grp, ParityMap.trivial(grp), even=[(f"u{j}", u) for j, u in enumerate(units)]
        )
        den = SuperPolynomial.one(sig)
        for j in range(grp.rank):
            den = den + SuperPolynomial.variable(sig, f"u{j}") * (j + 2)
        f = SuperRational(rational_polynomial(rng, sig, 2, 2, with_odd=False), den)
        assert_tower_matches_chain(f)
        assert max(m.degree() for m in f._normed()[1].terms) == grp.order


def test_orbit_tower_on_a_denominator_fixed_by_a_subgroup():
    # every weight of D lies in {0, 3}, so 2 and 4 fix D: two cosets of six
    grp = make_group([6])
    sig = GradedSignature(
        grp,
        ParityMap.trivial(grp),
        even=[("x", grp.character((0,))), ("y", grp.character((3,))), ("z", grp.character((2,)))],
    )
    x, y, z = (SuperPolynomial.variable(sig, v) for v in ("x", "y", "z"))
    f = SuperRational(z + 2, x + y * y * y + x * y)
    assert_tower_matches_chain(f)
    assert f._normed()[1] == x * x - (y * y * y + x * y) ** 2


def test_orbit_tower_starts_from_the_stabilizer_of_the_denominator():
    # after the (1,0) step, P = (1 - a^2)(1 - c^2) is fixed by (0,1) but D is
    # not, so the (0,1) step must still square P
    klein = make_group([2, 2])
    sig = GradedSignature(
        klein,
        ParityMap.trivial(klein),
        even=[("a", klein.character((1, 0))), ("b", klein.character((0, 1))),
              ("c", klein.character((1, 1)))],
    )
    a, c = SuperPolynomial.variable(sig, "a"), SuperPolynomial.variable(sig, "c")
    f = SuperRational(SuperPolynomial.one(sig), (1 + a) * (1 + c))
    assert_tower_matches_chain(f)
    den = f._normed()[1]
    assert den == ((1 - a * a) * (1 - c * c)) ** 2
    assert format_expression(den) == format_expression(normed_chain(f)[1])


def test_orbit_tower_carries_odd_variables_in_the_numerator():
    sig = z4_signature()
    x0, x2, s1, s3 = (SuperPolynomial.variable(sig, v) for v in ("x0", "x2", "s1", "s3"))
    f = SuperRational(s1 * s3 + 3 * s1 * x2 - s3, x0 + x2 + 2)
    assert_tower_matches_chain(f)
    cofactors = unpacked_tower(f._normed()[0], sig)
    assert functools.reduce(operator.mul, cofactors, f.numerator).has_odd_content()


def test_a_cofactor_whose_z_exponents_pass_one_byte():
    """A p = 3 step at conductor 257 (phi = 256): the twists' product leaves
    exponents of z = zeta_257 up to 2*201 unreduced, past one byte, and the
    codec ``_orbit_tower`` sizes holds them in z's field.  The tower's one
    cofactor is the termwise product of the twists of D."""
    grp = make_group([3])
    sig = GradedSignature(
        grp, ParityMap.trivial(grp), even=[("x", grp.character((0,))), ("y", grp.character((1,)))]
    )
    x, y = (SuperPolynomial.variable(sig, v) for v in ("x", "y"))
    den = 1 + x * root_of_unity(257, 200) + y * root_of_unity(257, 201)
    js = [nested_residue_weight(sig, m).exponent_at(grp.element((1,))) for m in den.terms]
    product = {SuperMonomial((0, 0), ()): Cyclotomic.from_rational(1)}
    for k in (1, 2):
        twist = {m: c * root_of_unity(3, j * k) for (m, c), j in zip(den.terms.items(), js)}
        out = {}
        for m1, c1 in product.items():
            for m2, c2 in twist.items():
                m = SuperMonomial((m1.even[0] + m2.even[0], m1.even[1] + m2.even[1]), ())
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        product = {m: c for m, c in out.items() if not c.is_zero()}
    tower, _ = algebra._orbit_tower(sig, den)
    assert [c.terms for c in unpacked_tower(tower, sig)] == [product]


def test_irrational_coefficients_take_the_chain():
    """An irrational step of the tower multiplies the twists of P by
    ``_cofactor`` too; N and D equal the oracle's, rational or not."""
    sig = z4_signature()
    x0, x2 = (SuperPolynomial.variable(sig, v) for v in ("x0", "x2"))
    i, z3 = root_of_unity(4, 1), root_of_unity(3, 1)
    for f in (SuperRational(x0 - 2, x0 + x2), SuperRational(x0 * i, x0 + x2),
              SuperRational(x0, x0 + x2 * i), SuperRational(x2 * z3, x0 * x0 + x2 * z3 - 1)):
        assert_tower_matches_chain(f)
    # x2 has weight 2 over Z_4, so x0 + i*x2 has one twist, x0 - i*x2
    assert SuperRational(x0, x0 + x2 * i)._normed()[1] == x0 * x0 + x2 * x2


def test_prime_step_cofactor_takes_any_coefficients():
    """``_cofactor`` takes a rational P at any stored conductor, and an
    irrational P at its own, and gives the oracle's."""
    from gradedcover import algebra

    grp = make_group([5])
    sig = GradedSignature(
        grp, ParityMap.trivial(grp), even=[("x", grp.character((0,))), ("y", grp.character((1,)))]
    )
    x, y = (SuperPolynomial.variable(sig, v) for v in ("x", "y"))
    zeta = root_of_unity(5, 1)
    one_at_5 = zeta**5
    assert one_at_5.conductor == 5
    den = x + y * 2
    js = [nested_residue_weight(sig, m).exponent_at(grp.element((1,))) for m in den.terms]
    at_1 = cofactor_terms(den.terms, js, 5)
    at_5 = cofactor_terms((den * one_at_5).terms, js, 5)
    assert at_1 == at_5 == (x**4 - x**3 * y * 2 + x**2 * y**2 * 4
                                        - x * y**3 * 8 + y**4 * 16).terms
    # the product of the twists x + c*zeta^k*y, k = 1..4, at conductors 5, 3 and 15
    for c in (zeta * 2, root_of_unity(3, 1) - 4, zeta * root_of_unity(3, 1) + 7):
        twists = SuperPolynomial.one(sig)
        for k in range(1, 5):
            twists = twists * (x + y * (c * root_of_unity(5, k)))
        assert cofactor_terms((x + y * c).terms, js, 5) == twists.terms
    # one-term parts, and a two-term part at j = 0
    for den in (x + zeta * y, x + x * x + zeta * y, x * one_at_5 + y):
        tower, normed = algebra._orbit_tower(sig, den)
        num = functools.reduce(operator.mul, unpacked_tower(tower, sig), SuperPolynomial.one(sig))
        assert (num.terms, normed.terms) == tuple(p.terms for p in normed_chain(SuperRational(SuperPolynomial.one(sig), den)))


def test_orbit_tower_builds_no_group_element(monkeypatch):
    """The tower works on the exponents h(g) that g gives D's monomial
    weights, so norming rational and irrational denominators over Z_2 x Z_4
    constructs no ``GroupElement``."""
    from gradedcover import GroupElement

    grp = make_group([2, 4])
    sig = GradedSignature(grp, ParityMap.trivial(grp), even=[
        ("x", grp.character((0, 0))), ("y", grp.character((1, 1))), ("z", grp.character((0, 2)))])
    x, y, z = (SuperPolynomial.variable(sig, v) for v in ("x", "y", "z"))
    made = []
    init = GroupElement.__init__
    monkeypatch.setattr(GroupElement, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    assert grp.element((0,) * grp.rank) is not None and len(made) == 1
    made.clear()
    for den in (x + y + 2, x * x + 3 * y - z, x + root_of_unity(3, 1) * y + root_of_unity(4, 1) * z):
        components = SuperRational(x + z, den).decompose()
        assert len(components) > 1
    assert made == []


def times_root(poly, root):
    """``poly`` with its first coefficient times ``root``."""
    if poly.is_zero():
        return poly
    (mono, c), *rest = poly.terms.items()
    return SuperPolynomial(poly.signature, {mono: c * root, **dict(rest)})


@st.composite
def rational_functions(draw):
    """A seeded rational function; for half of them, the first coefficient of
    N and of D is times a root of unity, so that the tower's steps are
    irrational."""
    grp = make_group(draw(st.sampled_from(
        [[2], [3], [4], [5], [6], [7], [10], [2, 2], [2, 4], [3, 3]])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sig = random_signature(rng, grp, random_parity(rng, grp))
    den = rational_polynomial(rng, sig, draw(st.integers(1, 3)), 2, with_odd=False)
    num = rational_polynomial(rng, sig, draw(st.integers(0, 3)), 3, with_odd=True)
    assume(not den.is_zero())
    if draw(st.booleans()):
        root = root_of_unity(draw(st.sampled_from([3, 4, 5, 8])), 1)
        num, den = times_root(num, root), times_root(den, root)
    return SuperRational(num, den)


@settings(max_examples=60, deadline=None)
@given(rational_functions())
def test_orbit_tower_equals_the_chain(f):
    assert_tower_matches_chain(f)


# -- the packed pass of _components against the route it replaced --------------


COMPONENT_GROUPS = [[q] for q in range(2, 13)] + [[2, 2, 2], [3, 4]]


def test_components_match_the_replaced_route_on_seeded_functions(monkeypatch):
    """Seeded functions over Z_2 ... Z_12, Z_2^3 and Z_3 x Z_4, with odd
    variables and roots of unity among their coefficients; every other one
    has N over zeta_5 and D over zeta_8, so that N's conductor m is mostly not
    D's, n, and where n > 1 the r cofactors are unpacked and packed again at
    m: D*C, the r cofactors and the product are unpacked, else D*C and the
    product.  Their norms take one to three tower steps."""
    unpacked = spy_on(monkeypatch, "_unpacked")
    rng = random.Random(32)
    steps, moved = set(), 0
    for factors in COMPONENT_GROUPS:
        grp = make_group(factors)
        for k in range(12):
            f = random_rational(rng, random_signature(rng, grp, random_parity(rng, grp)))
            if k % 2 and f:
                f = SuperRational(times_root(f.numerator, root_of_unity(5, 1)),
                                  times_root(f.denominator, root_of_unity(8, 3)))
            unpacked.clear()
            got, calls = algebra._components([f])[0], len(unpacked)
            if f and f.denominator.termwise_weight() is None:
                (n, _, _, cofactors), _ = f._normed()
                steps.add(len(cofactors))
                m = math.lcm(n, *(c.conductor for c in f.numerator.terms.values()
                                  if not c.is_rational()))
                moved += n not in (1, m)
                assert calls == 2 + len(cofactors) * (n not in (1, m))
            assert_components_match_the_reference(f, got)
    assert steps == {1, 2, 3} and moved > 10


def test_a_numerator_past_the_fields_of_its_tower_takes_wider_ones(monkeypatch):
    """Functions that share D share its packed tower, whose codec is sized
    for the tower alone: x0^300 passes its byte-wide fields, so its
    one cofactor is unpacked and packed again in a wider codec for it alone,
    one unpacking more than D*C's and the three products'."""
    sig = z4_signature()
    x0, x2, s1 = (SuperPolynomial.variable(sig, v) for v in ("x0", "x2", "s1"))
    den = x0 + x2 * 3 + 2
    fs = [SuperRational(x0 + s1, den), SuperRational(x0**300 * x2 + s1 * x2, den),
          SuperRational(x2 - 1, den)]
    assert len(fs[0]._normed()[0][3]) == 1
    unpacked = spy_on(monkeypatch, "_unpacked")
    parts = algebra._components(fs)
    assert len(unpacked) == 1 + 3 + 1
    for f, got in zip(fs, parts):
        assert_components_match_the_reference(f, got)


# -- the cofactor of a prime step, by Kronecker substitution ------------------


def cyclic_signature(q, names_and_weights):
    grp = make_group([q])
    return GradedSignature(
        grp, ParityMap.trivial(grp),
        even=[(name, grp.character((h,))) for name, h in names_and_weights],
    )


def spy_on(monkeypatch, name):
    """Wrap ``algebra.<name>`` and return the list of its calls' arguments."""
    from gradedcover import algebra

    calls, real = [], getattr(algebra, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algebra, name, spy)
    return calls


def weighted_sum(rng, sig, monomials):
    """sum c_h * m_h with non-unit rational c_h, one term per monomial."""
    den = SuperPolynomial.zero(sig)
    for mono in monomials:
        c = Fraction(rng.choice([-7, -3, -2, 2, 5]), rng.choice([1, 3, 4, 9]))
        den = den + SuperPolynomial(sig, {mono: c})
    return den


def one_term_parts(q):
    """Denominator monomials whose parts at a Z_q step are single terms in
    distinct variables, each with its signature."""
    full = cyclic_signature(q, [(f"x{h}", h) for h in range(q)])
    sparse = cyclic_signature(q, [("a", 0), ("b", 1), ("c", 3)])
    return [
        # every weight once, as in a lifted 1/x
        (full, [SuperMonomial(tuple(int(i == h) for i in range(q)), ()) for h in range(q)]),
        # squares and a constant: weights 0, 2h
        (full, [SuperMonomial((0,) * q, ())]
         + [SuperMonomial(tuple(2 * int(i == h) for i in range(q)), ()) for h in (1, 2)]),
        # weights 2 and 3 only: the other parts are zero
        (sparse, [SuperMonomial((0, 2, 0), ()), SuperMonomial((0, 0, 1), ())]),
        (sparse, [SuperMonomial((2, 0, 0), ()), SuperMonomial((0, 1, 1), ())]),
    ]


def two_term_parts(q):
    # the first step is p = q/2, where weights 0 and p share part 0
    sig = cyclic_signature(q, [("u", 1), ("v", q // 2)])
    return [(sig, [SuperMonomial((0, 0), ()), SuperMonomial((1, 0), ()),
                   SuperMonomial((0, 1), ())])]


def shared_variable(q):
    # one-term parts a^2, a*b*c and c, sharing variables
    sig = cyclic_signature(q, [("a", 0), ("b", 1), ("c", 3)])
    return [(sig, [SuperMonomial((2, 0, 0), ()), SuperMonomial((1, 1, 1), ()),
                   SuperMonomial((0, 0, 1), ())])]


def dense_univariate(q):
    # 1 + x + ... + x^(q-1): the cofactor (1 - x)(1 - x^q)^(q-2) has 2(q-1) terms
    sig = cyclic_signature(q, [("x", 1)])
    return [(sig, [SuperMonomial((j,), ()) for j in range(q)])]


PRIME_STEP_CASES = [(5, one_term_parts), (7, one_term_parts),
                    (10, two_term_parts), (14, two_term_parts),
                    (5, shared_variable), (7, shared_variable), (11, dense_univariate)]


def prime_step_functions(q, case):
    rng = random.Random(q)
    return [SuperRational(rational_polynomial(rng, sig, 3, 2, with_odd=False),
                          weighted_sum(rng, sig, monomials))
            for sig, monomials in case(q)]


@pytest.mark.parametrize("q, case", PRIME_STEP_CASES,
                         ids=[f"{q}-{case.__name__}" for q, case in PRIME_STEP_CASES])
def test_prime_step_cofactor_matches_the_chain(q, case):
    for f in prime_step_functions(q, case):
        assert_tower_matches_chain(f)


def test_normed_calls_no_root_of_unity(monkeypatch):
    """Every step takes ``_cofactor``, whose twists carry zeta_p as an
    integer: no coefficient is multiplied by a root of unity."""
    rational = [f for q, case in PRIME_STEP_CASES for f in prime_step_functions(q, case)]
    irrational = [SuperRational(f.numerator, times_root(f.denominator, root_of_unity(k, 1)))
                  for f in rational for k in (3, 4)]
    calls = spy_on(monkeypatch, "root_of_unity")
    for f in rational + irrational:
        f._normed()
    assert calls == []


MODULUS_GROUPS = [2, 3, 5, 7, 10, 11, 12]
MODULUS_CONSTANTS = [1, 1000, -10**6, Fraction(10**5, 7),
                     1000 * root_of_unity(3, 1), 10**6 * root_of_unity(4, 1) - 7]


@pytest.mark.parametrize("q", MODULUS_GROUPS)
@pytest.mark.parametrize("c0", MODULUS_CONSTANTS, ids=str)
@pytest.mark.parametrize("shape", ["c0 + y", "c0*x + y", "c0 - y*z + 3/11*y^2"])
def test_cofactor_modulus_bounds_large_coefficients(q, c0, shape):
    # over Z_7, c0 + y has cofactor constant c0^6, near the bound L^6 = (|c0| + 1)^6
    sig = cyclic_signature(q, [("x", 0), ("y", 1), ("z", 2 % q)])
    x, y, z = (SuperPolynomial.variable(sig, v) for v in ("x", "y", "z"))
    den = {"c0 + y": c0 + y, "c0*x + y": x * c0 + y,
           "c0 - y*z + 3/11*y^2": c0 - y * z + y * y * Fraction(3, 11)}[shape]
    assert_tower_matches_chain(SuperRational(x + 2 * y, den))


ORACLE_GROUPS = [[q] for q in range(2, 13)] + [[2, 2], [2, 4], [2, 6], [3, 3], [2, 2, 2]]


@st.composite
def graded_functions(draw):
    """A seeded random rational function over a group of order at most 12."""
    grp = make_group(draw(st.sampled_from(ORACLE_GROUPS)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_rational(rng, random_signature(rng, grp, random_parity(rng, grp)))


@settings(max_examples=40, deadline=None)
@given(graded_functions())
def test_decompose_equals_the_averaging_oracle(f):
    assert f.decompose() == decompose_oracle(f)


# -- one weight rule and one twist-class rule ----------------------------------


# every group of rank at most 3 and order at most 12
WEIGHT_GROUPS = sorted(
    f for r in (1, 2, 3) for f in itertools.product(range(2, 13), repeat=r) if prod(f) <= 12
)


@st.composite
def graded_monomials(draw):
    """A signature with odd variables where the parity allows them, and a monomial."""
    grp = make_group(draw(st.sampled_from(WEIGHT_GROUPS)))
    bits = tuple(draw(st.integers(0, 1)) if q % 2 == 0 else 0 for q in grp.factors)
    pm = ParityMap(grp, bits)
    weights = [[chi for chi in grp.characters() if pm(chi) == bit] for bit in (0, 1)]
    n_even = draw(st.integers(1, 3))
    n_odd = draw(st.integers(1, 3)) if weights[1] else 0
    sig = GradedSignature(
        grp, pm,
        even=[(f"x{k}", draw(st.sampled_from(weights[0]))) for k in range(n_even)],
        odd=[(f"s{k}", draw(st.sampled_from(weights[1]))) for k in range(n_odd)],
    )
    even = tuple(draw(st.integers(0, 30)) for _ in range(n_even))
    odd = tuple(sorted(draw(st.sets(st.integers(0, n_odd - 1)))) if n_odd else ())
    return sig, SuperMonomial(even, odd)


@settings(max_examples=200, deadline=None)
@given(graded_monomials())
def test_monomial_weight_equals_the_nested_residue_loop(case):
    """A monomial's weight, its ``_residues``, is the nested loop's."""
    sig, mono = case
    assert Character(sig.group, algebra._residues(sig, mono)) == nested_residue_weight(sig, mono)


def test_weights_build_one_character_per_distinct_weight(monkeypatch):
    """Weights compare as residues: weighing a homogeneous polynomial builds
    one ``Character``, and splitting one builds one per distinct weight."""
    sig = z4_signature()
    x0, x2, s1, s3 = (SuperPolynomial.variable(sig, v) for v in ("x0", "x2", "s1", "s3"))
    homogeneous = x0**3 + x0 * x2**2 + x2**4 + s1 * s3 + x0 * s1 * s3
    mixed = homogeneous + x2 + x0 * x2 + s1 + x0 * s1
    made = []
    init = Character.__init__
    monkeypatch.setattr(Character, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    assert homogeneous.termwise_weight().residues == (0,) and len(made) == 1
    made.clear()
    assert len(algebra._split(sig, mixed.terms, None)) == 3 and len(made) == 3


@st.composite
def graded_polynomials(draw):
    """A signature from ``graded_monomials`` and a seeded random polynomial on it."""
    sig, _ = draw(graded_monomials())
    rng = random.Random(draw(st.integers(0, 2**32)))
    return sig, random_polynomial(rng, sig, max_terms=6, max_degree=6)


@settings(max_examples=100, deadline=None)
@given(graded_polynomials())
def test_action_equals_the_character_values_term_for_term(case):
    sig, poly = case
    for g in sig.group.elements():
        want = SuperPolynomial(sig, {m: c * nested_residue_weight(sig, m)(g)
                                     for m, c in poly.terms.items()})
        assert list(exact_terms(poly.act(g)).items()) == list(exact_terms(want).items())


def twists_by_comparison(den):
    """D's distinct twists as the chain found them before the twist classes:
    act with every g and keep each twist unequal to all kept so far."""
    distinct = [den]
    for g in den.signature.group.elements():
        if not g.is_identity():
            twisted = den.act(g)
            if not any(twisted == seen for seen in distinct):
                distinct.append(twisted)
    return distinct[1:]


def exact_terms(poly):
    """Terms with each coefficient's conductor and vector, as printing sees them."""
    return {m: (c.conductor, entries(c)) for m, c in poly.terms.items()}


TWIST_CASES = [
    # (group, parity, even variables, denominator, stabilizer residues)
    ("4", "0", "x@0,y@2", "x@0^2 + zeta(3,1)*y@2", [(0,), (2,)]),
    ("12", "0", "x@0,y@1,z@4", "x@0 + zeta(5,2)*y@1^6 + i*z@4^3", [(0,), (2,), (4,), (6,), (8,), (10,)]),
    ("12", "0", "x@0,y@1,z@4", "1 + zeta(3,1)*y@1 - z@4^2*x@0", [(0,)]),
    ("16", "0", "x@0,y@1", "x@0 + zeta(3,1)*y@1", [(0,)]),
    ("16", "0", "x@0,y@4", "x@0^3 + i*y@4 - 2", [(0,), (4,), (8,), (12,)]),
    ("2x2", "00", "x@(0,0),y@(1,0),z@(1,1)", "x@(0,0) + zeta(3,1)*y@(1,0) + z@(1,1)^2",
     [(0, 0), (0, 1)]),
    ("2x2", "11", "x@(0,0),y@(1,1)", "x@(0,0)*y@(1,1) + zeta(8,3)", [(0, 0), (1, 1)]),
    ("2x6", "00", "x@(0,0),y@(1,2),z@(0,3)", "x@(0,0) + zeta(5,1)*y@(1,2)*z@(0,3) + i*y@(1,2)^2",
     [(0, 0), (1, 3)]),
    ("2x6", "00", "x@(0,0),y@(1,2),z@(0,3)", "zeta(7,3)*x@(0,0) + y@(1,2)^3 - z@(0,3)^2",
     [(0, k) for k in range(6)]),
]


@pytest.mark.parametrize("group, parity, even, den_text, stabilizer", TWIST_CASES)
def test_twist_classes_give_the_twists_the_comparison_found(
    monkeypatch, group, parity, even, den_text, stabilizer
):
    from gradedcover.cli import parse_graded_signature

    grp = parse_group_spec(group)
    sig = parse_graded_signature(grp, parse_parity_spec(grp, parity), even, "")
    den = parse_expression(den_text, sig).numerator
    num = SuperPolynomial.variable(sig, sig.even[0]) + 3
    classes = twist_classes(den)
    assert [g.residues for g in classes[0]] == stabilizer
    expected = twists_by_comparison(den)
    twists = [den.act(c[0]) for c in classes[1:]]
    assert [exact_terms(t) for t in twists] == [exact_terms(t) for t in expected]
    chain = reference_twist_chain([num, den], expected)
    # the tower compares neither polynomials nor coefficients
    for cls in (SuperPolynomial, Cyclotomic):
        monkeypatch.setattr(cls, "__eq__", lambda self, other: pytest.fail("compared"))
    tower, normed = SuperRational(num, den)._normed()
    got = [functools.reduce(operator.mul, unpacked_tower(tower, sig), num), normed]
    monkeypatch.undo()
    assert [p.terms for p in got] == [p.terms for p in chain]


def test_twist_classes_on_seeded_irrational_denominators():
    rng = random.Random(11)
    for factors in ([12], [16], [2, 2], [2, 6]):
        grp = make_group(factors)
        for _ in range(6):
            sig = random_signature(rng, grp, random_parity(rng, grp))
            den = random_polynomial(rng, sig, 4, 3, with_odd=False, nonzero=True)
            twists = [den.act(c[0]) for c in twist_classes(den)[1:]]
            expected = twists_by_comparison(den)
            assert [exact_terms(t) for t in twists] == [exact_terms(t) for t in expected]
            f = SuperRational(SuperPolynomial.one(sig), den)
            assert_tower_matches_chain(f)


# -- the product chain in integers against one product per factor --------------


def assert_chain_matches_the_reference(polys, twists):
    """``_mul_terms`` folded over the twists gives the values of one
    ``SuperPolynomial.__mul__`` per twist, monomial for monomial in the same
    order."""
    from gradedcover import algebra

    factors = [t.terms for t in twists]
    got = [functools.reduce(algebra._mul_terms, factors, p.terms) for p in polys]
    want = reference_twist_chain(polys, twists)
    assert [list(t.items()) for t in got] == [list(p.terms.items()) for p in want]
    assert all(type(x) is int for t in got for c in t.values() for x in (c.den, *c.num))


CHAIN_SIG = SuperSignature(even=("x", "y"), odd=("s1", "s2"))
# single conductors, and mixed ones whose lcms with a factor's may disagree
CHAIN_CONDUCTORS = [(1,), (3,), (4,), (12,), (1, 3), (1, 4), (3, 4), (1, 12), (4, 12)]


@st.composite
def chain_coefficients(draw, conductors):
    n = draw(st.sampled_from(conductors))
    halves_and_thirds = st.integers(-6, 6).map(lambda k: Fraction(k, 6)).filter(lambda q: q)
    return Cyclotomic(draw(st.lists(halves_and_thirds, min_size=euler_phi(n), max_size=euler_phi(n))), n)


@st.composite
def chain_operands(draw):
    """Terms at conductors from {1, 3, 4, 12}, the constant 1, one term, or
    c*(s1 + s2), whose product with another such operand is zero."""
    kind = draw(st.sampled_from(["terms", "terms", "terms", "one", "single", "odd pair"]))
    if kind == "one":
        return SuperPolynomial.one(CHAIN_SIG)
    conductors = draw(st.sampled_from(CHAIN_CONDUCTORS))
    if kind == "odd pair":
        c = draw(chain_coefficients(conductors))
        return SuperPolynomial(CHAIN_SIG, {SuperMonomial((0, 0), (j,)): c for j in (0, 1)})
    monomials = draw(st.lists(
        st.builds(SuperMonomial, st.tuples(st.integers(0, 2), st.integers(0, 2)),
                  st.sampled_from([(), (), (0,), (1,), (0, 1)])),
        min_size=1, max_size=1 if kind == "single" else 4, unique=True,
    ))
    return SuperPolynomial(CHAIN_SIG, {m: draw(chain_coefficients(conductors)) for m in monomials})


@settings(max_examples=300, deadline=None)
@given(st.lists(chain_operands(), min_size=1, max_size=2), st.lists(chain_operands(), max_size=4))
def test_twist_chain_equals_one_product_per_twist(polys, twists):
    assert_chain_matches_the_reference(polys, twists)


def test_identity_shifts_make_no_character_product(monkeypatch):
    products = []
    real = Character.__mul__

    def spied(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(Character, "__mul__", spied)
    splits = spy_on(monkeypatch, "_split")
    sig = z4_signature()
    x0, x2, s1 = (SuperPolynomial.variable(sig, v) for v in ("x0", "x2", "s1"))
    # a normed denominator, and a homogeneous one of identity weight
    for den in (x0 + x2, x0 + 3):
        f = SuperRational(x0 + x2 + s1, den)
        assert len(f.decompose()) == 3 and f.weight() is None
        assert SuperRational(den * 2, den).weight() == sig.group.identity_character
    assert products == [] and [shift for _, _, shift in splits] == [None] * 6
    # a denominator of weight 2 shifts each of the three components once, in
    # the one split that takes the shift
    splits.clear()
    parts = SuperRational(x0 + x2 + s1, x2).decompose()
    assert [chi.residues for chi in parts] == [(0,), (2,), (3,)]  # 2, 0 and 1, each minus 2
    assert len(products) == 3 and [shift.residues for _, _, shift in splits] == [(2,)]


# -- substitution and the unchecked constructor of arithmetic results ----------


def test_substitute_raises_each_image_to_each_power_once(monkeypatch):
    """x^2 in several numerator and denominator monomials is one power of
    x's image, and the terms are those of rebuilding it for every monomial."""
    sig = SuperSignature(even=("x", "y"))
    x, y = (SuperPolynomial.variable(sig, v) for v in sig.even)
    f = SuperRational(x**2 * y + 3 * x**2 + y**2 + x, x**2 + x**2 * y**2 + 2 * y)
    images = {"x": SuperRational(x + 1, y + 2), "y": SuperRational(x - y)}

    def rebuilt(poly):
        total = SuperRational.zero(sig)
        for mono, c in poly.terms.items():
            term = SuperRational.constant(sig, c)
            for name, e in zip(sig.even, mono.even):
                if e:
                    term = term * images[name] ** e
            total = total + term
        return total

    from gradedcover import algebra

    want = rebuilt(f.numerator) * rebuilt(f.denominator).invert()
    squares = []
    product = algebra._packed_product

    def counted(a, b, shift):
        squares.append(a is b)
        return product(a, b, shift)

    monkeypatch.setattr(algebra, "_packed_product", counted)
    got = f.substitute(images)
    # x^2's numerator and denominator and y^2's numerator, once each: y's
    # denominator is 1, which multiplies nothing; x^2 occurs in four monomials
    assert squares.count(True) == 3
    assert term_items(got.numerator) == term_items(want.numerator)
    assert term_items(got.denominator) == term_items(want.denominator)


def rational_items(f):
    return term_items(f.numerator), term_items(f.denominator)


def arithmetic_results(f, g, k):
    """The terms of f + g, f - g, -f, f * g, f * 3/2, f ** k and of the
    inverses that exist."""
    results = [f + g, f - g, -f, f * g, f * Fraction(3, 2), f**k]
    results += [h.invert() for h in (f, g) if not h.numerator.even_part().is_zero()]
    return [rational_items(r) for r in results]


def through_checked_constructor(compute):
    """``compute()`` with every arithmetic result built by ``SuperRational(n, d)``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuperRational, "_of", classmethod(lambda cls, num, den: cls(num, den)))
        return compute()


@st.composite
def function_pairs(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    grp = random_group(rng)
    sig = random_signature(rng, grp, random_parity(rng, grp))
    f, g = (random_rational(rng, sig, max_terms=3, max_degree=2) for _ in range(2))
    return f, g, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(function_pairs())
def test_arithmetic_results_equal_the_checked_constructor(case):
    f, g, k = case
    compute = lambda: arithmetic_results(f, g, k)  # noqa: E731
    assert compute() == through_checked_constructor(compute)


def test_arithmetic_folds_constant_denominators_other_than_one():
    sig = pair_signature()
    x, s1, s2 = (SuperRational.variable(sig, v) for v in ("x", "s1", "s2"))
    # 1/(2 + s1*s2) is (2 - s1*s2) over the constant 4, which is folded
    inverse = lambda: [rational_items((2 + s1 * s2).invert())]  # noqa: E731
    assert inverse() == through_checked_constructor(inverse)
    assert (2 + s1 * s2).invert().denominator.is_one()
    # a denominator equal to 1 at conductor 4 is not
    one_at_4 = SuperPolynomial.constant(sig, Cyclotomic([1, 0], 4))
    f = SuperRational((x + s1).numerator, one_at_4)
    g = SuperRational((x * s2 + 1).numerator, one_at_4)
    results = lambda: arithmetic_results(f, g, 2)  # noqa: E731
    assert results() == through_checked_constructor(results)
    for h in (f + g, -f, f * g, f**2):
        assert [c.conductor for c in h.denominator.terms.values()] == [4]
