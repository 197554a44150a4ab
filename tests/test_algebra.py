"""Behavior of the graded function algebra: products, action, decomposition."""

import random
from fractions import Fraction

import pytest

from gradedcover import (
    GradedSignature,
    NotInvertibleError,
    ParityMap,
    SignatureMismatchError,
    SuperPolynomial,
    SuperRational,
    decompose_oracle,
    format_expression,
    make_group,
    root_of_unity,
)
from conftest import (
    random_group,
    random_parity,
    random_polynomial,
    random_rational,
    random_signature,
    sum_components,
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
    assert f.act(g.identity) == f


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
    assert f.is_homogeneous(sig.group.identity_character)


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
            assert part.is_homogeneous(chi)
            g = rng.choice(grp.elements())
            assert part.act(g) == part * chi(g)


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


def test_dimension_vector_counts_variables_per_weight():
    sig = z4_signature()
    dims = sig.dimension_vector()
    assert {chi.residues: n for chi, n in dims.items()} == {
        (0,): 1, (2,): 1, (1,): 1, (3,): 1,
    }


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
