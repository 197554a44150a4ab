"""Packed composition against the termwise evaluation it replaced.

``SuperRational.substitute`` and ``compose`` evaluate every function through
``_substitute``, on packed integer polynomials.  ``substitute_poly`` below is
the evaluation they used before: one ``SuperRational`` per monomial, summed
by ``SuperRational.__add__``.  Both must give the same numerator and the same
denominator, polynomial for polynomial, not only the same value: a
composite prints as its numerator over its denominator.
"""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcover import (
    Cyclotomic,
    NotInvertibleError,
    SuperMonomial,
    SuperMorphism,
    SuperPolynomial,
    SuperRational,
    SuperSignature,
    compose,
    root_of_unity,
)
from gradedcover import algebra
from gradedcover.cli import load_atlas, parse_group_spec, parse_parity_spec
from gradedcover.covering import lift_atlas


def substitute_poly(poly, images, target, powers):
    """poly at the images; ``powers`` keeps each image power, by (index, exponent)."""
    sig = poly.signature
    total = SuperRational.zero(target)
    for mono, c in poly.terms.items():
        term = SuperRational.constant(target, c)
        for i, e in enumerate(mono.even):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = images[sig.even[i]] ** e
                term = term * powers[i, e]
        for j in mono.odd:
            term = term * images[sig.odd[j]]
        total = total + term
    return total


def reference(f, images, target):
    """f at the images, termwise: numerator times the inverse of the denominator."""
    powers = {}
    num = substitute_poly(f.numerator, images, target, powers)
    den = substitute_poly(f.denominator, images, target, powers)
    return num * den.invert()


def assert_same(got, want):
    """The same numerator and denominator, term for term, coefficients by value."""
    assert got.numerator == want.numerator
    assert got.denominator == want.denominator


# B: the variables substituted; A: the variables of the images
B = SuperSignature(even=("x", "y"), odd=("s", "t"))
A = SuperSignature(even=("u", "v"), odd=("a", "b", "c"))


def coefficient(rng, conductor):
    """A small rational, times a root of unity of order ``conductor`` on
    half the draws; now and then a rational stored at conductor 4 or 5."""
    q = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3]))
    roll = rng.random()
    if conductor > 1 and roll < 0.5:
        return root_of_unity(conductor, rng.randrange(conductor)) * q
    if roll < 0.6:
        return Cyclotomic([q] + [0] * 3, rng.choice([4, 5]))
    return q


def polynomial(rng, sig, conductor, odd_sizes, terms=3, degree=2, nonzero=False):
    """Up to ``terms`` monomials of degree at most ``degree`` in the even
    variables, each with an odd index set whose size is drawn from ``odd_sizes``."""
    while True:
        out = {}
        for _ in range(rng.randint(1 if nonzero else 0, terms)):
            even = [0] * len(sig.even)
            for _ in range(rng.randint(0, degree)):
                even[rng.randrange(len(even))] += 1
            size = rng.choice(odd_sizes)
            odd = tuple(sorted(rng.sample(range(len(sig.odd)), size)))
            out[SuperMonomial(tuple(even), odd)] = coefficient(rng, conductor)
        poly = SuperPolynomial(sig, out)
        if poly or not nonzero:
            return poly


def denominator(rng, sig, conductor, shared):
    """A shared object, a polynomial of its own, or the constant 1 or 3."""
    roll = rng.random()
    if roll < 0.35:
        return shared
    if roll < 0.7:
        return polynomial(rng, sig, conductor, [0], terms=2, nonzero=True)
    return SuperPolynomial.constant(sig, rng.choice([1, 3]))


def images_over(rng, conductor):
    """Images over A of B's variables: even ones with nilpotent content on
    some draws, odd ones odd; denominators shared, distinct or constant, and
    now and then a zero image."""
    shared = polynomial(rng, A, conductor, [0], terms=2, nonzero=True)
    images = {}
    for names, sizes in ((B.even, [0, 0, 2]), (B.odd, [1, 1, 3])):
        for name in names:
            if rng.random() < 0.1:
                images[name] = SuperRational.zero(A)
                continue
            num = polynomial(rng, A, conductor, sizes, nonzero=True)
            images[name] = SuperRational(num, denominator(rng, A, conductor, shared))
    return images


def function_over(rng, conductor, odd_sizes, den):
    """A function over B, over ``den`` or a denominator of its own."""
    num = polynomial(rng, B, conductor, odd_sizes, terms=3)
    if den is None:
        den = polynomial(rng, B, conductor, [0], terms=2, nonzero=True)
    return SuperRational(num, den)


CONDUCTORS = (1, 3, 4, 5, 8, 12)


@pytest.mark.parametrize("conductor", CONDUCTORS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_packed_composition_builds_the_termwise_numerator_and_denominator(conductor, seed):
    rng = random.Random(seed)
    first = SuperMorphism(A, B, images_over(rng, conductor))
    shared = polynomial(rng, B, conductor, [0], terms=2, nonzero=True)
    # even, odd, even and of mixed parity, which only ``substitute`` takes
    fs = [function_over(rng, conductor, sizes, shared if rng.random() < 0.5 else None)
          for sizes in ([0, 2], [1], [0, 2], [0, 1, 2])]
    wants = []
    for f in fs:
        try:
            wants.append(reference(f, first.images, A))
        except NotInvertibleError:
            wants.append(NotInvertibleError)
    for f, want in zip(fs, wants):
        if want is NotInvertibleError:
            with pytest.raises(NotInvertibleError):
                f.substitute(first.images)
        else:
            assert_same(f.substitute(first.images), want)
    if NotInvertibleError not in wants[:3]:
        # the first three as the images of one morphism, in one composition
        target = SuperSignature(even=("p", "r"), odd=("q",))
        composite = compose(SuperMorphism(B, target, dict(zip("pqr", fs))), first)
        for name, want in zip("pqr", wants):
            assert_same(composite.images[name], want)


def reference_tail(f, images):
    """f at the images as ``_substitute`` finished each composite before its
    tail stayed packed: the value of N times the inverse of the value of D,
    each value evaluated as a function over 1."""
    def evaluate(p):
        return SuperRational(p).substitute(images, signature=A)

    return evaluate(f.numerator) * evaluate(f.denominator).invert()


def even_image(rng, conductor, kind):
    """An image of an even variable of B: 1, another constant, zero, even
    and not constant (over 1 or a denominator), or with odd content."""
    if kind == "one":
        return SuperRational.one(A)
    if kind == "constant":
        return SuperRational.constant(A, rng.choice([2, Fraction(-1, 3), root_of_unity(3, 1)]))
    if kind == "zero":
        return SuperRational.zero(A)
    num = polynomial(rng, A, conductor, [0], nonzero=True)
    if kind == "odd":  # a*b, now and then with no even part
        num = SuperPolynomial.variable(A, "a") * SuperPolynomial.variable(A, "b") + (
            num if rng.random() < 0.8 else 0)
    elif num.as_constant() is not None:
        num = num + SuperPolynomial.variable(A, "u")
    if rng.random() < 0.5:
        return SuperRational(num)
    return SuperRational(num, polynomial(rng, A, conductor, [0], terms=2, nonzero=True))


KINDS = ("one", "constant", "zero", "even", "even", "odd")


def swaps(p):
    """1, or even and not constant: its inverse needs no series and folds nothing."""
    return p.is_one() or bool(p) and not p.has_odd_content() and p.as_constant() is None


@pytest.mark.parametrize("conductor", (1, 3, 4))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_the_packed_tail_builds_what_the_inverse_did(conductor, seed):
    """Composites over denominators whose values are 1, even and not
    constant, other constants, zero or with odd content: each has the
    numerator and denominator of N's value times the inverse of D's, or its
    exception; composites over one D with a numerator value over 1 share one
    denominator object; and no inverse is taken where every D's value is 1
    or even and not constant."""
    rng = random.Random(seed)
    images = {name: even_image(rng, conductor, rng.choice(KINDS)) for name in B.even}
    for name in B.odd:
        images[name] = SuperRational(polynomial(rng, A, conductor, [1], nonzero=True))
    x, y = (SuperPolynomial.variable(B, n) for n in B.even)
    pool = [x, y, x * y, x + 1, x - y, y * y + 3, x - 1]
    dens = rng.sample(pool, 3)
    dens.append(SuperPolynomial(B, dict(dens[0].terms)))  # equal terms, another object
    fs = [SuperRational(polynomial(rng, B, conductor, [0, 2]), rng.choice(dens))
          for _ in range(5)]
    wants, values = [], {}
    for f in fs:
        try:
            wants.append(reference_tail(f, images))
        except NotInvertibleError as exc:
            wants.append(exc)
        values[id(f.denominator)] = SuperRational(f.denominator).substitute(images, signature=A)
    inverted = []
    invert = SuperRational.invert
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuperRational, "invert", lambda self: inverted.append(self) or invert(self))
        for f, want in zip(fs, wants):
            if isinstance(want, NotInvertibleError):
                with pytest.raises(NotInvertibleError, match=re.escape(str(want))):
                    f.substitute(images)
            else:
                assert_same(f.substitute(images), want)
        if not any(isinstance(want, NotInvertibleError) for want in wants):
            inverted.clear()
            got = algebra._substitute(fs, images, A)
            for g, want in zip(got, wants):
                assert_same(g, want)
            if all(swaps(v.numerator) and swaps(v.denominator) for v in values.values()):
                assert inverted == []
            over_one = [SuperRational(f.numerator).substitute(images, signature=A)
                        .denominator.is_one() for f in fs]
            for (f, g, one), (f2, g2, one2) in itertools.combinations(zip(fs, got, over_one), 2):
                if one and one2 and f.denominator.terms == f2.denominator.terms:
                    assert g.denominator is g2.denominator


def test_a_denominator_with_nilpotent_content_is_inverted_by_its_series():
    u, v, a, b, c = (SuperRational.variable(A, n) for n in A.even + A.odd)
    images = {"x": u + a * b, "y": (v + b * c) / (u + 1), "s": a / (v + 2), "t": c}
    x, y, s, t = (SuperRational.variable(B, n) for n in B.even + B.odd)
    for f in (1 / x, (s * t + y) / (x * y + 1), (x + s * t) / (x**2 + 3)):
        got = f.substitute(images)
        assert_same(got, reference(f, images, A))
        assert got.numerator.has_odd_content()


def test_zero_images_keep_their_denominators_in_the_sum():
    u, v, a = (SuperRational.variable(A, n) for n in ("u", "v", "a"))
    images = {"x": SuperRational.zero(A), "y": (u + 1) / (v + 1), "s": SuperRational.zero(A),
              "t": a / u}
    x, y, s, t = (SuperRational.variable(B, n) for n in B.even + B.odd)
    for f in (x * y + 1, (x * y**2 + y + s * t) / (y + 2), x / (y**2 + 1)):
        assert_same(f.substitute(images), reference(f, images, A))


def test_equal_denominators_add_whatever_their_scale():
    """u/2 * 2v and u * v are one denominator, as ``SuperRational`` compares
    them, so the two terms add their numerators over it."""
    u, v, a, b = (SuperRational.variable(A, n) for n in ("u", "v", "a", "b"))
    images = {"x": 1 / (u / 2), "y": 1 / (2 * v), "s": a / u, "t": b / v}
    x, y, s, t = (SuperRational.variable(B, n) for n in B.even + B.odd)
    f = x * y + s * t
    got = f.substitute(images)
    assert_same(got, reference(f, images, A))
    assert got.denominator == (u * v).numerator


def test_a_singular_substituted_denominator_still_raises():
    a, b = (SuperRational.variable(A, n) for n in ("a", "b"))
    x = SuperRational.variable(B, "x")
    first = SuperMorphism(A, SuperSignature(even=("x",)), {"x": a * b})
    second = SuperMorphism(SuperSignature(even=("x",)), SuperSignature(even=("p",)),
                           {"p": 1 / SuperRational.variable(first.target, "x")})
    for call in (lambda: (1 / x).substitute({"x": a * b}),
                 lambda: (1 / x).substitute({"x": SuperRational.zero(A)}),
                 lambda: compose(second, first)):
        with pytest.raises(NotInvertibleError):
            call()


@pytest.mark.parametrize("exponent, image_degree, top, width", [
    (15, None, 255, 8),  # y^8 + y^9: the cross-multiplied sum reaches x^255
    (15, 1, 256, 16),  # ... plus z, whose denominator 1 multiplies it by x
    (16, None, 256, 16),
    (130, None, 260, 16),  # y^130/(y^130 + 1) at y = 1/x: the tail's x^130 * (1 + x^130)
])
def test_the_codec_bound_leaves_no_carry(monkeypatch, exponent, image_degree, top, width):
    """Each field holds every exponent the evaluation reaches: for each
    product, the largest exponents of its operands sum to at most the field,
    and the result is the reference's."""
    sig = SuperSignature(even=("y", "z"))
    target = SuperSignature(even=("x", "w"))
    x = SuperRational.variable(target, "x")
    y, z = (SuperRational.variable(sig, n) for n in sig.even)
    images = {"y": (x**exponent + 1) / (x**exponent + 2), "z": x**(image_degree or 1)}
    f = y**8 + y**9 if exponent == 15 else y**16
    if image_degree:
        f = f + z
    if exponent == 130:  # N's value over x^130 times D's swapped, each reaching x^130
        images["y"], f = 1 / x, y**130 / (y**130 + 1)
    codecs, products = [], []
    codec, product = algebra._codec, algebra._packed_product

    def spy_codec(n_even, reach):
        codecs.append((reach, codec(n_even, reach)))
        return codecs[-1][1]

    def spy_product(a, b, shift):
        products.append((a[1], b[1], shift))
        return product(a, b, shift)

    monkeypatch.setattr(algebra, "_codec", spy_codec)
    monkeypatch.setattr(algebra, "_packed_product", spy_product)
    got = f.substitute(images)
    reach, used = codecs[0]  # the evaluation's; ``_mul_terms`` picks its own later
    assert (reach, used.width) == (top, width)
    field = used.field
    for ta, tb, shift in products:
        if shift == used.shift:
            # each even field, and z's, which holds the unreduced exponents
            for s in used.shifts + [used.zshift]:
                assert max(k >> s & field for k in ta) + max(k >> s & field for k in tb) <= field
    assert_same(got, reference(f, images, target))
    assert max(m.even[0] for p in (got.numerator, got.denominator) for m in p.terms) == top


def test_the_codec_z_field_holds_unreduced_exponents(monkeypatch):
    """At conductor 257 (phi = 256) the exponents reach 2 and z's up to
    2*255 unreduced: the codec is sized by z's field, which holds each
    product's unreduced exponents of z, and the result is the reference's."""
    sig = SuperSignature(even=("y",))
    target = SuperSignature(even=("x", "w"))
    x = SuperRational.variable(target, "x")
    y = SuperRational.variable(sig, "y")
    images = {"y": (x * root_of_unity(257, 200) + 1) / (x + root_of_unity(257, 201))}
    f = y**2 + y
    codecs, products = [], []
    codec, product = algebra._codec, algebra._packed_product

    def spy_codec(n_even, reach):
        codecs.append(codec(n_even, reach))
        return codecs[-1]

    def spy_product(a, b, shift):
        products.append((a[1], b[1], shift))
        return product(a, b, shift)

    monkeypatch.setattr(algebra, "_codec", spy_codec)
    monkeypatch.setattr(algebra, "_packed_product", spy_product)
    got = f.substitute(images)
    used = codecs[0]
    assert used.width == 16
    zs, field = used.zshift, used.field
    tops = [max(k >> zs & field for k in ta) + max(k >> zs & field for k in tb)
            for ta, tb, shift in products if shift == used.shift]
    assert max(tops) > 255 and all(top <= 2 * 255 for top in tops)
    assert_same(got, reference(f, images, target))


P1 = """{"charts": {"0": {"even": ["x"]}, "1": {"even": ["y"]}},
         "transitions": {"0->1": {"y": "1/x"}, "1->0": {"x": "1/y"}}}"""


def test_one_compose_packs_each_image_of_first_once(monkeypatch):
    """Composing two lifted transitions packs each numerator and each
    shared denominator of the inner one's images once."""
    atlas, _, _ = load_atlas(json.loads(P1))
    group = parse_group_spec("3")
    lifted = lift_atlas(atlas, group, parse_parity_spec(group, "0"))
    first, second = lifted.transitions[("0", "1")], lifted.transitions[("1", "0")]
    packed = []
    pack = algebra._pack

    def spy(terms, n, codec):
        packed.append(terms)
        return pack(terms, n, codec)

    monkeypatch.setattr(algebra, "_pack", spy)
    composite = compose(second, first)
    assert composite.is_identity()
    polys = {id(p): p for f in first.images.values() for p in (f.numerator, f.denominator)}
    assert len(polys) == len(first.images) + 1  # one denominator, shared
    for p in polys.values():
        assert sum(terms is p.terms for terms in packed) == 1
