"""The integer-accumulating product kernel against the termwise loop.

``SuperPolynomial.__mul__`` multiplies in integers in Q(zeta_N) (the kernel
``_mul_terms``, which ``_mul_terms_integer`` below calls), N the lcm of
every coefficient's conductor (``product_conductor``); one term times one
term goes through the same kernel.
``_mul_terms_termwise`` below, one ``Cyclotomic`` multiply-add per pair of
terms, is the kernel's reference.  All must give the same terms with equal
coefficient values; a coefficient prints by its value, so its stored
conductor is free.  Both pack monomials into integer keys;
``reference_product`` multiplies monomials directly and checks the packed
layout, including the order of the output terms.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcover import (
    Cyclotomic,
    GradedError,
    SuperMonomial,
    SuperPolynomial,
    SuperRational,
    SuperSignature,
    euler_phi,
    root_of_unity,
)
from gradedcover import algebra
from gradedcover.algebra import _accumulate, _codec, _mul_terms, _odd_rows
from gradedcover.cyclotomic import _polymul, _reduce


def _mul_terms_termwise(a, b):
    """Product terms by one Cyclotomic multiply-add per pair of terms.

    A coefficient's conductor is the lcm of the products summed into it
    since its running sum last cancelled to zero.
    """
    if not a or not b:
        return {}
    top = sum(max((e for m in t for e in m.even), default=0) for t in (a, b))
    codec = _codec(len(next(iter(a)).even), top)  # fields for the sum of the largest exponents
    shift, keys_a = codec.shift, list(map(codec.pack, a))
    rows = _odd_rows(keys_a, [(codec.pack(m), c) for m, c in b.items()], shift)
    pairs = ((ka + kb, c1 * c2) for ka, c1 in zip(keys_a, a.values()) for kb, c2 in rows[ka >> shift])
    return {codec.unpack(key): c for key, c in _accumulate({}, pairs).items()}


def _mul_terms_integer(a, b, n):
    """Product terms when every coefficient product lands in Q(zeta_n):
    ``_mul_terms``, which stores each coefficient at n."""
    out = _mul_terms(a, b)
    assert all(c.conductor == n for c in out.values())
    return out


SIG = SuperSignature(even=("x", "y"), odd=("s1", "s2", "s3"))
ODD_SETS = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def assert_same_terms(got, want):
    assert got.keys() == want.keys()
    for mono, c in want.items():
        assert got[mono] == c, mono
        assert all(type(x) is int for x in (got[mono].den, *got[mono].num))


def random_coefficient(rng, conductor):
    while True:
        c = Cyclotomic(
            [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
             for _ in range(euler_phi(conductor))],
            conductor,
        )
        if not c.is_zero():
            return c


def random_operand(rng, conductors, n_terms):
    """Terms whose coefficient conductors are exactly ``conductors``."""
    terms = {}
    while len(terms) < n_terms:
        mono = SuperMonomial((rng.randint(0, 2), rng.randint(0, 2)), rng.choice(ODD_SETS))
        if mono in terms:
            continue
        terms[mono] = random_coefficient(rng, conductors[len(terms) % len(conductors)])
    return SuperPolynomial(SIG, terms)


def product_conductor(a, b):
    """The conductor N of the field a*b is computed in: the lcm of every
    coefficient's conductor in a and in b."""
    return lcm(*(c.conductor for c in (*a.values(), *b.values())))


def check_product(a, b):
    want = _mul_terms_termwise(a.terms, b.terms)
    assert_same_terms((a * b).terms, want)
    assert_same_terms(_mul_terms_integer(a.terms, b.terms, product_conductor(a.terms, b.terms)), want)


# (conductors of a, conductors of b, the kernel's N)
CASES = [
    ((1,), (1,), 1),
    ((4,), (4,), 4),
    ((1,), (4,), 4),
    ((12,), (12,), 12),
    ((3,), (4,), 12),
    ((1, 3), (12,), 12),
    ((3, 12), (4,), 12),
    # no one field holds every coefficient product: the kernel lifts to the lcm
    ((1, 3), (4,), 12),
    ((1, 4), (1,), 4),
    ((1, 5), (3, 8), 120),
]


def test_dispatch_and_agreement_on_seeded_operands():
    rng = random.Random(31)
    for ca, cb, n in CASES:
        for _ in range(15):
            a = random_operand(rng, ca, rng.randint(len(ca), 5))
            b = random_operand(rng, cb, rng.randint(len(cb), 5))
            assert product_conductor(a.terms, b.terms) == n
            # every product, single terms included, lands at the lcm
            assert {c.conductor for c in (a * b).terms.values()} <= {n}
            check_product(a, b)
            check_product(b, a)


def test_odd_reordering_signs_and_repeated_odd_factors():
    s1, s2, s3 = (SuperPolynomial.variable(SIG, v) for v in ("s1", "s2", "s3"))
    x = SuperPolynomial.variable(SIG, "x")
    z = Cyclotomic([0, 1], 4)
    a = s3 * z + s1 * s2 + x * s2
    b = s2 * s1 + s1 * z + s3
    check_product(a, b)
    assert (s2 * s1).terms == {SuperMonomial((0, 0), (0, 1)): Cyclotomic([-1])}
    assert (s1 * s3 * z) * (s3 * z) == 0  # repeated factor
    assert (s3 * s2 * s1).terms[SuperMonomial((0, 0), (0, 1, 2))] == -1


def test_product_cancelling_to_zero():
    s1, s2 = (SuperPolynomial.variable(SIG, v) for v in ("s1", "s2"))
    for zeta in (Cyclotomic([1]), Cyclotomic([0, 1], 4), Cyclotomic([0, 1, 0, 0], 12)):
        a = (s1 + s2) * zeta
        assert (a * (s1 + s2)).is_zero()
        assert _mul_terms_integer(a.terms, (s1 + s2).terms, zeta.conductor) == {}


def test_empty_operand():
    rng = random.Random(5)
    zero = SuperPolynomial.zero(SIG)
    b = random_operand(rng, (12,), 3)
    for lhs, rhs in ((zero, b), (b, zero), (zero, zero)):
        assert (lhs * rhs).terms == {}
        check_product(lhs, rhs)
    assert _mul_terms_integer({}, b.terms, 12) == {}


CONDUCTOR_SETS = [(1,), (4,), (12,), (1, 3), (3, 12), (1, 4), (2, 3)]


@st.composite
def operands(draw):
    conductors = draw(st.sampled_from(CONDUCTOR_SETS))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        mono = SuperMonomial(
            (draw(st.integers(0, 2)), draw(st.integers(0, 2))),
            draw(st.sampled_from(ODD_SETS)),
        )
        n = draw(st.sampled_from(conductors))
        coeffs = draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=euler_phi(n), max_size=euler_phi(n),
        ))
        terms[mono] = Cyclotomic(coeffs, n)
    return SuperPolynomial(SIG, terms)


@settings(max_examples=300, deadline=None)
@given(operands(), operands())
def test_kernel_matches_termwise_loop(a, b):
    check_product(a, b)
    check_layout(a, b)


# -- the packed monomial layout ---------------------------------------------


def surviving_pairs(a, b):
    """(m1*m2, flips, c1, c2) per pair without a repeated odd factor, a-major."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if not set(m1.odd) & set(m2.odd):
                mono = SuperMonomial(
                    tuple(x + y for x, y in zip(m1.even, m2.even)),
                    tuple(sorted(m1.odd + m2.odd)),
                )
                # each index of m2 jumps over the indices of m1 above it
                yield mono, sum(1 for j in m2.odd for i in m1.odd if i > j), c1, c2


def reference_product(a, b):
    """Termwise product with unpacked monomials, in the a-major pair order.

    A monomial keeps its place while its running sum is nonzero; when the
    sum cancels it is dropped, and a later pair appends it again.
    """
    out = {}
    for mono, flips, c1, c2 in surviving_pairs(a, b):
        c = c1 * c2 if flips % 2 == 0 else -(c1 * c2)
        s = out[mono] + c if mono in out else c
        if s.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def check_layout(a, b):
    """Both paths equal the reference product, the order of terms included."""
    want = reference_product(a.terms, b.terms)
    got = _mul_terms_termwise(a.terms, b.terms)
    assert list(got) == list(want)
    assert_same_terms(got, want)
    kernel = _mul_terms_integer(a.terms, b.terms, product_conductor(a.terms, b.terms))
    assert_same_terms(kernel, got)
    # first appearance in the pair loop, cancelled monomials skipped
    first = dict.fromkeys(mono for mono, *_ in surviving_pairs(a.terms, b.terms))
    assert list(kernel) == [m for m in first if m in kernel]


def test_output_order_of_each_path():
    sig = SuperSignature(even=("x",))
    a = SuperPolynomial(sig, {SuperMonomial((k,), ()): 1 for k in range(3)})
    b = SuperPolynomial(sig, {SuperMonomial((2,), ()): 1, SuperMonomial((1,), ()): -1,
                              SuperMonomial((0,), ()): 1})
    check_layout(a, b)
    # x^2 cancels at the fifth pair and comes back at the last one
    assert [m.even for m in _mul_terms_termwise(a.terms, b.terms)] == [(0,), (4,), (2,)]
    assert [m.even for m in _mul_terms_integer(a.terms, b.terms, 1)] == [(2,), (0,), (4,)]


def test_exponents_straddling_a_field_width():
    sig = SuperSignature(even=("x", "y"), odd=("s",))
    x, y, s = (SuperPolynomial.variable(sig, v) for v in ("x", "y", "s"))
    z = Cyclotomic([0, 1], 4)
    assert (x**255 * x).terms == {SuperMonomial((256, 0), ()): Cyclotomic([1])}
    big = SuperPolynomial(sig, {SuperMonomial((2**40, 1), ()): 3})
    assert (big * big).terms == {SuperMonomial((2**41, 2), ()): Cyclotomic([9])}
    for a, b in [
        (x**255 * y**255 + x * s, x * y + y**255 * s),
        (x**255 * z + y**256 * s, x + y * z),
        (big + s * z, big * z + x**255),
        (x**127 + y**128, x**128 * s + y**127 * z),
    ]:
        check_layout(a, b)
        check_layout(b, a)


def test_signature_without_even_variables():
    sig = SuperSignature(odd=("s1", "s2", "s3"))
    s1, s2, s3 = (SuperPolynomial.variable(sig, v) for v in ("s1", "s2", "s3"))
    z = Cyclotomic([0, 1, 0, 0], 12)
    a = s3 * z + s1 * s2 + 2 + s2
    b = s2 * s1 + s1 * z + s3 - 3
    check_layout(a, b)
    check_layout(b, a)
    assert (s3 * s1 * s2).terms == {SuperMonomial((), (0, 1, 2)): Cyclotomic([1])}


def test_ten_odd_variables():
    names = [f"t{k}" for k in range(10)]
    sig = SuperSignature(even=("x",), odd=names)
    rng = random.Random(17)

    def operand(pool, n_terms):
        terms = {}
        while len(terms) < n_terms:
            odd = tuple(sorted(rng.sample(pool, rng.randint(0, min(4, len(pool))))))
            mono = SuperMonomial((rng.randint(0, 3),), odd)
            terms[mono] = random_coefficient(rng, rng.choice((1, 4, 3)))
        return SuperPolynomial(sig, terms)

    for _ in range(40):
        # disjoint index sets, split around a random cut, then overlapping ones
        cut = rng.randint(1, 9)
        check_layout(operand(range(cut), 4), operand(range(cut, 10), 4))
        check_layout(operand(range(10), 5), operand(range(10), 5))
    t = [SuperPolynomial.variable(sig, v) for v in names]
    product = t[9] * t[0] * t[8] * t[1]
    assert product.terms == {SuperMonomial((0,), (0, 1, 8, 9)): Cyclotomic([1])}


# -- products by the constant 1 ------------------------------------------------


def test_products_by_one_return_the_other_operand():
    rng = random.Random(12)
    p = random_operand(rng, (12, 3), 5)
    assert p.has_odd_content()
    one = SuperPolynomial.one(SIG)
    for product in (p * one, one * p):
        assert list(product.terms) == list(p.terms)
        assert_same_terms(product.terms, p.terms)
    assert (one * one).terms == one.terms


def test_one_at_a_higher_conductor_takes_a_product_path():
    one4 = SuperPolynomial.constant(SIG, root_of_unity(4, 1) ** 4)
    assert one4.as_constant() == 1 and one4.as_constant().conductor == 4
    rng = random.Random(8)
    p = random_operand(rng, (1,), 4)
    for a, b in ((p, one4), (one4, p)):
        product = a * b
        assert_same_terms(product.terms, _mul_terms_termwise(a.terms, b.terms))
        assert {c.conductor for c in product.terms.values()} == {4}


# -- one term times one term ---------------------------------------------------


def test_single_term_products_match_both_kernels():
    rng = random.Random(44)
    x = SuperMonomial((1, 2), ())
    cases = [
        # (odd set of a, odd set of b, sign of the reordering, 0 when they overlap)
        ((), (), 1),
        ((), (1,), 1),
        ((0,), (1,), 1),
        ((1,), (0,), -1),
        ((0, 2), (1,), -1),
        ((2,), (0, 1), 1),
        ((0, 1), (1, 2), 0),
    ]
    for ca, cb in ((1, 1), (3, 4), (12, 4)):
        for odd_a, odd_b, sign in cases:
            for _ in range(3):
                a = {SuperMonomial((rng.randint(0, 3), rng.randint(0, 3)), odd_a):
                     random_coefficient(rng, ca)}
                b = {x._replace(odd=odd_b): random_coefficient(rng, cb)}
                pa, pb = SuperPolynomial(SIG, a), SuperPolynomial(SIG, b)
                got = (pa * pb).terms
                want = _mul_terms_termwise(a, b)
                assert list(got) == list(want)
                assert_same_terms(got, want)
                assert_same_terms(got, _mul_terms_integer(a, b, product_conductor(a, b)))
                if sign == 0:
                    assert got == {}
                else:
                    (c1,), (c2,) = a.values(), b.values()
                    (c,) = got.values()
                    assert c == c1 * c2 * sign


def test_products_whose_z_exponents_pass_one_byte():
    """At conductor 257 (phi = 256) a product's unreduced exponents of
    z = zeta_257 pass one byte, here 200 + 201 = 401 at x*y: the codec's z
    field holds them, so no exponent carries into the odd mask."""
    sig = SuperSignature(even=("x", "y"), odd=("s",))
    x, y = (SuperPolynomial.variable(sig, v) for v in ("x", "y"))
    a = 1 + x * root_of_unity(257, 200)
    b = 1 + y * root_of_unity(257, 201)
    want = _mul_terms_termwise(a.terms, b.terms)
    assert_same_terms(_mul_terms(a.terms, b.terms), want)
    assert want[SuperMonomial((1, 1), ())] == root_of_unity(257, 401 - 257)


# -- the codec cache -------------------------------------------------------------


def test_products_past_the_codec_memo_bound():
    """More distinct monomials than one codec's cache holds: the cache stays
    within its bound, and both kernels still give the reference terms."""
    from gradedcover import algebra

    rng = random.Random(45)
    sig = SuperSignature(even=("x", "y"), odd=("s",))

    def coefficient():
        return Fraction(rng.randint(-9, 9) or 1, rng.choice([1, 2, 3]))

    a = SuperPolynomial(sig, {SuperMonomial((e, 0), ()): coefficient() for e in range(100)})
    # y^e and y^e*s: monomials with one even part and two odd masks
    b = SuperPolynomial(sig, {SuperMonomial((0, e), odd): coefficient()
                              for e in range(50) for odd in ((), (0,))})
    # 10,000 product monomials
    assert len(a.terms) * len(b.terms) > algebra._MEMO_BOUND
    want = reference_product(a.terms, b.terms)
    codec = _codec(2, 99 + 49)  # the layout of every product here, one codec per layout
    for _ in range(2):
        for got in (_mul_terms_integer(a.terms, b.terms, 1), (a * b).terms,
                    _mul_terms_termwise(a.terms, b.terms)):
            assert list(got) == list(want)
            assert_same_terms(got, want)
        assert _codec(2, 99 + 49) is codec
        assert 0 < codec.unpack.cache_info().currsize <= algebra._MEMO_BOUND


# -- reordering signs per pair of odd masks ----------------------------------


def spy_on_odd_sign(monkeypatch) -> list:
    """The masks (ma, mb) of every ``_odd_sign`` call from now on."""
    calls, odd_sign = [], algebra._odd_sign
    monkeypatch.setattr(algebra, "_odd_sign", lambda ma, mb: calls.append((ma, mb)) or odd_sign(ma, mb))
    return calls


def test_one_odd_sign_per_pair_of_distinct_masks(monkeypatch):
    """A product takes ``_odd_sign`` at most once per (distinct non-empty
    mask of a, distinct mask of b), and never when a is even; the terms,
    in their order, are the reference product's."""
    calls = spy_on_odd_sign(monkeypatch)
    rng = random.Random(46)
    for _ in range(30):
        a, b = (random_operand(rng, rng.choice(CONDUCTOR_SETS), rng.randint(1, 12)) for _ in "ab")
        calls.clear()
        got = (a * b).terms
        want = reference_product(a.terms, b.terms)
        assert list(got) == list(want)
        assert_same_terms(got, want)
        masks_a = {m.odd for m in a.terms if m.odd}
        masks_b = {m.odd for m in b.terms}
        assert len(calls) <= len(masks_a) * len(masks_b)
        assert len(set(calls)) == len(calls)
    # an even a takes b's terms as they are: no sign at all
    even = SuperPolynomial(SIG, {SuperMonomial((e, 1), ()): 1 + e for e in range(4)})
    b = random_operand(rng, (4,), 8)
    calls.clear()
    assert list((even * b).terms) == list(reference_product(even.terms, b.terms))
    assert calls == []


def test_sixty_by_thirty_six_terms_over_twelve_masks_take_144_signs(monkeypatch):
    """60 terms over 12 non-empty odd masks times 36 over 12: one sign per
    pair of masks is 12 * 12, where one per (mask of a, term of b) is 12 * 36."""
    sig = SuperSignature(even=("x",), odd=("t0", "t1", "t2", "t3"))
    odd_sets = [tuple(j for j in range(4) if mask >> j & 1) for mask in range(1, 16)]
    rng = random.Random(47)

    def operand(n_exponents):
        sets = rng.sample(odd_sets, 12)
        return SuperPolynomial(sig, {SuperMonomial((e,), odd): random_coefficient(rng, 3)
                                     for e in range(n_exponents) for odd in sets})

    a, b = operand(5), operand(3)
    assert (len(a.terms), len(b.terms)) == (60, 36)
    calls = spy_on_odd_sign(monkeypatch)
    got = (a * b).terms
    assert len(calls) == 12 * 12
    want = reference_product(a.terms, b.terms)
    assert list(got) == list(want)
    assert_same_terms(got, want)


# -- products by a scalar: the shortcuts against the general path -----------
#
# A scalar takes shortcuts of its own: a rational factor of a Cyclotomic
# scales the other operand's vector without a lift, and a polynomial times a
# scalar multiplies each coefficient at its own conductor.  Against the
# general path (``lifted_product``, and a product by the constant
# polynomial), each gives the same terms in the same order, each stored at
# the same conductor with the same integers, while an operand's coefficients
# share one conductor; past that, the termwise product keeps each stored
# conductor where ``_mul_terms`` lifts them all to their lcm.  A rational's
# inverse once took d*q/q^2 (``rational_inverse``), which Euclid now gives.

SCALAR_CONDUCTORS = (1, 4, 12, 257)
SCALARS = [0, 1, -1, Fraction(3, 2), root_of_unity(12, 5), root_of_unity(12, 0)]


def lifted_product(x, y):
    """x * y by the general path of ``Cyclotomic.__mul__``: both operands
    lifted to the lcm of their conductors, one product of vectors reduced."""
    a, b = Cyclotomic._common(x, y)
    return Cyclotomic._lowest(_reduce(_polymul(a.num, b.num), a.conductor), a.den * b.den,
                              a.conductor)


def rational_inverse(c):
    """1/c for a rational c = q/d at any conductor: d*q/q^2, zeros above."""
    lead = c.num[0]
    return Cyclotomic._lowest((c.den * lead,) + c.num[1:], lead * lead, c.conductor)


def stored(terms):
    """Each term's monomial and coefficient as stored, in the terms' order."""
    return [(m, c.conductor, c.num, c.den) for m, c in terms.items()]


def scalar_operands(seed):
    """Seeded polynomials and quotients, the coefficients of each at one
    conductor, some with odd terms, and the scalars as ints, Fractions and
    Cyclotomic values, a 1 stored at conductor 12 among them."""
    rng = random.Random(seed)
    x, unit = SuperMonomial((1, 0), ()), SuperMonomial((0, 0), ())
    polys = [random_operand(rng, (n,), rng.randint(1, 5))
             for n in SCALAR_CONDUCTORS for _ in range(2)]
    assert any(p.has_odd_content() for p in polys)
    quotients = [SuperRational(p, SuperPolynomial(SIG, {x: random_coefficient(rng, n),
                                                        unit: random_coefficient(rng, n)}))
                 for p, n in zip(polys[::2], SCALAR_CONDUCTORS)]
    scalars = SCALARS + [Cyclotomic.from_rational(q) for q in SCALARS[:4]]
    return polys, quotients, scalars


def test_rational_factors_give_the_lifted_product_without_the_lift():
    rng = random.Random(91)
    values = [random_coefficient(rng, n) for n in SCALAR_CONDUCTORS for _ in range(3)]
    rationals = [Cyclotomic.from_rational(q) for q in (1, -1, Fraction(3, 2), Fraction(-7, 4))]
    values += rationals + [q * root_of_unity(12, 0) for q in rationals]
    for a in values:
        for q in rationals:
            for x, y in ((a, q), (q, a)):
                assert (x * y)._state == lifted_product(x, y)._state, (x, y)
            assert (a * a)._state == lifted_product(a, a)._state


def test_rational_inverses_take_euclid_to_the_same_stored_value():
    for n in SCALAR_CONDUCTORS:
        for q in (1, -1, 2, Fraction(3, 2), Fraction(-5, 12), 10**30 + 1):
            c = Cyclotomic.from_rational(q) * root_of_unity(n, 0)
            assert c.conductor == n and c.is_rational()
            assert c.inverse()._state == rational_inverse(c)._state, (n, q)
            assert (c * c.inverse())._state == root_of_unity(n, 0)._state


def test_scalar_products_of_polynomials_match_the_product_by_a_constant():
    polys, _, scalars = scalar_operands(17)
    for p in polys:
        for s in scalars:
            c = SuperPolynomial.constant(SIG, s)
            assert stored((p * s).terms) == stored((p * c).terms), (p, s)
            assert stored((s * p).terms) == stored((c * p).terms), (p, s)


def test_scalar_products_of_quotients_match_the_product_by_a_constant():
    polys, quotients, scalars = scalar_operands(29)
    for r in quotients + [SuperRational(p) for p in polys[1::3]]:
        for s in scalars:
            c = SuperRational.constant(SIG, s)
            for product, general in ((r * s, r * c), (s * r, c * r)):
                assert type(product) is SuperRational
                assert stored(product.numerator.terms) == stored(general.numerator.terms), (r, s)
                assert stored(product.denominator.terms) == stored(r.denominator.terms)


def test_a_scalar_keeps_each_stored_conductor_where_the_lcm_would_pass_the_bound():
    rng = random.Random(3)
    p = random_operand(rng, (4, 257), 4)
    assert stored((p * 1).terms) == stored(p.terms)
    for s in SCALARS[2:]:
        product, n = p * s, getattr(s, "conductor", 1)
        assert product == p * SuperPolynomial.constant(SIG, s)
        assert [c.conductor for c in product.terms.values()] == [
            lcm(c.conductor, n) for c in p.terms.values()]
    wide = random_operand(rng, (4001, 4003), 2)
    with pytest.raises(GradedError, match="conductor 16016003 is above the bound 65536"):
        wide * SuperPolynomial.constant(SIG, 2)
    for product in (wide * 2, 2 * wide, SuperRational(wide) * Fraction(1, 2),
                    SuperRational(wide, SuperPolynomial.constant(SIG, 2)).numerator):
        assert [c.conductor for c in getattr(product, "numerator", product).terms.values()] == [
            4001, 4003]
