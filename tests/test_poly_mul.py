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

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcover import (
    Cyclotomic,
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    euler_phi,
    root_of_unity,
)
from gradedcover import algebra
from gradedcover.algebra import _accumulate, _codec, _mul_terms, _odd_rows


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


# -- the codec memo --------------------------------------------------------------


def test_products_past_the_codec_memo_bound():
    """More distinct monomials than one codec's memo holds: the memo is
    cleared when full, and both kernels still give the reference terms."""
    from gradedcover import algebra

    rng = random.Random(45)
    sig = SuperSignature(even=("x", "y"), odd=("s",))

    def coefficient():
        return Fraction(rng.randint(-9, 9) or 1, rng.choice([1, 2, 3]))

    a = SuperPolynomial(sig, {SuperMonomial((e, 0), ()): coefficient() for e in range(100)})
    # y^e and y^e*s: unpacked monomials share their even part
    b = SuperPolynomial(sig, {SuperMonomial((0, e), odd): coefficient()
                              for e in range(50) for odd in ((), (0,))})
    # 10,000 product monomials
    assert len(a.terms) * len(b.terms) > algebra._MEMO_BOUND
    want = reference_product(a.terms, b.terms)
    for _ in range(2):
        for got in (_mul_terms_integer(a.terms, b.terms, 1), (a * b).terms,
                    _mul_terms_termwise(a.terms, b.terms)):
            assert list(got) == list(want)
            assert_same_terms(got, want)
        assert all(len(c.memo) <= algebra._MEMO_BOUND for c in algebra._CODECS.values())
