"""The integer-accumulating product kernel against the termwise loop.

``SuperPolynomial.__mul__`` uses ``_mul_terms_integer`` when every
coefficient product of the two operands lands in one field Q(zeta_N), and
``_mul_terms_termwise`` otherwise.  Both must give the same terms with the
same coefficient vectors and the same conductors, because the printed
``zeta(N,k)`` form follows the conductor.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcover import Cyclotomic, SuperMonomial, SuperPolynomial, SuperSignature, euler_phi
from gradedcover.algebra import _mul_terms_integer, _mul_terms_termwise, _product_conductor

SIG = SuperSignature(even=("x", "y"), odd=("s1", "s2", "s3"))
ODD_SETS = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def assert_same_terms(got, want):
    assert got.keys() == want.keys()
    for mono, c in want.items():
        assert got[mono].conductor == c.conductor, mono
        assert got[mono].coeffs == c.coeffs, mono
        assert all(type(x) is Fraction for x in got[mono].coeffs)


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


def check_product(a, b):
    want = _mul_terms_termwise(a.terms, b.terms)
    assert_same_terms((a * b).terms, want)
    n = _product_conductor(a.terms, b.terms)
    if n is not None:
        assert_same_terms(_mul_terms_integer(a.terms, b.terms, n), want)


# (conductors of a, conductors of b, the kernel's N or None for the loop)
CASES = [
    ((1,), (1,), 1),
    ((4,), (4,), 4),
    ((1,), (4,), 4),
    ((12,), (12,), 12),
    ((3,), (4,), 12),
    ((1, 3), (12,), 12),
    ((3, 12), (4,), 12),
    ((1, 3), (4,), None),
    ((1, 4), (1,), None),
]


def test_dispatch_and_agreement_on_seeded_operands():
    rng = random.Random(31)
    for ca, cb, n in CASES:
        for _ in range(15):
            a = random_operand(rng, ca, rng.randint(len(ca), 5))
            b = random_operand(rng, cb, rng.randint(len(cb), 5))
            assert _product_conductor(a.terms, b.terms) == n
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
