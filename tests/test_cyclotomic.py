"""Exactness checks for the cyclotomic field arithmetic."""

import functools
import operator
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gradedcover import Cyclotomic, cyclotomic_polynomial, euler_phi, root_of_unity
from gradedcover.cyclotomic import MAX_CONDUCTOR, _conductor, _power, _reduce, _spread
from gradedcover.errors import GradedError
from conftest import entries


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(64) == 32


@functools.cache
def _phi_by_division(n):
    """Phi_n as (x^n - 1) divided by Phi_d for every proper divisor d."""
    work = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _phi_by_division(d)
            quotient = [0] * (len(work) - len(den) + 1)
            for k in range(len(quotient) - 1, -1, -1):
                c = quotient[k] = work[k + len(den) - 1]
                for j, x in enumerate(den):
                    work[k + j] -= c * x
            assert not any(work[: len(den) - 1])
            work = quotient
    return tuple(work)


def test_cyclotomic_polynomials_from_smaller_factors_match_the_division():
    for n in range(1, 301):
        assert cyclotomic_polynomial(n) == _phi_by_division(n), n
        assert euler_phi(n) == len(_phi_by_division(n)) - 1, n
    with pytest.raises(ValueError):
        euler_phi(0)


def test_large_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in (3003, 4095):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in want)
        assert euler_phi(n) == len(want) - 1


def test_imaginary_unit_squares_to_minus_one():
    i = root_of_unity(4, 1)
    assert i * i == -1


def test_minus_one_as_second_root():
    assert root_of_unity(2, 1) == -1


def test_roots_have_the_right_order():
    for n in range(1, 25):
        for k in range(n):
            assert root_of_unity(n, k) ** n == 1


def test_sixth_roots_sum_to_zero():
    z = root_of_unity(6, 1)
    total = Cyclotomic.from_rational(0)
    for k in range(6):
        total = total + root_of_unity(6, k)
    # geometric series: (z - 1) * sum = z^6 - 1 = 0 with z != 1
    assert (z - 1) * total == z**6 - 1
    assert z != 1
    assert total == 0


def test_product_of_conjugate_pair():
    i = root_of_unity(4, 1)
    assert (1 + i) * (1 - i) == 2


def test_inverse_of_cube_root():
    z = root_of_unity(3, 1)
    inv = z.inverse()
    assert z * inv == 1
    assert inv == root_of_unity(3, 2)


def test_quotients_and_negative_powers_invert_exactly():
    """``/`` from either side and a negative power go through the inverse."""
    c = 2 + root_of_unity(12, 1) + 3 * root_of_unity(12, 5)
    d = Fraction(3, 7) - root_of_unity(5, 2)
    assert c / d * d == c
    assert c / 4 * 4 == c
    assert 5 / d * d == 5
    assert Fraction(2, 3) / c * c == Fraction(2, 3)
    for k in (1, 2, 5):
        assert c ** -k * c ** k == 1
        assert (c * d) ** -k == c ** -k * d ** -k
    assert d ** -1 == d.inverse()
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0) ** -1


@pytest.mark.parametrize("compute, reference, products", [
    (lambda c, d: c / d, lambda c, d: c * d.inverse(), 1),
    (lambda c, d: c ** -1, lambda c, d: c.inverse(), 0),
    (lambda c, d: c ** 5, lambda c, d: c * c * c * c * c, 3),
    (lambda c, d: 1 / c, lambda c, d: c.inverse(), 1),
    (lambda c, d: c ** 1, lambda c, d: c, 0),
    (lambda c, d: c ** 0, lambda c, d: 1, 0),
], ids=["c / d", "c ** -1", "c ** 5", "1 / c", "c ** 1", "c ** 0"])
def test_powers_take_only_the_products_they_need(compute, reference, products, monkeypatch):
    """Binary powering starts from the first factor, never from a product by
    one: ``/`` is one product by the inverse, ``c ** 5`` three products."""
    c = 2 + root_of_unity(12, 1) + 3 * root_of_unity(12, 5)
    d = Fraction(3, 7) - root_of_unity(5, 2)
    want, taken, mul = reference(c, d), [], Cyclotomic.__mul__
    monkeypatch.setattr(Cyclotomic, "__mul__", lambda x, y: taken.append(1) or mul(x, y))
    assert compute(c, d) == want
    assert len(taken) == products


def test_power_checks_each_product_it_takes():
    """``_power`` passes each product to ``check`` as it is taken, and only those."""
    c = 2 + root_of_unity(12, 1)
    for k, products in ((0, 0), (1, 0), (2, 1), (5, 3), (8, 3), (13, 5)):
        checked = []
        assert _power(c, k, Cyclotomic.from_rational(1), checked.append) == functools.reduce(
            operator.mul, [c] * k, Cyclotomic.from_rational(1))
        assert len(checked) == products, k


def test_inverse_builds_no_fraction():
    """Euclid runs on integer remainders and cofactors: inverting
    2 + z + 3z^3 at conductor 257 constructs no Fraction."""
    a = 2 + root_of_unity(257, 1) + 3 * root_of_unity(257, 3)
    # every construction path: __new__, and _from_coprime_ints where it exists
    makers = {getattr(f, "__func__", f).__code__ for name, f in vars(Fraction).items()
              if name in ("__new__", "_from_coprime_ints")}
    entered, made, depth = [0], [], [0]

    def hook(frame, event, arg):
        code = frame.f_code
        if code is Cyclotomic.inverse.__code__:
            if event == "call":
                entered[0] += 1
                depth[0] += 1
            elif event == "return":
                depth[0] -= 1
        elif event == "call" and code in makers and depth[0]:
            made.append(frame.f_back.f_code.co_name)

    sys.setprofile(hook)
    try:
        inv = a.inverse()
    finally:
        sys.setprofile(None)
    assert entered == [1]
    assert made == []
    assert a * inv == 1


@pytest.mark.parametrize("n, count", [(97, 40), (257, 20)])
def test_inverses_at_large_conductors_match_sympy(n, count):
    """The sparse 2 + z + 3z^3 and the dense sum of (j^2 mod 7 + 1)*z^j over
    j < count, whose Euclid over Q swells, at a prime conductor: a*a^-1 = 1,
    and den times sympy's inverse of num modulo Phi_n over QQ is a^-1."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    phi = sympy.Poly(cyclotomic_polynomial(n)[::-1], x, domain="QQ")
    dense = sum((j * j % 7 + 1) * root_of_unity(n, j) for j in range(count))
    for a in (2 + root_of_unity(n, 1) + 3 * root_of_unity(n, 3), dense):
        inv = a.inverse()
        assert a * inv == 1
        num = sympy.Poly(a.num[::-1], x, domain="QQ")
        want = (sympy.invert(num, phi) * a.den).all_coeffs()[::-1]
        want += [0] * (euler_phi(n) - len(want))
        assert entries(inv) == tuple(Fraction(int(c.p), int(c.q)) for c in want)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0).inverse()


def test_conductor_must_be_positive():
    with pytest.raises(ValueError):
        root_of_unity(0, 1)
    with pytest.raises(ValueError):
        Cyclotomic([1], 0)


def test_embed_of_imaginary_unit():
    v = root_of_unity(4, 1).embed()
    assert abs(v - 1j) < 1e-12


def test_embed_of_cube_root():
    v = root_of_unity(3, 1).embed()
    assert abs(v.real + 0.5) < 1e-12
    assert abs(v.imag - 0.8660254037844386) < 1e-12


def test_embed_respects_multiplication():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice([3, 4, 6, 8, 12])
        a = root_of_unity(n, rng.randrange(n)) * Fraction(rng.randint(-5, 5), 3)
        b = root_of_unity(n, rng.randrange(n)) + rng.randint(-2, 2)
        assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-10


def test_equality_is_canonical():
    # equal values have equal coefficient vectors once conductors agree
    a = root_of_unity(6, 2)
    b = root_of_unity(3, 1)
    assert a == b
    assert (a - b).is_zero()
    assert entries(a.lift(6)) == entries(b.lift(6))


def test_rational_values_embed_as_constants():
    half = Cyclotomic.from_rational(Fraction(1, 2))
    assert half.is_rational()
    assert half == Fraction(1, 2) and half.num == (1,) and half.den == 2
    assert (half + half) == 1


def test_field_axioms_on_random_triples():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([4, 6, 8, 12])

        def rand():
            c = root_of_unity(n, rng.randrange(n)) * Fraction(
                rng.randint(-3, 3), rng.choice([1, 2])
            )
            return c + rng.randint(-2, 2)

        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_mixed_conductor_arithmetic_lifts():
    z3 = root_of_unity(3, 1)
    i = root_of_unity(4, 1)
    prod = z3 * i
    assert prod.conductor == 12
    assert prod == root_of_unity(12, 4) * root_of_unity(12, 3)


def test_string_form_uses_i_for_conductor_four():
    i = root_of_unity(4, 1)
    assert str(i) == "i"
    assert str(-i) == "-i"
    assert str(i + 1) == "1 + i"
    assert str(Cyclotomic.from_rational(Fraction(-3, 2))) == "-3/2"
    z = root_of_unity(8, 1)
    assert "conductor=8" in str(z)


def test_polynomial_cache_fills_idempotently_under_threads():
    import threading

    import gradedcover.cyclotomic as cyc

    cyc._cyclotomic_polynomial.cache_clear()
    cyc._root.cache_clear()
    results = []

    def worker():
        results.append(cyclotomic_polynomial(36))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == cyclotomic_polynomial(36)


def _roots_by_recurrence(n):
    """z^0, ..., z^(n-1) modulo Phi_n: multiply by z, fold the top coefficient with Phi_n."""
    phi_n = cyclotomic_polynomial(n)
    cur = [Fraction(1)] + [Fraction(0)] * (len(phi_n) - 2)
    rows = []
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        if top:
            cur = [c - top * phi_n[j] for j, c in enumerate(cur)]
    return rows


def test_roots_by_reduction_match_the_recurrence():
    for n in range(1, 65):
        rows = _roots_by_recurrence(n)
        for k in range(-2 * n, 2 * n):
            root = root_of_unity(n, k)
            assert root.conductor == n
            assert entries(root) == rows[k % n], (n, k)
            assert root.den == 1 and all(type(c) is int for c in root.num)


def test_lift_and_conjugate_are_spreads_of_the_power_basis():
    rng = random.Random(5)
    for n in [1, 2, 3, 4, 5, 6, 8, 9, 12, 15]:
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice([1, 3])) for _ in range(euler_phi(n))]
        a = Cyclotomic(coeffs, n)
        # z_n = z_(nm)^m, and complex conjugation sends z_n to z_n^(n-1)
        for m in [1, 2, 3, 5]:
            lifted = sum((c * root_of_unity(n * m, k * m) for k, c in enumerate(coeffs)),
                         Cyclotomic([0], n * m))
            assert a.lift(n * m).conductor == n * m
            assert entries(a.lift(n * m)) == entries(lifted)
        conj = sum((c * root_of_unity(n, -k) for k, c in enumerate(coeffs)), Cyclotomic([0], n))
        spread = Cyclotomic._raw(_spread(a.num, max(n - 1, 1), n), a.den, n)
        assert entries(spread) == entries(conj)
        assert abs(spread.embed() - a.embed().conjugate()) < 1e-9


CONDUCTORS = [1, 2, 3, 4, 5, 8, 12]


@st.composite
def values(draw, conductor=None):
    n = draw(st.sampled_from(CONDUCTORS)) if conductor is None else conductor
    q = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return Cyclotomic(draw(st.lists(q, min_size=euler_phi(n), max_size=euler_phi(n))), n)


@settings(max_examples=60, deadline=None)
@given(values(), values(), values())
def test_ring_axioms_across_conductors(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(values())
def test_nonzero_values_have_inverses(a):
    assume(not a.is_zero())
    assert a * a.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.sampled_from([1, 2, 3]), st.data())
def test_lift_preserves_sums_and_products(n, m, data):
    a, b = data.draw(values(n)), data.draw(values(n))
    for lifted, parts in [((a + b).lift(n * m), a.lift(n * m) + b.lift(n * m)),
                          ((a * b).lift(n * m), a.lift(n * m) * b.lift(n * m))]:
        assert lifted.conductor == parts.conductor == n * m
        assert entries(lifted) == entries(parts)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(-200, 200), st.integers(-200, 200))
def test_root_exponents_add(n, j, k):
    product = root_of_unity(n, j) * root_of_unity(n, k)
    assert product.conductor == n
    assert entries(product) == entries(root_of_unity(n, j + k))


def lifted_product(a, b):
    """a * b with both operands lifted to the lcm conductor and convolved."""
    n = lcm(a.conductor, b.conductor)
    x, y = entries(a.lift(n)), entries(b.lift(n))
    conv = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            conv[i + j] += s * t
    return Cyclotomic(conv, n)  # the constructor reduces modulo Phi_n


@settings(max_examples=60, deadline=None)
@given(values(), st.fractions(min_value=-4, max_value=4, max_denominator=3))
@example(root_of_unity(12, 5), Fraction(0))
@example(root_of_unity(5, 2), Fraction(1))
@example(Cyclotomic([0, 0], 3), Fraction(-2, 3))
@example(Cyclotomic([0], 1), Fraction(0))
def test_rational_factors_scale_like_the_lifted_product(a, q):
    rational = Cyclotomic.from_rational(q)
    factors = [Fraction(q), rational] + ([int(q)] if q.denominator == 1 else [])
    for factor in factors:
        for product, reference in [(a * factor, lifted_product(a, rational)),
                                   (factor * a, lifted_product(rational, a))]:
            assert product.conductor == reference.conductor == a.conductor
            assert entries(product) == entries(reference)
            assert all(type(c) is int for c in (product.den, *product.num))


def dense_reduce(coeffs, n):
    """Remainder modulo Phi_n by the loop over every lower coefficient, zeros included."""
    phi_n = cyclotomic_polynomial(n)
    deg = len(phi_n) - 1
    work = list(coeffs)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            work[k] = Fraction(0)
            for j in range(deg):
                work[k - deg + j] -= c * phi_n[j]
    work = work[:deg]
    work.extend([0] * (deg - len(work)))
    return tuple(work)


def test_sparse_reduction_matches_the_dense_loop():
    rng = random.Random(9)
    draws = [lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))]
    for n in [1, 2, 12, 105, 3003, 4095]:
        deg = euler_phi(n)
        for draw in draws:
            for length in [0, 1, deg, deg + 1, deg + rng.randint(2, 60)]:
                vec = [draw() for _ in range(length)]
                got, want = _reduce(vec, n), dense_reduce(vec, n)
                assert got == want, (n, length)
                assert [type(c) for c in got] == [type(c) for c in want]
    # the vector of a root of unity of order 3003, as root_of_unity reduces it
    vec = [0] * 3002 + [1]
    assert _reduce(vec, 3003) == dense_reduce(vec, 3003)


# -- the stored form against a Fraction-vector reference ---------------------
#
# A reference value is (conductor, tuple of Fractions), computed the way the
# arithmetic ran while coefficients were Fraction tuples: lift by spreading
# the power basis, products by convolution, every vector reduced by
# ``dense_reduce``, and the inverse by solving a linear system over Q.

REFERENCE_CONDUCTORS = [1, 3, 4, 5, 7, 9, 12, 16]


def ref_lift(a, m):
    n, vec = a
    step = m // n
    out = [Fraction(0)] * ((len(vec) - 1) * step + 1)
    out[::step] = vec
    return m, dense_reduce(out, m)


def ref_common(a, b):
    m = lcm(a[0], b[0])
    return ref_lift(a, m), ref_lift(b, m)


def ref_add(a, b):
    (m, x), (_, y) = ref_common(a, b)
    return m, tuple(s + t for s, t in zip(x, y))


def ref_mul(a, b):
    (m, x), (_, y) = ref_common(a, b)
    conv = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            conv[i + j] += s * t
    return m, dense_reduce(conv, m)


def ref_inverse(a):
    """The x with a*x = 1: Gauss-Jordan on the columns a*z^k over Q."""
    n, _ = a
    deg = euler_phi(n)
    basis = [(n, tuple(Fraction(int(j == k)) for j in range(deg))) for k in range(deg)]
    cols = [ref_mul(a, z)[1] for z in basis]
    rows = [[cols[k][i] for k in range(deg)] + [Fraction(int(i == 0))] for i in range(deg)]
    for c in range(deg):
        p = next(r for r in range(c, deg) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(deg):
            if r != c and rows[r][c]:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return n, tuple(row[-1] for row in rows)


def assert_stored_form(c, reference):
    """Integers over one positive denominator in lowest terms, zero as all
    zeros over 1, at the reference's conductor and value."""
    n, vec = reference
    assert c.conductor == n
    assert type(c.den) is int and c.den > 0
    assert type(c.num) is tuple and len(c.num) == euler_phi(n)
    assert all(type(x) is int for x in c.num)
    assert gcd(c.den, *c.num) == 1
    assert any(c.num) or c.den == 1
    assert entries(c) == vec


@st.composite
def reference_values(draw):
    n = draw(st.sampled_from(REFERENCE_CONDUCTORS))
    q = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    vec = draw(st.lists(q, min_size=euler_phi(n), max_size=euler_phi(n)))
    return n, dense_reduce(vec, n)


@settings(max_examples=150, deadline=None)
@given(reference_values(), reference_values(), st.sampled_from([1, 2, 3]))
@example((12, (Fraction(1, 2),) * 4), (12, (Fraction(-1, 2),) * 4), 1)
@example((16, (Fraction(1, 4),) + (Fraction(0),) * 7), (1, (Fraction(3, 4),)), 2)
@example((3, (Fraction(2, 3), Fraction(4, 3))), (4, (Fraction(-2, 3), Fraction(0))), 3)
@example((5, (Fraction(1, 2),) * 4), (12, (Fraction(-3, 4),) + (Fraction(0),) * 3), 1)
def test_integer_fields_match_the_fraction_reference(a_ref, b_ref, m):
    a, b = Cyclotomic(a_ref[1], a_ref[0]), Cyclotomic(b_ref[1], b_ref[0])
    assert_stored_form(a, a_ref)
    assert_stored_form(b, b_ref)
    minus_b = (b_ref[0], tuple(-x for x in b_ref[1]))
    assert_stored_form(-b, minus_b)
    assert_stored_form(a + b, ref_add(a_ref, b_ref))
    assert_stored_form(a - b, ref_add(a_ref, minus_b))
    assert_stored_form(a - a, (a_ref[0], (Fraction(0),) * euler_phi(a_ref[0])))
    assert_stored_form(a * b, ref_mul(a_ref, b_ref))
    assert_stored_form(a.lift(a.conductor * m), ref_lift(a_ref, a_ref[0] * m))
    if any(b_ref[1]):
        assert_stored_form(b.inverse(), ref_inverse(b_ref))
    # equality across conductors is equality of the lifted reference vectors
    common = ref_common(a_ref, b_ref)
    assert (a == b) == (common[0][1] == common[1][1])
    same = Cyclotomic(ref_lift(a_ref, lcm(a_ref[0], b_ref[0]))[1], lcm(a_ref[0], b_ref[0]))
    assert a == same and same == a and not (a != same)


def test_coefficient_text_is_the_fraction_text():
    from gradedcover.cyclotomic import _basis_pieces

    rng = random.Random(3)
    for _ in range(300):
        n = rng.choice(REFERENCE_CONDUCTORS)
        dens = [1, 2, 4, 6, 9]
        vec = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(euler_phi(n))]
        c = Cyclotomic(vec, n)
        want = []
        for k, q in enumerate(entries(c)):
            if q:
                text = "z" if k else ""
                want.append(str(q) if k == 0 else text if q == 1 else "-" + text if q == -1
                            else f"{q}*{text}")
        assert _basis_pieces(c.num, c.den, lambda k: "z") == want


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", 1j, None])
def test_only_ints_and_fractions_are_coefficients(bad):
    with pytest.raises(TypeError):
        Cyclotomic([bad])
    with pytest.raises(TypeError):
        Cyclotomic([1, bad], 3)
    with pytest.raises(TypeError):
        Cyclotomic.from_rational(bad)
    with pytest.raises(TypeError):
        root_of_unity(3, 1) + bad


# -- the least conductor against Galois invariance ------------------------------


def fixed_field_holds(c, m):
    """Whether c lies in Q(zeta_m), m | C: fixed by every automorphism
    z -> z^a of Q(zeta_C) with a = 1 mod m, by brute force."""
    n = c.conductor
    return all(_spread(c.num, a, n) == c.num for a in range(1, n, m) if gcd(a, n) == 1)


LEAST_CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 15, 18, 20, 24, 30, 36, 45, 60, 84]


@st.composite
def subfield_values(draw):
    """A value of Q(zeta_m) stored at a multiple C of m, plus, at times, one
    more root of unity of order C."""
    n = draw(st.sampled_from(LEAST_CONDUCTORS))
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    c = Cyclotomic(draw(st.lists(q, min_size=euler_phi(m), max_size=euler_phi(m))), m).lift(n)
    if draw(st.booleans()):
        c = c + root_of_unity(n, draw(st.integers(0, n - 1)))
    return c


@settings(max_examples=300, deadline=None)
@given(subfield_values())
@example(root_of_unity(6, 1))
@example(root_of_unity(120, 15) * 12)
@example(root_of_unity(30, 6) + root_of_unity(24, 6))
@example(root_of_unity(2, 1).lift(84))
def test_least_conductor_is_the_least_field_galois_fixes(c):
    n = c.conductor
    least = c.least()
    want = min(m for m in range(1, n + 1) if n % m == 0 and fixed_field_holds(c, m))
    assert least.conductor == want
    assert least == c
    # the stored form there: integers over the same denominator, in lowest terms
    canonical = Cyclotomic(entries(least), want)
    assert (least.num, least.den) == (canonical.num, canonical.den) and least.den == c.den
    assert least.least().conductor == want


def test_an_lcm_of_conductors_past_the_bound_is_refused_before_any_lift():
    assert _conductor([MAX_CONDUCTOR, 256]) == MAX_CONDUCTOR
    assert _conductor([]) == 1
    with pytest.raises(GradedError, match=f"conductor {MAX_CONDUCTOR + 1} is above the bound"):
        _conductor([MAX_CONDUCTOR + 1])
    a, b = root_of_unity(4093, 1), root_of_unity(4091, 1)
    for op in (a.__mul__, a.__add__):
        with pytest.raises(GradedError, match="conductor 16744463 is above the bound 65536"):
            op(b)
    assert (a * root_of_unity(16, 1)).conductor == 65488  # 0.05 s


def test_equality_past_the_bound_answers_by_least_forms():
    """Equal values share their least conductor and vector there, so values
    whose conductors' lcm passes the bound compare without a lift."""
    a, b = root_of_unity(257, 1), root_of_unity(263, 1)  # lcm 67,591
    assert not a == b and a != b
    assert root_of_unity(4093, 1) != root_of_unity(4091, 1)
    assert root_of_unity(3, 1) == root_of_unity(6, 2) and root_of_unity(3, 1) != root_of_unity(6, 1)
    assert a.lift(514) == a and -a.lift(514) != a
