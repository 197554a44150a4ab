"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is its residue modulo the N-th cyclotomic polynomial Phi_N over
the power basis 1, z, ..., z^(phi(N)-1), z = zeta_N, stored as FLINT's
fmpq_poly is: phi(N) integers ``num`` over one positive ``den``, in lowest
terms, zero as zeros over 1.  Phi_N is monic, so reduction stays integral,
and irreducible, so the form is canonical: equality compares (num, den).

Values with different conductors interoperate by lifting both operands
into Q(zeta_lcm) first, an lcm of at most ``MAX_CONDUCTOR``, except that a
rational factor (conductor 1) scales the other operand's vector without a
lift.  ``least`` descends the other way, one prime at a time, to the least
conductor of a value, which printing uses when the group's field does not
hold it, and equality when the conductors differ.

A root zeta_N^k is z^(k mod N) reduced modulo Phi_N, an integer vector
over 1: one reduction per root, no table of all N.  Phi_N, the lower terms
``_reduce`` takes from it, and each root are ``functools.cache``d, unbounded,
by N and by (N, k mod N), past the public functions' argument checks.
``_reduce`` takes and returns ints, padding with int 0.  ``inverse`` runs
Euclid on (Phi_N, num) over Z with ``cyclotomic_polynomial``'s pseudo-division:
each dividend is scaled once, so every step divides exactly, and each remainder
is divided by its content, so no Fraction is built and no common factor grows.

``_Frozen``, the base of ``Cyclotomic``, signatures, polynomials, quotients
and morphisms (the group types are frozen dataclasses), refuses assignment,
compares and hashes by type and slots, and copies and pickles by its slots
without running a checked constructor again.  Values take ``-`` and truth
from the slot-free mixin ``_Ring``, and ``/`` by their power -1 from ``_Division``.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, sub
from typing import Iterable, Sequence, Union

from .errors import GradedError

Rational = Union[int, Fraction]

MAX_CONDUCTOR = 65536  # zeta(251,1)*zeta(257,1), at 64,507, takes about 0.3 s on a 2-core VM


class _Frozen:
    """An immutable value whose state is the tuple of its two or more slots,
    base class first; types with value equality override ``__eq__`` and set
    ``__hash__ = None``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for c in reversed(cls.__mro__) for f in vars(c).get("__slots__", ()))
        cls._state = property(attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._state == other._state)

    def __hash__(self):
        return hash((type(self), self._state))

    def __reduce__(self):
        return _restore, (type(self), self._state)


class _Ring:
    """``-`` and truth from ``_coerce``, ``+``, unary ``-`` and ``is_zero``."""

    __slots__ = ()

    def __sub__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self + (-rhs)

    def __rsub__(self, other):
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else lhs + (-self)

    def __bool__(self):
        return not self.is_zero()


class _Division(_Ring):
    """``/`` from ``_coerce``, ``*`` and the power -1."""

    __slots__ = ()

    def __truediv__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self * rhs**-1

    def __rtruediv__(self, other):
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else lhs * self**-1


def _restore(cls, state: tuple):
    """An instance of ``cls`` with its slots set to ``state``, unchecked."""
    self = object.__new__(cls)
    for field, value in zip(cls._fields, state):
        object.__setattr__(self, field, value)
    return self


def _conductor(conductors: Iterable[int]) -> int:
    """The lcm of ``conductors``, to lift values to: a ``GradedError`` past
    ``MAX_CONDUCTOR``, before any dense vector of phi(lcm) integers exists."""
    n = lcm(*conductors)
    if n > MAX_CONDUCTOR:
        raise GradedError(f"conductor {n} is above the bound {MAX_CONDUCTOR}")
    return n


def _pseudodivmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with c^k*num = q*den + r and deg r < deg den, for c the leading
    coefficient of den and k = deg num - deg den + 1 (0 if negative): num is
    scaled by c^k once, up front, so every step divides by c exactly."""
    c, top = den[-1], len(den) - 1
    k = max(len(num) - top, 0)
    scale = c**k
    rem = [x * scale for x in num]
    q = [0] * k
    for i in range(k - 1, -1, -1):
        t = rem[i + top]
        if t:
            t = q[i] = t // c
            for j, d in enumerate(den):
                rem[i + j] -= t * d
    return q, rem[:top]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError(f"conductor must be >= 1, got {n}")
    return _cyclotomic_polynomial(n)


@functools.cache
def _cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n for n >= 1: Phi_m(x^p) if p | m, else Phi_m(x^p) / Phi_m(x),
    which divides exactly, for m = n/p and p a repeated prime factor of n
    if it has one, else its largest, which keeps the division small."""
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    p = next((q for q in primes if n % (q * q) == 0), primes[-1])
    base = _cyclotomic_polynomial(n // p)
    stretched = [0] * ((len(base) - 1) * p + 1)
    stretched[::p] = base
    if n % (p * p) != 0:
        stretched = _pseudodivmod(stretched, base)[0]
    return tuple(stretched)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"conductor must be >= 1, got {n}")
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


@functools.cache
def _reducer(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), Phi_n's non-zero lower coefficients as (offset from the top, value))."""
    phi_n = cyclotomic_polynomial(n)
    deg = len(phi_n) - 1
    return deg, tuple((j - deg, d) for j, d in enumerate(phi_n[:deg]) if d)


def _reduce(coeffs: list, n: int) -> tuple:
    """Remainder of a polynomial modulo Phi_n, of length phi(n), subtracting
    only the non-zero lower coefficients of Phi_n; Phi_n is monic, so
    integers stay integers, and a short input is padded with int 0."""
    deg, lower = _reducer(n)
    work = list(coeffs)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for j, d in lower:
                work[k + j] -= c * d
    del work[deg:]
    work.extend([0] * (deg - len(work)))
    return tuple(work)


class Cyclotomic(_Frozen, _Division):
    """An exact element of Q(zeta_N): ``num``/``den`` reduced modulo Phi_N."""

    __slots__ = ("conductor", "num", "den")

    def __new__(cls, coeffs: Iterable[Rational], conductor: int = 1):
        if conductor < 1:
            raise ValueError(f"conductor must be >= 1, got {conductor}")
        vec = list(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in vec):
            raise TypeError("coefficients must be int or Fraction")
        den = lcm(*(c.denominator for c in vec))
        num = [c.numerator * (den // c.denominator) for c in vec]
        return Cyclotomic._lowest(_reduce(num, conductor), den, conductor)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rational) -> "Cyclotomic":
        # a length-1 vector is already reduced modulo Phi_1
        if isinstance(value, (int, Fraction)):
            return Cyclotomic._raw((value.numerator,), value.denominator, 1)
        raise TypeError(f"cannot use {type(value).__name__} as a rational coefficient")

    @staticmethod
    def _raw(num: tuple[int, ...], den: int, conductor: int) -> "Cyclotomic":
        """num/den in lowest terms, set past ``__setattr__`` by the slot descriptors."""
        self = _new(Cyclotomic)
        _set_conductor(self, conductor)
        _set_num(self, num)
        _set_den(self, den)
        return self

    @staticmethod
    def _lowest(num: tuple[int, ...], den: int, conductor: int) -> "Cyclotomic":
        """The value num/den at the conductor, den > 0, in lowest terms by one gcd."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num, den = tuple(x // g for x in num), den // g
        return Cyclotomic._raw(num, den, conductor)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The entries num_k/den as Fractions, built on each read."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- conductor handling -------------------------------------------

    def lift(self, conductor: int) -> "Cyclotomic":
        """Reinterpret in Q(zeta_M) for a multiple M of the conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError(f"cannot lift conductor {self.conductor} into {conductor}")
        # Z[zeta_M] meets Q(zeta_N) in Z[zeta_N] (power Z-bases): lowest terms hold
        step = conductor // self.conductor
        return Cyclotomic._raw(_spread(self.num, step, conductor), self.den, conductor)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        m = _conductor((a.conductor, b.conductor))
        return a.lift(m), b.lift(m)

    def least(self) -> "Cyclotomic":
        """The same value at its least conductor, one prime p of C at a time:
        if p^2 | C, Phi_C(z) = Phi_(C/p)(z^p), so it lies in Q(zeta_(C/p)) iff
        only indices divisible by p are non-zero, ``num[::p]`` there.  If
        C = p*m, p coprime to m, zeta_C^e = zeta_p^(e*s)*zeta_m^(e*t) for
        s = 1/m mod p, t = 1/p mod m; with T_j its part at zeta_p^j modulo
        Phi_m, it lies in Q(zeta_m) iff T_1 = ... = T_(p-1), as T_0 - T_(p-1).
        A prime that fails once fails below too; ``den`` stays, as in ``lift``."""
        num, n = self.num, self.conductor
        for p in _prime_factors(n):
            while n % p == 0:
                m = n // p
                if m % p == 0:
                    if any(num[k] for k in range(len(num)) if k % p):
                        break
                    num = num[::p]
                else:
                    s, t = pow(m, -1, p), pow(p, -1, m)
                    parts = [[0] * m for _ in range(p)]
                    for e, x in enumerate(num):
                        parts[e * s % p][e * t % m] += x
                    parts = [_reduce(part, m) for part in parts]
                    if any(part != parts[-1] for part in parts[1:-1]):
                        break
                    num = tuple(map(sub, parts[0], parts[-1]))
                n = m
        return Cyclotomic._raw(num, self.den, n)

    def _coerce(self, other) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            return other
        return Cyclotomic.from_rational(other) if isinstance(other, (int, Fraction)) else None

    # -- ring / field operations --------------------------------------

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = Cyclotomic._common(self, rhs)
        da, db = a.den, b.den
        num = tuple(x * db + y * da for x, y in zip(a.num, b.num))
        return Cyclotomic._lowest(num, da * db, a.conductor)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(tuple(-x for x in self.num), self.den, self.conductor)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.conductor == 1 or rhs.conductor == 1:
            # q times each entry is the lifted product's vector, without the lift
            a, b = (rhs, self) if self.conductor == 1 else (self, rhs)
            q = b.num[0]
            return Cyclotomic._lowest(tuple(x * q for x in a.num), a.den * b.den, a.conductor)
        a, b = Cyclotomic._common(self, rhs)
        num = _reduce(_polymul(a.num, b.num), a.conductor)
        return Cyclotomic._lowest(num, a.den * b.den, a.conductor)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse by Euclid on (Phi_N, num) over Z.  Each
        remainder r1 is made primitive and carries a cofactor s1/d1, ints over
        one positive denominator, with r1 = s1*num/d1 modulo Phi_N; deg s1 <
        phi(N), so it is only padded at the end.  Phi_N is irreducible and
        a is not 0, so gcd(num, Phi_N) = 1: the remainders end at a constant
        c = +-1, and 1/a = den/num = den*s1/(d1*c)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        n = self.conductor
        r0, s0, d0 = cyclotomic_polynomial(n), [0], 1
        r1, s1, d1 = list(self.num), [1], 1
        while True:
            while not r1[-1]:
                r1.pop()
            g = gcd(*r1)
            h = gcd(d1 * g, *s1)
            r1, s1, d1 = [x // g for x in r1], [x // h for x in s1], d1 * g // h
            if len(r1) == 1:
                return Cyclotomic._lowest(_reduce([self.den * r1[0] * x for x in s1], n), d1, n)
            # c^k*r0 = q*r1 + r, so r = (c^k*s0/d0 - q*s1/d1)*num
            q, r = _pseudodivmod(r0, r1)
            ck, s = r1[-1] ** len(q), [-d0 * y for y in _polymul(q, s1)]
            s[: len(s0)] = [x + ck * d1 * y for x, y in zip(s, s0)]
            r0, s0, d0, r1, s1, d1 = r1, s1, d1, r, s, d0 * d1

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent, Cyclotomic.from_rational(1))

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def embed(self) -> complex:
        """Numeric image under zeta_N -> exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        for x in reversed(self.num):
            acc = acc * z + x / self.den
        return acc

    def __eq__(self, other):
        if type(other) is int:  # an integer lifts to (other, 0, ..., 0) over 1
            return self.den == 1 and self.num[0] == other and not any(self.num[1:])
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = (self, rhs) if self.conductor == rhs.conductor else (self.least(), rhs.least())
        return a.conductor == b.conductor and a.num == b.num and a.den == b.den  # no lift

    __hash__ = None  # value-equal across conductors; not hashable

    def __repr__(self):
        return f"Cyclotomic(num={self.num!r}, den={self.den}, conductor={self.conductor})"

    def __str__(self):
        # Polynomial in z (z = i for conductor 4), tagged with the conductor.
        sym = "i" if self.conductor == 4 else "z"
        parts = _basis_pieces(self.num, self.den, lambda k: sym if k == 1 else f"{sym}^{k}")
        body = _join_signed(parts) if parts else "0"
        if self.conductor == 4 or self.is_rational():
            return body  # "i" needs no conductor tag
        return f"{body} (conductor={self.conductor})"


_new = object.__new__
_set_conductor, _set_num, _set_den = (Cyclotomic.__dict__[f].__set__ for f in Cyclotomic.__slots__)


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """Exact zeta_N^k, the remainder of z^(k mod N) modulo Phi_N."""
    if n < 1:
        raise ValueError(f"order of the root must be >= 1, got {n}")
    return Cyclotomic._raw(_root(n, k % n), 1, n)


@functools.cache
def _root(n: int, k: int) -> tuple[int, ...]:
    """z^k modulo Phi_n for 0 <= k < n."""
    return _reduce([0] * k + [1], n)


def _spread(num: tuple[int, ...], step: int, n: int) -> tuple[int, ...]:
    """Image of sum num_k z^k under z -> z^step, reduced modulo Phi_n."""
    out = [0] * ((len(num) - 1) * step + 1)
    out[::step] = num
    return _reduce(out, n)


def _power(base, k: int, one, check=None):
    """base ** k for k >= 0 by binary powering: ``one`` for k = 0, else from
    the first factor on; each product is passed to ``check``, if given, as
    soon as it is taken."""
    def product(x, y):
        z = x * y
        if check:
            check(z)
        return z

    result = one if k == 0 else None
    while k:
        if k & 1:
            result = base if result is None else product(result, base)
        if k > 1:
            base = product(base, base)
        k >>= 1
    return result


def _basis_pieces(num: Sequence[int], den: int, root) -> list[str]:
    """Signed pieces of sum q_k root(k) over the non-zero q_k = num_k/den, as
    str(Fraction) prints it: q at k = 0, else root(k), -root(k) or q*root(k)."""
    pieces = []
    for k, x in enumerate(num):
        if not x:
            continue
        g = gcd(x, den)
        q = str(x // g) if g == den else f"{x // g}/{den // g}"
        if k == 0:
            pieces.append(q)
        elif q == "1":
            pieces.append(root(k))
        elif q == "-1":
            pieces.append(f"-{root(k)}")
        else:
            pieces.append(f"{q}*{root(k)}")
    return pieces


def _join_signed(pieces: list[str]) -> str:
    """Signed pieces as a sum, "a", "-b" as "a - b"; no piece holds " + -", as this joins sums."""
    return " + ".join(pieces).replace(" + -", " - ")


# -- polynomial helpers for products and the inverse -----------------


def _polymul(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out
