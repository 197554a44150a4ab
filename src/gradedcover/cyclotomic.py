"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as a residue modulo the N-th cyclotomic polynomial
Phi_N, i.e. as a vector of phi(N) rational coefficients over the power
basis 1, z, ..., z^(phi(N)-1) with z = zeta_N.  Phi_N is irreducible, so
the residue is a canonical form: equality is coefficient equality and
zero-testing is exact.

Values with different conductors interoperate by lifting both operands
into Q(zeta_lcm) first.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

Rational = Union[int, Fraction]

# Filled lazily, keyed by conductor.  Concurrent first access is safe:
# every thread computes the same immutable tuple and dict item assignment
# is atomic, so a duplicated fill is idempotent.
_CYCLOTOMIC_POLY: dict[int, tuple[int, ...]] = {}
_POWER_TABLE: dict[int, tuple[tuple[Fraction, ...], ...]] = {}

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials, divisor monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for j, d in enumerate(den):
                num[k + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError(f"conductor must be >= 1, got {n}")
    cached = _CYCLOTOMIC_POLY.get(n)
    if cached is not None:
        return cached
    if n == 1:
        poly: tuple[int, ...] = (-1, 1)
    else:
        # Phi_n = (x^n - 1) / prod of Phi_d over proper divisors d of n.
        work = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                work = _divexact(work, cyclotomic_polynomial(d))
        poly = tuple(work)
    _CYCLOTOMIC_POLY[n] = poly
    return poly


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Remainder of a rational polynomial modulo Phi_n."""
    phi_n = cyclotomic_polynomial(n)
    deg = len(phi_n) - 1
    work = list(coeffs)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            work[k] = _ZERO
            for j in range(deg):
                work[k - deg + j] -= c * phi_n[j]
    work = work[:deg]
    work.extend([_ZERO] * (deg - len(work)))
    return tuple(work)


def _power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced vectors of z^0, ..., z^(n-1) modulo Phi_n."""
    cached = _POWER_TABLE.get(n)
    if cached is not None:
        return cached
    deg = euler_phi(n)
    phi_n = cyclotomic_polynomial(n)
    rows = []
    cur = [_ONE] + [_ZERO] * (deg - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        # multiply by z in place, folding the overflow back with Phi_n
        top = cur[-1]
        cur = [_ZERO] + cur[:-1]
        if top:
            cur = [c - top * phi_n[j] for j, c in enumerate(cur)]
    table = tuple(rows)
    _POWER_TABLE[n] = table
    return table


class Cyclotomic:
    """An exact element of Q(zeta_N), always reduced modulo Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, coeffs: Iterable[Rational], conductor: int = 1):
        if conductor < 1:
            raise ValueError(f"conductor must be >= 1, got {conductor}")
        vec = [Fraction(c) for c in coeffs]
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", _reduce(vec, conductor))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rational) -> "Cyclotomic":
        return cls([Fraction(value)], 1)

    @classmethod
    def _raw(cls, coeffs: tuple[Fraction, ...], conductor: int) -> "Cyclotomic":
        self = object.__new__(cls)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # -- conductor handling -------------------------------------------

    def lift(self, conductor: int) -> "Cyclotomic":
        """Reinterpret in Q(zeta_M) for a multiple M of the conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError(
                f"cannot lift conductor {self.conductor} into {conductor}"
            )
        step = conductor // self.conductor
        out = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return Cyclotomic._raw(_reduce(out, conductor), conductor)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        if a.conductor == b.conductor:
            return a, b
        m = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
        return a.lift(m), b.lift(m)

    def _coerce(self, other) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other)
        return None

    # -- ring / field operations --------------------------------------

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = Cyclotomic._common(self, rhs)
        return Cyclotomic._raw(
            tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), a.conductor
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(tuple(-x for x in self.coeffs), self.conductor)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyclotomic._raw(tuple(x * q for x in self.coeffs), self.conductor)
        a, b = Cyclotomic._common(self, rhs)
        out = [_ZERO] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return Cyclotomic._raw(_reduce(out, a.conductor), a.conductor)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse; Phi_N irreducible makes gcd(a, Phi_N) = 1."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        n = self.conductor
        # extended Euclid over Q[x] for (a, Phi_N)
        r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r1 = list(self.coeffs)
        s0: list[Fraction] = [_ZERO]
        s1: list[Fraction] = [_ONE]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv_lead = 1 / r1[0]
                return Cyclotomic._raw(
                    _reduce([c * inv_lead for c in s1], n), n
                )
            q, r = _polydivmod(r0, r1)
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
            r0, r1 = r1, r

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.from_rational(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, the Galois map z -> z^(N-1)."""
        n = self.conductor
        if n <= 2:
            return self
        out = [_ZERO] * ((len(self.coeffs) - 1) * (n - 1) + 1)
        for k, c in enumerate(self.coeffs):
            out[k * (n - 1)] = c
        return Cyclotomic._raw(_reduce(out, n), n)

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self.coeffs[0]

    def embed(self) -> complex:
        """Numeric image under zeta_N -> exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = Cyclotomic._common(self, rhs)
        return a.coeffs == b.coeffs

    __hash__ = None  # value-equal across conductors; not hashable

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Cyclotomic({list(self.coeffs)!r}, conductor={self.conductor})"

    def __str__(self):
        # Polynomial in z (z = i for conductor 4), tagged with the conductor.
        sym = "i" if self.conductor == 4 else "z"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = sym if k == 1 else f"{sym}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        body = "0" if not parts else parts[0]
        for p in parts[1:]:
            body += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        if self.conductor == 4 or self.is_rational():
            return body  # "i" needs no conductor tag
        return f"{body} (conductor={self.conductor})"


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """Exact zeta_N^k."""
    if n < 1:
        raise ValueError(f"order of the root must be >= 1, got {n}")
    return Cyclotomic._raw(_power_table(n)[k % n], n)


# -- helpers for the extended Euclid above ----------------------------


def _polydivmod(a: list[Fraction], b: list[Fraction]):
    out = [_ZERO] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        if not rem[-1]:
            rem.pop()
            continue
        shift = len(rem) - len(b)
        q = rem[-1] / b[-1]
        out[shift] = q
        for j, c in enumerate(b):
            rem[shift + j] -= q * c
        rem.pop()
    return out, rem


def _polymul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _polysub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    return out
