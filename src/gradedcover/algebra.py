"""Graded supercommutative function algebras.

Functions are Grassmann polynomials with exact cyclotomic coefficients,
optionally divided by a nonzero polynomial in the commuting variables
(``SuperRational``).  Keeping denominators free of anticommuting content
makes every function canonicalizable, so equality is decidable by
cross-multiplication and no gcd machinery is needed.

Over a ``GradedSignature`` every variable carries a weight (a character
of the grading group) and the group acts by rescaling each variable with
the value of its weight.  ``SuperRational.decompose`` splits a function
into weight-homogeneous components; ``decompose_oracle`` computes the
same split by literal group averaging and exists as an independent
cross-check of the production algorithm.

When every coefficient product of two polynomials lands in one field
Q(zeta_N), their product accumulates integer convolutions per output
monomial and reduces modulo Phi_N once per monomial; otherwise it runs
one Cyclotomic multiply-add per pair of terms.  Either way a coefficient's
conductor is the lcm of the products summed into it since its running
sum last cancelled to zero, exactly as the termwise loop computes it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Sequence, Union

from .cyclotomic import Cyclotomic, _reduce, euler_phi
from .errors import NotInvertibleError, SignatureMismatchError
from .groups import Character, FiniteAbelianGroup, GroupElement, ParityMap

Scalar = Union[int, Fraction, Cyclotomic]

EVEN = 0
ODD = 1


class SuperSignature:
    """Named coordinates of a superdomain: commuting and anticommuting."""

    __slots__ = ("even", "odd")

    def __init__(self, even: Sequence[str] = (), odd: Sequence[str] = ()):
        even = tuple(even)
        odd = tuple(odd)
        names = even + odd
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)

    def __setattr__(self, name, value):
        raise AttributeError("signatures are immutable")

    def parity_of_var(self, name: str) -> int:
        if name in self.even:
            return EVEN
        if name in self.odd:
            return ODD
        raise KeyError(name)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.even == other.even
            and self.odd == other.odd
        )

    def __hash__(self):
        return hash((type(self).__name__, self.even, self.odd))

    def __repr__(self):
        return f"SuperSignature(even={list(self.even)}, odd={list(self.odd)})"


class GradedSignature(SuperSignature):
    """A superdomain signature whose variables carry character weights.

    Commuting variables must have even-parity weights and anticommuting
    variables odd-parity ones, so the Grassmann parity of a monomial and
    the parity of its weight always agree.
    """

    __slots__ = ("group", "parity", "even_weights", "odd_weights")

    def __init__(
        self,
        group: FiniteAbelianGroup,
        parity: ParityMap,
        even: Sequence[tuple[str, Character]] = (),
        odd: Sequence[tuple[str, Character]] = (),
    ):
        if parity.group != group:
            raise ValueError("parity map belongs to a different group")
        even = tuple(even)
        odd = tuple(odd)
        super().__init__(tuple(n for n, _ in even), tuple(n for n, _ in odd))
        for name, w in even + odd:
            if w.group != group:
                raise ValueError(f"weight of {name!r} belongs to a different group")
        for name, w in even:
            if parity(w) != EVEN:
                raise ValueError(
                    f"commuting variable {name!r} has odd-parity weight {w}"
                )
        for name, w in odd:
            if parity(w) != ODD:
                raise ValueError(
                    f"anticommuting variable {name!r} has even-parity weight {w}"
                )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "even_weights", tuple(w for _, w in even))
        object.__setattr__(self, "odd_weights", tuple(w for _, w in odd))

    def weight_of_var(self, name: str) -> Character:
        if name in self.even:
            return self.even_weights[self.even.index(name)]
        if name in self.odd:
            return self.odd_weights[self.odd.index(name)]
        raise KeyError(name)

    def dimension_vector(self) -> dict[Character, int]:
        """Number of variables per weight."""
        dims: dict[Character, int] = {}
        for w in self.even_weights + self.odd_weights:
            dims[w] = dims.get(w, 0) + 1
        return dims

    def __eq__(self, other):
        return (
            type(other) is GradedSignature
            and self.group == other.group
            and self.parity == other.parity
            and self.even == other.even
            and self.odd == other.odd
            and self.even_weights == other.even_weights
            and self.odd_weights == other.odd_weights
        )

    def __hash__(self):
        return hash(
            ("GradedSignature", self.group, self.even, self.odd, self.even_weights, self.odd_weights)
        )

    def __repr__(self):
        ev = [f"{n}:{w}" for n, w in zip(self.even, self.even_weights)]
        od = [f"{n}:{w}" for n, w in zip(self.odd, self.odd_weights)]
        return f"GradedSignature(group={self.group}, even={ev}, odd={od})"


class SuperMonomial(NamedTuple):
    """Exponents over the commuting variables plus a set of anticommuting ones.

    ``odd`` is a strictly increasing index tuple; reordering signs are
    absorbed into coefficients during multiplication.
    """

    even: tuple[int, ...]
    odd: tuple[int, ...]

    def degree(self) -> int:
        return sum(self.even) + len(self.odd)

    def sort_key(self):
        # graded-lex on the commuting exponents, then the odd index set
        return (sum(self.even), self.even, len(self.odd), self.odd)


Terms = dict[SuperMonomial, Cyclotomic]


def _merge_odd(a: tuple[int, ...], b: tuple[int, ...]):
    """Interleave two ascending index tuples; returns (sign, merged) or None."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i factors of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def _product_monomial(m1: SuperMonomial, m2: SuperMonomial):
    """(sign, m1*m2), or None when a repeated anticommuting factor kills it."""
    merged = _merge_odd(m1.odd, m2.odd)
    if merged is None:
        return None
    sign, odd = merged
    return sign, SuperMonomial(tuple(a + b for a, b in zip(m1.even, m2.even)), odd)


def _product_conductor(a: Terms, b: Terms) -> int | None:
    """The conductor N shared by every coefficient product of a*b, else None."""
    right = {c.conductor for c in b.values()}
    found = {lcm(x, y) for x in {c.conductor for c in a.values()} for y in right}
    return found.pop() if len(found) == 1 else None


def _mul_terms_termwise(a: Terms, b: Terms) -> Terms:
    """Product terms by one Cyclotomic multiply-add per pair of terms.

    A coefficient's conductor is the lcm of the products summed into it
    since its running sum last cancelled to zero.
    """
    out: Terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            product = _product_monomial(m1, m2)
            if product is None:
                continue
            sign, mono = product
            c = c1 * c2
            if sign < 0:
                c = -c
            acc = out.get(mono)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def _integer_terms(terms: Terms, n: int) -> tuple[int, list]:
    """Coefficients lifted to conductor n: (denominator d, [(mono, ints)]).

    Each coefficient equals its integer vector over the power basis
    divided by the one common denominator d.
    """
    lifted = [
        (m, c.coeffs if c.conductor == n else c.lift(n).coeffs)
        for m, c in terms.items()
    ]
    d = lcm(*(x.denominator for _, v in lifted for x in v))
    return d, [(m, [x.numerator * (d // x.denominator) for x in v]) for m, v in lifted]


def _mul_terms_integer(a: Terms, b: Terms, n: int) -> Terms:
    """Product terms when every coefficient product lands in Q(zeta_n).

    Sums the unreduced integer convolutions of each output monomial and
    reduces modulo Phi_n (monic, integral) once per monomial; the terms
    equal those of ``_mul_terms_termwise``, conductors included.
    """
    da, va = _integer_terms(a, n)
    db, vb = _integer_terms(b, n)
    acc: dict = {}
    if n == 1:
        for m1, (x,) in va:
            for m2, (y,) in vb:
                product = _product_monomial(m1, m2)
                if product is not None:
                    sign, mono = product
                    acc[mono] = acc.get(mono, 0) + sign * x * y
    else:
        width = 2 * euler_phi(n) - 1
        for m1, x in va:
            neg_x = [-t for t in x]
            for m2, y in vb:
                product = _product_monomial(m1, m2)
                if product is None:
                    continue
                sign, mono = product
                vec = acc.get(mono)
                if vec is None:
                    vec = acc[mono] = [0] * width
                for i, xi in enumerate(x if sign > 0 else neg_x):
                    if xi:
                        for j, yj in enumerate(y):
                            vec[i + j] += xi * yj
    den = da * db
    out: Terms = {}
    for mono, v in acc.items():
        reduced = (v,) if n == 1 else _reduce(v, n)
        if any(reduced):
            out[mono] = Cyclotomic._raw(tuple(Fraction(c, den) for c in reduced), n)
    return out


def _as_coefficient(value: Scalar) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.from_rational(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class SuperPolynomial:
    """A Grassmann polynomial over a signature, in canonical form.

    ``terms`` maps monomials to nonzero cyclotomic coefficients; the zero
    polynomial has no terms.
    """

    __slots__ = ("signature", "terms")

    def __init__(
        self,
        signature: SuperSignature,
        terms: Mapping[SuperMonomial, Scalar] | None = None,
    ):
        clean: dict[SuperMonomial, Cyclotomic] = {}
        n_even, n_odd = len(signature.even), len(signature.odd)
        for mono, coeff in (terms or {}).items():
            if len(mono.even) != n_even:
                raise ValueError(f"monomial {mono} has wrong even arity")
            if any(e < 0 for e in mono.even):
                raise ValueError(f"negative exponent in monomial {mono}")
            if list(mono.odd) != sorted(set(mono.odd)) or any(
                j < 0 or j >= n_odd for j in mono.odd
            ):
                raise ValueError(f"monomial {mono} has invalid odd indices")
            c = _as_coefficient(coeff)
            if not c.is_zero():
                clean[mono] = c
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @classmethod
    def _raw(cls, signature, terms):
        self = object.__new__(cls)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, signature: SuperSignature) -> "SuperPolynomial":
        return cls._raw(signature, {})

    @classmethod
    def constant(cls, signature: SuperSignature, value: Scalar) -> "SuperPolynomial":
        c = _as_coefficient(value)
        if c.is_zero():
            return cls.zero(signature)
        unit = SuperMonomial((0,) * len(signature.even), ())
        return cls._raw(signature, {unit: c})

    @classmethod
    def one(cls, signature: SuperSignature) -> "SuperPolynomial":
        return cls.constant(signature, 1)

    @classmethod
    def variable(cls, signature: SuperSignature, name: str) -> "SuperPolynomial":
        n_even = len(signature.even)
        if name in signature.even:
            i = signature.even.index(name)
            mono = SuperMonomial(tuple(1 if k == i else 0 for k in range(n_even)), ())
        elif name in signature.odd:
            mono = SuperMonomial((0,) * n_even, (signature.odd.index(name),))
        else:
            raise KeyError(f"unknown variable {name!r}")
        return cls._raw(signature, {mono: Cyclotomic.from_rational(1)})

    # -- ring structure ---------------------------------------------------

    def _check_signature(self, other: "SuperPolynomial"):
        if self.signature != other.signature:
            raise SignatureMismatchError("polynomials live over different signatures")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = SuperPolynomial.constant(self.signature, other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check_signature(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
        return SuperPolynomial._raw(self.signature, out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial._raw(
            self.signature, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = SuperPolynomial.constant(self.signature, other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            c = _as_coefficient(other)
            if c.is_zero():
                return SuperPolynomial.zero(self.signature)
            return SuperPolynomial._raw(
                self.signature, {m: v * c for m, v in self.terms.items()}
            )
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check_signature(other)
        n = _product_conductor(self.terms, other.terms)
        if n is None:
            out = _mul_terms_termwise(self.terms, other.terms)
        else:
            out = _mul_terms_integer(self.terms, other.terms, n)
        return SuperPolynomial._raw(self.signature, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = SuperPolynomial.one(self.signature)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = SuperPolynomial.constant(self.signature, other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.signature == other.signature and self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"SuperPolynomial({len(self.terms)} terms over {self.signature!r})"

    # -- structure queries -------------------------------------------------

    def has_odd_content(self) -> bool:
        return any(m.odd for m in self.terms)

    def as_constant(self) -> Cyclotomic | None:
        """The coefficient when this is a nonzero constant, else None."""
        if len(self.terms) != 1:
            return None
        mono, coeff = next(iter(self.terms.items()))
        return coeff if mono.degree() == 0 else None

    def even_part(self) -> "SuperPolynomial":
        """Terms with no anticommuting factors."""
        return SuperPolynomial._raw(
            self.signature, {m: c for m, c in self.terms.items() if not m.odd}
        )

    def grassmann_parity(self) -> int | None:
        """0 or 1 when all terms agree, None for mixed parity."""
        seen = {len(m.odd) % 2 for m in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None

    def monomial_weight(self, mono: SuperMonomial) -> Character:
        sig = self.signature
        if not isinstance(sig, GradedSignature):
            raise TypeError("weights require a graded signature")
        factors = sig.group.factors
        acc = [0] * len(factors)
        for i, e in enumerate(mono.even):
            if e:
                for t, r in enumerate(sig.even_weights[i].residues):
                    acc[t] += e * r
        for j in mono.odd:
            for t, r in enumerate(sig.odd_weights[j].residues):
                acc[t] += r
        return Character(sig.group, tuple(a % q for a, q in zip(acc, factors)))

    def termwise_weight(self) -> Character | None:
        """The common weight of all monomials, or None if they disagree."""
        weight: Character | None = None
        for mono in self.terms:
            w = self.monomial_weight(mono)
            if weight is None:
                weight = w
            elif w != weight:
                return None
        return weight

    def weight_components(self) -> dict[Character, "SuperPolynomial"]:
        """Split termwise by monomial weight; keys in lex residue order."""
        buckets: dict[Character, dict[SuperMonomial, Cyclotomic]] = {}
        for mono, c in self.terms.items():
            buckets.setdefault(self.monomial_weight(mono), {})[mono] = c
        return {
            chi: SuperPolynomial._raw(self.signature, buckets[chi])
            for chi in sorted(buckets, key=lambda ch: ch.residues)
        }

    def act(self, g: GroupElement) -> "SuperPolynomial":
        """Rescale every variable by the value of its weight at g."""
        sig = self.signature
        if not isinstance(sig, GradedSignature):
            raise TypeError("group actions require a graded signature")
        if g.group != sig.group:
            raise SignatureMismatchError("element belongs to a different group")
        return SuperPolynomial._raw(
            sig,
            {m: c * self.monomial_weight(m)(g) for m, c in self.terms.items()},
        )

    def sorted_terms(self) -> list[tuple[SuperMonomial, Cyclotomic]]:
        """Terms in the canonical output order, leading monomial first."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)


class SuperRational:
    """A Grassmann polynomial divided by a nonzero even polynomial.

    The denominator never contains anticommuting variables, so equality is
    exact cross-multiplication: N1/D1 = N2/D2 iff N1*D2 = N2*D1.  No gcd
    normalization is attempted.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: SuperPolynomial, denominator: SuperPolynomial | None = None):
        if denominator is None:
            denominator = SuperPolynomial.one(numerator.signature)
        if numerator.signature != denominator.signature:
            raise SignatureMismatchError(
                "numerator and denominator live over different signatures"
            )
        if denominator.has_odd_content():
            raise ValueError("denominators must be free of anticommuting variables")
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        const = denominator.as_constant()
        if const is not None and const != 1:
            # fold constant denominators into the coefficients
            numerator = numerator * const.inverse()
            denominator = SuperPolynomial.one(numerator.signature)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("superfunctions are immutable")

    @property
    def signature(self) -> SuperSignature:
        return self.numerator.signature

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, signature: SuperSignature) -> "SuperRational":
        return cls(SuperPolynomial.zero(signature))

    @classmethod
    def one(cls, signature: SuperSignature) -> "SuperRational":
        return cls(SuperPolynomial.one(signature))

    @classmethod
    def constant(cls, signature: SuperSignature, value: Scalar) -> "SuperRational":
        return cls(SuperPolynomial.constant(signature, value))

    @classmethod
    def variable(cls, signature: SuperSignature, name: str) -> "SuperRational":
        return cls(SuperPolynomial.variable(signature, name))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "SuperRational | None":
        if isinstance(other, SuperRational):
            return other
        if isinstance(other, SuperPolynomial):
            return SuperRational(other)
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return SuperRational.constant(self.signature, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.denominator == rhs.denominator:
            return SuperRational(self.numerator + rhs.numerator, self.denominator)
        return SuperRational(
            self.numerator * rhs.denominator + rhs.numerator * self.denominator,
            self.denominator * rhs.denominator,
        )

    __radd__ = __add__

    def __neg__(self):
        return SuperRational(-self.numerator, self.denominator)

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
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return SuperRational(self.numerator * other, self.denominator)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return SuperRational(
            self.numerator * rhs.numerator, self.denominator * rhs.denominator
        )

    def __rmul__(self, other):
        # other * self: odd factors anticommute, so only scalars may swap
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self * other
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs * self

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.invert()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.invert()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.invert() ** (-exponent)
        return SuperRational(self.numerator**exponent, self.denominator**exponent)

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.signature != rhs.signature:
            return False
        if self.denominator == rhs.denominator:
            # shared denominator cancels: multiplication by a nonzero even
            # polynomial is injective
            return self.numerator == rhs.numerator
        return self.numerator * rhs.denominator == rhs.numerator * self.denominator

    __hash__ = None

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"SuperRational({self.numerator!r} / {self.denominator!r})"

    def invert(self) -> "SuperRational":
        """Multiplicative inverse via the nilpotent geometric series.

        Writing the numerator as N = E + n with E its even-variable part
        and n the (nilpotent) rest, 1/N = (1/E) * sum_k (-n/E)^k, truncated
        once a power of n vanishes.
        """
        num = self.numerator
        even = num.even_part()
        if even.is_zero():
            raise NotInvertibleError(
                "even part of the numerator is zero; the function is not invertible"
            )
        nil = num - even
        # sum_{k<=m} (-1)^k n^k E^(m-k) over denominator E^(m+1), where
        # n^(m+1) = 0; each extra anticommuting variable can extend m by 1.
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
        return SuperRational(self.denominator * series, even * partial[m])

    # -- grading ------------------------------------------------------------

    def _graded_signature(self) -> GradedSignature:
        sig = self.signature
        if not isinstance(sig, GradedSignature):
            raise TypeError("this operation requires a graded signature")
        return sig

    def act(self, g: GroupElement) -> "SuperRational":
        """The group action, an automorphism of the function algebra."""
        return SuperRational(self.numerator.act(g), self.denominator.act(g))

    def grassmann_parity(self) -> int | None:
        if self.is_zero():
            return None
        return self.numerator.grassmann_parity()

    def _normed(self) -> tuple[SuperPolynomial, SuperPolynomial]:
        """Rewrite over a group-invariant denominator.

        Multiplying numerator and denominator by the distinct group twists
        of D makes the denominator the orbit product of D, which the group
        permutes, i.e. an invariant polynomial, termwise of identity
        weight.  Homogeneity is then a termwise property of the numerator.
        """
        sig = self._graded_signature()
        distinct = [self.denominator]
        for g in sig.group.elements():
            if g.is_identity():
                continue
            twisted = self.denominator.act(g)
            if not any(twisted == seen for seen in distinct):
                distinct.append(twisted)
        num, den = self.numerator, self.denominator
        for twisted in distinct[1:]:
            num = num * twisted
            den = den * twisted
        return num, den

    def weight(self) -> Character | None:
        """The weight when homogeneous, None when inhomogeneous."""
        if self.is_zero():
            raise ValueError("the zero function has no weight")
        sig = self._graded_signature()
        den_weight = self.denominator.termwise_weight()
        if den_weight is not None:
            num_weight = self.numerator.termwise_weight()
            if num_weight is None:
                return None
            return num_weight * den_weight.inverse()
        num, _ = self._normed()
        return num.termwise_weight()

    def is_homogeneous(self, chi: Character) -> bool:
        if self.is_zero():
            return True
        return self.weight() == chi

    def decompose(self) -> dict[Character, "SuperRational"]:
        """Split into homogeneous components; zero components are omitted.

        The denominator is normed to a group-invariant polynomial and the
        numerator is then projected termwise by monomial weight, which is
        exact and avoids summing rational functions.  A denominator that is
        already homogeneous of weight d needs no norming: the monomials of
        weight w in the numerator contribute the component of weight w/d.
        """
        self._graded_signature()
        if self.is_zero():
            return {}
        den_weight = self.denominator.termwise_weight()
        if den_weight is not None:
            shift = den_weight.inverse()
            parts = {
                chi * shift: SuperRational(part, self.denominator)
                for chi, part in self.numerator.weight_components().items()
            }
            return {chi: parts[chi] for chi in sorted(parts, key=lambda c: c.residues)}
        num, den = self._normed()
        return {
            chi: SuperRational(part, den)
            for chi, part in num.weight_components().items()
        }

    def substitute(
        self,
        images: Mapping[str, "SuperRational"],
        *,
        signature: SuperSignature | None = None,
    ) -> "SuperRational":
        """Algebra homomorphism replacing every occurring variable.

        Each image must match the parity of its variable; the images fix
        the signature of the result.
        """
        target = signature
        for img in images.values():
            if target is None:
                target = img.signature
            elif img.signature != target:
                raise SignatureMismatchError("images live over different signatures")
        if target is None:
            raise ValueError("no images given and no target signature specified")

        sig = self.signature
        used: set[str] = set()
        for poly in (self.numerator, self.denominator):
            for mono in poly.terms:
                used.update(
                    sig.even[i] for i, e in enumerate(mono.even) if e
                )
                used.update(sig.odd[j] for j in mono.odd)
        missing = sorted(used - set(images))
        if missing:
            raise ValueError(f"missing images for variables: {', '.join(missing)}")
        for name in sorted(used):
            want = sig.parity_of_var(name)
            have = images[name].grassmann_parity()
            ok = images[name].is_zero() or have == want
            if not ok:
                raise ValueError(
                    f"image of {name!r} must have parity {want}, found {have}"
                )

        num = _substitute_poly(self.numerator, images, target)
        den = _substitute_poly(self.denominator, images, target)
        return num * den.invert()

    def restrict_to_base(self) -> "SuperRational":
        """Set all anticommuting and all non-identity-weight variables to zero."""
        sig = self._graded_signature()
        base_even = tuple(
            i for i, w in enumerate(sig.even_weights) if w.is_identity()
        )

        def restrict(poly: SuperPolynomial) -> SuperPolynomial:
            kept = {
                m: c
                for m, c in poly.terms.items()
                if not m.odd
                and all(e == 0 or i in base_even for i, e in enumerate(m.even))
            }
            return SuperPolynomial._raw(sig, kept)

        den = restrict(self.denominator)
        if den.is_zero():
            raise ZeroDivisionError(
                "denominator vanishes identically on the base domain"
            )
        return SuperRational(restrict(self.numerator), den)

    def evaluate_even(
        self, point: Mapping[str, complex], *, tol: float = 1e-12
    ) -> dict[tuple[str, ...], complex]:
        """Numeric value at a point of the commuting variables.

        Returns the complex coefficient of each anticommuting monomial,
        keyed by the tuple of its variable names.
        """
        sig = self.signature
        den = 0j
        for mono, c in self.denominator.terms.items():
            den += c.embed() * _even_value(sig, mono, point)
        if abs(den) <= tol:
            raise ZeroDivisionError(f"denominator too close to zero: |{den}| <= {tol}")
        out: dict[tuple[str, ...], complex] = {}
        for mono, c in self.numerator.terms.items():
            key = tuple(sig.odd[j] for j in mono.odd)
            out[key] = out.get(key, 0j) + c.embed() * _even_value(sig, mono, point)
        return {key: val / den for key, val in out.items()}


def _even_value(sig: SuperSignature, mono: SuperMonomial, point: Mapping[str, complex]) -> complex:
    val = 1 + 0j
    for i, e in enumerate(mono.even):
        if e:
            try:
                val *= complex(point[sig.even[i]]) ** e
            except KeyError:
                raise ValueError(f"no value given for variable {sig.even[i]!r}") from None
    return val


def _substitute_poly(
    poly: SuperPolynomial,
    images: Mapping[str, SuperRational],
    target: SuperSignature,
) -> SuperRational:
    sig = poly.signature
    total = SuperRational.zero(target)
    for mono, c in poly.terms.items():
        term = SuperRational.constant(target, c)
        for i, e in enumerate(mono.even):
            if e:
                term = term * images[sig.even[i]] ** e
        for j in mono.odd:
            term = term * images[sig.odd[j]]
        total = total + term
    return total


def decompose_oracle(f: SuperRational) -> dict[Character, SuperRational]:
    """Homogeneous components by literal group averaging.

    Computes (1/|G|) * sum_g chi(g) * (g^-1 . f) for every character chi,
    as a sum of rational functions.  Slower than ``decompose`` but shares
    none of its machinery, so the two act as mutual checks.
    """
    sig = f.signature
    if not isinstance(sig, GradedSignature):
        raise TypeError("decomposition requires a graded signature")
    group = sig.group
    scale = Fraction(1, group.order)
    out: dict[Character, SuperRational] = {}
    for chi in group.characters():
        total = SuperRational.zero(sig)
        for g in group.elements():
            total = total + f.act(g.inverse()) * chi(g)
        component = total * scale
        if not component.is_zero():
            out[chi] = component
    return out
