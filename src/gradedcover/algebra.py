"""Graded supercommutative function algebras.

Functions are Grassmann polynomials with exact cyclotomic coefficients
(integers over one positive denominator), optionally divided by a nonzero
polynomial in the commuting variables (``SuperRational``).  Denominators free
of anticommuting content make every function canonicalizable, so equality is
decidable by cross-multiplication and no gcd machinery is needed.

Over a ``GradedSignature`` every variable carries a weight (a character
of the grading group) and the group acts by rescaling each variable with
the value of its weight.  ``SuperRational.decompose`` splits a function
into weight-homogeneous components; ``decompose_oracle`` computes the
same split by literal group averaging and exists as an independent
cross-check of the production algorithm.

A monomial's weight is its residue tuple, one dot product per cyclic factor
(``_residues``); a ``Character`` is built once per distinct weight asked for.

Products run on packed polynomials (d, {key: int}) at one conductor N over
one denominator d: each key packs a monomial times z^i, z = zeta_N, so a
product of two entries is one integer addition of keys and one product of
ints, through one codec per layout (variable count, byte-wide fields, z's
field among them) that keeps its unpacked monomials in a bounded cache.
``_packed_product`` is the one kernel: ``_mul_terms`` packs both operands
at the lcm of their conductors, multiplies them and unpacks the product,
each coefficient reduced modulo Phi_N once and taking one gcd;
``_substitute`` (``substitute`` and ``compose``) packs each image once,
evaluates whole functions on packed values, reducing each product, and
unpacks each result once; so does the norm of ``decompose``, and so does
``evaluate_even``, which substitutes an exact point and embeds only the
result.  Coefficients print by value, so where one is stored never shows.
``SuperPolynomial.__mul__`` scales by a scalar, returns the other operand
for a factor equal to the constant 1 at conductor 1, and sends every other
product, one term by one term too, through ``_mul_terms``.

``decompose`` norms an inhomogeneous denominator D over its orbit, through
prime-index subgroups from the stabilizer of D up (``_orbit_tower``), on
the exponents of zeta_N that the group gives D's monomial weights: no group
element is built.  Each prime step multiplies its twists in integers by
Kronecker substitution (``_cofactor``), whatever the coefficients, on D
packed once; the invariant D*C is unpacked once.  ``_components`` multiplies
each numerator, packed once, by the packed cofactors and splits the product
as it unpacks it, so the images of a lifted transition norm a shared D once
and share its invariant form, and the transitions of a lifted atlas, over
coverings of one weight layout, share each norm and each numerator's weight
split, relabelled.

Signatures, polynomials and quotients are ``_Frozen`` (see ``cyclotomic``):
signatures are equal and hash alike when type and fields agree, so a plain
one never equals a graded one; polynomials and quotients compare by value.
"""

from __future__ import annotations

import cmath
import functools
import re
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import add, mul
from typing import Mapping, NamedTuple, Sequence, Union

from .cyclotomic import (MAX_CONDUCTOR, Cyclotomic, _conductor, _Division, _Frozen, _power,
                         _prime_factors, _reduce, _reducer, _Ring, root_of_unity)
from .errors import NormSizeError, NotInvertibleError, SignatureMismatchError, _quoted
from .groups import Character, FiniteAbelianGroup, GroupElement, ParityMap

Scalar = Union[int, Fraction, Cyclotomic]

EVEN = 0
ODD = 1

_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"  # a variable name up to its weight suffix
# a name that reads back as itself: a weight suffix as ``_Residues.__str__`` writes it
_VARIABLE_NAME = re.compile(
    rf"{_IDENTIFIER}(?:@\((?:(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*)?\))?")


class SuperSignature(_Frozen):
    """Named coordinates of a superdomain: commuting and anticommuting."""

    __slots__ = ("even", "odd")

    def __init__(self, even: Sequence[str] = (), odd: Sequence[str] = ()):
        if isinstance(even, str) or isinstance(odd, str):  # "x1" would declare x and 1
            raise ValueError(f"even and odd must be sequences of names, got {even!r}, {odd!r}")
        even, odd = tuple(even), tuple(odd)
        names = even + odd
        for name in names:  # each reads back as itself, where "i" and "zeta" are numbers
            if type(name) is not str or name in ("i", "zeta") or not _VARIABLE_NAME.fullmatch(name):
                raise ValueError(f"variable name {_quoted(str(name))} is not an identifier "
                                 f"other than i and zeta, with an optional suffix @(k1,...,kt)")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)

    def parity_of_var(self, name: str) -> int:
        if name in self.even:
            return EVEN
        if name in self.odd:
            return ODD
        raise KeyError(name)

    def __repr__(self):
        return f"SuperSignature(even={list(self.even)}, odd={list(self.odd)})"


class GradedSignature(SuperSignature):
    """A superdomain signature whose variables carry character weights.

    Commuting variables must have even-parity weights and anticommuting
    variables odd-parity ones, so the Grassmann parity of a monomial and
    the parity of its weight always agree.
    """

    __slots__ = ("group", "parity", "even_weights", "odd_weights", "weight_rows")

    def __init__(
        self,
        group: FiniteAbelianGroup,
        parity: ParityMap,
        even: Sequence[tuple[str, Character]] = (),
        odd: Sequence[tuple[str, Character]] = (),
    ):
        if parity.group != group:
            raise ValueError("parity map belongs to a different group")
        if isinstance(even, str) or isinstance(odd, str):
            raise ValueError(f"even and odd must be sequences of pairs, got {even!r}, {odd!r}")
        even, odd = tuple(even), tuple(odd)
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
        # per cyclic factor: its order and the variables' residues there
        object.__setattr__(self, "weight_rows", tuple(
            (q, tuple(w.residues[t] for _, w in even), tuple(w.residues[t] for _, w in odd))
            for t, q in enumerate(group.factors)
        ))

    def weight_of_var(self, name: str) -> Character:
        if name in self.even:
            return self.even_weights[self.even.index(name)]
        if name in self.odd:
            return self.odd_weights[self.odd.index(name)]
        raise KeyError(name)

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


def _graded(sig: SuperSignature) -> GradedSignature:
    """``sig``, which weights, the group action and decomposition need graded."""
    if not isinstance(sig, GradedSignature):
        raise TypeError("this operation requires a graded signature")
    return sig


def _residues(sig: GradedSignature, mono: SuperMonomial) -> tuple[int, ...]:
    """A monomial's weight as residues: one dot product per cyclic factor, in
    exact ints, as exponents are unbounded."""
    even, odd = mono
    out = []
    for q, even_row, odd_row in sig.weight_rows:
        r = sum(map(mul, even, even_row))
        if odd:
            r += sum(map(odd_row.__getitem__, odd))
        out.append(r % q)
    return tuple(out)


def _odd_sign(ma: int, mb: int) -> int:
    """Reordering sign of two odd index bitmasks; 0 when they share an index."""
    if ma & mb:
        return 0
    flips = 0
    while mb:
        low = mb & -mb
        # the index of b at ``low`` jumps over the indices of a above it
        flips += (ma >> low.bit_length()).bit_count()
        mb ^= low
    return -1 if flips & 1 else 1


_MEMO_BOUND = 8192  # entries in each bounded cache: a codec's monomials, the odd index tuples


@functools.lru_cache(maxsize=_MEMO_BOUND)
def _odd_indices(mask: int) -> tuple[int, ...]:
    """The ascending odd indices of a bitmask, one tuple per mask."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


class _Codec:
    """Monomials times powers of z = zeta_n packed into int keys, and keys
    unpacked through a per-codec ``functools.lru_cache``, which holds the codec
    in a cycle: the cycle collector frees both once ``_codec_of`` drops them.

    Even exponent i occupies bits [i*w, (i+1)*w), z's exponent the next field
    (from ``zshift``), and the odd index set is a bitmask above them (from
    ``shift``).  While no field carries, and for disjoint masks, the key of a
    product term is the sum of the keys.  Packing is not memoized: hashing a
    monomial costs as much as packing it.  Unpacked monomials share odd tuples
    by mask.
    """

    __slots__ = ("width", "zshift", "shift", "field", "shifts", "unpack")

    def __init__(self, n_even: int, width: int):
        self.width, self.zshift, self.field = width, n_even * width, (1 << width) - 1
        self.shift = self.zshift + width
        self.shifts = [i * width for i in range(n_even)]
        self.unpack = functools.lru_cache(maxsize=_MEMO_BOUND)(self._unpack)

    def pack(self, m: SuperMonomial) -> int:
        """The key of a monomial times z^0; ``key >> shift`` is its odd mask."""
        key = sum(1 << j for j in m.odd) << self.width
        for e in reversed(m.even):
            key = key << self.width | e
        return key

    def _unpack(self, key: int) -> SuperMonomial:
        """The monomial of a key whose z field is 0 (``unpack`` caches it)."""
        mask, field = key >> self.shift, self.field
        return SuperMonomial(tuple([key >> s & field for s in self.shifts]), _odd_indices(mask))


def _codec(n_even: int, top: int) -> _Codec:
    """The codec of ``n_even`` fields and z's that hold exponents up to
    ``top``, rounded up to whole bytes, so that products over one signature
    mostly share one codec and its cache; the 16 layouts last used keep theirs."""
    return _codec_of(n_even, -(-top.bit_length() // 8) * 8)


_codec_of = functools.lru_cache(maxsize=16)(_Codec)


def _odd_rows(keys_a, items_b, shift: int) -> dict:
    """Per distinct odd mask of ``keys_a``: ``(key, value)`` for the terms of b,
    ``items_b`` re-iterable, whose product with it survives, in b's order, the
    value negated where reordering the odd factors flips the sign.  The empty
    mask commutes with every term and takes ``items_b`` as they are; any other
    takes one ``_odd_sign`` per distinct mask of b."""
    rows, masks = {0: items_b}, [kb >> shift for kb, _ in items_b]
    for ma in {ka >> shift for ka in keys_a} - {0}:
        signs = {mb: _odd_sign(ma, mb) for mb in set(masks)}
        rows[ma] = [(kb, y if s > 0 else -y)
                    for (kb, y), mb in zip(items_b, masks) if (s := signs[mb])]
    return rows


def _accumulate(out: dict, items) -> dict:
    """Add each (key, c) into ``out``, dropping a key whose running sum is zero."""
    for key, c in items:
        acc = out.get(key)
        s = c if acc is None else acc + c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


# A packed polynomial is (d, {key: int}), each key a codec's monomial times
# z^i, z = zeta_n: a monomial's coefficient is the sum of value*z^i over its
# keys, over d.  Reduced, each i < phi(n) and no value is zero.


def _entries(c: Cyclotomic, n: int) -> tuple[int, ...]:
    """c's integers at conductor n, a multiple of its conductor, or its one
    entry when it is rational."""
    return c.lift(n).num if n % c.conductor == 0 else c.num[:1]


def _pack(terms: Terms, n: int, codec: _Codec) -> tuple[int, dict]:
    """The packed form of ``terms`` at conductor n over d = lcm(dens); its
    gcd with every value is 1, as each coefficient is in lowest terms."""
    d = lcm(*(c.den for c in terms.values()))
    pack = codec.pack
    if n == 1:
        return d, {pack(m): c.num[0] * (d // c.den) for m, c in terms.items()}
    zshift = codec.zshift
    return d, {key + (i << zshift): x * s
               for m, c in terms.items() for key, s in ((pack(m), d // c.den),)
               for i, x in enumerate(_entries(c, n)) if x}


def _packed_product(a: tuple[int, dict], b: tuple[int, dict], shift: int) -> tuple[int, dict]:
    """a times b on packed polynomials, ``shift`` the codec's: each output
    key sums its products over da*db, unreduced, zeros kept, no gcd taken."""
    (da, ta), (db, tb) = a, b
    rows = _odd_rows(ta, tb.items(), shift)
    acc = {}
    for ka, x in ta.items():
        for kb, y in rows[ka >> shift]:
            key = ka + kb
            acc[key] = acc.get(key, 0) + x * y
    return da * db, acc


def _reductions(t: dict, n: int, codec: _Codec):
    """(monomial key, values modulo Phi_n) per monomial of ``t``, in
    first-seen order: its values grouped by z's exponent and reduced once,
    and only then a monomial whose reduction is zero dropped."""
    zshift, field, phi, vecs = codec.zshift, codec.field, _reducer(n)[0], {}
    for key, v in t.items():
        i = key >> zshift & field
        vec = vecs.get(base := key ^ i << zshift)
        if vec is None:
            vec = vecs[base] = [0] * phi
        if i >= len(vec):
            vec += [0] * (i + 1 - len(vec))
        vec[i] = v
    return ((key, r) for key, vec in vecs.items() if any(r := _reduce(vec, n)))


def _reduced(d: int, t: dict, n: int, codec: _Codec) -> tuple[int, dict]:
    """(d, t) reduced modulo Phi_n (``_reductions``), packed again and canonical."""
    if n == 1:
        return _canonical((d, {key: v for key, v in t.items() if v}))
    zshift = codec.zshift
    return _canonical((d, {key | i << zshift: x
                           for key, r in _reductions(t, n, codec) for i, x in enumerate(r) if x}))


def _unpacked(packed: tuple[int, dict], n: int, codec: _Codec) -> Terms:
    """Terms of a packed polynomial, reduced modulo Phi_n (``_reductions``)
    and each coefficient at n in lowest terms by one gcd."""
    d, t = packed
    unpack, lowest = codec.unpack, Cyclotomic._lowest
    if n == 1:
        return {unpack(key): lowest((v,), d, 1) for key, v in t.items() if v}
    return {unpack(key): lowest(r, d, n) for key, r in _reductions(t, n, codec)}


def _times(a: tuple[int, dict], b: tuple[int, dict], n: int, codec: _Codec) -> tuple[int, dict]:
    """a times b on packed polynomials at conductor n, reduced and canonical."""
    return _reduced(*_packed_product(a, b, codec.shift), n, codec)


def _mul_terms(a: Terms, b: Terms) -> Terms:
    """a times b in integers: both are packed once at Q(zeta_n), n the lcm of
    their coefficients' conductors, in a codec whose even fields hold the sum
    of their largest exponents and z's two exponents below phi(n), multiplied
    by ``_packed_product`` and unpacked, so each coefficient takes one
    reduction and one gcd.  A zero operand gives {}."""
    if not a or not b:
        return {}
    n = _conductor(c.conductor for t in (a, b) for c in t.values())
    top = sum(max((e for m in t for e in m.even), default=0) for t in (a, b))
    codec = _codec(len(next(iter(a)).even), max(top, 2 * (_reducer(n)[0] - 1)))
    product = _packed_product(_pack(a, n, codec), _pack(b, n, codec), codec.shift)
    return _unpacked(product, n, codec)


def _is_one(terms: Terms) -> bool:
    """True for exactly the constant 1 at conductor 1."""
    if len(terms) != 1:
        return False
    ((mono, c),) = terms.items()
    return c.conductor == 1 and c.num[0] == 1 and c.den == 1 and not mono.odd and not any(mono.even)


def _as_coefficient(value: Scalar) -> Cyclotomic:
    return value if isinstance(value, Cyclotomic) else Cyclotomic.from_rational(value)


class SuperPolynomial(_Frozen, _Ring):
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
        unit = SuperMonomial((0,) * len(signature.even), ())
        return cls._raw(signature, {} if c.is_zero() else {unit: c})

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

    def _coerce(self, other) -> "SuperPolynomial | None":
        if isinstance(other, SuperPolynomial):
            return other
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return SuperPolynomial.constant(self.signature, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check_signature(rhs)
        out = _accumulate(dict(self.terms), rhs.terms.items())
        return SuperPolynomial._raw(self.signature, out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial._raw(
            self.signature, {m: -c for m, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            # each coefficient at its own conductor, where _mul_terms lifts all to their lcm
            c = _as_coefficient(other)
            return SuperPolynomial._raw(
                self.signature, {} if c.is_zero() else {m: v * c for m, v in self.terms.items()}
            )
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check_signature(other)
        if _is_one(other.terms):
            return self
        if _is_one(self.terms):
            return other
        return SuperPolynomial._raw(self.signature, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        return _power(self, exponent, SuperPolynomial.one(self.signature))

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.signature == rhs.signature and self.terms == rhs.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        """True for exactly the constant 1 at conductor 1."""
        return _is_one(self.terms)

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

    def termwise_weight(self) -> Character | None:
        """The common weight of all monomials, or None if they disagree."""
        sig = _graded(self.signature)
        residues = (_residues(sig, m) for m in self.terms)
        first = next(residues, None)
        if first is None or any(r != first for r in residues):
            return None
        return Character(sig.group, first)

    def act(self, g: GroupElement) -> "SuperPolynomial":
        """Rescale every variable by the value of its weight at g."""
        sig = _graded(self.signature)
        if g.group != sig.group:
            raise SignatureMismatchError("element belongs to a different group")
        # weight residues r take the value zeta_n^(sum_t r_t*g_t*n/q_t) at g
        n = sig.group.exponent
        steps = [x * (n // q) for x, q in zip(g.residues, sig.group.factors)]
        return SuperPolynomial._raw(sig, {
            m: c * root_of_unity(n, sum(map(mul, _residues(sig, m), steps)))
            for m, c in self.terms.items()
        })


class SuperRational(_Frozen, _Division):
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
        self._set(numerator, denominator)

    def _set(self, num: SuperPolynomial, den: SuperPolynomial):
        const = den.as_constant()
        if const is not None and const != 1:
            # fold constant denominators into the coefficients
            num, den = num * const.inverse(), SuperPolynomial.one(num.signature)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _of(cls, num: SuperPolynomial, den: SuperPolynomial) -> "SuperRational":
        """num/den from arithmetic on valid functions, which keeps den even,
        non-zero and over num's signature: only a constant den is folded."""
        self = object.__new__(cls)
        self._set(num, den)
        return self

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
        poly = self.numerator._coerce(other)
        return None if poly is None else SuperRational(poly)

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.denominator == rhs.denominator:
            return SuperRational._of(self.numerator + rhs.numerator, self.denominator)
        return SuperRational._of(
            self.numerator * rhs.denominator + rhs.numerator * self.denominator,
            self.denominator * rhs.denominator,
        )

    __radd__ = __add__

    def __neg__(self):
        return SuperRational._of(-self.numerator, self.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return SuperRational._of(self.numerator * other, self.denominator)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return SuperRational._of(
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

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.invert() ** (-exponent)
        return SuperRational._of(self.numerator**exponent, self.denominator**exponent)

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
        # Horner: sum_{k<=m} (-n)^k E^(m-k) over E^(m+1), where (-n)^(m+1) = 0;
        # each extra anticommuting variable can extend m by 1.
        minus_nil = SuperPolynomial._raw(  # E - N, the odd terms of N negated
            num.signature, {m: -c for m, c in num.terms.items() if m.odd})
        one = SuperPolynomial.one(num.signature)
        series, den, power = SuperPolynomial.zero(num.signature), one, one
        while power:
            series = series * even + power
            den, power = den * even, power * minus_nil
        return SuperRational._of(self.denominator * series, den)

    # -- grading ------------------------------------------------------------

    def act(self, g: GroupElement) -> "SuperRational":
        """The group action, an automorphism of the function algebra."""
        return SuperRational(self.numerator.act(g), self.denominator.act(g))

    def grassmann_parity(self) -> int | None:
        if self.is_zero():
            return None
        return self.numerator.grassmann_parity()

    def _normed(self) -> tuple[tuple, SuperPolynomial]:
        """The norm of the denominator D, packed cofactors and D*C (``_orbit_tower``)."""
        return _orbit_tower(_graded(self.signature), self.denominator)

    def weight(self) -> Character | None:
        """The one key of ``decompose``, None when inhomogeneous."""
        if self.is_zero():
            raise ValueError("the zero function has no weight")
        parts = self.decompose()
        return next(iter(parts)) if len(parts) == 1 else None

    def decompose(self) -> dict[Character, "SuperRational"]:
        """Split into homogeneous components; zero components are omitted.

        The denominator is normed to a group-invariant polynomial and the
        numerator times its cofactors split termwise by monomial weight, which
        is exact and avoids summing rational functions; a denominator of weight
        d needs no norming, and numerator monomials of weight w give the
        component of weight w/d.  ``_components`` does it.
        """
        _graded(self.signature)
        return _components([self])[0]

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
        used = _used_names(sig, (self.numerator, self.denominator))
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

        return _substitute([self], images, target)[0]

    def restrict_to_base(self) -> "SuperRational":
        """Set all anticommuting and all non-identity-weight variables to zero."""
        sig = _graded(self.signature)
        even = [i if w.is_identity() else None for i, w in enumerate(sig.even_weights)]
        odd = [None] * len(sig.odd)
        den = restrict_terms(self.denominator, sig, even, odd)
        if den.is_zero():
            raise ZeroDivisionError(
                "denominator vanishes identically on the base domain"
            )
        return SuperRational(restrict_terms(self.numerator, sig, even, odd), den)

    def evaluate_even(
        self, point: Mapping[str, complex], *, tol: float = 1e-12
    ) -> dict[tuple[str, ...], complex]:
        """The complex coefficient of each anticommuting monomial, keyed by
        its variables' names, at a point of the commuting variables; a
        monomial whose value is 0 has no key.  Exact up to that embedding: a
        coordinate that is an int, Fraction or Cyclotomic is read as it is,
        any other through ``complex()`` as a Gaussian rational at conductor 4
        (one with an imaginary part needs lcm(N, 4) <= ``MAX_CONDUCTOR``, N
        the coefficients' conductor, or raises the conductor ``GradedError``),
        and numerator and denominator are substituted by ``_substitute``, the
        odd variables kept as symbols.  A denominator whose value is 0, or
        embeds within ``tol`` of 0, raises ``ZeroDivisionError``; a
        coefficient past the float range raises ``ValueError``, naming its
        monomial and the decimal digits of its exact integer part."""
        sig = self.signature
        target = SuperSignature(odd=sig.odd)
        images = {v: SuperRational.variable(target, v) for v in sig.odd}
        used = _used_names(sig, (self.numerator, self.denominator))
        for v in (v for v in sig.even if v in used):
            if v not in point:
                raise ValueError(f"no value given for variable {v!r}")
            x = point[v]
            if not isinstance(x, (int, Fraction, Cyclotomic)):
                if not cmath.isfinite(z := complex(x)):
                    raise ValueError(f"the value of variable {v!r} is not finite: {z}")
                re, im = Fraction(z.real), Fraction(z.imag)
                x = Cyclotomic((re, im), 4) if im else re
            images[v] = SuperRational.constant(target, x)
        fs = SuperRational(self.numerator), SuperRational(self.denominator)
        num, den = _substitute(fs, images, target)
        value = den.numerator.as_constant()  # D is even: a constant, None for 0
        shown = 0j if value is None else _embedded(value)
        if value is None or shown is not None and abs(shown) <= tol:  # None: past floats
            raise ZeroDivisionError(f"denominator too close to zero: |{shown}| <= {tol}")
        out = {}
        for mono, c in num.numerator.terms.items():
            key, q = tuple(sig.odd[j] for j in mono.odd), c / value
            out[key] = _embedded(q)
            if out[key] is None:
                size = max(map(abs, q.num)) // q.den
                digits = size.bit_length() * 30103 // 100000 + 1  # exact, or one too many
                digits -= 10 ** (digits - 1) > size
                raise ValueError(f"the coefficient of {'*'.join(key) or '1'} is past the float "
                                 f"range: its exact integer part has {digits:,} decimal digits")
        return out


def _embedded(c: Cyclotomic) -> complex | None:
    """c's ``embed``, or None where that passes the float range."""
    try:
        z = c.embed()
    except OverflowError:
        return None
    return z if cmath.isfinite(z) else None


def _components(
    fs: Sequence[SuperRational], seen: list | None = None
) -> list[dict[Character, SuperRational]]:
    """``decompose`` of each of ``fs``, functions over one graded signature:
    the one homogeneity rule, which ``weight`` and ``GradedMorphism`` read.

    D, or ``_normed``'s packed cofactors and D*C if D is not termwise
    homogeneous, is taken once per distinct D, and the ``_split`` of a
    numerator times them (``_cofactored``) once per numerator over D, in this
    call or in all that share ``seen`` (one ``lift_atlas``).  D matches by
    identity, then by layout (group, parity, ordered weights) and equal terms,
    a numerator by its monomial tuple, then equal terms.  No name is read and
    packed keys are positional, so a match over another signature of one
    layout is relabelled, sharing the immutable ``terms``; the components of
    the functions sharing D share one denominator, weighed and printed once.
    """
    seen = [] if seen is None else seen  # [(D, layout, split, {monomials: [(terms, parts)]})]
    entries: dict[int, tuple] = {}  # id(D) -> its entry in ``seen``; ``fs`` hold the D's
    splits: dict[int, tuple] = {}  # id(entry) -> its split over fs' signature
    out = []
    for f in fs:
        if not f:  # a zero f has no components
            out.append({})
            continue
        sig, den, num = f.signature, f.denominator, f.numerator.terms
        if id(den) not in entries:
            layout = sig.group, sig.parity, sig.even_weights, sig.odd_weights
            entry = next((e for e in seen if e[0] is den
                          or e[1] == layout and e[0].terms == den.terms), None)
            if entry is None:  # (packed tower or None, a termwise homogeneous D', 1/weight(D'))
                d = den.termwise_weight()
                split = (*f._normed(), None) if d is None else (
                    None, den, None if d.is_identity() else d.inverse())
                seen.append(entry := (den, layout, split, {}))
            entries[id(den)] = entry
            if id(entry) not in splits:
                tower, normed, shift = entry[2]
                if normed.signature is not sig:  # renamed, sharing the terms
                    normed = SuperPolynomial._raw(sig, normed.terms)
                splits[id(entry)] = tower, normed, shift
        tower, normed, shift = splits[id(entry := entries[id(den)])]
        same = entry[3].setdefault(tuple(num), [])
        parts = next((p for t, p in same if t == num), None)
        if parts is None:
            parts = _split(sig, num if tower is None else _cofactored(tower, num), shift)
            same.append((num, parts))
        elif parts[0][1].signature is not sig:
            parts = [(chi, SuperPolynomial._raw(sig, p.terms)) for chi, p in parts]
        out.append({chi: SuperRational._of(p, normed) for chi, p in parts})
    return out


def _split(sig: GradedSignature, terms: Terms, shift: Character | None) -> list[tuple]:
    """(weight times ``shift``, polynomial) per monomial weight of ``terms``, in lex order."""
    buckets: dict[tuple[int, ...], Terms] = {}
    for mono, c in terms.items():
        buckets.setdefault(_residues(sig, mono), {})[mono] = c
    parts = [(Character(sig.group, r), t) for r, t in buckets.items()]
    if shift is not None:
        parts = [(chi * shift, t) for chi, t in parts]
    parts.sort(key=lambda ct: ct[0].residues)
    return [(chi, SuperPolynomial._raw(sig, t)) for chi, t in parts]


def _cofactored(tower: tuple, num: Terms) -> Terms:
    """N*c_1*...*c_r, N packed at m, the lcm of n and its conductor, the product
    unpacked; the cofactors packed again where m != n > 1 or the fields are short."""
    n, codec, top, cofactors = tower
    m = _conductor([n, *(c.conductor for c in num.values() if not c.is_rational())])
    need = max(top + max((e for mono in num for e in mono.even), default=0),
               2 * (_reducer(m)[0] - 1))  # z: a product of two values reduced at m
    wide = codec if need < 1 << codec.width else _codec(len(codec.shifts), need)
    if wide is not codec or n not in (1, m):  # rare: unpacked and packed again
        cofactors = [_pack(_unpacked(c, n, codec), m, wide) for c in cofactors]
    acc = _pack(num, m, wide)
    for c in cofactors[:-1]:
        acc = _times(acc, c, m, wide)
    return _unpacked(_packed_product(acc, cofactors[-1], wide.shift), m, wide)


# Predicted monomials of a norm D*C, the fewer of the monomials of its degree and
# the multisets of its twists' terms: lifted P^1/Z_12 has 1,352,078, Z_13 5,200,300 (README).
MAX_NORM_MONOMIALS = 4_000_000


def _orbit_tower(sig: GradedSignature, den: SuperPolynomial) -> tuple[tuple, SuperPolynomial]:
    """((n, codec, top, [c_1, ..., c_r]), P_r = D*C), C = c_1*...*c_r the product
    of the distinct group twists of D, one per coset of its stabilizer S.  D*C
    is the orbit product of D, which the group permutes: invariant, termwise of
    identity weight, so over it N*C is homogeneous exactly where it is termwise.
    The tower climbs prime-index subgroups S = K_0 < ... < G, one ``_cofactor``
    per step, rational or not, and skips no step whose partial product is
    already invariant: that may have a larger stabilizer than D.

    The group acts on D only through h(g), the exponents of zeta_n (n the
    group exponent) that g gives the distinct monomial weights of D; a weight
    of residues r takes zeta_n^(r_t*n/q_t) at the t-th unit e_t of Z_(q_t).
    K_0 = Stab(D) is the kernel of h, so every K of the tower contains it and
    is known by h(K), from {0} up.  Each step adds g = e_t^k of prime order p
    modulo K, peeled off e_t's order modulo K (the least k with
    k*h(e_t) in h(K); those k are a subgroup of Z holding n, so the least
    divides n and only divisors are tried), larger primes first, and h(K)
    gains the p multiples of h(g).  Before any product, D*C, the product of
    s = |h(G)| twists of D's t terms, is refused where both the monomials of
    degree s*deg D in D's variables and the multisets of s of the t terms
    pass ``MAX_NORM_MONOMIALS``.  P = P_(i-1) is K-invariant, so chi_m(g) =
    zeta_p^j_m on each monomial m of P, j_m read off m's residues too; c_i is
    ``_cofactor`` of the j_m and P_i = P*c_i, packed at the conductor of D's
    irrational coefficients in one codec whose fields hold s*e, e D's largest
    exponent, and each unreduced z exponent; ``top`` = (s - 1)*e is what the
    cofactors add to a numerator's exponents (``_cofactored`` widens for it).
    """
    n = sig.group.exponent
    steps = [n // q for q in sig.group.factors]  # residue r at Z_q is zeta_n^(r*n/q)
    weights = dict.fromkeys(tuple(map(mul, _residues(sig, m), steps)) for m in den.terms)
    hk = {(0,) * len(weights)}  # h(K)
    plan = []  # (p, t, k) per step: g = e_t^order, k = step * order
    for p in reversed(_prime_factors(n)):
        for t, step in enumerate(steps):
            col = [w[t] for w in weights]  # h(e_t)
            order = next(k for k in range(1, n + 1)
                         if n % k == 0 and tuple(k * x % n for x in col) in hk)
            while order % p == 0:
                order //= p
                h = [order * x % n for x in col]
                hk = {tuple((u + i * x) % n for u, x in zip(v, h)) for v in hk for i in range(p)}
                plan.append((p, t, step * order))
    orbit, exps = len(hk), [m.even for m in den.terms]
    degree, used, terms = max(map(sum, exps)), max(1, sum(map(any, zip(*exps)))), len(exps)
    size = min(comb(orbit * degree + used - 1, used - 1), comb(orbit + terms - 1, terms - 1))
    if size > MAX_NORM_MONOMIALS:
        shown = f"{size:,}" if size.bit_length() < 64 else f"over 2^{size.bit_length() - 1}"
        raise NormSizeError(
            f"norming the denominator: {orbit} twists of {terms} terms of degree {degree} in "
            f"{used} variables predict {shown} monomials, above the bound {MAX_NORM_MONOMIALS:,}")
    cond = _conductor(c.conductor for c in den.terms.values() if not c.is_rational())
    top = (orbit - 1) * (high := max((e for m in exps for e in m), default=0))
    z = max([2, *(p - 1 for p, _, _ in plan)]) * (_reducer(cond)[0] - 1)
    codec = _codec(len(sig.even), max(top + high, z))
    packed, unpack, low = _pack(den.terms, cond, codec), codec.unpack, (1 << codec.zshift) - 1
    cofactors = []
    for p, t, k in plan:
        j = {m: _residues(sig, unpack(m))[t] * k % n * p // n for m in {key & low for key in packed[1]}}
        cofactors.append(_cofactor(packed, j, p, cond, codec))
        packed = _times(packed, cofactors[-1], cond, codec)
    return (cond, codec, top, cofactors), SuperPolynomial._raw(sig, _unpacked(packed, cond, codec))


def _cofactor(packed: tuple[int, dict], j: dict, p: int, n: int, codec: _Codec) -> tuple[int, dict]:
    """C = prod_(k=1..p-1) sum_m zeta_p^(j_m*k) c_m*m, reduced and canonical, for
    P = sum_m c_m*m even, both packed at conductor n in ``codec``, ``j`` giving
    j_m by m's key.  With c_m = a_m(z)/d, d the packed denominator and a_m the
    integer polynomial in z = zeta_n of m's entries, take zeta_p as a separate
    symbol s.  The Galois group of Q(zeta_p) fixes z and permutes the twists,
    so d^(p-1)*C is free of s over Z[z]: its coefficient at a monomial and z^i
    is an integer, a sum of products of p - 1 entries of the a_m times roots
    of unity, so at most L^(p-1) in size, L the sum of all |entries|.  With
    t = 2L + 1, s -> t is a ring map Z[z][s]/Phi_p(s) -> (Z/M)[z] for
    M = Phi_p(t) >= t^(p-1) > 2*L^(p-1) (Kronecker substitution): the twists
    of P, multiplied by ``_packed_product`` modulo M, z's exponent in its own
    field of the keys, leave each such coefficient as its symmetric residue.
    M need not be prime.  The bound holds only while z is left unreduced, so
    the product is reduced modulo Phi_n once, at the end.
    """
    d, terms = packed
    low = (1 << codec.zshift) - 1  # P is even: a key below z's field is its monomial's
    if p == 2:  # the one twist: zeta_2 = -1 flips the sign of each m with j_m = 1
        return d, {key: -a if j[key & low] else a for key, a in terms.items()}
    t = 2 * sum(map(abs, terms.values())) + 1
    modulus = (t ** p - 1) // (t - 1)
    powers, half = [t ** i for i in range(p)], modulus // 2
    acc = {0: 1}
    for k in range(1, p):
        twist = 1, {key: a * powers[j[key & low] * k % p] for key, a in terms.items()}
        _, out = _packed_product((1, acc), twist, codec.shift)
        acc = {key: r for key, v in out.items() if (r := v % modulus)}
    signed = {key: r - modulus if r > half else r for key, r in acc.items()}
    return _reduced(d ** (p - 1), signed, n, codec)


def restrict_terms(
    poly: SuperPolynomial,
    signature: SuperSignature,
    even: Sequence[int | None],
    odd: Sequence[int | None],
) -> SuperPolynomial:
    """Set the variables mapped to None to zero, and rename the rest to
    the ``signature`` indices ``even``/``odd`` give them: distinct, and
    increasing on the odd ones, so no coefficient or sign changes."""
    kept = {}
    for m, c in poly.terms.items():
        if any(e and even[i] is None for i, e in enumerate(m.even)) or any(
            odd[j] is None for j in m.odd
        ):
            continue
        exps = [0] * len(signature.even)
        for i, e in enumerate(m.even):
            if e:
                exps[even[i]] = e
        kept[SuperMonomial(tuple(exps), tuple(odd[j] for j in m.odd))] = c
    return SuperPolynomial._raw(signature, kept)


def _canonical(packed: tuple[int, dict]) -> tuple[int, dict]:
    """The packed polynomial with the gcd of d and all its values divided
    out: equal values are then equal forms."""
    d, t = packed
    if d != 1:
        g = gcd(d, *t.values())
        if g != 1:
            return d // g, {k: v // g for k, v in t.items()}
    return packed


def _packed_sum(a: tuple[int, dict], b: tuple[int, dict]) -> tuple[int, dict]:
    """a + b on packed polynomials over lcm(da, db), canonical."""
    (da, ta), (db, tb) = a, b
    d = lcm(da, db)
    sa, sb = d // da, d // db
    out = {k: v * sa for k, v in ta.items()}
    for k, v in tb.items():
        out[k] = out.get(k, 0) + v * sb
    return _canonical((d, {k: v for k, v in out.items() if v}))


def _used_names(sig: SuperSignature, polys: Sequence[SuperPolynomial]) -> set[str]:
    """The names of the variables that occur in ``polys``, polynomials over ``sig``."""
    monos = [m for p in polys for m in p.terms]
    names = {sig.even[i] for m in monos for i, e in enumerate(m.even) if e}
    names.update(sig.odd[j] for m in monos for j in m.odd)
    return names


def _substitute(
    fs: Sequence[SuperRational], images: Mapping[str, SuperRational], target: SuperSignature
) -> list[SuperRational]:
    """Each of ``fs``, functions over one signature, at the images over ``target``.

    Each image is packed once, at one conductor n (the lcm of the irrational coefficients'
    conductors in ``fs`` and the images) and in one codec whose fields hold every exponent
    reached: a sum of k terms cross-multiplies at most k term denominators, so no value
    passes the sum over a polynomial's terms of sum_v e_v*top(v), top(v) the largest
    exponent in v's image, nor a product of an f's values the sum of its numerator's and
    denominator's; z's field holds 2*(phi(n) - 1), which an unreduced product of two reduced
    values may reach.  Each numerator and denominator of ``fs`` is evaluated on canonical
    packed (numerator, denominator) pairs as ``SuperRational`` arithmetic does termwise: a
    term is its coefficient times the cached image powers, in variable order, then its odd
    images; a sum adds numerators over equal denominators and cross-multiplies unequal
    ones.  Each product is reduced modulo Phi_n.  f is N's value times the inverse of D's
    value Dn/Dd, which is Dd/Dn where both are 1 or even and not constant (``swaps``), so f
    is (Nn*Dd)/(Nd*Dn), each part unpacked once; else ``invert``.  A polynomial shared by
    object is packed once, and each D evaluated and inverted once per distinct terms; the fs
    over it whose N values have equal denominators Nd (equal packed forms, as both are
    canonical) share one Nd*Dn, multiplied and unpacked once, Dn itself where Nd is 1.
    """
    if not fs:
        return []
    sig = fs[0].signature
    polys = [p for f in fs for p in (f.numerator, f.denominator)]
    inner = {v: (images[v].numerator, images[v].denominator) for v in _used_names(sig, polys)}
    top = {v: max((e for p in pair for m in p.terms for e in m.even), default=0)
           for v, pair in inner.items()}
    tops = [top.get(v, 0) for v in sig.even + sig.odd]
    reaches = [sum(sum(map(mul, m.even, tops)) + sum(tops[len(m.even) + j] for j in m.odd)
                   for m in p.terms) for p in polys]  # each f's numerator, then denominator
    reach = max(map(add, reaches[::2], reaches[1::2]))  # the tail's Nn*Dd and Nd*Dn
    n = lcm(*(c.conductor for p in chain(polys, *inner.values()) for c in p.terms.values()
              if not c.is_rational()))
    if n > MAX_CONDUCTOR and len(fs) > 1:  # past the bound, each f alone may need less
        return [g for f in fs for g in _substitute([f], images, target)]
    n = _conductor([n])
    codec = _codec(len(target.even), max(reach, 2 * (_reducer(n)[0] - 1)))
    one, zero, zshift = (1, {0: 1}), (1, {}), codec.zshift
    unit = SuperPolynomial.one(target)
    packed: dict[int, tuple] = {}  # by id; ``fs`` and the images hold the objects
    powers: dict[tuple[str, int], tuple] = {}

    def times(a, b):
        if not a[1] or not b[1]:
            return zero
        if a == one or b == one:
            return b if a == one else a
        return _times(a, b, n, codec)

    def power(v, e):  # v's image to the e, as (numerator, denominator)
        if (v, e) not in powers:
            if e == 1:
                for p in inner[v]:
                    if id(p) not in packed:
                        packed[id(p)] = _pack(p.terms, n, codec)
                powers[v, e] = tuple(packed[id(p)] for p in inner[v])
            else:
                half = power(v, e // 2)
                powers[v, e] = tuple(map(times, half, half))
                if e % 2:
                    powers[v, e] = tuple(map(times, powers[v, e], power(v, 1)))
        return powers[v, e]

    def evaluate(p):  # p at the images, as a packed (numerator, denominator)
        total = zero, one
        for mono, c in p.terms.items():
            term = (c.den, {i << zshift: x for i, x in enumerate(_entries(c, n)) if x}), one
            for i, e in enumerate(mono.even):
                if e:
                    term = tuple(map(times, term, power(sig.even[i], e)))
            for j in mono.odd:
                term = tuple(map(times, term, power(sig.odd[j], 1)))
            (na, da), (nb, db) = total, term
            if da == db:
                total = _packed_sum(na, nb), da
            else:
                total = _packed_sum(times(na, db), times(nb, da)), times(da, db)
        return total

    def unpacked(x):
        return unit if x == one else SuperPolynomial._raw(target, _unpacked(x, n, codec))

    def swaps(x):  # 1, or even and not constant: 1/x is x swapped, with no series and no fold
        return x == one or any(k % (1 << zshift) for k in x[1]) and max(x[1]) >> codec.shift == 0

    # per distinct D: (D, Dd, Dn, D's inverse where it does not swap, else [(Nd, Nd*Dn unpacked)])
    inverses: list[tuple] = []
    out = []
    for f in fs:
        den = f.denominator
        entry = next((e for e in inverses if e[0] is den or e[0].terms == den.terms), None)
        if entry is None:
            dn, dd = evaluate(den)
            inverse = [(one, unpacked(dn))] if swaps(dn) and swaps(dd) else \
                SuperRational._of(unpacked(dn), unpacked(dd)).invert()
            inverses.append(entry := (den, dd, dn, inverse))
        (nn, nd), (_, dd, dn, inverse) = evaluate(f.numerator), entry
        if isinstance(inverse, SuperRational):
            out.append(SuperRational._of(unpacked(nn), unpacked(nd)) * inverse)
            continue
        # a value's denominator is 1 or not constant, so nothing folds
        shared = next((p for v, p in inverse if v == nd), None)
        if shared is None:
            inverse.append((nd, shared := unpacked(times(nd, dn))))
        out.append(SuperRational._of(unpacked(times(nn, dd)), shared))
    return out


def decompose_oracle(f: SuperRational) -> dict[Character, SuperRational]:
    """Homogeneous components by literal group averaging.

    Computes (1/|G|) * sum_g chi(g) * (g^-1 . f) for every character chi,
    as a sum of rational functions.  Slower than ``decompose`` but shares
    none of its machinery, so the two act as mutual checks.
    """
    sig = _graded(f.signature)
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
