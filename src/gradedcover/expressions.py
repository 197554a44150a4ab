"""Expression text frontend.

Grammar (no implicit multiplication):

    expr  := term (("+" | "-") term)*
    term  := unary (("*" | "/") unary)*
    unary := "-"* atom ("^" integer)?
    atom  := "(" expr ")" | identifier | integer | "i" | "zeta(" int "," int ")"

Identifiers may carry a weight suffix, canonically ``name@(k1,...,kt)``;
the shorthand ``name@k`` is accepted for rank-one groups.
``parse_expression`` reads a text in one recursive descent that evaluates
as it reads, over a declared signature, into an exact superfunction; each
token is matched at its position when it is needed, so no token list is
built.  A character no token starts with is reported first, wherever it
is, then the first grammar error; an arithmetic failure is held while the
rest is read for syntax only, so ``1/0 )`` is an ``ExprSyntaxError``.  A
run of atoms (integers, ``i``, ``zeta(N,k)`` and identifiers, each to its
power and negated) joined by "*", or by "/" before an integer or a root,
folds into one exponent list, one odd bitmask with its sign, one
rational and one root zeta_N^k (to the e, zeta_N^(k*e mod N)), built as
one term; the factors after a value but roots fold the same way into one
product (``join``).  A polynomial is a dict of terms that only the reader
holds, a sum adds each term into its left dict in place, and any other
arithmetic goes through ``SuperRational`` (``_binary``).  A caller reading several
texts over one signature, such as the images of one morphism, may pass
them one span memo: the value of each outermost parenthesised span of at
least ``MEMO_SPAN`` (16) characters, by its text, once it is ``_bounded``,
``MEMO_PREFIX_SPANS`` (64) at most per first 16 characters.  A later text
steps over the span unread and shares its value: a sum into it takes a
copy.  Parentheses nest at most ``MAX_NESTING`` (100) deep,
``zeta(N,k)`` takes orders N up to ``DEFAULT_ORDER_BOUND`` (4096), a power
of more than one term may have at most ``MAX_POWER_SIZE`` (500)
coefficient entries (``_check_power``), and no literal, product, quotient,
power or sum may hold an integer of more than ``MAX_COEFFICIENT_DIGITS``
(4300) digits: a literal is checked as it is read, a new coefficient
``_bounded`` at its operator, a power at each product of its binary
powering.  A sum of polynomials adds at most one digit: it carries the
position of its last "+" or "-" and is ``_bounded`` once, when it is used.
A message quotes at most 40 characters of an input text (``_quoted``).
``format_expression`` renders a superfunction back in a canonical, re-parseable
form, each polynomial a template of its sorted terms filled with its names, each
coefficient over Q(zeta_N), N the exponent of a graded signature's group (1 for
a plain one), when that field holds it, else at its least conductor.
"""

from __future__ import annotations

import functools
import operator
import re
from math import comb, gcd, lcm

from .algebra import GradedSignature, SuperMonomial, SuperPolynomial, SuperRational, SuperSignature
from .algebra import _IDENTIFIER, _accumulate, _odd_indices, _odd_sign
from .cyclotomic import Cyclotomic, _basis_pieces, _conductor, _join_signed, _power, euler_phi
from .cyclotomic import root_of_unity
from .errors import ExprSyntaxError, _quoted
from .groups import DEFAULT_ORDER_BOUND

_TOKEN = rf"[-+*/^(),]|\d+|{_IDENTIFIER}(?:@(?:\(\s*\d+(?:\s*,\s*\d+)*\s*\)|\d+|\(\)))?"
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")  # the next token, past its whitespace
_LEXABLE_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")  # the longest run of tokens from a position
_OPERATORS = frozenset("-+*/^(),")
_END = "end of input"  # the end token's text, as error messages quote it


def parse_residues(text: str, what: str, start: int = 0) -> tuple[int, ...]:
    """The residues of ``text[start:]``, ``(k1,...,kt)`` or ``k1,...,kt``,
    the parentheses optional.  A malformed text is a ``ValueError`` naming
    ``what`` and quoting ``text`` (``_quoted``)."""
    inner = text[start:].strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    try:
        return tuple(int(p) for p in inner.split(","))
    except ValueError:
        raise ValueError(f"malformed {what} {_quoted(text)}; expected (k1,...,kt)") from None


@functools.lru_cache(maxsize=4096)  # a signature's names, spelled again in each text
def parse_var_name(name: str) -> tuple[str, tuple[int, ...] | None]:
    """Canonical spelling and weight residues of a variable name.

    ``x@1`` gives ``("x@(1)", (1,))``; a name without a weight suffix
    gives ``(name, None)``.
    """
    base, at, _ = name.partition("@")
    if not at:
        return name, None
    ks = parse_residues(name, "weight suffix in", len(base) + 1)
    if min(ks) < 0:  # the reader lexes a residue as digits, so no text spells this name
        raise ValueError(f"malformed weight suffix in {_quoted(name)}; expected (k1,...,kt)")
    return f"{base}@({','.join(str(k) for k in ks)})", ks


MAX_NESTING = 100  # each level costs four parser frames
MAX_POWER_SIZE = 500  # (7/3+zeta(6,1)*x)^249 takes about 1 s on a 2-core VM
MAX_COEFFICIENT_DIGITS = 4300  # the interpreter's default limit on int-to-text conversion
_DIGIT_LIMIT = 10**MAX_COEFFICIENT_DIGITS
_SMALL = 10**4000  # times a root's entries (far below 10^300) stays below _DIGIT_LIMIT
MEMO_SPAN = 16  # a lifted P^1/Z_2 image repeats a denominator of 19 characters
MEMO_PREFIX_SPANS = 64  # spans kept per prefix: each span read scans them all
_SLOTS: list[str] = []  # "{k}" at k, grown to the widest signature printed


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_RESULTS = {"+": "sum", "-": "difference", "*": "product", "/": "quotient"}

Value = SuperPolynomial | SuperRational  # a polynomial p stands for p/1


def _binary(op: str, lhs: Value, rhs: Value, pos: int) -> Value:
    """``lhs op rhs`` as ``SuperRational`` computes it, kept as a polynomial
    while the denominator is 1; a polynomial divided by a non-constant even
    polynomial is their quotient, the terms its inverse series would give.
    The result's coefficients are ``_bounded`` at ``pos``."""
    if op == "/" and isinstance(lhs, SuperPolynomial) and isinstance(rhs, SuperPolynomial):
        if rhs.as_constant() is None and rhs and not rhs.has_odd_content():
            return SuperRational(lhs, rhs)
    lhs, rhs = (SuperRational(v) if isinstance(v, SuperPolynomial) else v for v in (lhs, rhs))
    out = _BINARY[op](lhs, rhs)
    _bounded([*out.numerator.terms.values(), *out.denominator.terms.values()], _RESULTS[op], pos)
    return out.numerator if out.denominator.is_one() else out


def _check_power(value: Value, exponent: int, pos: int) -> Value:
    """Reject a power of more than ``MAX_POWER_SIZE`` coefficient entries:
    t > 1 terms to the k give at most C(k+t-1, k) terms, each phi(N) wide
    over the field Q(zeta_N) of their stored coefficients.  The count grows
    with k, so a larger exponent is checked as the bound.  A sum too wide
    as stored is checked, and returned to be powered, with each coefficient
    at its least conductor, so that value-equal powers pass alike."""
    polys = [value] if isinstance(value, SuperPolynomial) else [value.numerator, value.denominator]
    for i, poly in enumerate(polys):
        t = len(poly.terms)
        if exponent > 1 and t > 1:
            count = comb(min(exponent, MAX_POWER_SIZE) + t - 1, t - 1)
            if count * euler_phi(lcm(*(c.conductor for c in poly.terms.values()))) > MAX_POWER_SIZE:
                terms = {mono: c.least() for mono, c in poly.terms.items()}
                if count * euler_phi(lcm(*(c.conductor for c in terms.values()))) > MAX_POWER_SIZE:
                    raise ExprSyntaxError(f"power of {t} terms to the "
                                          f"{_quoted(str(exponent), str)} is above the size "
                                          f"bound {MAX_POWER_SIZE}", pos)
                polys[i] = SuperPolynomial._raw(poly.signature, terms)
    return polys[0] if len(polys) == 1 else SuperRational._of(*polys)


def _bounded(coefficients, what: str, pos: int):
    """Refuse at ``pos`` any of ``coefficients`` with an integer (entry or
    denominator) of more than ``MAX_COEFFICIENT_DIGITS`` digits."""
    for c in coefficients:
        if c.den >= _DIGIT_LIMIT or max(map(abs, c.num)) >= _DIGIT_LIMIT:
            raise ExprSyntaxError(f"coefficient of the {what} has more than "
                                  f"{MAX_COEFFICIENT_DIGITS} digits", pos)


def _bounded_power(value: Value, exponent: int, pos: int) -> Value:
    """``value**exponent`` by the same binary powering, each product
    ``_bounded`` as soon as it is taken, so that no product is taken
    of a factor past the printable digits."""
    what = f"power to the {_quoted(str(exponent), str)}"

    def power(p: SuperPolynomial) -> SuperPolynomial:
        one = SuperPolynomial.one(p.signature)
        return _power(p, exponent, one, lambda q: _bounded(q.terms.values(), what, pos))

    if isinstance(value, SuperPolynomial):
        return power(value)
    return SuperRational._of(power(value.numerator), power(value.denominator))


def _value(value, signature: SuperSignature) -> Value:
    return SuperPolynomial._raw(signature, value) if type(value) is dict else value


def _stacked(value: Value):
    return dict(value.terms) if isinstance(value, SuperPolynomial) else value


def _built(fold: list, negative: bool = False) -> tuple:
    """The term (monomial, p/q * zeta_order^power) of ``fold``, negated if ``negative``."""
    even, odd, p, q, order, power = fold
    c = Cyclotomic._raw((-p if negative else p,), q, 1)
    if order > 1:
        root = root_of_unity(order, power)
        c = root if c == 1 else root * c
    return SuperMonomial(tuple(even), _odd_indices(odd) if odd else ()), c


class _Reader:
    """One recursive descent that evaluates as it reads: ``tok`` is the token
    at hand, ``at`` its 1-based position and ``end`` the index past it, and
    the first arithmetic failure waits in ``failure`` while the rest is read."""

    __slots__ = ("text", "signature", "spans", "monomials", "width", "sums", "failure", "depth",
                 "tok", "at", "end")

    def __init__(self, text: str, signature: SuperSignature, spans: dict | None):
        self.text, self.signature, self.spans = text, signature, spans
        self.monomials = {} if spans is None else spans.setdefault(None, {})  # for the whole load
        self.width = len(signature.even)  # of a monomial's exponents
        self.sums: dict[int, tuple] = {}  # by id of a sum of polynomials: (name, its last position)
        self.failure: Exception | None = None
        self.depth = self.end = 0
        self.advance()

    def advance(self):
        if m := _TOKEN_RE.match(self.text, self.end):
            self.tok = tok = m[1]
            self.end = end = m.end()
            self.at = end - len(tok) + 1
        else:  # the end, unless a character no token starts with comes first
            self.error(None, 0)
            self.tok, self.at, self.end = _END, len(self.text) + 1, len(self.text)

    def error(self, message: str | None, at: int):
        """Raise a syntax error at ``at``, with ``message`` if it is not None,
        but first at an unread character that no token starts with."""
        bad = _LEXABLE_RE.match(self.text, self.end).end()
        if bad < len(self.text):
            raise ExprSyntaxError(f"unexpected character {self.text[bad]!r}", bad + 1)
        if message is not None:
            raise ExprSyntaxError(message, at)

    def expect(self, tok: str):
        if self.tok != tok:
            self.error(f"expected {tok!r}, found {_quoted(self.tok)}", self.at)
        self.advance()

    def integer(self) -> int:
        """Read an int token; more than ``MAX_COEFFICIENT_DIGITS`` digits is a syntax error."""
        tok = self.tok
        if not tok[0].isdecimal():
            self.error(f"expected 'int', found {_quoted(tok)}", self.at)
        if len(tok) > MAX_COEFFICIENT_DIGITS:
            self.error(f"integer literal has more than {MAX_COEFFICIENT_DIGITS} digits", self.at)
        self.advance()
        return int(tok)

    def parse(self) -> SuperRational:
        value = self.expr()
        if self.tok != _END:
            self.error(f"unexpected trailing input {_quoted(self.tok)}", self.at)
        if self.failure is not None:
            raise self.failure
        top = _value(self.settled(value), self.signature)
        return top if isinstance(top, SuperRational) else SuperRational(top)

    def expr(self):
        value = self.term()
        if type(value) is list:
            value = dict((_built(value),))
        while (op := self.tok) == "+" or op == "-":
            at = self.at
            self.advance()
            rhs = self.term()
            if self.failure is None:
                try:
                    if type(rhs) is list and type(value) is dict:  # a folded term, built signed
                        _accumulate(value, (_built(rhs, op == "-"),))
                        self.sums[id(value)] = _RESULTS[op], at
                    else:
                        rhs = dict((_built(rhs),)) if type(rhs) is list else rhs
                        value = self.binary(op, value, rhs, at)
                except Exception as exc:
                    self.failure = exc
        return value

    def term(self):
        """A product: a ``fold`` (a list) while its factors fold, then a value."""
        fold, value, pending, op, at = [[0] * self.width, 0, 1, 1, 1, 0], None, [], None, None
        while True:
            negations = 0
            while self.tok == "-":
                negations += 1
                self.advance()
            atom, exponent, caret = self.atom(), None, self.at
            if self.tok == "^":
                self.advance()
                exponent = self.integer()
            if self.failure is None:
                try:
                    if fold is not None:
                        joined = self.fold(fold, op or "*", at, atom, exponent, caret, negations)
                    else:
                        joined = self.join(pending, value, op, atom, exponent, caret, negations)
                        if pending and (not joined or self.tok != "*" and self.tok != "/"):
                            value = self.binary("*", value, dict((_built(pending[0]),)), at)
                            pending.clear()
                    if not joined:
                        rhs = self.operand(atom, exponent, caret, negations)
                        if op is not None:
                            lhs = value if fold is None else dict((_built(fold),))
                            rhs = self.binary(op, lhs, rhs, at)
                        fold, value = None, rhs
                except Exception as exc:
                    self.failure = exc
            if (op := self.tok) != "*" and op != "/":
                return value if fold is None else fold
            at = self.at
            self.advance()

    def atom(self):
        """Read an atom: an identifier's monomial (None if it is unknown),
        an integer, a root (order, power), or a parenthesised value."""
        tok, at = self.tok, self.at
        if tok == "(":
            return self.group()
        if tok[0].isdecimal():
            return self.integer()
        if tok == "zeta":
            self.advance()
            self.expect("(")
            order = self.integer()
            self.expect(",")
            power = self.integer()
            self.expect(")")
            if order < 1:
                self.error("zeta needs a positive order", at)
            if order > DEFAULT_ORDER_BOUND and self.failure is None:
                self.failure = ExprSyntaxError(f"zeta order {_quoted(str(order), str)} is above "
                                               f"the bound {DEFAULT_ORDER_BOUND}", at)
            return order, power
        if tok in _OPERATORS or tok == _END:
            self.error(f"expected a value, found {_quoted(tok)}", at)
        self.advance()
        return (4, 1) if tok == "i" else self.monomials.get(tok) or self.variable(tok, at)

    def group(self):
        """Read "(" expr ")"; at depth 0, a span in the memo is stepped over
        unread and its value shared, and a new one kept."""
        at, text, spans = self.at, self.text, self.spans
        if self.depth == MAX_NESTING:
            self.error(f"parentheses nest deeper than {MAX_NESTING}", at)
        memo = spans is not None and self.depth == 0
        for span, value in spans.get(text[at - 1:at - 1 + MEMO_SPAN], {}).items() if memo else ():
            if text.startswith(span, at - 1):
                self.end = at - 1 + len(span)
                self.advance()
                return value
        self.advance()
        self.depth += 1
        value = self.expr()
        close = self.at
        self.expect(")")
        self.depth -= 1
        if memo and close - at + 1 >= MEMO_SPAN and self.failure is None:
            value = self.keep(text[at - 1:close], value)
        return value

    def variable(self, tok: str, at: int) -> SuperMonomial | None:
        """An identifier's monomial, kept for the whole load; an unknown one is held."""
        if self.failure is not None:
            return None
        try:
            # "x@()", the trivial group's weight, is canonical; a too long residue fails
            name = tok if tok.endswith("()") else parse_var_name(tok)[0]
            if name not in self.signature.even and name not in self.signature.odd:
                raise ValueError(f"unknown identifier {_quoted(tok)}")
        except ValueError as exc:
            self.failure = ExprSyntaxError(str(exc), at)
            return None
        (mono,) = SuperPolynomial.variable(self.signature, name).terms
        self.monomials[tok] = mono
        return mono

    def keep(self, span: str, value):
        """A span's value, kept in the memo as later texts share it once it is ``_bounded``."""
        if type(value) is dict:
            if mark := self.sums.get(id(value)):
                try:
                    _bounded(value.values(), *mark)
                except ExprSyntaxError:  # left pending, to be refused where it would be
                    return value
                del self.sums[id(value)]
            value = SuperPolynomial._raw(self.signature, value)
        if len(kept := self.spans.setdefault(span[:MEMO_SPAN], {})) < MEMO_PREFIX_SPANS:
            kept[span] = value
        return value

    def fold(self, fold: list, op: str, at: int | None, atom, exponent, caret, negations) -> bool:
        """Multiply ``fold`` = [exponents, odd mask, p, q, order, power] by a
        factor in place, ``_bounded`` at ``at``; False, ``fold`` unchanged, for
        a zero product, a value in parentheses, or a divisor that is 1 or not
        an integer or a root."""
        even, odd, p, q, order, power = fold
        if type(atom) is SuperMonomial:
            if op == "/":
                return False
            if not atom.odd:
                even[atom.even.index(1)] += 1 if exponent is None else exponent
            elif exponent != 0:
                sign = _odd_sign(odd, bit := 1 << atom.odd[0]) if exponent in (None, 1) else 0
                if not sign:
                    return False  # zero
                fold[1], negations = odd | bit, negations + (sign < 0)
            fold[2] = -p if negations & 1 else p
            return True
        if type(atom) is int and atom:
            n, k, v = 1, 0, 1 if exponent == 0 else atom
            if exponent is not None and exponent > 1 and atom > 1:  # no step passes atom^exponent
                what = f"power to the {_quoted(str(exponent), str)}"
                v = _power(atom, exponent, 1, lambda x: _bounded((Cyclotomic._raw((x,), 1, 1),),
                                                                 what, caret))
        elif type(atom) is tuple:  # zeta(N,k)^0 is 1 at conductor 1
            (n, k), v = (atom if exponent is None else (1, 0) if exponent == 0 else
                         (atom[0], atom[1] * exponent % atom[0])), 1
        else:
            return False
        if op == "/":
            if v == 1 and root_of_unity(n, k) == (-1) ** negations:
                return False
            k = -k
        if n > 1 and order > 1:
            m = _conductor((order, n))
            order, power = m, (power * (m // order) + k * (m // n)) % m
        elif n > 1:
            order, power = n, k
        g = gcd(p, v) if op == "/" else gcd(q, v)
        p, q = (p // g, q * (v // g)) if op == "/" else (p * (v // g), q // g)
        fold[2:] = -p if negations & 1 else p, q, order, power
        if at is not None and not (-_SMALL < p < _SMALL and q < _SMALL):
            _bounded((_built(fold)[1],), _RESULTS[op], at)
        return True

    def join(self, pending: list, value, op: str, atom, exponent, caret, negations) -> bool:
        """Fold a factor after ``value`` into ``pending`` = [fold, most, den]: the fold's order N
        is their product's conductor, most and den ``value``'s largest entry at N and denominator.
        False for a root, which may change the conductor error, no fold, or too many digits,
        and for a last factor that no other joins, which needs no scan of ``value``."""
        if not pending and self.tok != "*" and self.tok != "/":
            return False
        fold = [pending[0][0][:], *pending[0][1:]] if pending else [[0] * self.width, 0, 1, 1, 1, 0]
        if type(atom) is tuple or not self.fold(fold, op, None, atom, exponent, caret, negations):
            return False
        self.settled(value)  # as the product by this factor would
        if pending:
            most, den = pending[1:]
        elif fold == [[0] * self.width, 0, 1, 1, 1, 0]:
            return True  # a product by 1 is its other operand
        else:
            terms = _stacked(getattr(value, "numerator", value)).values()
            fold[4] = n = _conductor(c.conductor for c in terms)  # 1 at N lifts the value too
            most = max((abs(x) for c in terms for x in c.lift(n).num), default=1)
            den = max((c.den for c in terms), default=1)
        if most * abs(fold[2]) >= _DIGIT_LIMIT or den * fold[3] >= _DIGIT_LIMIT:
            return False
        pending[:] = fold, most, den
        return True

    def operand(self, atom, exponent, caret, negations):
        """A factor's value: a folded term's one-entry dict, else the value in
        parentheses, or {} for 0 or an odd square, to its power and negated."""
        fold = [[0] * self.width, 0, 1, 1, 1, 0]
        if self.fold(fold, "*", None, atom, exponent, caret, negations):
            return dict((_built(fold),))
        value = {} if type(atom) in (SuperMonomial, int) else atom
        if exponent is not None and type(atom) is not SuperMonomial:
            value = _value(self.settled(value), self.signature)
            value = _stacked(_bounded_power(_check_power(value, exponent, caret), exponent, caret))
        if negations:  # a run of minuses negates once, or not at all
            value = self.settled(value)
            if negations & 1:
                value = {mono: -c for mono, c in value.items()} if type(value) is dict else -value
        return value

    def settled(self, value):
        """``value`` as an operand: a sum is ``_bounded`` at its last position."""
        if self.sums and type(value) is dict and (mark := self.sums.pop(id(value), None)):
            _bounded(value.values(), *mark)
        return value

    def binary(self, op: str, lhs, rhs, at: int):
        """``lhs op rhs``: a sum of polynomials adds into ``lhs`` in place, and
        the rest goes through ``_binary``."""
        if op in "+-" and SuperRational not in (type(lhs), type(rhs)):
            lhs = _stacked(lhs)  # a span's value is shared: the sum takes a copy
            items = _stacked(self.settled(rhs)).items()
            _accumulate(lhs, [(mono, -c) for mono, c in items] if op == "-" else items)
            self.sums[id(lhs)] = _RESULTS[op], at
            return lhs
        self.settled(lhs), self.settled(rhs)
        return _stacked(_binary(op, _value(lhs, self.signature), _value(rhs, self.signature), at))


def parse_expression(text: str, signature: SuperSignature,
                     spans: dict | None = None) -> SuperRational:
    """Read the text and evaluate it exactly over the signature, in one descent.

    A caller reading several texts over one signature may pass one
    ``spans`` dict, the span memo, to every call: an outermost span that
    an earlier call read is then neither read nor evaluated again, and
    equal spans give one value object.  The memo maps the first
    ``MEMO_SPAN`` characters of a span to {its text: its value}, and None
    to {each known identifier read: its monomial}.
    """
    return _Reader(text, signature, spans).parse()


# -- formatting ------------------------------------------------------------


def _template(poly: SuperPolynomial, n: int) -> str:
    """The terms, leading monomial first, in one pass, variable k of even + odd
    the slot {k}: a rational a/b from its integers (1 and -1 by their sign
    before a monomial), any other over Q(zeta_n) if it holds it, else at its least conductor."""
    if not poly.terms:
        return "0"
    sig, terms = poly.signature, poly.terms
    n_even, slots = len(sig.even), _SLOTS
    while len(slots) < n_even + len(sig.odd):
        slots.append(f"{{{len(slots)}}}")
    parts = []
    try:
        for mono in sorted(terms, key=SuperMonomial.sort_key, reverse=True):
            c = terms[mono]
            names = [slots[i] if e == 1 else f"{slots[i]}^{e}" for i, e in enumerate(mono.even)
                     if e]
            names += [slots[n_even + j] for j in mono.odd]
            body = "*".join(names)
            if any(c.num[1:]):
                c = c if n % c.conductor == 0 else c.least()
                c = c.lift(n) if n % c.conductor == 0 else c
                m = c.conductor
                pieces = _basis_pieces(c.num, c.den, lambda k: "i" if m == 4 else f"zeta({m},{k})")
                coeff = f"({_join_signed(pieces)})" if len(pieces) > 1 else pieces[0]
            elif body and c.den == 1 and abs(c.num[0]) == 1:
                coeff = "" if c.num[0] == 1 else "-"
            else:
                coeff = str(c.num[0]) if c.den == 1 else f"{c.num[0]}/{c.den}"
            parts.append(f"{coeff}*{body}" if body and coeff not in ("", "-") else coeff + body)
    except ValueError:  # the interpreter refuses to turn a longer int into text
        long = any(e >= _DIGIT_LIMIT for mono in poly.terms for e in mono.even)
        raise ValueError(f"printing the result: {'an exponent' if long else 'a coefficient'} "
                         f"has more than {MAX_COEFFICIENT_DIGITS} digits") from None
    return _join_signed(parts)


def format_expression(f: SuperRational | SuperPolynomial, texts: dict | None = None) -> str:
    """Canonical text form; ``parse_expression`` reads it back exactly.

    Each polynomial is a ``_template`` filled with its signature's names.  A
    caller passes one ``texts`` dict to every call, the memo: by ``id(terms)``,
    (terms, group exponent, template, signature, its text), so shared terms,
    as of a lift's components or twin lifted transitions, render once and fill
    once per signature.  Holding the terms keeps their ids theirs.  A
    quotient is ``(N)/(D)`` unless D is 1 or N is zero: zero prints as ``0``,
    whatever its denominator.
    """
    sig = f.signature
    n = sig.group.exponent if isinstance(sig, GradedSignature) else 1
    texts = {} if texts is None else texts

    def text(poly: SuperPolynomial) -> str:
        entry = texts.get(id(poly.terms))
        if entry is None or entry[3] is not sig:
            template = entry[2] if entry and entry[1] == n else _template(poly, n)
            entry = texts[id(poly.terms)] = (
                poly.terms, n, template, sig, template.format(*sig.even, *sig.odd))
        return entry[4]

    if isinstance(f, SuperPolynomial):
        return text(f)
    num = text(f.numerator)
    if not f.numerator or f.denominator.as_constant() == 1:
        return num
    return f"({num})/({text(f.denominator)})"
