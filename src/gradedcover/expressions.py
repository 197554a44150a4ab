"""Expression text frontend.

Grammar (no implicit multiplication):

    expr  := term (("+" | "-") term)*
    term  := unary (("*" | "/") unary)*
    unary := "-"* atom ("^" integer)?
    atom  := "(" expr ")" | identifier | integer | "i" | "zeta(" int "," int ")"

Identifiers may carry a weight suffix, canonically ``name@(k1,...,kt)``;
the shorthand ``name@k`` is accepted for rank-one groups.  ``_lex`` reads
the text with one ``findall`` of (whitespace, token) pairs: a token's
position is the sum of the lengths before it, its kind its first
character's (``_kind``).  ``parse_expression`` syntax-checks the whole text
into a postfix program before any arithmetic runs, so malformed text is an
``ExprSyntaxError`` even if it also divides by zero; it then evaluates the
program with a value stack against a declared signature into an exact
superfunction.  ``zeta(N,k)^e`` and ``i^e``, e >= 1, are the root zeta_N^(k*e
mod N), taken by no product.  A polynomial on the stack is a dict of terms
that only the stack holds, a single term a one-entry dict: a product, a
power, or a division by a constant c other than 1 (a product with 1/c) of
single terms pushes a new one, and a sum adds each term into its left dict
in place.  A caller reading several texts over one signature, such as the
images of one morphism, may pass them one span memo: the value of each
outermost parenthesised span of at least ``MEMO_SPAN`` (16) characters,
by its text, once it is ``_bounded``.  A later text that holds the span is
not parsed or evaluated there again, and pushes the memo's value, which is
shared: a sum into it takes a copy.  Values stay polynomials
until a division by a non-constant; that division, and arithmetic on a
quotient, go through ``SuperRational``, and a quotient whose denominator
is exactly 1 at conductor 1 turns back into a polynomial.
Parentheses nest at most ``MAX_NESTING`` (100) levels deep,
``zeta(N,k)`` takes orders N up to ``DEFAULT_ORDER_BOUND`` (4096), and a
power of an operand with more than one term may have at most
``MAX_POWER_SIZE`` (500) coefficient entries as ``_check_power`` counts them;
neither an integer literal nor a product, quotient or power, nor a sum
that involves a quotient, may hold an integer of more than
``MAX_COEFFICIENT_DIGITS`` (4300) digits: ``_Parser.integer`` checks each
literal and ``_bounded`` each new coefficient, a power's at each product of
its binary powering as it is taken (``_term_power``, ``_bounded_power``).
A sum of polynomials adds at most one digit, so it is not checked at each
operator: a stacked sum carries the position of its last ``+`` or ``-``
and is ``_bounded`` once there, as it leaves the stack as an operand or
as the result.  A message quotes at most 40 characters of a name, a
residue, a token or an integer (``_quoted``).
``format_expression`` renders a superfunction back in a canonical, re-parseable
form, each polynomial a template of its sorted terms filled with its names, each
coefficient over Q(zeta_N), N the exponent of a graded signature's group (1 for
a plain one), when that field holds it, else at its least conductor.
"""

from __future__ import annotations

import operator
import re
from itertools import accumulate, chain
from math import comb, lcm

from .algebra import GradedSignature, SuperMonomial, SuperPolynomial, SuperRational, SuperSignature
from .algebra import _accumulate, _is_unit, _mul_single
from .cyclotomic import Cyclotomic, _basis_pieces, _join_signed, _power, euler_phi, root_of_unity
from .errors import ExprSyntaxError
from .groups import DEFAULT_ORDER_BOUND

_TOKEN = r"[-+*/^(),]|\d+|[A-Za-z_][A-Za-z0-9_]*(?:@(?:\(\s*\d+(?:\s*,\s*\d+)*\s*\)|\d+))?"
_TOKEN_RE = re.compile(rf"(\s*)({_TOKEN})")  # (whitespace, token) pairs
_LEXABLE_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")  # the longest prefix the lexer reads
_OPERATORS = frozenset("-+*/^(),")
_END = "end of input"  # the end token's text, as error messages quote it


def _kind(token: str) -> str:
    """A token's kind from its first character: an operator is its own kind,
    a decimal digit (what the regex's ``\\d`` matches) starts an "int", an
    ASCII letter or "_" an "ident"; the end token is "end"."""
    c = token[0]
    return c if c in _OPERATORS else "int" if c.isdecimal() else "end" if token == _END else "ident"


def _lex(text: str) -> tuple[list[str], list[int]]:
    """The token texts of ``text`` and their 1-based positions, the end token
    last, from one ``findall``: a token's position is one past the lengths
    of every pair before it and of its own whitespace.  A character no token
    starts with is a syntax error at its position."""
    pairs = _TOKEN_RE.findall(text)
    ends = list(accumulate(map(len, chain.from_iterable(pairs)), initial=1))
    if text[ends[-1] - 1:].strip():  # findall skipped a character, or stopped at one
        bad = _LEXABLE_RE.match(text).end()
        raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad + 1)
    tokens = [token for _, token in pairs]
    tokens.append(_END)
    positions = ends[1::2]
    positions.append(len(text) + 1)
    return tokens, positions


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


def _quoted(text: str, quote=repr) -> str:
    """``text`` quoted for a message, cut to 40 characters."""
    return quote(text) if len(text) <= 40 else f"{quote(text[:40])}... ({len(text)} characters)"


def parse_var_name(name: str) -> tuple[str, tuple[int, ...] | None]:
    """Canonical spelling and weight residues of a variable name.

    ``x@1`` gives ``("x@(1)", (1,))``; a name without a weight suffix
    gives ``(name, None)``.
    """
    base, at, _ = name.partition("@")
    if not at:
        return name, None
    ks = parse_residues(name, "weight suffix in", len(base) + 1)
    return f"{base}@({','.join(str(k) for k in ks)})", ks


MAX_NESTING = 100  # each level costs four parser frames
MAX_POWER_SIZE = 500  # (7/3+zeta(6,1)*x)^249 takes about 1 s on a 2-core VM
MAX_COEFFICIENT_DIGITS = 4300  # the interpreter's default limit on int-to-text conversion
_DIGIT_LIMIT = 10**MAX_COEFFICIENT_DIGITS
MEMO_SPAN = 16  # a lifted P^1/Z_2 image repeats a denominator of 19 characters
_SLOTS: list[str] = []  # "{k}" at k, grown to the widest signature printed


class _Parser:
    """Recursive descent that emits a postfix program.

    Steps are ``("const", n)``, ``("root", order, power, pos)``,
    ``("var", name, pos)``, ``("neg",)``, ``("^", n, pos)`` and the binary
    ``(op, pos)`` for op in ``+ - * /``.  With a span memo, an outermost
    span that an earlier text evaluated is the step ``("span", value)``, and
    one of at least ``MEMO_SPAN`` characters that none did is followed by
    ``("keep", its text, its token count)``.  It does no arithmetic and no
    name lookup.
    """

    def __init__(self, text: str, spans: dict | None = None):
        self.text, self.spans = text, spans
        self.tokens, self.positions = _lex(text)
        self.idx = 0
        self.depth = 0
        self.program: list[tuple] = []

    def take(self, *ops: str) -> str | None:
        """Consume and return the next token if it is one of the operators ``ops``."""
        tok = self.tokens[self.idx]
        if tok not in ops:
            return None
        self.idx += 1
        return tok

    def expect(self, kind: str) -> int:
        """Consume the next token, which must be of ``kind``; its index."""
        i = self.idx
        if _kind(self.tokens[i]) != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {_quoted(self.tokens[i])}",
                                  self.positions[i])
        self.idx = i + 1
        return i

    def integer(self, i: int) -> int:
        """An int token's value; more than ``MAX_COEFFICIENT_DIGITS`` digits is a syntax error."""
        if len(self.tokens[i]) > MAX_COEFFICIENT_DIGITS:
            raise ExprSyntaxError(
                f"integer literal has more than {MAX_COEFFICIENT_DIGITS} digits", self.positions[i]
            )
        return int(self.tokens[i])

    def parse(self) -> list[tuple]:
        self.expr()
        tok = self.tokens[self.idx]
        if tok != _END:
            raise ExprSyntaxError(f"unexpected trailing input {_quoted(tok)}",
                                  self.positions[self.idx])
        return self.program

    def expr(self):
        self.term()
        while op := self.take("+", "-"):
            pos = self.positions[self.idx - 1]
            self.term()
            self.program.append((op, pos))

    def term(self):
        self.unary()
        while op := self.take("*", "/"):
            pos = self.positions[self.idx - 1]
            self.unary()
            self.program.append((op, pos))

    def unary(self):
        negations = 0
        while self.take("-"):
            negations += 1
        self.atom()
        if self.take("^"):
            pos = self.positions[self.idx - 1]
            exponent = self.integer(self.expect("int"))
            last = self.program[-1]
            if last[0] == "root" and exponent:  # zeta(N,k)^e is zeta(N,k*e), with no products
                self.program[-1] = ("root", last[1], last[2] * exponent % last[1], last[3])
            else:
                self.program.append(("^", exponent, pos))
        self.program.extend([("neg",)] * negations)

    def atom(self):
        i = self.idx
        tok = self.tokens[i]
        self.idx = i + 1
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nest deeper than {MAX_NESTING}",
                                      self.positions[i])
            start = self.positions[i] - 1
            memo = self.spans if self.depth == 0 else None
            if memo is not None and self.recall(i, start):
                return
            self.depth += 1
            self.expr()
            end = self.positions[self.expect(")")]
            self.depth -= 1
            if memo is not None and end - start >= MEMO_SPAN:
                self.program.append(("keep", self.text[start:end], self.idx - i))
            return
        kind = _kind(tok)
        if kind == "int":
            self.program.append(("const", self.integer(i)))
        elif tok == "i":
            self.program.append(("root", 4, 1, self.positions[i]))
        elif tok == "zeta":
            self.expect("(")
            order = self.integer(self.expect("int"))
            self.expect(",")
            power = self.integer(self.expect("int"))
            self.expect(")")
            if order < 1:
                raise ExprSyntaxError("zeta needs a positive order", self.positions[i])
            self.program.append(("root", order, power, self.positions[i]))
        elif kind == "ident":
            self.program.append(("var", tok, self.positions[i]))
        else:
            raise ExprSyntaxError(f"expected a value, found {_quoted(tok)}", self.positions[i])

    def recall(self, i: int, start: int) -> bool:
        """Step over the span opening at token ``i`` if an earlier text
        evaluated one with its text, and push that value."""
        for span, (count, value) in self.spans.get(self.text[start:start + MEMO_SPAN], {}).items():
            if self.text.startswith(span, start):
                self.program.append(("span", value))
                self.idx = i + count
                return True
        return False


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


def _check_power(value: Value, exponent: int, pos: int):
    """Reject a power of more than ``MAX_POWER_SIZE`` coefficient entries:
    t > 1 terms to the k give at most C(k+t-1, k) terms, each phi(N) wide
    over the field Q(zeta_N) of their coefficients.  The count grows with
    k, so a larger exponent is checked as the bound itself."""
    polys = [value] if isinstance(value, SuperPolynomial) else [value.numerator, value.denominator]
    for poly in polys:
        t = len(poly.terms)
        if exponent > 1 and t > 1:
            width = euler_phi(lcm(*(c.conductor for c in poly.terms.values())))
            if comb(min(exponent, MAX_POWER_SIZE) + t - 1, t - 1) * width > MAX_POWER_SIZE:
                raise ExprSyntaxError(
                    f"power of {t} terms to the {_quoted(str(exponent), str)} is above the "
                    f"size bound {MAX_POWER_SIZE}", pos
                )


def _bounded(coefficients, what: str, pos: int):
    """Refuse at ``pos`` any of ``coefficients`` with an integer (entry or
    denominator) of more than ``MAX_COEFFICIENT_DIGITS`` digits."""
    for c in coefficients:
        if c.den >= _DIGIT_LIMIT or max(map(abs, c.num)) >= _DIGIT_LIMIT:
            raise ExprSyntaxError(
                f"coefficient of the {what} has more than {MAX_COEFFICIENT_DIGITS} digits", pos
            )


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


def _term_power(mono: SuperMonomial, c: Cyclotomic, exponent: int, pos: int) -> dict:
    """One term to the k >= 0, as a one-entry dict, {} for zero: the exponents
    scale, an odd monomial to a power >= 2 is zero, a coefficient 1 at
    conductor 1 stays, and any other is taken by ``_power``, each product
    ``_bounded``.  A rational a/b in lowest terms has its powers a^j/b^j in
    lowest terms and growing with j, and binary powering forms none above
    c^k, so a product is refused exactly when c^k is."""
    if mono.odd and exponent > 1:
        return {}
    mono = SuperMonomial(tuple(e * exponent for e in mono.even), mono.odd if exponent == 1 else ())
    if not _is_unit(c):
        what = f"power to the {_quoted(str(exponent), str)}"
        c = _power(c, exponent, Cyclotomic.from_rational(1), lambda q: _bounded((q,), what, pos))
    return {mono: c}


# A polynomial on the stack is a dict of terms that only the stack holds,
# a single term a one-entry dict; a sum adds into its left dict in place.

def _term(value) -> tuple | None:
    return next(iter(value.items())) if type(value) is dict and len(value) == 1 else None


def _value(value, signature: SuperSignature) -> Value:
    return SuperPolynomial._raw(signature, value) if type(value) is dict else value


def _stacked(value: Value):
    return dict(value.terms) if isinstance(value, SuperPolynomial) else value


def parse_expression(
    text: str, signature: SuperSignature, spans: dict | None = None
) -> SuperRational:
    """Parse the whole text, then evaluate it exactly over the signature.

    A caller parsing several texts over one signature may pass one
    ``spans`` dict, the span memo, to every call: an outermost span that
    an earlier call evaluated is then neither parsed nor evaluated again,
    and equal spans give one value object.  The memo maps the first
    ``MEMO_SPAN`` characters of a span to {its text: (its token count, its
    value)}, and None to {each known identifier read: its monomial}.
    """
    unit, one = SuperMonomial((0,) * len(signature.even), ()), Cyclotomic.from_rational(1)
    monomials: dict = {} if spans is None else spans.setdefault(None, {})  # for the whole load
    stack: list = []
    sums: dict[int, tuple] = {}  # by id of a stacked sum of polynomials: (name, its last position)

    def settled(value):
        """``value`` leaving the stack: a sum is ``_bounded`` at its last position."""
        if sums and type(value) is dict and (mark := sums.pop(id(value), None)):
            _bounded(value.values(), *mark)
        return value

    for step in _Parser(text, spans).parse():
        op = step[0]
        if op == "var":
            mono = monomials.get(step[1])
            if mono is None:
                try:
                    name = parse_var_name(step[1])[0]
                except ValueError as exc:  # a residue too long to read as an int
                    raise ExprSyntaxError(str(exc), step[2]) from None
                if name not in signature.even and name not in signature.odd:
                    raise ExprSyntaxError(f"unknown identifier {_quoted(step[1])}", step[2])
                (mono,) = SuperPolynomial.variable(signature, name).terms
                monomials[step[1]] = mono
            stack.append({mono: one})
        elif op == "const":
            stack.append({unit: Cyclotomic.from_rational(step[1])} if step[1] else {})
        elif op == "root":
            _, order, power, pos = step
            if order > DEFAULT_ORDER_BOUND:
                raise ExprSyntaxError(f"zeta order {_quoted(str(order), str)} is above the "
                                      f"bound {DEFAULT_ORDER_BOUND}", pos)
            stack.append({unit: root_of_unity(order, power)})
        elif op == "span":
            stack.append(step[1])
        elif op == "keep":  # a span's value, once it passed _bounded, serves later texts
            top = stack[-1]
            if type(top) is dict:
                if mark := sums.get(id(top)):
                    try:
                        _bounded(top.values(), *mark)
                    except ExprSyntaxError:  # left pending, to be refused where it would be
                        continue
                    del sums[id(top)]
                top = stack[-1] = SuperPolynomial._raw(signature, top)
            spans.setdefault(step[1][:MEMO_SPAN], {}).setdefault(step[1], (step[2], top))
        elif op == "neg":
            top = settled(stack[-1])
            stack[-1] = {mono: -c for mono, c in top.items()} if type(top) is dict else -top
        elif op == "^":
            _, exponent, pos = step
            if term := _term(settled(stack[-1])):
                stack[-1] = _term_power(*term, exponent, pos)
            else:
                value = _value(stack[-1], signature)
                _check_power(value, exponent, pos)
                stack[-1] = _stacked(_bounded_power(value, exponent, pos))
        else:
            rhs = stack.pop()
            lhs = stack[-1]
            if op in "+-" and SuperRational not in (type(lhs), type(rhs)):
                lhs = stack[-1] = _stacked(lhs)  # a span's value is shared: the sum takes a copy
                items = _stacked(settled(rhs)).items()
                if op == "-":
                    items = [(mono, -c) for mono, c in items]
                _accumulate(lhs, items)
                sums[id(lhs)] = _RESULTS[op], step[1]
                continue
            a, b = _term(settled(lhs)), _term(settled(rhs))
            if op == "*" and a and b:
                term = _mul_single(a, b)
                # a factor 1 leaves the other's coefficient, already bounded
                if term and term[1] is not a[1] and term[1] is not b[1]:
                    _bounded((term[1],), "product", step[1])
                stack[-1] = dict((term,)) if term else {}
            elif op == "/" and a and b and b[0] == unit and b[1] != 1:
                mono, c = _mul_single(a, (unit, b[1].inverse()))
                _bounded((c,), "quotient", step[1])
                stack[-1] = {mono: c}
            else:
                value = _binary(op, _value(lhs, signature), _value(rhs, signature), step[1])
                stack[-1] = _stacked(value)
    top = _value(settled(stack[0]), signature)
    return top if isinstance(top, SuperRational) else SuperRational(top)


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
            text = f"{coeff}*{body}" if body and coeff not in ("", "-") else coeff + body
            parts.append(f" - {text[1:]}" if parts and text[0] == "-" else
                         f" + {text}" if parts else text)
    except ValueError:  # the interpreter refuses to turn a longer int into text
        long = any(e >= _DIGIT_LIMIT for mono in poly.terms for e in mono.even)
        raise ValueError(f"printing the result: {'an exponent' if long else 'a coefficient'} "
                         f"has more than {MAX_COEFFICIENT_DIGITS} digits") from None
    return "".join(parts)


def format_expression(f: SuperRational | SuperPolynomial, texts: dict | None = None) -> str:
    """Canonical text form; ``parse_expression`` reads it back exactly.

    Each polynomial is a ``_template`` filled with its signature's names.  A
    caller passes one ``texts`` dict to every call, the memo: by ``id(terms)``,
    (terms, group exponent, template, signature, its text), so shared terms,
    as of a lift's components or twin lifted transitions, render once and fill
    once per signature.  Holding the terms keeps their ids theirs.
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
    return num if f.denominator.as_constant() == 1 else f"({num})/({text(f.denominator)})"
