"""The expression reader as it stood before it read in one descent: a
one-call lexer, a recursive descent that emits a postfix program, and a
value-stack evaluator over that program.  Kept verbatim as the reference
that the one-descent reader in ``gradedcover.expressions`` must match,
value for value and error for error.  Its span memo maps the first
``MEMO_SPAN`` characters of a span to {its text: (its token count, its
value)}, and None to the monomial table."""

from __future__ import annotations

import re
from itertools import accumulate, chain
from operator import add

from gradedcover.algebra import SuperMonomial, SuperPolynomial, SuperRational, SuperSignature
from gradedcover.algebra import _accumulate, _odd_sign
from gradedcover.cyclotomic import Cyclotomic, _power, root_of_unity
from gradedcover.errors import ExprSyntaxError
from gradedcover.expressions import (
    _RESULTS, MAX_COEFFICIENT_DIGITS, MAX_NESTING, MEMO_SPAN, _TOKEN, Value, _binary, _bounded,
    _bounded_power, _check_power, _quoted, parse_var_name,
)
from gradedcover.groups import DEFAULT_ORDER_BOUND

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



def _mul_single(t1: tuple, t2: tuple) -> tuple | None:
    """One (monomial, coefficient) term times another, None for zero; a
    coefficient 1 at conductor 1 is not multiplied in."""
    (m1, c1), (m2, c2) = t1, t2
    sign = _odd_sign(sum(1 << j for j in m1.odd), sum(1 << j for j in m2.odd)) if m2.odd else 1
    if not sign:
        return None
    mono = SuperMonomial(tuple(map(add, m1.even, m2.even)), tuple(sorted(m1.odd + m2.odd)))
    c = c2 if _is_unit(c1) else c1 if _is_unit(c2) else c1 * c2
    return mono, c if sign > 0 else -c


def _is_unit(c: Cyclotomic) -> bool:
    return c.conductor == 1 and c.num[0] == 1 and c.den == 1


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


def reference_parse_expression(
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
