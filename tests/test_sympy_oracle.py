"""An oracle that shares no arithmetic with the package: sympy.

Functions over two even variables, with coefficients in Q(zeta_n) for
n <= 12, are modelled as ``sympy.Poly`` numerators and denominators in
z, x0, x1, where z stands for zeta_N and N is a multiple of every conductor
and of the group's exponent.  Two functions are compared modulo Phi_N(z) by
cross-multiplication: N1/D1 = N2/D2 iff N1*D2 - N2*D1 is divisible by
Phi_N, as Q[z]/Phi_N is the field Q(zeta_N).  Inputs are built from entry
lists, so no package arithmetic makes them, and package values are read back
entry by entry.  Products with odd variables take the reordering sign from
``surviving_pairs`` in ``test_poly_mul``, with sympy coefficients.
"""

import re
from fractions import Fraction

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedcover import (
    Cyclotomic,
    GradedError,
    GradedSignature,
    ParityMap,
    SuperMonomial,
    SuperMorphism,
    SuperPolynomial,
    SuperRational,
    SuperSignature,
    compose,
    euler_phi,
    format_expression,
    make_group,
)
from test_poly_mul import surviving_pairs

Z = sympy.Symbol("z")
X = sympy.symbols("x0 x1")
EXAMPLES = settings(max_examples=25, derandomize=True, deadline=None)


def poly(expr) -> sympy.Poly:
    return sympy.Poly(expr, Z, *X, domain="QQ")


ZERO, ONE = poly(0), poly(1)


def term(c, k: int, exps=(0, 0)) -> sympy.Poly:
    """c * z^k * x0^e0 * x1^e1."""
    return sympy.Poly.from_dict({(k, *exps): c}, Z, *X, domain="QQ")


class Model:
    """Q(zeta_N)[x0, x1] in sympy, over a graded signature of x0, x1."""

    def __init__(self, n: int, factors: tuple[int, ...], weights):
        self.n, self.factors = n, factors
        self.phi = poly(sympy.cyclotomic_poly(n, Z))
        group = make_group(factors)
        self.weights = weights  # per variable, its residue per cyclic factor
        self.sig = GradedSignature(group, ParityMap.trivial(group),
                                   [(str(x), group.character(w)) for x, w in zip(X, weights)])

    def entries(self, values, conductor: int, exps=(0, 0)) -> sympy.Poly:
        """sum_k values_k * zeta_conductor^k * x^exps, zeta_conductor = z^(N/conductor)."""
        assert self.n % conductor == 0, (conductor, self.n)
        step = self.n // conductor
        return sum((term(sympy.Rational(q.numerator, q.denominator), k * step, exps)
                    for k, q in enumerate(values) if q), ZERO)

    def coefficient(self, c: Cyclotomic, exps=(0, 0)) -> sympy.Poly:
        return self.entries([Fraction(x, c.den) for x in c.num], c.conductor, exps)

    def expr(self, p: SuperPolynomial) -> sympy.Poly:
        return sum((self.coefficient(c, m.even) for m, c in p.terms.items()), ZERO)

    def pair(self, f) -> tuple[sympy.Poly, sympy.Poly]:
        """(numerator, denominator) of a function or a polynomial."""
        if isinstance(f, SuperPolynomial):
            return self.expr(f), ONE
        return self.expr(f.numerator), self.expr(f.denominator)

    def reduced(self, p: sympy.Poly) -> sympy.Poly:
        return p.rem(self.phi)

    def is_zero(self, p: sympy.Poly) -> bool:
        return self.reduced(p).is_zero

    def times(self, *factors: sympy.Poly) -> sympy.Poly:
        """The product, reduced modulo Phi_N after each factor."""
        out = ONE
        for p in factors:
            out = self.reduced(out * self.reduced(p))
        return out

    def equal(self, f, pair) -> bool:
        (a, b), (c, d) = self.pair(f), pair
        return self.is_zero(self.times(a, d) - self.times(c, b))

    def step(self, residues, t: int) -> int:
        """The exponent of z of a character's value at the t-th generator."""
        return residues[t] * (self.n // self.factors[t])

    def acted(self, p: sympy.Poly, t: int) -> sympy.Poly:
        """The t-th generator acting on p: each variable times its weight's value."""
        steps = [self.step(w, t) for w in self.weights]
        return sum((term(c, k + e0 * steps[0] + e1 * steps[1], (e0, e1))
                    for (k, e0, e1), c in p.terms()), ZERO)


@st.composite
def models(draw):
    n = draw(st.integers(2, 12))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    factors = (draw(st.sampled_from(divisors)),)
    if n % 2 == 0 and factors[0] <= 6 and draw(st.booleans()):
        factors += (2,)
    weights = [tuple(draw(st.integers(0, q - 1)) for q in factors) for _ in X]
    return Model(n, factors, weights)


@st.composite
def coefficients(draw, model: Model, exps=(0, 0)):
    """(Cyclotomic, its value times x^exps in sympy), at a conductor dividing N."""
    conductor = draw(st.sampled_from([d for d in range(1, model.n + 1) if model.n % d == 0]))
    entries = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                            min_size=euler_phi(conductor), max_size=euler_phi(conductor)))
    return Cyclotomic(entries, conductor), model.entries(entries, conductor, exps)


@st.composite
def polynomials(draw, model: Model, max_terms: int = 3):
    """(SuperPolynomial of degree <= 2 in x0 and <= 1 in x1, its sympy form)."""
    terms, expr = {}, ZERO
    for _ in range(draw(st.integers(1, max_terms))):
        exps = (draw(st.integers(0, 2)), draw(st.integers(0, 1)))
        c, value = draw(coefficients(model, exps))
        if c.is_zero() or SuperMonomial(exps, ()) in terms:
            continue
        terms[SuperMonomial(exps, ())] = c
        expr += value
    return SuperPolynomial(model.sig, terms), expr


@st.composite
def functions(draw, model: Model):
    """(SuperRational, (numerator, denominator) in sympy), the denominator nonzero."""
    num, a = draw(polynomials(model))
    den, b = draw(polynomials(model, 2))
    assume(not den.is_zero() and not model.is_zero(b))
    return SuperRational(num, den), (a, b)


@st.composite
def model_and_functions(draw, count: int):
    model = draw(models())
    return model, [draw(functions(model)) for _ in range(count)]


@EXAMPLES
@given(model_and_functions(2), st.integers(-2, 3))
def test_arithmetic_agrees_with_sympy(drawn, k):
    model, [(f, (a, b)), (g, (c, d))] = drawn
    assert model.equal(f, (a, b))  # the package reads its entries as the model does
    assert model.equal(f + g, (a * d + c * b, b * d))
    assert model.equal(f - g, (a * d - c * b, b * d))
    assert model.equal(f * g, (a * c, b * d))
    if model.is_zero(c):
        assert g.is_zero()
    else:
        assert model.equal(f / g, (a * d, b * c))
    if k >= 0:
        assert model.equal(f ** k, (model.times(*[a] * k), model.times(*[b] * k)))
    elif not model.is_zero(a):
        assert model.equal(f ** k, (model.times(*[b] * -k), model.times(*[a] * -k)))
    assert (f == g) == model.is_zero(a * d - c * b)


def _evaluated(pair, point):
    """(N, D) at ``point``, x -> p/q per variable, both times prod q^d, d the
    largest exponent of x in N and D: so N(point)/D(point) = N'/D', and D' is
    zero exactly where D(point) is."""
    degrees = [max(0, *(p.degree(x) for p in pair)) for x in X]
    powers = [[p ** k * q ** (d - k) for k in range(d + 1)] for (p, q), d in zip(point, degrees)]
    return tuple(sum((term(c, k) * powers[0][e0] * powers[1][e1] for (k, e0, e1), c in p.terms()),
                     ZERO) for p in pair)


@EXAMPLES
@given(model_and_functions(4))
def test_substitute_and_compose_agree_with_sympy(drawn):
    model, [(f0, p0), (f1, p1), (g0, q0), (g1, q1)] = drawn
    images = {"x0": g0, "x1": g1}
    wants = [_evaluated(p, (q0, q1)) for p in (p0, p1)]
    singular = any(model.is_zero(den) for _, den in wants)
    first = SuperMorphism(model.sig, model.sig, images)
    second = SuperMorphism(model.sig, model.sig, {"x0": f0, "x1": f1})
    for evaluate in (lambda: [f.substitute(images) for f in (f0, f1)],
                     lambda: list(compose(second, first).images.values())):
        try:
            got = evaluate()
        except (ZeroDivisionError, GradedError):
            assert singular
        else:
            assert not singular
            assert all(model.equal(h, want) for h, want in zip(got, wants))


@EXAMPLES
@given(model_and_functions(1))
def test_invert_agrees_with_sympy(drawn):
    model, [(f, (a, b))] = drawn
    if model.is_zero(a):
        assert f.is_zero()
    else:
        assert model.equal(f.invert(), (b, a))


@EXAMPLES
@given(model_and_functions(1))
def test_decompose_components_sum_to_f_and_are_homogeneous(drawn):
    model, [(f, (a, b))] = drawn
    parts = f.decompose()
    assert all(not part.is_zero() for part in parts.values())
    by_den: dict = {}  # the components over one denominator summed, per distinct denominator
    for chi, part in parts.items():
        num, den = model.pair(part)
        for t in range(len(model.factors)):  # g.f_chi = chi(g)*f_chi at each generator g
            value = term(1, model.step(chi.residues, t))
            assert model.is_zero(model.acted(num, t) * den - value * num * model.acted(den, t))
        by_den[den] = by_den.get(den, ZERO) + num
    dens = list(by_den)
    total = sum((s * sympy.prod([d for d in dens if d != den], start=ONE)
                 for den, s in by_den.items()), ZERO)
    assert model.is_zero(total * b - a * sympy.prod(dens, start=ONE))


def _read_back(text: str, model: Model) -> tuple[sympy.Poly, sympy.Poly]:
    """``format_expression`` text as sympy reads it: zeta(n,k) = z^(k*N/n), i = z^(N/4)."""
    def zeta(n, k):
        assert model.n % n == 0, (text, model.n)
        return Z ** (k * (model.n // n))

    names = {str(x): x for x in X}
    names.update(zeta=zeta, i=zeta(4, 1) if model.n % 4 == 0 else sympy.Symbol("no_i"))
    value = sympy.parse_expr(re.sub(r"\^", "**", text), local_dict=names)
    assert not value.has(sympy.Symbol("no_i")), text
    return tuple(map(poly, sympy.fraction(sympy.together(value))))


@settings(max_examples=15, derandomize=True, deadline=None)
@given(model_and_functions(1))
def test_format_expression_reads_back_in_sympy(drawn):
    model, [(f, _)] = drawn
    for g in (f, *f.decompose().values()):
        assert model.equal(g, _read_back(format_expression(g), model))


# -- odd variables: the sign rule of ``surviving_pairs`` with sympy coefficients --------


ODD_SIG = SuperSignature(even=("x0", "x1"), odd=("s0", "s1", "s2"))
ODD_SETS = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def _terms(p: SuperPolynomial, model: Model) -> dict:
    return {m: model.coefficient(c) for m, c in p.terms.items()}


def _grassmann_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for mono, flips, c1, c2 in surviving_pairs(a, b):
        out[mono] = out.get(mono, ZERO) + (-1) ** flips * c1 * c2
    return out


def _same_terms(got: dict, want: dict, model: Model) -> bool:
    return all(model.is_zero(got.get(m, ZERO) - want.get(m, ZERO)) for m in got.keys() | want.keys())


@st.composite
def odd_operands(draw):
    model = Model(draw(st.sampled_from([1, 3, 4, 5, 8, 12])), (2,), [(0,), (0,)])
    operands = []
    for _ in range(2):
        terms = {}
        for _ in range(draw(st.integers(1, 5))):
            mono = SuperMonomial((draw(st.integers(0, 2)), draw(st.integers(0, 1))),
                                 draw(st.sampled_from(ODD_SETS)))
            c, _ = draw(coefficients(model))
            if not c.is_zero():
                terms[mono] = c
        operands.append(SuperPolynomial(ODD_SIG, terms))
    return model, operands


@settings(max_examples=40, derandomize=True, deadline=None)
@given(odd_operands())
def test_odd_products_and_nilpotent_inverses_follow_the_sign_rule(drawn):
    model, (a, b) = drawn
    want = _grassmann_product(_terms(a, model), _terms(b, model))
    assert _same_terms(_terms(a * b, model), want, model)
    # N = E + n, E even and nonzero, n nilpotent: N.invert() is P/Q with Q
    # even, and P*N = Q in the Grassmann algebra
    f = b + SuperPolynomial(ODD_SIG, {SuperMonomial((0, 0), ()): Cyclotomic([Fraction(7, 2)])})
    if not f.even_part().is_zero():
        inv = SuperRational(f).invert()
        got = _grassmann_product(_terms(inv.numerator, model), _terms(f, model))
        assert _same_terms(got, _terms(inv.denominator, model), model)
