"""Shared builders for randomized checks.

Everything draws from an explicit ``random.Random`` so failures reproduce.
"""

from __future__ import annotations

import functools
import operator
import random
from fractions import Fraction

from gradedcover import (
    Character,
    FiniteAbelianGroup,
    GradedSignature,
    ParityMap,
    SuperMonomial,
    SuperMorphism,
    SuperPolynomial,
    SuperRational,
    SuperSignature,
    make_group,
    root_of_unity,
)
from gradedcover import algebra

NINES = "9" * 4300  # the longest literal that reads as an int

CP1_ATLAS = {  # P^1
    "charts": {"0": {"even": ["x"], "odd": []}, "1": {"even": ["y"], "odd": []}},
    "transitions": {"0->1": {"y": "1/x"}, "1->0": {"x": "1/y"}},
}
NONSPLIT_ATLAS = {  # P^{1|2} with odd coordinates that scale by 1/x^2: not split
    "charts": {"0": {"even": ["x"], "odd": ["a", "b"]}, "1": {"even": ["y"], "odd": ["c", "d"]}},
    "transitions": {"0->1": {"y": "1/x + a*b/x^3", "c": "a/x^2", "d": "b/x^2"},
                    "1->0": {"x": "1/y + c*d/y^3", "a": "c/y^2", "b": "d/y^2"}},
}

# the vocabulary of token-soup texts: every kind of token, valid or not
SOUP_TOKENS = [
    "x@0", "y@2", "s@1", "t@3", "w", "x@(0)", "0", "1", "2", "7", NINES, "1" * 4301,
    "i", "zeta(3,1)", "zeta(4096,5)", "zeta(4097,1)", "zeta(0,1)", "zeta(12,",
    "+", "-", "*", "/", "^", "^0", "^2", "^99999999", "^" + NINES,
    "(", ")", ",", "@", " ",
]


def random_group(rng: random.Random, max_order: int = 12) -> FiniteAbelianGroup:
    factors = [rng.choice([2, 2, 3, 4])]
    order = factors[0]
    while rng.random() < 0.5:
        q = rng.choice([2, 2, 3, 4])
        if order * q > max_order:
            break
        factors.append(q)
        order *= q
    return make_group(factors)


def random_parity(rng: random.Random, group: FiniteAbelianGroup) -> ParityMap:
    bits = tuple(rng.randint(0, 1) if q % 2 == 0 else 0 for q in group.factors)
    return ParityMap(group, bits)


def random_signature(
    rng: random.Random,
    group: FiniteAbelianGroup,
    parity: ParityMap,
    max_even: int = 3,
    max_odd: int = 3,
) -> GradedSignature:
    even_weights = [chi for chi in group.characters() if parity(chi) == 0]
    odd_weights = [chi for chi in group.characters() if parity(chi) == 1]
    n_even = rng.randint(1, max_even)
    n_odd = rng.randint(0, max_odd) if odd_weights else 0
    even = [(f"x{k}", rng.choice(even_weights)) for k in range(n_even)]
    odd = [(f"s{k}", rng.choice(odd_weights)) for k in range(n_odd)]
    return GradedSignature(group, parity, even, odd)


def random_coefficient(rng: random.Random, group: FiniteAbelianGroup | None = None):
    q = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
    if q == 0:
        q = Fraction(1)
    if group is not None and rng.random() < 0.3:
        n = group.exponent
        return root_of_unity(n, rng.randrange(n)) * q
    return q


def random_polynomial(
    rng: random.Random,
    sig: GradedSignature,
    max_terms: int = 3,
    max_degree: int = 4,
    with_odd: bool = True,
    nonzero: bool = False,
) -> SuperPolynomial:
    group = sig.group if isinstance(sig, GradedSignature) else None
    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            budget = rng.randint(0, max_degree)
            evens = [0] * len(sig.even)
            for _ in range(budget):
                if not evens:
                    break
                evens[rng.randrange(len(evens))] += 1
            odd = ()
            if with_odd and sig.odd and rng.random() < 0.6:
                size = rng.randint(1, len(sig.odd))
                odd = tuple(sorted(rng.sample(range(len(sig.odd)), size)))
            mono = SuperMonomial(tuple(evens), odd)
            terms[mono] = random_coefficient(rng, group)
        poly = SuperPolynomial(sig, terms)
        if not nonzero or not poly.is_zero():
            return poly


def random_rational(
    rng: random.Random,
    sig: GradedSignature,
    max_terms: int = 3,
    max_degree: int = 4,
) -> SuperRational:
    num = random_polynomial(rng, sig, max_terms=max_terms, max_degree=max_degree)
    den = random_polynomial(
        rng, sig, max_terms=2, max_degree=2, with_odd=False, nonzero=True
    )
    return SuperRational(num, den)


def random_polynomial_morphism(
    rng: random.Random,
    source: SuperSignature,
    target: SuperSignature,
    max_degree: int = 2,
) -> SuperMorphism:
    """Polynomial images of the right parity; no invertibility promised."""
    images = {}
    for name in target.even:
        poly = _parity_poly(rng, source, 0, max_degree)
        images[name] = SuperRational(poly)
    for name in target.odd:
        poly = _parity_poly(rng, source, 1, max_degree)
        images[name] = SuperRational(poly)
    return SuperMorphism(source, target, images)


def _parity_poly(rng, sig, parity_bit, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        evens = [0] * len(sig.even)
        for _ in range(rng.randint(0, max_degree)):
            if evens:
                evens[rng.randrange(len(evens))] += 1
        if parity_bit == 0:
            choices = [()] + (
                [tuple(sorted(rng.sample(range(len(sig.odd)), 2)))]
                if len(sig.odd) >= 2
                else []
            )
            odd = rng.choice(choices)
        else:
            if not sig.odd:
                continue
            odd = (rng.randrange(len(sig.odd)),)
        terms[SuperMonomial(tuple(evens), odd)] = random_coefficient(rng)
    return SuperPolynomial(sig, terms)


def sum_components(components, sig) -> SuperRational:
    total = SuperRational.zero(sig)
    for part in components.values():
        total = total + part
    return total


def unpacked_tower(tower, sig) -> list[SuperPolynomial]:
    """The packed cofactors of ``_orbit_tower`` (``_normed()[0]``), each
    unpacked into a polynomial over ``sig``."""
    n, codec, _, cofactors = tower
    return [SuperPolynomial._raw(sig, algebra._unpacked(c, n, codec)) for c in cofactors]


def cofactor_terms(terms, js, p):
    """``_cofactor`` of P = ``terms``, j_m given by ``js`` in ``terms`` order:
    P packed at its conductor in a codec that holds the product of p - 1 copies
    of P, and the packed cofactor unpacked."""
    n = algebra._conductor(c.conductor for c in terms.values() if not c.is_rational())
    top = max(max((e for m in terms for e in m.even), default=0), algebra._reducer(n)[0] - 1)
    codec = algebra._codec(len(next(iter(terms)).even), (p - 1) * top)
    j = dict(zip(map(codec.pack, terms), js))
    return algebra._unpacked(algebra._cofactor(algebra._pack(terms, n, codec), j, p, n, codec),
                             n, codec)


def entries(c) -> tuple[Fraction, ...]:
    """A ``Cyclotomic``'s power-basis entries ``num[k]/den``, as Fractions."""
    return tuple(Fraction(x, c.den) for x in c.num)


def nested_residue_weight(sig, mono) -> Character:
    """A monomial's weight by the nested residue loop the per-factor rows replace."""
    acc = [0] * sig.group.rank
    for i, e in enumerate(mono.even):
        if e:
            for t, r in enumerate(sig.even_weights[i].residues):
                acc[t] += e * r
    for j in mono.odd:
        for t, r in enumerate(sig.odd_weights[j].residues):
            acc[t] += r
    return Character(sig.group, tuple(a % q for a, q in zip(acc, sig.group.factors)))


def reference_components(f) -> dict:
    """``decompose`` of f by the route the packed pass replaced: the tower's
    cofactors unpacked, the numerator times each in turn (``reduce(mul, ...)``),
    and the product split termwise by ``nested_residue_weight``; over a termwise
    homogeneous D of weight d, N alone split, each weight over d."""
    sig, den = f.signature, f.denominator
    d = den.termwise_weight()
    if d is None:
        tower, normed = f._normed()
        num = functools.reduce(operator.mul, unpacked_tower(tower, sig), f.numerator)
        shift = sig.group.identity_character
    else:
        num, normed, shift = f.numerator, den, d.inverse()
    parts: dict = {}
    for mono, c in num.terms.items():
        parts.setdefault(nested_residue_weight(sig, mono) * shift, {})[mono] = c
    return {chi: SuperRational._of(SuperPolynomial._raw(sig, parts[chi]), normed)
            for chi in sorted(parts, key=lambda chi: chi.residues)}


def assert_components_match_the_reference(f, got: dict):
    """``got``, f's components, against ``reference_components``: one weight
    order, and each numerator and denominator the same monomials in the same
    order with equal coefficients.  A rational coefficient may be stored at
    another conductor: it prints by its value."""
    want = reference_components(f)
    assert list(got) == list(want)
    for chi, part in got.items():
        for a, b in ((part.numerator, want[chi].numerator), (part.denominator, want[chi].denominator)):
            assert list(a.terms.items()) == list(b.terms.items())
