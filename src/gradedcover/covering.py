"""Graded coverings of superdomains and supermanifold atlases.

The covering of a superdomain with coordinates (x_i, xi_j) replaces each
commuting coordinate by one graded copy x_i@g per even-parity weight g
and each anticommuting one by a copy per odd-parity weight, and projects
by sending every coordinate to the sum of its copies.  Morphisms between
superdomains lift uniquely to the coverings, and lifting an atlas chart
by chart turns a supermanifold atlas into a graded one: ``lift_atlas``
builds each chart's covering signature and projection once, and lifts
every transition against them through the one lift path ``_lift``, which
``lift_super`` and ``lift_mixed`` take too.  ``_lift`` decomposes all
images of a transition together, so a shared denominator is normed once,
and builds the lift from that split unchecked.
The charts' coverings, of one dimension, differ only in names, which the
norm and the weight split never read, so ``lift_atlas`` norms each distinct
denominator, and splits each numerator over it, once per atlas.

A graded morphism into a covering is fixed by its projection, whose
homogeneous parts are its images, so lifting is functorial and a lifted
atlas satisfies the cocycle identities exactly when its base atlas does;
``check_cocycle`` checks lifted atlases that way.  ``covering_signature``
builds a covering by one weight layout, ``_layout``, by which alone, never
by its names, ``_base_signature`` recognises one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .algebra import GradedSignature, SuperMonomial, SuperPolynomial, SuperRational
from .algebra import SuperSignature, _components, restrict_terms
from .cyclotomic import _restore
from .errors import CoveringError, GradedError, SignatureMismatchError
from .expressions import format_expression
from .groups import Character, FiniteAbelianGroup, ParityMap
from .morphisms import GradedMorphism, SuperMorphism, compose


def graded_copy_name(base: str, weight: Character) -> str:
    return f"{base}@{weight}"


def _layout(group: FiniteAbelianGroup, parity: ParityMap) -> tuple[tuple, tuple]:
    """Per parity, the weights of one coordinate's graded copies: the group's
    characters of that parity, in character order."""
    chars = group.characters()
    return tuple(tuple(chi for chi in chars if parity(chi) == bit) for bit in (0, 1))


def covering_signature(
    signature: SuperSignature, group: FiniteAbelianGroup, parity: ParityMap
) -> GradedSignature:
    """One graded copy of every coordinate per weight of matching parity."""
    if parity.group != group:
        raise ValueError("parity map belongs to a different group")
    runs = _layout(group, parity)
    if signature.odd and not runs[1]:
        raise CoveringError(
            "no odd-parity weights exist, so the anticommuting coordinates "
            f"{list(signature.odd)} would have no graded copies"
        )
    even, odd = (
        [(graded_copy_name(name, chi), chi) for name in names for chi in run]
        for names, run in zip((signature.even, signature.odd), runs)
    )
    return GradedSignature(group, parity, even, odd)


def _copies(base: SuperSignature, cover: GradedSignature) -> list[list]:
    """Per parity, [(coordinate, [(copy, weight), ...])] for ``base``, read off
    a chart of its covering's ``_layout``, which lists its copies together."""
    layout = []
    for names, copies in ((base.even, [*zip(cover.even, cover.even_weights)]),
                          (base.odd, [*zip(cover.odd, cover.odd_weights)])):
        k = len(copies) // max(len(names), 1)
        layout.append([(name, copies[i * k:(i + 1) * k]) for i, name in enumerate(names)])
    return layout


def covering_map(
    signature: SuperSignature, group: FiniteAbelianGroup, parity: ParityMap
) -> SuperMorphism:
    """The projection: each coordinate pulls back to the sum of its copies."""
    return _projection(signature, covering_signature(signature, group, parity))


def _projection(signature: SuperSignature, cover: GradedSignature) -> SuperMorphism:
    """``covering_map`` of ``signature``, given its ``covering_signature``."""
    images = {}
    for part in _copies(signature, cover):
        for name, copies in part:
            terms = {}  # one monomial with coefficient 1 per copy
            for copy, _ in copies:
                terms.update(SuperPolynomial.variable(cover, copy).terms)
            images[name] = SuperRational(SuperPolynomial._raw(cover, terms))
    return SuperMorphism(cover, signature, images)


def lift_mixed(phi: SuperMorphism) -> GradedMorphism:
    """Lift a morphism from a graded domain into a superdomain.

    The image of the graded copy y@g is the weight-g component of the
    image of y; the lift is the unique graded morphism through which phi
    factors via the covering projection.
    """
    source = phi.source
    if not isinstance(source, GradedSignature):
        raise TypeError("the morphism must start from a graded domain")
    return _lift(phi, covering_signature(phi.target, source.group, source.parity))


def _lift(phi: SuperMorphism, cover: GradedSignature, seen: list | None = None) -> GradedMorphism:
    """``lift_mixed`` of phi, given the covering signature of its target:
    images that share a denominator norm it once in one ``_components``.
    Built unchecked, as unpickling builds it, since ``GradedMorphism``'s
    checks hold: ``_copies`` gives each copy y@chi of ``cover`` an image over
    phi.source, zero or the bucket of weight chi of phi's image N/D of y:
    the terms of N*C of one weight over D*C, termwise homogeneous (C = 1 if
    D is), so ``_components`` of it is itself, of weight chi.  It has y's
    parity, which is y@chi's (odd coordinates take odd-parity copies), as N
    has it and C is even.
    """
    layout = [entry for part in _copies(phi.target, cover) for entry in part]
    components = _components([phi.images[name] for name, _ in layout], seen)
    zero = SuperRational.zero(phi.source)
    images = {copy: parts.get(chi, zero)
              for (_, copies), parts in zip(layout, components) for copy, chi in copies}
    return _restore(GradedMorphism, (phi.source, cover, images))


def lift_super(
    psi: SuperMorphism, group: FiniteAbelianGroup, parity: ParityMap
) -> GradedMorphism:
    """Lift a morphism of superdomains to the graded coverings.

    Built as the lift of psi composed with the source covering projection
    p; the lifted morphism makes the covering square commute exactly.  The
    composite always exists.  p preserves parity and its target is psi's
    source, so ``compose`` finds the signatures and parities it checks.  A
    denominator D of psi is even, non-zero and free of odd variables;
    setting every copy but x@(0), of identity weight, to 0 turns D(p) back
    into D, so D(p) is non-zero and even, and ``invert`` inverts it.
    """
    phi = compose(psi, covering_map(psi.source, group, parity))
    return _lift(phi, covering_signature(psi.target, group, parity))


# -- atlases ------------------------------------------------------------


@dataclass
class Atlas:
    """Charts plus transition morphisms between them.

    ``transitions[(a, b)]`` maps chart ``a`` into chart ``b``: its images
    express the coordinates of ``b`` over the coordinates of ``a``.
    """

    charts: dict[str, SuperSignature]
    transitions: dict[tuple[str, str], SuperMorphism] = field(default_factory=dict)

    def __post_init__(self):
        for (src, dst), morphism in self.transitions.items():
            if src not in self.charts or dst not in self.charts:
                raise ValueError(f"transition {src}->{dst} names an unknown chart")
            if morphism.source != self.charts[src] or morphism.target != self.charts[dst]:
                raise SignatureMismatchError(
                    f"transition {src}->{dst} does not match its chart signatures"
                )


@dataclass
class CocycleFailure:
    kind: str  # "missing-reverse" | "self" | "pair" | "triple" | "singular"
    charts: tuple[str, ...]
    detail: str
    residual: dict[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        chain = "->".join(self.charts)
        text = f"{self.kind} on ({chain}): {self.detail}"
        for var, expr in sorted(self.residual.items()):
            text += f"\n    {var} = {expr}"
        return text


@dataclass
class CocycleReport:
    ok: bool
    failures: list[CocycleFailure]
    note: str = (
        "identities checked as formal rational identities, ignoring overlap domains"
    )

    def describe(self) -> str:
        if self.ok:
            return f"cocycle check passed ({self.note})"
        lines = [f"cocycle check FAILED ({self.note})"]
        lines.extend("  " + f.describe() for f in self.failures)
        return "\n".join(lines)


def _residual(morphism: SuperMorphism) -> dict[str, str]:
    """The images of an endomorphism that are not their own variable, printed
    through one ``format_expression`` memo: a shared denominator renders once."""
    texts: dict = {}
    return {name: format_expression(morphism.images[name], texts) for name in morphism._moved()}


def check_cocycle(atlas: Atlas) -> CocycleReport:
    """Verify that transitions invert pairwise and close on triples.

    A lifted atlas, every chart of a covering's weight layout under one
    grading whatever its names (``_base_signature``), is checked by descent:

    1. psi_ab = p_B o G_ab o s_A, where the section s_A keeps each
       coordinate's first copy, of identity weight if even and of the first
       odd-parity weight if odd, as the base coordinate it names, and sends
       every other copy to 0.  It is applied termwise to the sum of the
       copies' images, and the common monomial factor is cancelled.
    2. G_ab = lift(psi_ab), because homogeneous parts are unique, if every
       image has termwise homogeneous numerator and denominator of its
       variable's weight and the copies of y sum to psi_ab(y) o p_A.
    3. The base atlas of the psi_ab passes the direct check, missing
       reverses and self-transitions included, so every lifted composite
       is the lift of the identity.

    Any other atlas, a failed step, or a ``GradedError`` or
    ``ZeroDivisionError`` on the way falls back to the direct check.

    No lifted composite is singular (its substituted denominator has zero
    body, the reduction modulo odd variables) when the base passes.  The
    body commutes with the projection's pullback, the group action and
    products, so the body F of a lift is the lift of the body f of psi.
    A passing base has mutually inverse bodies, so f is birational, and so
    is F: L o F = (f x ... x f) o L for the injective linear L(v) =
    (p(g.v)) over the group.  No nonzero denominator vanishes identically
    along a dominant map, however it is written.
    """
    base = _base_atlas(atlas)
    if base is not None and _check_cocycle_direct(base).ok:
        return CocycleReport(ok=True, failures=[])
    return _check_cocycle_direct(atlas)


def _base_signature(chart: SuperSignature) -> SuperSignature | None:
    """The plain signature that ``chart`` is a covering of, else None: its
    weights of each parity repeat that parity's run of ``_layout`` whole, one
    run per coordinate, named by the run's first copy.  No name is read."""
    if not isinstance(chart, GradedSignature):
        return None
    names = []
    for run, copies, weights in zip(_layout(chart.group, chart.parity), (chart.even, chart.odd),
                                    (chart.even_weights, chart.odd_weights)):
        k = max(len(run), 1)  # no odd-parity weights: no odd copies
        if weights != run * (len(weights) // k):
            return None
        names.append(copies[::k])
    return SuperSignature(*names)


def _base_atlas(atlas: Atlas) -> Atlas | None:
    """The atlas whose lift ``atlas`` is proved to be, else None."""
    charts = {cid: _base_signature(sig) for cid, sig in atlas.charts.items()}
    if None in charts.values():
        return None
    gradings = [(sig.group, sig.parity) for sig in atlas.charts.values()]
    if any(grading != gradings[0] for grading in gradings):
        return None
    projections = {cid: _projection(charts[cid], sig) for cid, sig in atlas.charts.items()}
    transitions = {}
    try:
        for (a, b), lifted in atlas.transitions.items():
            psi = _descend(lifted, projections[a], charts[b])
            if psi is None:
                return None
            transitions[(a, b)] = psi
    except (GradedError, ZeroDivisionError):
        return None
    return Atlas(charts=charts, transitions=transitions)


def _descend(
    lifted: SuperMorphism, projection: SuperMorphism, target: SuperSignature
) -> SuperMorphism | None:
    """psi = p_B o lifted o s_A when lifted = lift(psi) is proved, else None;
    ``projection`` is p_A."""
    cover, source = lifted.source, projection.target
    # each coordinate's first copy: x@(0), or the first odd-parity copy
    keep = {
        copies[0][0]: k for part in _copies(source, cover) for k, (_, copies) in enumerate(part)
    }
    section = ([keep.get(n) for n in cover.even], [keep.get(n) for n in cover.odd])
    totals, images = {}, {}
    dens = {id(img.denominator): img.denominator for img in lifted.images.values()}
    weights = {key: den.termwise_weight() for key, den in dens.items()}  # copies share one
    for part in _copies(target, lifted.target):
        for name, copies in part:
            total = SuperRational.zero(cover)
            for copy, chi in copies:
                img = lifted.images[copy]
                if not img.is_zero():
                    num_weight = img.numerator.termwise_weight()
                    den_weight = weights[id(img.denominator)]
                    if None in (num_weight, den_weight) or num_weight != chi * den_weight:
                        return None
                total = total + img
            totals[name] = total
            images[name] = _cancel_content(*(
                restrict_terms(p, source, *section) for p in (total.numerator, total.denominator)
            ))
    psi = SuperMorphism(source, target, images)
    projected = compose(psi, projection)
    if all(totals[name] == projected.images[name] for name in totals):
        return psi
    return None


def _cancel_content(num: SuperPolynomial, den: SuperPolynomial) -> SuperRational:
    """num/den with the monomial factor common to all their terms divided out."""
    monos = [*num.terms, *den.terms]
    low = [min(exps) for exps in zip(*(m.even for m in monos))]
    if any(low):
        num, den = (
            SuperPolynomial(p.signature, {
                SuperMonomial(tuple(e - k for e, k in zip(m.even, low)), m.odd): c
                for m, c in p.terms.items()
            })
            for p in (num, den)
        )
    return SuperRational(num, den)


def _check_cocycle_direct(atlas: Atlas) -> CocycleReport:
    """Compare each self-transition a->a, and the composite of every pair and
    triple of transitions, with the identity."""
    failures: list[CocycleFailure] = []

    def check(chain: tuple[str, ...], kind: str, detail: str):
        """Compose along consecutive chart ids; a singular composite, or one
        with a residual (computed once), is a failure."""
        try:
            total = None
            for src, dst in zip(chain, chain[1:]):
                leg = atlas.transitions[(src, dst)]
                total = leg if total is None else compose(leg, total)
        except GradedError as exc:
            failures.append(
                CocycleFailure("singular", chain, f"composition undefined: {exc}")
            )
            return
        residual = _residual(total)
        if residual:
            failures.append(CocycleFailure(kind, chain[:-1], detail, residual))

    for a, b in sorted(atlas.transitions):
        if (b, a) not in atlas.transitions:
            failures.append(
                CocycleFailure(
                    "missing-reverse", (a, b), f"no transition {b}->{a} declared"
                )
            )

    for a, b in sorted(atlas.transitions):
        if a == b:
            check((a, a), "self", "self-transition is not the identity")
        if a >= b or (b, a) not in atlas.transitions:
            continue
        for chain in ((a, b, a), (b, a, b)):
            check(chain, "pair", "round trip is not the identity")

    for a, b, c in combinations(sorted(atlas.charts), 3):
        chain = (a, b, c, a)
        if all(leg in atlas.transitions for leg in zip(chain, chain[1:])):
            check(chain, "triple", "cyclic composite is not the identity")

    return CocycleReport(ok=not failures, failures=failures)


def lift_atlas(atlas: Atlas, group: FiniteAbelianGroup, parity: ParityMap) -> Atlas:
    """Apply the covering construction to every chart and transition; the
    transitions share one ``_components`` lookup, kept for this call only."""
    report = check_cocycle(atlas)
    if not report.ok:
        raise CoveringError(
            "input atlas fails the cocycle check:\n" + report.describe()
        )
    charts = {
        cid: covering_signature(sig, group, parity)
        for cid, sig in atlas.charts.items()
    }
    projections = {cid: _projection(atlas.charts[cid], cover) for cid, cover in charts.items()}
    seen: list = []  # the norms and numerator splits of all the transitions
    transitions = {  # lift_super of each, against the covering of each chart built once
        (a, b): _lift(compose(psi, projections[a]), charts[b], seen)
        for (a, b), psi in atlas.transitions.items()
    }
    return Atlas(charts=charts, transitions=transitions)
