"""What the traced run wraps, and the per-layer metrics it reports.

Layers are the package's modules.  Metric names are
``<module>.<call>.<measure>``; counts and self times are divided by the
number of CLI operations traced, so they do not grow with run length.
"""

from __future__ import annotations


def _terms(f) -> int:
    """Terms of a polynomial, or of numerator plus denominator of a rational."""
    if hasattr(f, "terms"):
        return len(f.terms)
    return len(f.numerator.terms) + len(f.denominator.terms)


def _degree(f) -> int:
    polys = [f] if hasattr(f, "terms") else [f.numerator, f.denominator]
    return max((m.degree() for p in polys for m in p.terms), default=0)


def _rational(c) -> bool:
    return not hasattr(c, "coeffs") or not any(c.coeffs[1:])


def _mul(t, args, kwargs, result):
    a, b = args
    if result is NotImplemented:
        return
    cb = getattr(b, "conductor", 1)
    if max(a.conductor, cb) > 1 and _rational(a) and _rational(b):
        t.count("cyclotomic.mul.rational")
    if hasattr(b, "conductor") and cb != a.conductor:
        t.count("cyclotomic.mul.cross")
    t.peak("cyclotomic.mul.conductor_max", result.conductor)


def _lift(t, args, kwargs, result):
    if args[1] != args[0].conductor:
        t.count("cyclotomic.lift.cross")


def _poly_mul(t, args, kwargs, result):
    if result is NotImplemented:
        return
    a, b = args
    t.count("algebra.poly_mul.term_pairs",
            len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1))
    t.count("algebra.poly_mul.terms_out", len(result.terms))


def _normed(t, args, kwargs, result):
    before = _degree(args[0].denominator)
    after = _degree(result[1])
    # the twists of D all have D's degree, so the orbit size is a degree ratio
    t.peak("algebra.normed.orbit_size_max", after // before if before else 1)


def _sizes(prefix):
    def hook(t, args, kwargs, result):
        t.count(f"{prefix}.terms_in", _terms(args[0]))
        outs = result.values() if isinstance(result, dict) else [result]
        for f in outs:
            t.count(f"{prefix}.terms_out", _terms(f))
            t.peak(f"{prefix}.degree_max", _degree(f))
    return hook


def _eq(t, args, kwargs, result):
    a, b = args
    if result is not NotImplemented and hasattr(b, "denominator"):
        if a.signature == b.signature and a.denominator == b.denominator:
            t.count("algebra.eq.shared_den")


def _compose(t, args, kwargs, result):
    second = args[0]
    t.count("morphisms.compose.terms_in", sum(_terms(f) for f in second.images.values()))
    for f in result.images.values():
        t.count("morphisms.compose.terms_out", _terms(f))
        t.peak("morphisms.compose.degree_max", _degree(f))


def _check_cocycle(t, args, kwargs, result):
    legs = set(args[0].transitions)
    ids = sorted(args[0].charts)
    pairs = sum(1 for a, b in legs if a < b and (b, a) in legs)
    triples = sum(
        1
        for i, a in enumerate(ids) for j, b in enumerate(ids[i + 1:], i + 1) for c in ids[j + 1:]
        if {(a, b), (b, c), (c, a)} <= legs
    )
    t.count("covering.check_cocycle.chains", 2 * pairs + triples)


def _parse(t, args, kwargs, result):
    t.count("expressions.parse.chars_in", len(args[0]))


def _format(t, args, kwargs, result):
    t.count("expressions.format.chars_out", len(result))
    t.count("expressions.format.terms_in", _terms(args[0]))
    t.peak("expressions.format.degree_max", _degree(args[0]))


def targets():
    """(owner, attribute, span name, hook, hot) for every traced call.

    Hot calls are aggregated into their enclosing span instead of
    recording one span each.
    """
    from gradedcover import algebra, cli, covering, cyclotomic, expressions, groups, morphisms

    Cyc, Poly, Rat = cyclotomic.Cyclotomic, algebra.SuperPolynomial, algebra.SuperRational
    return [
        (Cyc, "__mul__", "cyclotomic.mul", _mul, True),
        (Cyc, "__add__", "cyclotomic.add", None, True),
        (Cyc, "lift", "cyclotomic.lift", _lift, True),
        (cyclotomic, "root_of_unity", "cyclotomic.root_of_unity", None, True),
        (groups.Character, "__call__", "groups.character", None, True),
        (Poly, "__mul__", "algebra.poly_mul", _poly_mul, True),
        (Rat, "_normed", "algebra.normed", _normed, False),
        (Rat, "decompose", "algebra.decompose", _sizes("algebra.decompose"), False),
        (Rat, "substitute", "algebra.substitute", _sizes("algebra.substitute"), False),
        (Rat, "invert", "algebra.invert", None, False),
        (Rat, "__eq__", "algebra.eq", _eq, False),
        (morphisms, "compose", "morphisms.compose", _compose, False),
        (morphisms.SuperMorphism, "__init__", "morphisms.validate", None, False),
        (morphisms.GradedMorphism, "__init__", "morphisms.validate", None, False),
        (covering, "lift_atlas", "covering.lift_atlas", None, False),
        (covering, "lift_super", "covering.lift_super", None, False),
        (covering, "lift_mixed", "covering.lift_mixed", None, False),
        (covering, "check_cocycle", "covering.check_cocycle", _check_cocycle, False),
        (expressions, "parse_expression", "expressions.parse", _parse, False),
        (expressions, "format_expression", "expressions.format", _format, False),
        (cli, "main", "cli.main", None, False),
        (cli, "load_atlas", "cli.load_atlas", None, False),
    ]


# (metric, unit, source): source is ("calls"|"self_s"|"count", name),
# ("max", name) or ("share", numerator count, denominator calls).
PER_OP = "1/op"
METRICS = [
    ("cyclotomic.mul.calls", PER_OP, ("calls", "cyclotomic.mul")),
    ("cyclotomic.mul.self_s", "s/op", ("self_s", "cyclotomic.mul")),
    ("cyclotomic.mul.rational_share", "ratio", ("share", "cyclotomic.mul.rational", "cyclotomic.mul")),
    ("cyclotomic.mul.cross_share", "ratio", ("share", "cyclotomic.mul.cross", "cyclotomic.mul")),
    ("cyclotomic.mul.conductor_max", "count", ("max", "cyclotomic.mul.conductor_max")),
    ("cyclotomic.add.calls", PER_OP, ("calls", "cyclotomic.add")),
    ("cyclotomic.add.self_s", "s/op", ("self_s", "cyclotomic.add")),
    ("cyclotomic.lift.calls", PER_OP, ("count", "cyclotomic.lift.cross")),
    ("cyclotomic.root_of_unity.calls", PER_OP, ("calls", "cyclotomic.root_of_unity")),
    ("cyclotomic.root_of_unity.self_s", "s/op", ("self_s", "cyclotomic.root_of_unity")),
    ("groups.character.calls", PER_OP, ("calls", "groups.character")),
    ("algebra.poly_mul.calls", PER_OP, ("calls", "algebra.poly_mul")),
    ("algebra.poly_mul.self_s", "s/op", ("self_s", "algebra.poly_mul")),
    ("algebra.poly_mul.term_pairs", PER_OP, ("count", "algebra.poly_mul.term_pairs")),
    ("algebra.poly_mul.terms_out", PER_OP, ("count", "algebra.poly_mul.terms_out")),
    ("algebra.normed.calls", PER_OP, ("calls", "algebra.normed")),
    ("algebra.normed.self_s", "s/op", ("self_s", "algebra.normed")),
    ("algebra.normed.orbit_size_max", "count", ("max", "algebra.normed.orbit_size_max")),
    ("algebra.decompose.calls", PER_OP, ("calls", "algebra.decompose")),
    ("algebra.decompose.self_s", "s/op", ("self_s", "algebra.decompose")),
    ("algebra.decompose.terms_in", PER_OP, ("count", "algebra.decompose.terms_in")),
    ("algebra.decompose.terms_out", PER_OP, ("count", "algebra.decompose.terms_out")),
    ("algebra.decompose.degree_max", "count", ("max", "algebra.decompose.degree_max")),
    ("algebra.substitute.calls", PER_OP, ("calls", "algebra.substitute")),
    ("algebra.substitute.self_s", "s/op", ("self_s", "algebra.substitute")),
    ("algebra.substitute.terms_in", PER_OP, ("count", "algebra.substitute.terms_in")),
    ("algebra.substitute.terms_out", PER_OP, ("count", "algebra.substitute.terms_out")),
    ("algebra.substitute.degree_max", "count", ("max", "algebra.substitute.degree_max")),
    ("algebra.invert.calls", PER_OP, ("calls", "algebra.invert")),
    ("algebra.invert.self_s", "s/op", ("self_s", "algebra.invert")),
    ("algebra.eq.calls", PER_OP, ("calls", "algebra.eq")),
    ("algebra.eq.self_s", "s/op", ("self_s", "algebra.eq")),
    ("algebra.eq.shared_den_share", "ratio", ("share", "algebra.eq.shared_den", "algebra.eq")),
    ("morphisms.compose.calls", PER_OP, ("calls", "morphisms.compose")),
    ("morphisms.compose.self_s", "s/op", ("self_s", "morphisms.compose")),
    ("morphisms.compose.terms_in", PER_OP, ("count", "morphisms.compose.terms_in")),
    ("morphisms.compose.terms_out", PER_OP, ("count", "morphisms.compose.terms_out")),
    ("morphisms.compose.degree_max", "count", ("max", "morphisms.compose.degree_max")),
    ("morphisms.validate.self_s", "s/op", ("self_s", "morphisms.validate")),
    ("covering.lift_super.calls", PER_OP, ("calls", "covering.lift_super")),
    ("covering.lift_super.self_s", "s/op", ("self_s", "covering.lift_super")),
    ("covering.lift_mixed.self_s", "s/op", ("self_s", "covering.lift_mixed")),
    ("covering.check_cocycle.self_s", "s/op", ("self_s", "covering.check_cocycle")),
    ("covering.check_cocycle.chains", PER_OP, ("count", "covering.check_cocycle.chains")),
    ("expressions.parse.calls", PER_OP, ("calls", "expressions.parse")),
    ("expressions.parse.self_s", "s/op", ("self_s", "expressions.parse")),
    ("expressions.parse.chars_in", PER_OP, ("count", "expressions.parse.chars_in")),
    ("expressions.format.calls", PER_OP, ("calls", "expressions.format")),
    ("expressions.format.self_s", "s/op", ("self_s", "expressions.format")),
    ("expressions.format.chars_out", PER_OP, ("count", "expressions.format.chars_out")),
    ("expressions.format.terms_in", PER_OP, ("count", "expressions.format.terms_in")),
    ("expressions.format.degree_max", "count", ("max", "expressions.format.degree_max")),
    ("cli.main.self_s", "s/op", ("self_s", "cli.main")),
    ("cli.load_atlas.self_s", "s/op", ("self_s", "cli.load_atlas")),
]
OVERHEAD = ("trace.overhead_frac", "ratio")


def raw(tracer) -> dict:
    """The tracer's totals as plain JSON data."""
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "count": dict(tracer.counts),
        "max": dict(tracer.maxima),
    }


def metrics(raw_totals: list[dict], ops: int) -> dict:
    """Per-layer metrics from the totals of one or more traced workers."""
    def total(kind, name):
        return sum(r[kind].get(name, 0) for r in raw_totals)

    out = {}
    for metric, unit, source in METRICS:
        kind = source[0]
        if kind == "max":
            value = max((r["max"].get(source[1], 0) for r in raw_totals), default=0)
        elif kind == "share":
            calls = total("calls", source[2])
            value = total("count", source[1]) / calls if calls else 0.0
        else:
            value = total(kind, source[1]) / ops
        out[metric] = {"value": value, "unit": unit}
    return out
