"""Covering signatures, projections, unique lifts, and atlas machinery."""

import functools
import hashlib
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

from gradedcover import covering, expressions, morphisms
from gradedcover.cli import dump_atlas, load_atlas, main
from gradedcover import (
    Atlas,
    CoveringError,
    GradedError,
    GradedMorphism,
    GradedSignature,
    ParityMap,
    SignatureMismatchError,
    SuperMorphism,
    SuperPolynomial,
    SuperRational,
    SuperSignature,
    check_cocycle,
    compose,
    covering_map,
    covering_signature,
    decompose_oracle,
    format_expression,
    graded_copy_name,
    identity_morphism,
    lift_atlas,
    lift_mixed,
    lift_super,
    make_group,
    parse_expression,
    parse_group_spec,
    parse_parity_spec,
    root_of_unity,
)
from cli_pins import ROWS
from conftest import (NONSPLIT_ATLAS, assert_components_match_the_reference,
                      random_polynomial_morphism)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402  (the benchmark's seeded atlas texts)


def z2_trivial():
    g = make_group([2])
    return g, ParityMap.trivial(g)


def z4_graded():
    g = make_group([4])
    return g, ParityMap(g, (1,))


def test_covering_signature_of_a_line_chart():
    g, pm = z2_trivial()
    cover = covering_signature(SuperSignature(even=["x"]), g, pm)
    assert cover.even == ("x@(0)", "x@(1)")
    assert cover.odd == ()
    assert [w.residues for w in cover.even_weights] == [(0,), (1,)]


def test_covering_signature_with_odd_coordinates():
    g, pm = z4_graded()
    cover = covering_signature(SuperSignature(even=["x"], odd=["xi"]), g, pm)
    assert cover.even == ("x@(0)", "x@(2)")
    assert cover.odd == ("xi@(1)", "xi@(3)")


def test_covering_signature_of_nothing():
    g, pm = z4_graded()
    cover = covering_signature(SuperSignature(), g, pm)
    assert cover.even == () and cover.odd == ()


def test_covering_requires_odd_weights_for_odd_coordinates():
    g, pm = z2_trivial()  # trivial parity: no odd weights at all
    with pytest.raises(CoveringError):
        covering_signature(SuperSignature(even=["x"], odd=["xi"]), g, pm)


def test_projection_sums_the_graded_copies():
    g, pm = z2_trivial()
    sig = SuperSignature(even=["x"])
    p = covering_map(sig, g, pm)
    cover = p.source
    expected = SuperRational.variable(cover, "x@(0)") + SuperRational.variable(
        cover, "x@(1)"
    )
    assert p.images["x"] == expected

    g4, pm4 = z4_graded()
    p4 = covering_map(SuperSignature(even=["x"], odd=["xi"]), g4, pm4)
    xi_sum = SuperRational.variable(p4.source, "xi@(1)") + SuperRational.variable(
        p4.source, "xi@(3)"
    )
    assert p4.images["xi"] == xi_sum


def test_trivial_group_covering_is_a_renaming():
    g = make_group([])
    pm = ParityMap(g, ())
    sig = SuperSignature(even=["x"])
    p = covering_map(sig, g, pm)
    assert p.source.even == ("x@()",)
    assert p.images["x"] == SuperRational.variable(p.source, "x@()")


def test_lifting_the_projection_gives_the_identity():
    g, pm = z2_trivial()
    p = covering_map(SuperSignature(even=["x"]), g, pm)
    assert lift_mixed(p).is_identity()

    g4, pm4 = z4_graded()
    p4 = covering_map(SuperSignature(even=["x"], odd=["xi"]), g4, pm4)
    assert lift_mixed(p4).is_identity()


def test_lift_of_a_homogeneous_image_hits_one_copy():
    g, pm = z2_trivial()
    sig = covering_signature(SuperSignature(even=["u"]), g, pm)
    target = SuperSignature(even=["y"])
    image = SuperRational.variable(sig, "u@(1)") ** 2  # weight (0)
    phi = SuperMorphism(sig, target, {"y": image})
    lifted = lift_mixed(phi)
    assert lifted.images["y@(0)"] == image
    assert lifted.images["y@(1)"].is_zero()


def test_lift_factors_through_the_projection():
    # the defining identity: lifted pullback after projection pullback
    g, pm = z4_graded()
    source = SuperSignature(even=["x"], odd=["xi"])
    target = SuperSignature(even=["y"], odd=["eta"])
    x = SuperRational.variable(source, "x")
    xi = SuperRational.variable(source, "xi")
    psi = SuperMorphism(source, target, {"y": 1 / x, "eta": xi / x})
    p_src = covering_map(source, g, pm)
    p_dst = covering_map(target, g, pm)
    lifted = lift_super(psi, g, pm)
    # around the square: target projection after the lift, psi after source projection
    assert compose(p_dst, lifted) == compose(psi, p_src)


def test_projective_line_lift_formulas():
    g, pm = z2_trivial()
    source = SuperSignature(even=["x"])
    target = SuperSignature(even=["y"])
    x = SuperRational.variable(source, "x")
    psi = SuperMorphism(source, target, {"y": 1 / x})
    lifted = lift_super(psi, g, pm)

    cover = covering_signature(source, g, pm)
    x0 = SuperRational.variable(cover, "x@(0)")
    x1 = SuperRational.variable(cover, "x@(1)")
    delta = x0**2 - x1**2
    assert lifted.images["y@(0)"] == x0 / delta
    assert lifted.images["y@(1)"] == -x1 / delta


def test_projective_superspace_lift_formulas():
    g, pm = z4_graded()
    source = SuperSignature(even=["x"], odd=["xi"])
    target = SuperSignature(even=["y"], odd=["eta"])
    x = SuperRational.variable(source, "x")
    xi = SuperRational.variable(source, "xi")
    psi = SuperMorphism(source, target, {"y": 1 / x, "eta": xi / x})
    lifted = lift_super(psi, g, pm)

    cover = covering_signature(source, g, pm)
    x0 = SuperRational.variable(cover, "x@(0)")
    x2 = SuperRational.variable(cover, "x@(2)")
    s1 = SuperRational.variable(cover, "xi@(1)")
    s3 = SuperRational.variable(cover, "xi@(3)")
    delta = x0**2 - x2**2
    assert lifted.images["y@(0)"] == x0 / delta
    assert lifted.images["y@(2)"] == -x2 / delta
    assert lifted.images["eta@(1)"] == (x0 * s1) / delta - (x2 * s3) / delta
    assert lifted.images["eta@(3)"] == (x0 * s3) / delta - (x2 * s1) / delta


def test_lift_of_identity_is_identity():
    g, pm = z4_graded()
    sig = SuperSignature(even=["x"], odd=["xi"])
    assert lift_super(identity_morphism(sig), g, pm).is_identity()


def test_lifting_is_functorial():
    rng = random.Random(13)
    g, pm = z4_graded()
    sigs = [
        SuperSignature(even=[f"a{k}", f"b{k}"], odd=[f"s{k}", f"t{k}"])
        for k in range(3)
    ]
    for _ in range(8):
        psi1 = random_polynomial_morphism(rng, sigs[0], sigs[1])
        psi2 = random_polynomial_morphism(rng, sigs[1], sigs[2])
        direct = lift_super(compose(psi2, psi1), g, pm)
        staged = compose(lift_super(psi2, g, pm), lift_super(psi1, g, pm))
        assert direct == staged


def test_mutually_inverse_lifts_compose_to_identity():
    g, pm = z2_trivial()
    x_chart = SuperSignature(even=["x"])
    y_chart = SuperSignature(even=["y"])
    fwd = SuperMorphism(
        x_chart, y_chart, {"y": 1 / SuperRational.variable(x_chart, "x")}
    )
    back = SuperMorphism(
        y_chart, x_chart, {"x": 1 / SuperRational.variable(y_chart, "y")}
    )
    lift_fwd = lift_super(fwd, g, pm)
    lift_back = lift_super(back, g, pm)
    assert compose(lift_back, lift_fwd).is_identity()
    assert compose(lift_fwd, lift_back).is_identity()


def projective_line_atlas():
    x_chart = SuperSignature(even=["x"])
    y_chart = SuperSignature(even=["y"])
    x = SuperRational.variable(x_chart, "x")
    y = SuperRational.variable(y_chart, "y")
    return Atlas(
        charts={"0": x_chart, "1": y_chart},
        transitions={
            ("0", "1"): SuperMorphism(x_chart, y_chart, {"y": 1 / x}),
            ("1", "0"): SuperMorphism(y_chart, x_chart, {"x": 1 / y}),
        },
    )


def test_projective_line_atlas_passes_cocycle_check():
    report = check_cocycle(projective_line_atlas())
    assert report.ok
    assert report.failures == []


def test_identity_atlas_passes():
    sig = SuperSignature(even=["x"])
    atlas = Atlas(
        charts={"a": sig, "b": sig},
        transitions={
            ("a", "b"): identity_morphism(sig),
            ("b", "a"): identity_morphism(sig),
        },
    )
    assert check_cocycle(atlas).ok


def test_broken_atlas_names_the_offending_pair():
    x_chart = SuperSignature(even=["x"])
    y_chart = SuperSignature(even=["y"])
    x = SuperRational.variable(x_chart, "x")
    y = SuperRational.variable(y_chart, "y")
    atlas = Atlas(
        charts={"1": x_chart, "2": y_chart},
        transitions={
            ("1", "2"): SuperMorphism(x_chart, y_chart, {"y": 1 / x}),
            ("2", "1"): SuperMorphism(y_chart, x_chart, {"x": 1 / y + 1}),
        },
    )
    report = check_cocycle(atlas)
    assert not report.ok
    pairs = {f.charts for f in report.failures if f.kind == "pair"}
    assert ("1", "2") in pairs or ("2", "1") in pairs
    # the round trip through chart 2 lands on y/(1+y), not y
    residuals = [f.residual for f in report.failures if f.kind == "pair"]
    assert any(res for res in residuals)


def test_missing_reverse_transition_is_reported():
    sig = SuperSignature(even=["x"])
    atlas = Atlas(
        charts={"a": sig, "b": sig},
        transitions={("a", "b"): identity_morphism(sig)},
    )
    report = check_cocycle(atlas)
    assert not report.ok
    assert any(f.kind == "missing-reverse" for f in report.failures)


def test_lift_atlas_of_the_projective_line():
    g, pm = z2_trivial()
    lifted = lift_atlas(projective_line_atlas(), g, pm)
    assert set(lifted.charts) == {"0", "1"}
    assert lifted.charts["0"].even == ("x@(0)", "x@(1)")
    report = check_cocycle(lifted)
    assert report.ok

    x0 = SuperRational.variable(lifted.charts["0"], "x@(0)")
    x1 = SuperRational.variable(lifted.charts["0"], "x@(1)")
    delta = x0**2 - x1**2
    assert lifted.transitions[("0", "1")].images["y@(0)"] == x0 / delta


def test_lift_atlas_single_chart():
    g, pm = z4_graded()
    atlas = Atlas(charts={"only": SuperSignature(even=["x"], odd=["xi"])})
    lifted = lift_atlas(atlas, g, pm)
    assert lifted.transitions == {}
    assert lifted.charts["only"].odd == ("xi@(1)", "xi@(3)")


def test_atlas_transitions_must_fit_their_charts():
    atlas = projective_line_atlas()
    psi = atlas.transitions[("0", "1")]
    with pytest.raises(ValueError, match="names an unknown chart"):
        Atlas(dict(atlas.charts), {("0", "2"): psi})
    with pytest.raises(SignatureMismatchError, match="does not match its chart signatures"):
        Atlas(dict(atlas.charts), {("1", "0"): psi})


def test_lift_atlas_rejects_broken_input():
    sig = SuperSignature(even=["x"])
    atlas = Atlas(
        charts={"a": sig, "b": sig},
        transitions={
            ("a", "b"): identity_morphism(sig),
            ("b", "a"): SuperMorphism(
                sig, sig, {"x": SuperRational.variable(sig, "x") + 1}
            ),
        },
    )
    g, pm = z2_trivial()
    with pytest.raises(CoveringError):
        lift_atlas(atlas, g, pm)


def three_chart_polynomial_atlas():
    """Transitions A_j o A_i^(-1) built from triangular automorphisms."""
    charts = {
        cid: SuperSignature(even=[f"u{cid}", f"v{cid}"], odd=[f"p{cid}", f"q{cid}"])
        for cid in ("0", "1", "2")
    }

    def shear(cid, other, c1, c2, c3):
        # u -> u + c1*v^2 + c3*p*q, v -> v, p -> p + c2*v*q, q -> q
        src, dst = charts[cid], charts[other]
        u = SuperRational.variable(src, f"u{cid}")
        v = SuperRational.variable(src, f"v{cid}")
        p = SuperRational.variable(src, f"p{cid}")
        q = SuperRational.variable(src, f"q{cid}")
        return SuperMorphism(
            src,
            dst,
            {
                f"u{other}": u + c1 * v**2 + c3 * p * q,
                f"v{other}": v,
                f"p{other}": p + c2 * v * q,
                f"q{other}": q,
            },
        )

    # consistent family: T_ij = S_j^(-1) o S_i with shear parameters c_i;
    # shears with the same shape compose additively in the parameters
    params = {"0": (1, 2, -1), "1": (0, 1, 2), "2": (-2, 0, 1)}
    transitions = {}
    for a in charts:
        for b in charts:
            if a == b:
                continue
            ca, cb = params[a], params[b]
            diff = tuple(x - y for x, y in zip(ca, cb))
            transitions[(a, b)] = shear(a, b, *diff)
    return Atlas(charts=charts, transitions=transitions)


def test_three_chart_polynomial_atlas_lifts_cleanly():
    atlas = three_chart_polynomial_atlas()
    assert check_cocycle(atlas).ok
    g, pm = z4_graded()
    lifted = lift_atlas(atlas, g, pm)
    report = check_cocycle(lifted)
    assert report.ok
    for morphism in lifted.transitions.values():
        assert isinstance(morphism, GradedMorphism)


# -- descent ------------------------------------------------------------------


@functools.cache
def lifted_atlas(family, index, group, parity):
    atlas, _, _ = load_atlas(json.loads(inputs.atlas_text(family, index)))
    g = parse_group_spec(group)
    return lift_atlas(atlas, g, parse_parity_spec(g, parity))


def checked(atlas):
    """check_cocycle's report, and the path it took: "descent" when the
    direct check ran only on a base atlas, "direct" when it ran on atlas."""
    seen = []
    direct = covering._check_cocycle_direct

    def spy(checked_atlas):
        seen.append(checked_atlas)
        return direct(checked_atlas)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "_check_cocycle_direct", spy)
        report = check_cocycle(atlas)
    if seen[-1] is atlas:
        return report, "direct"
    assert len(seen) == 1
    assert all(type(sig) is SuperSignature for sig in seen[0].charts.values())
    return report, "descent"


def assert_agrees(atlas, path):
    """check_cocycle takes ``path`` and reports exactly what the direct check does."""
    report, taken = checked(atlas)
    assert taken == path
    assert report == covering._check_cocycle_direct(atlas)
    return report


SHEAR_GROUPS = (("4", "1"), ("2x2", "11"), ("6", "1"))
LIFTS = (
    [("P1", 0, g, "0") for g in ("2", "3", "4")]
    + [("P11", 0, g, "1") for g in ("4", "6")]
    + [("shear", j, g, p) for j in range(inputs.SHEAR_UNIVERSE) for g, p in SHEAR_GROUPS]
)


@pytest.mark.parametrize("lift", LIFTS, ids=[inputs.atlas_key(*key) for key in LIFTS])
def test_lifted_atlases_pass_by_descent(lift):
    assert assert_agrees(lifted_atlas(*lift), "descent").ok


def replaced(atlas, key, name, image):
    """The atlas with one image of one transition replaced."""
    old = atlas.transitions[key]
    images = dict(old.images, **{name: image})
    transitions = dict(atlas.transitions)
    transitions[key] = SuperMorphism(old.source, old.target, images)
    return Atlas(dict(atlas.charts), transitions)


def plus_one(atlas):
    """A weight-0 constant added to one image: the lift of a broken base."""
    m = atlas.transitions[("1", "0")]
    name = m.target.even[0]
    return replaced(atlas, ("1", "0"), name, m.images[name] + 1)


def wrong_weight(atlas):
    """A variable of another weight added to one image: no lift at all."""
    m = atlas.transitions[("1", "0")]
    name, weight = m.target.even[0], m.target.even_weights[0]
    other = next(n for n, w in zip(m.source.even, m.source.even_weights) if w != weight)
    image = m.images[name] + SuperRational.variable(m.source, other)
    return replaced(atlas, ("1", "0"), name, image)


def scaled(atlas):
    """One image of a non-identity weight doubled: homogeneous, but no lift."""
    m = atlas.transitions[("1", "0")]
    name = m.target.even[1]
    return replaced(atlas, ("1", "0"), name, 2 * m.images[name])


def moved(atlas):
    """A term moved from one copy's image to another's: the copies still
    sum to the projection, but one image is no longer homogeneous."""
    m = atlas.transitions[("1", "0")]
    first, second = m.target.even[:2]
    f = SuperRational.variable(m.source, m.source.even[0])
    return replaced(replaced(atlas, ("1", "0"), first, m.images[first] + f),
                    ("1", "0"), second, m.images[second] - f)


def renamed(atlas):
    """One graded copy of chart 0 renamed: the chart keeps its covering's weight
    layout, so the atlas is still a lift, under other names."""
    sig = atlas.charts["0"]
    group, parity = sig.group, sig.parity
    old = sig.even[-1]
    text = json.dumps(dump_atlas(atlas, group, parity)).replace(old, "w" + old)
    renamed_atlas, _, _ = load_atlas(json.loads(text))
    assert "w" + old in renamed_atlas.charts["0"].even
    return renamed_atlas


def dropped(atlas):
    """One reverse transition missing."""
    transitions = dict(atlas.transitions)
    del transitions[("1", "0")]
    return Atlas(dict(atlas.charts), transitions)


def singular(atlas):
    """Every image of 0->1 set to zero: the lift of the zero map, whose
    composite with 1->0 divides by zero in the base and in the covering."""
    m = atlas.transitions[("0", "1")]
    transitions = dict(atlas.transitions)
    transitions[("0", "1")] = SuperMorphism(
        m.source, m.target, {name: SuperRational.zero(m.source) for name in m.images}
    )
    return Atlas(dict(atlas.charts), transitions)


PERTURBED = [("P1", 0, "2", "0"), ("P1", 0, "3", "0"), ("P11", 0, "4", "1")] + [
    ("shear", 0, g, p) for g, p in SHEAR_GROUPS
]
PERTURBATIONS = [plus_one, wrong_weight, scaled, moved, renamed, dropped]


@pytest.mark.parametrize("perturb", PERTURBATIONS, ids=[f.__name__ for f in PERTURBATIONS])
@pytest.mark.parametrize("lift", PERTURBED, ids=[inputs.atlas_key(*key) for key in PERTURBED])
def test_perturbed_lifted_atlases_fall_back_to_the_direct_report(lift, perturb):
    # a renamed covering is still a lift, and descends; every other perturbation breaks it
    path = "descent" if perturb is renamed else "direct"
    report = assert_agrees(perturb(lifted_atlas(*lift)), path)
    assert report.ok == (perturb is renamed)


RATIONAL = PERTURBED[:3]  # shear atlases are polynomial, so never singular


@pytest.mark.parametrize("lift", RATIONAL, ids=[inputs.atlas_key(*key) for key in RATIONAL])
def test_singular_lifted_composites_are_singular_in_the_base(lift):
    # descent proves every transition a lift, and the base check is singular
    atlas = singular(lifted_atlas(*lift))
    base = covering._base_atlas(atlas)
    assert base is not None
    assert any(f.kind == "singular" for f in covering._check_cocycle_direct(base).failures)
    report = assert_agrees(atlas, "direct")
    assert any(f.kind == "singular" for f in report.failures)


def self_transition_atlas(shift):
    """P^1 with a declared self-transition 0->0 of x -> x + shift."""
    atlas = projective_line_atlas()
    chart = atlas.charts["0"]
    x = SuperRational.variable(chart, "x")
    transitions = dict(atlas.transitions)
    transitions[("0", "0")] = SuperMorphism(chart, chart, {"x": x + shift})
    return Atlas(dict(atlas.charts), transitions)


@pytest.mark.parametrize("shift", [0, 1])
def test_a_self_transition_must_be_the_identity(shift):
    report = assert_agrees(self_transition_atlas(shift), "direct")
    failures = [(f.kind, f.charts, f.residual) for f in report.failures]
    assert failures == ([("self", ("0",), {"x": "x + 1"})] if shift else [])


@pytest.mark.parametrize("shift", [0, 1])
def test_a_lifted_self_transition_descends_to_its_base(shift):
    g, pm = z2_trivial()
    atlas = lift_atlas(self_transition_atlas(0), g, pm)
    if shift:
        image = atlas.transitions[("0", "0")].images["x@(0)"]
        atlas = replaced(atlas, ("0", "0"), "x@(0)", image + shift)
    base = covering._base_atlas(atlas)
    (name,) = base.charts["0"].even
    x = SuperRational.variable(base.charts["0"], name)
    assert base.transitions[("0", "0")].images == {name: x + shift}
    report = assert_agrees(atlas, "direct" if shift else "descent")
    failures = [(f.kind, f.charts, f.residual) for f in report.failures]
    assert failures == ([("self", ("0",), {"x@(0)": "x@(0) + 1"})] if shift else [])


# -- a non-split supermanifold --------------------------------------------------

SPLIT_ATLAS = {  # the same y, with odd coordinates that scale by 1/x
    "charts": NONSPLIT_ATLAS["charts"],
    "transitions": {"0->1": {"y": "1/x + a*b/x^3", "c": "a/x", "d": "b/x"},
                    "1->0": {"x": "1/y + c*d/y", "a": "c/y", "b": "d/y"}},
}
NONSPLIT_GRADINGS = [("2", "1"), ("2x2", "11"), ("4", "1"), ("6", "1")]


@functools.cache
def nonsplit_lift(group, parity):
    g = parse_group_spec(group)
    return lift_atlas(load_atlas(NONSPLIT_ATLAS)[0], g, parse_parity_spec(g, parity))


@pytest.mark.parametrize("group, parity", NONSPLIT_GRADINGS)
def test_a_non_split_atlas_lifts_and_passes_by_descent(group, parity):
    """P^{1|2} with odd coordinates that scale by x^-2, and y = 1/x + ab/x^3:
    no change of coordinates removes ab/x^3, so the supermanifold is not split.
    A change x -> x + ab*p(x) in chart 0 adds ab*x^k to y for k >= -2 only; a
    change y -> y + cd*q(y) in chart 1 adds ab*x^k for k <= -4 only, since
    cd = ab/x^4.  So ab/x^3 stays: it is the one class of H^1(P^1, T (x)
    Lambda^2 E*) here (Manin, Gauge Field Theory and Complex Geometry, ch. 4).
    Its lifts pass the cocycle check by descent; over Z_2 the report is the
    direct check's, which takes seconds over Z_2^2 and Z_4."""
    lifted = nonsplit_lift(group, parity)
    if group == "2":
        assert assert_agrees(lifted, "descent").ok
    else:
        report, taken = checked(lifted)
        assert taken == "descent" and report.ok


def test_the_split_atlas_splits_by_an_exact_change_of_coordinates():
    """With odd coordinates that scale by 1/x, the same y is split: in chart 1,
    y' = y - y*cd pulls back to 1/x, so (y', c, d) glue as P^1 with a bundle."""
    atlas = load_atlas(SPLIT_ATLAS)[0]
    assert check_cocycle(atlas).ok
    chart = atlas.charts["1"]
    y, c, d = (SuperRational.variable(chart, v) for v in ("y", "c", "d"))
    x = SuperRational.variable(atlas.charts["0"], "x")
    change = SuperMorphism(chart, chart, {"y": y - y * c * d, "c": c, "d": d})
    split = compose(change, atlas.transitions[("0", "1")])
    assert split.images["y"] == 1 / x
    assert compose(change, load_atlas(NONSPLIT_ATLAS)[0].transitions[("0", "1")]).images["y"] \
        != 1 / x


def test_the_lifted_non_split_transitions_compose_to_the_identity():
    """Lifting is a functor and the base composite 1->0 after 0->1 is the
    identity, so the lifted composite is too."""
    lifted = nonsplit_lift("2x2", "11")
    assert compose(lifted.transitions[("1", "0")], lifted.transitions[("0", "1")]).is_identity()


@pytest.mark.parametrize("group, parity", [("2x2", "11"), ("4", "1")])
def test_the_non_split_images_decompose_as_the_oracle_does(group, parity):
    atlas = load_atlas(NONSPLIT_ATLAS)[0]
    g = parse_group_spec(group)
    pm = parse_parity_spec(g, parity)
    images = compose(atlas.transitions[("0", "1")], covering_map(atlas.charts["0"], g, pm)).images
    for image in images.values():
        assert image.decompose() == decompose_oracle(image)


def test_the_broken_benchmark_atlas_is_the_lift_of_a_broken_base():
    lifted = lifted_atlas(*inputs.BROKEN_BASE)
    m = lifted.transitions[("1", "0")]
    text = json.dumps(dump_atlas(lifted, m.source.group, m.source.parity))
    data = json.loads(inputs.break_lifted(text))
    broken, _, _ = load_atlas(data)
    base = covering._base_atlas(broken)
    (x_name,), (y_name,) = base.charts["0"].even, base.charts["1"].even
    y = SuperRational.variable(base.charts["1"], y_name)
    assert base.transitions[("1", "0")].images[x_name] == 1 / y + 1
    # the common monomial content is cancelled: 1/x, not x^2/x^3
    x = SuperRational.variable(base.charts["0"], x_name)
    assert base.transitions[("0", "1")].images[y_name].denominator == x.numerator
    assert not assert_agrees(broken, "direct").ok


# SHA-256 of ``check-cocycle --json`` on the broken benchmark atlas: lifted P^1
# over Z_3 with one image shifted by 1, the CLI table's row p1-z3-broken
BROKEN_REPORT_SHA256 = ROWS["p1-z3-broken"].pin


def test_the_broken_benchmark_atlas_report_is_pinned(tmp_path, capsys, monkeypatch):
    """The report, byte for byte, and one moved-image test per image of each
    composite, and no equality test: the residual pass alone decides that a
    composite fails."""
    family, index, group, parity = inputs.BROKEN_BASE
    source = tmp_path / "base.json"
    source.write_text(inputs.atlas_text(family, index))
    lifted = tmp_path / "lifted.json"
    assert main(["lift-atlas", str(source), "--group", group, "--parity", parity,
                 "--json", "--output", str(lifted)]) == 0
    broken = tmp_path / "broken.json"
    broken.write_text(inputs.break_lifted(lifted.read_text()))
    capsys.readouterr()
    assert main(["check-cocycle", str(broken), "--json"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BROKEN_REPORT_SHA256

    atlas, _, _ = load_atlas(json.loads(broken.read_text()))
    calls, equalities = [], []
    is_variable, eq = morphisms._is_variable, SuperRational.__eq__

    def counted(f, name):
        calls.append(name)
        return is_variable(f, name)

    def counted_eq(self, other):
        equalities.append(other)
        return eq(self, other)

    monkeypatch.setattr(morphisms, "_is_variable", counted)
    monkeypatch.setattr(SuperRational, "__eq__", counted_eq)
    report = covering._check_cocycle_direct(atlas)
    # the round trips 0->1->0 and 1->0->1, each with the images of chart 0 or 1
    assert [f.charts for f in report.failures] == [("0", "1"), ("1", "0")]
    assert len(calls) == sum(len(atlas.charts[c].even + atlas.charts[c].odd) for c in "01")
    assert equalities == []


def broken_text():
    """The broken benchmark atlas: lifted P^1 over Z_3 with one image shifted by 1."""
    lifted = lifted_atlas(*inputs.BROKEN_BASE)
    m = lifted.transitions[("1", "0")]
    return inputs.break_lifted(json.dumps(dump_atlas(lifted, m.source.group, m.source.parity)))


def broken_atlas():
    return load_atlas(json.loads(broken_text()))[0]


def test_integer_products_and_equality_build_no_fraction():
    """While the broken benchmark atlas is checked, no Fraction is constructed
    inside the packed product kernel ``_packed_product`` (which ``_mul_terms``
    and composition share) or ``Cyclotomic.__eq__``: coefficients are
    integers over one denominator on both sides."""
    from fractions import Fraction

    from gradedcover import Cyclotomic
    from gradedcover.algebra import _packed_product

    broken = broken_atlas()
    watched = {_packed_product.__code__: "terms", Cyclotomic.__eq__.__code__: "eq"}
    # every construction path: __new__, and _from_coprime_ints where it exists
    makers = {getattr(f, "__func__", f).__code__ for name, f in vars(Fraction).items()
              if name in ("__new__", "_from_coprime_ints")}
    entered, made, depth = {"terms": 0, "eq": 0}, [], [0]

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code in watched:
            entered[watched[code]] += 1
            depth[0] += 1
        elif event == "return" and code in watched:
            depth[0] -= 1
        elif event == "call" and code in makers and depth[0]:
            made.append(frame.f_back.f_code.co_name)

    sys.setprofile(hook)
    try:
        report = check_cocycle(broken)
    finally:
        sys.setprofile(None)
    assert not report.ok
    # the watch saw both run: 94 products and 102 comparisons at this writing
    assert entered["terms"] > 90 and entered["eq"] >= 100, entered
    assert made == []


def direct_composites(atlas):
    """The composites whose residual the direct check of ``atlas`` takes, in
    order: each self-transition, round trip and triple that is not singular."""
    seen, residual = [], covering._residual

    def spy(m):
        seen.append(m)
        return residual(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "_residual", spy)
        covering._check_cocycle_direct(atlas)
    return seen


def assert_moved_agrees(m) -> list[str]:
    """``_moved`` names exactly the variables whose image does not equal them."""
    sig = m.source
    want = [n for n in sig.even + sig.odd if m.images[n] != SuperRational.variable(sig, n)]
    assert list(m._moved()) == want
    return want


def test_the_moved_image_test_agrees_with_equality_on_lift_composites():
    for lift in LIFTS:
        composites = direct_composites(lifted_atlas(*lift))
        assert composites, lift
        for m in composites:
            assert assert_moved_agrees(m) == []


def test_the_moved_image_test_agrees_with_equality_on_failing_composites():
    """The perturbed lifted atlases, and the broken benchmark atlas, whose
    report names exactly the moved images."""
    moved = 0
    for lift in PERTURBED:
        for perturb in PERTURBATIONS:
            for m in direct_composites(perturb(lifted_atlas(*lift))):
                moved += len(assert_moved_agrees(m))
    assert moved > 0
    atlas = broken_atlas()
    composites = direct_composites(atlas)
    report = covering._check_cocycle_direct(atlas)
    assert [assert_moved_agrees(m) for m in composites] == [
        sorted(f.residual, key=m.source.even.index) for f, m in zip(report.failures, composites)]


def test_the_moved_image_test_on_chosen_images():
    """Zero images, odd variables, and images with as many terms as their
    denominators that are not the variable: another variable's shift, another
    coefficient, or odd content in the image of an even variable."""
    sig = SuperSignature(even=["x", "y"], odd=["u", "w"])
    x, y, u, w = (SuperRational.variable(sig, n) for n in ("x", "y", "u", "w"))
    z, zero = root_of_unity(3, 1), SuperRational.zero(sig)

    def q(num, den):  # num/den as written, with no common factor cancelled
        return SuperRational(num.numerator, den.numerator)

    cases = [
        ("x", x, True), ("u", u, True), ("x", q(x * x, x), True), ("u", q(u * x, x), True),
        ("x", q(x * y + x, y + 1), True), ("u", q(u * y + u, y + 1), True),
        ("x", q(z * x * y + x, z * y + 1), True), ("w", q(z * w * x + w, z * x + 1), True),
        ("x", zero, False), ("u", zero, False), ("y", q(zero, x + 1), False),
        ("x", y, False), ("y", x, False), ("u", w, False), ("w", u, False), ("u", u * x, False),
        ("x", 2 * x, False), ("u", -u, False), ("x", SuperRational.one(sig), False),
        ("x", q(y * y + y, y + 1), False), ("y", q(x * y + x, y + 1), False),
        ("u", q(w * y + w, y + 1), False), ("w", q(u * x + u, x + 1), False),
        ("x", q(2 * x * y + x, y + 1), False), ("u", q(u * y + 2 * u, y + 1), False),
        ("x", q(x * y + u * w, y + 1), False), ("x", q(z * x * y + x, y + 1), False),
        ("x", q(x * y + x + 1, y + 1), False), ("x", q(x * y, y + 1), False),
    ]
    for name, f, want in cases:
        assert morphisms._is_variable(f, name) is want, (name, f)
        assert (f == SuperRational.variable(sig, name)) is want, (name, f)


def test_a_shared_composite_denominator_renders_once(tmp_path, capsys, monkeypatch):
    """The three images of chain 1->0->1 of the broken benchmark atlas share
    one denominator object; its residual renders it once, and the report's
    bytes are the pinned ones."""
    atlas = broken_atlas()
    back = compose(atlas.transitions[("0", "1")], atlas.transitions[("1", "0")])
    (den,) = {id(img.denominator): img.denominator for img in back.images.values()}.values()
    assert len(back.images) == 3 and den.as_constant() is None
    rendered, template = [], expressions._template

    def spy(poly, n):
        rendered.append(poly.terms)
        return template(poly, n)

    monkeypatch.setattr(expressions, "_template", spy)
    residual = covering._residual(back)
    assert sorted(residual) == sorted(back.images)
    assert sum(terms is den.terms for terms in rendered) == 1
    broken = tmp_path / "broken.json"
    broken.write_text(broken_text())
    assert main(["check-cocycle", str(broken), "--json"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == BROKEN_REPORT_SHA256


def test_composites_pass_their_checked_constructors(monkeypatch):
    """``compose`` builds its composite unchecked: each composite made while
    plain, lifted and perturbed atlases are lifted and checked, and each
    composite of ``lift_super`` lifts, passes ``SuperMorphism`` or, where both
    factors are graded, ``GradedMorphism``, with equal images."""
    made, checked_compose = [], morphisms.compose

    def spy(second, first):
        made.append(checked_compose(second, first))
        return made[-1]

    monkeypatch.setattr(covering, "compose", spy)
    for atlas in (projective_line_atlas(), three_chart_polynomial_atlas()):
        covering._check_cocycle_direct(atlas)
    for lift in PERTURBED:
        atlas = lifted_atlas(*lift)  # composes each base transition with a projection
        check_cocycle(atlas)  # and with p_A in descent
        covering._check_cocycle_direct(atlas)
        covering._check_cocycle_direct(plus_one(atlas))
        base, _, _ = load_atlas(json.loads(inputs.atlas_text(*lift[:2])))
        group = parse_group_spec(lift[2])
        parity = parse_parity_spec(group, lift[3])
        lifts = {key: lift_super(psi, group, parity) for key, psi in base.transitions.items()}
        made.extend(compose(lifts[b, a], m) for (a, b), m in lifts.items() if (b, a) in lifts)
    assert {type(m) for m in made} == {SuperMorphism, GradedMorphism}
    for m in made:
        again = type(m)(m.source, m.target, m.images)
        assert again == m and list(again.images) == list(m.images)


def test_a_singular_composite_still_raises():
    """Lifted P^1's 1->0 after the zero map, plain and graded."""
    atlas = lifted_atlas("P1", 0, "3", "0")
    m = atlas.transitions[("0", "1")]
    zero = {name: SuperRational.zero(m.source) for name in m.images}
    for kind in (SuperMorphism, GradedMorphism):
        with pytest.raises(GradedError, match="not invertible"):
            compose(atlas.transitions[("1", "0")], kind(m.source, m.target, zero))


def test_non_covering_atlases_take_the_direct_path():
    assert assert_agrees(projective_line_atlas(), "direct").ok
    assert assert_agrees(three_chart_polynomial_atlas(), "direct").ok
    # over Z_2 with parity 1, even x@(0) and odd x@(1) have a covering's weight
    # layout, whatever their names say, so this atlas descends
    z2 = make_group([2])
    chart = GradedSignature(z2, ParityMap(z2, (1,)), even=[("x@(0)", z2.character((0,)))],
                            odd=[("x@(1)", z2.character((1,)))])
    assert covering._base_signature(chart) == SuperSignature(even=["x@(0)"], odd=["x@(1)"])
    assert assert_agrees(Atlas({"0": chart}, {("0", "0"): identity_morphism(chart)}), "descent").ok


def test_an_image_that_vanishes_on_the_base_takes_the_direct_path():
    """y@(1)^2/y@(1)^2 is homogeneous of weight 0, but the section sends its
    denominator to zero: descent gives up, and the direct check reports."""
    atlas = lifted_atlas("P1", 0, "2", "0")
    m = atlas.transitions[("1", "0")]
    square = SuperRational.variable(m.source, m.source.even[1]) ** 2
    broken = replaced(atlas, ("1", "0"), m.target.even[0], square / square)
    source, target = (covering._base_signature(broken.charts[c]) for c in "10")
    projection = covering._projection(source, broken.charts["1"])
    with pytest.raises(ZeroDivisionError):
        covering._descend(broken.transitions[("1", "0")], projection, target)
    assert covering._base_atlas(broken) is None
    assert not assert_agrees(broken, "direct").ok


def test_coverings_under_different_gradings_take_the_direct_path():
    line = SuperSignature(even=["x"])
    g2, g3 = make_group([2]), make_group([3])
    a = covering_signature(line, g2, ParityMap.trivial(g2))
    b = covering_signature(SuperSignature(even=["y"]), g3, ParityMap.trivial(g3))
    xa = {n: SuperRational.variable(a, n) for n in a.even}
    yb = {n: SuperRational.variable(b, n) for n in b.even}
    atlas = Atlas(
        charts={"0": a, "1": b},
        transitions={
            ("0", "1"): SuperMorphism(
                a, b, {"y@(0)": xa["x@(0)"], "y@(1)": xa["x@(1)"], "y@(2)": SuperRational.zero(a)}
            ),
            ("1", "0"): SuperMorphism(b, a, {"x@(0)": yb["y@(0)"], "x@(1)": yb["y@(1)"]}),
        },
    )
    assert not assert_agrees(atlas, "direct").ok


# -- a covering is recognised by its weight layout, not its names --------------


COPY_NAME = re.compile(r"(\w+)(@\([^)]*\))")


def every_copy_renamed(atlas):
    """The atlas with each graded copy x@(k) renamed x<i>q@(k), i counting the
    copies in their order in the JSON: each keeps its weight suffix, none its
    base name."""
    sig = atlas.charts["0"]
    text = json.dumps(dump_atlas(atlas, sig.group, sig.parity))
    fresh = {}
    text = COPY_NAME.sub(lambda m: fresh.setdefault(m[0], f"{m[1]}{len(fresh)}q{m[2]}"), text)
    loaded, _, _ = load_atlas(json.loads(text))
    for cid, chart in loaded.charts.items():
        assert not set(chart.even + chart.odd) & set(atlas.charts[cid].even + atlas.charts[cid].odd)
    return loaded


@pytest.mark.parametrize("lift", LIFTS, ids=[inputs.atlas_key(*key) for key in LIFTS])
def test_lifted_atlases_with_every_copy_renamed_descend(lift):
    assert assert_agrees(every_copy_renamed(lifted_atlas(*lift)), "descent").ok


def test_a_covering_whose_copies_carry_no_at_descends():
    """Lifted P^1 over Z_3 rebuilt in the library over charts named a0, a1, ...
    and b0, b1, ...: the same weights, the images substituted."""
    lifted = lifted_atlas("P1", 0, "3", "0")
    charts = {
        cid: GradedSignature(sig.group, sig.parity,
                             [(f"{'ab'[int(cid)]}{i}", w) for i, w in enumerate(sig.even_weights)])
        for cid, sig in lifted.charts.items()
    }
    transitions = {}
    for (a, b), m in lifted.transitions.items():
        images = {old: SuperRational.variable(charts[a], new)
                  for old, new in zip(m.source.even, charts[a].even)}
        transitions[(a, b)] = SuperMorphism(charts[a], charts[b], {
            new: m.images[old].substitute(images) for old, new in zip(m.target.even, charts[b].even)
        })
    atlas = Atlas(charts, transitions)
    assert not any("@" in name for chart in charts.values() for name in chart.even)
    assert assert_agrees(atlas, "descent").ok


def test_a_layout_whose_images_are_no_lift_takes_the_direct_path():
    """Two copies' images swapped in one transition of lifted P^1 over Z_4: the
    charts keep their layout, but each swapped image has the other copy's weight."""
    atlas = lifted_atlas("P1", 0, "4", "0")
    m = atlas.transitions[("1", "0")]
    first, second = m.target.even[1:3]
    swapped = replaced(replaced(atlas, ("1", "0"), first, m.images[second]),
                       ("1", "0"), second, m.images[first])
    assert all(covering._base_signature(sig) is not None for sig in swapped.charts.values())
    assert covering._base_atlas(swapped) is None
    assert not assert_agrees(swapped, "direct").ok


def test_copies_out_of_character_order_take_the_direct_path():
    """Lifted P^1 over Z_4 with the first two copies of chart 0 swapped: a valid
    atlas, but its weights (1), (0), (2), (3) are not the layout's order."""
    atlas = lifted_atlas("P1", 0, "4", "0")
    sig = atlas.charts["0"]
    data = dump_atlas(atlas, sig.group, sig.parity)
    even = data["charts"]["0"]["even"]
    even[:2] = even[1::-1]
    reordered, _, _ = load_atlas(data)
    assert reordered.charts["0"].even_weights[:2] == sig.even_weights[1::-1]
    assert covering._base_signature(reordered.charts["0"]) is None
    assert assert_agrees(reordered, "direct").ok


@pytest.mark.parametrize("rename", [renamed, every_copy_renamed], ids=["one", "every"])
@pytest.mark.parametrize("order", ["4", "5", "6", "7", "8"])
def test_renamed_lifted_projective_lines_descend_within_their_budget(order, rename):
    # composing the lifted transitions directly takes about 0.12 s over Z_4
    # and minutes from Z_5 on
    atlas = rename(lifted_atlas("P1", 0, order, "0"))
    start = time.process_time()
    report, path = checked(atlas)
    elapsed = time.process_time() - start
    assert path == "descent" and report.ok
    if order == "4":
        assert report == covering._check_cocycle_direct(atlas)
    budget = 0.1 if int(order) <= 6 else 1.0
    assert elapsed < budget, f"check of renamed lifted P^1 over Z_{order} took {elapsed:.3f}s"


# -- one cover layout ----------------------------------------------------------


def covering_map_by_filter(signature, group, parity):
    """The projection as built before the layout was read off the cover:
    every character, filtered by the coordinate's parity."""
    cover = covering_signature(signature, group, parity)
    images = {}
    for names, bit in ((signature.even, 0), (signature.odd, 1)):
        for name in names:
            total = SuperRational.zero(cover)
            for chi in group.characters():
                if parity(chi) == bit:
                    total = total + SuperRational.variable(cover, graded_copy_name(name, chi))
            images[name] = total
    return SuperMorphism(cover, signature, images)


def lift_mixed_by_filter(phi):
    """``lift_mixed`` as built before: every character, kept if its copy exists."""
    source = phi.source
    cover = covering_signature(phi.target, source.group, source.parity)
    images = {}
    for name in phi.target.even + phi.target.odd:
        components = phi.images[name].decompose()
        for chi in source.group.characters():
            copy = graded_copy_name(name, chi)
            if copy in cover.even or copy in cover.odd:
                images[copy] = components.get(chi, SuperRational.zero(source))
    return GradedMorphism(source, cover, images)


def same_images(got, expected):
    assert got.source == expected.source and got.target == expected.target
    assert list(got.images) == list(expected.images)
    for name, img in expected.images.items():
        assert format_expression(got.images[name]) == format_expression(img)


@pytest.mark.parametrize("group, parity", [("4", "1"), ("2x2", "11")])
def test_cover_layout_gives_the_images_the_parity_filter_gave(group, parity):
    atlas, _, _ = load_atlas(json.loads(inputs.projective_superline()))
    grp = parse_group_spec(group)
    pm = parse_parity_spec(grp, parity)
    for psi in atlas.transitions.values():
        projection = covering_map(psi.source, grp, pm)
        same_images(projection, covering_map_by_filter(psi.source, grp, pm))
        mixed = compose(psi, projection)
        same_images(lift_mixed(mixed), lift_mixed_by_filter(mixed))


# -- one covering per chart, one norm per denominator ------------------------


def projective_space(k):
    """P^k with charts i = 0..k, coordinates x<i><j> = X_j/X_i for j != i."""
    charts = {str(i): {"even": [f"x{i}{j}" for j in range(k + 1) if j != i], "odd": []}
              for i in range(k + 1)}
    transitions = {}
    for a in range(k + 1):
        for b in range(k + 1):
            if a != b:
                over_a = {j: "1" if j == a else f"x{a}{j}" for j in range(k + 1)}
                transitions[f"{a}->{b}"] = {
                    f"x{b}{j}": f"{over_a[j]}/{over_a[b]}" for j in range(k + 1) if j != b}
    return load_atlas({"charts": charts, "transitions": transitions})[0]


def counting(monkeypatch, owner, name):
    """Wrap ``owner.<name>`` and return the list its calls are appended to."""
    calls, real = [], getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def lifted_by(atlas, group, parity):
    g = parse_group_spec(group)
    return lift_atlas(atlas, g, parse_parity_spec(g, parity))


@pytest.mark.parametrize("atlas, group, parity, towers, signatures", [
    (lambda: load_atlas(json.loads(inputs.projective_superline()))[0], "12", "1", 1, 2),
    (lambda: projective_space(2), "4", "0", 2, 3),
    (lambda: projective_space(3), "4", "0", 3, 4),
], ids=["P11-Z12", "P2-Z4", "P3-Z4"])
def test_a_lift_norms_each_denominator_once_and_covers_each_chart_once(
    monkeypatch, atlas, group, parity, towers, signatures
):
    """The orbit tower norms each distinct denominator once per atlas: the
    transitions of P^{1|1} share one, and those of P^k one per coordinate
    position, as a->b divides by the coordinate X_b/X_a of chart a (2, 6 and
    12 towers when each transition normed its own, 4, 12 and 36 when each
    image did).  The images of a transition share one denominator object,
    and the covering signature of each chart is built once (6, 15 and 28
    before)."""
    from gradedcover import algebra

    atlas = atlas()
    tower = counting(monkeypatch, algebra, "_orbit_tower")
    signature = counting(monkeypatch, covering, "covering_signature")
    lifted = lifted_by(atlas, group, parity)
    assert (len(tower), len(signature)) == (towers, signatures)
    for m in lifted.transitions.values():
        dens = {id(img.denominator) for img in m.images.values() if not img.is_zero()}
        assert len(dens) == 1
    monkeypatch.undo()
    assert check_cocycle(lifted).ok


def test_images_equal_by_value_share_one_norm(monkeypatch):
    """Denominators are found by value too: x/(1 + y) and 1/(1 + y), parsed
    apart, take one tower and one denominator object."""
    from gradedcover import algebra

    g, pm = z2_trivial()
    source, target = SuperSignature(even=["x", "y"]), SuperSignature(even=["u", "v"])
    psi = SuperMorphism(source, target, {
        "u": parse_expression("x/(1 + y)", source), "v": parse_expression("1/(1 + y)", source)})
    assert psi.images["u"].denominator is not psi.images["v"].denominator
    tower = counting(monkeypatch, algebra, "_orbit_tower")
    lifted = lift_super(psi, g, pm)
    assert len(tower) == 1
    assert len({id(img.denominator) for img in lifted.images.values() if not img.is_zero()}) == 1


def test_descent_weighs_a_shared_denominator_once_per_transition(monkeypatch):
    """The four copies of each transition of lifted P^1/Z_4, loaded from its
    JSON, share one denominator object: descent weighs it once per
    transition, not once per copy."""
    g = parse_group_spec("4")
    pm = parse_parity_spec(g, "0")
    lifted = lifted_by(load_atlas(json.loads(inputs.projective_line()))[0], "4", "0")
    loaded = load_atlas(json.loads(json.dumps(dump_atlas(lifted, g, pm))))[0]
    dens = {id(img.denominator) for m in loaded.transitions.values() for img in m.images.values()}
    assert len(dens) == len(loaded.transitions) == 2
    weighed = counting(monkeypatch, SuperPolynomial, "termwise_weight")
    report, path = checked(loaded)
    assert report.ok and path == "descent"
    assert len([p for (p,) in weighed if id(p) in dens]) == 2
    assert len(weighed) == 2 + 2 * 4  # and each copy's numerator


def test_descent_builds_one_projection_per_chart(monkeypatch):
    lifted = lifted_atlas("shear", 3, "4", "1")
    projections = counting(monkeypatch, covering, "_projection")
    report, path = checked(lifted)
    assert report.ok and path == "descent"
    assert len(projections) == len(lifted.charts) == 3


@pytest.mark.parametrize("sweep", inputs.lift_sweep([0, 7, 11]),
                         ids=[inputs.atlas_key(*key) for key in inputs.lift_sweep([0, 7, 11])])
def test_an_atlas_lift_is_the_lift_of_each_transition(sweep):
    family, index, group, parity = sweep
    assert_lift_of_each_transition(
        load_atlas(json.loads(inputs.atlas_text(family, index)))[0], group, parity)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("group", ["4", "6"])
def test_an_atlas_lift_of_projective_space_is_the_lift_of_each_transition(k, group):
    """The transitions of P^k share their norms across charts, which
    ``lift_super`` never does."""
    assert_lift_of_each_transition(projective_space(k), group, "0")


def assert_lift_of_each_transition(atlas, group, parity):
    """Each lifted transition has the images of ``lift_super``, which shares
    nothing across transitions: equal terms and equal printed text.  Both
    are built unchecked, so each is rebuilt through the validating
    ``GradedMorphism`` too, which must accept it unchanged."""
    g = parse_group_spec(group)
    pm = parse_parity_spec(g, parity)
    lifted = lift_atlas(atlas, g, pm)
    for key, psi in atlas.transitions.items():
        alone = lift_super(psi, g, pm)
        for lift in (lifted.transitions[key], alone):
            assert GradedMorphism(lift.source, lift.target, lift.images) == lift
        assert list(lifted.transitions[key].images) == list(alone.images)
        assert lifted.transitions[key] == alone
        for name, img in alone.images.items():
            got = lifted.transitions[key].images[name]
            assert got.numerator.terms == img.numerator.terms
            assert got.denominator.terms == img.denominator.terms
            assert format_expression(got) == format_expression(img)


def test_images_over_conductors_past_the_bound_compose_and_lift_each_at_its_own():
    """psi's images need zeta_257 and zeta_263, whose lcm, 67,591, passes the
    conductor bound, but no image needs both: each is substituted at its own."""
    g = make_group([2])
    pm = ParityMap.trivial(g)
    sig = SuperSignature(even=["u", "v"])
    u, v = (SuperRational.variable(sig, n).numerator for n in ("u", "v"))
    a, b = root_of_unity(257, 1), root_of_unity(263, 1)
    images = {"u": SuperRational(u, 1 + a * u), "v": SuperRational(v, 1 + b * v)}
    psi = SuperMorphism(sig, sig, images)
    pulled = compose(psi, covering_map(sig, g, pm))
    for name, n in (("u", 257), ("v", 263)):
        img = pulled.images[name]
        assert {c.conductor for p in (img.numerator, img.denominator)
                for c in p.terms.values()} == {n}
    lift = lift_super(psi, g, pm)
    assert GradedMorphism(lift.source, lift.target, lift.images) == lift


@pytest.mark.parametrize("text, group, parity", [
    (inputs.projective_line, "7", "0"), (inputs.projective_superline, "12", "1"),
], ids=["P1-Z7", "P11-Z12"])
def test_lifted_transitions_split_as_the_replaced_route(monkeypatch, text, group, parity):
    """The images of each transition, as ``lift_atlas`` hands them to
    ``_components`` with one ``seen`` for the atlas, split term for term as
    the tower's cofactors, multiplied in turn and weighed, split them."""
    calls = []
    real = covering._components

    def spy(fs, seen=None):
        calls.append((fs, real(fs, seen)))
        return calls[-1][1]

    monkeypatch.setattr(covering, "_components", spy)
    lifted_by(load_atlas(json.loads(text()))[0], group, parity)
    monkeypatch.undo()
    assert len(calls) == 2
    for fs, out in calls:
        for f, got in zip(fs, out):
            assert_components_match_the_reference(f, got)


def test_p1_splits_its_one_numerator_once_per_atlas(monkeypatch):
    """P^1's 0->1 and 1->0 lift 1/x and 1/y over coverings of one layout, so
    the second transition takes the first one's norm and weight split."""
    from gradedcover import algebra

    tower = counting(monkeypatch, algebra, "_orbit_tower")
    split = counting(monkeypatch, algebra, "_split")
    lifted = lifted_by(load_atlas(json.loads(inputs.projective_line()))[0], "7", "0")
    assert (len(tower), len(split)) == (1, 1)
    monkeypatch.undo()
    assert check_cocycle(lifted).ok
