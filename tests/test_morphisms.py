"""Validation, composition, and equality of coordinate-image morphisms."""

import random

import pytest

from gradedcover import (
    GradedMorphism,
    GradedSignature,
    MorphismValidationError,
    ParityMap,
    SignatureMismatchError,
    SuperMorphism,
    SuperRational,
    SuperSignature,
    compose,
    identity_morphism,
    make_group,
    root_of_unity,
)
from conftest import random_group, random_parity, random_signature


def z2_line_signature(names=("x0", "x1")):
    g = make_group([2])
    return GradedSignature(
        g,
        ParityMap.trivial(g),
        even=[(names[0], g.character((0,))), (names[1], g.character((1,)))],
    )


def test_identity_assignment_is_valid():
    sig = z2_line_signature()
    phi = identity_morphism(sig)
    assert isinstance(phi, GradedMorphism)
    assert phi.is_identity()


def test_weight_mismatch_is_reported_with_the_variable():
    sig = z2_line_signature()
    target = z2_line_signature(names=("y0", "y1"))
    images = {
        "y0": SuperRational.variable(sig, "x1"),  # weight (1) into a weight-(0) slot
        "y1": SuperRational.variable(sig, "x1"),
    }
    with pytest.raises(MorphismValidationError) as err:
        GradedMorphism(sig, target, images)
    assert err.value.variable == "y0"
    assert "weight" in str(err.value)


def test_parity_mismatch_is_reported():
    g = make_group([2])
    pm = ParityMap(g, (1,))
    graded = GradedSignature(
        g, pm, even=[("x", g.character((0,)))], odd=[("s", g.character((1,)))]
    )
    target = SuperSignature(even=["y"], odd=["eta"])
    images = {
        "y": SuperRational.variable(graded, "s"),  # odd function on an even slot
        "eta": SuperRational.variable(graded, "s"),
    }
    with pytest.raises(MorphismValidationError) as err:
        SuperMorphism(graded, target, images)
    assert err.value.variable == "y"
    assert "parity" in str(err.value)


def test_missing_image_is_reported():
    sig = z2_line_signature()
    with pytest.raises(MorphismValidationError, match="missing"):
        GradedMorphism(sig, sig, {"x0": SuperRational.variable(sig, "x0")})


def test_zero_images_pass_validation():
    sig = z2_line_signature()
    target = z2_line_signature(names=("y0", "y1"))
    phi = GradedMorphism(
        sig,
        target,
        {"y0": SuperRational.variable(sig, "x0"), "y1": SuperRational.zero(sig)},
    )
    assert phi.images["y1"].is_zero()


def test_projective_line_transition_is_a_valid_graded_morphism():
    sig = z2_line_signature()
    target = z2_line_signature(names=("y0", "y1"))
    x0 = SuperRational.variable(sig, "x0")
    x1 = SuperRational.variable(sig, "x1")
    delta = x0**2 - x1**2
    phi = GradedMorphism(sig, target, {"y0": x0 / delta, "y1": -x1 / delta})
    # validation soundness: accepted images really are homogeneous
    for name in target.even:
        image = phi.images[name]
        assert image.is_zero() or image.weight() == target.weight_of_var(name)


def test_compose_with_identity_is_neutral():
    sig = z2_line_signature()
    target = z2_line_signature(names=("y0", "y1"))
    x0 = SuperRational.variable(sig, "x0")
    x1 = SuperRational.variable(sig, "x1")
    phi = GradedMorphism(sig, target, {"y0": x0 + x1**2, "y1": x1 + x0 * x1})
    assert compose(phi, identity_morphism(sig)) == phi
    assert compose(identity_morphism(target), phi) == phi


def test_projective_line_cocycle_composite_is_identity():
    x_chart = z2_line_signature()
    y_chart = z2_line_signature(names=("y0", "y1"))
    x0 = SuperRational.variable(x_chart, "x0")
    x1 = SuperRational.variable(x_chart, "x1")
    y0 = SuperRational.variable(y_chart, "y0")
    y1 = SuperRational.variable(y_chart, "y1")
    dx = x0**2 - x1**2
    dy = y0**2 - y1**2
    fwd = GradedMorphism(x_chart, y_chart, {"y0": x0 / dx, "y1": -x1 / dx})
    back = GradedMorphism(y_chart, x_chart, {"x0": y0 / dy, "x1": -y1 / dy})
    assert compose(back, fwd).is_identity()
    assert compose(fwd, back).is_identity()


def test_compose_is_associative_on_random_chains():
    rng = random.Random(77)
    for _ in range(10):
        grp = random_group(rng)
        pm = random_parity(rng, grp)
        sigs = [random_signature(rng, grp, pm) for _ in range(4)]
        chain = [
            _random_graded_poly_morphism(rng, sigs[k], sigs[k + 1]) for k in range(3)
        ]
        lhs = compose(chain[2], compose(chain[1], chain[0]))
        rhs = compose(compose(chain[2], chain[1]), chain[0])
        assert lhs == rhs
        assert isinstance(lhs, GradedMorphism)  # gradedness survives composition


def _random_graded_poly_morphism(rng, source, target):
    """Graded polynomial morphism: each image a monomial of the right weight."""
    images = {}
    for name, weight in zip(
        target.even + target.odd, target.even_weights + target.odd_weights
    ):
        images[name] = _monomial_of_weight(rng, source, weight)
    return GradedMorphism(source, target, images)


def _monomial_of_weight(rng, sig, weight):
    # search products of source variables for one of the requested weight
    for _ in range(400):
        f = SuperRational.constant(sig, rng.randint(1, 3))
        for _ in range(rng.randint(0, 3)):
            f = f * SuperRational.variable(sig, rng.choice(sig.even))
        if sig.odd and rng.random() < 0.4:
            f = f * SuperRational.variable(sig, rng.choice(sig.odd))
        if f.is_zero():
            continue
        if f.weight() == weight and f.grassmann_parity() == sig.parity(weight):
            return f
    return SuperRational.zero(sig)


def test_morphism_equality_uses_cross_multiplication():
    sig = z2_line_signature()
    x0 = SuperRational.variable(sig, "x0")
    one_form = GradedMorphism(sig, sig, {
        "x0": x0,
        "x1": SuperRational.variable(sig, "x1"),
    })
    other_form = GradedMorphism(sig, sig, {
        "x0": (x0 * x0) / x0,  # same function, different representation
        "x1": SuperRational.variable(sig, "x1"),
    })
    assert one_form == other_form
    assert other_form.is_identity()


def test_swapping_same_weight_variables_is_not_the_identity():
    g = make_group([2])
    sig = GradedSignature(
        g,
        ParityMap.trivial(g),
        even=[("u", g.character((1,))), ("v", g.character((1,)))],
    )
    swap = GradedMorphism(sig, sig, {
        "u": SuperRational.variable(sig, "v"),
        "v": SuperRational.variable(sig, "u"),
    })
    assert not swap.is_identity()


def test_compose_rejects_mismatched_signatures():
    sig_a = z2_line_signature()
    sig_b = z2_line_signature(names=("y0", "y1"))
    phi = identity_morphism(sig_a)
    psi = identity_morphism(sig_b)
    with pytest.raises(SignatureMismatchError):
        compose(psi, phi)


def test_singular_composition_is_a_math_error():
    """Substituting a nilpotent into a denominator has no inverse."""
    g = make_group([2])
    pm = ParityMap(g, (1,))
    sig = GradedSignature(
        g, pm,
        even=[("x", g.character((0,)))],
        odd=[("s1", g.character((1,))), ("s2", g.character((1,)))],
    )
    target = SuperSignature(even=["y"])
    final = SuperSignature(even=["z"])
    s1 = SuperRational.variable(sig, "s1")
    s2 = SuperRational.variable(sig, "s2")
    first = SuperMorphism(sig, target, {"y": s1 * s2})
    y = SuperRational.variable(target, "y")
    second = SuperMorphism(target, final, {"z": 1 / y})
    with pytest.raises(Exception) as err:
        compose(second, first)
    assert "invertible" in str(err.value)


def test_graded_morphism_requires_matching_groups():
    sig2 = z2_line_signature()
    g4 = make_group([4])
    sig4 = GradedSignature(
        g4, ParityMap.trivial(g4), even=[("x0", g4.character((0,)))]
    )
    with pytest.raises(SignatureMismatchError):
        GradedMorphism(sig2, sig4, {"x0": SuperRational.variable(sig2, "x0")})


def test_extra_image_keys_are_rejected():
    sig = z2_line_signature()
    images = {
        "x0": SuperRational.variable(sig, "x0"),
        "x1": SuperRational.variable(sig, "x1"),
        "bogus": SuperRational.variable(sig, "x0"),
    }
    with pytest.raises(MorphismValidationError, match="bogus"):
        GradedMorphism(sig, sig, images)


# -- validation weighs each shared denominator once ---------------------------


def lifted_projective_line(order):
    from gradedcover import lift_super

    grp = make_group([order])
    x = SuperRational.variable(SuperSignature(even=["x"]), "x")
    psi = SuperMorphism(x.signature, SuperSignature(even=["y"]), {"y": 1 / x})
    return lift_super(psi, grp, ParityMap.trivial(grp))


def test_a_wrong_numerator_over_the_shared_denominator_is_reported():
    lifted = lifted_projective_line(3)
    images = dict(lifted.images)
    shared = images["y@(0)"].denominator
    assert all(img.denominator is shared for img in images.values())
    # y@(2) gets the weight-(1) numerator over the very same denominator object
    images["y@(2)"] = SuperRational(images["y@(1)"].numerator, shared)
    with pytest.raises(MorphismValidationError) as err:
        GradedMorphism(lifted.source, lifted.target, images)
    assert err.value.variable == "y@(2)"
    assert "weight" in str(err.value)
    # an inhomogeneous numerator over it is named too
    images["y@(2)"] = SuperRational(
        images["y@(1)"].numerator + lifted.images["y@(2)"].numerator, shared
    )
    with pytest.raises(MorphismValidationError, match="inhomogeneous") as err:
        GradedMorphism(lifted.source, lifted.target, images)
    assert err.value.variable == "y@(2)"


def test_a_shared_inhomogeneous_denominator_is_normed_once(monkeypatch):
    sig = z2_line_signature()
    target = z2_line_signature(names=("y0", "y1"))
    x0, x1 = (SuperRational.variable(sig, n).numerator for n in ("x0", "x1"))
    shared = 1 + x1  # weights 0 and 1: not termwise homogeneous
    normed = []
    real = SuperRational._normed

    def spy(self):
        normed.append(self)
        return real(self)

    monkeypatch.setattr(SuperRational, "_normed", spy)
    images = {"y0": SuperRational(x0 * shared, shared), "y1": SuperRational(x1 * shared, shared)}
    GradedMorphism(sig, target, images)
    assert len(normed) == 1 and normed[0] is images["y0"]
    images["y1"] = SuperRational(x0, shared)  # x0/(1 + x1) is inhomogeneous
    with pytest.raises(MorphismValidationError, match="inhomogeneous") as err:
        GradedMorphism(sig, target, images)
    assert err.value.variable == "y1"


def test_images_over_conductors_past_the_bound_validate_each_at_its_own():
    """Denominators with one set of monomials, over zeta_257 and zeta_263,
    are compared without a lift to their lcm, 67,591; validation takes the
    images in order, so the first mismatch raises before a later image's
    norm is refused by the conductor bound."""
    sig = z2_line_signature()
    target = z2_line_signature(names=("y0", "y1"))
    x0, x1 = (SuperRational.variable(sig, n).numerator for n in ("x0", "x1"))
    a, b = root_of_unity(257, 1), root_of_unity(263, 1)
    images = {"y0": SuperRational(x0, 1 + a * x0), "y1": SuperRational(x1, 1 + b * x0)}
    assert GradedMorphism(sig, target, images).images == images
    images["y0"] = SuperRational.variable(sig, "x1")
    images["y1"] = SuperRational(x1, root_of_unity(4093, 1) * x0 + root_of_unity(4091, 1) * x1)
    with pytest.raises(MorphismValidationError, match="weight mismatch") as err:
        GradedMorphism(sig, target, images)
    assert err.value.variable == "y0"
