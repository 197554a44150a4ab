"""Morphisms of graded domains and superdomains as coordinate-image maps.

A morphism into a domain with coordinates (y_i, eta_j) is determined by
the pullback images of those coordinates, so it is stored as a validated
mapping from target variable names to superfunctions over the source.
``SuperMorphism`` checks parities only; ``GradedMorphism`` additionally
requires every image to be one ``_components`` bucket, of its variable's weight.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .algebra import GradedSignature, SuperRational, SuperSignature, _components, _substitute
from .cyclotomic import _Frozen, _restore
from .errors import MorphismValidationError, SignatureMismatchError


class SuperMorphism(_Frozen):
    """A parity-respecting morphism with a superdomain target.

    The source may be a plain or a graded signature; no weight conditions
    are imposed on the images.
    """

    __slots__ = ("source", "target", "images")

    def __init__(
        self,
        source: SuperSignature,
        target: SuperSignature,
        images: Mapping[str, SuperRational],
    ):
        images = dict(images)
        _check_images_complete(target, images)
        for name, img in images.items():
            if img.signature != source:
                raise SignatureMismatchError(
                    f"image of {name!r} is not a function over the source signature"
                )
        _check_parities(target, images)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def __eq__(self, other):
        if not isinstance(other, SuperMorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        # coordinatewise cross-multiplication equality
        return all(self.images[n] == other.images[n] for n in self.images)

    __hash__ = None

    def is_identity(self) -> bool:
        return self.source == self.target and next(self._moved(), None) is None

    def _moved(self) -> Iterator[str]:
        """The variables of an endomorphism whose images are not themselves
        (``_is_variable``), one test per image and no product."""
        sig = self.source
        return (n for n in sig.even + sig.odd if not _is_variable(self.images[n], n))

    def __repr__(self):
        return f"{type(self).__name__}({self.source!r} -> {self.target!r})"


class GradedMorphism(SuperMorphism):
    """A morphism of graded domains: images are homogeneous of the right weight.

    ``_components`` must split each image into one component, of its
    variable's weight; images in order share one ``seen``, so each distinct
    denominator is normed once.  ``covering._lift`` builds lifts unchecked,
    and ``compose`` composites.
    """

    __slots__ = ()

    def __init__(
        self,
        source: GradedSignature,
        target: GradedSignature,
        images: Mapping[str, SuperRational],
    ):
        if not isinstance(source, GradedSignature) or not isinstance(
            target, GradedSignature
        ):
            raise TypeError("graded morphisms need graded signatures on both sides")
        if source.group != target.group or source.parity != target.parity:
            raise SignatureMismatchError(
                "source and target are graded by different groups or parities"
            )
        super().__init__(source, target, images)
        seen: list = []  # shared, so each distinct denominator is normed once
        for name in target.even + target.odd:  # image by image: the first mismatch raises
            (parts,) = _components([self.images[name]], seen)
            expected = target.weight_of_var(name)
            if parts and list(parts) != [expected]:  # a zero image has no parts
                found = str(next(iter(parts))) if len(parts) == 1 else "inhomogeneous"
                raise MorphismValidationError(name, "weight mismatch", str(expected), found)


def _is_variable(f: SuperRational, name: str) -> bool:
    """f == the variable ``name`` of f's signature, with no product.

    f = N/D with D even and non-zero, so f = v exactly when N = v*D.  D has no
    odd part, so v*D has no reordering sign: each term c*m of D gives the term
    c*(v*m), v's exponent in m raised by 1 for an even v, the odd set {v} for an
    odd one, and distinct m give distinct v*m.  So N = v*D exactly when N has
    as many terms as D and each shifted term of D is a term of N with its
    coefficient; differing term counts alone prove v moved.
    """
    sig, num, den = f.signature, f.numerator.terms, f.denominator.terms
    if len(num) != len(den):
        return False
    if name in sig.even:
        i = sig.even.index(name)
        shifted = {(m.even[:i] + (m.even[i] + 1,) + m.even[i + 1:], ()): c for m, c in den.items()}
    else:
        odd = (sig.odd.index(name),)
        shifted = {(m.even, odd): c for m, c in den.items()}
    return num == shifted


def _check_images_complete(target: SuperSignature, images: dict):
    declared = set(target.even) | set(target.odd)
    for name in sorted(declared):
        if name not in images:
            raise MorphismValidationError(name, "missing image")
    extra = sorted(set(images) - declared)
    if extra:
        raise MorphismValidationError(extra[0], "not a variable of the target signature")


def _check_parities(target: SuperSignature, images: dict):
    for name in target.even + target.odd:
        img = images[name]
        if img.is_zero():
            continue
        want = target.parity_of_var(name)
        found = img.grassmann_parity()
        if found != want:
            raise MorphismValidationError(
                name,
                "parity mismatch",
                expected=want,
                found="mixed" if found is None else found,
            )


def compose(second: SuperMorphism, first: SuperMorphism) -> SuperMorphism:
    """The composite morphism; pullbacks compose in the opposite order.

    ``second`` maps B -> C and ``first`` maps A -> B; the result maps
    A -> C with images second*(z) evaluated along first, all of them in one
    ``_substitute``, which packs each image of ``first`` once; an image N/D is
    N's value times the inverse of D's, packed where that is 1 or even and varies.
    A singular composite, whose D has a value of zero body, raises ``GradedError``.
    Built unchecked, as ``covering._lift`` builds lifts: evaluation along
    ``first`` is a homomorphism into functions over A that keeps parity, and
    weight where both are graded (equivariant), so each variable of C keeps an
    image of its parity and weight, or 0, as ``second`` gave it.
    """
    if first.target != second.source:
        raise SignatureMismatchError("inner target and outer source signatures differ")
    # first's images are complete, over first.source and of their variables'
    # parities, which is all that ``SuperRational.substitute`` checks
    images = dict(zip(second.images, _substitute(list(second.images.values()),
                                                 first.images, first.source)))
    graded = isinstance(first, GradedMorphism) and isinstance(second, GradedMorphism)
    return _restore(GradedMorphism if graded else SuperMorphism,
                    (first.source, second.target, images))


def identity_morphism(signature: SuperSignature) -> SuperMorphism:
    images = {
        name: SuperRational.variable(signature, name)
        for name in signature.even + signature.odd
    }
    if isinstance(signature, GradedSignature):
        return GradedMorphism(signature, signature, images)
    return SuperMorphism(signature, signature, images)
