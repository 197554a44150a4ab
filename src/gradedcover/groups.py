"""Finite abelian groups, their characters, and character parities.

A group is a product of cyclic factors Z_q1 x ... x Z_qt; elements and
characters are residue tuples of the same shape.  The character with
residues (k_1, ..., k_t) is the homomorphism

    g = (g_1, ..., g_t)  |->  prod_i zeta_{q_i}^(k_i * g_i),

evaluated exactly in Q(zeta_N) where N is the group exponent.  Both
kinds share one residue base, ``_Residues``, yet never compare equal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cyclotomic import Cyclotomic, root_of_unity
from .errors import _quoted

DEFAULT_ORDER_BOUND = 4096


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z_q1 x ... x Z_qt given by its cyclic factor orders."""

    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for q in self.factors:
            if not isinstance(q, int):
                raise ValueError(f"cyclic factor orders must be ints, got {q!r}")
            if q < 2:
                raise ValueError(f"cyclic factor orders must be >= 2, got {q}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors) if self.factors else 1

    @property
    def rank(self) -> int:
        return len(self.factors)

    def _canon(self, residues: Sequence[int]) -> tuple[int, ...]:
        residues = tuple(residues)
        if not all(isinstance(r, int) for r in residues):
            raise ValueError(f"residues must be ints, got {residues!r}")
        if len(residues) != len(self.factors):
            raise ValueError(
                f"residue tuple of length {len(residues)} for a group of rank {len(self.factors)}"
            )
        return tuple(r % q for r, q in zip(residues, self.factors))

    def element(self, residues: Sequence[int]) -> "GroupElement":
        return GroupElement(self, self._canon(residues))

    def character(self, residues: Sequence[int]) -> "Character":
        return Character(self, self._canon(residues))

    @property
    def identity_character(self) -> "Character":
        return Character(self, (0,) * len(self.factors))

    def _enumerate(self, kind):
        return [
            kind(self, r)
            for r in itertools.product(*(range(q) for q in self.factors))
        ]

    def elements(self) -> list["GroupElement"]:
        """All elements, lexicographic on residue tuples."""
        return self._enumerate(GroupElement)

    def characters(self) -> list["Character"]:
        """All characters, lexicographic on residue tuples."""
        return self._enumerate(Character)

    def __str__(self):
        return "x".join(str(q) for q in self.factors) if self.factors else "1"


def make_group(factors: Iterable[int]) -> FiniteAbelianGroup:
    """Build Z_q1 x ... x Z_qt, of order at most ``DEFAULT_ORDER_BOUND`` for averaging."""
    group = FiniteAbelianGroup(tuple(factors))
    if group.order > DEFAULT_ORDER_BOUND:
        raise ValueError(f"group order {group.order} exceeds the bound {DEFAULT_ORDER_BOUND}")
    return group


@dataclass(frozen=True)
class _Residues:
    """A group plus a residue tuple, multiplied residue-wise."""

    group: FiniteAbelianGroup
    residues: tuple[int, ...]

    def __mul__(self, other):
        if other.group != self.group:
            raise ValueError("operands belong to different groups")
        return type(self)(
            self.group,
            tuple(
                (a + b) % q
                for a, b, q in zip(self.residues, other.residues, self.group.factors)
            ),
        )

    def __pow__(self, k: int):
        return type(self)(
            self.group, tuple(k * a % q for a, q in zip(self.residues, self.group.factors))
        )

    def inverse(self):
        return self ** -1

    def is_identity(self) -> bool:
        return not any(self.residues)

    def __str__(self):
        return "(" + ",".join(str(r) for r in self.residues) + ")"


class GroupElement(_Residues):
    """A group element g = (g_1, ..., g_t)."""


class Character(_Residues):
    """A weight label: the character g -> prod zeta_{q_i}^(k_i g_i)."""

    def exponent_at(self, g: GroupElement) -> int:
        """The e in range(n) with chi(g) = zeta_n^e, n the group exponent."""
        if g.group != self.group:
            raise ValueError("element belongs to a different group")
        n = self.group.exponent
        terms = zip(self.residues, g.residues, self.group.factors)
        return sum(k * x * (n // q) for k, x, q in terms) % n

    def __call__(self, g: GroupElement) -> Cyclotomic:
        """Exact value at g, a root of unity of order dividing the exponent."""
        return root_of_unity(self.group.exponent, self.exponent_at(g))


def character_table(group: FiniteAbelianGroup) -> list[list[Cyclotomic]]:
    """Matrix of exact character values, rows chi and columns g in lex order."""
    elements = group.elements()
    return [[chi(g) for g in elements] for chi in group.characters()]


@dataclass(frozen=True)
class ParityMap:
    """A homomorphism from the character group to Z_2.

    Bit p_i weights the i-th residue: |chi| = sum k_i * p_i mod 2.  A bit
    may be set only over an even cyclic factor, otherwise the map would
    not be well defined on residues.
    """

    group: FiniteAbelianGroup
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))
        if len(self.bits) != len(self.group.factors):
            raise ValueError(
                f"{len(self.bits)} parity bits for a group of rank {len(self.group.factors)}"
            )
        for q, b in zip(self.group.factors, self.bits):
            if not isinstance(b, int) or b not in (0, 1):
                raise ValueError(f"parity bits must be 0 or 1, got {b!r}")
            if b and q % 2:
                raise ValueError(
                    f"parity bit set over odd cyclic factor Z_{q}: not a homomorphism"
                )

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "ParityMap":
        return cls(group, (0,) * len(group.factors))

    def __call__(self, chi: Character) -> int:
        if chi.group != self.group:
            raise ValueError("character belongs to a different group")
        return sum(k * b for k, b in zip(chi.residues, self.bits)) % 2


def parse_group_spec(spec: str) -> FiniteAbelianGroup:
    """Parse a group spec string like ``"2x2"`` or ``"4"``."""
    text = spec.strip()
    if not text:
        raise ValueError("empty group spec")
    try:
        factors = [int(part) for part in text.split("x")]
    except ValueError:
        raise ValueError(f"malformed group spec {_quoted(spec)}") from None
    return make_group(factors)


def parse_parity_spec(group: FiniteAbelianGroup, spec: str | None) -> ParityMap:
    """Parse a parity bit string like ``"11"``, one bit per cyclic factor; a blank
    spec or None is all-zero bits."""
    text = (spec or "").strip()
    if not text:
        return ParityMap.trivial(group)
    if not all(ch in "01" for ch in text):
        raise ValueError(f"parity spec must be a string of bits, got {_quoted(spec)}")
    return ParityMap(group, tuple(int(ch) for ch in text))
