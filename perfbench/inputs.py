"""Seeded benchmark inputs, written as text without calling the library.

Every input is a pure function of its name and index, so the same seed
always selects byte-identical inputs.  Expressions are composed here
rather than through ``format_expression``: the benchmark must not depend
on the formatter it measures.

Two families are drawn from fixed universes whose CLI outputs are recorded
in ``goldens.json``: 3-chart shear atlases (``SHEAR_UNIVERSE`` of them) and
small rational superfunctions for ``decompose`` (``DECOMPOSE_UNIVERSE``).
A run seed picks members of these universes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

SHEAR_UNIVERSE = 16
DECOMPOSE_UNIVERSE = 2048
DECOMPOSE_POOL = 1024

# Groups of order <= 12 built from the factors 2, 3 and 4.
DECOMPOSE_GROUPS = (
    (2,), (3,), (4,), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2),
    (3, 3), (3, 4), (4, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2),
)

# (group, parity) sweeps for each atlas family; the lift of P^1 over Z_8
# takes seconds and over Z_12 does not finish in minutes, so both are out.
P1_LIFT_GROUPS = (("2", "0"), ("3", "0"), ("4", "0"), ("5", "0"), ("6", "0"), ("7", "0"))
P11_LIFT_GROUPS = (("4", "1"), ("6", "1"), ("8", "1"), ("12", "1"), ("2x2x2", "100"), ("2x2", "11"))
SHEAR_LIFT_GROUPS = (("4", "1"), ("2x2", "11"), ("6", "1"))

P1_COCYCLE_GROUPS = (("2", "0"), ("3", "0"), ("4", "0"))
P11_COCYCLE_GROUPS = (("4", "1"), ("6", "1"))
SHEAR_COCYCLE_GROUPS = (("4", "1"), ("2x2", "11"))
# The broken atlas is this lifted atlas with one image shifted.
BROKEN_BASE = ("P1", 0, "3", "0")
BROKEN_TRANSITION = "1->0"
BROKEN_VARIABLE = "x@(0)"

WORKLOADS = ("atlas-lift", "cocycle-check", "decompose-stream")


def _dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def projective_line() -> str:
    """P^1 with charts x and y = 1/x."""
    return _dumps({
        "charts": {"0": {"even": ["x"], "odd": []}, "1": {"even": ["y"], "odd": []}},
        "transitions": {"0->1": {"y": "1/x"}, "1->0": {"x": "1/y"}},
    })


def projective_superline() -> str:
    """P^{1|1} with charts (x|xi) and (y|eta) = (1/x | xi/x)."""
    return _dumps({
        "charts": {
            "0": {"even": ["x"], "odd": ["xi"]},
            "1": {"even": ["y"], "odd": ["eta"]},
        },
        "transitions": {
            "0->1": {"y": "1/x", "eta": "xi/x"},
            "1->0": {"x": "1/y", "xi": "eta/y"},
        },
    })


def _signed(terms: list[tuple[int, str]]) -> str:
    """Join (integer coefficient, body) pairs into a sum, dropping zero terms."""
    text = ""
    for coeff, body in terms:
        if coeff == 0:
            continue
        mag = "" if abs(coeff) == 1 and body else str(abs(coeff))
        piece = mag + ("*" if mag and body else "") + body
        if not text:
            text = piece if coeff > 0 else "-" + piece
        else:
            text += (" + " if coeff > 0 else " - ") + piece
    return text or "0"


def shear_params(index: int) -> dict[str, tuple[int, int, int]]:
    rng = random.Random(f"shear:{index}")
    return {cid: tuple(rng.randint(-3, 3) for _ in range(3)) for cid in "012"}


def shear_atlas(index: int) -> str:
    """Three charts (u,v|p,q); T_ab = S_b^-1 o S_a for shears S_c with
    u -> u + c1*v^2 + c3*p*q, p -> p + c2*v*q, so the cocycle holds."""
    params = shear_params(index)
    charts = {cid: {"even": [f"u{cid}", f"v{cid}"], "odd": [f"p{cid}", f"q{cid}"]}
              for cid in params}
    transitions = {}
    for a, b in itertools.permutations(params, 2):
        c1, c2, c3 = (x - y for x, y in zip(params[a], params[b]))
        u, v, p, q = (f"{n}{a}" for n in "uvpq")
        transitions[f"{a}->{b}"] = {
            f"u{b}": _signed([(1, u), (c1, f"{v}^2"), (c3, f"{p}*{q}")]),
            f"v{b}": v,
            f"p{b}": _signed([(1, p), (c2, f"{v}*{q}")]),
            f"q{b}": q,
        }
    return _dumps({"charts": charts, "transitions": transitions})


def atlas_text(family: str, index: int = 0) -> str:
    if family == "P1":
        return projective_line()
    if family == "P11":
        return projective_superline()
    if family == "shear":
        return shear_atlas(index)
    raise ValueError(f"unknown atlas family {family!r}")


def atlas_key(family: str, index: int, group: str, parity: str) -> str:
    """Name of a lifted atlas: ``P1/7/0`` or ``shear3/2x2/11``."""
    name = family + (str(index) if family == "shear" else "")
    return f"{name}/{group}/{parity}"


def lift_sweep(shear: list[int]) -> list[tuple[str, int, str, str]]:
    """(family, index, group, parity) of each op of an atlas-lift pass."""
    return ([("P1", 0, g, p) for g, p in P1_LIFT_GROUPS]
            + [("P11", 0, g, p) for g, p in P11_LIFT_GROUPS]
            + [("shear", j, g, p) for j, (g, p) in zip(shear, SHEAR_LIFT_GROUPS)])


def cocycle_sweep(shear: list[int]) -> list[tuple[str, int, str, str]]:
    """The lifted atlases a cocycle-check pass checks, before the broken one."""
    return ([("P1", 0, g, p) for g, p in P1_COCYCLE_GROUPS]
            + [("P11", 0, g, p) for g, p in P11_COCYCLE_GROUPS]
            + [("shear", j, g, p) for j, (g, p) in zip(shear, SHEAR_COCYCLE_GROUPS)])


def break_lifted(lifted_text: str) -> str:
    """Shift one image of a lifted atlas by 1, which breaks its cocycle."""
    data = json.loads(lifted_text)
    images = data["transitions"][BROKEN_TRANSITION]
    images[BROKEN_VARIABLE] = f"({images[BROKEN_VARIABLE]}) + 1"
    return _dumps(data)


# -- decompose inputs ------------------------------------------------------


def _weights(factors: tuple[int, ...]):
    return list(itertools.product(*(range(q) for q in factors)))


def _weight_text(name: str, residues: tuple[int, ...]) -> str:
    return f"{name}@({','.join(str(r) for r in residues)})"


def _monomials(n_even: int, n_odd: int, max_degree: int, with_odd: bool):
    """All (even exponents, odd index set) pairs of total degree <= max_degree."""
    out = []
    for exps in itertools.product(range(max_degree + 1), repeat=n_even):
        used = sum(exps)
        if used > max_degree:
            continue
        odd_sets = [()]
        if with_odd:
            odd_sets = [s for k in range(0, min(n_odd, max_degree - used) + 1)
                        for s in itertools.combinations(range(n_odd), k)]
        out.extend((exps, s) for s in odd_sets)
    return out


def _coefficient(rng: random.Random, exponent: int) -> str:
    q = Fraction(rng.randint(1, 4), rng.choice((1, 1, 2, 3)))
    text = str(q)
    if rng.random() < 0.3:
        text += f"*zeta({exponent},{rng.randrange(exponent)})"
    return text


def _poly_text(rng, monos, even_names, odd_names, exponent) -> str:
    pieces = []
    for exps, odd in monos:
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(even_names, exps) if e]
        factors.extend(odd_names[j] for j in odd)
        coeff = _coefficient(rng, exponent)
        sign = rng.choice((1, -1))
        body = "*".join([coeff] + factors)
        pieces.append(("-" if sign < 0 else "+", body))
    text = pieces[0][1] if pieces[0][0] == "+" else "-" + pieces[0][1]
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def decompose_spec(index: int) -> dict:
    """One ``decompose`` input: group, parity, variables and expression text.

    A random rational superfunction over a group of order <= 12 with a
    random parity, up to 3 even and 3 odd weighted variables, a numerator
    of 3 distinct monomials of degree <= 4 and a denominator of 2 distinct
    even monomials of degree <= 2.  Distinct monomials with nonzero
    coefficients keep both parts nonzero, so every call succeeds.
    """
    rng = random.Random(f"decompose:{index}")
    factors = rng.choice(DECOMPOSE_GROUPS)
    bits = tuple(rng.randint(0, 1) if q % 2 == 0 else 0 for q in factors)
    weights = _weights(factors)
    even_w = [w for w in weights if sum(k * b for k, b in zip(w, bits)) % 2 == 0]
    odd_w = [w for w in weights if sum(k * b for k, b in zip(w, bits)) % 2 == 1]
    n_even = rng.randint(1, 3)
    n_odd = rng.randint(0, 3) if odd_w else 0
    even_names = [_weight_text(f"x{k}", rng.choice(even_w)) for k in range(n_even)]
    odd_names = [_weight_text(f"s{k}", rng.choice(odd_w)) for k in range(n_odd)]
    exponent = math.lcm(*factors)
    num = rng.sample(_monomials(n_even, n_odd, 4, True), 3)
    den = rng.sample(_monomials(n_even, 0, 2, False), 2)
    return {
        "group": "x".join(map(str, factors)),
        "parity": "".join(map(str, bits)),
        "even": ",".join(even_names),
        "odd": ",".join(odd_names),
        "expr": f"({_poly_text(rng, num, even_names, odd_names, exponent)})"
                f"/({_poly_text(rng, den, even_names, odd_names, exponent)})",
    }


def decompose_argv(spec: dict) -> list[str]:
    argv = ["decompose", "--group", spec["group"], "--parity", spec["parity"],
            "--even", spec["even"]]
    if spec["odd"]:
        argv += ["--odd", spec["odd"]]
    return argv + [f"--expr={spec['expr']}", "--json"]


# -- per-seed selection ----------------------------------------------------


def selection(workload: str, seed: int) -> dict:
    """Universe members a run seed picks for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "atlas-lift":
        return {"shear": [rng.randrange(SHEAR_UNIVERSE) for _ in SHEAR_LIFT_GROUPS]}
    if workload == "cocycle-check":
        return {"shear": [rng.randrange(SHEAR_UNIVERSE) for _ in SHEAR_COCYCLE_GROUPS]}
    if workload == "decompose-stream":
        return {"decompose": rng.sample(range(DECOMPOSE_UNIVERSE), DECOMPOSE_POOL)}
    raise ValueError(f"unknown workload {workload!r}")


def universe_digest() -> str:
    """SHA-256 over every input text the universes can produce."""
    h = hashlib.sha256()
    for text in [projective_line(), projective_superline()] + [
        shear_atlas(j) for j in range(SHEAR_UNIVERSE)
    ]:
        h.update(text.encode())
    for i in range(DECOMPOSE_UNIVERSE):
        h.update(json.dumps(decompose_argv(decompose_spec(i))).encode())
    return h.hexdigest()
