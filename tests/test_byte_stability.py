"""Printed ``decompose`` output is byte-stable on mixed-conductor inputs.

The benchmark goldens (``perfbench/goldens.json``) only use coefficients
of conductor 1 or the group exponent.  Here about 200 seeded ``decompose
--json`` calls mix ``zeta(3|4|5|8|12,k)`` and ``i`` over Z_3, Z_4, Z_6 and
Z_2 x Z_2 with non-homogeneous denominators, so the printed ``zeta(N,k)``
forms depend on how products carry conductors through sums that cancel.
Over Z_6 with all weights even, the product of a denominator's nontrivial
twists loses monomials whose twist sums vanish, so regrouping the norming
products in ``SuperRational._normed`` (one shared orbit product for the
numerator and the denominator) moves printed conductors on a few of these
inputs; the benchmark goldens do not see that.  The SHA-256 of every exit
code and stdout was recorded before the product kernel packed monomials
into integer keys.

Only a change to the printed-conductor contract (ROADMAP item 1(a), minimal
conductors) may re-record ``DIGEST``; a faster product must keep it.
"""

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from gradedcover.cli import main

DIGEST = "5bf2022d1da48a2075325e20fa848bf0600c7f4c0a9018806f1244e5b0ea4d00"
CALLS = 200

# (group spec, parity bits, weights of even variables, weights of odd variables)
GROUPS = [
    ("3", "0", ["0", "1", "2"], []),
    ("4", "1", ["0", "2"], ["1", "3"]),
    ("4", "0", ["0", "1", "2", "3"], []),
    ("6", "1", ["0", "2", "4"], ["1", "3", "5"]),
    # twice: the inputs on which a regrouped orbit product shows
    ("6", "0", ["1", "2", "3", "4", "5"], []),
    ("6", "0", ["1", "2", "3", "4", "5"], []),
    ("2x2", "10", ["(0,0)", "(0,1)"], ["(1,0)", "(1,1)"]),
    ("2x2", "00", ["(0,0)", "(0,1)", "(1,0)", "(1,1)"], []),
]
ROOTS = (3, 4, 5, 8, 12)


def coefficient(rng: random.Random) -> str:
    text = str(Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3))))
    roll = rng.random()
    if roll < 0.55:
        n = rng.choice(ROOTS)
        text += f"*zeta({n},{rng.randrange(1, n)})"
    elif roll < 0.7:
        text += "*i"
    return text


def polynomial(rng: random.Random, even: list[str], odd: list[str], n_terms: int) -> str:
    text = ""
    for _ in range(n_terms):
        factors = [coefficient(rng)]
        for name in rng.sample(even, rng.randint(0, min(2, len(even)))):
            factors.append(name if rng.random() < 0.7 else f"{name}^2")
        if odd and rng.random() < 0.5:
            factors.append(rng.choice(odd))
        text += rng.choice((" + ", " - ")) + "*".join(factors)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def decompose_argv(rng: random.Random) -> list[str]:
    group, parity, even_w, odd_w = rng.choice(GROUPS)
    even = [f"x{k}@{w}" for k, w in enumerate(rng.sample(even_w, min(2, len(even_w))))]
    odd = [f"s{k}@{w}" for k, w in enumerate(rng.sample(odd_w, min(2, len(odd_w))))]
    num = polynomial(rng, even, odd, rng.randint(1, 3))
    # a constant plus one term per variable, of different weights
    den = " + ".join([coefficient(rng)] + [f"{coefficient(rng)}*{name}" for name in even])
    argv = ["decompose", "--group", group, "--parity", parity, "--even", ",".join(even)]
    if odd:
        argv += ["--odd", ",".join(odd)]
    return argv + [f"--expr=({num})/({den})", "--json"]


def test_mixed_conductor_decompose_output_is_byte_stable():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(CALLS):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(decompose_argv(rng))
        digest.update(f"{code}\n{out.getvalue()}\0".encode())
    assert digest.hexdigest() == DIGEST
