"""Printed ``decompose`` output is byte-stable on mixed-conductor inputs.

The benchmark goldens (``perfbench/goldens.json``) only use coefficients
of conductor 1 or the group exponent.  Here about 200 seeded ``decompose
--json`` calls mix ``zeta(3|4|5|8|12,k)`` and ``i`` over Z_3, Z_4, Z_6 and
Z_2 x Z_2 with non-homogeneous denominators, so their coefficients are
stored at many conductors: products lift to the lcm of the conductors they
meet.  A coefficient prints over Q(zeta_N), N the group exponent, when that
field holds it, else at its least conductor, so the text depends on the
value and the group only, not on how the norming products are grouped or
where a coefficient is stored.  The SHA-256 of every exit code and stdout
was recorded with that printing rule, before the norm and the product took
one path each, and both steps left it unchanged.

A change to the printing rule may re-record ``DIGEST``; a faster or
regrouped product must keep it.
"""

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from gradedcover.cli import main

DIGEST = "cf4b7914a332edc64c5a71145836879012a8f5cf4b1bd23866cc10613f9eeb4a"
CALLS = 200

# (group spec, parity bits, weights of even variables, weights of odd variables)
GROUPS = [
    ("3", "0", ["0", "1", "2"], []),
    ("4", "1", ["0", "2"], ["1", "3"]),
    ("4", "0", ["0", "1", "2", "3"], []),
    ("6", "1", ["0", "2", "4"], ["1", "3", "5"]),
    # twice: the inputs on which a regrouped orbit product once showed
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
