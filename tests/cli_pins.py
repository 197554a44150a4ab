"""Byte pins of the command line: one table of rows, one runner, two callers.

Each row is data: its input files, its argv, its stdin, its exit code, and
what its output must be -- the stdout, or the file its ``--output`` names.
A pin is a ``Sha256`` of those bytes, their exact text, or the bytes of an
earlier row's ``Output``.  ``stderr`` is the exact text of stderr.  ``out``
and ``err`` count strings that stdout and stderr must hold: a count of 0 is
a string they must not hold.  ``budget`` is the seconds a row may take
in-process; ``timeout`` bounds its run through the console script.

Every fixed command line that the tests check is a row: ``tests/test_cli.py``
runs every row in-process through ``cli.main``, checking its budget, and each
of its cases that is a fixed call reads its rows' results from that one run.
``python tests/cli_pins.py`` runs every row through the installed
``gradedcover`` console script, each under its row's timeout, prints the
total time and the five slowest rows, and exits 1 if any row fails.  Either
way each row runs in a fresh directory of its own.
"""

from __future__ import annotations

import difflib
import hashlib
import itertools
import json
import re
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from conftest import (BROKEN_ATLAS, CP1_ATLAS, IMAGINARY_MORPHISM, LONG_LITERAL, NESTED_CHARTS,
                      NINES, NONSPLIT_ATLAS, SUPER_ATLAS, SUPER_MORPHISM, Z2_6_UNITS,
                      ZERO_RESIDUAL_ATLAS, with_transitions)
from test_readme import blocks, command_lines

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import break_lifted  # noqa: E402  (shifts one image by 1)


class Sha256(str):
    """A pin by the SHA-256 of the output's bytes, in hex."""


@dataclass(frozen=True)
class Output:
    """What an earlier row wrote, passed through ``build``."""

    row: str
    build: Callable[[str], str] = str


@dataclass(frozen=True)
class Row:
    id: str
    why: str
    argv: tuple[str, ...]
    files: dict = field(default_factory=dict)  # name -> JSON payload, text or Output
    stdin: str = ""
    code: int = 0
    pin: str | Output | None = None
    out: dict = field(default_factory=dict)  # string -> times stdout holds it
    err: dict = field(default_factory=dict)  # string -> times stderr holds it
    stderr: str | None = None  # the exact stderr
    timeout: float | None = 20  # seconds, through the console script only
    budget: float | None = None  # seconds, in-process only

    @property
    def output(self) -> str | None:
        """The file this row writes, if it writes one."""
        return self.argv[self.argv.index("--output") + 1] if "--output" in self.argv else None


# -- builders ---------------------------------------------------------------


def rendered(lifted: str) -> str:
    """The text a text-mode lift-atlas prints for a lifted JSON atlas."""
    transitions = json.loads(lifted)["transitions"]
    return "".join(f"[{key}]\n" + "".join(f"  {name} = {image}\n" for name, image in images.items())
                   for key, images in transitions.items())


def renamed(old: str, new: str) -> Callable[[str], str]:
    """Rename one graded copy throughout a lifted atlas."""
    return lambda lifted: lifted.replace(old, new)


def swapped(lifted: str) -> str:
    """Swap the first two even copies of chart 0."""
    data = json.loads(lifted)
    even = data["charts"]["0"]["even"]
    even[:2] = even[1::-1]
    return json.dumps(data)


SUM_8000 = " + ".join(
    f"{k % 7 + 2}*x@0^{a}*y@1^{b}*z@0^{c}*w@1^{d}*x@0*z@0"
    for k, (a, b, c, d) in zip(range(8000), itertools.product(range(1, 11), repeat=4))) + "\n"
DENSE_257 = " + ".join(f"{j * j % 7 + 1}*zeta(257,{j})" for j in range(20))

P2_ATLAS = {
    "charts": {"0": {"even": ["x01", "x02"], "odd": []}, "1": {"even": ["x10", "x12"], "odd": []},
               "2": {"even": ["x20", "x21"], "odd": []}},
    "transitions": {"0->1": {"x10": "1/x01", "x12": "x02/x01"},
                    "0->2": {"x20": "1/x02", "x21": "x01/x02"},
                    "1->0": {"x01": "1/x10", "x02": "x12/x10"},
                    "1->2": {"x20": "x10/x12", "x21": "1/x12"},
                    "2->0": {"x01": "x21/x20", "x02": "1/x20"},
                    "2->1": {"x10": "x20/x21", "x12": "1/x21"}},
}
P11_PREFIX_ATLAS = {
    "charts": {"0": {"even": ["x"], "odd": ["xi"]}, "1": {"even": ["xx"], "odd": ["xxi"]}},
    "transitions": {"0->1": {"xx": "1/x", "xxi": "xi/x"}, "1->0": {"x": "1/xx", "xi": "xxi/xx"}},
}
INVERSE_Z3 = {"group": "3", "source": {"even": ["x"]}, "target": {"even": ["y"]},
              "map": {"y": "1/x"}}
Z6_ODD_MORPHISM = {
    "group": "6", "parity": "1",
    "source": {"even": ["x"], "odd": ["s1", "s2"]}, "target": {"even": ["y"], "odd": ["t"]},
    "map": {"y": "(zeta(3,1)*x + s1*s2)/(1 + zeta(3,2)*x)", "t": "zeta(3,1)*s1 + x*s2"},
}


def lines(*texts: str) -> str:
    """Each text as one line of output."""
    return "".join(text + "\n" for text in texts)


NOTE = "identities checked as formal rational identities, ignoring overlap domains"
PASSED = lines(f"cocycle check passed ({NOTE})")
FAILED = f"cocycle check FAILED ({NOTE})"
PASSED_JSON = lines("{", '  "failures": [],', f'  "note": "{NOTE}",', '  "ok": true', "}")
PRINTING_COEFFICIENT = "error: printing the result: a coefficient has more than 4300 digits\n"
NESTED_MESSAGE = "error: 'nested.json' nests its JSON too deeply to read\n"
LONG_MESSAGE = ("error: 'long.json' holds an integer literal of 5,000 digits, above the bound "
                "4,300\n")

SELF_IDENTITY = with_transitions(**{"0->0": {"x": "x"}})
SELF_SHIFT = with_transitions(**{"0->0": {"x": "x + 1"}})
ACT_Z4 = ("act", "--group", "4", "--even", "x@0,y@1", "--expr", "x@0 + y@1")
ACT_KLEIN = ("act", "--group", "2x2", "--even", "x@(0,0),y@(1,1)", "--expr", "x@(0,0) + y@(1,1)")
ACT_ELEMENTS = [  # (argv, element, stdout or None for a malformed element)
    (ACT_Z4, "1", "x@(0) + i*y@(1)"),
    (ACT_KLEIN, "1,0", "x@(0,0) - y@(1,1)"),
    (ACT_KLEIN, "(1,0)", "x@(0,0) - y@(1,1)"),
    (ACT_KLEIN, " ( 1 , 0 ) ", "x@(0,0) - y@(1,1)"),
    # these three were read as element 1 over Z_4
    (ACT_Z4, "((1", None), (ACT_Z4, "1)", None), (ACT_Z4, "(1", None),
    (ACT_Z4, "()", None), (ACT_KLEIN, "1;0", None),
    (ACT_Z4, "-1", "x@(0) - i*y@(1)"),  # an element reads a negative residue; a name may not
]
BLANK_DECOMPOSE = ("decompose", "--group", "2", "--even", "x@0,y@1", "--expr", "x@0 + 1/y@1")
GRADED_SUPER_FILE = {"super.json": dict(SUPER_ATLAS, group="4", parity="1")}
BLANK_PARITY_CASES = [  # (case, argv, files, the row of the call without --parity, its bits)
    ("decompose", BLANK_DECOMPOSE, {}, "blank-parity-decompose", "0"),
    ("act", (*ACT_Z4, "--element", "1"), {}, "act-element-0", "0"),
    ("lift-atlas", ("lift-atlas", "p1.json", "--group", "3"), {"p1.json": CP1_ATLAS},
     "lift-atlas-p1-z3", "0"),
    ("lift-atlas-file-parity", ("lift-atlas", "super.json"), GRADED_SUPER_FILE,
     "blank-parity-file-parity", "1"),
]

ONES = "1" * 4301  # a residue of 4,301 digits is more than the interpreter reads as an int
LONG_NAME = "y" * 5000
CUT = "... ({} characters)"  # what a message prints past a text's first 40 characters
OVERSIZED = [  # (case, argv, stderr)
    ("residue-expr", ("decompose", "--group", "2", "--even", "x@0", "--expr", f"x@({ONES})"),
     f"syntax error: malformed weight suffix in 'x@({'1' * 37}'{CUT.format(4305)}; "
     "expected (k1,...,kt) (position 1)\n"),
    ("residue-even", ("decompose", "--group", "2", "--even", f"x@({ONES})", "--expr", "1"),
     f"error: malformed weight suffix in 'x@({'1' * 37}'{CUT.format(4305)}; "
     "expected (k1,...,kt)\n"),
    ("residue-element",
     ("act", "--group", "2", "--even", "x@0", "--expr", "x@0", "--element", ONES),
     f"error: malformed group element '{'1' * 40}'{CUT.format(4301)}; expected (k1,...,kt)\n"),
    *((f"literal-{case}", ("decompose", "--group", "2", "--even", "x@0", "--expr", expr), stderr)
      for case, expr, stderr in (
          ("zeta-order", f"zeta({NINES},1)", f"syntax error: zeta order {'9' * 40}"
           f"{CUT.format(4300)} is above the bound 4096 (position 1)\n"),
          ("power-size", f"(1+x@0)^{NINES}", f"syntax error: power of 2 terms to the {'9' * 40}"
           f"{CUT.format(4300)} is above the size bound 500 (position 8)\n"),
          ("power-digits", f"(2*x@0)^{NINES}", "syntax error: coefficient of the power to the "
           f"{'9' * 40}{CUT.format(4300)} has more than 4300 digits (position 8)\n"),
          ("expected-paren", f"(x@0 {NINES}", f"syntax error: expected ')', found '{'9' * 40}'"
           f"{CUT.format(4300)} (position 6)\n"),
          ("expected-int", f"x@0^q{NINES}", f"syntax error: expected 'int', found 'q{'9' * 39}'"
           f"{CUT.format(4301)} (position 5)\n"),
          ("trailing-input", f"x@0 {NINES}", f"syntax error: unexpected trailing input "
           f"'{'9' * 40}'{CUT.format(4300)} (position 5)\n"))),
    ("name-unknown-identifier", ("decompose", "--group", "2", "--even", "x@0", "--expr", LONG_NAME),
     f"syntax error: unknown identifier '{'y' * 40}'{CUT.format(5000)} (position 1)\n"),
    ("name-no-weight-suffix", ("decompose", "--group", "2", "--even", LONG_NAME, "--expr", "1"),
     f"error: graded variable '{'y' * 40}'{CUT.format(5000)} needs a weight suffix like x@(0)\n"),
]

HOSTILE = {  # case -> (expression, exit code, group, why)
    "flat-sum": (" + ".join(["x@0"] * 5000), 0, "2", "a flat sum of 5,000 terms"),
    "minus-chain": ("-" * 1000 + "x@0", 0, "2", "a chain of 1,000 minuses"),
    "minus-chain-before-a-group": (
        "-" * 16000 + "(" + " + ".join(f"x@0^{k}" for k in range(1, 2001)) + ")", 0, "2",
        "16,000 minuses before a group of 2,000 terms negate the group once (once per minus, "
        "it took 31 s of CPU on a 2-core VM)"),
    "deep-nesting": ("(" * 3000 + "x@0" + ")" * 3000, 2, "2", "parentheses 3,000 deep"),
    "syntax-before-division": ("1/0 )", 2, "2", "a syntax error after a division by zero"),
    "zeta-order-above-bound": ("zeta(100000000,1)", 2, "2", "a root of order past the bound"),
    "zeta-order-at-bound": ("zeta(4096,1)", 0, "2", "a root of the largest order"),
    "power-above-size-bound": ("(1+x@0)^100000", 2, "2", "a power of a sum past its size bound"),
    "huge-power-of-one-term": ("x@0^100000000", 0, "2", "a huge power of one variable"),
    "zeta-3003-high-power": ("zeta(3003,3002)*x@0", 0, "2", "one root of a large order: "
                             "building all N powers took 6.3 s"),
    "zeta-4095-high-power": ("zeta(4095,4094)*x@0", 0, "2", "one root of a large order: "
                             "building all N powers took 4.7 s"),
    "irrational-norm-over-z64": ("1/(x@0+zeta(3,1)*x@1)", 0, "64", "an irrational denominator "
                                 "over Z_64: multiplying its 63 twists in turn took 0.97 s, the "
                                 "orbit tower takes 6 squarings"),
    "irrational-norm-over-z128": ("1/(x@0+zeta(3,1)*x@1)", 0, "128",
                                  "an irrational denominator over Z_128"),
    "coefficient-above-print-limit": ("(2*x@0)^999999", 2, "2", "exact, but 2^999999 has more "
                                      "digits than the interpreter prints"),
    "product-above-print-limit": ("(10*x@0)^4000*(10*x@0)^4000", 2, "2", "each factor prints, "
                                  "their product 10^8000 would not"),
    "multi-term-product-above-print-limit": ("(10*x@0)^4000*(10^4000*x@0 + 1)", 2, "2",
                                             "a product of sums past the printable digits"),
    "multi-term-power-above-print-limit": ("(10^4000*x@0 + 1)^499", 2, "2", "taking the whole "
                                           "power first took 6.6 s at the exponent 50"),
    "irrational-power-above-print-limit": ("((1+zeta(5,1))*x@0)^10000000", 2, "2",
                                           "taking the whole power first took 16.7 s"),
    "sum-above-print-limit": (NINES + " + " + NINES, 2, "2",
                              "each term prints, their sum does not"),
    "dense-irrational-divisor": (f"x@0/({DENSE_257})", 0, "2", "a dense divisor at conductor "
                                 "257: its inverse by Euclid over Q took 5.0 s"),
    # each order is within its bound, the lcm of the orders is not: lifting
    # to it did not end, took 2.4 s and 562 MB, took 41 s
    "conductor-above-bound-product": ("zeta(4093,1)*zeta(4091,1)", 1, "2",
                                      "a product of roots past the conductor bound"),
    "conductor-above-bound-sum": ("zeta(4096,1)+zeta(4093,1)", 1, "2",
                                  "a sum of roots past the conductor bound"),
    "conductor-above-bound-medium": ("zeta(1031,1)*zeta(1033,1)", 1, "2",
                                     "roots of medium orders past the conductor bound"),
    "conductor-above-bound-norm": ("1/(zeta(4093,1)*x@0 + zeta(4091,1)*x@1)", 1, "2",
                                   "a norm past the conductor bound"),
    # single terms to a 4,300-digit power: a unit and a root of unity stay
    # small at each of 14,284 checked squarings, a rational passes the
    # bound within 14
    "unit-power-of-4300-digits": ("(-x@0)^" + NINES, 0, "2", "a unit to a 4,300-digit power"),
    "root-power-of-4300-digits": ("(i*x@0)^" + NINES, 0, "2", "a root to a 4,300-digit power"),
    "rational-power-of-4300-digits": ("((2/3)*x@0)^" + NINES, 2, "2",
                                      "a rational to a 4,300-digit power"),
    "zeta-power-of-4300-digits": ("zeta(4096,5)^" + NINES, 0, "4", "a root to a 4,300-digit "
                                  "power is the root at k*e mod N: 14,284 squarings took 6.6 s"),
    "exponent-above-print-limit": ("x@0^" + NINES + "*x@0^" + NINES, 2, "2", "each power prints, "
                                   "their product's exponent 2*N does not"),
    "double-minus": ("--", 2, "2", "argparse hands the value of --expr=-- over as [], not as --"),
    "norm-above-size-bound": ("1/(" + " + ".join(Z2_6_UNITS) + ")", 1, "2x2x2x2x2x2",
                              "its norm predicts 11,238,513 monomials: it did not end within "
                              "120 s"),
}


SPARSE_NAMES = [f"{v}@(1)" for v in "abcdefghijk"]

MALFORMED_SHAPES = [  # (case, command, payload, stderr): the message names the key
    ("check-cocycle:the top level", "check-cocycle", [CP1_ATLAS],
     "error: the top level must be a JSON object, found list\n"),
    ("check-cocycle:charts.0", "check-cocycle",
     dict(CP1_ATLAS, charts={"0": ["x"], "1": {"even": ["y"]}}),
     "error: charts.0 must be a JSON object, found list\n"),
    ("check-cocycle:transitions.0->1", "check-cocycle",
     dict(CP1_ATLAS, transitions={"0->1": "1/x"}),
     "error: transitions.0->1 must be a JSON object, found str\n"),
    ("check-cocycle:transitions.0->1.y", "check-cocycle",
     dict(CP1_ATLAS, transitions={"0->1": {"y": 5}}),
     "error: transitions.0->1.y must be an expression string, found int\n"),
    ("check-cocycle:charts.0.even", "check-cocycle",
     dict(CP1_ATLAS, charts={"0": {"even": "xy"}, "1": {"even": ["y"]}}),
     "error: charts.0.even must be a list, found str\n"),
    ("lift:the top level", "lift", [SUPER_MORPHISM],
     "error: the top level must be a JSON object, found list\n"),
    ("lift:source", "lift", dict(SUPER_MORPHISM, source=["x"]),
     "error: source must be a JSON object, found list\n"),
    ("lift:map", "lift", dict(SUPER_MORPHISM, map="1/x"),
     "error: map must be a JSON object, found str\n"),
    ("lift:map.y", "lift", dict(SUPER_MORPHISM, map={"y": 5, "eta": "xi/x"}),
     "error: map.y must be an expression string, found int\n"),
    ("lift:source.even", "lift", dict(SUPER_MORPHISM, source={"even": "xy", "odd": ["xi"]}),
     "error: source.even must be a list, found str\n"),
    # a missing key's case is told apart from the case whose value has the wrong type
    *((f"lift:no {key}", "lift", {k: v for k, v in SUPER_MORPHISM.items() if k != key},
       f"error: {key} must be {kind}, found NoneType\n")
      for key, kind in (("group", 'a group spec like "2x2"'), ("source", "a JSON object"),
                        ("target", "a JSON object"), ("map", "a JSON object"))),
]

NOT_A_NAME = ("is not an identifier other than i and zeta, with an optional suffix "
              "@(k1,...,kt)\n")
USAGE_ERRORS = [  # (case, argv, files, stderr)
    ("transition-key-form", ("check-cocycle", "atlas.json"),
     {"atlas.json": with_transitions(**{"01": {"y": "1/x"}})},
     "error: transition key '01' is not of the form 'src->dst'\n"),
    ("unknown-chart", ("check-cocycle", "atlas.json"),
     {"atlas.json": with_transitions(**{"0->2": {"y": "1/x"}})},
     "error: transition '0->2' names an unknown chart\n"),
    ("no-group", ("lift-atlas", "atlas.json"), {"atlas.json": CP1_ATLAS},
     "error: no group given on the command line or in the atlas file\n"),
    ("no-weight-suffix", ("decompose", "--group", "2", "--even", "x@0,y", "--expr", "1"), {},
     "error: graded variable 'y' needs a weight suffix like x@(0)\n"),
    ("weights-without-group", ("check-cocycle", "atlas.json"),
     {"atlas.json": dict(CP1_ATLAS, charts={"0": {"even": ["x@0"]}, "1": {"even": ["y"]}})},
     "error: weighted variable names need a group and a parity map\n"),
    ("zeta-order-zero", ("decompose", "--group", "2", "--even", "x@0", "--expr", "zeta(0,1)*x@0"),
     {}, "syntax error: zeta needs a positive order (position 1)\n"),
    ("two-spellings-of-a-transition", ("check-cocycle", "atlas.json"),
     {"atlas.json": with_transitions(**{"0 -> 1": {"y": "1/x"}})},
     "error: transition keys '0->1' and '0 -> 1' name one transition\n"),
    ("two-spellings-of-a-variable", ("check-cocycle", "atlas.json"),
     {"atlas.json": dict(CP1_ATLAS, group="2",
                         charts={"0": {"even": ["x@0", "x@1"]}, "1": {"even": ["y@0"]}},
                         transitions={"0->0": {"x@1": "x@1", "x@0": "x@0", "x@(1)": "x@(1)"}})},
     "error: transitions.0->0: keys 'x@1' and 'x@(1)' name one variable\n"),
    # "i" and "zeta" read as numbers: a variable so named would not read back
    ("imaginary-unit-chart", ("lift-atlas", "atlas.json", "--group", "2"),
     {"atlas.json": dict(CP1_ATLAS, charts={"0": {"even": ["i"]}, "1": {"even": ["y"]}},
                         transitions={"0->1": {"y": "1/i"}, "1->0": {"i": "1/y"}})},
     f"error: variable name 'i' {NOT_A_NAME}"),
    ("zeta-chart", ("lift-atlas", "atlas.json", "--group", "2"),
     {"atlas.json": dict(CP1_ATLAS, charts={"0": {"even": ["zeta"]}, "1": {"even": ["y"]}})},
     f"error: variable name 'zeta' {NOT_A_NAME}"),
    ("negative-residue-chart", ("check-cocycle", "atlas.json"),
     {"atlas.json": dict(CP1_ATLAS, group="4",
                         charts={"0": {"even": ["x@(-2)"]}, "1": {"even": ["y"]}})},
     "error: malformed weight suffix in 'x@(-2)'; expected (k1,...,kt)\n"),
]

BAD_IMAGES = [  # (case, command, payload, exit code, stderr)
    ("atlas-not-invertible", "check-cocycle", with_transitions(**{"0->1": {"y": "1/(x-x)"}}), 1,
     "error: transitions.0->1.y: even part of the numerator is zero; the function is not "
     "invertible\n"),
    ("atlas-trailing-input", "check-cocycle", with_transitions(**{"1->0": {"x": "1/y )"}}), 2,
     "syntax error: transitions.1->0.x: unexpected trailing input ')' (position 5)\n"),
    ("map-not-invertible", "lift", dict(SUPER_MORPHISM, map={"y": "1/(x - x)", "eta": "xi/x"}), 1,
     "error: map.y: even part of the numerator is zero; the function is not invertible\n"),
    ("map-bad-character", "lift", dict(SUPER_MORPHISM, map={"y": "1/x", "eta": "xi/x $"}), 2,
     "syntax error: map.eta: unexpected character '$' (position 6)\n"),
    ("map-unknown-identifier", "lift", dict(SUPER_MORPHISM, map={"y": "1/x", "eta": "w + 1/0"}),
     2, "syntax error: map.eta: unknown identifier 'w' (position 1)\n"),
]

# each span is one literal, so reading them costs little besides the memo's tries
SAME_PREFIX_SPANS = " + ".join(f"0*(111111111111111{k:05})" for k in range(10000))


CHAIN_GROUP = "(" + " + ".join(f"x@0^{k}" for k in range(1, 2001)) + ")"  # about 20 KB
CHAINS = [  # (case, factor, count, CPU seconds with one product per factor, SHA-256 of stdout)
    ("one", "*1", 4000, 2.8, "b3a996e819deac2059d797531ac0d6a30df7867b0b672e7c9940304d3eec2a2e"),
    ("two", "*2", 1000, 4.2, "c8b6a82d811a0c6e2dab355f506c623983ee5012a747332fe71df19580b5b83a"),
    ("minus-one", "*-1", 1000, 3.9,
     "b3a996e819deac2059d797531ac0d6a30df7867b0b672e7c9940304d3eec2a2e"),
    ("monomial", "*y@0", 1000, 7.4,
     "038498ab859147b5542fb49b9d9fb8d8e0164f486c7ebadd9bf6c73044bd2e9e"),
    ("half", "/2", 1000, 6.3, "e82ab45409a0558c49e71c988e1ddc61a42efe18d5ee10040d56d13556c87885"),
]
# its constant term lifts to conductor 12 as 2*NINES - NINES*zeta(12,2): 4,301 digits
LIFTED = f"({NINES} - {NINES}*zeta(3,1) + i*x@0)"
POWER_TWINS = [  # (case, a power, its twin of equal value stored at the least conductor,
    #                 the twin's case, SHA-256 of the twin's stdout)
    ("one-at-12", "(zeta(12,0) + x@0)^200", "(1 + x@0)^200", "one",
     "8d088b075b3517d027b1872b3bbba211c64de3305090889bf98ebe14c0a0763f"),
    ("cube-root-at-12", "(zeta(12,4) + x@0)^200", "(zeta(3,1) + x@0)^200", "cube-root",
     "b6d9b7944b2113d05b21538dbbe6a9adbf2f55e41dc2c13c4f28d98720cab2ba"),
    # stored at 4095 times i, at 16380 (phi 3456) the power would take minutes
    ("i-at-16380", "(zeta(4095,0) + i*x@0)^249", "(1 + i*x@0)^249", "i",
     "c7c8b3f3942cbfab76f83b990acfb99aa82f82070443b6c6be76da2cd2e1826c"),
]


PRIME_STEP = ("an orbit tower with a prime step p >= 5, which the benchmark's decompose inputs "
              "never reach, prints the bytes recorded while each such step still read a "
              "circulant form or took the twist chain")


def lifted(row_id, why, atlas_file, atlas, group, output, *, sha=None, parity=(), timeout=60):
    """``lift-atlas`` of ``atlas`` to the JSON file ``output``."""
    return Row(row_id, why,
               ("lift-atlas", atlas_file, "--group", group, *parity, "--json", "--output", output),
               files={atlas_file: atlas}, pin=sha and Sha256(sha), timeout=timeout)


def checked(row_id, why, name, source, *, build=str, report=("--json",), timeout=60, **checks):
    """``check-cocycle`` of what row ``source`` wrote, passed through ``build``; exit 0."""
    return Row(row_id, why, ("check-cocycle", name, *report),
               files={name: Output(source, build)}, timeout=timeout, **checks)


def decompose(row_id, why, *argv, **checks):
    return Row(row_id, why, ("decompose", *argv), **checks)


def hostile(case, text, code, group, why):
    """``decompose`` of a hostile expression over x@0, x@1, or over Z_2^6's
    units: exit ``code`` and no traceback, within 2 s, or 1 s over Z_2^6."""
    rank = group.count("x") + 1
    even, budget = ("x@0,x@1", 2) if rank == 1 else (",".join(Z2_6_UNITS), 1)
    return Row(f"hostile-{case}", f"{why}: decompose ends with exit {code} within {budget} s",
               ("decompose", "--group", group, "--parity", "0" * rank, "--even", even,
                f"--expr={text}"), code=code, err={"Traceback": 0}, budget=budget)


def readme_rows() -> list[Row]:
    """The README's command-line block, each line a row run on its two example files."""
    atlas, morphism = blocks("json")
    lines = command_lines()
    if len(lines) != 6 or not all(line.startswith("gradedcover ") for line in lines):
        raise ValueError(f"the README's command-line block is not six gradedcover lines: {lines}")
    return [Row(f"readme-{k}", f"the README's command line, as written: {line}",
                tuple(shlex.split(line)[1:]),
                files={"atlas.json": atlas, "morphism.json": morphism})
            for k, line in enumerate(lines, 1)]


TABLE = [
    lifted("p1-z5-json", "the installed console script lifts P^1 over Z_5",
           "p1.json", CP1_ATLAS, "5", "lifted.json", timeout=None),
    Row("p1-z5-text", "text-mode lift-atlas prints the lines that its JSON holds",
        ("lift-atlas", "p1.json", "--group", "5"), files={"p1.json": CP1_ATLAS},
        pin=Output("p1-z5-json", rendered), timeout=None),
    checked("p1-z5-check", "lifted P^1 over Z_5 is checked by descent in well under a second "
            "(the benchmark leaves this atlas out, and composing its transitions directly takes "
            "minutes)", "lifted.json", "p1-z5-json", pin=PASSED_JSON, budget=2),
    Row("p1-z8-json", "P^1 over Z_8, left out of the benchmark, lifts through the rational orbit "
        "tower within 1 s, with rational coefficients only (norming each twist over Q(zeta_8) in "
        "turn took 1.17 s on a 2-core VM)", ("lift-atlas", "p1.json", "--group", "8", "--json"),
        files={"p1.json": CP1_ATLAS}, out={"zeta": 0}, timeout=60, budget=1),
    checked("p1-z8-check", "lifted P^1 over Z_8 is checked by descent",
            "lifted8.json", "p1-z8-json", pin=PASSED_JSON, budget=2),
    lifted("p1-z7-json", "P^1 over Z_7 takes the orbit tower's one cofactor rule",
           "p1.json", CP1_ATLAS, "7", "lifted7.json"),
    checked("p1-z7-check", "lifted P^1 over Z_7 is checked by descent",
            "lifted7.json", "p1-z7-json", pin=PASSED_JSON, budget=2),
    decompose("z7", "a decompose over Z_7 takes the tower's cofactor rule and prints the text "
              "recorded before that rule took the rational steps; " + PRIME_STEP,
              "--group", "7", "--even", "x@1",
              "--expr", "1/(1 + x@1 + x@1^2 + x@1^3 + x@1^4 + x@1^5 + x@1^6)",
              pin=(
                  "(0): (-x@(1)^35 + 5*x@(1)^28 - 10*x@(1)^21 + 10*x@(1)^14 - 5*x@(1)^7 + 1)/(x@(1)^42 - 6*x@(1)^35 + 15*x@(1)^28 - 20*x@(1)^21 + 15*x@(1)^14 - 6*x@(1)^7 + 1)\n"
                  "(1): (x@(1)^36 - 5*x@(1)^29 + 10*x@(1)^22 - 10*x@(1)^15 + 5*x@(1)^8 - x@(1))/(x@(1)^42 - 6*x@(1)^35 + 15*x@(1)^28 - 20*x@(1)^21 + 15*x@(1)^14 - 6*x@(1)^7 + 1)\n"
              )),
    decompose("z7-irrational", "a decompose over Z_7 prints the text recorded before the "
              "cofactor rule took the irrational steps (1/(2 + i*y@1))",
              "--group", "7", "--even", "x@0,y@1", "--expr", "1/(2+zeta(4,1)*y@1)",
              pin=(
                  "(0): (64)/(-i*y@(1)^7 + 128)\n"
                  "(1): (-32*i*y@(1))/(-i*y@(1)^7 + 128)\n"
                  "(2): (-16*y@(1)^2)/(-i*y@(1)^7 + 128)\n"
                  "(3): (8*i*y@(1)^3)/(-i*y@(1)^7 + 128)\n"
                  "(4): (4*y@(1)^4)/(-i*y@(1)^7 + 128)\n"
                  "(5): (-2*i*y@(1)^5)/(-i*y@(1)^7 + 128)\n"
                  "(6): (-y@(1)^6)/(-i*y@(1)^7 + 128)\n"
              )),
    decompose("z11", PRIME_STEP, "--group", "11", "--even", "a@0,b@1,c@3",
              "--expr", "(a@0 + 1)/(2*a@0^2 - 3*b@1 + 5/7*c@3)",
              pin=Sha256("44c1657e56c6fda18f2fc4ca2fd9e91495688f31139a0393ccefa6b3c9a70161")),
    decompose("z10", PRIME_STEP, "--group", "10", "--even", "u@1,v@5",
              "--expr", "(u@1 - v@5)/(1 + 3*u@1 + 1000*v@5)",
              pin=Sha256("3e882d25006b0fe15889f6f3cf280225a9354f2fdf5edde39d1e270d2cacecff")),
    decompose("z5-chain", "one p = 5 step: the first of its four twists times the other three, "
              "at conductor 60; recorded while the orbit tower still built group elements",
              "--group", "5", "--even", "x@0,x@1,y@2",
              "--expr", "1/(x@0+zeta(4,1)*x@1+zeta(3,1)*y@2)",
              pin=Sha256("aeb14ec240877fc510824babda3eab8bb0a87ad3220dbea07f8973e6823a32cf")),
    decompose("zeta3003", "a root of order 3003 is one reduction modulo Phi_3003, not a table of "
              "all 3003 powers", "--group", "2", "--parity", "0", "--even", "x@0",
              "--expr", "zeta(3003,3002)*x@0", "--json"),
    decompose("zeta4096-power", "a root to a power of 4,300 digits ends within 5 s",
              "--group", "4", "--parity", "0", "--even", "x@0,y@2",
              "--expr", "zeta(4096,5)^" + NINES, timeout=5),
    decompose("z16-tower", "an irrational denominator over Z_16 takes the orbit tower: each step "
              "multiplies the twists in integers at the lcm of the conductors it meets",
              "--group", "16", "--even", "x@0,y@1", "--expr", "1/(x@0+zeta(3,1)*y@1)", "--json"),
    decompose("z12", "a decompose over Z_12 prints the text recorded before the chain kept "
              "integers between its twists", "--group", "12", "--even", "x@1,y@5",
              "--expr", "(x@1 + zeta(12,1)*y@5)/(x@1^2 + zeta(3,1)*y@5)",
              pin=(
                  "(0): (-zeta(12,1)*x@(1)^16*y@(5)^4 + (-2*zeta(12,1) + 2*zeta(12,3))*x@(1)^8*y@(5)^8 + zeta(12,3)*y@(5)^12)/(x@(1)^24 + (3 - 3*zeta(12,2))*x@(1)^16*y@(5)^4 - 3*zeta(12,2)*x@(1)^8*y@(5)^8 - y@(5)^12)\n"
                  "(2): ((1 - zeta(12,2))*x@(1)^21*y@(5) - 2*zeta(12,2)*x@(1)^13*y@(5)^5 - x@(1)^5*y@(5)^9)/(x@(1)^24 + (3 - 3*zeta(12,2))*x@(1)^16*y@(5)^4 - 3*zeta(12,2)*x@(1)^8*y@(5)^8 - y@(5)^12)\n"
                  "(3): (zeta(12,1)*x@(1)^22*y@(5) + (2*zeta(12,1) - 2*zeta(12,3))*x@(1)^14*y@(5)^5 - zeta(12,3)*x@(1)^6*y@(5)^9)/(x@(1)^24 + (3 - 3*zeta(12,2))*x@(1)^16*y@(5)^4 - 3*zeta(12,2)*x@(1)^8*y@(5)^8 - y@(5)^12)\n"
                  "(5): (-zeta(12,2)*x@(1)^19*y@(5)^2 - 2*x@(1)^11*y@(5)^6 + (-1 + zeta(12,2))*x@(1)^3*y@(5)^10)/(x@(1)^24 + (3 - 3*zeta(12,2))*x@(1)^16*y@(5)^4 - 3*zeta(12,2)*x@(1)^8*y@(5)^8 - y@(5)^12)\n"
                  "(6): ((zeta(12,1) - zeta(12,3))*x@(1)^20*y@(5)^2 - 2*zeta(12,3)*x@(1)^12*y@(5)^6 - zeta(12,1)*x@(1)^4*y@(5)^10)/(x@(1)^24 + (3 - 3*zeta(12,2))*x@(1)^16*y@(5)^4 - 3*zeta(12,2)*x@(1)^8*y@(5)^8 - y@(5)^12)\n"
                  "(8): (-x@(1)^17*y@(5)^3 + (-2 + 2*zeta(12,2))*x@(1)^9*y@(5)^7 + zeta(12,2)*x@(1)*y@(5)^11)/(x@(1)^24 + (3 - 3*zeta(12,2))*x@(1)^16*y@(5)^4 - 3*zeta(12,2)*x@(1)^8*y@(5)^8 - y@(5)^12)\n"
                  "(9): (-zeta(12,3)*x@(1)^18*y@(5)^3 - 2*zeta(12,1)*x@(1)^10*y@(5)^7 + (-zeta(12,1) + zeta(12,3))*x@(1)^2*y@(5)^11)/(x@(1)^24 + (3 - 3*zeta(12,2))*x@(1)^16*y@(5)^4 - 3*zeta(12,2)*x@(1)^8*y@(5)^8 - y@(5)^12)\n"
                  "(11): (x@(1)^23 + (2 - 2*zeta(12,2))*x@(1)^15*y@(5)^4 - zeta(12,2)*x@(1)^7*y@(5)^8)/(x@(1)^24 + (3 - 3*zeta(12,2))*x@(1)^16*y@(5)^4 - 3*zeta(12,2)*x@(1)^8*y@(5)^8 - y@(5)^12)\n"
              )),
    decompose("z128-tower", "over Z_128 the orbit tower takes 7 steps, not 127 twists",
              "--group", "128", "--even", "x@0,y@1", "--expr", "1/(x@0+zeta(3,1)*y@1)", "--json"),
    decompose("z6-mixed", "a decompose over Z_6 that mixes conductors 5 and 8 prints the text "
              "recorded when each coefficient came to print by its value and the group alone, "
              "whatever the grouping of its products",
              "--group", "6", "--parity", "0", "--even", "x@1,y@3",
              "--expr", "(zeta(5,1) + y@3)/(1 + 2*zeta(8,1)*x@1 + 3*y@3)",
              pin=(
                  "(0): (-72*zeta(8,3)*x@(1)^3*y@(3)^3 - 243*y@(3)^6 + (48*zeta(40,3) - 8*zeta(40,15))*x@(1)^3*y@(3) + (54 + 81*zeta(5,1))*y@(3)^4 + (-3 - 18*zeta(5,1))*y@(3)^2 + zeta(5,1))/(64*i*x@(1)^6 - 432*zeta(8,3)*x@(1)^3*y@(3)^3 - 729*y@(3)^6 - 144*zeta(8,3)*x@(1)^3*y@(3) + 243*y@(3)^4 - 27*y@(3)^2 + 1)\n"
                  "(1): ((-16 - 48*zeta(5,1))*x@(1)^4*y@(3) + (-108*zeta(40,5) + 162*zeta(40,13))*x@(1)*y@(3)^4 + 12*zeta(8,1)*x@(1)*y@(3)^2 - 2*zeta(40,13)*x@(1))/(64*i*x@(1)^6 - 432*zeta(8,3)*x@(1)^3*y@(3)^3 - 729*y@(3)^6 - 144*zeta(8,3)*x@(1)^3*y@(3) + 243*y@(3)^4 - 27*y@(3)^2 + 1)\n"
                  "(2): (32*zeta(8,1)*x@(1)^5*y@(3) - 108*i*x@(1)^2*y@(3)^4 + (-108*zeta(20,1) + 108*zeta(20,3) - 144*zeta(20,5) + 108*zeta(20,7))*x@(1)^2*y@(3)^2 + (-4*zeta(20,1) + 4*zeta(20,3) - 4*zeta(20,5) + 4*zeta(20,7))*x@(1)^2)/(64*i*x@(1)^6 - 432*zeta(8,3)*x@(1)^3*y@(3)^3 - 729*y@(3)^6 - 144*zeta(8,3)*x@(1)^3*y@(3) + 243*y@(3)^4 - 27*y@(3)^2 + 1)\n"
                  "(3): ((72*zeta(40,3) - 48*zeta(40,15))*x@(1)^3*y@(3)^2 + (81 - 243*zeta(5,1))*y@(3)^5 + 8*zeta(40,3)*x@(1)^3 + (-18 + 54*zeta(5,1))*y@(3)^3 + (1 - 3*zeta(5,1))*y@(3))/(64*i*x@(1)^6 - 432*zeta(8,3)*x@(1)^3*y@(3)^3 - 729*y@(3)^6 - 144*zeta(8,3)*x@(1)^3*y@(3) + 243*y@(3)^4 - 27*y@(3)^2 + 1)\n"
                  "(4): (-48*x@(1)^4*y@(3)^2 + 162*zeta(8,1)*x@(1)*y@(3)^5 - 16*zeta(5,1)*x@(1)^4 - 108*zeta(40,13)*x@(1)*y@(3)^3 + (-2*zeta(40,5) + 12*zeta(40,13))*x@(1)*y@(3))/(64*i*x@(1)^6 - 432*zeta(8,3)*x@(1)^3*y@(3)^3 - 729*y@(3)^6 - 144*zeta(8,3)*x@(1)^3*y@(3) + 243*y@(3)^4 - 27*y@(3)^2 + 1)\n"
                  "(5): (32*zeta(40,13)*x@(1)^5 + (108*zeta(20,1) - 108*zeta(20,3) + 216*zeta(20,5) - 108*zeta(20,7))*x@(1)^2*y@(3)^3 + (36*zeta(20,1) - 36*zeta(20,3) + 40*zeta(20,5) - 36*zeta(20,7))*x@(1)^2*y@(3))/(64*i*x@(1)^6 - 432*zeta(8,3)*x@(1)^3*y@(3)^3 - 729*y@(3)^6 - 144*zeta(8,3)*x@(1)^3*y@(3) + 243*y@(3)^4 - 27*y@(3)^2 + 1)\n"
              )),
    decompose("sum8000", "a printed sum of 8,000 terms parses in linear time: each term folds on "
              "the stack and is added into one running sum",
              "--group", "2", "--even", "x@0,y@1,z@0,w@1", "--expr", "-", "--json",
              stdin=SUM_8000),
    lifted("p1-z3-json", "lifted P^1 over Z_3, which the next row breaks",
           "p1.json", CP1_ATLAS, "3", "lifted3.json"),
    Row("p1-z3-broken", "lifted P^1 over Z_3 with one image shifted by 1 fails the cocycle check "
        "(exit 1) through the direct path, which composes its transitions",
        ("check-cocycle", "broken3.json", "--json"),
        files={"broken3.json": Output("p1-z3-json", break_lifted)}, code=1,
        pin=Sha256("d5c3034b29d2ed74af341f3bcae02d41f86419dae081d28a1ce454ccb296c759")),
    Row("zero-residual", "each round trip sends an odd coordinate to 0, which prints as 0 "
        "whatever its denominator: on 0->1->0 u's image is 0 over the x that 1/x brought",
        ("check-cocycle", "zero.json"), files={"zero.json": ZERO_RESIDUAL_ATLAS}, code=1,
        pin=lines(
            FAILED,
            "  pair on (0->1): round trip is not the identity",
            "    u = 0",
            "  pair on (1->0): round trip is not the identity",
            "    v = 0")),
    Row("self-transition", "P^1 with a self-transition 0->0 other than the identity fails the "
        "cocycle check (exit 1)", ("check-cocycle", "self.json"),
        files={"self.json": SELF_SHIFT}, code=1, pin=lines(
            FAILED,
            "  self on (0): self-transition is not the identity",
            "    x = x + 1")),
    decompose("conductor-bound", "two roots within the order bound whose product lifts past the "
              "conductor bound exit 1 at once",
              "--group", "2", "--even", "x@0", "--expr", "zeta(4093,1)*zeta(4091,1)", code=1),
    Row("char-table-bound", "a character table past its order bound exits 2 before it builds a "
        "cell (order 1,024 took 22 s on a 2-core VM and order 4,096 did not end)",
        ("char-table", "--group", "4096"), code=2, pin="",
        stderr="error: a character table of a group of order 4096 is above the bound 256\n", budget=1),
    decompose("syntax-before-division", "a syntax error outranks a division by zero read before "
              "it: exit 2, not 1", "--group", "2", "--even", "x@0", "--expr", "1/0 )", code=2),
    Row("nested-json", "an atlas file nested past the JSON decoder's recursion exits 2, with no "
        "traceback", ("check-cocycle", "nested.json"), files={"nested.json": NESTED_CHARTS},
        code=2, pin="", stderr=NESTED_MESSAGE),
    Row("lift-even", 'a morphism file without "parity" lifts with all-zero bits',
        ("lift", "even.json"), files={"even.json": INVERSE_Z3}),
    Row("lift-null-parity", "a null parity is an absent one: exit 0 and the same output",
        ("lift", "null.json"), files={"null.json": dict(INVERSE_Z3, parity=None)},
        pin=Output("lift-even")),
    Row("z6-odd-lift", "a lift over Z_6 with zeta(3,1) coefficients and odd variables composes "
        "on packed integer polynomials at conductor 3, and prints the text recorded before "
        "composition packed its images", ("lift", "z6odd.json"),
        files={"z6odd.json": Z6_ODD_MORPHISM}, pin=(
            "y@(0) = (-zeta(6,1)*x@(0)^3 + 3*zeta(6,1)*x@(0)*x@(2)*x@(4) - zeta(6,1)*x@(2)^3 - zeta(6,1)*x@(4)^3 + (-1 + zeta(6,1))*x@(0)^2*s1@(5)*s2@(1) + (-1 + zeta(6,1))*x@(0)^2*s1@(3)*s2@(3) + (-1 + zeta(6,1))*x@(0)^2*s1@(1)*s2@(5) + 2*x@(0)^2 + (1 - zeta(6,1))*x@(0)*x@(2)*s1@(5)*s2@(5) + (1 - zeta(6,1))*x@(0)*x@(2)*s1@(3)*s2@(1) + (1 - zeta(6,1))*x@(0)*x@(2)*s1@(1)*s2@(3) + (1 - zeta(6,1))*x@(0)*x@(4)*s1@(5)*s2@(3) + (1 - zeta(6,1))*x@(0)*x@(4)*s1@(3)*s2@(5) + (1 - zeta(6,1))*x@(0)*x@(4)*s1@(1)*s2@(1) + (-1 + zeta(6,1))*x@(2)^2*s1@(5)*s2@(3) + (-1 + zeta(6,1))*x@(2)^2*s1@(3)*s2@(5) + (-1 + zeta(6,1))*x@(2)^2*s1@(1)*s2@(1) + (1 - zeta(6,1))*x@(2)*x@(4)*s1@(5)*s2@(1) + (1 - zeta(6,1))*x@(2)*x@(4)*s1@(3)*s2@(3) + (1 - zeta(6,1))*x@(2)*x@(4)*s1@(1)*s2@(5) - 2*x@(2)*x@(4) + (-1 + zeta(6,1))*x@(4)^2*s1@(5)*s2@(5) + (-1 + zeta(6,1))*x@(4)^2*s1@(3)*s2@(1) + (-1 + zeta(6,1))*x@(4)^2*s1@(1)*s2@(3) - 2*zeta(6,1)*x@(0)*s1@(5)*s2@(1) - 2*zeta(6,1)*x@(0)*s1@(3)*s2@(3) - 2*zeta(6,1)*x@(0)*s1@(1)*s2@(5) + (-1 + zeta(6,1))*x@(0) + zeta(6,1)*x@(2)*s1@(5)*s2@(5) + zeta(6,1)*x@(2)*s1@(3)*s2@(1) + zeta(6,1)*x@(2)*s1@(1)*s2@(3) + zeta(6,1)*x@(4)*s1@(5)*s2@(3) + zeta(6,1)*x@(4)*s1@(3)*s2@(5) + zeta(6,1)*x@(4)*s1@(1)*s2@(1) + s1@(5)*s2@(1) + s1@(3)*s2@(3) + s1@(1)*s2@(5))/(x@(0)^3 - 3*x@(0)*x@(2)*x@(4) + x@(2)^3 + x@(4)^3 + (-3 + 3*zeta(6,1))*x@(0)^2 + (3 - 3*zeta(6,1))*x@(2)*x@(4) - 3*zeta(6,1)*x@(0) + 1)\n"
            "y@(2) = ((-1 + zeta(6,1))*x@(0)^2*s1@(5)*s2@(3) + (-1 + zeta(6,1))*x@(0)^2*s1@(3)*s2@(5) + (-1 + zeta(6,1))*x@(0)^2*s1@(1)*s2@(1) + (1 - zeta(6,1))*x@(0)*x@(2)*s1@(5)*s2@(1) + (1 - zeta(6,1))*x@(0)*x@(2)*s1@(3)*s2@(3) + (1 - zeta(6,1))*x@(0)*x@(2)*s1@(1)*s2@(5) + x@(0)*x@(2) + (1 - zeta(6,1))*x@(0)*x@(4)*s1@(5)*s2@(5) + (1 - zeta(6,1))*x@(0)*x@(4)*s1@(3)*s2@(1) + (1 - zeta(6,1))*x@(0)*x@(4)*s1@(1)*s2@(3) + (-1 + zeta(6,1))*x@(2)^2*s1@(5)*s2@(5) + (-1 + zeta(6,1))*x@(2)^2*s1@(3)*s2@(1) + (-1 + zeta(6,1))*x@(2)^2*s1@(1)*s2@(3) + (1 - zeta(6,1))*x@(2)*x@(4)*s1@(5)*s2@(3) + (1 - zeta(6,1))*x@(2)*x@(4)*s1@(3)*s2@(5) + (1 - zeta(6,1))*x@(2)*x@(4)*s1@(1)*s2@(1) + (-1 + zeta(6,1))*x@(4)^2*s1@(5)*s2@(1) + (-1 + zeta(6,1))*x@(4)^2*s1@(3)*s2@(3) + (-1 + zeta(6,1))*x@(4)^2*s1@(1)*s2@(5) - x@(4)^2 - 2*zeta(6,1)*x@(0)*s1@(5)*s2@(3) - 2*zeta(6,1)*x@(0)*s1@(3)*s2@(5) - 2*zeta(6,1)*x@(0)*s1@(1)*s2@(1) + zeta(6,1)*x@(2)*s1@(5)*s2@(1) + zeta(6,1)*x@(2)*s1@(3)*s2@(3) + zeta(6,1)*x@(2)*s1@(1)*s2@(5) + (-1 + zeta(6,1))*x@(2) + zeta(6,1)*x@(4)*s1@(5)*s2@(5) + zeta(6,1)*x@(4)*s1@(3)*s2@(1) + zeta(6,1)*x@(4)*s1@(1)*s2@(3) + s1@(5)*s2@(3) + s1@(3)*s2@(5) + s1@(1)*s2@(1))/(x@(0)^3 - 3*x@(0)*x@(2)*x@(4) + x@(2)^3 + x@(4)^3 + (-3 + 3*zeta(6,1))*x@(0)^2 + (3 - 3*zeta(6,1))*x@(2)*x@(4) - 3*zeta(6,1)*x@(0) + 1)\n"
            "y@(4) = ((-1 + zeta(6,1))*x@(0)^2*s1@(5)*s2@(5) + (-1 + zeta(6,1))*x@(0)^2*s1@(3)*s2@(1) + (-1 + zeta(6,1))*x@(0)^2*s1@(1)*s2@(3) + (1 - zeta(6,1))*x@(0)*x@(2)*s1@(5)*s2@(3) + (1 - zeta(6,1))*x@(0)*x@(2)*s1@(3)*s2@(5) + (1 - zeta(6,1))*x@(0)*x@(2)*s1@(1)*s2@(1) + (1 - zeta(6,1))*x@(0)*x@(4)*s1@(5)*s2@(1) + (1 - zeta(6,1))*x@(0)*x@(4)*s1@(3)*s2@(3) + (1 - zeta(6,1))*x@(0)*x@(4)*s1@(1)*s2@(5) + x@(0)*x@(4) + (-1 + zeta(6,1))*x@(2)^2*s1@(5)*s2@(1) + (-1 + zeta(6,1))*x@(2)^2*s1@(3)*s2@(3) + (-1 + zeta(6,1))*x@(2)^2*s1@(1)*s2@(5) - x@(2)^2 + (1 - zeta(6,1))*x@(2)*x@(4)*s1@(5)*s2@(5) + (1 - zeta(6,1))*x@(2)*x@(4)*s1@(3)*s2@(1) + (1 - zeta(6,1))*x@(2)*x@(4)*s1@(1)*s2@(3) + (-1 + zeta(6,1))*x@(4)^2*s1@(5)*s2@(3) + (-1 + zeta(6,1))*x@(4)^2*s1@(3)*s2@(5) + (-1 + zeta(6,1))*x@(4)^2*s1@(1)*s2@(1) - 2*zeta(6,1)*x@(0)*s1@(5)*s2@(5) - 2*zeta(6,1)*x@(0)*s1@(3)*s2@(1) - 2*zeta(6,1)*x@(0)*s1@(1)*s2@(3) + zeta(6,1)*x@(2)*s1@(5)*s2@(3) + zeta(6,1)*x@(2)*s1@(3)*s2@(5) + zeta(6,1)*x@(2)*s1@(1)*s2@(1) + zeta(6,1)*x@(4)*s1@(5)*s2@(1) + zeta(6,1)*x@(4)*s1@(3)*s2@(3) + zeta(6,1)*x@(4)*s1@(1)*s2@(5) + (-1 + zeta(6,1))*x@(4) + s1@(5)*s2@(5) + s1@(3)*s2@(1) + s1@(1)*s2@(3))/(x@(0)^3 - 3*x@(0)*x@(2)*x@(4) + x@(2)^3 + x@(4)^3 + (-3 + 3*zeta(6,1))*x@(0)^2 + (3 - 3*zeta(6,1))*x@(2)*x@(4) - 3*zeta(6,1)*x@(0) + 1)\n"
            "t@(1) = x@(0)*s2@(1) + x@(2)*s2@(5) + x@(4)*s2@(3) + (-1 + zeta(6,1))*s1@(1)\n"
            "t@(3) = x@(0)*s2@(3) + x@(2)*s2@(1) + x@(4)*s2@(5) + (-1 + zeta(6,1))*s1@(3)\n"
            "t@(5) = x@(0)*s2@(5) + x@(2)*s2@(3) + x@(4)*s2@(1) + (-1 + zeta(6,1))*s1@(5)\n"
        )),
    lifted("p1-z4-json", "lifted P^1 over Z_4, which the renamed and reordered rows edit",
           "p1.json", CP1_ATLAS, "4", "lifted4.json"),
    checked("p1-z4-renamed", "a lifted atlas is known by its charts' weight layout, not their "
            "names: lifted P^1 over Z_4 with one graded copy renamed is still checked by descent",
            "renamed4.json", "p1-z4-json", build=renamed("x@(3)", "wx@(3)"), timeout=20),
    checked("p1-z8-renamed", "lifted P^1 over Z_8 with one graded copy renamed is still checked "
            "by descent (composing it directly would not end in time)",
            "renamed8.json", "p1-z8-json", build=renamed("x@(7)", "wx@(7)"), timeout=10),
    checked("p1-z4-reordered", "lifted P^1 over Z_4 with chart 0's first two copies swapped is a "
            "valid atlas whose weights leave the layout's order, so its check composes the lifted "
            "transitions directly", "reordered4.json", "p1-z4-json", build=swapped, timeout=20),
    decompose("z257", "a decompose at conductor 257, whose products leave exponents of zeta_257 "
              "past one byte before they are reduced, prints the text recorded before that "
              "exponent became a field of the packed keys", "--group", "2", "--even", "x@0,y@1",
              "--expr", "(1 + zeta(257,200)*x@0)*(1 + zeta(257,201)*y@1) + x@0/(2 + "
              "zeta(257,250)*y@1)", pin=(
                  "(0): (-zeta(257,186)*x@(0)*y@(1)^2 - zeta(257,243)*y@(1)^2 + (2 + 4*zeta(257,200))*x@(0) + 4)/(-zeta(257,243)*y@(1)^2 + 4)\n"
                  "(1): (-zeta(257,130)*x@(0)*y@(1)^3 - zeta(257,187)*y@(1)^3 + (4*zeta(257,144) - zeta(257,250))*x@(0)*y@(1) + 4*zeta(257,201)*y@(1))/(-zeta(257,243)*y@(1)^2 + 4)\n"
              )),
    decompose("dense257", "dividing by a dense 20-term sum of 257th roots inverts it by Euclid "
              "over Z, and prints the bytes recorded while that Euclid ran over Fractions",
              "--group", "2", "--parity", "0", "--even", "x@0", "--expr", f"x@0/({DENSE_257})",
              pin=Sha256("e1b6c9737d7c0f2004669431a3ce2a4f1b15d14b6366cfe47243a60bf678001d")),
    lifted("p2-z5-json", "P^2 has three charts and two images per transition sharing one "
           "denominator, which its lift norms once: it prints the bytes recorded while each "
           "image normed its own", "p2.json", P2_ATLAS, "5", "lifted-p2.json",
           sha="64622862ad3b6f3b879396c076a60286738484576356caa2c05e2bbcfaa75799"),
    checked("p2-z5-check", "the lift of P^2 over Z_5 passes the cocycle check",
            "lifted-p2.json", "p2-z5-json", report=()),
    lifted("p2-z7-json", "over Z_7 the six transitions of P^2 share two norms across the "
           "charts, and the lift prints the bytes recorded while each transition normed its own",
           "p2.json", P2_ATLAS, "7", "lifted-p2-7.json",
           sha="c7ca3e03e36142177f15a5db51364ce7cb59b2c5c0facbe8db7f38ac487ce22f"),
    checked("p2-z7-check", "the lift of P^2 over Z_7 passes the cocycle check",
            "lifted-p2-7.json", "p2-z7-json", report=()),
    lifted("p11-prefix-z6", "twin charts whose names are prefixes of each other: each shared "
           "polynomial is printed once, then filled with each chart's names",
           "p11prefix.json", P11_PREFIX_ATLAS, "6", "lifted-prefix.json", parity=("--parity", "1"),
           sha="c3c5a923b10ab7d5c1f064e6cd4ec7d1de1f8f0c58bed26a8f0a848e4ec05fd1"),
    decompose("z222", "odd content split off the packed product of a numerator and its norm's "
              "cofactors: over Z_2^3 with parity 011 the even weights span a subgroup of order "
              "4, so its tower takes two steps", "--group", "2x2x2", "--parity", "011",
              "--even", "x@(0,0,0),y@(1,0,0),z@(0,1,1),w@(1,1,1)", "--odd", "s@(0,1,0),t@(0,0,1)",
              "--expr", "(s@(0,1,0)*t@(0,0,1) + x@(0,0,0)*s@(0,1,0) + 2*y@(1,0,0)*t@(0,0,1) - "
              "z@(0,1,1))/(1 + y@(1,0,0) + zeta(3,1)*z@(0,1,1) - 2*w@(1,1,1)^2)",
              pin=Sha256("838fe3eb3d12e325c80b4c146b334dc87a30ef52613cba76153a79ae2cf01ef1")),
    decompose("z2222", "the same split over Z_2^4 with parity 0001, whose tower takes three steps",
              "--group", "2x2x2x2", "--parity", "0001",
              "--even", "x@(1,0,0,0),y@(0,1,0,0),z@(0,0,1,0)", "--odd", "s@(0,0,0,1),t@(1,0,0,1)",
              "--expr", "(s@(0,0,0,1)*t@(1,0,0,1) + x@(1,0,0,0)*s@(0,0,0,1) - "
              "y@(0,1,0,0)*t@(1,0,0,1) + 3)/(1 + x@(1,0,0,0) + zeta(3,1)*y@(0,1,0,0) - "
              "2*z@(0,0,1,0))",
              pin=Sha256("dccf3ef21e8240760bb8f33c7616f5c8ba6a480bae845c2c9303effaa6841dba")),
    lifted("nonsplit-z4-json", "a non-split P^{1|2}, whose odd coordinates scale by 1/x^2 so "
           "that no change of coordinates removes a*b/x^3, lifts over Z_4 to the bytes recorded "
           "when its tests landed", "nonsplit.json", NONSPLIT_ATLAS, "4", "lifted-nonsplit.json",
           parity=("--parity", "1"),
           sha="b1f9d5766e6fcc83ea1ea82d3551d9cc78009d5d45d5462bcf42bd16176295f4"),
    checked("nonsplit-z4-check", "the non-split lift over Z_4 passes the cocycle check",
            "lifted-nonsplit.json", "nonsplit-z4-json", report=(), timeout=20),
    Row("long-integer", "an atlas file holding an integer literal of 5,000 digits exits 2 with a "
        "short message that names the file", ("check-cocycle", "long.json"),
        files={"long.json": LONG_LITERAL}, code=2, pin="", stderr=LONG_MESSAGE),
    Row("imaginary-name", "a variable named i would be read as the imaginary unit: the signature "
        "refuses it, exit 2", ("lift", "imaginary.json"),
        files={"imaginary.json": IMAGINARY_MORPHISM}, code=2, pin="",
        stderr=f"error: variable name 'i' {NOT_A_NAME}"),
    decompose("negative-residue", "no expression reads a negative residue back, so a name with "
              "one exits 2 naming the suffix", "--group", "4", "--even", "x@(-2)", "--expr", "1",
              code=2, pin="", stderr=(
                  "error: malformed weight suffix in 'x@(-2)'; expected (k1,...,kt)\n")),
    decompose("blank-parity", "a blank --parity is all-zero bits",
              "--group", "2", "--parity", " ", "--even", "x@0", "--expr", "x@0"),
    checked("p1-z3-check", "lifted P^1 over Z_3 is checked by descent within 2 s",
            "lifted3.json", "p1-z3-json", pin=PASSED_JSON, budget=2),
    checked("p1-z4-check", "lifted P^1 over Z_4 is checked by descent within 2 s (composing its "
            "transitions directly takes 0.65 s on a 2-core VM)",
            "lifted4.json", "p1-z4-json", pin=PASSED_JSON, budget=2),
    lifted("p1-z6-json", "lifted P^1 over Z_6, which the next row checks",
           "p1.json", CP1_ATLAS, "6", "lifted6.json"),
    checked("p1-z6-check", "lifted P^1 over Z_6 is checked by descent within 2 s",
            "lifted6.json", "p1-z6-json", pin=PASSED_JSON, budget=2),
    Row("p1-z3-broken-text", "the text report of the broken lifted P^1 over Z_3 prints the bytes "
        "recorded when its check first composed the lifted transitions",
        ("check-cocycle", "broken3.json"),
        files={"broken3.json": Output("p1-z3-json", break_lifted)}, code=1,
        pin=Sha256("abe5da1be19d4c6f9202e4e3878b88eb7283b0df3cdc1e09dc37e51583c06f24")),
    lifted("p1-z2-json", "lifted P^1 over Z_2 is an atlas file over weighted names",
           "p1.json", CP1_ATLAS, "2", "lifted2.json", parity=("--parity", "0"),
           sha="97a99d61c2014e59f90e3a9e22f90f1e3d58ee5591827031952a795bb4770a73"),
    checked("p1-z2-check", "the lifted atlas file is itself a valid atlas that checks",
            "lifted2.json", "p1-z2-json", report=(), pin=PASSED),
    Row("p1-z2-stdout", "a second lift of P^1 over Z_2, printed rather than written, gives the "
        "same bytes", ("lift-atlas", "p1.json", "--group", "2", "--parity", "0", "--json"),
        files={"p1.json": CP1_ATLAS}, pin=Output("p1-z2-json")),
    Row("p1-z2-file-grading", "lift-atlas takes the group and parity from the atlas file",
        ("lift-atlas", "p1-graded.json"),
        files={"p1-graded.json": dict(CP1_ATLAS, group="2", parity="0")}, pin=lines(
            "[0->1]",
            "  y@(0) = (x@(0))/(x@(0)^2 - x@(1)^2)",
            "  y@(1) = (-x@(1))/(x@(0)^2 - x@(1)^2)",
            "[1->0]",
            "  x@(0) = (y@(0))/(y@(0)^2 - y@(1)^2)",
            "  x@(1) = (-y@(1))/(y@(0)^2 - y@(1)^2)")),
    Row("zero-residual-json", 'the JSON report of the zero residuals gives each as "0"',
        ("check-cocycle", "zero.json", "--json"), files={"zero.json": ZERO_RESIDUAL_ATLAS},
        code=1, pin=lines(
            "{",
            '  "failures": [',
            "    {",
            '      "charts": [',
            '        "0",',
            '        "1"',
            "      ],",
            '      "detail": "round trip is not the identity",',
            '      "kind": "pair",',
            '      "residual": {',
            '        "u": "0"',
            "      }",
            "    },",
            "    {",
            '      "charts": [',
            '        "1",',
            '        "0"',
            "      ],",
            '      "detail": "round trip is not the identity",',
            '      "kind": "pair",',
            '      "residual": {',
            '        "v": "0"',
            "      }",
            "    }",
            "  ],",
            f'  "note": "{NOTE}",',
            '  "ok": false',
            "}")),
    Row("self-identity", "a self-transition that is the identity passes the cocycle check",
        ("check-cocycle", "self.json"), files={"self.json": SELF_IDENTITY}, pin=PASSED),
    Row("self-identity-lift", "an atlas whose self-transition is the identity lifts",
        ("lift-atlas", "self.json", "--group", "2"),
        files={"self.json": SELF_IDENTITY}, pin=lines(
            "[0->0]",
            "  x@(0) = x@(0)",
            "  x@(1) = x@(1)",
            "[0->1]",
            "  y@(0) = (x@(0))/(x@(0)^2 - x@(1)^2)",
            "  y@(1) = (-x@(1))/(x@(0)^2 - x@(1)^2)",
            "[1->0]",
            "  x@(0) = (y@(0))/(y@(0)^2 - y@(1)^2)",
            "  x@(1) = (-y@(1))/(y@(0)^2 - y@(1)^2)")),
    Row("self-transition-lift", "lift-atlas refuses an input atlas that fails the cocycle check, "
        "exit 1", ("lift-atlas", "self.json", "--group", "2"),
        files={"self.json": SELF_SHIFT}, code=1,
        pin="", stderr=lines(
            "error: input atlas fails the cocycle check:",
            FAILED,
            "  self on (0): self-transition is not the identity",
            "    x = x + 1")),

    # -- char-table
    Row("char-table-klein", "the character table of Z_2 x Z_2: a header and four rows, two -1 "
        "in each nontrivial row", ("char-table", "--group", "2x2"), pin=lines(
            "       (0,0)  (0,1)  (1,0)  (1,1)",
            "  (0,0)    1      1      1      1",
            "  (0,1)    1     -1      1     -1",
            "  (1,0)    1      1     -1     -1",
            "  (1,1)    1     -1     -1      1")),
    Row("char-table-z4", "the character table of Z_4 uses i", ("char-table", "--group", "4"),
        pin=lines(
            "     (0)  (1)  (2)  (3)",
            "  (0)  1    1    1    1",
            "  (1)  1    i   -1   -i",
            "  (2)  1   -1    1   -1",
            "  (3)  1   -i   -1    i")),
    Row("char-table-z8", "the character table of Z_8 prints each root by its power of z at "
        "conductor 8", ("char-table", "--group", "8"), pin=lines(
            '                                   (0)                 (1)                 (2)                 (3)                 (4)                 (5)                 (6)                 (7)',
            '                 (0)                 1                   1                   1                   1                   1                   1                   1                   1',
            '                 (1)                 1     z (conductor=8)   z^2 (conductor=8)   z^3 (conductor=8)                  -1    -z (conductor=8)  -z^2 (conductor=8)  -z^3 (conductor=8)',
            '                 (2)                 1   z^2 (conductor=8)                  -1  -z^2 (conductor=8)                   1   z^2 (conductor=8)                  -1  -z^2 (conductor=8)',
            '                 (3)                 1   z^3 (conductor=8)  -z^2 (conductor=8)     z (conductor=8)                  -1  -z^3 (conductor=8)   z^2 (conductor=8)    -z (conductor=8)',
            '                 (4)                 1                  -1                   1                  -1                   1                  -1                   1                  -1',
            '                 (5)                 1    -z (conductor=8)   z^2 (conductor=8)  -z^3 (conductor=8)                  -1     z (conductor=8)  -z^2 (conductor=8)   z^3 (conductor=8)',
            '                 (6)                 1  -z^2 (conductor=8)                  -1   z^2 (conductor=8)                   1  -z^2 (conductor=8)                  -1   z^2 (conductor=8)',
            '                 (7)                 1  -z^3 (conductor=8)  -z^2 (conductor=8)    -z (conductor=8)                  -1   z^3 (conductor=8)   z^2 (conductor=8)     z (conductor=8)',
        )),
    Row("char-table-2x3", "the character table of Z_2 x Z_3 prints each root at conductor 6",
        ("char-table", "--group", "2x3"), pin=lines(
            '                                     (0,0)                 (0,1)                 (0,2)                 (1,0)                 (1,1)                 (1,2)',
            '                 (0,0)                   1                     1                     1                     1                     1                     1',
            '                 (0,1)                   1  -1 + z (conductor=6)      -z (conductor=6)                     1  -1 + z (conductor=6)      -z (conductor=6)',
            '                 (0,2)                   1      -z (conductor=6)  -1 + z (conductor=6)                     1      -z (conductor=6)  -1 + z (conductor=6)',
            '                 (1,0)                   1                     1                     1                    -1                    -1                    -1',
            '                 (1,1)                   1  -1 + z (conductor=6)      -z (conductor=6)                    -1   1 - z (conductor=6)       z (conductor=6)',
            '                 (1,2)                   1      -z (conductor=6)  -1 + z (conductor=6)                    -1       z (conductor=6)   1 - z (conductor=6)',
        )),
    Row("char-table-2x3-again", "a second character table of Z_2 x Z_3 in one process, its group "
        "spelled --group=2x3, gives the same bytes", ("char-table", "--group=2x3"),
        pin=Output("char-table-2x3")),
    Row("char-table-json", "the JSON character table of Z_2",
        ("char-table", "--group", "2", "--json"),
        pin=lines(
            "{",
            '  "characters": [',
            '    "(0)",',
            '    "(1)"',
            "  ],",
            '  "elements": [',
            '    "(0)",',
            '    "(1)"',
            "  ],",
            '  "group": "2",',
            '  "table": [',
            "    [",
            '      "1",',
            '      "1"',
            "    ],",
            "    [",
            '      "1",',
            '      "-1"',
            "    ]",
            "  ]",
            "}")),
    Row("char-table-256", "a character table of order 256, the bound, prints its 257 lines",
        ("char-table", "--group", "2x2x2x2x2x2x2x2"),
        pin=Sha256("a24e39df8984d41f7581db32efc6decfa5dcc5f1f3fcf0798c2a1147122a1f93")),

    # -- decompose and act
    decompose("decompose-reciprocal",
              "1/(x@0 + x@1) over Z_2 splits over its norm x@(0)^2 - x@(1)^2",
              "--group", "2", "--parity", "0", "--even", "x@0,x@1", "--expr", "1/(x@(0)+x@(1))",
              pin=lines(
                  "(0): (x@(0))/(x@(0)^2 - x@(1)^2)",
                  "(1): (-x@(1))/(x@(0)^2 - x@(1)^2)")),
    decompose("decompose-reciprocal-json", "the same split as JSON, one entry per weight",
              "--group", "2", "--parity", "0", "--even", "x@0,x@1", "--expr", "1/(x@(0)+x@(1))",
              "--json", pin=lines(
                  "{",
                  '  "components": {',
                  '    "(0)": "(x@(0))/(x@(0)^2 - x@(1)^2)",',
                  '    "(1)": "(-x@(1))/(x@(0)^2 - x@(1)^2)"',
                  "  }",
                  "}")),
    decompose("decompose-stdin", "decompose without --expr reads the expression from stdin",
              "--group", "2", "--parity", "0", "--even", "x@0,x@1", stdin="x@(0) + x@(1)",
              pin=lines(
                  "(0): x@(0)",
                  "(1): x@(1)")),
    decompose("decompose-rank-two", "weights of rank two over Z_2 x Z_2",
              "--group", "2x2", "--parity", "11", "--even", "x@(0,0),y@(1,1)",
              "--expr", "x@(0,0)^3*y@(1,1) + y@(1,1)^2 + 1/2", pin=lines(
                  "(0,0): y@(1,1)^2 + 1/2",
                  "(1,1): x@(0,0)^3*y@(1,1)")),
    decompose("decompose-three", "a denominator of two weights over Z_3 norms to x^3 + y^3",
              "--group", "3", "--even", "x@0,y@1,z@2", "--expr", "1/(x@0+y@1) + z@2", pin=lines(
                  "(0): (x@(0)^2)/(x@(0)^3 + y@(1)^3)",
                  "(1): (-x@(0)*y@(1))/(x@(0)^3 + y@(1)^3)",
                  "(2): (x@(0)^3*z@(2) + y@(1)^3*z@(2) + y@(1)^2)/(x@(0)^3 + y@(1)^3)")),
    decompose("decompose-shifted", "a homogeneous denominator shifts the numerator's weights, "
              "then they are re-sorted", "--group", "3", "--even", "x@0,y@1,z@2",
              "--expr", "(1 + y@1 + z@2)/y@1",
              pin=lines("(0): (y@(1))/(y@(1))", "(1): (z@(2))/(y@(1))", "(2): (1)/(y@(1))")),
    decompose("decompose-zero", "a zero expression prints as 0",
              "--group", "3", "--even", "x@0,y@1,z@2", "--expr", "x@0 - x@0", pin=lines("0")),
    Row("act-flips-sign", "the element 1 of Z_2 negates the weight-1 variable",
        ("act", "--group", "2", "--parity", "0", "--even", "x@0,x@1", "--element", "1",
         "--expr", "x@(0) + x@(1)"), pin=lines("x@(0) - x@(1)")),
    Row("act-json", "act prints its JSON result",
        ("act", "--group", "4", "--even", "x@0,y@1", "--element", "(1)",
         "--expr", "x@0+y@1^2/x@0", "--json"),
        pin=lines("{", '  "result": "(x@(0)^2 - y@(1)^2)/(x@(0))"', "}")),
    *(Row(f"act-element-{k}", "a group element reads as residues, with or without parentheses "
          "and spaces; a negative residue is allowed here, unlike in a name; "
          "a malformed element exits 2",
          (*argv, "--element", element), code=0 if out else 2, pin=lines(out) if out else "",
          stderr="" if out else f"error: malformed group element {element!r}; "
                                "expected (k1,...,kt)\n")
      for k, (argv, element, out) in enumerate(ACT_ELEMENTS)),

    # -- lift and check-cocycle
    Row("lift-super", "a lift of P^{1|1}'s transition over Z_4: each coordinate's copies in "
        "character order, the even coordinates first", ("lift", "psi.json"),
        files={"psi.json": SUPER_MORPHISM}, pin=lines(
            "y@(0) = (x@(0))/(x@(0)^2 - x@(2)^2)",
            "y@(2) = (-x@(2))/(x@(0)^2 - x@(2)^2)",
            "eta@(1) = (x@(0)*xi@(1) - x@(2)*xi@(3))/(x@(0)^2 - x@(2)^2)",
            "eta@(3) = (x@(0)*xi@(3) - x@(2)*xi@(1))/(x@(0)^2 - x@(2)^2)")),
    Row("lift-parity-violation", "an odd image of an even coordinate fails validation, exit 1",
        ("lift", "bad.json"),
        files={"bad.json": dict(SUPER_MORPHISM, map={"y": "xi", "eta": "xi"})}, code=1, pin="",
        stderr="error: invalid image for 'y': parity mismatch (expected 0, found 1)\n"),
    Row("lift-json-no-parity", 'a morphism file without "parity" lifts with all-zero bits',
        ("lift", "psi.json", "--json"), files={"psi.json": INVERSE_Z3}, pin=lines(
            "{",
            '  "images": {',
            '    "y@(0)": "(x@(0)^2 - x@(1)*x@(2))/(x@(0)^3 - 3*x@(0)*x@(1)*x@(2) + x@(1)^3 + x@(2)^3)",',
            '    "y@(1)": "(-x@(0)*x@(1) + x@(2)^2)/(x@(0)^3 - 3*x@(0)*x@(1)*x@(2) + x@(1)^3 + x@(2)^3)",',
            '    "y@(2)": "(-x@(0)*x@(2) + x@(1)^2)/(x@(0)^3 - 3*x@(0)*x@(1)*x@(2) + x@(1)^3 + x@(2)^3)"',
            "  }",
            "}")),
    *(Row(f"lift-json-parity-{name}", "a morphism file whose parity is 0, blank or null lifts as "
          "one without it", ("lift", "psi.json", "--json"),
          files={"psi.json": dict(INVERSE_Z3, parity=parity)}, pin=Output("lift-json-no-parity"))
      for name, parity in (("0", "0"), ("empty", ""), ("blank", " "), ("null", None))),
    Row("lift-odd-zero-bits", "an odd coordinate has no odd-parity copies under zero bits, exit 1",
        ("lift", "odd.json"),
        files={"odd.json": {k: v for k, v in SUPER_MORPHISM.items() if k != "parity"}},
        code=1, pin="", stderr=("error: no odd-parity weights exist, so the anticommuting "
                                "coordinates ['xi'] would have no graded copies\n")),
    Row("atlas-json-no-parity", 'an atlas file without "parity" lifts with all-zero bits',
        ("lift-atlas", "atlas.json", "--json"), files={"atlas.json": dict(CP1_ATLAS, group="3")},
        pin=Sha256("70ad33327e97ce1e4b98261479cb9bdd2e2e0f98c087a964e5ca7417cfe5f345")),
    *(Row(f"atlas-json-parity-{name}", "an atlas file whose parity is empty or null lifts as one "
          "without it", ("lift-atlas", "atlas.json", "--json"),
          files={"atlas.json": dict(CP1_ATLAS, group="3", parity=parity)},
          pin=Output("atlas-json-no-parity"))
      for name, parity in (("empty", ""), ("null", None))),
    Row("atlas-check-no-parity", 'an atlas file without "parity" checks',
        ("check-cocycle", "atlas.json"), files={"atlas.json": dict(CP1_ATLAS, group="3")},
        pin=PASSED),
    Row("atlas-check-parity-null", "a null parity is checked as an absent one",
        ("check-cocycle", "atlas.json"),
        files={"atlas.json": dict(CP1_ATLAS, group="3", parity=None)},
        pin=Output("atlas-check-no-parity")),
    decompose("blank-parity-decompose", "decompose without --parity is all-zero bits",
              *BLANK_DECOMPOSE[1:], pin=lines(
                  "(0): (x@(0)*y@(1))/(y@(1))",
                  "(1): (1)/(y@(1))")),
    Row("blank-parity-file-parity", "lift-atlas without --parity takes the file's parity",
        ("lift-atlas", "super.json"), files=GRADED_SUPER_FILE, pin=lines(
            "[0->1]",
            "  eta@(1) = (x@(0)*xi@(1) - x@(2)*xi@(3))/(x@(0)^2 - x@(2)^2)",
            "  eta@(3) = (x@(0)*xi@(3) - x@(2)*xi@(1))/(x@(0)^2 - x@(2)^2)",
            "  y@(0) = (x@(0))/(x@(0)^2 - x@(2)^2)",
            "  y@(2) = (-x@(2))/(x@(0)^2 - x@(2)^2)",
            "[1->0]",
            "  x@(0) = (y@(0))/(y@(0)^2 - y@(2)^2)",
            "  x@(2) = (-y@(2))/(y@(0)^2 - y@(2)^2)",
            "  xi@(1) = (y@(0)*eta@(1) - y@(2)*eta@(3))/(y@(0)^2 - y@(2)^2)",
            "  xi@(3) = (y@(0)*eta@(3) - y@(2)*eta@(1))/(y@(0)^2 - y@(2)^2)")),
    *(Row(f"blank-parity-{case}-{name}", "a blank --parity reads as no --parity, and as the "
          "all-zero bits or the file's own parity", (*argv, *flag), files=files,
          pin=Output(first))
      for case, argv, files, first, bits in BLANK_PARITY_CASES
      for name, flag in (("empty", ("--parity", "")), ("blank", ("--parity", " ")),
                         ("bits", ("--parity", bits)))),
    Row("lift-atlas-p1-z3", "lifted P^1 over Z_3, printed as text", ("lift-atlas", "p1.json",
        "--group", "3"), files={"p1.json": CP1_ATLAS}, pin=lines(
            "[0->1]",
            "  y@(0) = (x@(0)^2 - x@(1)*x@(2))/(x@(0)^3 - 3*x@(0)*x@(1)*x@(2) + x@(1)^3 + x@(2)^3)",
            "  y@(1) = (-x@(0)*x@(1) + x@(2)^2)/(x@(0)^3 - 3*x@(0)*x@(1)*x@(2) + x@(1)^3 + x@(2)^3)",
            "  y@(2) = (-x@(0)*x@(2) + x@(1)^2)/(x@(0)^3 - 3*x@(0)*x@(1)*x@(2) + x@(1)^3 + x@(2)^3)",
            "[1->0]",
            "  x@(0) = (y@(0)^2 - y@(1)*y@(2))/(y@(0)^3 - 3*y@(0)*y@(1)*y@(2) + y@(1)^3 + y@(2)^3)",
            "  x@(1) = (-y@(0)*y@(1) + y@(2)^2)/(y@(0)^3 - 3*y@(0)*y@(1)*y@(2) + y@(1)^3 + y@(2)^3)",
            "  x@(2) = (-y@(0)*y@(2) + y@(1)^2)/(y@(0)^3 - 3*y@(0)*y@(1)*y@(2) + y@(1)^3 + y@(2)^3)")),
    Row("lift-atlas-p11-z4", "lifted P^{1|1} over Z_4, printed as text: each transition's images "
        "sorted by name", ("lift-atlas", "super.json", "--group", "4", "--parity", "1"),
        files={"super.json": SUPER_ATLAS}, pin=lines(
            "[0->1]",
            "  eta@(1) = (x@(0)*xi@(1) - x@(2)*xi@(3))/(x@(0)^2 - x@(2)^2)",
            "  eta@(3) = (x@(0)*xi@(3) - x@(2)*xi@(1))/(x@(0)^2 - x@(2)^2)",
            "  y@(0) = (x@(0))/(x@(0)^2 - x@(2)^2)",
            "  y@(2) = (-x@(2))/(x@(0)^2 - x@(2)^2)",
            "[1->0]",
            "  x@(0) = (y@(0))/(y@(0)^2 - y@(2)^2)",
            "  x@(2) = (-y@(2))/(y@(0)^2 - y@(2)^2)",
            "  xi@(1) = (y@(0)*eta@(1) - y@(2)*eta@(3))/(y@(0)^2 - y@(2)^2)",
            "  xi@(3) = (y@(0)*eta@(3) - y@(2)*eta@(1))/(y@(0)^2 - y@(2)^2)")),
    Row("check-p1", "P^1 passes the cocycle check", ("check-cocycle", "p1.json"),
        files={"p1.json": CP1_ATLAS}, pin=PASSED),
    Row("check-p1-json", "the JSON report of a passing check",
        ("check-cocycle", "p1.json", "--json"),
        files={"p1.json": CP1_ATLAS}, pin=PASSED_JSON),
    Row("check-broken", "an atlas whose round trip is not the identity fails the check, naming "
        "the offending pair, exit 1", ("check-cocycle", "broken.json"),
        files={"broken.json": BROKEN_ATLAS}, code=1, pin=lines(
            FAILED,
            "  pair on (1->2): round trip is not the identity",
            "    x = (x^2 + x)/(x)",
            "  pair on (2->1): round trip is not the identity",
            "    y = (y)/(y + 1)")),
    Row("check-broken-json", "the JSON report lists the failing pair",
        ("check-cocycle", "broken.json", "--json"), files={"broken.json": BROKEN_ATLAS}, code=1,
        pin=lines(
            "{",
            '  "failures": [',
            "    {",
            '      "charts": [',
            '        "1",',
            '        "2"',
            "      ],",
            '      "detail": "round trip is not the identity",',
            '      "kind": "pair",',
            '      "residual": {',
            '        "x": "(x^2 + x)/(x)"',
            "      }",
            "    },",
            "    {",
            '      "charts": [',
            '        "2",',
            '        "1"',
            "      ],",
            '      "detail": "round trip is not the identity",',
            '      "kind": "pair",',
            '      "residual": {',
            '        "y": "(y)/(y + 1)"',
            "      }",
            "    }",
            "  ],",
            f'  "note": "{NOTE}",',
            '  "ok": false',
            "}")),
    Row("garbage-json", "an atlas file that is not JSON exits 2", ("check-cocycle", "garbage.json"),
        files={"garbage.json": "{not json"}, code=2, pin="",
        stderr="error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
    Row("missing-file", "a missing atlas file exits 2", ("check-cocycle", "missing.json"), code=2,
        pin="", stderr="error: [Errno 2] No such file or directory: 'missing.json'\n"),

    # -- refusals, each with its exact message
    *(Row(f"oversized-{case}", "an oversized residue, literal or name is quoted in 40 characters "
          "and its length", argv, code=2, pin="", stderr=stderr)
      for case, argv, stderr in OVERSIZED),
    *(hostile(case, *args) for case, args in HOSTILE.items()),
    decompose("unknown-identifier", "an unknown identifier exits 2, naming it",
              "--group", "2", "--parity", "0", "--even", "x@0,x@1", "--expr", "1/(x@(0)+z)",
              code=2, pin="", stderr="syntax error: unknown identifier 'z' (position 10)\n"),
    decompose("malformed-weight-suffix", "a weight suffix that does not close exits 2",
              "--group", "2", "--parity", "0", "--even", "x@(1", "--expr", "1",
              code=2, pin="", stderr=(
                  "error: malformed weight suffix in 'x@(1'; expected (k1,...,kt)\n")),
    decompose("sparse-binomial-z2", "a binomial 1 + m norms to 1 - m^2 however many variables m "
              "holds: the gate counts the multisets of D's terms too, not only the 64,512,240 "
              "monomials of degree 22 in 11 variables",
              "--group", "2", "--parity", "0", "--even", ",".join(SPARSE_NAMES),
              "--expr", f"1/(1 + {'*'.join(SPARSE_NAMES)})", pin=lines(
                  "(0): (1)/(-a@(1)^2*b@(1)^2*c@(1)^2*d@(1)^2*e@(1)^2*f@(1)^2*g@(1)^2*h@(1)^2*i@(1)^2*j@(1)^2*k@(1)^2 + 1)",
                  "(1): (-a@(1)*b@(1)*c@(1)*d@(1)*e@(1)*f@(1)*g@(1)*h@(1)*i@(1)*j@(1)*k@(1))/(-a@(1)^2*b@(1)^2*c@(1)^2*d@(1)^2*e@(1)^2*f@(1)^2*g@(1)^2*h@(1)^2*i@(1)^2*j@(1)^2*k@(1)^2 + 1)")),
    decompose("sparse-binomial-z12", "1 + x*(y*z*w*u)^3 over Z_12 norms within 1 s, not over "
              "26,294,360 monomials", "--group", "12", "--parity", "0",
              "--even", "x@1,y@0,z@0,w@0,u@0", "--expr", "1/(1 + x@1*(y@0*z@0*w@0*u@0)^3)",
              pin=lines(
                  "(0): (1)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(1): (-x@(1)*y@(0)^3*z@(0)^3*w@(0)^3*u@(0)^3)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(2): (x@(1)^2*y@(0)^6*z@(0)^6*w@(0)^6*u@(0)^6)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(3): (-x@(1)^3*y@(0)^9*z@(0)^9*w@(0)^9*u@(0)^9)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(4): (x@(1)^4*y@(0)^12*z@(0)^12*w@(0)^12*u@(0)^12)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(5): (-x@(1)^5*y@(0)^15*z@(0)^15*w@(0)^15*u@(0)^15)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(6): (x@(1)^6*y@(0)^18*z@(0)^18*w@(0)^18*u@(0)^18)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(7): (-x@(1)^7*y@(0)^21*z@(0)^21*w@(0)^21*u@(0)^21)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(8): (x@(1)^8*y@(0)^24*z@(0)^24*w@(0)^24*u@(0)^24)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(9): (-x@(1)^9*y@(0)^27*z@(0)^27*w@(0)^27*u@(0)^27)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(10): (x@(1)^10*y@(0)^30*z@(0)^30*w@(0)^30*u@(0)^30)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)",
                  "(11): (-x@(1)^11*y@(0)^33*z@(0)^33*w@(0)^33*u@(0)^33)/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)"), budget=1),
    decompose("sum-digits", "a sum past the printable digits is a short syntax error",
              "--group", "2", "--even", "x@0", "--expr", f"{NINES} + {NINES}",
              code=2, pin="", stderr=("syntax error: coefficient of the sum has more than 4300 "
                                      "digits (position 4302)\n")),
    decompose("sum-digits-in-a-quotient", "a sum past the printable digits is refused at its own "
              "operator, not at the + of x@0 + 1 (8612)", "--group", "2", "--even", "x@0",
              "--expr", f"({NINES} + {NINES})/(x@0 + 1)", code=2, pin="",
              stderr=("syntax error: coefficient of the sum has more than 4300 digits "
                      "(position 4303)\n")),
    decompose("sum-digits-in-a-product", "a sum past the printable digits is refused at its own "
              "operator, not at the last + of the text (9)", "--group", "2", "--even", "x@0",
              "--expr", f"x@0 + 1 + ({NINES} + {NINES})*x@0", code=2, pin="",
              stderr=("syntax error: coefficient of the sum has more than 4300 digits "
                      "(position 4313)\n")),
    decompose("norm-digits", "each literal parses, but the norm (N + x)(N - x) of a 4,000-digit N "
              "has an 8,000-digit coefficient: the failure names printing and the bound",
              "--group", "2", "--parity", "0", "--even", "x@0,x@1",
              "--expr", f"1/({'9' * 4000} + x@1)", code=2, pin="", stderr=PRINTING_COEFFICIENT),
    Row("norm-digits-lift", "the same norm in a lift fails as it prints", ("lift", "big.json"),
        files={"big.json": {"group": "2", "source": {"even": ["x"]}, "target": {"even": ["y"]},
                            "map": {"y": f"1/({'9' * 4000} + x)"}}},
        code=2, pin="", stderr=PRINTING_COEFFICIENT),
    decompose("exponent-digits", "an exponent past the printable digits fails as it prints",
              "--group", "2", "--parity", "0", "--even", "x@0", "--expr", f"x@0^{NINES}*x@0^{NINES}",
              code=2, pin="",
              stderr="error: printing the result: an exponent has more than 4300 digits\n"),
    *(decompose(f"chain-{case}", f"a group of 2,000 terms times {count:,} factors {factor} "
                f"reads within 0.5 s: the factors after a value fold into one product (one "
                f"product per factor took {cpu} s of CPU on a 2-core VM)",
                "--group", "2", "--even", "x@0,y@0", "--expr", CHAIN_GROUP + factor * count,
                pin=Sha256(sha), budget=0.5)
      for case, factor, count, cpu, sha in CHAINS),
    decompose("chain-digits-product", "a chain of factors after a value is refused at the "
              "operator whose product passes the printable digits, not where the fold ends",
              "--group", "2", "--even", "x@0", "--expr", "(x@0 + 1)*10^4000*10^300*2", code=2,
              pin="", stderr=("syntax error: coefficient of the product has more than 4300 "
                              "digits (position 18)\n")),
    decompose("chain-digits-quotient", "a chain of factors after a value is refused at the "
              "operator whose quotient passes the printable digits, after the *2 has cancelled "
              "a 2 of its denominator", "--group", "2", "--even", "x@0",
              "--expr", "(x@0/10^4000 + 1)*2/10^200/10^100/3*7", code=2, pin="",
              stderr=("syntax error: coefficient of the quotient has more than 4300 digits "
                      "(position 34)\n")),
    decompose("chain-lifted-quotient", "a value whose entries pass the printable digits only "
              "once lifted to the conductor of its product (12) takes a quotient by 3 that "
              "brings them back below", "--group", "2", "--even", "x@0", "--expr", LIFTED + "/3",
              pin=Sha256("2507723b7021e0606343d8b7d7a000b225efe0d4b9fd0fa55360a76372fdf958")),
    decompose("chain-lifted-product", "the same value is refused at its product by x@0, the "
              "first to lift it, whatever follows", "--group", "2", "--even", "x@0",
              "--expr", LIFTED + "*x@0/3", code=2, pin="",
              stderr=("syntax error: coefficient of the product has more than 4300 digits "
                      "(position 8624)\n")),
    *(decompose(f"power-size-{case}", "a power of a sum within its size bound",
                "--group", "2", "--even", "x@0", "--expr", twin, pin=Sha256(sha))
      for _, _, twin, case, sha in POWER_TWINS),
    *(decompose(f"power-size-{case}", "the power bound counts each coefficient at its least "
                "conductor, and the power is taken there, so a power prints what its twin of "
                "equal value prints, as fast", "--group", "2", "--even", "x@0", "--expr", text,
                pin=Output(f"power-size-{twin}"), budget=2)
      for case, text, _, twin, _ in POWER_TWINS),
    *(Row(f"shape-{re.sub('[ :.]', '-', case)}", "an atlas or morphism file of the wrong shape "
          "exits 2, naming the key", (command, "bad.json"), files={"bad.json": payload}, code=2,
          pin="", stderr=stderr)
      for case, command, payload, stderr in MALFORMED_SHAPES),
    *(Row(f"usage-{case}", "a usage error exits 2 with its message and no output",
          argv, files=files, code=2, pin="", stderr=stderr)
      for case, argv, files, stderr in USAGE_ERRORS),
    *(Row(f"nested-{command}", "a file nested past the JSON decoder's recursion exits 2",
          (command, "nested.json"), files={"nested.json": NESTED_CHARTS}, code=2, pin="",
          stderr=NESTED_MESSAGE) for command in ("lift-atlas", "lift")),
    *(Row(f"long-integer-{command}", "a file holding an integer literal of 5,000 digits exits 2",
          (command, "long.json"), files={"long.json": LONG_LITERAL}, code=2, pin="",
          stderr=LONG_MESSAGE) for command in ("lift-atlas", "lift")),
    *(Row(f"image-{case}", "an image that fails to read names its key and keeps its exit code",
          (command, "bad.json"), files={"bad.json": payload}, code=code, pin="", stderr=stderr)
      for case, command, payload, code, stderr in BAD_IMAGES),
    Row("memo-spans", "an image of 10,000 distinct parenthesised spans that share their first "
        "16 characters checks within 2 s: the span memo keeps at most 64 spans per prefix, so "
        "reading a span tries at most 64 (trying every kept span took 5.8 s of CPU on a 2-core "
        "VM, against 0.6 s)", ("check-cocycle", "spans.json"),
        files={"spans.json": with_transitions(**{"0->1": {"y": "1/x + " + SAME_PREFIX_SPANS}})},
        pin=PASSED, budget=2),
    *readme_rows(),
]
ROWS = {row.id: row for row in TABLE}
if len(ROWS) != len(TABLE):
    raise ValueError("two rows share an id")
if len({(row.argv, row.stdin, repr(row.files)) for row in TABLE}) != len(TABLE):
    raise ValueError("two rows make one call: a check of both belongs in one row")


# -- the runner -------------------------------------------------------------


@dataclass
class Result:
    code: int | None
    out: str
    err: str
    written: str | None  # the --output file's text, if the row names one and it exists
    seconds: float  # by the runner's clock, around the call alone


class Runner:
    """Runs rows through ``invoke(argv, stdin, cwd, timeout) -> (code, stdout,
    stderr)``, each in a fresh directory under ``root``, and checks them.  A
    row runs once, however many checks or later rows read it.  With
    ``budgets``, a row that takes more than its ``budget`` seconds of
    ``clock`` fails."""

    def __init__(self, invoke, root, budgets=False, clock=time.perf_counter):
        self.invoke, self.root, self.results = invoke, Path(root), {}
        self.budgets, self.clock = budgets, clock

    def result(self, row_id: str) -> Result:
        if row_id not in self.results:
            row = ROWS[row_id]
            cwd = self.root / row_id
            cwd.mkdir(parents=True)
            for name, value in row.files.items():
                (cwd / name).write_bytes(self.text(value).encode())
            start = self.clock()
            code, out, err = self.invoke(list(row.argv), row.stdin, cwd, row.timeout)
            seconds = self.clock() - start
            written = cwd / row.output if row.output else None
            self.results[row_id] = Result(
                code, out, err,
                written.read_bytes().decode() if written and written.exists() else None, seconds)
        return self.results[row_id]

    def output(self, row_id: str) -> str:
        """What a row wrote: its ``--output`` file, else its stdout."""
        got = self.result(row_id)
        if ROWS[row_id].output is None:
            return got.out
        if got.written is None:
            raise FileNotFoundError(f"row {row_id} wrote no {ROWS[row_id].output}")
        return got.written

    def text(self, value) -> str:
        if isinstance(value, Output):
            return value.build(self.output(value.row))
        return value if isinstance(value, str) else json.dumps(value)

    def problems(self, row_id: str) -> list[str]:
        """What row ``row_id`` got wrong; empty when it passes."""
        row, got = ROWS[row_id], self.result(row_id)
        found = []
        if got.code != row.code:
            found.append(f"exit {got.code}, not {row.code}; stderr: {got.err[-2000:]}")
        if row.output and got.written is None:
            found.append(f"wrote no {row.output}")
        elif row.pin is not None:
            text = self.output(row_id)
            if isinstance(row.pin, Sha256):
                digest = hashlib.sha256(text.encode()).hexdigest()
                if digest != row.pin:
                    found.append(f"SHA-256 {digest}, not the pinned {row.pin}")
            elif text != (want := self.text(row.pin)):
                found.append(differs("output", want, text))
        if row.stderr is not None and got.err != row.stderr:
            found.append(differs("stderr", row.stderr, got.err))
        if self.budgets and row.budget is not None and got.seconds > row.budget:
            found.append(f"took {got.seconds:.2f} s, past its budget of {row.budget} s")
        for stream, held, counts in (("stdout", got.out, row.out), ("stderr", got.err, row.err)):
            found += [f"{stream} holds {s!r} {held.count(s)} times, not {n}"
                      for s, n in counts.items() if held.count(s) != n]
        return found


def differs(what: str, want: str, got: str) -> str:
    diff = difflib.unified_diff(want.splitlines(True), got.splitlines(True), "pinned", "got", n=0)
    return f"{what} differs from the pin:\n" + "".join(diff)[:4000]


def console_script(argv, stdin, cwd, timeout):
    """The installed ``gradedcover`` script, in a process of its own."""
    try:
        done = subprocess.run(["gradedcover", *argv], input=stdin.encode(), cwd=cwd,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {timeout} s"
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def main() -> int:
    failed, start = 0, time.perf_counter()
    with tempfile.TemporaryDirectory() as root:
        runner = Runner(console_script, root)
        for row_id in ROWS:
            try:
                found = runner.problems(row_id)
            except FileNotFoundError as exc:  # a row it reads wrote nothing
                found = [str(exc)]
            failed += bool(found)
            print(("FAIL " if found else "ok   ") + row_id, *found, sep="\n  ", flush=True)
    slowest = sorted(runner.results.items(), key=lambda item: -item[1].seconds)[:5]
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass in {time.perf_counter() - start:.1f} s; "
          "slowest: " + ", ".join(f"{row_id} {got.seconds:.2f} s" for row_id, got in slowest))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
