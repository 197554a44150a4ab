"""Byte pins of the command line: one table of rows, one runner, two callers.

Each row is data: its input files, its argv, its stdin, its exit code, and
what its output must be -- the stdout, or the file its ``--output`` names.
A pin is a ``Sha256`` of those bytes, their exact text, or the bytes of an
earlier row's ``Output``.  ``out`` and ``err`` count strings that stdout and
stderr must hold: a count of 0 is a string they must not hold.

``tests/test_cli.py`` runs every row in-process through ``cli.main``.
``python tests/cli_pins.py`` runs every row through the installed
``gradedcover`` console script, each under its row's timeout, and exits 1
if any row fails.  Either way each row runs in a fresh directory of its own.
"""

from __future__ import annotations

import difflib
import hashlib
import itertools
import json
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from conftest import CP1_ATLAS, NINES, NONSPLIT_ATLAS
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
    timeout: float | None = 20  # seconds, through the console script only

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


def with_self_transition(atlas: dict) -> dict:
    """Add the self-transition 0->0 that sends x to x + 1."""
    return dict(atlas, transitions=dict(atlas["transitions"], **{"0->0": {"x": "x + 1"}}))


SUM_8000 = " + ".join(
    f"{k % 7 + 2}*x@0^{a}*y@1^{b}*z@0^{c}*w@1^{d}*x@0*z@0"
    for k, (a, b, c, d) in zip(range(8000), itertools.product(range(1, 11), repeat=4))) + "\n"
DENSE_257 = " + ".join(f"{j * j % 7 + 1}*zeta(257,{j})" for j in range(20))
NESTED_1200 = '{"charts": ' + "[" * 1200 + "]" * 1200 + "}\n"
LONG_INTEGER = '{"group": ' + "1" * 5000 + ', "charts": {}}\n'

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
ZERO_ATLAS = {
    "charts": {"0": {"even": ["x"], "odd": ["u"]}, "1": {"even": ["y"], "odd": ["v"]}},
    "transitions": {"0->1": {"y": "1/x", "v": "u*x - u*x"}, "1->0": {"x": "1/y", "u": "v*y"}},
}
INVERSE_Z3 = {"group": "3", "source": {"even": ["x"]}, "target": {"even": ["y"]},
              "map": {"y": "1/x"}}
Z6_ODD_MORPHISM = {
    "group": "6", "parity": "1",
    "source": {"even": ["x"], "odd": ["s1", "s2"]}, "target": {"even": ["y"], "odd": ["t"]},
    "map": {"y": "(zeta(3,1)*x + s1*s2)/(1 + zeta(3,2)*x)", "t": "zeta(3,1)*s1 + x*s2"},
}
IMAGINARY_MORPHISM = {"group": "2", "source": {"even": ["i"]}, "target": {"even": ["y"]},
                      "map": {"y": "i"}}

PRIME_STEP = ("an orbit tower with a prime step p >= 5, which the benchmark's decompose inputs "
              "never reach, prints the bytes recorded while each such step still read a "
              "circulant form or took the twist chain")


def lifted(row_id, why, atlas_file, atlas, group, output, *, sha=None, parity=(), timeout=60):
    """``lift-atlas`` of ``atlas`` to the JSON file ``output``."""
    return Row(row_id, why,
               ("lift-atlas", atlas_file, "--group", group, *parity, "--json", "--output", output),
               files={atlas_file: atlas}, pin=sha and Sha256(sha), timeout=timeout)


def checked(row_id, why, name, source, *, build=str, report=("--json",), timeout=60):
    """``check-cocycle`` of what row ``source`` wrote, passed through ``build``; exit 0."""
    return Row(row_id, why, ("check-cocycle", name, *report),
               files={name: Output(source, build)}, timeout=timeout)


def decompose(row_id, why, *argv, **checks):
    return Row(row_id, why, ("decompose", *argv), **checks)


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
            "minutes)", "lifted.json", "p1-z5-json"),
    lifted("p1-z8-json", "P^1 over Z_8, left out of the benchmark, lifts through the rational "
           "orbit tower", "p1.json", CP1_ATLAS, "8", "lifted8.json"),
    checked("p1-z8-check", "lifted P^1 over Z_8 is checked by descent",
            "lifted8.json", "p1-z8-json"),
    lifted("p1-z7-json", "P^1 over Z_7 takes the orbit tower's one cofactor rule",
           "p1.json", CP1_ATLAS, "7", "lifted7.json"),
    checked("p1-z7-check", "lifted P^1 over Z_7 is checked by descent",
            "lifted7.json", "p1-z7-json"),
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
        "whatever its denominator", ("check-cocycle", "zero.json"),
        files={"zero.json": ZERO_ATLAS}, code=1, out={" = 0\n": 2, "(0)/(": 0}),
    Row("self-transition", "P^1 with a self-transition 0->0 other than the identity fails the "
        "cocycle check (exit 1)", ("check-cocycle", "self.json"),
        files={"self.json": with_self_transition(CP1_ATLAS)}, code=1, out={"self on (0)": 1}),
    decompose("conductor-bound", "two roots within the order bound whose product lifts past the "
              "conductor bound exit 1 at once",
              "--group", "2", "--even", "x@0", "--expr", "zeta(4093,1)*zeta(4091,1)", code=1),
    Row("char-table-bound", "a character table past its order bound exits 2 before it builds a "
        "cell", ("char-table", "--group", "4096"), code=2),
    decompose("syntax-before-division", "a syntax error outranks a division by zero read before "
              "it: exit 2, not 1", "--group", "2", "--even", "x@0", "--expr", "1/0 )", code=2),
    Row("nested-json", "an atlas file nested past the JSON decoder's recursion exits 2, with no "
        "traceback", ("check-cocycle", "nested.json"), files={"nested.json": NESTED_1200},
        code=2, err={"Traceback": 0}),
    Row("lift-even", "a morphism file without \"parity\" lifts with all-zero bits",
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
        files={"long.json": LONG_INTEGER}, code=2,
        err={"'long.json'": 1, "Traceback": 0, "set_int_max_str_digits": 0}),
    Row("imaginary-name", "a variable named i would be read as the imaginary unit: the signature "
        "refuses it, exit 2", ("lift", "imaginary.json"),
        files={"imaginary.json": IMAGINARY_MORPHISM}, code=2, err={"'i'": 1}),
    decompose("negative-residue", "no expression reads a negative residue back, so a name with "
              "one exits 2 naming the suffix", "--group", "4", "--even", "x@(-2)", "--expr", "1",
              code=2, err={"weight suffix": 1}),
    decompose("blank-parity", "a blank --parity is all-zero bits",
              "--group", "2", "--parity", " ", "--even", "x@0", "--expr", "x@0"),
    *readme_rows(),
]
ROWS = {row.id: row for row in TABLE}
if len(ROWS) != len(TABLE):
    raise ValueError("two rows share an id")


# -- the runner -------------------------------------------------------------


@dataclass
class Result:
    code: int | None
    out: str
    err: str
    written: str | None  # the --output file's text, if the row names one and it exists


class Runner:
    """Runs rows through ``invoke(argv, stdin, cwd, timeout) -> (code, stdout,
    stderr)``, each in a fresh directory under ``root``, and checks them.  A
    row that later rows read runs once."""

    def __init__(self, invoke, root):
        self.invoke, self.root, self.results = invoke, Path(root), {}

    def result(self, row_id: str) -> Result:
        if row_id not in self.results:
            row = ROWS[row_id]
            cwd = self.root / row_id
            cwd.mkdir()
            for name, value in row.files.items():
                (cwd / name).write_bytes(self.text(value).encode())
            code, out, err = self.invoke(list(row.argv), row.stdin, cwd, row.timeout)
            written = cwd / row.output if row.output else None
            self.results[row_id] = Result(
                code, out, err, written.read_bytes().decode() if written and written.exists() else None)
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
            else:
                want = self.text(row.pin)
                if text != want:
                    diff = difflib.unified_diff(want.splitlines(True), text.splitlines(True),
                                                "pinned", "got", n=0)
                    found.append("output differs from the pin:\n" + "".join(diff)[:4000])
        for stream, held, counts in (("stdout", got.out, row.out), ("stderr", got.err, row.err)):
            found += [f"{stream} holds {s!r} {held.count(s)} times, not {n}"
                      for s, n in counts.items() if held.count(s) != n]
        return found


def console_script(argv, stdin, cwd, timeout):
    """The installed ``gradedcover`` script, in a process of its own."""
    try:
        done = subprocess.run(["gradedcover", *argv], input=stdin.encode(), cwd=cwd,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {timeout} s"
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as root:
        runner = Runner(console_script, root)
        for row_id in ROWS:
            try:
                found = runner.problems(row_id)
            except FileNotFoundError as exc:  # a row it reads wrote nothing
                found = [str(exc)]
            failed += bool(found)
            print(("FAIL " if found else "ok   ") + row_id, *found, sep="\n  ", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
