"""Command dispatch, output shapes, and the exit-code contract."""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedcover import (GradedMorphism, GradedSignature, ParityMap,
                         SuperPolynomial, algebra, cli, make_group)
from gradedcover.cli import build_parser, dump_atlas, load_atlas, main, parse
from gradedcover.errors import ExprSyntaxError, NormSizeError, _quoted
import cli_pins
from conftest import CP1_ATLAS, NINES, SOUP_TOKENS

BROKEN_ATLAS = {
    "charts": {"1": {"even": ["x"], "odd": []}, "2": {"even": ["y"], "odd": []}},
    "transitions": {"1->2": {"y": "1/x"}, "2->1": {"x": "1/y + 1"}},
}

SUPER_ATLAS = {  # P^{1|1}
    "charts": {"0": {"even": ["x"], "odd": ["xi"]}, "1": {"even": ["y"], "odd": ["eta"]}},
    "transitions": {"0->1": {"y": "1/x", "eta": "xi/x"}, "1->0": {"x": "1/y", "xi": "eta/y"}},
}

# x_j of weight e_j over Z_2^6
Z2_6_UNITS = [f"x{j}@({','.join(str(int(i == j)) for i in range(6))})" for j in range(6)]

SUPER_MORPHISM = {
    "group": "4",
    "parity": "1",
    "source": {"even": ["x"], "odd": ["xi"]},
    "target": {"even": ["y"], "odd": ["eta"]},
    "map": {"y": "1/x", "eta": "xi/x"},
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_char_table_klein(capsys):
    assert main(["char-table", "--group", "2x2"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 5  # header plus four character rows
    body = "".join(lines[1:])
    assert body.count("-1") == 6  # two entries of -1 in each nontrivial row


def test_char_table_z4_uses_i(capsys):
    assert main(["char-table", "--group", "4"]) == 0
    out = capsys.readouterr().out
    assert " i" in out and "-i" in out


CHAR_TABLE_Z8 = [
    '                                   (0)                 (1)                 (2)                 (3)                 (4)                 (5)                 (6)                 (7)',
    '                 (0)                 1                   1                   1                   1                   1                   1                   1                   1',
    '                 (1)                 1     z (conductor=8)   z^2 (conductor=8)   z^3 (conductor=8)                  -1    -z (conductor=8)  -z^2 (conductor=8)  -z^3 (conductor=8)',
    '                 (2)                 1   z^2 (conductor=8)                  -1  -z^2 (conductor=8)                   1   z^2 (conductor=8)                  -1  -z^2 (conductor=8)',
    '                 (3)                 1   z^3 (conductor=8)  -z^2 (conductor=8)     z (conductor=8)                  -1  -z^3 (conductor=8)   z^2 (conductor=8)    -z (conductor=8)',
    '                 (4)                 1                  -1                   1                  -1                   1                  -1                   1                  -1',
    '                 (5)                 1    -z (conductor=8)   z^2 (conductor=8)  -z^3 (conductor=8)                  -1     z (conductor=8)  -z^2 (conductor=8)   z^3 (conductor=8)',
    '                 (6)                 1  -z^2 (conductor=8)                  -1   z^2 (conductor=8)                   1  -z^2 (conductor=8)                  -1   z^2 (conductor=8)',
    '                 (7)                 1  -z^3 (conductor=8)  -z^2 (conductor=8)    -z (conductor=8)                  -1   z^3 (conductor=8)   z^2 (conductor=8)     z (conductor=8)',
]

CHAR_TABLE_Z2XZ3 = [
    '                                     (0,0)                 (0,1)                 (0,2)                 (1,0)                 (1,1)                 (1,2)',
    '                 (0,0)                   1                     1                     1                     1                     1                     1',
    '                 (0,1)                   1  -1 + z (conductor=6)      -z (conductor=6)                     1  -1 + z (conductor=6)      -z (conductor=6)',
    '                 (0,2)                   1      -z (conductor=6)  -1 + z (conductor=6)                     1      -z (conductor=6)  -1 + z (conductor=6)',
    '                 (1,0)                   1                     1                     1                    -1                    -1                    -1',
    '                 (1,1)                   1  -1 + z (conductor=6)      -z (conductor=6)                    -1   1 - z (conductor=6)       z (conductor=6)',
    '                 (1,2)                   1      -z (conductor=6)  -1 + z (conductor=6)                    -1       z (conductor=6)   1 - z (conductor=6)',
]


@pytest.mark.parametrize("group, table", [("8", CHAR_TABLE_Z8), ("2x3", CHAR_TABLE_Z2XZ3)])
def test_char_table_text_is_pinned(capsys, group, table):
    assert main(["char-table", "--group", group]) == 0
    assert capsys.readouterr().out.splitlines() == table


def test_char_table_json(capsys):
    assert main(["char-table", "--group", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["table"] == [["1", "1"], ["1", "-1"]]
    assert payload["elements"] == ["(0)", "(1)"]


def test_char_table_order_is_bounded(capsys):
    """Order 1,024 took 22 s on a 2-core VM and order 4,096 did not end: a
    table above order 256 is refused before any cell is built, and one of
    order 256 prints."""
    start = time.perf_counter()
    assert main(["char-table", "--group", "4096"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: a character table of a group of order 4096 is above the bound 256\n")
    assert main(["char-table", "--group", "2x2x2x2x2x2x2x2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 257


def test_decompose_reciprocal_sum(capsys):
    code = main([
        "decompose",
        "--group", "2",
        "--parity", "0",
        "--even", "x@0,x@1",
        "--expr", "1/(x@(0)+x@(1))",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "(0): (x@(0))/(x@(0)^2 - x@(1)^2)" in out
    assert "(1): (-x@(1))/(x@(0)^2 - x@(1)^2)" in out


def test_decompose_json_output(capsys):
    code = main([
        "decompose",
        "--group", "2",
        "--parity", "0",
        "--even", "x@0,x@1",
        "--expr", "1/(x@(0)+x@(1))",
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["components"]) == {"(0)", "(1)"}


def test_decompose_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("x@(0) + x@(1)"))
    code = main(["decompose", "--group", "2", "--parity", "0", "--even", "x@0,x@1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(0): x@(0)" in out and "(1): x@(1)" in out


def test_act_flips_sign(capsys):
    code = main([
        "act",
        "--group", "2",
        "--parity", "0",
        "--even", "x@0,x@1",
        "--element", "1",
        "--expr", "x@(0) + x@(1)",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "x@(0) - x@(1)"


def test_lift_super_morphism(tmp_path, capsys):
    path = write_json(tmp_path, "psi.json", SUPER_MORPHISM)
    assert main(["lift", path]) == 0
    # each coordinate's copies in character order, the even coordinates first
    assert capsys.readouterr().out.splitlines() == [
        "y@(0) = (x@(0))/(x@(0)^2 - x@(2)^2)",
        "y@(2) = (-x@(2))/(x@(0)^2 - x@(2)^2)",
        "eta@(1) = (x@(0)*xi@(1) - x@(2)*xi@(3))/(x@(0)^2 - x@(2)^2)",
        "eta@(3) = (x@(0)*xi@(3) - x@(2)*xi@(1))/(x@(0)^2 - x@(2)^2)",
    ]


def test_lift_rejects_parity_violation(tmp_path, capsys):
    bad = dict(SUPER_MORPHISM, map={"y": "xi", "eta": "xi"})
    path = write_json(tmp_path, "bad.json", bad)
    assert main(["lift", path]) == 1
    assert "parity" in capsys.readouterr().err


def test_check_cocycle_passes_on_good_atlas(tmp_path, capsys):
    path = write_json(tmp_path, "cp1.json", CP1_ATLAS)
    assert main(["check-cocycle", path]) == 0
    assert "passed" in capsys.readouterr().out


def test_check_cocycle_fails_on_broken_atlas(tmp_path, capsys):
    path = write_json(tmp_path, "broken.json", BROKEN_ATLAS)
    assert main(["check-cocycle", path]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "1" in out and "2" in out  # offending pair named


def test_check_cocycle_json_report(tmp_path, capsys):
    path = write_json(tmp_path, "broken.json", BROKEN_ATLAS)
    assert main(["check-cocycle", path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert any(f["kind"] == "pair" for f in payload["failures"])


def test_malformed_atlas_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check-cocycle", str(path)]) == 2
    assert main(["check-cocycle", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_unknown_identifier_is_a_usage_error(capsys):
    code = main([
        "decompose",
        "--group", "2",
        "--parity", "0",
        "--even", "x@0,x@1",
        "--expr", "1/(x@(0)+z)",
    ])
    assert code == 2
    assert "z" in capsys.readouterr().err


def test_lift_atlas_round_trip(tmp_path, capsys):
    path = write_json(tmp_path, "cp1.json", CP1_ATLAS)
    out_path = tmp_path / "lifted.json"
    code = main([
        "lift-atlas", path, "--group", "2", "--parity", "0",
        "--json", "--output", str(out_path),
    ])
    assert code == 0
    lifted = json.loads(out_path.read_text(encoding="utf-8"))
    assert lifted["group"] == "2"
    assert lifted["charts"]["0"]["even"] == ["x@(0)", "x@(1)"]
    # the lifted atlas is itself a valid atlas file
    assert main(["check-cocycle", str(out_path)]) == 0
    capsys.readouterr()


def test_outputs_are_byte_stable(tmp_path, capsys):
    path = write_json(tmp_path, "cp1.json", CP1_ATLAS)
    runs = []
    for _ in range(2):
        assert main(["lift-atlas", path, "--group", "2", "--parity", "0", "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]

    for _ in range(2):
        assert main(["char-table", "--group", "2x3"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[2] == runs[3]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["decompose"])  # missing required --group
    assert err.value.code == 2


def run_main(argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``, a usage exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_a_command_line_is_read_once_and_as_the_top_level_parser_reads_it(tmp_path, monkeypatch):
    """``main`` parses a valid command line with its command's subparser
    alone, one ``parse_known_args`` call; on every shape, valid or not, it
    prints and exits as ``build_parser().parse_args`` made it do."""
    import argparse

    atlas = write_json(tmp_path, "atlas.json", CP1_ATLAS)
    morphism = write_json(tmp_path, "psi.json", SUPER_MORPHISM)
    decompose = ["decompose", "--group", "2", "--even", "x@0,x@1"]
    valid = [
        decompose + ["--expr", "(x@0 + 1)/(1 + x@1)"],
        decompose + ["--ex", "x@0 + x@1", "--json"],  # an abbreviated option
        decompose + ["--expr=--"],  # read as [], a syntax error
        ["char-table", "--group", "2x2"],
        ["act", "--group", "4", "--even", "x@0,x@1", "--element", "1", "--expr", "x@0 - x@1"],
        ["lift", morphism],
        ["lift-atlas", atlas, "--group", "3"],
        ["check-cocycle", atlas, "--json"],
    ]
    invalid = [
        decompose + ["--expr", "x@0", "--bogus"],
        decompose + ["--expr", "x@0", "extra"],
        decompose + ["-h"], decompose + ["--help"], ["-h"], ["--help"], ["lift", "-h"],
        [], ["unknown", "--group", "2"], ["decompose"], ["decompose", "--group"],
        ["lift"], ["lift", morphism, morphism], ["decompose", "--", "--group", "2"],
    ]
    reads = []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a: reads.append(self.prog) or parse_known_args(self, *a))
    for argv in valid + invalid:
        reads.clear()
        once = run_main(argv)
        if argv in valid:
            assert reads == [f"gradedcover {argv[0]}"], argv
            assert vars(parse(argv)) == vars(build_parser().parse_args(argv))
        monkeypatch.setattr(cli, "parse", lambda a: build_parser().parse_args(a))
        twice = run_main(argv)
        monkeypatch.setattr(cli, "parse", parse)
        assert once == twice, argv
        assert once[0] in ((0, 1, 2) if argv in valid else (0, 2)), argv


def test_decompose_with_rank_two_weights(capsys):
    code = main([
        "decompose",
        "--group", "2x2",
        "--parity", "11",
        "--even", "x@(0,0),y@(1,1)",
        "--expr", "x@(0,0)^3*y@(1,1) + y@(1,1)^2 + 1/2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "(0,0): y@(1,1)^2 + 1/2" in out
    assert "(1,1): x@(0,0)^3*y@(1,1)" in out


def test_lift_atlas_takes_grading_from_the_file(tmp_path, capsys):
    data = dict(CP1_ATLAS, group="2", parity="0")
    path = write_json(tmp_path, "cp1_graded.json", data)
    assert main(["lift-atlas", path]) == 0
    out = capsys.readouterr().out
    assert "y@(0) = (x@(0))/(x@(0)^2 - x@(1)^2)" in out


def test_malformed_weight_suffix_is_a_usage_error(capsys):
    code = main([
        "decompose", "--group", "2", "--parity", "0",
        "--even", "x@(1", "--expr", "1",
    ])
    assert code == 2
    assert "weight suffix" in capsys.readouterr().err


# a residue of 4,301 digits is more than the interpreter reads as an int
ONES = "1" * 4301


@pytest.mark.parametrize("argv, head, tail", [
    (["decompose", "--group", "2", "--even", "x@0", "--expr", f"x@({ONES})"],
     "syntax error: malformed weight suffix in 'x@(111", "; expected (k1,...,kt) (position 1)\n"),
    (["decompose", "--group", "2", "--even", f"x@({ONES})", "--expr", "1"],
     "error: malformed weight suffix in 'x@(111", "; expected (k1,...,kt)\n"),
    (["act", "--group", "2", "--even", "x@0", "--expr", "x@0", "--element", ONES],
     "error: malformed group element '111", "; expected (k1,...,kt)\n"),
], ids=["expr", "even", "element"])
def test_an_oversized_residue_is_not_echoed(argv, head, tail, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err) < 200 and err.startswith(head) and err.endswith(tail)


@pytest.mark.parametrize("expr, head, tail", [
    (f"zeta({NINES},1)", "syntax error: zeta order 999",
     "... (4300 characters) is above the bound 4096 (position 1)\n"),
    (f"(1+x@0)^{NINES}", "syntax error: power of 2 terms to the 999",
     "... (4300 characters) is above the size bound 500 (position 8)\n"),
    (f"(2*x@0)^{NINES}", "syntax error: coefficient of the power to the 999",
     "... (4300 characters) has more than 4300 digits (position 8)\n"),
    (f"(x@0 {NINES}", "syntax error: expected ')', found '999",
     "'... (4300 characters) (position 6)\n"),
    (f"x@0^q{NINES}", "syntax error: expected 'int', found 'q999",
     "'... (4301 characters) (position 5)\n"),
    (f"x@0 {NINES}", "syntax error: unexpected trailing input '999",
     "'... (4300 characters) (position 5)\n"),
], ids=["zeta-order", "power-size", "power-digits", "expected-paren", "expected-int",
        "trailing-input"])
def test_an_oversized_literal_is_not_echoed(expr, head, tail, capsys):
    assert main(["decompose", "--group", "2", "--even", "x@0", "--expr", expr]) == 2
    err = capsys.readouterr().err
    assert len(err) < 200 and err.startswith(head) and err.endswith(tail)


LONG_NAME = "y" * 5000


@pytest.mark.parametrize("argv, head, tail", [
    (["decompose", "--group", "2", "--even", "x@0", "--expr", LONG_NAME],
     "syntax error: unknown identifier 'yyy", "... (5000 characters) (position 1)\n"),
    (["decompose", "--group", "2", "--even", LONG_NAME, "--expr", "1"],
     "error: graded variable 'yyy", "... (5000 characters) needs a weight suffix like x@(0)\n"),
], ids=["unknown-identifier", "no-weight-suffix"])
def test_an_oversized_name_is_not_echoed(argv, head, tail, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err) < 200 and err.startswith(head) and err.endswith(tail)


@pytest.mark.parametrize(
    "text, code, group",
    [
        (" + ".join(["x@0"] * 5000), 0, "2"),
        ("-" * 1000 + "x@0", 0, "2"),
        ("(" * 3000 + "x@0" + ")" * 3000, 2, "2"),
        ("1/0 )", 2, "2"),
        ("zeta(100000000,1)", 2, "2"),
        ("zeta(4096,1)", 0, "2"),
        ("(1+x@0)^100000", 2, "2"),
        ("x@0^100000000", 0, "2"),
        # one root of a large order: building all N powers took 6.3 s and 4.7 s
        ("zeta(3003,3002)*x@0", 0, "2"),
        ("zeta(4095,4094)*x@0", 0, "2"),
        # an irrational denominator over a large group: multiplying its 63
        # twists in turn took 0.97 s over Z_64, the orbit tower 6 squarings
        ("1/(x@0+zeta(3,1)*x@1)", 0, "64"),
        ("1/(x@0+zeta(3,1)*x@1)", 0, "128"),
        # exact, but 2^999999 has more digits than the interpreter prints
        ("(2*x@0)^999999", 2, "2"),
        # each factor prints, their product 10^8000 would not
        ("(10*x@0)^4000*(10*x@0)^4000", 2, "2"),
        ("(10*x@0)^4000*(10^4000*x@0 + 1)", 2, "2"),
        # taking the whole power first took 6.6 s at the exponent 50
        ("(10^4000*x@0 + 1)^499", 2, "2"),
        # taking the whole power first took 16.7 s
        ("((1+zeta(5,1))*x@0)^10000000", 2, "2"),
        # each term prints, their sum does not
        ("9" * 4300 + " + " + "9" * 4300, 2, "2"),
        # a dense divisor at conductor 257: its inverse by Euclid over Q took 5.0 s
        ("x@0/(" + " + ".join(f"{j * j % 7 + 1}*zeta(257,{j})" for j in range(20)) + ")", 0, "2"),
        # each order is within its bound, the lcm of the orders is not: lifting
        # to it did not end, took 2.4 s and 562 MB, took 41 s
        ("zeta(4093,1)*zeta(4091,1)", 1, "2"),
        ("zeta(4096,1)+zeta(4093,1)", 1, "2"),
        ("zeta(1031,1)*zeta(1033,1)", 1, "2"),
        ("1/(zeta(4093,1)*x@0 + zeta(4091,1)*x@1)", 1, "2"),
        # single terms to a 4,300-digit power: a unit and a root of unity stay
        # small at each of 14,284 checked squarings, a rational passes the
        # bound within 14
        ("(-x@0)^" + NINES, 0, "2"),
        ("(i*x@0)^" + NINES, 0, "2"),
        ("((2/3)*x@0)^" + NINES, 2, "2"),
        # a root to a 4,300-digit power is the root at k*e mod N: 14,284
        # squarings took 6.6 s
        ("zeta(4096,5)^" + NINES, 0, "4"),
        # each power prints, their product's exponent 2*N does not
        ("x@0^" + NINES + "*x@0^" + NINES, 2, "2"),
        # argparse hands the value of --expr=-- over as [], not as "--"
        ("--", 2, "2"),
        # its norm predicts 11,238,513 monomials: it did not end within 120 s
        ("1/(" + " + ".join(Z2_6_UNITS) + ")", 1, "2x2x2x2x2x2"),
    ],
    ids=["flat-sum", "minus-chain", "deep-nesting", "syntax-before-division",
         "zeta-order-above-bound", "zeta-order-at-bound", "power-above-size-bound",
         "huge-power-of-one-term", "zeta-3003-high-power", "zeta-4095-high-power",
         "irrational-norm-over-z64", "irrational-norm-over-z128", "coefficient-above-print-limit",
         "product-above-print-limit", "multi-term-product-above-print-limit",
         "multi-term-power-above-print-limit", "irrational-power-above-print-limit",
         "sum-above-print-limit", "dense-irrational-divisor", "conductor-above-bound-product",
         "conductor-above-bound-sum", "conductor-above-bound-medium", "conductor-above-bound-norm",
         "unit-power-of-4300-digits", "root-power-of-4300-digits", "rational-power-of-4300-digits",
         "zeta-power-of-4300-digits", "exponent-above-print-limit", "double-minus",
         "norm-above-size-bound"],
)
def test_hostile_expressions_end_with_their_exit_code(text, code, group, capsys):
    rank = group.count("x") + 1
    even = "x@0,x@1" if rank == 1 else ",".join(Z2_6_UNITS)
    argv = ["decompose", "--group", group, "--parity", "0" * rank, "--even", even]
    start = time.perf_counter()
    assert main(argv + [f"--expr={text}"]) == code
    elapsed = time.perf_counter() - start
    assert "Traceback" not in capsys.readouterr().err
    assert elapsed < (1.0 if rank > 1 else 2.0), f"decompose of {text[:40]!r} took {elapsed:.2f}s"


def test_a_norm_past_its_size_bound_names_the_stage_and_the_sizes(monkeypatch, capsys):
    """1/(x_0 + ... + x_5) over Z_2^6 is refused before any product.  The
    denominator x@(0) + ... + x@(q-1) of lifted P^1/Z_q passes the gate at
    q = 12 (1,352,078 monomials) and not at q = 13 (5,200,300)."""
    argv = ["decompose", "--group", "2x2x2x2x2x2", "--parity", "000000",
            "--even", ",".join(Z2_6_UNITS), "--expr", "1/(" + " + ".join(Z2_6_UNITS) + ")"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: norming the denominator: 64 twists of 6 terms of degree 1 in 6 variables "
        "predict 11,238,513 monomials, above the bound 4,000,000\n")
    # 36 terms x_i^1001*x_j^1001 over Z_2^8: both counts pass 64 bits, and the
    # smaller prints as a power of two, not as digits past the interpreter's limit
    units = [f"x{j}@({','.join(str(int(i == j)) for i in range(8))})" for j in range(8)]
    den = " + ".join(f"{units[i]}^1001*{units[j]}^1001" for i in range(8) for j in range(i, 8))
    assert main(["decompose", "--group", "2x2x2x2x2x2x2x2", "--parity", "0" * 8,
                 "--even", ",".join(units), "--expr", f"1/({den})"]) == 1
    assert capsys.readouterr().err == (
        "error: norming the denominator: 128 twists of 36 terms of degree 2002 in 8 variables "
        "predict over 2^113 monomials, above the bound 4,000,000\n")

    class Packed(Exception):
        """The gate let the denominator through to its packing."""

    def pack(*args):
        raise Packed

    monkeypatch.setattr(algebra, "_pack", pack)
    for q, expected in ((12, Packed), (13, NormSizeError)):
        group = make_group([q])
        sig = GradedSignature(group, ParityMap.trivial(group),
                              even=[(f"x{k}", group.character((k,))) for k in range(q)])
        den = sum((SuperPolynomial.variable(sig, n) for n in sig.even), SuperPolynomial.zero(sig))
        with pytest.raises(expected):
            algebra._orbit_tower(sig, den)


def test_a_sparse_denominator_of_high_degree_passes_the_norm_gate(capsys):
    """A binomial D = 1 + m norms to 1 - m^s however many variables m holds:
    the gate counts the multisets of D's terms too, not only the monomials of
    degree s*deg D (64,512,240 for the 11 variables over Z_2, 26,294,360 for
    x*(y*z*w*u)^3 over Z_12)."""
    names = [f"{v}@(1)" for v in "abcdefghijk"]
    m = "*".join(names)
    assert main(["decompose", "--group", "2", "--parity", "0", "--even", ",".join(names),
                 "--expr", f"1/(1 + {m})"]) == 0
    norm = f"(-{'*'.join(v + '^2' for v in names)} + 1)"
    assert capsys.readouterr().out == f"(0): (1)/{norm}\n(1): (-{m})/{norm}\n"
    start = time.perf_counter()
    assert main(["decompose", "--group", "12", "--parity", "0", "--even", "x@1,y@0,z@0,w@0,u@0",
                 "--expr", "1/(1 + x@1*(y@0*z@0*w@0*u@0)^3)"]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert all(line.endswith("/(-x@(1)^12*y@(0)^36*z@(0)^36*w@(0)^36*u@(0)^36 + 1)")
               for line in lines)


def _soup_reads_no_stdin(soup):
    """Not "-" alone, which reads the expression from stdin."""
    return "".join(soup) != "-"


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(st.sampled_from(SOUP_TOKENS), max_size=12).filter(_soup_reads_no_stdin))
def test_token_soup_ends_with_an_exit_code_and_a_short_message(soup):
    argv = ["decompose", "--group", "4", "--parity", "1", "--even", "x@0,y@2",
            "--odd", "s@1,t@3", "--expr=" + "".join(soup)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and len(err.getvalue().encode()) < 200, err.getvalue()
    assert elapsed < 2.0, f"decompose of {soup!r} took {elapsed:.2f}s"


def test_a_sum_past_the_printable_digits_is_a_short_syntax_error(capsys):
    nines = "9" * 4300
    argv = ["decompose", "--group", "2", "--even", "x@0", "--expr", f"{nines} + {nines}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200 and err.startswith("syntax error: coefficient of the sum")


@pytest.mark.parametrize("expr, position", [
    ("({n} + {n})/(x@0 + 1)", 4303),  # not 8612, the + of x@0 + 1
    ("x@0 + 1 + ({n} + {n})*x@0", 4313),  # not 9, the last + of the text
])
def test_a_sum_past_the_printable_digits_is_refused_at_its_own_operator(expr, position, capsys):
    argv = ["decompose", "--group", "2", "--even", "x@0", "--expr", expr.format(n="9" * 4300)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("syntax error: coefficient of the sum has more than 4300 digits "
                   f"(position {position})\n")


@pytest.mark.parametrize("command", ["decompose", "lift"])
def test_a_norm_past_the_printable_digits_fails_as_it_prints(command, tmp_path, capsys):
    """Each literal parses, but the norm (N + x)(N - x) of a 4,000-digit N
    has an 8,000-digit coefficient: the failure names printing and the bound."""
    expr = f"1/({'9' * 4000} + x@1)"
    if command == "decompose":
        argv = ["decompose", "--group", "2", "--parity", "0", "--even", "x@0,x@1", "--expr", expr]
    else:
        argv = ["lift", write_json(tmp_path, "big.json", {
            "group": "2", "source": {"even": ["x"]}, "target": {"even": ["y"]},
            "map": {"y": expr.replace("x@1", "x")}})]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: printing the result: a coefficient has more than 4300 digits\n"


def test_an_exponent_past_the_printable_digits_fails_as_it_prints(capsys):
    argv = ["decompose", "--group", "2", "--parity", "0", "--even", "x@0",
            "--expr", f"x@0^{NINES}*x@0^{NINES}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: printing the result: an exponent has more than 4300 digits\n"


@pytest.mark.parametrize("order", ["3", "4", "5", "6", "7", "8"])
def test_lifted_projective_line_checks_within_its_budget(order, tmp_path, capsys):
    # composing the lifted transitions directly takes 0.65 s over Z_4 and minutes
    # over Z_5 on a 2-core VM
    source = write_json(tmp_path, "cp1.json", CP1_ATLAS)
    lifted = str(tmp_path / "lifted.json")
    assert main(["lift-atlas", source, "--group", order, "--json", "--output", lifted]) == 0
    start = time.perf_counter()
    code = main(["check-cocycle", lifted, "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert elapsed < 2.0, f"check-cocycle of lifted P^1 over Z_{order} took {elapsed:.2f}s"


def test_lift_of_the_projective_line_over_z8_within_its_budget(tmp_path, capsys):
    # norming each twist over Q(zeta_8) in turn took 1.17 s on a 2-core VM;
    # the rational orbit tower takes about 0.3 s
    source = write_json(tmp_path, "cp1.json", CP1_ATLAS)
    start = time.perf_counter()
    code = main(["lift-atlas", source, "--group", "8", "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "zeta" not in capsys.readouterr().out
    assert elapsed < 1.0, f"lift-atlas of P^1 over Z_8 took {elapsed:.2f}s"


def in_process(argv, stdin, cwd, timeout):
    """``cli.main`` in this process, run in ``cwd``; ``timeout`` bounds the
    console script's runs alone."""
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pins(tmp_path_factory):
    return cli_pins.Runner(in_process, tmp_path_factory.mktemp("cli-pins"))


@pytest.mark.parametrize("row_id", cli_pins.ROWS)
def test_pinned_cli_row(row_id, pins):
    assert pins.problems(row_id) == [], cli_pins.ROWS[row_id].why


def test_the_runner_reports_each_kind_of_miss(tmp_path):
    def wrong(argv, stdin, cwd, timeout):
        return 0, "moved\n", "Traceback"

    runner = cli_pins.Runner(wrong, tmp_path)
    assert runner.problems("nested-json") == [
        "exit 0, not 2; stderr: Traceback", "stderr holds 'Traceback' 1 times, not 0"]
    assert runner.problems("zero-residual")[1:] == ["stdout holds ' = 0\\n' 0 times, not 2"]
    assert runner.problems("z7")[0].startswith("output differs from the pin")
    assert runner.problems("p2-z5-json") == ["wrote no lifted-p2.json"]


def test_the_workflow_calls_the_console_script_only_through_the_table():
    """CI runs the table's rows through the installed script; a call written
    into the workflow itself would be a pin that tier-1 does not run."""
    workflow = (Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text()
    assert re.findall(r"^.*\bgradedcover\b.*$", workflow, re.M) == []
    assert re.search(r"^\s+run: python tests/cli_pins\.py$", workflow, re.M)


MISSING_KEYS = ("group", "source", "target", "map")  # of a morphism file

MALFORMED_SHAPES = [  # (command, payload, the key the error must name)
    ("check-cocycle", [CP1_ATLAS], "the top level"),
    ("check-cocycle", dict(CP1_ATLAS, charts={"0": ["x"], "1": {"even": ["y"]}}), "charts.0"),
    ("check-cocycle", dict(CP1_ATLAS, transitions={"0->1": "1/x"}), "transitions.0->1"),
    ("check-cocycle", dict(CP1_ATLAS, transitions={"0->1": {"y": 5}}), "transitions.0->1.y"),
    ("check-cocycle",
     dict(CP1_ATLAS, charts={"0": {"even": "xy"}, "1": {"even": ["y"]}}), "charts.0.even"),
    ("lift", [SUPER_MORPHISM], "the top level"),
    ("lift", dict(SUPER_MORPHISM, source=["x"]), "source"),
    ("lift", dict(SUPER_MORPHISM, map="1/x"), "map"),
    ("lift", dict(SUPER_MORPHISM, map={"y": 5, "eta": "xi/x"}), "map.y"),
    ("lift", dict(SUPER_MORPHISM, source={"even": "xy", "odd": ["xi"]}), "source.even"),
    *(("lift", {k: v for k, v in SUPER_MORPHISM.items() if k != key}, key) for key in MISSING_KEYS),
]
# a missing key's row is told apart from the row whose value has the wrong type
SHAPE_IDS = [f"{c}:{k}" for c, _, k in MALFORMED_SHAPES[:-len(MISSING_KEYS)]] + [
    f"lift:no {k}" for k in MISSING_KEYS
]


@pytest.mark.parametrize(
    "command, payload, key", MALFORMED_SHAPES, ids=SHAPE_IDS
)
def test_malformed_json_shapes_name_the_key(command, payload, key, tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", payload)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{key} must be" in err


def test_parser_is_reused_without_leaking_options(tmp_path, capsys):
    decompose = ["decompose", "--group", "2", "--parity", "0", "--even", "x@0,x@1",
                 "--expr", "1/(x@(0)+x@(1))"]
    assert main(decompose) == 0
    first = capsys.readouterr().out

    atlas = write_json(tmp_path, "cp1.json", CP1_ATLAS)
    lifted = tmp_path / "lifted.json"
    assert main(["lift-atlas", atlas, "--group", "2", "--parity", "0", "--json",
                 "--output", str(lifted)]) == 0
    written = lifted.read_text(encoding="utf-8")
    assert capsys.readouterr().out == ""

    with pytest.raises(SystemExit) as err:
        main(["decompose", "--group", "2", "--expr", "x@0", "--no-such-flag"])
    assert err.value.code == 2
    capsys.readouterr()

    assert main(decompose) == 0
    assert capsys.readouterr().out == first  # not JSON, not redirected to a file
    assert lifted.read_text(encoding="utf-8") == written
    assert build_parser() is build_parser()
    args = build_parser().parse_args(decompose)
    assert (args.output, args.json, args.odd) == (None, False, None)


def test_loaded_lift_images_share_one_denominator(tmp_path, capsys, monkeypatch):
    source = write_json(tmp_path, "cp1.json", CP1_ATLAS)
    lifted = tmp_path / "lifted.json"
    assert main(["lift-atlas", source, "--group", "4", "--json", "--output", str(lifted)]) == 0
    data = json.loads(lifted.read_text(encoding="utf-8"))
    atlas, group, parity = load_atlas(data)
    for morphism in atlas.transitions.values():
        dens = [img.denominator for img in morphism.images.values()]
        assert len(dens) == 4 and len(dens[0].terms) > 1
        assert all(den is dens[0] for den in dens)
    # printing is unchanged, and a graded morphism weighs the shared one once
    assert dump_atlas(atlas, group, parity) == data
    weighed = []
    termwise_weight = SuperPolynomial.termwise_weight
    monkeypatch.setattr(SuperPolynomial, "termwise_weight",
                        lambda self: weighed.append(self) or termwise_weight(self))
    m = atlas.transitions[("0", "1")]
    GradedMorphism(m.source, m.target, m.images)
    assert len(weighed) == 1  # the shared denominator only
    capsys.readouterr()


def test_lift_file_without_parity_lifts_with_zero_bits(tmp_path, capsys):
    even = {"group": "3", "source": {"even": ["x"]}, "target": {"even": ["y"]},
            "map": {"y": "1/x"}}
    outs = []
    for data in (even, dict(even, parity="0"), dict(even, parity=""), dict(even, parity=" "),
                 dict(even, parity=None)):
        assert main(["lift", write_json(tmp_path, "psi.json", data), "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [outs[0]] * 5
    # odd coordinates have no odd-parity copies under zero bits, as with "parity": "0"
    odd = {k: v for k, v in SUPER_MORPHISM.items() if k != "parity"}
    assert main(["lift", write_json(tmp_path, "odd.json", odd)]) == 1
    assert "no odd-parity weights" in capsys.readouterr().err


def test_an_atlas_file_with_an_empty_parity_lifts_with_zero_bits(tmp_path, capsys):
    outs = []
    for data in (dict(CP1_ATLAS, group="3"), dict(CP1_ATLAS, group="3", parity=""),
                 dict(CP1_ATLAS, group="3", parity=None)):
        assert main(["lift-atlas", write_json(tmp_path, "atlas.json", data), "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [outs[0]] * 3
    # a null parity is checked as an absent one
    for data in (dict(CP1_ATLAS, group="3"), dict(CP1_ATLAS, group="3", parity=None)):
        assert main(["check-cocycle", write_json(tmp_path, "atlas.json", data)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[3] == outs[4]


@pytest.mark.parametrize("argv, bits", [
    (["decompose", "--group", "2", "--even", "x@0,y@1", "--expr", "x@0 + 1/y@1"], "0"),
    (["act", "--group", "4", "--even", "x@0,y@1", "--expr", "x@0 + y@1", "--element", "1"], "0"),
    (["lift-atlas", "{cp1}", "--group", "3"], "0"),
    (["lift-atlas", "{super}"], "1"),  # the file's own parity
], ids=["decompose", "act", "lift-atlas", "lift-atlas-file-parity"])
def test_a_blank_parity_flag_reads_as_no_flag(argv, bits, tmp_path, capsys):
    paths = {"cp1": write_json(tmp_path, "cp1.json", CP1_ATLAS),
             "super": write_json(tmp_path, "super.json", dict(SUPER_ATLAS, group="4", parity="1"))}
    argv = [arg.format(**paths) for arg in argv]
    outs = []
    for flag in ([], ["--parity", ""], ["--parity", " "], ["--parity", bits]):
        assert main(argv + flag) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [outs[0]] * 4


ACT_Z4 = ["act", "--group", "4", "--even", "x@0,y@1", "--expr", "x@0 + y@1"]
ACT_KLEIN = ["act", "--group", "2x2", "--even", "x@(0,0),y@(1,1)", "--expr", "x@(0,0) + y@(1,1)"]


@pytest.mark.parametrize("argv, element, out", [
    (ACT_Z4, "1", "x@(0) + i*y@(1)"),
    (ACT_KLEIN, "1,0", "x@(0,0) - y@(1,1)"),
    (ACT_KLEIN, "(1,0)", "x@(0,0) - y@(1,1)"),
    (ACT_KLEIN, " ( 1 , 0 ) ", "x@(0,0) - y@(1,1)"),
    # these three were read as element 1 over Z_4
    (ACT_Z4, "((1", None), (ACT_Z4, "1)", None), (ACT_Z4, "(1", None),
    (ACT_Z4, "()", None), (ACT_KLEIN, "1;0", None),
    (ACT_Z4, "-1", "x@(0) - i*y@(1)"),  # an element reads a negative residue; a name may not
])
def test_act_element_text(argv, element, out, capsys):
    assert main(argv + ["--element", element]) == (0 if out else 2)
    stdout, err = capsys.readouterr()
    if out:
        assert stdout == out + "\n"
    else:
        assert f"malformed group element {element!r}" in err


LIFTED_P1_Z3 = [
    "[0->1]",
    "  y@(0) = (x@(0)^2 - x@(1)*x@(2))/(x@(0)^3 - 3*x@(0)*x@(1)*x@(2) + x@(1)^3 + x@(2)^3)",
    "  y@(1) = (-x@(0)*x@(1) + x@(2)^2)/(x@(0)^3 - 3*x@(0)*x@(1)*x@(2) + x@(1)^3 + x@(2)^3)",
    "  y@(2) = (-x@(0)*x@(2) + x@(1)^2)/(x@(0)^3 - 3*x@(0)*x@(1)*x@(2) + x@(1)^3 + x@(2)^3)",
    "[1->0]",
    "  x@(0) = (y@(0)^2 - y@(1)*y@(2))/(y@(0)^3 - 3*y@(0)*y@(1)*y@(2) + y@(1)^3 + y@(2)^3)",
    "  x@(1) = (-y@(0)*y@(1) + y@(2)^2)/(y@(0)^3 - 3*y@(0)*y@(1)*y@(2) + y@(1)^3 + y@(2)^3)",
    "  x@(2) = (-y@(0)*y@(2) + y@(1)^2)/(y@(0)^3 - 3*y@(0)*y@(1)*y@(2) + y@(1)^3 + y@(2)^3)",
]

LIFTED_P11_Z4 = [
    "[0->1]",
    "  eta@(1) = (x@(0)*xi@(1) - x@(2)*xi@(3))/(x@(0)^2 - x@(2)^2)",
    "  eta@(3) = (x@(0)*xi@(3) - x@(2)*xi@(1))/(x@(0)^2 - x@(2)^2)",
    "  y@(0) = (x@(0))/(x@(0)^2 - x@(2)^2)",
    "  y@(2) = (-x@(2))/(x@(0)^2 - x@(2)^2)",
    "[1->0]",
    "  x@(0) = (y@(0))/(y@(0)^2 - y@(2)^2)",
    "  x@(2) = (-y@(2))/(y@(0)^2 - y@(2)^2)",
    "  xi@(1) = (y@(0)*eta@(1) - y@(2)*eta@(3))/(y@(0)^2 - y@(2)^2)",
    "  xi@(3) = (y@(0)*eta@(3) - y@(2)*eta@(1))/(y@(0)^2 - y@(2)^2)",
]

PASSED = "cocycle check passed (identities checked as formal rational identities, ignoring overlap domains)"
DECOMPOSE_Z3 = ["decompose", "--group", "3", "--even", "x@0,y@1,z@2", "--expr"]


@pytest.mark.parametrize("argv, lines", [
    (["lift-atlas", "{cp1}", "--group", "3"], LIFTED_P1_Z3),
    (["lift-atlas", "{super}", "--group", "4", "--parity", "1"], LIFTED_P11_Z4),
    (DECOMPOSE_Z3 + ["1/(x@0+y@1) + z@2"], [
        "(0): (x@(0)^2)/(x@(0)^3 + y@(1)^3)",
        "(1): (-x@(0)*y@(1))/(x@(0)^3 + y@(1)^3)",
        "(2): (x@(0)^3*z@(2) + y@(1)^3*z@(2) + y@(1)^2)/(x@(0)^3 + y@(1)^3)",
    ]),
    # a homogeneous denominator shifts the numerator's weights, then they are re-sorted
    (DECOMPOSE_Z3 + ["(1 + y@1 + z@2)/y@1"],
     ["(0): (y@(1))/(y@(1))", "(1): (z@(2))/(y@(1))", "(2): (1)/(y@(1))"]),
    (DECOMPOSE_Z3 + ["x@0 - x@0"], ["0"]),
    (["act", "--group", "4", "--even", "x@0,y@1", "--element", "(1)", "--expr",
      "x@0+y@1^2/x@0", "--json"], ["{", '  "result": "(x@(0)^2 - y@(1)^2)/(x@(0))"', "}"]),
    (["check-cocycle", "{cp1}"], [PASSED]),
    (["check-cocycle", "{cp1}", "--json"],
     ["{", '  "failures": [],', '  "note": "' + PASSED[22:-1] + '",', '  "ok": true', "}"]),
], ids=["lift-atlas-p1-z3", "lift-atlas-p11-z4", "decompose-three", "decompose-shifted",
        "decompose-zero", "act-json", "check-cocycle", "check-cocycle-json"])
def test_text_outputs_are_pinned(argv, lines, tmp_path, capsys):
    paths = {"cp1": write_json(tmp_path, "cp1.json", CP1_ATLAS),
             "super": write_json(tmp_path, "super.json", SUPER_ATLAS)}
    assert main([arg.format(**paths) for arg in argv]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_broken_lifted_atlas_text_report_is_pinned(tmp_path, capsys):
    lifted = tmp_path / "lifted.json"
    assert main(["lift-atlas", write_json(tmp_path, "cp1.json", CP1_ATLAS), "--group", "3",
                 "--json", "--output", str(lifted)]) == 0
    data = json.loads(lifted.read_text(encoding="utf-8"))
    images = data["transitions"]["1->0"]
    images["x@(0)"] = f"({images['x@(0)']}) + 1"
    assert main(["check-cocycle", write_json(tmp_path, "broken.json", data)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("cocycle check FAILED")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "abe5da1be19d4c6f9202e4e3878b88eb7283b0df3cdc1e09dc37e51583c06f24"
    )


ZERO_RESIDUAL_ATLAS = {  # v's image is zero, so each round trip sends an odd coordinate to 0
    "charts": {"0": {"even": ["x"], "odd": ["u"]}, "1": {"even": ["y"], "odd": ["v"]}},
    "transitions": {"0->1": {"y": "1/x", "v": "u*x - u*x"}, "1->0": {"x": "1/y", "u": "v*y"}},
}


def test_a_zero_residual_prints_as_zero(tmp_path, capsys):
    """On 0->1->0, u's image is 0 over the denominator x that 1/x brought:
    it prints as 0, as v's does on 1->0->1, in the text and the JSON report."""
    path = write_json(tmp_path, "zero.json", ZERO_RESIDUAL_ATLAS)
    assert main(["check-cocycle", path]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  pair on (0->1): round trip is not the identity",
        "    u = 0",
        "  pair on (1->0): round trip is not the identity",
        "    v = 0",
    ]
    assert main(["check-cocycle", path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(f["charts"], f["residual"]) for f in report["failures"]] == [
        (["0", "1"], {"u": "0"}), (["1", "0"], {"v": "0"})]


def test_text_lift_atlas_formats_each_image_once(tmp_path, capsys, monkeypatch):
    calls = []
    format_expression = cli.format_expression
    monkeypatch.setattr(cli, "format_expression",
                        lambda f, texts=None: calls.append(f) or format_expression(f, texts))
    path = write_json(tmp_path, "super.json", SUPER_ATLAS)
    assert main(["lift-atlas", path, "--group", "4", "--parity", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == LIFTED_P11_Z4
    assert len(calls) == 8  # two transitions of four images each


def with_transitions(**transitions):
    return dict(CP1_ATLAS, transitions=dict(CP1_ATLAS["transitions"], **transitions))


DECOMPOSE_Z2 = ["decompose", "--group", "2", "--even", "x@0"]

# (argv, the atlas file its "FILE" names or None, a fragment of the message)
USAGE_ERRORS = [
    (["check-cocycle", "FILE"], with_transitions(**{"01": {"y": "1/x"}}),
     "transition key '01' is not of the form 'src->dst'"),
    (["check-cocycle", "FILE"], with_transitions(**{"0->2": {"y": "1/x"}}),
     "transition '0->2' names an unknown chart"),
    (["lift-atlas", "FILE"], CP1_ATLAS, "no group given on the command line or in the atlas file"),
    (["decompose", "--group", "2", "--even", "x@0,y", "--expr", "1"], None,
     "graded variable 'y' needs a weight suffix"),
    (["check-cocycle", "FILE"], dict(CP1_ATLAS, charts={"0": {"even": ["x@0"]}, "1": {"even": ["y"]}}),
     "weighted variable names need a group and a parity map"),
    ([*DECOMPOSE_Z2, "--expr", "zeta(0,1)*x@0"], None, "zeta needs a positive order (position 1)"),
    (["check-cocycle", "FILE"], with_transitions(**{"0 -> 1": {"y": "1/x"}}),
     "transition keys '0->1' and '0 -> 1' name one transition"),
    (["check-cocycle", "FILE"],
     dict(CP1_ATLAS, group="2", charts={"0": {"even": ["x@0", "x@1"]}, "1": {"even": ["y@0"]}},
          transitions={"0->0": {"x@1": "x@1", "x@0": "x@0", "x@(1)": "x@(1)"}}),
     "transitions.0->0: keys 'x@1' and 'x@(1)' name one variable"),
    # "i" and "zeta" read as numbers: a variable so named would not read back
    (["lift", "FILE"], {"group": "2", "source": {"even": ["i"]}, "target": {"even": ["y"]},
                        "map": {"y": "i"}}, "variable name 'i'"),
    (["lift-atlas", "FILE", "--group", "2"], dict(CP1_ATLAS, charts={
        "0": {"even": ["i"]}, "1": {"even": ["y"]}}, transitions={
        "0->1": {"y": "1/i"}, "1->0": {"i": "1/y"}}), "variable name 'i'"),
    (["lift-atlas", "FILE", "--group", "2"], dict(CP1_ATLAS, charts={
        "0": {"even": ["zeta"]}, "1": {"even": ["y"]}}), "variable name 'zeta'"),
    # no expression reads a negative residue back
    (["decompose", "--group", "4", "--even", "x@(-2)", "--expr", "1"], None,
     "malformed weight suffix in 'x@(-2)'; expected (k1,...,kt)"),
    (["check-cocycle", "FILE"], dict(CP1_ATLAS, group="4", charts={
        "0": {"even": ["x@(-2)"]}, "1": {"even": ["y"]}}), "malformed weight suffix in 'x@(-2)'"),
]


@pytest.mark.parametrize("argv, atlas, message", USAGE_ERRORS, ids=[
    "transition-key-form", "unknown-chart", "no-group", "no-weight-suffix",
    "weights-without-group", "zeta-order-zero", "two-spellings-of-a-transition",
    "two-spellings-of-a-variable", "imaginary-unit-name", "imaginary-unit-chart",
    "zeta-chart", "negative-residue-flag", "negative-residue-chart"])
def test_usage_errors_exit_2_with_their_message(argv, atlas, message, tmp_path, capsys):
    if atlas is not None:
        argv = [write_json(tmp_path, "atlas.json", atlas) if a == "FILE" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert message in captured.err


def test_a_self_transition_other_than_the_identity_fails(tmp_path, capsys):
    for image, code in (("x", 0), ("x + 1", 1)):
        path = write_json(tmp_path, "self.json", with_transitions(**{"0->0": {"x": image}}))
        assert main(["check-cocycle", path]) == code
        assert main(["lift-atlas", path, "--group", "2"]) == code
        captured = capsys.readouterr()
        if code:
            assert "self on (0): self-transition is not the identity\n    x = x + 1" in captured.out
            assert "input atlas fails the cocycle check" in captured.err


NESTED_CHARTS = '{"charts": ' + "[" * 1200 + "]" * 1200 + "}"  # past the decoder's recursion


@pytest.mark.parametrize("command", ["check-cocycle", "lift-atlas", "lift"])
def test_deeply_nested_json_is_a_usage_error(command, tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(NESTED_CHARTS, encoding="utf-8")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and len(captured.err.encode()) < 200
    assert captured.err.endswith(" nests its JSON too deeply to read\n")


LONG_LITERAL = '{"group": ' + "1" * 5000 + ', "charts": {}}'  # past the int-to-text limit


@pytest.mark.parametrize("command", ["check-cocycle", "lift-atlas", "lift"])
def test_a_long_integer_literal_in_a_file_is_a_usage_error(command, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(LONG_LITERAL, encoding="utf-8")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "set_int_max_str_digits" not in captured.err
    assert captured.err == (f"error: {_quoted(str(path))} holds an integer literal of 5,000 "
                            "digits, above the bound 4,300\n")


@pytest.mark.parametrize("command, payload, code, message", [
    ("check-cocycle", with_transitions(**{"0->1": {"y": "1/(x-x)"}}), 1,
     "error: transitions.0->1.y: even part of the numerator is zero; the function is not "
     "invertible\n"),
    ("check-cocycle", with_transitions(**{"1->0": {"x": "1/y )"}}), 2,
     "syntax error: transitions.1->0.x: unexpected trailing input ')' (position 5)\n"),
    ("lift", dict(SUPER_MORPHISM, map={"y": "1/(x - x)", "eta": "xi/x"}), 1,
     "error: map.y: even part of the numerator is zero; the function is not invertible\n"),
    ("lift", dict(SUPER_MORPHISM, map={"y": "1/x", "eta": "xi/x $"}), 2,
     "syntax error: map.eta: unexpected character '$' (position 6)\n"),
    ("lift", dict(SUPER_MORPHISM, map={"y": "1/x", "eta": "w + 1/0"}), 2,
     "syntax error: map.eta: unknown identifier 'w' (position 1)\n"),
])
def test_an_image_that_fails_to_read_names_its_key(command, payload, code, message, tmp_path,
                                                   capsys):
    assert main([command, write_json(tmp_path, "bad.json", payload)]) == code
    assert capsys.readouterr().err == message


def test_an_image_syntax_error_keeps_its_position_within_the_image():
    with pytest.raises(ExprSyntaxError) as err:
        load_atlas(with_transitions(**{"1->0": {"x": "1/y )"}}))
    assert err.value.position == 5 and str(err.value).startswith("transitions.1->0.x: ")


# -- atlas and morphism files of every malformed shape -------------------------

FILE_NAMES = st.sampled_from(["x", "y", "xi", "eta", "x@0", "x@(1)", "y@1", "x@(0,1)", "s@1", ""])
FILE_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                      st.floats(allow_nan=False, width=16), st.just([]), st.just({}),
                      st.just("x"))
FILE_IMAGES = st.sampled_from(["1/x", "x", "y", "1/y", "x + 1", "xi/x", "eta/y", "1/(x - x)",
                               "1/x )", "zeta(3,1)*x@0", "x@0", "1/x@0", "x@1 $", "w"])
FILE_GROUPS = st.one_of(st.sampled_from(["2", "3", "4", "2x2", "", "0", "x", "99999999999",
                                         "2x" * 40 + "2", "65536x65536", "1" * 5000]),
                        st.integers(-2, 5), FILE_JUNK)
FILE_PARITIES = st.one_of(st.sampled_from(["0", "1", "00", "11", "2", "0" * 5000]), FILE_JUNK)
FILE_CHARTS = st.one_of(FILE_JUNK, st.fixed_dictionaries({}, optional={
    key: st.one_of(FILE_JUNK, st.lists(FILE_NAMES, max_size=3)) for key in ("even", "odd")}))
FILE_MAPS = st.one_of(FILE_JUNK, st.dictionaries(FILE_NAMES, st.one_of(FILE_IMAGES, FILE_JUNK),
                                                 max_size=3))
FILE_GRADING = {"group": FILE_GROUPS, "parity": FILE_PARITIES}
ATLAS_FILES = st.fixed_dictionaries({}, optional={
    **FILE_GRADING,
    "charts": st.one_of(FILE_JUNK, st.dictionaries(st.sampled_from(["0", "1", "2"]), FILE_CHARTS,
                                                   max_size=3)),
    "transitions": st.one_of(FILE_JUNK, st.dictionaries(
        st.sampled_from(["0->1", "1->0", "0->0", "0->2", "1 -> 0", "01"]), FILE_MAPS,
        max_size=3)),
})
MORPHISM_FILES = st.fixed_dictionaries({}, optional={
    **FILE_GRADING, "source": FILE_CHARTS, "target": FILE_CHARTS, "map": FILE_MAPS})
DEEP_TEXTS = st.builds(  # nesting thousands deep, of arrays or of objects
    lambda key, depth, shape: f'{{"{key}": {shape[0] * depth}{shape[1]}{shape[2] * depth}}}',
    st.sampled_from(["charts", "transitions", "map", "group"]), st.integers(1000, 5000),
    st.sampled_from([("[", "", "]"), ('{"a": ', "0", "}")]))
FILE_MESSAGE_BYTES = 300  # every key and name drawn above is short


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=st.one_of(
    st.tuples(st.sampled_from(["check-cocycle", "lift-atlas"]), ATLAS_FILES.map(json.dumps)),
    st.tuples(st.just("lift"), MORPHISM_FILES.map(json.dumps)),
    st.tuples(st.sampled_from(["check-cocycle", "lift-atlas", "lift"]), DEEP_TEXTS),
))
@example(case=("check-cocycle", NESTED_CHARTS))
@example(case=("check-cocycle", LONG_LITERAL))
@example(case=("lift-atlas", json.dumps({"group": "1" * 5000, "charts": {}})))
@example(case=("lift", json.dumps({"group": "2", "parity": "2" * 5000})))
def test_any_atlas_or_morphism_file_ends_with_an_exit_code_and_a_short_message(
        case, tmp_path_factory):
    command, text = case
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "set_int_max_str_digits" not in err.getvalue()
    assert len(err.getvalue().encode()) < FILE_MESSAGE_BYTES, err.getvalue()
    assert elapsed < 2.0, f"{command} of {text[:200]!r} took {elapsed:.2f}s"
