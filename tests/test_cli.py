"""Command dispatch, output shapes, and the exit-code contract.

Every fixed command line checked here is a row of ``cli_pins.py``: each such
case names its rows, and ``pins``, one runner for the module, runs each row
once in-process, under its budget.  The tests that call ``main`` themselves
patch it, draw their inputs, or inspect the objects a call builds.
"""

import ast
import contextlib
import io
import itertools
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
from gradedcover.errors import ExprSyntaxError, NormSizeError
import cli_pins
from conftest import (CP1_ATLAS, LONG_LITERAL, NESTED_CHARTS, SOUP_TOKENS, SUPER_ATLAS,
                      SUPER_MORPHISM, Z2_6_UNITS, with_transitions)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def passes(pins, *row_ids):
    """Each row of the table passes, as ``pins`` ran it."""
    assert {row_id: pins.problems(row_id) for row_id in row_ids} == dict.fromkeys(row_ids, [])


def cases(rows: dict):
    """Parametrize ``row_ids`` by case id, each case the row or rows it runs."""
    return pytest.mark.parametrize(
        "row_ids", [(ids,) if isinstance(ids, str) else ids for ids in rows.values()], ids=list(rows))


def test_char_table_klein(pins):
    passes(pins, "char-table-klein")


def test_char_table_z4_uses_i(pins):
    passes(pins, "char-table-z4")


@cases({"8-table0": "char-table-z8", "2x3-table1": "char-table-2x3"})
def test_char_table_text_is_pinned(row_ids, pins):
    passes(pins, *row_ids)


def test_char_table_json(pins):
    passes(pins, "char-table-json")


def test_char_table_order_is_bounded(pins):
    """A table above order 256 is refused within 1 s, before any cell is
    built; one of order 256 prints."""
    passes(pins, "char-table-bound", "char-table-256")


def test_decompose_reciprocal_sum(pins):
    passes(pins, "decompose-reciprocal")


def test_decompose_json_output(pins):
    passes(pins, "decompose-reciprocal-json")


def test_decompose_reads_stdin(pins):
    passes(pins, "decompose-stdin")


def test_act_flips_sign(pins):
    passes(pins, "act-flips-sign")


def test_lift_super_morphism(pins):
    passes(pins, "lift-super")


def test_lift_rejects_parity_violation(pins):
    passes(pins, "lift-parity-violation")


def test_check_cocycle_passes_on_good_atlas(pins):
    passes(pins, "check-p1")


def test_check_cocycle_fails_on_broken_atlas(pins):
    passes(pins, "check-broken")


def test_check_cocycle_json_report(pins):
    passes(pins, "check-broken-json")


def test_malformed_atlas_file_is_a_usage_error(pins):
    passes(pins, "garbage-json", "missing-file")


def test_unknown_identifier_is_a_usage_error(pins):
    passes(pins, "unknown-identifier")


def test_lift_atlas_round_trip(pins):
    passes(pins, "p1-z2-json", "p1-z2-check")


def test_outputs_are_byte_stable(pins):
    passes(pins, "p1-z2-stdout", "char-table-2x3-again")


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


def test_decompose_with_rank_two_weights(pins):
    passes(pins, "decompose-rank-two")


def test_lift_atlas_takes_grading_from_the_file(pins):
    passes(pins, "p1-z2-file-grading")


def test_malformed_weight_suffix_is_a_usage_error(pins):
    passes(pins, "malformed-weight-suffix")


@cases({case: f"oversized-residue-{case}" for case in ("expr", "even", "element")})
def test_an_oversized_residue_is_not_echoed(row_ids, pins):
    passes(pins, *row_ids)


@cases({case: f"oversized-literal-{case}" for case in (
    "zeta-order", "power-size", "power-digits", "expected-paren", "expected-int", "trailing-input")})
def test_an_oversized_literal_is_not_echoed(row_ids, pins):
    passes(pins, *row_ids)


@cases({case: f"oversized-name-{case}" for case in ("unknown-identifier", "no-weight-suffix")})
def test_an_oversized_name_is_not_echoed(row_ids, pins):
    passes(pins, *row_ids)


@cases({case: f"hostile-{case}" for case in cli_pins.HOSTILE})
def test_hostile_expressions_end_with_their_exit_code(row_ids, pins):
    passes(pins, *row_ids)


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


def test_a_sparse_denominator_of_high_degree_passes_the_norm_gate(pins):
    passes(pins, "sparse-binomial-z2", "sparse-binomial-z12")


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


def test_a_sum_past_the_printable_digits_is_a_short_syntax_error(pins):
    passes(pins, "sum-digits")


@cases({"({n} + {n})/(x@0 + 1)-4303": "sum-digits-in-a-quotient",
        "x@0 + 1 + ({n} + {n})*x@0-4313": "sum-digits-in-a-product"})
def test_a_sum_past_the_printable_digits_is_refused_at_its_own_operator(row_ids, pins):
    passes(pins, *row_ids)


@cases({"decompose": "norm-digits", "lift": "norm-digits-lift"})
def test_a_norm_past_the_printable_digits_fails_as_it_prints(row_ids, pins):
    passes(pins, *row_ids)


def test_an_exponent_past_the_printable_digits_fails_as_it_prints(pins):
    passes(pins, "exponent-digits")


@cases({order: (f"p1-z{order}-json", f"p1-z{order}-check") for order in "345678"})
def test_lifted_projective_line_checks_within_its_budget(row_ids, pins):
    passes(pins, *row_ids)


def test_lift_of_the_projective_line_over_z8_within_its_budget(pins):
    passes(pins, "p1-z8-json")


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
    return cli_pins.Runner(in_process, tmp_path_factory.mktemp("cli-pins"), budgets=True)


@pytest.mark.parametrize("row_id", cli_pins.ROWS)
def test_pinned_cli_row(row_id, pins):
    assert pins.problems(row_id) == [], cli_pins.ROWS[row_id].why


def test_the_runner_reports_each_kind_of_miss(tmp_path):
    def wrong(argv, stdin, cwd, timeout):
        return 0, "moved\n", "Traceback"

    runner = cli_pins.Runner(wrong, tmp_path / "untimed")
    assert runner.problems("hostile-deep-nesting") == [
        "exit 0, not 2; stderr: Traceback", "stderr holds 'Traceback' 1 times, not 0"]
    assert runner.problems("p1-z8-json") == []  # a budget checks only when the runner times
    assert runner.problems("z7")[0].startswith("output differs from the pin")
    assert runner.problems("p2-z5-json") == ["wrote no lifted-p2.json"]
    assert runner.problems("char-table-bound")[1:] == [
        "output differs from the pin:\n--- pinned\n+++ got\n@@ -0,0 +1 @@\n+moved\n",
        "stderr differs from the pin:\n--- pinned\n+++ got\n@@ -1 +1 @@\n"
        "-error: a character table of a group of order 4096 is above the bound 256\n+Traceback"]
    timed = cli_pins.Runner(wrong, tmp_path / "timed", budgets=True,
                            clock=itertools.count(0, 10).__next__)  # each call takes 10 s
    assert timed.problems("p1-z8-json") == ["took 10.00 s, past its budget of 1 s"]


def test_the_workflow_calls_the_console_script_only_through_the_table():
    """CI runs the table's rows through the installed script; a call written
    into the workflow itself would be a pin that tier-1 does not run."""
    workflow = (Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text()
    assert re.findall(r"^.*\bgradedcover\b.*$", workflow, re.M) == []
    assert re.search(r"^\s+run: python tests/cli_pins\.py$", workflow, re.M)


CALLERS_OF_MAIN = {  # each patches, draws its inputs, or inspects what a call builds
    "run_main", "in_process", "test_usage_error_exit_code",
    "test_a_command_line_is_read_once_and_as_the_top_level_parser_reads_it",
    "test_a_norm_past_its_size_bound_names_the_stage_and_the_sizes",
    "test_token_soup_ends_with_an_exit_code_and_a_short_message",
    "test_parser_is_reused_without_leaking_options", "test_loaded_lift_images_share_one_denominator",
    "test_text_lift_atlas_formats_each_image_once",
    "test_any_atlas_or_morphism_file_ends_with_an_exit_code_and_a_short_message",
}


def test_a_fixed_command_line_is_a_row_of_the_table():
    """A fixed call to ``main`` written into a test here would be a check
    that CI never sends through the console script: only the functions of
    ``CALLERS_OF_MAIN`` call it."""
    def calls_main(node) -> bool:
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None))
                   == "main" for n in ast.walk(node))

    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    callers = {getattr(node, "name", f"line {node.lineno}") for node in tree.body if calls_main(node)}
    assert callers - CALLERS_OF_MAIN == set()


@cases({case: f"shape-{re.sub('[ :.]', '-', case)}" for case, *_ in cli_pins.MALFORMED_SHAPES})
def test_malformed_json_shapes_name_the_key(row_ids, pins):
    passes(pins, *row_ids)


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


def test_lift_file_without_parity_lifts_with_zero_bits(pins):
    """A morphism file lifts alike with no parity, "0", "", " " and null;
    odd coordinates have no odd-parity copies under zero bits."""
    passes(pins, "lift-json-no-parity", "lift-json-parity-0", "lift-json-parity-empty",
           "lift-json-parity-blank", "lift-json-parity-null", "lift-odd-zero-bits")


def test_an_atlas_file_with_an_empty_parity_lifts_with_zero_bits(pins):
    passes(pins, "atlas-json-no-parity", "atlas-json-parity-empty", "atlas-json-parity-null",
           "atlas-check-no-parity", "atlas-check-parity-null")


@cases({case: (first, *(f"blank-parity-{case}-{name}" for name in ("empty", "blank", "bits")))
        for case, _, _, first, _ in cli_pins.BLANK_PARITY_CASES})
def test_a_blank_parity_flag_reads_as_no_flag(row_ids, pins):
    passes(pins, *row_ids)


@cases({f"argv{k}-{element}-{out}": f"act-element-{k}"
        for k, (_, element, out) in enumerate(cli_pins.ACT_ELEMENTS)})
def test_act_element_text(row_ids, pins):
    passes(pins, *row_ids)


@cases({"lift-atlas-p1-z3": "lift-atlas-p1-z3", "lift-atlas-p11-z4": "lift-atlas-p11-z4",
        "decompose-three": "decompose-three", "decompose-shifted": "decompose-shifted",
        "decompose-zero": "decompose-zero", "act-json": "act-json",
        "check-cocycle": "check-p1", "check-cocycle-json": "check-p1-json"})
def test_text_outputs_are_pinned(row_ids, pins):
    passes(pins, *row_ids)


def test_broken_lifted_atlas_text_report_is_pinned(pins):
    passes(pins, "p1-z3-json", "p1-z3-broken-text")


def test_a_zero_residual_prints_as_zero(pins):
    """On 0->1->0, u's image is 0 over the denominator x that 1/x brought:
    it prints as 0, as v's does on 1->0->1, in the text and the JSON report."""
    passes(pins, "zero-residual", "zero-residual-json")


def test_text_lift_atlas_formats_each_image_once(tmp_path, capsys, monkeypatch):
    calls = []
    format_expression = cli.format_expression
    monkeypatch.setattr(cli, "format_expression",
                        lambda f, texts=None: calls.append(f) or format_expression(f, texts))
    path = write_json(tmp_path, "super.json", SUPER_ATLAS)
    assert main(["lift-atlas", path, "--group", "4", "--parity", "1"]) == 0
    assert capsys.readouterr().out == cli_pins.ROWS["lift-atlas-p11-z4"].pin
    assert len(calls) == 8  # two transitions of four images each


@cases({case: f"usage-{case}" for case, *_ in cli_pins.USAGE_ERRORS} | {
    "imaginary-unit-name": "imaginary-name", "negative-residue-flag": "negative-residue"})
def test_usage_errors_exit_2_with_their_message(row_ids, pins):
    passes(pins, *row_ids)


def test_a_self_transition_other_than_the_identity_fails(pins):
    passes(pins, "self-identity", "self-identity-lift", "self-transition", "self-transition-lift")


@cases({"check-cocycle": "nested-json", "lift-atlas": "nested-lift-atlas", "lift": "nested-lift"})
def test_deeply_nested_json_is_a_usage_error(row_ids, pins):
    passes(pins, *row_ids)


@cases({"check-cocycle": "long-integer", "lift-atlas": "long-integer-lift-atlas",
        "lift": "long-integer-lift"})
def test_a_long_integer_literal_in_a_file_is_a_usage_error(row_ids, pins):
    passes(pins, *row_ids)


@cases({f"{command}-payload{k}-{code}-{stderr}": f"image-{case}"
        for k, (case, command, _, code, stderr) in enumerate(cli_pins.BAD_IMAGES)})
def test_an_image_that_fails_to_read_names_its_key(row_ids, pins):
    passes(pins, *row_ids)


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
