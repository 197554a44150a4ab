"""The README's examples, run as written.

Its ```python blocks run in order in one namespace, and every result that
their comments state is checked.  Each line of its ``## Command line`` block
is a row of ``cli_pins.py``, run on its two ```json blocks, and must exit 0.
"""

import ast
import re
from pathlib import Path

from gradedcover import parse_expression

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)


def command_lines() -> list[str]:
    """The lines of the ``## Command line`` block."""
    section = README.split("## Command line", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()


def stated_results(code: str) -> list[tuple[str, str]]:
    """(expression, comment) for each line of ``code`` that states a result:
    ``expr  # result``, or a comment line ``# expr == result``."""
    out = []
    for line in code.splitlines():
        if line.startswith("# ") and " == " in line:
            out.append(tuple(line[2:].split(" == ", 1)))
        elif "  # " in line and not line.lstrip().startswith("#"):
            expr, comment = (part.strip() for part in line.split("  # ", 1))
            if "=" not in expr.replace("==", ""):  # a statement, not an assignment
                out.append((expr, comment))
    return out


def test_the_python_examples_give_the_results_their_comments_state():
    code = blocks("python")
    assert len(code) == 3
    ns: dict = {}
    checked = []
    for block in code:
        exec(compile(block, "README.md", "exec"), ns)
        for expr, comment in stated_results(block):
            got = eval(expr, ns)
            if expr.startswith("lifted.images"):
                # over the lifted morphism's source, as the image is
                assert got == parse_expression(comment, ns["lifted"].source)
            elif expr == "f.decompose()":
                want = dict(re.findall(r"(\(\d+\)): ([^,}]+)", comment))
                assert {str(chi): part for chi, part in got.items()} == {
                    chi: parse_expression(text, ns["sig"]) for chi, text in want.items()}
                assert len(want) == 2
            elif expr == "f.weight()":
                assert comment.startswith("None") and got is None
            elif expr.startswith("f.evaluate_even("):
                assert got == ast.literal_eval(comment)
            elif expr == "check_cocycle(lifted).ok":
                assert comment.startswith("True") and got is True
            else:
                raise AssertionError(f"no check for the README's stated result of {expr}")
            checked.append(expr)
    assert len(checked) == 5
