"""Command-line interface.

Subcommands: char-table, decompose, act, lift, lift-atlas, check-cocycle.
Each command returns its JSON payload, its text and its exit code, and
``main`` writes one of the two, to ``--output`` or stdout; the text is
joined from the payload's strings.  Atlas and morphism files take their
grading from one reader, the parity defaulting to all-zero bits.
``main`` reads a command line once, with the subparser it names (``parse``).
Exit codes: 0 on success, 1 on a mathematical failure (invalid morphism,
division by a non-invertible function, cocycle violation, a norm past its
size bound), 2 on usage, syntax, or file errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .algebra import GradedSignature, SuperSignature
from .covering import Atlas, check_cocycle, lift_atlas, lift_super
from .errors import ExprSyntaxError, GradedError
from .expressions import MAX_COEFFICIENT_DIGITS, _quoted, format_expression, parse_expression
from .expressions import parse_residues, parse_var_name
from .groups import (
    FiniteAbelianGroup,
    ParityMap,
    character_table,
    parse_group_spec,
    parse_parity_spec,
)
from .morphisms import SuperMorphism


def _expect(value, kind: type | tuple[type, ...], where: str, what: str):
    """Return ``value``, or raise a usage error naming the JSON key at fault."""
    if not isinstance(value, kind):
        raise ValueError(f"{where} must be {what}, found {type(value).__name__}")
    return value


def _read_json(path: str) -> dict:
    def parse_int(text: str) -> int:  # refused before the interpreter's own digit limit
        if (digits := len(text.lstrip("-"))) > MAX_COEFFICIENT_DIGITS:
            raise ValueError(f"{_quoted(path)} holds an integer literal of {digits:,} digits, "
                             f"above the bound {MAX_COEFFICIENT_DIGITS:,}")
        return int(text)

    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=parse_int)
        except RecursionError:  # the decoder recurses once per level of nesting
            raise ValueError(f"{_quoted(path)} nests its JSON too deeply to read") from None
    return _expect(data, dict, "the top level", "a JSON object")


def _split_outside_parens(spec: str) -> list[str]:
    """Split on commas that are not inside a weight tuple."""
    parts, current, depth = [], [], 0
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _weighted_entries(group: FiniteAbelianGroup, names) -> list:
    """``(canonical name, weight)`` pairs for names like ``x@(0)``."""
    out = []
    for name in names:
        full, residues = parse_var_name(name)
        if residues is None:
            raise ValueError(f"graded variable {_quoted(name)} needs a weight suffix like x@(0)")
        out.append((full, group.character(residues)))
    return out


def parse_graded_signature(
    group: FiniteAbelianGroup, parity: ParityMap, even_spec: str, odd_spec: str
) -> GradedSignature:
    """Build a signature from comma-separated weighted names like ``x@0,x@1``."""
    return GradedSignature(
        group,
        parity,
        _weighted_entries(group, _split_outside_parens(even_spec)),
        _weighted_entries(group, _split_outside_parens(odd_spec)),
    )


def _signature_from_json(obj, where: str, group=None, parity=None) -> SuperSignature:
    _expect(obj, dict, where, "a JSON object")
    even, odd = (
        [str(n) for n in _expect(obj.get(key, []), list, f"{where}.{key}", "a list")]
        for key in ("even", "odd")
    )
    if not any("@" in n for n in even + odd):
        return SuperSignature(even, odd)
    if group is None or parity is None:
        raise ValueError("weighted variable names need a group and a parity map")
    return GradedSignature(
        group, parity, _weighted_entries(group, even), _weighted_entries(group, odd)
    )


def _morphism_from_json(mapping, where: str, source, target) -> SuperMorphism:
    """A morphism from a JSON object mapping target names to image text.
    Its images are parsed with one span memo, so an outermost parenthesised
    span whose text an earlier image holds is read once, and equal texts
    share one object: the images of a printed lift share their denominator,
    as the lift's components do."""
    images, keys, spans = {}, {}, {}
    for var, expr in _expect(mapping, dict, where, "a JSON object").items():
        name = parse_var_name(var)[0]
        if name in keys:
            raise ValueError(f"{where}: keys {keys[name]!r} and {var!r} name one variable")
        keys[name] = var
        expr = _expect(expr, str, f"{where}.{var}", "an expression string")
        try:
            images[name] = parse_expression(expr, source, spans)
        except (ArithmeticError, ValueError) as exc:  # name the image at fault, keep the rest
            exc.args = (f"{where}.{var}: {exc}",)
            raise
    return SuperMorphism(source, target, images)


def _grading(data: dict) -> tuple[FiniteAbelianGroup, ParityMap]:
    """The ``group`` and ``parity`` of a JSON file; a null parity is an absent one."""
    spec = _expect(data.get("group"), (str, int), "group", 'a group spec like "2x2"')
    group = parse_group_spec(str(spec))
    parity = data.get("parity")
    return group, parse_parity_spec(group, None if parity is None else str(parity))


def load_atlas(data: dict):
    """Read the atlas JSON format; returns (atlas, group, parity), the
    latter two None when the file declares no grading data."""
    group, parity = _grading(data) if "group" in data else (None, None)
    specs = _expect(data.get("charts", {}), dict, "charts", "a JSON object")
    charts = {
        str(cid): _signature_from_json(spec, f"charts.{cid}", group, parity)
        for cid, spec in specs.items()
    }
    transitions, keys = {}, {}
    maps = _expect(data.get("transitions", {}), dict, "transitions", "a JSON object")
    for key, mapping in maps.items():
        if "->" not in key:
            raise ValueError(f"transition key {key!r} is not of the form 'src->dst'")
        src, dst = (part.strip() for part in key.split("->", 1))
        if src not in charts or dst not in charts:
            raise ValueError(f"transition {key!r} names an unknown chart")
        if (src, dst) in keys:
            raise ValueError(f"transition keys {keys[src, dst]!r} and {key!r} name one transition")
        keys[src, dst] = key
        transitions[(src, dst)] = _morphism_from_json(
            mapping, f"transitions.{key}", charts[src], charts[dst]
        )
    return Atlas(charts=charts, transitions=transitions), group, parity


def dump_atlas(atlas: Atlas, group, parity) -> dict:
    data: dict = {}
    if group is not None:
        data["group"] = str(group)
        data["parity"] = "".join(str(b) for b in parity.bits)
    data["charts"] = {
        cid: {"even": list(sig.even), "odd": list(sig.odd)}
        for cid, sig in sorted(atlas.charts.items())
    }
    texts: dict = {}  # polynomials the transitions share, each rendered once
    data["transitions"] = {
        f"{src}->{dst}": {
            name: format_expression(img, texts) for name, img in sorted(m.images.items())
        }
        for (src, dst), m in sorted(atlas.transitions.items())
    }
    return data


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _read_expr(args) -> str:
    if args.expr is None or args.expr == "-":
        return sys.stdin.read()
    return args.expr if isinstance(args.expr, str) else "--"  # argparse reads --expr=-- as []


def _signature_from_flags(args):
    group = parse_group_spec(args.group)
    parity = parse_parity_spec(group, args.parity)
    return parse_graded_signature(group, parity, args.even or "", args.odd or "")


MAX_CHAR_TABLE_ORDER = 256  # order^2 cells: order 1024 took 22 s on a 2-core VM


def cmd_char_table(args) -> tuple[dict, str, int]:
    group = parse_group_spec(args.group)
    if group.order > MAX_CHAR_TABLE_ORDER:
        raise ValueError(f"a character table of a group of order {group.order} is above "
                         f"the bound {MAX_CHAR_TABLE_ORDER}")
    elements = [str(g) for g in group.elements()]
    characters = [str(chi) for chi in group.characters()]
    cells = [[str(v) for v in row] for row in character_table(group)]
    payload = {
        "group": str(group),
        "elements": elements,
        "characters": characters,
        "table": cells,
    }
    width = max(
        len(s) for row in cells + [elements, characters] for s in row
    )
    lines = [" " * (width + 2) + "  ".join(e.rjust(width) for e in elements)]
    for chi, row in zip(characters, cells):
        lines.append(chi.rjust(width + 2) + "  ".join(v.rjust(width) for v in row))
    return payload, "\n".join(lines), 0


def cmd_decompose(args) -> tuple[dict, str, int]:
    sig = _signature_from_flags(args)
    f = parse_expression(_read_expr(args), sig)
    texts: dict = {}  # the components share one denominator, rendered once
    components = {str(chi): format_expression(c, texts) for chi, c in f.decompose().items()}
    lines = [f"{chi}: {text}" for chi, text in components.items()]
    return {"components": components}, "\n".join(lines) if lines else "0", 0


def cmd_act(args) -> tuple[dict, str, int]:
    sig = _signature_from_flags(args)
    g = sig.group.element(parse_residues(args.element, "group element"))
    result = format_expression(parse_expression(_read_expr(args), sig).act(g))
    return {"result": result}, result, 0


def cmd_lift(args) -> tuple[dict, str, int]:
    data = _read_json(args.path)
    group, parity = _grading(data)
    source = _signature_from_json(data.get("source"), "source")
    target = _signature_from_json(data.get("target"), "target")
    psi = _morphism_from_json(data.get("map"), "map", source, target)
    lifted = lift_super(psi, group, parity)
    texts: dict = {}  # the copies of each coordinate share one denominator, rendered once
    # each coordinate's copies in character order, the even coordinates first
    names = lifted.target.even + lifted.target.odd
    images = {n: format_expression(lifted.images[n], texts) for n in names}
    return {"images": images}, "\n".join(f"{n} = {text}" for n, text in images.items()), 0


def cmd_lift_atlas(args) -> tuple[dict, str, int]:
    atlas, file_group, file_parity = load_atlas(_read_json(args.path))
    group = parse_group_spec(args.group) if args.group else file_group
    if group is None:
        raise ValueError("no group given on the command line or in the atlas file")
    blank = not (args.parity or "").strip()
    keep = blank and file_parity is not None and file_parity.group == group
    parity = file_parity if keep else parse_parity_spec(group, args.parity)
    payload = dump_atlas(lift_atlas(atlas, group, parity), group, parity)
    lines = []
    for key, images in payload["transitions"].items():
        lines += [f"[{key}]", *(f"  {name} = {text}" for name, text in images.items())]
    return payload, "\n".join(lines) if lines else "(no transitions)", 0


def cmd_check_cocycle(args) -> tuple[dict, str, int]:
    report = check_cocycle(load_atlas(_read_json(args.path))[0])
    return dataclasses.asdict(report), report.describe(), 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; ``parse_args`` returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="gradedcover",
        description="Exact graded function algebras and coverings of superdomains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--output", help="write the result to this file")

    def common(p, group_required=True):
        p.add_argument("--group", required=group_required, help="group spec, e.g. 2x2")
        p.add_argument("--parity", help="parity bits, one per factor, e.g. 11")
        output(p)

    p = sub.add_parser("char-table", help="print the exact character table")
    common(p)
    p.set_defaults(func=cmd_char_table)

    p = sub.add_parser("decompose", help="split a function into homogeneous parts")
    common(p)
    p.add_argument("--even", help="weighted commuting variables, e.g. x@0,x@1")
    p.add_argument("--odd", help="weighted anticommuting variables")
    p.add_argument("--expr", help="expression text ('-' or omitted: read stdin)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("act", help="apply a group element to a function")
    common(p)
    p.add_argument("--even", help="weighted commuting variables")
    p.add_argument("--odd", help="weighted anticommuting variables")
    p.add_argument("--element", required=True, help="group element, e.g. 1,0")
    p.add_argument("--expr", help="expression text ('-' or omitted: read stdin)")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("lift", help="lift a superdomain morphism to the coverings")
    p.add_argument("path", help="morphism JSON file")
    output(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("lift-atlas", help="lift a supermanifold atlas")
    p.add_argument("path", help="atlas JSON file")
    common(p, group_required=False)
    p.set_defaults(func=cmd_lift_atlas)

    p = sub.add_parser("check-cocycle", help="verify atlas transition identities")
    p.add_argument("path", help="atlas JSON file")
    output(p)
    p.set_defaults(func=cmd_check_cocycle)

    parser.commands = sub.choices  # name -> subparser, for ``parse``
    return parser


def parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, one pass where a command's subparser reads it all."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv and "--" not in argv else None
    args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
    if args is None or rest:  # the top-level parser reports errors as it always has
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    try:
        payload, text, code = args.func(args)
        _emit(json.dumps(payload, indent=2, sort_keys=True) if args.json else text, args.output)
        return code
    except (GradedError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
