"""Record the expected stdout digest of every benchmark operation.

    python3 perfbench/record_goldens.py

Runs each CLI operation the universes in ``inputs.py`` can produce, once,
and writes ``goldens.json``.  The CLI promises byte-stable output, so a
later commit must reproduce these digests; re-record only when that
contract is deliberately changed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gradedcover.cli as cli  # noqa: E402

import inputs  # noqa: E402
from worker import call, sha256  # noqa: E402


def _run(argv, expect_rc=0) -> str:
    rc, _, out, err = call(cli, argv)
    if rc != expect_rc:
        raise SystemExit(f"{argv[:2]} exited {rc!r}, expected {expect_rc}: {err}")
    return out


def main() -> int:
    shear = range(inputs.SHEAR_UNIVERSE)
    lifts = list(dict.fromkeys(a for j in shear for a in inputs.lift_sweep([j] * 3)))
    checked = {a for j in shear for a in inputs.cocycle_sweep([j] * 2)}
    lift, cocycle = {}, {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        source, lifted = Path(tmp) / "atlas.json", Path(tmp) / "lifted.json"
        for atlas in lifts:
            family, index, group, parity = atlas
            key = inputs.atlas_key(*atlas)
            source.write_text(inputs.atlas_text(family, index), encoding="utf-8")
            text = _run(["lift-atlas", str(source), "--group", group, "--parity", parity, "--json"])
            lift[key] = sha256(text)
            if atlas in checked:
                lifted.write_text(text, encoding="utf-8")
                cocycle[key] = sha256(_run(["check-cocycle", str(lifted), "--json"]))
            if atlas == inputs.BROKEN_BASE:
                lifted.write_text(inputs.break_lifted(text), encoding="utf-8")
                cocycle["broken"] = sha256(_run(["check-cocycle", str(lifted), "--json"], 1))
    decompose = [sha256(_run(inputs.decompose_argv(inputs.decompose_spec(i))))
                 for i in range(inputs.DECOMPOSE_UNIVERSE)]
    goldens = {
        "inputs": inputs.universe_digest(),
        "lift": lift,
        "cocycle": cocycle,
        "decompose": decompose,
    }
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    print(f"recorded {len(lift)} lifts, {len(cocycle)} cocycle checks, "
          f"{len(decompose)} decompositions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
