"""Write bench/reference.json from the current package.

    PYTHONPATH=src python3 bench/make_reference.py [SEED ...]

The reference is taken at seed 42 and must agree with every other SEED
given; the script refuses to write it otherwise.  Regenerate it only for a
status change that CHANGES.md records.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads as wl  # noqa: E402


def _cli(argv: list[str]) -> str:
    from statgeo import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"statgeo {' '.join(argv)} exited {code}")
    return buf.getvalue()


def reference(seed: int) -> dict:
    import statgeo

    ref = {}
    for r in wl.requests("sweep-n20", seed):
        rep = statgeo.build_report(wl.build_fixture(r.fixture), r.points, seed, wl.TOL)
        ref[r.ref] = check.signature(rep)
    with tempfile.TemporaryDirectory() as d:
        spec = str(Path(d) / "product-spec.json")
        _cli(["product", "--builtin", "flat-kaehler-r2", "--lam=" + wl.lam_expr(seed), "--out", spec])
        ref["product-spec"] = check.signature(json.loads(_cli(["check", spec, "--seed", str(seed)])))
    ref["table-dacko-variant-1-K"] = {
        "text": _cli(["table", "--builtin", "dacko-variant-1", "K"])
    }
    return ref


def main(argv: list[str]) -> int:
    ref = reference(42)
    for s in map(int, argv):
        other = reference(s)
        bad = sorted(k for k in ref if other[k] != ref[k])
        if bad:
            print(f"seed {s} disagrees with seed 42 on {bad}", file=sys.stderr)
            return 1
    check.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {check.REFERENCE} ({len(ref)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
