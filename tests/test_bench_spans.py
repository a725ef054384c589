"""The traced benchmark's wrappers still fit the package.

`bench/spans.py` wraps statgeo's layers by name (for example
`structures.almost_cosymplectic_residual`, `cosymplectic.a_tensors` and
`PointContext.connection_table`), so a renamed or moved name would otherwise
surface only as a crashed benchmark run.  The smoke test installs the
wrappers in a fresh interpreter, as a traced benchmark pass does, and builds
two small reports under them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import statgeo
sys.path.insert(0, "bench")
import spans

rec = spans.install()
root = rec.open(spans.KIND[spans.ROOT])
for name in ("dacko-variant-1", "heisenberg-almost-kaehler"):
    rep = statgeo.build_report(statgeo.builtin_fixture(name), 3, 42, 1e-9)
    statgeo.render_json(rep)
rec.close(root)
rec.freeze()
kinds = rec.summary()["kinds"]
print(json.dumps({k: v["calls"] for k, v in kinds.items()}))
"""


def test_traced_reports_run_under_the_bench_wrappers():
    r = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert r.returncode == 0, r.stderr
    calls = json.loads(r.stdout)
    for kind in ("connections.lookup", "connections.table", "frame.jet2",
                 "structures.acs_residual", "cosymplectic.a_tensors", "report.build"):
        assert calls[kind] > 0, kind
