"""Child-process entry points of the benchmark.

    launch.py setup WORKLOAD SEED
        time `import statgeo` plus building the workload's fixtures and specs
        in this fresh process; print {"setup_s": ...} in reference seconds
    launch.py pass WORKLOAD SEED SPANS SUMMARY
        one traced in-process pass
    launch.py cli SPANS SUMMARY ARGS...
        one traced `statgeo` invocation; behaves like `python -m statgeo.cli`

A traced child imports statgeo (timed), installs the wrappers of spans.py,
runs its work under one root span, and writes the spans to SPANS (.npz) and
their per-layer totals to SUMMARY (.json).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402


def _import_statgeo(with_cli: bool) -> float:
    t0 = time.perf_counter()
    import statgeo  # noqa: F401

    if with_cli:
        import statgeo.cli  # noqa: F401
    return time.perf_counter() - t0


def setup(workload: str, seed: int) -> int:
    before = calibrate.loop_time()
    t0 = time.perf_counter()
    cli = workload == "cli-roundtrip"
    _import_statgeo(cli)
    if cli:
        wl.setup_cli(seed)
    else:
        wl.setup_in_process(workload, seed)
    raw = time.perf_counter() - t0
    print(json.dumps({"setup_s": raw * calibrate.scale(before, calibrate.loop_time())}))
    return 0


def traced_pass(workload: str, seed: int, spans_path: str, summary_path: str) -> int:
    import_s = _import_statgeo(False)
    import spans

    rec = spans.install()
    before = calibrate.loop_time()
    root = rec.open(spans.KIND[spans.ROOT])
    result = wl.in_process_pass(workload, seed)
    rec.close(root)
    rec.freeze()
    scale = calibrate.scale(before, calibrate.loop_time())
    wl.rerender(result)
    outcomes = [o.__dict__ for o in result.outcomes]
    spans.write(rec, spans_path, summary_path,
                {"import_s": import_s, "scale": scale, "outcomes": outcomes})
    return 0


def traced_cli(spans_path: str, summary_path: str, argv: list[str]) -> int:
    import_s = _import_statgeo(True)
    import spans

    from statgeo import cli

    rec = spans.install()
    root = rec.open(spans.KIND[spans.ROOT])
    try:
        code = cli.main(argv)
    finally:
        rec.close(root)
        rec.freeze()
        sys.stdout.flush()
        spans.write(rec, spans_path, summary_path, {"import_s": import_s})
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup(rest[0], int(rest[1]))
    if mode == "pass":
        return traced_pass(rest[0], int(rest[1]), rest[2], rest[3])
    if mode == "cli":
        return traced_cli(rest[0], rest[1], rest[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
