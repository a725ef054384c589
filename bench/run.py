"""statgeo benchmark: time to verdict, end to end and per layer.

    python3 bench/run.py --workload {sweep-n20,dense-n2000,cli-roundtrip,all}
                         --seed N --seconds S --trace {0,1}

Runs from the root of an uninstalled checkout (statgeo is imported from
src/).  Set-up is timed in fresh processes; then passes over the workload
run back to back until S seconds have gone, at least one.  Every output is
checked against bench/reference.json.  Times are in reference seconds (see
calibrate.py).

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken
from two traced passes in fresh processes (see spans.py) after the untraced
ones.  The lines before it print the same numbers for a reader, with
error_rate and, on dense-n2000, scaling_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_RUNS = 7
TRACED_PASSES = 2
LAUNCH = [sys.executable, str(HERE / "launch.py")]
# counts that must repeat exactly between two traced passes of one seed
EXACT = (
    "einsum_calls", "expr.eval_calls", "expr.parse_calls", "expr.diff_calls",
    "frame.jet2_calls", "frame.context_calls", "registry.check_calls",
    "registry.gate_calls", "connections.table_calls", "connections.lookup_calls",
    "cosymplectic.a_tensors_calls", "structures.acs_residual_calls",
    "curvature.riemann_calls", "report.bytes", "cli.bytes_written",
)
SUITES = ("almost-contact", "cosymplectic", "curvature", "dual", "hermitian",
          "kaehler-leaves", "structure")
END_TO_END = {"wall_s": "s", "verdict_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Tally:
    """Requests attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def median_setup(workload: str, seed: int) -> float:
    times = []
    for k in range(SETUP_RUNS):
        run = wl.run_child(LAUNCH + ["setup", workload, str(seed)], f"setup-{k}")
        if run.returncode != 0:
            raise SystemExit(f"set-up failed:\n{run.stderr}")
        times.append(json.loads(run.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def cli_pass(seed: int, prefix, label: str, tally: Tally, ref: dict):
    """Run the CLI invocations once, in order, checking each; yield
    (index, outcome, scale) with the scale from the loop timed around it.
    `prefix(k)` gives the command that replaces `statgeo` for invocation k."""
    import check

    wl.cli_paths()[0].unlink(missing_ok=True)
    before = calibrate.loop_time()
    for k, inv in enumerate(wl.invocations(seed)):
        o = wl.invoke(prefix(k), inv, f"{label}-{k}")
        after = calibrate.loop_time()
        f = calibrate.scale(before, after)
        before = after
        tally.add(f"{label} {' '.join(inv.argv[:2])}", check.cli_problems(o, ref, wl.TOL))
        yield k, o, f


# ---------------------------------------------------------------------------
# untraced passes


def untraced(workload: str, seed: int, seconds: float, tally: Tally, ref: dict) -> dict:
    """Closed-loop passes for `seconds`; end-to-end numbers of the workload.
    In-process passes are calibrated by a `Sampler` running during them,
    CLI invocations by the loop timed before and after each one.
    `verdict_p50_s` is the median over the workload's requests of each
    request's median time, which keeps it off the gaps between requests of
    different cost."""
    import check

    if workload == "cli-roundtrip":
        # children inherit this, so the calibration loop runs on their CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    walls, raw_walls, verdicts, rss_kb, ratios = [], [], {}, [], []
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        if workload == "cli-roundtrip":
            wall = raw = 0.0
            for k, o, f in cli_pass(seed, lambda k: wl.CLI, "cli", tally, ref):
                t = o.run.seconds * f
                verdicts.setdefault(k, []).append(t)
                wall += t
                raw += o.run.seconds
                rss_kb.append(o.run.maxrss_kb)
        else:
            with calibrate.Sampler() as smp:
                res = wl.in_process_pass(workload, seed)
            wl.rerender(res)
            raw, wall = smp.measure(res.start, res.start + res.wall)
            times = []
            for k, o in enumerate(res.outcomes):
                tally.add(f"{o.ref} n={o.points}", check.in_process_problems(o, ref, wl.TOL))
                times.append(smp.measure(o.start, o.start + o.seconds))
                verdicts.setdefault(k, []).append(times[-1][1])
            if workload == "dense-n2000":
                ratios.append(times[1][1] / times[0][1])
        walls.append(wall)
        raw_walls.append(raw)
    if workload != "cli-roundtrip":
        rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    out = {
        "wall_s": statistics.median(walls),
        "verdict_p50_s": statistics.median(statistics.median(v) for v in verdicts.values()),
        "peak_rss_mb": max(rss_kb) / 1024.0,
        "raw_wall_s": statistics.median(raw_walls),
        "passes": len(walls),
        "verdicts": sum(map(len, verdicts.values())),
    }
    if ratios:
        out["scaling_ratio"] = statistics.median(ratios)
    return out


# ---------------------------------------------------------------------------
# traced passes


def traced_pass(workload: str, seed: int, label: str, tally: Tally, ref: dict) -> dict:
    """One pass in fresh processes under the span wrappers; returns its
    per-layer metrics, summed over its processes."""
    import check

    summaries, process_s, written = [], 0.0, 0
    if workload == "cli-roundtrip":
        def paths(k):
            return wl.OUT / f"spans-{label}-{k}.npz", wl.OUT / f"summary-{label}-{k}.json"

        def launch(k):
            return LAUNCH + ["cli"] + [str(x) for x in paths(k)]

        for k, o, f in cli_pass(seed, launch, f"traced-{label}", tally, ref):
            doc = json.loads(paths(k)[1].read_text())
            doc["scale"] = f
            process_s += o.run.seconds * f
            written += len(o.run.stdout.encode()) + len((o.written or "").encode())
            summaries.append(doc)
        wall = process_s
    else:
        spans, summ = wl.OUT / f"spans-{label}.npz", wl.OUT / f"summary-{label}.json"
        run = wl.run_child(LAUNCH + ["pass", workload, str(seed), str(spans), str(summ)],
                           f"traced-{label}")
        if run.returncode != 0:
            raise SystemExit(f"traced pass failed:\n{run.stderr}")
        doc = json.loads(summ.read_text())
        for o in doc.pop("outcomes"):
            o = wl.Outcome(**o)
            tally.add(f"traced {o.ref} n={o.points}", check.in_process_problems(o, ref, wl.TOL))
        summaries.append(doc)
        wall = doc["wall_ns"] / 1e9 * doc["scale"]
        process_s = run.seconds * doc["scale"]
    return layer_metrics(summaries, wall, process_s, written)


def layer_metrics(summaries: list[dict], wall: float, process_s: float, written: int) -> dict:
    def calls(kind):
        return sum(s["kinds"][kind]["calls"] for s in summaries)

    def self_s(kind):
        return sum(s["kinds"][kind]["self_ns"] * s["scale"] for s in summaries) / 1e9

    m = {}
    for kind in ("expr.parse", "expr.diff", "frame.jet2", "frame.context",
                 "connections.table", "connections.lookup", "cosymplectic.a_tensors",
                 "structures.acs_residual", "curvature.riemann"):
        m[f"{kind}_calls"] = calls(kind)
        m[f"{kind}_s"] = self_s(kind)
    for kind in ("frame.table_build", "fixtures.build", "structures.classify",
                 "report.build", "report.render"):
        m[f"{kind}_s"] = self_s(kind)
    m["report.bytes"] = sum(s["rendered_bytes"] for s in summaries)
    for leaf in ("expr.eval", "einsum"):
        m[f"{leaf}_calls"] = sum(s["leaves"][leaf]["calls"] for s in summaries)
        m[f"{leaf}_s"] = sum(s["leaves"][leaf]["ns"] * s["scale"] for s in summaries) / 1e9
    m["registry.check_calls"] = calls("registry.run")
    m["registry.check_s"] = self_s("registry.run")
    m["registry.gate_calls"] = calls("registry.gate")
    m["registry.gate_s"] = self_s("registry.gate")
    m["registry.gate_useful_ratio"] = (
        sum(s["distinct_gates"] for s in summaries) / max(m["registry.gate_calls"], 1))
    m["connections.cache_hit_ratio"] = (
        1.0 - m["connections.table_calls"] / max(m["connections.lookup_calls"], 1))
    for suite in SUITES:
        part = [(s["suites"].get(suite, {}), s["scale"]) for s in summaries]
        m[f"suite.{suite}.check_s"] = sum(p.get("check_ns", 0) * f for p, f in part) / 1e9
        m[f"suite.{suite}.einsum_calls"] = sum(p.get("einsum_calls", 0) for p, _ in part)
    m["cli.import_s"] = sum(s["import_s"] * s["scale"] for s in summaries)
    m["cli.main_s"] = self_s("root")
    m["cli.process_s"] = process_s
    m["cli.bytes_written"] = written
    m["trace.wall_s"] = wall
    root_s = sum(s["wall_ns"] * s["scale"] for s in summaries) / 1e9
    m["trace.accounted_ratio"] = 1.0 - m["cli.main_s"] / root_s
    return m


def traced(workload: str, seed: int, untraced_wall: float, tally: Tally,
           ref: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of two traced passes: counts from the first (they
    must repeat exactly in the second), times and ratios as their mean."""
    passes = [traced_pass(workload, seed, "ab"[k], tally, ref) for k in range(TRACED_PASSES)]
    differ = [k for k in EXACT if len({p[k] for p in passes}) > 1]
    out = {}
    for k, v in passes[0].items():
        out[k] = v if isinstance(v, int) else statistics.mean(p[k] for p in passes)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / untraced_wall
    return out, differ


# ---------------------------------------------------------------------------
# output


def layer_unit(name: str) -> str:
    if name.endswith("_calls"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name in ("report.bytes", "cli.bytes_written"):
        return "bytes"
    return "s"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import check

    ref = check.load_reference()
    tally = Tally()
    setup_s = median_setup(workload, seed)
    if workload == "cli-roundtrip":
        wl.prepare_cli(seed)
    e2e = untraced(workload, seed, seconds, tally, ref)
    e2e["setup_s"] = setup_s
    print(f"{workload} seed {seed}: {e2e['passes']} passes, {e2e['verdicts']} verdicts, "
          f"raw wall {e2e['raw_wall_s']:.6g} s")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {e2e[name]:.6g} {unit}")
    if "scaling_ratio" in e2e:
        print(f"  {'scaling_ratio':<16} {e2e['scaling_ratio']:.6g} "
              "(n=2000 / n=20 report time on dacko-variant-1; ROADMAP target <= 5)")
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    correct = True
    if trace:
        layers, differ = traced(workload, seed, e2e["wall_s"], tally, ref)
        for name, value in layers.items():
            print(f"  {name:<34} {value:.6g} {layer_unit(name)}")
        if differ:
            correct = False
            print(f"error: counts differ between two traced passes: {differ}")
        if layers["trace.accounted_ratio"] < 0.9:
            print("warning: layer self times cover under 90% of the traced wall time")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    print(f"  {'error_rate':<16} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} requests failed)")
    for p in tally.problems:
        print(f"  failed: {p}")
    return {
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (wl.SRC / "statgeo" / "__init__.py").is_file():
        print(f"error: no statgeo package under {wl.SRC}", file=sys.stderr)
        return 2
    os.environ.update(wl.child_env())
    sys.path.insert(0, str(wl.SRC))
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
