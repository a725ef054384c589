"""The benchmark's workloads: seeded inputs and one pass over each.

Every workload takes one integer seed.  The seed sets the sampling seed of
every report, the `random-contact-<s>` and `random-hermitian-<s>` frames of
sweep-n20, the `random_K_seed` of the generated spec and the `--lam`
expression of the product invocation.  A pass always builds fresh fixtures, so it pays for the
lazy per-context tables exactly as a real invocation does.

Requests run one at a time in a closed loop from one process (the in-process
workloads) or as sequential `python -m statgeo.cli` children (cli-roundtrip).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"

TOL = 1e-9
SWEEP_POINTS = 20
DENSE_POINTS = 2000
IN_PROCESS = ("sweep-n20", "dense-n2000")
WORKLOADS = IN_PROCESS + ("cli-roundtrip",)


def child_env() -> dict:
    """Environment for every process the benchmark starts: the uninstalled
    checkout on the path and BLAS/OpenMP threads capped at the core count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


# ---------------------------------------------------------------------------
# seeded inputs


_LAM_FORMS = (
    "{a}*t",
    "{a}*sin(t)",
    "{a}*exp({b}*t)",
    "{a} + {b}*t*t",
    "{a}*cosh({b}*t)",
)


def lam_expr(seed: int) -> str:
    """The warping coefficient given to `statgeo product` for this seed."""
    rng = random.Random(seed)
    form = _LAM_FORMS[rng.randrange(len(_LAM_FORMS))]
    a = rng.choice((-1, 1)) * round(rng.uniform(0.2, 1.5), 4)
    b = round(rng.uniform(0.2, 1.0), 4)
    return form.format(a=a, b=b)


def random_k_spec(seed: int) -> dict:
    """A spec document for the random contact frame of `seed`, with its
    statistical pair drawn by the CLI from `random_K_seed`."""
    from statgeo import expr as ex
    from statgeo import random_contact_frame

    man = random_contact_frame(seed).manifold
    return {
        "dim": man.dim,
        "coords": list(man.coords),
        "frame": [[ex.to_str(e) for e in row] for row in man.frame.exprs],
        "metric": [[ex.to_str(e) for e in row] for row in man.metric.exprs],
        "connections": {"random_K_seed": seed},
        "structure": {
            "phi": [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
            "xi": [1, 0, 0],
            "eta": [1, 0, 0],
        },
        "sampling": {"seed": seed},
    }


# ---------------------------------------------------------------------------
# in-process workloads


@dataclass
class Request:
    """One report: the fixture it runs on, its size, and the reference entry
    its statuses must match."""

    fixture: str
    points: int
    ref: str


def requests(workload: str, seed: int) -> list[Request]:
    from statgeo import BUILTIN_NAMES

    if workload == "sweep-n20":
        out = [Request(name, SWEEP_POINTS, name) for name in BUILTIN_NAMES]
        out.append(Request(f"random-contact-{seed}", SWEEP_POINTS, "random-contact"))
        out.append(Request(f"random-hermitian-{seed}", SWEEP_POINTS, "random-hermitian"))
        return out
    if workload == "dense-n2000":
        # the frame is fixed so that the per-point cost does not vary with
        # the seed; the seed still sets the sample points
        return [
            Request("dacko-variant-1", SWEEP_POINTS, "dacko-variant-1"),
            Request("dacko-variant-1", DENSE_POINTS, "dacko-variant-1"),
            Request("random-hermitian-0", DENSE_POINTS, "random-hermitian"),
        ]
    raise ValueError(f"{workload} is not an in-process workload")


def build_fixture(name: str):
    import statgeo

    kind, _, frame_seed = name.rpartition("-")
    if kind == "random-contact":
        return statgeo.random_contact_frame(int(frame_seed))
    if kind == "random-hermitian":
        return statgeo.random_hermitian_frame(int(frame_seed))
    return statgeo.builtin_fixture(name)


@dataclass
class Outcome:
    """What one request produced, kept for the correctness gate."""

    ref: str
    points: int
    start: float  # perf_counter when the request was sent
    seconds: float
    text: str | None = None
    again: str | None = None
    error: str | None = None


@dataclass
class PassResult:
    start: float
    wall: float
    outcomes: list[Outcome]
    reports: list


def in_process_pass(workload: str, seed: int) -> PassResult:
    """Build the workload's fixtures, then run each request as one
    `build_report` plus `render_json`."""
    import statgeo

    reqs = requests(workload, seed)
    t0 = time.perf_counter()
    fixtures = {}
    for r in reqs:
        if r.fixture not in fixtures:
            try:
                fixtures[r.fixture] = build_fixture(r.fixture)
            except Exception as e:  # fails the requests that need it
                fixtures[r.fixture] = e
    outcomes, reports = [], []
    for r in reqs:
        a = time.perf_counter()
        try:
            fix = fixtures[r.fixture]
            if isinstance(fix, Exception):
                raise fix
            rep = statgeo.build_report(fix, r.points, seed, TOL)
            text = statgeo.render_json(rep)
        except Exception as e:  # a failed request is counted, never skipped
            outcomes.append(Outcome(r.ref, r.points, a, time.perf_counter() - a,
                                    error=f"{type(e).__name__}: {e}"))
            reports.append(None)
            continue
        outcomes.append(Outcome(r.ref, r.points, a, time.perf_counter() - a, text=text))
        reports.append(rep)
    return PassResult(t0, time.perf_counter() - t0, outcomes, reports)


def rerender(result: PassResult) -> None:
    """Render every report a second time, outside the timed pass, for the
    determinism check."""
    import statgeo

    for o, rep in zip(result.outcomes, result.reports):
        if rep is not None:
            o.again = statgeo.render_json(rep)
    result.reports = []


def setup_in_process(workload: str, seed: int) -> None:
    """What `setup_s` covers after the import: every fixture of the workload."""
    for name in {r.fixture for r in requests(workload, seed)}:
        build_fixture(name)


# ---------------------------------------------------------------------------
# cli-roundtrip


@dataclass
class Invocation:
    argv: list[str]
    ref: str
    out: Path | None = None


def cli_paths() -> tuple[Path, Path]:
    d = OUT / "cli"
    return d / "product-spec.json", d / "random-k-spec.json"


def prepare_cli(seed: int) -> None:
    """Write the generated spec the pass reads (input generation, untimed)."""
    _, kspec = cli_paths()
    kspec.parent.mkdir(parents=True, exist_ok=True)
    kspec.write_text(json.dumps(random_k_spec(seed), indent=2) + "\n")


def invocations(seed: int) -> list[Invocation]:
    prod, kspec = cli_paths()
    s = str(seed)
    return [
        Invocation(["product", "--builtin", "flat-kaehler-r2", "--lam=" + lam_expr(seed),
                    "--out", str(prod)], "product", out=prod),
        Invocation(["check", str(prod), "--seed", s], "product-spec"),
        Invocation(["check", str(kspec)], "random-contact"),
        Invocation(["classify", "--builtin", "sasakian-r3", "--seed", s], "sasakian-r3"),
        Invocation(["table", "--builtin", "dacko-variant-1", "K"], "table-dacko-variant-1-K"),
        Invocation(["check", "--builtin", "heisenberg-hermitian", "--seed", s],
                   "heisenberg-hermitian"),
    ]


@dataclass
class ChildRun:
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_kb: int


def run_child(argv: list[str], tag: str, timeout: float = 170.0) -> ChildRun:
    """Run one child to completion and reap it with wait4, so its own peak
    RSS is known.  Output goes through files, not pipes, for the same reason:
    nothing has to drain a pipe while the parent blocks in wait4."""
    OUT.mkdir(parents=True, exist_ok=True)
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, out_path.read_text(), err_path.read_text(),
                    seconds, usage.ru_maxrss)


@dataclass
class CliOutcome:
    inv: Invocation
    run: ChildRun
    written: str | None


def invoke(prefix: list[str], inv: Invocation, tag: str) -> CliOutcome:
    """Run one invocation; `prefix` is `python -m statgeo.cli` or the
    benchmark's traced launcher."""
    run = run_child(prefix + inv.argv, tag)
    written = inv.out.read_text() if inv.out is not None and inv.out.exists() else None
    return CliOutcome(inv, run, written)


CLI = [sys.executable, "-m", "statgeo.cli"]


def setup_cli(seed: int) -> None:
    """What `setup_s` covers for cli-roundtrip after the import: the fixtures
    its invocations resolve, the product construction and spec ingestion."""
    import statgeo
    from statgeo import cli

    for name in ("flat-kaehler-r2", "sasakian-r3", "dacko-variant-1", "heisenberg-hermitian"):
        statgeo.builtin_fixture(name)
    statgeo.product_construct(statgeo.builtin_fixture("flat-kaehler-r2"), lam_expr(seed))
    cli.fixture_from_doc(random_k_spec(seed), "random-k-spec")
