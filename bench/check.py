"""Correctness gate: every request's output against a stored reference.

The reference (reference.json, written by make_reference.py) holds, for each
fixture, the status of every check and the classification flags at n = 20.
Both are the same for every workload seed, so one reference serves any seed.
A request fails when it raises or prints a traceback, exits with an
unexpected code, differs from the reference in any status or flag, reports a
`pass` check with a residual above the tolerance, or renders differently the
second time.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def signature(doc: dict) -> dict:
    """The seed-independent part of a report or classify document."""
    out = {}
    if "checks" in doc:
        out["statuses"] = {c["name"]: c["status"] for c in doc["checks"]}
    cls = doc.get("classification") or {}
    out["flags"] = {kind: part["flags"] for kind, part in sorted(cls.items())}
    return out


def report_problems(doc: dict, ref: dict, tol: float) -> list[str]:
    """Differences between one report or classify document and its reference."""
    sig = signature(doc)
    problems = []
    if sig["flags"] != ref["flags"]:
        problems.append(f"classification flags {sig['flags']} != {ref['flags']}")
    if "statuses" in sig:
        if sig["statuses"] != ref["statuses"]:
            diff = sorted(
                n for n in set(sig["statuses"]) | set(ref["statuses"])
                if sig["statuses"].get(n) != ref["statuses"].get(n)
            )
            problems.append(f"statuses differ on {diff}")
        for c in doc["checks"]:
            r = c["max_residual"]
            if c["status"] == "pass" and not (r is not None and r <= tol):
                problems.append(f"{c['name']} passes with residual {r}")
    return problems


def in_process_problems(outcome, reference: dict, tol: float) -> list[str]:
    if outcome.error is not None:
        return [outcome.error]
    problems = report_problems(json.loads(outcome.text), reference[outcome.ref], tol)
    if outcome.again != outcome.text:
        problems.append("rendering the report twice gave different JSON")
    return problems


def cli_problems(outcome, reference: dict, tol: float) -> list[str]:
    inv, run = outcome.inv, outcome.run
    problems = []
    if run.returncode != 0:
        problems.append(f"exit code {run.returncode}")
    if "Traceback" in run.stderr or "Traceback" in run.stdout:
        problems.append("traceback printed")
    if problems:
        return problems + [run.stderr.strip()[-500:]]
    cmd = inv.argv[0]
    if cmd == "product":
        if run.stdout != f"wrote {inv.out}\n":
            problems.append(f"unexpected product output {run.stdout!r}")
        try:
            spec = json.loads(outcome.written or "")
        except json.JSONDecodeError:
            return problems + ["product wrote no valid JSON spec"]
        if spec.get("dim") != 3 or "nabla" not in spec.get("connections", {}):
            problems.append("product spec lacks a 3-dimensional nabla table")
        return problems
    if cmd == "table":
        if run.stdout != reference[inv.ref]["text"]:
            problems.append("table output differs from the reference")
        return problems
    try:
        doc = json.loads(run.stdout)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    problems += report_problems(doc, reference[inv.ref], tol)
    if json.dumps(doc, indent=2) + "\n" != run.stdout:
        problems.append("stdout does not re-render byte-identically")
    return problems
