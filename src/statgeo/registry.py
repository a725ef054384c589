"""Named residual checks with gating, statuses, and aggregation.

A check evaluates a tensor identity on a fixture over a batched point
context and reports the worst relative residual over its points.  Checks
whose identity only holds under extra hypotheses carry a gate; when the gate
fails the check reports `hypothesis-unmet` (or `skipped`) instead of
running, together with the measured hypothesis residual.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_UNMET = "hypothesis-unmet"
SKIPPED = "skipped"


def rel_residual(lhs, rhs) -> float:
    """max over entries of |L - R| / (1 + |L| + |R|).

    Formed in two buffers of the broadcast shape, with the operations and
    their order of the formula, so the result is bitwise that of the formula.
    """
    L = np.asarray(lhs, float)
    R = np.asarray(rhs, float)
    shape = L.shape if L.shape == R.shape else np.broadcast_shapes(L.shape, R.shape)
    if not math.prod(shape):
        return 0.0
    d = np.abs(R, out=np.empty(shape))
    den = np.abs(L, out=np.empty(shape))
    den += 1.0
    den += d
    np.subtract(L, R, out=d)
    np.abs(d, out=d)
    d /= den
    return float(d.max())


def abs_max(a) -> float:
    """max over entries of |a|, without forming |a|."""
    a = np.asarray(a, float)
    if not a.size:
        return 0.0
    # + 0.0 turns the -0.0 of an all-(-0.0) array into 0.0, as |a| would
    return float(max(-a.min(), a.max())) + 0.0


@dataclass
class CheckDef:
    """One named identity.

    run: fn(fix, ctxs) -> float, the worst residual over the points of a
        context (a batch of one or more points).
    gate: fn(fix, ctxs, tol) -> (ok, hypothesis_residual, note); when ok is
        False the check is not graded.  A report evaluates each distinct gate
        once.
    report_when_gated: still evaluate `run` behind a failed gate and report
        the measured residual in the notes (for characterisations that are
        informative even when their hypothesis is not declared).
    annotate: a fixed string, or fn(fix, ctxs) -> str, attached to the notes
        of every graded result.
    """

    name: str
    suite: str
    run: Callable
    needs: tuple = ()
    gate: Callable | None = None
    gate_fail_status: str = HYPOTHESIS_UNMET
    report_when_gated: bool = False
    annotate: Callable | str | None = None


@dataclass
class CheckResult:
    name: str
    suite: str
    status: str
    max_residual: float | None
    hypothesis_residual: float | None
    points_evaluated: int
    notes: str | None = None

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "suite": self.suite,
            "status": self.status,
            "max_residual": self.max_residual,
            "points_evaluated": self.points_evaluated,
        }
        if self.hypothesis_residual is not None:
            d["hypothesis_residual"] = self.hypothesis_residual
        if self.notes:
            d["notes"] = self.notes
        return d


REGISTRY: list[CheckDef] = []


def register(chk: CheckDef) -> CheckDef:
    if any(c.name == chk.name for c in REGISTRY):
        raise ValueError(f"duplicate check name {chk.name!r}")
    REGISTRY.append(chk)
    return chk


def run_check(
    chk: CheckDef, fix, ctxs, tol: float, gates: dict | None = None
) -> CheckResult:
    """Grade one check on the batch ctxs.  `gates` caches gate outcomes for
    one (fix, ctxs, tol), keyed by the unwrapped gate function, so that
    pass-through wrappers of one gate share an entry."""
    if gates is None:
        gates = {}
    missing = [n for n in chk.needs if not fix.has(n)]
    if missing:
        return CheckResult(
            chk.name, chk.suite, SKIPPED, None, None, 0,
            notes=f"fixture lacks {', '.join(missing)} structure",
        )
    note = None
    hres = None
    if chk.gate is not None:
        key = inspect.unwrap(chk.gate)
        if key not in gates:
            gates[key] = chk.gate(fix, ctxs, tol)
        ok, hres, note = gates[key]
        if not ok:
            if chk.report_when_gated:
                mx = chk.run(fix, ctxs)
                extra = f"residual if graded: {mx:.6e}"
                note = f"{note}; {extra}" if note else extra
            return CheckResult(
                chk.name, chk.suite, chk.gate_fail_status, None, hres,
                len(ctxs), notes=note,
            )
    mx = chk.run(fix, ctxs)
    status = PASS if mx <= tol else FAIL
    if chk.annotate is not None:
        extra = chk.annotate if isinstance(chk.annotate, str) else chk.annotate(fix, ctxs)
        note = f"{note}; {extra}" if note else extra
    return CheckResult(chk.name, chk.suite, status, mx, hres, len(ctxs), notes=note)


def run_all(fix, ctxs, tol: float, names: set[str] | None = None) -> list[CheckResult]:
    defs = sorted(REGISTRY, key=lambda c: c.name)
    if names is not None:
        defs = [c for c in defs if c.name in names]
    gates: dict = {}
    return [run_check(c, fix, ctxs, tol, gates) for c in defs]


def unconditional_names() -> list[str]:
    """The checks without a gate, graded on every fixture that has the
    structures they need."""
    return sorted(c.name for c in REGISTRY if c.gate is None)
