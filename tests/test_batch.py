"""The batched point axis: golden reports, batch-versus-pointwise equivalence,
and the per-report gate cache.

The files in tests/golden/ are the reports that the per-point implementation
(one PointContext per sample point) wrote for each fixture at default
sampling (n = 20, seed 42, tol 1e-9), with `render_json(build_report(...))`.
"""

import json
from pathlib import Path

import pytest

from statgeo import registry as reg
from statgeo.cosymplectic import BUILTIN_NAMES, builtin_fixture
from statgeo.fixtures import random_contact_frame, random_hermitian_frame
from statgeo.report import build_report
from statgeo.structures import classify

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = sorted(BUILTIN_NAMES) + ["random-contact-0", "random-hermitian-0"]
TOL = 1e-9


def fixture(name):
    if name == "random-contact-0":
        return random_contact_frame(0)
    if name == "random-hermitian-0":
        return random_hermitian_frame(0)
    return builtin_fixture(name)


def close(a, b, eps=1e-12):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= eps


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_report(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = build_report(fixture(name), 20, 42, TOL)
    assert list(got) == list(want)
    for key in ("fixture", "dim", "sampling", "classification_summary", "notes", "summary"):
        assert got.get(key) == want.get(key), key
    for kind, part in (want.get("classification") or {}).items():
        mine = got["classification"][kind]
        assert mine["flags"] == part["flags"], kind
        assert mine["residuals"].keys() == part["residuals"].keys()
        for k, v in part["residuals"].items():
            assert close(mine["residuals"][k], v), (kind, k, mine["residuals"][k], v)
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    for mine, old in zip(got["checks"], want["checks"]):
        assert mine.keys() == old.keys(), old["name"]
        for key in ("suite", "status", "points_evaluated", "notes"):
            assert mine.get(key) == old.get(key), (old["name"], key)
        for key in ("max_residual", "hypothesis_residual"):
            a, b = mine.get(key), old.get(key)
            assert close(a, b), (old["name"], key, a, b)


def _gates():
    seen = {}
    for chk in reg.REGISTRY:
        if chk.gate is not None:
            seen.setdefault(chk.gate, chk)
    return list(seen.values())


@pytest.mark.parametrize("name", FIXTURES)
def test_batch_equals_max_over_points(name):
    # A transpose that is right on one point but wrong with a point axis in
    # front shows up as a batch residual that no single point reproduces.
    fix = fixture(name)
    batch = fix.sample_contexts(7, 3)
    points = list(batch)
    assert len(points) == 7 and all(p.x.shape == (fix.manifold.dim,) for p in points)
    for chk in reg.REGISTRY:
        if not all(fix.has(n) for n in chk.needs):
            continue
        want = max(chk.run(fix, p) for p in points)
        assert close(chk.run(fix, batch), want), (chk.name, want)
    for chk in _gates():
        if not all(fix.has(n) for n in chk.needs):
            continue
        _, r, _ = chk.gate(fix, batch, TOL)
        singles = [chk.gate(fix, p, TOL)[1] for p in points]
        want = None if r is None else max(singles)
        assert close(r, want), (chk.gate.__name__, r, want)
    cls = classify(fix, batch, TOL)
    for kind, part in (cls or {}).items():
        for key, r in part["residuals"].items():
            want = max(classify(fix, p, TOL)[kind]["residuals"][key] for p in points)
            assert close(r, want), (kind, key, r, want)


def test_each_gate_runs_once_per_report(monkeypatch):
    calls = {}

    def counted(gate):
        def wrapper(fix, ctxs, tol):
            calls[gate] = calls.get(gate, 0) + 1
            return gate(fix, ctxs, tol)

        wrapper.__wrapped__ = gate
        return wrapper

    # one pass-through wrapper per check, as a tracer that wraps each entry
    # would install; they must still share one cache entry
    for chk in reg.REGISTRY:
        if chk.gate is not None:
            monkeypatch.setattr(chk, "gate", counted(chk.gate))
    fix = builtin_fixture("kenmotsu-model")
    results = reg.run_all(fix, fix.sample_contexts(4, 0), TOL)
    assert calls and set(calls.values()) == {1}
    gated = [r for r in results if r.status == reg.HYPOTHESIS_UNMET]
    assert len(gated) > len(calls)
