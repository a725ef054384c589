"""The batched point axis: golden reports, batch-versus-pointwise equivalence,
the per-report gate cache, and the per-context tables that a report builds
once and drops with its context.

The files in tests/golden/ are the reports that the per-point implementation
(one PointContext per sample point) wrote for each fixture at default
sampling (n = 20, seed 42, tol 1e-9), with `render_json(build_report(...))`.
The builtin reports must stay byte-identical to them; the two random-frame
reports differ from them in the last bits of some residuals.
"""

import dataclasses
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from statgeo import connections, curvature
from statgeo import registry as reg
from statgeo.cli import fixture_from_doc
from statgeo.connections import LeviCivita
from statgeo.cosymplectic import BUILTIN_NAMES, builtin_fixture
from statgeo.fixtures import random_contact_frame, random_hermitian_frame
from statgeo.frame import Jet, PointContext, _connection_table, _table_jet
from statgeo.report import build_report, render_json
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


@pytest.mark.parametrize("name", sorted(BUILTIN_NAMES))
def test_builtin_reports_are_byte_identical(name):
    text = render_json(build_report(fixture(name), 20, 42, TOL))
    assert text == (GOLDEN / f"{name}.json").read_text()


# Checks whose identity on nabla*, with K replaced by -K, is the other's
# identity on nabla: (the nabla side, the nabla* side).
DUAL_PAIRS = [
    ("AC-AAB1", "AC-AAB2"),
    ("AC-AA4A", "AC-AA5"),
    ("AC-BB1", "AC-BB2"),
    ("AC-BB4", "AC-BB5"),
    ("HERM-AZIZ2", "HERM-AZIZ3"),
    ("HERM-AZIZ4", "HERM-AZIZ5"),
    ("HERM-AZIZ5A", "HERM-AZIZ5B"),
    ("HERM-AZIZ6", "HERM-AZIZY7"),
    ("HERM-AZIZ8", "HERM-AZIZ9"),
    ("HERM-AZIZ81", "HERM-AZIZ82"),
    ("HERM-AZIZ10", "HERM-AZIZ11"),
    ("COSYM-AFI-II", "COSYM-AFI-III"),
    ("COSYM-AFI-V", "COSYM-AFI-VI"),
    ("COSYM-KF1A", "COSYM-KF2A"),
    ("COSYM-LKSI-II", "COSYM-LKSI-III"),
    ("COSYM-DAZIZ1", "COSYM-DAZIZ2"),
    ("KLEAVES-NABLA", "KLEAVES-NABLA-STAR"),
    ("CURV-R0", "CURV-R00"),
    ("DUAL-TORSION-NABLA", "DUAL-TORSION-NABLA-STAR"),
]


@pytest.mark.parametrize("name", FIXTURES)
def test_dual_checks_swap_with_the_pair(name):
    # On the fixture with nabla and nabla* exchanged, K becomes -K up to
    # rounding, so each check of a pair grades what the other grades on the
    # original fixture.
    fix = fixture(name)
    swapped = dataclasses.replace(fix, nabla=fix.nabla_star, nabla_star=fix.nabla)
    names = {n for pair in DUAL_PAIRS for n in pair}
    assert names <= {c.name for c in reg.REGISTRY}
    ctxs = fix.sample_contexts(20, 42)
    mine = {r.name: r for r in reg.run_all(swapped, ctxs, TOL, names)}
    ctxs = fix.sample_contexts(20, 42)
    orig = {r.name: r for r in reg.run_all(fix, ctxs, TOL, names)}
    for a, b in DUAL_PAIRS:
        got, want = mine[a], orig[b]
        assert got.status == want.status, (a, b, got.status, want.status)
        assert close(got.max_residual, want.max_residual), (a, b)
        assert close(got.hypothesis_residual, want.hypothesis_residual), (a, b)


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


def spy(monkeypatch, owner, name):
    """Replace owner.name by a pass-through that records each call's
    arguments; returns the list of records."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_levi_civita_table_built_once_per_context(monkeypatch):
    calls = spy(monkeypatch, LeviCivita, "table")
    build_report(random_contact_frame(0), 20, 42, TOL)
    assert len(calls) == 1
    calls.clear()
    eye = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    doc = {"dim": 3, "coords": ["t", "x", "y"], "frame": eye, "metric": eye}
    fix, _ = fixture_from_doc(doc, "flat")
    build_report(fix, 5, 0, TOL)
    assert len(calls) == 1


def test_conjugation_check_keeps_no_connection():
    fix = builtin_fixture("dacko-variant-1")
    ctxs = fix.sample_contexts(5, 0)
    reg.run_all(fix, ctxs, TOL, names={c.name for c in reg.REGISTRY if c.suite == "dual"})
    kept = {args[0] for fn, *args in ctxs._store if fn is _connection_table}
    assert kept == {fix.nabla, fix.nabla_star, fix.lc}


def test_curvature_tables_built_once_per_connection(monkeypatch):
    riem = spy(monkeypatch, curvature, "_riemann")
    shape = spy(monkeypatch, curvature, "_a_jet")
    fix = builtin_fixture("dacko-variant-1")
    build_report(fix, 20, 42, TOL)
    # nabla, nabla*, their mean and nabla0; A for nabla and nabla*
    assert len(riem) == len({conn for _, conn in riem}) == 4
    assert len(shape) == len({conn for _, conn, _ in shape}) == 2


@pytest.mark.parametrize("name", ["dacko-variant-1", "product-flat", "random-contact-0"])
def test_report_context_dies_with_the_report(monkeypatch, name):
    # a context that its own tables refer back to would wait for the cycle
    # collector, holding every table of the report until then
    refs = []
    init = PointContext.__init__

    def tracked(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(PointContext, "__init__", tracked)
    fix = fixture(name)
    gc.collect()
    gc.disable()
    try:
        build_report(fix, 20, 42, TOL)
        assert refs and all(r() is None for r in refs)
    finally:
        gc.enable()


def _equal(a, b) -> bool:
    if isinstance(a, PointContext):
        return np.array_equal(a.x, b.x) and not stale_tables(a)
    if isinstance(a, Jet):
        return all(_equal(getattr(a, k), getattr(b, k)) for k in ("val", "grad", "grad2"))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_equal(p, q) for p, q in zip(a, b))
    if a is None:
        return b is None
    return a.shape == b.shape and np.array_equal(a, b)


OWN_TABLES = ("F", "FT", "Finv", "g", "ginv", "onb", "c", "Eg")


def stale_tables(ctx: PointContext) -> list:
    """What a context keeps for the whole report (its own tables, and the
    expression jets, connection tables and derived entries of its store)
    that differs from the same thing computed afresh on a new context at the
    same points.  A stale jet or connection table is named by its table or
    connection, any other entry by its key."""
    fresh = PointContext(ctx.manifold, ctx.x)
    stale = [name for name in OWN_TABLES
             if not _equal(getattr(ctx, name), getattr(fresh, name))]
    jets = {}  # a kept jet that keys a later entry -> its fresh counterpart
    for key, value in ctx._store.items():
        fn, *args = key
        again = fresh.derived(fn, *[jets.get(a, a) for a in args])
        if isinstance(value, Jet):
            jets[value] = again
        if not _equal(value, again):
            stale.append(args[0] if fn in (_table_jet, _connection_table) else key)
    return stale


def kept_arrays(ctx: PointContext) -> list:
    """Every array a context keeps: its own tables and its store entries,
    with those of a context its store holds."""
    out = []

    def walk(value):
        if isinstance(value, PointContext):
            out.extend(kept_arrays(value))
        elif isinstance(value, Jet):
            walk((value.val, value.grad, value.grad2))
        elif isinstance(value, tuple):
            for part in value:
                walk(part)
        elif isinstance(value, np.ndarray):
            out.append(value)
        else:
            assert value is None, type(value)

    walk(tuple(getattr(ctx, name) for name in OWN_TABLES) + tuple(ctx._store.values()))
    return out


def report_context(monkeypatch, fix) -> PointContext:
    """The batched context of one full report on fix."""
    made = []
    init = PointContext.__init__

    def kept(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(PointContext, "__init__", kept)
    build_report(fix, 20, 42, TOL)
    monkeypatch.undo()
    return made[0]


@pytest.mark.parametrize("name", FIXTURES)
def test_report_leaves_shared_tables_unchanged(monkeypatch, name):
    # Sums are formed in place in arrays their function has just allocated;
    # one written into a table the context keeps would change it for every
    # later check of the report.
    ctx = report_context(monkeypatch, fixture(name))
    # expression jets, connection tables and derived entries, all in one store
    assert {_table_jet, _connection_table} < {fn for fn, *_ in ctx._store}
    assert stale_tables(ctx) == []


@pytest.mark.parametrize("name", FIXTURES)
def test_kept_tables_are_read_only(monkeypatch, name):
    # a write into a table the context keeps raises at the write, instead of
    # changing every later check of the report
    ctx = report_context(monkeypatch, fixture(name))
    if name == "product-flat":
        assert any(isinstance(v, PointContext) for v in ctx._store.values())
    arrays = kept_arrays(ctx)
    assert arrays and not any(a.flags.writeable for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a += 1.0


def test_a_write_into_a_connection_table_is_seen(monkeypatch):
    fix = builtin_fixture("dacko-variant-1")
    ctx = report_context(monkeypatch, fix)
    G, _ = ctx.connection_table(fix.lc)
    with pytest.raises(ValueError, match="read-only"):
        G += 1e-12
    G.flags.writeable = True
    G += 1e-12
    assert fix.lc in stale_tables(ctx)


def test_second_gradients_only_where_they_are_read():
    dacko, herm = builtin_fixture("dacko-variant-1"), random_hermitian_frame(0)
    ct, man = dacko.contact, dacko.manifold
    once = [ct.phi_table, ct.eta_table, herm.hermitian.J_table,
            dacko.nabla._table, dacko.nabla_star._table]
    assert all(t.d2 is None for t in once)
    assert all(t.d2 is not None for t in (man.frame, man.metric, ct.xi_table))
    ctx = dacko.sample_contexts(3, 0)
    for t in once[:2] + once[3:]:
        with pytest.raises(ValueError, match="second gradient"):
            ctx.E_jet(ctx.table_jet(t))
    hctx = herm.sample_contexts(3, 0)
    with pytest.raises(ValueError, match="second gradient"):
        hctx.E_jet(herm.hermitian.J(hctx))
    assert ctx.E_jet(ct.xi(ctx)).grad.shape == (3, 3, 3, 3)


def test_difference_tensor_built_once_per_context(monkeypatch):
    calls = spy(monkeypatch, connections, "_difference_val")
    build_report(builtin_fixture("dacko-variant-1"), 20, 42, TOL)
    assert len(calls) == 1
