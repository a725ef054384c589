"""Spans around statgeo's layers, installed from outside the package.

`install()` wraps, at every place the package binds them, the public
functions and methods of each module (see `install`).  A wrapper records one
span per call: its kind, parent, start, end, the check suite it runs under,
the report it belongs to, and a tag (the check or gate it runs).  Wrappers
pass arguments and return values through untouched.

`np.einsum` and `expr.eval_expr` run millions of times on the dense
workload, so they are not stored as spans: each call adds its count and
duration to the span that made it, keyed by that span's kind and suite.
Self time is a span's duration minus its child spans and these leaf calls.

Spans stay in memory in typed arrays and are written out with `save()` when
the traced run ends; `summary()` reduces them to per-layer totals.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# span kinds; ROOT is the process entry: the benchmark's pass, or cli.main
ROOT = "root"
KINDS = (
    ROOT,
    "fixtures.build",
    "expr.parse",
    "expr.diff",
    "frame.table_build",
    "frame.jet2",
    "frame.context",
    "connections.lookup",
    "connections.table",
    "registry.run",
    "registry.gate",
    "structures.classify",
    "structures.acs_residual",
    "cosymplectic.a_tensors",
    "curvature.riemann",
    "report.build",
    "report.render",
)
KIND = {k: i for i, k in enumerate(KINDS)}
LEAVES = ("einsum", "expr.eval")
OUTSIDE = len(KINDS)  # key of calls made while no span is open
NSUITE = 16  # room for the suites plus "no suite" in a leaf key


def _key(kind: int, suite: int) -> int:
    return kind * NSUITE + suite + 1


class Recorder:
    def __init__(self):
        self.kind = array("B")
        self.parent = array("i")
        self.suite = array("b")
        self.report = array("i")
        self.tag = array("i")
        self.start = array("q")
        self.end = array("q")
        nkeys = (OUTSIDE + 1) * NSUITE
        self.leaf_n = [[0] * nkeys for _ in LEAVES]
        self.leaf_ns = [[0] * nkeys for _ in LEAVES]
        self.rendered_bytes = 0
        self.suites: list[str] = []
        self.checks: list[str] = []
        self.gates: list[str] = []
        # open spans; the bottom entries stand for "outside any span"
        self.stack = [-1]
        self.kinds = [OUTSIDE]
        self.suites_open = [-1]
        self.reports_open = [-1]
        self.keys = [_key(OUTSIDE, -1)]

    def open(self, kind: int, suite: int | None = None, tag: int = -1) -> int:
        i = len(self.kind)
        if suite is None:
            suite = self.suites_open[-1]
        rep = i if kind == _REPORT_BUILD else self.reports_open[-1]
        self.kind.append(kind)
        self.parent.append(self.stack[-1])
        self.suite.append(suite)
        self.report.append(rep)
        self.tag.append(tag)
        self.end.append(0)
        self.stack.append(i)
        self.kinds.append(kind)
        self.suites_open.append(suite)
        self.reports_open.append(rep)
        self.keys.append(_key(kind, suite))
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()
        self.kinds.pop()
        self.suites_open.pop()
        self.reports_open.pop()
        self.keys.pop()

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, kind: str, suite: int | None = None, tag: int = -1,
             reentrant: bool = True):
        """Wrap fn in a span.  With reentrant=False a call made directly
        inside a span of the same kind (recursion) gets no span of its own."""
        k = KIND[kind]
        kinds, open_, close = self.kinds, self.open, self.close

        def wrapper(*args, **kwargs):
            if not reentrant and kinds[-1] == k:
                return fn(*args, **kwargs)
            i = open_(k, suite, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, fn, which: str):
        n = self.leaf_n[LEAVES.index(which)]
        tot = self.leaf_ns[LEAVES.index(which)]
        keys = self.keys

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                key = keys[-1]
                n[key] += 1
                tot[key] += perf_counter_ns() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def freeze(self) -> None:
        """End the traced region: later spans and leaf calls are not kept."""
        self.n = len(self.kind)
        shape = (len(LEAVES), OUTSIDE + 1, NSUITE)
        self.frozen_n = np.array(self.leaf_n, dtype=np.int64).reshape(shape)
        self.frozen_ns = np.array(self.leaf_ns, dtype=np.int64).reshape(shape)
        self.frozen_bytes = self.rendered_bytes

    def columns(self) -> dict:
        return {
            name: np.frombuffer(getattr(self, name), dtype=getattr(self, name).typecode)[:self.n]
            for name in ("kind", "parent", "suite", "report", "tag", "start", "end")
        }

    def save(self, path: str) -> None:
        """Write the spans of the traced region and the leaf totals."""
        np.savez(
            path,
            **self.columns(),
            kinds=np.array(KINDS + ("outside",)),
            leaves=np.array(LEAVES),
            leaf_n=self.frozen_n,
            leaf_ns=self.frozen_ns,
            suites=np.array(self.suites),
            checks=np.array(self.checks),
            gates=np.array(self.gates),
        )

    def summary(self) -> dict:
        """Per-layer totals over the traced region; span 0 must be the root."""
        c = self.columns()
        n = self.n
        dur = c["end"] - c["start"]
        child = np.bincount(c["parent"][1:], weights=dur[1:], minlength=n).astype(np.int64)
        self_ns = dur - child
        leaf_n, leaf_ns = self.frozen_n, self.frozen_ns
        # leaf time is part of the calling span's duration, not its self time
        leaf_by_kind = leaf_ns[:, :OUTSIDE, :].sum(axis=(0, 2))
        out = {"wall_ns": int(dur[0]), "kinds": {}, "suites": {},
               "leaves": {}, "rendered_bytes": self.frozen_bytes}
        for kind, k in KIND.items():
            sel = c["kind"] == k
            out["kinds"][kind] = {
                "calls": int(sel.sum()),
                "self_ns": int(self_ns[sel].sum() - leaf_by_kind[k]),
            }
        run = KIND["registry.run"]
        run_leaf = leaf_ns[:, run, :].sum(axis=0)
        for s, name in enumerate(self.suites):
            sel = (c["kind"] == run) & (c["suite"] == s)
            out["suites"][name] = {
                "check_ns": int(self_ns[sel].sum() - run_leaf[s + 1]),
                "einsum_calls": int(leaf_n[0, :OUTSIDE, s + 1].sum()),
            }
        for j, leaf in enumerate(LEAVES):
            out["leaves"][leaf] = {
                "calls": int(leaf_n[j, :OUTSIDE].sum()),
                "ns": int(leaf_ns[j, :OUTSIDE].sum()),
            }
        gate = c["kind"] == KIND["registry.gate"]
        pairs = set(zip(c["report"][gate].tolist(), c["tag"][gate].tolist()))
        out["distinct_gates"] = len(pairs)
        return out


_REPORT_BUILD = KIND["report.build"]


def _rebind(orig, wrapper) -> None:
    """Replace every binding of `orig` in the statgeo modules by `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if name == "statgeo" or name.startswith("statgeo."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


def install() -> Recorder:
    """Wrap statgeo's layers (it must already be imported) and numpy.einsum."""
    from statgeo import cli, connections, cosymplectic, curvature, expr, fixtures
    from statgeo import frame, registry, report, structures

    rec = Recorder()

    def func(fn, kind, **kw):
        _rebind(fn, rec.span(fn, kind, **kw))

    def method(cls, name, kind):
        setattr(cls, name, rec.span(cls.__dict__[name], kind))

    np.einsum = rec.leaf(np.einsum, "einsum")
    _rebind(expr.eval_expr, rec.leaf(expr.eval_expr, "expr.eval"))
    func(expr.parse, "expr.parse")
    func(expr.diff, "expr.diff", reentrant=False)

    method(frame.ExprTable, "__init__", "frame.table_build")
    method(frame.ExprTable, "jet2", "frame.jet2")
    method(frame.PointContext, "__init__", "frame.context")
    method(frame.PointContext, "connection_table", "connections.lookup")
    todo = [connections.AffineConnection]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "table" in cls.__dict__ and cls is not connections.AffineConnection:
            method(cls, "table", "connections.table")

    for fn in (cosymplectic.builtin_fixture, cosymplectic.product_construct,
               fixtures.random_contact_frame, fixtures.random_hermitian_frame,
               cli.fixture_from_doc):
        func(fn, "fixtures.build", reentrant=False)

    rec.suites = sorted({c.suite for c in registry.REGISTRY})
    gate_ids: dict[int, int] = {}
    for chk in registry.REGISTRY:
        s = rec.suites.index(chk.suite)
        rec.checks.append(chk.name)
        chk.run = rec.span(chk.run, "registry.run", suite=s, tag=len(rec.checks) - 1)
        if chk.gate is not None:
            g = gate_ids.setdefault(id(chk.gate), len(gate_ids))
            if g == len(rec.gates):
                rec.gates.append(chk.gate.__qualname__)
            chk.gate = rec.span(chk.gate, "registry.gate", suite=s, tag=g)

    func(structures.classify, "structures.classify")
    func(structures.almost_cosymplectic_residual, "structures.acs_residual")
    func(cosymplectic.a_tensors, "cosymplectic.a_tensors")
    func(curvature.riemann, "curvature.riemann")
    func(report.build_report, "report.build")

    render = rec.span(report.render_json, "report.render")

    def render_counted(doc):
        text = render(doc)
        rec.rendered_bytes += len(text)
        return text

    _rebind(report.render_json, render_counted)
    return rec


def write(rec: Recorder, spans_path: str, summary_path: str, extra: dict) -> None:
    rec.save(spans_path)
    doc = rec.summary()
    doc.update(extra)
    with open(summary_path, "w") as f:
        json.dump(doc, f)
