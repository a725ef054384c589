"""Frame-change oracle: a report must not depend on the frame it is given in.

A constant invertible matrix A gives a second presentation of the same
geometry, with the frame E'_i = A[i][a] E_a.  Every table transforms by the
change of basis, with no derivative term because A is constant:

    F' = A F                     g' = A g A^T
    G'[i][j][k] = A[i][a] A[j][b] G[a][b][c] Ainv[c][k]   (ExprConnection)
    C'[i][j][k] = A[i][a] A[j][b] A[k][c] C[a][b][c]      (SymmetricCubic)
    P' = Ainv^T P A^T            (phi and J, in the P[k][j] convention)
    xi' = Ainv^T xi              eta' = A eta

`LeviCivita` and `Conjugate` are built from the context, so they stay as
they are.  The new cells are built with `expr.Num`, `expr.add` and
`expr.mul`, and the report runs at the same sample points.  Every check
must keep its status, the classification its flags and summary, and a
passing check's residual must stay at rounding level.

Every golden fixture has g = I, so g and its inverse are the same table and
the golden reports cannot tell them apart; here g' = A A^T is not the
identity.  product-flat is left out: its `ProductConnection` is given in a
frame that splits off d/dt, and a general A mixes d/dt into the base.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from statgeo import expr as ex
from statgeo import registry as reg
from statgeo.connections import (
    Conjugate,
    ExprConnection,
    LeviCivita,
    ShiftedConnection,
    SymmetricCubic,
)
from statgeo.fixtures import BASE_BUILTIN_NAMES, builtin_base
from statgeo.fixtures import random_contact_frame, random_hermitian_frame
from statgeo.frame import Manifold
from statgeo.report import build_report
from statgeo.structures import AlmostContactStructure, AlmostHermitianStructure

TOL = 1e-9
POINTS, SEED = 5, 11
# a passing residual in the new frame: rounding level, far below TOL
ROUNDING = 1e-12


def combine(A: np.ndarray, cells: np.ndarray, axis: int) -> np.ndarray:
    """The expression table whose `axis` is contracted with the rows of the
    constant A: out[..., i, ...] = sum_a A[i][a] cells[..., a, ...]."""
    cells = np.moveaxis(cells, axis, 0)
    out = np.empty(cells.shape, dtype=object)
    for i in range(len(A)):
        for idx in np.ndindex(cells.shape[1:]):
            term = ex.ZERO
            for a in range(len(A)):
                term = ex.add(term, ex.mul(ex.Num(float(A[i, a])), cells[(a,) + idx]))
            out[(i,) + idx] = term
    return np.moveaxis(out, 0, axis)


def change_frame(fix, A: np.ndarray):
    """fix presented in the frame E'_i = A[i][a] E_a."""
    Ainv = np.linalg.inv(A)
    man = fix.manifold
    coords = man.coords
    frame = combine(A, man.frame.exprs, 0)
    metric = combine(A, combine(A, man.metric.exprs, 0), 1)
    conns = {}

    def conn(c):
        if c is None or isinstance(c, LeviCivita):
            return c
        if c not in conns:
            conns[c] = _conn(c)
        return conns[c]

    def _conn(c):
        if isinstance(c, ExprConnection):
            G = combine(Ainv.T, combine(A, combine(A, c.exprs, 0), 1), 2)
            return ExprConnection(G.tolist(), coords)
        if isinstance(c, ShiftedConnection):
            C = np.einsum("ia,jb,kc,abc->ijk", A, A, A, c.cubic.C)
            return ShiftedConnection(conn(c.base), SymmetricCubic(C), c.sign)
        if isinstance(c, Conjugate):
            return Conjugate(conn(c.base))
        raise TypeError(f"no frame change for {type(c).__name__}")

    def operator(P):
        return combine(Ainv.T, combine(A, P.exprs, 1), 0).tolist()

    contact = hermitian = None
    if fix.contact is not None:
        ct = fix.contact
        contact = AlmostContactStructure(
            operator(ct.phi_table), combine(Ainv.T, ct.xi_table.exprs, 0).tolist(),
            combine(A, ct.eta_table.exprs, 0).tolist(), coords)
    if fix.hermitian is not None:
        hermitian = AlmostHermitianStructure(operator(fix.hermitian.J_table), coords)
    return replace(
        fix,
        manifold=Manifold(coords, frame.tolist(), metric.tolist()),
        nabla=conn(fix.nabla),
        nabla_star=conn(fix.nabla_star),
        contact=contact,
        hermitian=hermitian,
    )


def fixture(name: str, k_seed: int | None):
    if name.startswith("random-contact-"):
        fix = random_contact_frame(int(name.rsplit("-", 1)[1]))
    elif name.startswith("random-hermitian-"):
        fix = random_hermitian_frame(int(name.rsplit("-", 1)[1]))
    else:
        fix = builtin_base(name)
    return fix if k_seed is None else fix.with_random_statistical(k_seed)


NAMES = BASE_BUILTIN_NAMES + [f"random-{kind}-{s}" for kind in ("contact", "hermitian")
                              for s in range(1, 4)]
_REPORTS: dict = {}


def report(name: str, k_seed: int | None) -> dict:
    key = (name, k_seed)
    if key not in _REPORTS:
        _REPORTS[key] = build_report(fixture(name, k_seed), POINTS, SEED, TOL)
    return _REPORTS[key]


def assert_same_verdicts(want: dict, got: dict):
    assert got.get("classification_summary") == want.get("classification_summary")
    for kind, part in (want.get("classification") or {}).items():
        assert got["classification"][kind]["flags"] == part["flags"], kind
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    for mine, old in zip(got["checks"], want["checks"]):
        assert mine["status"] == old["status"], (old["name"], mine, old)
        if mine["status"] == reg.PASS:
            assert mine["max_residual"] <= ROUNDING, (old["name"], mine["max_residual"])


def frame_change(size: int, a_seed: int) -> np.ndarray:
    """I + 0.4 U(-1, 1), redrawn until its condition number is below 4."""
    rng = np.random.default_rng(a_seed)
    while True:
        A = np.eye(size) + 0.4 * rng.uniform(-1.0, 1.0, (size, size))
        if np.linalg.cond(A) < 4.0:
            return A


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    k_seed=st.one_of(st.none(), st.integers(0, 20)),
    a_seed=st.integers(0, 2**32 - 1),
)
def test_report_does_not_depend_on_the_frame(name, k_seed, a_seed):
    fix = fixture(name, k_seed)
    A = frame_change(fix.manifold.dim, a_seed)
    moved = change_frame(fix, A)
    ctx = moved.sample_contexts(POINTS, SEED)
    # the oracle's point: g is not its own inverse in the new frame
    assert np.max(np.abs(ctx.g.val - ctx.ginv.val)) > 1e-3
    assert_same_verdicts(report(name, k_seed), build_report(moved, POINTS, SEED, TOL))


def test_identity_change_keeps_the_report():
    fix = fixture("dacko-variant-1", None)
    moved = change_frame(fix, np.eye(3))
    assert build_report(moved, POINTS, SEED, TOL) == report("dacko-variant-1", None)
