"""Structure tensors, classification, and the phi/J identity suites."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import flat_kaehler_holomorphic
from statgeo import registry as reg
from statgeo.connections import LeviCivita, ShiftedConnection, SymmetricCubic
from statgeo.fixtures import (
    Fixture,
    builtin_base,
    random_contact_frame,
    random_hermitian_frame,
)
from statgeo.frame import GeometryError, Manifold
from statgeo.structures import (
    AlmostContactStructure,
    AlmostHermitianStructure,
    classify,
    fundamental_form,
    n1_tensor,
    nabla_2form,
    nabla_covector,
    nabla_operator,
    nabla_vector,
    nijenhuis,
    op_lower,
)

TOL = 1e-9


def run_suite(fix, suites, n_points=8, seed=42, tol=TOL):
    ctxs = fix.sample_contexts(n_points, seed)
    names = {c.name for c in reg.REGISTRY if c.suite in suites}
    out = {}
    for r in reg.run_all(fix, ctxs, tol, names=names):
        if r.status == reg.SKIPPED and "fixture lacks" in (r.notes or ""):
            continue
        out[r.name] = r
    return out


def test_structure_shape_validation():
    with pytest.raises(GeometryError):
        AlmostContactStructure([[0, 0], [0, 0]], [1, 0, 0], [1, 0, 0], ("t", "x", "y"))
    with pytest.raises(GeometryError):
        AlmostHermitianStructure([[0, 1, 0], [-1, 0, 0]], ("x", "y"))


# ---------------------------------------------------------------------------
# Nijenhuis torsion oracles


def test_normality_tensor_slots_on_dacko():
    """The non-normality of the solvable model sits in the Reeb slots: the
    (E1,E2) component vanishes while N^(1)(E0,E1) = 2E1 and
    N^(1)(E0,E2) = -2E2."""
    fix = builtin_base("dacko-variant-1")
    (ctx,) = fix.sample_contexts(1, 0)
    N1 = n1_tensor(ctx, fix.contact)[0]
    assert np.allclose(N1[0, 1], [0.0, 2.0, 0.0], atol=1e-12)
    assert np.allclose(N1[0, 2], [0.0, 0.0, -2.0], atol=1e-12)
    assert np.allclose(N1[1, 2], 0.0, atol=1e-12)


def test_nijenhuis_heisenberg_pair():
    fix = builtin_base("heisenberg-almost-kaehler")
    (ctx,) = fix.sample_contexts(1, 1)
    N = nijenhuis(ctx, fix.hermitian.J(ctx))[0]
    # the only bracket is [E1,E2] = E3 and J decouples it from its J-image
    assert np.allclose(N[0, 1], [0.0, 0.0, -1.0, 0.0], atol=1e-12)

    fix = builtin_base("heisenberg-hermitian")
    (ctx,) = fix.sample_contexts(1, 1)
    assert np.allclose(nijenhuis(ctx, fix.hermitian.J(ctx)), 0.0, atol=1e-12)


def test_fundamental_form_orientation():
    fix = builtin_base("kenmotsu-model")
    (ctx,) = fix.sample_contexts(1, 2)
    Phi = fundamental_form(ctx, fix.contact.phi(ctx)).val
    assert np.allclose(Phi, [[0, 0, 0], [0, 0, 1], [0, -1, 0]], atol=1e-12)


# ---------------------------------------------------------------------------
# covariant derivative materialisations agree across independent routes


@pytest.mark.parametrize("name", ["dacko-variant-1", "kenmotsu-model", "sasakian-r3"])
def test_operator_and_form_derivatives_agree_for_metric_connection(name):
    # lowering commutes with a metric connection, so (nabla0 Phi) computed as
    # a 2-form must equal g((nabla0 phi)., .) computed from the operator route
    fix = builtin_base(name)
    for ctx in fix.sample_contexts(5, 3):
        P = fix.contact.phi(ctx)
        lhs = nabla_2form(ctx, fix.lc, fundamental_form(ctx, P))
        rhs = op_lower(ctx, nabla_operator(ctx, fix.lc, P))
        assert reg.rel_residual(lhs, rhs) < 1e-12


@pytest.mark.parametrize("points", [None, 3, 5])
def test_op_lower_takes_an_operator_or_a_family(points):
    # every table has one point axis, so the rank tells an operator from a
    # family, also on a batch of 3 points on a 3-manifold (None: one point)
    fix = builtin_base("dacko-variant-1")
    ctx = fix.manifold.contexts([[0.1, 0.2, 0.3]]) if points is None else fix.sample_contexts(points, 1)
    rng = np.random.default_rng(0)
    P = rng.standard_normal(ctx.lead + (3, 3))
    NP = rng.standard_normal(ctx.lead + (3, 3, 3))
    g = ctx.g.val
    assert np.allclose(op_lower(ctx, P), np.einsum("...mi,...mj->...ij", P, g), rtol=0, atol=1e-14)
    assert np.allclose(op_lower(ctx, NP), np.einsum("...imj,...mk->...ijk", NP, g), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["dacko-variant-1", "kenmotsu-model", "sasakian-r3"])
def test_covector_and_vector_derivatives_agree(name, seed=4):
    fix = builtin_base(name)
    for ctx in fix.sample_contexts(5, seed):
        eta = fix.contact.eta(ctx)
        xi = fix.contact.xi(ctx)
        lhs = nabla_covector(ctx, fix.lc, eta)
        rhs = nabla_vector(ctx, fix.lc, xi) @ ctx.g.val
        assert reg.rel_residual(lhs, rhs) < 1e-12


# ---------------------------------------------------------------------------
# classification


CLASS_TABLE = {
    "dacko-variant-1": dict(
        almost_cosymplectic=True, almost_kenmotsu=False, contact_metric=False,
        normal=False, cosymplectic=False, kenmotsu=False, sasakian=False,
    ),
    "flat-cosymplectic": dict(
        almost_cosymplectic=True, normal=True, cosymplectic=True,
        contact_metric=False, sasakian=False,
    ),
    "kenmotsu-model": dict(
        almost_cosymplectic=False, almost_kenmotsu=True, normal=True,
        kenmotsu=True, cosymplectic=False, contact_metric=False,
    ),
    "sasakian-r3": dict(
        almost_cosymplectic=False, almost_kenmotsu=False, contact_metric=True,
        normal=True, sasakian=True,
    ),
}


@pytest.mark.parametrize("name", sorted(CLASS_TABLE))
def test_classify_contact_builtins(name):
    fix = builtin_base(name)
    out = classify(fix, fix.sample_contexts(10, 6), TOL)
    flags = out["contact"]["flags"]
    for key, expected in CLASS_TABLE[name].items():
        assert flags[key] is expected, (name, key, out["contact"]["residuals"])


HERM_CLASS_TABLE = {
    "flat-kaehler-r2": dict(almost_kaehler=True, kaehler=True),
    "heisenberg-almost-kaehler": dict(almost_kaehler=True, kaehler=False),
    "heisenberg-hermitian": dict(almost_kaehler=False, kaehler=False),
}


@pytest.mark.parametrize("name", sorted(HERM_CLASS_TABLE))
def test_classify_hermitian_builtins(name):
    fix = builtin_base(name)
    out = classify(fix, fix.sample_contexts(10, 6), TOL)
    assert out["hermitian"]["flags"] == HERM_CLASS_TABLE[name]


def test_classify_without_structures_is_none():
    man = Manifold(("u", "v"), np.eye(2), np.eye(2))
    fix = Fixture(name="bare", manifold=man)
    assert classify(fix, fix.sample_contexts(2, 0), TOL) is None


# ---------------------------------------------------------------------------
# identity suites


@pytest.mark.parametrize(
    "name", ["dacko-variant-1", "dacko-variant-2", "flat-cosymplectic",
             "kenmotsu-model", "sasakian-r3"]
)
def test_contact_suites_pass_on_builtins(name):
    res = run_suite(builtin_base(name), {"structure", "almost-contact"})
    assert res, "no checks selected"
    for r in res.values():
        assert r.status == reg.PASS, (r.name, r.status, r.max_residual, r.notes)


@pytest.mark.parametrize("seed", [0, 1, 2, 9])
def test_contact_suites_pass_on_random_frames(seed):
    """Random frame, random statistical pair: every almost-contact identity
    holds with dη, dΦ, N^(1), and the Lie terms all generically nonzero."""
    res = run_suite(random_contact_frame(seed), {"structure", "almost-contact"})
    for r in res.values():
        assert r.status == reg.PASS, (r.name, r.status, r.max_residual)


@pytest.mark.parametrize("seed", [0, 3])
def test_hermitian_unconditional_pass_on_random_frames(seed):
    fix = random_hermitian_frame(seed)
    res = run_suite(fix, {"structure", "hermitian"})
    gated = {"HERM-AZIZ8", "HERM-AZIZ9", "HERM-AZIZ81", "HERM-AZIZ82",
             "HERM-AZIZ10", "HERM-AZIZ11", "HOLO-EQUIV", "HOLO-DEFECT"}
    for r in res.values():
        if r.name in gated:
            continue
        assert r.status == reg.PASS, (r.name, r.status, r.max_residual)
    # generic frames are not almost Kaehler, not Kaehler, not declared anything
    assert res["HERM-AZIZ8"].status == reg.HYPOTHESIS_UNMET
    assert res["HERM-AZIZ8"].hypothesis_residual > 1e-3
    assert res["HERM-AZIZ10"].status == reg.HYPOTHESIS_UNMET
    assert "not declared kaehler" in res["HERM-AZIZ10"].notes
    assert res["HOLO-DEFECT"].status == reg.SKIPPED
    assert "residual if graded" in res["HOLO-DEFECT"].notes


def test_gated_hermitian_checks_on_heisenberg_models():
    fix = builtin_base("heisenberg-almost-kaehler").with_random_statistical(3)
    res = run_suite(fix, {"hermitian"})
    for name in ("HERM-AZIZ8", "HERM-AZIZ9", "HERM-AZIZ81", "HERM-AZIZ82"):
        assert res[name].status == reg.PASS, (name, res[name])
    assert res["HERM-AZIZ10"].status == reg.HYPOTHESIS_UNMET

    fix = builtin_base("heisenberg-hermitian").with_random_statistical(3)
    res = run_suite(fix, {"hermitian"})
    for name in ("HERM-AZIZ8", "HERM-AZIZ9", "HERM-AZIZ81", "HERM-AZIZ82"):
        assert res[name].status == reg.HYPOTHESIS_UNMET
        assert res[name].hypothesis_residual > 1e-3
    for name in ("HERM-AZIZ1", "HERM-AZIZ6", "HERM-AZIZY7", "CYCLIC-86"):
        assert res[name].status == reg.PASS, (name, res[name])


def test_holomorphic_family():
    fix = flat_kaehler_holomorphic(0.4, -0.25)
    res = run_suite(fix, {"hermitian"})
    for name in ("HERM-AZIZ10", "HERM-AZIZ11", "HOLO-EQUIV", "HOLO-DEFECT"):
        assert res[name].status == reg.PASS, (name, res[name])

    # a generic cubic is not holomorphic; the defect is still reported
    bumped = fix.with_random_statistical(5)
    res = run_suite(bumped, {"hermitian"})
    assert res["HOLO-DEFECT"].status == reg.SKIPPED
    assert "residual if graded" in res["HOLO-DEFECT"].notes
    for name in ("HERM-AZIZ10", "HERM-AZIZ11", "HOLO-EQUIV"):
        assert res[name].status == reg.PASS, (name, res[name])


_C_SLOTS = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2),
            (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]


def _cubic_from(vals):
    C = np.zeros((3, 3, 3))
    for (i, j, k), v in zip(_C_SLOTS, vals):
        for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            C[p] = v
    return C


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10))
def test_difference_tensor_identities_exact_for_any_cubic(vals):
    """On the flat model the first-derivative identities reduce to pure
    difference-tensor algebra, so they must hold to machine precision for an
    arbitrary totally symmetric cubic."""
    man = Manifold(("t", "x", "y"), np.eye(3), np.eye(3))
    lc = LeviCivita()
    cubic = SymmetricCubic(_cubic_from(vals))
    fix = Fixture(
        name="flat+cubic",
        manifold=man,
        nabla=ShiftedConnection(lc, cubic, 1.0),
        nabla_star=ShiftedConnection(lc, cubic, -1.0),
        contact=AlmostContactStructure(
            [[0, 0, 0], [0, 0, -1], [0, 1, 0]], [1, 0, 0], [1, 0, 0], man.coords
        ),
        lc=lc,
    )
    res = run_suite(fix, {"almost-contact"}, n_points=2, seed=7, tol=1e-12)
    for r in res.values():
        assert r.status == reg.PASS, (r.name, r.max_residual)
