import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statgeo import registry as reg
from statgeo.connections import Conjugate, LeviCivita, MeanConnection, random_statistical
from statgeo.cosymplectic import a_tensors, builtin_fixture
from helpers import nabla_a, nabla_operator_columns
from statgeo.curvature import a_jet, h_tensors, ricci, riemann
from statgeo.fixtures import random_contact_frame, random_hermitian_frame
from statgeo.frame import Manifold, sample_points
from statgeo.structures import nabla_operator

NAMES = [c.name for c in reg.REGISTRY if c.suite == "curvature"]
GATED_CLASS = {"CURV-R03", "CURV-R04", "CURV-R06", "CURV-KLM", "CURV-b4"}
GATED_REEB = {"CURV-RZZ", "CURV-SZZ"}


def run_suite(fix, n_points=8, seed=7, tol=1e-9):
    ctxs = fix.sample_contexts(n_points, seed)
    return {r.name: r for r in reg.run_all(fix, ctxs, tol, names=NAMES)}


def test_riemann_vanishes_on_flat_tables():
    fix = builtin_fixture("flat-cosymplectic")
    for ctx in fix.sample_contexts(4, 0):
        assert reg.abs_max(riemann(ctx, fix.nabla)) < 1e-14
        assert reg.abs_max(ricci(ctx, fix.nabla)) < 1e-14


def test_variant_2_reeb_curvature_columns():
    # hand expansion: nabla_{E0}E0 = 0, nabla_{E1}E0 = E1, [E1,E0] = E1,
    # so R(E1,E0)E0 = -nabla_{E1}E0 = -E1; the star twin runs through
    # nabla*_{E2}E0 = -E2 and [E2,E0] = -E2.
    fix = builtin_fixture("dacko-variant-2")
    ctx = fix.sample_contexts(1, 5)[0]
    R = riemann(ctx, fix.nabla)[0]
    Rs = riemann(ctx, fix.nabla_star)[0]
    np.testing.assert_allclose(R[1, 0, 0], [0, -1, 0], atol=1e-12)
    np.testing.assert_allclose(Rs[2, 0, 0], [0, 0, -1], atol=1e-12)
    # antisymmetry in the first pair
    assert reg.abs_max(R + R.transpose(1, 0, 2, 3)) < 1e-12


def test_variant_2_ricci_sums():
    fix = builtin_fixture("dacko-variant-2")
    for ctx in fix.sample_contexts(5, 9):
        s = ricci(ctx, fix.nabla)[0, 0, 0]
        ss = ricci(ctx, fix.nabla_star)[0, 0, 0]
        assert abs(s + 2.0) < 1e-12 and abs(ss + 2.0) < 1e-12
        A, As, _ = (a[0] for a in a_tensors(fix, ctx))
        assert abs(s + ss + np.trace(A @ A + As @ As)) < 1e-12


def test_h_tensors_flat_and_dacko():
    flat = builtin_fixture("flat-cosymplectic")
    ctx = flat.sample_contexts(1, 1)[0]
    for op in h_tensors(flat, ctx):
        assert reg.abs_max(op) < 1e-14

    fix = builtin_fixture("dacko-variant-1")
    ctx = fix.sample_contexts(1, 2)[0]
    h0, h, hs = (a[0] for a in h_tensors(fix, ctx))
    np.testing.assert_allclose(h0[:, 1], [0, 0, 1], atol=1e-13)  # h0 E1 = E2
    A0 = a_tensors(fix, ctx)[2][0]
    P = fix.contact.phi(ctx).val[0]
    assert reg.abs_max(h0 - A0 @ P) < 1e-13

    v2 = builtin_fixture("dacko-variant-2")
    ctx = v2.sample_contexts(1, 3)[0]
    h0, h, hs = h_tensors(v2, ctx)
    assert reg.abs_max(h - hs) < 1e-14 and reg.abs_max(h - h0) < 1e-14


def test_mean_pair_matches_levi_civita_curvature():
    fix = builtin_fixture("dacko-variant-1").with_random_statistical(5)
    lc = LeviCivita()
    star = Conjugate(lc)
    mean = MeanConnection(fix.nabla, fix.nabla_star)
    for ctx in fix.sample_contexts(4, 4):
        R0 = riemann(ctx, mean)
        assert reg.abs_max(R0 - riemann(ctx, fix.lc)) < 1e-12
        # degenerate pair: all three evaluators coincide
        assert reg.abs_max(riemann(ctx, lc) - riemann(ctx, star)) < 1e-12
        assert (
            reg.abs_max(riemann(ctx, lc) - riemann(ctx, MeanConnection(lc, star)))
            < 1e-12
        )


def test_operator_derivative_implementations_agree():
    fix = builtin_fixture("dacko-variant-1").with_random_statistical(8)
    for ctx in fix.sample_contexts(6, 6):
        xi = fix.contact.xi(ctx)
        for conn in (fix.nabla, fix.nabla_star):
            A = a_jet(ctx, conn, xi)
            one = nabla_operator(ctx, fix.nabla, A)
            two = nabla_operator_columns(ctx, fix.nabla, A)
            assert reg.abs_max(one - two) < 1e-12
            nabla_a(ctx, fix.nabla, A)  # built-in tie must not raise


@pytest.mark.parametrize(
    "fix",
    [
        builtin_fixture("dacko-variant-1").with_random_statistical(4),
        builtin_fixture("sasakian-r3"),
        random_contact_frame(3),
        random_hermitian_frame(5),
    ],
    ids=lambda f: f.name,
)
def test_ricci_agrees_with_frame_contraction(fix):
    # the orthonormal-frame trace against the plain contraction R[i][j][k][i]
    ctxs = fix.sample_contexts(6, 11)
    for conn in (fix.nabla, fix.nabla_star, fix.lc):
        S = ricci(ctxs, conn)
        tie = np.einsum("...ijki->...jk", riemann(ctxs, conn))
        assert reg.abs_max(S - tie) <= 1e-12 * (1.0 + reg.abs_max(S))


def test_ricci_trace_with_nonorthonormal_metric():
    m = Manifold(
        ("t", "x", "y"),
        [[1, 0, 0], [0, "exp(-t)", "0.2*x"], [0, 0, "exp(t)"]],
        [[1, "0.1*x", 0], ["0.1*x", "1 + x^2", 0], [0, 0, "exp(0.4*t)"]],
    )
    nabla, nabla_star = random_statistical(m, 6)
    ctxs = m.contexts(sample_points(3, [(-1, 1)] * 3, 6, seed=2))
    for conn in (nabla, nabla_star):
        S = ricci(ctxs, conn)
        tie = np.einsum("...ijki->...jk", riemann(ctxs, conn))
        assert reg.abs_max(S - tie) <= 1e-12 * (1.0 + reg.abs_max(S))


CASES = {
    "dacko-variant-1": GATED_REEB,
    "dacko-variant-2": set(),
    "flat-cosymplectic": set(),
    "product-flat": set(),
    "kenmotsu-model": GATED_CLASS | GATED_REEB,
    "sasakian-r3": GATED_CLASS | GATED_REEB,
}


@pytest.mark.parametrize("name,unmet", sorted(CASES.items()))
def test_suite_statuses(name, unmet):
    res = run_suite(builtin_fixture(name))
    assert set(res) == set(NAMES)
    for r in res.values():
        want = reg.HYPOTHESIS_UNMET if r.name in unmet else reg.PASS
        assert r.status == want, (r.name, r.status, r.notes)
    if name == "dacko-variant-1":
        assert "not satisfied" in res["CURV-RZZ"].notes
        assert res["CURV-RZZ"].hypothesis_residual > 0.5  # A xi = -E0
    if name in ("dacko-variant-1", "dacko-variant-2"):
        assert "co-vanishing family" in res["CURV-KLM"].notes


def test_random_statistical_keeps_gated_reeb_out():
    res = run_suite(builtin_fixture("dacko-variant-2").with_random_statistical(1))
    for r in res.values():
        want = reg.HYPOTHESIS_UNMET if r.name in GATED_REEB else reg.PASS
        assert r.status == want, (r.name, r.status)


def test_product_flat_entire_registry_at_1e12():
    fix = builtin_fixture("product-flat")
    ctxs = fix.sample_contexts(8, 2)
    for r in reg.run_all(fix, ctxs, 1e-12):
        if r.status == reg.SKIPPED:
            assert "lacks hermitian" in r.notes
        else:
            assert r.status == reg.PASS, (r.name, r.status, r.max_residual)


def test_antisymmetry_on_hermitian_frames():
    fix = random_hermitian_frame(11)
    res = run_suite(fix)
    assert res["CURV-ANTISYM"].status == reg.PASS
    # contact-bound checks skip, they do not fail
    assert res["CURV-R0"].status == reg.SKIPPED


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_unconditional_checks_on_random_contact_frames(seed):
    fix = random_contact_frame(seed)
    res = run_suite(fix, n_points=4, seed=seed % 89)
    for name in ("CURV-ANTISYM", "CURV-R0", "CURV-R00", "CURV-R05", "CURV-b3"):
        assert res[name].status == reg.PASS, (name, res[name].max_residual)
