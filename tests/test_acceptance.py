"""Acceptance gate: one test per top-level criterion, each announcing a
single PASS/FAIL line.  Tolerances are stated inline next to each criterion.
"""

import json
import random

import numpy as np
import pytest

from helpers import fd_partial, nabla_operator_columns, random_expr, random_point
from statgeo import expr as ex
from statgeo import registry as reg
from statgeo.cli import main as cli_main
from statgeo.connections import Conjugate, check_dualistic, difference_jet
from statgeo.cosymplectic import a_tensors, builtin_fixture, product_construct
from statgeo.curvature import _chk_rzz, _k_xi_phi, a_jet, ricci
from statgeo.fixtures import builtin_base
from statgeo.frame import sample_points
from statgeo.structures import classify, nabla_operator


@pytest.fixture
def announce(capsys):
    # the line must land in the live pytest stream, not the captured buffer
    def go(num: int, label: str, ok: bool):
        with capsys.disabled():
            print(f"[ACCEPTANCE {num}] {label}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion {num} ({label}) failed"

    return go


def _vec(k: int, coeff: float = 1.0) -> np.ndarray:
    v = np.zeros(3)
    v[k] = coeff
    return v


def test_criterion_1_table_reproduction(announce):
    # metric connection of the warped frame: only nonzero columns are
    # nabla0_{E1}E1 = -E0, nabla0_{E1}E0 = E1, nabla0_{E2}E2 = E0,
    # nabla0_{E2}E0 = -E2; every entry exact to 1e-12
    fix = builtin_fixture("dacko-variant-1")
    ctx = fix.sample_contexts(1, 0)[0]
    want_lc = np.zeros((3, 3, 3))
    want_lc[1, 1, 0] = -1
    want_lc[1, 0, 1] = 1
    want_lc[2, 2, 0] = 1
    want_lc[2, 0, 2] = -1
    ok = reg.abs_max(fix.lc.jet(ctx).val - want_lc) <= 1e-12

    # conjugating the declared nabla table must reproduce the declared
    # nabla_star table entrywise, residual <= 1e-9
    conj = Conjugate(fix.nabla)
    for c in fix.sample_contexts(6, 1):
        ok = ok and reg.abs_max(conj.jet(c).val - fix.nabla_star.jet(c).val) <= 1e-9

    # difference tensor, entry by entry
    want_k = np.zeros((3, 3, 3))
    want_k[0, 0] = _vec(0)
    want_k[0, 1] = _vec(2)
    want_k[0, 2] = _vec(1)
    want_k[1, 0] = _vec(2)
    want_k[1, 1] = _vec(2)
    want_k[1, 2] = _vec(0) + _vec(1)
    want_k[2, 0] = _vec(1)
    want_k[2, 1] = _vec(0) + _vec(1)
    want_k[2, 2] = _vec(2)
    K = difference_jet(ctx, fix.nabla, fix.lc).val
    ok = ok and reg.abs_max(K - want_k) <= 1e-12
    announce(1, "connection table reproduction", ok)


def test_criterion_2_dualistic_validity(announce):
    ok = True
    for name in ("dacko-variant-1", "dacko-variant-2"):
        fix = builtin_fixture(name)
        pts = sample_points(fix.manifold.dim, fix.box, 20, 42)
        ok = ok and check_dualistic(fix.manifold, fix.nabla, fix.nabla_star, pts) <= 1e-9
    announce(2, "dualistic pairs on both variants", ok)


def test_criterion_3_unconditional_identity_catalogue(announce):
    names = reg.unconditional_names()
    assert len(names) >= 25
    fixtures = [
        builtin_fixture("dacko-variant-1"),
        builtin_fixture("dacko-variant-2"),
        builtin_fixture("flat-cosymplectic"),
        product_construct(builtin_base("flat-kaehler-r2"), "sin(t)", name="product-warped"),
    ]
    ok = True
    for base in fixtures:
        for seed in range(5):
            fix = base.with_random_statistical(seed)
            ctxs = fix.sample_contexts(20, 100 + seed)
            for r in reg.run_all(fix, ctxs, 1e-9, names=names):
                if r.status == reg.SKIPPED:
                    ok = ok and "fixture lacks" in r.notes
                else:
                    ok = ok and r.status == reg.PASS and r.max_residual <= 1e-9
    announce(3, "unconditional identities, 4 fixtures x 5 seeds x 20 points", ok)


def test_criterion_4_reeb_curvature_on_variant_2(announce):
    fix = builtin_fixture("dacko-variant-2")
    ctxs = fix.sample_contexts(20, 42)
    hyp = 0.0
    rzz = 0.0
    ok = True
    for ctx in ctxs:
        A, As, _ = (a[0] for a in a_tensors(fix, ctx))
        xiv = fix.contact.xi(ctx).val[0]
        hyp = max(hyp, reg.abs_max(_k_xi_phi(fix, ctx)), reg.abs_max(A @ xiv))
        rzz = max(rzz, _chk_rzz(fix, ctx))
        # oracle: the direct frame curvature computation gives
        # S(xi,xi) = S*(xi,xi) = -2 (sum of R(E1,E0)E0 = -E1 and the twin),
        # and tr(A^2 + A*^2) = 4 from A = A* = diag(0,-1,1)
        s = ricci(ctx, fix.nabla)[0, 0, 0] + ricci(ctx, fix.nabla_star)[0, 0, 0]
        tr = -np.trace(A @ A + As @ As)
        ok = ok and abs(s + 4.0) <= 1e-9 and abs(tr + 4.0) <= 1e-9 and abs(s - tr) <= 1e-9
    ok = ok and hyp <= 1e-12 and rzz <= 1e-9
    announce(4, "Reeb curvature theorem on variant 2", ok)


def test_criterion_5_hypothesis_gating(announce, capsys):
    fix = builtin_fixture("dacko-variant-1")
    ctxs = fix.sample_contexts(20, 42)
    res = {r.name: r for r in reg.run_all(fix, ctxs, 1e-9, names=["CURV-RZZ", "CURV-SZZ"])}
    ok = all(res[n].status == reg.HYPOTHESIS_UNMET for n in ("CURV-RZZ", "CURV-SZZ"))
    code = cli_main(["check", "--builtin", "dacko-variant-1", "--points", "8"])
    capsys.readouterr()
    ok = ok and code == 0
    announce(5, "gated checks report hypothesis-unmet, exit 0", ok)


def test_criterion_6_classification(announce):
    ok = True
    for name in ("dacko-variant-1", "dacko-variant-2"):
        fix = builtin_fixture(name)
        flags = classify(fix, fix.sample_contexts(20, 42), 1e-9)["contact"]["flags"]
        ok = ok and flags["almost_cosymplectic"] and not flags["cosymplectic"]
    flat = builtin_fixture("flat-cosymplectic")
    ok = ok and classify(flat, flat.sample_contexts(20, 42), 1e-9)["contact"]["flags"]["cosymplectic"]
    ken = builtin_fixture("kenmotsu-model")
    ok = ok and classify(ken, ken.sample_contexts(20, 42), 1e-9)["contact"]["flags"]["almost_kenmotsu"]
    announce(6, "structure classification flags", ok)


def test_criterion_7_oracle_cross_checks(announce):
    # symbolic derivatives against central finite differences on 100 seeded
    # random expressions in three variables
    coords = ("t", "x", "y")
    ok = True
    for seed in range(100):
        rng = random.Random(seed)
        e = random_expr(rng, coords, depth=4)
        env = random_point(rng, coords)
        for v in coords:
            sym = ex.eval_expr(ex.diff(e, v), env)
            fd = fd_partial(e, env, v)
            ok = ok and abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))

    # operator covariant derivative: product-rule route vs column route
    fix = builtin_fixture("dacko-variant-1").with_random_statistical(13)
    for ctx in fix.sample_contexts(10, 7):
        xi = fix.contact.xi(ctx)
        for conn in (fix.nabla, fix.nabla_star):
            A = a_jet(ctx, conn, xi)
            one = nabla_operator(ctx, fix.nabla, A)
            two = nabla_operator_columns(ctx, fix.nabla, A)
            ok = ok and reg.abs_max(one - two) <= 1e-9

    # conjugation is an involution
    for name in ("dacko-variant-1", "dacko-variant-2"):
        f = builtin_fixture(name)
        twice = Conjugate(Conjugate(f.nabla))
        for ctx in f.sample_contexts(10, 3):
            ok = ok and reg.abs_max(twice.jet(ctx).val - f.nabla.jet(ctx).val) <= 1e-9
    announce(7, "derivative, operator-derivative and conjugation oracles", ok)


def test_criterion_8_deterministic_reports(announce, capsys):
    ok = True
    for argv in (
        ["check", "--builtin", "dacko-variant-2", "--points", "12", "--seed", "9"],
        ["check", "--builtin", "product-flat", "--points", "8"],
    ):
        cli_main(argv)
        first = capsys.readouterr().out
        cli_main(argv)
        second = capsys.readouterr().out
        ok = ok and first == second and bool(json.loads(first))
    announce(8, "byte-identical repeated reports", ok)
