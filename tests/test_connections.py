import numpy as np
import pytest

from statgeo.frame import GeometryError, Manifold, sample_points
from statgeo.connections import (
    Conjugate,
    ExprConnection,
    LeviCivita,
    SymmetricCubic,
    check_dualistic,
    conjugate,
    difference_jet,
    dualistic_residual,
    lower,
    random_statistical,
    torsion,
)

COORDS3 = ("t", "x", "y")

WARPED = Manifold(
    COORDS3,
    [[1, 0, 0], [0, "exp(-t)", 0], [0, 0, "exp(t)"]],
    np.eye(3).tolist(),
)

BOX3 = [(-1.0, 1.0)] * 3


def warped_pair():
    """A known dualistic pair on the warped frame, written out entrywise.

    G[i][j][k] is the coefficient of E_k in nabla_{E_i} E_j; the conjugate
    table below was produced independently and is used as an oracle.
    """
    G = np.zeros((3, 3, 3))
    G[0, 0, 0] = 1
    G[0, 1, 2] = 1
    G[0, 2, 1] = 1
    G[1, 0, 1] = 1
    G[1, 0, 2] = 1
    G[1, 1, 0] = -1
    G[1, 1, 2] = 1
    G[1, 2, 0] = 1
    G[1, 2, 1] = 1
    G[2, 0, 1] = 1
    G[2, 0, 2] = -1
    G[2, 1, 0] = 1
    G[2, 1, 1] = 1
    G[2, 2, 0] = 1
    G[2, 2, 2] = 1

    Gs = np.zeros((3, 3, 3))
    Gs[0, 0, 0] = -1
    Gs[0, 1, 2] = -1
    Gs[0, 2, 1] = -1
    Gs[1, 0, 1] = 1
    Gs[1, 0, 2] = -1
    Gs[1, 1, 0] = -1
    Gs[1, 1, 2] = -1
    Gs[1, 2, 0] = -1
    Gs[1, 2, 1] = -1
    Gs[2, 0, 1] = -1
    Gs[2, 0, 2] = -1
    Gs[2, 1, 0] = -1
    Gs[2, 1, 1] = -1
    Gs[2, 2, 0] = 1
    Gs[2, 2, 2] = -1
    return G, Gs


def expr_conn(G):
    return ExprConnection(G.tolist(), COORDS3)


# ---------------------------------------------------------------------------
# the metric connection


def test_levi_civita_on_warped_frame():
    # worked out by hand from the Koszul formula with g = Id and
    # [E0,E1] = -E1, [E0,E2] = E2
    want = np.zeros((3, 3, 3))
    want[1, 1, 0] = -1
    want[1, 0, 1] = 1
    want[2, 2, 0] = 1
    want[2, 0, 2] = -1
    ctx = WARPED.contexts([[0.7, -0.2, 0.4]])
    G0 = LeviCivita().jet(ctx).val
    assert np.max(np.abs(G0 - want)) <= 1e-12


def test_levi_civita_coordinate_oracle():
    # identity frame, g = diag(1, e^{2t}, 1): the only nonzero coefficients
    # are G[0,1,1] = G[1,0,1] = 1 and G[1,1,0] = -e^{2t}
    m = Manifold(COORDS3, np.eye(3).tolist(), [[1, 0, 0], [0, "exp(2*t)", 0], [0, 0, 1]])
    t = 0.3
    ctx = m.contexts([[t, 0.1, -0.5]])
    G0 = LeviCivita().jet(ctx).val
    want = np.zeros((3, 3, 3))
    want[0, 1, 1] = 1.0
    want[1, 0, 1] = 1.0
    want[1, 1, 0] = -np.exp(2 * t)
    assert np.max(np.abs(G0 - want)) <= 1e-12


def test_levi_civita_gradient_matches_finite_differences():
    m = Manifold(
        COORDS3,
        [[1, "0.2*sin(x)", 0], [0, "exp(0.3*t)", "0.1*y"], ["0.2*x", 0, 1]],
        [[1, "0.1*x", 0], ["0.1*x", "1 + 0.5*x^2", 0], [0, 0, "exp(0.4*t)"]],
    )
    lc = LeviCivita()
    x0 = np.array([0.2, -0.4, 0.6])
    dG = lc.jet(m.contexts([x0])).grad
    h = 1e-6
    for b in range(3):
        hi, lo = x0.copy(), x0.copy()
        hi[b] += h
        lo[b] -= h
        fd = (lc.jet(m.contexts([hi])).val - lc.jet(m.contexts([lo])).val) / (2 * h)
        assert np.max(np.abs(dG[..., b] - fd)) <= 1e-6


def test_metric_connection_properties():
    m = Manifold(
        COORDS3,
        [[1, 0, 0], [0, "exp(-t)", "0.2*x"], [0, 0, "exp(t)"]],
        [[1, 0, 0], [0, "1 + x^2", 0], [0, 0, 1]],
    )
    lc = LeviCivita()
    for pt in sample_points(3, BOX3, 8, seed=11):
        ctx = m.contexts([pt])
        assert np.max(np.abs(torsion(ctx, lc))) <= 1e-12
        G0 = lc.jet(ctx).val[0]
        g = ctx.g.val[0]
        nabla_g = (
            ctx.Eg.val[0]
            - np.einsum("ijm,mk->ijk", G0, g)
            - np.einsum("ikm,jm->ijk", G0, g)
        )
        assert np.max(np.abs(nabla_g)) <= 1e-12
        # a metric connection is self-conjugate
        assert dualistic_residual(ctx, lc, lc) <= 1e-12


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_of_known_pair():
    G, Gs = warped_pair()
    got = Conjugate(expr_conn(G))
    for pt in sample_points(3, BOX3, 10, seed=5):
        ctx = WARPED.contexts([pt])
        assert np.max(np.abs(got.jet(ctx).val - Gs)) <= 1e-12


def test_conjugation_is_an_involution():
    G, _ = warped_pair()
    nabla = expr_conn(G)
    back = Conjugate(Conjugate(nabla))
    for pt in sample_points(3, BOX3, 10, seed=6):
        ctx = WARPED.contexts([pt])
        assert np.max(np.abs(back.jet(ctx).val - G)) <= 1e-12


def test_known_pair_is_dualistic():
    G, Gs = warped_pair()
    pts = sample_points(3, BOX3, 20, seed=42)
    assert check_dualistic(WARPED, expr_conn(G), expr_conn(Gs), pts) <= 1e-9


def test_corrupted_pair_fails():
    G, Gs = warped_pair()
    Gs = Gs.copy()
    Gs[1, 1, 0] += 0.5
    pts = sample_points(3, BOX3, 20, seed=42)
    assert check_dualistic(WARPED, expr_conn(G), expr_conn(Gs), pts) > 0.1


def test_difference_tensor_of_known_pair():
    # K = nabla - nabla0, checked entrywise against a hand expansion
    want = np.zeros((3, 3, 3))
    want[1, 1, 2] = 1
    want[2, 1, 1] = 1
    want[2, 1, 0] = 1
    want[0, 1, 2] = 1
    want[1, 2, 1] = 1
    want[1, 2, 0] = 1
    want[2, 2, 2] = 1
    want[0, 2, 1] = 1
    want[1, 0, 2] = 1
    want[2, 0, 1] = 1
    want[0, 0, 0] = 1
    G, _ = warped_pair()
    ctx = WARPED.contexts([[0.1, 0.9, -0.6]])
    K = difference_jet(ctx, expr_conn(G), LeviCivita())
    assert np.max(np.abs(K.val - want)) <= 1e-12
    C = lower(ctx, K.val)[0]
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.max(np.abs(C - C.transpose(perm))) <= 1e-12


# ---------------------------------------------------------------------------
# random statistical pairs


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 123])
def test_random_statistical_pair_is_statistical(seed):
    m = Manifold(
        COORDS3,
        [[1, 0, 0], [0, "exp(-t)", 0], [0, 0, "exp(t)"]],
        [[1, 0, 0], [0, "1 + 0.5*x^2", 0], [0, 0, 1]],
    )
    nabla, nabla_star = random_statistical(m, seed)
    for pt in sample_points(3, BOX3, 5, seed=1000 + seed):
        ctx = m.contexts([pt])
        assert dualistic_residual(ctx, nabla, nabla_star) <= 1e-9
        assert np.max(np.abs(torsion(ctx, nabla))) <= 1e-12
        assert np.max(np.abs(torsion(ctx, nabla_star))) <= 1e-12
        K = difference_jet(ctx, nabla, LeviCivita())
        assert np.max(np.abs(K.val[0] - K.val[0].transpose(1, 0, 2))) <= 1e-12
        Ks = difference_jet(ctx, nabla_star, LeviCivita())
        assert np.max(np.abs(K.val + Ks.val)) <= 1e-12


def test_random_statistical_is_seeded():
    a1, _ = random_statistical(WARPED, 5)
    a2, _ = random_statistical(WARPED, 5)
    b, _ = random_statistical(WARPED, 6)
    assert np.array_equal(a1.cubic.C, a2.cubic.C)
    assert not np.array_equal(a1.cubic.C, b.cubic.C)
    assert np.max(np.abs(a1.cubic.C)) <= 0.5


def test_random_statistical_scale():
    a, _ = random_statistical(WARPED, 5, scale=0.01)
    assert 0 < np.max(np.abs(a.cubic.C)) <= 0.01


def test_asymmetric_cubic_rejected():
    C = np.zeros((3, 3, 3))
    C[0, 1, 2] = 1.0
    with pytest.raises(GeometryError, match="symmetric"):
        SymmetricCubic(C)


def test_bad_connection_shape_rejected():
    with pytest.raises(GeometryError, match="cubical"):
        ExprConnection([[1, 0], [0, 1]], ("t", "x"))


def test_conjugate_against_nonflat_metric():
    # conjugation must use the metric, not just transpose tables
    m = Manifold(
        COORDS3,
        np.eye(3).tolist(),
        [[1, 0, 0], [0, "exp(2*t)", 0], [0, 0, 1]],
    )
    nabla, nabla_star = random_statistical(m, 3)
    star2 = conjugate(nabla)
    for pt in sample_points(3, BOX3, 6, seed=8):
        ctx = m.contexts([pt])
        assert np.max(np.abs(star2.jet(ctx).val - nabla_star.jet(ctx).val)) <= 1e-10
