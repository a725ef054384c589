import numpy as np
import pytest

from helpers import const_field, ext_d1_jet
from statgeo import expr as ex
from statgeo.frame import (
    ExprTable,
    GeometryError,
    Jet,
    Manifold,
    bracket,
    ext_d1,
    ext_d2,
    frame_field,
    jet_einsum,
    lie_metric,
    lie_operator,
    sample_points,
    wedge_1_2,
)

COORDS3 = ("t", "x", "y")

# warped frame E0 = d/dt, E1 = e^-t d/dx, E2 = e^t d/dy, metric = Id
WARPED = Manifold(
    COORDS3,
    [[1, 0, 0], [0, "exp(-t)", 0], [0, 0, "exp(t)"]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
)

# a frame with every machinery path active: off-diagonal entries, varying metric
MESSY = Manifold(
    COORDS3,
    [
        [1, "0.2*sin(x)", 0],
        ["0.1*t", "exp(0.3*t)", "0.3*x"],
        [0, "0.2*y", "1 + 0.5*cos(t)"],
    ],
    [
        [1, "0.1*x", 0],
        ["0.1*x", "1 + 0.5*x^2", 0],
        [0, 0, "exp(0.4*t)"],
    ],
)


def warped_ctx(t=0.3, x=-0.7, y=0.5):
    return WARPED.context([t, x, y])


# ---------------------------------------------------------------------------
# structure coefficients


def test_warped_brackets():
    ctx = warped_ctx()
    c = ctx.c.val
    # [E0, E1] = -E1, [E0, E2] = E2, [E1, E2] = 0
    assert np.allclose(c[0, 1], [0, -1, 0], atol=1e-14)
    assert np.allclose(c[0, 2], [0, 0, 1], atol=1e-14)
    assert np.allclose(c[1, 2], [0, 0, 0], atol=1e-14)


def test_bracket_antisymmetry():
    ctx = MESSY.context([0.4, 0.2, -0.9])
    c = ctx.c.val
    assert np.max(np.abs(c + c.transpose(1, 0, 2))) <= 1e-12


def test_jacobi_identity():
    # sum over cyclic (i,j,k) of [[E_i,E_j],E_k] vanishes; expanding in the
    # frame this ties c against its own frame derivatives
    for pt in sample_points(3, [(-1, 1)] * 3, 6, seed=7):
        ctx = MESSY.context(pt)
        c = ctx.c.val
        Ec = ctx.E(ctx.c)  # Ec[k][i][j][l] = E_k(c[i][j][l])
        T = np.einsum("ijm,mkl->ijkl", c, c) - Ec.transpose(1, 2, 0, 3)
        J = T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)
        assert np.max(np.abs(J)) <= 1e-9


def test_structure_coefficient_gradients_match_finite_differences():
    x0 = np.array([0.3, -0.5, 0.8])
    ctx = MESSY.context(x0)
    h = 1e-6
    for b in range(3):
        hi, lo = x0.copy(), x0.copy()
        hi[b] += h
        lo[b] -= h
        fd = (MESSY.context(hi).c.val - MESSY.context(lo).c.val) / (2 * h)
        assert np.max(np.abs(ctx.c.grad[..., b] - fd)) <= 1e-6


def test_metric_inverse_gradients_match_finite_differences():
    x0 = np.array([-0.2, 0.6, 0.1])
    ctx = MESSY.context(x0)
    h = 1e-6
    for b in range(3):
        hi, lo = x0.copy(), x0.copy()
        hi[b] += h
        lo[b] -= h
        fd = (MESSY.context(hi).ginv.val - MESSY.context(lo).ginv.val) / (2 * h)
        assert np.max(np.abs(ctx.ginv.grad[..., b] - fd)) <= 1e-6


# ---------------------------------------------------------------------------
# frame derivatives and exterior calculus


def test_frame_derivative_of_scalar():
    ctx = warped_ctx(t=0.5, x=2.0, y=0.0)
    f = ExprTable(ex.parse("x*t", COORDS3), COORDS3)
    df = ctx.E(ctx.table_jet(f))
    # E1(x t) = e^-t * t
    assert df[1] == pytest.approx(np.exp(-0.5) * 0.5, rel=1e-12)
    assert df[0] == pytest.approx(2.0)


@pytest.mark.parametrize("lead", [(), (1,), (7,)])
@pytest.mark.parametrize("T", [1, 3, 9, 27])
def test_frame_derivative_matches_einsum(lead, T):
    # E and E_jet write matmul results through transposed views; compare
    # them with the plain contractions they stand for
    pts = sample_points(3, [(-1.0, 1.0)] * 3, 7, seed=4)
    ctx = MESSY.context(pts[0]) if lead == () else MESSY.contexts(pts[: lead[0]])
    rng = np.random.default_rng(T)
    grad = rng.standard_normal(lead + (T, 3))
    grad2 = rng.standard_normal(lead + (T, 3, 3))
    jet = Jet(np.zeros(lead + (T,)), grad, grad2)
    F = ctx.F

    def close(got, want):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    close(ctx.E(jet), np.einsum("...ia,...ta->...it", F.val, grad))
    EJ = ctx.E_jet(jet)
    close(EJ.val, np.einsum("...ia,...ta->...it", F.val, grad))
    close(EJ.grad, np.einsum("...iac,...ta->...itc", F.grad, grad)
          + np.einsum("...ia,...tac->...itc", F.val, grad2))


def test_d_of_df_vanishes():
    f = ExprTable(ex.parse("sin(t)*x + y^2*t", COORDS3), COORDS3, second=True)
    for pt in sample_points(3, [(-1, 1)] * 3, 5, seed=3):
        ctx = MESSY.context(pt)
        df = ctx.E_jet(ctx.table_jet(f))
        assert np.max(np.abs(ext_d1(ctx, df))) <= 1e-9


def test_d_of_d_one_form_vanishes():
    w = ExprTable(["t*x", "cos(y)", "x + 2*t"], COORDS3, second=True)
    for pt in sample_points(3, [(-1, 1)] * 3, 5, seed=4):
        ctx = MESSY.context(pt)
        dw = ext_d1_jet(ctx, ctx.table_jet(w))
        assert np.max(np.abs(ext_d2(ctx, dw))) <= 1e-9


def test_closed_forms_on_warped_frame():
    # eta = dt has deta = 0; the canonical 2-form is closed as well
    ctx = warped_ctx()
    eta = const_field(ctx, [1, 0, 0])
    assert np.max(np.abs(ext_d1(ctx, eta))) <= 1e-13
    Phi = Jet(
        np.array([[0.0, 0, 0], [0, 0, 1], [0, -1, 0]]), np.zeros((3, 3, 3))
    )
    assert np.max(np.abs(ext_d2(ctx, Phi))) <= 1e-13


def test_volume_normalisations_on_contracting_frame():
    # E0 = d/dt, Ei = e^-t d/dxi: [E0, Ei] = -Ei, and with the averaged
    # d convention dPhi(E0,E1,E2) = 2/3 while (eta ^ Phi)(E0,E1,E2) = 1/3
    m = Manifold(
        COORDS3,
        [[1, 0, 0], [0, "exp(-t)", 0], [0, 0, "exp(-t)"]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    ctx = m.context([0.4, 0.1, -0.3])
    assert np.allclose(ctx.c.val[0, 1], [0, -1, 0], atol=1e-14)
    assert np.allclose(ctx.c.val[0, 2], [0, 0, -1], atol=1e-14)
    Phi = np.array([[0.0, 0, 0], [0, 0, 1], [0, -1, 0]])
    dPhi = ext_d2(ctx, Jet(Phi, np.zeros((3, 3, 3))))
    assert dPhi[0, 1, 2] == pytest.approx(2.0 / 3.0, rel=1e-12)
    eta = np.array([1.0, 0, 0])
    w = wedge_1_2(eta, Phi)
    assert w[0, 1, 2] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert np.max(np.abs(dPhi - 2.0 * w)) <= 1e-12


# ---------------------------------------------------------------------------
# brackets of materialised fields and Lie derivatives


def test_bracket_of_scaled_field():
    ctx = warped_ctx(t=0.5)
    V = ctx.table_jet(ExprTable([0, "t", 0], COORDS3))
    E0 = frame_field(ctx, 0)
    # [t E1, E0] = t [E1,E0] - E0(t) E1 = (t - 1) E1
    assert np.allclose(bracket(ctx, V, E0), [0, 0.5 - 1.0, 0], atol=1e-13)
    assert np.allclose(bracket(ctx, E0, V), [0, 1.0 - 0.5, 0], atol=1e-13)


def test_lie_metric_along_reeb():
    ctx = warped_ctx()
    L = lie_metric(ctx, frame_field(ctx, 0))
    # (L_E0 g)(E1,E1) = -2 g([E0,E1],E1) = 2
    want = np.diag([0.0, 2.0, -2.0])
    assert np.allclose(L, want, atol=1e-12)


def test_lie_operator_along_reeb():
    ctx = warped_ctx()
    P = Jet(np.array([[0.0, 0, 0], [0, 0, -1], [0, 1, 0]]), np.zeros((3, 3, 3)))
    L = lie_operator(ctx, frame_field(ctx, 0), P)
    want = np.array([[0.0, 0, 0], [0, 0, 2], [0, 2, 0]])
    assert np.allclose(L, want, atol=1e-12)


# ---------------------------------------------------------------------------
# validation and sampling


def test_singular_frame_rejected():
    m = Manifold(("t", "x"), [[1, 0], ["t", 0]], [[1, 0], [0, 1]])
    with pytest.raises(GeometryError, match="frame"):
        m.context([0.5, 0.5])


def test_singularity_test_is_scale_free():
    for s in (1e-8, 1.0, 1e8):
        ctx = Manifold(("t", "x"), [[s, 0], [0, s]], [[s, 0], [0, s]]).context([0.1, 0.2])
        assert np.allclose(ctx.ginv.val * s, np.eye(2), atol=1e-12)
        m = Manifold(("t", "x"), [[s, 0], [f"{s}*t", 0]], [[1, 0], [0, 1]])
        with pytest.raises(GeometryError, match="frame"):
            m.context([0.5, 0.5])


def test_batch_names_the_singular_point():
    m = Manifold(("t", "x"), [[1, 0], [0, 1]], [["t", 0], [0, 1]])
    with pytest.raises(GeometryError, match=r"metric at sample point 1 \(0, 0.5\)"):
        m.contexts([[0.3, 0.5], [0.0, 0.5], [0.0, 0.1]])


def test_batch_is_a_sequence_of_points():
    pts = sample_points(3, [(-1, 1)] * 3, 4, seed=2)
    batch = MESSY.contexts(pts)
    assert len(batch) == 4 and batch.c.val.shape == (4, 3, 3, 3)
    for k, ctx in enumerate(batch):
        assert ctx.x.shape == (3,)
        assert np.array_equal(ctx.c.val, batch.c.val[k])
        assert np.array_equal(ctx.Eg.grad, batch.Eg.grad[k])
    with pytest.raises(TypeError):
        len(batch[0])


def test_asymmetric_metric_rejected():
    m = Manifold(("t", "x"), [[1, 0], [0, 1]], [[1, "t"], [0, 1]])
    with pytest.raises(GeometryError, match="symmetric"):
        m.context([0.5, 0.5])


def test_degenerate_metric_rejected():
    m = Manifold(("t", "x"), [[1, 0], [0, 1]], [["t", 0], [0, 1]])
    with pytest.raises(GeometryError, match="metric"):
        m.context([0.0, 0.5])


def test_table_shape_mismatch():
    with pytest.raises(GeometryError, match="shape"):
        Manifold(("t", "x"), [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1]])


def test_sample_points_deterministic_and_in_box():
    a = sample_points(3, [(-1, 1), (0, 2), (5, 6)], 20, seed=42)
    b = sample_points(3, [(-1, 1), (0, 2), (5, 6)], 20, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (20, 3)
    assert np.all(a[:, 0] >= -1) and np.all(a[:, 0] <= 1)
    assert np.all(a[:, 2] >= 5) and np.all(a[:, 2] <= 6)
    c = sample_points(3, [(-1, 1), (0, 2), (5, 6)], 20, seed=43)
    assert not np.array_equal(a, c)


def test_bad_box_rejected():
    with pytest.raises(GeometryError, match="box"):
        sample_points(2, [(-1, 1)], 5, seed=1)
    with pytest.raises(GeometryError, match="lo < hi"):
        sample_points(1, [(2, 2)], 5, seed=1)


def test_jet_einsum_requires_a_jet():
    with pytest.raises(ValueError):
        jet_einsum("ij,jk->ik", np.eye(2), np.eye(2))
