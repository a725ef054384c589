"""Reeb shape operators, the almost cosymplectic identity suite, the
Kaehler-leaves criteria, and the line-times-base product construction.

The class-conditional checks are gated on the measured closedness of eta and
of the fundamental form; when the fixture fails the gate they report
`hypothesis-unmet` together with the residual instead of being graded.

As in `structures`, an identity that holds for both connections of the pair
is one body over a side (conn, dual, K) of it, registered under the name of
each side: COSYM-AFI-II/III take A of conn, COSYM-AFI-V/VI and
COSYM-LKSI-II/III the shape operators of conn and of its dual, and the
Kaehler-leaves defect takes K or -K.  COSYM-KF1A/KF2A and COSYM-DAZIZ1/2
are the bodies of HERM-AZIZ81/82 and HERM-AZIZ10/11 on phi.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import registry as reg
from .connections import AffineConnection, ProductConnection, _k_val, pair_side
from .fixtures import BASE_BUILTIN_NAMES, Fixture, builtin_base
from .frame import (
    GeometryError,
    Jet,
    Manifold,
    as_expr,
    contract,
    lie_covector,
    lie_metric,
    tr,
)
from .structures import (
    AlmostContactStructure,
    _chk_form_cyclic,
    _chk_p_commutator,
    almost_cosymplectic_residual,
    fundamental_form,
    n1_tensor,
    nabla_2form,
    nabla_covector,
    nabla_operator,
    nabla_vector,
    op_commutator,
    op_lower,
    register_identity,
)


def a_tensor(ctx, conn: AffineConnection, xi: Jet) -> np.ndarray:
    """Shape operator table A[k][i] with A(E_i) = -nabla_{E_i} xi."""
    return -tr(nabla_vector(ctx, conn, xi))


def a_tensors(fix, ctx):
    """(A, A*, A0) for the pair and the metric connection."""
    xi = fix.contact.xi(ctx)
    return (
        a_tensor(ctx, fix.nabla, xi),
        a_tensor(ctx, fix.nabla_star, xi),
        a_tensor(ctx, fix.lc, xi),
    )


def _apply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Components of the vector A(v) for an operator table A."""
    return contract("...ij,...j->...i", A, v)


# ---------------------------------------------------------------------------
# gates


def gate_almost_cosymplectic(fix, ctxs, tol):
    r = almost_cosymplectic_residual(fix, ctxs)
    if r <= tol:
        return True, r, None
    return False, r, "fixture is not almost cosymplectic"


def gate_cosymplectic(fix, ctxs, tol):
    r = max(almost_cosymplectic_residual(fix, ctxs),
            reg.abs_max(n1_tensor(ctxs, fix.contact)))
    if r <= tol:
        return True, r, None
    return False, r, "fixture is not cosymplectic"


# ---------------------------------------------------------------------------
# Reeb / shape-operator identities


def _chk_afi_i(fix, ctx):
    ct = fix.contact
    return reg.abs_max(lie_covector(ctx, ct.xi(ctx), ct.eta(ctx)))


def _chk_a_symmetric(fix, ctx, side):
    L = op_lower(ctx, a_tensor(ctx, side[0], fix.contact.xi(ctx)))
    return reg.rel_residual(L, tr(L))


def _chk_afi_iv(fix, ctx):
    A, As, _ = a_tensors(fix, ctx)
    xiv = fix.contact.xi(ctx).val
    kxx = contract("...i,...j,...ijk->...k", xiv, xiv, _k_val(fix, ctx))
    return max(
        reg.rel_residual(_apply(A, xiv), -kxx), reg.rel_residual(_apply(As, xiv), kxx)
    )


def _xi_derivative_of_phi(fix, ctx, conn) -> np.ndarray:
    """nabla_xi phi for one connection, as an operator table."""
    ct = fix.contact
    return contract("...i,...ikj->...kj", ct.xi(ctx).val, nabla_operator(ctx, conn, ct.phi(ctx)))


def _chk_xi_derivative_of_phi(fix, ctx, side):
    # nabla_xi phi = phi A + A* phi, A for conn and A* for its dual
    conn, dual, _ = side
    P = fix.contact.phi(ctx)
    xi = fix.contact.xi(ctx)
    lhs = _xi_derivative_of_phi(fix, ctx, conn)
    return reg.rel_residual(lhs, P.val @ a_tensor(ctx, conn, xi) + a_tensor(ctx, dual, xi) @ P.val)


def _chk_afi_vii(fix, ctx):
    P = fix.contact.phi(ctx).val
    A, As, _ = a_tensors(fix, ctx)
    return reg.abs_max(A @ P + P @ A + As @ P + P @ As)


def _chk_aksi(fix, ctx):
    A, As, _ = a_tensors(fix, ctx)
    xiv = fix.contact.xi(ctx).val
    return reg.abs_max(_apply(A, xiv) + _apply(As, xiv))


def _chk_lksi_i(fix, ctx):
    A, As, _ = a_tensors(fix, ctx)
    lhs = lie_metric(ctx, fix.contact.xi(ctx))
    return reg.rel_residual(lhs, -op_lower(ctx, A + As))


def _chk_eta_derivative(fix, ctx, side):
    # nabla eta is symmetric and lowers the dual's shape operator
    conn, dual, _ = side
    ct = fix.contact
    Ne = nabla_covector(ctx, conn, ct.eta(ctx))
    As = a_tensor(ctx, dual, ct.xi(ctx))
    return max(reg.rel_residual(Ne, tr(Ne)), reg.rel_residual(Ne, -op_lower(ctx, As)))


def _chk_df1(fix, ctx):
    ct = fix.contact
    Pv = ct.phi(ctx).val
    ev = ct.eta(ctx).val
    Phi = fundamental_form(ctx, ct.phi(ctx))
    NPhi = nabla_2form(ctx, fix.nabla, Phi)
    NPhis = nabla_2form(ctx, fix.nabla_star, Phi)
    A, As, _ = a_tensors(fix, ctx)
    lhs = contract("...ijm,...mk->...ijk", NPhi, Pv) + contract(
        "...ikm,...mj->...ijk", NPhis, Pv
    )
    rhs = contract("...j,...ik->...ijk", ev, op_lower(ctx, A)) + contract(
        "...k,...ij->...ijk", ev, op_lower(ctx, As)
    )
    return reg.rel_residual(lhs, rhs)


def _chk_df2(fix, ctx):
    ct = fix.contact
    Pv = ct.phi(ctx).val
    ev = ct.eta(ctx).val
    Phi = fundamental_form(ctx, ct.phi(ctx))
    NPhi = nabla_2form(ctx, fix.nabla, Phi)
    NPhis = nabla_2form(ctx, fix.nabla_star, Phi)
    A, _, _ = a_tensors(fix, ctx)
    GAP = contract("...mi,...ml,...lk->...ik", A, ctx.g.val, Pv)  # g(A E_i, phi E_k)
    lhs = contract("...iml,...mk,...lj->...ijk", NPhis, Pv, Pv) - NPhi
    rhs = contract("...j,...ik->...ijk", ev, GAP) - contract(
        "...k,...ij->...ijk", ev, GAP
    )
    return reg.rel_residual(lhs, rhs)


def _mixed_defect(fix, ctx) -> np.ndarray:
    """[i][k][j] components of nabla_X(phi Y) - phi nabla*_X Y
    - K_X(phi Y) - phi(K_X Y)."""
    P = fix.contact.phi(ctx)
    G = fix.nabla.jet(ctx).val
    Gs = fix.nabla_star.jet(ctx).val
    K = _k_val(fix, ctx)
    out = ctx.E(P)  # fresh: the other terms are summed into it
    out += contract("...mj,...imk->...ikj", P.val, G)
    out -= contract("...ijm,...km->...ikj", Gs, P.val)
    out -= contract("...mj,...imk->...ikj", P.val, K)
    out -= contract("...ijm,...km->...ikj", K, P.val)
    return out


def _chk_daziz3(fix, ctx):
    P = fix.contact.phi(ctx)
    N0P = nabla_operator(ctx, fix.lc, P)
    return reg.abs_max(_mixed_defect(fix, ctx) - N0P)


def _daziz3_note(fix, ctxs):
    d = reg.abs_max(_mixed_defect(fix, ctxs))
    m = reg.abs_max(nabla_operator(ctxs, fix.lc, fix.contact.phi(ctxs)))
    return (
        f"mixed defect max {d:.6e}, metric-connection phi-derivative max {m:.6e}; "
        "they vanish together exactly on cosymplectic statistical fixtures"
    )


_LKSI_NOTE = (
    "graded as the symmetry of the eta-derivative together with its "
    "shape-operator lowering"
)

_CD = ("contact", "dual")
_ACS = {"gate": gate_almost_cosymplectic}
for _names, _body, _kw in [
    ("COSYM-AFI-I", _chk_afi_i, _ACS),
    (("COSYM-AFI-II", "COSYM-AFI-III"), _chk_a_symmetric, _ACS),
    ("COSYM-AFI-IV", _chk_afi_iv, _ACS),
    (("COSYM-AFI-V", "COSYM-AFI-VI"), _chk_xi_derivative_of_phi, _ACS),
    ("COSYM-AFI-VII", _chk_afi_vii, _ACS),
    ("COSYM-AKSI", _chk_aksi, _ACS),
    ("COSYM-LKSI-I", _chk_lksi_i, _ACS),
    ("COSYM-DF1", _chk_df1, _ACS),
    ("COSYM-DF2", _chk_df2, _ACS),
    (("COSYM-LKSI-II", "COSYM-LKSI-III"), _chk_eta_derivative, dict(_ACS, annotate=_LKSI_NOTE)),
    (("COSYM-KF1A", "COSYM-KF2A"), _chk_form_cyclic, dict(_ACS, structure="contact")),
    (("COSYM-DAZIZ1", "COSYM-DAZIZ2"), _chk_p_commutator,
     {"structure": "contact", "gate": gate_cosymplectic}),
    ("COSYM-DAZIZ3", _chk_daziz3, {"annotate": _daziz3_note}),
]:
    register_identity(_names, "cosymplectic", _body, needs=_CD, **_kw)


# ---------------------------------------------------------------------------
# Kaehler statistical leaves


def _leaves_struct(fix, ctx) -> np.ndarray:
    """[i][k][j] components of g(A0 X, phi Y) xi + eta(Y) phi A0 X."""
    ct = fix.contact
    P = ct.phi(ctx)
    xiv = ct.xi(ctx).val
    ev = ct.eta(ctx).val
    _, _, A0 = a_tensors(fix, ctx)
    return contract(
        "...mi,...ml,...lj,...k->...ikj", A0, ctx.g.val, P.val, xiv
    ) + contract("...j,...ki->...ikj", ev, P.val @ A0)


def _leaves_defect(fix, ctx, side, S: np.ndarray) -> np.ndarray:
    """nabla phi - (K phi - phi K) - S on one side (conn, dual, K) of the
    pair, for S of `_leaves_struct`."""
    conn, _, K = side
    P = fix.contact.phi(ctx)
    return nabla_operator(ctx, conn, P) - op_commutator(K, P.val) - S


def _chk_kl_agree(fix, ctx):
    S = _leaves_struct(fix, ctx)
    d0 = nabla_operator(ctx, fix.lc, fix.contact.phi(ctx)) - S
    d1, d2 = (_leaves_defect(fix, ctx, pair_side(fix, ctx, star), S) for star in (False, True))
    dm = _mixed_defect(fix, ctx) - S
    return max(reg.abs_max(d1 - d0), reg.abs_max(d2 - d0), reg.abs_max(dm - d0))


def _chk_kl_side(fix, ctx, side):
    return reg.abs_max(_leaves_defect(fix, ctx, side, _leaves_struct(fix, ctx)))


def _chk_kl_o1(fix, ctx):
    return reg.abs_max(_mixed_defect(fix, ctx) - _leaves_struct(fix, ctx))


register_identity("KLEAVES-AGREE", "kaehler-leaves", _chk_kl_agree, needs=_CD)
for _names, _body in [
    (("KLEAVES-NABLA", "KLEAVES-NABLA-STAR"), _chk_kl_side),
    ("KLEAVES-O1", _chk_kl_o1),
]:
    register_identity(_names, "kaehler-leaves", _body, needs=_CD,
                      gate=gate_almost_cosymplectic, report_when_gated=True)


# ---------------------------------------------------------------------------
# products over Kaehler statistical bases


def product_construct(
    base: Fixture, lam, name: str | None = None,
    tol: float = 1e-9, n_points: int = 8, seed: int = 0,
) -> Fixture:
    """Line-times-base fixture: d/dt self-couples through +/- lam(t), the base
    block keeps the base pair, and J extends to phi annihilating the Reeb
    direction. The base must be declared Kaehler and measure as Kaehler."""
    if not (base.has("hermitian") and base.has("dual")):
        raise GeometryError("product base needs a hermitian structure and a dualistic pair")
    if not base.flags.get("kaehler", False):
        raise GeometryError("product base must be declared kaehler")
    lam_expr = as_expr(lam, ("t",))
    ex.parse(ex.to_str(lam_expr), ("t",))
    ctxs = base.sample_contexts(n_points, seed)
    r = reg.abs_max(nabla_operator(ctxs, base.lc, base.hermitian.J(ctxs)))
    if r > tol:
        raise GeometryError(f"base declared kaehler but max |nabla0 J| = {r:.3e}")
    bman = base.manifold
    if "t" in bman.coords:
        raise GeometryError("base coordinates may not include 't'")
    n = bman.dim
    zero, one = ex.Num(0.0), ex.Num(1.0)

    def block(rows):
        out = [[one] + [zero] * n]
        for i in range(n):
            out.append([zero] + list(rows[i]))
        return out

    coords = ("t",) + bman.coords
    man = Manifold(coords, block(bman.frame.exprs), block(bman.metric.exprs))
    phi = [[zero] * (n + 1)]
    for i in range(n):
        phi.append([zero] + list(base.hermitian.J_table.exprs[i]))
    contact = AlmostContactStructure(phi, [1] + [0] * n, [1] + [0] * n, coords)
    return Fixture(
        name=name or f"product-{base.name}",
        manifold=man,
        nabla=ProductConnection(bman, base.nabla, lam_expr, 1.0),
        nabla_star=ProductConnection(bman, base.nabla_star, lam_expr, -1.0),
        contact=contact,
        box=[(-1.0, 1.0)] + list(base.box),
    )


BUILTIN_NAMES = sorted(BASE_BUILTIN_NAMES + ["product-flat"])


def builtin_fixture(name: str) -> Fixture:
    if name == "product-flat":
        return product_construct(builtin_base("flat-kaehler-r2"), 0.0, name="product-flat")
    try:
        return builtin_base(name)
    except GeometryError:
        raise GeometryError(
            f"unknown builtin {name!r}; expected one of {', '.join(BUILTIN_NAMES)}"
        ) from None
