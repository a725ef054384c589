"""Reeb shape operators, the almost cosymplectic identity suite, the
Kaehler-leaves criteria, and the line-times-base product construction.

The class-conditional checks are gated on the measured closedness of eta and
of the fundamental form; when the fixture fails the gate they report
`hypothesis-unmet` together with the residual instead of being graded.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import registry as reg
from .connections import AffineConnection, ProductConnection, _k_val
from .fixtures import BASE_BUILTIN_NAMES, Fixture, builtin_base
from .frame import (
    GeometryError,
    Jet,
    Manifold,
    as_expr,
    contract,
    cyclic,
    lie_covector,
    lie_metric,
    tr,
)
from .structures import (
    AlmostContactStructure,
    almost_cosymplectic_residual,
    fundamental_form,
    n1_tensor,
    nabla_2form,
    nabla_covector,
    nabla_operator,
    nabla_vector,
    op_commutator,
    op_lower,
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


def _chk_afi_ii(fix, ctx):
    A, _, _ = a_tensors(fix, ctx)
    L = op_lower(ctx, A)
    return reg.rel_residual(L, tr(L))


def _chk_afi_iii(fix, ctx):
    _, As, _ = a_tensors(fix, ctx)
    L = op_lower(ctx, As)
    return reg.rel_residual(L, tr(L))


def _chk_afi_iv(fix, ctx):
    A, As, _ = a_tensors(fix, ctx)
    xiv = fix.contact.xi(ctx).val
    kxx = contract("...i,...j,...ijk->...k", xiv, xiv, _k_val(fix, ctx))
    return max(
        reg.rel_residual(_apply(A, xiv), -kxx), reg.rel_residual(_apply(As, xiv), kxx)
    )


def _chk_afi_v(fix, ctx):
    ct = fix.contact
    P = ct.phi(ctx)
    xiv = ct.xi(ctx).val
    A, As, _ = a_tensors(fix, ctx)
    NP = nabla_operator(ctx, fix.nabla, P)
    lhs = contract("...i,...ikj->...kj", xiv, NP)
    return reg.rel_residual(lhs, P.val @ A + As @ P.val)


def _chk_afi_vi(fix, ctx):
    ct = fix.contact
    P = ct.phi(ctx)
    xiv = ct.xi(ctx).val
    A, As, _ = a_tensors(fix, ctx)
    NPs = nabla_operator(ctx, fix.nabla_star, P)
    lhs = contract("...i,...ikj->...kj", xiv, NPs)
    return reg.rel_residual(lhs, P.val @ As + A @ P.val)


def _chk_afi_vii(fix, ctx):
    P = fix.contact.phi(ctx).val
    A, As, _ = a_tensors(fix, ctx)
    return reg.abs_max(A @ P + P @ A + As @ P + P @ As)


def _chk_aksi(fix, ctx):
    A, As, _ = a_tensors(fix, ctx)
    xiv = fix.contact.xi(ctx).val
    return reg.abs_max(_apply(A, xiv) + _apply(As, xiv))


def _chk_kf1a(fix, ctx):
    Phi = fundamental_form(ctx, fix.contact.phi(ctx))
    return reg.abs_max(cyclic(nabla_2form(ctx, fix.nabla, Phi)))


def _chk_kf2a(fix, ctx):
    Phi = fundamental_form(ctx, fix.contact.phi(ctx))
    return reg.abs_max(cyclic(nabla_2form(ctx, fix.nabla_star, Phi)))


def _chk_lksi_i(fix, ctx):
    A, As, _ = a_tensors(fix, ctx)
    lhs = lie_metric(ctx, fix.contact.xi(ctx))
    return reg.rel_residual(lhs, -op_lower(ctx, A + As))


def _chk_lksi_ii(fix, ctx):
    _, As, _ = a_tensors(fix, ctx)
    Ne = nabla_covector(ctx, fix.nabla, fix.contact.eta(ctx))
    return max(reg.rel_residual(Ne, tr(Ne)), reg.rel_residual(Ne, -op_lower(ctx, As)))


def _chk_lksi_iii(fix, ctx):
    A, _, _ = a_tensors(fix, ctx)
    Ne = nabla_covector(ctx, fix.nabla_star, fix.contact.eta(ctx))
    return max(reg.rel_residual(Ne, tr(Ne)), reg.rel_residual(Ne, -op_lower(ctx, A)))


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


def _chk_daziz1(fix, ctx):
    P = fix.contact.phi(ctx)
    NP = nabla_operator(ctx, fix.nabla, P)
    return reg.rel_residual(NP, op_commutator(_k_val(fix, ctx), P.val))


def _chk_daziz2(fix, ctx):
    P = fix.contact.phi(ctx)
    NPs = nabla_operator(ctx, fix.nabla_star, P)
    return reg.rel_residual(NPs, -op_commutator(_k_val(fix, ctx), P.val))


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

for _name, _fn, _gate, _ann in [
    ("COSYM-AFI-I", _chk_afi_i, gate_almost_cosymplectic, None),
    ("COSYM-AFI-II", _chk_afi_ii, gate_almost_cosymplectic, None),
    ("COSYM-AFI-III", _chk_afi_iii, gate_almost_cosymplectic, None),
    ("COSYM-AFI-IV", _chk_afi_iv, gate_almost_cosymplectic, None),
    ("COSYM-AFI-V", _chk_afi_v, gate_almost_cosymplectic, None),
    ("COSYM-AFI-VI", _chk_afi_vi, gate_almost_cosymplectic, None),
    ("COSYM-AFI-VII", _chk_afi_vii, gate_almost_cosymplectic, None),
    ("COSYM-AKSI", _chk_aksi, gate_almost_cosymplectic, None),
    ("COSYM-KF1A", _chk_kf1a, gate_almost_cosymplectic, None),
    ("COSYM-KF2A", _chk_kf2a, gate_almost_cosymplectic, None),
    ("COSYM-LKSI-I", _chk_lksi_i, gate_almost_cosymplectic, None),
    ("COSYM-LKSI-II", _chk_lksi_ii, gate_almost_cosymplectic, _LKSI_NOTE),
    ("COSYM-LKSI-III", _chk_lksi_iii, gate_almost_cosymplectic, _LKSI_NOTE),
    ("COSYM-DF1", _chk_df1, gate_almost_cosymplectic, None),
    ("COSYM-DF2", _chk_df2, gate_almost_cosymplectic, None),
    ("COSYM-DAZIZ1", _chk_daziz1, gate_cosymplectic, None),
    ("COSYM-DAZIZ2", _chk_daziz2, gate_cosymplectic, None),
]:
    reg.register(
        reg.CheckDef(
            name=_name, suite="cosymplectic", run=_fn, needs=("contact", "dual"),
            unconditional=False, gate=_gate, annotate=_ann,
        )
    )

reg.register(
    reg.CheckDef(
        name="COSYM-DAZIZ3", suite="cosymplectic", run=_chk_daziz3,
        needs=("contact", "dual"), annotate=_daziz3_note,
    )
)


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


def _leaves_defects(fix, ctx):
    P = fix.contact.phi(ctx)
    K = _k_val(fix, ctx)
    S = _leaves_struct(fix, ctx)
    comm = op_commutator(K, P.val)
    d0 = nabla_operator(ctx, fix.lc, P) - S
    d1 = nabla_operator(ctx, fix.nabla, P) - comm - S
    d2 = nabla_operator(ctx, fix.nabla_star, P) + comm - S
    dm = _mixed_defect(fix, ctx) - S
    return d0, d1, d2, dm


def _chk_kl_agree(fix, ctx):
    d0, d1, d2, dm = _leaves_defects(fix, ctx)
    return max(reg.abs_max(d1 - d0), reg.abs_max(d2 - d0), reg.abs_max(dm - d0))


def _chk_kl_nabla(fix, ctx):
    return reg.abs_max(_leaves_defects(fix, ctx)[1])


def _chk_kl_nabla_star(fix, ctx):
    return reg.abs_max(_leaves_defects(fix, ctx)[2])


def _chk_kl_o1(fix, ctx):
    return reg.abs_max(_leaves_defects(fix, ctx)[3])


reg.register(
    reg.CheckDef(
        name="KLEAVES-AGREE", suite="kaehler-leaves", run=_chk_kl_agree,
        needs=("contact", "dual"),
    )
)
for _name, _fn in [
    ("KLEAVES-NABLA", _chk_kl_nabla),
    ("KLEAVES-NABLA-STAR", _chk_kl_nabla_star),
    ("KLEAVES-O1", _chk_kl_o1),
]:
    reg.register(
        reg.CheckDef(
            name=_name, suite="kaehler-leaves", run=_fn, needs=("contact", "dual"),
            unconditional=False, gate=gate_almost_cosymplectic,
            report_when_gated=True,
        )
    )


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
