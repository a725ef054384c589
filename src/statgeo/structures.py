"""Almost contact metric and almost Hermitian structures over dualistic pairs.

Defines the structure-tensor sanity checks, fundamental 2-forms, Nijenhuis
torsion, the classification residuals (closedness of eta and of the
fundamental form, normality, and their named combinations), and the identity
suites tying covariant derivatives of the structure operator along a
dualistic pair to the difference tensor, exterior derivatives, and torsion
terms.
"""

from __future__ import annotations

import numpy as np

from . import registry as reg
from .connections import AffineConnection, _k_val
from .frame import (
    ExprTable,
    GeometryError,
    Jet,
    PointContext,
    bracket,
    contract,
    cyclic,
    ext_d1,
    ext_d2,
    frame_field,
    jet_einsum,
    lie_covector,
    operator_column,
    tr,
    wedge_1_2,
)


class AlmostContactStructure:
    """phi (operator table), xi (vector), eta (covector), all in the frame."""

    def __init__(self, phi, xi, eta, coords):
        self.phi_table = ExprTable(phi, coords)
        self.xi_table = ExprTable(xi, coords, second=True)  # A = -nabla xi gets differentiated
        self.eta_table = ExprTable(eta, coords)
        n = len(coords)
        if (
            self.phi_table.shape != (n, n)
            or self.xi_table.shape != (n,)
            or self.eta_table.shape != (n,)
        ):
            raise GeometryError(f"phi must be ({n},{n}), xi and eta must be ({n},)")

    def phi(self, ctx: PointContext) -> Jet:
        return ctx.table_jet(self.phi_table)

    def xi(self, ctx: PointContext) -> Jet:
        return ctx.table_jet(self.xi_table)

    def eta(self, ctx: PointContext) -> Jet:
        return ctx.table_jet(self.eta_table)


class AlmostHermitianStructure:
    """J (operator table) with J^2 = -Id, skew-adjoint for the metric."""

    def __init__(self, J, coords):
        self.J_table = ExprTable(J, coords)
        n = len(coords)
        if self.J_table.shape != (n, n):
            raise GeometryError(f"J must be a ({n},{n}) operator table")

    def J(self, ctx: PointContext) -> Jet:
        return ctx.table_jet(self.J_table)


# ---------------------------------------------------------------------------
# derived tensors


def fundamental_form(ctx: PointContext, P: Jet) -> Jet:
    """F[i][j] = g(P E_i, E_j)."""
    return jet_einsum("...ki,...kj->...ij", P, ctx.g)


def nabla_operator(ctx, conn: AffineConnection, P: Jet) -> np.ndarray:
    """NP[i][k][j]: E_k-component of (nabla_{E_i} P)(E_j)."""
    G = conn.jet(ctx).val
    out = ctx.E(P)  # fresh: the other terms are summed into it
    out += contract("...mj,...imk->...ikj", P.val, G)
    out -= contract("...ijm,...km->...ikj", G, P.val)
    return out


def nabla_vector(ctx, conn: AffineConnection, v: Jet) -> np.ndarray:
    """NV[i][k]: E_k-component of nabla_{E_i} V."""
    G = conn.jet(ctx).val
    out = ctx.E(v)
    out += contract("...j,...ijk->...ik", v.val, G)
    return out


def nabla_covector(ctx, conn: AffineConnection, w: Jet) -> np.ndarray:
    """NW[i][j] = (nabla_{E_i} w)(E_j)."""
    G = conn.jet(ctx).val
    out = ctx.E(w)
    out -= contract("...ijm,...m->...ij", G, w.val)
    return out


def nabla_2form(ctx, conn: AffineConnection, W: Jet) -> np.ndarray:
    """NW[i][j][k] = (nabla_{E_i} W)(E_j, E_k)."""
    G = conn.jet(ctx).val
    out = ctx.E(W)
    out -= contract("...ijm,...mk->...ijk", G, W.val)
    out -= contract("...ikm,...jm->...ijk", G, W.val)
    return out


def op_commutator(K: np.ndarray, Pv: np.ndarray) -> np.ndarray:
    """(K_X P) as [i][k][j]: K_{E_i}(P E_j) - P(K_{E_i} E_j)."""
    return contract("...mj,...imk->...ikj", Pv, K) - contract(
        "...ijm,...km->...ikj", K, Pv
    )


def op_anticommutator(K: np.ndarray, Pv: np.ndarray) -> np.ndarray:
    """[i][k][j]: K_{E_i}(P E_j) + P(K_{E_i} E_j)."""
    return contract("...mj,...imk->...ikj", Pv, K) + contract(
        "...ijm,...km->...ikj", K, Pv
    )


def op_lower(ctx, P: np.ndarray) -> np.ndarray:
    """Lowered operators: L[j][k] = g(P E_j, E_k) for an operator table
    P[k][j], and T[i][j][k] = g(P_i E_j, E_k) for an [i][k][j] family."""
    if P.ndim - len(ctx.lead) == 2:
        return contract("...mj,...mk->...jk", P, ctx.g.val)
    return contract("...imj,...mk->...ijk", P, ctx.g.val)


def nijenhuis(ctx: PointContext, P: Jet) -> np.ndarray:
    """N[i][j][k]: E_k-component of
    P^2 [E_i,E_j] + [P E_i, P E_j] - P [P E_i, E_j] - P [E_i, P E_j]."""
    n = ctx.dim
    out = contract("...ijm,...km->...ijk", ctx.c.val, P.val @ P.val)
    cols = [operator_column(P, j) for j in range(n)]
    frames = [frame_field(ctx, j) for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = (
                bracket(ctx, cols[i], cols[j])
                - contract("...km,...m->...k", P.val, bracket(ctx, cols[i], frames[j]))
                - contract("...km,...m->...k", P.val, bracket(ctx, frames[i], cols[j]))
            )
            out[..., i, j, :] += v
            out[..., j, i, :] -= v
    return out


def n1_tensor(ctx: PointContext, contact: AlmostContactStructure) -> np.ndarray:
    """Normality tensor: Nijenhuis torsion of phi plus 2 deta (x) xi."""
    P = contact.phi(ctx)
    xi = contact.xi(ctx)
    deta = ext_d1(ctx, contact.eta(ctx))
    out = nijenhuis(ctx, P)
    out += 2.0 * contract("...ij,...k->...ijk", deta, xi.val)
    return out


# ---------------------------------------------------------------------------
# classification


def classify(fix, ctxs, tol: float) -> dict | None:
    """Measured class residuals and the flags they imply at tolerance tol."""
    out = {}
    if fix.has("contact"):
        ct = fix.contact
        eta = ct.eta(ctxs)
        Phi = fundamental_form(ctxs, ct.phi(ctxs))
        deta = ext_d1(ctxs, eta)
        dPhi = ext_d2(ctxs, Phi)
        d_eta = reg.abs_max(deta)
        d_phi = reg.abs_max(dPhi)
        kenmotsu_defect = reg.abs_max(dPhi - 2.0 * wedge_1_2(eta.val, Phi.val))
        contact_defect = reg.abs_max(deta - Phi.val)
        n1 = reg.abs_max(n1_tensor(ctxs, ct))
        residuals = {
            "d_eta": d_eta,
            "d_fundamental": d_phi,
            "kenmotsu_defect": kenmotsu_defect,
            "contact_defect": contact_defect,
            "normality": n1,
        }
        almost_cosymplectic = d_eta <= tol and d_phi <= tol
        almost_kenmotsu = d_eta <= tol and kenmotsu_defect <= tol
        contact_metric = contact_defect <= tol
        normal = n1 <= tol
        flags = {
            "almost_cosymplectic": almost_cosymplectic,
            "almost_kenmotsu": almost_kenmotsu,
            "contact_metric": contact_metric,
            "normal": normal,
            "cosymplectic": almost_cosymplectic and normal,
            "kenmotsu": almost_kenmotsu and normal,
            "sasakian": contact_metric and normal,
        }
        out["contact"] = {"residuals": residuals, "flags": flags}
    if fix.has("hermitian"):
        J = fix.hermitian.J(ctxs)
        d_omega = reg.abs_max(ext_d2(ctxs, fundamental_form(ctxs, J)))
        nabla0_J = reg.abs_max(nabla_operator(ctxs, fix.lc, J))
        out["hermitian"] = {
            "residuals": {"d_omega": d_omega, "metric_connection_J": nabla0_J},
            "flags": {
                "almost_kaehler": d_omega <= tol,
                "kaehler": nabla0_J <= tol,
            },
        }
    return out or None


def almost_cosymplectic_residual(fix, ctxs) -> float:
    ct = fix.contact
    Phi = fundamental_form(ctxs, ct.phi(ctxs))
    return max(reg.abs_max(ext_d1(ctxs, ct.eta(ctxs))), reg.abs_max(ext_d2(ctxs, Phi)))


# ---------------------------------------------------------------------------
# structure-tensor checks


def _chk_phi_sq(fix, ctx):
    ct = fix.contact
    P = ct.phi(ctx).val
    rhs = -np.eye(ctx.dim) + contract("...i,...j->...ij", ct.xi(ctx).val, ct.eta(ctx).val)
    return reg.rel_residual(P @ P, rhs)


def _chk_eta_xi(fix, ctx):
    ct = fix.contact
    return reg.abs_max(contract("...i,...i->...", ct.eta(ctx).val, ct.xi(ctx).val) - 1.0)


def _chk_compat(fix, ctx):
    ct = fix.contact
    P = ct.phi(ctx).val
    eta = ct.eta(ctx).val
    lhs = contract("...ki,...km,...mj->...ij", P, ctx.g.val, P)
    return reg.rel_residual(lhs, ctx.g.val - contract("...i,...j->...ij", eta, eta))


def _chk_eta_metric(fix, ctx):
    ct = fix.contact
    xi_low = contract("...i,...ij->...j", ct.xi(ctx).val, ctx.g.val)
    return reg.rel_residual(ct.eta(ctx).val, xi_low)


def _chk_phi_xi(fix, ctx):
    ct = fix.contact
    return reg.abs_max(contract("...ij,...j->...i", ct.phi(ctx).val, ct.xi(ctx).val))


def _chk_eta_phi(fix, ctx):
    ct = fix.contact
    return reg.abs_max(contract("...i,...ij->...j", ct.eta(ctx).val, ct.phi(ctx).val))


def _chk_j_sq(fix, ctx):
    J = fix.hermitian.J(ctx).val
    return reg.rel_residual(J @ J, -np.eye(ctx.dim))


def _chk_j_skew(fix, ctx):
    J = fix.hermitian.J(ctx).val
    Om = contract("...ki,...kj->...ij", J, ctx.g.val)
    return reg.abs_max(Om + tr(Om))


for _name, _fn in [
    ("STRUCT-PHI-SQ", _chk_phi_sq),
    ("STRUCT-ETA-XI", _chk_eta_xi),
    ("STRUCT-COMPAT", _chk_compat),
    ("STRUCT-ETA-METRIC", _chk_eta_metric),
    ("STRUCT-PHI-XI", _chk_phi_xi),
    ("STRUCT-ETA-PHI", _chk_eta_phi),
]:
    reg.register(reg.CheckDef(name=_name, suite="structure", run=_fn, needs=("contact",)))

for _name, _fn in [
    ("STRUCT-J-SQ", _chk_j_sq),
    ("STRUCT-J-SKEW", _chk_j_skew),
]:
    reg.register(reg.CheckDef(name=_name, suite="structure", run=_fn, needs=("hermitian",)))


# ---------------------------------------------------------------------------
# shared pieces for the identity suites


def _herm_parts(fix, ctx):
    J = fix.hermitian.J(ctx)
    K = _k_val(fix, ctx)
    return J, K


def _gray_rhs_hermitian(fix, ctx, J: Jet) -> np.ndarray:
    """The torsion-free part of 2 g((nabla0_X J)Y, Z): exterior-derivative
    block plus Nijenhuis block."""
    Jv = J.val
    Omega = fundamental_form(ctx, J)
    dOm = ext_d2(ctx, Omega)
    dOmJJ = contract("...iml,...mj,...lk->...ijk", dOm, Jv, Jv)
    N = nijenhuis(ctx, J)
    out = np.subtract(dOm, dOmJJ, out=dOmJJ)
    out *= 3.0
    out += contract("...jkm,...li,...ml->...ijk", N, Jv, ctx.g.val)
    return out


def _chk_aziz1(fix, ctx):
    J, _ = _herm_parts(fix, ctx)
    NJ = nabla_operator(ctx, fix.nabla, J)
    NJs = nabla_operator(ctx, fix.nabla_star, J)
    lhs = op_lower(ctx, NJ)
    rhs = -contract("...imk,...mj->...ijk", NJs, ctx.g.val)
    return reg.rel_residual(lhs, rhs)


def _chk_aziz2(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    NJ = nabla_operator(ctx, fix.nabla, J)
    N0J = nabla_operator(ctx, fix.lc, J)
    return reg.rel_residual(NJ, N0J + op_commutator(K, J.val))


def _chk_aziz3(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    NJs = nabla_operator(ctx, fix.nabla_star, J)
    N0J = nabla_operator(ctx, fix.lc, J)
    return reg.rel_residual(NJs, N0J - op_commutator(K, J.val))


def _kj_lowered(ctx, K, Jv):
    """T[i][j][k] = g(K_{E_i}(J E_j), E_k)."""
    return contract("...mj,...iml,...lk->...ijk", Jv, K, ctx.g.val)


def _jk_lowered(ctx, K, Jv):
    """T[i][j][k] = g(J(K_{E_i} E_j), E_k)."""
    return contract("...ijm,...lm,...lk->...ijk", K, Jv, ctx.g.val)


def _chk_aziz4(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    NOm = nabla_2form(ctx, fix.nabla, fundamental_form(ctx, J))
    NJ = nabla_operator(ctx, fix.nabla, J)
    return reg.rel_residual(NOm, op_lower(ctx, NJ) - 2.0 * _kj_lowered(ctx, K, J.val))


def _chk_aziz5(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    NOms = nabla_2form(ctx, fix.nabla_star, fundamental_form(ctx, J))
    NJs = nabla_operator(ctx, fix.nabla_star, J)
    return reg.rel_residual(NOms, op_lower(ctx, NJs) + 2.0 * _kj_lowered(ctx, K, J.val))


def _chk_aziz5a(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    Om = fundamental_form(ctx, J)
    NOm = nabla_2form(ctx, fix.nabla, Om)
    N0Om = nabla_2form(ctx, fix.lc, Om)
    S = _kj_lowered(ctx, K, J.val) + _jk_lowered(ctx, K, J.val)
    return reg.rel_residual(NOm, N0Om - S)


def _chk_aziz5b(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    Om = fundamental_form(ctx, J)
    NOms = nabla_2form(ctx, fix.nabla_star, Om)
    N0Om = nabla_2form(ctx, fix.lc, Om)
    S = _kj_lowered(ctx, K, J.val) + _jk_lowered(ctx, K, J.val)
    return reg.rel_residual(NOms, N0Om + S)


def _chk_cyclic86(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    S = _kj_lowered(ctx, K, J.val) + _jk_lowered(ctx, K, J.val)
    return reg.abs_max(cyclic(S))


def _chk_aziz6(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    lhs = 2.0 * op_lower(ctx, nabla_operator(ctx, fix.nabla, J))
    rhs = 2.0 * op_lower(ctx, op_commutator(K, J.val)) + _gray_rhs_hermitian(fix, ctx, J)
    return reg.rel_residual(lhs, rhs)


def _chk_azizy7(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    lhs = 2.0 * op_lower(ctx, nabla_operator(ctx, fix.nabla_star, J))
    rhs = -2.0 * op_lower(ctx, op_commutator(K, J.val)) + _gray_rhs_hermitian(fix, ctx, J)
    return reg.rel_residual(lhs, rhs)


def _chk_aziz8(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    Jv = J.val
    N = nijenhuis(ctx, J)
    NJX = contract("...jkm,...li,...ml->...ijk", N, Jv, ctx.g.val)
    lhs = 2.0 * op_lower(ctx, nabla_operator(ctx, fix.nabla, J))
    rhs = 2.0 * op_lower(ctx, op_commutator(K, Jv)) + NJX
    return reg.rel_residual(lhs, rhs)


def _chk_aziz9(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    Jv = J.val
    N = nijenhuis(ctx, J)
    NJX = contract("...jkm,...li,...ml->...ijk", N, Jv, ctx.g.val)
    lhs = 2.0 * op_lower(ctx, nabla_operator(ctx, fix.nabla_star, J))
    rhs = -2.0 * op_lower(ctx, op_commutator(K, Jv)) + NJX
    return reg.rel_residual(lhs, rhs)


def _chk_aziz81(fix, ctx):
    J = fix.hermitian.J(ctx)
    NOm = nabla_2form(ctx, fix.nabla, fundamental_form(ctx, J))
    return reg.abs_max(cyclic(NOm))


def _chk_aziz82(fix, ctx):
    J = fix.hermitian.J(ctx)
    NOms = nabla_2form(ctx, fix.nabla_star, fundamental_form(ctx, J))
    return reg.abs_max(cyclic(NOms))


def _chk_aziz10(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    NJ = nabla_operator(ctx, fix.nabla, J)
    return reg.rel_residual(NJ, op_commutator(K, J.val))


def _chk_aziz11(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    NJs = nabla_operator(ctx, fix.nabla_star, J)
    return reg.rel_residual(NJs, -op_commutator(K, J.val))


def _chk_holo_equiv(fix, ctx):
    # with a parallel fundamental form for the metric connection, nabla Omega
    # vanishes exactly when the pair's difference tensor anti-commutes with J,
    # and then nabla* Omega vanishes as well
    J, K = _herm_parts(fix, ctx)
    Om = fundamental_form(ctx, J)
    S = _kj_lowered(ctx, K, J.val) + _jk_lowered(ctx, K, J.val)
    r1 = reg.abs_max(nabla_2form(ctx, fix.nabla, Om) + S)
    r2 = reg.abs_max(nabla_2form(ctx, fix.nabla_star, Om) - S)
    return max(r1, r2)


def _chk_holo_defect(fix, ctx):
    J, K = _herm_parts(fix, ctx)
    return reg.abs_max(op_anticommutator(K, J.val))


def _gate_almost_kaehler(fix, ctxs, tol):
    J = fix.hermitian.J(ctxs)
    r = reg.abs_max(ext_d2(ctxs, fundamental_form(ctxs, J)))
    if r <= tol:
        return True, r, None
    return False, r, "fundamental 2-form is not closed"


def _gate_kaehler(fix, ctxs, tol):
    r = reg.abs_max(nabla_operator(ctxs, fix.lc, fix.hermitian.J(ctxs)))
    if not fix.flags.get("kaehler", False):
        return False, r, "fixture not declared kaehler"
    if r > tol:
        return False, r, "declared kaehler but the metric connection moves J"
    return True, r, None


def _gate_holomorphic(fix, ctxs, tol):
    if fix.flags.get("holomorphic", False):
        return True, None, None
    return False, None, "fixture not declared holomorphic"


for _name, _fn in [
    ("HERM-AZIZ1", _chk_aziz1),
    ("HERM-AZIZ2", _chk_aziz2),
    ("HERM-AZIZ3", _chk_aziz3),
    ("HERM-AZIZ4", _chk_aziz4),
    ("HERM-AZIZ5", _chk_aziz5),
    ("HERM-AZIZ5A", _chk_aziz5a),
    ("HERM-AZIZ5B", _chk_aziz5b),
    ("HERM-AZIZ6", _chk_aziz6),
    ("HERM-AZIZY7", _chk_azizy7),
    ("CYCLIC-86", _chk_cyclic86),
]:
    reg.register(
        reg.CheckDef(name=_name, suite="hermitian", run=_fn, needs=("hermitian", "dual"))
    )

for _name, _fn in [
    ("HERM-AZIZ8", _chk_aziz8),
    ("HERM-AZIZ9", _chk_aziz9),
    ("HERM-AZIZ81", _chk_aziz81),
    ("HERM-AZIZ82", _chk_aziz82),
]:
    reg.register(
        reg.CheckDef(
            name=_name, suite="hermitian", run=_fn, needs=("hermitian", "dual"),
            unconditional=False, gate=_gate_almost_kaehler,
        )
    )

for _name, _fn in [
    ("HERM-AZIZ10", _chk_aziz10),
    ("HERM-AZIZ11", _chk_aziz11),
    ("HOLO-EQUIV", _chk_holo_equiv),
]:
    reg.register(
        reg.CheckDef(
            name=_name, suite="hermitian", run=_fn, needs=("hermitian", "dual"),
            unconditional=False, gate=_gate_kaehler,
        )
    )

reg.register(
    reg.CheckDef(
        name="HOLO-DEFECT", suite="hermitian", run=_chk_holo_defect,
        needs=("hermitian", "dual"), unconditional=False,
        gate=_gate_holomorphic, gate_fail_status=reg.SKIPPED,
        report_when_gated=True,
    )
)


# ---------------------------------------------------------------------------
# almost contact identity suite


def _ac_parts(fix, ctx):
    P = fix.contact.phi(ctx)
    K = _k_val(fix, ctx)
    return P, K


def _chk_aa3(fix, ctx):
    P, _ = _ac_parts(fix, ctx)
    NP = nabla_operator(ctx, fix.nabla, P)
    NPs = nabla_operator(ctx, fix.nabla_star, P)
    lhs = op_lower(ctx, NP)
    rhs = -contract("...imk,...mj->...ijk", NPs, ctx.g.val)
    return reg.rel_residual(lhs, rhs)


def _chk_aab1(fix, ctx):
    P, K = _ac_parts(fix, ctx)
    NP = nabla_operator(ctx, fix.nabla, P)
    N0P = nabla_operator(ctx, fix.lc, P)
    return reg.rel_residual(NP, N0P + op_commutator(K, P.val))


def _chk_aab2(fix, ctx):
    P, K = _ac_parts(fix, ctx)
    NPs = nabla_operator(ctx, fix.nabla_star, P)
    N0P = nabla_operator(ctx, fix.lc, P)
    return reg.rel_residual(NPs, N0P - op_commutator(K, P.val))


def _chk_aa4a(fix, ctx):
    P, K = _ac_parts(fix, ctx)
    NPhi = nabla_2form(ctx, fix.nabla, fundamental_form(ctx, P))
    NP = nabla_operator(ctx, fix.nabla, P)
    return reg.rel_residual(NPhi, op_lower(ctx, NP) - 2.0 * _kj_lowered(ctx, K, P.val))


def _chk_aa5(fix, ctx):
    P, K = _ac_parts(fix, ctx)
    NPhis = nabla_2form(ctx, fix.nabla_star, fundamental_form(ctx, P))
    NPs = nabla_operator(ctx, fix.nabla_star, P)
    return reg.rel_residual(NPhis, op_lower(ctx, NPs) + 2.0 * _kj_lowered(ctx, K, P.val))


def _chk_bb1(fix, ctx):
    P, K = _ac_parts(fix, ctx)
    Phi = fundamental_form(ctx, P)
    S = _kj_lowered(ctx, K, P.val) + _jk_lowered(ctx, K, P.val)
    return reg.rel_residual(
        nabla_2form(ctx, fix.nabla, Phi), nabla_2form(ctx, fix.lc, Phi) - S
    )


def _chk_bb2(fix, ctx):
    P, K = _ac_parts(fix, ctx)
    Phi = fundamental_form(ctx, P)
    S = _kj_lowered(ctx, K, P.val) + _jk_lowered(ctx, K, P.val)
    return reg.rel_residual(
        nabla_2form(ctx, fix.nabla_star, Phi), nabla_2form(ctx, fix.lc, Phi) + S
    )


def _chk_bbb1(fix, ctx):
    P, K = _ac_parts(fix, ctx)
    Phi = fundamental_form(ctx, P)
    S = _kj_lowered(ctx, K, P.val) + _jk_lowered(ctx, K, P.val)
    lhs = nabla_2form(ctx, fix.nabla, Phi) - nabla_2form(ctx, fix.nabla_star, Phi)
    return reg.rel_residual(lhs, -2.0 * S)


def _gray_rhs_contact(fix, ctx) -> np.ndarray:
    """The torsion-free part of 2 g((nabla0_X phi)Y, Z) for almost contact
    metric structures: exterior block, normality block, and the eta-weighted
    correction terms."""
    ct = fix.contact
    P = ct.phi(ctx)
    Pv = P.val
    eta = ct.eta(ctx)
    ev = eta.val
    Phi = fundamental_form(ctx, P)
    dPhi = ext_d2(ctx, Phi)
    dPhiPP = contract("...iml,...mj,...lk->...ijk", dPhi, Pv, Pv)
    N1 = n1_tensor(ctx, ct)
    N1PX = contract("...jkm,...li,...ml->...ijk", N1, Pv, ctx.g.val)
    # N2[j][k] = (L_{phi E_j} eta)(E_k) - (L_{phi E_k} eta)(E_j)
    M = np.stack(
        [lie_covector(ctx, operator_column(P, j), eta) for j in range(ctx.dim)],
        axis=-2,
    )
    N2 = M - tr(M)
    deta = ext_d1(ctx, eta)
    dEtaP = contract("...mi,...mj->...ij", deta, Pv)  # dEtaP[i][j] = deta(phi E_j, E_i)
    rhs = np.subtract(dPhi, dPhiPP, out=dPhiPP)
    rhs *= 3.0
    rhs += N1PX
    rhs += contract("...jk,...i->...ijk", N2, ev)
    rhs += 2.0 * contract("...ij,...k->...ijk", dEtaP, ev)
    rhs -= 2.0 * contract("...ik,...j->...ijk", dEtaP, ev)
    return rhs


def _chk_bb3(fix, ctx):
    P, _ = _ac_parts(fix, ctx)
    lhs = 2.0 * op_lower(ctx, nabla_operator(ctx, fix.lc, P))
    return reg.rel_residual(lhs, _gray_rhs_contact(fix, ctx))


def _chk_bb4(fix, ctx):
    P, K = _ac_parts(fix, ctx)
    lhs = 2.0 * op_lower(ctx, nabla_operator(ctx, fix.nabla, P))
    rhs = _gray_rhs_contact(fix, ctx) + 2.0 * op_lower(ctx, op_commutator(K, P.val))
    return reg.rel_residual(lhs, rhs)


def _chk_bb5(fix, ctx):
    P, K = _ac_parts(fix, ctx)
    lhs = 2.0 * op_lower(ctx, nabla_operator(ctx, fix.nabla_star, P))
    rhs = _gray_rhs_contact(fix, ctx) - 2.0 * op_lower(ctx, op_commutator(K, P.val))
    return reg.rel_residual(lhs, rhs)


_BB_NOTE = (
    "graded in the corrected classical form: exterior block, normality block, "
    "Lie block, and the eta-weighted deta terms, all sign-pinned numerically"
)

for _name, _fn in [
    ("AC-AA3", _chk_aa3),
    ("AC-AAB1", _chk_aab1),
    ("AC-AAB2", _chk_aab2),
    ("AC-AA4A", _chk_aa4a),
    ("AC-AA5", _chk_aa5),
    ("AC-BB1", _chk_bb1),
    ("AC-BB2", _chk_bb2),
    ("AC-BBB1", _chk_bbb1),
    ("AC-BB3", _chk_bb3),
    ("AC-BB4", _chk_bb4),
    ("AC-BB5", _chk_bb5),
]:
    reg.register(
        reg.CheckDef(
            name=_name, suite="almost-contact", run=_fn, needs=("contact", "dual"),
            annotate=_BB_NOTE if _name in ("AC-BB3", "AC-BB4", "AC-BB5") else None,
        )
    )
