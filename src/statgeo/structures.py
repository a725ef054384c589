"""Almost contact metric and almost Hermitian structures over dualistic pairs.

Defines the structure-tensor sanity checks, fundamental 2-forms, Nijenhuis
torsion, the classification residuals (closedness of eta and of the
fundamental form, normality, and their named combinations), and the identity
suites tying covariant derivatives of the structure operator along a
dualistic pair to the difference tensor, exterior derivatives, and torsion
terms.

Each identity has one body, written over the structure operator P (phi of
an almost contact structure, J of an almost Hermitian one) and, where it
involves the pair, over one side (conn, dual, K) of it: (nabla, nabla*, K)
or (nabla*, nabla, -K).  `register_identity` registers a body under the
names of its instances, so HERM-AZIZ2 and AC-AAB1 are one body on J and on
phi, and AC-AAB1 and AC-AAB2 one body on the two sides.  The same bodies
serve the cosymplectic suite (COSYM-KF1A/KF2A, COSYM-DAZIZ1/2).
"""

from __future__ import annotations

import functools

import numpy as np

from . import registry as reg
from .connections import AffineConnection, _k_val, register_pair
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
# one body per identity, over P and a side of the pair (see the module
# docstring); the tables after each suite register the bodies by name


def register_identity(names, suite: str, body, structure: str | None = None, **kw) -> None:
    """Register body(fix, ctx, [P,] [side]).  With a structure ("contact" or
    "hermitian"), its operator P comes first.  names is one name, or the
    names of the nabla side and of the nabla* side for a body that also takes
    a side (see `connections.register_pair`); kw go to every CheckDef."""
    run = body if structure is None else _over_op(body, structure)
    if isinstance(names, str):
        reg.register(reg.CheckDef(name=names, suite=suite, run=run, **kw))
    else:
        register_pair(names, suite, run, **kw)


def _over_op(body, structure: str):
    def run(fix, ctx, *side):
        P = fix.contact.phi(ctx) if structure == "contact" else fix.hermitian.J(ctx)
        return body(fix, ctx, P, *side)

    return run


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


for _name, _fn, _needs in [
    ("STRUCT-PHI-SQ", _chk_phi_sq, ("contact",)),
    ("STRUCT-ETA-XI", _chk_eta_xi, ("contact",)),
    ("STRUCT-COMPAT", _chk_compat, ("contact",)),
    ("STRUCT-ETA-METRIC", _chk_eta_metric, ("contact",)),
    ("STRUCT-PHI-XI", _chk_phi_xi, ("contact",)),
    ("STRUCT-ETA-PHI", _chk_eta_phi, ("contact",)),
    ("STRUCT-J-SQ", _chk_j_sq, ("hermitian",)),
    ("STRUCT-J-SKEW", _chk_j_skew, ("hermitian",)),
]:
    register_identity(_name, "structure", _fn, needs=_needs)


def _kp_lowered(ctx, K, Pv):
    """T[i][j][k] = g(K_{E_i}(P E_j), E_k)."""
    return contract("...mj,...iml,...lk->...ijk", Pv, K, ctx.g.val)


def _kp_sym(ctx, K, Pv):
    """T[i][j][k] = g(K_{E_i}(P E_j), E_k) + g(P(K_{E_i} E_j), E_k)."""
    out = _kp_lowered(ctx, K, Pv)
    out += contract("...ijm,...lm,...lk->...ijk", K, Pv, ctx.g.val)
    return out


def _n_lowered(ctx, N, Pv):
    """T[i][j][k] = g(P E_i, N(E_j, E_k)) for a (1,2) tensor N[j][k][m]."""
    return contract("...jkm,...li,...ml->...ijk", N, Pv, ctx.g.val)


def _chk_p_conjugate(fix, ctx, P):
    # g((nabla_X P)Y, Z) = -g(Y, (nabla*_X P)Z)
    lhs = op_lower(ctx, nabla_operator(ctx, fix.nabla, P))
    NPs = nabla_operator(ctx, fix.nabla_star, P)
    return reg.rel_residual(lhs, -contract("...imk,...mj->...ijk", NPs, ctx.g.val))


def _chk_p_shift(fix, ctx, P, side):
    # nabla P = nabla0 P + K P - P K
    conn, _, K = side
    NP = nabla_operator(ctx, conn, P)
    return reg.rel_residual(NP, nabla_operator(ctx, fix.lc, P) + op_commutator(K, P.val))


def _chk_p_commutator(fix, ctx, P, side):
    # nabla P = K P - P K where nabla0 P = 0 (Kaehler, cosymplectic)
    conn, _, K = side
    return reg.rel_residual(nabla_operator(ctx, conn, P), op_commutator(K, P.val))


def _chk_form_op(fix, ctx, P, side):
    # (nabla_X F)(Y, Z) = g((nabla_X P)Y, Z) - 2 g(K_X(P Y), Z) for F = g(P., .)
    conn, _, K = side
    NF = nabla_2form(ctx, conn, fundamental_form(ctx, P))
    rhs = op_lower(ctx, nabla_operator(ctx, conn, P)) - 2.0 * _kp_lowered(ctx, K, P.val)
    return reg.rel_residual(NF, rhs)


def _chk_form_shift(fix, ctx, P, side):
    # nabla F = nabla0 F - g(K(P.), .) - g(P K(.), .)
    conn, _, K = side
    F = fundamental_form(ctx, P)
    rhs = nabla_2form(ctx, fix.lc, F) - _kp_sym(ctx, K, P.val)
    return reg.rel_residual(nabla_2form(ctx, conn, F), rhs)


def _chk_form_cyclic(fix, ctx, P, side):
    return reg.abs_max(cyclic(nabla_2form(ctx, side[0], fundamental_form(ctx, P))))


def _chk_gray(rhs, fix, ctx, P, side):
    # 2 g((nabla_X P)Y, Z) = rhs + 2 g((K_X P)Y, Z), rhs(fix, ctx, P) standing
    # for 2 g((nabla0_X P)Y, Z) on the fixtures it is graded on
    conn, _, K = side
    lhs = 2.0 * op_lower(ctx, nabla_operator(ctx, conn, P))
    return reg.rel_residual(lhs, 2.0 * op_lower(ctx, op_commutator(K, P.val)) + rhs(fix, ctx, P))


def _gray_block(ctx, P: Jet, N: np.ndarray) -> np.ndarray:
    """3 (dF - dF(P., P.)) + g(P E_i, N(E_j, E_k)) for F = g(P., .): the
    exterior-derivative and Nijenhuis blocks of 2 g((nabla0_X P)Y, Z)."""
    dF = ext_d2(ctx, fundamental_form(ctx, P))
    out = contract("...iml,...mj,...lk->...ijk", dF, P.val, P.val)
    np.subtract(dF, out, out=out)
    out *= 3.0
    out += _n_lowered(ctx, N, P.val)
    return out


def _gray_rhs_hermitian(fix, ctx, J: Jet) -> np.ndarray:
    return _gray_block(ctx, J, nijenhuis(ctx, J))


def _nijenhuis_rhs(fix, ctx, J: Jet) -> np.ndarray:
    # on an almost Kaehler fixture dF = 0 and the Nijenhuis block is all
    return _n_lowered(ctx, nijenhuis(ctx, J), J.val)


def _gray_rhs_contact(fix, ctx, P: Jet) -> np.ndarray:
    """2 g((nabla0_X phi)Y, Z) for almost contact metric structures: the
    Gray block with the normality tensor N1, then the Lie block and the
    eta-weighted deta terms."""
    eta = fix.contact.eta(ctx)
    ev = eta.val
    rhs = _gray_block(ctx, P, n1_tensor(ctx, fix.contact))
    # N2[j][k] = (L_{phi E_j} eta)(E_k) - (L_{phi E_k} eta)(E_j)
    M = np.stack(
        [lie_covector(ctx, operator_column(P, j), eta) for j in range(ctx.dim)], axis=-2
    )
    rhs += contract("...jk,...i->...ijk", M - tr(M), ev)
    # dEtaP[i][j] = deta(phi E_j, E_i)
    dEtaP = contract("...mi,...mj->...ij", ext_d1(ctx, eta), P.val)
    rhs += 2.0 * contract("...ij,...k->...ijk", dEtaP, ev)
    rhs -= 2.0 * contract("...ik,...j->...ijk", dEtaP, ev)
    return rhs


# ---------------------------------------------------------------------------
# almost Hermitian identity suite


def _chk_cyclic86(fix, ctx, J):
    return reg.abs_max(cyclic(_kp_sym(ctx, _k_val(fix, ctx), J.val)))


def _chk_holo_equiv(fix, ctx, J):
    # with a parallel fundamental form for the metric connection, nabla Omega
    # vanishes exactly when the pair's difference tensor anti-commutes with J,
    # and then nabla* Omega vanishes as well
    Om = fundamental_form(ctx, J)
    S = _kp_sym(ctx, _k_val(fix, ctx), J.val)
    r1 = reg.abs_max(nabla_2form(ctx, fix.nabla, Om) + S)
    r2 = reg.abs_max(nabla_2form(ctx, fix.nabla_star, Om) - S)
    return max(r1, r2)


def _chk_holo_defect(fix, ctx, J):
    return reg.abs_max(op_anticommutator(_k_val(fix, ctx), J.val))


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


for _names, _body, _gate in [
    ("HERM-AZIZ1", _chk_p_conjugate, None),
    (("HERM-AZIZ2", "HERM-AZIZ3"), _chk_p_shift, None),
    (("HERM-AZIZ4", "HERM-AZIZ5"), _chk_form_op, None),
    (("HERM-AZIZ5A", "HERM-AZIZ5B"), _chk_form_shift, None),
    (("HERM-AZIZ6", "HERM-AZIZY7"), functools.partial(_chk_gray, _gray_rhs_hermitian), None),
    ("CYCLIC-86", _chk_cyclic86, None),
    (("HERM-AZIZ8", "HERM-AZIZ9"), functools.partial(_chk_gray, _nijenhuis_rhs),
     _gate_almost_kaehler),
    (("HERM-AZIZ81", "HERM-AZIZ82"), _chk_form_cyclic, _gate_almost_kaehler),
    (("HERM-AZIZ10", "HERM-AZIZ11"), _chk_p_commutator, _gate_kaehler),
    ("HOLO-EQUIV", _chk_holo_equiv, _gate_kaehler),
]:
    register_identity(_names, "hermitian", _body, "hermitian",
                      needs=("hermitian", "dual"), gate=_gate)

register_identity(
    "HOLO-DEFECT", "hermitian", _chk_holo_defect, "hermitian",
    needs=("hermitian", "dual"), gate=_gate_holomorphic,
    gate_fail_status=reg.SKIPPED, report_when_gated=True,
)


# ---------------------------------------------------------------------------
# almost contact identity suite


def _chk_bbb1(fix, ctx, P):
    Phi = fundamental_form(ctx, P)
    lhs = nabla_2form(ctx, fix.nabla, Phi) - nabla_2form(ctx, fix.nabla_star, Phi)
    return reg.rel_residual(lhs, -2.0 * _kp_sym(ctx, _k_val(fix, ctx), P.val))


def _chk_bb3(fix, ctx, P):
    lhs = 2.0 * op_lower(ctx, nabla_operator(ctx, fix.lc, P))
    return reg.rel_residual(lhs, _gray_rhs_contact(fix, ctx, P))


_BB_NOTE = (
    "graded in the corrected classical form: exterior block, normality block, "
    "Lie block, and the eta-weighted deta terms, all sign-pinned numerically"
)

for _names, _body, _note in [
    ("AC-AA3", _chk_p_conjugate, None),
    (("AC-AAB1", "AC-AAB2"), _chk_p_shift, None),
    (("AC-AA4A", "AC-AA5"), _chk_form_op, None),
    (("AC-BB1", "AC-BB2"), _chk_form_shift, None),
    ("AC-BBB1", _chk_bbb1, None),
    ("AC-BB3", _chk_bb3, _BB_NOTE),
    (("AC-BB4", "AC-BB5"), functools.partial(_chk_gray, _gray_rhs_contact), _BB_NOTE),
]:
    register_identity(_names, "almost-contact", _body, "contact",
                      needs=("contact", "dual"), annotate=_note)
