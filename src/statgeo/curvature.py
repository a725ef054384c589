"""Curvature tensors of frame connections, Ricci traces, the h-operator
family, and the Reeb-curvature identity suite.

R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z throughout;
K_xi acts on operators as a derivation, (K_xi phi) = K_xi phi - phi K_xi,
matching the covariant-derivative checks elsewhere in the package.
"""

from __future__ import annotations

import numpy as np

from . import registry as reg
from .connections import AffineConnection, MeanConnection, _k_val
from .cosymplectic import _apply, _xi_derivative_of_phi, a_tensors, gate_almost_cosymplectic
from .frame import Jet, contract, lie_operator, tr
from .structures import almost_cosymplectic_residual, nabla_operator, register_identity


def riemann(ctx, conn: AffineConnection) -> np.ndarray:
    """R[i][j][k][l]: component l of R(E_i, E_j)E_k, computed once per
    context and connection."""
    return ctx.derived(_riemann, conn)


def _riemann(ctx, conn: AffineConnection) -> np.ndarray:
    # R[i][j][k][l] = A[i][j][k][l] - A[j][i][k][l] - c[i][j][m] G[m][k][l]
    # for A[i][j][k][l] = E_i G[j][k][l] + G[j][k][m] G[i][m][l]: the other
    # quadratic term of R, G[i][k][m] G[j][m][l], is the first with i and j
    # swapped, so one contraction serves both
    Gj = conn.jet(ctx)
    G = Gj.val
    A = ctx.E(Gj)
    A += contract("...jkm,...iml->...ijkl", G, G)
    R = A - tr(A, 1, 0, 2, 3)
    R -= contract("...ijm,...mkl->...ijkl", ctx.c.val, G)
    return R


def ricci(ctx, conn: AffineConnection) -> np.ndarray:
    """S[j][k] = trace of Z -> R(Z, E_j)E_k, formed in the context's
    g-orthonormal frame."""
    b = ctx.onb
    return contract("...ui,...ijkl,...lm,...um->...jk", b, riemann(ctx, conn), ctx.g.val, b)


# ---------------------------------------------------------------------------
# operator-valued covariant derivatives


def nabla_vector_jet(ctx, conn: AffineConnection, v: Jet) -> Jet:
    """(nabla v)[i][k] together with its coordinate gradient; v must carry a
    second gradient."""
    G, dG = ctx.connection_table(conn)
    out = ctx.E_jet(v)  # a fresh jet: the other terms are summed into it
    out.val += contract("...j,...ijk->...ik", v.val, G)
    out.grad += contract("...ja,...ijk->...ika", v.grad, G)
    out.grad += contract("...j,...ijka->...ika", v.val, dG)
    return out


def a_jet(ctx, conn: AffineConnection, xi: Jet) -> Jet:
    """Shape operator A = -nabla xi as an operator jet (value and gradient),
    computed once per context, connection and xi."""
    return ctx.derived(_a_jet, conn, xi)


def _a_jet(ctx, conn: AffineConnection, xi: Jet) -> Jet:
    nv = nabla_vector_jet(ctx, conn, xi)
    nv *= -1.0
    return nv.t(1, 0)


def h_tensors(fix, ctx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h0, h, h*) with h0 = (1/2) L_xi phi, h = (1/2)(A phi - phi A),
    h* = (1/2)(A* phi - phi A*)."""
    ct = fix.contact
    P = ct.phi(ctx)
    h0 = 0.5 * lie_operator(ctx, ct.xi(ctx), P)
    A, As, _ = a_tensors(fix, ctx)
    h = 0.5 * (A @ P.val - P.val @ A)
    hs = 0.5 * (As @ P.val - P.val @ As)
    return h0, h, hs


def _k_xi_op(fix, ctx) -> np.ndarray:
    """Operator table of K_xi."""
    return tr(contract("...i,...ijk->...jk", fix.contact.xi(ctx).val, _k_val(fix, ctx)))


def _k_xi_phi(fix, ctx) -> np.ndarray:
    """K_xi acting on phi as a derivation."""
    P = fix.contact.phi(ctx).val
    Kx = _k_xi_op(fix, ctx)
    return Kx @ P - P @ Kx


def _mean(fix) -> MeanConnection:
    return MeanConnection(fix.nabla, fix.nabla_star)


def _reeb_op(ctx, R: np.ndarray, xiv: np.ndarray) -> np.ndarray:
    """Operator X -> R(X, xi)xi."""
    return contract("...ijkl,...j,...k->...li", R, xiv, xiv)


# ---------------------------------------------------------------------------
# checks


def _chk_antisym(fix, ctx):
    r = 0.0
    for conn in (fix.nabla, fix.nabla_star, _mean(fix)):
        R = riemann(ctx, conn)
        r = max(r, reg.abs_max(R + tr(R, 1, 0, 2, 3)))
    return r


def _reeb_comm(fix, ctx, conn_diff, conn_a):
    """(nabla_Y A)X - (nabla_X A)Y for X=E_i, Y=E_j, as [i][j][l]."""
    xi = fix.contact.xi(ctx)
    NA = nabla_operator(ctx, conn_diff, a_jet(ctx, conn_a, xi))
    return tr(NA, 2, 0, 1) - tr(NA, 0, 2, 1)


def _chk_r0(fix, ctx, side):
    # R(X, Y)xi = (nabla_Y A)X - (nabla_X A)Y for one connection of the pair
    conn = side[0]
    lhs = contract("...ijkl,...k->...ijl", riemann(ctx, conn), fix.contact.xi(ctx).val)
    return reg.rel_residual(lhs, _reeb_comm(fix, ctx, conn, conn))


def _chk_r03(fix, ctx):
    _, h, hs = h_tensors(fix, ctx)
    g = ctx.g.val
    r = 0.0
    for op in (h, hs):
        L = contract("...mi,...mj->...ij", op, g)
        r = max(r, reg.rel_residual(L, tr(L)))
    return r


def _chk_r04(fix, ctx):
    h0, h, hs = h_tensors(fix, ctx)
    kp = _k_xi_phi(fix, ctx)
    return max(
        reg.rel_residual(h0, h + 0.5 * kp), reg.rel_residual(h0, hs - 0.5 * kp)
    )


def _chk_r05(fix, ctx):
    _, h, hs = h_tensors(fix, ctx)
    return reg.rel_residual(hs - h, _k_xi_phi(fix, ctx))


def _chk_r06(fix, ctx):
    h0, h, hs = h_tensors(fix, ctx)
    return reg.rel_residual(h + hs, 2.0 * h0)


def _chk_klm(fix, ctx):
    P = fix.contact.phi(ctx).val
    A, As, _ = a_tensors(fix, ctx)
    kp = _k_xi_phi(fix, ctx)
    dn = _xi_derivative_of_phi(fix, ctx, fix.nabla)
    ds = _xi_derivative_of_phi(fix, ctx, fix.nabla_star)
    return max(
        reg.rel_residual(dn, kp),
        reg.rel_residual(ds, -kp),
        reg.rel_residual(dn, P @ A + As @ P),
        reg.rel_residual(ds, P @ As + A @ P),
    )


def _klm_note(fix, ctxs):
    P = fix.contact.phi(ctxs).val
    A, As, _ = a_tensors(fix, ctxs)
    mags = {
        "K_xi phi": reg.abs_max(_k_xi_phi(fix, ctxs)),
        "A phi + phi A*": reg.abs_max(A @ P + P @ As),
        "A* phi + phi A": reg.abs_max(As @ P + P @ A),
        "nabla_xi phi": reg.abs_max(_xi_derivative_of_phi(fix, ctxs, fix.nabla)),
        "nabla*_xi phi": reg.abs_max(_xi_derivative_of_phi(fix, ctxs, fix.nabla_star)),
    }
    body = ", ".join(f"|{k}| = {v:.3e}" for k, v in mags.items())
    return f"co-vanishing family: {body}"


def _chk_b3(fix, ctx):
    xi = fix.contact.xi(ctx)
    xiv = xi.val
    mean = _mean(fix)
    lhs = 4.0 * contract("...ijkl,...k->...ijl", riemann(ctx, mean), xiv)
    rhs = (
        contract("...ijkl,...k->...ijl", riemann(ctx, fix.nabla), xiv)
        + contract("...ijkl,...k->...ijl", riemann(ctx, fix.nabla_star), xiv)
        + _reeb_comm(fix, ctx, fix.nabla_star, fix.nabla)
        + _reeb_comm(fix, ctx, fix.nabla, fix.nabla_star)
    )
    return reg.rel_residual(lhs, rhs)


def _chk_b4(fix, ctx):
    P = fix.contact.phi(ctx).val
    xiv = fix.contact.xi(ctx).val
    _, _, A0 = a_tensors(fix, ctx)
    Rop = _reeb_op(ctx, riemann(ctx, fix.lc), xiv)
    return reg.rel_residual(Rop - P @ Rop @ P, -2.0 * (A0 @ A0))


def _rzz_sides(fix, ctx):
    P = fix.contact.phi(ctx).val
    xiv = fix.contact.xi(ctx).val
    A, As, _ = a_tensors(fix, ctx)
    Rn = _reeb_op(ctx, riemann(ctx, fix.nabla), xiv)
    Rs = _reeb_op(ctx, riemann(ctx, fix.nabla_star), xiv)
    lhs = Rn - P @ Rn @ P + Rs - P @ Rs @ P
    return lhs, -2.0 * (A @ A + As @ As)


def _chk_rzz(fix, ctx):
    lhs, rhs = _rzz_sides(fix, ctx)
    return reg.rel_residual(lhs, rhs)


def _chk_szz(fix, ctx):
    xiv = fix.contact.xi(ctx).val
    A, As, _ = a_tensors(fix, ctx)
    s = contract("...jk,...j,...k->...", ricci(ctx, fix.nabla), xiv, xiv)
    ss = contract("...jk,...j,...k->...", ricci(ctx, fix.nabla_star), xiv, xiv)
    return reg.rel_residual(s + ss, -np.trace(A @ A + As @ As, axis1=-2, axis2=-1))


def gate_reeb_hypotheses(fix, ctxs, tol):
    """Class residual plus the stated hypotheses K_xi phi = 0 and A xi = 0."""
    A, _, _ = a_tensors(fix, ctxs)
    xiv = fix.contact.xi(ctxs).val
    r = max(
        almost_cosymplectic_residual(fix, ctxs),
        reg.abs_max(_k_xi_phi(fix, ctxs)),
        reg.abs_max(_apply(A, xiv)),
    )
    if r <= tol:
        return True, r, None
    return False, r, "hypotheses K_xi phi = 0 and A xi = 0 are not satisfied"


_CD = ("contact", "dual")
_ACS = {"gate": gate_almost_cosymplectic}
_REEB = {"gate": gate_reeb_hypotheses, "report_when_gated": True}
for _names, _body, _needs, _kw in [
    ("CURV-ANTISYM", _chk_antisym, ("dual",), {}),
    (("CURV-R0", "CURV-R00"), _chk_r0, _CD, {}),
    ("CURV-R05", _chk_r05, _CD, {}),
    ("CURV-b3", _chk_b3, _CD, {}),
    # R03/R04/R06 lean on the Lie-derivative operator h0, whose agreement
    # with the shape-operator forms needs nabla0_xi phi = 0; that holds
    # exactly on the almost cosymplectic class.
    ("CURV-R03", _chk_r03, _CD, _ACS),
    ("CURV-R04", _chk_r04, _CD, _ACS),
    ("CURV-R06", _chk_r06, _CD, _ACS),
    ("CURV-KLM", _chk_klm, _CD, dict(_ACS, annotate=_klm_note)),
    ("CURV-b4", _chk_b4, ("contact",), _ACS),
    ("CURV-RZZ", _chk_rzz, _CD, _REEB),
    ("CURV-SZZ", _chk_szz, _CD, _REEB),
]:
    register_identity(_names, "curvature", _body, needs=_needs, **_kw)
