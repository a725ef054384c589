"""Affine connections in frame presentation and the dualistic-pair checks.

A connection is any object producing a table G[i][j][k] with
nabla_{E_i} E_j = G[i][j][k] E_k at a point context, together with the exact
coordinate gradient of that table.  Conjugation is taken with respect to the
context metric:

    E_i g(E_j, E_k) = g(nabla_{E_i} E_j, E_k) + g(E_j, nabla*_{E_i} E_k)

so the conjugate table is Gs[i][j][l] = (Eg[i][j][k] - G[i][k][m] g[m][j]) ginv[k][l].

For a pair nabla = nabla0 + K, nabla* = nabla0 - K, `pair_side` gives one
side (conn, dual, K) of it and `register_pair` registers a check body once
per side.
"""

from __future__ import annotations

import numpy as np

from . import registry as reg
from .expr import Expr
from .frame import (
    ExprTable,
    GeometryError,
    Jet,
    Manifold,
    PointContext,
    contract,
    jet_einsum,
    tr,
)


class AffineConnection:
    def table(self, ctx: PointContext) -> tuple[np.ndarray, np.ndarray]:
        """(G, dG) at ctx; dG carries the coordinate gradient of G."""
        raise NotImplementedError

    def jet(self, ctx: PointContext) -> Jet:
        G, dG = ctx.connection_table(self)
        return Jet(G, dG)


class ExprConnection(AffineConnection):
    """Connection given by explicit coefficient expressions."""

    def __init__(self, cells, coords):
        self._table = ExprTable(cells, coords)
        s = self._table.shape
        n = len(coords)
        if s != (n, n, n):
            raise GeometryError(f"connection table must be cubical with side {n}, got shape {s}")

    @property
    def exprs(self):
        return self._table.exprs

    def table(self, ctx):
        j = ctx.table_jet(self._table)
        return j.val, j.grad


class LeviCivita(AffineConnection):
    """Metric connection of the context metric, via the Koszul formula.

    The table depends on the context alone, so all instances compare equal
    and share one cache entry per context."""

    def __eq__(self, other):
        return type(other) is LeviCivita

    def __hash__(self):
        return hash(LeviCivita)

    def table(self, ctx):
        Eg, c, g = ctx.Eg, ctx.c, ctx.g
        low = Eg + Eg.t(1, 0, 2)  # a fresh jet: the other terms are summed into it
        low -= Eg.t(1, 2, 0)
        low += jet_einsum("...ijm,...ml->...ijl", c, g)
        low -= jet_einsum("...ilm,...mj->...ijl", c, g)
        low -= jet_einsum("...jlm,...mi->...ijl", c, g)
        low *= 0.5
        G = jet_einsum("...ijl,...lk->...ijk", low, ctx.ginv)
        return G.val, G.grad


class Conjugate(AffineConnection):
    def __init__(self, base: AffineConnection):
        self.base = base

    def table(self, ctx):
        Gb = self.base.jet(ctx)
        low = ctx.Eg - jet_einsum("...ikm,...mj->...ijk", Gb, ctx.g)
        G = jet_einsum("...ijk,...kl->...ijl", low, ctx.ginv)
        return G.val, G.grad


def _conjugate_val(ctx: PointContext, G: np.ndarray) -> np.ndarray:
    """Values of the conjugate of a connection with value table G; the same
    contractions as Conjugate.table, without gradients."""
    low = ctx.Eg.val - contract("...ikm,...mj->...ijk", G, ctx.g.val)
    return contract("...ijk,...kl->...ijl", low, ctx.ginv.val)


class SymmetricCubic:
    """A totally symmetric cubic array C[i][j][k] = g(K_{E_i} E_j, E_k),
    raised against the context metric to the difference tensor K."""

    def __init__(self, C):
        C = np.asarray(C, float)
        if C.ndim != 3 or len(set(C.shape)) != 1:
            raise GeometryError(f"cubic array must have shape (n,n,n), got {C.shape}")
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            if not np.allclose(C, C.transpose(perm), atol=1e-12):
                raise GeometryError("cubic array must be totally symmetric")
        self.C = C

    def table(self, ctx):
        K = contract("ijl,...lk->...ijk", self.C, ctx.ginv.val)
        dK = contract("ijl,...lkg->...ijkg", self.C, ctx.ginv.grad)
        return K, dK

    def jet(self, ctx) -> Jet:
        return Jet(*self.table(ctx))


class ShiftedConnection(AffineConnection):
    """base + sign * K for a difference tensor K."""

    def __init__(self, base: AffineConnection, cubic: SymmetricCubic, sign: float):
        self.base = base
        self.cubic = cubic
        self.sign = float(sign)

    def table(self, ctx):
        Gb, dGb = ctx.connection_table(self.base)
        K, dK = self.cubic.table(ctx)  # fresh arrays, turned into the result
        K *= self.sign
        K += Gb
        dK *= self.sign
        dK += dGb
        return K, dK


class MeanConnection(AffineConnection):
    """Arithmetic mean of two connections; for a dualistic torsion-free pair
    this is the metric connection."""

    def __init__(self, a: AffineConnection, b: AffineConnection):
        self.a = a
        self.b = b

    # the mean of one pair is one connection, however often it is built
    def __eq__(self, other):
        return type(other) is MeanConnection and (other.a, other.b) == (self.a, self.b)

    def __hash__(self):
        return hash((MeanConnection, self.a, self.b))

    def table(self, ctx):
        Ga, dGa = ctx.connection_table(self.a)
        Gb, dGb = ctx.connection_table(self.b)
        G, dG = Ga + Gb, dGa + dGb
        G *= 0.5
        dG *= 0.5
        return G, dG


class ProductConnection(AffineConnection):
    """Connection on a line-times-base product in the frame (d/dt, base frame).

    The d/dt direction self-couples through sign * lam(t) d/dt, mixed slots
    vanish, and the base block is the given base connection evaluated at the
    base point.
    """

    def __init__(self, base_manifold: Manifold, base_conn: AffineConnection,
                 lam: Expr, sign: float):
        self.base_manifold = base_manifold
        self.base_conn = base_conn
        self.lam = ExprTable(lam, ("t",))
        self.sign = float(sign)

    def table(self, ctx):
        n = ctx.dim
        nb = self.base_manifold.dim
        if n != nb + 1:
            raise GeometryError("product connection used on a non-product context")
        # stored on the product context, so both halves of a pair share it
        bctx = ctx.derived(_base_context, self.base_manifold)
        Gb, dGb = bctx.connection_table(self.base_conn)
        lam = ctx.table_jet(self.lam)  # an expression in t, the first coordinate
        G = np.zeros(ctx.lead + (n, n, n))
        dG = np.zeros(ctx.lead + (n, n, n, n))
        G[..., 0, 0, 0] = self.sign * lam.val
        dG[..., 0, 0, 0, 0] = self.sign * lam.grad[..., 0]
        G[..., 1:, 1:, 1:] = Gb
        dG[..., 1:, 1:, 1:, 1:] = dGb
        return G, dG


def _base_context(ctx: PointContext, base: Manifold) -> PointContext:
    return base.context(ctx.x[..., 1:])


# ---------------------------------------------------------------------------
# constructions


def levi_civita() -> LeviCivita:
    return LeviCivita()


def conjugate(conn: AffineConnection) -> Conjugate:
    return Conjugate(conn)


def difference_jet(ctx: PointContext, a: AffineConnection, b: AffineConnection) -> Jet:
    """K = a - b as a (1,2) tensor jet."""
    Ga, dGa = ctx.connection_table(a)
    Gb, dGb = ctx.connection_table(b)
    return Jet(Ga - Gb, dGa - dGb)


def lower(ctx: PointContext, T: np.ndarray) -> np.ndarray:
    """C[i][j][k] = g(T_{E_i} E_j, E_k)."""
    return contract("...ijm,...mk->...ijk", T, ctx.g.val)


def torsion(ctx: PointContext, conn: AffineConnection) -> np.ndarray:
    G = conn.jet(ctx).val
    return G - tr(G, 1, 0, 2) - ctx.c.val


def random_statistical(manifold: Manifold, seed: int, scale: float = 0.5):
    """A seeded statistical pair (nabla, nabla_star) = (LC + K, LC - K) from a
    totally symmetric cubic with entries uniform in [-scale, scale]."""
    n = manifold.dim
    rng = np.random.default_rng(seed)
    C = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                v = rng.uniform(-scale, scale)
                for p in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                    C[p] = v
    cubic = SymmetricCubic(C)
    lc = LeviCivita()
    return ShiftedConnection(lc, cubic, +1.0), ShiftedConnection(lc, cubic, -1.0)


def dualistic_residual(ctx: PointContext, nabla: AffineConnection,
                       nabla_star: AffineConnection) -> float:
    """Residual of E_i g_jk = g(nabla_{E_i}E_j, E_k) + g(E_j, nabla*_{E_i}E_k)."""
    G = nabla.jet(ctx).val
    Gs = nabla_star.jet(ctx).val
    rhs = contract("...ijm,...mk->...ijk", G, ctx.g.val) + contract(
        "...ikm,...jm->...ijk", Gs, ctx.g.val
    )
    return reg.rel_residual(ctx.Eg.val, rhs)


def check_dualistic(manifold: Manifold, nabla: AffineConnection,
                    nabla_star: AffineConnection, points) -> float:
    """Worst dualistic residual over the given sample points."""
    return dualistic_residual(manifold.contexts(points), nabla, nabla_star)


# ---------------------------------------------------------------------------
# registered checks


def _k_val(fix, ctx) -> np.ndarray:
    """The fixture's difference tensor K = nabla - nabla0, values only,
    computed once per context; the store keeps it read-only, so a write
    into it raises."""
    return ctx.derived(_difference_val, fix.nabla, fix.lc)


def _difference_val(ctx: PointContext, a: AffineConnection, b: AffineConnection) -> np.ndarray:
    return ctx.connection_table(a)[0] - ctx.connection_table(b)[0]


def _neg_difference_val(ctx: PointContext, a: AffineConnection,
                        b: AffineConnection) -> np.ndarray:
    return -ctx.derived(_difference_val, a, b)


def pair_side(fix, ctx, star: bool) -> tuple:
    """One side (conn, dual, K) of the fixture's pair: (nabla, nabla*, K), or
    (nabla*, nabla, -K) with star.  As nabla = nabla0 + K and
    nabla* = nabla0 - K, an identity about nabla holds for nabla* with K
    replaced by -K, so one body written over a side serves both.  -K is kept
    next to K in the context's store; negation is exact, so a body on the
    nabla* side computes bitwise what its hand-written dual would."""
    if star:
        return fix.nabla_star, fix.nabla, ctx.derived(_neg_difference_val, fix.nabla, fix.lc)
    return fix.nabla, fix.nabla_star, _k_val(fix, ctx)


def register_pair(names: tuple[str, str], suite: str, body, **kw) -> None:
    """Register body(fix, ctx, side) under names[0] on the side of nabla and
    under names[1] on the side of nabla*; kw go to both CheckDefs."""
    for star, name in enumerate(names):
        reg.register(reg.CheckDef(name=name, suite=suite, run=_on_side(body, bool(star)), **kw))


def _on_side(body, star: bool):
    def run(fix, ctx):
        return body(fix, ctx, pair_side(fix, ctx, star))

    return run


def _chk_stat1(fix, ctx):
    return dualistic_residual(ctx, fix.nabla, fix.nabla_star)


def _chk_torsion(fix, ctx, side):
    return reg.abs_max(torsion(ctx, side[0]))


def _chk_torsion_lc(fix, ctx):
    return reg.abs_max(torsion(ctx, fix.lc))


def _chk_lc_metric(fix, ctx):
    G0 = fix.lc.jet(ctx).val
    nabla_g = (
        ctx.Eg.val
        - contract("...ijm,...mk->...ijk", G0, ctx.g.val)
        - contract("...ikm,...jm->...ijk", G0, ctx.g.val)
    )
    return reg.abs_max(nabla_g)


def _chk_mean(fix, ctx):
    G = fix.nabla.jet(ctx).val
    Gs = fix.nabla_star.jet(ctx).val
    G0 = fix.lc.jet(ctx).val
    return reg.rel_residual(0.5 * (G + Gs), G0)


def _chk_k_symm(fix, ctx):
    K = _k_val(fix, ctx)
    return reg.rel_residual(K, tr(K, 1, 0, 2))


def _chk_k_selfadj(fix, ctx):
    C = lower(ctx, _k_val(fix, ctx))
    return reg.rel_residual(C, tr(C))


def _chk_k_conj(fix, ctx):
    # K also measures how far nabla* sits below the metric connection
    K = _k_val(fix, ctx)
    G0 = fix.lc.jet(ctx).val
    Gs = fix.nabla_star.jet(ctx).val
    return reg.rel_residual(K, G0 - Gs)


def _chk_k5(fix, ctx):
    G = fix.nabla.jet(ctx).val
    G0 = fix.lc.jet(ctx).val
    K = _k_val(fix, ctx)
    return reg.rel_residual(lower(ctx, G), lower(ctx, K) + lower(ctx, G0))


def _chk_conj_invol(fix, ctx):
    G = fix.nabla.jet(ctx).val
    back = _conjugate_val(ctx, _conjugate_val(ctx, G))
    return reg.rel_residual(back, G)


for _name, _fn in [
    ("DUAL-STAT1", _chk_stat1),
    ("DUAL-TORSION-LC", _chk_torsion_lc),
    ("DUAL-LC-METRIC", _chk_lc_metric),
    ("DUAL-MEAN", _chk_mean),
    ("DUAL-K-SYMM", _chk_k_symm),
    ("DUAL-K-SELFADJ", _chk_k_selfadj),
    ("DUAL-K-CONJ", _chk_k_conj),
    ("DUAL-K5", _chk_k5),
    ("DUAL-CONJ-INVOL", _chk_conj_invol),
]:
    reg.register(reg.CheckDef(name=_name, suite="dual", run=_fn, needs=("dual",)))
register_pair(("DUAL-TORSION-NABLA", "DUAL-TORSION-NABLA-STAR"), "dual", _chk_torsion,
              needs=("dual",))
