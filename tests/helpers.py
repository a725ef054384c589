"""Shared test utilities: seeded random expressions, finite differences, and
second implementations that the package's results are compared against."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np

from statgeo import expr as ex
from statgeo import registry as reg
from statgeo.connections import ShiftedConnection, SymmetricCubic
from statgeo.fixtures import Fixture, builtin_base
from statgeo.frame import Jet, PointContext, jet_einsum
from statgeo.structures import nabla_operator, nabla_vector


def random_expr(rng: random.Random, coords: tuple[str, ...], depth: int) -> ex.Expr:
    """Random expression tree, tame enough to evaluate on [-1.5, 1.5]^n.

    Denominators and log arguments are squared and shifted away from zero so
    derivatives stay finite on the sampling box.
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return ex.Var(rng.choice(coords))
        return ex.Num(round(rng.uniform(-3.0, 3.0), 3))
    op = rng.choice(["add", "sub", "mul", "div", "neg", "pow", "call"])
    a = random_expr(rng, coords, depth - 1)
    if op == "add":
        return ex.add(a, random_expr(rng, coords, depth - 1))
    if op == "sub":
        return ex.sub(a, random_expr(rng, coords, depth - 1))
    if op == "mul":
        return ex.mul(a, random_expr(rng, coords, depth - 1))
    if op == "div":
        b = random_expr(rng, coords, depth - 1)
        denom = ex.add(ex.mul(b, b), ex.Num(round(rng.uniform(0.5, 2.0), 3)))
        return ex.div(a, denom)
    if op == "neg":
        return ex.neg(a)
    if op == "pow":
        return ex.pow_(a, float(rng.randint(2, 3)))
    fn = rng.choice(["exp", "log", "sin", "cos", "sinh", "cosh"])
    if fn == "log":
        return ex.call("log", ex.add(ex.mul(a, a), ex.Num(round(rng.uniform(0.5, 2.0), 3))))
    if fn in ("exp", "sinh", "cosh"):
        a = ex.mul(ex.Num(0.3), a)
    return ex.call(fn, a)


def random_point(rng: random.Random, coords: tuple[str, ...]) -> dict[str, float]:
    return {c: rng.uniform(-1.5, 1.5) for c in coords}


def fd_partial(e: ex.Expr, env: dict[str, float], var: str, h: float = 1e-5) -> float:
    """Central finite-difference approximation of d(e)/d(var) at env."""
    hi = dict(env)
    lo = dict(env)
    step = h * (1.0 + abs(env[var]))
    hi[var] = env[var] + step
    lo[var] = env[var] - step
    return (ex.eval_expr(e, hi) - ex.eval_expr(e, lo)) / (2.0 * step)


def const_field(ctx: PointContext, comps) -> Jet:
    """The vector field with constant frame components comps."""
    v = np.broadcast_to(np.asarray(comps, float), ctx.lead + (ctx.dim,))
    return Jet(v, np.zeros(ctx.lead + (ctx.dim, ctx.dim)))


def ext_d1_jet(ctx: PointContext, w: Jet) -> Jet:
    """statgeo.frame.ext_d1 propagating gradients, so that d(dw) can be
    formed; needs w.grad2."""
    Ew = ctx.E_jet(w)
    return 0.5 * (Ew - Ew.t(1, 0) - jet_einsum("...ijm,...m->...ij", ctx.c, w))


def nabla_operator_columns(ctx, conn, P: Jet) -> np.ndarray:
    """(nabla_{E_i} P)E_j assembled column by column: differentiate the vector
    field P E_j and subtract P(nabla_{E_i} E_j).  An independent route to
    statgeo.structures.nabla_operator."""
    G = conn.jet(ctx).val
    out = np.empty(ctx.lead + (ctx.dim,) * 3)
    for j in range(ctx.dim):
        col = Jet(P.val[..., :, j], P.grad[..., :, j, :])
        out[..., :, :, j] = nabla_vector(ctx, conn, col)
    return out - np.einsum("...ijm,...km->...ikj", G, P.val)


def nabla_a(ctx, conn, A: Jet) -> np.ndarray:
    """Covariant derivative of an operator jet, graded against the column
    assembly before being returned."""
    one = nabla_operator(ctx, conn, A)
    two = nabla_operator_columns(ctx, conn, A)
    if reg.abs_max(one - two) > 1e-9 * (1.0 + reg.abs_max(one)):
        raise AssertionError("operator derivative implementations disagree")
    return one


def flat_kaehler_holomorphic(a: float = 0.3, b: float = -0.2) -> Fixture:
    """Flat Kaehler plane with the two-parameter family of constant cubic
    tensors whose shift operators anti-commute with J."""
    base = builtin_base("flat-kaehler-r2")
    C = np.zeros((2, 2, 2))
    for idx, v in [((0, 0, 0), a), ((0, 0, 1), b), ((0, 1, 1), -a), ((1, 1, 1), -b)]:
        i, j, k = idx
        for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            C[p] = v
    cubic = SymmetricCubic(C)
    return replace(
        base,
        name="flat-kaehler-r2-holomorphic",
        nabla=ShiftedConnection(base.lc, cubic, 1.0),
        nabla_star=ShiftedConnection(base.lc, cubic, -1.0),
        flags={"kaehler": True, "holomorphic": True},
    )
