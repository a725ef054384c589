"""Frame calculus over a batch of sample points.

A manifold is presented by a moving frame: named coordinates, an invertible
matrix of expressions with E_i = sum_a F[i][a] d/dx^a, and metric components
g_ij = g(E_i, E_j) in that frame.  A PointContext materialises every derived
table (structure coefficients, frame derivatives of the metric, inverses)
together with exact coordinate gradients, so covariant derivative tables
never rely on numeric differencing.

Every table of a context built on a batch of P points carries a leading
point axis, shape (P, ...); a context built on one point has no such axis.
The functions of the package accept either: every contraction goes through
`contract(spec, *ops)`, whose subscripts name the tensor axes after a
leading `...` for the point axes (an operand without them is shared by all
points), and transposes act on the trailing (tensor) axes only.  Index
conventions, written for the tensor axes:

    F[i][a]      E_i = sum_a F[i][a] d/dx^a
    Finv[a][i]   d/dx^a = sum_i Finv[a][i] E_i
    g[i][j]      g(E_i, E_j)
    c[i][j][k]   [E_i, E_j] = sum_k c[i][j][k] E_k
    G[i][j][k]   nabla_{E_i} E_j = sum_k G[i][j][k] E_k
    P[k][j]      P(E_j) = sum_k P[k][j] E_k   (operator tables)
    v[k]         V = sum_k v[k] E_k
    w[j]         w(E_j), and W[i][j] = W(E_i, E_j) for 2-forms

The trailing axis of a gradient array is always the coordinate axis.

Frame derivatives (PointContext.E, E_jet) do not go through `contract`:
each is one np.matmul of the gradient, flattened to (entries, coordinates),
with the context's contiguous F^T, written through a transposed view of a
fresh result, so the gradient is never copied into another axis order.
A context keeps one store, filled on first use by `PointContext.derived`
and dropped with the context: expression jets, connection tables and
derived tables (Riemann tensors, shape operator jets, the difference tensor
K and -K).  Its arrays, and the context's own tables, are read-only.

Memory per point: a multi-term sum is accumulated with in-place operators
into the array its first term allocated (`out = E(T); out += ...`), so a
sum of k terms allocates its k results and no partial sums.  In-place
operators only ever write into an array that the same function has just
allocated; what a context keeps is shared by every check of a report and
is read-only.  Only the frame, the metric and xi are differentiated twice,
so only their ExprTables build second-derivative trees and only their jets
carry a second gradient; E_jet refuses every other jet.
"""

from __future__ import annotations

import functools
import math
import string

import numpy as np

from . import expr as ex


class GeometryError(ValueError):
    """Invalid geometric input: singular frame, bad metric, shape mismatch."""


def tr(a: np.ndarray, *axes: int) -> np.ndarray:
    """Transpose the trailing tensor axes of a, leaving leading point axes in
    place: tr(a) swaps the last two, tr(a, 1, 0, 2) permutes the last three
    as ndarray.transpose would permute an unbatched table."""
    if not axes:
        return np.swapaxes(a, -1, -2)
    lead = a.ndim - len(axes)
    return a.transpose(tuple(range(lead)) + tuple(lead + k for k in axes))


# ---------------------------------------------------------------------------
# contractions

# distinct (spec, operand shapes) plans kept; a report needs a few hundred
_PLANS = 2048


def contract(spec: str, *ops: np.ndarray) -> np.ndarray:
    """Einstein summation of two or more arrays, as np.einsum(spec, *ops).

    `spec` is explicit ("...ij,...jk->...ik"); `...` stands for leading axes,
    which broadcast as in numpy, so an operand without them (or with size-1
    ones) is shared by every point.  A letter appears at most once per
    operand, and a letter missing from the output appears in two or more
    operands (no trace, no sum within one operand).  The first call for a
    spec and operand shapes compiles a plan of pairwise steps; every call
    replays it.
    """
    return _plan(spec, tuple(op.shape for op in ops))(ops)


class _Step:
    """One pairwise contraction: each operand is transposed to (batch, free,
    contracted) order and reshaped to 3 axes (2 without batch letters) for
    one np.matmul."""

    __slots__ = ("perm_a", "shape_a", "perm_b", "shape_b", "shape")

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.perm_a:
            a = a.transpose(self.perm_a)
        if self.perm_b:
            b = b.transpose(self.perm_b)
        return np.matmul(a.reshape(self.shape_a), b.reshape(self.shape_b)).reshape(self.shape)


class _Plan:
    """Pairwise steps in the np.einsum_path convention (contract positions
    i < j of the working list, append the result), then the output
    transpose."""

    __slots__ = ("steps", "perm")

    def __call__(self, ops) -> np.ndarray:
        work = list(ops)
        for i, j, step in self.steps:
            b = work.pop(j)
            work.append(step(work.pop(i), b))
        out = work[0]
        return out.transpose(self.perm) if self.perm else out


@functools.lru_cache(maxsize=_PLANS)
def _plan(spec: str, shapes: tuple) -> _Plan:
    terms, out, size = _letters(spec, shapes)
    # an axis broadcast from size 1 is no axis of its operand: None
    work = [[c if d == size[c] else None for c, d in zip(t, shape)]
            for t, shape in zip(terms, shapes)]
    plan = _Plan()
    steps = []
    for i, j in _pairs(work, out, size):
        rest = {c for k, w in enumerate(work) if k not in (i, j) for c in w}
        step, axes = _step(work[i], work[j], rest | set(out), size)
        steps.append((i, j, step))
        del work[j], work[i]
        work.append(axes)
    plan.steps = tuple(steps)
    plan.perm = _perm(work[0], list(out))
    return plan


def _letters(spec: str, shapes: tuple) -> tuple[list, str, dict]:
    """Operand and output subscripts with `...` replaced by fresh letters,
    right-aligned across operands, and the size of every letter."""
    if "->" not in spec:
        raise ValueError(f"contract needs an explicit output in {spec!r}")
    ins, out = spec.split("->")
    subs = ins.split(",")
    if len(subs) != len(shapes) or len(subs) < 2:
        raise ValueError(f"{spec!r} takes {len(subs)} operands (at least 2), got {len(shapes)}")
    ranks = []
    for t, shape in zip(subs, shapes):
        r = len(shape) - len(t.replace("...", ""))
        if r < 0 or (r > 0 and "..." not in t):
            raise ValueError(f"operand {t!r} of {spec!r} does not fit shape {shape}")
        ranks.append(r)
    fresh = (c for c in string.ascii_letters if c not in spec)
    lead = "".join(next(fresh) for _ in range(max(ranks)))
    terms = [t.replace("...", lead[len(lead) - r:]) for t, r in zip(subs, ranks)]
    size: dict[str, int] = {}
    for t, shape in zip(terms, shapes):
        if len(set(t)) != len(t):
            raise ValueError(f"repeated subscript in operand {t!r} of {spec!r}")
        for c, d in zip(t, shape):
            known = size.setdefault(c, d)
            if known != d and not (c in lead and 1 in (known, d)):
                raise ValueError(f"{spec!r}: axis {c!r} has sizes {known} and {d}")
            size[c] = max(known, d)
    out = out.replace("...", lead)
    for c in size:
        if c not in out and sum(c in t for t in terms) < 2:
            raise ValueError(f"{spec!r} sums {c!r} within one operand")
    return terms, out, size


def _pairs(work: list, out: str, size: dict) -> list[tuple[int, int]]:
    """Contraction order: np.einsum_path's, with a step of k > 2 operands
    (it leaves those to einsum) split into k - 1 pairs."""
    if len(work) == 2:
        return [(0, 1)]
    dummies = [np.broadcast_to(0.0, [size[c] for c in w if c]) for w in work]
    clean = ",".join("".join(c for c in w if c) for w in work) + "->" + out
    pairs, count = [], len(work)
    for pos in np.einsum_path(clean, *dummies, optimize="optimal")[0][1:]:
        pos = sorted(pos)
        pairs.append((pos[0], pos[1]))
        count -= 1
        for k, p in enumerate(pos[2:]):
            pairs.append((p - 2 - k, count - 1))
            count -= 1
    return pairs


def _step(la: list, lb: list, keep: set, size: dict) -> tuple[_Step, list]:
    """The step contracting operands with axis letters la and lb, where keep
    holds the letters needed later; returns it and its result's letters."""
    na, nb = set(la) - {None}, set(lb) - {None}
    batch = [c for c in la if c in nb and c in keep]
    con = [c for c in la if c in nb and c not in keep]
    m = [c for c in la if c in na - nb]
    n = [c for c in lb if c in nb - na]

    def dims(letters):
        return math.prod(size[c] for c in letters)

    step = _Step()
    step.perm_a = _perm(la, batch + m + con)
    step.perm_b = _perm(lb, batch + con + n)
    B = (dims(batch),) if batch else ()
    step.shape_a = B + (dims(m), dims(con))
    step.shape_b = B + (dims(con), dims(n))
    step.shape = tuple(size[c] for c in batch + m + n)
    return step, batch + m + n


def _perm(axes: list, order: list) -> tuple | None:
    """Transpose taking axes (None for a size-1 axis) to the given letter
    order, size-1 axes first; None when it is the identity."""
    p = [k for k, c in enumerate(axes) if c is None] + [axes.index(c) for c in order]
    return None if p == sorted(p) else tuple(p)


# ---------------------------------------------------------------------------
# jets


class Jet:
    """A numeric table plus its coordinate gradient (and optionally the
    second gradient, for tables that get frame-differentiated twice).

    +, - and scalar * build a new jet.  The in-place forms +=, -= and *=
    write into this jet's own arrays: use them only on a jet the calling
    code has just built; a jet a context keeps is read-only.
    """

    __slots__ = ("val", "grad", "grad2")

    def __init__(self, val, grad, grad2=None):
        self.val = np.asarray(val, float)
        self.grad = np.asarray(grad, float)
        self.grad2 = None if grad2 is None else np.asarray(grad2, float)

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.val + other.val, self.grad + other.grad)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.val - other.val, self.grad - other.grad)

    def __neg__(self) -> "Jet":
        return Jet(-self.val, -self.grad)

    def __mul__(self, s: float) -> "Jet":
        return Jet(self.val * s, self.grad * s)

    __rmul__ = __mul__

    def __iadd__(self, other: "Jet") -> "Jet":
        self.val += other.val
        self.grad += other.grad
        self.grad2 = None
        return self

    def __isub__(self, other: "Jet") -> "Jet":
        self.val -= other.val
        self.grad -= other.grad
        self.grad2 = None
        return self

    def __imul__(self, s: float) -> "Jet":
        self.val *= s
        self.grad *= s
        self.grad2 = None
        return self

    def t(self, *axes: int) -> "Jet":
        """Transpose of the trailing value axes; point and gradient axes stay."""
        k = len(axes)
        g2 = None if self.grad2 is None else tr(self.grad2, *axes, k, k + 1)
        return Jet(tr(self.val, *axes), tr(self.grad, *axes, k), g2)


def jet_einsum(spec: str, *ops) -> Jet:
    """Einstein summation over jets with product-rule gradient propagation.

    Operands may be Jet or plain ndarray (treated as constant).  The result
    gradient gets a fresh trailing subscript appended to each Jet operand in
    turn, so every subscript of `spec` must start with `...`.
    """
    vals = [op.val if isinstance(op, Jet) else np.asarray(op, float) for op in ops]
    grad = None
    for p, spec_p in _grad_specs(spec, tuple(isinstance(op, Jet) for op in ops)):
        args = [op.grad if q == p else vals[q] for q, op in enumerate(ops)]
        term = contract(spec_p, *args)  # a fresh array: later terms add into it
        if grad is None:
            grad = term
        else:
            grad += term
    return Jet(contract(spec, *vals), grad)


@functools.lru_cache(maxsize=_PLANS)
def _grad_specs(spec: str, jets: tuple) -> tuple[tuple[int, str], ...]:
    """(p, spec with a gradient subscript on operand p) for each Jet operand p."""
    ins, out = spec.split("->")
    subs = ins.split(",")
    gch = next(ch for ch in string.ascii_letters if ch not in spec)
    specs = []
    for p, is_jet in enumerate(jets):
        if is_jet:
            parts = list(subs)
            parts[p] += gch
            specs.append((p, ",".join(parts) + "->" + out + gch))
    if not specs:
        raise ValueError("jet_einsum needs at least one Jet operand")
    return tuple(specs)


def jet_matinv(m: Jet, what: str, x: np.ndarray) -> Jet:
    """Inverse of a square matrix jet at the points x; d(M^-1) = -M^-1 dM M^-1.

    A matrix counts as singular when |det| is at most 1e-12 times the product
    of its row norms (Hadamard's bound), a test that scaling does not change.
    """
    det = np.linalg.det(m.val)
    bound = np.prod(np.linalg.norm(m.val, axis=-1), axis=-1)
    bad = np.abs(det) <= 1e-12 * bound
    if np.any(bad):
        i = int(np.argmax(bad))
        raise GeometryError(
            f"{what} at {_at(x, i)} is singular (det = {np.ravel(det)[i]:.3e})"
        )
    inv = np.linalg.inv(m.val)
    grad = -contract("...ab,...bcg,...cd->...adg", inv, m.grad, inv)
    return Jet(inv, grad)


# ---------------------------------------------------------------------------
# expression tables


def as_expr(cell, coords: tuple[str, ...]) -> ex.Expr:
    if isinstance(cell, ex.Expr):
        return cell
    if isinstance(cell, str):
        return ex.parse(cell, coords)
    if isinstance(cell, (int, float)):
        return ex.Num(float(cell))
    raise GeometryError(f"cannot interpret {cell!r} as an expression")


class ExprTable:
    """Array of expressions with their derivative trees built once.

    Evaluation yields a Jet carrying the exact coordinate gradient of every
    entry, at one point or over a batch of points.  Only a table built with
    second=True (the frame, the metric and xi: the tables that get
    frame-differentiated twice) also builds second-derivative trees and
    carries the second gradient that PointContext.E_jet needs.
    """

    def __init__(self, cells, coords: tuple[str, ...], shape: tuple[int, ...] | None = None,
                 *, second: bool = False):
        self.coords = tuple(coords)
        arr = np.array(_normalize(cells, self.coords), dtype=object)
        if shape is not None and arr.shape != shape:
            raise GeometryError(f"expected table of shape {shape}, got {arr.shape}")
        self.exprs = arr
        m = len(self.coords)
        self.d1 = np.empty(arr.shape + (m,), dtype=object)
        self.d2 = np.empty(arr.shape + (m, m), dtype=object) if second else None
        for idx, e in np.ndenumerate(arr):
            if not isinstance(e, ex.Expr):
                raise GeometryError(f"table entry {list(idx)} is a list, not an expression")
            for b, cb in enumerate(self.coords):
                de = ex.diff(e, cb)
                self.d1[idx + (b,)] = de
                if second:
                    for c, cc in enumerate(self.coords):
                        self.d2[idx + (b, c)] = ex.diff(de, cc)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.exprs.shape

    def jet2(self, env: dict) -> Jet:
        """Evaluate at env: coordinate name -> value, or -> array of values
        over the point axis, which then leads every table of the Jet.

        On a domain error, the ExprDomainError raised is the one whose
        offending point comes first.
        """
        lead = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
        first = None
        tables = []
        for arr in (self.exprs, self.d1) + (() if self.d2 is None else (self.d2,)):
            out = np.empty(lead + arr.shape)
            for idx, e in np.ndenumerate(arr):
                try:
                    out[(...,) + idx] = ex.eval_expr(e, env)
                except ex.ExprDomainError as err:
                    if first is None or (err.index or 0) < (first.index or 0):
                        first = err
            tables.append(out)
        if first is not None:
            raise first
        return Jet(*tables)


def _normalize(cells, coords):
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()
    if isinstance(cells, (list, tuple)):
        return [_normalize(c, coords) for c in cells]
    return as_expr(cells, coords)


# ---------------------------------------------------------------------------
# manifolds and point contexts


class Manifold:
    """Coordinates, a frame presentation, and metric components in the frame."""

    def __init__(self, coords, frame, metric):
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        if self.dim == 0:
            raise GeometryError("need at least one coordinate")
        if len(set(self.coords)) != self.dim:
            raise GeometryError(f"coordinate names must be distinct, got {list(self.coords)}")
        n = self.dim
        self.frame = ExprTable(frame, self.coords, shape=(n, n), second=True)
        self.metric = ExprTable(metric, self.coords, shape=(n, n), second=True)

    def context(self, point) -> "PointContext":
        """Tables at one point, without a point axis."""
        return PointContext(self, point)

    def contexts(self, points) -> "PointContext":
        """Tables at a batch of points, each with a leading point axis."""
        return PointContext(self, np.atleast_2d(np.asarray(points, float)))


class PointContext:
    """All frame tables materialised at one point, or at a batch of points.

    A batch is also a sequence of its points: len, iteration and indexing
    give single-point contexts.
    """

    def __init__(self, manifold: Manifold, points):
        self.manifold = manifold
        self.dim = manifold.dim
        self.x = np.asarray(points, float)
        if self.x.ndim not in (1, 2) or self.x.shape[-1] != self.dim:
            raise GeometryError(f"point must have {self.dim} components")
        self.lead = self.x.shape[:-1]
        self.env = dict(zip(manifold.coords, np.moveaxis(self.x, -1, 0)))
        self._store: dict = {}

        self.F = self.table_jet(manifold.frame)
        self.FT = np.ascontiguousarray(tr(self.F.val))  # FT[a][i] = F[i][a]
        self.Finv = jet_matinv(self.F, "frame", self.x)
        self.g = self.table_jet(manifold.metric)
        g = self.g.val
        asym = np.max(np.abs(g - tr(g)), axis=(-2, -1))
        bad = asym > 1e-12 * (1.0 + np.max(np.abs(g), axis=(-2, -1)))
        if np.any(bad):
            where = _at(self.x, int(np.argmax(bad)))
            raise GeometryError(f"metric is not symmetric at {where}")
        self.ginv = jet_matinv(self.g, "metric", self.x)
        self.onb = _orthonormalizer(g, self.x)

        # structure coefficients from the frame's coordinate expansion
        EF = self.E_jet(self.F)  # EF[i][j][a] = E_i(F[j][a])
        w = EF - EF.t(1, 0, 2)
        self.c = jet_einsum("...ija,...ak->...ijk", w, self.Finv)

        self.Eg = self.E_jet(self.g)  # Eg[k][i][j] = E_k(g_ij)
        _freeze((self.F, self.FT, self.Finv, self.g, self.ginv, self.onb, self.c, self.Eg))

    def __len__(self) -> int:
        if self.x.ndim == 1:
            raise TypeError("a single-point context has no length")
        return len(self.x)

    def __getitem__(self, i) -> "PointContext":
        if self.x.ndim == 1:
            raise TypeError("a single-point context cannot be indexed")
        return PointContext(self.manifold, self.x[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def _flat(self, a: np.ndarray, extra: int) -> tuple[np.ndarray, tuple]:
        """a with its tensor axes (all but the point axes and the `extra`
        trailing gradient axes) merged into one, and their shape."""
        nl = len(self.lead)
        T = a.shape[nl : a.ndim - extra]
        return a.reshape(self.lead + (-1,) + a.shape[a.ndim - extra :]), T

    # frame derivative: values only
    def E(self, jet: Jet) -> np.ndarray:
        """E(T)[i, ...] = E_i applied entrywise: F[i][a] dT[..., a].

        One np.matmul of the gradient, flattened to (T, a), with the
        contiguous F^T, written through a transposed view of the (i, T)
        result, so the gradient is never copied into another axis order.
        """
        g, T = self._flat(jet.grad, 1)
        out = np.empty(self.lead + (self.dim, g.shape[-2]))
        np.matmul(g, self.FT, out=np.swapaxes(out, -1, -2))
        return out.reshape(self.lead + (self.dim,) + T)

    # frame derivative with gradient; needs the operand's second gradient
    def E_jet(self, jet: Jet) -> Jet:
        if jet.grad2 is None:
            raise ValueError("E_jet needs a jet with a second gradient")
        g, T = self._flat(jet.grad, 1)
        g2, _ = self._flat(jet.grad2, 2)
        # F[i][a] g2[t][a][c] as one (i, a) @ (a, c) product per t, written
        # through an (i, t) -> (t, i) view like E
        grad = np.empty(self.lead + (self.dim,) + g2.shape[-3::2])
        np.matmul(self.F.val[..., None, :, :], g2, out=np.swapaxes(grad, -3, -2))
        grad += contract("...iac,...ta->...itc", self.F.grad, g)
        shape = self.lead + (self.dim,) + T + grad.shape[-1:]
        return Jet(self.E(jet), grad.reshape(shape))

    def table_jet(self, table: ExprTable) -> Jet:
        """The jet of an ExprTable here, kept in the store per table instance."""
        return self.derived(_table_jet, table)

    def connection_table(self, conn) -> tuple[np.ndarray, np.ndarray]:
        """(G, dG) for a connection, kept in the store (connections that
        compare equal share an entry)."""
        return self.derived(_connection_table, conn)

    def derived(self, fn, *args):
        """fn(self, *args), computed once per context and kept in its one store
        for its lifetime; args are keys (connections and jets hash by identity).
        fn must be a plain function: a kept result, like its key, holds no
        reference back to the context.  A kept result's arrays are read-only."""
        key = (fn,) + args
        hit = self._store.get(key)
        if hit is None:
            hit = self._store[key] = _freeze(fn(self, *args))
        return hit


def _table_jet(ctx: PointContext, table: ExprTable) -> Jet:
    try:
        return table.jet2(ctx.env)
    except ex.ExprDomainError as e:
        raise ex.ExprDomainError(f"{e} at {_at(ctx.x, e.index or 0)}") from None


def _connection_table(ctx: PointContext, conn) -> tuple[np.ndarray, np.ndarray]:
    return conn.table(ctx)


def _freeze(value):
    """value, with every array it holds made read-only: an ndarray, a Jet's
    arrays, or a tuple of those (a kept PointContext freezes its own)."""
    if isinstance(value, Jet):
        _freeze((value.val, value.grad, value.grad2))
    elif isinstance(value, tuple):
        for part in value:
            _freeze(part)
    elif isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


def _orthonormalizer(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b = L^-1 for the Cholesky factor g = L L^T: the rows of b are the
    frame components of a g-orthonormal frame.  Names the first point where
    g is not positive definite."""
    try:
        return np.linalg.inv(np.linalg.cholesky(g))
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(g)[..., 0]
        bad = ~(low > 0)
        i = int(np.argmax(bad)) if np.any(bad) else int(np.argmin(low))
        raise GeometryError(f"metric is not positive definite at {_at(x, i)}") from None


def _fmt_point(x: np.ndarray) -> str:
    return "(" + ", ".join(f"{v:.4g}" for v in x) + ")"


def _at(x: np.ndarray, i: int) -> str:
    """Name point i of the batch x, or the single point x."""
    if x.ndim == 1:
        return _fmt_point(x)
    return f"sample point {i} {_fmt_point(x[i])}"


# ---------------------------------------------------------------------------
# vector fields and brackets


def frame_field(ctx: PointContext, j: int) -> Jet:
    v = np.zeros(ctx.lead + (ctx.dim,))
    v[..., j] = 1.0
    return Jet(v, np.zeros(ctx.lead + (ctx.dim, ctx.dim)))


def operator_column(P: Jet, j: int) -> Jet:
    """The vector field P(E_j) as a jet."""
    return Jet(P.val[..., :, j], P.grad[..., :, j, :])


def bracket(ctx: PointContext, V: Jet, W: Jet) -> np.ndarray:
    """Frame components of [V, W] for materialised vector fields."""
    Ev = ctx.E(V)  # Ev[i][k] = E_i(v^k)
    Ew = ctx.E(W)
    return (
        contract("...i,...j,...ijk->...k", V.val, W.val, ctx.c.val)
        + contract("...i,...ik->...k", V.val, Ew)
        - contract("...j,...jk->...k", W.val, Ev)
    )


def brackets_with_frame(ctx: PointContext, V: Jet) -> np.ndarray:
    """B[j][k] = frame components of [V, E_j]."""
    Ev = ctx.E(V)
    return contract("...i,...ijk->...jk", V.val, ctx.c.val) - tr(Ev)


# ---------------------------------------------------------------------------
# Lie derivatives along a materialised field


def lie_metric(ctx: PointContext, V: Jet) -> np.ndarray:
    """(L_V g)(E_i, E_j) = V(g_ij) - g([V,E_i],E_j) - g(E_i,[V,E_j])."""
    B = brackets_with_frame(ctx, V)
    vg = contract("...k,...kij->...ij", V.val, ctx.Eg.val)
    t = contract("...ik,...kj->...ij", B, ctx.g.val)
    return vg - t - tr(t)


def lie_covector(ctx: PointContext, V: Jet, w: Jet) -> np.ndarray:
    """(L_V w)(E_j) = V(w(E_j)) - w([V, E_j])."""
    B = brackets_with_frame(ctx, V)
    return contract("...k,...kj->...j", V.val, ctx.E(w)) - contract(
        "...jm,...m->...j", B, w.val
    )


def lie_operator(ctx: PointContext, V: Jet, P: Jet) -> np.ndarray:
    """(L_V P)(E_j) = [V, P E_j] - P([V, E_j]), returned as an operator table."""
    B = brackets_with_frame(ctx, V)
    out = np.empty(ctx.lead + (ctx.dim, ctx.dim))
    for j in range(ctx.dim):
        out[..., :, j] = bracket(ctx, V, operator_column(P, j)) - contract(
            "...km,...m->...k", P.val, B[..., j, :]
        )
    return out


# ---------------------------------------------------------------------------
# exterior calculus (normalised convention: d carries a 1/(p+1) prefactor)


def ext_d1(ctx: PointContext, w: Jet) -> np.ndarray:
    """dw[i][j] for a 1-form jet: (1/2)(E_i w_j - E_j w_i - c[i][j][m] w_m)."""
    Ew = ctx.E(w)
    return 0.5 * (Ew - tr(Ew) - contract("...ijm,...m->...ij", ctx.c.val, w.val))


def ext_d2(ctx: PointContext, W: Jet) -> np.ndarray:
    """dW[i][j][k] for a 2-form jet, with the 1/3 normalisation."""
    EW = ctx.E(W)  # EW[i][j][k] = E_i(W_jk)
    cv, Wv = ctx.c.val, W.val
    out = EW - tr(EW, 1, 0, 2)  # fresh: the other terms are summed into it
    out += tr(EW, 1, 2, 0)
    out -= contract("...ijm,...mk->...ijk", cv, Wv)
    out += contract("...ikm,...mj->...ijk", cv, Wv)
    out -= contract("...jkm,...mi->...ijk", cv, Wv)
    out /= 3.0
    return out


def cyclic(T: np.ndarray) -> np.ndarray:
    """Cyclic sum T[i][j][k] + T[j][k][i] + T[k][i][j] of a 3-tensor."""
    return T + tr(T, 1, 2, 0) + tr(T, 2, 0, 1)


def wedge_1_2(w: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(w ^ W)[i][j][k] = (1/3)(w_i W_jk + w_j W_ki + w_k W_ij)."""
    return cyclic(contract("...i,...jk->...ijk", w, W)) / 3.0


# ---------------------------------------------------------------------------
# sampling


def sample_points(dim: int, box, n_points: int, seed: int) -> np.ndarray:
    """Deterministic uniform sample of n_points in the box (list of (lo, hi))."""
    box = list(box)
    if len(box) != dim:
        raise GeometryError(f"box must give {dim} coordinate ranges")
    lo = np.array([b[0] for b in box], float)
    hi = np.array([b[1] for b in box], float)
    if np.any(hi <= lo):
        raise GeometryError("box ranges must satisfy lo < hi")
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n_points, dim))
