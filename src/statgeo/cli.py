"""Command line front end.

    statgeo check    [SPEC.json | --builtin NAME] [--points --seed --tol --box]
    statgeo classify [SPEC.json | --builtin NAME] [--points --seed --tol --box]
    statgeo table    [SPEC.json | --builtin NAME] {nabla,nabla-star,levi-civita,K,A,h}
    statgeo product  [SPEC.json | --builtin NAME] --lam EXPR --out PATH

Exit codes: 0 clean, 1 at least one failed check, 2 input or validation error.
STATGEO_TOL overrides the default tolerance; explicit flags beat it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import expr as ex
from .connections import (
    Conjugate,
    ExprConnection,
    LeviCivita,
    _k_val,
    random_statistical,
)
from .cosymplectic import BUILTIN_NAMES, a_tensors, builtin_fixture, product_construct
from .curvature import h_tensors
from .fixtures import Fixture
from .frame import GeometryError, Manifold
from .report import build_report, classification_summary, exit_code, render_json
from .structures import AlmostContactStructure, AlmostHermitianStructure, classify

DEFAULT_POINTS = 20
# a report's peak memory grows by about 33 kB per sample point on a dim-4
# fixture, so the cap keeps a report under about 0.4 GB
MAX_POINTS = 10_000
DEFAULT_SEED = 42
DEFAULT_TOL = 1e-9


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# spec-file ingestion


def _require(doc: dict, field: str, kind, where: str):
    if field not in doc:
        raise InputError(f"{where}: missing required field {field!r}")
    v = doc[field]
    if not isinstance(v, kind) or isinstance(v, bool):
        raise InputError(f"{where}: field {field!r} must be {kind.__name__}")
    return v


def fixture_from_doc(doc: dict, name: str) -> tuple[Fixture, dict]:
    """Build a fixture from a parsed spec document; returns it together with
    the document's sampling block."""
    if not isinstance(doc, dict):
        raise InputError(f"{name}: spec must be a JSON object")
    dim = _require(doc, "dim", int, name)
    coords = _require(doc, "coords", list, name)
    if len(coords) != dim or not all(isinstance(c, str) for c in coords):
        raise InputError(f"{name}: coords must be {dim} coordinate names")
    frame = _require(doc, "frame", list, name)
    metric = _require(doc, "metric", list, name)
    try:
        man = Manifold(coords, frame, metric)
    except (GeometryError, ex.ExprError) as e:
        raise InputError(f"{name}: {e}") from None

    conn_doc = doc.get("connections", {})
    if not isinstance(conn_doc, dict):
        raise InputError(f"{name}: connections must be an object")
    unknown = set(conn_doc) - {"nabla", "nabla_star", "random_K_seed"}
    if unknown:
        raise InputError(f"{name}: unknown connections fields {sorted(unknown)}")
    seed_k = conn_doc.get("random_K_seed")
    if seed_k is not None and (isinstance(seed_k, bool) or not isinstance(seed_k, int)
                               or seed_k < 0):
        raise InputError(
            f"{name}: random_K_seed must be a non-negative integer, got {json.dumps(seed_k)}"
        )
    try:
        if "nabla" in conn_doc:
            if seed_k is not None:
                raise InputError(
                    f"{name}: random_K_seed cannot be combined with explicit tables"
                )
            nabla = ExprConnection(conn_doc["nabla"], coords)
            if "nabla_star" in conn_doc:
                nabla_star = ExprConnection(conn_doc["nabla_star"], coords)
            else:
                nabla_star = Conjugate(nabla)
        elif "nabla_star" in conn_doc:
            raise InputError(f"{name}: nabla_star given without nabla")
        elif seed_k is not None:
            nabla, nabla_star = random_statistical(man, seed_k)
        else:
            nabla = LeviCivita()
            nabla_star = Conjugate(nabla)
    except (GeometryError, ex.ExprError) as e:
        raise InputError(f"{name}: connections: {e}") from None

    contact = hermitian = None
    st = doc.get("structure")
    if st is not None:
        if not isinstance(st, dict) or "phi" not in st:
            raise InputError(f"{name}: structure needs a phi table")
        has_xi, has_eta = "xi" in st, "eta" in st
        if has_xi != has_eta:
            raise InputError(f"{name}: structure needs both xi and eta or neither")
        try:
            if has_xi:
                contact = AlmostContactStructure(st["phi"], st["xi"], st["eta"], coords)
            elif dim % 2 == 0:
                hermitian = AlmostHermitianStructure(st["phi"], coords)
            else:
                raise InputError(
                    f"{name}: phi without xi/eta is read as a complex structure "
                    "and needs even dimension"
                )
        except (GeometryError, ex.ExprError) as e:
            raise InputError(f"{name}: structure: {e}") from None

    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise InputError(f"{name}: flags must be an object")
    for key, v in flags.items():
        if not isinstance(v, bool):
            raise InputError(f"{name}: flags.{key} must be true or false, got {json.dumps(v)}")

    sampling = doc.get("sampling", {})
    if not isinstance(sampling, dict):
        raise InputError(f"{name}: sampling must be an object")
    box = None
    if "box" in sampling:
        try:
            box = [tuple(map(float, pair)) for pair in sampling["box"]]
            ok = len(box) == dim and all(len(b) == 2 and b[0] < b[1] for b in box)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise InputError(f"{name}: sampling.box needs {dim} increasing ranges")

    fix = Fixture(
        name=name, manifold=man, nabla=nabla, nabla_star=nabla_star,
        contact=contact, hermitian=hermitian, flags=dict(flags), box=box,
    )
    return fix, sampling


def load_spec(path: str) -> tuple[Fixture, dict]:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON: {e}") from None
    return fixture_from_doc(doc, Path(path).stem)


def resolve_fixture(args) -> tuple[Fixture, dict]:
    if args.builtin and args.spec:
        raise InputError("give either a spec file or --builtin, not both")
    if args.builtin:
        return builtin_fixture(args.builtin), {}
    if args.spec:
        return load_spec(args.spec)
    raise InputError("a spec file or --builtin NAME is required")


def _sampling_field(sampling: dict, key: str, kinds: tuple, what: str, default):
    """A value of the spec's sampling block; bools are not numbers here."""
    v = sampling.get(key, default)
    if isinstance(v, bool) or not isinstance(v, kinds):
        raise InputError(f"sampling.{key} must be {what}, got {json.dumps(v)}")
    return v


def resolve_sampling(args, sampling: dict, fix: Fixture):
    points = args.points if args.points is not None else _sampling_field(
        sampling, "points", (int,), "an integer", DEFAULT_POINTS)
    seed = args.seed if args.seed is not None else _sampling_field(
        sampling, "seed", (int,), "an integer", DEFAULT_SEED)
    if args.tol is not None:
        tol = args.tol
    elif "tolerance" in sampling:
        tol = float(_sampling_field(sampling, "tolerance", (int, float), "a number", None))
    else:
        tol = _env_tol()
    if not 1 <= points <= MAX_POINTS:
        where = "--points" if args.points is not None else "sampling.points"
        raise InputError(f"{where} must be between 1 and {MAX_POINTS}, got {points}")
    if seed < 0:
        raise InputError("the sampling seed must be non-negative")
    if not (tol > 0 and math.isfinite(tol)):
        raise InputError("tolerance must be a positive finite number")
    box = _parse_box(args.box, fix.manifold.dim) if getattr(args, "box", None) else None
    return points, seed, tol, box


def _env_tol() -> float:
    env = os.environ.get("STATGEO_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        return float(env)
    except ValueError:
        raise InputError(f"STATGEO_TOL is not a number: {env!r}") from None


def _parse_box(text: str, dim: int):
    def pair(s: str):
        bits = s.split(",")
        if len(bits) != 2:
            raise InputError(f"--box range {s!r} must be LO,HI")
        try:
            lo, hi = float(bits[0]), float(bits[1])
        except ValueError:
            raise InputError(f"--box range {s!r} must be numeric") from None
        if lo >= hi:
            raise InputError(f"--box range {s!r} must be increasing")
        return (lo, hi)

    out = [pair(p) for p in text.split(";") if p.strip()]
    if len(out) == 1:
        out = out * dim
    if len(out) != dim:
        raise InputError(f"--box needs one range or {dim} ';'-separated ranges")
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    fix, sampling = resolve_fixture(args)
    points, seed, tol, box = resolve_sampling(args, sampling, fix)
    rep = build_report(fix, points, seed, tol, box=box)
    sys.stdout.write(render_json(rep))
    return exit_code(rep)


def cmd_classify(args) -> int:
    fix, sampling = resolve_fixture(args)
    points, seed, tol, box = resolve_sampling(args, sampling, fix)
    ctxs = fix.sample_contexts(points, seed, box=box)
    cls = classify(fix, ctxs, tol)
    doc = {
        "fixture": fix.name,
        "classification": cls,
        "summary": classification_summary(cls),
    }
    sys.stdout.write(render_json(doc))
    return 0


def _fmt_coeff(v: float) -> str:
    r = round(v)
    if abs(v - r) <= 1e-9:
        return str(int(r) + 0)  # +0 normalizes -0
    return f"{v:.12g}"


def _combo(coeffs) -> str:
    terms = []
    for k, v in enumerate(coeffs):
        s = _fmt_coeff(float(v))
        if s == "0":
            continue
        if s == "1":
            terms.append(f"E_{k}")
        elif s == "-1":
            terms.append(f"-E_{k}")
        else:
            terms.append(f"{s} E_{k}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def cmd_table(args) -> int:
    fix, _ = resolve_fixture(args)
    mid = [0.5 * (lo + hi) for lo, hi in fix.box]
    ctx = fix.manifold.contexts([mid])
    which = args.which
    lines = [f"{which} for {fix.name} at " + ", ".join(
        f"{c} = {_fmt_coeff(v)}" for c, v in zip(fix.manifold.coords, mid)
    )]
    if which in ("nabla", "nabla-star", "levi-civita", "K"):
        if which == "nabla":
            G, label = fix.nabla.jet(ctx).val, "nabla_{E_%d} E_%d"
        elif which == "nabla-star":
            G, label = fix.nabla_star.jet(ctx).val, "nabla*_{E_%d} E_%d"
        elif which == "levi-civita":
            G, label = fix.lc.jet(ctx).val, "nabla0_{E_%d} E_%d"
        else:
            G, label = _k_val(fix, ctx), "K_{E_%d} E_%d"
        for i in range(ctx.dim):
            for j in range(ctx.dim):
                lines.append(f"{label % (i, j)} = {_combo(G[0, i, j])}")
    else:
        if not fix.has("contact"):
            raise InputError(f"table {which!r} needs a contact structure")
        if which == "A":
            op = a_tensors(fix, ctx)[0]
            label = "A E_%d"
        else:
            op = h_tensors(fix, ctx)[1]
            label = "h E_%d"
        for i in range(ctx.dim):
            lines.append(f"{label % i} = {_combo(op[0, :, i])}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _symbolic_gamma(base: Fixture):
    """Expression table for the base connection, or None when it vanishes
    identically on the validation sample."""
    if isinstance(base.nabla, ExprConnection):
        return base.nabla.exprs
    G, dG = base.sample_contexts(8, 0).connection_table(base.nabla)
    if max(np.max(np.abs(G)), np.max(np.abs(dG))) <= 1e-13:
        return np.full((base.manifold.dim,) * 3, ex.Num(0.0), dtype=object)
    return None


def cmd_product(args) -> int:
    base, _ = resolve_fixture(args)
    tol = args.tol if args.tol is not None else _env_tol()
    prod = product_construct(base, args.lam, tol=tol)
    lam_expr = ex.parse(args.lam, ("t",))
    gamma = _symbolic_gamma(base)
    if gamma is None:
        raise InputError(
            "base connection coefficients have no symbolic form; "
            "give the base as a spec file with explicit tables"
        )

    n = prod.manifold.dim
    zero = "0"
    nabla = [[[zero] * n for _ in range(n)] for _ in range(n)]
    nabla[0][0][0] = ex.to_str(lam_expr)
    for i in range(n - 1):
        for j in range(n - 1):
            for k in range(n - 1):
                nabla[i + 1][j + 1][k + 1] = ex.to_str(gamma[i][j][k])

    def strings(table):
        return [[ex.to_str(e) for e in row] for row in table]

    doc = {
        "dim": n,
        "coords": list(prod.manifold.coords),
        "frame": strings(prod.manifold.frame.exprs),
        "metric": strings(prod.manifold.metric.exprs),
        "connections": {"nabla": nabla},
        "structure": {
            "phi": strings(prod.contact.phi_table.exprs),
            "xi": [ex.to_str(e) for e in prod.contact.xi_table.exprs],
            "eta": [ex.to_str(e) for e in prod.contact.eta_table.exprs],
        },
        "sampling": {"box": [[lo, hi] for lo, hi in prod.box]},
    }
    try:
        Path(args.out).write_text(render_json(doc))
    except OSError as e:
        raise InputError(f"cannot write {args.out}: {e}") from None
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_source(sp, sampling: bool):
    sp.add_argument("spec", nargs="?", help="manifold spec JSON path")
    sp.add_argument(
        "--builtin", metavar="NAME",
        help="builtin fixture, one of: " + ", ".join(BUILTIN_NAMES),
    )
    if sampling:
        sp.add_argument("--points", type=int, help=f"sample points (default {DEFAULT_POINTS})")
        sp.add_argument("--seed", type=int, help=f"sampling seed (default {DEFAULT_SEED})")
    sp.add_argument("--tol", type=float, help=f"residual tolerance (default {DEFAULT_TOL})")
    if sampling:
        sp.add_argument("--box", help="sample box, LO,HI or per-coordinate LO,HI;LO,HI;...")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="statgeo",
        description="identity checks for statistical structures on frame manifolds",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    _add_source(sub.add_parser("check", help="run all applicable checks"), True)
    _add_source(sub.add_parser("classify", help="measure structure classes"), True)
    tab = sub.add_parser("table", help="print a coefficient table at the box midpoint")
    _add_source(tab, False)
    tab.add_argument(
        "which", choices=["nabla", "nabla-star", "levi-civita", "K", "A", "h"]
    )
    prod = sub.add_parser("product", help="emit a line-times-base product spec")
    _add_source(prod, False)
    prod.add_argument("--lam", required=True, help="warping coefficient, an expression in t")
    prod.add_argument("--out", required=True, help="output spec path")
    args = p.parse_args(argv)
    try:
        handler = {
            "check": cmd_check,
            "classify": cmd_classify,
            "table": cmd_table,
            "product": cmd_product,
        }[args.cmd]
        return handler(args)
    except (InputError, GeometryError, ex.ExprError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
