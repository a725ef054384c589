"""Built-in model geometries and seeded random frames.

A Fixture bundles a frame presentation with an optional dualistic pair and
optional almost contact metric or almost Hermitian structure, plus declared
flags that some gated checks consult. Check runners treat fixtures
duck-typed: .has(kind), .nabla, .nabla_star, .lc, .contact, .hermitian,
.flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .connections import (
    AffineConnection,
    ExprConnection,
    LeviCivita,
    random_statistical,
)
from .frame import GeometryError, Manifold, sample_points
from .structures import AlmostContactStructure, AlmostHermitianStructure


@dataclass
class Fixture:
    name: str
    manifold: Manifold
    nabla: AffineConnection | None = None
    nabla_star: AffineConnection | None = None
    contact: AlmostContactStructure | None = None
    hermitian: AlmostHermitianStructure | None = None
    flags: dict = field(default_factory=dict)
    box: list = None
    lc: LeviCivita = field(default_factory=LeviCivita)

    def __post_init__(self):
        if self.box is None:
            self.box = [(-1.0, 1.0)] * self.manifold.dim

    def has(self, kind: str) -> bool:
        if kind == "dual":
            return self.nabla is not None and self.nabla_star is not None
        if kind == "contact":
            return self.contact is not None
        if kind == "hermitian":
            return self.hermitian is not None
        raise ValueError(f"unknown structure kind {kind!r}")

    def with_random_statistical(self, seed: int, scale: float = 0.5) -> "Fixture":
        nab, nabs = random_statistical(self.manifold, seed, scale)
        flags = {k: v for k, v in self.flags.items() if k != "holomorphic"}
        return replace(
            self, name=f"{self.name}+K{seed}", nabla=nab, nabla_star=nabs, flags=flags
        )

    def sample_contexts(self, n_points: int, seed: int, box=None):
        """One batched PointContext over n_points seeded sample points."""
        pts = sample_points(self.manifold.dim, box or self.box, n_points, seed)
        return self.manifold.contexts(pts)


# ---------------------------------------------------------------------------
# the pair of solvable model geometries with constant structure tables

_DACKO_COORDS = ("t", "x", "y")
_DACKO_FRAME = [[1, 0, 0], [0, "exp(-t)", 0], [0, 0, "exp(t)"]]

_CANON_PHI_3 = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
_CANON_XI_3 = [1, 0, 0]
_CANON_ETA_3 = [1, 0, 0]

# variant 1: fully populated pair of flat conjugate connections
_V1_NABLA = [
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 1, 1], [-1, 0, 1], [1, 1, 0]],
    [[0, 1, -1], [1, 1, 0], [1, 0, 1]],
]
_V1_NABLA_STAR = [
    [[-1, 0, 0], [0, 0, -1], [0, -1, 0]],
    [[0, 1, -1], [-1, 0, -1], [-1, -1, 0]],
    [[0, -1, -1], [-1, -1, 0], [1, 0, -1]],
]

# variant 2: the pair whose difference tensor kills the Reeb direction
_V2_NABLA = [
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 1, 0], [-1, 0, 1], [0, 1, 0]],
    [[0, 0, -1], [0, 1, 0], [1, 0, 1]],
]
_V2_NABLA_STAR = [
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 1, 0], [-1, 0, -1], [0, -1, 0]],
    [[0, 0, -1], [0, -1, 0], [1, 0, -1]],
]


def _dacko(variant: int) -> Fixture:
    man = Manifold(_DACKO_COORDS, _DACKO_FRAME, np.eye(3))
    tables = {1: (_V1_NABLA, _V1_NABLA_STAR), 2: (_V2_NABLA, _V2_NABLA_STAR)}[variant]
    return Fixture(
        name=f"dacko-variant-{variant}",
        manifold=man,
        nabla=ExprConnection(tables[0], _DACKO_COORDS),
        nabla_star=ExprConnection(tables[1], _DACKO_COORDS),
        contact=AlmostContactStructure(_CANON_PHI_3, _CANON_XI_3, _CANON_ETA_3, _DACKO_COORDS),
    )


def _flat_cosymplectic() -> Fixture:
    coords = ("t", "x", "y")
    man = Manifold(coords, np.eye(3), np.eye(3))
    lc = LeviCivita()
    return Fixture(
        name="flat-cosymplectic",
        manifold=man,
        nabla=lc,
        nabla_star=lc,
        contact=AlmostContactStructure(_CANON_PHI_3, _CANON_XI_3, _CANON_ETA_3, coords),
        lc=lc,
    )


def _kenmotsu_model() -> Fixture:
    coords = ("t", "x", "y")
    man = Manifold(coords, [[1, 0, 0], [0, "exp(-t)", 0], [0, 0, "exp(-t)"]], np.eye(3))
    lc = LeviCivita()
    return Fixture(
        name="kenmotsu-model",
        manifold=man,
        nabla=lc,
        nabla_star=lc,
        contact=AlmostContactStructure(_CANON_PHI_3, _CANON_XI_3, _CANON_ETA_3, coords),
        lc=lc,
    )


def _sasakian_r3() -> Fixture:
    coords = ("x", "y", "z")
    man = Manifold(coords, [[0, 2, 0], [2, 0, "2*y"], [0, 0, 2]], np.eye(3))
    lc = LeviCivita()
    phi = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    return Fixture(
        name="sasakian-r3",
        manifold=man,
        nabla=lc,
        nabla_star=lc,
        contact=AlmostContactStructure(phi, [0, 0, 1], [0, 0, 1], coords),
        lc=lc,
    )


_KAEHLER_J_2 = [[0, -1], [1, 0]]


def _flat_kaehler_r2() -> Fixture:
    coords = ("x", "y")
    man = Manifold(coords, np.eye(2), np.eye(2))
    lc = LeviCivita()
    return Fixture(
        name="flat-kaehler-r2",
        manifold=man,
        nabla=lc,
        nabla_star=lc,
        hermitian=AlmostHermitianStructure(_KAEHLER_J_2, coords),
        flags={"kaehler": True},
        lc=lc,
    )


_HEIS_COORDS = ("x", "y", "z", "w")
_HEIS_FRAME = [[1, 0, 0, 0], [0, 1, "x", 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def _heisenberg(kind: str) -> Fixture:
    man = Manifold(_HEIS_COORDS, _HEIS_FRAME, np.eye(4))
    lc = LeviCivita()
    if kind == "almost-kaehler":
        J = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    else:
        J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    return Fixture(
        name=f"heisenberg-{kind}",
        manifold=man,
        nabla=lc,
        nabla_star=lc,
        hermitian=AlmostHermitianStructure(J, _HEIS_COORDS),
        lc=lc,
    )


_BUILTINS = {
    "dacko-variant-1": lambda: _dacko(1),
    "dacko-variant-2": lambda: _dacko(2),
    "flat-cosymplectic": _flat_cosymplectic,
    "kenmotsu-model": _kenmotsu_model,
    "sasakian-r3": _sasakian_r3,
    "flat-kaehler-r2": _flat_kaehler_r2,
    "heisenberg-almost-kaehler": lambda: _heisenberg("almost-kaehler"),
    "heisenberg-hermitian": lambda: _heisenberg("hermitian"),
}

BASE_BUILTIN_NAMES = sorted(_BUILTINS)


def builtin_base(name: str) -> Fixture:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise GeometryError(
            f"unknown builtin {name!r}; expected one of {', '.join(BASE_BUILTIN_NAMES)}"
        ) from None


# ---------------------------------------------------------------------------
# seeded random frames with canonical constant structure tables; with the
# metric declared orthonormal in the frame, every purely algebraic structure
# identity holds on the nose while brackets, exterior derivatives, and Lie
# terms stay generically nonzero

_EXPR_POOL = {
    "t": ["sin(t)", "t", "cos(t)", "t*x", "sin(x)", "x*y", "cos(y)", "y"],
    "x": ["sin(x)", "x", "cos(y)", "x*y", "sin(z)", "z", "cos(x)", "y*z"],
}


def _random_frame(rng, coords, pool) -> list:
    n = len(coords)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            f = pool[int(rng.integers(len(pool)))]
            c = 0.2 * float(rng.uniform(0.5, 1.0)) * (1 if rng.uniform() < 0.5 else -1)
            row.append(f"1 + {c:.4f}*{f}" if i == j else f"{c:.4f}*{f}")
        rows.append(row)
    return rows


def random_contact_frame(seed: int, scale: float = 0.5) -> Fixture:
    coords = ("t", "x", "y")
    rng = np.random.default_rng(seed)
    man = Manifold(coords, _random_frame(rng, coords, _EXPR_POOL["t"]), np.eye(3))
    nab, nabs = random_statistical(man, seed, scale)
    return Fixture(
        name=f"random-contact-{seed}",
        manifold=man,
        nabla=nab,
        nabla_star=nabs,
        contact=AlmostContactStructure(_CANON_PHI_3, _CANON_XI_3, _CANON_ETA_3, coords),
    )


def random_hermitian_frame(seed: int, scale: float = 0.5) -> Fixture:
    coords = ("x", "y", "z", "w")
    rng = np.random.default_rng(seed)
    man = Manifold(coords, _random_frame(rng, coords, _EXPR_POOL["x"]), np.eye(4))
    nab, nabs = random_statistical(man, seed, scale)
    J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    return Fixture(
        name=f"random-hermitian-{seed}",
        manifold=man,
        nabla=nab,
        nabla_star=nabs,
        hermitian=AlmostHermitianStructure(J, coords),
    )
