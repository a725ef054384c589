"""statgeo: frame-based checks for statistical manifolds with almost contact
and almost Hermitian structures.

Importing the package registers every check suite (dualistic pairs,
structure axioms, Hermitian and almost contact identities, the cosymplectic
and Kaehler-leaves propositions, curvature), so `registry.run_all` sees the
full catalogue.
"""

from . import expr
from .connections import (
    Conjugate,
    ExprConnection,
    LeviCivita,
    MeanConnection,
    ProductConnection,
    ShiftedConnection,
    SymmetricCubic,
    check_dualistic,
    conjugate,
    difference_jet,
    dualistic_residual,
    random_statistical,
    torsion,
)
from .cosymplectic import (
    BUILTIN_NAMES,
    a_tensor,
    a_tensors,
    builtin_fixture,
    product_construct,
)
from .curvature import h_tensors, ricci, riemann
from .fixtures import (
    Fixture,
    builtin_base,
    random_contact_frame,
    random_hermitian_frame,
)
from .frame import ExprTable, GeometryError, Jet, Manifold, PointContext
from .registry import REGISTRY, run_all, unconditional_names
from .report import build_report, classification_summary, render_json
from .structures import (
    AlmostContactStructure,
    AlmostHermitianStructure,
    classify,
    fundamental_form,
    n1_tensor,
    nijenhuis,
)

__version__ = "0.1.0"

__all__ = [
    "AlmostContactStructure",
    "AlmostHermitianStructure",
    "BUILTIN_NAMES",
    "Conjugate",
    "ExprConnection",
    "ExprTable",
    "Fixture",
    "GeometryError",
    "Jet",
    "LeviCivita",
    "Manifold",
    "MeanConnection",
    "PointContext",
    "ProductConnection",
    "REGISTRY",
    "ShiftedConnection",
    "SymmetricCubic",
    "a_tensor",
    "a_tensors",
    "build_report",
    "builtin_base",
    "builtin_fixture",
    "check_dualistic",
    "classification_summary",
    "classify",
    "conjugate",
    "difference_jet",
    "dualistic_residual",
    "expr",
    "fundamental_form",
    "h_tensors",
    "n1_tensor",
    "nijenhuis",
    "product_construct",
    "random_contact_frame",
    "random_hermitian_frame",
    "random_statistical",
    "render_json",
    "ricci",
    "riemann",
    "run_all",
    "torsion",
    "unconditional_names",
]
