"""Metric compatibility on small Lie algebras and the dual Poisson geometry.

The package works at two precisions side by side: exact rational arithmetic
over ``fractions.Fraction`` for certificates, and numpy floats for search
and sampling. Every residual exposed here is a plain number, zero meaning
the identity holds.
"""

__version__ = "0.1.0"

from .algebra import (
    DimensionMismatchError,
    InvalidStructureError,
    LieAlgebra,
    UnimodularityReport,
)
from .catalog import (
    NAMED_ALGEBRAS,
    abelian,
    affine_line,
    by_name,
    euclidean_motions,
    heisenberg,
    heisenberg_split_metric,
    sol,
    sol_split_metric,
    solvable_family,
)
from .classify import (
    ClassificationReport,
    predicted_existence,
    verify_classification,
)
from .dual import (
    BivectorAt,
    bivector_at,
    cyclic_schouten_residual,
    dpi_residual,
    kahler_check_at,
    leaf_frame_at,
    metric_derivation_residual,
    modular_field_value,
    sharp_pi,
)
from .io import (
    FormatError,
    load_algebra,
    load_metric,
    save_algebra,
    save_metric,
)
from .metric import (
    CompatibilityResidual,
    ConnectionTensor,
    DegenerateMetricError,
    Metric,
    Signature,
    compatibility_residual,
    is_pseudo_riemannian,
    levi_civita_product,
    signature,
)
from .poly import Polynomial
from .search import (
    SearchConfig,
    SearchResult,
    compat_objective,
    find_compatible_metric,
)

__all__ = [
    "BivectorAt",
    "ClassificationReport",
    "CompatibilityResidual",
    "ConnectionTensor",
    "DegenerateMetricError",
    "DimensionMismatchError",
    "FormatError",
    "InvalidStructureError",
    "LieAlgebra",
    "Metric",
    "NAMED_ALGEBRAS",
    "Polynomial",
    "SearchConfig",
    "SearchResult",
    "Signature",
    "UnimodularityReport",
    "__version__",
    "abelian",
    "affine_line",
    "bivector_at",
    "by_name",
    "compat_objective",
    "compatibility_residual",
    "cyclic_schouten_residual",
    "dpi_residual",
    "euclidean_motions",
    "find_compatible_metric",
    "heisenberg",
    "heisenberg_split_metric",
    "is_pseudo_riemannian",
    "kahler_check_at",
    "leaf_frame_at",
    "levi_civita_product",
    "load_algebra",
    "load_metric",
    "metric_derivation_residual",
    "modular_field_value",
    "predicted_existence",
    "save_algebra",
    "save_metric",
    "sharp_pi",
    "signature",
    "sol",
    "sol_split_metric",
    "solvable_family",
    "verify_classification",
]
