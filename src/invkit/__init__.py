"""invkit: exact resistance-distance graph invariants with spectral cross-checks.

The exact module is authoritative (arbitrary-precision rationals); the
spectral module provides floating-point routes to the same invariants via
Laplacian eigenvalues, and is the one module that imports numpy, so its
names are imported on first use; closed_form holds the (n, r) formulas for the
doubled-cycle strong-product family and its vertical-edge deletions.
"""

from .closed_form import (
    FamilyFormulaResult,
    family_report,
    gutman_gn,
    kf_cycle,
    kf_gn,
    kf_grn,
    kf_star_gn,
    ratio_report,
    tau_gn,
    tau_grn,
    wiener_gn,
    wiener_grn,
)
from .exact import (
    InvariantReport,
    ResistanceMatrix,
    full_report,
    gutman,
    kirchhoff_index,
    mult_deg_kirchhoff,
    resistance_matrix,
    spanning_trees,
    wiener,
)
from .graphs import (
    DisconnectedGraphError,
    EdgeListParseError,
    Graph,
    PrismSpec,
    cycle,
    degrees,
    is_connected,
    parse_edge_list,
    path,
    prism_family,
    rim_swap,
    serialize_edge_list,
    strong_double,
)

__version__ = "0.1.0"

__all__ = [
    "DecompositionError",
    "DisconnectedGraphError",
    "EdgeListParseError",
    "FamilyFormulaResult",
    "Graph",
    "InvariantReport",
    "PrismSpec",
    "ResistanceMatrix",
    "TreeCount",
    "cycle",
    "cycle_spectrum",
    "degrees",
    "eigenvalues_sym",
    "family_report",
    "full_report",
    "gutman",
    "gutman_gn",
    "involution_split",
    "is_connected",
    "kf_cycle",
    "kf_gn",
    "kf_grn",
    "kf_star_gn",
    "kirchhoff_index",
    "laplacian",
    "mult_deg_kirchhoff",
    "normalized_laplacian",
    "parse_edge_list",
    "path",
    "prism_family",
    "ratio_report",
    "resistance_matrix",
    "rim_swap",
    "serialize_edge_list",
    "spanning_trees",
    "spectral_kf",
    "spectral_kf_star",
    "spectral_tree_count",
    "strong_double",
    "tau_gn",
    "tau_grn",
    "wiener",
    "wiener_gn",
    "wiener_grn",
]


def __getattr__(name: str):
    # the names of `spectral` in __all__ are the only ones not imported above:
    # spectral imports numpy, so it is imported when the first of them is used
    if name in __all__:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
