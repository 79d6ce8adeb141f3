"""Root posets, ideal lattices of the positive roots, and their typed Hasse diagrams.

The package builds the nine families of finite root systems in the basis of
simple roots, decorates every Hasse edge (of the root poset, of weight
diagrams, of the lattice of upper ideals, and of its Abelian sublattice) with
the simple type it represents, and verifies the closed-form edge counts,
class tables and covering polynomials that govern those diagrams.
"""

from .abelian import (
    CommutativeRoot,
    ab_covering_polynomial,
    class_map,
    commutative_roots,
    enumerate_abelian_ideals,
    long_abelian_ideals,
    suter_tau,
)
from .affine import AffineWeylElement, Wall
from .ideals import (
    IdealEdge,
    MinimalElement,
    UpperIdeal,
    check_minimal_element,
    enumerate_upper_ideals,
    full_ideal,
    ideal_from_roots,
    minimal_element,
    narayana_polynomial,
    principal_ideal,
    type_counts,
    typed_edges,
)
from .posets import FinitePoset, IntPolynomial, export_dot
from .rootposet import (
    TypedEdge,
    edge_type_counts,
    short_root_subdiagram,
    typed_hasse_edges,
)
from .rootsystem import (
    Root,
    RootSystem,
    RootSystemError,
    RootSystemId,
    admissible_systems,
    root_system,
)
from .verify import CheckResult, format_report, run_suite
from .weights import WeightSystem, weight_diagram_edges, weight_system, weyl_dimension

__version__ = "0.1.0"

__all__ = [
    "AffineWeylElement",
    "CheckResult",
    "CommutativeRoot",
    "FinitePoset",
    "IdealEdge",
    "IntPolynomial",
    "MinimalElement",
    "Root",
    "RootSystem",
    "RootSystemError",
    "RootSystemId",
    "TypedEdge",
    "UpperIdeal",
    "Wall",
    "WeightSystem",
    "ab_covering_polynomial",
    "admissible_systems",
    "check_minimal_element",
    "class_map",
    "commutative_roots",
    "edge_type_counts",
    "enumerate_abelian_ideals",
    "enumerate_upper_ideals",
    "export_dot",
    "format_report",
    "full_ideal",
    "ideal_from_roots",
    "long_abelian_ideals",
    "minimal_element",
    "narayana_polynomial",
    "principal_ideal",
    "root_system",
    "run_suite",
    "short_root_subdiagram",
    "suter_tau",
    "type_counts",
    "typed_edges",
    "typed_hasse_edges",
    "weight_diagram_edges",
    "weight_system",
    "weyl_dimension",
]
