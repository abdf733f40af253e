"""Exact arithmetic for generalized Paley graphs and their invariants."""

from . import applications, arith, errors, field, forms, graphs, oracles, spectra
from .arith import gcd_power
from .field import (
    FieldParams,
    FieldTable,
    element_order,
    get_field,
    trace,
)
from .graphs import (
    CayleyGraph,
    ConnectionSet,
    GraphSpec,
    apply_affine_frobenius,
    build_graph,
    connection_set,
    enumerate_family,
    family_lattice,
    is_subgraph,
    is_symmetric,
    normalize,
)

__all__ = [
    "applications",
    "arith",
    "errors",
    "field",
    "forms",
    "graphs",
    "oracles",
    "spectra",
    "FieldParams",
    "FieldTable",
    "element_order",
    "get_field",
    "trace",
    "gcd_power",
    "CayleyGraph",
    "ConnectionSet",
    "GraphSpec",
    "apply_affine_frobenius",
    "build_graph",
    "connection_set",
    "enumerate_family",
    "family_lattice",
    "is_subgraph",
    "is_symmetric",
    "normalize",
]
