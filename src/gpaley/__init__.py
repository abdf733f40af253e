"""Exact arithmetic for generalized Paley graphs and their invariants.

The closed forms (``spec``, ``spectra``, ``applications``) load with the
package and import no numpy. The table layer (``field``, ``graphs``,
``forms``, ``oracles``) and the names re-exported from it are imported on
first access, through the module ``__getattr__`` (PEP 562).
"""

import importlib

from . import applications, arith, budgets, errors, spec, spectra
from .arith import gcd_power
from .spec import FieldParams, GraphSpec, normalize

# table-layer module -> the names re-exported from it
_LAZY = {
    "field": ("FieldTable", "get_field", "trace"),
    "graphs": ("CayleyGraph", "ConnectionSet", "apply_affine_frobenius", "build_graph",
               "connection_set", "enumerate_family", "family_lattice", "is_subgraph",
               "is_symmetric"),
    "forms": (),
    "oracles": (),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "applications",
    "arith",
    "budgets",
    "errors",
    "spec",
    "spectra",
    *_LAZY,
    "FieldParams",
    "GraphSpec",
    "gcd_power",
    "normalize",
    *_OWNER,
]
