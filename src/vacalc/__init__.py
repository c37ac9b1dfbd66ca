"""vacalc: exact computations with local functions, their co-operations,
and vertex algebras given by generators and relations, certified against
explicit oscillator realizations.
"""

from .errors import VacalcError
from .localfn import LocalFn, RawExpr, basis_monomials, canonicalize, parse
from .cooperad import (
    SortSignature,
    TensorElement,
    cocompose_general,
    filtration_basis,
    in_connective,
    insert_block,
    insert_component,
    insert_components,
    kernel_table,
    verify_axioms,
)
from .vacore import (
    Presentation,
    RadicalSlice,
    VAElement,
    check_uniform_bound,
    graded_dims,
    load_presentation,
    npoint_vacuum,
    npoint_ward,
    ope_singular,
    parse_element,
    preset_heisenberg,
    preset_virasoro,
    radical_slice,
    radical_slices,
    spanning_basis,
    ward_correlator,
)
from . import fockoracle
from .fockoracle import lattice_check

__all__ = [
    "VacalcError",
    "LocalFn",
    "RawExpr",
    "basis_monomials",
    "canonicalize",
    "parse",
    "SortSignature",
    "TensorElement",
    "cocompose_general",
    "filtration_basis",
    "in_connective",
    "insert_block",
    "insert_component",
    "insert_components",
    "kernel_table",
    "verify_axioms",
    "Presentation",
    "RadicalSlice",
    "VAElement",
    "check_uniform_bound",
    "graded_dims",
    "lattice_check",
    "load_presentation",
    "npoint_vacuum",
    "npoint_ward",
    "ope_singular",
    "parse_element",
    "preset_heisenberg",
    "preset_virasoro",
    "radical_slice",
    "radical_slices",
    "spanning_basis",
    "ward_correlator",
    "fockoracle",
]

__version__ = "0.1.0"
