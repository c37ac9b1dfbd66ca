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
    filtration_level,
    in_connective,
    insert_block,
    insert_component,
    kernel_table,
    verify_axioms,
)
from .vacore import (
    Presentation,
    RadicalSlice,
    VAElement,
    check_uniform_bound,
    graded_dims,
    lattice_check,
    load_presentation,
    npoint_vacuum,
    ope_singular,
    parse_element,
    preset_heisenberg,
    preset_lattice_rank1,
    preset_virasoro,
    radical_slice,
    spanning_basis,
)
from . import fockoracle

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
    "filtration_level",
    "in_connective",
    "insert_block",
    "insert_component",
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
    "ope_singular",
    "parse_element",
    "preset_heisenberg",
    "preset_lattice_rank1",
    "preset_virasoro",
    "radical_slice",
    "spanning_basis",
    "fockoracle",
]

__version__ = "0.1.0"
