"""Exact constructors, verifiers and enumeration for the matrix equation
AXA = XAX.

The package is organized in layers: exact fields and matrices at the
bottom (:mod:`fields`, :mod:`matrices`, :mod:`unipoly`), the equation
residual and its property checks (:mod:`core`), closed-form solution
families (:mod:`families`), Sylvester machinery (:mod:`sylvester`),
multivariate ideals (:mod:`groebner`), and a brute-force finite-field
census (:mod:`oracle`) that everything else is validated against.
"""

from .core import (
    PropertyVerdict,
    ResidualReport,
    check_charpoly_annihilation,
    check_conjugation_equivariance,
    check_disjoint_spectra_dichotomy,
    check_eigenvalue_transfer,
    check_kernel_classification_two_blocks,
    check_kernel_invariance,
    check_pencil_condition,
    check_power_identities,
    check_spectrum_inclusion,
    is_solution,
    residual,
    spectra_disjoint,
)
from .families import (
    CATALOG,
    FamilyDescriptor,
    block_diagonal,
    build_family,
    commuting_nilpotent,
    conjugate_solution,
    family_2x2_invertible,
    family_2x2_nilpotent,
    family_3x3_nilpotent,
    family_nilpotent_general,
    find_family,
    pencil_extend,
    two_block_case,
    two_block_offdiag,
)
from .fields import Field, Scalar
from .groebner import MultiPoly, PolyRing, buchberger, normal_form, ybe_ideal
from .matio import (
    dumps_matrix,
    load_matrix,
    loads_matrix,
    parse_jordan,
    save_matrix,
)
from .matrices import (
    JordanSpec,
    Matrix,
    annihilator_basis,
    centralizer_basis,
    jordan_block,
    jordan_chain_conjugator,
    jordan_matrix,
    nilpotent_block,
)
from .oracle import (
    CensusReport,
    classify_against_families,
    enumerate_commuting_solutions,
    enumerate_solutions,
    verify_theorems_on_census,
)
from .sylvester import (
    SylvesterProblem,
    SylvesterSolution,
    offdiag_solution_space,
    sylvester_solve,
    sylvester_unique,
)
from .unipoly import UniPoly, char_poly

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CensusReport",
    "FamilyDescriptor",
    "Field",
    "JordanSpec",
    "Matrix",
    "MultiPoly",
    "PolyRing",
    "PropertyVerdict",
    "ResidualReport",
    "Scalar",
    "SylvesterProblem",
    "SylvesterSolution",
    "UniPoly",
    "annihilator_basis",
    "block_diagonal",
    "buchberger",
    "build_family",
    "centralizer_basis",
    "char_poly",
    "check_charpoly_annihilation",
    "check_conjugation_equivariance",
    "check_disjoint_spectra_dichotomy",
    "check_eigenvalue_transfer",
    "check_kernel_classification_two_blocks",
    "check_kernel_invariance",
    "check_pencil_condition",
    "check_power_identities",
    "check_spectrum_inclusion",
    "classify_against_families",
    "commuting_nilpotent",
    "conjugate_solution",
    "dumps_matrix",
    "enumerate_commuting_solutions",
    "enumerate_solutions",
    "family_2x2_invertible",
    "family_2x2_nilpotent",
    "family_3x3_nilpotent",
    "family_nilpotent_general",
    "find_family",
    "is_solution",
    "jordan_block",
    "jordan_chain_conjugator",
    "jordan_matrix",
    "load_matrix",
    "loads_matrix",
    "nilpotent_block",
    "normal_form",
    "offdiag_solution_space",
    "parse_jordan",
    "pencil_extend",
    "residual",
    "save_matrix",
    "spectra_disjoint",
    "sylvester_solve",
    "sylvester_unique",
    "two_block_case",
    "two_block_offdiag",
    "verify_theorems_on_census",
    "ybe_ideal",
]
