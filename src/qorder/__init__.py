"""qorder: exact computation with quantum solvable algebras at roots of unity.

Centers, Poisson structures, stratifications, stabilizer Lie algebras, the
predicted irreducible-representation count l^rank, and the brute-force census
that checks it.
"""

from .exactnum import (
    QLaurent,
    CycloNum,
    RootData,
    NotDivisible,
    cyclotomic_build,
)
from .zlattice import (
    SkewForm,
    is_admissible,
    kernel_int,
    skew_normal_form,
    smith_normal_form,
)
from .engine import (
    AlgebraPresentation,
    Element,
    ValidationFailed,
    commutator,
    normal_form,
    validate,
)
from .models import (
    build_borel_sl2,
    build_twisted,
    build_weyl,
    build_weyl_matrices,
    f_elements_and_z0_brackets,
)
from .torus import TorusStructure, center_generators_eps, torus_structure
from .strata import Character, Located, Uncovered, enumerate_strata, locate
from .fiber import FDAlgebra, census, clock_shift_irreps, fiber_algebra
from .stabilizer import (
    FDLie,
    linearized_stabilizer,
    main_theorem_check,
    rank_and_checks,
    stabilizer_from_stratum,
)

__all__ = [
    "QLaurent", "CycloNum", "RootData", "NotDivisible",
    "cyclotomic_build",
    "SkewForm", "is_admissible", "kernel_int", "skew_normal_form",
    "smith_normal_form",
    "AlgebraPresentation", "Element", "ValidationFailed", "commutator",
    "normal_form", "validate",
    "build_borel_sl2", "build_twisted", "build_weyl", "build_weyl_matrices",
    "f_elements_and_z0_brackets",
    "TorusStructure", "center_generators_eps", "torus_structure",
    "Character", "Located", "Uncovered", "enumerate_strata", "locate",
    "FDAlgebra", "census", "clock_shift_irreps", "fiber_algebra",
    "FDLie", "linearized_stabilizer", "main_theorem_check",
    "rank_and_checks", "stabilizer_from_stratum",
]

__version__ = "0.1.0"
