"""Exact toolkit for a -1 orthogonal polynomial family.

Monic polynomials from a three-term recurrence with rational arithmetic
throughout, the first-order reflection-differential operator they
diagonalize, Dunkl/Christoffel/Geronimus structure transforms, the
anticommutator algebra of the underlying Leonard-style operator pair,
numeric eigenfunctions off the polynomial spectrum, and a trigonometric
well quantum-mechanics picture with a square-root operator.
"""

from .awalgebra import AWStructure, generators, verify_casimir, verify_relations, x_eigenvalue
from .eigensolver import (
    EigenSolution,
    SpectrumClassification,
    build_solution,
    dunkl_apply_residual,
    elementary_case,
    elementary_g_case,
    g_from_f,
    ode_residual,
    parity_residuals,
    polynomial_spectrum_detect,
    second_branch_value,
    solve_general,
)
from .family import (
    FloatRangeError,
    MomentFunctional,
    ParamPair,
    eigenvalue,
    explicit_poly,
    generate_monic,
    moments,
    norm_square,
    qjacobi_recurrence,
    qlimit_error,
    recurrence_coeffs,
    table_rows,
    weight_eval,
    weight_moment,
    weight_normalization,
    weight_values,
)
from .operators import (
    BandedOp,
    OpIdentityReport,
    TruncationError,
    anticommutator,
    commutator,
    derivative,
    dunkl_derivative,
    dunkl_intertwiner,
    identity,
    identity_scalar,
    intertwiner_sigma,
    jacobi_sturm_liouville,
    little_jacobi_operator,
    mult_x,
    op_equal,
    raising_operator,
    reflection,
)
from .polys import (
    NEG_INFINITY,
    ParityPair,
    Poly,
    as_fraction,
    monomial,
    parity_split,
    pochhammer,
    reflect,
    terminating_2f1,
)
from .susyqm import (
    L1Image,
    PhiPoly,
    SchrodingerParams,
    apply_H1,
    apply_L1,
    conjugation_check,
    darboux_flip,
    eigenstate,
    energy,
    factorization_check,
    ground_state,
    node_count,
    potential,
    potential_values,
    superpotential,
    superpotential_prime,
    wavefunction,
)
from .transforms import (
    CheckReport,
    JacobiParams,
    christoffel_transform,
    dunkl_classical_check,
    extract_recurrence,
    gegenbauer_dunkl_check,
    gegenbauer_sequence,
    geronimus_coefficient,
    geronimus_combination,
    identify_little,
    intertwiner_check,
    jacobi_sequence,
    monic_jacobi_01,
    monic_jacobi_sym,
    raising_check,
    symmetric_gegenbauer,
)
from .verify import CheckResult, SuiteOptions, run_suites

__version__ = "0.1.0"
