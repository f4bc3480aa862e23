"""Support bounds, cascade iteration, and exact lattice evaluation for
multivariate refinable functions.

A refinable (scaling) function solves phi(x) = m * sum_q c_q phi(M x - q)
for an integer dilation matrix M and a finite mask {c_q}.  This package
computes rigorous support bounds for phi, runs the cascade algorithm as a
numerical oracle, and evaluates phi exactly on the dense lattice {M^-j k}
via the transfer-matrix eigenvector method.
"""

from . import errors
from .bounds import (
    Ball,
    Box,
    SupportBound,
    TransformedBox,
    applicable_bounds,
    ball_bound,
    best_bound,
    bound_1d,
    diagonal_bound,
    enclosing_integer_box,
    finite_level_ball,
    general_ball_bound,
    jordan_block_bound,
    jordan_recurrence_table,
    parallelepiped_bound,
)
from .cascade import (
    InitialFunctionKind,
    IntBox,
    RealBox,
    SampledFunction,
    cascade_step,
    discrete_mass,
    empirical_support,
    fourier_truncated_product,
    initial_samples,
    initial_support_radius,
    m0_eval,
    read_rows,
    refinement_step,
    run_cascade,
    write_samples,
)
from .linalg import (
    DilationCheck,
    DilationMatrix,
    IntMatrix,
    JordanStructure,
    RationalMatrix,
    Spectrum,
    adjugate,
    characteristic_polynomial,
    determinant,
    eigenvalues,
    integer_power,
    inverse,
    is_dilation,
    operator_norm,
    power_inverse_norm,
    rational_inverse_power,
    real_jordan_structure,
)
from .mask import (
    CosetSums,
    Mask,
    Problem,
    coset_sum_report,
    mask_radius,
    parse_problem,
    problem_from_data,
    serialize_problem,
)
from .pointwise import (
    IntegerValues,
    TransferMatrix,
    ValueTable,
    build_transfer_matrix,
    candidate_points,
    converged_integer_values,
    export_values,
    integer_values,
    lattice_points_in_bound,
    periodization_check,
    read_values,
    refine_consistency,
    refine_values,
    transfer_matrix,
)

__version__ = "0.1.0"
