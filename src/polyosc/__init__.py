"""Finite oscillator models built from orthogonal-polynomial recurrence chains.

The package turns a three-term recurrence chain (the off-diagonal b_n of a
symmetric Jacobi matrix) into position/momentum/ladder operators on a
truncated state space, specializes the construction to the binomial
lattice, and computes the resulting coherent states by three mutually
independent routes that are cross-checked against each other.
"""

from .polyrec import (
    ChainError,
    RecurrenceCoefficients,
    RootSet,
    as_chain,
    double_factorial_on_index,
    eval_monic_tilde,
    eval_orthonormal,
    factorial_on_index,
    gauss_quadrature,
    jacobi_matrix,
    monic_tilde_coefficients,
    roots,
    tilde_quadrature,
)
from .momentsys import (
    MomentSequence,
    SupportExhaustedError,
    coefficients_from_moments,
    gaussian_even_moments,
    two_point_even_moments,
    verify_canonical_orthogonality,
)
from .fockspace import (
    OscillatorOperators,
    build_symmetric_oscillator,
    commutator,
    expected_truncated_spectrum,
    ladder_commutator_defect,
    spectrum,
)
from .coherent import (
    alternating_even_residual,
    alternating_square_residual,
    coherent_closed_form,
    coherent_via_exponential,
    coherent_via_recurrence,
    construct_resolution_measure,
    gamma_coefficients,
    node_sum_profile,
    profile_normalization,
    quadrature_profile,
    resolution_residuals,
    root_identity_residuals,
    transfer_closed_form,
    transfer_coefficients,
    zero_value_residual,
)
from .chains import (
    boson_chain,
    chain_from_file,
    gaussian_moment_chain,
    hermite_chain,
    krawtchouk_chain,
    resolve_chain,
)
from . import krawtchouk

__version__ = "0.1.0"

__all__ = [
    "ChainError",
    "RecurrenceCoefficients",
    "RootSet",
    "as_chain",
    "double_factorial_on_index",
    "eval_monic_tilde",
    "eval_orthonormal",
    "factorial_on_index",
    "gauss_quadrature",
    "jacobi_matrix",
    "monic_tilde_coefficients",
    "roots",
    "tilde_quadrature",
    "MomentSequence",
    "SupportExhaustedError",
    "coefficients_from_moments",
    "gaussian_even_moments",
    "two_point_even_moments",
    "verify_canonical_orthogonality",
    "OscillatorOperators",
    "build_symmetric_oscillator",
    "commutator",
    "expected_truncated_spectrum",
    "ladder_commutator_defect",
    "spectrum",
    "alternating_even_residual",
    "alternating_square_residual",
    "coherent_closed_form",
    "coherent_via_exponential",
    "coherent_via_recurrence",
    "construct_resolution_measure",
    "gamma_coefficients",
    "node_sum_profile",
    "profile_normalization",
    "quadrature_profile",
    "resolution_residuals",
    "root_identity_residuals",
    "transfer_closed_form",
    "transfer_coefficients",
    "zero_value_residual",
    "boson_chain",
    "chain_from_file",
    "gaussian_moment_chain",
    "hermite_chain",
    "krawtchouk_chain",
    "resolve_chain",
    "krawtchouk",
    "__version__",
]
