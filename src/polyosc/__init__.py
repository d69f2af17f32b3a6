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
    eval_monic_tilde,
    gauss_quadrature,
    roots,
)
from .momentsys import (
    MomentSequence,
    SupportExhaustedError,
    coefficients_from_moments,
    gaussian_even_moments,
    moment_round_trip,
    verify_canonical_orthogonality,
)
from .fockspace import (
    OscillatorOperators,
    build_symmetric_oscillator,
    expected_truncated_spectrum,
    spectrum,
)
from .coherent import (
    coherent_closed_form,
    coherent_via_exponential,
    coherent_via_recurrence,
    construct_resolution_measure,
    identity_residuals,
    profile_normalization,
    resolution_residuals,
    route_agreement,
    transfer_closed_form,
    transfer_coefficients,
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
    "eval_monic_tilde",
    "gauss_quadrature",
    "roots",
    "MomentSequence",
    "SupportExhaustedError",
    "coefficients_from_moments",
    "gaussian_even_moments",
    "moment_round_trip",
    "verify_canonical_orthogonality",
    "OscillatorOperators",
    "build_symmetric_oscillator",
    "expected_truncated_spectrum",
    "spectrum",
    "coherent_closed_form",
    "coherent_via_exponential",
    "coherent_via_recurrence",
    "construct_resolution_measure",
    "identity_residuals",
    "profile_normalization",
    "resolution_residuals",
    "route_agreement",
    "transfer_closed_form",
    "transfer_coefficients",
    "boson_chain",
    "chain_from_file",
    "gaussian_moment_chain",
    "hermite_chain",
    "krawtchouk_chain",
    "resolve_chain",
    "krawtchouk",
    "__version__",
]
