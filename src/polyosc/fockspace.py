"""Oscillator operators on the (truncated) state space of a recurrence chain.

A zero-diagonal chain b_0..b_N defines, on basis |0>..|N>,

    X[n, n+1] = X[n+1, n] = b_n,
    P[n+1, n] = -i b_n,  P[n, n+1] = +i b_n,

a Hamiltonian H = X^2 + P^2 which is exactly diagonal, with
lambda_n = 2(b_{n-1}^2 + b_n^2), and ladders a_pm = (X -++ i P)/sqrt(2) with
raising entries sqrt(2) b_n.  For a truncated chain (b_N = 0) the commutator
[a_minus, a_plus] picks up a defect -2 b_{N-1}^2 in the top corner on top of
the interior 2(b_n^2 - b_{n-1}^2).

OscillatorOperators keeps only the band b_0..b_{dim-2}.  Its position,
momentum, ladders and Hamiltonian are dense complex matrices built from the
band each time they are read; nothing is cached, so a caller that needs one
of them pays only for that one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyrec import ChainError, as_chain


@dataclass
class OscillatorOperators:
    """The operator quadruple (X, P, H, ladders) of one chain, kept as its band.

    b holds b_0..b_{dim-2}; every operator is a dense view built on request.
    """

    b: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.b) + 1

    @property
    def position(self) -> np.ndarray:
        b = self.b
        return np.zeros((self.dim, self.dim), dtype=complex) + np.diag(b, 1) + np.diag(b, -1)

    @property
    def momentum(self) -> np.ndarray:
        b = self.b
        return (
            np.zeros((self.dim, self.dim), dtype=complex)
            + 1j * np.diag(b, 1)
            - 1j * np.diag(b, -1)
        )

    @property
    def hamiltonian(self) -> np.ndarray:
        # kept as the operator product, so spectrum() checks the algebra
        X, P = self.position, self.momentum
        return X @ X + P @ P

    @property
    def lower(self) -> np.ndarray:
        return (self.position - 1j * self.momentum) / np.sqrt(2.0)

    @property
    def raise_(self) -> np.ndarray:
        # with P's sign convention (+ib above, -ib below the diagonal) the
        # combination X + iP wipes the superdiagonal: it raises
        return (self.position + 1j * self.momentum) / np.sqrt(2.0)


def build_symmetric_oscillator(chain, dim: int | None = None) -> OscillatorOperators:
    """The oscillator of a zero-diagonal chain on chain.states(dim) states
    (the band b_0..b_{dim-2})."""
    chain = as_chain(chain)
    if not chain.symmetric:
        raise ChainError("oscillator operators need a zero-diagonal chain; got a diagonal")
    return OscillatorOperators(chain.b[: chain.states(dim) - 1].copy())


def _padded_band(b: np.ndarray, n: int) -> np.ndarray:
    """(b_{-1}, b_0, .., b_{n-2}, b_{n-1}) with zeros at both ends: b_{-1} = 0
    and nothing past the cut."""
    padded = np.zeros(n + 1)
    padded[1:n] = b[: n - 1]
    return padded


def spectrum(ops):
    """Eigenvalues of H, one per number state, and the number-state basis.

    H = X^2 + P^2 of a zero-diagonal chain is exactly diagonal, so its
    eigenvalues are its diagonal and the eigenvectors are |n>: returns
    (H.diagonal().real, identity).  Raises ArithmeticError if an
    off-diagonal entry of H is nonzero.
    """
    H = ops.hamiltonian
    n = H.shape[0]
    off = H[~np.eye(n, dtype=bool)]
    if np.any(off != 0):
        raise ArithmeticError(
            "Hamiltonian is not diagonal: largest off-diagonal entry %.3e"
            % float(np.max(np.abs(off)))
        )
    return H.diagonal().real.copy(), np.eye(n)


def expected_truncated_spectrum(chain, dim: int | None = None) -> np.ndarray:
    """lambda_n = 2 (b_{n-1}^2 + b_n^2) for the symmetric build.

    Only the coefficients that actually enter the operator on
    chain.states(dim) states (b_0 .. b_{dim-2}) are used; the level above the cut contributes zero,
    which reproduces the truncation value lambda_top = 2 b_{top-1}^2.
    """
    chain = as_chain(chain)
    n = chain.states(dim)
    b2 = _padded_band(chain.b, n) ** 2
    return 2.0 * (b2[:-1] + b2[1:])
