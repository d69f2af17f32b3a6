"""Recover recurrence chains from moment sequences.

For a symmetric probability measure with moments mu_0 = 1, mu_{2k+1} = 0,
the monic orthogonal polynomials obey pi_{k+1} = x pi_k - beta_k pi_{k-1}.
The Chebyshev algorithm (Gautschi, Orthogonal Polynomials: Computation and
Approximation, 2004, section 2.1.7) runs that recurrence on the rows
sigma_{k,l} = integral of pi_k x^l, starting from sigma_{0,l} = mu_l:

    sigma_{k+1,l} = sigma_{k,l+1} - beta_k sigma_{k-1,l},
    h_k = sigma_{k,k} = ||pi_k||^2,  beta_k = h_k / h_{k-1},

in O(n^2) steps and no matrix.  The orthonormal off-diagonal coefficients
are b_k = sqrt(h_{k+1} / h_k).

Measures supported on m points only determine b_0..b_{m-2}; past that the
squared norm h_m vanishes.  That is a property of the data, not a failure,
and is reported through SupportExhaustedError with the partial chain attached.
"""

from __future__ import annotations

import numpy as np

from . import polyrec
from .polyrec import RecurrenceCoefficients, as_chain, gauss_quadrature, node_table, worst_of

# A squared monic norm h_k at or below this fraction of h_0 = mu_0 means the
# measure's support is exhausted at that depth.
_PIVOT_RTOL = 1e-12


class SupportExhaustedError(RuntimeError):
    """The moment data only supports a finite chain.

    Attributes
    ----------
    depth : int
        Number of off-diagonal coefficients that were recovered.
    partial : ndarray
        The recovered b_0 .. b_{depth-1}.
    """

    def __init__(self, depth: int, partial):
        self.depth = depth
        self.partial = np.asarray(partial, dtype=float)
        super().__init__(
            "moment sequence supports only %d recurrence coefficient(s); "
            "the underlying measure has finite support" % depth
        )


class MomentSequence:
    """Even moments mu_0, mu_2, mu_4, ... of a symmetric probability measure."""

    def __init__(self, even_moments):
        # Kept in extended precision throughout: recovering depth-n chains
        # amplifies moment error by the Hankel condition number (~1e10 by
        # n = 12), so rounding the moments to float64 here would already
        # spend the entire error budget.
        ev = np.asarray(even_moments, dtype=polyrec._LD)
        if ev.ndim != 1 or len(ev) == 0:
            raise ValueError("need a one-dimensional, nonempty even-moment sequence")
        if not np.all(np.isfinite(ev)):
            raise ValueError("moments must be finite (no NaN or inf)")
        if abs(float(ev[0]) - 1.0) > 1e-12:
            raise ValueError("mu_0 must be 1 (probability normalization), got %r" % ev[0])
        self.even = ev

    def __len__(self):
        return len(self.even)

    def moment(self, k: int) -> float:
        """mu_k, using symmetry for odd k."""
        if k % 2:
            return 0.0
        if k // 2 >= len(self.even):
            raise IndexError("moment mu_%d not available" % k)
        return float(self.even[k // 2])

    @classmethod
    def from_quadrature(cls, nodes, weights, count: int) -> "MomentSequence":
        """Even moments mu_0..mu_{2(count-1)} of a discrete measure."""
        nodes = np.asarray(nodes, dtype=polyrec._LD)
        weights = np.asarray(weights, dtype=polyrec._LD)
        ev = [np.sum(weights * nodes ** (2 * k)) for k in range(count)]
        return cls(ev)


def coefficients_from_moments(moments, count: int) -> RecurrenceCoefficients:
    """Recover b_0 .. b_{count-1} of the orthonormal recurrence from moments.

    Parameters
    ----------
    moments : MomentSequence or array_like
        Even moments (mu_0 = 1 first).  Needs count + 1 of them.
    count : int
        How many off-diagonal coefficients to recover.

    Raises
    ------
    SupportExhaustedError
        When a squared norm h_{k+1} vanishes before `count` coefficients are
        found; carries the recovered prefix.
    """
    if not isinstance(moments, MomentSequence):
        moments = MomentSequence(moments)
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(moments) < count + 1:
        raise ValueError("need %d even moments, have %d" % (count + 1, len(moments)))
    # rows sigma_{k-1} and sigma_k over l = 0..2 count - k (odd moments zero)
    row = np.zeros(2 * count + 1, dtype=polyrec._LD)
    row[::2] = moments.even[: count + 1]
    prev = np.zeros_like(row)
    h = np.empty(count + 1, dtype=polyrec._LD)
    h[0] = row[0]
    for k in range(count):
        beta = h[k] / h[k - 1] if k else 0.0
        prev, row = row, row[1:] - beta * prev[: len(row) - 1]
        h[k + 1] = row[k + 1]
        if h[k + 1] <= _PIVOT_RTOL * h[0]:
            raise SupportExhaustedError(k, np.sqrt(h[1 : k + 1] / h[:k]))
    return RecurrenceCoefficients(b=np.sqrt(h[1:] / h[:-1]).astype(float))


def verify_canonical_orthogonality(chain, degree: int) -> float:
    """Max |<psi_m, psi_n> - delta_mn| for m, n <= degree, via Gauss quadrature.

    Uses the chain's own (degree+1)-point rule, exact for the integrands.
    The diagnostic a reconstruction should pass before being trusted.
    """
    nodes, weights = gauss_quadrature(chain, degree + 1)
    table = node_table(chain, degree, nodes, "orthonormal")
    gram = (table * weights) @ table.T
    return worst_of(np.abs(gram - np.eye(degree + 1)))


def moment_round_trip(chain, count: int):
    """Round trip b -> mu -> b through the chain's own (count + 1)-point Gauss rule.

    Returns (moments, recovered, relative): the even moments
    mu_0..mu_{2 count} of the rule, the chain recovered from them
    (b_0..b_{count-1}) and |recovered b_k - b_k| / |b_k| for each k.
    """
    chain = as_chain(chain)
    nodes, weights = gauss_quadrature(chain, count + 1)
    moments = MomentSequence.from_quadrature(nodes, weights, count + 1)
    back = coefficients_from_moments(moments, count)
    return moments, back, np.abs(back.b - chain.b[:count]) / np.abs(chain.b[:count])


def gaussian_even_moments(count: int) -> MomentSequence:
    """mu_{2k} = (2k-1)!! of the standard Gaussian, k = 0 .. count-1."""
    ev = [1.0]
    for k in range(1, count):
        ev.append(ev[-1] * (2 * k - 1))
    return MomentSequence(ev)

