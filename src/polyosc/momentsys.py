"""Recover recurrence chains from moment sequences.

For a symmetric probability measure with moments mu_0 = 1, mu_{2k+1} = 0,
the Hankel matrix H[i, j] = mu_{i+j} factors as H = R^T R with R upper
triangular, and the off-diagonal recurrence coefficients are the ratios of
consecutive R diagonal entries (in the monic-tilde variable the same ratios
give 2 b_k^2 directly; we work in the orthonormal variable).

Measures supported on m points only determine b_0..b_{m-2}; past that the
Hankel matrix is singular.  That is a property of the data, not a failure,
and is reported through SupportExhaustedError with the partial chain attached.
"""

from __future__ import annotations

import numpy as np

from . import polyrec
from .polyrec import RecurrenceCoefficients, as_chain, gauss_quadrature, node_table, worst_of

# Pivot smaller than this fraction of the leading pivot means the measure's
# support is exhausted at that depth.
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

    def hankel(self, size: int) -> np.ndarray:
        """The size x size Hankel matrix H[i, j] = mu_{i+j} (longdouble)."""
        if size > len(self.even):
            raise IndexError("moment mu_%d not available" % (2 * size - 2))
        H = np.zeros((size, size), dtype=polyrec._LD)
        for i in range(size):
            for j in range(i % 2, size, 2):
                H[i, j] = self.even[(i + j) // 2]
        return H

    @classmethod
    def from_quadrature(cls, nodes, weights, count: int) -> "MomentSequence":
        """Even moments mu_0..mu_{2(count-1)} of a discrete measure."""
        nodes = np.asarray(nodes, dtype=polyrec._LD)
        weights = np.asarray(weights, dtype=polyrec._LD)
        ev = [np.sum(weights * nodes ** (2 * k)) for k in range(count)]
        return cls(ev)


def _cholesky_pivots(H: np.ndarray):
    """Upper Cholesky factor of H, stopping at the first negligible pivot.

    Returns (R, ncols) where the leading ncols columns of R are valid.  A
    plain numpy.linalg.cholesky would raise on the (numerically) semidefinite
    matrices that finite-support measures produce, and we need the partial
    factor anyway, so this is rolled by hand.
    """
    n = H.shape[0]
    R = np.zeros((n, n), dtype=polyrec._LD)
    H = H.astype(polyrec._LD)
    lead = None
    for j in range(n):
        s = H[j, j] - np.sum(R[:j, j] ** 2)
        if lead is None:
            lead = max(float(s), np.finfo(float).tiny)
        if s <= _PIVOT_RTOL * lead:
            return R, j
        R[j, j] = np.sqrt(s)
        for k in range(j + 1, n):
            R[j, k] = (H[j, k] - np.sum(R[:j, j] * R[:j, k])) / R[j, j]
    return R, n


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
        When the Hankel matrix goes singular before `count` coefficients are
        found; carries the recovered prefix.
    """
    if not isinstance(moments, MomentSequence):
        moments = MomentSequence(moments)
    if count < 1:
        raise ValueError("count must be >= 1")
    size = count + 1
    if len(moments) < size:
        raise ValueError("need %d even moments, have %d" % (size, len(moments)))
    H = moments.hankel(size)
    R, ncols = _cholesky_pivots(H)
    # b_k = R[k+1, k+1] / R[k, k]: ratio of norms of consecutive monic
    # orthogonal polynomials.
    got = ncols - 1
    b = np.array(
        [R[k + 1, k + 1] / R[k, k] for k in range(min(count, got))], dtype=float
    )
    if got < count:
        raise SupportExhaustedError(got, b)
    return RecurrenceCoefficients(b=b)


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

