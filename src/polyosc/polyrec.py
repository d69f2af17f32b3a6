"""Three-term recurrence chains and the polynomial families they generate.

The whole package is driven by a single object: the off-diagonal sequence
b_0, b_1, ... (plus an optional diagonal a_n) of a symmetric Jacobi matrix.
Two polynomial normalizations are used throughout:

* the orthonormal family  psi_n,  with
      x psi_n = b_n psi_{n+1} + a_n psi_n + b_{n-1} psi_{n-1},   psi_0 = 1,
* the monic "tilde" family  psit_n  of the symmetric (a == 0) case, with
      x psit_n = psit_{n+1} + 2 b_{n-1}^2 psit_{n-1},   psit_0 = 1, psit_1 = x.

They are related by a sqrt(2) change of variable,
    psit_n(sqrt(2) x) = fact_idx(sqrt(2) b, n) * psi_n(x),
where fact_idx is the index-factorial below.  Every value of either family
comes from one kernel, node_table.  Roots are always computed as
Jacobi-matrix eigenvalues, never by polynomial root finding.

A Gauss rule depends only on its Jacobi window, never on the point where it
is used, so the Newton-polished rule is memoized per process on the exact
float64 bytes of that window (diagonal and off-diagonal); callers of
gauss_quadrature get copies, so the cached arrays are never shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

_LD = np.longdouble


class ChainError(ValueError):
    """Invalid recurrence data (wrong shape, interior zero, NaN/inf, complex entries)."""


@dataclass
class RecurrenceCoefficients:
    """A recurrence chain: off-diagonal b_n and optional diagonal a_n.

    Parameters
    ----------
    b : array_like
        Off-diagonal coefficients b_0 .. b_{depth-1}.  Real, and nonzero
        below the truncation boundary.  A truncated chain ends with b = 0
        entries (e.g. the Krawtchouk chain has b_N = 0).
    a : array_like, optional
        Diagonal coefficients; omitted or all-zero for symmetric measures.
    truncated : bool
        True when the chain closes a finite-dimensional space, i.e. trailing
        zeros in b are structural rather than missing data.
    """

    b: np.ndarray
    a: np.ndarray | None = None
    truncated: bool = False
    label: str = field(default="", compare=False)

    def __post_init__(self):
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if self.b.ndim != 1:
            raise ChainError("b must be a one-dimensional sequence")
        if self.a is not None:
            self.a = np.atleast_1d(np.asarray(self.a, dtype=float))
            if self.a.shape != self.b.shape:
                raise ChainError(
                    "a and b must have equal length, got %d and %d"
                    % (len(self.a), len(self.b))
                )
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.diagonal()))):
            raise ChainError("chain coefficients must be finite (no NaN or inf)")
        # Zeros are only allowed as a trailing (truncating) block.
        nz = np.nonzero(self.b == 0.0)[0]
        if nz.size:
            first = int(nz[0])
            if np.any(self.b[first:] != 0.0):
                raise ChainError("interior zero in b at index %d" % first)
            self.truncated = True

    @property
    def depth(self) -> int:
        """Length of the stored b sequence."""
        return len(self.b)

    @property
    def valid_depth(self) -> int:
        """Number of leading nonzero b entries (the usable chain length)."""
        nz = np.nonzero(self.b == 0.0)[0]
        return int(nz[0]) if nz.size else len(self.b)

    @property
    def symmetric(self) -> bool:
        return self.a is None or not np.any(self.a)

    def diagonal(self) -> np.ndarray:
        return np.zeros_like(self.b) if self.a is None else self.a

    def __len__(self) -> int:
        return len(self.b)


def as_chain(chain) -> RecurrenceCoefficients:
    """Coerce an array of b values (or a chain) to RecurrenceCoefficients."""
    if isinstance(chain, RecurrenceCoefficients):
        return chain
    return RecurrenceCoefficients(b=np.asarray(chain, dtype=float))


def worst_of(*values) -> float:
    """Largest entry (at least 0) over scalars and arrays; NaN or inf give +inf.

    A running max(worst, x) keeps worst when x is NaN, so a NaN would pass
    every bound; through this helper it fails every bound instead.
    """
    worst = 0.0
    for v in values:
        if np.ndim(v):
            v = np.max(v) if np.isfinite(v).all() else math.inf
        if not math.isfinite(v):
            return math.inf
        worst = max(worst, float(v))
    return worst


def factorial_on_index(values, n: int) -> float:
    """Product of values[0..n-1]; the empty product (n <= 0) is 1.

    This is the "(c_{n-1})!" convention: factorial_on_index(2*b**2, n)
    is (2b^2_{n-1})! = 2b_0^2 * ... * 2b_{n-1}^2.
    """
    if n <= 0:
        return 1.0
    values = np.asarray(values)
    if n > len(values):
        raise ValueError("index factorial needs %d entries, have %d" % (n, len(values)))
    return float(np.prod(values[:n].astype(_LD)))


def double_factorial_on_index(values, n: int) -> float:
    """Product of every second entry, values[n-1] * values[n-3] * ...; 1 for n <= 0.

    double_factorial_on_index(2*b**2, 2*p) is (2b^2_{2p-2})!! (even indices),
    and with n = 2*p + 1 it is (2b^2_{2p-1})!! (odd indices).
    """
    if n <= 0:
        return 1.0
    values = np.asarray(values)
    if n > len(values):
        raise ValueError("index double factorial needs %d entries" % n)
    return float(np.prod(values[n - 1 :: -2].astype(_LD)))


def node_table(chain, nmax: int, x, normalization: str) -> np.ndarray:
    """Rows 0..nmax of psi ("orthonormal") or psit ("monic_tilde") at every x.

    One forward pass in extended precision; returns a longdouble array of
    shape (nmax + 1,) + shape(x).  psi needs nmax <= chain.valid_depth (it
    divides by b_k).  psit_n only uses b_0..b_{n-2}, so it reaches one degree
    past the truncation boundary (that closing polynomial supplies the root
    set).  Values grow factorially with the degree but only enter downstream
    formulas through ratios.
    """
    chain = as_chain(chain)
    if normalization not in ("orthonormal", "monic_tilde"):
        raise ValueError("unknown normalization %r" % (normalization,))
    tilde = normalization == "monic_tilde"
    if tilde and not chain.symmetric:
        raise ChainError("the tilde family is defined for symmetric chains (a == 0)")
    if nmax < 0:
        raise ValueError("polynomial degree must be nonnegative")
    if not tilde and nmax > chain.valid_depth:
        raise ChainError("chain supports degrees up to %d, got %d" % (chain.valid_depth, nmax))
    if tilde and nmax > chain.depth + 1:
        raise ChainError("need b_0..b_%d for degree %d" % (nmax - 2, nmax))
    # step k: row_{k+1} = ((x - a_k) row_k - c_k row_{k-1}) / d_k, with c_0 = 0
    b = chain.b.astype(_LD)
    below = b[: max(nmax - 1, 0)]
    if tilde:
        a, c, d = np.zeros(nmax, dtype=_LD), 2.0 * below**2, np.ones(nmax, dtype=_LD)
    else:
        a, c, d = chain.diagonal()[:nmax].astype(_LD), below, b[:nmax]
    c = np.concatenate(([0.0], c))
    x = np.asarray(x, dtype=_LD)
    table = np.empty((nmax + 1,) + x.shape, dtype=_LD)
    table[0] = 1.0
    prev = np.zeros_like(x)
    for k in range(nmax):
        table[k + 1] = ((x - a[k]) * table[k] - c[k] * prev) / d[k]
        prev = table[k]
    return table


def _last_row(table):
    out = np.asarray(table[-1], dtype=float)
    return out if out.ndim else float(out)


def eval_orthonormal(chain, n: int, x):
    """psi_n at x: the last row of node_table(chain, n, x, "orthonormal")."""
    return _last_row(node_table(chain, n, x, "orthonormal"))


def eval_monic_tilde(chain, n: int, x):
    """psit_n at x: the last row of node_table(chain, n, x, "monic_tilde")."""
    return _last_row(node_table(chain, n, x, "monic_tilde"))


def monic_tilde_coefficients(chain, n: int) -> np.ndarray:
    """Monomial coefficient array (ascending powers) of psit_n."""
    chain = as_chain(chain)
    tb2 = 2.0 * chain.b.astype(_LD) ** 2
    ckm1 = np.zeros(1, dtype=_LD)
    ck = np.ones(1, dtype=_LD)
    for k in range(n):
        shifted = np.concatenate(([0.0], ck))
        prev = np.concatenate((ckm1, np.zeros(len(shifted) - len(ckm1), dtype=_LD)))
        ckm1, ck = ck, shifted - (tb2[k - 1] if k > 0 else 0.0) * prev
    return ck.astype(float)


def jacobi_matrix(chain, size: int) -> np.ndarray:
    """Dense symmetric Jacobi matrix of the given size.

    Diagonal a_0..a_{size-1} (zero for symmetric chains), off-diagonal
    b_0..b_{size-2}.  The eigenvalues are the roots of psi_size.
    """
    chain = as_chain(chain)
    if size < 1:
        raise ValueError("size must be >= 1")
    if size - 1 > chain.depth:
        raise ChainError("chain too short for a %dx%d Jacobi matrix" % (size, size))
    diag = np.zeros(size)
    if chain.a is not None:
        diag[: min(size, len(chain.a))] = chain.a[:size]
    off = chain.b[: size - 1]
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@dataclass
class RootSet:
    """Roots of the degree-`degree` monic tilde polynomial of a chain.

    x is sorted ascending.  residuals[k] = ||J v_k - y_k v_k||_2 is the
    backward error of the k-th eigenpair (y_k, v_k) of the Jacobi matrix J
    (x = sqrt(2) y, unit v_k), and scale = max|y| = ||J||_2 (1 when J = 0),
    so residual/scale is the meaningful relative quantity.
    """

    x: np.ndarray
    residuals: np.ndarray
    degree: int
    scale: float

    def __len__(self) -> int:
        return len(self.x)


def roots(chain, degree: int, residual_tol: float = 1e-8) -> RootSet:
    """All roots of psit_degree, via the Jacobi spectrum (Golub-Welsch route).

    psit_degree(sqrt(2) y) is proportional to the orthonormal psi_degree(y), so
    the roots are sqrt(2) times the eigenvalues of the degree x degree Jacobi
    matrix.  Raises if an eigenpair residual exceeds residual_tol * scale (or
    is not finite).
    """
    chain = as_chain(chain)
    if not chain.symmetric:
        raise ChainError("root sets are defined through the symmetric tilde family")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree - 1 > chain.depth:
        raise ChainError(
            "degree %d needs b_0..b_%d, past the chain's depth %d"
            % (degree, degree - 2, chain.depth)
        )
    off = chain.b[: degree - 1]
    y, v = eigh_tridiagonal(np.zeros(degree), off)  # ascending eigenvalues
    Jv = np.zeros_like(v)
    Jv[:-1] = off[:, None] * v[1:]
    Jv[1:] += off[:, None] * v[:-1]
    res = np.linalg.norm(Jv - v * y, axis=0)
    scale = float(np.max(np.abs(y))) or 1.0
    if not np.all(res <= residual_tol * scale):
        raise ArithmeticError(
            "root residual %.3e exceeds %.1e of the Jacobi norm %.3e"
            % (float(np.max(res)), residual_tol, scale)
        )
    return RootSet(x=np.sqrt(2.0) * y, residuals=res, degree=degree, scale=scale)


def _refined_gauss_rule(diag, off, vals):
    """Newton-polish Golub-Welsch nodes in extended precision.

    The float64 eigenvalues are accurate to ~1e-12 absolute, which is not
    enough once high powers of the nodes enter a sum (the error scales with
    the derivative of x^n).  Three Newton sweeps on the monic polynomial
    push the nodes to longdouble accuracy, and the weights are rebuilt from
    the reciprocal kernel diagonal 1 / sum_l psi_l(y_k)^2, which is exact
    for the mu_0 = 1 normalization.
    """
    dg = np.asarray(diag, dtype=np.longdouble)
    b2 = np.asarray(off, dtype=np.longdouble) ** 2
    y = np.asarray(vals, dtype=np.longdouble)
    n = len(dg)
    for _ in range(3):
        pm = np.zeros_like(y)
        pv = np.ones_like(y)
        dm = np.zeros_like(y)
        dv = np.zeros_like(y)
        for k in range(n):
            c = b2[k - 1] if k else np.longdouble(0.0)
            pm, pv, dm, dv = (
                pv,
                (y - dg[k]) * pv - c * pm,
                dv,
                pv + (y - dg[k]) * dv - c * dm,
            )
        y = y - pv / dv
    # cumsum keeps a sequential degree-order sum: moment recovery is sensitive to its rounding
    window = RecurrenceCoefficients(b=off, a=diag[: n - 1])
    total = np.cumsum(node_table(window, n - 1, y, "orthonormal") ** 2, axis=0)[-1]
    return y, 1.0 / total


@lru_cache(maxsize=64)
def _polished_rule(diag_bytes: bytes, off_bytes: bytes):
    """Golub-Welsch nodes of one Jacobi window, Newton-polished; read-only.

    The key is the exact float64 bytes of the window, so two chains sharing
    the leading entries share the rule and a changed entry is a new key.
    """
    diag = np.frombuffer(diag_bytes)
    off = np.frombuffer(off_bytes)
    vals = eigh_tridiagonal(diag, off, eigvals_only=True)
    y, w = _refined_gauss_rule(diag, off, np.sort(vals))
    y.setflags(write=False)
    w.setflags(write=False)
    return y, w


def gauss_quadrature(chain, npoints: int):
    """Gauss nodes and weights for the measure encoded by the chain.

    Nodes are the eigenvalues of the npoints x npoints Jacobi matrix in the
    chain's own (orthonormal) variable (mu_0 = 1 normalization).  Exact for
    polynomials of degree <= 2*npoints - 1.  When every off-diagonal in the
    window is positive the rule is returned Newton-polished in extended
    precision (longdouble arrays); the degenerate fallback keeps the plain
    eigenvector-component weights.  The polished rule is memoized per
    process on the exact bytes of the npoints window (64 windows are kept),
    and each call returns fresh copies.
    """
    chain = as_chain(chain)
    if npoints < 1:
        raise ValueError("need at least one quadrature point")
    if npoints - 1 > chain.depth:
        raise ChainError(
            "%d points need b_0..b_%d, past the chain's depth %d"
            % (npoints, npoints - 2, chain.depth)
        )
    if npoints == 1:
        a0 = 0.0 if chain.a is None or len(chain.a) == 0 else float(chain.a[0])
        return (
            np.array([a0], dtype=np.longdouble),
            np.array([1.0], dtype=np.longdouble),
        )
    diag = np.zeros(npoints)
    if chain.a is not None:
        diag[: min(npoints, len(chain.a))] = chain.a[:npoints]
    off = chain.b[: npoints - 1]
    if np.all(off > 0):
        y, w = _polished_rule(diag.tobytes(), off.tobytes())
        return y.copy(), w.copy()
    vals, vecs = eigh_tridiagonal(diag, off)
    order = np.argsort(vals)
    return vals[order], vecs[0, order] ** 2


def tilde_quadrature(chain, npoints: int):
    """Gauss rule transported to the monic-tilde variable (x = sqrt(2) y)."""
    nodes, weights = gauss_quadrature(chain, npoints)
    return np.sqrt(np.longdouble(2.0)) * nodes, weights
