"""Three-term recurrence chains and the polynomial families they generate.

The whole package is driven by a single object: the off-diagonal sequence
b_0, b_1, ... (plus an optional diagonal a_n) of a symmetric Jacobi matrix.
Two polynomial normalizations are used throughout:

* the orthonormal family  psi_n,  with
      x psi_n = b_n psi_{n+1} + a_n psi_n + b_{n-1} psi_{n-1},   psi_0 = 1,
* the monic "tilde" family  psit_n  of the symmetric (a == 0) case, with
      x psit_n = psit_{n+1} + 2 b_{n-1}^2 psit_{n-1},   psit_0 = 1, psit_1 = x.

They are related by a sqrt(2) change of variable,
    psit_n(sqrt(2) x) = F_n psi_n(x),   F_n = prod_{j<n} sqrt(2) b_j.
Every sum the package forms runs on psi, whose values stay bounded on the
spectrum; psit is kept for the Hermite normalization constant and the
root sets, whose definitions are monic.  Every value of either family
comes from one kernel, node_table, except in the Newton sweep of
_refined_gauss_rule, which runs its own monic recurrence for p and p'.
Roots are Jacobi-matrix eigenvalues, never polynomial root finding.
Every Jacobi eigensolve goes through _eigh_tridiagonal, which hands the
dense symmetric matrix to numpy's LAPACK (syevd), so importing the package
needs numpy alone.  The dense solve is O(n^3) where a tridiagonal solver
is O(n^2): at n = 1600 it is 0.4 s of a 1.2 s polished rule on one x86_64
core, and a cached rule pays it once.

A Gauss rule depends only on its Jacobi window, never on the point where it
is used, so the Newton-polished rule is memoized per process on the exact
float64 bytes of that window (diagonal and off-diagonal) and on the
extended dtype _LD; callers of gauss_quadrature get copies, so the cached
arrays are never shared.

A tridiagonal operator is kept as its band (lo, d, up), the sub-, main and
superdiagonal; _band_apply multiplies it into a matrix as shifted rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# The package's one extended-precision dtype: momentsys, coherent and
# krawtchouk read it as polyrec._LD at call time, so it has one owner.
_LD = np.longdouble
# an eigenpair backward error past this share of ||J||_2 makes roots raise
_ROOT_RESIDUAL_TOL = 1e-8


class ChainError(ValueError):
    """Invalid recurrence data (wrong shape, interior zero, NaN/inf, complex entries)."""


@dataclass(eq=False)  # compared by identity: array fields have no one truth value
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
    """

    b: np.ndarray
    a: np.ndarray | None = None
    label: str = ""

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
    def truncated(self) -> bool:
        """True when trailing zeros in b close the space (valid_depth < depth)."""
        return self.valid_depth < self.depth

    def states(self, dim: int | None = None) -> int:
        """Dimension of the state space an operator of this chain acts on.

        dim itself when it lies in 1..valid_depth + 1, else ChainError; by
        default valid_depth + 1, which is N + 1 for a chain closed by b_N = 0
        and depth + 1 for an open chain.  A state past the first zero b would
        decouple from the rest.
        """
        top = self.valid_depth + 1
        if dim is None:
            return top
        if dim < 1:
            raise ChainError("dim must be >= 1, got %d" % dim)
        if dim > top:
            raise ChainError(
                "need %d nonzero coefficients, chain has %d" % (dim - 1, self.valid_depth)
            )
        return dim

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
            v = np.max(v, initial=0.0) if np.isfinite(v).all() else math.inf
        if not math.isfinite(v):
            return math.inf
        worst = max(worst, float(v))
    return worst


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


def eval_monic_tilde(chain, n: int, x):
    """psit_n at x: the last row of node_table(chain, n, x, "monic_tilde")."""
    out = np.asarray(node_table(chain, n, x, "monic_tilde")[-1], dtype=float)
    return out if out.ndim else float(out)


def _band_dense(band):
    """The dense matrix M of a tridiagonal band (lo, d, up): lo[j] = M[j+1, j],
    d[j] = M[j, j] and up[j] = M[j, j+1]."""
    lo, d, up = band
    return np.diag(d) + np.diag(up, 1) + np.diag(lo, -1)


def _band_apply(band, Y):
    """M @ Y for the tridiagonal band (lo, d, up) and a 2-D Y, as three
    shifted rows: no BLAS, and each entry sums its terms in one fixed order.
    The transpose of M is the reversed band, band[::-1]."""
    lo, d, up = band
    out = d[:, None] * Y
    out[:-1] += up[:, None] * Y[1:]
    out[1:] += lo[:, None] * Y[:-1]
    return out


def _eigh_tridiagonal(diag, off, eigvals_only=False):
    """Eigenvalues (ascending), and unit eigenvectors as columns unless
    eigvals_only, of the symmetric tridiagonal matrix with the given bands."""
    mat = _band_dense((off, diag, off))
    return np.linalg.eigvalsh(mat) if eigvals_only else np.linalg.eigh(mat)


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


def roots(chain, degree: int) -> RootSet:
    """All roots of psit_degree, via the Jacobi spectrum (Golub-Welsch route).

    psit_degree(sqrt(2) y) is proportional to the orthonormal psi_degree(y), so
    the roots are sqrt(2) times the eigenvalues of the degree x degree Jacobi
    matrix.  Raises if an eigenpair residual exceeds _ROOT_RESIDUAL_TOL * scale
    (or is not finite).
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
    diag = np.zeros(degree)
    y, v = _eigh_tridiagonal(diag, off)  # ascending eigenvalues
    res = np.linalg.norm(_band_apply((off, diag, off), v) - v * y, axis=0)
    scale = float(np.max(np.abs(y))) or 1.0
    if not np.all(res <= _ROOT_RESIDUAL_TOL * scale):
        raise ArithmeticError(
            "root residual %.3e exceeds %.1e of the Jacobi norm %.3e"
            % (float(np.max(res)), _ROOT_RESIDUAL_TOL, scale)
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
    dg = np.asarray(diag, dtype=_LD)
    b2 = np.asarray(off, dtype=_LD) ** 2
    y = np.asarray(vals, dtype=_LD)
    n = len(dg)
    for _ in range(3):
        pm = np.zeros_like(y)
        pv = np.ones_like(y)
        dm = np.zeros_like(y)
        dv = np.zeros_like(y)
        for k in range(n):
            c = b2[k - 1] if k else _LD(0.0)
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
def _polished_rule(diag_bytes: bytes, off_bytes: bytes, dtype):
    """Golub-Welsch nodes of one Jacobi window, Newton-polished; read-only.

    The key is the exact float64 bytes of the window, so two chains sharing
    the leading entries share the rule and a changed entry is a new key.
    dtype is the _LD the rule is polished in: it enters only the key, so a
    rule polished in one extended dtype is never served in another.  A rule
    whose polish left dtype's range raises ArithmeticError, so it is never
    cached or returned.
    """
    diag = np.frombuffer(diag_bytes)
    off = np.frombuffer(off_bytes)
    vals = _eigh_tridiagonal(diag, off, eigvals_only=True)
    with np.errstate(all="ignore"):  # a non-finite result is refused below
        y, w = _refined_gauss_rule(diag, off, vals)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise ArithmeticError("the %d-point Gauss rule left the %s range in its "
                              "Newton polish" % (len(diag), np.dtype(dtype).name))
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
    diag = np.zeros(npoints)
    if chain.a is not None:
        diag[: min(npoints, len(chain.a))] = chain.a[:npoints]
    off = chain.b[: npoints - 1]
    if np.all(off > 0):
        y, w = _polished_rule(diag.tobytes(), off.tobytes(), _LD)
        return y.copy(), w.copy()
    vals, vecs = _eigh_tridiagonal(diag, off)
    return vals, vecs[0] ** 2
