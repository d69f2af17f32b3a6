"""The binomial-lattice (Krawtchouk) specialization.

Everything here lives on the finite lattice x = 0, 1, ..., N with binomial
weight rho(x) = C(N, x) p^x (1-p)^{N-x}.  Two equivalent pictures are built
and cross-mapped:

* the *polynomial side*: the orthonormalized lattice polynomials kt_n
  ("ktilde") and oscillator operators built from the zero-diagonal chain
  b_{n-1}^2 = p(1-p) n (N-n+1);
* the *grid side*: lattice wave functions Psi_n(j) = (-1)^n sqrt(rho(j))
  kt_n(j), a difference-operator Hamiltonian with the exactly equidistant
  spectrum n + 1/2, and su(2)-type ladder operators.

The unitary map between the two sides (polynomial_to_grid_map) transports
ladders onto ladders and diagonalizes the grid Hamiltonian.

One cached record per (p, N), _lattice, holds the exact kt table, sqrt(rho)
and Psi, read-only; every check and accessor reads it.  sqrt(rho) and the
norm factors c_n are exact roots rounded once (_rounded_root), so Psi stays
finite and orthogonal where rho underflows or c_n^2 overflows.  Every operator on either side is
tridiagonal, and each is kept as its band (lo, d, up): lo[j] = M[j+1, j],
d[j] = M[j, j], up[j] = M[j, j+1].  Every operator identity is checked
through one shifted-row kernel, polyrec._band_apply, which forms M @ Y
without BLAS in O(N^2) for an (N+1)-square Y: a commutator [A, B] is A
applied to dense(B) minus B applied to dense(A), and a right product Y @ M
applies the reversed (transposed) band to Y^T.  No BLAS product is left:
the dual orthogonality of kt_n is the Gram pair Psi Psi^T, Psi^T Psi, each
one np.einsum sum in one fixed order (grid_orthogonality_residuals).
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .fockspace import build_symmetric_oscillator, spectrum
from .polyrec import (
    RecurrenceCoefficients,
    _band_apply,
    _band_dense,
    _eigh_tridiagonal,
    worst_of,
)


def _check_pn(p: float, N: int):
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1, got %r" % p)
    if isinstance(N, (bool, np.bool_)) or N < 1 or int(N) != N:
        raise ValueError("N must be a positive integer, got %r" % N)


def _rounded_root(num: int, den: int) -> float:
    """sqrt(num / den) of positive ints, the exact root rounded once: isqrt of
    the quotient cut to ~128 bits at an even power of two has ~64, and a
    remainder of either sets its last bit, so float() rounds as the exact root
    would (ldexp: exact unless subnormal, OverflowError past the float range)."""
    e = num.bit_length() - den.bit_length() - 128
    e -= e % 2
    top, rest = divmod(num, den << e) if e >= 0 else divmod(num << -e, den)
    root = math.isqrt(top)
    return math.ldexp(float(root | (rest != 0 or root * root != top)), e // 2)


@lru_cache(maxsize=64)
def _weights_cached(p: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(rho(x), sqrt(rho(x))), x = 0..N, each exact value rounded once.

    With p = m/D exactly (D a power of two) and r = D - m,
    rho(x) = C(N, x) m^x r^(N-x) / D^N; each integer numerator is divided by
    D^N once (int / int true division rounds correctly and underflows to 0).
    sqrt(rho) is _rounded_root of the same quotient, so it stays in range
    where rho does not (0.3^800 ~ 1e-418 is 0 in float64, its root is not).
    """
    m, D = p.as_integer_ratio()
    r = D - m
    denom, num = D**N, r**N  # num = C(N, x) m^x r^(N-x), stepped exactly in x
    rho, sqrt_rho = np.empty(N + 1), np.empty(N + 1)
    for x in range(N + 1):
        rho[x] = num / denom
        sqrt_rho[x] = _rounded_root(num, denom)
        num = num * (N - x) * m // ((x + 1) * r)
    rho.setflags(write=False)
    sqrt_rho.setflags(write=False)
    return rho, sqrt_rho


def weight_rho(x, p: float, N: int):
    """Binomial weight rho(x) = C(N, x) p^x (1-p)^{N-x} on x = 0..N.

    Exact to one rounding per entry (see _weights_cached).  Every x must be
    an integer in 0..N; anything else raises ValueError.
    """
    _check_pn(p, N)
    x_arr = np.asarray(x)
    if x_arr.dtype.kind not in "iuf" or not np.all(
        (x_arr >= 0) & (x_arr <= N) & (np.trunc(x_arr) == x_arr)
    ):
        raise ValueError("x must be integers in 0..%d, got %r" % (N, x))
    out = _weights_cached(float(p), int(N))[0][x_arr.astype(int)]
    return out if out.ndim else float(out)


def symmetric_chain(p: float, N: int) -> RecurrenceCoefficients:
    """Zero-diagonal chain b_{n-1}^2 = p(1-p) n (N-n+1) (so b_N = 0).

    This is the chain the oscillator constructions consume; its orthonormal
    family is the sign-flipped (-1)^n kt_n (the diagonal is removed by
    symmetrizing the measure, the sign by conjugation with diag((-1)^n)).
    """
    _check_pn(p, N)
    n = np.arange(N + 1, dtype=float)
    b = np.sqrt(p * (1.0 - p) * (n + 1.0) * (N - n))
    return RecurrenceCoefficients(b=b, label="krawtchouk-sym(p=%g,N=%d)" % (p, N))


def _ktilde_table(p: float, N: int) -> np.ndarray:
    """Exact-arithmetic kt table, rounded to float once per entry.

    The three-term recurrence in the degree is *unstable* in floating
    point on parts of the lattice: where kt_n(x) is tiny (near a root) the
    wanted solution is dominated by the other branch and a forward pass can
    lose every digit (observed: relative errors > 1e3 at N = 30).  A float
    p is a rational m/D (D a power of two), so the recurrence of the plain
    polynomials K_n, normalized by K_n(0) = 1,

        p (N-n) K_{n+1} = [p (N-n) + n (1-p) - x] K_n - n (1-p) K_{n-1},

    runs exactly on Python ints once its denominators are cleared: with
    r = D - m and K_n = A_n / d_n, d_n = m^n N!/(N-n)!,

        A_{n+1} = [m (N-n) + n r - D x] A_n - n r m (N-n+1) A_{n-1},

    from A_{-1} = 0, A_0 = 1.  No step divides or takes a gcd.

    The plain polynomials are self-dual, K_n(x) = K_x(n): both equal
    2F1(-n, -x; -N; 1/p) (Koekoek, Lesky and Swarttouw, Hypergeometric
    Orthogonal Polynomials, 9.11).  So the recurrence runs only on the
    upper triangle x >= n: each degree step drops the column x = n, which
    needs no higher degree, and the big-integer work falls from ~N^3/2 to
    ~N^3/6 digit operations.  Row n of the plain table is A_n(x) / d_n for
    x >= n and the mirrored column K_x(n) for x < n, the same rational.
    Only then is row n scaled by c_n = sqrt(C(N,n) m^n / r^n), the
    orthonormalizing factor sqrt(C(N,n) (p/q)^n) as its exact root rounded
    once (_rounded_root, as for sqrt(rho)); kt_n(x) = c_n K_n(x) is not
    symmetric.  int / int true division rounds correctly, as float() of a
    Fraction does, so every K_n(x) equals the full Fraction recurrence's and
    every entry carries ~1 ulp.  A K_n(x), c_n or kt_n(x) past the float
    range raises OverflowError naming it.
    """
    m, D = p.as_integer_ratio()
    r = D - m
    Dx = D * np.arange(N + 1, dtype=object)
    prev = np.zeros(N + 1, dtype=object)  # A_{n-1}(x), x = n..N
    cur = np.ones(N + 1, dtype=object)  # A_n(x), x = n..N
    d = 1
    table, c = np.empty((N + 1, N + 1)), np.empty(N + 1)
    with _float_range(p, N, lambda: "K_%d(x)" % n):
        for n in range(N + 1):
            table[n, n:] = (cur / d).astype(float)
            table[n, :n] = table[:n, n]  # K_n(x) = K_x(n), already rounded
            if n < N:
                up, low = m * (N - n), n * r * m * (N - n + 1)
                prev, cur = cur[1:], (up + n * r - Dx[n + 1 :]) * cur[1:] - low * prev[1:]
                d *= up
    num, den = 1, 1  # C(N, n) m^n and r^n, stepped exactly in n
    with _float_range(p, N, lambda: "the norm factor c_%d" % n):
        for n in range(N + 1):
            c[n] = _rounded_root(num, den)
            num, den = num * (N - n) * m // (n + 1), den * r
    with _float_range(p, N, lambda: "a table entry kt_n(x) = c_n K_n(x)"):
        table *= c[:, None]  # after the loop: the mirror reads unscaled rows
    return table


@contextmanager
def _float_range(p: float, N: int, quantity):
    """Name p, N and quantity() when an int division or numpy overflows (a
    callable, so that it reads a loop index as the error is raised)."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise OverflowError("Krawtchouk lattice at p = %r, N = %d: %s is too large "
                            "for a float" % (p, N, quantity())) from None


_Lattice = namedtuple("_Lattice", "table sqrt_rho psi")


# typed, so a bool N is checked, not served N = 1's record; 32 records: ~330 MB at N = 800
@lru_cache(maxsize=32, typed=True)
def _lattice(p: float, N: int) -> _Lattice:
    """The read-only arrays every lattice check shares, built once per
    (p, N): table[n, x] = kt_n(x), sqrt_rho and the wave functions
    psi[n, j] = (-1)^n sqrt(rho(j)) kt_n(j)."""
    _check_pn(p, N)
    p, N = float(p), int(N)
    table = _ktilde_table(p, N)
    sqrt_rho = _weights_cached(p, N)[1]
    psi = (-1.0) ** np.arange(N + 1)[:, None] * sqrt_rho[None, :] * table
    for array in (table, psi):
        array.setflags(write=False)
    return _Lattice(table, sqrt_rho, psi)


def ktilde_table(p: float, N: int) -> np.ndarray:
    """Table kt[n, x] for n, x = 0..N, entries accurate to ~1 ulp."""
    return _lattice(p, N).table.copy()


def difference_equation_residual(p: float, N: int) -> float:
    """Max relative residual of the lattice difference equation.

    -n y(x) = p(N-x) y(x+1) - [p(N-x) + x(1-p)] y(x) + x(1-p) y(x-1)
    for y = kt_n, all n, x in 0..N; the x-1 and x+1 terms at the lattice
    ends carry zero coefficient.  Each residual is scaled by the largest
    term entering it, so the number is meaningful at any N.  A term or sum
    past the float range raises OverflowError.
    """
    table = _lattice(p, N).table  # normalization in n drops out of the x-equation
    q = 1.0 - p
    kn = np.pad(table, ((0, 0), (1, 1)))  # kn[n, x + 1] = kt_n(x), zero off the lattice
    x = np.arange(N + 1, dtype=float)
    n = x[:, None]  # the degree runs over the same range 0..N
    with _float_range(p, N, lambda: "a difference-equation term"):
        terms = (
            p * (N - x) * kn[:, 2:],
            -(p * (N - x) + x * q) * kn[:, 1:-1],
            x * q * kn[:, :-2],
            n * kn[:, 1:-1],
        )
        scale = np.maximum(1.0, np.max(np.abs(terms), axis=0))
        return worst_of(np.abs(((terms[0] + terms[1]) + terms[2]) + terms[3]) / scale)


# ---------------------------------------------------------------------------
# polynomial-side oscillator


def _commutator(A, B) -> np.ndarray:
    """[A, B] of two bands, as a dense matrix: A applied to dense(B) minus
    B applied to dense(A)."""
    return _band_apply(A, _band_dense(B)) - _band_apply(B, _band_dense(A))


def _times_band(Y: np.ndarray, band) -> np.ndarray:
    """Y @ M for the band of M: the reversed band (M^T) applied to Y^T."""
    return _band_apply(band[::-1], Y.T).T


def _lattice_ladders(p: float, N: int):
    """Bands of the scaled lattice ladders (lower, raise_ = lower^T).

    The symmetric chain's ladders sqrt(2) b_n times sqrt(2) over the
    lattice unit 2 sqrt(p(1-p)), so that [lower, raise_] = N - 2 number:
    lower[n, n+1] = b_n / sqrt(p(1-p)) = sqrt((n+1)(N-n)).
    """
    ell = symmetric_chain(p, N).b[:N] / np.sqrt(p * (1.0 - p))
    lower = (np.zeros(N), np.zeros(N + 1), ell)
    return lower, lower[::-1]


def _lattice_hamiltonian(p: float, N: int):
    """Band of the scaled lattice Hamiltonian (lower raise_ + raise_ lower) / 2,
    the ladder form of (X^2 + P^2) / (4 p (1-p)), with spectrum
    N(n + 1/2) - n^2.  A super- times a subdiagonal band is diagonal."""
    lower, raise_ = _lattice_ladders(p, N)
    both = _band_apply(lower, _band_dense(raise_)) + _band_apply(raise_, _band_dense(lower))
    zero = np.zeros(N)
    return zero, 0.5 * np.diagonal(both), zero


def lattice_spectrum_deviation(p: float, N: int) -> float:
    """Max |level - (N(n + 1/2) - n^2)|, both sorted.  The levels are
    fockspace.spectrum of the symmetric chain's oscillator (the diagonal of
    its X^2 + P^2, which raises ArithmeticError on a nonzero off-diagonal),
    divided once by the squared lattice unit 4 p (1-p)."""
    levels = spectrum(build_symmetric_oscillator(symmetric_chain(p, N)))[0] / (4.0 * p * (1.0 - p))
    n = np.arange(N + 1, dtype=float)
    return worst_of(np.abs(np.sort(levels) - np.sort(N * (n + 0.5) - n**2)))


def ladder_commutator_residual(p: float, N: int) -> float:
    """|| [lower, raise] - (N - 2 number) ||_max for the scaled ladders."""
    lower, raise_ = _lattice_ladders(p, N)
    want = np.diag(N - 2.0 * np.arange(N + 1, dtype=float))
    return worst_of(np.abs(_commutator(lower, raise_) - want))


# ---------------------------------------------------------------------------
# grid side


def grid_functions(p: float, N: int) -> np.ndarray:
    """Wave-function table Psi[n, j] = (-1)^n sqrt(rho(j)) kt_n(j).

    The rows are the grid-side eigenvectors; the matrix is real orthogonal
    (rows and columns are two dual orthonormal systems).
    """
    return _lattice(p, N).psi.copy()


def grid_orthogonality_residuals(p: float, N: int) -> tuple[float, float]:
    """Defects of Psi Psi^T and Psi^T Psi from 1: the two dual orthogonality
    relations of kt_n.  (Psi Psi^T)_mn = +-sum_x rho(x) kt_m(x) kt_n(x);
    (Psi^T Psi)_xy = sum_n rho(n) kt_x(n) kt_y(n), degree and argument
    swapped (kt_x(n) = c_x K_n(x) by self-duality, rho(n) / c_n^2 = q^N).
    Each Gram is one np.einsum sum, in one fixed order and without BLAS.
    """
    psi = _lattice(p, N).psi
    eye = np.eye(N + 1)
    rows = np.einsum("nx,mx->nm", psi, psi)
    cols = np.einsum("nx,ny->xy", psi, psi)
    return worst_of(np.abs(rows - eye)), worst_of(np.abs(cols - eye))


def _alpha(j, N: int):
    return np.sqrt((np.asarray(j, dtype=float) + 1.0) * (N - np.asarray(j, dtype=float)))


def _grid_hamiltonian(p: float, N: int):
    """Band of the difference-operator Hamiltonian on the physical grid.

    d_j = 2p(1-p)N + 1/2 + (1-2p)(j - pN), and both off-diagonals
    [j, j+1] = [j+1, j] = -sqrt(p(1-p)) alpha_j with
    alpha_j = sqrt((j+1)(N-j)).  Spectrum: n + 1/2, n = 0..N.
    """
    _check_pn(p, N)
    j = np.arange(N + 1, dtype=float)
    d = 2.0 * p * (1.0 - p) * N + 0.5 + (1.0 - 2.0 * p) * (j - p * N)
    off = -np.sqrt(p * (1.0 - p)) * _alpha(j[:-1], N)
    return off, d, off


def grid_spectrum_deviation(p: float, N: int) -> float:
    """Max |level - (n + 1/2)| over the grid H, whose levels come from
    the dense eigvalsh of its band."""
    off, d, _ = _grid_hamiltonian(p, N)
    levels = _eigh_tridiagonal(d, off, eigvals_only=True)
    return worst_of(np.abs(levels - (np.arange(N + 1) + 0.5)))


def grid_ladders(p: float, N: int):
    """Bands of the grid-side raising and lowering pair (A_plus, A_minus = A_plus^T).

    A_plus[j, j-1] = (1-p) alpha_{j-1}, A_plus[j, j+1] = -p alpha_j,
    diagonal sqrt(p(1-p)) (2j - N).  Acting on the Psi rows:
    A_plus Psi_n = sqrt((n+1)(N-n)) Psi_{n+1} and the transpose lowers.
    """
    _check_pn(p, N)
    j = np.arange(N + 1, dtype=float)
    alpha = _alpha(j[:-1], N)
    a_plus = ((1.0 - p) * alpha, np.sqrt(p * (1.0 - p)) * (2.0 * j - N), -p * alpha)
    return a_plus, a_plus[::-1]


def grid_factorization_residual(p: float, N: int) -> float:
    """|| H_grid - ( [A+, A-]/2 + (N+1)/2 ) ||_max."""
    a_plus, a_minus = grid_ladders(p, N)
    want = 0.5 * _commutator(a_plus, a_minus) + 0.5 * (N + 1) * np.eye(N + 1)
    return worst_of(np.abs(_band_dense(_grid_hamiltonian(p, N)) - want))


def grid_ladder_action_residual(p: float, N: int) -> float:
    """Defect of A_plus Psi_n = sqrt((n+1)(N-n)) Psi_{n+1} (and the lowering mate)."""
    psi = _lattice(p, N).psi
    a_plus, a_minus = grid_ladders(p, N)
    n = np.arange(N + 1, dtype=float)
    padded = np.pad(psi, ((1, 1), (0, 0)))  # zero rows at levels -1 and N+1
    want_up = np.sqrt((n + 1.0) * (N - n))[:, None] * padded[2:]
    want_dn = np.sqrt(n * (N - n + 1.0))[:, None] * padded[:-2]
    # column k of M @ psi.T is M applied to Psi_k
    return worst_of(
        np.abs(_band_apply(a_plus, psi.T) - want_up.T),
        np.abs(_band_apply(a_minus, psi.T) - want_dn.T),
    )


# ---------------------------------------------------------------------------
# the intertwiner between the two sides


def polynomial_to_grid_map(p: float, N: int) -> np.ndarray:
    """Unitary T mapping kt-side operators to grid-side.

    T = Psi^T diag((-1)^n): the transposed wave-function table with its
    column signs flipped, so T[j, n] = sqrt(rho(j)) kt_n(j).  T is real
    orthogonal, and

        T K_pm T^{-1} = A_pm,   T K_0 T^{-1} = H_grid - (N+1)/2,
        T^{-1} H_grid T = diag(n + 1/2).
    """
    return _lattice(p, N).psi.T * (-1.0) ** np.arange(N + 1)


def transport_residual(p: float, N: int) -> float:
    """Max defect of the three ladder-transport identities, as T K - A T.

    K_plus and K_minus are the scaled lattice ladders conjugated by
    diag((-1)^n), i.e. written in the basis of the un-flipped kt_n: the
    conjugation flips the sign of every off-diagonal entry, so
    K_plus[n+1, n] = -sqrt((n+1)(N-n)).  K_zero = [K_plus, K_minus] / 2 =
    number - N/2 is diagonal; its grid mate is H_grid - (N+1)/2.
    T K = A T says T K T^{-1} = A only because T is orthogonal, which
    criterion 8 checks on its own.
    """
    T = polynomial_to_grid_map(p, N)
    lower, raise_ = _lattice_ladders(p, N)
    k_plus, k_minus = ((-lo, d, -up) for lo, d, up in (raise_, lower))
    zero = np.zeros(N)
    k_zero = (zero, 0.5 * np.diagonal(_commutator(k_plus, k_minus)), zero)
    a_plus, a_minus = grid_ladders(p, N)
    lo, d, up = _grid_hamiltonian(p, N)
    a_zero = (lo, d - 0.5 * (N + 1), up)
    pairs = ((k_plus, a_plus), (k_minus, a_minus), (k_zero, a_zero))
    return worst_of(*(np.abs(_times_band(T, k) - _band_apply(a, T)) for k, a in pairs))


def hamiltonian_relation_residual(p: float, N: int) -> float:
    """Residual of the quadratic relation tying the two Hamiltonians.

    With Hg = T^{-1} H_grid T transported to the polynomial side and Hk the
    lattice-oscillator Hamiltonian (spectrum N(n+1/2) - n^2):

        Hk = -(Hg - 1/2)^2 + N Hg,

    checked on the grid side as T Hk - (N H_grid - (H_grid - 1/2)^2) T.  Hk
    is diagonal, so the diag((-1)^n) between the two polynomial bases leaves
    it as it is.  The scalar shadow: N(n+1/2) - n^2 = -(n+1/2-1/2)^2 + N(n+1/2).
    """
    T = polynomial_to_grid_map(p, N)
    h_grid = _grid_hamiltonian(p, N)
    lo, d, up = h_grid
    shift = (lo, d - 0.5, up)
    want = N * _band_apply(h_grid, T) - _band_apply(shift, _band_apply(shift, T))
    return worst_of(np.abs(_times_band(T, _lattice_hamiltonian(p, N)) - want))


# ---------------------------------------------------------------------------
# explicit difference forms on the integer lattice


def _difference_forms(p: float, N: int):
    """Bands of the ladders as difference operators in the lattice variable.

    Lowering: sqrt(p(1-p)) [ (N-x) E+ - x E- + (2x - N) ]; raising:
    sqrt(p(1-p)) [ ((1-p)/p) x E- - (p/(1-p)) (N-x) E+ + (2x - N) ], with
    E+- the unit shifts.  They equal S^{-1} A_minus S and S^{-1} A_plus S,
    S = diag(sqrt(rho)); acting on the functions x -> kt_n(x) the lowering
    form lowers with coefficient -sqrt(n(N-n+1)).
    """
    _check_pn(p, N)
    x = np.arange(N + 1, dtype=float)
    q = 1.0 - p
    s = np.sqrt(p * q)
    mid = s * (2.0 * x - N)
    lowering = (s * -x[1:], mid, s * (N - x)[:-1])
    raising = (s * ((q / p) * x[1:]), mid, s * -((p / q) * (N - x)[:-1]))
    return lowering, raising


def difference_form_residual(p: float, N: int) -> float:
    """Cross-check of the explicit difference forms.

    Verifies (i) they equal the sqrt(rho)-conjugated grid ladders, band by
    band, and (ii) their action on the kt_n lattice functions is the signed
    ladder action of the kt basis; a term of (ii) past the float range
    raises OverflowError.
    """
    kt_table, s, _ = _lattice(p, N)  # table rows: degree n
    lowering, raising = _difference_forms(p, N)
    a_plus, a_minus = grid_ladders(p, N)
    defects = []
    for form, (lo, d, up) in ((lowering, a_minus), (raising, a_plus)):
        # S^{-1} A S multiplies entry [i, j] by s_j / s_i
        conjugated = (lo * s[:-1] / s[1:], d, up * s[1:] / s[:-1])
        defects += [np.abs(f - c) for f, c in zip(form, conjugated)]
    padded = np.pad(kt_table, ((1, 1), (0, 0)))  # zero rows at degrees -1 and N+1
    n = np.arange(N + 1, dtype=float)
    coef_dn = -np.sqrt(n * (N - n + 1.0))
    coef_up = -np.sqrt((n + 1.0) * (N - n))
    # table entries reach ~1e11 at (p, N) = (0.8, 30), so the ladder-action
    # defect is measured relative to the largest summand feeding each entry;
    # row k of (M @ kt_table.T).T is M applied to kt_k
    for form, coef, shift in ((lowering, coef_dn, -1), (raising, coef_up, +1)):
        with _float_range(p, N, lambda: "a difference-form term"):
            want = coef[:, None] * padded[1 + shift : N + 2 + shift]
            got = _band_apply(form, kt_table.T).T
            size = _band_apply(tuple(np.abs(b) for b in form), np.abs(kt_table).T).T
            scale = np.maximum(1.0, np.maximum(size, np.abs(want)))
            defects.append(np.abs(got - want) / scale)
    return worst_of(*defects)
