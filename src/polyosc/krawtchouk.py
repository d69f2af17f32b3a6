"""The binomial-lattice (Krawtchouk) specialization.

Everything here lives on the finite lattice x = 0, 1, ..., N with binomial
weight rho(x) = C(N, x) p^x (1-p)^{N-x}.  Two equivalent pictures are built
and cross-mapped:

* the *polynomial side*: the orthonormalized lattice polynomials kt_n
  ("ktilde"), their recurrence chain, and oscillator operators built from
  the zero-diagonal chain b_{n-1}^2 = p(1-p) n (N-n+1);
* the *grid side*: lattice wave functions Psi_n(xi_j) on the physical grid
  xi_j = h (j - pN), a difference-operator Hamiltonian with the exactly
  equidistant spectrum n + 1/2, and su(2)-type ladder operators.

The unitary map between the two sides (polynomial_to_grid_map) transports
ladders onto ladders and diagonalizes the grid Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fockspace import OscillatorOperators, build_symmetric_oscillator, commutator, spectrum
from . import polyrec
from .polyrec import RecurrenceCoefficients, _eigh_tridiagonal, worst_of


def _check_pn(p: float, N: int):
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1, got %r" % p)
    if N < 1 or int(N) != N:
        raise ValueError("N must be a positive integer, got %r" % N)


def krawtchouk_poly(n: int, x, p: float, N: int):
    """Lattice polynomial K_n(x) as a terminating hypergeometric sum.

    K_n(x) = sum_k [(-n)_k (-x)_k] / [k! (-N)_k p^k].  Self-dual in (n, x)
    for integer arguments.  Kept as a slow, independent oracle; the chain
    recurrence is the fast evaluation path.
    """
    _check_pn(p, N)
    if not 0 <= n <= N:
        raise ValueError("degree n must be in 0..N")
    x_arr = np.asarray(x, dtype=polyrec._LD)
    total = np.ones_like(x_arr)
    term = np.ones_like(x_arr)
    for k in range(n):
        # ratio of consecutive terms: (k-n)(k-x) / ((k+1)(k-N) p)
        term = term * (k - n) * (k - x_arr) / ((k + 1) * (k - N) * polyrec._LD(p))
        total = total + term
    out = np.asarray(total, dtype=float)
    return out if out.ndim else float(out)


@lru_cache(maxsize=64)
def _weights_cached(p: float, N: int) -> np.ndarray:
    """rho(x), x = 0..N, each entry one correctly rounded exact rational.

    With p = m/D exactly (D a power of two) and r = D - m,
    rho(x) = C(N, x) m^x r^(N-x) / D^N.  The numerators come from running
    integer products and each is divided by D^N once (int / int true
    division rounds correctly and underflows to 0 rather than raising).
    """
    m, D = p.as_integer_ratio()
    r = D - m
    m_pow = [1]
    r_pow = [1]
    for _ in range(N):
        m_pow.append(m_pow[-1] * m)
        r_pow.append(r_pow[-1] * r)
    denom = D**N
    weights = np.array([math.comb(N, x) * m_pow[x] * r_pow[N - x] / denom for x in range(N + 1)])
    weights.setflags(write=False)
    return weights


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
    out = _weights_cached(float(p), int(N))[x_arr.astype(int)]
    return out if out.ndim else float(out)


@lru_cache(maxsize=64)
def _norm_factors(p: float, N: int) -> np.ndarray:
    """c_n = sqrt(C(N, n) m^n / r^n), n = 0..N, with p = m/D and r = D - m:
    the factors sqrt(C(N, n) (p/q)^n) that scale K_n to unit norm under rho.
    The ratio is one correctly rounded int / int division, then one sqrt."""
    m, D = p.as_integer_ratio()
    r = D - m
    factors = np.array([math.sqrt(math.comb(N, n) * m**n / r**n) for n in range(N + 1)])
    factors.setflags(write=False)
    return factors


def ktilde(n: int, x, p: float, N: int):
    """Orthonormalized lattice polynomial: sum_x rho(x) kt_m kt_n = delta_mn.

    kt_0 is identically 1.  Uses the hypergeometric sum; see also
    recurrence_chain, whose orthonormal family coincides with kt.
    """
    poly = np.asarray(krawtchouk_poly(n, x, p, N))
    return _norm_factors(float(p), int(N))[n] * poly


def recurrence_chain(p: float, N: int) -> RecurrenceCoefficients:
    """The chain whose orthonormal family is kt_n.

    Diagonal a_n = p(N-n) + n(1-p); off-diagonal
    b_n = -sqrt(p(1-p)(n+1)(N-n)), negative, with b_N = 0 closing the space.
    """
    _check_pn(p, N)
    n = np.arange(N + 1, dtype=float)
    a = p * (N - n) + n * (1.0 - p)
    b = -np.sqrt(p * (1.0 - p) * (n + 1.0) * (N - n))
    return RecurrenceCoefficients(b=b, a=a, label="krawtchouk(p=%g,N=%d)" % (p, N))


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


@lru_cache(maxsize=64)
def _ktilde_table_cached(p: float, N: int) -> np.ndarray:
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
    orthonormalizing factor sqrt(C(N,n) (p/q)^n); kt_n(x) = c_n K_n(x) is
    not symmetric.  int / int true division is correctly rounded, and so
    is float() of a Fraction, so every entry is bit-identical to the full
    recurrence run in Fraction arithmetic and carries ~1 ulp of relative
    error.
    """
    m, D = p.as_integer_ratio()
    r = D - m
    Dx = D * np.arange(N + 1, dtype=object)
    prev = np.zeros(N + 1, dtype=object)  # A_{n-1}(x), x = n..N
    cur = np.ones(N + 1, dtype=object)  # A_n(x), x = n..N
    d = 1
    table = np.empty((N + 1, N + 1))
    for n in range(N + 1):
        table[n, n:] = (cur / d).astype(float)
        table[n, :n] = table[:n, n]  # K_n(x) = K_x(n), already rounded
        if n < N:
            up, low = m * (N - n), n * r * m * (N - n + 1)
            prev, cur = cur[1:], (up + n * r - Dx[n + 1 :]) * cur[1:] - low * prev[1:]
            d *= up
    table *= _norm_factors(p, N)[:, None]
    table.setflags(write=False)
    return table


def ktilde_table(p: float, N: int) -> np.ndarray:
    """Table kt[n, x] for n, x = 0..N, entries accurate to ~1 ulp."""
    _check_pn(p, N)
    return _ktilde_table_cached(float(p), int(N)).copy()


def dual_orthogonality_residuals(p: float, N: int) -> tuple[float, float]:
    """Max deviation of the two dual orthogonality relations of kt_n.

    First: sum_x rho(x) kt_m(x) kt_n(x) = delta_mn (orthonormality in the
    degree index).  Second, the dual lattice relation with the roles of
    degree and argument swapped: sum_n rho(n) kt_x(n) kt_y(n) = delta_xy,
    where kt_x(n) carries the normalization of its *degree* index x.  The
    two differ numerically as the row versus column Gram of the same table.
    """
    _check_pn(p, N)
    x = np.arange(N + 1, dtype=float)
    rho = weight_rho(x, p, N)
    c = _norm_factors(float(p), int(N))
    plain = ktilde_table(p, N) / c[:, None]  # plain[n, x] = K_n(x)
    eye = np.eye(N + 1)
    first = c[:, None] * ((plain * rho) @ plain.T) * c[None, :] - eye
    # kt_x(n) = c_x K_x(n) = c_x K_n(x) by self-duality: contract over rows
    second = c[:, None] * (plain.T @ (rho[:, None] * plain)) * c[None, :] - eye
    return worst_of(np.abs(first)), worst_of(np.abs(second))


def difference_equation_residual(p: float, N: int) -> float:
    """Max relative residual of the lattice difference equation.

    -n y(x) = p(N-x) y(x+1) - [p(N-x) + x(1-p)] y(x) + x(1-p) y(x-1)
    for y = kt_n, all n, x in 0..N; the x-1 and x+1 terms at the lattice
    ends carry zero coefficient.  Each residual is scaled by the largest
    term entering it, so the number is meaningful at any N.
    """
    _check_pn(p, N)
    q = 1.0 - p
    table = ktilde_table(p, N)  # normalization in n drops out of the x-equation
    kn = np.pad(table, ((0, 0), (1, 1)))  # kn[n, x + 1] = kt_n(x), zero off the lattice
    x = np.arange(N + 1, dtype=float)
    n = x[:, None]  # the degree runs over the same range 0..N
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


@dataclass
class LatticeOscillator:
    """Scaled oscillator of the symmetric lattice chain.

    hamiltonian has the exactly known spectrum N(n + 1/2) - n^2; the scaled
    ladders obey [lower, raise] = N - 2 * number.  Like the bare operators
    in ops, the scaled ones are built on request.
    """

    p: float
    N: int
    ops: OscillatorOperators

    @property
    def dim(self) -> int:
        return self.N + 1

    @property
    def _unit(self) -> float:
        return 2.0 * np.sqrt(self.p * (1.0 - self.p))

    @property
    def hamiltonian(self) -> np.ndarray:
        return self.ops.hamiltonian / self._unit**2

    @property
    def lower(self) -> np.ndarray:
        return np.sqrt(2.0) * self.ops.lower / self._unit

    @property
    def raise_(self) -> np.ndarray:
        return np.sqrt(2.0) * self.ops.raise_ / self._unit

    def expected_spectrum(self) -> np.ndarray:
        n = np.arange(self.N + 1, dtype=float)
        return self.N * (n + 0.5) - n**2


def build_lattice_oscillator(p: float, N: int) -> LatticeOscillator:
    """Operators of the symmetric chain, rescaled by the lattice unit.

    The bare chain operators are divided by 2 sqrt(p(1-p)) (ladders) and
    4 p (1-p) (Hamiltonian) so the spectrum and commutators come out in
    integer units of the lattice.
    """
    return LatticeOscillator(p=p, N=N, ops=build_symmetric_oscillator(symmetric_chain(p, N)))


def lattice_spectrum_deviation(p: float, N: int) -> float:
    """Max |level - (N(n + 1/2) - n^2)|, both sorted.  The lattice H is
    diagonal: fockspace.spectrum reads its diagonal (dense eigvalsh's values)
    and raises ArithmeticError on a nonzero off-diagonal."""
    osc = build_lattice_oscillator(p, N)
    levels = np.sort(spectrum(osc)[0])
    return worst_of(np.abs(levels - np.sort(osc.expected_spectrum())))


def ladder_commutator_residual(osc: LatticeOscillator) -> float:
    """|| [lower, raise] - (N - 2 number) ||_max for the scaled ladders."""
    want = np.diag(osc.N - 2.0 * np.arange(osc.dim, dtype=float)).astype(complex)
    got = commutator(osc.lower, osc.raise_)
    return worst_of(np.abs(got - want))


def polynomial_ladders(p: float, N: int):
    """Scaled ladder triple (K_plus, K_minus, K_zero) in the kt basis.

    These are the lattice-oscillator ladders conjugated by diag((-1)^n),
    i.e. written in the basis of the un-flipped kt_n, where their matrix
    elements are negative:  K_plus[n+1, n] = -sqrt((n+1)(N-n)).
    K_zero = [K_plus, K_minus] / 2 = number - N/2.
    """
    osc = build_lattice_oscillator(p, N)
    signs = (-1.0) ** np.arange(N + 1)
    flip = np.outer(signs, signs)
    k_plus = flip * osc.raise_
    k_minus = flip * osc.lower
    k_zero = 0.5 * commutator(k_plus, k_minus)
    return k_plus, k_minus, k_zero


def so3_residuals(k_plus, k_minus, k_zero) -> float:
    """Max residual of [K0, K+-] = +-K+- and [K+, K-] = 2 K0."""
    r1 = commutator(k_zero, k_plus) - k_plus
    r2 = commutator(k_zero, k_minus) + k_minus
    r3 = commutator(k_plus, k_minus) - 2.0 * k_zero
    return worst_of(*(np.abs(r) for r in (r1, r2, r3)))


# ---------------------------------------------------------------------------
# grid side


def grid(p: float, N: int) -> np.ndarray:
    """Physical grid xi_j = h (j - pN), h = sqrt(2 N p (1-p)), j = 0..N."""
    _check_pn(p, N)
    h = np.sqrt(2.0 * N * p * (1.0 - p))
    return h * (np.arange(N + 1, dtype=float) - p * N)


def grid_functions(p: float, N: int) -> np.ndarray:
    """Wave-function table Psi[n, j] = (-1)^n sqrt(rho(j)) kt_n(j).

    The rows are the grid-side eigenvectors; the matrix is real orthogonal
    (rows and columns are two dual orthonormal systems).
    """
    _check_pn(p, N)
    x = np.arange(N + 1, dtype=float)
    rho = weight_rho(x, p, N)
    table = ktilde_table(p, N)
    signs = (-1.0) ** np.arange(N + 1)
    return signs[:, None] * np.sqrt(rho)[None, :] * table


def grid_orthogonality_residuals(p: float, N: int) -> tuple[float, float]:
    """Row and column orthonormality defects of the Psi table."""
    psi = grid_functions(p, N)
    eye = np.eye(N + 1)
    return worst_of(np.abs(psi @ psi.T - eye)), worst_of(np.abs(psi.T @ psi - eye))


def _alpha(j, N: int):
    return np.sqrt((np.asarray(j, dtype=float) + 1.0) * (N - np.asarray(j, dtype=float)))


def _grid_bands(p: float, N: int):
    """Diagonal and off-diagonal of the grid Hamiltonian (see grid_hamiltonian)."""
    _check_pn(p, N)
    j = np.arange(N + 1, dtype=float)
    diag = 2.0 * p * (1.0 - p) * N + 0.5 + (1.0 - 2.0 * p) * (j - p * N)
    off = -np.sqrt(p * (1.0 - p)) * _alpha(j[:-1], N)
    return diag, off


def grid_hamiltonian(p: float, N: int) -> np.ndarray:
    """Difference-operator Hamiltonian on the physical grid.

    diag_j = 2p(1-p)N + 1/2 + (1-2p)(j - pN), off-diagonal
    [j, j+1] = [j+1, j] = -sqrt(p(1-p)) alpha_j with
    alpha_j = sqrt((j+1)(N-j)).  Spectrum: n + 1/2, n = 0..N.
    """
    diag, off = _grid_bands(p, N)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def grid_spectrum_deviation(p: float, N: int) -> float:
    """Max |level - (n + 1/2)| over the grid H, whose levels come from
    the dense eigvalsh of its two bands."""
    levels = _eigh_tridiagonal(*_grid_bands(p, N), eigvals_only=True)
    return worst_of(np.abs(levels - (np.arange(N + 1) + 0.5)))


def grid_ladders(p: float, N: int):
    """Grid-side raising and lowering pair (A_plus, A_minus = A_plus^T).

    A_plus[j, j-1] = (1-p) alpha_{j-1}, A_plus[j, j+1] = -p alpha_j,
    diagonal sqrt(p(1-p)) (2j - N).  Acting on the Psi rows:
    A_plus Psi_n = sqrt((n+1)(N-n)) Psi_{n+1} and the transpose lowers.
    """
    _check_pn(p, N)
    j = np.arange(N + 1, dtype=float)
    diag = np.sqrt(p * (1.0 - p)) * (2.0 * j - N)
    sup = -p * _alpha(j[:-1], N)  # entry [j, j+1]
    sub = (1.0 - p) * _alpha(j[:-1], N)  # entry [j+1, j]
    a_plus = np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)
    return a_plus, a_plus.T


def grid_factorization_residual(p: float, N: int) -> float:
    """|| H_grid - ( [A+, A-]/2 + (N+1)/2 ) ||_max."""
    H = grid_hamiltonian(p, N)
    a_plus, a_minus = grid_ladders(p, N)
    want = 0.5 * commutator(a_plus, a_minus) + 0.5 * (N + 1) * np.eye(N + 1)
    return worst_of(np.abs(H - want))


def grid_ladder_action_residual(p: float, N: int) -> float:
    """Defect of A_plus Psi_n = sqrt((n+1)(N-n)) Psi_{n+1} (and the lowering mate)."""
    a_plus, a_minus = grid_ladders(p, N)
    psi = grid_functions(p, N)
    n = np.arange(N + 1, dtype=float)
    padded = np.pad(psi, ((1, 1), (0, 0)))  # zero rows at levels -1 and N+1
    want_up = np.sqrt((n + 1.0) * (N - n))[:, None] * padded[2:]
    want_dn = np.sqrt(n * (N - n + 1.0))[:, None] * padded[:-2]
    # column k of a @ psi.T is a applied to Psi_k
    return worst_of(
        np.abs(np.concatenate((a_plus @ psi.T - want_up.T, a_minus @ psi.T - want_dn.T)))
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

    T comes in C order: the BLAS products built on it then sum in a fixed
    order (an F-order T moves hamiltonian_relation_residual by an ulp).
    """
    return np.ascontiguousarray(grid_functions(p, N).T) * (-1.0) ** np.arange(N + 1)


def transport_residual(p: float, N: int) -> float:
    """Max defect of the three ladder-transport identities under T."""
    T = polynomial_to_grid_map(p, N)
    k_plus, k_minus, k_zero = polynomial_ladders(p, N)
    a_plus, a_minus = grid_ladders(p, N)
    H = grid_hamiltonian(p, N)
    a_zero = H - 0.5 * (N + 1) * np.eye(N + 1)
    Ti = T.T  # orthogonal
    pairs = ((k_plus, a_plus), (k_minus, a_minus), (k_zero, a_zero))
    return worst_of(*(np.abs(T @ km @ Ti - am) for km, am in pairs))


def hamiltonian_relation_residual(p: float, N: int) -> float:
    """Residual of the quadratic relation tying the two Hamiltonians.

    With Hg = T^{-1} H_grid T transported to the polynomial side and Hk the
    lattice-oscillator Hamiltonian (spectrum N(n+1/2) - n^2):

        Hk = -(Hg - 1/2)^2 + N Hg.

    The scalar shadow: N(n+1/2) - n^2 = -(n+1/2-1/2)^2 + N(n+1/2).
    """
    T = polynomial_to_grid_map(p, N)
    Hg = T.T @ grid_hamiltonian(p, N) @ T
    osc = build_lattice_oscillator(p, N)
    # the lattice Hamiltonian is diagonal in the (-1)^n kt_n basis;
    # conjugation by diag((-1)^n) is a no-op on it, so it can be compared directly
    Hk = osc.hamiltonian.real
    shift = Hg - 0.5 * np.eye(N + 1)
    return worst_of(np.abs(Hk + shift @ shift - N * Hg))


# ---------------------------------------------------------------------------
# explicit difference forms on the integer lattice


def difference_lowering_matrix(p: float, N: int) -> np.ndarray:
    """The lowering ladder as a difference operator in the lattice variable.

    sqrt(p(1-p)) [ (N-x) E+ - x E- + (2x - N) ], with E+- the unit shifts.
    Equals S^{-1} A_minus S, S = diag(sqrt(rho)); acting on the functions
    x -> kt_n(x) it lowers with coefficient -sqrt(n(N-n+1)).
    """
    _check_pn(p, N)
    x = np.arange(N + 1, dtype=float)
    s = np.sqrt(p * (1.0 - p))
    return s * (
        np.diag((N - x)[:-1], 1) - np.diag(x[1:], -1) + np.diag(2.0 * x - N)
    )


def difference_raising_matrix(p: float, N: int) -> np.ndarray:
    """Raising mate of difference_lowering_matrix (= S^{-1} A_plus S).

    sqrt(p(1-p)) [ ((1-p)/p) x E- - (p/(1-p)) (N-x) E+ + (2x - N) ].
    """
    _check_pn(p, N)
    x = np.arange(N + 1, dtype=float)
    q = 1.0 - p
    s = np.sqrt(p * q)
    return s * (
        (q / p) * np.diag(x[1:], -1)
        - (p / q) * np.diag((N - x)[:-1], 1)
        + np.diag(2.0 * x - N)
    )


def difference_form_residual(p: float, N: int) -> float:
    """Cross-check of the explicit difference forms.

    Verifies (i) they equal the sqrt(rho)-conjugated grid ladders and
    (ii) their action on the kt_n lattice functions is the signed ladder
    action of the kt basis.
    """
    x = np.arange(N + 1, dtype=float)
    s = np.sqrt(weight_rho(x, p, N))
    a_plus, a_minus = grid_ladders(p, N)
    d_minus = difference_lowering_matrix(p, N)
    d_plus = difference_raising_matrix(p, N)
    defects = [
        np.abs(d_minus - (a_minus * s[None, :]) / s[:, None]),
        np.abs(d_plus - (a_plus * s[None, :]) / s[:, None]),
    ]
    kt_table = ktilde_table(p, N)  # rows: degree n
    padded = np.pad(kt_table, ((1, 1), (0, 0)))  # zero rows at degrees -1 and N+1
    n = np.arange(N + 1, dtype=float)
    dn = -np.sqrt(n * (N - n + 1.0))
    up = -np.sqrt((n + 1.0) * (N - n))
    # table entries reach ~1e11 at (p, N) = (0.8, 30), so the ladder-action
    # defect is measured relative to the largest summand feeding each entry;
    # row k of kt_table @ mat.T is mat applied to kt_k
    for mat, coef, shift in ((d_minus, dn, -1), (d_plus, up, +1)):
        want = coef[:, None] * padded[1 + shift : N + 2 + shift]
        scale = np.maximum(1.0, np.maximum(np.abs(kt_table) @ np.abs(mat).T, np.abs(want)))
        defects.append(np.abs(kt_table @ mat.T - want) / scale)
    return worst_of(*defects)
