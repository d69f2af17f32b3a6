"""Coherent states of truncated oscillators, computed three independent ways.

A truncated chain b_0..b_{N-1} (with b_N = 0) generates ladder operators on
the (N+1)-dimensional state space.  The displaced vacuum

    |z> = exp(z a_plus - conj(z) a_minus) |0>

is computed by

1. coherent_via_exponential -- the matrix exponential, via the spectral
   decomposition of the (anti-Hermitian) exponent.  This is the oracle: its
   only ingredients are eigh and elementary functions.
2. coherent_via_recurrence -- the power-series in the displacement operator,
   with the transfer coefficients d[n, l] of the exponent's n-th power
   generated by their two-term recurrence.
3. coherent_closed_form -- a finite sum over the roots of the (N+1)-st
   polynomial of the chain, with Gauss-Christoffel weights, summed in the
   orthonormal variable so that no term overflows at large N.

Route 3 deserves a remark.  The weights attached to the roots *must* be the
Gauss-Christoffel weights of the chain's measure: the transfer recurrence
is solved at the roots by psit_l / (2 b^2 factorials) whatever weights are
chosen, but the starting row d[0, l] = delta_{l0} forces the weights to
integrate psit_l exactly -- which pins them to the quadrature weights.  For
the Hermite chain (b_n = sqrt((n+1)/2)) these collapse to the elegant
closed expression const / psit_N(x_k)^2, and that special case is kept
here (node_sum_profile, profile_normalization) as an independent anchor.
Every polynomial table here comes from polyrec.node_table.
"""

from __future__ import annotations

import numpy as np

from .polyrec import (
    RecurrenceCoefficients,
    _finite_max,
    as_chain,
    eval_monic_tilde,
    gauss_quadrature,
    node_table,
    tilde_quadrature,
)
from .fockspace import build_symmetric_oscillator

_LD = np.longdouble


def _truncation(chain, dim=None):
    """Resolve (b padded with b_N = 0, N) for a chain and optional dimension."""
    chain = as_chain(chain)
    if not chain.symmetric:
        raise ValueError("coherent-state routines assume a zero-diagonal chain")
    if dim is None:
        if not chain.truncated:
            raise ValueError(
                "open chain: pass dim to choose the truncation level"
            )
        N = chain.valid_depth
    else:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        N = dim - 1
        if chain.valid_depth < N:
            raise ValueError(
                "need %d nonzero coefficients, chain has %d" % (N, chain.valid_depth)
            )
    b = np.zeros(N + 1)
    b[:N] = chain.b[:N]
    return b, N


def _tilde_norms(b: np.ndarray, N: int) -> np.ndarray:
    """(2b^2_{l-1})! for l = 0..N as one longdouble cumulative product
    (it overflows float64 past l ~ 170 on the boson chain)."""
    return np.concatenate(([1.0], np.cumprod((2.0 * b[:N] ** 2).astype(_LD))))


def _double_factorials(tb2: np.ndarray, start: int, count: int) -> np.ndarray:
    """1, tb2[start], tb2[start] tb2[start+2], ... (count + 1 entries) as one
    longdouble cumulative product; start = 1 gives (2b^2_{2p-1})!! at p, and
    start = 0 gives 2b_0^2 2b_2^2 ... 2b_{2p-2}^2."""
    return np.concatenate(([1.0], np.cumprod(tb2[start : start + 2 * count : 2].astype(_LD))))


def _tilde_rule(b: np.ndarray, N: int):
    """Polished Gauss rule of the truncated chain in the tilde variable, with
    the psit_0..psit_N table at its nodes (rows l, columns k)."""
    x, w = tilde_quadrature(RecurrenceCoefficients(b=b[:N]), N + 1)
    return x, w, node_table(b, N, x, "monic_tilde")


def _profiles(rule, radii) -> np.ndarray:
    """A_l(r) = sum_k W_k psit_l(x_k) exp(i r x_k); column i is r = radii[i]."""
    x, w, table = rule
    phases = np.exp(1j * np.multiply.outer(x, np.asarray(radii, dtype=float)))
    return np.asarray(table @ (w[:, None] * phases), dtype=complex)


def _ladder_prefactors(b: np.ndarray) -> np.ndarray:
    """(sqrt(2) b_{l-1})! for l = 0..N: prod of sqrt(2) b_0..b_{l-1}."""
    return np.concatenate(([1.0], np.cumprod(np.sqrt(2.0) * b[:-1])))


def coherent_via_exponential(chain, z: complex, dim: int | None = None) -> np.ndarray:
    """Displaced vacuum by exact matrix exponentiation (the oracle route).

    The exponent G = z a_plus - conj(z) a_minus is anti-Hermitian, so
    exp(G) = V exp(-i w) V^dagger with (w, V) the eigensystem of iG; the
    result has unit norm to machine precision by construction.
    """
    b, N = _truncation(chain, dim)
    ops = build_symmetric_oscillator(RecurrenceCoefficients(b=b), dim=N + 1)
    G = z * ops.raise_ - np.conj(z) * ops.lower
    w, V = np.linalg.eigh(1j * G)
    phases = np.exp(-1j * w)
    return V @ (phases * V.conj().T[:, 0])


def transfer_coefficients(chain, nmax: int, dim: int | None = None) -> np.ndarray:
    """Table d[n, l] of ladder-word coefficients, n = 0..nmax, l = 0..N.

    d[0, 0] = 1 and d[n, l] = d[n-1, l-1] + 2 b_l^2 d[n-1, l+1], where the
    l-1 term drops at l = 0 and the l+1 term drops at the truncation level
    (there is no population above it to bring down).  The coefficient of
    |l> in G^n |0> is d[n, l] (sqrt(2) b_{l-1})! z^{(n+l)/2} (-conj z)^{(n-l)/2}.
    """
    b, N = _truncation(chain, dim)
    tb2 = 2.0 * b**2
    d = np.zeros((nmax + 1, N + 1))
    d[0, 0] = 1.0
    for n in range(1, nmax + 1):
        prev = d[n - 1]
        d[n, 1 : N + 1] += prev[0:N]
        d[n, 0 : N] += tb2[0:N] * prev[1 : N + 1]
    return d


def transfer_closed_form(chain, nmax: int, dim: int | None = None) -> np.ndarray:
    """The same d table evaluated by quadrature over the truncation roots.

    d[n, l] = sum_k W_k psit_l(x_k) x_k^n / (2 b^2_{l-1})!, where x_k are
    the roots of psit_{N+1} and W_k the Gauss-Christoffel weights of the
    chain.  The nodes must be accurate well beyond float64 here -- the x^n
    powers amplify node error by a factor ~ n x^{n-1} -- which is why the
    quadrature rule arrives Newton-polished in extended precision.
    """
    b, N = _truncation(chain, dim)
    x, w = tilde_quadrature(RecurrenceCoefficients(b=b[:N]), N + 1)
    xs = x.astype(_LD)
    # u[l, k] = psit_l(x_k) / (2b^2_{l-1})!
    u = node_table(b, N, xs, "monic_tilde") / _tilde_norms(b, N)[:, None]
    out = np.zeros((nmax + 1, N + 1))
    xp = np.ones_like(xs)
    for n in range(nmax + 1):
        out[n] = np.asarray((u * (w.astype(_LD) * xp)[None, :]).sum(axis=1), dtype=float)
        xp = xp * xs
    return out


def gamma_coefficients(chain, nmax: int, mmax: int, dim: int | None = None) -> np.ndarray:
    """Even-displacement weights gamma[n, m] = d[n + 2m, n].

    Filled by their own recurrence
        gamma[n+1, m] = theta_{n+1} gamma[n, m]
                        + 2 b_{n+1}^2 theta_{n+2} gamma[n+2, m-1],
        gamma[0, m] = 2 b_0^2 theta_1 gamma[1, m-1],   gamma[0, 0] = 1,
    with theta_k = 1 for k <= N and 0 above; the working n-range extends to
    nmax + 2 mmax so the m-1 column reaches far enough.
    """
    b, N = _truncation(chain, dim)
    width = nmax + 2 * mmax
    bb = np.zeros(width + 2)
    used = min(N + 1, width + 2)
    bb[:used] = b[:used]
    theta = (np.arange(width + 3) <= N).astype(float)
    g = np.zeros((width + 1, mmax + 1))
    g[0, 0] = 1.0
    for n in range(width):  # m = 0 column: product of thetas
        g[n + 1, 0] = theta[n + 1] * g[n, 0]
    for m in range(1, mmax + 1):
        g[0, m] = 2.0 * bb[0] ** 2 * theta[1] * (g[1, m - 1] if width >= 1 else 0.0)
        for n in range(width):
            carry = g[n + 2, m - 1] if n + 2 <= width else 0.0
            g[n + 1, m] = theta[n + 1] * g[n, m] + 2.0 * bb[n + 1] ** 2 * theta[n + 2] * carry
    return g[: nmax + 1, :]


def coherent_via_recurrence(
    chain,
    z: complex,
    dim: int | None = None,
    rtol: float = 1e-15,
    max_terms: int = 500,
) -> np.ndarray:
    """Displaced vacuum by direct power-series summation.

    C_l = sum_n (sqrt(2) b_{l-1})!/n! d[n, l] (-conj z)^{(n-l)/2} z^{(n+l)/2},
    accumulated with factorially prescaled transfer rows e[n, l] = d[n, l]/n!
    so nothing overflows.  Stops when two consecutive rows contribute less
    than rtol of the running amplitude scale, or raises if max_terms rows
    were not enough.
    """
    b, N = _truncation(chain, dim)
    if z == 0:
        out = np.zeros(N + 1, dtype=complex)
        out[0] = 1.0
        return out
    tb2 = 2.0 * b**2
    pref = _ladder_prefactors(b)
    r = abs(z)
    phase_up = z  # one unit of raising
    phase_dn = -np.conj(z)  # one unit of lowering
    C = np.zeros(N + 1, dtype=complex)
    e = np.zeros(N + 1)
    e[0] = 1.0
    C[0] += 1.0  # n = 0 term
    quiet = 0
    for n in range(1, max_terms + 1):
        nxt = np.zeros(N + 1)
        nxt[1 : N + 1] += e[0:N]
        nxt[0:N] += tb2[0:N] * e[1 : N + 1]
        e = nxt / n
        if not np.all(np.isfinite(e)):
            raise ArithmeticError("transfer row overflowed at order %d" % n)
        ls = np.nonzero(e)[0]
        biggest = 0.0
        for l in ls:
            m = (n - l) // 2
            term = pref[l] * e[l] * phase_dn**m * phase_up ** (m + l)
            C[l] += term
            biggest = max(biggest, abs(term))
        scale = max(1.0, float(np.max(np.abs(C))))
        if biggest < rtol * scale:
            quiet += 1
            if quiet >= 2:
                return C
        else:
            quiet = 0
    raise ArithmeticError(
        "series for |z| = %g did not settle within %d terms" % (r, max_terms)
    )


def quadrature_profile(chain, r: float, dim: int | None = None) -> np.ndarray:
    """Weighted node sums A_l(r) = sum_k W_k psit_l(x_k) exp(i r x_k), l = 0..N.

    A_l(0) = delta_{l0} and |A_l| is independent of which coherent state the
    profile feeds (the phase of z factors out of the closed form).
    """
    b, N = _truncation(chain, dim)
    return _profiles(_tilde_rule(b, N), [r])[:, 0]


def coherent_closed_form(chain, z: complex, dim: int | None = None) -> np.ndarray:
    """Displaced vacuum from the root/weight sum (no series, no exponential).

    C_l = (-i z/|z|)^l sum_k w_k psi_l(y_k) exp(i |z| sqrt(2) y_k) over the
    Newton-polished Gauss rule (y_k, w_k): the profile A_l(|z|) divided by
    (sqrt(2) b_{l-1})! term by term, so no factorial overflows.  At z = 0
    the state is the vacuum.
    """
    b, N = _truncation(chain, dim)
    if z == 0:
        out = np.zeros(N + 1, dtype=complex)
        out[0] = 1.0
        return out
    r = abs(z)
    work = RecurrenceCoefficients(b=b[:N])
    y, w = gauss_quadrature(work, N + 1)
    amp = node_table(work, N, y, "orthonormal") @ (w * np.exp(1j * r * np.sqrt(_LD(2.0)) * y))
    return (-1j * z / r) ** np.arange(N + 1) * np.asarray(amp, dtype=complex)


def node_sum_profile(chain, l: int, r: float, dim: int | None = None) -> complex:
    """Unweighted node profile sum_k psit_l(x_k) e^{i r x_k} / psit_N(x_k)^2.

    This is the closed form specialized to chains (such as Hermite) whose
    quadrature weights are proportional to 1/psit_N(x_k)^2; elsewhere it is
    *not* the coherent-state profile and is kept only for those anchors.
    """
    b, N = _truncation(chain, dim)
    work = RecurrenceCoefficients(b=b[:N])
    x, _ = tilde_quadrature(work, N + 1)
    pl = np.atleast_1d(eval_monic_tilde(work, l, x))
    pN = np.atleast_1d(eval_monic_tilde(work, N, x))
    return complex(np.sum(pl * np.exp(1j * r * x) / pN**2))


def profile_normalization(chain, dim: int | None = None) -> float:
    """1 / sum_k psit_N(x_k)^{-2}: the constant making the unweighted
    profile of the *Hermite* chain coincide with the weighted one.
    """
    b, N = _truncation(chain, dim)
    work = RecurrenceCoefficients(b=b[:N])
    x, _ = tilde_quadrature(work, N + 1)
    pN = np.atleast_1d(eval_monic_tilde(work, N, x))
    return float(1.0 / np.sum(pN**-2.0))


# ---------------------------------------------------------------------------
# identity battery: finite-sum identities behind the closed form's phase
# cancellations.  Each returns a residual normalized by the largest summand
# magnitude entering it.


def alternating_square_residual(chain, xs=None, dim: int | None = None) -> float:
    """Identity: x sum_l (-1)^l psit_l(x)^2/(2b^2_{l-1})! equals
    (-1)^N psit_{N+1}(x) psit_N(x)/(2b^2_{N-1})!, for every real x."""
    b, N = _truncation(chain, dim)
    if xs is None:
        xmax = 2.0 * np.sqrt(2.0) * (np.max(np.abs(b)) + 1.0) * np.sqrt(N + 1.0)
        xs = np.linspace(-xmax, xmax, 41)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    table = node_table(b, N + 1, xs, "monic_tilde")
    hl = _tilde_norms(b, N)
    summands = (-1.0) ** np.arange(N + 1)[:, None] * table[: N + 1] ** 2 / hl[:, None]
    lhs = xs * summands.sum(axis=0)
    rhs = (-1.0) ** N * table[N + 1] * table[N] / hl[N]
    scale = np.maximum(np.max(np.abs(summands * xs[None, :]), axis=0), np.abs(rhs))
    scale = np.maximum(scale, 1.0)
    return float(np.max(np.abs(lhs - rhs) / scale))


def alternating_even_residual(chain, xs=None, dim: int | None = None) -> float:
    """Identity: x sum_{p<=m} (-1)^p psit_{2p}(x)/(2b^2_{2p-1})!! equals
    (-1)^m psit_{2m+1}(x)/(2b^2_{2m-1})!!, with m = floor(N/2)."""
    b, N = _truncation(chain, dim)
    tb2 = 2.0 * b**2
    m = N // 2
    if xs is None:
        xmax = 2.0 * np.sqrt(2.0) * (np.max(np.abs(b)) + 1.0) * np.sqrt(N + 1.0)
        xs = np.linspace(-xmax, xmax, 41)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    table = node_table(b, N + 1, xs, "monic_tilde")
    dfac = _double_factorials(tb2, 1, m)
    rows = np.array([(-1.0) ** p * table[2 * p] / dfac[p] for p in range(m + 1)])
    lhs = xs * rows.sum(axis=0)
    rhs = (-1.0) ** m * table[2 * m + 1] / dfac[m]
    scale = np.maximum(np.max(np.abs(rows * xs[None, :]), axis=0), np.abs(rhs))
    scale = np.maximum(scale, 1.0)
    return _finite_max(np.abs(lhs - rhs) / scale)


def zero_value_residual(chain, dim: int | None = None) -> float:
    """Check psit_{2p}(0) = (-1)^p 2b_0^2 2b_2^2 ... 2b_{2p-2}^2 (even p steps)."""
    b, N = _truncation(chain, dim)
    P = (N + 1) // 2
    got = node_table(b, N + 1, 0.0, "monic_tilde")[0::2]
    want = (-1.0) ** np.arange(P + 1) * _double_factorials(2.0 * b**2, 0, P)
    return _finite_max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


def root_identity_residuals(chain, dim: int | None = None) -> dict:
    """The finite-sum identities evaluated at the truncation roots.

    Returns a dict of normalized residuals:

    - 'cross':        x_k sum_l s^l psit_l(x_s) psit_l(x_k)/(2b^2_{l-1})! = 0
                      with s = +1 off the diagonal and s = -1 on it;
    - 'kernel':       x_s x_k sum_l psit_l(x_s) psit_l(x_k)/(2b^2_{l-1})! = 0
                      for distinct roots (kernel orthogonality);
    - 'alternating':  x_k sum_l (-1)^l psit_l(x_k)^2/(2b^2_{l-1})! = 0;
    - 'center':       x_k sum_p psit_{2p}(0) psit_{2p}(x_k)/(2b^2_{2p-1})! = 0
                      (even truncation order only);
    - 'even_alt':     sum_p (-1)^p psit_{2p}(x_k)/(2b^2_{2p-1})!! = 0 at
                      nonzero roots (even truncation order only).
    """
    b, N = _truncation(chain, dim)
    tb2 = 2.0 * b**2
    x, _, table = _tilde_rule(b, N)  # table[l, k] = psit_l(x_k)
    hl = _tilde_norms(b, N)
    u = table / hl[:, None]
    out = {}

    # kernel orthogonality at distinct roots
    gram = u.T @ table  # sum_l psit_l(x_s) psit_l(x_k) / h_l
    cross = np.abs(x[:, None] * x[None, :] * gram)
    # normalizing scale: biggest single summand per (s, k) pair
    big = np.array([np.max(np.abs(u[:, s, None] * table), axis=0) for s in range(N + 1)])
    big = np.maximum(big * np.maximum(np.abs(x[:, None] * x[None, :]), 1.0), 1.0)
    mask = ~np.eye(N + 1, dtype=bool)
    out["kernel"] = float(np.max(cross[mask] / big[mask])) if N > 0 else 0.0

    # alternating diagonal
    signs = (-1.0) ** np.arange(N + 1)
    diag = x * np.einsum("lk,lk->k", signs[:, None] * u, table)
    dbig = np.maximum(np.max(np.abs(u * table), axis=0) * np.maximum(np.abs(x), 1.0), 1.0)
    out["alternating"] = float(np.max(np.abs(diag) / dbig))

    # combined form: plain off the diagonal, alternating on it
    comb = np.where(mask, cross / big, 0.0)
    out["cross"] = _finite_max([np.max(comb), out["alternating"]])

    if N % 2 == 0 and N >= 2:
        m = N // 2
        # center coupling (uses the value identity at 0)
        at0 = node_table(b, N, 0.0, "monic_tilde")
        rows = np.array([at0[2 * p] * table[2 * p] / hl[2 * p] for p in range(m + 1)])
        val = x * rows.sum(axis=0)
        cbig = np.maximum(np.max(np.abs(rows), axis=0) * np.maximum(np.abs(x), 1.0), 1.0)
        out["center"] = float(np.max(np.abs(val) / cbig))
        # the equivalent alternating even form at nonzero roots
        dfac = _double_factorials(tb2, 1, m)
        rows2 = np.array([(-1.0) ** p * table[2 * p] / dfac[p] for p in range(m + 1)])
        nz = np.abs(x) > 1e-9
        val2 = rows2.sum(axis=0)[nz]
        ebig = np.maximum(np.max(np.abs(rows2), axis=0)[nz], 1.0)
        out["even_alt"] = float(np.max(np.abs(val2) / ebig)) if np.any(nz) else 0.0
    return out


# ---------------------------------------------------------------------------
# completeness of the family: a radial measure resolving the identity


def resolution_residuals(chain, t, weights, dim: int | None = None) -> np.ndarray:
    """How far a discrete radial measure is from resolving the identity.

    residual_l = | sum_i weights_i |A_l(sqrt(t_i))|^2 - (2 b^2_{l-1})! |,
    one entry per level l; a measure satisfying the completeness relation
    makes every entry vanish.
    """
    b, N = _truncation(chain, dim)
    radii = np.sqrt(np.asarray(t, dtype=float))
    acc = np.abs(_profiles(_tilde_rule(b, N), radii)) ** 2 @ np.asarray(weights, dtype=float)
    return np.abs(acc - _tilde_norms(b, N)).astype(float)


def construct_resolution_measure(chain, dim: int | None = None, nnodes: int | None = None):
    """Find a nonnegative discrete radial measure resolving the identity.

    Places nodes on a geometric-ish grid in t = |z|^2 and solves the
    nonnegative least-squares system sum_i w_i |A_l(sqrt(t_i))|^2 = h_l.
    Returns (t, weights); feed them to resolution_residuals to judge fit.
    """
    from scipy.optimize import nnls

    b, N = _truncation(chain, dim)
    if nnodes is None:
        nnodes = 8 * (N + 1)
    if N == 0:
        return np.array([1.0]), np.array([1.0])
    # spread nodes over a few characteristic radii of the spectrum
    rule = _tilde_rule(b, N)
    span = max(1.0, float(np.max(np.abs(rule[0]))))
    radii = np.linspace(1e-3, 4.0 * np.pi / (2.0 * span / (N + 1)), nnodes)
    w, _ = nnls(np.abs(_profiles(rule, radii)) ** 2, _tilde_norms(b, N))
    return radii**2, w
