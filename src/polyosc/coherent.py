"""Coherent states of truncated oscillators, computed three independent ways.

A truncated chain b_0..b_{N-1} (with b_N = 0) generates ladder operators on
the (N+1)-dimensional state space.  The displaced vacuum

    |z> = exp(z a_plus - conj(z) a_minus) |0>

is computed by

1. coherent_via_exponential -- the matrix exponential, via the spectral
   decomposition of the (anti-Hermitian) exponent.  This is the oracle: its
   only ingredients are eigh and elementary functions.
2. coherent_via_recurrence -- the Taylor rows f[n] = (r/n) A f[n-1] of
   exp(r A) e_0, z = r e^{i theta}, A real: the transfer coefficients
   d[n, l] rescaled by (sqrt(2) b_{l-1})! r^n / n!.  All the cancellation
   sits in that one alternating sum; eps times the running sum of |f| bounds
   its rounding error (Higham, Accuracy and Stability, sec. 4.2), and past
   1e-8 the route raises ArithmeticError instead of returning a state.
3. coherent_closed_form -- a finite sum over the roots of the (N+1)-st
   polynomial of the chain, with Gauss-Christoffel weights, summed in the
   orthonormal variable so that no term overflows at large N.

Route 3 deserves a remark.  The weights attached to the roots *must* be the
Gauss-Christoffel weights of the chain's measure: the transfer recurrence
is solved at the roots by psit_l / (2 b^2 factorials) whatever weights are
chosen, but the starting row d[0, l] = delta_{l0} forces the weights to
integrate psit_l exactly -- which pins them to the quadrature weights.  For
the Hermite chain (b_n = sqrt((n+1)/2)) these collapse to the elegant
closed expression const / psit_N(x_k)^2, and that special case's constant
is kept here (profile_normalization) as an independent anchor.
Every polynomial table here comes from polyrec.node_table.
"""

from __future__ import annotations

import numpy as np

from . import polyrec
from .polyrec import (
    RecurrenceCoefficients,
    as_chain,
    eval_monic_tilde,
    gauss_quadrature,
    index_double_factorials,
    index_factorials,
    node_table,
    tilde_quadrature,
    worst_of,
)
from .fockspace import build_symmetric_oscillator

# The series route raises once eps * sum |terms| passes the package's default
# tolerance (also criterion 4's norm bound); a row below _SERIES_QUIET of the
# running amplitudes is negligible.
_SERIES_ERROR_LIMIT = 1e-8
_SERIES_QUIET = 1e-15
# (-i)^l for l mod 4, exact
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def _truncation(chain, dim=None):
    """Resolve (b padded with b_N = 0, N) for a chain and optional dimension."""
    chain = as_chain(chain)
    if not chain.symmetric:
        raise ValueError("coherent-state routines assume a zero-diagonal chain")
    if dim is None and not chain.truncated:
        raise ValueError("open chain: pass dim to choose the truncation level")
    N = chain.states(dim) - 1
    b = np.zeros(N + 1)
    b[:N] = chain.b[:N]
    return b, N


def _tilde_rule(b: np.ndarray, N: int):
    """Polished Gauss rule of the truncated chain in the tilde variable, with
    the psit_0..psit_N table at its nodes (rows l, columns k)."""
    x, w = tilde_quadrature(RecurrenceCoefficients(b=b[:N]), N + 1)
    return x, w, node_table(b, N, x, "monic_tilde")


def _phase_powers(z: complex, N: int) -> np.ndarray:
    """e^{i theta l} for l = 0..N, theta = arg z, as one exp per l.

    The complex power (e^{i theta})^l drifts off the unit circle by about one
    ulp per factor (2.9e-14 by l = 400); exp of the product theta l stays
    within an ulp of it.  The angle, not z / |z|: NumPy divides by
    multiplying with 1 / |z|, which is inf for a subnormal |z|.
    """
    return np.exp(1j * (np.angle(z) * np.arange(N + 1)))


def _profiles(rule, radii) -> np.ndarray:
    """A_l(r) = sum_k W_k psit_l(x_k) exp(i r x_k); column i is r = radii[i]."""
    x, w, table = rule
    phases = np.exp(1j * np.multiply.outer(x, np.asarray(radii, dtype=float)))
    return np.asarray(table @ (w[:, None] * phases), dtype=complex)


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
    x, w, table = _tilde_rule(b, N)
    # u[l, k] = psit_l(x_k) / (2b^2_{l-1})!
    u = table / index_factorials(2.0 * b**2, N)[:, None]
    out = np.zeros((nmax + 1, N + 1))
    xp = np.ones_like(x)
    for n in range(nmax + 1):
        out[n] = np.asarray((u * (w.astype(polyrec._LD) * xp)[None, :]).sum(axis=1), dtype=float)
        xp = xp * x
    return out


def coherent_via_recurrence(
    chain, z: complex, dim: int | None = None, max_terms: int = 500
) -> np.ndarray:
    """Displaced vacuum as C_l = e^{i theta l} sum_n f[n, l], f[0] = e_0.

    The exponent is r U A U^dagger with U = diag(e^{i theta l}) and
    A[l+1, l] = sqrt(2) b_l = -A[l, l+1].  Stops after two consecutive rows
    below _SERIES_QUIET of max(1, largest amplitude); raises ArithmeticError
    past max_terms rows, or once eps * max_l sum_n |f[n, l]| exceeds
    _SERIES_ERROR_LIMIT (a NaN or inf row included).
    """
    b, N = _truncation(chain, dim)
    if z == 0:
        out = np.zeros(N + 1, dtype=complex)
        out[0] = 1.0
        return out
    r = abs(z)
    sub = np.sqrt(2.0) * b[:N]  # A[l+1, l]
    f = np.zeros(N + 1)
    f[0] = 1.0
    acc = f.copy()
    mass = f.copy()
    quiet = 0
    for n in range(1, max_terms + 1):
        nxt = np.zeros(N + 1)
        nxt[1:] = sub * f[:-1]
        nxt[:-1] -= sub * f[1:]
        f = (r / n) * nxt
        acc += f
        mass += np.abs(f)
        bound = np.finfo(float).eps * np.max(mass)
        if not bound <= _SERIES_ERROR_LIMIT:
            raise ArithmeticError(
                "series for |z| = %g cancels too much: eps * sum |terms| = %.2e "
                "exceeds %g at order %d" % (r, bound, _SERIES_ERROR_LIMIT, n)
            )
        if np.max(np.abs(f)) < _SERIES_QUIET * max(1.0, np.max(np.abs(acc))):
            quiet += 1
            if quiet >= 2:
                return _phase_powers(z, N) * acc
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
    phases = np.exp(1j * r * np.sqrt(polyrec._LD(2.0)) * y)
    amp = np.asarray(node_table(work, N, y, "orthonormal") @ (w * phases), dtype=complex)
    return _phase_powers(z, N) * _MINUS_I_POWERS[np.arange(N + 1) % 4] * amp


def route_agreement(states: dict) -> dict:
    """How closely coherent states of one (chain, z) agree, route by route.

    states maps a route name to its amplitudes.  Returns, in this order,
    "norms" (||u|| per route), "overlaps" (|<u|v>| / (||u|| ||v||) per pair,
    keyed "u|v" in the order of states), "worst_overlap_deficit" (the largest
    1 - overlap) and "worst_norm_deficit" (the largest | ||u|| - 1 |); a NaN
    or inf makes either worst value inf.
    """
    norms = {name: float(np.linalg.norm(u)) for name, u in states.items()}
    names = list(states)
    overlaps = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            ov = abs(np.vdot(states[a], states[b])) / (norms[a] * norms[b])
            overlaps["%s|%s" % (a, b)] = float(ov)
    return {
        "norms": norms,
        "overlaps": overlaps,
        "worst_overlap_deficit": worst_of([1.0 - ov for ov in overlaps.values()]),
        "worst_norm_deficit": worst_of([abs(n - 1.0) for n in norms.values()]),
    }


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
# identity ledger: finite-sum identities behind the closed form's phase
# cancellations.  Each identity has one evaluator, taking the points and the
# psit_0..psit_{N+1} table there; the ones that hold for every real x run at
# 41 points past the spectrum and at the truncation roots.


def _relative_defect(lhs, rhs, biggest) -> float:
    """worst |lhs - rhs| / max(biggest, |rhs|, 1) over the points, where
    biggest is the largest summand entering lhs at each point."""
    scale = np.maximum(np.maximum(biggest, np.abs(rhs)), 1.0)
    return worst_of(np.abs(lhs - rhs) / scale)


def _x_sum_defect(x, terms, rhs=0.0) -> float:
    """The relative defect of x sum_l terms[l] = rhs at each point x."""
    return _relative_defect(x * terms.sum(axis=0), rhs, np.abs(x) * np.max(np.abs(terms), axis=0))


def _square_identity(x, table, h) -> float:
    """x sum_l (-1)^l psit_l^2 / h_l = (-1)^N psit_{N+1} psit_N / h_N, with
    h_l = (2b^2_{l-1})! for l = 0..N."""
    N = len(h) - 1
    terms = (-1.0) ** np.arange(N + 1)[:, None] * table[: N + 1] ** 2 / h[:, None]
    return _x_sum_defect(x, terms, (-1.0) ** N * table[N + 1] * table[N] / h[N])


def _even_identity(x, table, dfac) -> float:
    """x sum_{p<=m} (-1)^p psit_{2p} / dfac_p = (-1)^m psit_{2m+1} / dfac_m,
    with dfac_p = (2b^2_{2p-1})!! for p = 0..m and m = floor(N/2)."""
    m = len(dfac) - 1
    terms = (-1.0) ** np.arange(m + 1)[:, None] * table[0 : 2 * m + 1 : 2] / dfac[:, None]
    return _x_sum_defect(x, terms, (-1.0) ** m * table[2 * m + 1] / dfac[m])


def _kernel_identity(x, table, h) -> float:
    """x_s x_k sum_l psit_l(x_s) psit_l(x_k) / h_l = 0 for distinct roots."""
    n = len(h)
    u = table[:n] / h[:, None]
    gram = u.T @ table[:n]
    # biggest summand per (s, k) pair, one s at a time: the (n, n, n) array
    # of all summands costs O(n^3) memory and was slower
    big = np.array([np.max(np.abs(u[:, s, None] * table[:n]), axis=0) for s in range(n)])
    xx = np.multiply.outer(x, x)
    off = ~np.eye(n, dtype=bool)
    return _relative_defect(xx[off] * gram[off], 0.0, np.abs(xx[off]) * big[off])


def identity_residuals(chain, dim: int | None = None) -> dict:
    """The finite-sum identity ledger of a truncated chain, as residuals
    relative to max(largest summand, |right side|, 1).  With
    h_l = (2b^2_{l-1})! and m = floor(N/2):

    - 'square' / 'alternating': x sum_l (-1)^l psit_l^2 / h_l equals
      (-1)^N psit_{N+1} psit_N / h_N, past the spectrum / at the roots;
    - 'even_sum' / 'even_alt': x sum_{p<=m} (-1)^p psit_{2p} / (2b^2_{2p-1})!!
      equals (-1)^m psit_{2m+1} / (2b^2_{2m-1})!!, past the spectrum / at
      the roots;
    - 'zero': psit_{2p}(0) = (-1)^p 2b_0^2 2b_2^2 ... 2b_{2p-2}^2;
    - 'kernel': x_s x_k sum_l psit_l(x_s) psit_l(x_k) / h_l = 0 for
      distinct roots (kernel orthogonality);
    - 'center' (even N >= 2 only): x_k sum_p psit_{2p}(0) psit_{2p}(x_k) / h_{2p}
      = 0 at the roots.

    The roots are the nodes of the chain's polished Gauss rule; a NaN or inf
    anywhere makes its entry inf.
    """
    b, N = _truncation(chain, dim)
    tb2 = 2.0 * b**2
    h = index_factorials(tb2, N)
    dfac = index_double_factorials(tb2, 1, N // 2)
    xmax = 2.0 * np.sqrt(2.0) * (np.max(np.abs(b)) + 1.0) * np.sqrt(N + 1.0)
    past = np.linspace(-xmax, xmax, 41)
    roots, _ = tilde_quadrature(RecurrenceCoefficients(b=b[:N]), N + 1)
    past_table = node_table(b, N + 1, past, "monic_tilde")
    root_table = node_table(b, N + 1, roots, "monic_tilde")
    at0 = node_table(b, N + 1, 0.0, "monic_tilde")
    P = (N + 1) // 2
    zero_want = (-1.0) ** np.arange(P + 1) * index_double_factorials(tb2, 0, P)
    out = {
        "square": _square_identity(past, past_table, h),
        "alternating": _square_identity(roots, root_table, h),
        "even_sum": _even_identity(past, past_table, dfac),
        "even_alt": _even_identity(roots, root_table, dfac),
        "zero": _relative_defect(at0[0::2], zero_want, 0.0),
        "kernel": _kernel_identity(roots, root_table, h),
    }
    if N % 2 == 0 and N >= 2:
        terms = at0[0 : N + 1 : 2, None] * root_table[0 : N + 1 : 2] / h[0::2, None]
        out["center"] = _x_sum_defect(roots, terms)
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
    return np.abs(acc - index_factorials(2.0 * b**2, N)).astype(float)


def construct_resolution_measure(chain, dim: int | None = None):
    """Find a nonnegative discrete radial measure resolving the identity.

    Places 8 (N + 1) nodes on a grid in t = |z|^2 and solves the
    nonnegative least-squares system sum_i w_i |A_l(sqrt(t_i))|^2 = h_l.
    Returns (t, weights); feed them to resolution_residuals to judge fit.
    """
    from scipy.optimize import nnls

    b, N = _truncation(chain, dim)
    if N == 0:
        return np.array([1.0]), np.array([1.0])
    # spread nodes over a few characteristic radii of the spectrum
    rule = _tilde_rule(b, N)
    span = max(1.0, float(np.max(np.abs(rule[0]))))
    radii = np.linspace(1e-3, 4.0 * np.pi / (2.0 * span / (N + 1)), 8 * (N + 1))
    w, _ = nnls(np.abs(_profiles(rule, radii)) ** 2, index_factorials(2.0 * b**2, N))
    return radii**2, w
