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
closed expression const / psit_N(x_k)^2, and that special case is kept
here (node_sum_profile, profile_normalization) as an independent anchor.
Every polynomial table here comes from polyrec.node_table.
"""

from __future__ import annotations

import numpy as np

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

_LD = np.longdouble
# The series route raises once eps * sum |terms| passes the package's default
# tolerance (also criterion 4's norm bound); a row below _SERIES_QUIET of the
# running amplitudes is negligible.
_SERIES_ERROR_LIMIT = 1e-8
_SERIES_QUIET = 1e-15


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
        out[n] = np.asarray((u * (w.astype(_LD) * xp)[None, :]).sum(axis=1), dtype=float)
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
                # e^{i theta} from the angle: NumPy's z / r multiplies by
                # 1 / r, which overflows for a subnormal |z|
                return np.exp(1j * np.angle(z)) ** np.arange(N + 1) * acc
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
    # -i e^{i arg z}, not -i z / r: NumPy multiplies by 1 / r, inf for a subnormal r
    return (-1j * np.exp(1j * np.angle(z))) ** np.arange(N + 1) * np.asarray(amp, dtype=complex)


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


def _identity_table(b: np.ndarray, N: int):
    """41 points x past the chain's spectrum on both sides, where identities
    that hold for every real x are checked, and psit_0..psit_{N+1} there."""
    xmax = 2.0 * np.sqrt(2.0) * (np.max(np.abs(b)) + 1.0) * np.sqrt(N + 1.0)
    xs = np.linspace(-xmax, xmax, 41)
    return xs, node_table(b, N + 1, xs, "monic_tilde")


def alternating_square_residual(chain, dim: int | None = None) -> float:
    """Identity: x sum_l (-1)^l psit_l(x)^2/(2b^2_{l-1})! equals
    (-1)^N psit_{N+1}(x) psit_N(x)/(2b^2_{N-1})!, for every real x."""
    b, N = _truncation(chain, dim)
    xs, table = _identity_table(b, N)
    hl = index_factorials(2.0 * b**2, N)
    summands = (-1.0) ** np.arange(N + 1)[:, None] * table[: N + 1] ** 2 / hl[:, None]
    lhs = xs * summands.sum(axis=0)
    rhs = (-1.0) ** N * table[N + 1] * table[N] / hl[N]
    scale = np.maximum(np.max(np.abs(summands * xs[None, :]), axis=0), np.abs(rhs))
    scale = np.maximum(scale, 1.0)
    return worst_of(np.abs(lhs - rhs) / scale)


def alternating_even_residual(chain, dim: int | None = None) -> float:
    """Identity: x sum_{p<=m} (-1)^p psit_{2p}(x)/(2b^2_{2p-1})!! equals
    (-1)^m psit_{2m+1}(x)/(2b^2_{2m-1})!!, with m = floor(N/2)."""
    b, N = _truncation(chain, dim)
    m = N // 2
    xs, table = _identity_table(b, N)
    dfac = index_double_factorials(2.0 * b**2, 1, m)
    rows = np.array([(-1.0) ** p * table[2 * p] / dfac[p] for p in range(m + 1)])
    lhs = xs * rows.sum(axis=0)
    rhs = (-1.0) ** m * table[2 * m + 1] / dfac[m]
    scale = np.maximum(np.max(np.abs(rows * xs[None, :]), axis=0), np.abs(rhs))
    scale = np.maximum(scale, 1.0)
    return worst_of(np.abs(lhs - rhs) / scale)


def zero_value_residual(chain, dim: int | None = None) -> float:
    """Check psit_{2p}(0) = (-1)^p 2b_0^2 2b_2^2 ... 2b_{2p-2}^2 (even p steps)."""
    b, N = _truncation(chain, dim)
    P = (N + 1) // 2
    got = node_table(b, N + 1, 0.0, "monic_tilde")[0::2]
    want = (-1.0) ** np.arange(P + 1) * index_double_factorials(2.0 * b**2, 0, P)
    return worst_of(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


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
    hl = index_factorials(tb2, N)
    u = table / hl[:, None]
    out = {}

    # kernel orthogonality at distinct roots
    gram = u.T @ table  # sum_l psit_l(x_s) psit_l(x_k) / h_l
    cross = np.abs(x[:, None] * x[None, :] * gram)
    # normalizing scale: biggest single summand per (s, k) pair
    big = np.array([np.max(np.abs(u[:, s, None] * table), axis=0) for s in range(N + 1)])
    big = np.maximum(big * np.maximum(np.abs(x[:, None] * x[None, :]), 1.0), 1.0)
    mask = ~np.eye(N + 1, dtype=bool)
    out["kernel"] = worst_of(cross[mask] / big[mask]) if N > 0 else 0.0

    # alternating diagonal
    signs = (-1.0) ** np.arange(N + 1)
    diag = x * np.einsum("lk,lk->k", signs[:, None] * u, table)
    dbig = np.maximum(np.max(np.abs(u * table), axis=0) * np.maximum(np.abs(x), 1.0), 1.0)
    out["alternating"] = worst_of(np.abs(diag) / dbig)

    # combined form: plain off the diagonal, alternating on it
    out["cross"] = worst_of(out["kernel"], out["alternating"])

    if N % 2 == 0 and N >= 2:
        m = N // 2
        # center coupling (uses the value identity at 0)
        at0 = node_table(b, N, 0.0, "monic_tilde")
        rows = np.array([at0[2 * p] * table[2 * p] / hl[2 * p] for p in range(m + 1)])
        val = x * rows.sum(axis=0)
        cbig = np.maximum(np.max(np.abs(rows), axis=0) * np.maximum(np.abs(x), 1.0), 1.0)
        out["center"] = worst_of(np.abs(val) / cbig)
        # the equivalent alternating even form at nonzero roots
        dfac = index_double_factorials(tb2, 1, m)
        rows2 = np.array([(-1.0) ** p * table[2 * p] / dfac[p] for p in range(m + 1)])
        nz = np.abs(x) > 1e-9
        val2 = rows2.sum(axis=0)[nz]
        ebig = np.maximum(np.max(np.abs(rows2), axis=0)[nz], 1.0)
        out["even_alt"] = worst_of(np.abs(val2) / ebig) if np.any(nz) else 0.0
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
