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
is solved at the roots y_k by psi_l(y_k) / F_l, F_l = prod_{j<l} sqrt(2) b_j,
whatever weights are chosen, but the starting row d[0, l] = delta_{l0}
forces the weights to integrate psi_l exactly -- which pins them to the
quadrature weights.  For the Hermite chain (b_n = sqrt((n+1)/2)) these
collapse to the elegant closed expression const / psit_N(x_k)^2 in the
monic variable x = sqrt(2) y, and that special case's constant is kept
here (profile_normalization) as an independent anchor.
Every polynomial table here comes from polyrec.node_table, and every sum
but that anchor runs on the orthonormal table psi_l at the nodes of the
polished rule from polyrec.gauss_quadrature.
"""

from __future__ import annotations

import numpy as np

from . import polyrec
from .polyrec import (
    RecurrenceCoefficients,
    _band_apply,
    as_chain,
    eval_monic_tilde,
    gauss_quadrature,
    node_table,
    worst_of,
)
from .fockspace import build_symmetric_oscillator

# The series route raises once eps * sum |terms| passes the package's default
# tolerance (criterion 4's norm bound), the other routes once eps |z| max|x| does,
# the resolution fit once a level misses 1 by more; a series row below _SERIES_QUIET is small.
_ERROR_LIMIT = 1e-8
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


def _finite_displacement(z):
    """Every coherent route's entry check: a NaN or infinite z raises."""
    if not np.isfinite(z):
        raise ValueError("displacement z must be finite, got %r" % (z,))


def _resolvable(z, turn: float, route: str) -> None:
    """Refuse once the phases |z| x_k err by eps * turn > _ERROR_LIMIT, turn = |z| max|x|."""
    bound = np.finfo(float).eps * turn
    if not bound <= _ERROR_LIMIT:
        raise ArithmeticError("%s route cannot resolve |z| = %g: eps * |z| * max|x| = "
                              "%.2e exceeds %g" % (route, abs(z), bound, _ERROR_LIMIT))


def _rule(b: np.ndarray, N: int):
    """Polished Gauss rule (y, w) of the truncated chain, with the
    psi_0..psi_N table at its nodes (rows l, columns k)."""
    work = RecurrenceCoefficients(b=b[:N])
    y, w = gauss_quadrature(work, N + 1)
    return y, w, node_table(work, N, y, "orthonormal")


def _phase_powers(z: complex, N: int) -> np.ndarray:
    """e^{i theta l} for l = 0..N, theta = arg z, as one exp per l.

    The complex power (e^{i theta})^l drifts off the unit circle by about one
    ulp per factor (2.9e-14 by l = 400); exp of the product theta l stays
    within an ulp of it.  The angle, not z / |z|: NumPy divides by
    multiplying with 1 / |z|, which is inf for a subnormal |z|.
    """
    return np.exp(1j * (np.angle(z) * np.arange(N + 1)))


def _profile_sums(rule, radii) -> np.ndarray:
    """sum_k w_k psi_l(y_k) exp(i r sqrt(2) y_k); column i is r = radii[i]."""
    y, w, table = rule
    turns = 1j * np.asarray(radii, dtype=float) * np.sqrt(polyrec._LD(2.0))
    phases = np.exp(turns[None, :] * y[:, None])
    return np.asarray(table @ (w[:, None] * phases), dtype=complex)


def coherent_via_exponential(chain, z: complex, dim: int | None = None) -> np.ndarray:
    """Displaced vacuum by exact matrix exponentiation (the oracle route).

    The exponent G = z a_plus - conj(z) a_minus is anti-Hermitian, so
    exp(G) = V exp(-i w) V^dagger with (w, V) the eigensystem of iG; the
    result has unit norm to machine precision by construction.  The w are
    |z| x_k, so past eps * max|w| = _ERROR_LIMIT it raises ArithmeticError.
    """
    _finite_displacement(z)
    b, N = _truncation(chain, dim)
    ops = build_symmetric_oscillator(RecurrenceCoefficients(b=b), dim=N + 1)
    G = z * ops.raise_ - np.conj(z) * ops.lower
    w, V = np.linalg.eigh(1j * G)
    _resolvable(z, np.max(np.abs(w)), "exponential")
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
    step = (np.ones(N), np.zeros(N + 1), 2.0 * b[:N] ** 2)  # the band of d[n-1] -> d[n]
    d = np.zeros((nmax + 1, N + 1))
    d[0, 0] = 1.0
    for n in range(1, nmax + 1):
        d[n] = _band_apply(step, d[n - 1, :, None])[:, 0]
    return d


def transfer_closed_form(chain, nmax: int, dim: int | None = None) -> np.ndarray:
    """The same d table evaluated by quadrature over the truncation roots.

    d[n, l] = sum_k w_k psi_l(y_k) x_k^n / F_l with x_k = sqrt(2) y_k and
    F_l = prod_{j<l} sqrt(2) b_j, where (y_k, w_k) is the chain's Gauss rule
    (the x_k are the roots of psit_{N+1}).  The nodes must be accurate well
    beyond float64 here -- the x^n powers amplify node error by a factor
    ~ n x^{n-1} -- which is why the quadrature rule arrives Newton-polished
    in extended precision.
    """
    b, N = _truncation(chain, dim)
    y, w, table = _rule(b, N)
    root2 = np.sqrt(polyrec._LD(2.0))
    u = table / np.concatenate(([1.0], np.cumprod(root2 * b[:N])))[:, None]
    x = root2 * y
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
    _ERROR_LIMIT (a NaN or inf row included).
    """
    _finite_displacement(z)
    b, N = _truncation(chain, dim)
    r = abs(z)
    sub = np.sqrt(2.0) * b[:N]  # A[l+1, l]
    A = (sub, np.zeros(N + 1), -sub)
    f = np.zeros(N + 1)
    f[0] = 1.0
    acc = f.copy()
    mass = f.copy()
    quiet = 0
    for n in range(1, max_terms + 1):
        f = (r / n) * _band_apply(A, f[:, None])[:, 0]
        acc += f
        mass += np.abs(f)
        bound = np.finfo(float).eps * np.max(mass)
        if not bound <= _ERROR_LIMIT:
            raise ArithmeticError(
                "series for |z| = %g cancels too much: eps * sum |terms| = %.2e "
                "exceeds %g at order %d" % (r, bound, _ERROR_LIMIT, n)
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


def coherent_closed_form(chain, z: complex, dim: int | None = None) -> np.ndarray:
    """Displaced vacuum from the root/weight sum (no series, no exponential).

    C_l = (-i z/|z|)^l sum_k w_k psi_l(y_k) exp(i |z| sqrt(2) y_k) over the
    Newton-polished Gauss rule (y_k, w_k).  No factorial enters the sum, so
    none overflows.  At z = 0 the state is the vacuum; past
    eps * |z| sqrt(2) max|y_k| = _ERROR_LIMIT it raises ArithmeticError.
    """
    _finite_displacement(z)
    b, N = _truncation(chain, dim)
    if z == 0:
        out = np.zeros(N + 1, dtype=complex)
        out[0] = 1.0
        return out
    rule = _rule(b, N)
    _resolvable(z, abs(z) * np.sqrt(2.0) * float(np.max(np.abs(rule[0]))), "closed-form")
    amp = _profile_sums(rule, [abs(z)])[:, 0]
    return _phase_powers(z, N) * _MINUS_I_POWERS[np.arange(N + 1) % 4] * amp


def route_agreement(states: dict) -> dict:
    """How closely coherent states of one (chain, z) agree, route by route.

    states maps a route name to its amplitudes.  Returns, in this order,
    "norms" (||u|| per route), "overlaps" (|<u|v>| / (||u|| ||v||) per pair,
    keyed "u|v" in the order of states), "distances" (||u - v||_max per
    pair), "worst_overlap_deficit" (the largest 1 - overlap),
    "worst_distance" and "worst_norm_deficit" (the largest | ||u|| - 1 |);
    a NaN or inf makes every worst value inf.  An error e orthogonal to u
    moves the overlap only by ~||e||^2 / 2, the distance by ~||e||.
    """
    norms = {name: float(np.linalg.norm(u)) for name, u in states.items()}
    names = list(states)
    overlaps, distances = {}, {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            ov = abs(np.vdot(states[a], states[b])) / (norms[a] * norms[b])
            overlaps["%s|%s" % (a, b)] = float(ov)
            distances["%s|%s" % (a, b)] = worst_of(np.abs(states[a] - states[b]))
    return {
        "norms": norms,
        "overlaps": overlaps,
        "distances": distances,
        "worst_overlap_deficit": worst_of([1.0 - ov for ov in overlaps.values()]),
        "worst_distance": worst_of(list(distances.values())),
        "worst_norm_deficit": worst_of([abs(n - 1.0) for n in norms.values()]),
    }


def profile_normalization(chain, dim: int | None = None) -> float:
    """1 / sum_k psit_N(x_k)^{-2}: the constant making the unweighted
    profile of the *Hermite* chain coincide with the weighted one.
    """
    b, N = _truncation(chain, dim)
    work = RecurrenceCoefficients(b=b[:N])
    y, _ = gauss_quadrature(work, N + 1)
    pN = np.atleast_1d(eval_monic_tilde(work, N, np.sqrt(polyrec._LD(2.0)) * y))
    return float(1.0 / np.sum(pN**-2.0))


# ---------------------------------------------------------------------------
# identity ledger: finite-sum identities behind the closed form's phase
# cancellations, in the orthonormal variable y.  Each identity has one
# evaluator, taking the points and the psi_0..psi_{N+1} table there, where
# b_N is read as 1 so that row N+1 is the closing row
# omega = y psi_N - b_{N-1} psi_{N-1} (psit_{N+1}(sqrt(2) y) = F_N sqrt(2) omega
# with F_l = prod_{j<l} sqrt(2) b_j); the ones that hold for every real y run
# at 41 points past the spectrum and at the truncation roots.


def _relative_defect(lhs, rhs, biggest) -> float:
    """worst |lhs - rhs| / max(biggest, |rhs|, 1) over the points, where
    biggest is the largest summand entering lhs at each point."""
    scale = np.maximum(np.maximum(biggest, np.abs(rhs)), 1.0)
    return worst_of(np.abs(lhs - rhs) / scale)


def _x_sum_defect(x, terms, rhs=0.0) -> float:
    """The relative defect of x sum_l terms[l] = rhs at each point x."""
    return _relative_defect(x * terms.sum(axis=0), rhs, np.abs(x) * np.max(np.abs(terms), axis=0))


def _square_identity(y, table) -> float:
    """y sum_{l<=N} (-1)^l psi_l^2 = (-1)^N omega psi_N, omega = row N+1."""
    N = len(table) - 2
    terms = (-1.0) ** np.arange(N + 1)[:, None] * table[: N + 1] ** 2
    return _x_sum_defect(y, terms, (-1.0) ** N * table[N + 1] * table[N])


def _even_identity(y, table, g, b) -> float:
    """y sum_{p<=m} (-1)^p g_p psi_{2p} = (-1)^m g_m b_{2m} psi_{2m+1}, with
    m = floor(N/2), g_p = prod_{q<p} b_{2q} / b_{2q+1} and b_N read as 1."""
    m = (len(table) - 2) // 2
    terms = (-1.0) ** np.arange(m + 1)[:, None] * g[: m + 1, None] * table[0 : 2 * m + 1 : 2]
    return _x_sum_defect(y, terms, (-1.0) ** m * g[m] * b[2 * m] * table[2 * m + 1])


def _kernel_identity(y, table) -> float:
    """y_s y_k sum_{l<=N} psi_l(y_s) psi_l(y_k) = 0 for distinct roots."""
    n = len(y)
    u = table[:n]
    gram = u.T @ u
    # biggest summand per (s, k) pair, one s at a time: the (n, n, n) array
    # of all summands costs O(n^3) memory and was slower
    big = np.array([np.max(np.abs(u[:, s, None] * u), axis=0) for s in range(n)])
    yy = np.multiply.outer(y, y)
    off = ~np.eye(n, dtype=bool)
    return _relative_defect(yy[off] * gram[off], 0.0, np.abs(yy[off]) * big[off])


def identity_residuals(chain, dim: int | None = None) -> dict:
    """The finite-sum identity ledger of a truncated chain in the orthonormal
    variable, as residuals relative to max(largest summand, |right side|, 1).
    With b_N read as 1, omega = psi_{N+1} = y psi_N - b_{N-1} psi_{N-1},
    g_p = prod_{q<p} b_{2q} / b_{2q+1} and m = floor(N/2):

    - 'square' / 'alternating': y sum_l (-1)^l psi_l^2 equals
      (-1)^N omega psi_N, past the spectrum / at the roots;
    - 'even_sum' / 'even_alt': y sum_{p<=m} (-1)^p g_p psi_{2p} equals
      (-1)^m g_m b_{2m} psi_{2m+1}, past the spectrum / at the roots;
    - 'zero': psi_{2p}(0) = (-1)^p g_p;
    - 'kernel': y_s y_k sum_l psi_l(y_s) psi_l(y_k) = 0 for distinct roots
      (kernel orthogonality);
    - 'center' (even N >= 2 only): y_k sum_p psi_{2p}(0) psi_{2p}(y_k) = 0
      at the roots.

    The roots are the nodes of the chain's polished Gauss rule; a NaN or inf
    anywhere makes its entry inf.
    """
    b, N = _truncation(chain, dim)
    ymax = 2.0 * (np.max(np.abs(b)) + 1.0) * np.sqrt(N + 1.0)
    b[N] = 1.0
    past = np.linspace(-ymax, ymax, 41)
    roots, _ = gauss_quadrature(RecurrenceCoefficients(b=b[:N]), N + 1)
    # one pass over every point; node_table works point by point
    table = node_table(b, N + 1, np.concatenate((past, roots, [0.0])), "orthonormal")
    past_table, root_table, at0 = table[:, :41], table[:, 41:-1], table[:, -1]
    P = (N + 1) // 2
    bl = b.astype(polyrec._LD)
    g = np.concatenate(([1.0], np.cumprod(bl[0 : 2 * P : 2] / bl[1 : 2 * P : 2])))
    out = {
        "square": _square_identity(past, past_table),
        "alternating": _square_identity(roots, root_table),
        "even_sum": _even_identity(past, past_table, g, b),
        "even_alt": _even_identity(roots, root_table, g, b),
        "zero": _relative_defect(at0[0::2], (-1.0) ** np.arange(P + 1) * g, 0.0),
        "kernel": _kernel_identity(roots, root_table),
    }
    if N % 2 == 0 and N >= 2:
        terms = at0[0 : N + 1 : 2, None] * root_table[0 : N + 1 : 2]
        out["center"] = _x_sum_defect(roots, terms)
    return out


# ---------------------------------------------------------------------------
# completeness of the family: a radial measure resolving the identity


def resolution_residuals(chain, t, weights, dim: int | None = None) -> np.ndarray:
    """How far a discrete radial measure is from resolving the identity.

    residual_l = | sum_i weights_i |C_l(sqrt(t_i))|^2 - 1 |, one entry per
    level l, where C_l(|z|) is the closed-form amplitude; a measure
    satisfying the completeness relation makes every entry vanish.  t and
    weights are one-dimensional, of one length, finite and nonnegative
    (ValueError otherwise).
    """
    t = np.asarray(t, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if t.ndim != 1 or t.shape != weights.shape:
        raise ValueError(
            "t and weights must be one-dimensional of one length, got shapes %s and %s"
            % (t.shape, weights.shape)
        )
    for name, v in (("t", t), ("weights", weights)):
        if not np.all(np.isfinite(v) & (v >= 0.0)):
            raise ValueError("%s must be finite and nonnegative" % name)
    b, N = _truncation(chain, dim)
    acc = np.abs(_profile_sums(_rule(b, N), np.sqrt(t))) ** 2 @ weights
    return np.abs(acc - 1.0)


def construct_resolution_measure(chain, dim: int | None = None):
    """Find a nonnegative discrete radial measure resolving the identity.

    Places 8 (N + 1) nodes on a grid in t = |z|^2 and solves the
    nonnegative least-squares system sum_i w_i |C_l(sqrt(t_i))|^2 = 1,
    one row per level.  Returns (t, weights); a fit that misses a level by
    more than _ERROR_LIMIT raises ArithmeticError (the truncated boson has
    no such measure).
    """
    from scipy.optimize import nnls

    b, N = _truncation(chain, dim)
    # spread nodes over a few characteristic radii: the phases turn with
    # r sqrt(2) y_k
    rule = _rule(b, N)
    span = max(1.0, float(np.sqrt(polyrec._LD(2.0)) * np.max(np.abs(rule[0]))))
    radii = np.linspace(1e-3, 4.0 * np.pi / (2.0 * span / (N + 1)), 8 * (N + 1))
    w, _ = nnls(np.abs(_profile_sums(rule, radii)) ** 2, np.ones(N + 1))
    misfit = worst_of(resolution_residuals(chain, radii**2, w, dim))
    if not misfit <= _ERROR_LIMIT:
        raise ArithmeticError("no nonnegative measure resolves the identity: the best fit "
                              "misses a level by %.2g (limit %g)" % (misfit, _ERROR_LIMIT))
    return radii**2, w
