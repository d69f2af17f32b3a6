import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polyosc import RecurrenceCoefficients, build_symmetric_oscillator
from polyosc import krawtchouk as kr
from polyosc import polyrec
from polyosc.polyrec import _band_apply, _band_dense, node_table
from conftest import eval_orthonormal, recurrence_chain

P_SAMPLES = (0.2, 0.5, 0.8)


def krawtchouk_poly(n: int, x, p: float, N: int):
    """Lattice polynomial K_n(x) as a terminating hypergeometric sum (test oracle).

    K_n(x) = sum_k [(-n)_k (-x)_k] / [k! (-N)_k p^k].  Self-dual in (n, x)
    for integer arguments; the package evaluates K_n by its recurrence.
    """
    x_arr = np.asarray(x, dtype=polyrec._LD)
    total = np.ones_like(x_arr)
    term = np.ones_like(x_arr)
    for k in range(n):
        # ratio of consecutive terms: (k-n)(k-x) / ((k+1)(k-N) p)
        term = term * (k - n) * (k - x_arr) / ((k + 1) * (k - N) * polyrec._LD(p))
        total = total + term
    out = np.asarray(total, dtype=float)
    return out if out.ndim else float(out)


def exact_root(value: Fraction) -> float:
    """sqrt(value) for a positive rational: the root truncated past 1200
    fraction bits, then rounded once to float (test oracle)."""
    k = 1200 + max(value.denominator.bit_length() - value.numerator.bit_length(), 0)
    root = math.isqrt((value.numerator << 2 * k) // value.denominator)
    return float(Fraction(root, 1 << k))


def norm_factor(n: int, p: float, N: int) -> float:
    """c_n = sqrt(C(N, n) (p/q)^n), the exact root rounded once."""
    pf = Fraction(p)
    return exact_root(math.comb(N, n) * (pf / (1 - pf)) ** n)


def ktilde(n: int, x, p: float, N: int):
    """Orthonormalized lattice polynomial kt_n(x) by the hypergeometric sum (test oracle)."""
    return norm_factor(n, p, N) * np.asarray(krawtchouk_poly(n, x, p, N))


# ---------------------------------------------------------------------------
# the dense operator builders and dense checks the band forms replaced (test
# oracles for N <= 200)


def commutator(A, B):
    return A @ B - B @ A


def worst(*arrays) -> float:
    return max(float(np.max(np.abs(a))) for a in arrays)


def dense_lattice_ladders(p, N):
    """Scaled ladders (lower, raise_): the chain's dense ladders times
    sqrt(2) / (2 sqrt(p(1-p)))."""
    ops = build_symmetric_oscillator(kr.symmetric_chain(p, N))
    unit = 2.0 * np.sqrt(p * (1.0 - p))
    return (np.sqrt(2.0) * ops.lower / unit).real, (np.sqrt(2.0) * ops.raise_ / unit).real


def grid_hamiltonian(p, N):
    """The grid Hamiltonian as a dense matrix."""
    j = np.arange(N + 1, dtype=float)
    diag = 2.0 * p * (1.0 - p) * N + 0.5 + (1.0 - 2.0 * p) * (j - p * N)
    off = -np.sqrt(p * (1.0 - p)) * np.sqrt((j[:-1] + 1.0) * (N - j[:-1]))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def grid_ladders(p, N):
    """The grid ladders (A_plus, A_minus = A_plus^T) as dense matrices."""
    j = np.arange(N + 1, dtype=float)
    alpha = np.sqrt((j[:-1] + 1.0) * (N - j[:-1]))
    diag = np.sqrt(p * (1.0 - p)) * (2.0 * j - N)
    a_plus = np.diag(diag) + np.diag(-p * alpha, 1) + np.diag((1.0 - p) * alpha, -1)
    return a_plus, a_plus.T


def difference_lowering_matrix(p, N):
    """sqrt(p(1-p)) [ (N-x) E+ - x E- + (2x - N) ] as a dense matrix."""
    x = np.arange(N + 1, dtype=float)
    s = np.sqrt(p * (1.0 - p))
    return s * (np.diag((N - x)[:-1], 1) - np.diag(x[1:], -1) + np.diag(2.0 * x - N))


def difference_raising_matrix(p, N):
    """sqrt(p(1-p)) [ ((1-p)/p) x E- - (p/(1-p)) (N-x) E+ + (2x - N) ] as a dense matrix."""
    x = np.arange(N + 1, dtype=float)
    q = 1.0 - p
    s = np.sqrt(p * q)
    return s * (
        (q / p) * np.diag(x[1:], -1) - (p / q) * np.diag((N - x)[:-1], 1) + np.diag(2.0 * x - N)
    )


def so3_residuals(k_plus, k_minus, k_zero) -> float:
    """Max residual of [K0, K+-] = +-K+- and [K+, K-] = 2 K0."""
    r1 = commutator(k_zero, k_plus) - k_plus
    r2 = commutator(k_zero, k_minus) + k_minus
    r3 = commutator(k_plus, k_minus) - 2.0 * k_zero
    return worst(r1, r2, r3)


def dense_operator_residuals(p, N):
    """The five operator checks as dense products, on the dense views of
    whatever the band builders return (so a patched builder reaches both)."""
    lower, raise_ = (_band_dense(b) for b in kr._lattice_ladders(p, N))
    a_plus, a_minus = (_band_dense(b) for b in kr.grid_ladders(p, N))
    H = _band_dense(kr._grid_hamiltonian(p, N))
    T = kr.polynomial_to_grid_map(p, N)
    psi = kr.grid_functions(p, N)
    eye = np.eye(N + 1)
    n = np.arange(N + 1, dtype=float)
    D = np.diag((-1.0) ** n)
    k_plus, k_minus = D @ raise_ @ D, D @ lower @ D
    k_zero = 0.5 * commutator(k_plus, k_minus)
    Hk = 0.5 * (lower @ raise_ + raise_ @ lower)
    Hg = T.T @ H @ T
    shift = Hg - 0.5 * eye
    padded = np.pad(psi, ((1, 1), (0, 0)))
    want_up = np.sqrt((n + 1.0) * (N - n))[:, None] * padded[2:]
    want_dn = np.sqrt(n * (N - n + 1.0))[:, None] * padded[:-2]
    pairs = ((k_plus, a_plus), (k_minus, a_minus), (k_zero, H - 0.5 * (N + 1) * eye))
    return {
        "ladder_commutator": worst(commutator(lower, raise_) - np.diag(N - 2.0 * n)),
        "grid_factorization": worst(H - 0.5 * commutator(a_plus, a_minus) - 0.5 * (N + 1) * eye),
        "grid_ladder_action": worst(a_plus @ psi.T - want_up.T, a_minus @ psi.T - want_dn.T),
        "transport": worst(*(T @ k @ T.T - a for k, a in pairs)),
        "hamiltonian_relation": worst(Hk + shift @ shift - N * Hg),
    }


def fraction_table(p: float, N: int) -> np.ndarray:
    """The kt table by the K_n recurrence in Fraction arithmetic (test oracle)."""
    pf = Fraction(p)
    qf = 1 - pf
    K = [Fraction(1)] * (N + 1)
    rows = [K]
    if N >= 1:
        rows.append([1 - Fraction(x) / (pf * N) for x in range(N + 1)])
    for n in range(1, N):
        up, mid, low = pf * (N - n), pf * (N - n) + n * qf, n * qf
        rows.append(
            [
                ((mid - x) * rows[n][x] - low * rows[n - 1][x]) / up
                for x in range(N + 1)
            ]
        )
    table = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        cn = exact_root(math.comb(N, n) * (pf / qf) ** n)
        table[n] = [cn * float(v) for v in rows[n]]
    return table


def full_recurrence_table(p: float, N: int) -> np.ndarray:
    """The kt table by the integer recurrence over every column (test oracle).

    The build before the self-dual mirror: every row runs A_n(x) for all
    x = 0..N and scales it by c_n, the exact root rounded once.
    """
    m, D = p.as_integer_ratio()
    r = D - m
    Dx = D * np.arange(N + 1, dtype=object)
    prev = np.zeros(N + 1, dtype=object)
    cur = np.ones(N + 1, dtype=object)
    d = 1
    table = np.empty((N + 1, N + 1))
    for n in range(N + 1):
        cn = exact_root(Fraction(math.comb(N, n) * m**n, r**n))
        table[n] = cn * (cur / d).astype(float)
        if n < N:
            up = m * (N - n)
            prev, cur = cur, (up + n * r - Dx) * cur - (n * r * m * (N - n + 1)) * prev
            d *= up
    return table


def loop_difference_equation_residual(p: float, N: int) -> float:
    """The difference-equation residual one (n, x) entry at a time (test reference)."""
    q = 1.0 - p
    worst = 0.0
    table = kr.ktilde_table(p, N)
    for n in range(N + 1):
        kn = np.concatenate(([0.0], table[n], [0.0]))
        for x in range(N + 1):
            terms = np.array(
                [
                    p * (N - x) * kn[x + 2],
                    -(p * (N - x) + x * q) * kn[x + 1],
                    x * q * kn[x],
                    n * kn[x + 1],
                ]
            )
            scale = max(1.0, float(np.max(np.abs(terms))))
            worst = max(worst, abs(float(terms.sum())) / scale)
    return worst


class TestPolynomialTable:
    def test_hand_value_at_origin(self):
        # kt_1(x) = (pN - x)/sqrt(p(1-p)N); at p = 1/2, N = 2 the value at
        # x = 0 is sqrt(2).
        assert ktilde(1, 0, 0.5, 2) == pytest.approx(np.sqrt(2.0))
        tab = kr.ktilde_table(0.5, 2)
        assert tab[1, 0] == pytest.approx(np.sqrt(2.0))

    def test_table_matches_hypergeometric_sum(self):
        for p in P_SAMPLES:
            for N in (1, 4, 7):
                tab = kr.ktilde_table(p, N)
                ref = np.array(
                    [[ktilde(n, x, p, N) for x in range(N + 1)]
                     for n in range(N + 1)]
                )
                den = np.maximum(1.0, np.abs(ref))
                assert np.max(np.abs(tab - ref) / den) < 1e-12, (p, N)

    def test_table_matches_chain_recurrence(self):
        p, N = 0.3, 9
        ch = recurrence_chain(p, N)
        tab = kr.ktilde_table(p, N)
        xs = np.arange(N + 1, dtype=float)
        for n in (0, 1, 4, 9):
            vals = np.atleast_1d(eval_orthonormal(ch, n, xs))
            den = np.maximum(1.0, np.abs(tab[n]))
            assert np.max(np.abs(vals - tab[n]) / den) < 1e-9

    @pytest.mark.parametrize("p", P_SAMPLES + (0.3,))
    @pytest.mark.parametrize("N", (1, 4, 9, 12))
    def test_kernel_rows_match_hypergeometric_oracle(self, p, N):
        # every orthonormal row of the chain at once, against kt_n(x)
        xs = np.arange(N + 1, dtype=float)
        rows = np.asarray(node_table(recurrence_chain(p, N), N, xs, "orthonormal"), dtype=float)
        ref = np.array([ktilde(n, xs, p, N) for n in range(N + 1)])
        den = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(rows - ref) / den) < 1e-9

    @pytest.mark.parametrize("p", (0.03, 0.2, 0.3000001, 0.5, 0.8, 0.97))
    @pytest.mark.parametrize("N", (1, 2, 7, 30, 60))
    def test_table_equals_fraction_oracle(self, p, N):
        # the integer recurrence rounds each entry once, like the Fraction one
        assert np.array_equal(kr.ktilde_table(p, N), fraction_table(p, N))

    @pytest.mark.parametrize("p", (0.03, 0.3000001, 0.4123457, 0.97))
    @pytest.mark.parametrize("N", (61, 96, 150, 200))
    def test_mirrored_table_equals_full_recurrence(self, p, N):
        # past the Fraction oracle's reach: the upper triangle and its
        # mirror round the same rationals as the full-width recurrence
        assert np.array_equal(kr.ktilde_table(p, N), full_recurrence_table(p, N))

    def test_extreme_p_overflows_like_full_recurrence(self):
        # c_n^2 passes 1e308 from N = 148, c_n itself only from N = 206
        assert np.array_equal(kr.ktilde_table(0.999, 150), full_recurrence_table(0.999, 150))
        with pytest.raises(OverflowError):
            full_recurrence_table(0.999, 210)
        with pytest.raises(OverflowError, match=r"N = 210: the norm factor c_\d+ is too large"):
            kr.ktilde_table(0.999, 210)

    @pytest.mark.parametrize("p", (0.03, 0.97))
    def test_large_table_is_finite(self, p):
        # entries reach ~1e151 at N = 200
        assert np.isfinite(kr.ktilde_table(p, 200)).all()

    @pytest.mark.parametrize("p", (0.03, 0.97))
    def test_large_table_difference_equation(self, p):
        assert kr.difference_equation_residual(p, 200) < 1e-14

    def test_self_duality(self):
        # The plain normalization K_n(x) = kt_n(x)/kt_n(0) is symmetric in
        # (n, x).
        for p in P_SAMPLES:
            tab = kr.ktilde_table(p, 12)
            plain = tab / tab[:, :1]
            assert np.max(np.abs(plain - plain.T)) < 1e-11

    def test_sign_flip_family(self):
        # (-1)^n kt_n is the orthonormal family of the chain with b_n > 0
        p, N = 0.4, 5
        chain = recurrence_chain(p, N)
        positive = RecurrenceCoefficients(b=-chain.b, a=chain.a)
        for n in range(N + 1):
            for x in (0, 2, 5):
                assert eval_orthonormal(positive, n, x) == pytest.approx(
                    (-1.0) ** n * ktilde(n, x, p, N)
                )

    def test_weights_normalized(self):
        for p in P_SAMPLES:
            rho = kr.weight_rho(np.arange(13), p, 12)
            assert float(np.sum(rho)) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("p", (0.03, 0.3000001, 0.4123457, 0.97))
    @pytest.mark.parametrize("N", (1, 24, 96, 400))
    def test_weights_equal_fraction_oracle(self, p, N):
        pf = Fraction(p)
        want = [float(math.comb(N, x) * pf**x * (1 - pf) ** (N - x)) for x in range(N + 1)]
        assert np.array_equal(kr.weight_rho(np.arange(N + 1), p, N), want)

    @pytest.mark.parametrize("p, N", [(p, N) for p in (0.03, 0.3000001, 0.4123457, 0.97)
                                      for N in (1, 24, 96, 400)]
                             + [(0.3, 800), (0.1571072, 24), (0.032419, 96)])
    def test_sqrt_weights_equal_rounded_exact_root(self, p, N):
        # at (0.3, 800) rho(800) ~ 1e-418 underflows; its root ~1e-209 must
        # not.  At (0.1571072, 24), x = 2, and (0.032419, 96), x = 45, the
        # truncated 64-bit root alone rounds the wrong way: the bits below
        # it decide
        pf = Fraction(p)
        want = []
        for x in range(N + 1):
            rho = math.comb(N, x) * pf**x * (1 - pf) ** (N - x)
            k = 1200 + max(rho.denominator.bit_length() - rho.numerator.bit_length(), 0)
            root = math.isqrt((rho.numerator << 2 * k) // rho.denominator)
            want.append(float(Fraction(root, 1 << k)))
        assert np.array_equal(kr._weights_cached(p, N)[1], want)

    @pytest.mark.parametrize("x", ([-1, 0.5, 13], -1, 13, 2.5, np.nan, np.inf, "3", [True]))
    def test_weights_reject_points_off_the_lattice(self, x):
        with pytest.raises(ValueError, match="integers in 0..12"):
            kr.weight_rho(x, 0.3, 12)

    def test_weights_accept_integral_floats_and_copy(self):
        rho = kr.weight_rho(np.arange(13.0), 0.3, 12)
        assert np.array_equal(rho, kr.weight_rho(np.arange(13), 0.3, 12))
        assert kr.weight_rho(4.0, 0.3, 12) == rho[4]
        rho[4] = 7.0
        assert kr.weight_rho(4, 0.3, 12) != 7.0

    @pytest.mark.parametrize("p", (0.03, 0.3000001, 0.4123457, 0.8))
    @pytest.mark.parametrize("N", (1, 24, 96))
    def test_norm_factors_are_the_tables(self, p, N):
        # K_n(0) = 1, so column 0 of the table is c_n itself
        c = kr._lattice(p, N).table[:, 0]
        assert np.array_equal(c, kr.ktilde_table(p, N)[:, 0])
        assert np.array_equal(c, [norm_factor(n, p, N) for n in range(N + 1)])

    def test_validation(self):
        with pytest.raises(ValueError):
            kr.ktilde_table(0.0, 4)
        with pytest.raises(ValueError):
            kr.ktilde_table(1.2, 4)
        with pytest.raises(ValueError):
            kr.ktilde_table(0.4, 0)
        # a bool is no lattice size: True would build the N = 1 chain, or be
        # served the cached N = 1 record
        kr.ktilde_table(0.3, 1)
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="positive integer"):
                kr.symmetric_chain(0.3, flag)
            with pytest.raises(ValueError, match="positive integer"):
                kr.ktilde_table(0.3, flag)

    def test_table_copies_are_independent(self):
        for accessor in (kr.ktilde_table, kr.grid_functions, kr.polynomial_to_grid_map):
            want = accessor(0.3, 4)
            one = accessor(0.3, 4)
            one[0, 0] = 77.0
            assert np.array_equal(accessor(0.3, 4), want), accessor
        # the shared record cannot be written through
        for name, array in kr._lattice(0.3, 4)._asdict().items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 77.0


class TestOrthogonality:
    # Psi's row Gram is the orthonormality of kt_n in the degree, its column
    # Gram the dual relation with degree and argument swapped
    @pytest.mark.parametrize("p", P_SAMPLES)
    @pytest.mark.parametrize("N", (1, 6, 18, 25, 30))
    def test_dual_pairs(self, p, N):
        rows, cols = kr.grid_orthogonality_residuals(p, N)
        assert rows < 1e-11
        assert cols < 1e-11

    @pytest.mark.parametrize("p", (0.03, 0.4123457, 0.8))
    def test_column_gram_is_the_dual_relation(self, p):
        # sum_n rho(n) kt_x(n) kt_y(n) with kt_x(n) = c_x K_n(x) (self-duality),
        # the sum exact in rationals, is (Psi^T Psi)_xy: rho(n) / c_n^2 = q^N
        N, P = 16, Fraction(p)

        def plain(n, x):  # K_n(x), krawtchouk_poly's sum in exact rationals
            total = term = Fraction(1)
            for k in range(n):
                term = term * (k - n) * (k - x) / ((k + 1) * (k - N) * P)
                total += term
            return total

        K = [[plain(n, x) for x in range(N + 1)] for n in range(N + 1)]
        rho = [math.comb(N, n) * P**n * (1 - P) ** (N - n) for n in range(N + 1)]
        dual = np.array([[float(sum(rho[n] * K[n][x] * K[n][y] for n in range(N + 1)))
                          for y in range(N + 1)] for x in range(N + 1)])
        c = np.array([norm_factor(n, p, N) for n in range(N + 1)])
        psi = kr.grid_functions(p, N)
        gram = np.einsum("nx,ny->xy", psi, psi)
        assert np.max(np.abs(c[:, None] * dual * c[None, :] - gram)) < 1e-14

    def test_difference_equation(self):
        for p in P_SAMPLES:
            assert kr.difference_equation_residual(p, 16) < 1e-11

    @pytest.mark.parametrize("p", (0.03, 0.3000001, 0.8))
    @pytest.mark.parametrize("N", (1, 7, 30))
    def test_difference_equation_matches_loop(self, p, N):
        # same terms, scale and summation order: the values are equal
        assert kr.difference_equation_residual(p, N) == loop_difference_equation_residual(p, N)

    def test_non_finite_table_fails(self, monkeypatch):
        real = kr._lattice

        def poisoned(p, N):
            # the record's table, and psi = (-1)^n sqrt(rho) kt built from it
            lat = real(p, N)
            table, psi = lat.table.copy(), lat.psi.copy()
            table[3, 2] = psi[3, 2] = np.nan
            return lat._replace(table=table, psi=psi)

        monkeypatch.setattr(kr, "_lattice", poisoned)
        assert kr.grid_orthogonality_residuals(0.3, 8) == (np.inf, np.inf)
        assert kr.difference_equation_residual(0.3, 8) == np.inf
        assert kr.grid_ladder_action_residual(0.3, 8) == np.inf
        assert kr.difference_form_residual(0.3, 8) == np.inf

    def test_perturbed_psi_fails_the_gram_pair(self, monkeypatch):
        from polyosc.acceptance import criterion_7
        from polyosc.cli import _krawtchouk_point

        real = kr._lattice

        def bumped(delta):
            def lattice(p, N):
                # one entry of the record's psi, at its largest magnitude
                lat = real(p, N)
                psi = lat.psi.copy()
                psi[np.unravel_index(np.argmax(np.abs(psi)), psi.shape)] += delta
                return lat._replace(psi=psi)
            return lattice

        keys = ("dual_orthogonality", "grid_orthogonality")
        monkeypatch.setattr(kr, "_lattice", bumped(1e-6))
        row = _krawtchouk_point(0.3, 8, 1e-8)
        assert all(row[k] >= 1e-7 for k in keys), row
        assert not criterion_7().passed
        monkeypatch.setattr(kr, "_lattice", bumped(np.nan))
        row = _krawtchouk_point(0.3, 8, 1e-8)
        assert all(row[k] == np.inf for k in keys), row


class TestTableRange:
    # the exact table rounds each K_n(x) and c_n to float once; past the
    # float range it names the quantity instead of Python's bare message
    @pytest.mark.parametrize("p, N, quantity", [
        pytest.param(0.999, 210, "the norm factor c_201", id="0.999-210-c_201"),
        (0.03, 400, "K_205(x)"),
    ])
    def test_overflow_names_the_quantity(self, p, N, quantity):
        with pytest.raises(OverflowError) as err:
            kr.ktilde_table(p, N)
        assert "p = %r, N = %d: %s is too large" % (p, N, quantity) in str(err.value)

    def test_entry_past_the_float_range_names_it(self, monkeypatch):
        # kt_n(x) = c_n K_n(x) can leave the range with c_n and K_n(x) in it:
        # |K_1(6)| = 7/3 at (0.3, 6), times a norm factor set to 1e308
        monkeypatch.setattr(kr, "_rounded_root", lambda num, den: 1e308)
        with pytest.raises(OverflowError, match=r"N = 6: a table entry kt_n\(x\) = c_n K_n\(x\)"):
            kr._ktilde_table(0.3, 6)

    @pytest.mark.parametrize("p, N", [(0.97, 400), (0.999, 150), (0.999, 200), (0.99756, 200)])
    def test_points_past_the_squared_norm_factor_pass(self, p, N):
        # c_n^2 passes 1e308 at each point, c_n and Psi stay in range
        from polyosc.cli import _krawtchouk_point

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = _krawtchouk_point(p, N, 1e-8)
        assert row["pass"], row
        assert max(kr.grid_orthogonality_residuals(p, N)) <= 1e-14

    def test_walk_to_the_float_edge_passes_or_names_the_quantity(self):
        # past N = 203 at p = 0.999 a difference-equation term (kt_n(x) near
        # 1e307 times p(N - x)), then c_n itself, leaves the float range:
        # every point passes with finite residuals or raises a named refusal
        from polyosc.cli import _krawtchouk_point

        outcomes = {}
        for N in range(145, 216, 5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    row = _krawtchouk_point(0.999, N, 1e-8)
                    assert row["pass"] and np.isfinite(row["worst_residual"]), row
                    outcomes[N] = "pass"
                except OverflowError as err:
                    assert re.search(r"p = 0\.999, N = %d: .+ is too large for a float" % N,
                                     str(err)), err
                    outcomes[N] = str(err).split(": ", 1)[1]
        assert outcomes[200] == "pass"
        assert outcomes[205].startswith("a difference-equation term")
        assert outcomes[210].startswith("the norm factor c_201")


class TestLatticeOscillator:
    def test_spectrum_formula(self):
        vals = np.linalg.eigvalsh(_band_dense(kr._lattice_hamiltonian(0.3, 11)))
        n = np.arange(12.0)
        want = np.sort(11.0 * (n + 0.5) - n**2)
        assert np.max(np.abs(vals - want)) < 1e-10
        assert kr.lattice_spectrum_deviation(0.3, 11) < 1e-10

    def test_ladder_commutator_closes(self):
        assert kr.ladder_commutator_residual(0.7, 9) < 1e-11

    def test_su2_algebra(self):
        # the band ladders conjugated by diag((-1)^n), as dense views
        lower, raise_ = (_band_dense(b) for b in kr._lattice_ladders(0.45, 8))
        D = np.diag((-1.0) ** np.arange(9))
        kp, km = D @ raise_ @ D, D @ lower @ D
        k0 = 0.5 * commutator(kp, km)
        assert so3_residuals(kp, km, k0) < 1e-11
        # K0 is the centered number operator
        assert np.allclose(np.diag(k0), np.arange(9.0) - 4.0, atol=1e-12)


def bump_pair(pair):
    """(M, M^T) from the band pair, with M[2, 3] (so M^T[3, 2]) moved by 1e-6."""
    lo, d, up = pair[0]
    up = up.copy()
    up[2] += 1e-6
    return (lo, d, up), (up, d, lo)


def bump_band(band):
    """The band with its diagonal entry [3, 3] moved by 1e-6."""
    lo, d, up = band
    d = d.copy()
    d[3] += 1e-6
    return lo, d, up


class TestBandForms:
    @pytest.mark.parametrize("p", (0.1, 0.4123457, 0.9))
    @pytest.mark.parametrize("N", (1, 2, 5, 24, 96, 200))
    def test_dense_views_match_dense_builders(self, p, N):
        pairs = [
            *zip(kr._lattice_ladders(p, N), dense_lattice_ladders(p, N)),
            *zip(kr.grid_ladders(p, N), grid_ladders(p, N)),
            (kr._grid_hamiltonian(p, N), grid_hamiltonian(p, N)),
            *zip(kr._difference_forms(p, N),
                 (difference_lowering_matrix(p, N), difference_raising_matrix(p, N))),
        ]
        for k, (band, want) in enumerate(pairs):
            got = _band_dense(band)
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want))), k

    @pytest.mark.parametrize("p", (0.1, 0.4123457, 0.9))
    @pytest.mark.parametrize("N", (1, 2, 5, 24, 96, 200))
    def test_lattice_hamiltonian_is_diagonal_levels(self, p, N):
        # (lower raise_ + raise_ lower) / 2 from the ladder band: diagonal,
        # each level within 4 ulps of N(n + 1/2) - n^2
        n = np.arange(N + 1.0)
        want = np.diag(N * (n + 0.5) - n**2)
        got = _band_dense(kr._lattice_hamiltonian(p, N))
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("name, bump, fields", [
        ("grid_ladders", bump_pair, ("grid_factorization", "grid_ladder_action", "transport")),
        ("_grid_hamiltonian", bump_band,
         ("grid_factorization", "transport", "hamiltonian_relation")),
        ("_lattice_ladders", bump_pair,
         ("ladder_commutator", "transport", "hamiltonian_relation")),
    ])
    def test_one_perturbed_entry_fails_band_and_dense(self, monkeypatch, name, bump, fields):
        from polyosc.cli import _krawtchouk_point

        p, N = 0.4123457, 6
        for row in (_krawtchouk_point(p, N, 1e-8), dense_operator_residuals(p, N)):
            assert all(row[f] < 1e-12 for f in fields), row
        real = getattr(kr, name)
        monkeypatch.setattr(kr, name, lambda p, N: bump(real(p, N)))
        band = _krawtchouk_point(p, N, 1e-8)
        dense = dense_operator_residuals(p, N)
        assert not band["pass"]
        for f in fields:
            assert band[f] > 1e-8 and dense[f] > 1e-8, (f, band[f], dense[f])


# The (p, N) pairs of acceptance criteria 1-2, then two large N.
SPECTRUM_POINTS = [(p, N) for p in (0.1, 0.3, 0.5, 0.7, 0.9) for N in (2, 5, 10, 25, 50)] + [
    (0.4123457, 96),
    (0.4123457, 200),
]


class TestSpectrumDeviations:
    # dense eigvalsh of the full matrices stays here as the oracle: the shared
    # functions read the lattice H's diagonal and solve from the grid band
    @pytest.mark.parametrize("p, N", SPECTRUM_POINTS)
    def test_lattice_equals_dense_eigvalsh(self, p, N):
        ops = build_symmetric_oscillator(kr.symmetric_chain(p, N))
        dense = np.linalg.eigvalsh(ops.hamiltonian) / (4.0 * p * (1.0 - p))
        n = np.arange(N + 1.0)
        want = np.max(np.abs(dense - np.sort(N * (n + 0.5) - n**2)))
        assert np.array_equal(kr.lattice_spectrum_deviation(p, N), want)

    @pytest.mark.parametrize("p, N", SPECTRUM_POINTS)
    def test_grid_equals_dense_eigvalsh(self, p, N):
        dense = np.linalg.eigvalsh(grid_hamiltonian(p, N))
        want = np.max(np.abs(dense - (np.arange(N + 1) + 0.5)))
        assert np.array_equal(kr.grid_spectrum_deviation(p, N), want)

    @pytest.mark.parametrize("p, N", SPECTRUM_POINTS)
    def test_grid_equals_scipy_sterf(self, p, N):
        from scipy.linalg import eigvalsh_tridiagonal

        off, d, _ = kr._grid_hamiltonian(p, N)
        levels = eigvalsh_tridiagonal(d, off, lapack_driver="sterf")
        want = np.max(np.abs(levels - (np.arange(N + 1) + 0.5)))
        assert np.array_equal(kr.grid_spectrum_deviation(p, N), want)


def grid(p: float, N: int) -> np.ndarray:
    """Physical grid xi_j = h (j - pN), h = sqrt(2 N p (1-p)), j = 0..N."""
    h = np.sqrt(2.0 * N * p * (1.0 - p))
    return h * (np.arange(N + 1, dtype=float) - p * N)


class TestGridSide:
    def test_grid_geometry(self):
        # spacing h, centred on the binomial mean: sum_j rho(j) xi_j = 0
        p, N = 0.25, 8
        xi = grid(p, N)
        h = np.sqrt(2.0 * N * p * (1 - p))
        assert np.allclose(np.diff(xi), h)
        assert abs(kr.weight_rho(np.arange(N + 1), p, N) @ xi) < 1e-12

    def test_grid_spectrum_is_half_integers(self):
        for p in P_SAMPLES:
            H = _band_dense(kr._grid_hamiltonian(p, 14))
            assert np.max(np.abs(np.linalg.eigvalsh(H) - (np.arange(15) + 0.5))) < 1e-11

    def test_factorization(self):
        for p in P_SAMPLES:
            assert kr.grid_factorization_residual(p, 12) < 1e-11

    def test_eigenfunctions(self):
        # H_grid Psi_n = (n + 1/2) Psi_n; column n of psi.T is Psi_n
        p, N = 0.35, 10
        psi = kr.grid_functions(p, N)
        lam = np.arange(N + 1) + 0.5
        H = kr._grid_hamiltonian(p, N)
        assert np.max(np.abs(_band_apply(H, psi.T) - psi.T * lam)) < 1e-11

    def test_ladder_action_small_case(self):
        # N = 1: Psi has two levels; lowering the top one must return
        # sqrt(1 * (N - 1 + 1)) = 1 times the bottom one.
        p, N = 0.3, 1
        psi = kr.grid_functions(p, N)
        _, am = kr.grid_ladders(p, N)
        assert np.allclose(_band_dense(am) @ psi[1], psi[0], atol=1e-13)
        assert kr.grid_ladder_action_residual(p, N) < 1e-13

    def test_ladder_action_general(self):
        for p in P_SAMPLES:
            assert kr.grid_ladder_action_residual(p, 13) < 1e-11


class TestIntertwiner:
    @pytest.mark.parametrize("p", P_SAMPLES)
    @pytest.mark.parametrize("N", (1, 7, 20))
    def test_transport(self, p, N):
        T = kr.polynomial_to_grid_map(p, N)
        assert np.max(np.abs(T.T @ T - np.eye(N + 1))) < 1e-12
        assert kr.transport_residual(p, N) < 1e-11

    @pytest.mark.parametrize("p", (0.03, 0.3000001, 0.4123457, 0.97))
    @pytest.mark.parametrize("N", (1, 2, 24, 96))
    def test_sign_flips_equal_dense_products(self, p, N):
        # T = Psi^T diag((-1)^n) and K = D X D, D = diag((-1)^n), as dense
        # matrix products: the sign flips must reproduce them exactly
        D = np.diag((-1.0) ** np.arange(N + 1))
        T = kr.polynomial_to_grid_map(p, N)
        assert np.array_equal(T, kr.grid_functions(p, N).T @ D)

    def test_nan_ladder_fails_transport(self, monkeypatch):
        from polyosc.acceptance import criterion_8

        real = kr.grid_ladders

        def poisoned(p, N):
            a_plus, (lo, d, up) = real(p, N)
            d = d.copy()  # A_minus shares its diagonal with A_plus
            d[0] = np.nan
            return a_plus, (lo, d, up)

        monkeypatch.setattr(kr, "grid_ladders", poisoned)
        assert kr.transport_residual(0.5, 6) == math.inf
        result = criterion_8()
        assert not result.passed
        assert result.measured == math.inf

    def test_hamiltonian_relation(self):
        for p in P_SAMPLES:
            assert kr.hamiltonian_relation_residual(p, 17) < 1e-10

    def test_difference_forms(self):
        for p in P_SAMPLES:
            assert kr.difference_form_residual(p, 14) < 1e-10

    def test_battery_where_rho_underflows(self):
        # rho(800) = 0.3^800 ~ 1e-418 is 0 in float64; sqrt(rho) ~ 1e-209 is
        # not, and it carries psi, T, the Grams and the difference forms
        from polyosc.cli import _krawtchouk_point

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            row = _krawtchouk_point(0.3, 800, 1e-8)
        assert row["pass"], row
        assert row["worst_residual"] < 1e-9

    def test_difference_forms_large_table(self):
        # p far from 1/2 at N = 30 pushes table entries to ~1e11; the
        # ladder-action defect must stay relative-small there
        assert kr.difference_form_residual(0.8, 30) < 1e-10
        assert kr.difference_form_residual(0.05, 30) < 1e-10
