import math
from fractions import Fraction

import numpy as np
import pytest

from polyosc import krawtchouk as kr
from polyosc.polyrec import eval_orthonormal, node_table

P_SAMPLES = (0.2, 0.5, 0.8)


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
        cn = math.sqrt(float(math.comb(N, n) * (pf / qf) ** n))
        table[n] = [cn * float(v) for v in rows[n]]
    return table


def full_recurrence_table(p: float, N: int) -> np.ndarray:
    """The kt table by the integer recurrence over every column (test oracle).

    The build before the self-dual mirror: every row runs A_n(x) for all
    x = 0..N and scales it by c_n.
    """
    m, D = p.as_integer_ratio()
    r = D - m
    Dx = D * np.arange(N + 1, dtype=object)
    prev = np.zeros(N + 1, dtype=object)
    cur = np.ones(N + 1, dtype=object)
    d = 1
    table = np.empty((N + 1, N + 1))
    for n in range(N + 1):
        cn = math.sqrt(math.comb(N, n) * m**n / r**n)
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
        assert kr.ktilde(1, 0, 0.5, 2) == pytest.approx(np.sqrt(2.0))
        tab = kr.ktilde_table(0.5, 2)
        assert tab[1, 0] == pytest.approx(np.sqrt(2.0))

    def test_table_matches_hypergeometric_sum(self):
        for p in P_SAMPLES:
            for N in (1, 4, 7):
                tab = kr.ktilde_table(p, N)
                ref = np.array(
                    [[kr.ktilde(n, x, p, N) for x in range(N + 1)]
                     for n in range(N + 1)]
                )
                den = np.maximum(1.0, np.abs(ref))
                assert np.max(np.abs(tab - ref) / den) < 1e-12, (p, N)

    def test_table_matches_chain_recurrence(self):
        p, N = 0.3, 9
        ch = kr.recurrence_chain(p, N)
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
        rows = np.asarray(node_table(kr.recurrence_chain(p, N), N, xs, "orthonormal"), dtype=float)
        ref = np.array([kr.ktilde(n, xs, p, N) for n in range(N + 1)])
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
        with pytest.raises(OverflowError):
            full_recurrence_table(0.999, 150)
        with pytest.raises(OverflowError):
            kr.ktilde_table(0.999, 150)

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
        p, N = 0.4, 5
        for n in range(N + 1):
            for x in (0, 2, 5):
                assert kr.khat(n, x, p, N) == pytest.approx(
                    (-1.0) ** n * kr.ktilde(n, x, p, N)
                )

    def test_weights_normalized(self):
        for p in P_SAMPLES:
            rho = kr.weight_rho(np.arange(13), p, 12)
            assert float(np.sum(rho)) == pytest.approx(1.0, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            kr.ktilde_table(0.0, 4)
        with pytest.raises(ValueError):
            kr.ktilde_table(1.2, 4)
        with pytest.raises(ValueError):
            kr.ktilde_table(0.4, 0)

    def test_table_copies_are_independent(self):
        one = kr.ktilde_table(0.3, 4)
        one[0, 0] = 77.0
        assert kr.ktilde_table(0.3, 4)[0, 0] == 1.0


class TestOrthogonality:
    @pytest.mark.parametrize("p", P_SAMPLES)
    @pytest.mark.parametrize("N", (1, 6, 18, 30))
    def test_dual_pairs(self, p, N):
        r1, r2 = kr.dual_orthogonality_residuals(p, N)
        assert r1 < 1e-11
        assert r2 < 1e-11

    @pytest.mark.parametrize("p", P_SAMPLES)
    def test_grid_pairs(self, p):
        g1, g2 = kr.grid_orthogonality_residuals(p, 25)
        assert g1 < 1e-11
        assert g2 < 1e-11

    def test_difference_equation(self):
        for p in P_SAMPLES:
            assert kr.difference_equation_residual(p, 16) < 1e-11

    @pytest.mark.parametrize("p", (0.03, 0.3000001, 0.8))
    @pytest.mark.parametrize("N", (1, 7, 30))
    def test_difference_equation_matches_loop(self, p, N):
        # same terms, scale and summation order: the values are equal
        assert kr.difference_equation_residual(p, N) == loop_difference_equation_residual(p, N)

    def test_non_finite_table_fails(self, monkeypatch):
        real = kr.ktilde_table

        def poisoned(p, N):
            out = real(p, N)
            out[3, 2] = np.nan
            return out

        monkeypatch.setattr(kr, "ktilde_table", poisoned)
        assert kr.difference_equation_residual(0.3, 8) == np.inf
        assert kr.grid_ladder_action_residual(0.3, 8) == np.inf
        assert kr.difference_form_residual(0.3, 8) == np.inf


class TestLatticeOscillator:
    def test_spectrum_formula(self):
        osc = kr.build_lattice_oscillator(0.3, 11)
        vals = np.linalg.eigvalsh(osc.hamiltonian)
        n = np.arange(12.0)
        want = np.sort(11.0 * (n + 0.5) - n**2)
        assert np.max(np.abs(vals - want)) < 1e-10
        assert np.allclose(np.sort(osc.expected_spectrum()), want)

    def test_ladder_commutator_closes(self):
        osc = kr.build_lattice_oscillator(0.7, 9)
        assert kr.ladder_commutator_residual(osc) < 1e-11

    def test_su2_algebra(self):
        kp, km, k0 = kr.polynomial_ladders(0.45, 8)
        assert kr.so3_residuals(kp, km, k0) < 1e-11
        # K0 is the centered number operator
        assert np.allclose(np.diag(k0).real, np.arange(9.0) - 4.0, atol=1e-12)


class TestGridSide:
    def test_grid_geometry(self):
        p, N = 0.25, 8
        xi = kr.grid(p, N)
        h = np.sqrt(2.0 * N * p * (1 - p))
        assert np.allclose(xi, h * (np.arange(N + 1) - p * N))

    def test_grid_spectrum_is_half_integers(self):
        for p in P_SAMPLES:
            H = kr.grid_hamiltonian(p, 14)
            assert np.max(np.abs(np.linalg.eigvalsh(H) - (np.arange(15) + 0.5))) < 1e-11

    def test_factorization(self):
        for p in P_SAMPLES:
            assert kr.grid_factorization_residual(p, 12) < 1e-11

    def test_eigenfunctions(self):
        assert kr.grid_eigen_residual(0.35, 10) < 1e-11

    def test_ladder_action_small_case(self):
        # N = 1: Psi has two levels; lowering the top one must return
        # sqrt(1 * (N - 1 + 1)) = 1 times the bottom one.
        p, N = 0.3, 1
        psi = kr.grid_functions(p, N)
        _, am = kr.grid_ladders(p, N)
        assert np.allclose(am @ psi[1], psi[0], atol=1e-13)
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
        assert T.flags.c_contiguous
        osc = kr.build_lattice_oscillator(p, N)
        k_plus, k_minus, _ = kr.polynomial_ladders(p, N)
        assert np.array_equal(k_plus, D @ osc.raise_ @ D)
        assert np.array_equal(k_minus, D @ osc.lower @ D)

    def test_nan_ladder_fails_transport(self, monkeypatch):
        from polyosc.acceptance import criterion_8

        real = kr.grid_ladders

        def poisoned(p, N):
            a_plus, a_minus = real(p, N)
            a_minus = a_minus.copy()
            a_minus[0, 0] = np.nan
            return a_plus, a_minus

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

    def test_difference_forms_large_table(self):
        # p far from 1/2 at N = 30 pushes table entries to ~1e11; the
        # ladder-action defect must stay relative-small there
        assert kr.difference_form_residual(0.8, 30) < 1e-10
        assert kr.difference_form_residual(0.05, 30) < 1e-10
