import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyosc import (
    ChainError,
    RecurrenceCoefficients,
    boson_chain,
    double_factorial_on_index,
    eval_monic_tilde,
    eval_orthonormal,
    factorial_on_index,
    gauss_quadrature,
    jacobi_matrix,
    monic_tilde_coefficients,
    roots,
    tilde_quadrature,
)
from polyosc import krawtchouk_chain, polyrec
from polyosc.polyrec import node_table
from conftest import random_truncated_chain

b_values = st.lists(st.floats(0.3, 2.0), min_size=1, max_size=8)


class TestChainValidation:
    def test_trailing_zeros_mark_truncation(self):
        ch = RecurrenceCoefficients(b=[1.0, 2.0, 0.0, 0.0])
        assert ch.truncated
        assert ch.valid_depth == 2
        assert ch.depth == 4

    def test_interior_zero_rejected(self):
        with pytest.raises(ChainError):
            RecurrenceCoefficients(b=[1.0, 0.0, 1.0])

    def test_leading_zero_rejected(self):
        with pytest.raises(ChainError):
            RecurrenceCoefficients(b=[0.0, 1.0])

    def test_mismatched_diagonal_rejected(self):
        with pytest.raises(ChainError):
            RecurrenceCoefficients(b=[1.0, 1.0], a=[0.5])

    def test_2d_rejected(self):
        with pytest.raises(ChainError):
            RecurrenceCoefficients(b=[[1.0, 1.0]])

    @pytest.mark.parametrize("b, a", [
        ([1.0, np.nan], None),
        ([1.0, np.inf, 0.0], None),
        ([1.0, 2.0], [0.5, np.nan]),
        ([1.0, 2.0], [-np.inf, 0.5]),
    ])
    def test_non_finite_rejected(self, b, a):
        with pytest.raises(ChainError, match="finite"):
            RecurrenceCoefficients(b=b, a=a)

    def test_signed_entries_allowed(self):
        ch = RecurrenceCoefficients(b=[-1.0, -2.0], a=[0.3, 0.7])
        assert not ch.truncated
        assert not ch.symmetric


class TestIndexFactorials:
    def test_empty_products(self):
        assert factorial_on_index([2.0, 3.0], 0) == 1.0
        assert factorial_on_index([2.0, 3.0], -1) == 1.0
        assert double_factorial_on_index([2.0, 3.0], 0) == 1.0

    def test_plain_product(self):
        assert factorial_on_index([2.0, 3.0, 5.0], 3) == 30.0
        assert factorial_on_index([2.0, 3.0, 5.0], 2) == 6.0

    def test_double_factorial_strides(self):
        vals = [2.0, 3.0, 5.0, 7.0, 11.0]
        # even count: indices n-1, n-3, ... down to 1
        assert double_factorial_on_index(vals, 4) == 7.0 * 3.0
        # odd count: down to index 0
        assert double_factorial_on_index(vals, 5) == 11.0 * 5.0 * 2.0

    def test_factorial_splits_into_double_factorials(self):
        vals = np.array([1.7, 0.4, 2.2, 0.9, 1.1, 3.0])
        for n in range(len(vals) + 1):
            assert factorial_on_index(vals, n) == pytest.approx(
                double_factorial_on_index(vals, n)
                * double_factorial_on_index(vals, n - 1)
            )

    def test_too_few_entries(self):
        with pytest.raises(ValueError):
            factorial_on_index([2.0], 2)


class TestEvaluation:
    def test_hermite_monic_coefficients(self):
        # For b_k = sqrt((k+1)/2) the tilde recurrence has weights
        # 2 b_{k-1}^2 = k, i.e. psit_n is the monic "probabilists" Hermite
        # polynomial with integer coefficients.
        # (approximate: the chain stores b = sqrt(k/2), so 2 b^2 = k only up
        # to one rounding)
        ch = boson_chain(8)
        cases = {
            2: [-1.0, 0.0, 1.0],
            3: [0.0, -3.0, 0.0, 1.0],
            4: [3.0, 0.0, -6.0, 0.0, 1.0],
            6: [-15.0, 0.0, 45.0, 0.0, -15.0, 0.0, 1.0],
        }
        for degree, want in cases.items():
            got = monic_tilde_coefficients(ch, degree)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_eval_matches_own_coefficients(self, rng):
        for _ in range(5):
            ch = random_truncated_chain(rng, max_levels=6)
            n = ch.valid_depth
            coeffs = monic_tilde_coefficients(ch, n)
            for x in rng.uniform(-3, 3, 4):
                direct = np.polyval(coeffs[::-1], x)
                assert eval_monic_tilde(ch, n, x) == pytest.approx(direct, rel=1e-10)

    @given(b_values, st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=5))
    def test_scaling_bridge(self, bs, ys):
        # every kernel row: psit_l(sqrt(2) y) == prod(sqrt(2) b_0..b_{l-1}) * psi_l(y)
        ch = RecurrenceCoefficients(b=bs)
        n = ch.depth
        y = np.array(ys)
        psit = node_table(ch, n, np.sqrt(2.0) * y, "monic_tilde")
        psi = node_table(ch, n, y, "orthonormal")
        fact = np.concatenate(([1.0], np.cumprod(np.sqrt(2.0) * ch.b[:n])))
        for l in range(n + 1):
            left = np.asarray(psit[l], dtype=float)
            right = fact[l] * np.asarray(psi[l], dtype=float)
            assert left == pytest.approx(right, rel=1e-10, abs=1e-10), l

    def test_eval_is_last_kernel_row(self, rng):
        ch = random_truncated_chain(rng, max_levels=8)
        xs = rng.uniform(-3, 3, 6)
        n = ch.valid_depth
        for norm, fn, top in (("orthonormal", eval_orthonormal, n),
                              ("monic_tilde", eval_monic_tilde, n + 2)):
            table = node_table(ch, top, xs, norm)
            assert table.dtype == np.longdouble
            assert table.shape == (top + 1, len(xs))
            for l in range(top + 1):
                assert np.array_equal(np.asarray(table[l], dtype=float), fn(ch, l, xs))

    def test_kernel_rejects_unknown_normalization(self):
        with pytest.raises(ValueError):
            node_table(RecurrenceCoefficients(b=[1.0]), 1, 0.3, "monic")

    def test_orthonormal_rejects_degrees_past_truncation(self):
        ch = RecurrenceCoefficients(b=[1.0, 0.0])
        assert eval_orthonormal(ch, 1, 0.7) == pytest.approx(0.7)
        with pytest.raises(ChainError):
            eval_orthonormal(ch, 2, 0.7)

    def test_monic_reaches_one_degree_further(self):
        ch = RecurrenceCoefficients(b=[1.0])
        # psit_2 = x^2 - 2 b_0^2 needs only b_0
        assert eval_monic_tilde(ch, 2, 3.0) == pytest.approx(9.0 - 2.0)
        with pytest.raises(ChainError):
            eval_monic_tilde(ch, 4, 3.0)

    def test_diagonal_chain_orthonormal(self):
        ch = RecurrenceCoefficients(b=[2.0], a=[0.5])
        # psi_1 = (x - a_0)/b_0
        assert eval_orthonormal(ch, 1, 1.5) == pytest.approx(0.5)

    def test_tilde_requires_symmetric(self):
        ch = RecurrenceCoefficients(b=[1.0], a=[0.5])
        with pytest.raises(ChainError):
            eval_monic_tilde(ch, 1, 0.0)


class TestRoots:
    def test_against_companion_solver(self, rng):
        for _ in range(6):
            ch = random_truncated_chain(rng, max_levels=6)
            deg = ch.valid_depth + 1
            rs = roots(ch, deg)
            ref = np.sort(np.roots(monic_tilde_coefficients(ch, deg)[::-1]).real)
            assert np.allclose(rs.x, ref, atol=1e-8)
            assert len(rs) == deg

    def test_degree_one(self):
        rs = roots(RecurrenceCoefficients(b=[1.0]), 1)
        assert rs.x.tolist() == [0.0]

    def test_symmetry_of_root_set(self, rng):
        ch = random_truncated_chain(rng, max_levels=7)
        rs = roots(ch, ch.valid_depth + 1)
        assert np.allclose(np.sort(rs.x), np.sort(-rs.x), atol=1e-9)

    def test_jacobi_matrix_route(self, rng):
        ch = random_truncated_chain(rng, max_levels=5)
        deg = ch.valid_depth
        if deg < 2:
            deg = 2
            ch = RecurrenceCoefficients(b=[0.9, 1.4])
        vals = np.linalg.eigvalsh(jacobi_matrix(ch, deg))
        assert np.allclose(np.sort(np.sqrt(2.0) * vals), roots(ch, deg).x, atol=1e-9)

    def test_backward_error_is_small_at_depth(self):
        for ch, deg in ((boson_chain(200), 150), (krawtchouk_chain(0.3, 400), 401)):
            rs = roots(ch, deg)
            assert np.max(rs.residuals / rs.scale) < 1e-14

    @pytest.mark.parametrize("chain, deg", [
        (boson_chain(60), 40),
        (krawtchouk_chain(0.3, 24), 25),
        (RecurrenceCoefficients(b=[0.9, 1.4, 0.0]), 3),
    ])
    def test_perturbed_eigenvalues_rejected(self, monkeypatch, chain, deg):
        real = polyrec.eigh_tridiagonal

        def perturbed(d, e):
            vals, vecs = real(d, e)
            return vals * (1.0 + 1e-6), vecs

        monkeypatch.setattr(polyrec, "eigh_tridiagonal", perturbed)
        with pytest.raises(ArithmeticError):
            roots(chain, deg)


class TestQuadrature:
    def test_gaussian_moments_of_half_scale_chain(self):
        # b_k = sqrt((k+1)/2) encodes the weight exp(-y^2)/sqrt(pi), whose
        # even moments are (2k-1)!! / 2^k.
        nodes, w = gauss_quadrature(boson_chain(10), 7)
        want = 1.0
        for k in range(7):
            got = float(np.sum(w * nodes ** (2 * k)))
            assert got == pytest.approx(want, rel=1e-13)
            want *= (2 * k + 1) / 2.0

    def test_weights_sum_to_one(self, rng):
        ch = random_truncated_chain(rng, max_levels=8)
        _, w = gauss_quadrature(ch, ch.valid_depth + 1)
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-14)

    @given(b_values)
    def test_orthonormality_under_own_rule(self, bs):
        ch = RecurrenceCoefficients(b=bs)
        npts = ch.depth + 1
        nodes, w = gauss_quadrature(ch, npts)
        table = np.array(
            [np.atleast_1d(eval_orthonormal(ch, n, nodes)) for n in range(npts)],
            dtype=float,
        )
        gram = (table * np.asarray(w, dtype=float)) @ table.T
        assert np.max(np.abs(gram - np.eye(npts))) < 1e-10

    def test_tilde_rule_is_sqrt2_scaled(self):
        ch = boson_chain(6)
        ny, wy = gauss_quadrature(ch, 5)
        nx, wx = tilde_quadrature(ch, 5)
        assert np.allclose(np.asarray(nx, float), np.sqrt(2.0) * np.asarray(ny, float))
        assert np.allclose(np.asarray(wx, float), np.asarray(wy, float))

    def test_single_point_rule(self):
        nodes, w = gauss_quadrature(RecurrenceCoefficients(b=[1.0], a=[0.4]), 1)
        assert float(nodes[0]) == pytest.approx(0.4)
        assert float(w[0]) == 1.0

    def test_high_powers_stay_accurate(self):
        # The Newton-polished rule must integrate x^(2k) of its own measure
        # correctly far past what float64 eigenvalues alone would deliver;
        # reference values from exact rational arithmetic of the Hankel
        # recursion mu_{2k} = sum of products of 2b^2 (computed inline).
        from fractions import Fraction

        bs = [Fraction(3, 4), Fraction(5, 4), Fraction(7, 8), Fraction(9, 8)]
        ch = RecurrenceCoefficients(b=[float(v) for v in bs])
        nodes, w = gauss_quadrature(ch, 5)
        # exact moments by expanding the Jacobi matrix power trace on e_0
        size = 5
        J = [[Fraction(0)] * size for _ in range(size)]
        for i, bv in enumerate(bs):
            J[i][i + 1] = bv
            J[i + 1][i] = bv
        vec = [Fraction(1)] + [Fraction(0)] * (size - 1)
        for k in range(1, 9):
            vec = [
                sum(J[i][j] * vec[j] for j in range(size)) for i in range(size)
            ]
            if k % 2 == 0:
                exact = float(vec[0])
                got = float(np.sum(w * nodes**k))
                assert got == pytest.approx(exact, rel=1e-15)
