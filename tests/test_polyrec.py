import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyosc import (
    ChainError,
    RecurrenceCoefficients,
    boson_chain,
    eval_monic_tilde,
    gauss_quadrature,
    roots,
)
from polyosc import gaussian_moment_chain, hermite_chain, krawtchouk, krawtchouk_chain, polyrec
from polyosc.polyrec import node_table
from conftest import eval_orthonormal, random_truncated_chain, recurrence_chain


def monic_tilde_coefficients(chain, n: int) -> np.ndarray:
    """Monomial coefficient array (ascending powers) of psit_n: the tilde
    recurrence run on coefficient arrays, an oracle independent of node_table."""
    tb2 = 2.0 * chain.b.astype(np.longdouble) ** 2
    ckm1 = np.zeros(1, dtype=np.longdouble)
    ck = np.ones(1, dtype=np.longdouble)
    for k in range(n):
        shifted = np.concatenate(([0.0], ck))
        prev = np.concatenate((ckm1, np.zeros(len(shifted) - len(ckm1), dtype=np.longdouble)))
        ckm1, ck = ck, shifted - (tb2[k - 1] if k > 0 else 0.0) * prev
    return ck.astype(float)


def index_factorials(values, n: int) -> np.ndarray:
    """values_0 ... values_{l-1} for l = 0..n, entry 0 the empty product 1,
    as one longdouble cumulative product (oracle for F_l = prod sqrt(2) b_j)."""
    values = np.asarray(values)
    if not 0 <= n <= len(values):
        raise ValueError("index factorial needs %d entries, have %d" % (n, len(values)))
    return np.concatenate(([1.0], np.cumprod(values[:n].astype(np.longdouble))))


def index_double_factorials(values, start: int, count: int) -> np.ndarray:
    """1, values[start], values[start] values[start+2], ... (count + 1
    entries) as one longdouble cumulative product; with values = 2 b^2,
    start = 0 gives (-1)^p psit_{2p}(0) at entry p."""
    values = np.asarray(values)
    if count < 0 or (count and start + 2 * count - 2 >= len(values)):
        raise ValueError(
            "index double factorial needs entry %d, have %d" % (start + 2 * count - 2, len(values))
        )
    return np.concatenate(([1.0], np.cumprod(values[start : start + 2 * count : 2].astype(np.longdouble))))


b_values = st.lists(st.floats(0.3, 2.0), min_size=1, max_size=8)


class TestChainValidation:
    def test_trailing_zeros_mark_truncation(self):
        ch = RecurrenceCoefficients(b=[1.0, 2.0, 0.0, 0.0])
        assert ch.truncated
        assert ch.valid_depth == 2
        assert ch.depth == 4

    def test_truncated_is_not_an_option(self):
        with pytest.raises(TypeError):
            RecurrenceCoefficients(b=[1.0, 2.0], truncated=True)

    def test_equality_does_not_raise(self):
        # array fields have no one truth value: chains compare by identity
        chain = boson_chain(3)
        assert chain == chain
        assert (boson_chain(3) == boson_chain(3)) is False
        assert chain != boson_chain(3)

    @pytest.mark.parametrize("chain", [
        boson_chain(7),
        krawtchouk_chain(0.3, 6),
        recurrence_chain(0.3, 6),
        hermite_chain(5),
        gaussian_moment_chain(4),
    ])
    def test_truncated_follows_valid_depth(self, chain):
        assert chain.truncated == (chain.valid_depth < chain.depth)

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
        assert index_factorials([2.0, 3.0], 0).tolist() == [1.0]
        assert index_double_factorials([2.0, 3.0], 0, 0).tolist() == [1.0]
        assert index_double_factorials([2.0, 3.0], 1, 0).tolist() == [1.0]

    def test_plain_product(self):
        assert index_factorials([2.0, 3.0, 5.0], 3).tolist() == [1.0, 2.0, 6.0, 30.0]
        assert index_factorials([2.0, 3.0, 5.0], 2).tolist() == [1.0, 2.0, 6.0]
        assert index_factorials([2.0, 3.0], 2).dtype == np.longdouble

    def test_double_factorial_strides(self):
        vals = [2.0, 3.0, 5.0, 7.0, 11.0]
        # start 1: odd indices 1, 3, ...
        assert index_double_factorials(vals, 1, 2).tolist() == [1.0, 3.0, 3.0 * 7.0]
        # start 0: even indices 0, 2, 4
        assert index_double_factorials(vals, 0, 3).tolist() == [1.0, 2.0, 2.0 * 5.0, 2.0 * 5.0 * 11.0]

    def test_factorial_splits_into_double_factorials(self):
        vals = np.array([1.7, 0.4, 2.2, 0.9, 1.1, 3.0])
        fact = index_factorials(vals, len(vals))
        even = index_double_factorials(vals, 0, 3)
        odd = index_double_factorials(vals, 1, 3)
        for n in range(len(vals) + 1):
            # v_0 .. v_{n-1} = (v_0 v_2 ...)(v_1 v_3 ...)
            assert float(fact[n]) == pytest.approx(float(even[(n + 1) // 2] * odd[n // 2]))

    def test_too_few_entries(self):
        with pytest.raises(ValueError):
            index_factorials([2.0], 2)
        with pytest.raises(ValueError):
            index_factorials([2.0], -1)
        with pytest.raises(ValueError):
            index_double_factorials([2.0, 3.0, 5.0], 1, 2)

    @pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(float).max,
                        reason="longdouble is float64 here")
    def test_finite_past_float64_overflow(self):
        # on the boson chain 2 b_{l-1}^2 = l, so entry l is l!; float64 is inf from 171!
        fact = index_factorials(2.0 * boson_chain(200).b ** 2, 200)
        assert np.all(np.isfinite(fact))
        assert float(np.log10(fact[200])) == pytest.approx(math.lgamma(201) / math.log(10), rel=1e-14)


class TestStates:
    def test_default_is_valid_depth_plus_one(self):
        assert RecurrenceCoefficients(b=[1.0, 2.0, 0.0, 0.0]).states() == 3
        assert boson_chain(5).states() == 6

    def test_dim_in_range_is_returned(self):
        ch = RecurrenceCoefficients(b=[1.0, 2.0, 0.0, 0.0])
        assert [ch.states(d) for d in (1, 2, 3)] == [1, 2, 3]

    @pytest.mark.parametrize("b, dim", [
        ([1.0, 2.0, 0.0, 0.0], 4),  # past the first zero: a decoupled state
        ([1.0, 2.0, 0.0, 0.0], 0),
        ([1.0, 2.0], 4),  # past the end of an open chain
    ])
    def test_dim_out_of_range_raises(self, b, dim):
        with pytest.raises(ChainError):
            RecurrenceCoefficients(b=b).states(dim)


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
        fact = index_factorials(np.sqrt(2.0) * ch.b, n)
        for l in range(n + 1):
            left = np.asarray(psit[l], dtype=float)
            right = fact[l] * np.asarray(psi[l], dtype=float)
            assert left == pytest.approx(right, rel=1e-10, abs=1e-10), l

    @given(b_values)
    def test_monic_values_at_zero(self, bs):
        # psit_{2p}(0) = (-1)^p 2b_0^2 2b_2^2 ... 2b_{2p-2}^2 and psit_{2p+1}(0) = 0
        ch = RecurrenceCoefficients(b=bs)
        n = ch.depth + 1
        at0 = node_table(ch, n, 0.0, "monic_tilde")
        P = n // 2
        want = (-1.0) ** np.arange(P + 1) * index_double_factorials(2.0 * ch.b**2, 0, P)
        assert np.asarray(at0[0::2], dtype=float) == pytest.approx(np.asarray(want, dtype=float), rel=1e-14)
        assert np.all(at0[1::2] == 0.0)

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
        off = ch.b[: deg - 1]
        vals = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
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
        real = polyrec._eigh_tridiagonal

        def perturbed(d, e):
            vals, vecs = real(d, e)
            return vals * (1.0 + 1e-6), vecs

        monkeypatch.setattr(polyrec, "_eigh_tridiagonal", perturbed)
        with pytest.raises(ArithmeticError):
            roots(chain, deg)

    @pytest.mark.parametrize("chain, deg", [
        (boson_chain(60), 40),
        (krawtchouk_chain(0.3, 400), 401),
        (RecurrenceCoefficients(b=[0.9, 1.4, 0.0]), 3),
        (RecurrenceCoefficients(b=[1.0]), 1),
    ])
    def test_residuals_equal_inline_shifted_rows(self, chain, deg):
        # J v as the two off-diagonal rows written out, the form before the
        # shared band kernel: each entry sums the same two products, so the
        # CLI's scaled_residuals (residuals / scale) keep every bit
        off = chain.b[: deg - 1]
        y, v = polyrec._eigh_tridiagonal(np.zeros(deg), off)
        Jv = np.zeros_like(v)
        Jv[:-1] = off[:, None] * v[1:]
        Jv[1:] += off[:, None] * v[:-1]
        assert np.array_equal(roots(chain, deg).residuals, np.linalg.norm(Jv - v * y, axis=0))

    def test_degree_past_depth_names_the_depth(self):
        assert len(roots(boson_chain(5), 6)) == 6
        with pytest.raises(ChainError, match="past the chain's depth 5"):
            roots(boson_chain(5), 40)


class TestBandKernel:
    @pytest.mark.parametrize("n", (1, 2, 7, 30))
    def test_apply_is_the_dense_product(self, rng, n):
        band = (rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n - 1))
        Y = rng.normal(size=(n, 5))
        M = polyrec._band_dense(band)
        assert np.allclose(polyrec._band_apply(band, Y), M @ Y, rtol=1e-14, atol=1e-14)
        # the reversed band is the transpose
        assert np.array_equal(polyrec._band_dense(band[::-1]), M.T)


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
        # the roots of psit_5 are sqrt(2) times the nodes of the 5-point rule
        ch = boson_chain(6)
        ny, _ = gauss_quadrature(ch, 5)
        assert np.allclose(roots(ch, 5).x, np.sqrt(2.0) * np.asarray(ny, float), rtol=0.0, atol=1e-13)

    def test_single_point_rule(self):
        nodes, w = gauss_quadrature(RecurrenceCoefficients(b=[1.0], a=[0.4]), 1)
        assert float(nodes[0]) == pytest.approx(0.4)
        assert float(w[0]) == 1.0

    @pytest.mark.parametrize("chain", [
        boson_chain(5),
        recurrence_chain(0.3, 5),
        RecurrenceCoefficients(b=[1.0, 0.5], a=[0.37, -1.2]),
        RecurrenceCoefficients(b=[0.0]),
    ])
    def test_one_point_rule_is_the_leading_diagonal(self, chain):
        # the polished path gives node a_0 and weight 1 exactly, in longdouble
        a0 = chain.diagonal()[0]
        nodes, w = gauss_quadrature(chain, 1)
        assert nodes.dtype == w.dtype == np.longdouble
        assert np.array_equal(nodes, np.array([a0], dtype=np.longdouble))
        assert np.array_equal(w, np.array([1.0], dtype=np.longdouble))

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

    def test_points_past_depth_name_the_depth(self):
        assert len(gauss_quadrature(boson_chain(5), 6)[0]) == 6
        before = polyrec._polished_rule.cache_info()
        with pytest.raises(ChainError, match="past the chain's depth 5"):
            gauss_quadrature(boson_chain(5), 40)
        assert polyrec._polished_rule.cache_info() == before


def window(chain, npoints):
    diag = np.zeros(npoints)
    if chain.a is not None:
        diag[: min(npoints, len(chain.a))] = chain.a[:npoints]
    return diag, chain.b[: npoints - 1]


def fresh_rule(chain, npoints):
    """The polished rule of the chain's npoints window, bypassing the cache."""
    diag, off = window(chain, npoints)
    return polyrec._polished_rule.__wrapped__(diag.tobytes(), off.tobytes(), polyrec._LD)


def scipy_started_rule(chain, npoints):
    """The rule polished from scipy's tridiagonal eigenvalues (test oracle).

    scipy's default driver (stevd) returns the same values as the dense
    solve.  An MRRR (stemr) start is not an oracle for bits: the polish then
    lands up to one longdouble ulp away on most windows.
    """
    from scipy.linalg import eigh_tridiagonal

    diag, off = window(chain, npoints)
    start = eigh_tridiagonal(diag, off, eigvals_only=True)
    return polyrec._refined_gauss_rule(diag, off, start)


def assert_rule_equal(got, want):
    assert all(np.array_equal(g, f) for g, f in zip(got, want))


class TestRuleCache:
    """gauss_quadrature memoizes the polished rule on the window's bytes."""

    def assert_cached_rule_is_fresh(self, chain, npoints):
        want = fresh_rule(chain, npoints)
        # the numpy-started rule is the one the scipy-started polish gave
        assert_rule_equal(scipy_started_rule(chain, npoints), want)
        # the weight pass on the whole chain, as before the rule was cached
        table = node_table(chain, npoints - 1, want[0], "orthonormal")
        assert np.array_equal(want[1], 1.0 / np.cumsum(table**2, axis=0)[-1])
        for _ in range(2):  # a miss or a hit, then certainly a hit
            assert_rule_equal(gauss_quadrature(chain, npoints), want)

    @pytest.mark.parametrize("dims", [range(2, 80), range(80, 401, 9), [399, 400]])
    def test_boson_windows(self, dims):
        chain = boson_chain(400)
        for dim in dims:
            self.assert_cached_rule_is_fresh(chain, dim)

    @pytest.mark.parametrize("p", [0.3000001, 0.7])
    @pytest.mark.parametrize("N", [1, 2, 24, 99, 149, 400])
    def test_krawtchouk_chains(self, p, N):
        self.assert_cached_rule_is_fresh(krawtchouk_chain(p, N), N + 1)

    @pytest.mark.parametrize("N", [1, 7, 40])
    def test_recurrence_chain_diagonal(self, N):
        chain = recurrence_chain(0.3, N)
        # b < 0 takes the eigenvector fallback, which is not cached ...
        before = polyrec._polished_rule.cache_info().currsize
        gauss_quadrature(chain, N + 1)
        assert polyrec._polished_rule.cache_info().currsize == before
        # ... and |b| (the same measure) reaches the cache with the diagonal
        self.assert_cached_rule_is_fresh(
            RecurrenceCoefficients(b=np.abs(chain.b), a=chain.a), N + 1
        )

    def test_random_chains(self, rng):
        for k in range(20):
            chain = random_truncated_chain(rng, max_levels=30)
            if k % 2:
                chain = RecurrenceCoefficients(b=chain.b, a=rng.normal(size=chain.depth))
            npoints = int(rng.integers(2, chain.valid_depth + 2))
            self.assert_cached_rule_is_fresh(chain, npoints)

    def test_rule_is_keyed_on_the_extended_dtype(self, monkeypatch):
        chain = boson_chain(12)
        assert all(part.dtype == np.longdouble for part in gauss_quadrature(chain, 9))
        monkeypatch.setattr(polyrec, "_LD", np.float64)
        assert all(part.dtype == np.float64 for part in gauss_quadrature(chain, 9))

    def test_cached_arrays_are_read_only(self):
        y, w = polyrec._polished_rule(np.zeros(3).tobytes(), np.ones(2).tobytes(), polyrec._LD)
        assert not y.flags.writeable and not w.flags.writeable

    def test_in_place_mutation_is_a_new_window(self):
        chain = boson_chain(12)
        gauss_quadrature(chain, 10)
        chain.b[3] *= 1.5
        assert_rule_equal(gauss_quadrature(chain, 10), fresh_rule(chain, 10))

    def test_writing_into_a_result_leaves_the_cache_intact(self):
        chain = boson_chain(12)
        y, w = gauss_quadrature(chain, 10)
        y[:] = 0.0
        w[0] = 5.0
        assert_rule_equal(gauss_quadrature(chain, 10), fresh_rule(chain, 10))

    def test_shared_window_is_one_entry(self):
        polyrec._polished_rule.cache_clear()
        gauss_quadrature(boson_chain(50), 20)
        gauss_quadrature(boson_chain(100), 20)
        info = polyrec._polished_rule.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_closed_form_polishes_once_per_chain(self, monkeypatch):
        from polyosc import coherent_closed_form

        calls = []
        real = polyrec._refined_gauss_rule

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(polyrec, "_refined_gauss_rule", counted)
        polyrec._polished_rule.cache_clear()
        chain = boson_chain(40)
        coherent_closed_form(chain, 0.4 + 0.3j, dim=30)
        coherent_closed_form(chain, -1.2j, dim=30)
        assert calls == [30]  # one 30-point rule for dim 30


def test_extended_dtype_has_one_owner(monkeypatch):
    # every extended-precision array takes its dtype from polyrec._LD
    from polyosc import coherent, momentsys

    for module in (coherent, krawtchouk, momentsys):
        assert "_LD" not in vars(module), module.__name__
    monkeypatch.setattr(polyrec, "_LD", np.float64)
    chain = RecurrenceCoefficients(b=[0.61, 1.37, 0.0])
    assert node_table(chain, 3, [0.5, 1.5], "monic_tilde").dtype == np.float64
    assert all(part.dtype == np.float64 for part in fresh_rule(chain, 3))
    moments = momentsys.MomentSequence([1.0, 0.5])
    assert moments.even.dtype == np.float64
    assert momentsys.coefficients_from_moments(moments, 1).b.tolist() == [np.sqrt(0.5)]
