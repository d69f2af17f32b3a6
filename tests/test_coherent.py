import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyosc import (
    RecurrenceCoefficients,
    alternating_even_residual,
    alternating_square_residual,
    boson_chain,
    coherent,
    coherent_closed_form,
    coherent_via_exponential,
    coherent_via_recurrence,
    construct_resolution_measure,
    gamma_coefficients,
    krawtchouk,
    node_sum_profile,
    profile_normalization,
    quadrature_profile,
    resolution_residuals,
    root_identity_residuals,
    transfer_closed_form,
    transfer_coefficients,
    zero_value_residual,
)
from conftest import random_truncated_chain

TWO_LEVEL = RecurrenceCoefficients(b=[2.0 ** -0.5, 0.0])


class TestTwoLevelRotation:
    # For b = (1/sqrt2, 0) the exponent is r times the 2x2 rotation
    # generator, so the displaced vacuum is exactly (cos r, sin r).

    @pytest.mark.parametrize("r", (0.0, 0.3, 1.2, np.pi))
    def test_exponential_route(self, r):
        got = coherent_via_exponential(TWO_LEVEL, r)
        assert got[0] == pytest.approx(np.cos(r), abs=1e-14)
        assert got[1] == pytest.approx(np.sin(r), abs=1e-14)

    def test_all_routes_hit_cos_sin(self):
        r = 0.8
        want = np.array([np.cos(r), np.sin(r)])
        for route in (coherent_via_exponential, coherent_via_recurrence,
                      coherent_closed_form):
            assert np.max(np.abs(route(TWO_LEVEL, r) - want)) < 1e-13

    def test_complex_argument_phase(self):
        z = 0.6 * np.exp(1j * 1.1)
        got = coherent_via_exponential(TWO_LEVEL, z)
        # |amplitudes| depend only on |z|; the level-1 phase follows z
        assert abs(got[0]) == pytest.approx(np.cos(0.6), abs=1e-14)
        assert abs(got[1]) == pytest.approx(np.sin(0.6), abs=1e-14)
        assert np.angle(got[1]) == pytest.approx(1.1, abs=1e-12)


class TestThreeWayAgreement:
    def test_random_chains(self, rng):
        for _ in range(8):
            ch = random_truncated_chain(rng, max_levels=7)
            z = rng.uniform(0.1, 3.0) * np.exp(2j * np.pi * rng.uniform())
            a = coherent_via_exponential(ch, z)
            b = coherent_via_recurrence(ch, z)
            c = coherent_closed_form(ch, z)
            assert np.max(np.abs(a - b)) < 1e-10
            assert np.max(np.abs(a - c)) < 1e-10
            for state in (a, b, c):
                assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_zero_displacement_is_vacuum(self):
        ch = RecurrenceCoefficients(b=[1.0, 0.5, 0.0])
        for route in (coherent_via_exponential, coherent_via_recurrence,
                      coherent_closed_form):
            got = route(ch, 0.0)
            assert np.array_equal(got, np.array([1.0, 0.0, 0.0], dtype=complex))

    def test_open_chain_needs_dim(self):
        with pytest.raises(ValueError):
            coherent_via_exponential(boson_chain(6), 1.0)
        got = coherent_via_exponential(boson_chain(6), 1.0, dim=4)
        assert got.shape == (4,)

    def test_diagonal_chain_rejected(self):
        ch = RecurrenceCoefficients(b=[1.0], a=[0.5])
        with pytest.raises(ValueError):
            coherent_via_exponential(ch, 1.0)

    def test_series_that_cannot_settle_raises(self):
        with pytest.raises(ArithmeticError):
            coherent_via_recurrence(TWO_LEVEL, 2.0, max_terms=3)


@st.composite
def series_cases(draw):
    """(chain, dim, z) over boson windows, Krawtchouk and random chains."""
    kind = draw(st.sampled_from(("boson", "krawtchouk", "random")))
    size = draw(st.integers(2, 400))  # the state-space dimension, at most
    if kind == "boson":
        chain, dim = boson_chain(size), size
    elif kind == "krawtchouk":
        chain, dim = krawtchouk.symmetric_chain(draw(st.floats(0.05, 0.95)), size - 1), None
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        chain, dim = random_truncated_chain(rng, max_levels=size - 1), None
    z = draw(st.floats(0.0, 6.0)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    return chain, dim, z


class TestSeriesRoute:
    # The series sums exp(r A) e_0 in float64; eps * sum |terms| bounds its
    # rounding error, and past 1e-8 it raises instead of returning a state.
    @given(series_cases())
    def test_accurate_or_raises(self, case):
        chain, dim, z = case
        try:
            got = coherent_via_recurrence(chain, z, dim=dim)
        except ArithmeticError:
            return
        want = coherent_via_exponential(chain, z, dim=dim)
        assert np.max(np.abs(got - want)) <= 1e-8

    # The points of the benchmark's coherent domain grid (p = 0.3000001,
    # phase 0.7) where the float64 series cannot reach 1e-8.
    @pytest.mark.parametrize("kind, size, r", [
        ("boson", 25, 6.0), ("boson", 100, 6.0),
        ("krawtchouk", 24, 2.5), ("krawtchouk", 24, 6.0),
        ("krawtchouk", 99, 1.0), ("krawtchouk", 99, 2.5), ("krawtchouk", 99, 6.0),
        ("krawtchouk", 399, 1.0),
    ])
    def test_cancelling_grid_points_raise(self, kind, size, r):
        if kind == "boson":
            chain, dim = boson_chain(size), size
        else:
            chain, dim = krawtchouk.symmetric_chain(0.3000001, size), None
        with pytest.raises(ArithmeticError, match="exceeds 1e-08"):
            coherent_via_recurrence(chain, r * np.exp(0.7j), dim=dim)

    def test_subnormal_displacement(self):
        z = np.complex128(5e-309 + 0j)
        got = coherent_via_recurrence(boson_chain(2), z, dim=2)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - coherent_via_exponential(boson_chain(2), z, dim=2))) < 1e-15

    def test_boson_dim_400_without_warnings(self):
        z = 1.0 + 0.5j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coherent_via_recurrence(boson_chain(400), z, dim=400)
        want = coherent_via_exponential(boson_chain(400), z, dim=400)
        assert np.max(np.abs(got - want)) < 1e-12


class TestClosedFormAtScale:
    # The closed form divides no factorials out of its sums, so it stays
    # finite where (sqrt(2) b)! overflows float64; held to criterion 4's
    # bounds against the exponential oracle.
    @pytest.mark.parametrize("kind", ("boson-400", "krawtchouk-399"))
    @pytest.mark.parametrize("r", (1.0, 6.0))
    def test_matches_exponential(self, kind, r):
        if kind == "boson-400":
            ch, dim = boson_chain(400), 400
        else:
            ch, dim = krawtchouk.symmetric_chain(0.3, 399), None
        z = r * np.exp(0.7j)
        c = coherent_closed_form(ch, z, dim=dim)
        e = coherent_via_exponential(ch, z, dim=dim)
        assert np.all(np.isfinite(c))
        ov = abs(np.vdot(e, c)) / (np.linalg.norm(e) * np.linalg.norm(c))
        assert 1.0 - ov < 1e-7
        assert abs(np.linalg.norm(c) - 1.0) < 1e-8


class TestTransferTable:
    def test_hand_case_single_step(self):
        # b = (1, 0): d alternates between the levels with weight 2 b_0^2,
        # d[2k, 0] = 2^k and d[2k+1, 1] = 2^k.
        ch = RecurrenceCoefficients(b=[1.0, 0.0])
        d = transfer_coefficients(ch, 6)
        want = np.array([
            [1, 0], [0, 1], [2, 0], [0, 2], [4, 0], [0, 4], [8, 0],
        ], dtype=float)
        assert np.array_equal(d, want)

    def test_parity_structure(self, rng):
        ch = random_truncated_chain(rng, max_levels=6)
        d = transfer_coefficients(ch, 11)
        n = np.arange(d.shape[0])[:, None]
        l = np.arange(d.shape[1])[None, :]
        assert np.all(d[(n + l) % 2 == 1] == 0.0)

    def test_closed_form_matches_recurrence(self, rng):
        for _ in range(6):
            ch = random_truncated_chain(rng, max_levels=6)
            nmax = 3 * ch.valid_depth
            a = transfer_coefficients(ch, nmax)
            b = transfer_closed_form(ch, nmax)
            den = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            assert np.max(np.abs(a - b) / den) < 1e-10

    def test_single_level_chain(self):
        ch = RecurrenceCoefficients(b=[0.0])
        assert np.array_equal(transfer_closed_form(ch, 3),
                              np.eye(4, 1))

    @given(st.integers(0, 5), st.integers(0, 4))
    def test_gamma_is_reindexed_d(self, nmax, mmax):
        ch = RecurrenceCoefficients(b=[0.9, 1.4, 0.6, 0.0])
        N = ch.valid_depth
        g = gamma_coefficients(ch, nmax, mmax)
        d = transfer_coefficients(ch, nmax + 2 * mmax)
        for n in range(nmax + 1):
            for m in range(mmax + 1):
                if n <= N:
                    assert g[n, m] == pytest.approx(d[n + 2 * m, n], rel=1e-12, abs=1e-12)
                else:
                    # no population above the truncation level
                    assert g[n, m] == 0.0


class TestClosedFormIngredients:
    def test_profile_at_zero_radius(self, rng):
        ch = random_truncated_chain(rng, max_levels=5)
        prof = quadrature_profile(ch, 0.0)
        want = np.zeros(ch.valid_depth + 1)
        want[0] = 1.0
        assert np.max(np.abs(prof - want)) < 1e-12

    def test_hermite_normalization_constants(self):
        # 1 / sum_k psit_N(x_k)^{-2} = N!/(N+1) on the half-scale chain;
        # the first two values are 1/2 and 2/3.
        ch = boson_chain(16)
        assert profile_normalization(ch, dim=2) == pytest.approx(0.5, rel=1e-12)
        assert profile_normalization(ch, dim=3) == pytest.approx(2.0 / 3.0, rel=1e-12)
        fact = 1.0
        for N in range(1, 13):
            fact *= N
            got = profile_normalization(ch, dim=N + 1)
            assert got == pytest.approx(fact / (N + 1), rel=1e-10), N

    def test_hermite_weights_are_inverse_square_values(self):
        # Only for the half-scale (Hermite) chain do the quadrature weights
        # collapse to const / psit_N(x_k)^2 -- cross-check the two profile
        # routes against each other there.
        ch = boson_chain(12)
        N = 5
        cn = profile_normalization(ch, dim=N + 1)
        r = 1.3
        for l in range(N + 1):
            weighted = quadrature_profile(ch, r, dim=N + 1)[l]
            plain = cn * node_sum_profile(ch, l, r, dim=N + 1)
            assert abs(weighted - plain) < 1e-12

    def test_general_chain_weights_are_not_inverse_squares(self):
        # ... and on a generic chain the unweighted profile with the same
        # normalization disagrees: the Gauss weights are essential.
        ch = RecurrenceCoefficients(b=[1.0, 1.0, 0.0])
        l, r = 0, 0.9
        cn = profile_normalization(ch)
        weighted = quadrature_profile(ch, r)[l]
        plain = cn * node_sum_profile(ch, l, r)
        assert abs(weighted - plain) > 1e-3


class TestIdentityLedger:
    @pytest.mark.parametrize("maker", [
        lambda: (boson_chain(14), 9),
        lambda: (boson_chain(14), 10),
        lambda: (krawtchouk.symmetric_chain(0.3, 9), None),
        lambda: (krawtchouk.symmetric_chain(0.6, 8), None),
        lambda: (boson_chain(201), 200),  # (2b^2)! past the float64 range
    ])
    def test_battery(self, maker):
        ch, d = maker()
        dim = d + 1 if d is not None else None
        assert alternating_square_residual(ch, dim=dim) < 1e-12
        assert alternating_even_residual(ch, dim=dim) < 1e-12
        assert zero_value_residual(ch, dim=dim) < 1e-12
        for key, val in root_identity_residuals(ch, dim=dim).items():
            assert val < 1e-12, key

    def test_boson_dim_400(self):
        # the double factorials 2^p p! leave the float64 range near p = 151
        ch = boson_chain(400)
        assert alternating_even_residual(ch, dim=400) < 1e-12
        assert zero_value_residual(ch, dim=400) < 1e-12

    def test_even_alt_past_float64(self):
        # even truncation order N = 320 divides by 2^p p! up to p = 160
        out = root_identity_residuals(boson_chain(321), dim=321)
        assert out["even_alt"] < 1e-12

    def test_non_finite_table_fails(self, monkeypatch):
        real = coherent.node_table

        def poisoned(*args):
            out = np.array(real(*args))
            out[4] = np.nan
            return out

        monkeypatch.setattr(coherent, "node_table", poisoned)
        assert zero_value_residual(boson_chain(9), dim=9) == np.inf
        assert alternating_even_residual(boson_chain(9), dim=9) == np.inf

    def test_even_truncation_extras_present(self):
        out = root_identity_residuals(krawtchouk.symmetric_chain(0.5, 6))
        assert {"kernel", "alternating", "cross", "center", "even_alt"} <= set(out)

    def test_random_chains(self, rng):
        for _ in range(5):
            ch = random_truncated_chain(rng, max_levels=7)
            assert alternating_square_residual(ch) < 1e-11
            for key, val in root_identity_residuals(ch).items():
                assert val < 1e-11, key


class TestResolutionMeasure:
    def test_constructed_measure_resolves_identity(self, rng):
        ch = random_truncated_chain(rng, max_levels=5)
        t, w = construct_resolution_measure(ch)
        assert np.all(w >= 0.0)
        assert np.max(resolution_residuals(ch, t, w)) < 1e-8

    def test_single_level(self):
        t, w = construct_resolution_measure(RecurrenceCoefficients(b=[0.0]))
        assert np.max(resolution_residuals(RecurrenceCoefficients(b=[0.0]), t, w)) < 1e-12
