import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyosc import (
    RecurrenceCoefficients,
    boson_chain,
    coherent,
    coherent_closed_form,
    coherent_via_exponential,
    coherent_via_recurrence,
    construct_resolution_measure,
    identity_residuals,
    krawtchouk,
    gauss_quadrature,
    polyrec,
    profile_normalization,
    resolution_residuals,
    route_agreement,
    transfer_closed_form,
    transfer_coefficients,
)
from polyosc.polyrec import eval_monic_tilde
from conftest import random_truncated_chain


def quadrature_profile(chain, r: float, dim: int | None = None) -> np.ndarray:
    """Weighted node sums A_l(r) = sum_k W_k psit_l(x_k) exp(i r x_k), l = 0..N.

    The library's orthonormal profile sums times F_l = prod_{j<l} sqrt(2) b_j,
    since psit_l(sqrt(2) y) = F_l psi_l(y).
    """
    b, N = coherent._truncation(chain, dim)
    F = np.concatenate(([1.0], np.cumprod(np.sqrt(2.0) * b[:N])))
    return F * coherent._profile_sums(coherent._rule(b, N), [r])[:, 0]


def node_sum_profile(chain, l: int, r: float, dim: int | None = None) -> complex:
    """Unweighted node profile sum_k psit_l(x_k) e^{i r x_k} / psit_N(x_k)^2.

    The closed form specialized to chains (such as Hermite) whose quadrature
    weights are proportional to 1/psit_N(x_k)^2; elsewhere it is *not* the
    coherent-state profile (test oracle).
    """
    b, N = coherent._truncation(chain, dim)
    work = RecurrenceCoefficients(b=b[:N])
    y, _ = gauss_quadrature(work, N + 1)
    x = np.sqrt(np.longdouble(2.0)) * y
    pl = np.atleast_1d(eval_monic_tilde(work, l, x))
    pN = np.atleast_1d(eval_monic_tilde(work, N, x))
    return complex(np.sum(pl * np.exp(1j * r * x) / pN**2))


def gamma_coefficients(chain, nmax: int, mmax: int, dim: int | None = None) -> np.ndarray:
    """Even-displacement weights gamma[n, m] = d[n + 2m, n].

    Filled by their own recurrence
        gamma[n+1, m] = theta_{n+1} gamma[n, m]
                        + 2 b_{n+1}^2 theta_{n+2} gamma[n+2, m-1],
        gamma[0, m] = 2 b_0^2 theta_1 gamma[1, m-1],   gamma[0, 0] = 1,
    with theta_k = 1 for k <= N and 0 above; the working n-range extends to
    nmax + 2 mmax so the m-1 column reaches far enough.  An oracle for
    transfer_coefficients that runs along the other diagonal of d.
    """
    b, N = coherent._truncation(chain, dim)
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

    def test_route_agreement_report(self):
        ch = krawtchouk.symmetric_chain(0.4, 6)
        states = {
            "exponential": coherent_via_exponential(ch, 1.0 + 0.5j),
            "series": coherent_via_recurrence(ch, 1.0 + 0.5j),
            "closed_form": coherent_closed_form(ch, 1.0 + 0.5j),
        }
        got = route_agreement(states)
        assert list(got) == ["norms", "overlaps", "worst_overlap_deficit", "worst_norm_deficit"]
        assert list(got["overlaps"]) == [
            "exponential|series", "exponential|closed_form", "series|closed_form",
        ]
        assert got["worst_overlap_deficit"] < 1e-12
        assert got["worst_norm_deficit"] < 1e-12

    def test_route_agreement_flags_disagreement(self):
        e0, e1 = np.eye(2, dtype=complex)
        got = route_agreement({"u": e0, "v": 2.0 * e1})
        assert got["overlaps"] == {"u|v": 0.0}
        assert got["worst_overlap_deficit"] == 1.0
        assert got["worst_norm_deficit"] == 1.0
        nan = route_agreement({"u": e0, "v": np.full(2, np.nan + 0j)})
        assert nan["worst_overlap_deficit"] == np.inf
        assert nan["worst_norm_deficit"] == np.inf

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

    @pytest.mark.parametrize("route", (coherent_via_exponential, coherent_via_recurrence,
                                       coherent_closed_form))
    @pytest.mark.parametrize("z", (np.nan, np.inf, complex(np.inf, 0.0)), ids=("nan", "inf", "inf+0j"))
    def test_non_finite_displacement_raises(self, route, z):
        with pytest.raises(ValueError, match="must be finite"):
            route(boson_chain(6), z, dim=4)


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

    @pytest.mark.parametrize("call", (
        lambda: coherent_closed_form(boson_chain(400), 2.5, dim=400),
        lambda: identity_residuals(boson_chain(400), dim=400),
    ), ids=("closed_form", "identity_ledger"))
    def test_rule_past_the_float64_range_is_named(self, monkeypatch, call):
        # with longdouble as float64 (arm64 macOS, Windows) the Newton polish of
        # the 400-point boson rule overflows: the rule refuses by name, with no
        # warning, instead of a NaN rule failing the |z| guard or the ledger
        monkeypatch.setattr(polyrec, "_LD", np.float64)
        polyrec._polished_rule.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError,
                               match="400-point Gauss rule left the float64 range"):
                call()

    def test_subnormal_displacement(self):
        # the phase -i z/|z| must not come from a multiply by 1/|z|, which
        # overflows here
        z = np.complex128(2.2e-309)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coherent_closed_form(boson_chain(3), z, dim=3)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - coherent_via_exponential(boson_chain(3), z, dim=3))) < 1e-15


class TestLargeDisplacement:
    # The phases |z| x_k carry an absolute rounding error of about
    # eps |z| max|x|: 8.6e-9 at |z| = 1e7 for p = 0.3, N = 6, 8.6e-7 at 1e9.
    # Past 1e-8 the exponential and the closed form refuse, as the series does.
    CHAIN = krawtchouk.symmetric_chain(0.3, 6)

    @pytest.mark.parametrize("route", (coherent_via_exponential, coherent_closed_form))
    @pytest.mark.parametrize("r", (1e9, 1e12))
    def test_unresolvable_displacement_raises(self, route, r):
        with pytest.raises(ArithmeticError, match="exceeds 1e-08"):
            route(self.CHAIN, r * np.exp(0.3j))

    @pytest.mark.parametrize("r", (1e5, 1e7))
    def test_routes_agree_below_the_limit(self, r):
        z = r * np.exp(0.3j)
        got = coherent_closed_form(self.CHAIN, z)
        assert np.max(np.abs(got - coherent_via_exponential(self.CHAIN, z))) <= 1e-8


class TestPhase:
    # Both routes turn a state of |z| by e^{i theta l}.  As a complex power
    # (e^{i theta})^l that factor would drift off the unit circle by about
    # one ulp per power (1.2e-14 here in the closed form).
    @pytest.mark.parametrize("route", (coherent_closed_form, coherent_via_recurrence))
    def test_phase_keeps_the_modulus(self, route):
        ch, z = boson_chain(401), 0.5 * np.exp(0.7j)
        turned, plain = route(ch, z, dim=401), route(ch, abs(z), dim=401)
        nz = plain != 0
        assert np.max(np.abs(np.abs(turned[nz]) / np.abs(plain[nz]) - 1.0)) <= 1e-15


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


LEDGER_KEYS = {"square", "alternating", "even_sum", "even_alt", "zero", "kernel"}


class TestIdentityLedger:
    @pytest.mark.parametrize("maker", [
        lambda: (boson_chain(14), 9),
        lambda: (boson_chain(14), 10),
        lambda: (krawtchouk.symmetric_chain(0.3, 9), None),
        lambda: (krawtchouk.symmetric_chain(0.6, 8), None),
        lambda: (boson_chain(201), 200),  # (2b^2)! past the float64 range
        lambda: (RecurrenceCoefficients(b=[0.0]), None),  # N = 0: no root pair
    ])
    def test_battery(self, maker):
        ch, d = maker()
        dim = d + 1 if d is not None else None
        for key, val in identity_residuals(ch, dim=dim).items():
            assert val < 1e-12, key

    def test_boson_dim_400(self):
        # odd truncation order N = 399: the double factorials 2^p p! leave
        # the float64 range near p = 151, and even_alt runs at every root
        out = identity_residuals(boson_chain(400), dim=400)
        assert set(out) == LEDGER_KEYS
        for key, val in out.items():
            assert val < 1e-12, key

    def test_even_alt_past_float64(self):
        # even truncation order N = 320 divides by 2^p p! up to p = 160
        out = identity_residuals(boson_chain(321), dim=321)
        assert out["even_alt"] < 1e-12

    def test_non_finite_table_fails(self, monkeypatch):
        real = coherent.node_table

        def poisoned(*args):
            out = np.array(real(*args))
            out[4] = np.nan
            return out

        monkeypatch.setattr(coherent, "node_table", poisoned)
        out = identity_residuals(boson_chain(9), dim=9)
        assert set(out) == LEDGER_KEYS | {"center"}
        assert all(v == np.inf for v in out.values())

    def test_perturbed_table_fails(self, monkeypatch):
        # psi_1 off by one part in 1e6 must show in the sums over l
        real = coherent.node_table

        def scaled(*args):
            out = np.array(real(*args))
            out[1] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(coherent, "node_table", scaled)
        out = identity_residuals(boson_chain(9), dim=9)
        for key in ("square", "alternating", "kernel"):
            assert out[key] > 1e-8, key

    def test_even_truncation_extras_present(self):
        even, odd = krawtchouk.symmetric_chain(0.5, 6), krawtchouk.symmetric_chain(0.5, 7)
        assert set(identity_residuals(even)) == LEDGER_KEYS | {"center"}
        assert set(identity_residuals(odd)) == LEDGER_KEYS

    def test_random_chains(self, rng):
        for _ in range(5):
            ch = random_truncated_chain(rng, max_levels=7)
            for key, val in identity_residuals(ch).items():
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

    def test_lattice_resolves_every_level(self):
        # one row |C_l|^2 = 1 per level; unscaled rows against (2 b^2_{l-1})!
        # left this fit a relative misfit of 1
        for p, N in ((0.4123, 24), (0.3, 16)):
            ch = krawtchouk.symmetric_chain(p, N)
            t, w = construct_resolution_measure(ch)
            assert np.max(resolution_residuals(ch, t, w)) <= 1e-12, (p, N)

    @pytest.mark.parametrize("dim, misfit", [(3, "0.072"), (6, "0.41"), (12, "0.7")])
    def test_boson_has_no_measure_and_raises(self, dim, misfit):
        # the best nonnegative fit misses a level by 0.072 / 0.41 / 0.70
        with pytest.raises(ArithmeticError, match="misses a level by %s " % misfit):
            construct_resolution_measure(boson_chain(dim), dim=dim)

    def test_large_lattice_is_finite_without_warnings(self):
        ch = krawtchouk.symmetric_chain(0.4123, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = resolution_residuals(ch, [0.5, 2.0], [0.3, 0.7])
        assert got.shape == (401,)
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("t, w", [
        ([-1.0, 0.5], [0.5, 0.5]),
        ([np.inf, 0.5], [0.5, 0.5]),
        ([np.nan, 0.5], [0.5, 0.5]),
        ([0.5, 1.0], [np.inf, 0.5]),
        ([0.5, 1.0], [np.nan, 0.5]),
        ([0.5, 1.0], [-0.1, 0.5]),
        ([0.5, 1.0], [0.5]),
    ], ids=["negative-t", "inf-t", "nan-t", "inf-weight", "nan-weight", "negative-weight",
            "length-mismatch"])
    def test_bad_measure_rejected(self, t, w):
        with pytest.raises(ValueError):
            resolution_residuals(krawtchouk.symmetric_chain(0.3, 4), t, w)
