import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyosc import RecurrenceCoefficients, gauss_quadrature, polyrec
from polyosc.krawtchouk import _rounded_root
from polyosc.momentsys import (
    MomentSequence,
    SupportExhaustedError,
    coefficients_from_moments,
    gaussian_even_moments,
    moment_round_trip,
    verify_canonical_orthogonality,
)


def two_point_even_moments(count: int) -> MomentSequence:
    """Even moments of (delta_{-1} + delta_{+1})/2: mu_{2k} = 1.

    The canonical finite-support example: exactly one coefficient (b_0 = 1)
    is recoverable before the squared monic norm h_2 vanishes.
    """
    return MomentSequence(np.ones(count))


def test_gaussian_moments_give_sqrt_k_chain():
    # mu_{2k} = (2k-1)!! belongs to the unit normal, whose chain is
    # b_k = sqrt(k+1).
    ch = coefficients_from_moments(gaussian_even_moments(10), 6)
    assert np.allclose(ch.b, np.sqrt(np.arange(1, 7)), rtol=1e-12)


def test_two_point_measure_exhausts_after_one_coefficient():
    with pytest.raises(SupportExhaustedError) as exc:
        coefficients_from_moments(two_point_even_moments(6), 3)
    assert exc.value.depth == 1
    assert exc.value.partial.tolist() == pytest.approx([1.0])
    assert "finite support" in str(exc.value)


@pytest.mark.parametrize("moments", ([1.0, np.nan, 3.0], [1.0, 1.0, np.inf]))
def test_non_finite_moments_rejected(moments):
    with pytest.raises(ValueError, match="finite"):
        MomentSequence(moments)


def _stieltjes_norms(nodes, weights, count):
    """Exact squared monic norms h_0..h_count of a discrete symmetric measure
    (Fractions), by the Stieltjes procedure on its nodes."""
    prev, cur = [Fraction(0)] * len(nodes), [Fraction(1)] * len(nodes)
    h = [sum(weights)]
    for k in range(count):
        beta = h[k] / h[k - 1] if k else 0
        prev, cur = cur, [x * c - beta * q for x, c, q in zip(nodes, cur, prev)]
        h.append(sum(w * c * c for w, c in zip(weights, cur)))
    return h


@pytest.mark.parametrize(
    "half", [(1,), (0, 1), (1, 2), (0, 1, 2), (Fraction(1, 2), 1, 2)], ids=str
)
def test_finite_support_prefix_matches_exact_oracle(half):
    # m symmetric nodes with binomial weights C(m-1, i)/2^(m-1): every moment
    # is dyadic, so the float input is exact and only the algorithm rounds.
    nodes = sorted({Fraction(s) * x for x in half for s in (1, -1)})
    m = len(nodes)
    weights = [Fraction(math.comb(m - 1, i), 2 ** (m - 1)) for i in range(m)]
    even = [sum(w * x ** (2 * k) for w, x in zip(weights, nodes)) for k in range(m + 1)]
    assert all(Fraction(float(v)) == v for v in even)
    h = _stieltjes_norms(nodes, weights, m)
    assert h[m] == 0 and all(v > 0 for v in h[:m])
    want = np.array([_rounded_root(r.numerator, r.denominator)
                     for r in (h[k + 1] / h[k] for k in range(m - 1))])
    with pytest.raises(SupportExhaustedError) as exc:
        coefficients_from_moments(MomentSequence([float(v) for v in even]), m)
    assert exc.value.depth == m - 1
    rel = np.abs(exc.value.partial - want) / want
    # exact roots rounded once: equal under 80-bit longdouble
    assert np.max(rel) <= 16 * np.finfo(polyrec._LD).eps


def test_exhaustion_not_raised_when_enough():
    ch = coefficients_from_moments(two_point_even_moments(6), 1)
    assert ch.b.tolist() == pytest.approx([1.0])


def test_round_trip_fixed_chain():
    b = np.array([0.8, 1.7, 0.45, 1.05, 1.9])
    ch = RecurrenceCoefficients(b=b)
    nodes, w = gauss_quadrature(ch, 6)
    mom = MomentSequence.from_quadrature(nodes, w, 6)
    back = coefficients_from_moments(mom, 5)
    assert np.max(np.abs(back.b - b) / b) < 1e-11


def test_moment_round_trip_recipe():
    ch = RecurrenceCoefficients(b=[0.8, 1.7, 0.45, 1.05, 1.9])
    mom, back, rel = moment_round_trip(ch, 4)
    nodes, w = gauss_quadrature(ch, 5)
    want = MomentSequence.from_quadrature(nodes, w, 5)
    assert np.array_equal(mom.even, want.even)
    assert np.array_equal(back.b, coefficients_from_moments(want, 4).b)
    assert np.array_equal(rel, np.abs(back.b - ch.b[:4]) / ch.b[:4])
    assert np.max(rel) < 1e-11


@given(st.lists(st.floats(0.5, 1.8), min_size=2, max_size=6))
def test_round_trip_property(bs):
    ch = RecurrenceCoefficients(b=bs)
    n = len(bs)
    nodes, w = gauss_quadrature(ch, n + 1)
    mom = MomentSequence.from_quadrature(nodes, w, n + 1)
    back = coefficients_from_moments(mom, n)
    assert np.max(np.abs(back.b - ch.b) / ch.b) < 1e-9


def test_leading_moment_anchors(rng):
    # b_0^2 = mu_2 and b_1^2 = mu_4/mu_2 - mu_2, directly from the first two
    # Chebyshev steps.
    b = rng.uniform(0.3, 2.0, 4)
    ch = RecurrenceCoefficients(b=b)
    nodes, w = gauss_quadrature(ch, 5)
    mom = MomentSequence.from_quadrature(nodes, w, 5)
    assert mom.moment(2) == pytest.approx(b[0] ** 2, abs=1e-12)
    assert mom.moment(4) / mom.moment(2) - mom.moment(2) == pytest.approx(
        b[1] ** 2, abs=1e-12
    )


class TestMomentSequence:
    def test_odd_moments_vanish(self):
        mom = gaussian_even_moments(4)
        assert mom.moment(3) == 0.0
        assert mom.moment(1) == 0.0

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            MomentSequence([2.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MomentSequence([])

    def test_missing_moment_raises(self):
        mom = gaussian_even_moments(3)
        with pytest.raises(IndexError):
            mom.moment(6)


def test_needs_enough_moments():
    with pytest.raises(ValueError):
        coefficients_from_moments(gaussian_even_moments(3), 3)


def test_canonical_orthogonality_helper():
    ch = RecurrenceCoefficients(b=[1.2, 0.7, 1.6, 0.9])
    assert verify_canonical_orthogonality(ch, 4) < 1e-12
