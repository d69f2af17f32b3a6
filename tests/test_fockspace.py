import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyosc import (
    ChainError,
    RecurrenceCoefficients,
    boson_chain,
    build_symmetric_oscillator,
    expected_truncated_spectrum,
    spectrum,
)
import polyosc
from polyosc import krawtchouk as kr
from conftest import random_truncated_chain

b_values = st.lists(st.floats(0.3, 2.0), min_size=1, max_size=7)

VIEWS = ("position", "momentum", "hamiltonian", "lower", "raise_")


def dense_oscillator(chain, dim):
    """The operators built as dense matrices up front (test oracle).

    Returns {view name: matrix} for the zero-diagonal chain on dim states.
    """
    off = chain.b[: dim - 1]
    diag = np.zeros(dim)
    X = np.diag(diag).astype(complex) + np.diag(off, 1) + np.diag(off, -1)
    P = np.diag(diag).astype(complex) + 1j * np.diag(off, 1) - 1j * np.diag(off, -1)
    H = X @ X + P @ P
    lower = (X - 1j * P) / np.sqrt(2.0)
    raise_ = (X + 1j * P) / np.sqrt(2.0)
    return dict(position=X, momentum=P, hamiltonian=H, lower=lower, raise_=raise_)


def commutator(A, B):
    return A @ B - B @ A


def ladder_commutator_defect(ops):
    """[a_minus, a_plus] and its predicted form, for comparison (test oracle).

    Prediction: diagonal 2(b_n^2 - b_{n-1}^2) for n < dim-1 and
    -2 b_{dim-2}^2 in the last slot (the truncation defect).
    """
    got = commutator(ops.lower, ops.raise_)
    b2 = np.zeros(ops.dim + 1)
    b2[1 : ops.dim] = ops.b**2
    return got, np.diag(2.0 * (b2[1:] - b2[:-1])).astype(complex)


def test_boson_hamiltonian_is_odd_integers():
    # X^2 + P^2 with b_k = sqrt((k+1)/2) gives the diagonal 2n + 1 exactly
    # on the interior; the level above the cut is missing from the top slot.
    ops = build_symmetric_oscillator(boson_chain(5), dim=5)
    H = ops.hamiltonian
    assert np.max(np.abs(H - np.diag(H.diagonal()))) < 1e-14
    assert np.allclose(H.diagonal().real[:4], [1.0, 3.0, 5.0, 7.0])
    assert H.diagonal().real[4] == pytest.approx(2.0 * 4 / 2.0)  # 2 b_3^2


def test_truncated_chain_infers_dimension():
    ch = RecurrenceCoefficients(b=[1.0, 1.5, 0.0])
    ops = build_symmetric_oscillator(ch)
    assert ops.dim == 3


def test_ladder_matrix_elements(rng):
    ch = random_truncated_chain(rng)
    ops = build_symmetric_oscillator(ch)
    n = ops.dim
    for k in range(n - 1):
        assert ops.raise_[k + 1, k] == pytest.approx(np.sqrt(2.0) * ch.b[k])
        assert ops.lower[k, k + 1] == pytest.approx(np.sqrt(2.0) * ch.b[k])
    # nothing anywhere else
    assert np.max(np.abs(ops.raise_ - np.diag(ops.raise_.diagonal(-1), -1))) < 1e-14


def test_hamiltonian_from_ladders(rng):
    # H = raise lower + lower raise (the symmetrized product) reproduces
    # X^2 + P^2 for zero-diagonal chains.
    ch = random_truncated_chain(rng)
    ops = build_symmetric_oscillator(ch)
    H2 = ops.raise_ @ ops.lower + ops.lower @ ops.raise_
    assert np.max(np.abs(H2 - ops.hamiltonian)) < 1e-12


@given(b_values)
def test_commutator_defect_prediction(bs):
    n = len(bs)
    b = np.zeros(n + 1)
    b[:n] = bs
    ops = build_symmetric_oscillator(RecurrenceCoefficients(b=b))
    got, pred = ladder_commutator_defect(ops)
    assert np.max(np.abs(got - pred)) < 1e-12


class TestViewsMatchDenseOracle:
    def test_random_chains(self, rng):
        for _ in range(25):
            ch = random_truncated_chain(rng, max_levels=30)
            dim = ch.valid_depth + 1
            ops = build_symmetric_oscillator(ch)
            want = dense_oscillator(ch, dim)
            for name in VIEWS:
                assert np.array_equal(getattr(ops, name), want[name]), name

    def test_open_chain_window(self):
        ch = boson_chain(40)
        for dim in (1, 2, 17, 41):
            ops = build_symmetric_oscillator(ch, dim=dim)
            want = dense_oscillator(ch, dim)
            for name in VIEWS:
                assert np.array_equal(getattr(ops, name), want[name]), (dim, name)

    @pytest.mark.parametrize("p", (0.3, 0.5, 0.83))
    def test_krawtchouk(self, p):
        for N in range(1, 41):
            ops = build_symmetric_oscillator(kr.symmetric_chain(p, N))
            want = dense_oscillator(kr.symmetric_chain(p, N), N + 1)
            for name in VIEWS:
                assert np.array_equal(getattr(ops, name), want[name]), (N, name)


def test_nonzero_diagonal_rejected():
    ch = RecurrenceCoefficients(b=[1.0, 1.5, 0.0], a=[0.0, 0.2, 0.0])
    with pytest.raises(ChainError):
        build_symmetric_oscillator(ch)


def test_import_skips_scipy_optimize():
    code = "import sys, polyosc; print('scipy.optimize' in sys.modules)"
    src = str(Path(polyosc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=60).stdout
    assert out.strip() == "False"


def test_spectrum_rejects_off_diagonal_hamiltonian():
    H = np.diag([1.0, 3.0, 5.0]).astype(complex)
    H[0, 2] = 1e-300
    with pytest.raises(ArithmeticError):
        spectrum(SimpleNamespace(hamiltonian=H))


def test_spectrum_matches_prediction(rng):
    for _ in range(5):
        ch = random_truncated_chain(rng)
        ops = build_symmetric_oscillator(ch)
        vals, vecs = spectrum(ops)
        want = expected_truncated_spectrum(ch)
        assert np.max(np.abs(vals - want)) < 1e-10
        # vectors actually diagonalize H with the paired values
        H = ops.hamiltonian
        for k in range(ops.dim):
            r = H @ vecs[:, k] - vals[k] * vecs[:, k]
            assert np.max(np.abs(r)) < 1e-9


def test_spectrum_pairing_handles_degenerate_levels():
    # b = (c, c, 0) has lambda_0 = lambda_2 = 2c^2: the assignment must give
    # each number state its own copy instead of the same eigenvalue twice
    # from a greedy argmax.
    ch = RecurrenceCoefficients(b=[1.3, 1.3, 0.0])
    ops = build_symmetric_oscillator(ch)
    vals, _ = spectrum(ops)
    want = expected_truncated_spectrum(ch)
    assert np.allclose(np.sort(vals), np.sort(want), atol=1e-12)
    assert np.allclose(vals, want, atol=1e-12)


def test_expected_spectrum_open_chain_uses_window_only():
    ch = boson_chain(9)
    want = expected_truncated_spectrum(ch, dim=4)
    # levels 2(b_{k-1}^2 + b_k^2) = 2k+1 internally, top misses b_3^2
    assert np.allclose(want, [1.0, 3.0, 5.0, 2.0 * 3 / 2.0 + 0.0 * 4])


def test_default_dim_is_the_chain_states(rng):
    ch = random_truncated_chain(rng)
    ops = build_symmetric_oscillator(ch)
    assert ops.dim == ch.states() == ch.valid_depth + 1
    assert len(expected_truncated_spectrum(ch)) == ops.dim


def test_dim_past_the_first_zero_raises():
    # b_10 = 0: the 12th state would decouple with level 0
    ch = kr.symmetric_chain(0.3, 10)
    for build in (build_symmetric_oscillator, expected_truncated_spectrum):
        with pytest.raises(ChainError, match="need 11 nonzero coefficients, chain has 10"):
            build(ch, dim=12)
    assert build_symmetric_oscillator(ch, dim=11).dim == 11


def test_commutator_helper():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(commutator(A, A.T), np.diag([1.0, -1.0]))


def test_dimension_validation():
    ch = RecurrenceCoefficients(b=[1.0, 1.0])
    with pytest.raises(ValueError):
        build_symmetric_oscillator(ch, dim=0)
    with pytest.raises(ValueError):
        build_symmetric_oscillator(ch, dim=9)
