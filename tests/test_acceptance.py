"""Acceptance battery: every shipped criterion must hold at its stated bound.

One test (and one printed pass/fail line) per criterion; the measured value
and the bound travel with the assertion message so a failure is readable on
its own.
"""

import math

import numpy as np
import pytest

import polyosc.coherent as co
from polyosc import krawtchouk as kr
from polyosc.acceptance import ALL_CRITERIA, criterion_4, criterion_7, criterion_8, worst_of


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=[f.__name__ for f in ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_worst_of_counts_non_finite_as_infinite():
    assert worst_of(0.0, 3e-9, np.array([1e-12, 2e-9])) == 3e-9
    assert worst_of() == 0.0
    assert worst_of(1e-9, float("nan")) == math.inf
    assert worst_of(np.array([1e-9, np.inf])) == math.inf
    # an empty array of residuals (no distinct root pair at N = 0) adds nothing
    assert worst_of(np.array([])) == 0.0
    assert worst_of(1e-9, np.zeros((0, 3))) == 1e-9


def test_nan_closed_form_fails_criterion_4(monkeypatch):
    def nan_state(chain, z, dim=None):
        return np.full(len(co.coherent_via_exponential(chain, z, dim=dim)), np.nan + 0j)

    monkeypatch.setattr(co, "coherent_closed_form", nan_state)
    result = criterion_4()
    assert not result.passed
    assert result.measured == math.inf


def test_criterion_8_reads_criterion_7s_last_records():
    # criterion 8 visits 60 (p, N) points and kr._lattice keeps 32 records:
    # the 32 criterion 7 left are all hits, so 28 records are built
    kr._lattice.cache_clear()
    criterion_7()
    before = kr._lattice.cache_info()
    criterion_8()
    after = kr._lattice.cache_info()
    assert after.misses - before.misses == 28
