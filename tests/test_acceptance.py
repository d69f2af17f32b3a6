"""Acceptance battery: every shipped criterion must hold at its stated bound.

One test (and one printed pass/fail line) per criterion; the measured value
and the bound travel with the assertion message so a failure is readable on
its own.
"""

import math

import numpy as np
import pytest

import polyosc.coherent as co
from polyosc.acceptance import ALL_CRITERIA, criterion_4, worst_of


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
