"""The benchmark's output checks fire on bad outputs and pass good ones.

Run from the repository root: python3 -m pytest bench/tests
"""

import numpy as np
import pytest

import checks
from drlfolio.portfolio_math import validate_weights


def test_valid_weight_rows_pass():
    checks.weight_rows_valid(np.array([[1.0, 0.0, 0.0], [0.25, -0.5, 0.25]]), validate_weights)


def test_invalid_weight_row_fires():
    rows = np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.4]])  # |w| sums to 1.1
    with pytest.raises(checks.CheckFailed, match="row 1"):
        checks.weight_rows_valid(rows, validate_weights)


def test_telescoping_series_passes():
    log_returns = np.array([0.01, -0.02, 0.005])
    values = np.exp(np.concatenate([[0.0], np.cumsum(log_returns)]))
    checks.telescopes(log_returns, values)


def test_non_telescoping_series_fires():
    log_returns = np.array([0.01, -0.02, 0.005])
    values = np.exp(np.concatenate([[0.0], np.cumsum(log_returns)]))
    values[-1] *= 1.0 + 1e-8
    with pytest.raises(checks.CheckFailed, match="log returns miss"):
        checks.telescopes(log_returns, values)


def test_factor_book_check():
    good = np.array([[0.0, 0.25, 0.25, -0.25, -0.25, 0.0, 0.0]])
    checks.factor_weights_valid(good, long_n=2, short_n=2)
    bad = good.copy()
    bad[0, 5] = 0.25
    with pytest.raises(checks.CheckFailed):
        checks.factor_weights_valid(bad, long_n=2, short_n=2)
