"""Signed portfolio-weight calculus with shorting.

A weight vector has length m+1: index 0 is cash, the last index is the
investment benchmark, everything in between is a risky asset. Negative
weights are short positions. Valid weights satisfy

    sum(|w_i|) == 1,   w_0 in [0, 1]   (cash cannot be shorted).

All functions are pure and operate on plain float64 numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateActionError, RuinError

WEIGHT_SUM_TOL = 1e-9


def validate_weights(w: np.ndarray, tol: float = WEIGHT_SUM_TOL) -> None:
    w = np.asarray(w)
    if w.ndim != 1 or w.shape[0] < 2:
        raise ValueError(f"weights must be a vector of length >= 2, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights contain non-finite entries")
    s = np.abs(w).sum()
    if abs(s - 1.0) > tol:
        raise ValueError(f"|w| sums to {s!r}, expected 1")
    if w[0] < 0 or w[0] > 1 + 1e-12:
        raise ValueError(f"cash weight {w[0]!r} outside [0, 1]")


def initial_weights(num_assets: int) -> np.ndarray:
    """All-cash starting book: (1, 0, ..., 0) over cash plus num_assets risky slots."""
    if num_assets < 1:
        raise ValueError("need at least one risky asset")
    w = np.zeros(num_assets + 1)
    w[0] = 1.0
    return w


def normalize_signed(raw: np.ndarray) -> np.ndarray:
    """Clamp the cash entry to be non-negative, then scale so |w| sums to one."""
    w = np.array(raw, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] < 2:
        raise ValueError(f"raw action must be a vector of length >= 2, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("raw action contains non-finite entries")
    w[0] = max(w[0], 0.0)
    total = np.abs(w).sum()
    if total == 0.0:
        raise DegenerateActionError("action is all zero after cash clamping")
    return w / total


def shorted_weight(short_value: float, other_values_abs_sum: float) -> float:
    """Weight of a shorted position: minus its market value over total absolute exposure."""
    if short_value <= 0:
        raise ValueError("short position value must be positive")
    if other_values_abs_sum < 0:
        raise ValueError("aggregate of other position values cannot be negative")
    denom = other_values_abs_sum + short_value
    if denom <= 0:
        raise DegenerateActionError("total exposure is zero")
    return -short_value / denom


def enforce_arbitrage_batch(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forbid the benchmark from siding with the rest of the risky book.

    Works on the last axis, so ``w`` is one weight vector or a batch of rows.
    Where the benchmark weight is nonzero, some other risky weight is nonzero,
    and all nonzero risky weights share one sign, the benchmark's sign is
    reversed; the absolute-value sum is untouched. Returns (weights, flipped),
    with ``flipped`` true where the benchmark's sign was reversed.
    """
    w = np.asarray(w, dtype=np.float64)
    # The other risky weights times the benchmark's sign (exact: a factor of
    # -1, 0 or 1): the rule applies where one is positive and none negative.
    aligned = w[..., 1:-1] * np.sign(w[..., -1])[..., None]
    flip = (aligned > 0).any(axis=-1) & ~(aligned < 0).any(axis=-1)
    out = w.copy()
    np.negative(out[..., -1], out=out[..., -1], where=flip)
    return out, flip


def enforce_arbitrage(w: np.ndarray) -> np.ndarray:
    """The sign rule on one weight vector: ``enforce_arbitrage_batch`` without the mask."""
    return enforce_arbitrage_batch(w)[0]


def evolve_weights(w_prev: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Passive weight drift under a day's price relatives.

    Each signed position value scales by its price relative; weights are the
    scaled values renormalized by the sum of their absolute values.
    """
    w_prev = np.asarray(w_prev, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != w_prev.shape:
        raise ValueError(f"shape mismatch: weights {w_prev.shape}, relatives {y.shape}")
    if np.any(y <= 0) or not np.all(np.isfinite(y)):
        raise ValueError("price relatives must be strictly positive and finite")
    v = w_prev * y
    total = np.abs(v).sum()
    if total == 0.0:
        raise DegenerateActionError("weights are all zero")
    return v / total


def transaction_cost(w_drifted: np.ndarray, w_target: np.ndarray, mu: float) -> float:
    """Cost rate of trading the drifted book into the target book.

    Only risky slots trade; the cash entry is excluded from the turnover sum.
    """
    if mu < 0:
        raise ValueError("cost rate must be non-negative")
    w_drifted = np.asarray(w_drifted, dtype=np.float64)
    w_target = np.asarray(w_target, dtype=np.float64)
    if w_drifted.shape != w_target.shape:
        raise ValueError("weight vectors differ in length")
    return mu * float(np.abs(w_drifted[1:] - w_target[1:]).sum())


def weighted_log_return(
    w_prev: np.ndarray, y: np.ndarray, leverage: np.ndarray | None = None
) -> float:
    """Per-day portfolio log return: leverage * log price relatives dotted with weights."""
    w_prev = np.asarray(w_prev, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("price relatives must be strictly positive")
    lam = np.ones_like(w_prev) if leverage is None else np.asarray(leverage, dtype=np.float64)
    if lam.shape != w_prev.shape or np.any(lam <= 0):
        raise ValueError("leverage must be a positive vector matching the weights")
    return float(np.dot(lam * np.log(y), w_prev))


def step_value(
    rho_prev: float,
    w_prev: np.ndarray,
    y: np.ndarray,
    cost: float,
    leverage: np.ndarray | None = None,
) -> tuple[float, float]:
    """One day of the portfolio value recursion.

    Returns (new value, daily log return). The value compounds the weights
    held before the price move, discounted by the day's cost rate:

        value = rho_prev * (1 - cost) * exp(sum_i leverage_i * log(y_i) * w_i)
    """
    if rho_prev <= 0:
        raise ValueError("portfolio value must be positive")
    if cost >= 1.0:
        raise RuinError(f"cost rate {cost} >= 1 wipes out the portfolio")
    if cost < 0:
        raise ValueError("cost rate cannot be negative")
    growth = weighted_log_return(w_prev, y, leverage)
    gamma = float(np.log1p(-cost) + growth)
    rho = float(rho_prev * (1.0 - cost) * np.exp(growth))
    return rho, gamma
