"""Signed portfolio-weight calculus with shorting.

A weight vector has length m+1: index 0 is cash, the last index is the
investment benchmark, everything in between is a risky asset. Negative
weights are short positions. Valid weights satisfy

    sum(|w_i|) == 1,   w_0 in [0, 1]   (cash cannot be shorted).

All functions are pure and operate on plain float64 numpy arrays, on the last
axis: one weight vector, or rows of them, each row getting the bits it would alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateActionError, RuinError

WEIGHT_SUM_TOL = 1e-9


def validate_weights(w: np.ndarray) -> None:
    w = np.asarray(w)
    if w.ndim < 1 or w.shape[-1] < 2:
        raise ValueError(f"weights must be vectors of length >= 2, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights contain non-finite entries")
    s = np.abs(w).sum(axis=-1)
    if np.abs(s - 1.0).max() > WEIGHT_SUM_TOL:
        raise ValueError(f"|w| sums to {s!r}, expected 1")
    if w[..., 0].min() < 0 or w[..., 0].max() > 1 + 1e-12:
        raise ValueError(f"cash weight {w[..., 0]!r} outside [0, 1]")


def initial_weights(num_assets: int) -> np.ndarray:
    """All-cash starting book: (1, 0, ..., 0) over cash plus num_assets risky slots."""
    if num_assets < 1:
        raise ValueError("need at least one risky asset")
    w = np.zeros(num_assets + 1)
    w[0] = 1.0
    return w


def normalize_signed(raw: np.ndarray) -> np.ndarray:
    """Clamp the cash entry to be non-negative, then scale so |w| sums to one. A vector
    all zero after clamping reads as all cash."""
    w = np.array(raw, dtype=np.float64)
    if w.ndim < 1 or w.shape[-1] < 2:
        raise ValueError(f"raw action must be a vector of length >= 2, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("raw action contains non-finite entries")
    # max(cash, 0.0): a cash entry of -0.0 stays as it is.
    np.copyto(w[..., 0], 0.0, where=w[..., 0] < 0)
    total = np.abs(w).sum(axis=-1, keepdims=True)
    zero = total == 0.0
    if zero.any():
        np.copyto(w, initial_weights(w.shape[-1] - 1), where=zero)
        np.copyto(total, 1.0, where=zero)
    return w / total


def shorted_weight(short_value: float, other_values_abs_sum: float) -> float:
    """Weight of a shorted position: minus its market value over total absolute exposure."""
    if short_value <= 0:
        raise ValueError("short position value must be positive")
    if other_values_abs_sum < 0:
        raise ValueError("aggregate of other position values cannot be negative")
    return -short_value / (other_values_abs_sum + short_value)


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
    if (y <= 0).any() or not np.isfinite(y).all():
        raise ValueError("price relatives must be strictly positive and finite")
    v = w_prev * y
    total = np.abs(v).sum(axis=-1, keepdims=True)
    if (total == 0.0).any():
        raise DegenerateActionError("weights are all zero")
    return v / total


def transaction_cost(w_drifted: np.ndarray, w_target: np.ndarray, mu: float) -> float | np.ndarray:
    """Cost rate of trading the drifted book into the target book.

    Only risky slots trade; the cash entry is excluded from the turnover sum.
    """
    if mu < 0:
        raise ValueError("cost rate must be non-negative")
    w_drifted = np.asarray(w_drifted, dtype=np.float64)
    w_target = np.asarray(w_target, dtype=np.float64)
    if w_drifted.shape != w_target.shape:
        raise ValueError("weight vectors differ in length")
    cost = mu * np.abs(w_drifted[..., 1:] - w_target[..., 1:]).sum(axis=-1)
    return cost if cost.ndim else float(cost)


def weighted_log_return(
    w_prev: np.ndarray, y: np.ndarray, leverage: np.ndarray | None = None
) -> float | np.ndarray:
    """Per-day portfolio log return: leverage * log price relatives dotted with weights."""
    w_prev = np.asarray(w_prev, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if (y <= 0).any():
        raise ValueError("price relatives must be strictly positive")
    lam = np.ones(w_prev.shape[-1:]) if leverage is None else np.asarray(leverage, np.float64)
    if lam.shape != w_prev.shape[-1:] or not ((lam > 0) & (lam < np.inf)).all():
        raise ValueError("leverage must be a positive finite vector matching the weights")
    # A stacked matmul gives each row the bits np.dot gives it alone; einsum does not.
    growth = np.matmul((lam * np.log(y))[..., None, :], w_prev[..., :, None])[..., 0, 0]
    return growth if growth.ndim else float(growth)


def step_value(
    rho_prev: float,
    w_prev: np.ndarray,
    y: np.ndarray,
    cost: float | np.ndarray,
    leverage: np.ndarray | None = None,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The portfolio value recursion.

    Returns (new value, daily log return). The value compounds the weights
    held before the price move, discounted by the day's cost rate:

        value = rho_prev * (1 - cost) * exp(sum_i leverage_i * log(y_i) * w_i)

    Given rows of weights and relatives, one per consecutive day, and a cost
    per day, the value compounds through the days: both results are per day.
    """
    if rho_prev <= 0:
        raise ValueError("portfolio value must be positive")
    cost = np.asarray(cost, dtype=np.float64)
    if cost.max() >= 1.0:
        raise RuinError(f"cost rate {cost.max()} >= 1 wipes out the portfolio")
    if cost.min() < 0:
        raise ValueError("cost rate cannot be negative")
    growth = weighted_log_return(w_prev, y, leverage)
    gamma = np.log1p(-cost) + growth
    # Day by day (rho * (1 - cost)) * exp(growth), rounded in that order.
    factors = np.array([1.0 - cost, np.exp(growth)]).T.ravel()
    rho = np.multiply.accumulate(np.concatenate([[rho_prev], factors]))[2::2]
    return (float(rho[0]), float(gamma)) if cost.ndim == 0 else (rho, gamma)
