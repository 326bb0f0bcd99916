"""The signed-weight calculus: shorting, drift, trading costs and value.

Weights live on the absolute-value simplex: sum(|w_i|) == 1 with a
non-negative cash slot. A negative weight is a short position sized by its
market value over the book's total absolute exposure.
"""

import numpy as np

from drlfolio import (
    enforce_arbitrage_batch,
    evolve_weights,
    initial_weights,
    normalize_signed,
    shorted_weight,
    step_value,
    transaction_cost,
)

# Shorting 300k of stock against a 700k book pins the short at -0.3.
print("short sizing:", shorted_weight(300_000, 700_000))

# Raw actor outputs are scaled onto the simplex after clamping cash at zero.
raw = np.array([0.2, 1.5, -0.5, -1.0])
w = normalize_signed(raw)
print("normalized:", np.round(w, 4), "| sum of |w| =", np.abs(w).sum())

# The benchmark (last slot) may not side with the rest of the risky book:
# a one-sided book gets its benchmark sign reversed.
one_sided = normalize_signed(np.array([0.1, 0.5, 0.2, 0.2]))
print("before sign rule:", np.round(one_sided, 4))
flipped_book, flipped = enforce_arbitrage_batch(one_sided)
print("after  sign rule:", np.round(flipped_book, 4), "| benchmark flipped:", bool(flipped))

# Prices move, weights drift passively: values scale, then renormalize.
w = normalize_signed(np.array([0.2, 0.5, -0.3]))
y = np.array([1.0, 1.05, 0.97])
drifted = evolve_weights(w, y)
print("\nheld    :", np.round(w, 4))
print("drifted :", np.round(drifted, 4), "(long grew, short shrank in magnitude)")

# Rebalancing from the drifted book back to the target charges turnover
# on the risky slots only.
cost = transaction_cost(drifted, w, mu=0.0025)
print(f"cost of trading back to target: {cost:.6f}")

# One day of the value recursion: cost discount, then log-linear growth.
value, log_ret = step_value(1.0, w, y, cost)
print(f"value 1.0 -> {value:.6f}, daily log return {log_ret:.6f}")

# A short position gains when its price falls.
value, log_ret = step_value(1.0, np.array([0.0, -1.0]), np.array([1.0, 0.9]), 0.0)
print(f"\nfull short into a 10% drop: log return {log_ret:+.5f}")

# And the all-cash start every episode begins from:
print("initial book:", initial_weights(4))
