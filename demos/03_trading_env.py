"""Stepping the daily trading process.

Each step: the submitted action becomes a valid weight vector, the cost of
trading out of yesterday's drifted book is charged, and the portfolio rides
the next day's price relatives. Rewards are daily log returns, so they sum
to the log of the final portfolio value.
"""

import numpy as np

from drlfolio import EnvConfig, TradingEnv
from drlfolio.synthetic import drift_market

market = drift_market(400, [0.01, 0.0, 0.0], sigma=0.0, seed=42)
config = EnvConfig(window=10, episode_len=20, mu=0.0025)
env = TradingEnv(market, config)

# Episodes start on a uniformly sampled day with a full window behind it.
state = env.reset(rng=7)
print(f"episode starts on day {state.t}, value {state.value}, "
      f"weights {state.weights}")
print(f"observation block shape: {state.obs.shape}")

# Hold the drifting asset; day one pays the full entry cost.
hold = np.array([0.0, 1.0, 0.0, 0.0])
trajectory = []
done = False
while not done:
    tr = env.step(hold)
    trajectory.append(tr)
    done = tr.done

print(f"\nfirst-day cost rate: {0.0025:.4f} (entry), later days trade the "
      f"drift only:")
print("rewards:", np.round([t.reward for t in trajectory[:5]], 5), "...")
print(f"mean daily reward: {np.mean([t.reward for t in trajectory]):.5f}")

final = trajectory[-1].next_state
total = sum(t.reward for t in trajectory)
print(f"\nsum of rewards      : {total:.8f}")
print(f"log(final / initial): {np.log(final.value):.8f}  (telescoping)")

# The same seed reproduces the same episode exactly.
assert env.reset(rng=7).t == state.t
print("\nsame seed, same start day: reproducible")
