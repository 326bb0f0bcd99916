"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written the slow, obvious way (explicit loops,
scalar accounting, normal equations) and must stay decoupled from the package
code paths it checks.
"""

import csv
import datetime
import io
import re
from pathlib import Path

import numpy as np

from drlfolio.analytics import BacktestReport
from drlfolio.baseline_factor import FactorPanel
from drlfolio.ddpg import policy_weights
from drlfolio.errors import FormatError
from drlfolio.market_data import AlignedMarket
from drlfolio.trading_env import TradingEnv

DATE = "[0-9]{4}-[0-9]{2}-[0-9]{2}"


def evolve_by_value_accounting(w, y):
    """Track signed position values through one day, then re-read the weights."""
    values = [wi * yi for wi, yi in zip(w, y)]
    total = sum(abs(v) for v in values)
    return np.array([v / total for v in values])


def cost_by_sum(w_drifted, w_target, mu):
    total = 0.0
    for a, b in zip(w_drifted[1:], w_target[1:]):
        total += abs(a - b)
    return mu * total


def dot_log_return(w, y, lam=None):
    if lam is None:
        lam = [1.0] * len(w)
    return sum(l * np.log(yi) * wi for l, yi, wi in zip(lam, y, w))


def sign_rule_by_cases(w):
    """The benchmark sign rule case by case: (weights, flipped) for one vector."""
    risky = list(w[1:])
    others = [x for x in risky[:-1] if x != 0]
    if risky[-1] == 0 or not others:
        return np.array(w, dtype=np.float64), False
    if any(x > 0 for x in risky) and any(x < 0 for x in risky):
        return np.array(w, dtype=np.float64), False
    out = np.array(w, dtype=np.float64)
    out[-1] = -out[-1]
    return out, True


def single_long_asset_bookkeeping(prices, value0=1.0):
    """Fully invested long in one asset: constant share count, cash zero."""
    shares = value0 / prices[0]
    return [shares * p for p in prices]


def conv2d_naive(x, weight, bias):
    """Valid-padding stride-1 cross-correlation with quadruple loops."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    ho, wo = h - kh + 1, w - kw + 1
    out = np.zeros((n, c_out, ho, wo))
    for b in range(n):
        for o in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(c_in):
                        for p in range(kh):
                            for q in range(kw):
                                acc += x[b, c, i + p, j + q] * weight[o, c, p, q]
                    out[b, o, i, j] = acc + bias[o]
    return out


def conv2d_backward_naive(x, weight, dout):
    """Gradients of sum(dout * conv2d_naive(x, weight, bias)) for weight, bias and x, by loops."""
    n, c_in, _, _ = x.shape
    c_out, _, kh, kw = weight.shape
    _, _, ho, wo = dout.shape
    d_weight = np.zeros(weight.shape)
    d_bias = np.zeros(c_out)
    dx = np.zeros(x.shape)
    for b in range(n):
        for o in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    g = dout[b, o, i, j]
                    d_bias[o] += g
                    for c in range(c_in):
                        for p in range(kh):
                            for q in range(kw):
                                d_weight[o, c, p, q] += g * x[b, c, i + p, j + q]
                                dx[b, c, i + p, j + q] += g * weight[o, c, p, q]
    return d_weight, d_bias, dx


def dense_naive(x, weight, bias):
    n, d = x.shape
    _, u = weight.shape
    out = np.zeros((n, u))
    for b in range(n):
        for k in range(u):
            acc = 0.0
            for i in range(d):
                acc += x[b, i] * weight[i, k]
            out[b, k] = acc + bias[k]
    return out


def critic_input_by_concat(states, weights):
    """The critic's five-channel input built out: risky weight i fills row i of
    a fifth channel at every time step of its (4, m, n) price block."""
    n_batch, _, m, window = states.shape
    channel = np.empty((n_batch, 1, m, window))
    for b in range(n_batch):
        for i in range(m):
            channel[b, 0, i, :] = weights[b][i + 1]
    return np.concatenate([states, channel], axis=1)


def actor_grad_by_critic_input(actor, critic, states, arbitrage):
    """Actor gradient of the deployed policy's loss, minus its mean Q, through the critic's input.

    The critic's full five-channel input gradient, its action channel summed
    over time, then the policy's VJP and the actor's backward pass. Returns
    a copy of the actor's gradient buffer.
    """
    weights, weights_vjp = policy_weights(actor.forward(states), arbitrage)
    q = critic.forward(critic_input_by_concat(states, weights))
    d_input = critic.backward(np.full_like(q, -1.0 / q.shape[0]), param_grads=False)
    d_weights = np.zeros_like(weights)
    d_weights[:, 1:] = d_input[:, 4, :, :].sum(axis=2)
    actor.backward(weights_vjp(d_weights), input_grad=False)
    return actor.grad.copy()


def central_difference(f, arr, index, h=1e-4):
    """d f / d arr[index] by central differences; f is a scalar function of no args."""
    old = arr[index]
    arr[index] = old + h
    fp = f()
    arr[index] = old - h
    fm = f()
    arr[index] = old
    return (fp - fm) / (2.0 * h)


def relative_error(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def ols_by_normal_equations(x, y):
    """Slope/intercept from the 2x2 normal equations, solved by hand."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    sx, sy, sxx, sxy = x.sum(), y.sum(), (x * x).sum(), (x * y).sum()
    det = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / det
    intercept = (sy * sxx - sx * sxy) / det
    return slope, intercept


def mdd_by_scan(values):
    worst = 0.0
    peak = values[0]
    for v in values:
        peak = max(peak, v)
        worst = max(worst, (peak - v) / peak)
    return worst


def soft_update_elementwise(target, online, tau):
    out = []
    for t, o in zip(target, online):
        blended = np.empty_like(t)
        flat_t, flat_o, flat_b = t.ravel(), o.ravel(), blended.ravel()
        for i in range(flat_t.size):
            flat_b[i] = tau * flat_o[i] + (1.0 - tau) * flat_t[i]
        out.append(blended)
    return out


def adam_per_array(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam applied array by array to copies of ``params``, one step per gradient list."""
    params = [p.copy() for p in params]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, 1):
        b1t = 1.0 - beta1**t
        b2t = 1.0 - beta2**t
        for p, g, m, v in zip(params, grads, ms, vs):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            p -= lr * (m / b1t) / (np.sqrt(v / b2t) + eps)
    return params


def price_window_by_loops(market, t, window):
    """The (4, m, window) observation of day t, element by element: each price over the
    asset's close on day t, 1 where either is missing, and the last close exactly 1."""
    features = (market.close, market.high, market.low, market.open)
    out = np.ones((4, market.n_assets, window))
    for f, prices in enumerate(features):
        for i in range(market.n_assets):
            denom = market.close[i, t]
            for j in range(window):
                price = prices[i, t - window + 1 + j]
                if denom > 0 and price > 0:
                    out[f, i, j] = price / denom
    out[0, :, -1] = 1.0
    return out


def batch_arrays(batch):
    """A list of Transitions stacked into (states, actions, rewards, next_states, dones)."""
    states = np.stack([tr.state.obs for tr in batch])
    actions = np.stack([tr.action for tr in batch])
    rewards = np.array([tr.reward for tr in batch])[:, None]
    next_states = np.stack([tr.next_state.obs for tr in batch])
    dones = np.array([1.0 if tr.done else 0.0 for tr in batch])[:, None]
    return states, actions, rewards, next_states, dones


class ReplayByTransitions:
    """The replay ring as a list of Transition objects; a sample stacks the drawn ones."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.storage = []
        self.cursor = 0

    def add(self, transition):
        if len(self.storage) < self.capacity:
            self.storage.append(transition)
        else:
            self.storage[self.cursor] = transition
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, batch_size, rng):
        idx = rng.integers(0, len(self.storage), size=batch_size)
        return batch_arrays([self.storage[i] for i in idx])


def backtest_by_steps(policy, market, config, start, end):
    """``run_backtest`` one environment step per day, asking ``policy(state)`` for each
    day's raw action. The environment holds only the days the run reads, so its
    states count days from the first day of the start's window."""
    lo = start - config.window + 1
    env = TradingEnv(market.restrict(lo, end), config)
    state = env.start_at(start - lo, end - start)
    values, weights, costs, log_returns = [], [], [], []
    done = False
    while not done:
        transition = env.step(policy(state))
        weights.append(transition.action)
        costs.append(transition.cost)
        log_returns.append(transition.reward)
        values.append(transition.next_state.value)
        state = transition.next_state
        done = transition.done
    return BacktestReport.from_days(market, start, values, np.stack(weights), costs, log_returns)


def greedy_weights_by_day(actor, windows, arbitrage):
    """The deployed policy's weights one day at a time: one batch-1 forward per window."""
    return np.stack([policy_weights(actor.forward(x[None]), arbitrage)[0][0] for x in windows])


def _dict_rows(fh, path, header):
    """csv.DictReader over fh, its header checked up to case and spaces, keyed by ``header``."""
    reader = csv.DictReader(fh)
    if reader.fieldnames is None or [f.strip().lower() for f in reader.fieldnames] != list(header):
        raise FormatError(f"{path}: expected header {','.join(header)}")
    reader.fieldnames = list(header)
    return reader


def _price_cell(cell):
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return 0.0
    if not np.isfinite(value) or value < 0:
        return 0.0
    return value


def check_date(path, text):
    """FormatError unless ``text`` is YYYY-MM-DD and a day ``datetime.date`` takes."""
    if not re.fullmatch(DATE, text):
        raise FormatError(f"{path}: date {text!r} is not YYYY-MM-DD")
    try:
        datetime.date(*map(int, text.split("-")))
    except ValueError:
        raise FormatError(f"{path}: date {text!r} is not a calendar date") from None


def load_csv_by_rows(path):
    """``load_csv`` one dict per row: parse each cell, check each date, sort the rows,
    scan for duplicates, then check each day with four prices for low <= open, close <= high."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = [
            ((row["date"] or "").strip(), _price_cell(row["open"]), _price_cell(row["high"]),
             _price_cell(row["low"]), _price_cell(row["close"]))
            for row in _dict_rows(fh, path, ("date", "open", "high", "low", "close"))
        ]
    if not rows:
        raise FormatError(f"{path}: no data rows")
    for row in rows:
        check_date(path, row[0])
    rows.sort(key=lambda r: r[0])
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0]:
            raise FormatError(f"{path}: duplicate date {a[0]}")
    for day, o, h, low, c in rows:
        if min(o, h, low, c) > 0 and (low > o or low > c or o > h or c > h):
            raise FormatError(f"{path.stem}: inconsistent OHLC on {day}")
    cols = np.array([r[1:] for r in rows], dtype=np.float64)
    return AlignedMarket((path.stem,), tuple(r[0] for r in rows), *cols.T[:, None])


def load_factor_csv_by_rows(path, market):
    """``load_factor_csv`` one dict per row, each row checking its date and then
    writing its cells in file order."""
    asset_pos = {a: i for i, a in enumerate(market.asset_ids)}
    date_pos = {d: j for j, d in enumerate(market.dates)}
    ep = np.full((market.n_assets, len(market)), np.nan)
    turnover = np.full_like(ep, np.nan)
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        for row in _dict_rows(fh, path, ("date", "asset", "ep_ratio", "turnover")):
            date = (row["date"] or "").strip()
            check_date(path, date)
            i = asset_pos.get((row["asset"] or "").strip())
            j = date_pos.get(date)
            if i is None or j is None:
                continue
            try:
                ep[i, j] = float(row["ep_ratio"])
                turnover[i, j] = float(row["turnover"])
            except (TypeError, ValueError):
                continue
    return FactorPanel(asset_ids=market.asset_ids, dates=market.dates,
                       ep_ratio=ep, turnover=turnover)


def write_csv_by_rows(header, rows):
    """The bytes of ``csv.writer`` fed ``header`` then ``rows``, a float cell as ``float(v)``."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([float(v) if isinstance(v, float) else v for v in row] for row in rows)
    return text.getvalue().encode("utf-8")
