"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written the slow, obvious way (explicit loops,
scalar accounting, normal equations) and must stay decoupled from the package
code paths it checks.
"""

import numpy as np

from drlfolio.ddpg import policy_weights


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
    """Actor gradient of the deployed policy's mean Q, through the critic's input.

    The critic's full five-channel input gradient, its action channel summed
    over time, then the policy's VJP and the actor's backward pass. Returns
    a copy of the actor's gradient buffer.
    """
    weights, weights_vjp = policy_weights(actor.forward(states), arbitrage)
    q = critic.forward(critic_input_by_concat(states, weights))
    d_input = critic.backward(np.full_like(q, 1.0 / q.shape[0]), param_grads=False)
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


def greedy_weights_by_day(actor, windows, arbitrage):
    """The deployed policy's weights one day at a time: one batch-1 forward per window."""
    return np.stack([policy_weights(actor.forward(x[None]), arbitrage)[0][0] for x in windows])
