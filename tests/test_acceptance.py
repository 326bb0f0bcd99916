"""End-to-end acceptance gates. Each test prints one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them inline."""

import time

import numpy as np
import pytest

from drlfolio.analytics import (
    max_drawdown,
    metric_suite,
    run_backtest,
    training_slope,
)
from drlfolio.cli import EXIT_OK, main
from drlfolio.ddpg import TrainConfig, greedy_policy, train
from drlfolio.neural import (
    Conv2D,
    Dense,
    Flatten,
    Network,
    ReLU,
    build_actor,
    build_critic,
    minmax_action_batch,
)
from drlfolio.portfolio_math import (
    enforce_arbitrage_batch,
    evolve_weights,
    initial_weights,
    shorted_weight,
    transaction_cost,
)
from drlfolio.baseline_factor import run_factor_backtest
from drlfolio.synthetic import drift_market, ranked_factor_universe, write_market_csvs
from drlfolio.trading_env import EnvConfig, TradingEnv
from conftest import random_weights
from oracles import evolve_by_value_accounting, relative_error
from test_analytics import report_from_values
from test_neural import check_gradients


def passed(n: int, text: str) -> None:
    print(f"\n[criterion {n:2d}] PASS  {text}")


def test_criterion_01_weight_evolution_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        m = int(rng.integers(1, 8))
        w = random_weights(rng, m)
        if rng.uniform() < 0.5 and m >= 1:
            w[1:] *= np.where(rng.uniform(size=m) < 0.5, -1.0, 1.0)
            w /= np.abs(w).sum()
        y = np.concatenate([[1.0], rng.uniform(0.4, 1.8, size=m)])
        got = evolve_weights(w, y)
        expected = evolve_by_value_accounting(w, y)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    elapsed = time.monotonic() - start
    assert worst < 1e-12, f"max abs error {worst}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    passed(1, f"weight drift matches value accounting on 10^4 pairs "
              f"(max err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_shorted_weight_worked_example():
    assert shorted_weight(300_000, 700_000) == -0.3
    passed(2, "shorted_weight(300000, 700000) == -0.3 exactly")


def test_criterion_03_first_day_cost():
    rng = np.random.default_rng(103)
    market = drift_market(80, [0.003, -0.002, 0.0], sigma=0.01, seed=5)
    worst = 0.0
    for _ in range(50):
        env = TradingEnv(market, EnvConfig(window=10, episode_len=5, mu=0.0025))
        env.reset(rng)
        target = random_weights(rng, 3)
        target[0] = 0.0
        total = np.abs(target).sum()
        if total == 0.0:
            continue
        target /= total
        env.step(target)
        worst = max(worst, abs(env.last_cost - 0.0025))
    assert worst <= 1e-12
    passed(3, f"fully investing on day one costs 0.0025 (max dev {worst:.1e})")


def test_criterion_04_telescoping():
    market = drift_market(400, [0.002, -0.001, 0.0005, 0.0], sigma=0.012, seed=17)
    env = TradingEnv(market, EnvConfig(window=20, episode_len=252, mu=0.0025))
    rng = np.random.default_rng(104)
    state = env.reset(rng)
    total = 0.0
    done = False
    while not done:
        tr = env.step(rng.uniform(-1, 1, size=5))
        total += tr.reward
        done = tr.done
    gap = abs(total - np.log(tr.next_state.value / 1.0))
    assert gap < 1e-10
    passed(4, f"sum of 252 daily rewards telescopes to log(final/initial) (gap {gap:.1e})")


def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(105)
    start = time.monotonic()
    worst = 0.0

    single_layers = {
        "conv2d": (Network([Conv2D(4, 6, 1, 3, rng)]), rng.standard_normal((2, 4, 5, 50))),
        "dense": (Network([Dense(40, 7, rng)]), rng.standard_normal((4, 40))),
        "relu": (Network([Dense(40, 12, rng), ReLU()]), rng.standard_normal((4, 40))),
        "flatten": (Network([Conv2D(4, 3, 1, 3, rng), Flatten()]),
                    rng.standard_normal((2, 4, 5, 50))),
    }
    for kind, (net, x) in single_layers.items():
        err = check_gradients(net, x, rng, coords_per_param=12, h=1e-4)
        worst = max(worst, err)
        assert err < 1e-4, f"{kind}: {err}"

    actor = build_actor(5, 50, rng)
    critic = build_critic(5, 50, rng)
    x_actor = rng.standard_normal((1, 4, 5, 50)) * 0.05 + 1.0
    x_critic = rng.standard_normal((1, 5, 5, 50)) * 0.05 + 0.5
    for name, net, x in (("actor", actor, x_actor), ("critic", critic, x_critic)):
        err = check_gradients(net, x, rng, coords_per_param=16, h=1e-4)
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: {err}"

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    passed(5, f"central-difference gradcheck on every layer and both nets "
              f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_06_action_constraints():
    rng = np.random.default_rng(106)
    raws = rng.normal(scale=3.0, size=(100_000, 6))
    weights = minmax_action_batch(raws)
    weights, _ = enforce_arbitrage_batch(weights)

    sums = np.abs(weights).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-9
    assert np.all(weights[:, 0] >= 0.0)
    assert np.all(weights[:, 0] <= 1.0)
    risky = weights[:, 1:]
    applicable = (risky[:, -1] != 0) & np.any(risky[:, :-1] != 0, axis=1)
    mixed = np.any(risky > 0, axis=1) & np.any(risky < 0, axis=1)
    assert np.all(mixed[applicable])

    for _ in range(1_000):
        raw = rng.standard_normal(6)
        a = float(rng.uniform(0.05, 20.0))
        b = float(rng.uniform(-10.0, 10.0))
        base = minmax_action_batch(raw[None])[0]
        moved = minmax_action_batch((a * raw + b)[None])[0]
        assert np.allclose(base, moved, atol=1e-12)

    passed(6, "10^5 actions satisfy the weight constraints and sign rule; "
              "min-max activation is affine invariant (10^3 transforms)")


@pytest.mark.slow
def test_criterion_07_smoke_training():
    start = time.monotonic()
    market = drift_market(400, [0.01, 0.0, 0.0], sigma=0.0, seed=42)
    env_config = EnvConfig(window=10, episode_len=60, mu=0.0)
    train_config = TrainConfig(
        total_steps=20_000, batch_size=64, buffer_capacity=600,
        critic_lr=5e-4, actor_lr=4e-5, noise_var=0.25, seed=0,
    )
    actor, _, log = train(market, env_config, train_config)

    slope, _ = training_slope(log)
    report = run_backtest(greedy_policy(actor), market, env_config, 30, 230)
    greedy_mean = float(report.log_returns.mean())

    baseline_means = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        rpt = run_backtest(lambda s: rng.uniform(-1, 1, 4), market, env_config, 30, 230)
        baseline_means.append(float(rpt.log_returns.mean()))
    baseline_means = np.array(baseline_means)
    baseline_mean = float(baseline_means.mean())
    stderr = float(baseline_means.std(ddof=1) / np.sqrt(len(baseline_means)))

    elapsed = time.monotonic() - start
    margin = greedy_mean - baseline_mean
    assert slope > 0.0, f"training slope {slope}"
    assert margin > 3.0 * stderr, (
        f"greedy {greedy_mean:.6f} vs baseline {baseline_mean:.6f} "
        f"(margin {margin:.6f}, 3*se {3 * stderr:.6f})"
    )
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    passed(7, f"20k-step smoke training beats the random baseline by "
              f"{margin / stderr:.1f} standard errors with positive slope "
              f"{slope:.2e} ({elapsed:.0f}s)")


def test_criterion_08_metrics():
    assert max_drawdown(np.array([1.0, 1.2, 0.9, 1.1])) == 0.25

    rng = np.random.default_rng(108)
    returns = rng.uniform(-0.03, 0.035, 150)
    values = np.concatenate([[1.0], np.exp(np.cumsum(returns))])
    report = report_from_values(values)
    gap = abs(report.log_returns.sum() - np.log(values[-1] / values[0]))
    assert gap < 1e-10

    for c in (3.0, 0.5, 12.0):
        a = metric_suite(report_from_values(np.concatenate([[1.0], np.exp(np.cumsum(returns))])))
        b = metric_suite(report_from_values(np.concatenate([[1.0], np.exp(np.cumsum(c * returns))])))
        for key in ("log_annual_sharpe", "log_annual_sortino"):
            assert abs(a[key] - b[key]) < 1e-12

    passed(8, f"MDD worked example exact, log returns telescope (gap {gap:.1e}), "
              "ratios scale-invariant to 1e-12")


def test_criterion_09_factor_baseline():
    market, panel = ranked_factor_universe(n_long=20, n_short=20, n_days=100)
    report = run_factor_backtest(market, panel, 10, 80, long_n=20, short_n=20)

    dev = float(np.max(np.abs(report.log_returns - 0.01)))
    assert dev <= 1e-12
    assert np.all(np.isin(report.weights, [0.0, 1.0 / 40, -1.0 / 40]))
    nonzero = np.count_nonzero(report.weights, axis=1)
    assert np.all(nonzero == 40)
    sums = np.array([float(np.abs(w).sum()) for w in report.weights])
    assert np.all(sums == 1.0)

    passed(9, f"ranked 40-name universe earns 0.01/day (max dev {dev:.1e}) "
              "at exactly +-1/40 weights summing to 1")


def test_criterion_10_cli_determinism(tmp_path):
    market = drift_market(120, [0.01, 0.0, 0.0], sigma=0.0, seed=7,
                          asset_ids=["alpha", "beta", "bench"])
    market_dir = tmp_path / "market"
    write_market_csvs(market, market_dir)

    def run_train(out):
        code = main(["train", str(market_dir), "--out", str(out),
                     "--window", "6", "--episode-len", "10", "--total-steps", "30",
                     "--seed", "11", "--benchmark", "bench"])
        assert code == EXIT_OK

    run_train(tmp_path / "t1")
    run_train(tmp_path / "t2")
    for name in ("checkpoint.json", "trainlog.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    def run_backtest_cli(out):
        code = main(["backtest", str(tmp_path / "t1" / "checkpoint.json"),
                     "--market-dir", str(market_dir), "--out", str(out),
                     "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_OK

    run_backtest_cli(tmp_path / "b1")
    run_backtest_cli(tmp_path / "b2")
    for name in ("summary.json", "series.csv", "weights.csv", "plot.csv"):
        assert (tmp_path / "b1" / name).read_bytes() == (tmp_path / "b2" / name).read_bytes()

    passed(10, "train and backtest outputs are byte-identical across reruns")
