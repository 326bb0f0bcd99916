import json

import numpy as np
import pytest

from drlfolio.analytics import (
    BacktestReport,
    max_drawdown,
    metric_suite,
    run_backtest,
    training_slope,
    write_report,
)
from drlfolio.ddpg import EpisodeRecord
from drlfolio.synthetic import drift_market, market_from_closes
from drlfolio.trading_env import EnvConfig, TradingEnv
from oracles import mdd_by_scan, ols_by_normal_equations


def report_from_values(values, asset_ids=("a", "bench")):
    values = np.asarray(values, dtype=float)
    t = len(values) - 1
    return BacktestReport(
        day_indices=tuple(range(1, t + 1)),
        dates=tuple(f"d{k}" for k in range(1, t + 1)),
        asset_ids=tuple(asset_ids),
        values=values,
        weights=np.zeros((t, len(asset_ids) + 1)),
        costs=np.zeros(t),
        log_returns=np.log(values[1:] / values[:-1]),
        simple_returns=values[1:] / values[:-1] - 1.0,
    )


class TestRunBacktest:
    def test_all_cash_policy_flat(self, noisy_market):
        config = EnvConfig(window=10, episode_len=5, mu=0.0)
        policy = lambda state: np.array([1.0, 0, 0, 0, 0])
        report = run_backtest(policy, noisy_market, config, 20, 60)
        assert np.all(report.values == 1.0)
        metrics = metric_suite(report)
        assert metrics["simple_daily_return"] == 0.0
        assert metrics["log_daily_return"] == 0.0
        assert metrics["simple_annual_sharpe"] is None
        assert metrics["mdd"] == 0.0

    def test_degenerate_constant_returns_undefined_sharpe(self):
        market = drift_market(80, [0.01], seed=2)
        config = EnvConfig(window=10, episode_len=5, mu=0.0)
        policy = lambda state: np.array([0.0, 1.0])
        report = run_backtest(policy, market, config, 20, 50)
        metrics = metric_suite(report)
        # Log returns are exactly constant, simple returns constant too.
        assert metrics["log_annual_sharpe"] is None
        assert metrics["log_daily_return"] == pytest.approx(0.01, abs=1e-12)

    def test_matches_manual_env_roll(self, noisy_market):
        config = EnvConfig(window=10, episode_len=5, mu=0.0025)
        rng = np.random.default_rng(3)
        actions = [rng.uniform(-1, 1, 5) for _ in range(30)]
        it = iter(actions)
        policy = lambda state: next(it)
        report = run_backtest(policy, noisy_market, config, 15, 45)

        env = TradingEnv(noisy_market, config)
        env.start_at(15, 30)
        values = [1.0]
        for a in actions:
            tr = env.step(a)
            values.append(tr.next_state.value)
        assert np.array_equal(report.values, np.array(values))

    def test_weights_recorded_every_day(self, noisy_market):
        config = EnvConfig(window=10, episode_len=5, mu=0.0)
        policy = lambda state: np.array([0.0, 1.0, 1.0, -1.0, 0.5])
        report = run_backtest(policy, noisy_market, config, 20, 40)
        assert report.weights.shape == (20, 5)
        assert np.allclose(np.abs(report.weights).sum(axis=1), 1.0, atol=1e-9)


class TestMetricSuite:
    def test_mdd_worked_example(self):
        values = np.array([1.0, 1.2, 0.9, 1.1])
        assert max_drawdown(values) == 0.25
        assert max_drawdown(values) == pytest.approx(mdd_by_scan(values), abs=1e-15)

    def test_mdd_bounds_and_monotone(self, rng):
        assert max_drawdown(np.linspace(1, 2, 50)) == 0.0
        for _ in range(200):
            values = np.exp(np.cumsum(rng.uniform(-0.05, 0.05, 60)))
            mdd = max_drawdown(values)
            assert 0.0 <= mdd < 1.0
            assert mdd == pytest.approx(mdd_by_scan(values), abs=1e-14)

    def test_symmetric_returns_cancel(self):
        r = 0.01
        values = [1.0]
        for k in range(40):
            values.append(values[-1] * np.exp(r if k % 2 == 0 else -r))
        metrics = metric_suite(report_from_values(values))
        assert metrics["log_daily_return"] == pytest.approx(0.0, abs=1e-15)
        assert abs(metrics["simple_daily_return"]) < 1e-4

    def test_log_returns_telescope(self, rng):
        values = np.exp(np.cumsum(rng.uniform(-0.03, 0.03, 100)))
        values = np.concatenate([[1.0], values])
        report = report_from_values(values)
        assert abs(report.log_returns.sum() - np.log(values[-1] / values[0])) < 1e-10

    def test_ratio_scale_invariance(self, rng):
        base = rng.uniform(-0.02, 0.025, 80)
        for c in (2.0, 7.5, 0.3):
            a = report_from_values(np.concatenate([[1.0], np.exp(np.cumsum(base))]))
            b = report_from_values(np.concatenate([[1.0], np.exp(np.cumsum(c * base))]))
            ma, mb = metric_suite(a), metric_suite(b)
            assert abs(ma["log_annual_sharpe"] - mb["log_annual_sharpe"]) < 1e-12
            assert abs(ma["log_annual_sortino"] - mb["log_annual_sortino"]) < 1e-12

    def test_sortino_vs_sharpe_when_downside_smaller(self, rng):
        for _ in range(100):
            returns = rng.normal(0.001, 0.01, 120)
            values = np.concatenate([[1.0], np.exp(np.cumsum(returns))])
            metrics = metric_suite(report_from_values(values))
            logr = np.log(values[1:] / values[:-1])
            downside = np.sqrt(np.mean(np.minimum(logr, 0.0) ** 2))
            full = np.std(logr)
            if downside <= full and metrics["log_annual_sortino"] is not None:
                if metrics["log_daily_return"] >= 0:
                    assert metrics["log_annual_sortino"] >= metrics["log_annual_sharpe"]

    def test_seven_metrics_present(self, rng):
        values = np.concatenate([[1.0], np.exp(np.cumsum(rng.uniform(-0.02, 0.02, 30)))])
        metrics = metric_suite(report_from_values(values))
        assert set(metrics) == {
            "simple_daily_return", "log_daily_return",
            "simple_annual_sharpe", "log_annual_sharpe",
            "simple_annual_sortino", "log_annual_sortino", "mdd",
        }


class TestTrainingSlope:
    def test_two_point_line(self):
        records = [EpisodeRecord(0, 0, 0.0, 1.0, 0.0), EpisodeRecord(1, 100, 0.01, 1.0, 0.0)]
        slope, intercept = training_slope(records)
        assert slope == pytest.approx(1e-4, abs=1e-18)
        assert intercept == pytest.approx(0.0, abs=1e-18)

    def test_constant_rewards_flat(self):
        records = [EpisodeRecord(k, 10 * k, 0.005, 1.0, 0.0) for k in range(10)]
        slope, _ = training_slope(records)
        assert slope == pytest.approx(0.0, abs=1e-18)

    def test_matches_normal_equations(self, rng):
        for _ in range(200):
            x = np.sort(rng.integers(0, 10_000, size=12)).astype(float)
            if len(np.unique(x)) < 2:
                continue
            y = rng.normal(size=12)
            records = [EpisodeRecord(k, int(xi), float(yi), 1.0, 0.0)
                       for k, (xi, yi) in enumerate(zip(x, y))]
            slope, intercept = training_slope(records)
            e_slope, e_intercept = ols_by_normal_equations(x, y)
            assert slope == pytest.approx(e_slope, rel=1e-9)
            assert intercept == pytest.approx(e_intercept, rel=1e-9, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            training_slope([EpisodeRecord(0, 0, 0.0, 1.0, 0.0)])


class TestWriteReport:
    def test_files_and_nulls(self, tmp_path):
        values = [1.0, 1.1, 1.21]
        report = report_from_values(values)
        metrics = write_report(report, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["metrics"]["log_daily_return"] == pytest.approx(np.log(1.1))
        # Constant growth: zero deviation renders as null, never infinity.
        assert summary["metrics"]["simple_annual_sharpe"] is None
        plot = (tmp_path / "plot.csv").read_text().splitlines()
        assert plot[0] == "step,value"
        assert len(plot) == 4
        series = (tmp_path / "series.csv").read_text().splitlines()
        assert series[0] == "day,date,value,cost,log_return,simple_return"
        weights = (tmp_path / "weights.csv").read_text().splitlines()
        assert weights[0] == "day,date,cash,a,bench"
        assert metrics["mdd"] == 0.0
