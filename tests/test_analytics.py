import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlfolio.analytics import (
    BacktestReport,
    max_drawdown,
    metric_suite,
    run_backtest,
    training_slope,
    write_report,
)
from drlfolio.ddpg import EpisodeRecord, TrainLog
from drlfolio.errors import ConfigError
from drlfolio.market_data import AlignedMarket
from drlfolio.synthetic import drift_market
from drlfolio.trading_env import EnvConfig, TradingEnv
from oracles import backtest_by_steps, mdd_by_scan, ols_by_normal_equations


def constant(action):
    """A backtest policy that asks for the same raw action every day."""
    return lambda obs: np.tile(action, (len(obs), 1))


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
        report = run_backtest(constant([1.0, 0, 0, 0, 0]), noisy_market, config, 20, 60)
        assert np.all(report.values == 1.0)
        metrics = metric_suite(report)
        assert metrics["simple_daily_return"] == 0.0
        assert metrics["log_daily_return"] == 0.0
        assert metrics["simple_annual_sharpe"] is None
        assert metrics["mdd"] == 0.0

    def test_degenerate_constant_returns_undefined_sharpe(self):
        market = drift_market(80, [0.01], seed=2)
        config = EnvConfig(window=10, episode_len=5, mu=0.0)
        report = run_backtest(constant([0.0, 1.0]), market, config, 20, 50)
        metrics = metric_suite(report)
        # Log returns are exactly constant, simple returns constant too.
        assert metrics["log_annual_sharpe"] is None
        assert metrics["log_daily_return"] == pytest.approx(0.01, abs=1e-12)

    def test_matches_manual_env_roll(self, noisy_market):
        config = EnvConfig(window=10, episode_len=5, mu=0.0025)
        rng = np.random.default_rng(3)
        actions = [rng.uniform(-1, 1, 5) for _ in range(30)]
        report = run_backtest(lambda obs: np.array(actions), noisy_market, config, 15, 45)

        env = TradingEnv(noisy_market, config)
        env.start_at(15, 30)
        values = [1.0]
        for a in actions:
            tr = env.step(a)
            values.append(tr.next_state.value)
        assert np.array_equal(report.values, np.array(values))

    def test_weights_recorded_every_day(self, noisy_market):
        config = EnvConfig(window=10, episode_len=5, mu=0.0)
        report = run_backtest(constant([0.0, 1.0, 1.0, -1.0, 0.5]), noisy_market, config, 20, 40)
        assert report.weights.shape == (20, 5)
        assert np.allclose(np.abs(report.weights).sum(axis=1), 1.0, atol=1e-9)


    @pytest.mark.parametrize("start, end, leverage", [
        (8, 30, None),  # no full window behind the first day
        (20, 400, None),  # past the market's last day
        (20, 20, None),  # no day at all
        (20, 40, np.ones(4)),  # one leverage ratio short
        (20, 40, np.array([1.0, 1.0, 0.0, 1.0, 1.0])),
    ])
    def test_bad_range_or_leverage_is_config_error(self, noisy_market, start, end, leverage):
        config = EnvConfig(window=10, episode_len=5, mu=0.0, leverage=leverage)
        with pytest.raises(ConfigError):
            run_backtest(constant([1.0, 0, 0, 0, 0]), noisy_market, config, start, end)

    def test_leverage_that_loses_the_value_is_config_error(self, small_market):
        config = EnvConfig(window=10, episode_len=5, mu=0.0,
                           leverage=np.array([1.0, 1e308, 1.0, 1.0]))
        with np.errstate(over="ignore"), pytest.raises(ConfigError, match="value inf on day 21 "):
            run_backtest(constant([0.0, 1.0, 0.0, 0.0]), small_market, config, 20, 40)

    @pytest.mark.parametrize("actions", [
        lambda obs: np.ones(5),
        lambda obs: np.ones((len(obs) - 1, 5)),
        lambda obs: np.ones((len(obs), 4)),
    ])
    def test_policy_must_give_one_action_row_per_day(self, noisy_market, actions):
        config = EnvConfig(window=10, episode_len=5, mu=0.0)
        with pytest.raises(ValueError, match="policy gave actions of shape"):
            run_backtest(actions, noisy_market, config, 20, 40)


@st.composite
def backtest_runs(draw):
    """A market with missing prices, a config and a range on it, and the raw
    actions of the run: exact zeros, all-zero rows and rows that are all zero
    once a negative cash entry is clamped."""
    m, window, days = draw(st.integers(1, 4)), draw(st.integers(2, 5)), draw(st.integers(1, 25))
    start = window - 1 + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    clean = drift_market(start + days + 1 + draw(st.integers(0, 2)),
                         list(rng.normal(0.0, 0.005, m)), sigma=0.02, seed=int(rng.integers(99)))
    missing = rng.random(clean.close.shape) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    market = AlignedMarket(asset_ids=clean.asset_ids, dates=clean.dates, **{
        name: np.where(missing, 0.0, clean.feature(name)) for name in ("open", "high", "low", "close")})
    leverage = draw(st.none() | st.lists(st.floats(0.5, 2.0), min_size=m + 1, max_size=m + 1))
    config = EnvConfig(window=window, mu=draw(st.just(0.0) | st.floats(1e-4, 0.01)),
                       leverage=None if leverage is None else np.array(leverage),
                       arbitrage_enabled=draw(st.booleans()))
    entry = st.just(0.0) | st.just(-0.0) | st.floats(-2.0, 2.0)
    row = st.one_of(st.lists(entry, min_size=m + 1, max_size=m + 1),
                    st.floats(-1.0, 0.0).map(lambda cash: [cash] + [0.0] * m))
    actions = np.array(draw(st.lists(row, min_size=days, max_size=days)))
    return market, config, start, actions


@settings(max_examples=200, deadline=None)
@given(run=backtest_runs())
def test_bulk_run_matches_day_by_day_steps(run):
    market, config, start, actions = run
    seen = []
    report = run_backtest(lambda obs: seen.append(obs) or actions, market, config,
                          start, start + len(actions))
    windows = []
    expected = backtest_by_steps(
        lambda state: windows.append(state.obs) or actions[len(windows) - 1],
        market, config, start, start + len(actions))
    assert seen[0].tobytes() == np.stack(windows).tobytes()
    assert report.day_indices == expected.day_indices and report.dates == expected.dates
    for name in ("values", "weights", "costs", "log_returns", "simple_returns"):
        assert getattr(report, name).tobytes() == getattr(expected, name).tobytes(), name


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
        log = TrainLog([EpisodeRecord(0, 0, 0.0, 1.0, 0.0), EpisodeRecord(1, 100, 0.01, 1.0, 0.0)])
        slope, intercept = training_slope(log)
        assert slope == pytest.approx(1e-4, abs=1e-18)
        assert intercept == pytest.approx(0.0, abs=1e-18)

    def test_constant_rewards_flat(self):
        log = TrainLog([EpisodeRecord(k, 10 * k, 0.005, 1.0, 0.0) for k in range(10)])
        slope, _ = training_slope(log)
        assert slope == pytest.approx(0.0, abs=1e-18)

    def test_matches_normal_equations(self, rng):
        for _ in range(200):
            x = np.sort(rng.integers(0, 10_000, size=12)).astype(float)
            if len(np.unique(x)) < 2:
                continue
            y = rng.normal(size=12)
            log = TrainLog([EpisodeRecord(k, int(xi), float(yi), 1.0, 0.0)
                            for k, (xi, yi) in enumerate(zip(x, y))])
            slope, intercept = training_slope(log)
            e_slope, e_intercept = ols_by_normal_equations(x, y)
            assert slope == pytest.approx(e_slope, rel=1e-9)
            assert intercept == pytest.approx(e_intercept, rel=1e-9, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            training_slope(TrainLog([EpisodeRecord(0, 0, 0.0, 1.0, 0.0)]))


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

    def test_csv_text(self, tmp_path):
        report = dataclasses.replace(report_from_values([1.0, 0.5, 0.25]),
                                     weights=np.array([[0.0, 1.0, 0.0], [1 / 3, 2 / 3, 0.0]]))
        write_report(report, tmp_path)
        expected = {
            "series.csv": ["day,date,value,cost,log_return,simple_return",
                           "1,d1,0.5,0.0,-0.6931471805599453,-0.5",
                           "2,d2,0.25,0.0,-0.6931471805599453,-0.5"],
            "weights.csv": ["day,date,cash,a,bench",
                            "1,d1,0.0,1.0,0.0",
                            "2,d2,0.3333333333333333,0.6666666666666666,0.0"],
            "plot.csv": ["step,value", "0,1.0", "1,0.5", "2,0.25"],
        }
        for name, lines in expected.items():
            assert (tmp_path / name).read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()
