from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drlfolio import market_data
from drlfolio.baseline_factor import (
    FactorPanel,
    factor_score,
    load_factor_csv,
    run_factor_backtest,
    select_weights,
)
from drlfolio.errors import ConfigError, FormatError, InsufficientUniverseError
from drlfolio.market_data import relative_prices
from drlfolio.synthetic import (
    drift_market,
    ranked_factor_universe,
    write_factor_csv,
)
from csv_cases import factor_files
from oracles import dot_log_return, load_factor_csv_by_rows


def panel_from(ep_rows, turnover_rows, ids=None):
    ep = np.asarray(ep_rows, dtype=float)
    turnover = np.asarray(turnover_rows, dtype=float)
    m, t = ep.shape
    ids = tuple(ids or (f"s{i}" for i in range(m)))
    dates = tuple(f"d{k}" for k in range(t))
    return FactorPanel(asset_ids=ids, dates=dates, ep_ratio=ep, turnover=turnover)


class TestFactorScore:
    def test_formula(self):
        # Oracle: 0.5 * ep - 0.5 * turnover on the previous day's data.
        panel = panel_from([[0.1, 0.0], [0.2, 0.0]], [[0.3, 0.0], [0.1, 0.0]])
        scores = factor_score(panel, 1)
        assert scores[0] == pytest.approx(0.5 * 0.1 - 0.5 * 0.3, abs=1e-15)
        assert scores[1] == pytest.approx(0.5 * 0.2 - 0.5 * 0.1, abs=1e-15)

    def test_equal_factors_tie_at_zero(self):
        panel = panel_from([[0.4, 0.0], [0.7, 0.0]], [[0.4, 0.0], [0.7, 0.0]])
        assert np.allclose(factor_score(panel, 1), 0.0, atol=1e-15)

    def test_uses_previous_day(self):
        panel = panel_from([[0.1, 9.9]], [[0.0, 9.9]])
        assert factor_score(panel, 1)[0] == pytest.approx(0.05)

    def test_missing_factor_is_nan(self):
        panel = panel_from([[np.nan, 0.0]], [[0.2, 0.0]])
        assert np.isnan(factor_score(panel, 1)[0])

    def test_finite_for_finite_input(self, rng):
        panel = panel_from(rng.uniform(0, 1, (30, 5)), rng.uniform(0, 1, (30, 5)))
        assert np.all(np.isfinite(factor_score(panel, 3)))

    def test_day_zero_rejected(self):
        panel = panel_from([[0.1, 0.2]], [[0.1, 0.2]])
        with pytest.raises(ValueError):
            factor_score(panel, 0)


class TestSelectWeights:
    def test_forty_names_quarter_percent_books(self, rng):
        scores = rng.permutation(np.linspace(1, 45, 45))
        w = select_weights(scores, long_n=20, short_n=20)
        assert len(w) == 46
        assert w[0] == 0.0
        assert np.sum(w > 0) == 20
        assert np.sum(w < 0) == 20
        assert np.all(np.isin(w, [0.0, 1 / 40, -1 / 40]))
        # Highest scores long, lowest short.
        order = np.argsort(-scores)
        assert np.all(w[1 + order[:20]] == 1 / 40)
        assert np.all(w[1 + order[-20:]] == -1 / 40)

    def test_one_long_one_short(self):
        w = select_weights(np.array([3.0, 2.0, 1.0]), long_n=1, short_n=1)
        assert w.tolist() == [0.0, 0.5, 0.0, -0.5]

    def test_absolute_sum_exactly_one(self, rng):
        for _ in range(200):
            scores = rng.normal(size=44)
            w = select_weights(scores, 20, 20)
            assert float(np.abs(w).sum()) == 1.0

    def test_rank_invariance_under_shift(self, rng):
        scores = rng.normal(size=50)
        base = select_weights(scores, 10, 10)
        for shift in (3.0, -11.5, 0.25):
            assert np.array_equal(base, select_weights(scores + shift, 10, 10))

    def test_stable_tie_break(self):
        w = select_weights(np.array([1.0, 1.0, 1.0]), long_n=1, short_n=1)
        # First asset wins the long slot, last loses to the short slot.
        assert w.tolist() == [0.0, 0.5, 0.0, -0.5]

    def test_nan_scores_excluded(self):
        scores = np.array([np.nan, 2.0, 1.0, np.nan])
        w = select_weights(scores, long_n=1, short_n=1)
        assert w.tolist() == [0.0, 0.0, 0.5, -0.5, 0.0]

    def test_insufficient_universe(self):
        with pytest.raises(InsufficientUniverseError):
            select_weights(np.array([1.0, np.nan, 2.0]), long_n=2, short_n=2)


class TestFactorBacktest:
    def test_flat_universe_zero_returns(self):
        market = drift_market(60, [0.0] * 5, seed=1)
        panel = panel_from(
            np.tile(np.linspace(1, 0, 5)[:, None], (1, 60)),
            np.tile(np.linspace(0, 1, 5)[:, None], (1, 60)),
            ids=market.asset_ids,
        )
        report = run_factor_backtest(market, panel, 5, 30, long_n=2, short_n=2)
        assert np.allclose(report.log_returns, 0.0, atol=1e-15)
        assert np.all(report.values == 1.0)

    def test_ranked_universe_earns_one_percent_daily(self):
        market, panel = ranked_factor_universe(n_long=20, n_short=20, n_days=80)
        report = run_factor_backtest(market, panel, 10, 60)
        assert np.max(np.abs(report.log_returns - 0.01)) < 1e-12
        assert np.all(report.costs == 0.0)
        assert np.all(np.isin(report.weights, [0.0, 1 / 40, -1 / 40]))
        assert np.allclose(np.abs(report.weights).sum(axis=1), 1.0, atol=0)

    def test_matches_day_loop_oracle(self, rng):
        market = drift_market(70, list(rng.uniform(-0.01, 0.01, 8)), sigma=0.015, seed=3)
        panel = panel_from(rng.uniform(0, 1, (8, 70)), rng.uniform(0, 1, (8, 70)),
                           ids=market.asset_ids)
        report = run_factor_backtest(market, panel, 4, 40, long_n=3, short_n=3)

        value = 1.0
        for k, day in enumerate(range(5, 41)):
            scores = 0.5 * panel.ep_ratio[:, day - 1] - 0.5 * panel.turnover[:, day - 1]
            w = select_weights(scores, 3, 3)
            y = relative_prices(market, day)
            r = dot_log_return(w, y)
            assert report.log_returns[k] == pytest.approx(r, abs=1e-14)
            value *= np.exp(r)
        assert report.values[-1] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("start, end", [(-1, 20), (5, 5), (5, 40)],
                             ids=["before-day-zero", "empty", "past-the-end"])
    def test_range_off_the_market_is_config_error(self, start, end):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=40)
        with pytest.raises(ConfigError):
            run_factor_backtest(market, panel, start, end, long_n=3, short_n=3)

    def test_benchmark_without_factors_never_selected(self):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=40)
        report = run_factor_backtest(market, panel, 5, 20, long_n=3, short_n=3)
        # Benchmark sits in the last risky slot; factor data is missing there.
        assert np.all(report.weights[:, -1] == 0.0)


class TestFactorCsv:
    def test_round_trip(self, tmp_path):
        market, panel = ranked_factor_universe(n_long=2, n_short=2, n_days=10)
        path = write_factor_csv(panel, tmp_path / "factors.csv")
        loaded = load_factor_csv(path, market)
        assert np.allclose(loaded.ep_ratio[:-1], panel.ep_ratio[:-1], atol=1e-15)
        assert np.allclose(loaded.turnover[:-1], panel.turnover[:-1], atol=1e-15)
        assert np.all(np.isnan(loaded.ep_ratio[-1]))

    def test_unknown_assets_ignored(self, tmp_path):
        market, panel = ranked_factor_universe(n_long=2, n_short=2, n_days=10)
        path = tmp_path / "factors.csv"
        path.write_text(
            "date,asset,ep_ratio,turnover\n"
            f"{market.dates[0]},stock00,0.5,0.1\n"
            f"{market.dates[0]},not_in_market,0.5,0.1\n"
        )
        loaded = load_factor_csv(path, market)
        assert loaded.ep_ratio[0, 0] == 0.5
        assert np.isnan(loaded.ep_ratio[1, 0])

    def test_header_matched_by_name_read_by_position(self, tmp_path):
        market, _ = ranked_factor_universe(n_long=2, n_short=2, n_days=10)
        path = tmp_path / "factors.csv"
        path.write_text(f" Date , Asset,EP_Ratio,Turnover\n{market.dates[1]},stock01,0.25,0.5\n")
        loaded = load_factor_csv(path, market)
        assert loaded.ep_ratio[1, 1] == 0.25 and loaded.turnover[1, 1] == 0.5

    def test_impossible_calendar_date_is_format_error(self, tmp_path):
        market, _ = ranked_factor_universe(n_long=2, n_short=2, n_days=10)
        path = tmp_path / "factors.csv"
        path.write_text(f"date,asset,ep_ratio,turnover\n{market.dates[0]},stock00,0.5,0.1\n"
                        "2015-02-30,stock00,0.5,0.1\n")
        with pytest.raises(FormatError) as info:
            load_factor_csv(path, market)
        assert str(info.value) == f"{path}: date '2015-02-30' is not a calendar date"

    def test_non_utf8_file_is_format_error(self, tmp_path):
        market, _ = ranked_factor_universe(n_long=2, n_short=2, n_days=10)
        path = tmp_path / "factors.csv"
        path.write_bytes(b"date,asset,ep_ratio,turnover\n\xff,stock00,0.5,0.1\n")
        with pytest.raises(FormatError, match="factors.csv"):
            load_factor_csv(path, market)


FACTOR_MARKET = drift_market(4, [0.0, 0.0, 0.0], asset_ids=["a", "b", "bench"], seed=1)


def loaded(load, path):
    """What a loader makes of a factor file: its panel bytes, NaNs included, or its exception type."""
    try:
        panel = load(path, FACTOR_MARKET)
    except (FormatError, OSError) as exc:
        return type(exc)
    return panel.ep_ratio.tobytes(), panel.turnover.tobytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=factor_files(FACTOR_MARKET.dates, FACTOR_MARKET.asset_ids),
       block=st.sampled_from([1, 2, 3, 512]))
def test_load_factor_csv_matches_row_oracle(tmp_path, text, block):
    # Few axes, so rows repeat a cell within a block and across blocks.
    path = tmp_path / "factors.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(market_data, "CSV_BLOCK", block):
        assert loaded(load_factor_csv, path) == loaded(load_factor_csv_by_rows, path)
