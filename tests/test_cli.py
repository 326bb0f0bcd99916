import json
from pathlib import Path

import numpy as np
import pytest

from drlfolio.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from drlfolio.neural import build_actor, build_critic, save_checkpoint
from drlfolio.synthetic import (
    drift_market,
    ranked_factor_universe,
    write_factor_csv,
    write_market_csvs,
)


@pytest.fixture
def market_dir(tmp_path):
    market = drift_market(120, [0.01, 0.0, 0.0], sigma=0.0, seed=7,
                          asset_ids=["alpha", "beta", "bench"])
    d = tmp_path / "market"
    write_market_csvs(market, d)
    return d, market


def run(argv):
    return main([str(a) for a in argv])


def train_args(market_dir, out, **overrides):
    args = {
        "window": 6, "episode-len": 10, "total-steps": 20, "seed": 3,
        "benchmark": "bench",
    }
    args.update(overrides)
    argv = ["train", market_dir, "--out", out]
    for k, v in args.items():
        argv += [f"--{k}", v]
    return argv


class TestIngest:
    def test_lists_assets(self, market_dir, capsys):
        d, market = market_dir
        assert run(["ingest", d, "--benchmark", "bench"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "assets: 3" in out
        assert "benchmark: bench" in out
        assert f"days: {len(market)}" in out

    def test_empty_dir_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["ingest", empty]) == EXIT_USAGE

    def test_disjoint_dates_is_data_error(self, tmp_path, capsys):
        a = drift_market(10, [0.0, 0.0], asset_ids=["a", "bench"], start_date="2000-01-01")
        b = drift_market(10, [0.0, 0.0], asset_ids=["c", "d"], start_date="2011-01-01")
        d = tmp_path / "mixed"
        write_market_csvs(a, d)
        write_market_csvs(b, d)
        assert run(["ingest", d, "--benchmark", "bench"]) == EXIT_DATA
        assert "no common trading days" in capsys.readouterr().err

    def test_missing_dir_is_usage_error(self, tmp_path):
        assert run(["ingest", tmp_path / "nope"]) == EXIT_USAGE


class TestTrain:
    def test_writes_checkpoint_and_log(self, market_dir, tmp_path, capsys):
        d, _ = market_dir
        out = tmp_path / "run"
        assert run(train_args(d, out)) == EXIT_OK
        assert (out / "checkpoint.json").exists()
        log = (out / "trainlog.csv").read_text().splitlines()
        assert log[0] == "episode,step,mean_daily_return,final_value,mean_cost"
        assert len(log) == 3  # 20 steps / 10 per episode = 2 episodes
        assert "training slope" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, market_dir, tmp_path):
        d, _ = market_dir
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(train_args(d, out_a)) == EXIT_OK
        assert run(train_args(d, out_b)) == EXIT_OK
        for name in ("checkpoint.json", "trainlog.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_overlapping_ranges_refused(self, market_dir, tmp_path, capsys):
        d, market = market_dir
        dates = market.dates
        code = run(train_args(
            d, tmp_path / "x",
            **{"train-start": dates[0], "train-end": dates[80],
               "test-start": dates[70], "test-end": dates[110]},
        ))
        assert code == EXIT_CONFIG
        assert "out-of-sample" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, market_dir, tmp_path):
        d, _ = market_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"market_dir = {d}\nbenchmark = bench\nwindow = 6\nepisode_len = 10\n"
            "total_steps = 20\nseed = 3\n"
        )
        out = tmp_path / "cfgrun"
        assert run(["train", "--config", cfg, "--out", out]) == EXIT_OK
        assert (out / "checkpoint.json").exists()

    def test_leverage_config_key(self, market_dir, tmp_path):
        d, _ = market_dir
        cfg = tmp_path / "lev.cfg"
        cfg.write_text("leverage = 1.0,2.0,1.0,1.0\n")
        out = tmp_path / "lev"
        assert run(train_args(d, out) + ["--config", cfg]) == EXIT_OK
        bad = tmp_path / "bad.cfg"
        bad.write_text("leverage = 1.0,zzz\n")
        assert run(train_args(d, tmp_path / "q") + ["--config", bad]) == EXIT_CONFIG

    def test_unknown_config_key_rejected(self, market_dir, tmp_path):
        d, _ = market_dir
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert run(["train", d, "--config", cfg, "--out", tmp_path / "y"]) == EXIT_CONFIG

    def test_checkpoint_every_snapshots(self, market_dir, tmp_path):
        d, _ = market_dir
        out = tmp_path / "snap"
        assert run(train_args(d, out, **{"checkpoint-every": 1})) == EXIT_OK
        snaps = sorted(p.name for p in out.glob("checkpoint_ep*.json"))
        assert snaps == ["checkpoint_ep00001.json", "checkpoint_ep00002.json"]

    def test_input_files_not_mutated(self, market_dir, tmp_path):
        d, _ = market_dir
        before = {p.name: p.read_bytes() for p in sorted(d.glob("*.csv"))}
        run(train_args(d, tmp_path / "z"))
        after = {p.name: p.read_bytes() for p in sorted(d.glob("*.csv"))}
        assert before == after


def fully_invested_checkpoint(path, market, window=6):
    """Checkpoint whose greedy action is always (0, 1, 0, 0): zeroed nets with
    a bias pattern that the action activation maps to full investment."""
    rng = np.random.default_rng(0)
    actor = build_actor(market.n_assets, window, rng)
    critic = build_critic(market.n_assets, window, rng)
    for p in actor.params():
        p[...] = 0.0
    actor.layers[-1].bias[...] = [-1.0, 1.0] + [0.0] * (market.n_assets - 1)
    meta = {"assets": list(market.asset_ids),
            "benchmark": market.asset_ids[market.benchmark_index],
            "window": window, "mu": 0.0025, "arbitrage": True, "seed": 0}
    save_checkpoint(path, actor, critic, meta)
    return path


class TestBacktest:
    def test_report_files_and_first_day_cost(self, market_dir, tmp_path):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        out = tmp_path / "bt"
        code = run(["backtest", ckpt, "--market-dir", d, "--out", out,
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["days"] == 51
        series = (out / "series.csv").read_text().splitlines()
        first_cost = float(series[1].split(",")[3])
        assert first_cost == pytest.approx(0.0025, abs=1e-12)
        weight_rows = (out / "weights.csv").read_text().splitlines()[1:]
        for row in weight_rows:
            w = np.array([float(x) for x in row.split(",")[2:]])
            assert abs(np.abs(w).sum() - 1.0) <= 1e-9

    def test_determinism_byte_identical(self, market_dir, tmp_path):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        outs = []
        for name in ("bt1", "bt2"):
            out = tmp_path / name
            assert run(["backtest", ckpt, "--market-dir", d, "--out", out,
                        "--test-start", market.dates[40],
                        "--test-end", market.dates[90]]) == EXIT_OK
            outs.append(out)
        for fname in ("summary.json", "series.csv", "weights.csv", "plot.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_insufficient_history_is_config_error(self, market_dir, tmp_path):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt",
                    "--test-start", market.dates[2], "--test-end", market.dates[50]])
        assert code == EXIT_CONFIG

    def test_periodic_checkpoint_backtests(self, market_dir, tmp_path):
        d, market = market_dir
        out = tmp_path / "snap"
        assert run(train_args(d, out, **{"checkpoint-every": 1})) == EXIT_OK
        meta = json.loads((out / "checkpoint_ep00001.json").read_text())["meta"]
        assert meta["episode"] == 1 and meta["step"] == 10
        code = run(["backtest", out / "checkpoint_ep00001.json", "--market-dir", d,
                    "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_OK

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[: len(text) // 2],
        lambda text: text.replace('"format_version": 1', '"format_version": 7'),
        lambda text: text.replace('"benchmark"', '"benchmark_id"'),
    ], ids=["truncated", "version", "meta-key"])
    def test_malformed_checkpoint_is_data_error(self, market_dir, tmp_path, capsys, corrupt):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        ckpt.write_text(corrupt(ckpt.read_text()))
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("window, expected", [("50", EXIT_CONFIG), ("7", EXIT_CONFIG),
                                                  ("6", EXIT_OK)])
    def test_explicit_window_must_match(self, market_dir, tmp_path, window, expected):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt",
                    "--window", window,
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == expected

    def test_market_dir_from_config(self, market_dir, tmp_path):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        cfg = tmp_path / "bt.cfg"
        cfg.write_text(f"market_dir = {d}\ncheckpoint = {ckpt}\n")
        code = run(["backtest", "--config", cfg, "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_OK


class TestCompare:
    def test_schema_and_cross_check(self, tmp_path):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)

        out = tmp_path / "cmp"
        code = run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", out,
                    "--benchmark", "benchmark",
                    "--test-start", market.dates[40], "--test-end", market.dates[100],
                    "--window", "6", "--long-n", "3", "--short-n", "3"])
        assert code == EXIT_OK
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0] == "group,strategy,log_daily_return,log_annual_sharpe,log_annual_sortino,mdd"
        assert len(rows) == 3
        drl = rows[1].split(",")
        factor = rows[2].split(",")
        assert drl[1] == "drl"
        assert factor[1] == "multi_factor"
        # Ranked universe: the factor book earns one percent per day.
        assert float(factor[2]) == pytest.approx(0.01, abs=1e-12)

    def test_missing_factor_file_is_data_error(self, tmp_path):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        code = run(["compare", ckpt, tmp_path / "nope.csv", "--market-dir", d,
                    "--out", tmp_path / "c", "--benchmark", "benchmark",
                    "--test-start", market.dates[40], "--test-end", market.dates[100],
                    "--long-n", "3", "--short-n", "3"])
        assert code == EXIT_DATA
