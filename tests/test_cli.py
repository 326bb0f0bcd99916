import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from drlfolio.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    TRAIN_WINDOW,
    build_parser,
    build_settings,
    main,
)
from drlfolio import cli
from drlfolio.market_data import load_csv
from drlfolio.neural import build_actor, build_critic, load_checkpoint, save_checkpoint
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

    def test_divergence_exits_cleanly(self, market_dir, tmp_path, capsys):
        d, _ = market_dir
        cfg = tmp_path / "wild.cfg"
        cfg.write_text("critic_lr = 1e100\nactor_lr = 1e100\nbatch_size = 16\n")
        out = tmp_path / "wild"
        code = run(train_args(d, out, **{"total-steps": 60}) + ["--config", cfg])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: training diverged at episode 1, step 15 (non-finite network output)"
        ]
        # The episode that finished before the updates began is logged.
        log = (out / "trainlog.csv").read_text().splitlines()
        assert log[0] == "episode,step,mean_daily_return,final_value,mean_cost"
        assert [row.split(",")[:2] for row in log[1:]] == [["0", "0"]]
        assert not (out / "checkpoint.json").exists()

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


def overflowing_checkpoint(path, market, bias, window=6):
    """Checkpoint whose actor overflows to non-finite logits on the market's
    price blocks: Glorot weights and every bias set to ``bias``, all scaled by
    1e120. With zero biases the all-zero block check_checkpoint probes with
    stays finite; with nonzero ones it overflows as well."""
    rng = np.random.default_rng(0)
    actor = build_actor(market.n_assets, window, rng)
    critic = build_critic(market.n_assets, window, rng)
    for p in actor.params():
        if p.ndim == 1:
            p[...] = bias
    actor.flat[...] *= 1e120
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

    @pytest.mark.parametrize("meta_change", [
        {"assets": ["alpha", "bench"]},
        {"window": 7},
    ], ids=["asset-count", "window"])
    def test_networks_must_fit_meta(self, market_dir, tmp_path, capsys, meta_change):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        payload = json.loads(ckpt.read_text())
        payload["meta"].update(meta_change)
        ckpt.write_text(json.dumps(payload))
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("network", [0, 1], ids=["actor", "critic"])
    def test_non_finite_checkpoint_is_data_error(self, market_dir, tmp_path, capsys, network):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        *nets, meta = load_checkpoint(ckpt)
        nets[network].layers[-1].bias[-1] = np.nan
        save_checkpoint(ckpt, *nets, meta)
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "non-finite" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bias", [0.0, 1e-3], ids=["test-range", "probe"])
    def test_overflowing_checkpoint_is_data_error(self, market_dir, tmp_path, capsys, bias):
        d, market = market_dir
        ckpt = overflowing_checkpoint(tmp_path / "ckpt.json", market, bias)
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "non-finite" in err and "Traceback" not in err

    def test_one_day_test_range_is_config_error(self, market_dir, tmp_path, capsys):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        out = tmp_path / "bt"
        code = run(["backtest", ckpt, "--market-dir", d, "--out", out,
                    "--test-start", market.dates[40], "--test-end", market.dates[40]])
        assert code == EXIT_CONFIG
        assert "one trading day" in capsys.readouterr().err
        assert not list(out.iterdir())

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

    def test_parses_each_csv_once(self, tmp_path, monkeypatch):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        book = drift_market(120, [0.0, 0.0, 0.0], asset_ids=["stock00", "stock03", "benchmark"])
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", book, window=6)
        parsed = []
        monkeypatch.setattr(cli, "load_csv", lambda path: parsed.append(path) or load_csv(path))
        code = run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", tmp_path / "cmp",
                    "--benchmark", "benchmark", "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_OK
        assert sorted(parsed) == sorted(d.glob("*.csv")) and len(parsed) == 7

    def test_one_day_test_range_is_config_error(self, tmp_path, capsys):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        out = tmp_path / "cmp"
        code = run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", out,
                    "--benchmark", "benchmark", "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[40]])
        assert code == EXIT_CONFIG
        assert "one trading day" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_checkpoint_is_data_error(self, tmp_path, capsys):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        ckpt = overflowing_checkpoint(tmp_path / "ckpt.json", market, 0.0)
        out = tmp_path / "cmp"
        code = run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", out,
                    "--benchmark", "benchmark", "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "non-finite" in err and "Traceback" not in err
        assert not (out / "comparison.csv").exists()

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


# The flags of the commands that check the train range against the test range.
RANGE_FLAGS = {
    "--config": "str", "--out": "str", "--window": "int", "--mu": "float",
    "--test-start": "str", "--test-end": "str", "--train-start": "str", "--train-end": "str",
}

# Each subcommand takes only the flags its command reads.
CLI_SURFACE = {
    "ingest": (["market_dir"], {"--config": "str", "--benchmark": "str"}),
    "train": (["market_dir"],
              {**RANGE_FLAGS, "--benchmark": "str", "--seed": "int", "--total-steps": "int",
               "--episode-len": "int", "--checkpoint-every": "int"}),
    "backtest": (["checkpoint"], {**RANGE_FLAGS, "--market-dir": "str"}),
    "compare": (["checkpoint", "factor_csv"],
                {**RANGE_FLAGS, "--market-dir": "str", "--benchmark": "str", "--long-n": "int",
                 "--short-n": "int", "--group": "str"}),
}

TRAIN_DEFAULT_SETTINGS = """\
config actor_lr = 4e-05
config arbitrage = True
config batch_size = 64
config benchmark = 
config buffer_capacity = 600
config checkpoint = 
config checkpoint_every = 0
config critic_lr = 0.0005
config discount = 0.99
config episode_len = 252
config factor_csv = 
config group = experiment_1
config leverage = 
config long_n = 20
config market_dir = 
config mu = 0.0025
config noise_var = 0.25
config out = 
config seed = 0
config short_n = 20
config tau = 0.001
config test_end = 
config test_start = 
config total_steps = 300000
config train_end = 
config train_start = 
config window = 50
"""


class TestCliSurface:
    """The flags and config keys users rely on; a refactor of the parser keeps them."""

    def test_subcommand_options(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(CLI_SURFACE)
        for name, (positionals, flags) in CLI_SURFACE.items():
            actions = sub.choices[name]._actions
            assert [a.dest for a in actions if not a.option_strings] == positionals
            seen = {}
            for action in actions:
                if action.option_strings and action.dest != "help":
                    (option,) = action.option_strings
                    assert action.dest == option[2:].replace("-", "_")
                    assert action.default is None
                    seen[option] = getattr(action.type, "__name__", "str")
            assert seen == flags, name

    @pytest.mark.parametrize("command, flags", [
        ("ingest", ["--total-steps", "5", "--checkpoint-every", "3",
                    "--train-start", "1990-01-01"]),
        ("ingest", ["--out", "x"]),
        ("backtest", ["--seed", "11"]),
        ("backtest", ["--benchmark", "bench"]),
        ("compare", ["--total-steps", "5"]),
        ("compare", ["--episode-len", "10"]),
    ], ids=["ingest-train-flags", "ingest-out", "backtest-seed", "backtest-benchmark",
            "compare-total-steps", "compare-episode-len"])
    def test_unread_flag_is_usage_error(self, market_dir, capsys, command, flags):
        d, _ = market_dir
        with pytest.raises(SystemExit) as exc:
            run([command, d, *flags])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    def test_config_file_still_takes_every_key(self, market_dir, tmp_path):
        d, _ = market_dir
        cfg = tmp_path / "all.cfg"
        cfg.write_text("total_steps = 5\ncheckpoint_every = 3\ntrain_start = 1990-01-01\n"
                       "seed = 4\nepisode_len = 10\nout = unused\n")
        assert run(["ingest", d, "--config", cfg, "--benchmark", "bench"]) == EXIT_OK

    def test_train_default_settings(self, capsys):
        args = build_parser().parse_args(["train"])
        build_settings(args, window=TRAIN_WINDOW)
        assert capsys.readouterr().out == TRAIN_DEFAULT_SETTINGS
