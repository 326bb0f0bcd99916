import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from drlfolio import cli, ddpg
from drlfolio.analytics import metric_suite, run_backtest, write_report
from drlfolio.baseline_factor import FactorPanel
from drlfolio.ddpg import (CheckpointMeta, TrainConfig, check_checkpoint, checkpoint_meta,
                           greedy_policy, train)
from drlfolio.market_data import align, load_csv
from drlfolio.neural import build_actor, build_critic, load_checkpoint, save_checkpoint
from drlfolio.trading_env import EnvConfig
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


@pytest.fixture
def noisy_market_dir(tmp_path):
    """A market whose observation windows differ from day to day, and as the CLI parses it."""
    market = drift_market(120, [0.002, -0.001, 0.0], sigma=0.02, seed=5,
                          asset_ids=["alpha", "beta", "bench"])
    d = tmp_path / "noisy"
    write_market_csvs(market, d)
    return d, align([load_csv(p) for p in sorted(d.glob("*.csv"))], "bench")


REPORT_FILES = ("summary.json", "series.csv", "weights.csv", "plot.csv")


def run(argv):
    return main([str(a) for a in argv])


def rewrite_header(path, header):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(header + "\n" + "".join(lines[1:]))


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

    def test_missing_day_counts(self, tmp_path, capsys):
        market = drift_market(10, [0.0, 0.0, 0.0], asset_ids=["a", "b", "bench"])
        d = tmp_path / "market"
        write_market_csvs(market, d)
        # (file, day, column): a's two blanks on day 2 count as one missing day.
        for name, day, col in [("a", 2, 1), ("a", 2, 4), ("a", 5, 2), ("bench", 7, 3)]:
            path = d / f"{name}.csv"
            lines = path.read_text().splitlines()
            cells = lines[1 + day].split(",")
            cells[col] = ""
            lines[1 + day] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
        assert run(["ingest", d, "--benchmark", "bench"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()  # the settings come first
        assert out[out.index("assets: 3"):] == [
            "assets: 3", "benchmark: bench",
            f"days: 10 ({market.dates[0]} to {market.dates[-1]})",
            "missing[a] = 2", "missing[b] = 0", "missing[bench] = 1",
        ]

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

    @pytest.mark.parametrize("header", ["Date,Open,High,Low,Close", " date , open,high,low,close"])
    def test_header_matched_by_name(self, market_dir, capsys, header):
        d, market = market_dir
        rewrite_header(d / "alpha.csv", header)
        assert run(["ingest", d, "--benchmark", "bench"]) == EXIT_OK
        assert f"days: {len(market)}" in capsys.readouterr().out

    def test_non_utf8_file_is_data_error(self, market_dir, capsys):
        d, _ = market_dir
        path = d / "beta.csv"
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert run(["ingest", d, "--benchmark", "bench"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "beta.csv" in err and "Traceback" not in err


    def test_malformed_date_is_data_error(self, market_dir, capsys):
        d, market = market_dir
        path = d / "beta.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = "1/9/2020" + lines[5][lines[5].index(","):]
        path.write_text("".join(lines))
        assert run(["ingest", d, "--benchmark", "bench"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert "beta.csv" in err[0] and "'1/9/2020'" in err[0]


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

    def test_train_range_trains_on_those_days(self, noisy_market_dir, tmp_path):
        """--train-start/--train-end train on market.restrict of that range, out of the
        test range: the checkpoint is the one ddpg.train writes for the restricted market."""
        d, market = noisy_market_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batch_size = 8\n")
        ranges = {"train-start": market.dates[10], "train-end": market.dates[70],
                  "test-start": market.dates[80], "test-end": market.dates[110]}
        out = tmp_path / "run"
        assert run(train_args(d, out, **ranges, **{"total-steps": 30})
                   + ["--config", cfg]) == EXIT_OK

        env_config = EnvConfig(window=6, episode_len=10)
        train_config = TrainConfig(batch_size=8, total_steps=30, seed=3)
        expected = []
        for name, lo, hi in (("restricted", 10, 70), ("whole", 0, len(market) - 1)):
            part = market.restrict(lo, hi)
            actor, critic, _ = train(part, env_config, train_config)
            save_checkpoint(tmp_path / f"{name}.json", actor, critic,
                            checkpoint_meta(part, env_config, train_config))
            expected.append((tmp_path / f"{name}.json").read_bytes())
        got = (out / "checkpoint.json").read_bytes()
        assert got == expected[0]
        assert got != expected[1]

    def test_arbitrage_config_key(self, noisy_market_dir, tmp_path, capsys):
        """arbitrage = off trains and backtests without the sign rule; a value that is not
        a boolean is a config error."""
        d, market = noisy_market_dir
        cfg = tmp_path / "off.cfg"
        cfg.write_text("arbitrage = off\nbatch_size = 8\n")
        out = tmp_path / "run"
        # Seed 8's actor gives weights the sign rule would flip on every test day.
        assert run(train_args(d, out, seed=8, **{"total-steps": 30})
                   + ["--config", cfg]) == EXIT_OK
        actor, _, meta = load_checkpoint(out / "checkpoint.json")
        assert meta["arbitrage"] is False

        assert run(["backtest", out / "checkpoint.json", "--market-dir", d,
                    "--out", tmp_path / "bt", "--test-start", market.dates[40],
                    "--test-end", market.dates[90]]) == EXIT_OK
        reports = {}
        for arbitrage in (False, True):
            config = EnvConfig(window=6, episode_len=50, arbitrage_enabled=arbitrage)
            reports[arbitrage] = run_backtest(greedy_policy(actor, arbitrage=arbitrage), market,
                                              config, 39, 90)
        write_report(reports[False], tmp_path / "expected")
        for name in REPORT_FILES:
            assert (tmp_path / "bt" / name).read_bytes() == (tmp_path / "expected" / name).read_bytes()
        assert np.all(np.any(reports[False].weights != reports[True].weights, axis=1))

        bad = tmp_path / "maybe.cfg"
        bad.write_text("arbitrage = maybe\n")
        capsys.readouterr()
        assert run(train_args(d, tmp_path / "maybe") + ["--config", bad]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "arbitrage" in err[0]

    def test_tau_above_one_is_config_error(self, market_dir, tmp_path, capsys):
        d, _ = market_dir
        cfg = tmp_path / "tau.cfg"
        cfg.write_text("tau = 2\n")
        assert run(train_args(d, tmp_path / "run") + ["--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: tau must be in (0, 1], got 2.0"]

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

    def test_non_utf8_config_is_config_error(self, market_dir, tmp_path, capsys):
        d, _ = market_dir
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed = 3\n# caf\xe9\n")
        assert run(["train", d, "--config", cfg, "--out", tmp_path / "y"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "latin1.cfg" in err[0]

    @pytest.mark.parametrize("setting", ["noise_var = nan", "noise_var = inf", "critic_lr = nan",
                                         "tau = nan", "actor_lr = inf"])
    def test_non_finite_setting_is_config_error(self, market_dir, tmp_path, capsys, setting):
        d, _ = market_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n")
        assert run(train_args(d, tmp_path / "run") + ["--config", cfg]) == EXIT_CONFIG
        name, _, value = setting.partition(" = ")
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {name} must be finite, got {value}"]

    @pytest.mark.parametrize("leverage", ["1,nan,1,1", "1,inf,1,1"])
    def test_non_finite_leverage_is_config_error(self, market_dir, tmp_path, capsys, leverage):
        d, _ = market_dir
        cfg = tmp_path / "lev.cfg"
        cfg.write_text(f"leverage = {leverage}\n")
        assert run(train_args(d, tmp_path / "run") + ["--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: leverage must be a positive finite vector of length m+1"]

    def test_leverage_that_loses_the_value_is_config_error(self, market_dir, tmp_path, capsys):
        d, _ = market_dir
        cfg = tmp_path / "lev.cfg"
        cfg.write_text("leverage = 1,1e308,1,1\n")
        assert run(train_args(d, tmp_path / "run") + ["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: portfolio value ")
        assert "outside (0, inf); lower the leverage" in err[0]

    def test_negative_seed_is_config_error(self, market_dir, tmp_path, capsys):
        d, _ = market_dir
        assert run(train_args(d, tmp_path / "run", seed=-1)) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: seed must be non-negative, got -1"]

    @pytest.mark.parametrize("capacity", [2**62, 10**17])
    def test_unallocatable_replay_ring_is_config_error(self, market_dir, tmp_path, capsys,
                                                       capacity):
        """numpy refuses both rings at once, allocating nothing."""
        d, _ = market_dir
        cfg = tmp_path / "ring.cfg"
        cfg.write_text(f"buffer_capacity = {capacity}\n")
        assert run(train_args(d, tmp_path / "run") + ["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: buffer_capacity {capacity} cannot be allocated: ")

    def test_checkpoint_every_snapshots(self, market_dir, tmp_path):
        d, _ = market_dir
        out = tmp_path / "snap"
        assert run(train_args(d, out, **{"checkpoint-every": 1})) == EXIT_OK
        snaps = sorted(p.name for p in out.glob("checkpoint_ep*.json"))
        assert snaps == ["checkpoint_ep00001.json", "checkpoint_ep00002.json"]

    @pytest.mark.parametrize("window", [2, 3, 4])
    def test_window_too_narrow_for_networks_is_config_error(self, market_dir, tmp_path, capsys,
                                                             window):
        d, _ = market_dir
        assert run(train_args(d, tmp_path / "narrow", window=window)) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: window must be >= 5 for two time-axis convolutions"]

    @pytest.mark.parametrize("window", [100_000_000, 10**12])
    def test_window_past_the_market_is_config_error_before_any_network(
            self, market_dir, tmp_path, capsys, monkeypatch, window):
        """The day count is checked before the networks, whose head grows with the window."""
        d, _ = market_dir
        built = []
        monkeypatch.setattr(ddpg, "build_actor", lambda *args: built.append(args))
        monkeypatch.setattr(ddpg, "build_critic", lambda *args: built.append(args))
        assert run(train_args(d, tmp_path / "wide", window=window)) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: market has 120 days, need at least {window + 10 + 1}"]
        assert built == []

    def test_negative_checkpoint_every_is_config_error(self, market_dir, tmp_path, capsys):
        d, _ = market_dir
        out = tmp_path / "snap"
        assert run(train_args(d, out, **{"checkpoint-every": -1})) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: checkpoint_every must be positive, got -1"]
        assert not list(out.glob("checkpoint*.json"))

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

    @pytest.mark.parametrize("mu", ["0.5", "0.6"])
    def test_cost_rate_of_half_or_more_is_config_error(self, market_dir, tmp_path, capsys, mu):
        d, _ = market_dir
        out = tmp_path / "costly"
        assert run(train_args(d, out, mu=mu)) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cost rate must be in [0, 0.5), got {mu}"]
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


# A meta field of a 3-asset, window-6 checkpoint: its JSON text (None leaves the
# key out) and the one-line data error a backtest gives for it.
HOSTILE_META = [
    *(("window", text, f"checkpoint meta window {shown} is not a positive integer")
      for text, shown in [("1e400", "inf"), ("6.7", "6.7"), ('"6"', "'6'"), ("true", "True"),
                          ("0", "0"), ("-3", "-3"), ("null", "None"), ("[6]", "[6]")]),
    ("window", str(10**14), "checkpoint actor does not fit its meta: Unable to allocate"),
    *(("arbitrage", text, f"checkpoint meta arbitrage {shown} is not true or false")
      for text, shown in [('"no"', "'no'"), ("null", "None"), ("0", "0")]),
    ("arbitrage", None, "checkpoint meta lacks arbitrage"),
    *(("assets", text, f"checkpoint meta assets {shown} is not a non-empty list")
      for text, shown in [('"abc"', "'abc'"), ("{}", "{}"), ("[]", "[]")]),
]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(n_assets=st.integers(2, 4), window=st.integers(5, 12), arbitrage=st.booleans())
def test_checkpoint_meta_round_trip(n_assets, window, arbitrage):
    """What a run writes in its meta, through JSON, is what check_checkpoint gives back."""
    ids = [f"a{i}" for i in range(n_assets)]
    market = drift_market(window + 2, [0.0] * n_assets, asset_ids=ids)
    rng = np.random.default_rng(window)
    actor, critic = build_actor(n_assets, window, rng), build_critic(n_assets, window, rng)
    env_config = EnvConfig(window=window, arbitrage_enabled=arbitrage)
    meta = json.loads(json.dumps(checkpoint_meta(market, env_config, TrainConfig())))
    assert check_checkpoint(actor, critic, meta) == CheckpointMeta(tuple(ids), window, arbitrage)


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

    @pytest.mark.parametrize("leverage", ["1,nan,1,1", "1,inf,1,1"])
    def test_non_finite_leverage_is_config_error(self, market_dir, tmp_path, capsys, leverage):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        cfg = tmp_path / "lev.cfg"
        cfg.write_text(f"leverage = {leverage}\n")
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt", "--config", cfg,
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: leverage must be a positive finite vector of length m+1"]

    def test_leverage_that_loses_the_value_is_config_error(self, market_dir, tmp_path, capsys):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        cfg = tmp_path / "lev.cfg"
        cfg.write_text("leverage = 1,1e308,1,1\n")
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt", "--config", cfg,
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: portfolio value inf on day 40 is outside (0, inf); lower the leverage"]

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

    @pytest.mark.parametrize("change, message", [
        (lambda p: p["meta"].update(assets=["alpha", "alpha", "bench"]),
         "checkpoint meta lists asset 'alpha' twice"),
        (lambda p: p["meta"].update(assets=["alpha", "bench", "beta"]),
         "checkpoint meta benchmark 'bench' is not its last asset"),
        (lambda p: p["meta"].update(assets=[["alpha"], "beta", "bench"]),
         "checkpoint meta asset ['alpha'] is not a name"),
    ], ids=["repeated-asset", "benchmark-not-last", "asset-not-a-string"])
    def test_bad_meta_assets_is_data_error(self, market_dir, tmp_path, capsys,
                                            change, message):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        payload = json.loads(ckpt.read_text())
        change(payload)
        ckpt.write_text(json.dumps(payload))
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]

    @pytest.mark.parametrize("key, value, message", HOSTILE_META,
                             ids=[f"{key}={value}" for key, value, _ in HOSTILE_META])
    def test_hostile_meta_is_one_data_error_line(self, market_dir, tmp_path, capsys, key, value,
                                                 message):
        """``value`` is the meta field's JSON text; None leaves the key out."""
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        payload = json.loads(ckpt.read_text())
        if value is None:
            del payload["meta"][key]
            ckpt.write_text(json.dumps(payload))
        else:
            payload["meta"][key] = "@value"
            ckpt.write_text(json.dumps(payload).replace('"@value"', value))
        out = tmp_path / "bt"
        code = run(["backtest", ckpt, "--market-dir", d, "--out", out,
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        if message.endswith("Unable to allocate"):
            assert err[0].startswith(f"data error: {message} ")
        else:
            assert err[0] == f"data error: {message}"
        assert not list(out.iterdir())

    def test_unallocatable_layer_is_data_error(self, market_dir, tmp_path, capsys):
        """numpy refuses a 71 PiB weight matrix at once, allocating nothing."""
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        payload = json.loads(ckpt.read_text())
        payload["actor"]["spec"][-1].update(in_dim=10**8, out_dim=10**8)
        ckpt.write_text(json.dumps(payload))
        code = run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("data error: malformed actor network in checkpoint: Unable to allocate")

    def test_actor_sees_the_checkpoints_asset_order(self, tmp_path):
        """A library-trained checkpoint lists its assets out of file-name order; backtest and
        compare feed them to the actor in that order."""
        market = drift_market(120, [0.002, -0.001, 0.0], sigma=0.02, seed=5,
                              asset_ids=["zeta", "alpha", "bench"])
        d = tmp_path / "market"
        write_market_csvs(market, d)
        env_config = EnvConfig(window=6, episode_len=10)
        train_config = TrainConfig(batch_size=8, total_steps=20, seed=3)
        actor, critic, _ = train(market, env_config, train_config)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, actor, critic, checkpoint_meta(market, env_config, train_config))
        dates = ["--test-start", market.dates[40], "--test-end", market.dates[90]]

        assert run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt", *dates]) == EXIT_OK
        expected = run_backtest(greedy_policy(actor), market,
                                EnvConfig(window=6, episode_len=50), 39, 90)
        write_report(expected, tmp_path / "expected")
        for name in REPORT_FILES:
            assert (tmp_path / "bt" / name).read_bytes() == (tmp_path / "expected" / name).read_bytes()

        ranks = np.array([[1.0], [0.5], [np.nan]]).repeat(len(market), axis=1)
        factor_csv = write_factor_csv(FactorPanel(market.asset_ids, market.dates, ranks, ranks),
                                      tmp_path / "factors.csv")
        assert run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", tmp_path / "cmp",
                    "--long-n", "1", "--short-n", "1", *dates]) == EXIT_OK
        drl = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()[1].split(",")
        metrics = metric_suite(expected)
        assert drl[2] == repr(metrics["log_daily_return"])
        assert drl[5] == repr(metrics["mdd"])

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

    @pytest.mark.parametrize("key, value", [("test_start", "2015-03-1"),
                                            ("test_end", "2015-3-30"),
                                            ("train_start", "15-01-01"),
                                            ("train_end", "2015/01/20")])
    def test_date_not_yyyy_mm_dd_is_config_error(self, market_dir, tmp_path, capsys, key, value):
        """Dates compare as strings, so 2015-03-1 would sort after 2015-03-09 and move
        the range without an error."""
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        cfg = tmp_path / "dates.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "bt"
        code = run(["backtest", ckpt, "--market-dir", d, "--out", out, "--config", cfg,
                    "--test-start", market.dates[40], "--test-end", market.dates[90]]
                   if key.startswith("train") else
                   ["backtest", ckpt, "--market-dir", d, "--out", out, "--config", cfg])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key} {value!r} is not YYYY-MM-DD"]
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("test_end", "2015-02-30"),
                                            ("train_start", "2015-13-45"),
                                            ("train_end", "2015-02-29")])
    def test_impossible_calendar_date_is_config_error(self, market_dir, tmp_path, capsys, key,
                                                      value):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        out = tmp_path / "bt"
        flag = "--" + key.replace("_", "-")
        code = run(["backtest", ckpt, "--market-dir", d, "--out", out,
                    "--test-start", market.dates[40], "--test-end", market.dates[90], flag, value])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key} {value!r} is not a calendar date"]
        assert not out.exists()

    def test_leap_day_is_a_date(self, market_dir, tmp_path):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        assert run(["backtest", ckpt, "--market-dir", d, "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", "2016-02-29"]) == EXIT_OK

    def test_one_day_test_range_is_config_error(self, market_dir, tmp_path, capsys):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        out = tmp_path / "bt"
        code = run(["backtest", ckpt, "--market-dir", d, "--out", out,
                    "--test-start", market.dates[40], "--test-end", market.dates[40]])
        assert code == EXIT_CONFIG
        assert "one trading day" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_cost_rate_of_half_is_config_error(self, market_dir, tmp_path, capsys):
        d, market = market_dir
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market)
        out = tmp_path / "bt"
        code = run(["backtest", ckpt, "--market-dir", d, "--out", out, "--mu", "0.5",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: cost rate must be in [0, 0.5), got 0.5"]
        assert not list(out.iterdir())

    def test_missing_checkpoint_is_usage_error(self, market_dir, tmp_path, capsys):
        d, market = market_dir
        code = run(["backtest", "--market-dir", d, "--out", tmp_path / "bt",
                    "--test-start", market.dates[40], "--test-end", market.dates[90]])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "usage error: checkpoint is required (positional argument or config key 'checkpoint')"]

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

    def test_csv_text(self, tmp_path, monkeypatch):
        """Hand-set metrics, in the order compare computes them; None is an empty cell."""
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        metrics = iter([
            {"log_daily_return": 0.001, "log_annual_sharpe": None,
             "log_annual_sortino": 1 / 3, "mdd": 0.0},
            {"log_daily_return": np.float64(0.01), "log_annual_sharpe": 2.5,
             "log_annual_sortino": None, "mdd": 0.125},
        ])
        monkeypatch.setattr(cli, "metric_suite", lambda report: next(metrics))
        out = tmp_path / "cmp"
        assert run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", out,
                    "--long-n", "3", "--short-n", "3", "--group", "g1",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]]) == EXIT_OK
        lines = ["group,strategy,log_daily_return,log_annual_sharpe,log_annual_sortino,mdd",
                 "g1,drl,0.001,,0.3333333333333333,0.0",
                 "g1,multi_factor,0.01,2.5,,0.125"]
        assert (out / "comparison.csv").read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()

    def test_benchmark_comes_from_the_checkpoint(self, tmp_path, capsys):
        """The universe is aligned on the checkpoint's benchmark, which is not the
        last file by name, and compare takes no --benchmark flag."""
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        args = ["compare", ckpt, factor_csv, "--market-dir", d, "--out", tmp_path / "cmp",
                "--long-n", "3", "--short-n", "3",
                "--test-start", market.dates[40], "--test-end", market.dates[100]]
        assert sorted(market.asset_ids)[-1] != "benchmark"
        assert run(args) == EXIT_OK
        assert "defaulting" not in capsys.readouterr().out
        factor = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()[2].split(",")
        assert float(factor[2]) == pytest.approx(0.01, abs=1e-12)
        with pytest.raises(SystemExit) as exc:
            run([*args, "--benchmark", "benchmark"])
        assert exc.value.code == EXIT_USAGE

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
                    "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_OK
        assert sorted(parsed) == sorted(d.glob("*.csv")) and len(parsed) == 7

    def test_both_strategies_trade_the_universes_dates(self, tmp_path, monkeypatch):
        """A non-book asset that lacks one test-range day takes that day out of both runs."""
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        lines = (d / "stock05.csv").read_text().splitlines(keepends=True)
        assert lines[61].startswith(market.dates[60])
        (d / "stock05.csv").write_text("".join(lines[:61] + lines[62:]))
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        book = drift_market(120, [0.0, 0.0, 0.0], asset_ids=["stock00", "stock03", "benchmark"])
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", book, window=6)
        reports = []
        monkeypatch.setattr(cli, "metric_suite",
                            lambda report: reports.append(report) or metric_suite(report))
        assert run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", tmp_path / "cmp",
                    "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]]) == EXIT_OK
        drl, factor = reports
        assert drl.asset_ids == ("stock00", "stock03", "benchmark")
        assert drl.dates == factor.dates
        assert drl.dates == market.dates[40:60] + market.dates[61:101]

    @pytest.mark.parametrize("missing", ["checkpoint", "factor_csv"])
    def test_missing_input_file_is_usage_error_before_any_work(self, tmp_path, capsys,
                                                               monkeypatch, missing):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        inputs = {"checkpoint": fully_invested_checkpoint(tmp_path / "ckpt.json", market),
                  "factor_csv": write_factor_csv(panel, tmp_path / "factors.csv")}
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in inputs.items() if k != missing))
        parsed = []
        monkeypatch.setattr(cli, "load_csv", lambda path: parsed.append(path) or load_csv(path))
        code = run(["compare", "--config", cfg, "--market-dir", d, "--out", tmp_path / "cmp",
                    "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: {missing} is required (positional argument or config key '{missing}')"]
        assert parsed == []

    def test_universe_starting_on_test_start_is_config_error(self, tmp_path, capsys):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        first = write_market_csvs(market, d)[0]
        # A late listing: the universe's common dates begin on the test start, and
        # both strategies trade those dates, so the agent has no window behind it.
        lines = first.read_text().splitlines(keepends=True)
        (d / "late.csv").write_text(lines[0] + "".join(lines[41:]))
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        book = drift_market(120, [0.0, 0.0, 0.0], asset_ids=["stock00", "stock03", "benchmark"])
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", book, window=6)
        out = tmp_path / "cmp"
        code = run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", out,
                    "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: first return day 0 has 0 days of history, need 6"]
        assert not (out / "comparison.csv").exists()

    def test_header_matched_by_name(self, tmp_path):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        rewrite_header(write_market_csvs(market, d)[0], "Date,Open,High,Low,Close")
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        rewrite_header(factor_csv, " Date , Asset,EP_Ratio,Turnover")
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        out = tmp_path / "cmp"
        code = run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", out,
                    "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_OK
        factor = (out / "comparison.csv").read_text().splitlines()[2].split(",")
        assert float(factor[2]) == pytest.approx(0.01, abs=1e-12)

    def test_one_day_test_range_is_config_error(self, tmp_path, capsys):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        out = tmp_path / "cmp"
        code = run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", out,
                    "--long-n", "3", "--short-n", "3",
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
                    "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "non-finite" in err and "Traceback" not in err
        assert not (out / "comparison.csv").exists()

    @pytest.mark.parametrize("flag", ["--long-n", "--short-n"])
    def test_empty_book_side_is_config_error(self, tmp_path, capsys, flag):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        out = tmp_path / "cmp"
        code = run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", out,
                    "--long-n", "3", "--short-n", "3", flag, "0",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: long_n and short_n must be positive"]
        assert not (out / "comparison.csv").exists()

    def test_empty_book_side_is_checked_before_any_work(self, tmp_path, capsys):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        code = run(["compare", tmp_path / "no_checkpoint.json", factor_csv, "--market-dir", d,
                    "--out", tmp_path / "cmp", "--long-n", "0",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: long_n and short_n must be positive"]

    def test_malformed_factor_date_is_data_error(self, tmp_path, capsys):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        factor_csv = write_factor_csv(panel, tmp_path / "factors.csv")
        with factor_csv.open("a") as fh:
            fh.write("1/7/2020,stock00,0.5,0.1\n")
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        out = tmp_path / "cmp"
        code = run(["compare", ckpt, factor_csv, "--market-dir", d, "--out", out,
                    "--long-n", "3", "--short-n", "3",
                    "--test-start", market.dates[40], "--test-end", market.dates[100]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert "factors.csv" in err[0] and "'1/7/2020'" in err[0]
        assert not (out / "comparison.csv").exists()

    def test_missing_factor_file_is_data_error(self, tmp_path):
        market, panel = ranked_factor_universe(n_long=3, n_short=3, n_days=120)
        d = tmp_path / "universe"
        write_market_csvs(market, d)
        ckpt = fully_invested_checkpoint(tmp_path / "ckpt.json", market, window=6)
        code = run(["compare", ckpt, tmp_path / "nope.csv", "--market-dir", d,
                    "--out", tmp_path / "c",
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
                {**RANGE_FLAGS, "--market-dir": "str", "--long-n": "int", "--short-n": "int",
                 "--group": "str"}),
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
        ("compare", ["--benchmark", "bench"]),
    ], ids=["ingest-train-flags", "ingest-out", "backtest-seed", "backtest-benchmark",
            "compare-total-steps", "compare-episode-len", "compare-benchmark"])
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

    def test_bad_boolean_quotes_the_value_it_tested(self, market_dir, tmp_path, capsys):
        d, _ = market_dir
        cfg = tmp_path / "maybe.cfg"
        cfg.write_text("arbitrage = maybe\n")
        assert run(["ingest", d, "--config", cfg, "--benchmark", "bench"]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {cfg}:1: config key arbitrage: expected a boolean, got 'maybe'"]

    def test_train_default_settings(self, capsys):
        args = build_parser().parse_args(["train"])
        build_settings(args, window=TRAIN_WINDOW)
        assert capsys.readouterr().out == TRAIN_DEFAULT_SETTINGS
