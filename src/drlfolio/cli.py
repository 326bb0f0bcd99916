"""Command-line orchestration: ingest, train, backtest, compare.

Configuration is a flat ``key = value`` text file; command-line flags override
file values, and every effective setting is printed at startup. Exit codes:
0 success, 2 usage error, 3 data error, 4 configuration violation.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .analytics import METRIC_NAMES, metric_suite, run_backtest, training_slope, write_report
from .baseline_factor import load_factor_csv, run_factor_backtest
from .ddpg import TrainConfig, checkpoint_meta, greedy_policy, train
from .errors import (
    AlignmentError,
    ConfigError,
    FormatError,
    InsufficientUniverseError,
    WindowError,
)
from .market_data import AlignedMarket, align, load_csv
from .neural import load_checkpoint, save_checkpoint
from .trading_env import EnvConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4

TRAIN_WINDOW = 50

_DEFAULTS: dict[str, object] = {
    "market_dir": "",
    "factor_csv": "",
    "checkpoint": "",
    "out": "",
    "benchmark": "",
    "group": "experiment_1",
    # None unless a file or flag sets it: train falls back to TRAIN_WINDOW and
    # a backtest takes the checkpoint's window.
    "window": None,
    "episode_len": 252,
    "mu": 0.0025,
    "arbitrage": True,
    "leverage": "",
    "train_start": "",
    "train_end": "",
    "test_start": "",
    "test_end": "",
    "total_steps": 300_000,
    "batch_size": 64,
    "buffer_capacity": 600,
    "critic_lr": 5e-4,
    "actor_lr": 4e-5,
    "noise_mean": 0.05,
    "noise_var": 0.25,
    "discount": 0.99,
    "tau": 0.001,
    "seed": 0,
    "checkpoint_every": 0,
    "long_n": 20,
    "short_n": 20,
}


class UsageError(Exception):
    pass


def _coerce(key: str, raw: str) -> object:
    default = _DEFAULTS[key]
    if default is None:
        return int(raw)
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "on", "yes"):
            return True
        if low in ("0", "false", "off", "no"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw.strip()


def read_config_file(path: str | Path) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def build_settings(args: argparse.Namespace, **command_defaults: object) -> dict[str, object]:
    settings = {**_DEFAULTS, **command_defaults}
    if getattr(args, "config", None):
        settings.update(read_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None and flag != "":
            settings[key] = flag
    for key in sorted(settings):
        print(f"config {key} = {settings[key]}")
    return settings


def _load_market_dir(market_dir: str, benchmark: str, only: list[str] | None = None) -> AlignedMarket:
    if not market_dir:
        raise UsageError("a market directory is required (positional, --market-dir or config)")
    root = Path(market_dir)
    if not root.is_dir():
        raise UsageError(f"market directory {market_dir!r} does not exist")
    paths = sorted(root.glob("*.csv"))
    if only is not None:
        wanted = set(only)
        paths = [p for p in paths if p.stem in wanted]
        missing = wanted - {p.stem for p in paths}
        if missing:
            raise FormatError(f"missing price files for assets: {sorted(missing)}")
    if not paths:
        raise UsageError(f"no CSV files in {market_dir!r}")
    series = [load_csv(p) for p in paths]
    if not benchmark:
        benchmark = series[-1].asset_id
        print(f"note: no benchmark configured, defaulting to {benchmark!r}")
    return align(series, benchmark)


def _resolve_range(market: AlignedMarket, start: str, end: str, what: str) -> tuple[int, int]:
    if not start or not end:
        raise ConfigError(f"{what} range requires both start and end dates")
    if end < start:
        raise ConfigError(f"{what} range end {end} before start {start}")
    try:
        return market.position_range(start, end)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def _check_out_of_sample(settings: dict[str, object]) -> None:
    tr_s, tr_e = str(settings["train_start"]), str(settings["train_end"])
    te_s, te_e = str(settings["test_start"]), str(settings["test_end"])
    if tr_s and tr_e and te_s and te_e:
        if te_s <= tr_e and tr_s <= te_e:
            raise ConfigError(
                f"out-of-sample violation: test range [{te_s}, {te_e}] "
                f"overlaps training range [{tr_s}, {tr_e}]"
            )


def _parse_leverage(raw: str) -> np.ndarray | None:
    """Comma-separated per-asset ratios, cash first; empty means unleveraged."""
    if not raw:
        return None
    try:
        return np.array([float(v) for v in str(raw).split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"bad leverage vector {raw!r}: {exc}") from exc


def _env_config(settings: dict[str, object]) -> EnvConfig:
    return EnvConfig(
        window=int(settings["window"]),
        episode_len=int(settings["episode_len"]),
        mu=float(settings["mu"]),
        leverage=_parse_leverage(str(settings["leverage"])),
        arbitrage_enabled=bool(settings["arbitrage"]),
    )


def _train_config(settings: dict[str, object]) -> TrainConfig:
    return TrainConfig(
        batch_size=int(settings["batch_size"]),
        buffer_capacity=int(settings["buffer_capacity"]),
        critic_lr=float(settings["critic_lr"]),
        actor_lr=float(settings["actor_lr"]),
        total_steps=int(settings["total_steps"]),
        noise_mean=float(settings["noise_mean"]),
        noise_var=float(settings["noise_var"]),
        discount=float(settings["discount"]),
        tau=float(settings["tau"]),
        seed=int(settings["seed"]),
    )


def _require_out(settings: dict[str, object]) -> Path:
    out = str(settings["out"])
    if not out:
        raise UsageError("an output directory is required (--out or config key 'out')")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- commands ---------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    settings = build_settings(args)
    market = _load_market_dir(args.market_dir, str(settings["benchmark"]))
    print(f"assets: {market.n_assets}")
    print(f"benchmark: {market.asset_ids[market.benchmark_index]}")
    print(f"days: {len(market)} ({market.dates[0]} to {market.dates[-1]})")
    for i, asset in enumerate(market.asset_ids):
        missing = int(np.sum(
            (market.open[i] == 0) | (market.high[i] == 0)
            | (market.low[i] == 0) | (market.close[i] == 0)
        ))
        print(f"missing[{asset}] = {missing}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    settings = build_settings(args, window=TRAIN_WINDOW)
    _check_out_of_sample(settings)
    out = _require_out(settings)
    market = _load_market_dir(str(settings["market_dir"]) or args.market_dir,
                              str(settings["benchmark"]))
    if settings["train_start"] or settings["train_end"]:
        lo, hi = _resolve_range(market, str(settings["train_start"]),
                                str(settings["train_end"]), "train")
        market = market.restrict(lo, hi)
    env_config = _env_config(settings)
    train_config = _train_config(settings)

    every = int(settings["checkpoint_every"])
    actor, critic, log = train(
        market, env_config, train_config,
        checkpoint_dir=out if every else None,
        checkpoint_every=every or None,
    )
    save_checkpoint(out / "checkpoint.json", actor, critic,
                    checkpoint_meta(market, env_config, train_config))
    log.write_csv(out / "trainlog.csv")
    print(f"episodes: {len(log.records)}")
    if len(log.records) >= 2:
        slope, intercept = training_slope(log)
        print(f"training slope: {slope!r} (intercept {intercept!r})")
    print(f"wrote {out / 'checkpoint.json'} and {out / 'trainlog.csv'}")
    return EXIT_OK


def _backtest_drl(settings: dict[str, object], checkpoint: str):
    actor, _critic, meta = load_checkpoint(checkpoint)
    missing = [key for key in ("assets", "benchmark", "window") if key not in meta]
    if missing:
        raise FormatError(f"checkpoint meta lacks {', '.join(missing)}")
    market = _load_market_dir(str(settings["market_dir"]), str(meta["benchmark"]),
                              only=list(meta["assets"]))
    window = int(meta["window"])
    if settings["window"] is not None and int(settings["window"]) != window:
        raise ConfigError(
            f"requested window {settings['window']} != checkpoint window {window}"
        )
    lo, hi = _resolve_range(market, str(settings["test_start"]),
                            str(settings["test_end"]), "test")
    if lo < window:
        raise ConfigError(
            f"test range starts on day {lo}, need {window} days of history before it"
        )
    config = EnvConfig(
        window=window,
        episode_len=max(hi - lo, 1),
        mu=float(settings["mu"]),
        leverage=_parse_leverage(str(settings["leverage"])),
        arbitrage_enabled=bool(meta.get("arbitrage", True)),
    )
    policy = greedy_policy(actor, arbitrage=config.arbitrage_enabled)
    report = run_backtest(policy, market, config, lo - 1, hi)
    return report


def cmd_backtest(args: argparse.Namespace) -> int:
    settings = build_settings(args)
    _check_out_of_sample(settings)
    out = _require_out(settings)
    checkpoint = str(settings["checkpoint"]) or args.checkpoint
    report = _backtest_drl(settings, checkpoint)
    metrics = write_report(report, out)
    for name in METRIC_NAMES:
        print(f"{name} = {metrics[name]!r}")
    print(f"wrote report files to {out}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    settings = build_settings(args)
    _check_out_of_sample(settings)
    out = _require_out(settings)

    drl_report = _backtest_drl(settings, str(settings["checkpoint"]) or args.checkpoint)
    drl_metrics = metric_suite(drl_report)

    factor_market = _load_market_dir(str(settings["market_dir"]), str(settings["benchmark"]))
    panel = load_factor_csv(str(settings["factor_csv"]) or args.factor_csv, factor_market)
    lo, hi = _resolve_range(factor_market, str(settings["test_start"]),
                            str(settings["test_end"]), "test")
    if lo < 1:
        raise ConfigError("test range must start after the first day for factor scoring")
    factor_report = run_factor_backtest(
        factor_market, panel, lo - 1, hi,
        long_n=int(settings["long_n"]), short_n=int(settings["short_n"]),
    )
    factor_metrics = metric_suite(factor_report)

    columns = ("log_daily_return", "log_annual_sharpe", "log_annual_sortino", "mdd")
    path = out / "comparison.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "strategy", *columns])
        for strategy, metrics in (("drl", drl_metrics), ("multi_factor", factor_metrics)):
            writer.writerow([
                settings["group"], strategy,
                *("" if metrics[c] is None else repr(metrics[c]) for c in columns),
            ])
    print(f"wrote {path}")
    return EXIT_OK


# -- entry point --------------------------------------------------------------

def _add_shared_flags(parser: argparse.ArgumentParser, market_dir_flag: bool = False) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    if market_dir_flag:
        parser.add_argument("--market-dir", dest="market_dir", default=None)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--mu", type=float, default=None)
    parser.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None)
    parser.add_argument("--benchmark", default=None)
    parser.add_argument("--test-start", dest="test_start", default=None)
    parser.add_argument("--test-end", dest="test_end", default=None)
    parser.add_argument("--train-start", dest="train_start", default=None)
    parser.add_argument("--train-end", dest="train_end", default=None)
    parser.add_argument("--total-steps", dest="total_steps", type=int, default=None)
    parser.add_argument("--episode-len", dest="episode_len", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drlfolio")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load and align a directory of OHLC CSVs")
    p_ingest.add_argument("market_dir")
    _add_shared_flags(p_ingest)

    p_train = sub.add_parser("train", help="train an agent and write checkpoint + log")
    p_train.add_argument("market_dir", nargs="?", default="")
    _add_shared_flags(p_train)

    p_back = sub.add_parser("backtest", help="greedy rollout of a checkpoint")
    p_back.add_argument("checkpoint", nargs="?", default="")
    _add_shared_flags(p_back, market_dir_flag=True)

    p_cmp = sub.add_parser("compare", help="checkpoint vs factor baseline on one range")
    p_cmp.add_argument("checkpoint", nargs="?", default="")
    p_cmp.add_argument("factor_csv", nargs="?", default="")
    p_cmp.add_argument("--long-n", dest="long_n", type=int, default=None)
    p_cmp.add_argument("--short-n", dest="short_n", type=int, default=None)
    p_cmp.add_argument("--group", default=None)
    _add_shared_flags(p_cmp, market_dir_flag=True)
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "backtest": cmd_backtest,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, AlignmentError, WindowError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, InsufficientUniverseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
