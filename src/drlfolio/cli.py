"""Command-line orchestration: ingest, train, backtest, compare.

Configuration is a flat ``key = value`` text file; command-line flags override
file values, and every effective setting is printed at startup. Exit codes:
0 success, 2 usage error, 3 data error, 4 configuration violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analytics import (METRIC_NAMES, BacktestReport, metric_suite, run_backtest, training_slope,
                        write_report)
from .baseline_factor import check_book, load_factor_csv, run_factor_backtest
from .ddpg import (TrainConfig, TrainingDiverged, check_checkpoint, checkpoint_meta, greedy_policy,
                   train)
from .errors import (
    AlignmentError,
    ConfigError,
    FormatError,
    InsufficientUniverseError,
    WindowError,
)
from .market_data import AlignedMarket, align, date_error, load_csv, write_csv
from .neural import load_checkpoint, save_checkpoint
from .trading_env import EnvConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4

# A training run without a configured window uses EnvConfig's.
TRAIN_WINDOW = EnvConfig.window

_TRAIN_FIELDS = {f.name: f.default for f in fields(TrainConfig)}

# Every config key: its default, and the subcommands whose cmd_* reads it and
# so take it as a --flag. The value type (int for a None default) parses both
# the config file and the flag. TrainConfig keys and their defaults come from
# its fields. _RUNS are the commands that check the train and test dates and
# ranges (_check_dates).
_RUNS = ("train", "backtest", "compare")
_KEYS: dict[str, tuple[object, tuple[str, ...]]] = {
    "market_dir": ("", ("backtest", "compare")),
    "factor_csv": ("", ()),
    "checkpoint": ("", ()),
    "out": ("", _RUNS),
    # A backtest and compare take their benchmark from the checkpoint.
    "benchmark": ("", ("ingest", "train")),
    "group": ("experiment_1", ("compare",)),
    # None unless a file or flag sets it: train falls back to TRAIN_WINDOW and
    # a backtest takes the checkpoint's window.
    "window": (None, _RUNS),
    "episode_len": (EnvConfig.episode_len, ("train",)),
    "mu": (EnvConfig.mu, _RUNS),
    "arbitrage": (EnvConfig.arbitrage_enabled, ()),
    "leverage": ("", ()),
    "train_start": ("", _RUNS),
    "train_end": ("", _RUNS),
    "test_start": ("", _RUNS),
    "test_end": ("", _RUNS),
    **{name: (default, ("train",) if name in ("total_steps", "seed") else ())
       for name, default in _TRAIN_FIELDS.items()},
    "checkpoint_every": (0, ("train",)),
    "long_n": (20, ("compare",)),
    "short_n": (20, ("compare",)),
}
_DEFAULTS = {key: default for key, (default, _) in _KEYS.items()}


class UsageError(Exception):
    pass


def _kind(key: str) -> type:
    default = _DEFAULTS[key]
    return int if default is None else type(default)


def _coerce(key: str, raw: str) -> object:
    kind = _kind(key)
    if kind is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "on", "yes"):
            return True
        if low in ("0", "false", "off", "no"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {raw.strip()!r}")
    if kind is str:
        return raw.strip()
    return kind(raw)


def read_config_file(path: str | Path) -> dict[str, object]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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


def _required(settings: dict[str, object], key: str, source: str = "positional argument") -> str:
    """The value of a required setting; a usage error naming where to set it when it is empty."""
    value = str(settings[key])
    if not value:
        raise UsageError(f"{key} is required ({source} or config key {key!r})")
    return value


def _read_series(settings: dict[str, object], only: tuple | None = None) -> list[AlignedMarket]:
    """Parse the market directory's CSV files in name order, a one-asset market each;
    with ``only``, just those assets', in the order of ``only``."""
    market_dir = _required(settings, "market_dir", "positional argument, --market-dir")
    root = Path(market_dir)
    if not root.is_dir():
        raise UsageError(f"market directory {market_dir!r} does not exist")
    paths = sorted(root.glob("*.csv"))
    if only is not None:
        paths = _select(paths, only, lambda p: p.stem)
    if not paths:
        raise UsageError(f"no CSV files in {market_dir!r}")
    return [load_csv(p) for p in paths]


def _select(items: list, assets: tuple, name) -> list:
    """The item named by each of ``assets``, in the order of ``assets``; none may be missing."""
    by_name = {name(item): item for item in items}
    missing = set(assets) - by_name.keys()
    if missing:
        raise FormatError(f"missing price files for assets: {sorted(missing)}")
    return [by_name[asset] for asset in assets]


def _rows(market: AlignedMarket, assets: tuple) -> AlignedMarket:
    """The market of ``assets``, in that order, on ``market``'s dates."""
    rows = _select(list(range(market.n_assets)), assets, market.asset_ids.__getitem__)
    return AlignedMarket(assets, market.dates, *market.prices[:, rows])


def _align(series: list[AlignedMarket], benchmark: str) -> AlignedMarket:
    if not benchmark:
        benchmark = series[-1].asset_ids[-1]
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


def _test_range(market: AlignedMarket, settings: dict[str, object]) -> tuple[int, int]:
    """Positions of the configured test range; the metrics need two days of returns."""
    start, end = str(settings["test_start"]), str(settings["test_end"])
    lo, hi = _resolve_range(market, start, end, "test")
    if hi == lo:
        raise ConfigError(f"test range [{start}, {end}] holds one trading day, need at least two")
    return lo, hi


def _check_dates(settings: dict[str, object]) -> None:
    """Refuse a set date that is not a YYYY-MM-DD calendar date, and a test range
    that overlaps training's."""
    keys = ("train_start", "train_end", "test_start", "test_end")
    tr_s, tr_e, te_s, te_e = dates = [str(settings[key]) for key in keys]
    for key, value in zip(keys, dates):
        why = value and date_error(value)
        if why:
            raise ConfigError(f"{key} {value!r} {why}")
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


def _env_config(settings: dict[str, object], **fields: object) -> EnvConfig:
    """An EnvConfig of ``fields`` with the configured cost rate and leverage."""
    return EnvConfig(mu=float(settings["mu"]), leverage=_parse_leverage(str(settings["leverage"])),
                     **fields)


def _train_config(settings: dict[str, object]) -> TrainConfig:
    return TrainConfig(**{name: settings[name] for name in _TRAIN_FIELDS})


def _require_out(settings: dict[str, object]) -> Path:
    path = Path(_required(settings, "out", "--out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- commands ---------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    settings = build_settings(args)
    market = _align(_read_series(settings), str(settings["benchmark"]))
    print(f"assets: {market.n_assets}")
    print(f"benchmark: {market.asset_ids[market.benchmark_index]}")
    print(f"days: {len(market)} ({market.dates[0]} to {market.dates[-1]})")
    for i, asset in enumerate(market.asset_ids):
        missing = int(np.sum((market.prices[:, i] == 0).any(axis=0)))
        print(f"missing[{asset}] = {missing}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    settings = build_settings(args, window=TRAIN_WINDOW)
    _check_dates(settings)
    out = _require_out(settings)
    market = _align(_read_series(settings), str(settings["benchmark"]))
    if settings["train_start"] or settings["train_end"]:
        lo, hi = _resolve_range(market, str(settings["train_start"]),
                                str(settings["train_end"]), "train")
        market = market.restrict(lo, hi)
    env_config = _env_config(settings, arbitrage_enabled=settings["arbitrage"],
                             window=settings["window"], episode_len=settings["episode_len"])
    train_config = _train_config(settings)

    every = int(settings["checkpoint_every"])
    try:
        # Divergence is reported by the network's non-finite output check.
        with np.errstate(over="ignore", invalid="ignore"):
            actor, critic, log = train(
                market, env_config, train_config,
                checkpoint_dir=out if every else None,
                checkpoint_every=every or None,
            )
    except TrainingDiverged as exc:
        exc.log.write_csv(out / "trainlog.csv")
        raise
    save_checkpoint(out / "checkpoint.json", actor, critic,
                    checkpoint_meta(market, env_config, train_config))
    log.write_csv(out / "trainlog.csv")
    print(f"episodes: {len(log.records)}")
    if len(log.records) >= 2:
        slope, intercept = training_slope(log)
        print(f"training slope: {slope!r} (intercept {intercept!r})")
    print(f"wrote {out / 'checkpoint.json'} and {out / 'trainlog.csv'}")
    return EXIT_OK


def _backtest_drl(settings: dict[str, object], checkpoint: str,
                  universe: list[AlignedMarket] | None = None
                  ) -> tuple[BacktestReport, AlignedMarket]:
    """Greedy backtest of the checkpoint over its own assets, and the market it aligned:
    all of ``universe``, the directory's series when the caller has parsed them, so
    the agent trades the universe's dates; otherwise just the agent's files."""
    actor, critic, meta = load_checkpoint(checkpoint)
    try:
        # An actor that overflows, on check_checkpoint's probe or on the test
        # range, is reported by the network's non-finite output check.
        with np.errstate(over="ignore", invalid="ignore"):
            trained = check_checkpoint(actor, critic, meta)
            market = align(universe or _read_series(settings, only=trained.assets),
                           trained.assets[-1])
            book = _rows(market, trained.assets)
            if settings["window"] not in (None, trained.window):
                raise ConfigError(f"requested window {settings['window']} != "
                                  f"checkpoint window {trained.window}")
            lo, hi = _test_range(market, settings)
            config = _env_config(settings, window=trained.window, episode_len=hi - lo,
                                 arbitrage_enabled=trained.arbitrage)
            policy = greedy_policy(actor, arbitrage=trained.arbitrage)
            return run_backtest(policy, book, config, lo - 1, hi), market
    except FloatingPointError as exc:
        raise FormatError(f"checkpoint actor: {exc}") from exc


def cmd_backtest(args: argparse.Namespace) -> int:
    settings = build_settings(args)
    _check_dates(settings)
    out = _require_out(settings)
    metrics = write_report(_backtest_drl(settings, _required(settings, "checkpoint"))[0], out)
    for name in METRIC_NAMES:
        print(f"{name} = {metrics[name]!r}")
    print(f"wrote report files to {out}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    settings = build_settings(args)
    long_n, short_n = int(settings["long_n"]), int(settings["short_n"])
    check_book(long_n, short_n)
    _check_dates(settings)
    out = _require_out(settings)
    factor_csv = _required(settings, "factor_csv")
    checkpoint = _required(settings, "checkpoint")

    # Parse and align the directory once: the agent's assets are a subset of the
    # universe, and both strategies trade its dates.
    drl_report, universe = _backtest_drl(settings, checkpoint, _read_series(settings))
    drl_metrics = metric_suite(drl_report)

    panel = load_factor_csv(factor_csv, universe)
    lo, hi = _test_range(universe, settings)
    factor_report = run_factor_backtest(universe, panel, lo - 1, hi, long_n, short_n)
    factor_metrics = metric_suite(factor_report)

    columns = ("log_daily_return", "log_annual_sharpe", "log_annual_sortino", "mdd")
    path = out / "comparison.csv"
    rows = [(settings["group"], strategy, *(metrics[c] for c in columns))
            for strategy, metrics in (("drl", drl_metrics), ("multi_factor", factor_metrics))]
    write_csv(path, ("group", "strategy", *columns), list(zip(*rows)))
    print(f"wrote {path}")
    return EXIT_OK


# -- entry point --------------------------------------------------------------

def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """--config, then a flag for every config key the command takes as one."""
    parser.add_argument("--config", help="flat key = value configuration file")
    for key, (_, commands) in _KEYS.items():
        if command in commands:
            kind = _kind(key)
            parser.add_argument("--" + key.replace("_", "-"), type=None if kind is str else kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drlfolio")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load and align a directory of OHLC CSVs")
    p_ingest.add_argument("market_dir")

    p_train = sub.add_parser("train", help="train an agent and write checkpoint + log")
    p_train.add_argument("market_dir", nargs="?", default="")

    p_back = sub.add_parser("backtest", help="greedy rollout of a checkpoint")
    p_back.add_argument("checkpoint", nargs="?", default="")

    p_cmp = sub.add_parser("compare", help="checkpoint vs factor baseline on one range")
    p_cmp.add_argument("checkpoint", nargs="?", default="")
    p_cmp.add_argument("factor_csv", nargs="?", default="")

    for name, command in sub.choices.items():
        _add_flags(command, name)
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
