"""Benchmark workloads: seeded inputs and the operations each run times.

Every workload is one closed loop with a single caller. A run interleaves
training runs (``ddpg.train`` calls of a fixed size, each followed by writing
checkpoint.json and trainlog.csv, as ``drlfolio train`` does) with the
``drlfolio compare`` pipeline, called through the package's public functions
in the CLI's order:

    load_checkpoint, load_csv + align of the agent's assets, run_backtest of
    the greedy policy, write_report, load_csv + align of the whole universe,
    load_factor_csv, run_factor_backtest, metric_suite.

The workloads differ in shape and in how the run's time is split, so that
each stresses other layers (see NOTES.md for the reasons).
"""

from __future__ import annotations

import functools
import hashlib
import re
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import hostspeed
import tracing

from drlfolio import analytics, baseline_factor, ddpg, market_data, neural, synthetic
from drlfolio.ddpg import TrainConfig
from drlfolio.portfolio_math import validate_weights
from drlfolio.trading_env import EnvConfig

BATCH = 64
REPLAY = 600
MU = 0.0025
SIGMA = 0.01  # daily log-price noise of the generated market
MISSING = 0.01  # share of price cells written as empty cells (read as missing, 0.0)
FACTOR_MISSING = 0.02  # share of factor values that are NaN
TRAIN_DAYS = 320  # history before the test range; the rest is the test range


# The part of the host-speed probe that does the kind of work each metric
# times (NOTES.md gives the traced splits and the measured fit). At the
# paper's shape, training is BLAS on ~50 MB of parameters and Adam state, a
# greedy backtest ~70% batch-1 actor forward and ~30% env stepping, and a set-up
# a bit of everything; ingest, the factor backtest and the compare pipeline
# as a whole (mostly ingest) are parsing and small numpy calls. With tiny
# networks every operation is per-call overhead.
LARGE_NETWORKS = {
    "train_steps_per_s": "blas",
    "backtest_days_per_s": "whole",
    "factor_days_per_s": "python",
    "ingest_rows_per_s": "python",
    "compare_s": "python",
    "setup_s": "whole",
}
SMALL_NETWORKS = dict.fromkeys(LARGE_NETWORKS, "python")


@dataclass(frozen=True)
class Workload:
    name: str
    book: int  # risky assets the agent trades; the benchmark comes on top
    universe: int  # risky assets in the price directory, the factor universe
    window: int
    episode_len: int
    train_steps: int  # env steps of one train() call; the first BATCH - 1 only fill the replay
    train_share: float  # share of the run spent in training runs (at least one)
    test_days: int
    long_n: int
    short_n: int
    probe_part: dict[str, str]  # metric -> the host-speed probe part that scales it

    @property
    def days(self) -> int:
        return TRAIN_DAYS + self.test_days


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_default", book=10, universe=20, window=50, episode_len=252,
                 train_steps=80, train_share=0.5, test_days=250, long_n=5, short_n=5,
                 probe_part=LARGE_NETWORKS),
        Workload("train_smoke", book=2, universe=10, window=10, episode_len=60,
                 train_steps=700, train_share=0.6, test_days=250, long_n=3, short_n=3,
                 probe_part=SMALL_NETWORKS),
        Workload("compare_default", book=10, universe=50, window=50, episode_len=252,
                 train_steps=72, train_share=0.2, test_days=500, long_n=20, short_n=20,
                 probe_part=LARGE_NETWORKS),
    )
}

SETUPS = 8  # set-ups per timed run, spread over it; setup_s is their median
# train_steps_per_s is timed over windows of training steps at least this long
# (seconds) inside each train() call, with a host-speed probe between windows.
# A whole call takes 4-8 s, longer than the host's shorter speed spells.
STEP_SPAN = "trading_env.TradingEnv.step"
STEP_WINDOW = 0.5


class Ledger:
    """Counts operations (training runs, ingests, backtests, factor backtests) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self):
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            raise


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Inputs:
    market_dir: Path
    factor_csv: Path
    universe: market_data.AlignedMarket  # as generated, benchmark last
    book: market_data.AlignedMarket
    panel: baseline_factor.FactorPanel  # as it should read back
    train_market: market_data.AlignedMarket
    test_start: int
    factor_rows: int


def make_inputs(w: Workload, seed: int, root: Path) -> Inputs:
    """Seeded price CSVs with missing cells and a long-format factor CSV with NaNs."""
    rng = np.random.default_rng(seed)
    ids = [f"s{i:03d}" for i in range(w.universe)] + ["bench"]
    drifts = rng.normal(0.0, 5e-4, len(ids)).tolist()
    clean = synthetic.drift_market(w.days, drifts, sigma=SIGMA, seed=seed, asset_ids=ids)
    prices = {
        name: np.where(rng.random(clean.close.shape) < MISSING, 0.0, clean.feature(name))
        for name in ("open", "high", "low", "close")
    }
    universe = market_data.AlignedMarket(asset_ids=clean.asset_ids, dates=clean.dates, **prices)
    rows = list(range(w.book)) + [len(ids) - 1]
    book = market_data.AlignedMarket(
        asset_ids=tuple(ids[i] for i in rows), dates=clean.dates,
        **{name: arr[rows] for name, arr in prices.items()},
    )

    shape = (len(ids), w.days)
    ep = rng.normal(0.05, 0.02, shape)
    turnover = rng.uniform(0.0, 1.0, shape)
    ep[rng.random(shape) < FACTOR_MISSING] = np.nan
    turnover[rng.random(shape) < FACTOR_MISSING] = np.nan
    ep[-1] = turnover[-1] = np.nan  # the benchmark carries no factors
    both = np.isfinite(ep) & np.isfinite(turnover)
    panel = baseline_factor.FactorPanel(
        asset_ids=universe.asset_ids, dates=universe.dates,
        ep_ratio=np.where(both, ep, np.nan), turnover=np.where(both, turnover, np.nan),
    )

    if root.exists():
        shutil.rmtree(root)
    market_dir = root / "market"
    blank_missing_cells(synthetic.write_market_csvs(universe, market_dir))
    factor_csv = synthetic.write_factor_csv(panel, root / "factors.csv")
    return Inputs(
        market_dir=market_dir, factor_csv=factor_csv, universe=universe, book=book,
        panel=panel, train_market=book.restrict(0, TRAIN_DAYS - 1),
        test_start=TRAIN_DAYS, factor_rows=int(both.sum()),
    )


MISSING_CELL = re.compile(r"(?<=,)0\.0(?=,|\r?$)", re.MULTILINE)


def blank_missing_cells(paths) -> None:
    """Rewrite the missing price cells, which write_market_csvs writes as 0.0, as empty cells."""
    for path in paths:
        with path.open(newline="") as fh:
            text = fh.read()
        with path.open("w", newline="") as fh:
            fh.write(MISSING_CELL.sub("", text))


def env_config(w: Workload) -> EnvConfig:
    return EnvConfig(window=w.window, episode_len=w.episode_len, mu=MU)


def checkpoint_meta(w: Workload, book: market_data.AlignedMarket, seed: int) -> dict:
    """The meta block ``drlfolio train`` writes."""
    return {
        "assets": list(book.asset_ids),
        "benchmark": book.asset_ids[book.benchmark_index],
        "window": w.window,
        "mu": MU,
        "arbitrage": True,
        "seed": seed,
    }


def warm_up(w: Workload, inputs: Inputs) -> None:
    """Run the actor once at batch 1 and at the training batch, so BLAS and numpy are warm."""
    rng = np.random.default_rng(0)
    actor = neural.build_actor(inputs.book.n_assets, w.window, rng)
    block = market_data.price_tensor(inputs.book, w.window, w.window).data
    actor.forward(block[None])
    actor.forward(np.repeat(block[None], BATCH, axis=0))


@dataclass
class Trained:
    networks: tuple
    records: list
    checkpoint: Path
    checkpoint_sha256: str
    trainlog_sha256: str


def train_once(w: Workload, inputs: Inputs, seed: int, out: Path) -> Trained:
    """One ``drlfolio train`` run: train(), then write checkpoint.json and trainlog.csv."""
    config = TrainConfig(batch_size=BATCH, buffer_capacity=REPLAY,
                         total_steps=w.train_steps, seed=seed)
    actor, critic, log = ddpg.train(inputs.train_market, env_config(w), config)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = out / "checkpoint.json"
    neural.save_checkpoint(checkpoint, actor, critic, checkpoint_meta(w, inputs.book, seed))
    log.write_csv(out / "trainlog.csv")
    return Trained((actor, critic), log.records, checkpoint, sha256(checkpoint),
                   sha256(out / "trainlog.csv"))


def verify_training(result: Trained) -> None:
    """Parameters and train-log values are finite; checkpoint.json reloads bit-exactly."""
    checks.finite_training(result.networks, result.records)
    checks.same_parameters(neural.load_checkpoint(result.checkpoint)[:2], result.networks)


def built_checkpoint(w: Workload, inputs: Inputs, seed: int, out: Path):
    """A fixed-seed untrained agent saved as a checkpoint (set-up, not training)."""
    rng = np.random.default_rng(seed)
    actor = neural.build_actor(inputs.book.n_assets, w.window, rng)
    critic = neural.build_critic(inputs.book.n_assets, w.window, rng)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "checkpoint.json"
    neural.save_checkpoint(path, actor, critic, checkpoint_meta(w, inputs.book, seed))
    return path, (actor, critic)


def _load_dir(market_dir: Path, benchmark: str, only=None):
    """load_csv + align over a market directory, as ``drlfolio`` does; returns (market, rows)."""
    paths = sorted(market_dir.glob("*.csv"))
    if only is not None:
        paths = [p for p in paths if p.stem in set(only)]
    series = [market_data.load_csv(p) for p in paths]
    return market_data.align(series, benchmark), sum(len(s) for s in series)


def compare_pipeline(w: Workload, inputs: Inputs, checkpoint: Path, networks,
                     out: Path, ledger: Ledger) -> dict[str, float]:
    """One ``drlfolio compare`` over the test range; returns the phase timings."""
    clock = time.perf_counter
    t = {}
    with ledger.op():  # ingest of the agent's inputs
        start = clock()
        actor, critic, meta = neural.load_checkpoint(checkpoint)
        t["checkpoint"] = clock() - start
        start = clock()
        book, book_rows = _load_dir(inputs.market_dir, meta["benchmark"], only=meta["assets"])
        t["ingest_book"] = clock() - start
        checks.same_parameters((actor, critic), networks)
        checks.market_matches(book, inputs.book)

    lo, hi = book.position_range(book.dates[inputs.test_start], book.dates[-1])
    config = EnvConfig(window=int(meta["window"]), episode_len=max(hi - lo, 1), mu=float(meta["mu"]),
                       arbitrage_enabled=bool(meta["arbitrage"]))
    with ledger.op():  # greedy backtest
        start = clock()
        report = analytics.run_backtest(ddpg.greedy_policy(actor, arbitrage=config.arbitrage_enabled),
                                        book, config, lo - 1, hi)
        t["backtest"] = clock() - start
        start = clock()
        analytics.write_report(report, out / "drl")
        t["drl_report"] = clock() - start
        checks.weight_rows_valid(report.weights, validate_weights)
        checks.telescopes(report.log_returns, report.values)

    with ledger.op():  # ingest of the factor universe
        start = clock()
        universe, universe_rows = _load_dir(inputs.market_dir, meta["benchmark"])
        panel = baseline_factor.load_factor_csv(inputs.factor_csv, universe)
        t["ingest_universe"] = clock() - start
        checks.market_matches(universe, inputs.universe)
        checks.panel_matches(panel, inputs.panel)

    with ledger.op():  # factor backtest
        start = clock()
        factor = baseline_factor.run_factor_backtest(universe, panel, lo - 1, hi,
                                                     long_n=w.long_n, short_n=w.short_n)
        t["factor"] = clock() - start
        start = clock()
        analytics.metric_suite(factor)
        t["factor_report"] = clock() - start
        checks.factor_weights_valid(factor.weights, w.long_n, w.short_n)
        checks.telescopes(factor.log_returns, factor.values)

    t["rows"] = book_rows + universe_rows + inputs.factor_rows
    t["days"] = hi - lo + 1
    return t


def pipeline_rates(t: dict[str, float]) -> dict[str, float]:
    ingest = t["ingest_book"] + t["ingest_universe"]
    return {
        "backtest_days_per_s": t["days"] / t["backtest"],
        "factor_days_per_s": t["days"] / t["factor"],
        "ingest_rows_per_s": t["rows"] / ingest,
        "compare_s": sum(v for k, v in t.items() if k not in ("rows", "days")),
    }


def report_error(what: str) -> None:
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Session:
    """Set-up state of one run: inputs, the checkpoint compare reads, and the ledger."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.ledger = Ledger()
        self.inputs = make_inputs(w, seed, work / "inputs")
        self.checkpoint, self.networks = built_checkpoint(w, self.inputs, seed, work / "built")
        warm_up(w, self.inputs)
        self.output_hashes: set[tuple[str, str]] = set()  # (checkpoint, trainlog) per training run

    def train(self, verify: bool = True) -> Trained | None:
        """One training run; with verify=False the caller runs ``self.verify`` on the result."""
        try:
            with self.ledger.op():
                result = train_once(self.w, self.inputs, self.seed, self.work / "train")
                if verify:
                    verify_training(result)
        except Exception:
            report_error("training run")
            return None
        self.output_hashes.add((result.checkpoint_sha256, result.trainlog_sha256))
        if len(self.output_hashes) > 1:
            self.ledger.failed += 1
            print("training is not deterministic: outputs differ between calls", file=sys.stderr)
        return result

    def compare(self) -> dict[str, float] | None:
        try:
            return compare_pipeline(self.w, self.inputs, self.checkpoint, self.networks,
                                    self.work / "compare", self.ledger)
        except Exception:
            report_error("compare pipeline")
            return None

    def verify(self, result: Trained) -> None:
        """The checks of a training run made with verify=False, counted against that run."""
        try:
            verify_training(result)
        except Exception:
            self.ledger.failed += 1
            report_error("training run check")


class StepProbes:
    """Probes the host between training steps, once per STEP_WINDOW seconds after the warm-up.

    Installed on ``TradingEnv.step`` for one train() call. From the end of
    step BATCH on, the time between two step ends holds one update (critic,
    actor, soft update) and the next env step; the replay warm-up before it is
    left out, as in a long run it is negligible.
    """

    def __init__(self, probes: hostspeed.Probes):
        self.probes = probes
        self.steps = 0
        self.marks: list[tuple[int, float, float]] = []  # steps so far, probe start, probe end

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def step(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.steps += 1
            if self.steps >= BATCH:
                start = time.perf_counter()
                if not self.marks or start - self.marks[-1][2] >= STEP_WINDOW:
                    self.probes.take()
                    self.marks.append((self.steps, start, time.perf_counter()))
            return out

        return step

    def windows(self) -> list[tuple[float, float]]:
        """(middle, steps per second) of each window between two probes."""
        return [
            ((after + start) / 2, (steps - before) / (start - after))
            for (before, _, after), (steps, start, _) in zip(self.marks, self.marks[1:])
        ]


def set_up(w: Workload, seed: int, work: Path) -> tuple[Session, float, float]:
    """A new session, the middle of its set-up and the seconds the set-up took."""
    start = time.perf_counter()
    session = Session(w, seed, work)
    end = time.perf_counter()
    return session, (start + end) / 2, end - start


TIMES = ("setup_s", "compare_s")  # the other timed metrics are rates


def run_timed(w: Workload, seed: int, seconds: float, work: Path,
              probes: hostspeed.Probes) -> tuple[Session, dict, dict]:
    """Interleave training runs and compare pipelines, keeping each near its share of the run.

    Returns the session, every sample of each end-to-end metric but memory in
    reference-host time, and the same samples as measured. The host-speed
    probe runs between any two operations and between a training run's step
    windows; each sample is scaled by the probes nearest to it. Every kind of
    operation is spread over the whole run: the first set-up's session runs
    every operation, and SETUPS - 1 more set-ups, evenly spaced through the
    run, are only timed.
    """
    timed = {key: [] for key in w.probe_part}
    for _ in range(3):
        probes.measure()  # warm
    probes.take()
    session, middle, took = set_up(w, seed, work / "setup0")
    timed["setup_s"].append((middle, took))
    probes.take()
    trainings, spent_training, compares = 0, 0.0, 0
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and trainings and compares:
            break
        typical = spent_training / trainings if trainings else 0.0
        if len(timed["setup_s"]) < SETUPS and elapsed >= len(timed["setup_s"]) * seconds / SETUPS:
            extra = work / f"setup{len(timed['setup_s'])}"
            timed["setup_s"].append(set_up(w, seed, extra)[1:])
            shutil.rmtree(extra)
        # Start a training run only if it is due and should end before the deadline.
        elif not trainings or (spent_training < w.train_share * elapsed and elapsed + typical <= seconds):
            start = time.perf_counter()
            steps = StepProbes(probes)
            patcher = tracing.Patcher()
            patcher.install((STEP_SPAN,), steps.wrap)
            try:
                result = session.train()
            finally:
                patcher.restore()
            trainings += 1
            spent_training += time.perf_counter() - start
            if result is not None:
                timed["train_steps_per_s"] += steps.windows()
        else:
            start = time.perf_counter()
            t = session.compare()
            middle = (start + time.perf_counter()) / 2
            compares += 1
            if t is not None:
                for key, value in pipeline_rates(t).items():
                    timed[key].append((middle, value))
        probes.take()

    samples = {}
    for key, values in timed.items():
        scales = [probes.scale(at, w.probe_part[key]) for at, _ in values]
        samples[key] = [value * scale if key in TIMES else value / scale
                        for (_, value), scale in zip(values, scales)]
    return session, samples, {key: [value for _, value in values] for key, values in timed.items()}


def alloc_round(session: Session) -> None:
    """Small fixed work for the tracemalloc pass: a few updates and a short backtest."""
    w, inputs = session.w, session.inputs
    config = TrainConfig(batch_size=BATCH, buffer_capacity=REPLAY, total_steps=BATCH + 3,
                         seed=session.seed)
    ddpg.train(inputs.train_market, env_config(w), config)
    analytics.run_backtest(ddpg.greedy_policy(session.networks[0]), inputs.book, env_config(w),
                           inputs.test_start - 1, inputs.test_start + 19)
