"""Training rate windows and host-speed scaling of the timed run.

Run from the repository root: python3 -m pytest bench/tests
"""

import pytest

import hostspeed
import workloads


def test_steps_are_probed_only_after_the_replay_warm_up(monkeypatch):
    monkeypatch.setattr(workloads, "STEP_WINDOW", 0.0)
    parts = {"blas": 0.004, "python": 0.005, "whole": 0.009}
    probes = hostspeed.Probes()
    monkeypatch.setattr(probes, "measure", lambda: parts)
    steps = workloads.StepProbes(probes)
    step = steps.wrap("trading_env.TradingEnv.step", lambda: "transition")
    assert [step() for _ in range(workloads.BATCH + 2)][-1] == "transition"
    assert [mark[0] for mark in steps.marks] == [workloads.BATCH, workloads.BATCH + 1, workloads.BATCH + 2]
    assert probes.parts == [parts] * 3


def test_windows_leave_out_the_probes():
    steps = workloads.StepProbes(hostspeed.Probes())
    # (steps so far, probe start, probe end)
    steps.marks = [(64, 10.0, 10.01), (70, 10.51, 10.52), (80, 11.52, 11.53)]
    (mid_a, rate_a), (mid_b, rate_b) = steps.windows()
    assert (mid_a, mid_b) == (pytest.approx(10.26), pytest.approx(11.02))
    assert (rate_a, rate_b) == (pytest.approx(12.0), pytest.approx(10.0))


def test_scale_follows_the_nearest_probes():
    blas, python = hostspeed.REFERENCE["blas"], hostspeed.REFERENCE["python"]
    probes = hostspeed.Probes()
    probes.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    # At the reference speed up to t = 3, then the python part twice as slow.
    probes.parts = ([{"blas": blas, "python": python, "whole": blas + python}] * 3
                    + [{"blas": blas, "python": 2 * python, "whole": blas + 2 * python}] * 4)
    assert probes.scale(1.5, "python") == pytest.approx(1.0)  # probes 1-3
    assert probes.scale(2.5, "python") == pytest.approx(1 / 1.25)  # probes 1-4
    assert probes.scale(6.5, "python") == pytest.approx(0.5)  # probes 5, 6, 7
    assert probes.scale(6.5, "blas") == pytest.approx(1.0)
    assert probes.scale(6.5, "whole") == pytest.approx((blas + python) / (blas + 2 * python))


def test_pipeline_rates():
    t = {"checkpoint": 0.1, "ingest_book": 0.2, "ingest_universe": 0.3, "backtest": 0.5,
         "drl_report": 0.1, "factor": 0.25, "factor_report": 0.05, "rows": 1000, "days": 100}
    assert workloads.pipeline_rates(t) == {"backtest_days_per_s": 200.0, "factor_days_per_s": 400.0,
                                           "ingest_rows_per_s": 2000.0, "compare_s": pytest.approx(1.5)}
