"""Span bookkeeping of the traced run.

Run from the repository root: python3 -m pytest bench/tests
"""

import pytest

import tracing
from drlfolio import ddpg, neural, portfolio_math, trading_env


def test_self_time_of_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: union 5)
    # and c [8, 12] (clipped to 8..10); a has child a1 [2, 3].
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 3.0, 6.0, 0),
        ("c", 8.0, 12.0, 0),
        ("a", 20.0, 21.0, None),
    ]
    times = tracing.self_times(spans)
    assert times["root"] == (1, pytest.approx(10.0 - 5.0 - 2.0))
    assert times["a"] == (2, pytest.approx((3.0 - 1.0) + 1.0))
    assert times["a1"] == (1, pytest.approx(1.0))
    assert times["b"] == (1, pytest.approx(3.0))
    assert times["c"] == (1, pytest.approx(4.0))
    assert tracing.unspanned(spans, 0.0, 25.0) == pytest.approx(25.0 - 10.0 - 1.0)


def test_missing_public_names_are_skipped():
    names = ("market_data.no_such_function", "no_such_module.f",
             "trading_env.TradingEnv.no_such_method", "trading_env.NoSuchClass.step",
             "trading_env.TradingEnv.step")
    original = trading_env.TradingEnv.step
    with tracing.traced(names) as (recorder, absent):
        assert trading_env.TradingEnv.step is not original
    assert absent == list(names[:4])
    assert trading_env.TradingEnv.step is original


def test_function_is_patched_where_it_is_looked_up():
    originals = (neural.minmax_forward_batch, portfolio_math.enforce_arbitrage)
    assert ddpg.minmax_forward_batch is originals[0]
    assert trading_env.enforce_arbitrage is originals[1]
    with tracing.traced(("neural.minmax_forward_batch", "portfolio_math.enforce_arbitrage")) as (rec, _):
        assert ddpg.minmax_forward_batch is neural.minmax_forward_batch is not originals[0]
        assert trading_env.enforce_arbitrage is portfolio_math.enforce_arbitrage is not originals[1]
        ddpg.minmax_action([0.3, -0.2, 0.1])
    assert [span[0] for span in rec.spans] == ["neural.minmax_forward_batch"]
    assert (ddpg.minmax_forward_batch, trading_env.enforce_arbitrage) == originals


def test_nested_spans_record_their_parent():
    import numpy as np

    with tracing.traced(("neural.Network.forward", "neural.Dense.forward")) as (rec, _):
        net = neural.Network([neural.Dense(3, 2, np.random.default_rng(0))])
        net.forward(np.ones((1, 3)))
    names = [(name, parent) for name, _, _, parent in rec.spans]
    assert names == [("neural.Network.forward", None), ("neural.Dense.forward", 0)]
