import tracemalloc
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drlfolio import market_data
from drlfolio.errors import AlignmentError, FormatError, WindowError
from drlfolio.market_data import (
    AlignedMarket,
    align,
    load_csv,
    price_block,
    price_tensor,
    relative_prices,
)
from drlfolio.synthetic import drift_market, market_from_closes, write_market_csvs
from csv_cases import price_files
from oracles import load_csv_by_rows, price_window_by_loops, write_csv_by_rows


def write_csv(path, rows):
    path.write_text("date,open,high,low,close\n" + "\n".join(rows) + "\n")
    return path


def series(asset, dates, closes):
    """A one-asset market, as load_csv returns."""
    closes = np.asarray(closes, dtype=float)[None]
    return AlignedMarket(
        asset_ids=(asset,),
        dates=tuple(dates),
        open=closes.copy(),
        high=closes * 1.01,
        low=closes * 0.99,
        close=closes.copy(),
    )


class TestLoadCsv:
    def test_well_formed_three_rows(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            "2020-01-01,1,2,0.5,1.5",
            "2020-01-02,1.5,2.5,1.0,2.0",
            "2020-01-03,2.0,3.0,1.5,2.5",
        ])
        s = load_csv(p)
        assert len(s) == 3
        assert s.asset_ids == ("a",)
        assert s.close.shape == (1, 3)
        assert s.close[0, 2] == 2.5

    def test_blank_cell_becomes_missing_zero(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            "2020-01-01,1,2,0.5,1.5",
            "2020-01-02,1.5,2.5,1.0,",
        ])
        s = load_csv(p)
        assert s.close[0, 1] == 0.0

    def test_duplicate_date_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            "2020-01-01,1,2,0.5,1.5",
            "2020-01-01,1,2,0.5,1.6",
        ])
        with pytest.raises(FormatError, match="2020-01-01"):
            load_csv(p)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_rows_sorted_ascending(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            "2020-01-02,1.5,2.5,1.0,2.0",
            "2020-01-01,1,2,0.5,1.5",
        ])
        s = load_csv(p)
        assert s.dates == ("2020-01-01", "2020-01-02")

    def test_malformed_cell_becomes_zero(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            "2020-01-01,1,2,0.5,oops",
            "2020-01-02,1.5,2.5,1.0,2.0",
        ])
        assert load_csv(p).close[0, 0] == 0.0

    def test_negative_price_becomes_missing(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            "2020-01-01,1,2,0.5,-3",
            "2020-01-02,1.5,2.5,1.0,2.0",
        ])
        assert load_csv(p).close[0, 0] == 0.0

    def test_bad_ohlc_ordering_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2020-01-01,5,2,0.5,1.5"])
        with pytest.raises(FormatError, match="OHLC"):
            load_csv(p)

    @pytest.mark.parametrize("row", ["5,6,5.5,5.2", "5.5,6,5.1,5", "5,6,4,6.5", "6.5,6,4,5"])
    def test_inconsistent_ohlc_message(self, tmp_path, row):
        # low above open, low above close, close above high, open above high;
        # the first bad day in date order is named, whatever the file order.
        p = write_csv(tmp_path / "a.csv", [f"2020-01-03,{row}", "2020-01-01,1,2,0.5,1.5",
                                           f"2020-01-02,{row}"])
        with pytest.raises(FormatError) as info:
            load_csv(p)
        assert str(info.value) == "a: inconsistent OHLC on 2020-01-02"

    @pytest.mark.parametrize("header", ["Date,Open,High,Low,Close", " date , open,high,low,close"])
    def test_header_matched_by_name_read_by_position(self, tmp_path, header):
        p = tmp_path / "a.csv"
        p.write_text(f"{header}\n2020-01-01,1,2,0.5,1.5\n2020-01-02,1.5,2.5,1.0,2.0\n")
        s = load_csv(p)
        assert s.dates == ("2020-01-01", "2020-01-02")
        assert s.open.tolist() == [[1.0, 1.5]] and s.close.tolist() == [[1.5, 2.0]]

    @pytest.mark.parametrize("cell", ["", "1/9/2020", "20200109", "2020-01-09\x00",
                                      '"2020-01-09\n2020-01-10"', "\u0662020-01-09"])
    def test_date_must_be_iso(self, tmp_path, cell):
        # 1/10/2020 would sort before 1/9/2020; a quoted newline would hide a
        # second date in one cell.
        p = write_csv(tmp_path / "a.csv", ["2020-01-08,1,2,0.5,1.5", f"{cell},1,2,0.5,1.5"])
        with pytest.raises(FormatError, match="a.csv.*not YYYY-MM-DD") as info:
            load_csv(p)
        assert repr(cell.strip('"')) in str(info.value)

    @pytest.mark.parametrize("cell", ["2015-02-30", "2015-13-45", "2015-02-29", "2015-04-31",
                                      "2015-00-10", "2015-01-00"])
    def test_date_must_be_on_the_calendar(self, tmp_path, cell):
        p = write_csv(tmp_path / "a.csv", ["2015-01-02,1,2,0.5,1.5", f"{cell},1,2,0.5,1.5"])
        with pytest.raises(FormatError) as info:
            load_csv(p)
        assert str(info.value) == f"{p}: date {cell!r} is not a calendar date"

    def test_leap_day_loads(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2016-03-01,1,2,0.5,1.5", "2016-02-29,1,2,0.5,1.5",
                                           "2016-02-28,1,2,0.5,1.5"])
        assert load_csv(p).dates == ("2016-02-28", "2016-02-29", "2016-03-01")

    def test_bad_date_named_in_a_later_block(self, tmp_path):
        rows = [f"2020-01-{d:02d},1,2,0.5,1.5" for d in range(1, 29)] + ["2020/01/29,1,2,0.5,1.5"]
        p = write_csv(tmp_path / "a.csv", rows)
        with mock.patch.object(market_data, "CSV_BLOCK", 4):
            with pytest.raises(FormatError, match="'2020/01/29'"):
                load_csv(p)

    def test_non_utf8_file_is_format_error(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"date,open,high,low,close\n2020-01-01,1,2,0.5,1.5\xff\n")
        with pytest.raises(FormatError, match="a.csv"):
            load_csv(p)


def test_write_market_csvs_text_and_read_back(tmp_path):
    """One file per asset, each float as its repr, so load_csv reads back the same bits."""
    market = AlignedMarket(asset_ids=("a", "bench"), dates=("2015-01-02", "2015-01-05"),
                           open=np.array([[1.0, 0.1], [2.0, 3.0]]),
                           high=np.array([[1.5, 0.1 + 0.2], [2.0, 3.5]]),
                           low=np.array([[0.5, 0.1], [1.0, 1 / 3]]),
                           close=np.array([[1.25, 0.2], [1.5, 3.0]]))
    paths = write_market_csvs(market, tmp_path)
    assert paths == [tmp_path / "a.csv", tmp_path / "bench.csv"]
    expected = [["2015-01-02,1.0,1.5,0.5,1.25", "2015-01-05,0.1,0.30000000000000004,0.1,0.2"],
                ["2015-01-02,2.0,2.0,1.0,1.5", "2015-01-05,3.0,3.5,0.3333333333333333,3.0"]]
    for i, (path, rows) in enumerate(zip(paths, expected)):
        lines = ["date,open,high,low,close", *rows]
        assert path.read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()
        s = load_csv(path)
        assert s.asset_ids == market.asset_ids[i:i + 1] and s.dates == market.dates
        for name in ("open", "high", "low", "close"):
            np.testing.assert_array_equal(getattr(s, name), getattr(market, name)[i:i + 1])


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    market_data.write_csv(path, ("a", "b", "c", "d"),
                          [(np.int64(7), 1), [None, 2.5], np.array([0.1, -0.0]), ("x,y", "")])
    assert path.read_bytes() == b'a,b,c,d\r\n7,,0.1,"x,y"\r\n1,2.5,-0.0,\r\n'


EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, 0.1 + 0.2]
cells = st.one_of(
    st.floats() | st.sampled_from(EDGE_FLOATS),
    st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(),
    st.none(),
    st.text(alphabet=',"\r\n a1\u00e9\u65e5', max_size=4),
)


@st.composite
def tables(draw):
    """A header and 1-4 columns of 0-9 rows: mixed cells in a list, or a float64 array."""
    width, n = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    header = draw(st.lists(cells, min_size=width, max_size=width))
    columns = [draw(st.one_of(st.lists(cells, min_size=n, max_size=n),
                              st.lists(st.floats(), min_size=n, max_size=n).map(np.array)))
               for _ in range(width)]
    return header, columns


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), block=st.sampled_from([1, 2, 3, 512]))
def test_write_csv_matches_csv_writer(tmp_path, table, block):
    # Small blocks put the rows of one table in up to ten blocks.
    header, columns = table
    path = tmp_path / "table.csv"
    with mock.patch.object(market_data, "CSV_BLOCK", block):
        market_data.write_csv(path, header, columns)
    assert path.read_bytes() == write_csv_by_rows(header, zip(*columns))


def test_write_csv_quotes_a_lone_empty_cell(tmp_path):
    # csv.writer writes "" for a row of one empty cell, so the row is not blank.
    path = tmp_path / "one.csv"
    market_data.write_csv(path, ("",), [["", None, "a", 'b"']])
    assert path.read_bytes() == b'""\r\n""\r\n""\r\na\r\n"b"""\r\n'
    assert path.read_bytes() == write_csv_by_rows(("",), [[""], [None], ["a"], ['b"']])


@pytest.mark.parametrize("header, columns", [(("a", "b"), [[1, 2], [3]]), (("a",), [[1], [2]])])
def test_write_csv_refuses_ragged_columns(tmp_path, header, columns):
    with pytest.raises(ValueError, match="one column per header cell"):
        market_data.write_csv(tmp_path / "bad.csv", header, columns)


def write_peak(path, n):
    """Traced peak of writing an n-row table: a date column and three float64 columns."""
    rng = np.random.default_rng(0)
    columns = [tuple(f"2020-01-{k % 28 + 1:02d}" for k in range(n)), *rng.standard_normal((3, n))]
    tracemalloc.start()
    try:
        market_data.write_csv(path, ("date", "a", "b", "c"), columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    # One block of cells is held at a time; the 40k-row file's text is ~3 MB.
    small, large = write_peak(tmp_path / "small.csv", 10_000), write_peak(tmp_path / "large.csv", 40_000)
    assert large < small * 1.1 + 16 * 1024, (small, large)


def loaded(load, path):
    """What a loader makes of a file: its dates and price bytes, or its exception type."""
    try:
        s = load(path)
    except (FormatError, OSError) as exc:
        return type(exc)
    return s.dates, [getattr(s, name).tobytes() for name in ("open", "high", "low", "close")]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=price_files(), block=st.sampled_from([1, 2, 3, 512]))
def test_load_csv_matches_row_oracle(tmp_path, text, block):
    # Small blocks make rows, blank runs and duplicates straddle block edges.
    path = tmp_path / "asset.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(market_data, "CSV_BLOCK", block):
        assert loaded(load_csv, path) == loaded(load_csv_by_rows, path)


class TestAlign:
    def test_identical_dates(self):
        a = series("a", ["d1", "d2", "d3"], [1, 2, 3])
        b = series("bench", ["d1", "d2", "d3"], [4, 5, 6])
        market = align([a, b], benchmark="bench")
        assert len(market) == 3
        assert market.asset_ids == ("a", "bench")

    def test_partial_overlap(self):
        a = series("a", ["d1", "d2", "d3"], [1, 2, 3])
        b = series("bench", ["d2", "d3", "d4"], [4, 5, 6])
        market = align([a, b], benchmark="bench")
        assert len(market) == 2
        assert market.dates == ("d2", "d3")
        assert market.close[0].tolist() == [2, 3]
        assert market.close[1].tolist() == [4, 5]

    def test_disjoint_dates(self):
        a = series("a", ["d1"], [1])
        b = series("bench", ["d2"], [2])
        with pytest.raises(AlignmentError):
            align([a, b], benchmark="bench")

    def test_benchmark_moved_last(self):
        a = series("a", ["d1", "d2"], [1, 2])
        b = series("b", ["d1", "d2"], [3, 4])
        c = series("c", ["d1", "d2"], [5, 6])
        market = align([b, a, c], benchmark="a")
        assert market.asset_ids == ("b", "c", "a")
        assert market.benchmark_index == 2

    def test_missing_benchmark(self):
        a = series("a", ["d1"], [1])
        b = series("b", ["d1"], [2])
        with pytest.raises(AlignmentError, match="zzz"):
            align([a, b], benchmark="zzz")

    def test_joins_every_row_of_a_wider_market(self):
        ab = align([series("a", ["d1", "d2", "d3"], [1, 2, 3]),
                    series("b", ["d1", "d2", "d3"], [4, 5, 6])], benchmark="b")
        c = series("c", ["d2", "d3", "d4"], [7, 8, 9])
        market = align([ab, c], benchmark="a")
        assert market.asset_ids == ("b", "c", "a")
        assert market.dates == ("d2", "d3")
        assert market.close.tolist() == [[5, 6], [7, 8], [2, 3]]
        assert market.high.tolist() == (np.array([[5, 6], [7, 8], [2, 3]]) * 1.01).tolist()

    def test_repeated_asset_across_markets(self):
        ab = align([series("a", ["d1"], [1]), series("b", ["d1"], [2])], benchmark="b")
        with pytest.raises(AlignmentError, match="duplicate"):
            align([ab, series("a", ["d1"], [3])], benchmark="b")


class TestPriceTensor:
    def test_constant_prices_all_ones(self):
        market = market_from_closes(np.full((3, 80), 42.0))
        x = price_tensor(market, 60, 50)
        assert x.data.shape == (4, 3, 50)
        # open equals the previous close here, so every ratio is 1; highs and
        # lows carry their synthetic offsets, so only check close and open.
        assert np.allclose(x.data[0], 1.0)

    def test_close_feature_final_column_is_one(self, noisy_market):
        for t in (49, 120, 399):
            x = price_tensor(noisy_market, t, 50)
            assert np.array_equal(x.data[0, :, -1], np.ones(noisy_market.n_assets))

    def test_ratios_match_raw_csv_recomputation(self, tmp_path):
        # Close doubling linearly over the window; recompute ratios from the
        # written file with plain arithmetic.
        closes = np.linspace(1.0, 2.0, 60)[None, :]
        market = market_from_closes(np.vstack([closes, np.full((1, 60), 5.0)]),
                                    ["grow", "bench"])
        path = tmp_path / "grow.csv"
        rows = [f"{d},{market.open[0, j]},{market.high[0, j]},{market.low[0, j]},{market.close[0, j]}"
                for j, d in enumerate(market.dates)]
        path.write_text("date,open,high,low,close\n" + "\n".join(rows) + "\n")

        t, n = 59, 50
        x = price_tensor(market, t, n)
        raw = [float(line.split(",")[4]) for line in path.read_text().splitlines()[1:]]
        expected = [raw[t - n + 1 + k] / raw[t] for k in range(n)]
        assert np.allclose(x.data[0, 0], expected, atol=1e-12)

    def test_insufficient_history(self, noisy_market):
        with pytest.raises(WindowError):
            price_tensor(noisy_market, 10, 50)

    def test_missing_price_reads_flat(self):
        closes = np.full((2, 30), 10.0)
        closes[0, 12] = 0.0
        market = market_from_closes(closes)
        # Zero close breaks the synthetic low<=close ordering; build directly.
        market = AlignedMarket(
            asset_ids=market.asset_ids, dates=market.dates,
            open=np.where(closes > 0, closes, 0.0), high=np.where(closes > 0, closes, 0.0),
            low=np.where(closes > 0, closes, 0.0), close=closes,
        )
        x = price_tensor(market, 20, 15)
        assert x.data[0, 0, 12 - (20 - 15 + 1)] == 1.0
        assert np.all(np.isfinite(x.data))
        assert np.all(x.data > 0)

    def test_rescaling_one_asset_is_invisible(self, noisy_market):
        scaled = AlignedMarket(
            asset_ids=noisy_market.asset_ids,
            dates=noisy_market.dates,
            open=np.vstack([noisy_market.open[:1] * 7.3, noisy_market.open[1:]]),
            high=np.vstack([noisy_market.high[:1] * 7.3, noisy_market.high[1:]]),
            low=np.vstack([noisy_market.low[:1] * 7.3, noisy_market.low[1:]]),
            close=np.vstack([noisy_market.close[:1] * 7.3, noisy_market.close[1:]]),
        )
        a = price_tensor(noisy_market, 200, 50).data
        b = price_tensor(scaled, 200, 50).data
        assert np.max(np.abs(a - b)) < 1e-12


class TestPriceBlock:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), window=st.integers(2, 12), data=st.data())
    def test_rows_equal_price_tensor_bytes(self, m, window, data):
        length = data.draw(st.integers(window, window + 40), label="length")
        first = data.draw(st.integers(window - 1, length - 1), label="first")
        last = data.draw(st.integers(first, length - 1), label="last")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        prices = {name: rng.uniform(0.5, 2.0, size=(m, length))
                  for name in ("open", "high", "low", "close")}
        for arr in prices.values():
            arr[rng.random(arr.shape) < 0.05] = 0.0
        # A missing close on a day of the range: that asset's whole row reads flat.
        prices["close"][rng.integers(m), rng.integers(first, last + 1)] = 0.0
        market = AlignedMarket(asset_ids=tuple(f"a{i}" for i in range(m)),
                               dates=tuple(f"d{j:03d}" for j in range(length)), **prices)

        block = price_block(market, first, last, window)
        assert block.shape == (last - first + 1, 4, m, window)
        assert not block.flags.writeable
        for k, t in enumerate(range(first, last + 1)):
            assert block[k].tobytes() == price_tensor(market, t, window).data.tobytes()
            assert block[k].tobytes() == price_window_by_loops(market, t, window).tobytes()

    def test_range_checks(self, noisy_market):
        with pytest.raises(WindowError):
            price_block(noisy_market, 48, 60, 50)
        with pytest.raises(WindowError):
            price_block(noisy_market, 60, len(noisy_market), 50)
        with pytest.raises(WindowError):
            price_block(noisy_market, 60, 59, 50)


class TestRelativePrices:
    def test_cash_element_always_one(self, noisy_market):
        for t in (1, 57, 399):
            assert relative_prices(noisy_market, t)[0] == 1.0

    def test_simple_ratio(self):
        market = market_from_closes(np.array([[10.0, 11.0], [3.0, 3.0]]))
        y = relative_prices(market, 1)
        assert y[1] == pytest.approx(1.1, abs=1e-15)

    def test_missing_price_reads_flat(self):
        closes = np.array([[10.0, 0.0, 12.0], [3.0, 3.0, 3.0]])
        market = AlignedMarket(
            asset_ids=("a", "b"), dates=("d1", "d2", "d3"),
            open=closes, high=closes, low=closes, close=closes,
        )
        assert relative_prices(market, 1)[1] == 1.0
        assert relative_prices(market, 2)[1] == 1.0

    def test_range_check(self, noisy_market):
        with pytest.raises(WindowError):
            relative_prices(noisy_market, 0)

    def test_tensor_consistent_with_relatives(self, noisy_market):
        t, n = 150, 30
        x = price_tensor(noisy_market, t, n).data
        for k in range(n - 1):
            day = t - n + 1 + k + 1
            y = relative_prices(noisy_market, day)
            assert np.allclose(x[0, :, k + 1] / x[0, :, k], y[1:], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(ordinals=st.sets(st.integers(730_000, 740_000), min_size=1, max_size=40), data=st.data())
def test_restrict_position_range_round_trip(ordinals, data):
    dates = tuple(date.fromordinal(k).isoformat() for k in sorted(ordinals))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    market = AlignedMarket(asset_ids=("a", "bench"), dates=dates,
                           **{name: rng.uniform(1.0, 2.0, size=(2, len(dates)))
                              for name in ("open", "high", "low", "close")})
    lo = data.draw(st.integers(0, len(dates) - 1), label="lo")
    hi = data.draw(st.integers(lo, len(dates) - 1), label="hi")
    assert market.position_range(dates[lo], dates[hi]) == (lo, hi)
    sub = market.restrict(lo, hi)
    assert sub.position_range(sub.dates[0], sub.dates[-1]) == (0, hi - lo)
    assert sub.dates == dates[lo : hi + 1]
    for name in ("open", "high", "low", "close"):
        assert np.array_equal(sub.feature(name), market.feature(name)[:, lo : hi + 1])


def test_restrict_and_position_range():
    market = drift_market(50, [0.0, 0.0], seed=1)
    lo, hi = market.position_range(market.dates[10], market.dates[19])
    assert (lo, hi) == (10, 19)
    sub = market.restrict(lo, hi)
    assert len(sub) == 10
    assert sub.dates[0] == market.dates[10]
    assert np.array_equal(sub.close, market.close[:, 10:20])
