"""Hypothesis strategies for messy CSV files: odd headers, cells, row shapes and blank lines.

Rows are written by hand, not with ``csv.writer``, so quoting, stray spaces,
short and long rows and CRLF line ends appear as they do in real exports.
"""

from datetime import date, timedelta

from hypothesis import strategies as st

# Cells float() refuses or reads as a value no price keeps: each loads as 0 in
# a price column, and some still count as a parsed factor value.
ODD_CELLS = ("", " ", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e500", "-2.5",
             "-0", "0", "oops", "1..2", "0x10", '"1,5"', "1__0")

PRICE_HEADERS = ("date,open,high,low,close", "Date,Open,High,Low,Close",
                 " date , open,high,low,close", "DATE,OPEN,HIGH,LOW,CLOSE\t")
FACTOR_HEADERS = ("date,asset,ep_ratio,turnover", "Date,Asset,EP_Ratio,Turnover",
                  " date , asset,ep_ratio , turnover")
# Date cells load_csv and load_factor_csv refuse: only YYYY-MM-DD in ASCII
# digits sorts by date, and the day must be on the calendar.
# A trailing NUL makes a distinct string, which numpy's fixed-width strings would drop.
BAD_DATES = ("", "2020-01-09\x00", "1/9/2020", "1/10/2020", "20200109", "2020-1-09",
             "2020-01-09T00:00", "\u0662\u0660\u0662\u0660-01-09", "2019-02-29", "2020-13-01")
# Headers both loaders refuse: a blank first line, a missing, extra or moved column.
BAD_HEADERS = ("", "date,open,high,low", "date,open,high,low,close,volume",
               "date,close,high,low,open", "date,asset,ep_ratio", "asset,date,ep_ratio,turnover")


def spellings(value: float):
    """Ways of writing ``value`` that float() reads back exactly."""
    text = repr(value)
    options = [text, f" {text} ", f'"{text}"', f"\t{text}"]
    if value == int(value) and value >= 10:
        digits = str(int(value))
        options.append(f"{digits[0]}_{digits[1:]}")
    return st.sampled_from(options)


def cell(value: float):
    """Mostly a spelling of ``value``, sometimes an odd cell."""
    good = spellings(value)
    return st.one_of(good, good, good, st.sampled_from(ODD_CELLS))


def key(text: str):
    """A date or asset cell that strips to ``text``."""
    return st.sampled_from([text, f" {text}", f"{text} ", f'"{text}"'])


@st.composite
def shaped(draw, cells: list[str]) -> str:
    """One row: usually whole, sometimes short or carrying extra cells."""
    kind = draw(st.sampled_from(["whole"] * 6 + ["short", "long"]))
    if kind == "short":
        cells = cells[: draw(st.integers(1, len(cells) - 1))]
    elif kind == "long":
        cells = cells + draw(st.lists(st.sampled_from(["x", "", "9"]), min_size=1, max_size=3))
    return ",".join(cells)


@st.composite
def csv_text(draw, header: str, rows: list[str]) -> str:
    """The header and rows with runs of blank lines between them, some longer than a block."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [header]
    for row in rows:
        lines += [""] * draw(st.sampled_from([0, 0, 0, 0, 1, 4]))
        lines.append(row)
    lines += [""] * draw(st.sampled_from([0, 0, 4]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def inconsistent(values: tuple[float, ...], kind: int) -> tuple[float, ...]:
    """Consistent positive (open, high, low, close) with one rule broken: the low above
    the open (kind 0) or the close (1), or the open (2) or the close (3) above the high."""
    o, h, low, c = values
    broken = [(low / 2, h, low, c), (o, h, low, low / 2), (h + 1, h, low, c), (o, h, low, h + 1)]
    return broken[kind]


@st.composite
def price_files(draw) -> str:
    """A price file, mostly loadable: unsorted days, mostly consistent OHLC, odd cells
    reading 0, now and then a malformed date or a day whose OHLC is inconsistent."""
    header = draw(st.sampled_from(PRICE_HEADERS * 4 + BAD_HEADERS))
    days = draw(st.lists(st.integers(1, 60), max_size=14, unique=True))
    if days and draw(st.integers(0, 9)) == 0:
        days.append(days[0])
    rows = []
    for day in days:
        low = draw(st.one_of(st.integers(1, 300).map(float), st.floats(0.01, 1000.0)))
        a, b, c = (draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for _ in range(3))
        values = (low + a, low + max(a, b) + c, low, low + b)  # open, high, low, close
        spoil = draw(st.integers(0, 29)) == 0
        if spoil:  # and no odd cell, so the day has all four prices
            values = inconsistent(values, draw(st.integers(0, 3)))
        iso = (date(2019, 12, 25) + timedelta(days=day)).isoformat()
        cell_date = iso if draw(st.integers(0, 19)) else draw(st.sampled_from(BAD_DATES))
        cells = [draw(key(cell_date))] + [draw(spellings(v) if spoil else cell(v)) for v in values]
        rows.append(draw(shaped(cells)))
    return draw(csv_text(header, rows))


@st.composite
def factor_files(draw, dates: tuple[str, ...], assets: tuple[str, ...]) -> str:
    """A long-format factor file over those axes plus unknown keys, with repeated rows
    and now and then a malformed date."""
    header = draw(st.sampled_from(FACTOR_HEADERS * 4 + BAD_HEADERS))
    rows = []
    for _ in range(draw(st.integers(0, 20))):
        date = draw(st.sampled_from(dates + ("1999-01-01",) if draw(st.integers(0, 39))
                                    else BAD_DATES))
        asset = draw(st.sampled_from(assets + ("zzz",)))
        ep, turnover = (draw(st.floats(-5.0, 5.0)) for _ in range(2))
        cells = [draw(key(date)), draw(key(asset)), draw(cell(ep)), draw(cell(turnover))]
        rows.append(draw(shaped(cells)))
    return draw(csv_text(header, rows))
