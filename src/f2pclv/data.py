"""Transaction/event ingestion, RFM summaries, splits, and segmentation.

A `TransactionLog` holds its purchases and its gameplay events as `Rows`
columns from parse or the simulator to every consumer and writer. Rows
exist only where a log is built from a sequence of them and where it is
iterated. RFM summaries are columns in the same way: `RFMSummaries` goes
from `rfm_summary`, the simulator's ground truth and the summaries CSV to
every BTYD entry point, an `RFMSummary` row is built only where one is
indexed or iterated, and `summary_arrays` turns a sequence of rows passed
in into columns once.

Only this module turns CSV cells to values and back. `_reader` resolves the
header of every file read; logs stream through its itemgetter into columns,
parsing each run of equal time cells once, other tables through the typed
`read_csv`, and every file is written from columns by `write_csv`, which
formats each run of equal floats once. Every per-customer view
of a log (RFM, the curves, Markov histories, supervised features) starts
from `_group_by_customer`, and `rfm_summary` shares its RFM arithmetic with
the simulator's ground truth through `_rfm_from_segments`. That reduces the
customers' purchase segments one length class at a time: the segments of
one length form a C-contiguous (customers, length) block from
`_segments_by_length`, reduced along its rows. numpy sums along the fast
axis in memory pairwise, as it sums a 1-D array, so a block's means have
the bits of one `np.mean` per customer, without a Python loop over them.

Timestamps are days since an arbitrary epoch, as floats. Frequency counts
repeat purchases only (the first purchase opens the relationship), and
monetary value is the mean spend over those repeat purchases, matching the
convention the probabilistic purchase models expect.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError

EVENT_KINDS = ("session_start", "round_played", "purchase")

_EPOCH = date(1970, 1, 1)


class Transaction(NamedTuple):
    customer_id: str
    timestamp: float
    value: float


class GameEvent(NamedTuple):
    customer_id: str
    timestamp: float
    kind: str


class Rows:
    """One stream of a log in columns, in row order: `ids`, the sorted ids of
    the customers that have rows (those given may be in any order and hold
    others); `codes`, each row's index into them; `times`; and `payload`,
    each purchase's value or each event's kind. Iterating yields `row`s."""

    def __init__(self, row: type, ids: Sequence[str], codes, times, payload):
        codes = np.asarray(codes, dtype=np.intp)
        keep = sorted(np.flatnonzero(np.bincount(codes, minlength=len(ids))).tolist(), key=ids.__getitem__)
        recode = np.zeros(len(ids), dtype=np.intp)
        recode[keep] = np.arange(len(keep))
        self.row = row
        self.ids = np.array([ids[i] for i in keep], dtype=object)
        self.codes = recode[codes]
        self.times = np.asarray(times, dtype=float)
        self.payload = np.asarray(payload, dtype=float if row is Transaction else object)

    @classmethod
    def of(cls, row: type, rows: "Rows | Iterable") -> "Rows":
        """`rows` itself if it is `Rows`, else the columns of a sequence of
        `row` tuples, in its order."""
        if isinstance(rows, Rows):
            return rows
        cids, times, payload = tuple(zip(*rows)) or ((), (), ())
        index = {}
        codes = [index.setdefault(cid, len(index)) for cid in cids]
        return cls(row, list(index), codes, times, payload)

    def take(self, index) -> "Rows":
        """The rows that an integer or boolean array selects, in its order."""
        return Rows(self.row, self.ids, self.codes[index], self.times[index], self.payload[index])

    def sorted(self) -> "Rows":
        """Rows ordered by customer id, then timestamp; ties keep row order.
        Rows already in that order, as a parsed normalized log is, are
        returned as they are."""
        step = np.diff(self.codes)
        if np.all((step > 0) | ((step == 0) & (np.diff(self.times) >= 0))):
            return self
        return self.take(np.lexsort((self.times, self.codes)))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return map(self.row, self.ids[self.codes].tolist(), self.times.tolist(), self.payload.tolist())


@dataclass
class TransactionLog:
    """Purchase records plus optional gameplay events, each held as `Rows`."""

    records: Rows | Sequence[Transaction] = ()
    events: Rows | Sequence[GameEvent] = ()

    def __post_init__(self):
        self.records = Rows.of(Transaction, self.records)
        self.events = Rows.of(GameEvent, self.events)

    def sorted(self) -> "TransactionLog":
        return TransactionLog(records=self.records.sorted(), events=self.events.sorted())

    def last_timestamp(self) -> float:
        times = np.concatenate([self.records.times, self.events.times])
        return float(times.max()) if len(times) else 0.0


@dataclass(frozen=True)
class RFMSummary:
    customer_id: str
    frequency: int
    recency: float
    age: float
    monetary_value: float


class RFMSummaries:
    """RFM summaries in columns: `ids`, an object array, and the float
    columns `frequency`, `recency`, `age` and `monetary_value`, each copied
    at construction and read-only. An integer index gives an `RFMSummary`;
    a slice, mask or index array gives `RFMSummaries`. Iterating yields
    `RFMSummary` rows, and `==` compares with any sequence of them."""

    def __init__(self, ids, frequency, recency, age, monetary_value):
        self.ids = np.array(ids, dtype=object)
        self.frequency, self.recency, self.age, self.monetary_value = (
            np.array(c, dtype=float) for c in (frequency, recency, age, monetary_value)
        )
        for column in self._columns():
            column.flags.writeable = False

    def _columns(self):
        return self.ids, self.frequency, self.recency, self.age, self.monetary_value

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            cid, x, t_x, T, m = (c[index] for c in self._columns())
            return RFMSummary(cid, int(x), float(t_x), float(T), float(m))
        return RFMSummaries(*(c[index] for c in self._columns()))

    def __iter__(self):
        ids, x, t_x, T, m = (c.tolist() for c in self._columns())
        return map(RFMSummary, ids, map(int, x), t_x, T, m)

    def __add__(self, other) -> "RFMSummaries":
        pairs = zip(self._columns(), _summaries_of(other)._columns())
        return RFMSummaries(*(np.concatenate(pair) for pair in pairs))

    def __eq__(self, other) -> bool:
        try:
            other = _summaries_of(other)
        except (AttributeError, TypeError):
            return NotImplemented
        return len(self) == len(other) and all(map(np.array_equal, self._columns(), other._columns()))


def _row_columns(summaries: Iterable[RFMSummary]) -> list[list]:
    """The columns of a sequence of `RFMSummary` rows, in its order, as lists
    in the order of RFMSummaries' arguments."""
    rows = list(summaries)
    # a list per column, not a tuple per row: tuples are garbage the cyclic
    # collector tracks, and enough of them start a full collection
    return [
        [s.customer_id for s in rows],
        [s.frequency for s in rows],
        [s.recency for s in rows],
        [s.age for s in rows],
        [s.monetary_value for s in rows],
    ]


def _summaries_of(summaries: RFMSummaries | Iterable[RFMSummary]) -> RFMSummaries:
    """`summaries` itself if it is `RFMSummaries`, else the columns of a
    sequence of `RFMSummary` rows, in its order."""
    if isinstance(summaries, RFMSummaries):
        return summaries
    return RFMSummaries(*_row_columns(summaries))


@dataclass(frozen=True)
class RFMCellCode:
    r_quintile: int
    f_quintile: int
    m_quintile: int


@dataclass(frozen=True)
class ActivityConfig:
    inactivity_window: float

    def __post_init__(self):
        if self.inactivity_window <= 0:
            raise DataError("inactivity_window must be positive")


@dataclass(frozen=True)
class ColumnMapping:
    """Names of the mapped columns in a delimited text file."""

    customer_id: str = "customer_id"
    timestamp: str = "timestamp"
    value: str = "value"
    event_kind: str = "event_kind"
    delimiter: str = ","
    iso_dates: bool = False

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise DataError(f"delimiter must be a single character, got {self.delimiter!r}")


REJECT_REASONS = ("missing_cell", "bad_time", "time_out_of_range", "bad_payload")


@dataclass
class IngestResult:
    """A parsed log and its row counts. `rejected_by_reason` maps each of
    `REJECT_REASONS` to its share of `rejected_rows`: a short row or an empty
    id, a time that does not parse, a negative or non-finite time, and a
    payload that does not parse or is out of range."""

    log: TransactionLog
    rejected_rows: int
    total_rows: int
    rejected_by_reason: dict[str, int] = field(default_factory=dict)


def _iso_days(raw: str) -> float:
    text = raw.strip()
    try:
        d = datetime.fromisoformat(text)
    except ValueError:
        d = datetime.combine(date.fromisoformat(text), datetime.min.time())
    if d.tzinfo is not None:
        d = d.astimezone(timezone.utc).replace(tzinfo=None)
    return (d - datetime.combine(_EPOCH, datetime.min.time())).total_seconds() / 86400.0


def _reader(source: Iterable[str] | str, columns: Sequence[str], delimiter: str = ","):
    """The non-blank rows of a CSV given as an open file, an iterable of lines
    or the text itself, after its header row, and an `itemgetter` of the
    cells of `columns` in a row, in order; on a short row it raises
    IndexError, and the reader goes on from the next row.

    A column missing from the header row is a DataError naming it and the
    file. As with `csv.DictReader`, blank rows are skipped and a name twice
    in the header reads its last occurrence.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    rows = csv.reader(source, delimiter=delimiter)
    header = next(rows, [])
    index = {name: i for i, name in enumerate(header)}
    for name in columns:
        if name not in index:
            where = getattr(source, "name", "the input")
            raise DataError(f"column {name!r} not found in header {header} of {where}")
    picks = [index[name] for name in columns]
    # one column's itemgetter gives the cell itself, not a 1-tuple
    pick = itemgetter(*picks) if len(picks) > 1 else lambda row, i=picks[0]: (row[i],)
    return filter(None, rows), pick


def read_header(path) -> list[str]:
    """The names in the header row of a CSV file."""
    with open(path, newline="") as fh:
        return next(csv.reader(fh), [])


def read_csv(path, columns: Sequence[str], types: Sequence[type]) -> list[list]:
    """The cells of `columns` in a CSV file, a list per column converted by
    its entry in `types`. A missing column, a short row or a cell that does
    not convert is a DataError naming the file."""
    cells = [[] for _ in columns]
    converters = list(zip([c.append for c in cells], types))
    with open(path, newline="") as fh:
        rows, pick = _reader(fh, columns)
        try:
            for row in map(pick, rows):
                for (append, convert), cell in zip(converters, row):
                    append(convert(cell))
        except IndexError:
            raise DataError(f"malformed cell in {path}: a row is short of cells") from None
        except (TypeError, ValueError) as e:
            raise DataError(f"malformed cell in {path}: {e}") from None
    return cells


_CHUNK_ROWS = 16384
_QUOTED_CHARS = frozenset(',"\r\n')


def _quote(text: str) -> str:
    return text if _QUOTED_CHARS.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _cell(value) -> str:
    if isinstance(value, float):
        return float.__repr__(value)
    return "" if value is None else _quote(str(value))


def _float_texts(part: np.ndarray):
    """`float.__repr__` of each cell of a 1-D float array, formatted once per
    run of adjacent cells with the same bits."""
    bits = part.view(f"u{part.itemsize}")
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = np.array(list(map(float.__repr__, part[starts].tolist())), dtype=object)
    return np.repeat(texts, np.diff(starts, append=len(part))).tolist()


def _texts_of(column):
    """The function that gives the cells of a slice of `column` their texts:
    `_float_texts` for a float array, else each cell after `tolist` through
    a lookup that quotes each distinct string once for a column of strings,
    or through `_cell`."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return _float_texts
    distinct = set(column)
    text = {v: _quote(v) for v in distinct}.__getitem__ if all(type(v) is str for v in distinct) else _cell
    return lambda part: map(text, part.tolist() if isinstance(part, np.ndarray) else part)


def _write_rows(fh, columns: Sequence[Sequence]) -> None:
    texts = [_texts_of(column) for column in columns]
    for start in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS):
        cells = (texts_of(column[start:start + _CHUNK_ROWS]) for texts_of, column in zip(texts, columns))
        lines = map(",".join, zip(*cells))
        if len(columns) == 1:  # a lone empty cell is quoted, or the row would read as blank
            lines = ['""' if line == "" else line for line in lines]
        fh.write("\r\n".join(lines) + "\r\n")


def write_csv(path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write a header row and equal-length columns as the csv module's
    writer would, `_CHUNK_ROWS` rows at a time: floats as `float.__repr__`
    gives them, None as an empty cell, others through `str`, quoted as needed."""
    with open(path, "w", newline="") as fh:
        _write_rows(fh, [[name] for name in header])
        _write_rows(fh, columns)


def _parse_log(source, mapping: ColumnMapping, row: type, column: str, payload_of) -> tuple[Rows, int, dict]:
    """The rows of a delimited log sorted by customer then time, the number
    of rows read, and the number rejected for each of `REJECT_REASONS`.
    `payload_of` turns a cell of `column` into a row's payload, or None or a
    ValueError to reject the row.

    A time cell equal to the previous row's reuses its value: a log's rows
    come in runs of equal timestamps (the simulator logs each round at its
    session's start). A rejected time breaks the run.
    """
    to_days = _iso_days if mapping.iso_dates else float
    rows, pick = _reader(source, (mapping.customer_id, mapping.timestamp, column), mapping.delimiter)
    index, codes, times, payload = {}, [], [], []
    rejected = dict.fromkeys(REJECT_REASONS, 0)
    total = 0
    raw_prev = t = None
    while True:
        try:
            for cid, raw_t, cell in map(pick, rows):
                total += 1
                if not cid:
                    rejected["missing_cell"] += 1
                    continue
                if raw_t != raw_prev:
                    raw_prev = None
                    try:  # an ISO time whose UTC date is out of range overflows
                        t = to_days(raw_t)
                    except (OverflowError, ValueError):
                        rejected["bad_time"] += 1
                        continue
                    if not 0.0 <= t < math.inf:
                        rejected["time_out_of_range"] += 1
                        continue
                    raw_prev = raw_t
                try:
                    p = payload_of(cell)
                except ValueError:
                    p = None
                if p is None:
                    rejected["bad_payload"] += 1
                    continue
                codes.append(index.setdefault(cid, len(index)))
                times.append(t)
                payload.append(p)
        except IndexError:  # a short row; a new map goes on from the next
            total += 1
            rejected["missing_cell"] += 1
            continue
        break
    return Rows(row, list(index), codes, times, payload).sorted(), total, rejected


def _purchase_value(cell: str) -> float | None:
    v = float(cell)
    return v if math.isfinite(v) and v >= 0 else None


def parse_transaction_log(source: Iterable[str] | str, mapping: ColumnMapping = ColumnMapping()) -> IngestResult:
    """Parse delimited purchase rows; malformed rows are counted, not kept.

    Rows with a missing or unparseable cell, a negative or non-finite
    timestamp, or a negative or non-finite value are rejected. A missing
    mapped column is a format error.
    """
    records, total, rejected = _parse_log(source, mapping, Transaction, mapping.value, _purchase_value)
    return IngestResult(TransactionLog(records=records), total - len(records), total, rejected)


def parse_event_log(source: Iterable[str] | str, mapping: ColumnMapping = ColumnMapping()) -> IngestResult:
    """Parse gameplay-event rows (customer_id, timestamp, event_kind)."""
    # EVENT_KINDS' own str objects: every row of a kind shares one
    events, total, rejected = _parse_log(source, mapping, GameEvent, mapping.event_kind, {k: k for k in EVENT_KINDS}.get)
    return IngestResult(TransactionLog(events=events), total - len(events), total, rejected)


def write_transaction_csv(log: TransactionLog, path) -> None:
    r = log.records
    write_csv(path, ["customer_id", "timestamp", "value"], [r.ids[r.codes], r.times, r.payload])


def write_event_csv(log: TransactionLog, path) -> None:
    e = log.events
    write_csv(path, ["customer_id", "timestamp", "event_kind"], [e.ids[e.codes], e.times, e.payload])


def _group_by_customer(*streams: Rows):
    """Code the rows of each stream by customer over all the streams.

    Returns the sorted ids of every customer in the streams; per stream, a
    (codes, times) pair of arrays in row order, where a code indexes the
    ids; and each customer's earliest timestamp over all the streams.
    """
    ids = sorted(set().union(*(rows.ids for rows in streams)))
    index = dict(zip(ids, range(len(ids))))
    first = np.full(len(ids), np.inf)
    columns = []
    for rows in streams:
        codes = np.array([index[cid] for cid in rows.ids], dtype=np.intp)[rows.codes]
        np.minimum.at(first, codes, rows.times)
        columns.append((codes, rows.times))
    return ids, columns, first


def _distinct_days(codes: np.ndarray, days: np.ndarray):
    """The distinct (code, day) pairs among rows, as a codes array and a
    days array in (code, day) order."""
    width = int(days.max()) + 1 if len(days) else 1
    keys = np.unique(codes * width + days)
    return keys // width, keys % width


def _segments_by_length(counts):
    """Consecutive segments of rows, `counts[i]` rows for segment i, one
    length class at a time: for each distinct positive length L, in
    increasing order, the segments of that length, in index order, and a
    C-contiguous (segments, L) array of their row positions."""
    order = np.argsort(counts, kind="stable")
    order = order[counts[order] > 0]
    if not len(order):
        return
    starts = np.cumsum(counts) - counts
    for segments in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        yield segments, starts[segments][:, None] + np.arange(counts[segments[0]])


def _rfm_from_segments(first, counts, times, values):
    """(recency, monetary_value) arrays of customers whose repeat purchases
    are consecutive segments of `times` and `values`: `counts[i]` rows for
    customer i, in time order, after a first purchase at `first[i]`. The
    frequency is `counts` itself.

    The monetary values of a length class are one `np.mean` along the rows
    of its (customers, length) block. numpy sums along the fast axis in
    memory pairwise, as it sums a 1-D array, so each customer's mean has the
    bits of `np.mean` over that customer's segment alone; a reduceat or a
    weighted bincount would round differently.
    """
    recency = np.zeros(len(counts))
    monetary = np.zeros(len(counts))
    for customers, block in _segments_by_length(counts):
        recency[customers] = times[block[:, -1]] - first[customers]
        monetary[customers] = np.mean(values[block], axis=1)
    return recency, monetary


def rfm_summary(log: TransactionLog, observation_end: float) -> RFMSummaries:
    """One summary per purchasing customer, sorted by customer id.

    frequency = number of repeat purchases, recency = days from first to
    last purchase, age = days from first purchase to observation end,
    monetary_value = mean value of the repeat purchases (0 if none).
    Purchases tied on a customer's earliest timestamp keep log order: the
    first of them in the log is the first purchase.
    """
    if not math.isfinite(observation_end):
        raise DataError(f"observation_end must be finite, got {observation_end}")
    ids, [(codes, times)], first = _group_by_customer(log.records)
    late = np.flatnonzero(times > observation_end)
    if len(late):
        raise DataError(
            f"observation_end {observation_end} precedes timestamp {float(times[late[0]])}"
        )
    order = np.lexsort((times, codes))  # stable: ties stay in log order
    counts = np.bincount(codes, minlength=len(ids))
    repeat = np.ones(len(order), dtype=bool)
    repeat[np.cumsum(counts) - counts] = False  # each customer's first purchase
    repeats = order[repeat]
    frequency = counts - 1
    recency, monetary = _rfm_from_segments(first, frequency, times[repeats], log.records.payload[repeats])
    return RFMSummaries(ids, frequency, recency, observation_end - first, monetary)


def summary_arrays(summaries: RFMSummaries | Iterable[RFMSummary]):
    """(frequency, recency, age, monetary_value) as float arrays: the
    read-only columns of `RFMSummaries` themselves, or those of a sequence
    of `RFMSummary` rows, built once."""
    if isinstance(summaries, RFMSummaries):
        return summaries.frequency, summaries.recency, summaries.age, summaries.monetary_value
    # one array, not the five of RFMSummaries: a one-customer request pays
    # for each
    columns = np.array(_row_columns(summaries)[1:], dtype=float)
    columns.flags.writeable = False
    return tuple(columns)


SUMMARY_COLUMNS = ("customer_id", "frequency", "recency", "T", "monetary_value")


def write_summary_csv(summaries: RFMSummaries | Iterable[RFMSummary], path) -> None:
    ids, x, t_x, T, m = _summaries_of(summaries)._columns()
    write_csv(path, SUMMARY_COLUMNS, [ids, list(map(int, x.tolist())), t_x, T, m])


def read_summary_csv(path) -> RFMSummaries:
    # int: a frequency cell must be a whole number
    return RFMSummaries(*read_csv(path, SUMMARY_COLUMNS, (str, int, float, float, float)))


def split_calibration_holdout(log: TransactionLog, cutoff: float) -> tuple[TransactionLog, TransactionLog]:
    """Records before the cutoff vs. from the cutoff on; union is the input."""
    if not math.isfinite(cutoff):
        raise DataError(f"cutoff must be finite, got {cutoff}")
    early_records = log.records.times < cutoff
    early_events = log.events.times < cutoff
    cal = TransactionLog(records=log.records.take(early_records), events=log.events.take(early_events))
    hold = TransactionLog(records=log.records.take(~early_records), events=log.events.take(~early_events))
    return cal, hold


def activity_state(events: Sequence[GameEvent | Transaction], now: float, config: ActivityConfig) -> str:
    """'active' iff the last event lies within the inactivity window of now.

    The boundary is closed: an event exactly `window` days old still counts
    as active. No events means inactive.
    """
    if not events:
        return "inactive"
    last = max(e.timestamp for e in events)
    return "active" if now - last <= config.inactivity_window else "inactive"


def _quintile(values: np.ndarray) -> np.ndarray:
    """1..5 scores cut at the empirical 20/40/60/80 percentiles.

    Ties sit in the lower quintile: a value equal to a threshold scores
    below it.
    """
    edges = np.percentile(values, [20, 40, 60, 80])
    return 1 + (values[:, None] > edges[None, :]).sum(axis=1)


def rfm_quintile_scores(summaries: RFMSummaries | Iterable[RFMSummary]) -> dict[str, RFMCellCode]:
    """Quintile cell codes; recency is scored as days since last purchase,
    inverted so that more recent activity earns a higher quintile."""
    summaries = _summaries_of(summaries)
    if len(summaries) < 5:
        raise DataError("quintile scoring needs at least 5 customers")
    freq, recency, age, money = summary_arrays(summaries)
    days_since_last = age - recency
    r_scores = 6 - _quintile(days_since_last)
    f_scores = _quintile(freq)
    m_scores = _quintile(money)
    return {
        cid: RFMCellCode(int(r), int(f), int(m))
        for cid, r, f, m in zip(summaries.ids, r_scores, f_scores, m_scores)
    }


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        # Degenerate variable: contributes 0 for everyone.
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def weighted_rfm_rank(
    summaries: RFMSummaries | Iterable[RFMSummary], weights: tuple[float, float, float]
) -> list[tuple[str, float]]:
    """Customers ranked by a weighted sum of min-max normalized R, F, M.

    Recency enters as inverted days-since-last-purchase (recent = high).
    Returns (customer_id, score) in descending score order with ties broken
    by customer id.
    """
    if len(weights) != 3 or min(weights) < 0 or abs(sum(weights) - 1.0) > 1e-9:
        raise DataError(f"weights must be three non-negative numbers that sum to 1, got {tuple(weights)}")
    w_r, w_f, w_m = weights
    summaries = _summaries_of(summaries)
    if not summaries:
        raise DataError("no customers to rank")
    freq, recency, age, money = summary_arrays(summaries)
    days_since_last = age - recency
    r_norm = 1.0 - _minmax(days_since_last) if days_since_last.max() > days_since_last.min() else np.zeros_like(days_since_last)
    score = w_r * r_norm + w_f * _minmax(freq) + w_m * _minmax(money)
    order = sorted(zip(summaries.ids, score), key=lambda p: (-p[1], p[0]))
    return [(cid, float(s)) for cid, s in order]


def daily_active_fractions(log: TransactionLog, n_days: int) -> list[tuple[int, float]]:
    """Per-day fraction of the cohort with any event or purchase, relative
    to each customer's own first activity day (day 0 = install/first seen)."""
    if n_days < 0:
        raise DataError(f"n_days must be >= 0, got {n_days}")
    if not log.records and not log.events:
        raise DataError("log is empty")
    ids, columns, first = _group_by_customer(log.records, log.events)
    codes = np.concatenate([c for c, _ in columns])
    days = np.floor(np.concatenate([t for _, t in columns]) - first[codes]).astype(np.intp)
    inside = days < n_days
    _, active_days = _distinct_days(codes[inside], days[inside])
    per_day = np.bincount(active_days, minlength=n_days)
    n = len(ids)
    return [(day, int(per_day[day]) / n) for day in range(n_days)]


def cumulative_revenue_fractions(log: TransactionLog, n_days: int) -> list[tuple[int, float]]:
    """Cohort cumulative revenue by relationship day, as a fraction of the
    day n_days-1 total (the final point is 1 by construction)."""
    if n_days < 0:
        raise DataError(f"n_days must be >= 0, got {n_days}")
    _, [(codes, times)], first = _group_by_customer(log.records)
    days = np.floor(times - first[codes]).astype(np.intp)
    inside = days < n_days
    # bincount adds the weights in row order, as a running sum per day would
    daily = np.bincount(days[inside], weights=log.records.payload[inside], minlength=n_days)
    total = daily.sum()
    if total <= 0:
        raise DataError("no revenue inside the requested window")
    cum = np.cumsum(daily) / total
    return [(day, float(cum[day])) for day in range(n_days)]


def summaries_from_arrays(frequency, recency, age, monetary_value, ids=None) -> RFMSummaries:
    """Build summaries from parallel arrays (testing and simulator glue);
    frequencies are truncated to whole numbers."""
    if ids is None:
        ids = [f"c{i:07d}" for i in range(len(frequency))]
    return RFMSummaries(ids, np.trunc(frequency), recency, age, monetary_value)
