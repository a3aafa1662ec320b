"""Transaction/event ingestion, RFM summaries, splits, and segmentation.

Every tabular file the toolkit reads goes through `read_columns` and every
one it writes through `write_csv`: logs, summaries, curves, features and
predictions alike.

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
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

EVENT_KINDS = ("session_start", "round_played", "purchase")

_EPOCH = date(1970, 1, 1)


@dataclass(frozen=True)
class Transaction:
    customer_id: str
    timestamp: float
    value: float


@dataclass(frozen=True)
class GameEvent:
    customer_id: str
    timestamp: float
    kind: str


@dataclass
class TransactionLog:
    """Purchase records plus optional gameplay events, sorted per customer."""

    records: list[Transaction] = field(default_factory=list)
    events: list[GameEvent] = field(default_factory=list)

    def sorted(self) -> "TransactionLog":
        return TransactionLog(
            records=sorted(self.records, key=lambda r: (r.customer_id, r.timestamp)),
            events=sorted(self.events, key=lambda e: (e.customer_id, e.timestamp)),
        )

    def last_timestamp(self) -> float:
        times = [r.timestamp for r in self.records] + [e.timestamp for e in self.events]
        return max(times) if times else 0.0


@dataclass(frozen=True)
class RFMSummary:
    customer_id: str
    frequency: int
    recency: float
    age: float
    monetary_value: float


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


@dataclass
class IngestResult:
    log: TransactionLog
    rejected_rows: int
    total_rows: int


def _iso_days(raw: str) -> float:
    text = raw.strip()
    try:
        d = datetime.fromisoformat(text)
    except ValueError:
        d = datetime.combine(date.fromisoformat(text), datetime.min.time())
    if d.tzinfo is not None:
        d = d.astimezone(timezone.utc).replace(tzinfo=None)
    return (d - datetime.combine(_EPOCH, datetime.min.time())).total_seconds() / 86400.0


def read_columns(source: Iterable[str] | str, columns: Sequence[str], delimiter: str = ","):
    """Yield the cells of `columns`, in order, from each row of a CSV given
    as an open file, an iterable of lines or the text itself.

    A column missing from the header row is a DataError naming it and the
    file. As with `csv.DictReader`, blank rows are skipped, a name twice in
    the header reads its last occurrence, and a short row's missing cells
    are None.
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
    for row in rows:
        if row:
            n = len(row)
            yield [row[i] if i < n else None for i in picks]


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def parse_transaction_log(source: Iterable[str] | str, mapping: ColumnMapping = ColumnMapping()) -> IngestResult:
    """Parse delimited purchase rows; malformed rows are counted, not kept.

    Rows with a missing or unparseable cell, a negative or non-finite
    timestamp, or a negative or non-finite value are rejected. A missing
    mapped column is a format error.
    """
    to_days = _iso_days if mapping.iso_dates else float
    columns = (mapping.customer_id, mapping.timestamp, mapping.value)
    records = []
    total = 0
    for cid, raw_t, raw_v in read_columns(source, columns, mapping.delimiter):
        total += 1
        try:
            t = to_days(raw_t)
            v = float(raw_v)
        except (AttributeError, TypeError, ValueError):  # a short row's missing cell is None
            continue
        if cid and math.isfinite(t) and t >= 0 and math.isfinite(v) and v >= 0:
            records.append(Transaction(cid, t, v))
    log = TransactionLog(records=records).sorted()
    return IngestResult(log=log, rejected_rows=total - len(records), total_rows=total)


def parse_event_log(source: Iterable[str] | str, mapping: ColumnMapping = ColumnMapping()) -> IngestResult:
    """Parse gameplay-event rows (customer_id, timestamp, event_kind)."""
    to_days = _iso_days if mapping.iso_dates else float
    columns = (mapping.customer_id, mapping.timestamp, mapping.event_kind)
    events = []
    total = 0
    for cid, raw_t, kind in read_columns(source, columns, mapping.delimiter):
        total += 1
        try:
            t = to_days(raw_t)
        except (AttributeError, TypeError, ValueError):  # a short row's missing cell is None
            continue
        if cid and math.isfinite(t) and t >= 0 and kind in EVENT_KINDS:
            events.append(GameEvent(cid, t, kind))
    log = TransactionLog(events=events).sorted()
    return IngestResult(log=log, rejected_rows=total - len(events), total_rows=total)


def write_transaction_csv(log: TransactionLog, path) -> None:
    rows = ([r.customer_id, repr(r.timestamp), repr(r.value)] for r in log.records)
    write_csv(path, ["customer_id", "timestamp", "value"], rows)


def write_event_csv(log: TransactionLog, path) -> None:
    rows = ([e.customer_id, repr(e.timestamp), e.kind] for e in log.events)
    write_csv(path, ["customer_id", "timestamp", "event_kind"], rows)


def rfm_summary(log: TransactionLog, observation_end: float) -> list[RFMSummary]:
    """One summary per purchasing customer, sorted by customer id.

    frequency = number of repeat purchases, recency = days from first to
    last purchase, age = days from first purchase to observation end,
    monetary_value = mean value of the repeat purchases (0 if none).
    """
    by_customer: dict[str, list[Transaction]] = {}
    for r in log.records:
        if r.timestamp > observation_end:
            raise DataError(
                f"observation_end {observation_end} precedes timestamp {r.timestamp}"
            )
        by_customer.setdefault(r.customer_id, []).append(r)
    out = []
    for cid in sorted(by_customer):
        recs = sorted(by_customer[cid], key=lambda r: r.timestamp)
        first = recs[0].timestamp
        repeats = recs[1:]
        x = len(repeats)
        t_x = repeats[-1].timestamp - first if repeats else 0.0
        T = observation_end - first
        m = float(np.mean([r.value for r in repeats])) if repeats else 0.0
        out.append(RFMSummary(cid, x, t_x, T, m))
    return out


def summary_arrays(summaries: Sequence[RFMSummary]):
    """(frequency, recency, age, monetary_value) as float arrays."""
    x = np.array([s.frequency for s in summaries], dtype=float)
    t_x = np.array([s.recency for s in summaries], dtype=float)
    T = np.array([s.age for s in summaries], dtype=float)
    m = np.array([s.monetary_value for s in summaries], dtype=float)
    return x, t_x, T, m


SUMMARY_COLUMNS = ("customer_id", "frequency", "recency", "T", "monetary_value")


def write_summary_csv(summaries: Sequence[RFMSummary], path) -> None:
    rows = ([s.customer_id, s.frequency, repr(s.recency), repr(s.age), repr(s.monetary_value)] for s in summaries)
    write_csv(path, SUMMARY_COLUMNS, rows)


def read_summary_csv(path) -> list[RFMSummary]:
    with open(path, newline="") as fh:
        try:
            return [
                RFMSummary(cid, int(x), float(t_x), float(age), float(m))
                for cid, x, t_x, age, m in read_columns(fh, SUMMARY_COLUMNS)
            ]
        except (TypeError, ValueError) as e:
            raise DataError(f"malformed cell in {path}: {e}") from None


def split_calibration_holdout(log: TransactionLog, cutoff: float) -> tuple[TransactionLog, TransactionLog]:
    """Records before the cutoff vs. from the cutoff on; union is the input."""
    cal = TransactionLog(
        records=[r for r in log.records if r.timestamp < cutoff],
        events=[e for e in log.events if e.timestamp < cutoff],
    )
    hold = TransactionLog(
        records=[r for r in log.records if r.timestamp >= cutoff],
        events=[e for e in log.events if e.timestamp >= cutoff],
    )
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


def rfm_quintile_scores(summaries: Sequence[RFMSummary]) -> dict[str, RFMCellCode]:
    """Quintile cell codes; recency is scored as days since last purchase,
    inverted so that more recent activity earns a higher quintile."""
    if len(summaries) < 5:
        raise DataError("quintile scoring needs at least 5 customers")
    ids = [s.customer_id for s in summaries]
    days_since_last = np.array([s.age - s.recency for s in summaries], dtype=float)
    freq = np.array([s.frequency for s in summaries], dtype=float)
    money = np.array([s.monetary_value for s in summaries], dtype=float)
    r_scores = 6 - _quintile(days_since_last)
    f_scores = _quintile(freq)
    m_scores = _quintile(money)
    return {
        cid: RFMCellCode(int(r), int(f), int(m))
        for cid, r, f, m in zip(ids, r_scores, f_scores, m_scores)
    }


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        # Degenerate variable: contributes 0 for everyone.
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def weighted_rfm_rank(
    summaries: Sequence[RFMSummary], weights: tuple[float, float, float]
) -> list[tuple[str, float]]:
    """Customers ranked by a weighted sum of min-max normalized R, F, M.

    Recency enters as inverted days-since-last-purchase (recent = high).
    Returns (customer_id, score) in descending score order with ties broken
    by customer id.
    """
    w_r, w_f, w_m = weights
    if min(weights) < 0 or abs(w_r + w_f + w_m - 1.0) > 1e-9:
        raise DataError("weights must be non-negative and sum to 1")
    if not summaries:
        raise DataError("no customers to rank")
    days_since_last = np.array([s.age - s.recency for s in summaries], dtype=float)
    freq = np.array([s.frequency for s in summaries], dtype=float)
    money = np.array([s.monetary_value for s in summaries], dtype=float)
    r_norm = 1.0 - _minmax(days_since_last) if days_since_last.max() > days_since_last.min() else np.zeros_like(days_since_last)
    score = w_r * r_norm + w_f * _minmax(freq) + w_m * _minmax(money)
    order = sorted(zip([s.customer_id for s in summaries], score), key=lambda p: (-p[1], p[0]))
    return [(cid, float(s)) for cid, s in order]


def daily_active_fractions(log: TransactionLog, n_days: int) -> list[tuple[int, float]]:
    """Per-day fraction of the cohort with any event or purchase, relative
    to each customer's own first activity day (day 0 = install/first seen)."""
    first: dict[str, float] = {}
    activity: dict[str, set[int]] = {}
    stream = [(r.customer_id, r.timestamp) for r in log.records] + [
        (e.customer_id, e.timestamp) for e in log.events
    ]
    if not stream:
        raise DataError("log is empty")
    for cid, t in stream:
        if cid not in first or t < first[cid]:
            first[cid] = t
    for cid, t in stream:
        activity.setdefault(cid, set()).add(int(np.floor(t - first[cid])))
    n = len(first)
    return [
        (day, sum(1 for cid in activity if day in activity[cid]) / n)
        for day in range(n_days)
    ]


def cumulative_revenue_fractions(log: TransactionLog, n_days: int) -> list[tuple[int, float]]:
    """Cohort cumulative revenue by relationship day, as a fraction of the
    day n_days-1 total (the final point is 1 by construction)."""
    first: dict[str, float] = {}
    for r in log.records:
        if r.customer_id not in first or r.timestamp < first[r.customer_id]:
            first[r.customer_id] = r.timestamp
    daily = np.zeros(n_days)
    for r in log.records:
        day = int(np.floor(r.timestamp - first[r.customer_id]))
        if day < n_days:
            daily[day] += r.value
    total = daily.sum()
    if total <= 0:
        raise DataError("no revenue inside the requested window")
    cum = np.cumsum(daily) / total
    return [(day, float(cum[day])) for day in range(n_days)]


def summaries_from_arrays(frequency, recency, age, monetary_value, ids=None) -> list[RFMSummary]:
    """Build summaries from parallel arrays (testing and simulator glue)."""
    n = len(frequency)
    if ids is None:
        ids = [f"c{i:07d}" for i in range(n)]
    return [
        RFMSummary(ids[i], int(frequency[i]), float(recency[i]), float(age[i]), float(monetary_value[i]))
        for i in range(n)
    ]
