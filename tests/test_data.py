"""Ingestion, RFM summaries, splits, activity, and segmentation."""

import csv
import io
import math
import random

import numpy as np
import pytest

from f2pclv.btyd import GammaGammaParams, ParetoNBDParams
from f2pclv.data import (
    _CHUNK_ROWS,
    _reader,
    EVENT_KINDS,
    REJECT_REASONS,
    ActivityConfig,
    ColumnMapping,
    GameEvent,
    RFMSummaries,
    RFMSummary,
    Rows,
    Transaction,
    TransactionLog,
    _iso_days,
    _purchase_value,
    _rfm_from_segments,
    _segments_by_length,
    activity_state,
    cumulative_revenue_fractions,
    daily_active_fractions,
    parse_event_log,
    parse_transaction_log,
    read_csv,
    read_summary_csv,
    rfm_quintile_scores,
    rfm_summary,
    split_calibration_holdout,
    summaries_from_arrays,
    summary_arrays,
    weighted_rfm_rank,
    write_csv,
    write_event_csv,
    write_summary_csv,
    write_transaction_csv,
)
from f2pclv.errors import DataError
from f2pclv.simulate import SimConfig, simulate_pareto_nbd_cohort


def _summary(cid, x, t_x, T, m):
    return RFMSummary(cid, x, t_x, T, m)


class TestParsing:
    def test_all_valid_rows(self):
        src = "customer_id,timestamp,value\na,0,5\nb,1.5,2\na,3,1\n"
        result = parse_transaction_log(src)
        assert len(result.log.records) == 3
        assert result.rejected_rows == 0
        assert result.total_rows == 3
        # sorted by customer then time
        assert [r.customer_id for r in result.log.records] == ["a", "a", "b"]

    def test_negative_value_rejected(self):
        src = "customer_id,timestamp,value\na,0,5\nb,1,-2\na,3,1\n"
        result = parse_transaction_log(src)
        assert len(result.log.records) == 2
        assert result.rejected_rows == 1

    def test_unparseable_rows_rejected_not_fatal(self):
        src = "customer_id,timestamp,value\na,zero,5\nb,1,two\nc,2,3\n,3,4\n"
        result = parse_transaction_log(src)
        assert len(result.log.records) == 1
        assert result.rejected_rows == 3

    def test_missing_mapped_column_is_format_error(self):
        with pytest.raises(DataError, match="value"):
            parse_transaction_log("customer_id,timestamp\na,0\n")

    def test_iso_dates(self):
        src = "customer_id,timestamp,value\na,1970-01-11,5\n"
        result = parse_transaction_log(src, ColumnMapping(iso_dates=True))
        assert list(result.log.records)[0].timestamp == 10.0

    def test_custom_mapping_and_delimiter(self):
        src = "uid;t;amount\nx;2;7\n"
        mapping = ColumnMapping(customer_id="uid", timestamp="t", value="amount", delimiter=";")
        result = parse_transaction_log(src, mapping)
        assert list(result.log.records) == [Transaction("x", 2.0, 7.0)]

    def test_event_parsing_rejects_unknown_kinds(self):
        src = "customer_id,timestamp,event_kind\na,0,session_start\na,1,level_up\n"
        result = parse_event_log(src)
        assert len(result.log.events) == 1
        assert result.rejected_rows == 1

    def test_blank_lines_skipped_and_not_counted(self):
        src = "customer_id,timestamp,value\n\na,0,5\n\n\nb,1,2\n\n"
        result = parse_transaction_log(src)
        assert len(result.log.records) == 2
        assert (result.total_rows, result.rejected_rows) == (2, 0)

    @pytest.mark.parametrize("iso_dates", [False, True])
    def test_short_row_rejected_and_counted(self, iso_dates):
        first = "1970-01-01" if iso_dates else "0"
        src = f"customer_id,timestamp,value\na,{first},5\nb,1970-01-02\nc\n"
        result = parse_transaction_log(src, ColumnMapping(iso_dates=iso_dates))
        assert list(result.log.records) == [Transaction("a", 0.0, 5.0)]
        assert (result.total_rows, result.rejected_rows) == (3, 2)
        events = parse_event_log("customer_id,timestamp,event_kind\na,0,purchase\nb,1\n")
        assert (events.total_rows, events.rejected_rows) == (2, 1)

    def test_extra_trailing_cells_ignored(self):
        src = "customer_id,timestamp,value\na,0,5,extra,cells\n"
        result = parse_transaction_log(src)
        assert list(result.log.records) == [Transaction("a", 0.0, 5.0)]
        assert result.rejected_rows == 0

    def test_mapped_column_named_twice_reads_last_occurrence(self):
        src = "value,customer_id,timestamp,value\n1,a,0,5\n"
        result = parse_transaction_log(src)
        assert list(result.log.records) == [Transaction("a", 0.0, 5.0)]

    def test_simulator_emitter_round_trip(self, tmp_path):
        config = SimConfig(
            n_customers=60,
            observation_days=90.0,
            purchase_model=ParetoNBDParams(0.6, 8.0, 0.5, 10.0),
            spend_model=GammaGammaParams(6.0, 4.0, 15.0),
            sessions_per_day=0.4,
            rounds_per_session=2.0,
            start_spread_days=10.0,
            seed=11,
        )
        log, _ = simulate_pareto_nbd_cohort(config)
        t_path, e_path = tmp_path / "t.csv", tmp_path / "e.csv"
        write_transaction_csv(log, t_path)
        write_event_csv(log, e_path)
        with open(t_path) as fh:
            re_log = parse_transaction_log(fh).log
        with open(e_path) as fh:
            re_events = parse_event_log(fh).log
        assert list(re_log.records) == list(log.records)
        assert list(re_events.events) == list(log.events)


def _reference_read_columns(source, columns, delimiter=","):
    """The row reader that parsing used before the itemgetter pass, kept as
    an oracle: a list of the mapped cells per non-blank row, None for a
    short row's missing cells."""
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


def _reference_parse(source, mapping, row, column, payload_of):
    """The per-row parse loop over `_reference_read_columns`, kept as an
    oracle: (rows sorted by a lexsort, total rows, rejected rows)."""
    to_days = _iso_days if mapping.iso_dates else float
    index, codes, times, payload = {}, [], [], []
    total = 0
    for cid, raw_t, cell in _reference_read_columns(source, (mapping.customer_id, mapping.timestamp, column), mapping.delimiter):
        total += 1
        try:
            t = to_days(raw_t)
            p = payload_of(cell)
        except (AttributeError, TypeError, ValueError):
            continue
        if cid and math.isfinite(t) and t >= 0 and p is not None:
            codes.append(index.setdefault(cid, len(index)))
            times.append(t)
            payload.append(p)
    rows = Rows(row, list(index), codes, times, payload)
    rows = rows.take(np.lexsort((rows.times, rows.codes)))
    return rows, total, total - len(rows)


_ORACLE_IDS = ["a", "b", "c", "a,b", 'q"x', "n\nl", "", " a", "purchase", "10"]
_ORACLE_TIMES = ["0", "1.5", "2.25", "10", " 4 ", "-0.0", "-3", "nan", "inf", "-inf", "1e400", "x", ""]
_ORACLE_DATES = ["1970-01-11", "1970-01-02 12:00", "2021-05-01T10:00:00+02:00", "1969-12-31", "2020-02-30", "x", ""]
_ORACLE_VALUES = ["5", "0", "2.5", "-1", "nan", "inf", "1e400", "two", "", "session_start"]
_ORACLE_KINDS = [*EVENT_KINDS, "level_up", "", "5"]
# (header, mapping fields): the plain header, a column named twice, an
# unmapped column, two fields mapped to one column, and a missing column
_ORACLE_HEADERS = [
    (["customer_id", "timestamp", "value", "event_kind"], {}),
    (["value", "event_kind", "customer_id", "timestamp", "value", "event_kind"], {}),
    (["junk", "timestamp", "customer_id", "event_kind", "value"], {}),
    (["customer_id", "timestamp", "value", "event_kind"], {"value": "timestamp", "event_kind": "customer_id"}),
    (["uid", "t", "value", "event_kind"], {"customer_id": "uid", "timestamp": "t"}),
    (["customer_id", "timestamp"], {}),
]


def _random_log(rng: random.Random):
    """A seeded malformed log: (text, mapping). Rows come in random customer
    order, often repeat the previous row's time cell, and are sometimes
    blank, short or long."""
    header, fields = rng.choice(_ORACLE_HEADERS)
    iso_dates = rng.random() < 0.25
    delimiter = rng.choice([",", ",", ";"])
    mapping = ColumnMapping(delimiter=delimiter, iso_dates=iso_dates, **fields)
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter)
    writer.writerow(header)
    time_cells = _ORACLE_DATES if iso_dates else _ORACLE_TIMES
    raw_t = rng.choice(time_cells)
    for _ in range(rng.randrange(0, 30)):
        if rng.random() < 0.5:
            raw_t = rng.choice(time_cells)  # else the previous row's time, maybe past a rejected row
        cells = {
            "customer_id": rng.choice(_ORACLE_IDS),
            "timestamp": raw_t,
            "value": rng.choice(_ORACLE_VALUES),
            "event_kind": rng.choice(_ORACLE_KINDS),
        }
        row = [cells.get(name, "?") for name in header]
        shape = rng.random()
        if shape < 0.08:
            row = []  # blank
        elif shape < 0.2:
            row = row[: rng.randrange(1, len(row))]  # short
        elif shape < 0.25:
            row = row + ["extra"]
        writer.writerow(row)
    return out.getvalue(), mapping


def _parse_outcome(parse, source, mapping):
    """What a parse gives: its rows' columns with time bits and its counts,
    or the message of the DataError it raises."""
    try:
        result = parse(source, mapping)
    except DataError as e:
        return "DataError", str(e)
    rows = result.log.records if parse is parse_transaction_log else result.log.events
    assert list(result.rejected_by_reason) == list(REJECT_REASONS)
    assert sum(result.rejected_by_reason.values()) == result.rejected_rows
    return _rows_outcome(rows, result.total_rows, result.rejected_rows)


def _rows_outcome(rows, total, rejected):
    return rows.ids.tolist(), rows.codes.tolist(), rows.times.view(np.uint64).tolist(), rows.payload.tolist(), total, rejected


def _reference_outcome(parse, source, mapping):
    if parse is parse_transaction_log:
        args = Transaction, mapping.value, _purchase_value
    else:
        args = GameEvent, mapping.event_kind, {k: k for k in EVENT_KINDS}.get
    try:
        return _rows_outcome(*_reference_parse(source, mapping, *args))
    except DataError as e:
        return "DataError", str(e)


class TestParseOracle:
    """Both parsers against the per-row reference loop on seeded malformed
    logs, read from a str, a file and an iterable of lines."""

    @pytest.mark.parametrize("parse", [parse_transaction_log, parse_event_log])
    def test_matches_the_reference_loop(self, tmp_path, parse):
        rng = random.Random(20)
        path = tmp_path / "log.csv"
        for case in range(400):
            text, mapping = _random_log(rng)
            path.write_text(text, newline="")
            for kind in ("str", "file", "lines"):
                outcomes = []
                for outcome in (_parse_outcome, _reference_outcome):
                    with open(path, newline="") as fh:
                        source = {"str": text, "file": fh, "lines": text.splitlines(keepends=True)}[kind]
                        outcomes.append(outcome(parse, source, mapping))
                assert outcomes[0] == outcomes[1], (case, kind, text, mapping)

    def test_rows_out_of_order_are_sorted(self):
        src = "customer_id,timestamp,value\nb,2,1\na,5,1\na,1,2\nb,1,3\n"
        result = parse_transaction_log(src)
        assert list(result.log.records) == [
            Transaction("a", 1.0, 2.0), Transaction("a", 5.0, 1.0), Transaction("b", 1.0, 3.0), Transaction("b", 2.0, 1.0),
        ]
        assert _parse_outcome(parse_transaction_log, src, ColumnMapping()) == _reference_outcome(
            parse_transaction_log, src, ColumnMapping()
        )

    def test_a_rejected_time_between_repeats_of_a_time(self):
        src = "customer_id,timestamp,event_kind\na,3.5,session_start\na,x,round_played\na,3.5,round_played\n,3.5,purchase\na,3.5,purchase\n"
        result = parse_event_log(src)
        assert [(e.timestamp, e.kind) for e in result.log.events] == [
            (3.5, "session_start"), (3.5, "round_played"), (3.5, "purchase"),
        ]
        assert (result.total_rows, result.rejected_rows) == (5, 2)

    def test_iso_time_whose_utc_date_is_out_of_range_is_a_bad_time(self):
        src = "customer_id,timestamp,value\na,0001-01-01T00:00:00+01:00,5\nb,9999-12-31T23:00:00-02:00,1\nc,1970-01-02,2\n"
        result = parse_transaction_log(src, ColumnMapping(iso_dates=True))
        assert list(result.log.records) == [Transaction("c", 1.0, 2.0)]
        assert result.rejected_by_reason["bad_time"] == 2

    def test_counts_rejected_rows_by_reason(self):
        src = (
            "customer_id,timestamp,value\n"
            "a,0,5\n"
            "b,1\n,1,2\n"  # missing cells: a short row, an empty id
            "c,x,2\nc,,2\n"  # bad times
            "d,-1,2\nd,nan,2\nd,inf,2\nd,1e400,2\n"  # times out of range
            "e,1,-2\ne,1,two\n"  # bad payloads
        )
        result = parse_transaction_log(src)
        assert result.rejected_by_reason == {"missing_cell": 2, "bad_time": 2, "time_out_of_range": 4, "bad_payload": 2}
        assert (result.total_rows, result.rejected_rows) == (11, 10)


_ODD_IDS = ["a,b", 'q"x', "r\rs", "n\nl", "crlf\r\nx", "", " lead", "trail ", "é", "日本", "plain"]


def _text(value) -> str:
    """A cell's text as csv.writer writes it, before quoting."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


class TestWriteCsv:
    """`write_csv` against stdlib `csv.writer` as the oracle."""

    TABLES = {
        "odd_ids": (["customer_id", "value"], [np.array(_ODD_IDS, dtype=object), np.arange(11.0)]),
        "special_floats": (
            ["id", "x"],
            [["n", "pinf", "ninf", "negzero", "tiny", "sum"],
             np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1 + 0.2])],
        ),
        "float64_scalars": (["x"], [[np.float64(0.1), np.float64(-0.0), np.float64(1e-7)]]),
        "ints_and_none": (
            ["n", "x", "label"],
            [[0, -3, 10**20], [None, 1.5, None], ["x", None, "y,z"]],
        ),
        "one_empty_column": (["name"], [["", "a", None]]),
        "empty_header_cell": ([""], [[""]]),
        "longer_than_a_chunk": (
            ["customer_id", "timestamp", "event_kind"],
            [
                np.array([_ODD_IDS[i % 11] for i in range(2 * _CHUNK_ROWS + 5)], dtype=object),
                np.random.default_rng(3).exponential(50.0, 2 * _CHUNK_ROWS + 5),
                [EVENT_KINDS[i % 3] for i in range(2 * _CHUNK_ROWS + 5)],
            ],
        ),
        # adjacent cells are formatted once per run of equal bits
        "signed_zeros": (["x", "y"], [np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0]), np.array([-0.0, -0.0, 0.0, 0.0, -0.0, 1.0])]),
        "non_finite_runs": (
            ["id", "x"],
            [list("abcdefghijkl"), np.array([np.nan, np.nan, -np.nan, np.inf, np.inf, -np.inf, -np.inf, -np.inf, 1.0, np.nan, np.inf, np.nan])],
        ),
        "run_across_a_chunk": (
            ["customer_id", "timestamp"],
            [
                np.array([f"c{i // 7}" for i in range(2 * _CHUNK_ROWS + 7)], dtype=object),
                np.repeat([7.25, 0.1 + 0.2, 1e300, -0.0], [_CHUNK_ROWS - 5, 10, _CHUNK_ROWS + 1, 1]),
            ],
        ),
    }

    @pytest.mark.parametrize("name", list(TABLES))
    def test_bytes_equal_csv_writer_and_read_back(self, tmp_path, name):
        header, columns = self.TABLES[name]
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        write_csv(ours, header, columns)
        with open(oracle, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(zip(*columns))
        assert ours.read_bytes() == oracle.read_bytes()
        with open(ours, newline="") as fh:
            rows, pick = _reader(fh, header)
            back = list(map(pick, rows))
        assert back == [tuple(_text(v) for v in row) for row in zip(*columns)]


    def test_log_writers_equal_csv_writer_over_the_rows(self, tmp_path):
        """The id column is written from each stream's ids by code: rows of
        odd ids in no order, over more than one chunk."""
        rng = np.random.default_rng(4)
        n = 2 * _CHUNK_ROWS + 9
        ids = [_ODD_IDS[i] for i in rng.integers(0, len(_ODD_IDS), n)]
        times = rng.exponential(20.0, n).round(2)
        log = TransactionLog(
            records=[Transaction(c, t, v) for c, t, v in zip(ids, times, rng.gamma(2.0, 3.0, n))],
            events=[GameEvent(c, t, EVENT_KINDS[i % 3]) for i, (c, t) in enumerate(zip(ids[::-1], times))],
        )
        for write, header, rows in (
            (write_transaction_csv, ["customer_id", "timestamp", "value"], log.records),
            (write_event_csv, ["customer_id", "timestamp", "event_kind"], log.events),
        ):
            ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
            write(log, ours)
            with open(oracle, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(rows)
            assert ours.read_bytes() == oracle.read_bytes()

    def test_float32_and_strided_columns_write_each_cell_as_float_repr(self, tmp_path):
        """Cells whose csv.writer text is not `float.__repr__`'s, or that are
        not contiguous: a float32 column, and the rows of a transposed table
        as `write_feature_csv` passes them. Runs are found by each column's
        own bits."""
        rng = np.random.default_rng(9)
        counts = rng.integers(1, 5, 60)
        f32 = np.repeat(rng.random(60).astype(np.float32), counts)
        f32[::11] = -0.0
        f32[5:8] = np.float32(np.nan)
        n = len(f32)
        table = np.column_stack([np.repeat(rng.exponential(3.0, 60), counts), np.where(np.arange(n) % 3, 0.0, -0.0)])
        columns = [f32, *table.T]
        assert not columns[1].flags.contiguous
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], columns)
        lines = [",".join(float.__repr__(v) for v in row) for row in zip(*(c.tolist() for c in columns))]
        assert path.read_bytes() == ("\r\n".join(["a,b,c", *lines]) + "\r\n").encode()


class TestReadCsv:
    def test_converts_each_column_by_its_type(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('id,n,x\n"a,b",3,0.5\nc,-1,1e-3\n')
        assert read_csv(path, ("x", "id", "n"), (float, str, int)) == [[0.5, 1e-3], ["a,b", "c"], [3, -1]]

    @pytest.mark.parametrize("row", ["2,1.0", "2,x,c", "2.5,1.0,c"], ids=["row_without_id", "bad_float", "bad_int"])
    def test_malformed_cell_is_data_error(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"n,x,id\n1,1.0,a\n{row}\n")
        with pytest.raises(DataError, match=f"malformed cell in {path}"):
            read_csv(path, ("id", "n", "x"), (str, int, float))


class TestRFMSummary:
    def test_single_purchase(self):
        log = TransactionLog(records=[Transaction("a", 0.0, 9.0)])
        (s,) = rfm_summary(log, 30.0)
        assert (s.frequency, s.recency, s.age, s.monetary_value) == (0, 0.0, 30.0, 0.0)

    def test_hand_counted_repeats(self):
        log = TransactionLog(
            records=[Transaction("a", d, 5.0) for d in (0.0, 10.0, 20.0)]
        )
        (s,) = rfm_summary(log, 30.0)
        assert (s.frequency, s.recency, s.age, s.monetary_value) == (2, 20.0, 30.0, 5.0)

    def test_empty_log(self):
        assert rfm_summary(TransactionLog(), 10.0) == []

    def test_observation_end_before_timestamp(self):
        log = TransactionLog(records=[Transaction("a", 5.0, 1.0)])
        with pytest.raises(DataError):
            rfm_summary(log, 4.0)

    @pytest.mark.parametrize("end", [float("nan"), float("inf")])
    def test_non_finite_observation_end_is_a_data_error(self, end):
        log = TransactionLog(records=[Transaction("a", 5.0, 1.0)])
        with pytest.raises(DataError, match=f"observation_end must be finite, got {end}"):
            rfm_summary(log, end)

    def test_permutation_invariance(self):
        rng = random.Random(4)
        records = [
            Transaction(f"c{i % 7}", float(t), float(v))
            for i, (t, v) in enumerate(zip(rng.sample(range(100), 30), range(1, 31)))
        ]
        base = rfm_summary(TransactionLog(records=records), 120.0)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert rfm_summary(TransactionLog(records=shuffled), 120.0) == base

    def test_log_order_breaks_a_tie_on_the_first_purchase(self):
        rows = [Transaction("a", 0.0, 4.0), Transaction("a", 0.0, 10.0), Transaction("a", 5.0, 2.0)]
        (s,) = rfm_summary(TransactionLog(records=rows), 8.0)
        assert (s.frequency, s.recency, s.age, s.monetary_value) == (2, 5.0, 8.0, 6.0)
        (s,) = rfm_summary(TransactionLog(records=[rows[1], rows[0], rows[2]]), 8.0)
        assert s.monetary_value == 3.0

    def test_matches_simulator_counters_exactly(self):
        config = SimConfig(
            n_customers=400,
            observation_days=120.0,
            purchase_model=ParetoNBDParams(0.6, 8.0, 0.5, 10.0),
            spend_model=GammaGammaParams(6.0, 4.0, 15.0),
            start_spread_days=15.0,
            seed=5,
        )
        log, truth = simulate_pareto_nbd_cohort(config)
        summaries = rfm_summary(log, config.observation_end)
        assert summaries == truth.summaries()


def _rfm_one_segment_at_a_time(first, counts, times, values):
    """`_rfm_from_segments` as one `np.mean` per customer's segment."""
    ends = np.cumsum(counts)
    recency = np.zeros(len(counts))
    monetary = np.zeros(len(counts))
    for i in np.flatnonzero(counts > 0):
        recency[i] = times[ends[i] - 1] - first[i]
        monetary[i] = float(np.mean(values[ends[i] - counts[i]:ends[i]]))
    return recency, monetary


class TestSegmentsByLength:
    def test_blocks_cover_each_segment_once_in_length_classes(self):
        counts = np.array([3, 0, 1, 3, 2, 0, 1, 3])
        blocks = list(_segments_by_length(counts))
        assert [block.shape[1] for _, block in blocks] == [1, 2, 3]
        assert [segments.tolist() for segments, _ in blocks] == [[2, 6], [4], [0, 3, 7]]
        assert blocks[2][1].tolist() == [[0, 1, 2], [4, 5, 6], [10, 11, 12]]
        assert all(block.flags.c_contiguous for _, block in blocks)

    @pytest.mark.parametrize(
        "counts",
        [
            np.repeat(np.arange(601), 5),
            np.array([], dtype=np.intp),
            np.zeros(6, dtype=np.intp),
            np.array([257]),
        ],
        ids=["lengths_0_to_600", "empty", "all_zero", "one_segment"],
    )
    def test_rfm_equals_one_mean_per_segment_bit_for_bit(self, counts):
        # sums of up to 600 values spread over nine decades: a running sum
        # or a reduceat rounds differently from np.mean's pairwise sum
        rng = np.random.default_rng(12)
        counts = rng.permutation(counts)
        n = int(counts.sum())
        first = rng.uniform(0.0, 50.0, len(counts))
        times = rng.uniform(50.0, 400.0, n)
        values = 10.0 ** rng.uniform(-3.0, 6.0, n)
        got = _rfm_from_segments(first, counts, times, values)
        want = _rfm_one_segment_at_a_time(first, counts, times, values)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


class TestRFMSummaries:
    ROWS = [
        RFMSummary("a", 2, 5.0, 9.0, 3.5),
        RFMSummary("b", 0, 0.0, 4.0, 0.0),
        RFMSummary("c", 7, 20.0, 30.0, 1.25),
    ]

    def _columns(self):
        return summaries_from_arrays(
            [2, 0, 7], [5.0, 0.0, 20.0], [9.0, 4.0, 30.0], [3.5, 0.0, 1.25], ids=["a", "b", "c"]
        )

    def test_integer_index_gives_a_row_with_an_int_frequency(self):
        summaries = self._columns()
        for index in (np.int64(2), 2, -1):
            s = summaries[index]
            assert type(s) is RFMSummary and type(s.frequency) is int
            assert s == self.ROWS[2]

    def test_mask_slice_and_sum_give_the_rows_of_lists(self):
        summaries, rows = self._columns(), self.ROWS
        payers = summaries[summaries.frequency > 0]
        assert isinstance(payers, RFMSummaries)
        assert list(payers) == [s for s in rows if s.frequency > 0]
        assert list(summaries[1:]) == rows[1:]
        assert list(summaries[np.array([2, 0])]) == [rows[2], rows[0]]
        assert list(summaries + summaries[1:]) == rows + rows[1:]

    def test_equality_with_lists(self):
        summaries, rows = self._columns(), self.ROWS
        assert summaries == rows and rows == summaries
        assert summaries[:0] == [] and [] == summaries[:0]
        assert summaries != rows[:2] and summaries != rows[::-1] and summaries != []
        assert summaries != None  # noqa: E711

    def test_columns_are_read_only(self):
        s = self._columns()
        for column in (s.ids, s.frequency, s.recency, s.age, s.monetary_value):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_construction_copies_the_callers_arrays(self):
        ids, x, t_x = np.array(["a"], dtype=object), np.array([2.0]), np.array([5.0])
        summaries = RFMSummaries(ids, x, t_x, [9.0], [3.5])
        ids[0], x[0], t_x[0] = "z", 4.0, 6.0
        assert summaries == [RFMSummary("a", 2, 5.0, 9.0, 3.5)]
        assert x.flags.writeable

    def test_summary_arrays_returns_the_columns_themselves(self):
        s = self._columns()
        x, t_x, T, m = summary_arrays(s)
        assert x is s.frequency and t_x is s.recency and T is s.age and m is s.monetary_value
        for built, own in zip(summary_arrays(self.ROWS), (x, t_x, T, m)):
            assert built.dtype == float and np.array_equal(built, own)

    def test_summaries_from_arrays_truncates_the_frequency(self):
        (s,) = summaries_from_arrays([2.7], [1.0], [3.0], [4.0])
        assert s.frequency == 2

    @pytest.mark.parametrize("cell", ["2.5", "nan"])
    def test_read_rejects_a_frequency_that_is_not_a_whole_number(self, tmp_path, cell):
        path = tmp_path / "summaries.csv"
        path.write_text(f"customer_id,frequency,recency,T,monetary_value\nc1,3,2.0,10.0,3.0\nc2,{cell},2.0,10.0,3.0\n")
        with pytest.raises(DataError, match="malformed cell"):
            read_summary_csv(path)

    def test_csv_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 50
        ids = [f"c{i}" for i in range(n - 3)] + ["comma,id", 'quote"id', "line\nbreak"]
        age = rng.uniform(1.0, 300.0, n)
        summaries = summaries_from_arrays(
            rng.integers(0, 40, n), age * rng.random(n), age, rng.gamma(2.0, 7.0, n), ids=ids
        )
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_summary_csv(summaries, first)
        back = read_summary_csv(first)
        assert back == summaries
        write_summary_csv(back, second)
        assert second.read_bytes() == first.read_bytes()
        with open(first, newline="") as fh:
            cells = [row[1] for row in csv.reader(fh)][1:]
        assert cells == [str(int(x)) for x in summaries.frequency]


class TestSplit:
    def _log(self):
        return TransactionLog(
            records=[Transaction(f"c{i}", float(i), 1.0) for i in range(10)],
            events=[GameEvent(f"c{i}", float(i) + 0.5, "session_start") for i in range(10)],
        )

    def test_cutoff_beyond_last(self):
        cal, hold = split_calibration_holdout(self._log(), 100.0)
        assert len(cal.records) == 10 and list(hold.records) == []

    def test_cutoff_zero(self):
        cal, hold = split_calibration_holdout(self._log(), 0.0)
        assert list(cal.records) == [] and len(hold.records) == 10

    def test_conservation_for_random_cutoffs(self):
        log = self._log()
        for cutoff in (0.3, 3.0, 5.5, 9.99):
            cal, hold = split_calibration_holdout(log, cutoff)
            assert len(cal.records) + len(hold.records) == len(log.records)
            assert len(cal.events) + len(hold.events) == len(log.events)
            assert sorted([*cal.records, *hold.records], key=lambda r: r.timestamp) == list(log.records)
            assert all(r.timestamp < cutoff for r in cal.records)
            assert all(r.timestamp >= cutoff for r in hold.records)

    @pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cutoff_is_a_data_error(self, cutoff):
        with pytest.raises(DataError, match=f"cutoff must be finite, got {cutoff}"):
            split_calibration_holdout(self._log(), cutoff)


class TestCurves:
    def test_daily_active_fractions_hand_counted(self):
        # "a" plays at day 9.75, before its first purchase, so its day 0 is
        # 9.75 and its 11.875 session falls on day 2; 12.75 is day 3, at
        # n_days. "b" is active on days 0, 1 and 40, "c" on day 0 only.
        events = [
            GameEvent("b", 40.0, "session_start"),
            GameEvent("a", 11.875, "session_start"),
            GameEvent("a", 10.25, "round_played"),
            GameEvent("b", 0.0, "session_start"),
            GameEvent("a", 12.75, "session_start"),
            GameEvent("a", 9.75, "session_start"),
        ]
        records = [Transaction("c", 3.0, 1.0), Transaction("a", 10.5, 2.0), Transaction("b", 1.5, 1.0)]
        points = daily_active_fractions(TransactionLog(records=records, events=events), 3)
        assert points == [(0, 1.0), (1, 1 / 3), (2, 1 / 3)]

    def test_daily_active_fractions_of_an_empty_log(self):
        with pytest.raises(DataError):
            daily_active_fractions(TransactionLog(), 3)

    @pytest.mark.parametrize("curve", [daily_active_fractions, cumulative_revenue_fractions])
    def test_negative_days_is_a_data_error(self, curve):
        log = TransactionLog(records=[Transaction("a", 0.0, 1.0)])
        with pytest.raises(DataError, match="n_days"):
            curve(log, -3)

    def test_revenue_adds_a_day_in_log_order(self):
        # In log order day 0 sums to (1e16 + 1) - 1e16 = 0; in time order it
        # would be 1.
        records = [
            Transaction("a", 0.0, 1e16),
            Transaction("a", 0.5, 1.0),
            Transaction("a", 0.25, -1e16),
            Transaction("a", 1.5, 2.0),
        ]
        points = cumulative_revenue_fractions(TransactionLog(records=records), 2)
        assert points == [(0, 0.0), (1, 1.0)]


class TestActivityState:
    def test_recent_event_is_active(self):
        events = [GameEvent("a", 7.0, "session_start")]
        assert activity_state(events, 10.0, ActivityConfig(7.0)) == "active"

    def test_stale_event_is_inactive(self):
        events = [GameEvent("a", 2.0, "session_start")]
        assert activity_state(events, 10.0, ActivityConfig(7.0)) == "inactive"

    def test_boundary_is_closed(self):
        events = [GameEvent("a", 3.0, "session_start")]
        assert activity_state(events, 10.0, ActivityConfig(7.0)) == "active"

    def test_no_events_is_inactive(self):
        assert activity_state([], 10.0, ActivityConfig(7.0)) == "inactive"


class TestQuintiles:
    def test_full_factorial_yields_all_125_codes(self):
        summaries = []
        i = 0
        for r_level in range(5):
            for f_level in range(5):
                for m_level in range(5):
                    # age - recency gives days-since-last of 50..10 (lower = better)
                    summaries.append(
                        _summary(f"c{i:03d}", 10 * f_level, 50.0 - (50 - 10 * r_level), 50.0, 10.0 * m_level)
                    )
                    i += 1
        codes = rfm_quintile_scores(summaries)
        assert len({(c.r_quintile, c.f_quintile, c.m_quintile) for c in codes.values()}) == 125

    def test_identical_customers_share_one_code(self):
        summaries = [_summary(f"c{i}", 3, 10.0, 30.0, 5.0) for i in range(8)]
        codes = rfm_quintile_scores(summaries)
        assert len(set(codes.values())) == 1

    def test_uniform_data_fills_quintiles_evenly(self):
        rng = np.random.default_rng(6)
        n = 10_000
        ages = np.full(n, 100.0)
        rec = rng.uniform(0, 100, n)
        freq = rng.uniform(0, 50, n)
        money = rng.uniform(0, 200, n)
        summaries = [
            RFMSummary(f"c{i:05d}", int(freq[i]), float(rec[i]), float(ages[i]), float(money[i]))
            for i in range(n)
        ]
        codes = rfm_quintile_scores(summaries)
        for dim in ("r_quintile", "m_quintile"):
            counts = np.bincount([getattr(c, dim) for c in codes.values()], minlength=6)[1:]
            assert np.all(np.abs(counts - 2000) <= 2), (dim, counts)

    def test_recency_orientation(self):
        # most recent activity (smallest age - recency) must score highest
        summaries = [
            _summary("fresh", 1, 29.0, 30.0, 1.0),
            _summary("mid1", 1, 20.0, 30.0, 1.0),
            _summary("mid2", 1, 15.0, 30.0, 1.0),
            _summary("mid3", 1, 10.0, 30.0, 1.0),
            _summary("stale", 1, 1.0, 30.0, 1.0),
        ]
        codes = rfm_quintile_scores(summaries)
        assert codes["fresh"].r_quintile == 5
        assert codes["stale"].r_quintile == 1

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        base = rng.uniform(1, 100, 50)
        summaries = [
            RFMSummary(f"c{i:02d}", int(base[i]), 0.0, 200.0, float(base[i]))
            for i in range(50)
        ]
        transformed = [
            RFMSummary(s.customer_id, s.frequency, s.recency, s.age, float(np.exp(s.monetary_value / 25.0)))
            for s in summaries
        ]
        before = {cid: c.m_quintile for cid, c in rfm_quintile_scores(summaries).items()}
        after = {cid: c.m_quintile for cid, c in rfm_quintile_scores(transformed).items()}
        assert before == after

    def test_too_few_customers(self):
        with pytest.raises(DataError):
            rfm_quintile_scores([_summary("a", 1, 0.0, 10.0, 1.0)] * 4)


class TestWeightedRank:
    def test_money_only_weights(self):
        summaries = [
            _summary("a", 5, 10.0, 30.0, 3.0),
            _summary("b", 1, 2.0, 30.0, 9.0),
            _summary("c", 9, 25.0, 30.0, 6.0),
        ]
        ranked = weighted_rfm_rank(summaries, (0.0, 0.0, 1.0))
        assert [cid for cid, _ in ranked] == ["b", "c", "a"]

    def test_dominator_ranks_first_for_any_weights(self):
        summaries = [
            _summary("top", 9, 29.0, 30.0, 50.0),
            _summary("low", 2, 10.0, 30.0, 5.0),
        ]
        for w in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.5, 0.3, 0.2), (0.2, 0.5, 0.3)]:
            ranked = weighted_rfm_rank(summaries, w)
            assert ranked[0][0] == "top"

    def test_hand_computed_scores(self):
        # days since last purchase: A 2, B 5, C 30, D 15, E 1
        summaries = [
            _summary("A", 10, 28.0, 30.0, 50.0),
            _summary("B", 4, 25.0, 30.0, 20.0),
            _summary("C", 0, 0.0, 30.0, 0.0),
            _summary("D", 6, 15.0, 30.0, 35.0),
            _summary("E", 2, 29.0, 30.0, 10.0),
        ]
        ranked = dict(weighted_rfm_rank(summaries, (0.5, 0.3, 0.2)))
        # min-max normalization by hand: recency inverted over range 1..30,
        # frequency over 0..10, money over 0..50
        expected = {
            "A": 0.5 * (1 - 1 / 29) + 0.3 * 1.0 + 0.2 * 1.0,
            "B": 0.5 * (1 - 4 / 29) + 0.3 * 0.4 + 0.2 * 0.4,
            "C": 0.0,
            "D": 0.5 * (1 - 14 / 29) + 0.3 * 0.6 + 0.2 * 0.7,
            "E": 0.5 * 1.0 + 0.3 * 0.2 + 0.2 * 0.2,
        }
        for cid, score in expected.items():
            assert ranked[cid] == pytest.approx(score, abs=1e-12)
        order = [cid for cid, _ in weighted_rfm_rank(summaries, (0.5, 0.3, 0.2))]
        assert order == ["A", "B", "E", "D", "C"]

    def test_order_invariant_under_affine_rescale(self):
        rng = np.random.default_rng(8)
        summaries = [
            RFMSummary(f"c{i:02d}", int(rng.integers(0, 20)), float(rng.uniform(0, 50)), 60.0, float(rng.uniform(0, 100)))
            for i in range(40)
        ]
        rescaled = [
            RFMSummary(s.customer_id, s.frequency, s.recency, s.age, 3.5 * s.monetary_value + 12.0)
            for s in summaries
        ]
        w = (0.4, 0.3, 0.3)
        assert [c for c, _ in weighted_rfm_rank(summaries, w)] == [
            c for c, _ in weighted_rfm_rank(rescaled, w)
        ]

    def test_degenerate_variable_contributes_zero(self):
        summaries = [
            _summary("a", 5, 10.0, 30.0, 7.0),
            _summary("b", 1, 20.0, 30.0, 7.0),
        ]
        ranked = dict(weighted_rfm_rank(summaries, (0.0, 0.0, 1.0)))
        assert ranked["a"] == 0.0 and ranked["b"] == 0.0

    def test_invalid_weights(self):
        with pytest.raises(DataError):
            weighted_rfm_rank([_summary("a", 1, 0.0, 1.0, 1.0)], (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.25, 0.25, 0.25, 0.25)])
    def test_weights_must_be_three(self, weights):
        with pytest.raises(DataError, match="three"):
            weighted_rfm_rank([_summary("a", 1, 0.0, 1.0, 1.0)], weights)
