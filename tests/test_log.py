"""The transaction log's column storage: rows exist only where a log is
built from them and where it is iterated."""

import csv

import pytest

from f2pclv.cli import main
from f2pclv.data import (
    GameEvent,
    Transaction,
    TransactionLog,
    cumulative_revenue_fractions,
    daily_active_fractions,
    parse_event_log,
    parse_transaction_log,
    rfm_summary,
    split_calibration_holdout,
    write_event_csv,
    write_summary_csv,
    write_transaction_csv,
)
from f2pclv.markov import histories_from_log
from f2pclv.supervised import extract_features

SIMULATE = [
    "simulate", "--model", "bg_nbd", "--n-customers", "400", "--days", "270",
    "--params", "r=0.4,alpha=8,a=0.8,b=2.5", "--spend", "p=6,q=4,gamma=15",
    "--sessions-per-day", "0.4", "--rounds-per-session", "2", "--spread", "30",
    "--conversion-rate", "0.5", "--seed", "23",
]
CUTOFF, END = 200.0, 300.0


@pytest.fixture
def rows_built(monkeypatch):
    """The class name of every Transaction and GameEvent built while the
    test runs."""
    built = []
    for row in (Transaction, GameEvent):
        def counting(cls, *args, _new=row.__new__, **kwargs):
            built.append(cls.__name__)
            return _new(cls, *args, **kwargs)

        monkeypatch.setattr(row, "__new__", counting)
    return built


def _parse(directory):
    with open(directory / "transactions.csv", newline="") as fh:
        tx = parse_transaction_log(fh)
    with open(directory / "events.csv", newline="") as fh:
        ev = parse_event_log(fh)
    return tx, ev


def test_a_log_joins_the_streams_of_two_parse_results(tmp_path):
    assert main(SIMULATE + ["--out-dir", str(tmp_path)]) == 0
    tx, ev = _parse(tmp_path)
    log = TransactionLog(records=tx.log.records, events=ev.log.events)
    assert (len(log.records), len(log.events)) == (tx.total_rows, ev.total_rows)
    assert len(tx.log.events) == len(ev.log.records) == 0
    with open(tmp_path / "transactions.csv", newline="") as fh:
        values = [float(row["value"]) for row in csv.DictReader(fh)]
    assert sum(r.value for r in log.records) == sum(values)
    empty = TransactionLog()
    assert len(empty.records) == len(empty.events) == 0
    assert list(empty.records) == list(empty.events) == []


def test_the_pipeline_builds_no_rows(tmp_path, rows_built):
    sim, split = tmp_path / "sim", tmp_path / "split"
    assert main(SIMULATE + ["--out-dir", str(sim)]) == 0
    tx, ev = _parse(sim)
    log = TransactionLog(records=tx.log.records, events=ev.log.events)
    cal, hold = split_calibration_holdout(log, CUTOFF)
    split.mkdir()
    for name, half, end in (("cal", cal, CUTOFF), ("hold", hold, END)):
        rfm_summary(half, end)
        daily_active_fractions(half, 30)
        cumulative_revenue_fractions(half, 30)
        histories_from_log(half, 7.0)
        extract_features(half, 7.0, 30.0, observation_end=end)
        write_transaction_csv(half, split / f"{name}_transactions.csv")
        write_event_csv(half, split / f"{name}_events.csv")
    write_summary_csv(rfm_summary(cal, CUTOFF), tmp_path / "summaries.csv")
    for model, extra in (("bg_nbd", []), ("gamma_gamma", ["--payers-only"])):
        assert main([
            "fit", "--model", model, "--input", str(tmp_path / "summaries.csv"),
            "--out", str(tmp_path / f"{model}.json"), *extra,
        ]) == 0
    assert main([
        "segment", "--summaries", str(tmp_path / "summaries.csv"),
        "--artifact", str(tmp_path / "bg_nbd.json"), "--spend-artifact", str(tmp_path / "gamma_gamma.json"),
        "--holdout", str(split / "hold_transactions.csv"), "--horizon", "88", "--out-dir", str(tmp_path / "seg"),
    ]) == 0
    assert rows_built == []
    first, *_ = log.records  # iterating is where rows are built
    assert rows_built and isinstance(first, Transaction)


def test_a_split_half_holds_only_its_own_customers():
    log = TransactionLog(
        records=[Transaction("a", 1.0, 5.0), Transaction("b", 2.0, 1.0), Transaction("late", 12.0, 3.0)],
        events=[GameEvent("a", 1.5, "session_start"), GameEvent("late", 11.0, "session_start")],
    )
    cal, hold = split_calibration_holdout(log, 10.0)
    assert [s.customer_id for s in rfm_summary(cal, 10.0)] == ["a", "b"]
    assert daily_active_fractions(cal, 2) == [(0, 1.0), (1, 0.0)]
    assert [s.customer_id for s in rfm_summary(hold, 20.0)] == ["late"]
    assert daily_active_fractions(hold, 1) == [(0, 1.0)]


def test_a_log_of_unsorted_rows_iterates_in_their_order():
    records = [Transaction("b", 3.0, 1.0), Transaction("a", 5.0, 2.0), Transaction("b", 1.0, 4.0), Transaction("a", 5.0, 0.5)]
    events = [GameEvent("z", 2.0, "round_played"), GameEvent("a", 1.0, "level_up"), GameEvent("a", 0.5, "purchase")]
    log = TransactionLog(records=records, events=events)
    assert list(log.records) == records and list(log.events) == events
    assert [type(r) for r in log.records] == [Transaction] * 4
    assert list(log.sorted().records) == sorted(records, key=lambda r: (r.customer_id, r.timestamp))
    assert list(log.sorted().events) == sorted(events, key=lambda e: (e.customer_id, e.timestamp))


def test_an_unknown_event_kind_is_activity_but_no_session_or_round():
    log = TransactionLog(
        records=[Transaction("p", 0.5, 2.0)],
        events=[GameEvent("p", 0.0, "session_start"), GameEvent("p", 1.5, "level_up"), GameEvent("q", 0.0, "level_up")],
    )
    assert daily_active_fractions(log, 2) == [(0, 1.0), (1, 0.5)]
    dataset = extract_features(log, window=7.0, target_horizon=30.0, observation_end=60.0)
    assert dataset.features.player_ids == ("p", "q")
    # sessions, rounds, active days, purchases, purchase amount
    assert dataset.features.values.tolist() == [[1, 0, 2, 1, 2.0], [0, 0, 1, 0, 0.0]]
