"""Ingestion, RFM summaries, splits, activity, and segmentation."""

import io
import random

import numpy as np
import pytest

from f2pclv.btyd import GammaGammaParams, ParetoNBDParams
from f2pclv.data import (
    ActivityConfig,
    ColumnMapping,
    GameEvent,
    RFMSummary,
    Transaction,
    TransactionLog,
    activity_state,
    parse_event_log,
    parse_transaction_log,
    rfm_quintile_scores,
    rfm_summary,
    split_calibration_holdout,
    weighted_rfm_rank,
    write_event_csv,
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
        assert result.log.records[0].timestamp == 10.0

    def test_custom_mapping_and_delimiter(self):
        src = "uid;t;amount\nx;2;7\n"
        mapping = ColumnMapping(customer_id="uid", timestamp="t", value="amount", delimiter=";")
        result = parse_transaction_log(src, mapping)
        assert result.log.records == [Transaction("x", 2.0, 7.0)]

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
        assert result.log.records == [Transaction("a", 0.0, 5.0)]
        assert (result.total_rows, result.rejected_rows) == (3, 2)
        events = parse_event_log("customer_id,timestamp,event_kind\na,0,purchase\nb,1\n")
        assert (events.total_rows, events.rejected_rows) == (2, 1)

    def test_extra_trailing_cells_ignored(self):
        src = "customer_id,timestamp,value\na,0,5,extra,cells\n"
        result = parse_transaction_log(src)
        assert result.log.records == [Transaction("a", 0.0, 5.0)]
        assert result.rejected_rows == 0

    def test_mapped_column_named_twice_reads_last_occurrence(self):
        src = "value,customer_id,timestamp,value\n1,a,0,5\n"
        result = parse_transaction_log(src)
        assert result.log.records == [Transaction("a", 0.0, 5.0)]

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
        assert re_log.records == log.records
        assert re_events.events == log.events


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


class TestSplit:
    def _log(self):
        return TransactionLog(
            records=[Transaction(f"c{i}", float(i), 1.0) for i in range(10)],
            events=[GameEvent(f"c{i}", float(i) + 0.5, "session_start") for i in range(10)],
        )

    def test_cutoff_beyond_last(self):
        cal, hold = split_calibration_holdout(self._log(), 100.0)
        assert len(cal.records) == 10 and hold.records == []

    def test_cutoff_zero(self):
        cal, hold = split_calibration_holdout(self._log(), 0.0)
        assert cal.records == [] and len(hold.records) == 10

    def test_conservation_for_random_cutoffs(self):
        log = self._log()
        for cutoff in (0.3, 3.0, 5.5, 9.99):
            cal, hold = split_calibration_holdout(log, cutoff)
            assert len(cal.records) + len(hold.records) == len(log.records)
            assert len(cal.events) + len(hold.events) == len(log.events)
            assert sorted(cal.records + hold.records, key=lambda r: r.timestamp) == log.records
            assert all(r.timestamp < cutoff for r in cal.records)
            assert all(r.timestamp >= cutoff for r in hold.records)


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
