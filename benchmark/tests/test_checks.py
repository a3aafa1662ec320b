import numpy as np

import checks
from f2pclv.btyd import FitResult, ParetoNBDParams
from f2pclv.data import IngestResult, RFMSummary, TransactionLog

TRUTH = ParetoNBDParams(0.5, 10.0, 0.6, 12.0)


def _fit(params=TRUTH, nll=100.0, converged=True):
    return FitResult(params=params, nll=nll, n_evaluations=10, converged=converged, penalizer=0.0)


def test_fit_passes_near_truth_with_better_likelihood():
    assert checks.check_fit(_fit(ParetoNBDParams(0.55, 9.0, 0.7, 13.0), nll=99.0), TRUTH, 100.0) == []


def test_fit_fails_when_not_converged():
    assert checks.check_fit(_fit(converged=False), TRUTH, 100.0)


def test_fit_fails_when_a_parameter_is_off():
    assert checks.check_fit(_fit(ParetoNBDParams(0.5, 10.0, 0.6, 1e15)), TRUTH, 100.0)


def test_fit_fails_when_likelihood_is_worse_than_truth():
    assert checks.check_fit(_fit(nll=100.1), TRUTH, 100.0)


def test_scores_pass_and_fail_on_corruption():
    good = (np.array([0.2, 1.0]), np.array([0.0, 3.0]), np.array([1.0, 2.0]))
    assert checks.check_scores("f", *good) == []
    for i, bad_value in ((0, 1.5), (0, -0.1), (1, np.nan), (2, np.inf), (2, -1.0)):
        corrupted = [v.copy() for v in good]
        corrupted[i][0] = bad_value
        assert checks.check_scores("f", *corrupted), (i, bad_value)


def test_online_must_match_batch():
    assert checks.check_same_score("x", 1.0 + 1e-12, 1.0) == []
    assert checks.check_same_score("x", 1.0 + 1e-6, 1.0)


def _ingest(total, rejected=0):
    return IngestResult(log=TransactionLog(), rejected_rows=rejected, total_rows=total)


def test_ingest_fails_on_rejected_or_missing_rows():
    assert checks.check_ingest(_ingest(10), 10, 10) == []
    assert checks.check_ingest(_ingest(10, rejected=1), 10, 9)
    assert checks.check_ingest(_ingest(9), 10, 9)
    assert checks.check_ingest(_ingest(10), 10, 9)


def test_rfm_must_equal_generator():
    truth = [RFMSummary("c1", 2, 5.0, 9.0, 3.5), RFMSummary("c2", 0, 0.0, 4.0, 0.0)]
    assert checks.check_rfm_matches_truth(list(truth), truth) == []
    assert checks.check_rfm_matches_truth([truth[0], RFMSummary("c2", 0, 0.0, 4.0 + 1e-12, 0.0)], truth)
    assert checks.check_rfm_matches_truth(truth[:1], truth)


def test_reload_must_predict_bit_identically():
    a = np.array([1.0, 2.0])
    assert checks.check_identical("m", a, a.copy()) == []
    assert checks.check_identical("m", a, np.nextafter(a, 3.0))


def test_cv_must_beat_the_mean_predictor():
    assert checks.check_beats_baseline(0.02, 0.03) == []
    assert checks.check_beats_baseline(0.03, 0.03)
    assert checks.check_beats_baseline(None, 0.03)
