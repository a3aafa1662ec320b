"""Correctness checks on the library's outputs.

Each check returns a list of problems; an empty list is a pass. A workload
counts an operation as failed when it raises or when any check on its output
reports a problem.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

# Largest relative error of a fitted parameter against the simulator's
# generating parameter. Sampling error alone stays far below this on the
# benchmark's cohort sizes; a fit that wandered off to a degenerate optimum
# does not.
PARAM_TOL = 0.5
# Batch and single-customer scores of the same customer must agree this
# closely; they differ only in how many series terms the vectorized 2F1 sums.
SCORE_RTOL = 1e-9
# Slack for round-off when comparing negative log-likelihoods.
NLL_RTOL = 1e-9


def param_values(params) -> tuple[float, ...]:
    return tuple(float(getattr(params, f.name)) for f in fields(params))


def max_rel_err(fitted, truth) -> float:
    return max(abs(f - t) / abs(t) for f, t in zip(param_values(fitted), param_values(truth)))


def check_fit(fit, truth, nll_truth: float, tol: float = PARAM_TOL) -> list[str]:
    """A fit converged, landed near the generating parameters, and found a
    likelihood at least as high as the generating parameters give."""
    problems = []
    name = type(truth).__name__
    if not fit.converged:
        problems.append(f"{name} fit did not converge")
    err = max_rel_err(fit.params, truth)
    if not err <= tol:
        problems.append(f"{name} parameter off by {err:.3g} (tolerance {tol})")
    if not fit.nll <= nll_truth + NLL_RTOL * abs(nll_truth):
        problems.append(f"{name} fit nll {fit.nll!r} worse than at the generating parameters {nll_truth!r}")
    return problems


def check_scores(family: str, p_alive, expected, clv) -> list[str]:
    """Scores are finite and non-negative and p_alive lies in [0, 1]."""
    problems = []
    for label, values in (("p_alive", p_alive), ("expected_transactions", expected), ("clv", clv)):
        v = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(v)):
            problems.append(f"{family} {label}: {int(np.sum(~np.isfinite(v)))} non-finite values")
        elif np.any(v < 0):
            problems.append(f"{family} {label}: {int(np.sum(v < 0))} negative values")
    pa = np.asarray(p_alive, dtype=float)
    if np.any(pa > 1):
        problems.append(f"{family} p_alive: {int(np.sum(pa > 1))} values above 1")
    return problems


def check_same_score(label: str, online: float, batch: float, rtol: float = SCORE_RTOL) -> list[str]:
    """A single-customer score equals the batch score of that customer."""
    if abs(online - batch) <= rtol * max(abs(batch), abs(online)):
        return []
    return [f"{label}: online {online!r} != batch {batch!r}"]


def check_ingest(result, expected_rows: int, written_rows: int) -> list[str]:
    """No row rejected, and every row written by the generator was parsed and
    written back out."""
    problems = []
    if result.rejected_rows:
        problems.append(f"{result.rejected_rows} rows rejected")
    if result.total_rows != expected_rows:
        problems.append(f"parsed {result.total_rows} rows, generator wrote {expected_rows}")
    if written_rows != expected_rows:
        problems.append(f"wrote {written_rows} normalized rows, generator wrote {expected_rows}")
    return problems


def check_rfm_matches_truth(summaries, truth_summaries) -> list[str]:
    """Full-window RFM summaries equal the generator's exact counters."""
    if len(summaries) != len(truth_summaries):
        return [f"{len(summaries)} RFM summaries, generator has {len(truth_summaries)}"]
    bad = [a.customer_id for a, b in zip(summaries, truth_summaries) if a != b]
    if bad:
        return [f"{len(bad)} RFM summaries differ from the generator, first {bad[0]}"]
    return []


def check_identical(label: str, a, b) -> list[str]:
    """Two prediction arrays are bit-for-bit equal."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return []
    return [f"{label}: predictions differ"]


def check_beats_baseline(model_nrmse, baseline_nrmse) -> list[str]:
    """Cross-validated NRMSE is lower than a constant global-mean predictor's."""
    if model_nrmse is None or baseline_nrmse is None or not model_nrmse < baseline_nrmse:
        return [f"cv nrmse {model_nrmse!r} does not beat the mean predictor's {baseline_nrmse!r}"]
    return []
