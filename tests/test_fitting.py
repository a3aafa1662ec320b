"""The shared maximum-likelihood optimizer on objectives with known minima."""

import numpy as np
import pytest

from f2pclv.fitting import LOG_PARAM_BOUND, minimize_multistart


class Counting:
    """An objective that counts its own calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, theta):
        self.calls += 1
        return self.fn(theta)


def bowl(center):
    center = np.asarray(center, dtype=float)
    return lambda theta: (1.0 + float(np.sum((theta - center) ** 2)), 2.0 * (theta - center))


def test_n_evals_counts_every_objective_call():
    objective = Counting(bowl([0.5, -1.0, 2.0]))
    res = minimize_multistart(objective, np.zeros(3))
    assert res.n_evals == objective.calls > 0


def test_well_posed_objective_takes_one_start():
    res = minimize_multistart(bowl([0.5, -1.0, 2.0]), np.zeros(3), restarts=5)
    assert res.converged
    assert res.n_starts == 1
    np.testing.assert_allclose(res.x, [0.5, -1.0, 2.0], atol=1e-6)
    assert res.fun == pytest.approx(1.0, abs=1e-12)


def test_minimum_past_the_bound_uses_every_restart():
    res = minimize_multistart(bowl([LOG_PARAM_BOUND + 10.0, 0.0]), np.zeros(2), restarts=4)
    assert not res.converged
    assert res.n_starts == 4
    assert res.x[0] == pytest.approx(LOG_PARAM_BOUND)
    # each start is recorded; none converged, and the lowest is returned
    assert not any(start.converged for start in res.starts)
    assert res.fun == min(start.fun for start in res.starts)


def test_start_that_met_a_non_finite_value_is_not_converged():
    # the optimum of the finite part lies on the edge of an inf region, so
    # the line search stalls there instead of reaching a stationary point
    def walled(theta):
        if theta[0] > 1.0:
            return np.inf, np.zeros_like(theta)
        return float(np.sum((theta - 3.0) ** 2)), 2.0 * (theta - 3.0)

    res = minimize_multistart(walled, np.zeros(2), restarts=3)
    assert not res.converged
    assert res.n_starts == 3


def test_fixed_seed_repeats_exactly():
    # quartic, so that where a start ends depends on where it began
    def objective(theta):
        delta = theta - np.array([LOG_PARAM_BOUND + 10.0, 1.0])
        return 1.0 + float(np.sum(delta**4)), 4.0 * delta**3

    def run(seed):
        return minimize_multistart(Counting(objective), np.zeros(2), restarts=3, seed=seed)

    first, again, other = run(7), run(7), run(8)
    assert np.array_equal(first.x, again.x)
    assert (first.fun, first.n_evals, first.n_starts) == (again.fun, again.n_evals, again.n_starts)
    # the restarts are jittered by the seed
    assert first.n_evals != other.n_evals or not np.array_equal(first.x, other.x)
