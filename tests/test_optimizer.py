"""The in-library L-BFGS against SciPy's L-BFGS-B, which only the tests
import (as they import mpmath): the library itself must not load
scipy.optimize."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import f2pclv
from f2pclv import btyd, fitting
from f2pclv.btyd import BGNBDParams, GammaGammaParams, ParetoNBDParams
from f2pclv.simulate import SimConfig, simulate_bg_nbd_cohort, simulate_pareto_nbd_cohort


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, f2pclv, f2pclv.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    env = {**os.environ, "PYTHONPATH": str(Path(f2pclv.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def _scipy_lbfgsb(objective, x0_log):
    """One start of the L-BFGS-B the fits used before, with their box and
    tolerances."""
    bound = fitting.LOG_PARAM_BOUND
    return minimize(
        objective,
        x0_log,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-bound, bound)] * len(x0_log),
        options={"ftol": fitting._FTOL, "gtol": fitting._GTOL, "maxfun": fitting.MAX_EVALS, "maxiter": fitting.MAX_EVALS},
    )


# (Pareto/NBD, BG/NBD, gamma-gamma) generating parameters
_TRUTHS = {
    "alpha<<beta": (ParetoNBDParams(0.6, 8.0, 1.0, 80.0), BGNBDParams(0.4, 8.0, 0.3, 6.0), GammaGammaParams(6.0, 4.0, 15.0)),
    "alpha=beta": (ParetoNBDParams(1.5, 20.0, 0.4, 20.0), BGNBDParams(1.2, 20.0, 1.0, 1.0), GammaGammaParams(2.0, 3.0, 5.0)),
    "alpha>>beta": (ParetoNBDParams(0.8, 50.0, 0.5, 5.0), BGNBDParams(0.3, 5.0, 2.0, 10.0), GammaGammaParams(10.0, 8.0, 40.0)),
}


@pytest.mark.parametrize("truths", _TRUTHS.values(), ids=_TRUTHS.keys())
@pytest.mark.parametrize("days, spread", [(365.0, 0.0), (200.0, 150.0)], ids=["no_spread", "spread"])
def test_fits_reach_the_optimum_of_scipy_lbfgsb_from_the_same_start(monkeypatch, truths, days, spread):
    pareto, bg, spend = truths
    _, p = simulate_pareto_nbd_cohort(SimConfig(2000, days, pareto, spend, start_spread_days=spread, seed=61, build_log=False))
    _, b = simulate_bg_nbd_cohort(SimConfig(2000, days, bg, spend, start_spread_days=spread, seed=62, build_log=False))
    ps, bs = p.summaries(), b.summaries()
    calls = []

    def recording(objective, x0_log, **kwargs):
        calls.append((objective, x0_log))
        return fitting.minimize_multistart(objective, x0_log, **kwargs)

    monkeypatch.setattr(btyd, "minimize_multistart", recording)
    fits = [
        btyd.fit_pareto_nbd(ps),
        btyd.fit_bg_nbd(bs),
        btyd.fit_gamma_gamma([s for s in ps + bs if s.frequency > 0]),
    ]
    for fit, (objective, x0_log) in zip(fits, calls):
        assert fit.converged and fit.n_starts == 1, fit.starts
        reference = _scipy_lbfgsb(objective, x0_log)
        assert reference.success
        # the NLL per customer the start ended at
        assert fit.starts[0].fun == pytest.approx(reference.fun, rel=1e-10)
        np.testing.assert_allclose(dataclasses.astuple(fit.params), np.exp(reference.x), rtol=1e-4)
