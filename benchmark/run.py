"""Benchmark entry point.

    python3 benchmark/run.py --workload btyd_fit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. Inputs come from the simulator, seeded by ``--seed``. Set-up
runs SETUP_REPS times and reports the median. Rounds of the workload then run
until the next round would end after ``--seconds``, with at least two rounds,
or exactly as many rounds as the workload pins. In the untraced run a speed
probe (see calibrate.py) runs throughout, and set-up time and stage rates are
reported at its reference machine speed. The last line of standard output is
one JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run. The lines before it report the
workload's own figures by name with unit and sample count. The exit code is 1
when any correctness check failed, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

# calibrate, layers, stats and workloads import numpy, so the functions below
# import them only after main() has pinned the BLAS thread pools.
SETUP_REPS = 3
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("stage1_per_s", "1/s", "higher"),
    ("stage2_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


class _Lib:
    """The f2pclv modules, imported once from the checkout's src."""

    def __init__(self):
        import f2pclv
        from f2pclv import artifacts, btyd, cohort, data, forest, markov, simulate, supervised

        if Path(f2pclv.__file__).resolve().parent != (SRC / "f2pclv").resolve():
            raise ImportError(f"imported f2pclv from {f2pclv.__file__}, not from {SRC}")
        self.artifacts, self.btyd, self.cohort, self.data = artifacts, btyd, cohort, data
        self.forest, self.markov, self.simulate, self.supervised = forest, markov, simulate, supervised


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _set_up(workload, tracer, probe, traced, lib):
    """Set up SETUP_REPS times; returns the speed-adjusted seconds and the
    slowdown of each set-up and, traced, each set-up's span totals (the
    simulator is traced there)."""
    import calibrate
    import layers

    if traced:
        layers.install(tracer, lib)
    times, slowdowns, totals = [], [], []
    for _ in range(SETUP_REPS):
        start = len(tracer.spans)
        with tracer.span("bench.setup", new_op=True):
            m0 = probe.mark()
            workload.setup()
            seconds, slowdown = calibrate.stage(m0, probe.mark())
        times.append(seconds / slowdown)
        slowdowns.append(slowdown)
        totals.append(layers.round_totals(tracer.spans[start:]))
    tracer.restore()
    return times, slowdowns, totals


def _round(workload, index, ledger, tracer, probe, traced=False):
    """One round on input ``index``; None when the library raised."""
    try:
        if traced:
            with tracer.span("bench.round", new_op=True):
                return workload.run_round(index, ledger, tracer, probe)
        with tracer.paused():
            return workload.run_round(index, ledger, tracer, probe)
    except Exception as exc:  # a library failure ends the run as incorrect
        traceback.print_exc()
        ledger.record(f"round on input {index}", [f"{type(exc).__name__}: {exc}"])
        return None


def _untraced_rounds(args, workload, ledger, tracer, probe):
    """Round i on input i, for the workload's pinned number of rounds, or
    until the next round would end after --seconds, at least two."""
    results = []
    loop_start = time.perf_counter()
    while True:
        result = _round(workload, len(results), ledger, tracer, probe)
        if result is None:
            break
        results.append(result)
        n = len(results)
        if workload.rounds is not None:
            if n >= workload.rounds:
                break
        elif n >= 2 and (time.perf_counter() - loop_start) * (1 + 1 / n) > args.seconds:
            break
    return results


def _traced_rounds(args, workload, ledger, tracer, probe, lib):
    """An untraced warm-up round on input 0, then pairs of an untraced and a
    traced round on the same input 0, 1, ... until the next pair would end
    after --seconds, at least two pairs. Returns the (untraced, traced) result
    pairs and each traced round's span totals."""
    import layers

    pairs, totals = [], []
    if _round(workload, 0, ledger, tracer, probe) is None:
        return pairs, totals
    loop_start = time.perf_counter()
    while True:
        index = len(pairs)
        plain = _round(workload, index, ledger, tracer, probe)
        if plain is None:
            break
        layers.install(tracer, lib)
        start = len(tracer.spans)
        traced = _round(workload, index, ledger, tracer, probe, traced=True)
        tracer.restore()
        if traced is None:
            break
        pairs.append((plain, traced))
        totals.append(layers.round_totals(tracer.spans[start:]))
        n = len(pairs)
        if n >= 2 and (time.perf_counter() - loop_start) * (1 + 1 / n) > args.seconds:
            break
    return pairs, totals


def _round_seconds(result) -> float:
    return result.stage1.seconds + result.stage2.seconds


def run(args, lib, imports, probe, workdir: Path):
    """``imports`` is (speed-adjusted seconds, slowdown) of importing the library."""
    import layers
    import stats
    from workloads import WORKLOADS, Ledger, total_rate

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    traced = bool(args.trace)
    tracer = Tracer()
    ledger = Ledger()
    workload = WORKLOADS[args.workload](lib, args.seed, workdir)

    setup_times, slowdowns, setup_totals = _set_up(workload, tracer, probe, traced, lib)
    if traced:
        pairs, traced_totals = _traced_rounds(args, workload, ledger, tracer, probe, lib)
    else:
        results = _untraced_rounds(args, workload, ledger, tracer, probe)

    values, units, report = None, {}, []
    if traced:
        WORK.mkdir(exist_ok=True)
        tracer.write_jsonl(WORK / f"trace_{args.workload}.jsonl")
    if traced and pairs:
        figures = pairs[0][1].figures
        overhead = stats.median(_round_seconds(t) / _round_seconds(p) for p, t in pairs) - 1.0
        extra = {
            "btyd.fit_param_rel_err": figures.get("fit_param_rel_err", 0.0),
            "supervised.cv_nrmse": figures.get("cv_nrmse", 0.0),
            "btyd.online_p50_ms": 0.0,
            "btyd.online_p99_ms": 0.0,
            "trace.overhead": overhead,
        }
        lat = [v for p, _ in pairs for v in p.latencies_ns]
        if lat:
            extra["btyd.online_p50_ms"] = stats.nearest_rank(lat, 50) / 1e6
            extra["btyd.online_p99_ms"] = stats.nearest_rank(lat, 99) / 1e6
        values = layers.per_layer_metrics(traced_totals, setup_totals, extra)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        report.append(
            f"trace.overhead {overhead:.4f} ratio (median of traced / untraced round time, "
            f"n={len(pairs)} pairs after an untraced warm-up round)"
        )
        report.append(f"trace spans {len(tracer.spans)} (written to {WORK.name}/trace_{args.workload}.jsonl)")
    elif not traced and results:
        setup_s = imports[0] + stats.median(setup_times)
        values = {
            "setup_s": setup_s,
            "stage1_per_s": total_rate(r.stage1 for r in results),
            "stage2_per_s": total_rate(r.stage2 for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        report += _workload_report(args.workload, results, stats)
        report.append(
            f"setup_s {setup_s:.4f} s (library import + median of n={SETUP_REPS} set-ups, speed-adjusted; "
            f"import {imports[0]:.4f} s, slowdowns {imports[1]:.3f} | " + " ".join(f"{x:.3f}" for x in slowdowns) + ")"
        )
        for name in ("stage1", "stage2"):
            stages = [getattr(r, name) for r in results]
            report.append(
                f"{name}_per_s {values[f'{name}_per_s']:.6g} 1/s (all items / all adjusted seconds, "
                f"n={len(results)} rounds; per round " + " ".join(f"{s.rate:.6g}" for s in stages)
                + "; unadjusted " + " ".join(f"{s.raw_rate:.6g}" for s in stages)
                + "; slowdown " + " ".join(f"{s.slowdown:.3f}" for s in stages) + ")"
            )
        report.append(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB (n=1)")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units} if values else {}
    error_rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    report.append(f"error_rate {error_rate:.6g} ratio (n={ledger.attempted} operations)")
    for problem in ledger.problems[:20]:
        report.append(f"FAILED {problem}")
    result = {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": metrics,
    }
    return result, report


def _workload_report(name, results, stats):
    """The workload's own named figures, for the report lines."""
    n = len(results)
    if name == "btyd_fit":
        return [
            f"fit_s {stats.median(r.figures['fit_s'] for r in results):.4f} s (median of all three fits per cohort pair, n={n} pairs)",
            f"fit_param_rel_err {results[0].figures['fit_param_rel_err']:.6g} ratio (input 0, n=3 fits)",
        ]
    if name == "btyd_score":
        lat = [v for r in results for v in r.latencies_ns]
        tail = stats.tail_percentile(len(lat))
        lines = [
            f"score_batch_customers_per_s {stats.median(r.stage1.raw_rate for r in results):.6g} 1/s (median, n={n} rounds)",
            f"score_online_p50_ms {stats.nearest_rank(lat, 50) / 1e6:.4f} ms (n={len(lat)} requests)",
        ]
        if tail is not None:
            lines.append(f"score_online_p{tail:g}_ms {stats.nearest_rank(lat, tail) / 1e6:.4f} ms (n={len(lat)} requests)")
        return lines
    return [
        f"pipeline_s {stats.median(r.figures['pipeline_s'] for r in results):.4f} s (median, n={n} rounds)",
        f"pipeline_cv_nrmse {results[0].figures['cv_nrmse']:.6g} ratio (round 0, n=1 k-fold evaluation)",
    ]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "f2pclv" / "__init__.py").is_file():
        print(f"error: no f2pclv package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # one compute thread: the machine has two cores and the timings should
    # not depend on how a BLAS pool is scheduled
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import calibrate  # with numpy and scipy.special, which the probe needs

    # The library's own import is timed, and speed-adjusted, as set-up; numpy
    # and scipy.special are loaded already and do not count.
    probe = calibrate.SpeedProbe()
    if not args.trace:
        probe.start()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        m0 = probe.mark()
        sys.path.insert(0, str(SRC))
        lib = _Lib()
        seconds, slowdown = calibrate.stage(m0, probe.mark())
        workdir.mkdir(parents=True, exist_ok=True)
        result, report = run(args, lib, (seconds / slowdown, slowdown), probe, workdir)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
