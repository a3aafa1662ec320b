from calibrate import REFERENCE_MS, Mark, stage
from workloads import Stage, total_rate


def test_probe_time_is_removed_and_slowdown_uses_the_warm_kernel():
    start = Mark(t=10.0, probe_ns=0, kernel_ns=0, probes=0)
    end = Mark(t=12.0, probe_ns=500_000_000, kernel_ns=int(100 * 1.5 * REFERENCE_MS * 1e6), probes=100)
    seconds, slowdown = stage(start, end)
    assert abs(seconds - 1.5) < 1e-12
    assert abs(slowdown - 1.5) < 1e-12
    assert stage(start, Mark(11.0, 0, 0, 0)) == (1.0, 1.0)


def test_total_rate_divides_all_items_by_all_adjusted_seconds():
    stages = [Stage(items=10, seconds=2.0, slowdown=1.0), Stage(items=10, seconds=3.0, slowdown=1.5)]
    assert abs(total_rate(stages) - 20 / (2.0 + 2.0)) < 1e-12
