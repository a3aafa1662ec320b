import types

from tracing import Span, Tracer, self_times


def _span(id, parent, start, end, name="x"):
    return Span(id, parent, 0, name, start, end)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 60),
        _span(2, 1, 20, 30),
    ]
    assert self_times(spans) == {0: 50, 1: 40, 2: 10}


def test_self_time_subtracts_each_sibling_once():
    spans = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 20),
        _span(2, 0, 30, 55),
        _span(3, 0, 90, 100),
    ]
    assert self_times(spans)[0] == 100 - 10 - 25 - 10


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        _span(0, None, 10, 100),
        _span(1, 0, 0, 30),  # starts before the parent
        _span(2, 0, 20, 40),  # overlaps the first child
        _span(3, 0, 90, 120),  # ends after the parent
    ]
    # covered: [10, 40) and [90, 100)
    assert self_times(spans)[0] == 90 - 30 - 10


def test_wrappers_record_parent_operation_and_counts_then_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner = mod.inner
    tracer = Tracer()
    tracer.patch(mod, "inner", "lib.inner", hook=lambda a, k, r: {"arg": a[0]})
    tracer.patch(mod, "outer", "lib.outer")
    with tracer.span("bench.op", new_op=True):
        assert mod.outer(3) == 8
    with tracer.paused():
        mod.outer(1)
    tracer.restore()
    assert mod.inner is original_inner

    bench, outer, inner = tracer.spans
    assert [s.name for s in tracer.spans] == ["bench.op", "lib.outer", "lib.inner"]
    assert (outer.parent, inner.parent) == (bench.id, outer.id)
    assert bench.op == outer.op == inner.op != 0
    assert inner.attrs == {"arg": 3}
    assert all(s.end >= s.start for s in tracer.spans)


def test_operations_get_fresh_ids():
    tracer = Tracer()
    for _ in range(2):
        with tracer.span("bench.request", new_op=True):
            pass
    assert tracer.spans[0].op != tracer.spans[1].op

