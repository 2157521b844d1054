"""Self time and coverage on synthetic traces, and the span recorder."""

import threading

import pytest

from e2ebench.layers import layer_metrics
from e2ebench.trace import Recorder, Span, coverage, self_times


def _span(id, name, start, end, parent=None, thread=1):
    return Span(id, name, start, end, parent, thread)


def test_self_time_nested_on_two_threads():
    spans = [
        # thread 1: a root with two overlapping children and a grandchild
        _span(1, "root", 0.0, 10.0),
        _span(2, "child", 1.0, 3.0, parent=1),
        _span(3, "grandchild", 1.5, 2.5, parent=2),
        _span(4, "child", 2.0, 5.0, parent=1),
        # thread 2: concurrent with thread 1's root, never its child
        _span(5, "other", 0.0, 4.0, thread=2),
        _span(6, "leaf", 1.0, 2.0, parent=5, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0)  # children cover [1, 5]
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(3.0)
    assert own[6] == pytest.approx(1.0)


def test_child_outside_parent_is_clipped():
    spans = [_span(1, "root", 0.0, 2.0), _span(2, "late", 1.5, 3.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(1.5)


def test_coverage_counts_root_union_once():
    spans = [
        _span(1, "a", 0.0, 4.0),
        _span(2, "b", 2.0, 6.0, thread=2),
        _span(3, "inner", 1.0, 3.0, parent=1),
    ]
    assert coverage(spans, 0.0, 6.0) == pytest.approx(1.0)
    assert coverage(spans, 0.0, 12.0) == pytest.approx(0.5)
    assert coverage(spans, 5.0, 5.0) == 0.0


def test_recorder_keeps_one_stack_per_thread():
    recorder = Recorder()
    barrier = threading.Barrier(2)

    def inner():
        barrier.wait(timeout=5)
        return 1

    traced_inner = recorder.wrap(inner, "inner")
    outer = recorder.wrap(lambda: traced_inner(), "outer")
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {span.id: span for span in recorder.spans}
    inners = [span for span in recorder.spans if span.name == "inner"]
    assert len(inners) == 2 and len(by_id) == 4
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "outer" and parent.thread == span.thread
        assert parent.start <= span.start <= span.end <= parent.end


def test_layer_metrics_use_self_time_and_count_outer_lists():
    spans = [
        _span(1, "analysis.fig3", 0.0, 5.0),
        _span(2, "normalize", 0.5, 2.5, parent=1),
        _span(3, "providers.tranco", 1.0, 2.0, parent=2),
        _span(4, "providers.alexa", 1.2, 1.6, parent=3),
        _span(5, "providers.alexa", 3.0, 3.5, parent=1),
        _span(6, "providers.alexa", 3.1, 3.3, parent=5),  # monthly -> daily
    ]
    values, _ = layer_metrics(spans, n_sites=10, coverage=1.0, overhead=0.0)
    assert values["analysis.fig3_s"] == pytest.approx(5.0 - 2.0 - 0.5)
    assert values["normalize.list_s"] == pytest.approx(1.0)
    assert values["providers.tranco.list_s"] == pytest.approx(0.6)
    assert values["providers.alexa.list_s"] == pytest.approx(0.4 + 0.3 + 0.2)
    assert values["providers.alexa.lists"] == 2
    assert values["serve.handle_self_s"] == 0.0
