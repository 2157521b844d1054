"""The observability rule, checked end to end: a traced run returns the
same results as an untraced one, and its trace names every provider
build, analysis and store read or write.

``stage_totals`` sums a span name over the whole tree, so a name nested
inside itself would be counted twice; no trace here may hold one.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import clear_contexts
from repro.obs import Span
from repro.providers.registry import PROVIDER_ORDER
from repro.runner import run_experiments
from repro.worldgen.config import WorldConfig

_CONFIG = WorldConfig(n_sites=400, n_days=4, seed=11)
#: A Tranco/Trexa consumer, CrUX's monthly list (fig4) and stability.
_NAMES = ["table1", "fig4", "stability"]


def _run(cache_dir, trace):
    clear_contexts()
    payloads, manifest, _ = run_experiments(
        _NAMES, _CONFIG, cache_dir=cache_dir, keep_data=True, trace=trace
    )
    clear_contexts()
    assert not manifest.failures
    return {payload["name"]: payload for payload in payloads}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Untraced and traced runs, each into a cold store, then a traced
    run over the traced run's store (every list and day read back)."""
    traced_store = tmp_path_factory.mktemp("traced")
    return {
        "untraced": _run(tmp_path_factory.mktemp("untraced"), trace=False),
        "cold": _run(traced_store, trace=True),
        "warm": _run(traced_store, trace=True),
    }


def _walk(span, ancestors=()):
    yield span, ancestors
    for child in span.children:
        yield from _walk(child, ancestors + (span.name,))


def _traces(run):
    return [Span.from_dict(run[name]["trace"]) for name in _NAMES]


def _spans(run):
    return [span for root in _traces(run) for span, _ in _walk(root)]


def test_traced_results_equal_untraced(runs):
    for name in _NAMES:
        expected = runs["untraced"][name]
        for kind in ("cold", "warm"):
            payload = runs[kind][name]
            assert payload["text"] == expected["text"], (kind, name)
            # JSON text: NaN cells compare equal as text, not as floats.
            assert json.dumps(payload["data"], sort_keys=True) == json.dumps(
                expected["data"], sort_keys=True
            ), (kind, name)


@pytest.mark.parametrize("kind", ["cold", "warm"])
def test_no_span_nests_inside_its_own_name(runs, kind):
    for root in _traces(runs[kind]):
        for span, ancestors in _walk(root):
            assert span.name not in ancestors, (root.name, span.name, ancestors)


@pytest.mark.parametrize("kind", ["cold", "warm"])
def test_each_root_is_its_prefetches_then_its_analysis(runs, kind):
    for name, root in zip(_NAMES, _traces(runs[kind])):
        children = [child.name for child in root.children]
        assert children[-1] == f"analysis/{name}"
        assert all(child.startswith("context/") for child in children[:-1])


def test_cold_trace_names_every_provider_build(runs):
    names = {span.name for span in _spans(runs["cold"])}
    for provider in PROVIDER_ORDER:
        assert f"stored/{provider}" in names
        assert {f"providers/{provider}", f"providers/{provider}/monthly"} & names
    # CrUX publishes monthly: its daily lists are the one monthly build.
    assert {"stored/crux/monthly", "providers/crux/monthly"} <= names
    # Tranco builds in-process whichever component lists are not built yet.
    inner = {
        child.name
        for span in _spans(runs["cold"]) if span.name == "providers/tranco"
        for child in span.children
    }
    assert inner and inner <= {"providers/alexa", "providers/umbrella", "providers/majestic"}


@pytest.mark.parametrize("kind", ["cold", "warm"])
def test_a_stored_build_is_a_read_or_a_build_and_a_write(runs, kind):
    for span in _spans(runs[kind]):
        if not span.name.startswith("stored/"):
            continue
        provider = span.name.split("/")[1]
        for child in span.children:
            assert child.name in {"store/read", "store/write"} or child.name.startswith(
                (f"providers/{provider}", f"stored/{provider}/")
            ), (span.name, child.name)
    if kind == "warm":
        assert not [s for s in _spans(runs[kind]) if s.name.startswith("providers/")]


@pytest.mark.parametrize("kind", ["cold", "warm"])
def test_store_counters_land_on_store_spans(runs, kind):
    totals = {}
    for span in _spans(runs[kind]):
        store_counters = {k: v for k, v in span.counters.items() if k.startswith("store.")}
        if not span.name.startswith("store/"):
            assert not store_counters, (span.name, store_counters)
        for key, value in store_counters.items():
            totals[(span.name, key)] = totals.get((span.name, key), 0) + value
    if kind == "cold":
        assert totals[("store/write", "store.puts")] > 0
        assert totals[("store/write", "store.bytes_written")] > 0
        assert totals[("store/read", "store.misses")] > 0
    else:
        assert totals[("store/read", "store.hits")] > 0
        assert totals[("store/read", "store.bytes_read")] > 0
