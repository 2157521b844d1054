"""Per-layer metrics from a traced run's spans.

Every declared per-layer metric is reported for every workload; a layer
the workload never reaches reads 0.  Times are self times unless the
metric says otherwise, so a layer's time excludes the layers it calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from e2ebench import stats
from e2ebench.spec import EXPERIMENTS, PER_LAYER, PROVIDERS, ROUTES
from e2ebench.trace import Span, self_times

MIB = 1024.0 * 1024.0
#: Span names counted as list computation inside a request.
_COMPUTE_PREFIXES = ("providers.", "stored.", "traffic.", "cdn.", "normalize",
                     "context.", "worldgen.")


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _roots(spans: Sequence[Span]) -> Dict[int, Span]:
    """Span id -> its outermost ancestor."""
    by_id = {span.id: span for span in spans}
    root: Dict[int, Span] = {}
    for span in spans:
        chain, node = [], span
        while node.id not in root and node.parent is not None and node.parent in by_id:
            chain.append(node)
            node = by_id[node.parent]
        top = root.get(node.id, node)
        for member in chain + [node]:
            root[member.id] = top
    return root


def layer_metrics(
    spans: Sequence[Span],
    n_sites: int,
    coverage: float,
    overhead: float,
    requests: Sequence[Tuple[str, float]] = (),
    metricz: Optional[Dict[str, float]] = None,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """``(values, details)`` for every declared per-layer metric.

    Args:
        spans: the traced child's spans.
        n_sites: world size (site-days per computed day).
        coverage: ``trace.coverage_frac``.
        overhead: ``trace.overhead_frac``.
        requests: ``(route, client ms)`` per request of a serve workload.
        metricz: ``/metricz`` counter deltas over the load phase.
    """
    values = {metric.name: 0.0 for metric in PER_LAYER}
    details: Dict[str, object] = {}
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def busy(name: str) -> float:
        return sum(own[span.id] for span in by_name.get(name, ()))

    values["worldgen.build_world_s"] = busy("worldgen.build_world")
    for layer, name, metric in (("traffic", "traffic.day", "day_s"),
                                ("cdn", "cdn.day_counts", "day_counts_s")):
        seconds = busy(name)
        values[f"{layer}.{metric}"] = seconds
        values[f"{layer}.site_days_per_s"] = _rate(
            len(by_name.get(name, ())) * n_sites, seconds)

    ids = {span.id: span for span in spans}
    for provider in PROVIDERS:
        name = f"providers.{provider}"
        seconds = busy(name)
        lists = sum(1 for span in by_name.get(name, ())
                    if span.parent is None or ids[span.parent].name != name)
        values[f"{name}.list_s"] = seconds
        values[f"{name}.lists"] = lists
        values[f"{name}.lists_per_s"] = _rate(lists, seconds)

    seconds = busy("normalize")
    lists = len(by_name.get("normalize", ()))
    values["normalize.list_s"] = seconds
    values["normalize.lists"] = lists
    values["normalize.lists_per_s"] = _rate(lists, seconds)
    for experiment in EXPERIMENTS:
        values[f"analysis.{experiment}_s"] = busy(f"analysis.{experiment}")

    reads = by_name.get("store.read", ())
    writes = by_name.get("store.write", ())
    values["store.read_s"] = busy("store.read")
    values["store.reads"] = len(reads)
    values["store.read_mb"] = sum(int(s.args.get("bytes", 0)) for s in reads) / MIB
    values["store.write_s"] = busy("store.write")
    values["store.writes"] = len(writes)
    values["store.write_mb"] = sum(int(s.args.get("bytes", 0)) for s in writes) / MIB
    values["store.hit_ratio"] = _rate(sum(1 for s in reads if s.args.get("hit")), len(reads))

    handles = [s for s in by_name.get("serve.handle", ()) if s.args.get("route") != "control"]
    if handles or "serve.warm" in by_name:
        _serve_metrics(values, details, spans, own, handles, by_name, requests, metricz or {})

    values["trace.coverage_frac"] = coverage
    values["trace.overhead_frac"] = overhead
    return {name: float(value) for name, value in values.items()}, details


def _serve_metrics(values, details, spans, own, handles, by_name, requests, metricz) -> None:
    values["serve.warm_s"] = sum(s.duration for s in by_name.get("serve.warm", ()))
    client: Dict[str, List[float]] = {}
    for route, ms in requests:
        client.setdefault(route, []).append(ms)
    server: Dict[str, List[float]] = {}
    for span in handles:
        server.setdefault(str(span.args.get("route")), []).append(span.duration * 1000.0)
    for route in ROUTES:
        if route not in server and route not in client:
            continue
        server_tail = stats.tail(server.get(route, []))
        client_tail = stats.tail(client.get(route, []))
        values[f"serve.{route}.server_ms_p50"] = stats.percentile(server.get(route, []), 50)
        values[f"serve.{route}.server_ms_tail"] = server_tail["value"]
        values[f"serve.{route}.client_ms_tail"] = client_tail["value"]
        details[f"serve.{route}"] = {"server_tail": server_tail, "client_tail": client_tail}

    root = _roots(spans)
    under = [s for s in spans if root[s.id].name == "serve.handle" and s.name != "serve.handle"]
    values["serve.handle_self_s"] = sum(own[s.id] for s in handles)
    values["serve.store_read_s"] = sum(own[s.id] for s in under if s.name == "store.read")
    values["serve.store_write_s"] = sum(own[s.id] for s in under if s.name == "store.write")
    values["serve.snapshot_doc_s"] = sum(
        own[s.id] for s in under if s.name == "serve.snapshot_doc")
    values["serve.providers_s"] = sum(
        own[s.id] for s in under if s.name.startswith(_COMPUTE_PREFIXES))

    client_tail = stats.tail([ms for _, ms in requests])
    server_tail = stats.tail([s.duration * 1000.0 for s in handles])
    values["serve.transport_ms_tail"] = client_tail["value"] - server_tail["value"]
    details["serve.transport"] = {"server_tail": server_tail, "client_tail": client_tail}
    for name in ("shed", "deadline_timeouts", "not_modified", "read_failures"):
        values[f"serve.{name}"] = metricz.get(name, 0)
