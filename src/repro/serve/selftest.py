"""``repro serve --selftest``: the service proves its own resilience.

The selftest boots a real :class:`~repro.serve.server.MetricsService` on
an ephemeral port, replays a deterministic request mix against it over
real sockets, and walks every hardening path on purpose:

A. **baseline** — with fault injection disarmed, fetch every exposed
   endpoint once and pin the expected (golden-verified) bodies; then
   prove the conditional-GET contract (repeat with ``If-None-Match``
   answers 304, empty body, **zero store reads**) and that the diff
   endpoint serves rank deltas.
B. **breaker** — arm the fault plan and trip the circuit deterministically:
   the plan makes each result's first live read slow *and* corrupt, so
   ``failure_threshold`` sequential requests open the breaker while every
   response still answers 200 from last-known-good; after the cooldown a
   half-open probe hits the repaired store and the breaker closes again.
C. **chaos mix** — concurrent clients sweep every endpoint (including the
   plan's injected request errors) and the report requires ≥ the
   availability threshold of non-shed requests to answer 200 with bodies
   byte-identical to the baseline.
D. **shedding** — with every worker slot held (a simulated saturated
   pool), a burst beyond the queue bound must shed: every shed response
   is 503 and carries ``Retry-After``.
E. **drain** — SIGTERM lands mid-traffic; in-flight requests finish (no
   truncated response bodies), the access log ends with
   ``drain.complete`` and ``serve.exit code=0``.

Everything is deterministic: the fault plan is seeded, the mix is a
fixed rotation, and the breaker is tripped by construction rather than
by racing threads.
"""

from __future__ import annotations

import json
import math
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults import inject as faults
from repro.faults.plan import FaultPlan, default_serve_plan
from repro.gates import (
    AVAILABILITY_FLOOR,
    QUICK_EXPERIMENTS,
    GateRun,
    Response,
    ensure_results,
    fetch,
)
from repro.serve.logfmt import AccessLog
from repro.serve.server import MetricsService, ServeSettings
from repro.store.artifacts import ArtifactStore
from repro.worldgen.config import WorldConfig

__all__ = ["SelftestReport", "run_selftest"]

#: Concurrent client threads in the chaos mix and the drain phase (kept
#: below ``max_inflight`` so the mix itself never sheds).
_MIX_CLIENTS = 3


@dataclass
class SelftestReport(GateRun):
    """Everything ``repro serve --selftest`` asserts, with evidence."""

    name: str = "serve --selftest"
    requests_total: int = 0
    availability: float = 0.0
    shed_observed: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    log_lines: List[str] = field(default_factory=list)


def run_selftest(
    config: WorldConfig,
    cache_dir: str,
    names: Optional[Sequence[str]] = None,
    plan: Optional[FaultPlan] = None,
    seed: int = 1337,
    settings: Optional[ServeSettings] = None,
    golden_dir: Optional[object] = None,
    access_log: Optional[AccessLog] = None,
    jobs: int = 1,
    min_requests: int = 400,
    availability_threshold: float = AVAILABILITY_FLOOR,
    use_signals: bool = True,
) -> SelftestReport:
    """Run the full resilience selftest; see the module docstring.

    Args:
        config: world configuration whose cached results are served
          (missing results are computed first).
        cache_dir: artifact-store root.
        names: experiments to exercise (default
          :data:`~repro.gates.QUICK_EXPERIMENTS`); needs at least
          ``breaker_threshold`` entries to trip the circuit.
        plan: fault plan for the chaos phases (default
          :func:`~repro.faults.plan.default_serve_plan` with ``seed``).
        seed: seed for the default plan.
        settings: service knobs; the default uses an ephemeral port and a
          short breaker cooldown so the selftest stays fast.
        golden_dir: optional golden snapshot directory for warmup
          verification.
        access_log: structured log sink (e.g. a file for CI artifacts).
        jobs: worker processes for computing missing results.
        min_requests: minimum chaos-mix request volume.
        availability_threshold: required 200-rate over non-shed requests.
        use_signals: deliver a real SIGTERM for the drain phase (requires
          the main thread); False drives the drain programmatically.
    """
    report = SelftestReport()
    names = list(names if names is not None else QUICK_EXPERIMENTS)
    if settings is None:
        settings = ServeSettings(port=0, breaker_cooldown_seconds=0.4)
    if len(names) < settings.breaker_threshold:
        report.check(
            "setup", False,
            detail=f"need >= {settings.breaker_threshold} experiments to trip the "
            f"breaker, got {len(names)}",
        )
        return report

    failures = ensure_results(names, config, cache_dir, jobs)
    report.check(
        "results cached", not failures,
        detail="all present" if not failures else f"failed: {', '.join(failures)}",
    )
    if failures:
        return report

    store = ArtifactStore(cache_dir)
    service = MetricsService(
        config,
        store,
        settings=settings,
        names=names,
        golden_dir=golden_dir,
        access_log=access_log,
    )
    statuses = service.warm()
    bad = {name: status for name, status in statuses.items() if status != "ok"}
    report.check(
        "warmup golden-verified", not bad,
        detail=f"{len(statuses)} result(s) primed" if not bad else str(bad),
    )
    if bad:
        return report

    service.start()
    host, port = service.host, service.port
    responses: List[Tuple[str, Response]] = []
    installed_signals = False
    try:
        # ----------------------------------------------------------- A
        providers = list(service._context().providers)
        list_paths = [f"/v1/lists/{providers[0]}/0?k=25"]
        if config.n_days > 1:
            list_paths.append(f"/v1/lists/{providers[0]}/1?k=25")
        experiment_paths = [f"/v1/experiments/{name}" for name in names]
        meta_paths = ["/v1/experiments", "/metricz"]
        expected: Dict[str, bytes] = {}
        baseline_ok = True
        for path in experiment_paths + list_paths + meta_paths:
            response = fetch(host, port, path)
            if response is None or response.status != 200:
                baseline_ok = False
                report.check("baseline", False, detail=f"{path} did not answer 200")
                break
            responses.append((path, response))
            if path.startswith("/v1/experiments/"):
                expected[path] = response.body
        if baseline_ok:
            report.check(
                "baseline", True,
                detail=f"{len(experiment_paths + list_paths + meta_paths)} endpoints answered 200",
            )
        else:
            return report

        # ---------------------------------------------------- A (cont.)
        # Conditional revalidation: a repeated GET with If-None-Match
        # must answer 304 with an empty body and — the acceptance bar —
        # zero store reads.  Checked for both the list surface and a
        # stored experiment result, against live store read counters.
        conditional_targets = [list_paths[0], experiment_paths[0]]
        conditional_ok = True
        conditional_detail = []
        for path in conditional_targets:
            first = fetch(host, port, path)
            etag = (first.headers.get("etag") if first is not None else None)
            if first is None or first.status != 200 or not etag:
                conditional_ok = False
                conditional_detail.append(f"{path}: no ETag on 200")
                continue
            stats = service.store.stats
            reads_before = stats.total_hits + stats.total_misses
            revalidated = fetch(
                host, port, path, headers={"If-None-Match": etag}
            )
            reads_after = stats.total_hits + stats.total_misses
            if (
                revalidated is None
                or revalidated.status != 304
                or revalidated.body != b""
                or revalidated.headers.get("etag") != etag
            ):
                conditional_ok = False
                status = revalidated.status if revalidated else None
                conditional_detail.append(f"{path}: expected 304, got {status}")
            elif reads_after != reads_before:
                conditional_ok = False
                conditional_detail.append(
                    f"{path}: 304 touched the store "
                    f"({reads_after - reads_before} read(s))"
                )
        report.check(
            "conditional GET answers 304 with zero store reads",
            conditional_ok,
            detail="; ".join(conditional_detail) if conditional_detail
            else f"{len(conditional_targets)} endpoints revalidated",
        )

        if config.n_days > 1:
            diff_path = f"/v1/lists/{providers[0]}/diff?from=0&to=1&k=25"
            diff_response = fetch(host, port, diff_path)
            diff_ok = diff_response is not None and diff_response.status == 200
            diff_detail = "no response"
            if diff_ok:
                diff_doc = json.loads(diff_response.body)
                diff_ok = all(
                    key in diff_doc
                    for key in ("entrants", "dropouts", "moved", "unchanged")
                )
                diff_detail = (
                    f"{len(diff_doc.get('entrants', []))} entrants, "
                    f"{len(diff_doc.get('dropouts', []))} dropouts, "
                    f"{len(diff_doc.get('moved', []))} moved"
                )
            report.check("diff endpoint serves rank deltas", diff_ok, detail=diff_detail)

        # ---------------------------------------------------- A (cont.)
        # Header-limit hardening: a request flooding more header lines
        # than the service allows must answer 431 in the canonical JSON
        # envelope and close the connection — never the stdlib HTML
        # error page, and never an unbounded parse.
        limit_ok = False
        limit_detail = "no response"
        try:
            with socket.create_connection((host, port), timeout=5.0) as raw:
                raw.settimeout(5.0)
                flood = "".join(
                    f"X-Pad-{i}: {i}\r\n"
                    for i in range(settings.max_header_count + 8)
                )
                raw.sendall(
                    (
                        "GET /healthz HTTP/1.1\r\nHost: selftest\r\n"
                        f"{flood}Connection: close\r\n\r\n"
                    ).encode("ascii")
                )
                blob = b""
                while True:
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    blob += chunk
            head, _, body = blob.partition(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1]) if head else 0
            doc = json.loads(body) if body else {}
            limit_ok = (
                status == 431 and doc.get("error") == "headers_too_large"
            )
            limit_detail = f"status {status}, error {doc.get('error')!r}"
        except (OSError, ValueError):
            limit_detail = "malformed header-limit response"
        report.check(
            "header floods answer 431 in the envelope", limit_ok, detail=limit_detail
        )

        # ----------------------------------------------------------- B
        faults.activate(plan if plan is not None else default_serve_plan(seed))
        trip_paths = experiment_paths[: settings.breaker_threshold]
        trip_ok = True
        for path in trip_paths:
            response = fetch(host, port, path)
            if response is None:
                trip_ok = False
                break
            responses.append((path, response))
            trip_ok = trip_ok and response.status == 200 and response.body == expected[path]
        report.check(
            "corrupt reads answered from last-known-good",
            trip_ok and service.breaker.opens >= 1,
            detail=f"breaker opened after {settings.breaker_threshold} poisoned reads"
            if service.breaker.opens >= 1 else
            f"breaker never opened (opens={service.breaker.opens})",
        )
        open_response = fetch(host, port, trip_paths[0])
        if open_response is not None:
            responses.append((trip_paths[0], open_response))
        report.check(
            "open breaker serves cached bodies",
            open_response is not None
            and open_response.status == 200
            and open_response.body == expected[trip_paths[0]],
        )
        time.sleep(settings.breaker_cooldown_seconds + 0.1)
        probe_response = fetch(host, port, trip_paths[0])
        if probe_response is not None:
            responses.append((trip_paths[0], probe_response))
        report.check(
            "half-open probe re-closed the breaker",
            probe_response is not None
            and probe_response.status == 200
            and service.breaker.closes >= 1,
            detail=f"closes={service.breaker.closes} after repaired store probe",
        )

        # ----------------------------------------------------------- C
        mix = experiment_paths + list_paths + meta_paths
        per_round = _MIX_CLIENTS * len(mix)
        rounds = max(1, math.ceil(min_requests / per_round))
        mix_results: List[List[Tuple[str, Optional[Response]]]] = [
            [] for _ in range(_MIX_CLIENTS)
        ]

        def _client(index: int) -> None:
            for round_no in range(rounds):
                for offset in range(len(mix)):
                    path = mix[(index + round_no + offset) % len(mix)]
                    mix_results[index].append((path, fetch(host, port, path)))

        threads = [
            threading.Thread(target=_client, args=(index,), daemon=True)
            for index in range(_MIX_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        dropped = 0
        for bucket in mix_results:
            for path, response in bucket:
                if response is None:
                    dropped += 1
                else:
                    responses.append((path, response))
        report.check("chaos mix connections", dropped == 0,
                      detail=f"{dropped} request(s) got no response" if dropped
                      else f"{rounds * per_round} requests completed")

        non_shed = [
            (path, response) for path, response in responses
            if not (response.status == 503 and "retry-after" in response.headers)
        ]
        ok_count = sum(1 for _path, response in non_shed if response.status == 200)
        availability = ok_count / len(non_shed) if non_shed else 0.0
        report.requests_total = len(responses)
        report.availability = availability
        report.check(
            "availability under chaos",
            availability >= availability_threshold,
            availability, availability_threshold,
            detail=f"{ok_count}/{len(non_shed)} non-shed requests answered 200 "
            f"({availability:.4f} >= {availability_threshold})",
        )
        non_golden = [
            path for path, response in responses
            if response.status == 200
            and path in expected
            and response.body != expected[path]
        ]
        report.check(
            "zero non-golden bodies served", not non_golden,
            detail="every 200 body byte-identical to baseline" if not non_golden
            else f"drifted: {sorted(set(non_golden))}",
        )

        # ----------------------------------------------------------- D
        # Handler threads release their slots *after* the client has read
        # the response body; let the stragglers from the mix finish before
        # counting slots.
        service.gate.wait_idle(5.0)
        held = 0
        shed_responses: List[Optional[Response]] = []
        try:
            while service.gate.try_acquire() is None:
                held += 1  # simulate a fully saturated worker pool
            burst = settings.queue_depth + 4
            burst_results: List[Optional[Response]] = [None] * burst

            def _burst(index: int) -> None:
                burst_results[index] = fetch(host, port, experiment_paths[0])

            burst_threads = [
                threading.Thread(target=_burst, args=(index,), daemon=True)
                for index in range(burst)
            ]
            for thread in burst_threads:
                thread.start()
            for thread in burst_threads:
                thread.join()
            shed_responses = burst_results
        finally:
            for _ in range(held):
                service.gate.release()
        all_shed = all(
            response is not None
            and response.status == 503
            and "retry-after" in response.headers
            for response in shed_responses
        )
        report.shed_observed = service.gate.shed_total
        report.check(
            "saturated pool sheds with Retry-After", all_shed,
            detail=f"{len(shed_responses)} burst requests shed 503, all with Retry-After"
            if all_shed else "a burst request was not shed correctly",
        )

        # ----------------------------------------------------------- E
        stop = threading.Event()
        drain_results: List[Tuple[str, Optional[Response]]] = []
        drain_lock = threading.Lock()

        def _drain_client(index: int) -> None:
            while not stop.is_set():
                path = mix[index % len(mix)]
                response = fetch(host, port, path, timeout=5.0)
                with drain_lock:
                    drain_results.append((path, response))
                if response is None:
                    return  # listener is gone

        drain_threads = [
            threading.Thread(target=_drain_client, args=(index,), daemon=True)
            for index in range(_MIX_CLIENTS)
        ]
        for thread in drain_threads:
            thread.start()
        time.sleep(0.2)  # let traffic get in flight
        if use_signals:
            service.drain_ctl.install()
            installed_signals = True
            signal.raise_signal(signal.SIGTERM)
        else:
            service.drain_ctl.request("SIGTERM")
        signalled = service.drain_ctl.wait(5.0)
        drained = service.drain(reason=service.drain_ctl.reason or "selftest")
        stop.set()
        for thread in drain_threads:
            thread.join(timeout=5.0)
        report.check(
            "SIGTERM requested drain",
            signalled and service.drain_ctl.reason == "SIGTERM",
            detail=f"reason={service.drain_ctl.reason}",
        )
        truncated = [
            path for path, response in drain_results
            if response is not None and response.truncated
        ]
        completed = sum(
            1 for _path, response in drain_results if response is not None
        )
        report.check(
            "in-flight requests completed during drain",
            drained and not truncated,
            detail=f"{completed} responses completed, 0 truncated" if not truncated
            else f"truncated responses on: {sorted(set(truncated))}",
        )
        exit_events = service.log.events("serve.exit")
        report.check(
            "structured log complete with exit 0",
            bool(service.log.events("drain.start"))
            and bool(service.log.events("drain.complete"))
            and len(exit_events) == 1
            and exit_events[0].get("code") == "0",
            detail="drain.start, drain.complete, serve.exit code=0 all present",
        )
        open_events = service.log.events("breaker.open")
        close_events = service.log.events("breaker.close")
        report.breaker_opens = len(open_events)
        report.breaker_closes = len(close_events)
        report.check(
            "breaker cycle visible in access log",
            bool(open_events) and bool(close_events),
            detail=f"breaker.open x{len(open_events)}, breaker.close x{len(close_events)}",
        )
    finally:
        faults.activate(None)
        if installed_signals:
            service.drain_ctl.restore()
        if not service.draining:
            service.drain(reason="selftest-cleanup")
    report.log_lines = service.log.lines()
    report.lines.append(
        f"{report.requests_total} requests, "
        f"availability {report.availability:.4f}, "
        f"{report.shed_observed} shed, breaker opened "
        f"x{report.breaker_opens} closed x{report.breaker_closes}"
    )
    return report
