"""Closed-loop HTTP load: request scripts, the load loop, and body checks.

One process sends the load over at most two keep-alive connections, each
on its own thread, both taking the next request from one shared script:
a connection sends its next request only after reading the previous
response in full.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from e2ebench.spec import PROVIDERS, Scale

CONNECTIONS = 2
LIST_K = 1000
SLICE_K = 100
HOT_LISTS = tuple(
    f"/v1/lists/{provider}/{day}?k={SLICE_K}"
    for provider in ("alexa", "tranco", "umbrella") for day in (0, 1, 2)
)
HOT_EXPERIMENTS = tuple(
    f"/v1/experiments/{name}" for name in ("fig1", "fig2", "fig3", "table1")
)
INDEX = "/v1/experiments"


def route_of(path: str, conditional: bool = False) -> str:
    """The route a request exercises (``not-modified`` when conditional)."""
    if conditional:
        return "not-modified"
    path = path.split("?", 1)[0]
    if path == INDEX:
        return "experiments"
    if path.startswith(INDEX + "/"):
        return "experiment"
    if path.startswith("/v1/lists/"):
        tail = path.rsplit("/", 1)[-1]
        return {"diff": "lists-diff", "stability": "lists-stability"}.get(tail, "lists")
    return "control"


@dataclass
class Request:
    path: str
    etag: Optional[str] = None  # sent as If-None-Match; a 304 is expected
    expect: Optional[bytes] = None  # the exact body a 200 must carry

    @property
    def route(self) -> str:
        return route_of(self.path, self.etag is not None)


@dataclass
class Result:
    status: int
    body: bytes
    etag: Optional[str]
    start: float  # time.monotonic()
    end: float
    thread: int
    error: Optional[str] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def etag_of(body: bytes) -> str:
    return '"%s"' % hashlib.sha256(body).hexdigest()


def check(request: Request, result: Result) -> Optional[str]:
    """Why ``result`` is wrong for ``request``, or None when it is right."""
    if result.error is not None:
        return result.error
    if request.etag is not None:
        if result.status != 304 or result.body:
            return f"{request.path}: conditional GET answered {result.status}, want 304"
        return None
    if result.status == 304:
        return f"{request.path}: 304 without If-None-Match"
    if result.status != 200:
        return f"{request.path}: status {result.status}"
    if result.etag != etag_of(result.body):
        return f"{request.path}: ETag {result.etag} is not the body's sha256"
    if request.expect is not None and result.body != request.expect:
        return f"{request.path}: body differs from the expected bytes"
    return None


def drive(port: int, script: Sequence[Request], connections: int = CONNECTIONS,
          keep_bodies: bool = False) -> List[Result]:
    """Send ``script`` closed-loop; results come back in script order."""
    results: List[Optional[Result]] = [None] * len(script)
    counter = itertools.count()

    def worker(thread: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                index = next(counter)
                if index >= len(script):
                    return
                request = script[index]
                headers = {} if request.etag is None else {"If-None-Match": request.etag}
                start = time.monotonic()
                try:
                    conn.request("GET", request.path, headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                    end = time.monotonic()
                    result = Result(response.status, body, response.getheader("ETag"),
                                    start, end, thread)
                except (OSError, http.client.HTTPException) as error:
                    conn.close()
                    result = Result(0, b"", None, start, time.monotonic(), thread,
                                    f"{request.path}: {type(error).__name__}: {error}")
                problem = check(request, result)
                if problem is not None:
                    result.error = problem
                if not keep_bodies:
                    result.body = b""
                results[index] = result
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(n,), daemon=True)
               for n in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in results if r is not None]


def lists_script(scale: Scale) -> List[Request]:
    """``serve_lists``: every (provider, day) list at k=1000, an every-third-
    day diff per provider, then stability per provider, each sent once."""
    script = [Request(f"/v1/lists/{p}/{d}?k={LIST_K}")
              for p in PROVIDERS for d in range(scale.days)]
    script += [Request(f"/v1/lists/{p}/diff?from={d}&to={d + 3}&k={SLICE_K}")
               for p in PROVIDERS for d in range(0, scale.days - 3, 3)]
    script += [Request(f"/v1/lists/{p}/stability?k={SLICE_K}") for p in PROVIDERS]
    return script


def check_list_bodies(script: Sequence[Request], results: Sequence[Result]) -> List[str]:
    """Structural checks on ``serve_lists`` bodies beyond status and ETag."""
    problems = []
    for request, result in zip(script, results):
        if result.error is not None or request.route != "lists":
            continue
        try:
            doc = json.loads(result.body)
        except ValueError:
            problems.append(f"{request.path}: body is not JSON")
            continue
        provider, day = request.path.split("?")[0].split("/")[3:5]
        if doc.get("provider") != provider or doc.get("day") != int(day):
            problems.append(f"{request.path}: body names {doc.get('provider')}/{doc.get('day')}")
        elif doc.get("count") != len(doc.get("names", ())) or not doc["count"]:
            problems.append(f"{request.path}: count {doc.get('count')} mismatches names")
    return problems


def hot_script(seed: int, count: int, touched: Dict[str, Result],
               experiment_body: Callable[[str], bytes]) -> List[Request]:
    """``serve_hot``: ``count`` seeded requests over the touched hot set.

    55% hot list slices, 25% hot experiment bodies, 5% the experiment
    index, 15% conditional GETs of a hot list with its recorded ETag.
    """
    rng = random.Random(seed)
    script = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.55:
            path = rng.choice(HOT_LISTS)
            script.append(Request(path, expect=touched[path].body))
        elif draw < 0.80:
            path = rng.choice(HOT_EXPERIMENTS)
            script.append(Request(path, expect=experiment_body(path.rsplit("/", 1)[1])))
        elif draw < 0.85:
            script.append(Request(INDEX, expect=touched[INDEX].body))
        else:
            path = rng.choice(HOT_LISTS)
            script.append(Request(path, etag=touched[path].etag))
    return script


def touch_script() -> List[Request]:
    """The untimed first touch of the ``serve_hot`` set."""
    return [Request(path) for path in HOT_LISTS + HOT_EXPERIMENTS + (INDEX,)]
