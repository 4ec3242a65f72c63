"""Load generators: an open loop over HTTP and a closed loop in process.

Why not ``repro.serve.loadgen.run_loadgen`` or ``ReplayReport``: the
former starts each request's clock *after* its pacing sleep, so a
stalled server delays later sends without charging that wait to them;
the latter reports ``ServiceResult.elapsed``, which leaves out queue
wait.  Here an open-loop request's latency runs from the instant it was
*due*, and the generator reports how late it dispatched (``late``) so
a slow generator cannot pass for a slow server.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

__all__ = ["Sample", "closed_loop", "open_loop"]


@dataclass
class Sample:
    """One timed request, as the client saw it (``perf_counter`` seconds).

    ``due`` is when the request should have started (the schedule's
    instant in the open loop, the submit instant in the closed loop);
    ``late`` is the generator's own delay: dispatch minus due in the
    open loop, the client's gap between a reply and its next submit in
    the closed loop.  ``body`` is the result in the HTTP JSON shape.
    """

    key: object
    due: float
    sent: float
    done: float
    late: float
    body: dict

    @property
    def ok(self) -> bool:
        return bool(self.body.get("ok"))

    @property
    def latency(self) -> float:
        return self.done - self.due


def closed_loop(service, key_of, clients: int, seconds: float,
                round_len: int = 1) -> tuple[list[Sample], float, float]:
    """``clients`` threads, each submitting its next request as soon as
    the previous one returns, for ``seconds`` (then until the number of
    requests issued is a multiple of ``round_len``).

    Request ``i`` uses ``key_of(i)``.  Returns ``(samples, start, end)``.
    """
    from repro.serve import request_from_dict
    from repro.serve.http import result_to_dict

    lock = threading.Lock()
    samples: list[tuple[int, Sample]] = []
    issued = 0
    start = time.perf_counter()
    stop_at = start + seconds

    def client() -> None:
        nonlocal issued
        previous_done = None
        while True:
            with lock:
                if time.perf_counter() >= stop_at and issued % round_len == 0:
                    return
                index = issued
                issued += 1
            key = key_of(index)
            request = request_from_dict(key.request_dict())
            sent = time.perf_counter()
            result = service.submit(request).result()
            done = time.perf_counter()
            late = 0.0 if previous_done is None else sent - previous_done
            previous_done = done
            sample = Sample(key, sent, sent, done, late, result_to_dict(result))
            with lock:
                samples.append((index, sample))

    threads = [threading.Thread(target=client, name=f"client-{c}")
               for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ordered = [sample for _, sample in sorted(samples, key=lambda p: p[0])]
    end = max((s.done for s in ordered), default=time.perf_counter())
    return ordered, start, end


def open_loop(url: str, schedule, keys, connections: int = 2,
              ) -> tuple[list[Sample], float, float]:
    """Send ``schedule`` (``(due offset, key index)`` pairs) to ``url``
    with at most ``connections`` requests in flight, regardless of how
    fast the server answers.  Returns ``(samples, start, end)``.

    Each request opens its own connection, as ``repro loadgen`` does.
    On a reused keep-alive connection every response currently stalls
    about 40 ms (the frontend writes headers and body in two sends, and
    Nagle's algorithm holds the body for the client's delayed ACK);
    perfbench/README.md records that measurement.
    """
    parts = urlsplit(url)
    pending: queue.Queue = queue.Queue()
    samples: list[Sample | None] = [None] * len(schedule)

    def connection() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            index, due, dispatched, key = item
            payload = json.dumps(key.request_dict()).encode()
            sent = time.perf_counter()
            conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=120)
            try:
                conn.request("POST", "/permutations", payload,
                             {"Content-Type": "application/json",
                              "Connection": "close"})
                body = json.loads(conn.getresponse().read())
            except (OSError, http.client.HTTPException, ValueError) as exc:
                body = {"ok": False, "error": {"type": type(exc).__name__,
                                               "message": str(exc)}}
            finally:
                conn.close()
            samples[index] = Sample(key, due, sent, time.perf_counter(),
                                    dispatched - due, body)

    threads = [threading.Thread(target=connection, name=f"conn-{c}")
               for c in range(connections)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    try:
        for index, (offset, key_index) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pending.put((index, due, time.perf_counter(), keys[key_index]))
    finally:
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join()
    done = [s for s in samples if s is not None]
    end = max((s.done for s in done), default=time.perf_counter())
    return done, start, end
