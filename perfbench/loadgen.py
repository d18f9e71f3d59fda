"""Seeded open-loop load: the arrival schedule and the senders.

A schedule is a pure function of ``(workload, seed, seconds, rate,
window)``: the same arguments give byte-identical arrival offsets and
request bodies (``selftest.py`` pins this).  Arrivals are a Poisson
process conditioned on its count: exactly ``round(rate * seconds)``
arrival times drawn uniformly over the window and sorted, which is the
distribution of a Poisson process's arrival times given that count.
Fixing the count keeps the offered load identical from seed to seed.

The sender is one thread holding at most ``nproc`` connections.  Every
request is timed from its *due* time on the monotonic clock, so a
stalled server charges the wait to every request queued behind the
stall (no coordinated omission), and the lateness of the generator
itself is recorded per request.
"""

from __future__ import annotations

import ctypes
import json
import os
import random
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Any

#: The three light request kinds of the serve mix (round-robin).
KINDS = ("mapreduce", "stencil_sched", "drugdesign")

#: Hot set: this many seeds for each kind.
HOT_SEEDS = 16

#: Request param seeds are 4*u + r with u drawn below this bound.
_SEED_SPACE = 1 << 28


@dataclass(frozen=True)
class Schedule:
    """Arrival offsets (seconds from the window start) and request specs."""

    offsets: tuple[float, ...]
    specs: tuple[dict[str, Any], ...]

    def bodies(self) -> list[bytes]:
        return [encode_post(spec) for spec in self.specs]


def spec(kind: str, seed: int) -> dict[str, Any]:
    return {"workload": kind, "mode": "sched", "params": {"seed": seed}}


def hot_set(seed: int) -> list[dict[str, Any]]:
    """The serve_hot working set: HOT_SEEDS seeds x the three kinds."""
    rng = random.Random(f"hot:{seed}")
    seeds = rng.sample(range(_SEED_SPACE), HOT_SEEDS)
    return [spec(kind, s) for s in seeds for kind in KINDS]


def warmup_specs(workload: str, seed: int) -> list[dict[str, Any]]:
    """One request of each kind, executed during set-up.

    For ``serve_cold`` these are fresh seeds from their own stream (never
    reused by a window); for ``serve_hot`` the hot set is executed in
    full, and the set-up then sends one hit of each kind.
    """
    if workload == "serve_hot":
        return hot_set(seed)
    rng = random.Random(f"warmup:{seed}")
    return [spec(kind, 4 * u + 3)
            for kind, u in zip(KINDS, rng.sample(range(_SEED_SPACE), 3))]


def make_schedule(workload: str, seed: int, seconds: float, rate: float,
                  window: int = 0) -> Schedule:
    """The seeded arrival schedule of one measured window.

    ``window`` (0 or 1) separates the untraced and traced windows of one
    run: cold requests never repeat a seed across windows, set-up included.
    """
    rng = random.Random(f"{workload}:{seed}:{window}")
    count = max(1, round(rate * seconds))
    offsets = tuple(sorted(rng.uniform(0.0, seconds) for _ in range(count)))
    if workload == "serve_hot":
        pool = hot_set(seed)
        specs = tuple(pool[rng.randrange(len(pool))] for _ in range(count))
    else:
        # Param seeds are 4*u + window (set-up uses 4*u + 3), so no two
        # requests a server sees in one run share a cache key.
        seeds = [4 * u + window for u in rng.sample(range(_SEED_SPACE), count)]
        specs = tuple(spec(KINDS[i % len(KINDS)], s)
                      for i, s in enumerate(seeds))
    return Schedule(offsets=offsets, specs=specs)


# -- HTTP --------------------------------------------------------------------

def encode_post(body: dict[str, Any]) -> bytes:
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    head = (
        "POST /jobs HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + payload


def post(port: int, request: bytes) -> tuple[int, Any]:
    """Send one pre-encoded request; returns (status, parsed JSON body).

    Status 0 means the connection or the response failed.
    """
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30.0) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return 0, {}
    return _parse(b"".join(chunks))


@dataclass
class Sent:
    """Client-side record of one request (monotonic seconds)."""

    index: int
    due: float
    ready: float           # due, or later when every connection was busy
    sent: float
    answered: float
    status: int
    job_id: str | None
    state: str | None


def connections() -> int:
    """Concurrent connections the generator may hold: at most nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _parse(raw: bytes) -> tuple[int, dict]:
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
        parsed = json.loads(body) if body else {}
    except (IndexError, ValueError):
        return 0, {}
    return status, parsed if isinstance(parsed, dict) else {}


_PR_SET_TIMERSLACK = 29


def _tighten_timer_slack() -> None:
    """Ask Linux to wake this thread within 1 us of a timeout instead of
    the default 50 us slack; harmless where unsupported."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_TIMERSLACK, 1000, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def run_open_loop(port: int, schedule: Schedule, start: float) -> list[Sent]:
    """Send every request of ``schedule`` at ``start + offset``.

    One thread drives at most :func:`connections` connections through a
    selector, so the generator never contends with itself for the GIL.
    Requests go out strictly in schedule order; a request that falls due
    while every connection awaits the server is sent when one frees up,
    and that wait is part of its latency.  The generator's own lateness
    (:func:`lateness`) excludes it.  Responses are parsed after the
    window.
    """
    limit = connections()
    bodies = schedule.bodies()
    _tighten_timer_slack()
    # select(2) takes a microsecond timeout; epoll rounds up to 1 ms.
    selector = selectors.SelectSelector()
    raw: list[tuple] = []
    available_since = start
    index = 0
    try:
        while index < len(bodies) or selector.get_map():
            inflight = len(selector.get_map())
            timeout = None
            if index < len(bodies) and inflight < limit:
                due = start + schedule.offsets[index]
                now = time.monotonic()
                if due <= now:
                    ready = max(due, available_since)
                    sent = time.monotonic()
                    index += 1
                    try:
                        sock = socket.create_connection(("127.0.0.1", port),
                                                        timeout=30.0)
                        sock.sendall(bodies[index - 1])
                    except OSError:              # counted as a failure
                        raw.append((index - 1, due, ready, sent,
                                    time.monotonic(), b""))
                        continue
                    sock.setblocking(False)
                    selector.register(sock, selectors.EVENT_READ,
                                      [index - 1, due, ready, sent, []])
                    continue
                timeout = due - now
            for key, _ in selector.select(timeout):
                try:
                    chunk = key.fileobj.recv(65536)
                except OSError:
                    chunk = b""
                if chunk:
                    key.data[4].append(chunk)
                    continue
                answered = time.monotonic()
                if len(selector.get_map()) == limit:
                    available_since = answered
                selector.unregister(key.fileobj)
                key.fileobj.close()
                raw.append((*key.data[:4], answered, b"".join(key.data[4])))
    finally:
        for key in list(selector.get_map().values()):
            key.fileobj.close()
        selector.close()
    records = []
    for i, due, ready, sent, answered, response in sorted(raw):
        status, body = _parse(response)
        records.append(Sent(i, due, ready, sent, answered, status,
                            body.get("id"), body.get("state")))
    return records


def lateness(record: Sent) -> float:
    """Seconds the generator itself was late: from the moment the request
    was both due and had a free connection until it was sent."""
    return record.sent - record.ready
