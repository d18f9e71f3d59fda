"""The many-clients load benchmark behind ``python -m repro bench serve``.

Starts a real :class:`~repro.serve.http.BackgroundServer` on a free
port and hammers it from concurrent client threads speaking plain
``http.client`` HTTP — the full stack (parse → admit → schedule →
execute → poll → result), not a shortcut through :class:`JobService`.

Two phases, same clients:

- **cold** — every request carries unique parameters, so every job
  executes on the scheduler.  Measures end-to-end submit→done latency
  and jobs/sec with a busy worker pool;
- **warm** — every client repeats one identical request.  Each should
  be served from the content-addressed result cache without
  re-execution, so the phase measures memoised latency and the cache
  hit rate (cross-checked against the ``serve.jobs.cached`` counter
  scraped from ``/metrics``).

Results go to ``BENCH_serve.json``; ``ok`` is true when every job
completed, the warm phase was (almost) entirely cache hits, and warm
p50 beats cold p50 — the CI smoke gate.  Absolute numbers are
machine-dependent; the cold/warm *ratio* is the point.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any

from repro.benchutil import Suite, percentile
from repro.serve.http import BackgroundServer
from repro.serve.service import JobService

__all__ = ["SUITE", "render_point"]

#: Concurrent client threads (the acceptance floor is 16).
N_CLIENTS = 16

_POLL_S = 0.005


def _request(
    port: int, method: str, path: str, body: dict | None = None
) -> tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        raw = response.read()
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(raw.decode("utf-8"))
        return response.status, raw.decode("utf-8", "replace")
    finally:
        conn.close()


def _run_one(port: int, spec: dict) -> tuple[float, bool, str]:
    """Submit one job and ride it to a terminal state.

    Returns (submit→done latency in seconds, served-from-cache, state).
    """
    started = time.perf_counter()
    status, body = _request(port, "POST", "/jobs", spec)
    if status not in (200, 202):
        return time.perf_counter() - started, False, f"http{status}"
    cached = bool(body.get("cached"))
    job_id = body["id"]
    state = body["state"]
    while state not in ("done", "failed", "cancelled"):
        time.sleep(_POLL_S)
        status, body = _request(port, "GET", f"/jobs/{job_id}")
        if status != 200:
            return time.perf_counter() - started, cached, f"http{status}"
        state = body["state"]
    return time.perf_counter() - started, cached, state


def _phase(
    port: int, clients: int, jobs_per_client: int, spec_for: Any
) -> dict[str, Any]:
    """Run ``clients`` threads, each submitting ``jobs_per_client`` jobs."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    cached_flags: list[int] = [0] * clients
    states: list[list[str]] = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        barrier.wait()
        for job_n in range(jobs_per_client):
            latency, cached, state = _run_one(port, spec_for(index, job_n))
            latencies[index].append(latency)
            cached_flags[index] += int(cached)
            states[index].append(state)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - wall_start

    flat = [lat for per in latencies for lat in per]
    all_states = [state for per in states for state in per]
    total = len(flat)
    return {
        "jobs": total,
        "done": sum(1 for state in all_states if state == "done"),
        "cached": sum(cached_flags),
        "wall_s": wall_s,
        "jobs_per_s": total / wall_s if wall_s > 0 else 0.0,
        "p50_ms": percentile(flat, 0.50) * 1e3,
        "p99_ms": percentile(flat, 0.99) * 1e3,
    }


def _measure(quick: bool, clients: int = N_CLIENTS,
             workers: int = 4) -> dict[str, Any]:
    """The cold phase, then the warm phase, against one live server.

    ``quick`` shrinks jobs-per-client for the CI smoke step but keeps
    the full client count — concurrency is the thing being tested.
    """
    jobs_per_client = 2 if quick else 6
    service = JobService(workers=workers, backlog=max(256, clients * 8))
    point: dict[str, Any] = {
        "clients": clients,
        "workers": workers,
        "jobs_per_client": jobs_per_client,
    }
    with BackgroundServer(service) as server:
        port = server.port
        # Cold: unique seeds → every job executes on the scheduler.
        cold = _phase(
            port, clients, jobs_per_client,
            lambda index, job_n: {
                "workload": "mapreduce", "mode": "sched",
                "params": {"workers": 2,
                           "seed": 1000 + index * jobs_per_client + job_n},
            },
        )
        # Warm: one identical request from everyone → cache hits.
        warm_spec = {"workload": "mapreduce", "mode": "sched",
                     "params": {"workers": 2, "seed": 1000}}
        warm = _phase(port, clients, jobs_per_client,
                      lambda index, job_n: dict(warm_spec))
        _, metrics = _request(port, "GET", "/metrics?format=json")
    service.shutdown()

    point.update({f"cold_{key}": value for key, value in cold.items()})
    point.update({f"warm_{key}": value for key, value in warm.items()})
    point["warm_hit_rate"] = warm["cached"] / warm["jobs"] if warm["jobs"] else 0.0
    point["metrics_jobs_submitted"] = metrics.get("serve.jobs.submitted", 0)
    point["metrics_jobs_cached"] = metrics.get("serve.jobs.cached", 0)
    point["metrics_jobs_completed"] = metrics.get("serve.jobs.completed", 0)
    return point


def render_point(point: dict[str, Any]) -> str:
    """The benchmark point as the aligned table the CLI prints."""
    lines = [
        f"serve bench (quick={point['quick']}): {point['clients']} clients x "
        f"{point['jobs_per_client']} jobs, {point['workers']} workers, "
        f"ok={point['ok']}"
    ]
    for phase in ("cold", "warm"):
        lines.append(
            f"  {phase:4s}  p50 {point[f'{phase}_p50_ms']:8.2f} ms   "
            f"p99 {point[f'{phase}_p99_ms']:8.2f} ms   "
            f"{point[f'{phase}_jobs_per_s']:7.1f} jobs/s   "
            f"{point[f'{phase}_cached']}/{point[f'{phase}_jobs']} cached"
        )
    lines.append(
        f"  warm hit rate {point['warm_hit_rate'] * 100:.0f}%  "
        f"(metrics: {point['metrics_jobs_cached']} cached / "
        f"{point['metrics_jobs_submitted']} submitted)"
    )
    return "\n".join(lines)


#: The warm phase races its first requests against each other: the
#: cache fills on the first completion, so up to one miss per seed
#: collision window is expected — gate at "almost all hits".  The
#: throughput gate runs on any core count.
SUITE = Suite(
    name="serve",
    measure=_measure,
    gate=lambda p: (p["cold_done"] == p["cold_jobs"]
                    and p["warm_done"] == p["warm_jobs"]
                    and p["warm_hit_rate"] >= 0.75
                    and p["metrics_jobs_cached"] >= p["warm_cached"]
                    and p["warm_p50_ms"] <= p["cold_p50_ms"]),
    render=render_point,
    headline=(
        ("cold_jobs_per_s", "cold", "%.0f/s"),
        ("warm_jobs_per_s", "warm", "%.0f/s"),
        ("warm_hit_rate", "hit", "%.2f"),
    ),
)
