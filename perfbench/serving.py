"""The serve_cold and serve_hot workloads: client side.

This process is the load generator and the judge.  It starts the server
process (``server.py``) several times to time set-up, keeps the last
one, offers it the seeded open-loop schedule over real HTTP, collects
the server's terminal-state stamps, checks every payload, and turns the
records into metrics.  It imports ``repro`` only after the measured
windows, to compute reference payloads.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

import loadgen
from common import HERE, ROOT, Channel, child_env, median, percentile, supports

#: Offered rate of both serve workloads (requests per second).
RATE = 60.0

#: A request counts toward goodput only if done within this limit.
LIMIT_S = 0.100

#: Fresh server processes started per run to time set-up.
SETUPS = 5

#: The ``repro serve`` defaults.
WORKERS = 4
BACKLOG = 64

#: Statuses the service uses to refuse admission.
REFUSED = (429, 503)


class ServerProcess:
    """One server process and its control channel."""

    def __init__(self, workers: int = WORKERS, backlog: int = BACKLOG) -> None:
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             "--workers", str(workers), "--backlog", str(backlog)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), cwd=ROOT,
        )
        self.channel = Channel(self.proc.stdout.fileno())
        try:
            ready = self.channel.recv(timeout=120.0)
        except BaseException:
            self.kill()
            raise
        self.port = ready["port"]
        self.import_ms = ready["import_ms"]

    def call(self, cmd: str, timeout: float = 60.0, **fields: Any) -> dict:
        line = json.dumps({"cmd": cmd, **fields}) + "\n"
        self.proc.stdin.write(line.encode("utf-8"))
        self.proc.stdin.flush()
        return self.channel.recv(timeout)

    def drain(self, timeout: float = 60.0) -> None:
        if not self.call("drain", timeout=timeout + 5.0,
                         wait_s=timeout)["drained"]:
            raise RuntimeError(f"jobs still running after {timeout:.0f} s")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        try:
            self.call("quit", timeout=30.0)
            self.proc.wait(timeout=30.0)
        except (TimeoutError, EOFError, OSError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()
            self.proc.stdin.close()
            self.proc.stdout.close()


def _key(spec: dict[str, Any]) -> tuple[str, int]:
    return spec["workload"], spec["params"]["seed"]


def set_up(workload: str, seed: int, workers: int = WORKERS,
           backlog: int = BACKLOG) -> tuple[ServerProcess, float, dict]:
    """Start a server and warm it; returns (server, set-up seconds, payloads).

    Set-up ends when the first timed request may be sent: imports and
    registry providers, service and HTTP server start, then one executed
    request of each kind (serve_cold), or the whole hot set executed one
    request at a time plus one cache hit of each kind (serve_hot).
    """
    server = ServerProcess(workers, backlog)
    try:
        warm = loadgen.warmup_specs(workload, seed)
        ids: dict[str, tuple[str, int]] = {}
        for spec in warm:
            status, body = loadgen.post(server.port, loadgen.encode_post(spec))
            if status not in (200, 202):
                raise RuntimeError(f"set-up request refused: {status} {body}")
            ids[body["id"]] = _key(spec)
            server.drain()
        if workload == "serve_hot":
            for spec in warm[:len(loadgen.KINDS)]:
                status, body = loadgen.post(server.port,
                                            loadgen.encode_post(spec))
                if status != 200 or not body.get("cached"):
                    raise RuntimeError(f"hot set-up hit missed: {body}")
            server.drain()
        # One full collection closes set-up, so every window starts at the
        # same point of the collector's cycle; the collections the window
        # itself triggers still land in it.
        server.call("collect")
        setup_s = time.monotonic() - server.spawned
        report = server.call("report", results=True)
    except BaseException:
        server.close()
        raise
    payloads = {ids[job_id]: row[3] for job_id, row in report["jobs"].items()
                if job_id in ids}
    return server, setup_s, payloads


@dataclass
class Window:
    """One measured window: what the client sent, what the server saw."""

    schedule: loadgen.Schedule
    sent: list[loadgen.Sent]
    report: dict[str, Any]
    start: float


def measure_window(server: ServerProcess, workload: str, seed: int,
                   seconds: float, index: int, traced: bool) -> Window:
    schedule = loadgen.make_schedule(workload, seed, seconds, RATE, index)
    if traced:
        server.call("trace")
    start = time.monotonic() + 0.05
    sent = loadgen.run_open_loop(server.port, schedule, start)
    server.drain()
    report = server.call("report", results=True)
    return Window(schedule, sent, report, start)


@dataclass
class Outcome:
    """Per-request verdicts of one window."""

    latencies: list[float]          # seconds from due; inf when failed
    good: int                       # done within LIMIT_S
    failed: int                     # refused, errored, failed or cancelled
    refused: int                    # 429 / 503
    span_s: float                   # first due -> last finish

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def judge(window: Window) -> Outcome:
    jobs = window.report["jobs"]
    latencies: list[float] = []
    good = failed = refused = 0
    last = window.start
    for record in window.sent:
        row = jobs.get(record.job_id) if record.job_id else None
        finish = record.answered if row is None else max(record.answered, row[0])
        last = max(last, finish)
        if record.status in REFUSED:
            refused += 1
        if record.status not in (200, 202) or row is None or row[1] != "done":
            failed += 1
            latencies.append(math.inf)
            continue
        latency = finish - record.due
        latencies.append(latency)
        good += latency <= LIMIT_S
    first = min((r.due for r in window.sent), default=window.start)
    return Outcome(latencies, good, failed, refused, max(last - first, 1e-9))


def latency_ms(outcome: Outcome, q: float) -> float:
    if q > 0.5 and not supports(outcome.attempted, q):
        raise RuntimeError(
            f"{outcome.attempted} requests cannot support a p{q * 100:g}")
    value = percentile(outcome.latencies, q)
    if math.isinf(value):
        raise RuntimeError(f"p{q * 100:g} falls on a failed request "
                           f"({outcome.failed}/{outcome.attempted} failed)")
    return value * 1e3


def check(window: Window, setup_payloads: dict, references: dict) -> list[str]:
    """Compare every done payload with its reference; returns mismatches."""
    problems = []
    jobs = window.report["jobs"]
    for record, spec in zip(window.sent, window.schedule.specs):
        row = jobs.get(record.job_id) if record.job_id else None
        if row is None or row[1] != "done":
            continue
        key = _key(spec)
        result = row[3]
        if key in setup_payloads:            # a hot-set request
            if result != setup_payloads[key]:
                problems.append(f"{key}: hit differs from the cached payload")
            continue
        ref = references[key]
        if result["output"] != ref["output"] or result["log"] != ref["log"]:
            problems.append(f"{key}: payload differs from workloads.run_job")
    return problems


def reference_payloads(keys) -> dict:
    """``workloads.run_job`` for every (kind, seed), in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import workloads

    return {key: workloads.run_job("sched", key[0], {"seed": key[1]})
            for key in sorted(set(keys))}


def layer_metrics(window: Window, outcome: Outcome) -> dict[str, float]:
    """The per-layer split of one traced window (see README.md)."""
    trace = window.report["trace"]
    submits = {row[2]: row for row in trace["submit"] if row[2]}
    runs = {(row[0], row[1]): row for row in trace["run_job"]}
    jobs = window.report["jobs"]
    late, post, http_self, submit_us = [], [], [], []
    queue_wait, run, notify, unattributed = [], [], [], []
    for record, spec, latency in zip(window.sent, window.schedule.specs,
                                     outcome.latencies):
        late.append(loadgen.lateness(record))
        row = jobs.get(record.job_id) if record.job_id else None
        sub = submits.get(record.job_id)
        if row is None or sub is None or math.isinf(latency):
            continue
        rtt = record.answered - record.sent
        post.append(rtt)
        http_self.append(rtt - (sub[1] - sub[0]))
        executed = runs.get(_key(spec))
        if row[2] or executed is None:            # cache hit
            chain = (record.sent - record.due) + rtt
        else:
            wait = max(0.0, executed[2] - sub[1])
            queue_wait.append(wait)
            run.append(executed[3] - executed[2])
            notify.append(row[0] - executed[3])
            chain = ((sub[0] - record.due) + (sub[1] - sub[0]) + wait
                     + (executed[3] - executed[2]) + (row[0] - executed[3]))
        unattributed.append(latency - chain)
    for row in trace["submit"]:
        submit_us.append(row[1] - row[0])
    gets = trace["cache_get"]
    hits = sum(1 for row in gets if row[2])

    def p(values, q, scale):
        return percentile(values, q) * scale if values else 0.0

    def durations(rows):
        return [row[1] - row[0] for row in rows]

    requests = max(len(window.sent), 1)
    return {
        "loadgen.late_p50_ms": p(late, 0.5, 1e3),
        "loadgen.late_p99_ms": p(late, 0.99, 1e3),
        "serve.http.post_p50_ms": p(post, 0.5, 1e3),
        "serve.http.self_p50_ms": p(http_self, 0.5, 1e3),
        "serve.service.submit_p50_us": p(submit_us, 0.5, 1e6),
        "serve.service.submit_p99_us": p(submit_us, 0.99, 1e6),
        "serve.service.refused": float(outcome.refused),
        "sched.queue_wait_p50_ms": p(queue_wait, 0.5, 1e3),
        "sched.queue_wait_p99_ms": p(queue_wait, 0.99, 1e3),
        "sched.high_water": float(window.report["sched"]["high_water"]),
        "workloads.run_job_p50_ms": p(run, 0.5, 1e3),
        "workloads.run_job_busy_s": sum(row[3] - row[2]
                                        for row in trace["run_job"]),
        "sched.cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "sched.cache.get_p50_us": p(durations(gets), 0.5, 1e6),
        "sched.cache.put_p50_us": p(durations(trace["cache_put"]), 0.5, 1e6),
        "pipeline.store.mark_terminal_p50_us":
            p(durations(trace["mark_terminal"]), 0.5, 1e6),
        "pipeline.store.claim_callbacks_p50_us":
            p(durations(trace["claim_callbacks"]), 0.5, 1e6),
        "pipeline.store.calls_per_request":
            (len(trace["mark_terminal"]) + len(trace["claim_callbacks"]))
            / requests,
        "serve.notify_p50_us": p(notify, 0.5, 1e6),
        "serve.unattributed_p50_ms": p(unattributed, 0.5, 1e3),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run of a serve workload; see run.py for the result shape."""
    setups, imports = [], []
    server = payloads = None
    for attempt in range(SETUPS):
        server, setup_s, payloads = set_up(workload, seed)
        setups.append(setup_s)
        imports.append(server.import_ms)
        if attempt < SETUPS - 1:
            server.close()
    try:
        windows = [measure_window(server, workload, seed, seconds, 0, False)]
        if trace:
            windows.append(measure_window(server, workload, seed, seconds, 1,
                                          True))
    finally:
        server.close()

    outcomes = [judge(w) for w in windows]
    keys = {_key(s) for w in windows for s in w.schedule.specs} | set(payloads)
    references = reference_payloads(keys)
    problems = [f"set-up {key}: payload differs from workloads.run_job"
                for key, payload in payloads.items()
                if payload["output"] != references[key]["output"]
                or payload["log"] != references[key]["log"]]
    hot = payloads if workload == "serve_hot" else {}
    for window in windows:
        problems += check(window, hot, references)

    base = outcomes[0]
    peak = max(w.report["peak_rss_bytes"] for w in windows)
    result: dict[str, Any] = {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "late_ms": [percentile([loadgen.lateness(r) for r in windows[0].sent],
                               q) * 1e3 for q in (0.5, 0.99)],
        "samples": base.attempted,
        "info": {"latency_p99_ms": latency_ms(base, 0.99)},
    }
    if trace:
        layers = layer_metrics(windows[1], outcomes[1])
        layers["latency_p99_ms"] = result["info"]["latency_p99_ms"]
        untraced = latency_ms(base, 0.5)
        layers["trace.overhead_pct"] = (
            (latency_ms(outcomes[1], 0.5) - untraced) / untraced * 100.0)
        layers["setup.import_ms"] = median(imports)
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "setup_s": median(setups),
            "latency_p50_ms": latency_ms(base, 0.5),
            "goodput_per_s": base.good / base.span_s,
            "peak_rss_mb": peak / 1e6,
        }
    return result
