"""The server process of the serve workloads.

Runs one :class:`repro.serve.service.JobService` behind a
:class:`repro.serve.http.BackgroundServer` at the ``repro serve``
defaults (4 workers, backlog 64), in a process of its own so the load
generator never competes for this interpreter's GIL.  The parent talks
to it over a JSON-lines control channel: commands on stdin, replies on
the original stdout (anything the program prints goes to stderr).

Observation: the public ``EventLog.emit`` is wrapped so a job's
terminal state event is stamped with ``time.monotonic()`` in the thread
that emits it, the moment a client blocked on ``EventLog.wait`` would
wake.  Nothing polls, and the server gains no threads.

Tracing (the ``trace`` command) wraps the public entry points of each
layer at run time and records monotonic start/end stamps; it changes
no program code, and the untraced window runs without the wrappers'
timing.

Run as ``python3 perfbench/server.py --workers 4 --backlog 64`` with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import threading
import time
from typing import Any

from common import send


class Observer:
    """Stamps the moment each submitted job's terminal state is visible.

    Wraps the public ``EventLog.emit``: the job's terminal ``state``
    event is stamped in the thread that emits it, which is the moment a
    waiter blocked on ``EventLog.wait`` would be woken.  No thread is
    added to the server and nothing polls.
    """

    def __init__(self, event_log_cls, terminal: frozenset[str]) -> None:
        self.terminal = terminal
        self.seen: dict[str, tuple[float, Any]] = {}
        self._cond = threading.Condition()
        self._pending: dict[int, Any] = {}       # id(job.events) -> job
        self._early: dict[int, float] = {}       # terminal before watch()
        emit = event_log_cls.emit

        def observed_emit(log, kind, **data):
            event = emit(log, kind, **data)
            if kind == "state" and data.get("state") in terminal:
                stamp = time.monotonic()
                with self._cond:
                    job = self._pending.pop(id(log), None)
                    if job is None:
                        self._early[id(log)] = stamp
                    else:
                        self.seen[job.job_id] = (stamp, job)
                        self._cond.notify_all()
            return event

        event_log_cls.emit = observed_emit

    def watch(self, job: Any) -> None:
        """Called as a submission returns its job."""
        key = id(job.events)
        with self._cond:
            stamp = self._early.pop(key, None)
            if stamp is None:
                self._pending[key] = job
            else:
                self.seen[job.job_id] = (stamp, job)

    def drain(self, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: not self._pending,
                                       timeout=timeout)

    def take(self) -> dict[str, tuple[float, Any]]:
        with self._cond:
            seen, self.seen = self.seen, {}
        return seen


class Tracer:
    """Run-time wrappers around each layer's public calls."""

    def __init__(self) -> None:
        self.on = False
        self.records: dict[str, list] = {}
        self._installed = False
        self.reset()

    def reset(self) -> None:
        self.records = {name: [] for name in (
            "submit", "run_job", "cache_get", "cache_put",
            "mark_terminal", "claim_callbacks")}

    def install(self) -> None:
        if self._installed:
            return
        self._installed = True
        from repro import workloads
        from repro.pipeline.store import JobStore
        from repro.sched.cache import ResultCache

        now = time.monotonic
        run_job = workloads.run_job

        def traced_run_job(mode, name, params=None):
            t0 = now()
            try:
                return run_job(mode, name, params)
            finally:
                if self.on:
                    self.records["run_job"].append(
                        [name, (params or {}).get("seed"), t0, now()])

        workloads.run_job = traced_run_job

        def timed(cls, attr, bucket):
            original = getattr(cls, attr)

            def wrapper(*args, **kwargs):
                t0 = now()
                try:
                    return original(*args, **kwargs)
                finally:
                    if self.on:
                        self.records[bucket].append([t0, now()])

            setattr(cls, attr, wrapper)

        cache_get = ResultCache.get

        def traced_get(cache, key, default=None):
            t0 = now()
            value = cache_get(cache, key, default)
            if self.on:
                self.records["cache_get"].append(
                    [t0, now(), value is not default])
            return value

        ResultCache.get = traced_get
        timed(ResultCache, "put", "cache_put")
        timed(JobStore, "mark_terminal", "mark_terminal")
        timed(JobStore, "claim_callbacks", "claim_callbacks")


def install_submit_hook(service_cls, observer: Observer, tracer: Tracer) -> None:
    """Hand every job a submission returns to the observer; when tracing,
    also stamp the submission's entry and exit."""
    submit = service_cls.submit

    def observed_submit(service, *args, **kwargs):
        t0 = time.monotonic()
        try:
            job = submit(service, *args, **kwargs)
        except Exception as exc:
            if tracer.on:
                tracer.records["submit"].append(
                    [t0, time.monotonic(), None, type(exc).__name__])
            raise
        if tracer.on:
            tracer.records["submit"].append(
                [t0, time.monotonic(), job.job_id, None])
        observer.watch(job)
        return job

    service_cls.submit = observed_submit


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--backlog", type=int, default=64)
    args = parser.parse_args()

    # Replies go to the original stdout; the program's own prints to stderr.
    control = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    started = time.perf_counter()
    import repro  # noqa: F401
    from repro import workloads

    workloads.entries()                  # registry providers
    import_ms = (time.perf_counter() - started) * 1e3

    from repro.benchutil import peak_rss_bytes
    from repro.serve.events import EventLog
    from repro.serve.http import BackgroundServer
    from repro.serve.service import TERMINAL_STATES, JobService

    observer = Observer(EventLog, TERMINAL_STATES)
    tracer = Tracer()
    install_submit_hook(JobService, observer, tracer)
    service = JobService(workers=args.workers, backlog=args.backlog)
    server = BackgroundServer(service).start()
    send(control, {"port": server.port, "import_ms": import_ms})

    for line in sys.stdin:
        command = json.loads(line)
        name = command["cmd"]
        if name == "drain":
            send(control, {"drained": observer.drain(command["wait_s"])})
        elif name == "collect":
            gc.collect()
            send(control, {"collected": True})
        elif name == "trace":
            tracer.install()
            tracer.reset()
            tracer.on = True
            send(control, {"tracing": True})
        elif name == "report":
            tracer.on = False
            seen = observer.take()
            jobs = {
                job_id: [stamp, job.state, job.cached,
                         job.result if command.get("results") else None]
                for job_id, (stamp, job) in seen.items()
            }
            send(control, {
                "jobs": jobs,
                "trace": tracer.records,
                "sched": service.executor.stats().as_dict(),
                "peak_rss_bytes": peak_rss_bytes(),
            })
            tracer.reset()
        elif name == "quit":
            break
    server.stop()
    send(control, {"stopped": True})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
