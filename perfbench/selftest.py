"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

1. Replay: the same workload seed gives an identical schedule (arrival
   offsets and request bytes), another seed a different one, and cold
   request seeds never repeat within a run, set-up included.
2. Failure accounting: a server with one worker and a backlog of one is
   offered a burst it must overflow; every 429 is counted as attempted,
   as failed, and as a goodput miss, never dropped.

Exits 0 when every check holds.
"""

from __future__ import annotations

import math
import sys
import time

import loadgen
import serving
from common import require_source, supports


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        raise SystemExit(1)


def test_replay() -> None:
    for workload in ("serve_cold", "serve_hot"):
        a = loadgen.make_schedule(workload, 5, 20, 60.0)
        b = loadgen.make_schedule(workload, 5, 20, 60.0)
        c = loadgen.make_schedule(workload, 6, 20, 60.0)
        check(a.offsets == b.offsets and a.bodies() == b.bodies(),
              f"{workload}: same seed, identical schedule")
        check(a.offsets != c.offsets and a.bodies() != c.bodies(),
              f"{workload}: another seed, another schedule")
        check(len(a.offsets) == 1200 and list(a.offsets) == sorted(a.offsets)
              and 0.0 <= a.offsets[0] and a.offsets[-1] < 20.0,
              f"{workload}: 1200 sorted arrivals inside the window")
    cold = [s["params"]["seed"] for w in (0, 1)
            for s in loadgen.make_schedule("serve_cold", 5, 20, 60.0, w).specs]
    cold += [s["params"]["seed"] for s in loadgen.warmup_specs("serve_cold", 5)]
    check(len(set(cold)) == len(cold),
          "serve_cold: no request seed repeats across windows and set-up")
    hot = loadgen.hot_set(5)
    spec_keys = {(s["workload"], s["params"]["seed"]) for s in hot}
    drawn = {(s["workload"], s["params"]["seed"])
             for s in loadgen.make_schedule("serve_hot", 5, 20, 60.0).specs}
    check(len(hot) == 48 and drawn <= spec_keys,
          "serve_hot: every request is drawn from the 48-spec hot set")
    check(supports(1200, 0.99) and not supports(999, 0.99),
          "p99 needs at least 10 samples beyond it")


def test_refusals() -> None:
    server, _, _ = serving.set_up("serve_cold", 9, workers=1, backlog=1)
    try:
        schedule = loadgen.make_schedule("serve_cold", 9, 1.0, 400.0)
        start = time.monotonic() + 0.05
        sent = loadgen.run_open_loop(server.port, schedule, start)
        server.drain()
        report = server.call("report", results=False)
    finally:
        server.close()
    window = serving.Window(schedule, sent, report, start)
    outcome = serving.judge(window)
    statuses = [record.status for record in sent]
    refused = sum(status in serving.REFUSED for status in statuses)
    print(f"      {len(sent)} sent, {refused} refused, {outcome.good} good")
    check(refused > 0, "a backlog-1 server refuses part of a 400 req/s burst")
    check(outcome.attempted == len(schedule.offsets) == len(sent),
          "every scheduled request is attempted")
    check(outcome.refused == refused and outcome.failed >= refused,
          "every refusal is counted as failed")
    check(sum(math.isinf(x) for x in outcome.latencies) == outcome.failed
          and outcome.good <= outcome.attempted - outcome.failed,
          "failed requests are goodput misses with no latency")


def main() -> int:
    require_source()
    test_replay()
    test_refusals()
    print("selftest: all checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
