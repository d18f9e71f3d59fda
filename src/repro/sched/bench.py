"""The scheduler benchmark behind ``python -m repro bench sched``.

Two questions, one point (``BENCH_sched.json``):

- **Dispatch** — a MapReduce word count through the engine's private
  thread pool vs through the shared work-stealing scheduler.  The price
  of determinism is bookkeeping, never a stalled phase, and steals must
  occur (the balancing actually happens).
- **Cache** — the drug-design workload cold, then warm from the
  content-addressed result cache, which replays the stored result
  without executing anything.

``ok`` requires ``steals > 0`` and a warm cache-hit ratio of 1.0; both
hold on any core count.
"""

from __future__ import annotations

import tempfile
from typing import Any

from repro.benchutil import Suite, median_time
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.jobs import word_count_job
from repro.sched.cache import ResultCache
from repro.sched.executor import WorkStealingExecutor
from repro.sched.workloads import run_sched_workload

__all__ = ["SUITE", "pool_job", "sched_job"]

_DOCS = [(i, "alpha beta gamma delta epsilon zeta " * 6) for i in range(12)]


def pool_job() -> Any:
    """The word count on the engine's private ThreadPoolExecutor."""
    engine = MapReduceEngine(n_workers=4)
    return engine.run(word_count_job(n_reduce_tasks=4), list(_DOCS))


def sched_job() -> tuple[Any, WorkStealingExecutor]:
    """The same word count through the shared scheduler."""
    ex = WorkStealingExecutor(n_workers=4, seed=7)
    engine = MapReduceEngine(n_workers=4, scheduler=ex)
    return engine.run(word_count_job(n_reduce_tasks=4), list(_DOCS)), ex


def _measure(quick: bool) -> dict[str, Any]:
    repeats = 3 if quick else 7
    pool_s = median_time(pool_job, repeats)
    sched_s = median_time(sched_job, repeats)
    stats = sched_job()[1].stats().as_dict()

    with tempfile.TemporaryDirectory() as tmp:
        def drugdesign() -> Any:
            return run_sched_workload("drugdesign", workers=4, seed=7,
                                      cache=ResultCache(directory=tmp))

        cold_s = median_time(drugdesign, 1)
        warm_s = median_time(drugdesign, repeats)
        warm = drugdesign()

    return {
        "workload": "mapreduce word count (12 docs, 4 workers) + "
                    "drugdesign cache replay",
        "seed": 7,
        "pool_s": pool_s,
        "sched_s": sched_s,
        "dispatch_overhead_ratio": sched_s / pool_s,
        "steal_rate": stats["steal_rate"],
        "steals": stats["steals"],
        "queue_high_water": stats["high_water"],
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s else None,
        "cache_hit_ratio":
            warm.cache_hits / (warm.cache_hits + warm.cache_misses),
    }


SUITE = Suite(
    name="sched",
    measure=_measure,
    gate=lambda p: p["steals"] > 0 and p["cache_hit_ratio"] == 1.0,
    headline=(
        ("dispatch_overhead_ratio", "dispatch", "%.2fx"),
        ("steals", "steals", "%d"),
        ("warm_speedup", "warm", "%.0fx"),
    ),
)
