"""The fault-recovery benchmark behind ``python -m repro bench faults``.

A MapReduce word count timed fault-free and under the canonical seed-7
chaos plan (worker deaths plus a corrupted shuffle payload, recovered
by re-execution), plus the injected/recovered counts of the full
``repro chaos mapreduce --seed 7`` scenario, in ``BENCH_faults.json``.
``ok`` requires that scenario's output to match the fault-free
sequential run after at least one recovery, on any core count.
"""

from __future__ import annotations

from typing import Any

from repro import faults
from repro.benchutil import Suite, median_time
from repro.faults.chaos import named_plan, run_chaos
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.jobs import word_count_job

__all__ = ["SUITE", "chaotic_job", "fault_free_job"]

_DOCS = [(i, "alpha beta gamma delta " * 8) for i in range(8)]


def fault_free_job() -> Any:
    """The word count with no fault plan active."""
    engine = MapReduceEngine(n_workers=4, max_attempts=4)
    return engine.run(word_count_job(n_reduce_tasks=4), list(_DOCS))


def chaotic_job() -> tuple[Any, Any]:
    """The same word count under the seed-7 plan; (result, injector)."""
    plan = named_plan("mapreduce", seed=7)
    engine = MapReduceEngine(n_workers=4, max_attempts=4)
    with faults.inject(plan) as injector:
        result = engine.run(word_count_job(n_reduce_tasks=4), list(_DOCS))
    return result, injector


def _measure(quick: bool) -> dict[str, Any]:
    repeats = 3 if quick else 7
    faults.disable()
    baseline_s = median_time(fault_free_job, repeats)
    chaos_s = median_time(chaotic_job, repeats)
    report = run_chaos("mapreduce", seed=7)
    return {
        "workload": "mapreduce word count (8 docs, 4 workers)",
        "seed": 7,
        "baseline_s": baseline_s,
        "chaos_s": chaos_s,
        "recovery_overhead_ratio": chaos_s / baseline_s,
        "injected": report.injected_by_kind,
        "recovered": report.recovered,
        "output_identical": report.ok,
    }


SUITE = Suite(
    name="faults",
    measure=_measure,
    gate=lambda p: p["output_identical"] and p["recovered"] >= 1,
    headline=(
        ("recovery_overhead_ratio", "recovery", "%.2fx"),
        ("recovered", "recovered", "%d"),
    ),
)
