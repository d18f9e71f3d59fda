"""The durable-store benchmark behind ``python -m repro bench pipeline``.

Three measurements against a real on-disk SQLite store (WAL, fsync —
the configuration every pipeline run uses, not ``:memory:``):

- **enqueue** — idempotent batched admission throughput (jobs/sec
  through :meth:`JobStore.enqueue_batch`);
- **lease/complete** — claim-and-finish throughput: ``lease_next`` a
  batch, ``complete`` each job, repeat until drained — the store-side
  cost floor under every pipeline fan-out;
- **resume overhead** — the drug-design pipeline cold (all four stages
  execute) vs resumed over the same store (all four checkpoints replay),
  plus the byte-identity check between the two outputs.

Results go to ``BENCH_pipeline.json``; ``ok`` is true when every job
reached ``done``, the resumed run was byte-identical to the cold run,
and the resume cost less than the cold run — the CI smoke gate.
Absolute throughput is machine- (and fsync-) dependent; the cold/resume
ratio and the identity bit are the point.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any

from repro.benchutil import Suite
from repro.pipeline.store import JobStore
from repro.pipeline.workloads import run_pipeline_workload

__all__ = ["SUITE", "render_point"]

_LEASE_BATCH = 32


def _bench_enqueue(store: JobStore, n_jobs: int) -> dict[str, Any]:
    specs = [{
        "run_id": "bench-enqueue",
        "stage": "work",
        "payload": {"index": index},
        "expected_score": float(index % 7),
    } for index in range(n_jobs)]
    started = time.perf_counter()
    records = store.enqueue_batch(specs)
    elapsed = time.perf_counter() - started
    created = sum(1 for _record, was_created in records if was_created)
    return {
        "jobs": n_jobs,
        "created": created,
        "wall_s": elapsed,
        "jobs_per_s": n_jobs / elapsed if elapsed > 0 else 0.0,
    }


def _bench_lease_complete(store: JobStore) -> dict[str, Any]:
    completed = 0
    started = time.perf_counter()
    while True:
        batch = store.lease_next("bench-worker", limit=_LEASE_BATCH)
        if not batch:
            break
        for job in batch:
            store.complete(job.job_id, {"ok": True})
            completed += 1
    elapsed = time.perf_counter() - started
    return {
        "jobs": completed,
        "wall_s": elapsed,
        "jobs_per_s": completed / elapsed if elapsed > 0 else 0.0,
    }


def _measure(quick: bool, workers: int = 4, seed: int = 7) -> dict[str, Any]:
    """Store throughput, then the cold and resumed pipeline runs."""
    n_jobs = 200 if quick else 2000
    params = {"ligands": 16 if quick else 48}
    workdir = tempfile.mkdtemp(prefix="repro-pipeline-bench-")
    point: dict[str, Any] = {"workers": workers, "seed": seed}
    try:
        with JobStore(os.path.join(workdir, "throughput.db")) as store:
            enqueue = _bench_enqueue(store, n_jobs)
            drain = _bench_lease_complete(store)
            counts = store.counts(run_id="bench-enqueue")

        with JobStore(os.path.join(workdir, "resume.db")) as store:
            cold_started = time.perf_counter()
            cold = run_pipeline_workload(
                "drugdesign", store, workers=workers, seed=seed,
                resume=False, params=params,
            )
            cold_s = time.perf_counter() - cold_started
        with JobStore(os.path.join(workdir, "resume.db")) as store:
            resumed_started = time.perf_counter()
            resumed = run_pipeline_workload(
                "drugdesign", store, workers=workers, seed=seed,
                resume=True, params=params,
            )
            resumed_s = time.perf_counter() - resumed_started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    point.update({f"enqueue_{key}": value for key, value in enqueue.items()})
    point.update({f"drain_{key}": value for key, value in drain.items()})
    point.update({
        "store_done": counts.get("done", 0),
        "cold_s": cold_s,
        "resumed_s": resumed_s,
        "resume_speedup": cold_s / resumed_s if resumed_s > 0 else 0.0,
        "resumed_stages": resumed.resumed_stages,
        "byte_identical": cold.output == resumed.output,
    })
    return point


def render_point(point: dict[str, Any]) -> str:
    """The benchmark point as the aligned table the CLI prints."""
    lines = [
        f"pipeline bench (quick={point['quick']}): "
        f"{point['enqueue_jobs']} store jobs, {point['workers']} workers, "
        f"ok={point['ok']}"
    ]
    lines.append(
        f"  enqueue        {point['enqueue_jobs_per_s']:9.1f} jobs/s  "
        f"({point['enqueue_created']}/{point['enqueue_jobs']} created)"
    )
    lines.append(
        f"  lease+complete {point['drain_jobs_per_s']:9.1f} jobs/s  "
        f"({point['drain_jobs']} drained, {point['store_done']} done)"
    )
    lines.append(
        f"  resume         cold {point['cold_s'] * 1e3:8.1f} ms   resumed "
        f"{point['resumed_s'] * 1e3:8.1f} ms   "
        f"({point['resume_speedup']:.1f}x, "
        f"{point['resumed_stages']} stages replayed, "
        f"byte_identical={point['byte_identical']})"
    )
    return "\n".join(lines)


#: Durability gates run on any core count.
SUITE = Suite(
    name="pipeline",
    measure=_measure,
    gate=lambda p: (p["enqueue_created"] == p["enqueue_jobs"]
                    and p["drain_jobs"] == p["enqueue_jobs"]
                    and p["store_done"] == p["enqueue_jobs"]
                    and p["byte_identical"]
                    and p["resumed_stages"] == 4
                    and p["resumed_s"] <= p["cold_s"]),
    render=render_point,
    headline=(
        ("enqueue_jobs_per_s", "enqueue", "%.0f/s"),
        ("drain_jobs_per_s", "drain", "%.0f/s"),
        ("resume_speedup", "resume", "%.1fx"),
    ),
)
