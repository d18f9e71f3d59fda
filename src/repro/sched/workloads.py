"""The demonstrations behind ``python -m repro sched``.

Each workload runs one runtime's real work through a fresh
:class:`~repro.sched.executor.WorkStealingExecutor` and reports in a
**fully deterministic** format: the result lines, the scheduler
statistics, the cache counters, and the canonical event log.  Stdout is
a pure function of (workload, workers, seed) — byte-identical across
processes and ``PYTHONHASHSEED`` values — which is what lets CI diff two
runs and what makes a cached replay verifiable.

With a :class:`~repro.sched.cache.ResultCache` the whole report payload
is content-addressed under ``fingerprint("sched", workload, workers,
seed)``: a warm run returns the stored payload (identical output and
event log) without executing, and the ``cache:`` line shows the hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import workloads as registry
from repro.sched.cache import ResultCache
from repro.sched.executor import WorkStealingExecutor

__all__ = ["SchedReport", "run_sched_workload", "sched_workload_names"]

# A small fixed corpus for the MapReduce word count: enough repeated
# words for a non-trivial reduce phase.  It deliberately differs from
# the trace/chaos corpus in repro.telemetry.workloads: swapping it would
# change the ``repro sched mapreduce`` output, its result-cache keys and
# the stdout that CI diffs across PYTHONHASHSEED values.
_DOCUMENTS = [
    "the fox and the hound raced through the autumn woods",
    "parallel programs share work and the work shares state",
    "the scheduler steals work when a worker runs dry",
    "count the words count the pairs count the reductions",
    "a seed replays the schedule and the schedule replays the run",
    "the hound slept while the fox counted words in the woods",
]


def _wl_mapreduce(executor: WorkStealingExecutor, workers: int,
                  seed: int) -> tuple[str, list[str]]:
    """Word count with both phases dispatched through the scheduler."""
    from repro.mapreduce.engine import MapReduceEngine
    from repro.mapreduce.jobs import word_count_job

    spec = word_count_job()
    records = [(i, doc) for i, doc in enumerate(_DOCUMENTS)]
    engine = MapReduceEngine(n_workers=workers, scheduler=executor)
    result = engine.run(spec, records)
    lines = [f"{word}={count}" for word, count in result.output]
    summary = (
        f"mapreduce wordcount: {len(records)} documents -> "
        f"{len(result.output)} distinct words"
    )
    return summary, lines


def _wl_openmp(executor: WorkStealingExecutor, workers: int,
               seed: int) -> tuple[str, list[str]]:
    """A recursive fib task tree on :class:`repro.openmp.tasks.TaskGroup`."""
    from repro.openmp.runtime import OpenMP
    from repro.openmp.tasks import TaskGroup

    group = TaskGroup(OpenMP(workers), scheduler=executor)

    def fib(n: int) -> int:
        if n < 2:
            return n
        child = group.submit(fib, n - 1)
        other = fib(n - 2)
        return child.result() + other

    n = 14
    value = group.run(fib, n)
    return (
        f"openmp task tree: fib({n}) via fork-join tasks",
        [f"fib({n})={value}"],
    )


def _wl_drugdesign(executor: WorkStealingExecutor, workers: int,
                   seed: int) -> tuple[str, list[str]]:
    """The Assignment-5 scoring sweep, one scheduler task per ligand."""
    from repro.drugdesign.ligands import generate_ligands, generate_protein
    from repro.drugdesign.solvers import solve_sched

    ligands = generate_ligands(n_ligands=24, max_ligand=6, seed=seed)
    protein = generate_protein(length=48, seed=seed + 1)
    result = solve_sched(ligands, protein, executor)
    lines = [
        f"max_score={result.max_score}",
        "best=" + ",".join(result.best_ligands),
        f"total_cells={result.total_cells}",
        "per_worker_cells=" + ",".join(str(c) for c in result.per_thread_cells),
    ]
    summary = f"drugdesign sweep: {len(ligands)} ligands scored"
    return summary, lines


for _name, _fn in (
    ("mapreduce", _wl_mapreduce),
    ("openmp", _wl_openmp),
    ("drugdesign", _wl_drugdesign),
):
    registry.register(_name, sched=_fn)


def sched_workload_names() -> list[str]:
    return registry.names("sched")


@dataclass
class SchedReport:
    """One scheduler demonstration, rendered deterministically."""

    workload: str
    workers: int
    seed: int
    summary: str
    output_lines: tuple[str, ...]
    stats: dict = field(default_factory=dict)
    log_lines: tuple[str, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0

    def render(self) -> str:
        stat_order = [
            "submitted", "executed", "failed", "cancelled", "retries",
            "rejected", "local_pops", "queue_takes", "steals", "steal_rate",
            "backups_launched", "backups_won", "backup_time_saved_s",
            "steps", "high_water",
        ]
        stats_line = " ".join(
            f"{k}={self.stats[k]:.3f}" if isinstance(self.stats.get(k), float)
            else f"{k}={self.stats.get(k, 0)}"
            for k in stat_order
        )
        lines = [
            f"sched workload={self.workload} workers={self.workers} "
            f"seed={self.seed}",
            self.summary,
            *self.output_lines,
            f"stats: {stats_line}",
            f"cache: hits={self.cache_hits} misses={self.cache_misses}",
            f"-- event log ({len(self.log_lines)} events) --",
            *self.log_lines,
        ]
        return "\n".join(lines)


def run_sched_workload(
    name: str,
    workers: int = 4,
    seed: int = 7,
    cache: ResultCache | None = None,
    mode: str = "threaded",
    speculate: bool = False,
    spec_k: float = 2.0,
) -> SchedReport:
    """Run one workload through a fresh deterministic executor.

    Raises ``KeyError`` for an unknown workload name.  With ``cache``,
    the entire report payload (output, stats, event log) is memoised
    under the content address of (workload, workers, seed), so a warm
    run replays identical output without executing.

    ``mode`` picks the execution vehicle (``"threaded"`` or ``"mp"``);
    the scheduling decisions — and therefore the rendered report — are
    byte-identical either way, which is exactly what lets CI diff the
    two.  The threaded cache key is unchanged from older releases;
    other modes append the mode name so a warm threaded cache cannot
    masquerade as an mp run (the stats payloads differ).

    ``speculate`` installs a straggler policy
    (:class:`~repro.sched.spec.SpecPolicy` with ``k=spec_k``) on the
    executor.  Because the runner's executor is the deterministic
    stepping mode, the canonical winner rule applies: no task is ever
    in flight at an idle probe, zero backups launch, and the rendered
    report stays byte-identical to a non-speculative run — the identity
    CI diffs.  The flag exists precisely to demonstrate (and pin) that
    invariant from the command line.
    """
    entry = registry.get(name)
    if entry.sched is None:
        raise KeyError(name)
    name = entry.name
    fn = entry.sched

    def compute() -> dict:
        executor = WorkStealingExecutor(n_workers=workers, seed=seed,
                                        mode=mode)
        if speculate:
            from repro.sched.spec import SpecPolicy

            executor.speculate(SpecPolicy(k=spec_k))
        try:
            summary, output_lines = fn(executor, workers, seed)
            return {
                "summary": summary,
                "output": tuple(output_lines),
                "stats": executor.stats().as_dict(),
                "log": tuple(executor.log_lines()),
            }
        finally:
            executor.close()        # releases the mode="mp" process pool

    cache_key = ("sched", name, workers, seed)
    if mode != "threaded":
        cache_key = cache_key + (mode,)
    if cache is not None:
        payload, _hit = cache.get_or_compute(cache_key, compute)
        hits, misses = cache.hits, cache.misses
    else:
        payload = compute()
        hits = misses = 0

    return SchedReport(
        workload=name,
        workers=workers,
        seed=seed,
        summary=payload["summary"],
        output_lines=payload["output"],
        stats=payload["stats"],
        log_lines=payload["log"],
        cache_hits=hits,
        cache_misses=misses,
    )
