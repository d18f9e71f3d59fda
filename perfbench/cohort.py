"""The megacohort_mp workload: one fresh agent process per set-up.

Each agent times its own set-up (imports and registry providers,
calibration, one small warm-up run through the ``mode="mp"`` pool) and,
when asked to measure, then runs ``run_streamed(n=1_000_000, seed,
mode="mp", workers=2)`` in a closed loop for the window, checks every
run's Tables 1-6, and prints one JSON line on stdout.

With ``--trace 1`` it also runs a second, traced window with run-time
wrappers around the parent-side merge and analysis, and times each
shard layer (draw, score, reduce) in this process on every shard spec
of one run: in mp mode the shards execute in pool children, where a
wrapper installed here cannot see them.

Run as ``python3 perfbench/cohort.py --seed S --seconds T --trace 0
--measure 1`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any

from common import median, send

#: The ``repro megacohort`` default size (62 shards).
N = 1_000_000

#: Pool children; the box has two cores.
WORKERS = 2

#: Warm-up size: two default shards, so both pool children run the body.
WARM_N = 2 * 16384


def closed_loop(seed: int, seconds: float) -> tuple[list[float], list, int]:
    """Run one streamed cohort after another until the window has passed."""
    from repro.megacohort import run_streamed

    walls, results, failed = [], [], 0
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        began = time.monotonic()
        try:
            result = run_streamed(n=N, seed=seed, mode="mp", workers=WORKERS)
        except Exception as exc:  # noqa: BLE001 - counted, reported below
            failed += 1
            print(f"megacohort run failed: {exc!r}", file=sys.stderr)
            continue
        walls.append(time.monotonic() - began)
        results.append(result)
    return walls, results, failed


def wrap(module, name: str, sink: list[float]) -> None:
    """Replace ``module.name`` with a wrapper appending each call's ms."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        began = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((time.perf_counter() - began) * 1e3)

    setattr(module, name, timed)


def shard_layers(seed: int, calibration: list) -> tuple[dict[str, float], float]:
    """Time draw, score and reduce on every shard spec of one run;
    returns the layer metrics and the total compute seconds."""
    from repro.megacohort import SurveyStats, plan_shards, shard_rng
    from repro.simulation.model import draw_response_blocks, scores_from_blocks

    model, targets, result = calibration
    knobs, skills = result.knobs, tuple(targets.skills)
    draw = score = reduce = 0.0
    plan = plan_shards(N)
    bytes_per_row = 0.0
    for spec in plan:
        rng = shard_rng(seed, spec.index)
        t0 = time.perf_counter()
        p_raw, q_raw, e = draw_response_blocks(rng, spec.rows, len(skills),
                                               model.items_per_skill)
        t1 = time.perf_counter()
        scores = scores_from_blocks(knobs, p_raw, q_raw, e)
        t2 = time.perf_counter()
        SurveyStats.from_scores(skills, scores)
        t3 = time.perf_counter()
        draw, score, reduce = draw + t1 - t0, score + t2 - t1, reduce + t3 - t2
        if spec.index == 0:
            arrays = (p_raw, q_raw, e, scores)
            bytes_per_row = sum(a.nbytes for a in arrays) / spec.rows
    shards, compute_s = len(plan), draw + score + reduce
    return {
        "simulation.draw_ms_per_shard": draw / shards * 1e3,
        "simulation.score_ms_per_shard": score / shards * 1e3,
        "megacohort.reduce_ms_per_shard": reduce / shards * 1e3,
        "megacohort.rows_per_core_s": N / compute_s,
        "megacohort.bytes_per_row_computed": bytes_per_row,
    }, compute_s


def pool_start_ms(repeats: int = 5) -> float:
    """Build an mp executor, run one trivial Call, close it; median ms."""
    from repro.sched.core import Call
    from repro.sched.executor import WorkStealingExecutor

    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        executor = WorkStealingExecutor(n_workers=WORKERS, seed=0,
                                        deterministic=False, mode="mp")
        try:
            handle = executor.submit(Call(abs, -1))
            executor.drain()
            handle.result()
        finally:
            executor.close()
        times.append((time.perf_counter() - began) * 1e3)
    return median(times)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()

    control = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    began = time.perf_counter()
    import repro  # noqa: F401
    from repro import workloads

    workloads.entries()                  # registry providers
    import_ms = (time.perf_counter() - began) * 1e3

    calibrate_ms: list[float] = []
    calibration: list[Any] = []
    if args.trace:
        import repro.simulation.calibration as calibration_module

        original = calibration_module.calibrate

        def traced_calibrate(model, targets, *rest, **kwargs):
            t0 = time.perf_counter()
            result = original(model, targets, *rest, **kwargs)
            calibrate_ms.append((time.perf_counter() - t0) * 1e3)
            calibration[:] = [model, targets, result]
            return result

        calibration_module.calibrate = traced_calibrate

    from repro.benchutil import peak_rss_bytes
    from repro.megacohort import identity_check, run_streamed

    run_streamed(n=WARM_N, seed=args.seed, mode="mp", workers=WORKERS)
    out: dict[str, Any] = {"ready": time.monotonic(), "import_ms": import_ms,
                           "calibrate_ms": sum(calibrate_ms)}
    if not args.measure:
        send(control, out)
        return 0

    walls, results, failed = closed_loop(args.seed, args.seconds)
    out["peak_rss_bytes"] = peak_rss_bytes()
    out.update(walls=walls, attempted=len(walls) + failed, failed=failed)
    if args.trace:
        import repro.megacohort.run as run_module

        merge_ms: list[float] = []
        analyze_ms: list[float] = []
        wrap(run_module, "merge_indexed", merge_ms)
        wrap(run_module, "analyze", analyze_ms)
        traced, traced_results, traced_failed = closed_loop(args.seed,
                                                            args.seconds)
        results += traced_results
        out["attempted"] += len(traced) + traced_failed
        out["failed"] += traced_failed
        layers, compute_s = shard_layers(args.seed, calibration)
        wall = median(traced)
        merge, analysis = median(merge_ms), median(analyze_ms)
        stats = [r.sched_stats for r in traced_results]
        layers.update({
            "procpool.pool_start_ms": pool_start_ms(),
            "sched.dispatch_overhead_ms":
                wall * 1e3 - compute_s * 1e3 / WORKERS - merge - analysis,
            "sched.retries": float(sum(s["retries"] for s in stats)),
            "sched.steals": median([float(s["steals"]) for s in stats]),
            "stats.merge_ms": merge,
            "megacohort.analyze_ms": analysis,
            "trace.overhead_pct": (wall - median(walls)) / median(walls) * 100,
        })
        out["layers"] = layers

    # Correctness, outside the timed windows: every run's tables equal a
    # threaded run of the same (n, seed), and the N=124 anchor holds.
    reference = run_streamed(n=N, seed=args.seed, mode="threaded",
                             workers=WORKERS).render_tables()
    problems = [f"run {i}: Tables 1-6 differ from the threaded run"
                for i, result in enumerate(results)
                if result.render_tables() != reference]
    identical, detail = identity_check(args.seed)
    if not identical:
        problems.append("N=124 identity check failed: " + "; ".join(detail))
    out["problems"] = problems
    send(control, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
