"""The mega-cohort benchmark behind ``python -m repro bench megacohort``.

Three questions, one point (``BENCH_megacohort.json``):

- **Identity** — does the streamed single-shard N=124 run render Tables
  1–6 byte-identically to the in-memory pipeline?  (The correctness
  anchor; gates ``ok`` unconditionally.)
- **Throughput** — rows/second streaming the full cohort through the
  threaded executor and through the ``mode="mp"`` process pool.  The
  speedup gate (mp ≥ threaded) applies only when the process may use
  two or more cores, mirroring the ``bench mp`` convention — on one core a
  process pool is pickle transport with nothing to buy it back.
- **Memory** — peak RSS (:func:`repro.benchutil.peak_rss_bytes`) against
  the estimated footprint of materialising the full response tensor
  (:func:`repro.megacohort.run.full_tensor_bytes`).  The streamed run
  must stay under half the full-tensor estimate; at the default
  N=1,000,000 the estimate is ~2.7 GB and the streamed peak is tens of
  MB per in-flight shard plus the interpreter.

``quick`` shrinks the cohort to 50,000 rows for the CI smoke step; the
full run streams one million.
"""

from __future__ import annotations

import time
from typing import Any

from repro.benchutil import Suite, format_bytes, peak_rss_bytes
from repro.config import resolve_mp_workers
from repro.megacohort.run import DEFAULT_N, full_tensor_bytes, identity_check, run_streamed

__all__ = ["SUITE", "render_point"]

#: The streamed peak must stay under this fraction of the full-tensor
#: estimate for ``ok`` (generous: the real margin at N=1e6 is ~40x).
_RSS_FRACTION = 0.5


def _timed_arm(n: int, shards: int | None, seed: int, mode: str,
               workers: int) -> tuple[float, Any]:
    start = time.perf_counter()
    result = run_streamed(n=n, shards=shards, seed=seed, mode=mode,
                          workers=workers)
    return time.perf_counter() - start, result


def _measure(quick: bool, seed: int = 2018) -> dict[str, Any]:
    """The identity anchor, both executor arms, and the memory bound."""
    n = 50_000 if quick else DEFAULT_N
    shards = 16 if quick else None          # full run: auto (~62 shards)
    workers = resolve_mp_workers()

    identity, identity_detail = identity_check(seed)

    threaded_s, threaded_result = _timed_arm(n, shards, seed, "threaded",
                                             workers)
    mp_s, mp_result = _timed_arm(n, shards, seed, "mp", workers)
    tables_identical = (
        threaded_result.render_tables() == mp_result.render_tables()
    )

    peak_rss = peak_rss_bytes()
    full_tensor = full_tensor_bytes(n)
    rss_bounded = (
        peak_rss < _RSS_FRACTION * full_tensor if not quick
        # The 50k tensor (~140 MB) is smaller than a warm interpreter's
        # RSS; the memory gate is only meaningful at full scale.
        else True
    )

    return {
        "n": n,
        "shards": threaded_result.shards,
        "workers": workers,
        "seed": seed,
        "identity_124": identity,
        "tables_identical_mp": tables_identical,
        "threaded_s": threaded_s,
        "mp_s": mp_s,
        "threaded_rows_per_s": n / threaded_s,
        "mp_rows_per_s": n / mp_s,
        "mp_speedup": threaded_s / mp_s,
        "peak_rss_bytes": peak_rss,
        "full_tensor_bytes": full_tensor,
        "rss_fraction_of_full_tensor": peak_rss / full_tensor,
        "rss_bounded": rss_bounded,
        "retries": int(threaded_result.sched_stats.get("retries", 0)),
        "identity_detail": identity_detail,
    }


def render_point(point: dict[str, Any]) -> str:
    """The benchmark point as the aligned table the CLI prints."""
    lines = [
        f"megacohort bench (quick={point['quick']}): n={point['n']} "
        f"shards={point['shards']} workers={point['workers']} "
        f"cores={point['cores']} ok={point['ok']}",
        f"  N=124 identity vs in-memory: {point['identity_124']}  "
        f"mp tables identical: {point['tables_identical_mp']}",
        f"  threaded   {point['threaded_s'] * 1e3:10.1f} ms  "
        f"{point['threaded_rows_per_s']:12.0f} rows/s",
        f"  process    {point['mp_s'] * 1e3:10.1f} ms  "
        f"{point['mp_rows_per_s']:12.0f} rows/s  "
        f"({point['mp_speedup']:.2f}x)",
        f"  peak RSS {format_bytes(point['peak_rss_bytes'])} vs "
        f"full tensor {format_bytes(point['full_tensor_bytes'])} "
        f"({point['rss_fraction_of_full_tensor']:.3f}x, "
        f"bounded={point['rss_bounded']})",
    ]
    return "\n".join(lines)


#: Identity and the memory bound gate on any machine; the speedup gate
#: needs parallel hardware (the ``bench mp`` convention).
SUITE = Suite(
    name="megacohort",
    measure=_measure,
    gate=lambda p: (p["identity_124"] and p["tables_identical_mp"]
                    and p["rss_bounded"]),
    multicore_gate=lambda p: p["mp_rows_per_s"] >= p["threaded_rows_per_s"],
    render=render_point,
    headline=(
        ("n", "rows", "%d"),
        ("threaded_rows_per_s", "threaded", "%.0f/s"),
        ("mp_rows_per_s", "mp", "%.0f/s"),
        ("rss_fraction_of_full_tensor", "rss", "%.3fx"),
    ),
)
