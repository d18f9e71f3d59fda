"""The one benchmark harness behind ``python -m repro bench``.

Suites declare, the harness writes.  Each suite module named in
:data:`SUITES` declares one :class:`Suite`; :func:`run` measures it and
owns the point tail — float rounding, ``cores``, ``gate_applied``,
``ok``, the timestamp and the ``BENCH_<suite>.json`` write.  ``repro
bench <suite>``, ``--list`` and ``--trajectory`` all read :data:`SUITES`.

The measuring helpers live here too.  :func:`peak_rss_bytes` reads
``ru_maxrss`` (**KiB on Linux**, **bytes on macOS**); its
``RUSAGE_CHILDREN`` half covers reaped children, i.e. a ``mode="mp"``
process pool after ``executor.close()`` has joined it.

Only the standard library is imported, and little of it at import time:
the suites load lazily, and the repo benchmark imports
:func:`peak_rss_bytes` inside its measured agents.
"""

from __future__ import annotations

import importlib
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "SUITES", "Suite", "affinity_cores", "format_bytes", "load_suite",
    "median_time", "peak_rss_bytes", "percentile", "render_json", "run",
    "stepping_logs_identical",
]

#: Every ``repro bench`` suite: name → the module that declares its
#: ``SUITE``.  The one place a suite is listed.
SUITES: dict[str, str] = {
    "kernels": "repro.kernels.bench",
    "mp": "repro.kernels.mpbench",
    "spec": "repro.sched.specbench",
    "pipeline": "repro.pipeline.bench",
    "serve": "repro.serve.bench",
    "megacohort": "repro.megacohort.bench",
    "faults": "repro.faults.bench",
    "sched": "repro.sched.bench",
}

Point = dict[str, Any]


def render_json(point: Point) -> str:
    """The point as sorted, indented JSON (for suites without a table)."""
    import json

    return json.dumps(point, indent=2, sort_keys=True)


@dataclass(frozen=True)
class Suite:
    """One benchmark suite, as its module declares it."""

    name: str
    #: ``measure(quick, **kw)`` → the point's measured fields.
    measure: Callable[..., Point]
    #: Conditions that gate ``ok`` on any machine.
    gate: Callable[[Point], bool]
    #: (json key, short label, printf format) shown by ``--trajectory``.
    headline: tuple[tuple[str, str, str], ...] = ()
    #: Conditions that gate ``ok`` only with two or more usable cores
    #: (a speedup needs parallel hardware to show).  A suite with one
    #: records ``cores``, and ``gate_applied`` says whether it ran.
    multicore_gate: Callable[[Point], bool] | None = None
    #: What the CLI prints for a finished point.
    render: Callable[[Point], str] = render_json


def load_suite(name: str) -> Suite:
    """The :class:`Suite` registered as ``name`` (imports its module)."""
    return importlib.import_module(SUITES[name]).SUITE


def run(suite: Suite, quick: bool = False, out_path: str | None = None,
        **kw: Any) -> Point:
    """Measure ``suite``, gate the point, write it to ``out_path``.

    ``kw`` passes through to ``suite.measure`` (tests swap in a scaled
    clock this way).  Floats are rounded to 6 places before the gates
    read them, so the committed point is what was judged.
    """
    point: Point = {"bench": suite.name, "quick": quick}
    point.update(suite.measure(quick, **kw))
    if suite.multicore_gate is not None:
        point["cores"] = affinity_cores()
    for key, value in point.items():
        if isinstance(value, float):
            point[key] = round(value, 6)
    # ``gate_applied`` false means the multicore gate was skipped: the
    # trajectory renders that as a skip, never as an earned pass.
    point["gate_applied"] = (suite.multicore_gate is None
                             or point["cores"] >= 2)
    point["ok"] = bool(
        suite.gate(point)
        and (suite.multicore_gate is None or not point["gate_applied"]
             or suite.multicore_gate(point))
    )
    point["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(render_json(point) + "\n")
    return point


def affinity_cores() -> int:
    """CPUs this process may run on (its affinity mask, not the box's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity API on this platform
        return os.cpu_count() or 1


def median_time(fn: Callable[[], Any], repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn``."""
    import statistics

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile by nearest rank (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def stepping_logs_identical(workers: int, seed: int, **knob: Any) -> bool:
    """The drug-design stepping report under both values of one knob,
    byte for byte — e.g. ``mode=("threaded", "mp")``."""
    from repro.sched.workloads import run_sched_workload

    ((name, (first, second)),) = knob.items()
    first_log, second_log = (
        run_sched_workload("drugdesign", workers=workers, seed=seed,
                           **{name: value}).render()
        for value in (first, second)
    )
    return first_log == second_log


def _ru_maxrss_bytes(who: int) -> int:
    raw = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":
        return int(raw)
    return int(raw) * 1024


def peak_rss_bytes(include_children: bool = True) -> int:
    """Peak resident set size of this process, in bytes.

    With ``include_children`` (default) the result is the max over the
    process itself and its reaped children — a process pool's memory
    counts once its workers have been joined.
    """
    peak = _ru_maxrss_bytes(resource.RUSAGE_SELF)
    if include_children:
        peak = max(peak, _ru_maxrss_bytes(resource.RUSAGE_CHILDREN))
    return peak


def format_bytes(n_bytes: float) -> str:
    """Human-readable binary size (``1.5 GiB`` style)."""
    value = float(n_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.0f} {unit}" if unit == "B" else f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")
