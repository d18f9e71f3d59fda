"""The consolidated bench trajectory behind ``repro bench --trajectory``.

Every benchmark suite writes one ``BENCH_<suite>.json`` point at the
repo root; this module reads whichever of them exist and renders one
table — suite, when it ran, whether its gate passed, and a curated
headline metric per suite — so the performance story of the whole repo
fits on one screen without opening a JSON file per suite.  A point whose
perf gate never ran (``gate_applied`` false — e.g. a single-core box
skips a speedup comparison) renders its status as ``—``, not ``ok``:
an unearned pass is the one thing a trajectory must never show.

The rows come from the one suite table, :data:`repro.benchutil.SUITES`,
and each suite's declared ``headline`` metrics.  A missing file renders
as an ``absent`` row (run ``python -m repro bench <suite>`` to produce
it); a metric a point predates renders as ``-`` — old points stay
readable as suites grow new keys.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.benchutil import SUITES, load_suite

__all__ = ["load_points", "render_trajectory"]


def load_points(root: str = ".") -> dict[str, dict[str, Any] | None]:
    """Read every suite's point; ``None`` marks an absent or unreadable
    file (never raises — the trajectory degrades, it does not fail)."""
    points: dict[str, dict[str, Any] | None] = {}
    for name in SUITES:
        path = os.path.join(root, f"BENCH_{name}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                loaded = json.load(handle)
            points[name] = loaded if isinstance(loaded, dict) else None
        except (OSError, ValueError):
            points[name] = None
    return points


def _metric_cell(point: dict[str, Any], key: str, fmt: str) -> str:
    value = point.get(key)
    if value is None:
        return "-"
    try:
        return fmt % value
    except (TypeError, ValueError):
        return str(value)


def render_trajectory(root: str = ".") -> str:
    """The one-screen table over every ``BENCH_*.json`` that exists."""
    points = load_points(root)
    rows: list[tuple[str, str, str, str]] = []
    for name, point in points.items():
        if point is None:
            rows.append((name, "-", "absent",
                         f"run `python -m repro bench {name}`"))
            continue
        ok = point.get("ok")
        if ok is None:
            status = "?"
        elif not ok:
            status = "FAILED"
        elif point.get("gate_applied") is False:
            # The point passed, but its perf gate never ran (e.g. a
            # single-core box skips the speedup comparison) — render
            # the skip honestly instead of an unearned "ok".
            status = "—"
        else:
            status = "ok"
        when = str(point.get("timestamp", "-"))
        headline = "  ".join(
            f"{label}={_metric_cell(point, key, fmt)}"
            for key, label, fmt in load_suite(name).headline
        )
        rows.append((name, when, status, headline))

    name_w = max(len(r[0]) for r in rows)
    when_w = max(len(r[1]) for r in rows)
    stat_w = max(len(r[2]) for r in rows)
    present = sum(1 for point in points.values() if point is not None)
    lines = [
        f"bench trajectory: {present}/{len(SUITES)} suites have points",
        "-" * 72,
    ]
    for name, when, status, headline in rows:
        lines.append(
            f"{name:<{name_w}}  {when:<{when_w}}  {status:<{stat_w}}  "
            f"{headline}"
        )
    lines.append("-" * 72)
    return "\n".join(lines)
