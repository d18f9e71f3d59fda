"""The bench harness: one suite table, one point tail, one percentile."""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro import benchutil
from repro.benchutil import SUITES, Suite, load_suite, percentile, run
from repro.cli import main
from repro.faults.clock import ScaledClock
from repro.reporting.trajectory import render_trajectory

#: Each suite's point keys as written before the harness took over the
#: tail (faults and sched were written by standalone scripts then).
_KEYS = {
    "kernels": (
        "bench bootstrap_median_scalar_s bootstrap_median_speedup "
        "bootstrap_median_vector_s bootstrap_n_resamples bootstrap_scalar_s "
        "bootstrap_speedup bootstrap_vector_s dispatch_batched_s "
        "dispatch_chunk dispatch_scalar_s dispatch_speedup gate_applied "
        "lcs_batched_s lcs_batched_speedup lcs_scalar_s lcs_vector_s "
        "lcs_vector_speedup ok quick stencil_cells stencil_scalar_s "
        "stencil_speedup stencil_steps stencil_vector_s sweep timestamp"
    ),
    "mp": (
        "bench cores gate_applied lcs_identical lcs_mp_s lcs_speedup "
        "lcs_threaded_s ok peak_rss_bytes quick stencil_identical stencil_mp_s "
        "stencil_speedup stencil_threaded_s stepping_log_identical timestamp "
        "workers"
    ),
    "spec": (
        "backup_time_saved_s backups_launched backups_won "
        "base_backups_launched base_p50_s base_p99_s base_wall_s bench "
        "gate_applied n_stalls n_tasks ok quick results_identical seed "
        "spec_p50_s spec_p99_s spec_wall_s stall_s stepping_log_identical "
        "timestamp workers"
    ),
    "pipeline": (
        "bench byte_identical cold_s drain_jobs drain_jobs_per_s drain_wall_s "
        "enqueue_created enqueue_jobs enqueue_jobs_per_s enqueue_wall_s "
        "gate_applied ok quick resume_speedup resumed_s resumed_stages seed "
        "store_done timestamp workers"
    ),
    "serve": (
        "bench clients cold_cached cold_done cold_jobs cold_jobs_per_s "
        "cold_p50_ms cold_p99_ms cold_wall_s gate_applied jobs_per_client "
        "metrics_jobs_cached metrics_jobs_completed metrics_jobs_submitted ok "
        "quick timestamp warm_cached warm_done warm_hit_rate warm_jobs "
        "warm_jobs_per_s warm_p50_ms warm_p99_ms warm_wall_s workers"
    ),
    "megacohort": (
        "bench cores full_tensor_bytes gate_applied identity_124 "
        "identity_detail mp_rows_per_s mp_s mp_speedup n ok peak_rss_bytes "
        "quick retries rss_bounded rss_fraction_of_full_tensor seed shards "
        "tables_identical_mp threaded_rows_per_s threaded_s timestamp workers"
    ),
    # The script-era keys plus what the harness tail writes for every
    # suite (quick, gate_applied, ok) and the faults identity bit.
    "faults": (
        "baseline_s bench chaos_s injected ok recovered "
        "recovery_overhead_ratio seed timestamp workload quick gate_applied "
        "output_identical"
    ),
    "sched": (
        "bench cache_hit_ratio cold_s dispatch_overhead_ratio pool_s "
        "queue_high_water sched_s seed steal_rate steals timestamp warm_s "
        "warm_speedup workload quick gate_applied ok"
    ),
}

_IDENTITY_KEYS = {
    "mp": ["stencil_identical", "lcs_identical", "stepping_log_identical"],
    "spec": ["results_identical", "stepping_log_identical"],
    "pipeline": ["byte_identical"],
    "megacohort": ["identity_124", "tables_identical_mp"],
    "faults": ["output_identical"],
}


@pytest.mark.parametrize("name", list(SUITES))
def test_quick_suite_through_the_harness(name, tmp_path):
    kw = {"clock": ScaledClock(0.05)} if name == "spec" else {}
    out = tmp_path / f"BENCH_{name}.json"
    suite = load_suite(name)
    point = run(suite, quick=True, out_path=str(out), **kw)
    assert sorted(point) == sorted(_KEYS[name].split())
    assert point["bench"] == name and point["quick"] is True
    assert isinstance(point["gate_applied"], bool)
    assert isinstance(point["ok"], bool)
    assert point["timestamp"]
    for key in _IDENTITY_KEYS.get(name, []):
        assert point[key] is True, key
    # The gates that apply on any box must pass.  A multicore speedup
    # gate is not asserted: a quick mp or megacohort run on two cores
    # reads about 1x and may fail honestly.
    assert suite.gate(point), point
    if suite.multicore_gate is None:
        assert point["ok"] is True, point
    assert json.loads(out.read_text()) == point


# -- a fake suite through the whole path ---------------------------------------

_FAKE = {"fine": True}

SUITE = Suite(
    name="fake",
    measure=lambda quick: {"ratio": 1.23456789, "fine": _FAKE["fine"]},
    gate=lambda p: p["fine"],
    # Would fail if it ran: the tests pin the box to one core.
    multicore_gate=lambda p: p["ratio"] > 2.0,
    render=lambda p: f"fake bench ok={p['ok']}",
    headline=(("ratio", "ratio", "%.2fx"),),
)


@pytest.fixture
def fake_registered(monkeypatch):
    monkeypatch.setitem(SUITES, "fake", __name__)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)


def test_fake_suite_point_tail(fake_registered, tmp_path, capsys):
    out = tmp_path / "BENCH_fake.json"
    assert main(["bench", "fake", "--out", str(out)]) == 0
    assert "fake bench ok=True" in capsys.readouterr().out
    point = json.loads(out.read_text())
    assert point["ratio"] == 1.234568              # rounded to 6 places
    assert point["cores"] == 1
    assert point["gate_applied"] is False and point["ok"] is True
    line = next(l for l in render_trajectory(str(tmp_path)).splitlines()
                if l.startswith("fake"))
    assert "—" in line and " ok " not in line     # a skip, not a pass
    assert "ratio=1.23x" in line


def test_fake_suite_failing_gate_exits_one(fake_registered, monkeypatch,
                                           tmp_path):
    monkeypatch.setitem(_FAKE, "fine", False)
    out = tmp_path / "BENCH_fake.json"
    assert main(["bench", "fake", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["ok"] is False
    line = next(l for l in render_trajectory(str(tmp_path)).splitlines()
                if l.startswith("fake"))
    assert "FAILED" in line


def test_list_and_trajectory_read_the_one_table(fake_registered, tmp_path,
                                                capsys):
    assert main(["bench", "--list"]) == 0
    listed = capsys.readouterr().out.split(":", 1)[1].strip().split(", ")
    assert listed == list(SUITES) and "fake" in listed
    rows = render_trajectory(str(tmp_path)).splitlines()[2:-1]
    assert [row.split()[0] for row in rows] == list(SUITES)


# -- helpers -------------------------------------------------------------------


def test_affinity_cores_counts_the_mask_not_the_box(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert benchutil.affinity_cores() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert benchutil.affinity_cores() == 64


@pytest.mark.parametrize("values, p50, p99", [
    ([5.0], 5.0, 5.0),
    ([3.0, 1.0, 2.0], 2.0, 3.0),
    ([4.0, 1.0, 3.0, 2.0], 2.0, 4.0),
    # 32 samples: nearest rank picks the 16th for p50 (index 15), where
    # round(q * (n - 1)) would pick index 16.
    ([float(v) for v in range(32, 0, -1)], 16.0, 32.0),
    ([float(v) for v in range(1, 101)], 50.0, 99.0),
])
def test_percentile_is_nearest_rank(values, p50, p99):
    assert percentile(values, 0.50) == p50
    assert percentile(values, 0.99) == p99


def test_benchutil_imports_without_numpy():
    import subprocess

    code = ("import repro.benchutil, sys; "
            "assert 'numpy' not in sys.modules")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
