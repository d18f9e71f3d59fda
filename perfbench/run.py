"""The repo benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

- ``serve_cold``    open-loop Poisson POSTs at 60 req/s, every request a
                    cache miss that executes;
- ``serve_hot``     the same load drawn from a 48-spec hot set executed
                    during set-up, so every request is a cache hit;
- ``megacohort_mp`` closed loop of one-million-row ``run_streamed`` calls
                    in ``mode="mp"`` with two pool workers.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and then a traced window and prints the per-layer metrics.
Every output is checked against a reference outside the timed windows;
a failed check prints ``"correct": false`` with no numbers and exits 1.
The last line of stdout is the result object; the lines before it give
the environment fingerprint and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any

from common import (HERE, ROOT, Channel, adopt_orphans, child_env,
                    compile_source, fingerprint, median, reap_all,
                    require_source)

WORKLOADS = ("serve_cold", "serve_hot", "megacohort_mp")

#: Fresh megacohort agents started per run to time set-up.  Calibration
#: time depends on the seed (0.2-1.1 s), so the set-up-only agents
#: calibrate the next seeds after the run's own and ``setup_s`` is the
#: median over five seeds, not one draw; the last agent, which
#: measures, uses the run's seed.
COHORT_SETUPS = 5

#: Generator p99 lateness above this marks the point as not comparable.
LATE_LIMIT_MS = 5.0


def run_megacohort(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    agents = []
    for attempt in range(COHORT_SETUPS):
        measure = attempt == COHORT_SETUPS - 1
        agent_seed = seed if measure else seed + 1 + attempt
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "cohort.py"),
             "--seed", str(agent_seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--measure", str(int(measure))],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        try:
            out = Channel(proc.stdout.fileno()).recv(timeout=170.0)
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        out["setup_s"] = out["ready"] - spawned
        agents.append(out)
    last = agents[-1]
    walls = last["walls"]
    result: dict[str, Any] = {
        "correct": not last["problems"],
        "problems": last["problems"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "late_ms": None,
        "samples": len(walls),
        "info": {"slowest_run_ms": max(walls) * 1e3},
    }
    if trace:
        layers = dict(last["layers"])
        layers["setup.import_ms"] = median([a["import_ms"] for a in agents])
        layers["simulation.calibrate_ms"] = median(
            [a["calibrate_ms"] for a in agents])
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "setup_s": median([a["setup_s"] for a in agents]),
            "latency_p50_ms": median(walls) * 1e3,
            "goodput_per_s": 1_000_000 * len(walls) / sum(walls),
            "peak_rss_mb": last["peak_rss_bytes"] / 1e6,
        }
    return result


def main() -> int:
    # Every process a run starts, and every process those start, has
    # ended before the run exits, on every path out of it.
    adopt_orphans()
    try:
        return measure()
    finally:
        reap_all()


def measure() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    require_source()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    compile_source()

    if args.workload == "megacohort_mp":
        result = run_megacohort(args.seed, args.seconds, bool(args.trace))
    else:
        import serving

        result = serving.run(args.workload, args.seed, args.seconds,
                             bool(args.trace))

    late = result["late_ms"]
    env = fingerprint(*(late or (None, None)))
    env["samples"] = result["samples"]
    env["generator_ok"] = late is None or late[1] <= LATE_LIMIT_MS
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in result["info"].items():
        print(f"{args.workload:14s} {name:40s} {value:14.4f} (unbounded, "
              f"{result['samples']} samples)")
    if not env["generator_ok"]:
        print(f"WARNING: generator late p99 {late[1]:.3f} ms > "
              f"{LATE_LIMIT_MS} ms; do not compare this point")

    if not result["correct"]:
        for problem in result["problems"][:20]:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in declared[section]:
        # A layer the workload never reaches reads 0 (see README.md).
        value = float(result["metrics"].get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload:14s} {entry['name']:40s} {value:14.4f} "
              f"{entry['unit']}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
