"""Helpers shared by the benchmark's processes.

Nothing here imports ``repro``: the load generator must stay a light
process, and the environment fingerprint must work before the program
under test is importable.  All timestamps are ``time.monotonic()``,
which is ``CLOCK_MONOTONIC`` on Linux and therefore comparable between
the generator process and the server process.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import select
import signal
import subprocess
import sys
import time
from typing import Any, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))


def require_source() -> None:
    """Exit non-zero (printing no result) unless the program's source is here."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict[str, str]:
    """Environment for every child process: the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# -- process hygiene -----------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A child's own children (a ``multiprocessing`` resource tracker, pool
    workers) outlive it by a moment; as a subreaper this process inherits
    them, so :func:`reap_all` can wait for them too.  Also turns SIGTERM
    into ``SystemExit`` so every ``finally`` block still runs.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)


def _children() -> list[int]:
    """Pids whose parent is this process, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name (field 2) may hold spaces; ppid follows it.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_all(grace: float = 10.0) -> None:
    """Wait until every child and adopted orphan has ended; after
    ``grace`` seconds kill whatever is still running."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.005)


def compile_source() -> None:
    """Byte-compile ``src`` once, so no timed import pays for compiling."""
    import compileall

    compileall.compile_dir(SRC, quiet=2)


# -- statistics --------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    if pos == lo:
        return data[lo]
    return data[lo] + (data[lo + 1] - data[lo]) * (pos - lo)


def supports(n: int, q: float, beyond: int = 10) -> bool:
    """True when at least ``beyond`` of ``n`` samples lie above the q-quantile."""
    return n - math.ceil(q * n) >= beyond


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# -- JSON-lines control channel ----------------------------------------------

class Channel:
    """Read newline-terminated JSON from a file descriptor with a timeout."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self._buf = b""

    def recv(self, timeout: float) -> dict[str, Any]:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"no reply within {timeout:.0f} s")
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 1 << 20)
                if not chunk:
                    raise EOFError("peer closed the channel")
                self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)


def send(handle, obj: dict[str, Any]) -> None:
    handle.write(json.dumps(obj, separators=(",", ":")) + "\n")
    handle.flush()


# -- environment fingerprint -------------------------------------------------

def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _timed_spin(n: int) -> tuple[float, float]:
    start = time.monotonic()
    _spin(n)
    return start, time.monotonic()


def parallel_ceiling(n: int = 1_500_000) -> float:
    """Two-process speed-up on pure-Python CPU work: serial / parallel wall.

    The same loop runs twice in this process, then once in each of two
    child processes; the parallel wall runs from the first child's
    start to the last child's end, so process start-up is excluded.
    """
    serial = _timed_spin(n)
    second = _timed_spin(n)
    serial_s = (serial[1] - serial[0]) + (second[1] - second[0])
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import common; "
            f"print(*common._timed_spin({n}))")
    procs = [subprocess.Popen([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    spans = []
    for proc in procs:
        try:
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        spans.append(tuple(float(x) for x in out.split()))
    wall = max(end for _, end in spans) - min(start for start, _ in spans)
    return serial_s / wall


def _git_sha() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over every ``.py`` file under ``src``: identifies the code
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def fingerprint(late_p50_ms: float | None, late_p99_ms: float | None) -> dict[str, Any]:
    """Where a result came from.  Points whose fingerprints differ (other
    cores, another ceiling, a late generator) are not comparable."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    env = {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "parallel_ceiling": round(parallel_ceiling(), 3),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }
    if late_p50_ms is not None:
        env["generator_late_p50_ms"] = round(late_p50_ms, 4)
        env["generator_late_p99_ms"] = round(late_p99_ms, 4)
    return env
