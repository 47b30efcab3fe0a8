"""Shared plumbing: paths, server processes, statistics, the result."""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for every run, inside the checkout (.gitignore'd).
WORK = os.path.join(ROOT, ".bench_work")

#: Seconds any single wait on a server process may take.
IO_TIMEOUT = 120.0

#: Set-ups per run; ``setup_s`` and ``ingest_rows_per_s`` are their
#: medians.  The first is kept for the measured phase, the others run
#: between its slices.
SETUP_REPS = 5


def load_spec() -> dict:
    """The benchmark's own ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def use_source_tree() -> None:
    """Import the program from the checkout's ``src`` (no install)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def pin_to_one_cpu() -> None:
    """Pin this process -- and so every process it starts, which
    inherit the affinity -- to the last CPU it may use (away from CPU
    0, which takes most of the kernel's own work).

    A closed loop over one connection never runs two of its processes
    at once (the client waits for the server, the server for a shard),
    so one CPU loses no parallelism the workloads use, and the figures
    then depend neither on cross-CPU wake-ups nor on what else runs on
    the machine's other CPUs.  With one CPU there is nothing to pin."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) > 1:
        os.sched_setaffinity(0, {allowed[-1]})


def median(values: List[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Seconds :func:`calibrate` takes on the reference host: the 2-CPU
#: sandbox the bounds were set on, at its usual speed.
CALIBRATE_REF_S = 0.0036


def calibrate() -> int:
    """A fixed loop of integer arithmetic that uses nothing of the
    program.  It allocates nothing the collector tracks and touches
    almost no memory, so its time follows the speed the CPU gives the
    interpreter, not the state of the caller's heap or caches.  (A
    calibration that built dicts and JSON was tried first: inside a run
    its time followed the client's heap and the caches the server had
    just used, and scaling by it widened the spreads.)"""
    x = 0
    for i in range(40000):
        x = (x * 31 + i) & 0xFFFF
    return x


class HostSpeed:
    """The speed of the host, sampled by timing :func:`calibrate`
    between the measured operations of a run.

    The CPU all processes of a run share is shared in turn with other
    tenants of the machine, and its speed drifts by up to 2x over
    minutes: successive 10 s windows of a fixed CPU-bound loop had
    medians of 19 to 39 ms, and ten runs of one workload read 1.5x
    slower at the end of the set than at its start.  No run length or
    median within a run removes a drift that long, so every timing of a
    run is scaled to reference speed: multiplied by ``CALIBRATE_REF_S``
    over the median calibration time of the samples taken during the
    interval it was measured in (and up to ``MARGIN_S`` around it).  The
    calibration time itself is left out of every interval.  On sixteen
    ``oltp`` runs over a drifting stretch the calibration's own spread
    was 0.26 and the raw timings' 0.19-0.27; the scaled timings' was
    0.06-0.08.  The raw timings stay in the run's figures."""

    #: Samples this many seconds before or after an interval count too.
    MARGIN_S = 1.0

    def __init__(self) -> None:
        #: (start, seconds) of every calibration of the run.
        self.samples: List[tuple] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            calibrate()
            self.samples.append((start, time.perf_counter() - start))

    def _within(self, t0: float, t1: float, margin: float) -> List[tuple]:
        return [s for s in self.samples
                if t0 - margin <= s[0] <= t1 + margin]

    def spent(self, t0: float, t1: float) -> float:
        """Seconds spent calibrating between ``t0`` and ``t1``."""
        return sum(s[1] for s in self._within(t0, t1, 0.0))

    def factor(self, t0: float, t1: float) -> float:
        """What a timing of the interval is multiplied by: below 1
        while the host runs slow."""
        near = self._within(t0, t1, self.MARGIN_S)
        return CALIBRATE_REF_S / median([s[1] for s in near])

    def scaled(self, t0: float, t1: float) -> float:
        """The interval's seconds, calibration left out, at reference
        speed."""
        return (t1 - t0 - self.spent(t0, t1)) * self.factor(t0, t1)

    def calibrate_ms(self) -> float:
        """Median calibration time of the run, in ms."""
        return median([s[1] for s in self.samples]) * 1e3


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------

class Process:
    """A child process driven over a pipe: it sends one ``ready``
    payload, then answers requests until told to ``stop``, when it
    answers with its span report and exits."""

    def __init__(self, target, *args, method: str = "spawn") -> None:
        ctx = multiprocessing.get_context(method)
        self.conn, child = ctx.Pipe()
        # Not a daemon: a sharded server starts its own shard workers.
        self.process = ctx.Process(target=target, args=(*args, child))
        self.process.start()
        child.close()
        self.ready = self.recv()

    def recv(self, timeout: float = IO_TIMEOUT):
        if not self.conn.poll(timeout):
            self.kill()
            raise RuntimeError("benchmark child process stopped answering")
        message = self.conn.recv()
        if isinstance(message, dict) and "error" in message:
            self.kill()
            raise RuntimeError(f"benchmark child failed: {message['error']}")
        return message

    def ask(self, request):
        self.conn.send(request)
        return self.recv()

    def stop(self):
        """Ask the child to shut down; returns its final report."""
        try:
            report = self.ask("stop")
        finally:
            self.join()
        return report

    def join(self) -> None:
        """Wait for the child to exit (killing it if it does not)."""
        self.process.join(timeout=IO_TIMEOUT)
        self.kill()

    def kill(self) -> None:
        if self.process.is_alive():
            # Its own children (shard workers) first: they hold the
            # child's exit sentinel open, so ``join`` would wait them out.
            _signal_children(signal.SIGTERM, self.process.pid)
            self.process.terminate()
            self.process.join(timeout=10)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10)
        self.conn.close()


def become_subreaper() -> None:
    """Have processes orphaned below this one (a shard worker whose
    server was killed) re-parented to this process rather than to init,
    so that :func:`reap_children` waits for them too.  Linux only; a
    no-op elsewhere."""
    pr_set_child_subreaper = 36
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids(parent: int) -> List[int]:
    me = str(parent)
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces and ")".
        if stat[stat.rindex(")") + 2:].split()[1] == me:
            pids.append(int(name))
    return pids


def _signal_children(signum: int, parent: Optional[int] = None) -> None:
    for pid in _child_pids(parent or os.getpid()):
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def reap_children() -> None:
    """Stop every process this run started and wait until each has
    ended; called on every way out of a run.

    ``spawn`` starts multiprocessing's resource tracker, which would
    otherwise outlive the run: it ends only when the last holder of its
    pipe closes it.  Children still running after 30 s are killed."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    # Every process the workload started on purpose has been joined by
    # now; what is left was orphaned on a way out through an error.
    _signal_children(signal.SIGTERM)
    deadline = time.monotonic() + 30.0
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        _signal_children(signal.SIGKILL)
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _one_shot_main(fn, *args) -> None:
    conn = args[-1]
    try:
        gc.collect()
        conn.send(fn(*args[:-1]))
    except Exception as exc:     # reported to the parent, which fails
        conn.send({"error": f"{type(exc).__name__}: {exc}"})


def one_shot(fn, *args):
    """``fn(*args)`` in a fresh forked process, on a collected heap;
    returns its result."""
    proc = Process(_one_shot_main, fn, *args, method="fork")
    proc.join()
    return proc.ready


# ----------------------------------------------------------------------
# Run environment
# ----------------------------------------------------------------------

def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def filesystem_of(path: str) -> str:
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, layout: Dict[str, object],
                flush: str, data_dir: Optional[str]) -> Dict[str, object]:
    allowed = sorted(os.sched_getaffinity(0))
    pinned = len(allowed) == 1 and (os.cpu_count() or 1) > 1
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "processes": layout,
        "cpu_pinning": (f"every process on CPU {allowed[-1]}" if pinned
                        else "none"),
        "flush_policy": flush,
        "data_filesystem": filesystem_of(data_dir or WORK),
    }


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def fresh_dir(name: str) -> str:
    path = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def print_result(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, tuple]) -> None:
    """The last line of standard output: the machine-readable result."""
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}},
        separators=(", ", ": ")), flush=True)
