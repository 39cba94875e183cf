"""Measurement plumbing: percentiles, host counters, host speed, and
the processes under test.

Service processes are started in their own session so that the whole
tree (a ``repro cluster`` coordinator and the ``repro serve`` workers it
spawns) can be stopped as one group, and each is probed for readiness
with a plain ``GET /healthz`` every few milliseconds: the service
client's jittered retry backoff would add its own wait to the set-up
time being measured.
"""

from __future__ import annotations

import heapq
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

PROBE_INTERVAL_S = 0.005
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-quantile (0 <= q <= 1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


#: Iterations of :func:`calibration_kernel` (about 8 ms on a 2-vCPU
#: Xeon VM at its usual speed).
CALIBRATION_ROUNDS = 220
#: The reference host the time metrics are scaled to: one on which
#: :func:`calibration_kernel` takes exactly this long.
CALIBRATION_REF_S = 0.008
#: Kernel timings per CPU whose median gives that CPU's current speed.
CALIBRATION_WINDOW = 9


def calibration_kernel(rounds: int = CALIBRATION_ROUNDS) -> Fraction:
    """A fixed, standard-library-only loop with the profile of the
    frontier exploration: exact ``Fraction`` arithmetic, tuple
    allocation, a binary heap and dict lookups.  Nothing in it depends
    on the code under test."""
    heap: list = []
    best: dict = {}
    for i in range(1, rounds):
        item = (Fraction(i % 97, i % 89 + 1), -Fraction(i % 13, 7), i)
        heapq.heappush(heap, item)
        best[(i % 211, item[0])] = item
    total = Fraction(0)
    while heap:
        time_, work, _ = heapq.heappop(heap)
        total += time_ - work
    return total


class HostSpeed:
    """The current speed of each CPU the benchmark may run on, from the
    calibration kernel timed between ops.

    On a shared host the speed of a vCPU drifts by up to 2.5x over
    minutes (a sibling hyperthread busy or idle) and the vCPUs drift
    independently; thread CPU time drifts with it, so it is not steal
    and no longer run averages it away.  Each op's time is therefore
    multiplied by :meth:`scale`: the reference kernel time over the
    kernel's recent median on that CPU, which makes it the op's time on
    the reference host.  On a 2-vCPU VM whose speed varied 2x within
    200 s, ``analyze-cold`` op time followed the kernel with slope 1.0
    (correlation 0.98).
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: Dict[int, List[float]] = {cpu: [] for cpu in self.cpus}

    def sample(self, cpu: int) -> None:
        """Time the kernel once on *cpu*; the affinity is restored."""
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            t0 = time.perf_counter()
            calibration_kernel()
            self.samples[cpu].append(time.perf_counter() - t0)
        finally:
            os.sched_setaffinity(0, previous)

    def sample_all(self, times: int = 1) -> None:
        for _ in range(times):
            for cpu in self.cpus:
                self.sample(cpu)

    def scale(self, cpu: Optional[int] = None) -> float:
        """Reference over current kernel time, on *cpu* or (``None``,
        for work the scheduler places) averaged over every CPU."""
        cpus = self.cpus if cpu is None else [cpu]
        recent = [median(self.samples[c][-CALIBRATION_WINDOW:]) for c in cpus]
        return CALIBRATION_REF_S * len(recent) / sum(recent)

    def kernel_ms(self) -> Dict[int, float]:
        """Median kernel time per CPU over the whole run."""
        return {c: 1000.0 * median(v) for c, v in self.samples.items() if v}


#: A fresh interpreter importing the standard-library modules a service
#: loads: the work of booting a process, with nothing of the code under
#: test in it.
SPAWN_KERNEL = ("import asyncio, http.server, http.client, json, fractions, decimal, "
                "email.parser, argparse, logging, concurrent.futures, multiprocessing, hashlib")
#: :data:`SPAWN_KERNEL`'s time on the reference host.  Measured at 0.10 s
#: on the VM while :func:`calibration_kernel` took 2.9 ms, and scaled
#: by the same factor as that kernel (8 ms on the reference host).
SPAWN_REF_S = 0.27


def spawn_scale(samples: int = 3) -> float:
    """Like :meth:`HostSpeed.scale`, for process boots: the reference
    over the median of *samples* fresh timings of :data:`SPAWN_KERNEL`.
    A cluster boot followed the compute kernel with an elasticity of
    only 0.7 between a slow and a fast host phase (process creation and
    imports are not bytecode), so boots are scaled by boots."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SPAWN_KERNEL], check=True)
        times.append(time.perf_counter() - t0)
    return SPAWN_REF_S / median(times)


#: Body of :class:`IdleSpinner`: a busy loop at the lowest scheduling
#: priority, in a session (so a scheduler autogroup) of its own at the
#: lowest group priority, that ends as soon as its parent is gone.
_SPIN = """
import os
with open("/proc/self/autogroup", "w") as fh:
    fh.write("19")
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


class IdleSpinner:
    """Keeps the CPU it inherits from going idle, as a context manager.

    A vCPU with nothing to run halts, and the host may give its core
    to another guest; when a short sleep inside the system under test
    (the service's 2 ms micro-batch window, a hand-off between
    processes) ends, the wake-up then waits on the host.  The spinner
    runs only when nothing else can, and the kernel preempts it as soon
    as anything wakes.
    """

    def __enter__(self) -> "IdleSpinner":
        self.proc = subprocess.Popen([sys.executable, "-c", _SPIN], start_new_session=True)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait()


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of all CPU ticks between two samples that the host stole."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already inside user/nice
    return delta[7] / total if total > 0 else 0.0


def _children() -> Dict[int, List[int]]:
    tree: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def process_tree(root: int) -> List[int]:
    """*root* and every live descendant."""
    tree = _children()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(tree.get(pid, ()))
    return out


def pin_tree(root: int, cpus) -> None:
    """Pin every thread of *root* and of its descendants to *cpus*;
    threads they start later inherit the pin."""
    for pid in process_tree(root):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:  # the thread has ended
                continue


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over *pids*, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def get_json(port: int, path: str, timeout: float = 30.0):
    """One plain ``GET`` (no retries); returns ``(status, document)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def healthz_ok(port: int) -> bool:
    try:
        status, _ = get_json(port, "/healthz", timeout=5.0)
    except (OSError, http.client.HTTPException, ValueError):
        return False
    return status == 200


class Service:
    """One ``repro serve`` or ``repro cluster`` process tree."""

    def __init__(self, proc: subprocess.Popen, port: int, log) -> None:
        self.proc = proc
        self.port = port
        self._log = log

    @classmethod
    def launch(cls, root: str, mode: str, cache_dir: str, log_path: str,
               extra: Sequence[str] = ()) -> "Service":
        """Start ``python -m repro.cli <mode>``; returns at once."""
        port = free_port()
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        log = open(log_path, "w")
        cmd = [sys.executable, "-m", "repro.cli", mode, "--port", str(port),
               "--jobs", "1", "--cache-dir", cache_dir, *extra]
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        return cls(proc, port, log)

    def wait_ready(self) -> None:
        """Poll ``/healthz`` until it answers 200."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not healthz_ok(self.port):
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited during boot (rc={self.proc.returncode})")
            if time.monotonic() > deadline:
                raise RuntimeError(f"service not ready after {BOOT_TIMEOUT_S}s")
            time.sleep(PROBE_INTERVAL_S)

    def pids(self) -> List[int]:
        return process_tree(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever is left of
        the process group, and wait for the root."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            # Orphaned members of the group are reaped by init; wait for
            # the group to be empty so no process outlives the run.
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while time.monotonic() < deadline:
                try:
                    os.killpg(self.proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(PROBE_INTERVAL_S)
        finally:
            self._log.close()
