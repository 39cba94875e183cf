"""Fleet management: worker processes, in-process handles, the CLI.

Three ways to stand a cluster up:

* :class:`ClusterHandle` with ``worker_mode="thread"`` — workers are
  in-process :class:`~repro.service.server.ServerHandle` servers on
  daemon threads.  Cheap and instant, used by the unit tests; the
  workers share one process-global result cache, which changes nothing
  about routing (placement is observable through ``X-Repro-Worker``)
  but does not exercise cache *partitioning*;
* :class:`ClusterHandle` with ``worker_mode="process"`` — each worker
  is a real ``repro serve`` subprocess with its own cache directory and
  byte cap, the deployment shape the benchmark and the CI smoke job
  measure;
* ``repro cluster`` (:func:`cluster_main`) — the foreground CLI:
  spawns N local workers (or fronts already-running ones given
  ``--worker host:port``), boots the coordinator, and drains the whole
  fleet on ``SIGTERM``/``SIGINT`` — coordinator first (so no new work
  lands), then every spawned worker.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.service import http
from repro.service.server import ServerHandle, ServiceConfig

__all__ = ["WorkerProcess", "ClusterHandle", "cluster_main"]

_BOOT_LINE = re.compile(r"listening on [\w.\-]+:(\d+)")


class WorkerProcess:
    """One ``repro serve`` subprocess with parsed boot state."""

    def __init__(
        self, process: subprocess.Popen, host: str, port: int
    ) -> None:
        self.process = process
        self.host = host
        self.port = port

    @classmethod
    def spawn(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
        jobs: Optional[str] = None,
        extra_args: Sequence[str] = (),
        env: Optional[Dict[str, str]] = None,
        boot_timeout_s: float = 30.0,
    ) -> "WorkerProcess":
        """Start a worker and wait for its boot line (→ bound port)."""
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", host, "--port", str(port),
        ]
        if cache_dir:
            cmd += ["--cache-dir", cache_dir]
        if jobs:
            cmd += ["--jobs", str(jobs)]
        cmd += list(extra_args)
        child_env = dict(os.environ)
        if env:
            child_env.update(env)
        if cache_max_bytes is not None:
            child_env["REPRO_CACHE_MAX_BYTES"] = str(cache_max_bytes)
        process = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=child_env,
        )
        deadline = time.monotonic() + boot_timeout_s
        assert process.stdout is not None
        while True:
            if time.monotonic() > deadline:
                process.kill()
                raise RuntimeError(
                    f"worker did not print its boot line in "
                    f"{boot_timeout_s}s"
                )
            line = process.stdout.readline()
            if not line:
                process.wait()
                raise RuntimeError(
                    f"worker exited before booting (rc={process.returncode})"
                )
            match = _BOOT_LINE.search(line)
            if match:
                return cls(process, host, int(match.group(1)))

    def terminate(self, timeout_s: float = 30.0) -> int:
        """SIGTERM (graceful drain) and wait; SIGKILL past *timeout_s*."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode

    def kill(self) -> None:
        """SIGKILL immediately — the chaos tests' mid-batch crash."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


class ClusterHandle:
    """A coordinator + worker fleet running under one handle.

    Built by :meth:`start`; :meth:`shutdown` tears everything down in
    reverse order (coordinator drain first, then workers).
    """

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        loop,
        thread,
        worker_handles: List[ServerHandle],
        worker_processes: List[WorkerProcess],
    ) -> None:
        self.coordinator = coordinator
        self._loop = loop
        self._thread = thread
        self.worker_handles = worker_handles
        self.worker_processes = worker_processes
        self._killed: set = set()

    @property
    def host(self) -> str:
        return self.coordinator.config.host

    @property
    def port(self) -> int:
        assert self.coordinator.port is not None
        return self.coordinator.port

    @property
    def worker_ports(self) -> Tuple[int, ...]:
        return tuple(
            port for _host, port in self.coordinator.config.workers
        )

    @classmethod
    def start(
        cls,
        n_workers: int = 2,
        worker_mode: str = "thread",
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Sequence[Tuple[str, int]] = (),
        worker_config: Optional[ServiceConfig] = None,
        worker_kwargs: Optional[Dict[str, object]] = None,
        **config_kwargs,
    ) -> "ClusterHandle":
        """Boot *n_workers* workers plus a coordinator fronting them.

        Args:
            n_workers: Fleet size (ignored when *workers* is given).
            worker_mode: ``"thread"`` (in-process ServerHandles) or
                ``"process"`` (``repro serve`` subprocesses).
            workers: Pre-existing ``(host, port)`` endpoints to front
                instead of spawning anything.
            worker_config: Thread-mode per-worker ServiceConfig
                template (its ``port`` is forced to 0).
            worker_kwargs: Process-mode keyword arguments forwarded to
                :meth:`WorkerProcess.spawn`; a ``cache_dir`` value is
                treated as a base directory with one subdirectory per
                worker, giving true cache partitioning.
            config_kwargs: Extra :class:`ClusterConfig` fields
                (``vnodes``, ``probe_interval_s``, ...).
        """
        worker_handles: List[ServerHandle] = []
        worker_processes: List[WorkerProcess] = []
        endpoints: List[Tuple[str, int]] = list(workers)
        try:
            if not endpoints:
                if worker_mode == "thread":
                    for _ in range(n_workers):
                        template = worker_config or ServiceConfig()
                        config = ServiceConfig(**{
                            **template.__dict__, "port": 0,
                        })
                        handle = ServerHandle.start(config)
                        worker_handles.append(handle)
                        endpoints.append((handle.host, handle.port))
                elif worker_mode == "process":
                    kwargs = dict(worker_kwargs or {})
                    base_cache = kwargs.pop("cache_dir", None)
                    for index in range(n_workers):
                        per_worker = dict(kwargs)
                        if base_cache is not None:
                            per_worker["cache_dir"] = os.path.join(
                                str(base_cache), f"w{index}"
                            )
                        proc = WorkerProcess.spawn(**per_worker)
                        worker_processes.append(proc)
                        endpoints.append((proc.host, proc.port))
                else:
                    raise ValueError(
                        f"worker_mode must be 'thread' or 'process', "
                        f"not {worker_mode!r}"
                    )

            config = ClusterConfig(
                host=host,
                port=port,
                workers=tuple(endpoints),
                **config_kwargs,
            )
            coordinator = ClusterCoordinator(config)
            loop, thread = http.start_in_thread(coordinator, "repro-cluster")
        except BaseException:
            for handle in worker_handles:
                try:
                    handle.shutdown(drain=False, timeout=5)
                except Exception:  # noqa: BLE001
                    pass
            for proc in worker_processes:
                proc.kill()
            raise
        return cls(
            coordinator, loop, thread, worker_handles, worker_processes
        )

    # -- resize / failover admin -----------------------------------------

    def _admin(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        status, _headers, reply = http.fetch(
            self.host, self.port, method, path, payload, timeout=120
        )
        doc = json.loads(reply.decode("utf-8"))
        if status != 200:
            raise RuntimeError(f"{path} returned HTTP {status}: {doc}")
        return doc

    def spawn_worker(self, **spawn_kwargs: Any) -> WorkerProcess:
        """Spawn one more ``repro serve`` subprocess (not yet a member)."""
        proc = WorkerProcess.spawn(**spawn_kwargs)
        self.worker_processes.append(proc)
        return proc

    def add_worker(
        self,
        host: str,
        port: int,
        migrate: bool = True,
        rate_bytes_per_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Planned resize: migrate owned entries, then join the ring."""
        body: Dict[str, Any] = {
            "worker": f"{host}:{port}", "migrate": migrate,
        }
        if rate_bytes_per_s is not None:
            body["rate_bytes_per_s"] = rate_bytes_per_s
        return self._admin("POST", "/admin/add-worker", body)

    def remove_worker(
        self, target: str, migrate: bool = True
    ) -> Dict[str, Any]:
        """Planned removal: re-home entries, then drop from the ring."""
        return self._admin(
            "POST", "/admin/remove-worker",
            {"worker": target, "migrate": migrate},
        )

    def membership(self) -> Dict[str, Any]:
        return self._admin("GET", "/admin/membership")

    def kill_coordinator(self, timeout: float = 10.0) -> None:
        """Simulate a coordinator crash (failover tests).

        No drain, no lease release — a co-located standby only observes
        the lease expiring, exactly as after a real process death.  The
        workers keep running and keep their caches warm.
        """
        future = asyncio.run_coroutine_threadsafe(
            self.coordinator.crash(), self._loop
        )
        future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def kill_worker(self, index: int) -> None:
        """Hard-kill worker *index* (chaos tests).

        Thread-mode workers stop without draining; process-mode workers
        get SIGKILL.  The coordinator notices through its probes or the
        next proxy failure.
        """
        if self.worker_processes:
            self.worker_processes[index].kill()
        elif self.worker_handles:
            if index not in self._killed:
                self._killed.add(index)
                self.worker_handles[index].shutdown(drain=False, timeout=5)
        else:
            raise IndexError("this handle spawned no workers")

    def shutdown(
        self, drain: bool = True, timeout: float = 60.0
    ) -> bool:
        """Coordinator drain first, then every spawned worker."""
        clean = True
        if not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self.coordinator.shutdown(drain=drain), self._loop
            )
            try:
                clean = future.result(timeout=timeout)
            except RuntimeError:  # loop died under us (crashed coordinator)
                clean = False
        self._thread.join(timeout=timeout)
        for index, handle in enumerate(self.worker_handles):
            if index in self._killed:
                continue
            try:
                clean = handle.shutdown(drain=drain, timeout=timeout) and clean
            except Exception:  # noqa: BLE001
                clean = False
        for proc in self.worker_processes:
            rc = proc.terminate(timeout_s=timeout if drain else 1.0)
            clean = clean and rc == 0
        return clean


def cluster_main(argv: Optional[List[str]] = None) -> int:
    """``repro cluster``: front a worker fleet in the foreground."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description=(
            "Coordinate repro serve workers behind cache-aware "
            "consistent-hash routing"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8178, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="local worker subprocesses to spawn",
    )
    parser.add_argument(
        "--worker", action="append", default=[], metavar="HOST:PORT",
        help=(
            "front an already-running worker instead of spawning "
            "(repeatable; disables --workers)"
        ),
    )
    parser.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per worker on the hash ring",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="base cache directory (one subdirectory per spawned worker)",
    )
    parser.add_argument(
        "--jobs", metavar="N", help="plane workers inside each worker",
    )
    parser.add_argument(
        "--max-queue", type=int,
        help="fleet-wide admission cap (default: 256 per worker)",
    )
    parser.add_argument(
        "--probe-interval-s", type=float, default=1.0,
        help="seconds between worker health probes",
    )
    parser.add_argument(
        "--probe-timeout-s", type=float, default=None,
        help="health probe timeout (seconds)",
    )
    parser.add_argument(
        "--probe-failures", type=int, default=None,
        help="consecutive probe failures before ejecting a worker",
    )
    parser.add_argument(
        "--retry-next-owner", type=int, default=None,
        help="further ring owners to try when the primary is down",
    )
    parser.add_argument(
        "--request-timeout-s", type=float, default=None,
        help="per-request proxy timeout (seconds)",
    )
    parser.add_argument(
        "--drain-grace-s", type=float, default=30.0,
        help="longest wait for in-flight work on SIGTERM",
    )
    parser.add_argument(
        "--state-dir", metavar="DIR",
        help=(
            "durable state directory (membership log + coordinator "
            "lease); restarts recover the ring at the same generation"
        ),
    )
    parser.add_argument(
        "--lease-s", type=float, default=None,
        help="coordinator lease window (standby takes over past this)",
    )
    parser.add_argument(
        "--standby", action="store_true",
        help=(
            "run as a warm standby: watch the active's lease in "
            "--state-dir and take over when it lapses (spawns no "
            "workers; membership comes from the log)"
        ),
    )
    args = parser.parse_args(argv)

    tunables = {
        name: value
        for name, value in {
            "probe_timeout_s": args.probe_timeout_s,
            "probe_failures": args.probe_failures,
            "retry_next_owner": args.retry_next_owner,
            "request_timeout_s": args.request_timeout_s,
            "lease_s": args.lease_s,
        }.items()
        if value is not None
    }

    if args.standby:
        if not args.state_dir:
            parser.error("--standby requires --state-dir")
        return _standby_main(parser, args, tunables)

    spawned: List[WorkerProcess] = []
    endpoints: List[Tuple[str, int]] = []
    for spec in args.worker:
        host, _, port = spec.rpartition(":")
        if not host or not port.isdigit():
            parser.error(f"--worker expects HOST:PORT, got {spec!r}")
        endpoints.append((host, int(port)))
    if not endpoints:
        for index in range(args.workers):
            cache_dir = (
                os.path.join(args.cache_dir, f"w{index}")
                if args.cache_dir
                else None
            )
            spawned.append(
                WorkerProcess.spawn(
                    cache_dir=cache_dir,
                    jobs=args.jobs,
                )
            )
        endpoints = [(proc.host, proc.port) for proc in spawned]

    try:
        config = ClusterConfig(
            host=args.host,
            port=args.port,
            workers=tuple(endpoints),
            vnodes=args.vnodes,
            max_queue=args.max_queue,
            probe_interval_s=args.probe_interval_s,
            drain_grace_s=args.drain_grace_s,
            state_dir=args.state_dir,
            **tunables,
        )
    except ValueError as exc:
        for proc in spawned:
            proc.kill()
        parser.error(str(exc))

    async def _main() -> int:
        coordinator = ClusterCoordinator(config)
        await coordinator.start()
        print(
            f"repro cluster: listening on {config.host}:{coordinator.port} "
            f"(workers={len(endpoints)} vnodes={config.vnodes} "
            f"queue={coordinator.admission.max_queue} "
            f"spawned={len(spawned)})",
            flush=True,
        )
        coordinator.drain_on_signals()
        await coordinator.wait_stopped()
        return 0

    try:
        code = asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        code = 0
    finally:
        for proc in spawned:
            proc.terminate(timeout_s=args.drain_grace_s)
    print("repro cluster: fleet drained and stopped", flush=True)
    return code


def _standby_main(parser, args, tunables: Dict[str, Any]) -> int:
    """``repro cluster --standby``: watch the lease, promote on expiry."""
    from repro.cluster.standby import StandbyCoordinator

    try:
        standby = StandbyCoordinator(
            args.state_dir,
            host=args.host,
            port=args.port,
            vnodes=args.vnodes,
            max_queue=args.max_queue,
            probe_interval_s=args.probe_interval_s,
            drain_grace_s=args.drain_grace_s,
            **tunables,
        )
    except ValueError as exc:
        parser.error(str(exc))

    async def _main() -> int:
        def _on_signal() -> None:
            if standby.coordinator is not None:
                asyncio.ensure_future(standby.coordinator.shutdown())
            else:
                standby.stop_watching()

        http.on_signals(_on_signal)
        print(
            f"repro cluster: standby watching {args.state_dir} "
            f"(lease window {standby.lease_s:g}s)",
            flush=True,
        )
        promoted = await standby.watch()
        if not promoted:
            print("repro cluster: standby stopped without promoting",
                  flush=True)
            return 0
        coordinator = standby.coordinator
        assert coordinator is not None
        print(
            f"repro cluster: standby promoted, listening on "
            f"{args.host}:{coordinator.port} "
            f"(generation={coordinator.ring.generation} "
            f"workers={len(coordinator.workers)})",
            flush=True,
        )
        await coordinator.wait_stopped()
        print("repro cluster: fleet drained and stopped", flush=True)
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(cluster_main())
