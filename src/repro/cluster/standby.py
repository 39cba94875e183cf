"""Warm-standby coordinator: tail the state dir, take over on lease loss.

A standby is a second coordinator process pointed at the *same*
``--state-dir`` as the active.  It never binds its serving port while
the active's :class:`~repro.cluster.membership.CoordinatorLease` is
live; it just polls the lease file (and, implicitly, the membership
log — both live in the state dir) at the lease renew cadence.  When the
lease goes stale by more than the lease window — the active crashed, or
was partitioned from its own disk, which for a single-host state dir
means it is gone — the standby **promotes**: it reconstructs the ring
from the membership log at the recorded generation, binds its port,
claims the lease under its own name, and starts serving.

Promotion is safe without consensus because the data plane is
stateless-pure: every analysis is a deterministic function of its
request, the result cache is content-addressed, and clients retry with
idempotency keys.  The worst a zombie active can do after a false
takeover is serve a few more *correct* responses while its lease
renewals and the standby's fight over the file — last-writer-wins, and
both answer identically.

Clients fail over by construction: :class:`repro.service.client.
ServiceClient` accepts a coordinator list and rotates to the standby's
address when the active stops answering, re-issuing in-flight requests
under their original idempotency keys.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.service.http import loop_thread
from repro.cluster.membership import (
    DEFAULT_LEASE_S,
    CoordinatorLease,
    MembershipLog,
)

__all__ = ["StandbyCoordinator", "StandbyHandle"]


class StandbyCoordinator:
    """Poll the active's lease; promote to a serving coordinator on loss.

    Args:
        state_dir: The active coordinator's ``--state-dir`` (must hold
            its membership log; the lease file may not exist yet).
        host: Address to bind *after* promotion.
        port: Port to bind after promotion (0 = ephemeral).  Publish
            this to clients as their failover address up front.
        poll_interval_s: Lease poll cadence; defaults to a third of the
            lease window, matching the active's renew cadence.
        config_kwargs: Extra :class:`ClusterConfig` fields the promoted
            coordinator should use (``vnodes`` must match the active's
            or placement shifts on takeover).
    """

    def __init__(
        self,
        state_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval_s: Optional[float] = None,
        **config_kwargs: Any,
    ) -> None:
        self.state_dir = state_dir
        self.host = host
        self.port = port
        self.config_kwargs = dict(config_kwargs)
        lease_s = float(
            self.config_kwargs.pop("lease_s", DEFAULT_LEASE_S)
        )
        self.lease_s = lease_s
        self.poll_interval_s = (
            poll_interval_s if poll_interval_s else lease_s / 3.0
        )
        #: Read-only view of the active's lease (owner name is never
        #: written under this object — promotion claims it through the
        #: promoted coordinator's own lease loop).
        self.lease = CoordinatorLease(
            state_dir, owner=f"standby:{host}:{port}", lease_s=lease_s
        )
        self.log = MembershipLog(state_dir)
        # Validate tunables eagerly: a misconfigured standby must fail
        # at launch, not at the moment of takeover.
        ClusterConfig(
            host=host,
            port=0,
            workers=(),
            state_dir=state_dir,
            lease_s=lease_s,
            **self.config_kwargs,
        )
        self.coordinator: Optional[ClusterCoordinator] = None
        self.took_over = False
        self._stop = asyncio.Event()

    # -- watch / promote -------------------------------------------------

    async def watch(self) -> bool:
        """Block until promotion (True) or :meth:`stop` (False).

        The standby requires at least one membership record before it
        will promote — an empty log means the active never booted, and
        promoting to a zero-worker ring would serve nothing but errors.
        """
        while not self._stop.is_set():
            if self.lease.is_expired() and self.log.latest() is not None:
                await self.promote()
                return True
            try:
                await asyncio.wait_for(
                    self._stop.wait(), timeout=self.poll_interval_s
                )
            except asyncio.TimeoutError:
                pass
        return False

    async def promote(self) -> ClusterCoordinator:
        """Reconstruct the ring from the log and start serving."""
        latest = self.log.latest()
        if latest is None:
            raise RuntimeError(
                "standby cannot promote: membership log is empty"
            )
        config = ClusterConfig(
            host=self.host,
            port=self.port,
            workers=(),
            state_dir=self.state_dir,
            lease_s=self.lease_s,
            **self.config_kwargs,
        )
        self.coordinator = ClusterCoordinator(config)
        await self.coordinator.start()
        self.took_over = True
        return self.coordinator

    async def run(self) -> None:
        """Watch, promote, then serve until the coordinator stops."""
        promoted = await self.watch()
        if promoted and self.coordinator is not None:
            await self.coordinator.wait_stopped()

    def stop_watching(self) -> None:
        """Cancel the watch loop (no effect after promotion)."""
        self._stop.set()

    def status(self) -> Dict[str, Any]:
        latest = self.log.latest()
        return {
            "took_over": self.took_over,
            "lease": self.lease.read(),
            "lease_expired": self.lease.is_expired(),
            "log_generation": None if latest is None else latest.generation,
            "port": None if self.coordinator is None else self.coordinator.port,
        }


class StandbyHandle:
    """A :class:`StandbyCoordinator` on a daemon thread (tests, tools)."""

    def __init__(self, standby, loop, thread) -> None:
        self.standby = standby
        self._loop = loop
        self._thread = thread

    @classmethod
    def start(
        cls,
        state_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs: Any,
    ) -> "StandbyHandle":
        standby = StandbyCoordinator(state_dir, host=host, port=port, **kwargs)
        loop, thread = loop_thread(standby.run, "repro-standby")
        return cls(standby, loop, thread)

    @property
    def took_over(self) -> bool:
        return self.standby.took_over

    @property
    def port(self) -> Optional[int]:
        coordinator = self.standby.coordinator
        return None if coordinator is None else coordinator.port

    def wait_promoted(self, timeout_s: float = 30.0) -> bool:
        """Block until the standby is serving (or *timeout_s* passes)."""
        import time

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.took_over and self.port is not None:
                return True
            time.sleep(0.02)
        return False

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> bool:
        """Stop watching, or drain the promoted coordinator."""
        standby = self.standby
        if standby.coordinator is not None:
            future = asyncio.run_coroutine_threadsafe(
                standby.coordinator.shutdown(drain=drain), self._loop
            )
            clean = bool(future.result(timeout=timeout))
        else:
            self._loop.call_soon_threadsafe(standby.stop_watching)
            clean = True
        self._thread.join(timeout=timeout)
        return clean
