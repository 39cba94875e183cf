"""Worker-to-worker cache transport: pull, verify, install.

A planned cluster resize (:mod:`repro.cluster.coordinator` admin
endpoints) re-homes the result-cache entries whose ring owner changes,
so the fleet's warm hit rate survives membership churn instead of
cold-starting.  The transfer protocol is deliberately minimal and
*pull-based*: the **destination** worker asks the source for each blob
it is about to own, verifies a SHA-256 over the raw bytes against the
digest the source advertised, and only then installs it through
:func:`repro.parallel.cache.write_entry` (which additionally insists
the blob unpickles).  The coordinator never holds entry bytes; it only
orchestrates who pulls what from whom.

Failure surface (all typed, never silent):

* A torn transfer — including the injected
  ``cluster.migration_torn_write`` chaos site — fails digest
  verification and is retried with a fresh attempt key; persistent
  mismatches are *skipped* and counted, never installed.
* An unreachable peer aborts the pull with the keys it did manage,
  so the coordinator can account for partial migration (the entries
  left behind simply miss once and recompute — the cache is an
  accelerator, never a correctness dependency).

Transfers are rate-limited by a token-bucket sleep on received bytes
(``rate_bytes_per_s``) so a resize cannot starve live analysis traffic
of disk/network bandwidth.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel import cache
from repro.resilience import chaos
from repro.service import http

__all__ = [
    "parse_key_listing",
    "fetch_entry",
    "pull_entries",
    "TransportError",
]

#: Attempts per entry before the pull gives up and skips it.
FETCH_ATTEMPTS = 3
#: Socket timeout for one peer exchange (seconds).
DEFAULT_TIMEOUT_S = 30.0


class TransportError(Exception):
    """A peer exchange failed (connection, protocol, or HTTP error)."""


def parse_key_listing(doc) -> List[Tuple[str, int, Optional[str]]]:
    """The ``(key, bytes, placement)`` rows of a ``/v1/cache/keys`` doc.

    *placement* is the routing key the entry was written under (see
    :func:`repro.parallel.cache.placement_scope`), or None for entries
    written outside any request scope.

    Raises:
        ValueError: when *doc* is not a well-formed listing.
    """
    out: List[Tuple[str, int, Optional[str]]] = []
    try:
        for row in doc["keys"]:
            tag = row[2] if len(row) > 2 else None
            out.append((str(row[0]), int(row[1]), tag and str(tag)))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"a malformed key listing: {exc}") from exc
    return out


def fetch_entry(
    host: str,
    port: int,
    key: str,
    timeout: float = DEFAULT_TIMEOUT_S,
    attempt: int = 0,
) -> Optional[Tuple[bytes, Optional[str]]]:
    """One digest-verified blob fetch; None when the peer lacks the key.

    Returns the raw blob plus the placement tag the source advertised
    (``X-Repro-Placement``), so the installed copy stays re-homeable.

    Raises:
        TransportError: on connection failures or digest mismatch (the
            caller retries with a fresh *attempt*, which re-draws any
            injected torn write).
    """
    path = f"/v1/cache/entry/{key}"
    try:
        status, headers, body = http.fetch(
            host, port, "GET", path, timeout=timeout
        )
    except OSError as exc:
        raise TransportError(f"peer {host}:{port}{path}: {exc}") from exc
    if status == 404:
        return None
    if status != 200:
        raise TransportError(
            f"peer {host}:{port} entry {key[:12]}…: HTTP {status}"
        )
    if chaos.should_fire("cluster.migration_torn_write", (key, attempt)):
        body = body[: len(body) // 2]
    want = headers.get("x-repro-blob-sha256")
    if not want or cache.blob_digest(body) != want:
        raise TransportError(
            f"peer {host}:{port} entry {key[:12]}…: digest mismatch "
            "(torn transfer)"
        )
    return body, headers.get("x-repro-placement")


def pull_entries(
    host: str,
    port: int,
    keys: Sequence[str],
    rate_bytes_per_s: Optional[float] = None,
    timeout: float = DEFAULT_TIMEOUT_S,
) -> Dict[str, object]:
    """Pull *keys* from a peer, verify, install; return an accounting.

    Every entry is fetched with up to :data:`FETCH_ATTEMPTS` attempts
    (digest mismatches re-draw), verified, and installed locally.  The
    returned summary is the coordinator's migration record::

        {"pulled": 7, "missing": 0, "failed": 1, "bytes": 31337,
         "torn_retries": 2, "errors": ["…"]}

    ``failed`` counts entries that never verified or installed; they are
    left behind on the source and will simply miss once.  An unreachable
    peer stops the pull early — the summary still reflects what landed.
    """
    pulled = missing = failed = torn = 0
    total_bytes = 0
    errors: List[str] = []
    window_start = time.monotonic()
    window_bytes = 0
    for index, key in enumerate(keys):
        blob: Optional[bytes] = None
        placement: Optional[str] = None
        fetched = False
        last_error: Optional[str] = None
        for attempt in range(FETCH_ATTEMPTS):
            try:
                got = fetch_entry(host, port, key, timeout, attempt)
                if got is not None:
                    blob, placement = got
                fetched = True
                break
            except TransportError as exc:
                last_error = str(exc)
                if "digest mismatch" in last_error:
                    torn += 1
                    continue
                # Connection-level failure: the peer is gone; stop.
                errors.append(last_error)
                return {
                    "pulled": pulled,
                    "missing": missing,
                    "failed": failed + (len(keys) - index),
                    "bytes": total_bytes,
                    "torn_retries": torn,
                    "errors": errors[:8],
                }
        if blob is None and fetched:
            missing += 1
            continue
        if blob is None or not cache.write_entry(key, blob, placement):
            failed += 1
            if last_error:
                errors.append(last_error)
            continue
        pulled += 1
        total_bytes += len(blob)
        if rate_bytes_per_s and rate_bytes_per_s > 0:
            window_bytes += len(blob)
            owed = window_bytes / rate_bytes_per_s
            elapsed = time.monotonic() - window_start
            if owed > elapsed:
                time.sleep(min(owed - elapsed, 5.0))
    return {
        "pulled": pulled,
        "missing": missing,
        "failed": failed,
        "bytes": total_bytes,
        "torn_retries": torn,
        "errors": errors[:8],
    }
