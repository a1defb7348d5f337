"""Revocation messages: the control plane's reaction to failures, as traffic.

Before this module existed, the dynamic-scenario engine modelled the
post-failure revocation flood as an instantaneous counter bump: every AS's
databases were purged at the failure timestamp and one notification per AS
was added to the overhead counters.  That made convergence metrics blind to
the quantity the measurement literature on routing events actually studies
— how withdrawal *messages* spread through the topology over time.

A :class:`RevocationMessage` is a first-class control-plane message:

* it names one or more failed elements (inter-domain links and/or
  departed ASes),
* it is originated by an AS adjacent to the failure, carries a per-origin
  **sequence number**, and is **signed** by its origin exactly like a
  beacon entry (receivers verify when signature checking is enabled),
* it propagates **hop by hop** through the same transport as PCBs, paying
  per-hop latency (link propagation + processing delay), and
* every receiving control service deduplicates it by ``(origin_as,
  sequence)`` within a configurable window, withdraws matching ingress /
  path-service state through the existing ``invalidate_link`` /
  ``invalidate_as`` machinery, records the withdrawal timestamp, and
  re-forwards the message on every other interface.

The flood therefore reaches ASes in propagation order: nearby ASes
withdraw state before distant ones, partitioned ASes never hear about the
failure at all (their stale state ages out via expiry), and a revocation
whose next hop is itself unavailable is lost in flight — all of which the
old counter model could not express.

The handler logic lives here as module-level functions operating on a
duck-typed control service (anything exposing ``as_id``, ``view``,
``transport``, ``revocations``, ``builder.signer``, ``ingress.verifier``,
``ingress.verify_signatures``, ``invalidate_link``, ``invalidate_as`` and
an optional ``on_withdrawal`` callback), so the IREC and the legacy SCION
control service share one implementation.

Since the unified message fabric (:mod:`repro.core.messages`) the
:class:`RevocationMessage` class itself lives there — a revocation is one
typed control message among others, sharing the common envelope — and
gained batching (several failed elements in one message), TTL and scope
limiting.  This module keeps the per-service state and handler logic;
import the message class from :mod:`repro.core.messages`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.messages import RevocationMessage
from repro.exceptions import SignatureError
from repro.topology.entities import LinkID

__all__ = [
    "DEFAULT_DEDUP_WINDOW_MS",
    "RevocationState",
    "bounce_if_revoked",
    "handle_revocation",
    "originate_revocation",
]

#: Default dedup window: how long a control service remembers a revocation
#: it has already processed.  One simulated hour comfortably covers any
#: realistic flood (per-hop latencies are milliseconds) while bounding the
#: memory of long simulations; a replay arriving after the window is
#: re-applied, which is harmless because withdrawal is idempotent.
DEFAULT_DEDUP_WINDOW_MS = 60.0 * 60.0 * 1000.0


@dataclass
class RevocationState:
    """Per-control-service revocation bookkeeping.

    Attributes:
        dedup_window_ms: How long a processed ``(origin, sequence)`` key is
            remembered; duplicates inside the window are dropped without
            re-applying or re-forwarding.  Entries are pruned lazily in
            first-seen order, so the memory cost is bounded by the number
            of distinct revocations inside one window.
        applied_at: First time each accepted revocation's withdrawal was
            applied locally — the per-AS withdrawal timestamps that make
            propagation-ordered convergence measurable.
        revoked_links: Negative cache: link → (applied revocation message,
            applied-at time).  Consulted when a beacon arrives over a
            recently revoked element (see :func:`bounce_if_revoked`);
            cleared by the driver when the element recovers.
        revoked_ases: Negative cache for departed ASes, same shape.
        suppress_forwarding: Byzantine knob (PR 7): a suppressing service
            still receives, verifies and applies revocations — it just
            never re-forwards them, silently swallowing floods it should
            relay.  Its own originations still go out (suppression models
            a free-rider, not a mute).
    """

    dedup_window_ms: float = DEFAULT_DEDUP_WINDOW_MS
    suppress_forwarding: bool = False
    #: (origin, sequence) → first-seen time, insertion-ordered for pruning.
    _seen: Dict[Tuple[int, int], float] = field(default_factory=dict)
    applied_at: Dict[Tuple[int, int], float] = field(default_factory=dict)
    revoked_links: Dict[LinkID, Tuple[RevocationMessage, float]] = field(
        default_factory=dict
    )
    revoked_ases: Dict[int, Tuple[RevocationMessage, float]] = field(
        default_factory=dict
    )
    _sequence: "itertools.count" = field(default_factory=lambda: itertools.count(1))
    received: int = 0
    duplicates: int = 0
    originated: int = 0
    forwarded: int = 0
    rejected_invalid: int = 0
    #: Copies dropped because they exceeded their TTL (stale withdrawals).
    rejected_stale: int = 0
    #: Revocations re-originated by the negative cache (beacon bounces).
    reoriginated: int = 0

    def next_sequence(self) -> int:
        """Return the next origination sequence number of this service."""
        return next(self._sequence)

    def is_duplicate(self, key: Tuple[int, int], now_ms: float) -> bool:
        """Return whether ``key`` was already processed inside the window.

        O(1) on the flood fast path: the hit checks the stored first-seen
        timestamp directly; bulk pruning only runs once the seen-set grows
        past a threshold, so memory stays bounded without paying an
        iteration per message.
        """
        seen_at = self._seen.get(key)
        if seen_at is None:
            return False
        if now_ms - seen_at > self.dedup_window_ms:
            del self._seen[key]
            return False
        return True

    def mark_seen(self, key: Tuple[int, int], now_ms: float) -> None:
        """Remember ``key`` so later copies inside the window are duplicates."""
        self._seen.setdefault(key, now_ms)
        if len(self._seen) > 4096:
            self._prune(now_ms)

    def record_applied(self, key: Tuple[int, int], now_ms: float) -> None:
        """Record when the withdrawal for ``key`` was first applied locally."""
        self.applied_at.setdefault(key, now_ms)

    def applied_from(self, origin_as: int) -> List[float]:
        """Return the local withdrawal times of revocations from ``origin_as``."""
        return [
            at_ms for (origin, _seq), at_ms in self.applied_at.items() if origin == origin_as
        ]

    def cache_revoked_elements(self, message: RevocationMessage, now_ms: float) -> None:
        """Remember the message's revoked elements for beacon bouncing."""
        for link in message.failed_links:
            self.revoked_links[link] = (message, now_ms)
        for gone_as in message.failed_ases:
            self.revoked_ases[gone_as] = (message, now_ms)

    def clear_revoked_link(self, link_id: LinkID) -> None:
        """Forget a revoked link (the driver saw it recover)."""
        self.revoked_links.pop(link_id, None)

    def clear_revoked_as(self, as_id: int) -> None:
        """Forget a departed AS (the driver saw it rejoin)."""
        self.revoked_ases.pop(as_id, None)

    def revoked_recently(
        self, links, ases, now_ms: float
    ) -> Optional[RevocationMessage]:
        """Return the cached revocation covering any given element, if fresh.

        Checks the beacon's links and AS path against the negative caches;
        stale entries are expired lazily.  An entry is stale once *either*
        its cache stamp or the cached message's own ``created_at_ms`` falls
        outside the dedup window: each bounce makes the receiver re-apply
        and re-cache the message with a fresh stamp, so without the
        message-age bound a pair of caches could keep refreshing each other
        and bounce beacons over a long-recovered element forever.  Returns
        the first fresh match (the message to re-originate) or ``None``.
        """
        window = self.dedup_window_ms
        revoked_links = self.revoked_links
        if revoked_links:
            for link in links:
                cached = revoked_links.get(link)
                if cached is None:
                    continue
                if (
                    now_ms - cached[1] > window
                    or now_ms - cached[0].created_at_ms > window
                ):
                    del revoked_links[link]
                    continue
                return cached[0]
        revoked_ases = self.revoked_ases
        if revoked_ases:
            for as_id in ases:
                cached = revoked_ases.get(as_id)
                if cached is None:
                    continue
                if (
                    now_ms - cached[1] > window
                    or now_ms - cached[0].created_at_ms > window
                ):
                    del revoked_ases[as_id]
                    continue
                return cached[0]
        return None

    def _prune(self, now_ms: float) -> None:
        # _seen is insertion-ordered by first-seen time and first-seen
        # times never decrease, so expired entries form a prefix.
        horizon = now_ms - self.dedup_window_ms
        while self._seen:
            key = next(iter(self._seen))
            if self._seen[key] >= horizon:
                break
            del self._seen[key]


def _apply(service, message: RevocationMessage, now_ms: float) -> Tuple[int, int]:
    """Withdraw every revoked element's state locally; notify the listener.

    A batched message withdraws all of its elements in one pass; the
    returned counts (and the listener notification) cover the union.
    """
    ingress_removed = 0
    paths_removed = 0
    for link in message.failed_links:
        link_ingress, link_paths = service.invalidate_link(link)
        ingress_removed += link_ingress
        paths_removed += link_paths
    for gone_as in message.failed_ases:
        as_ingress, as_paths = service.invalidate_as(gone_as)
        ingress_removed += as_ingress
        paths_removed += as_paths
    removed = (ingress_removed, paths_removed)
    service.revocations.record_applied(message.key, now_ms)
    service.revocations.cache_revoked_elements(message, now_ms)
    callback = getattr(service, "on_withdrawal", None)
    if callback is not None:
        callback(message, removed, now_ms)
    return removed


def _forward(
    service, message: RevocationMessage, arrival_interface: Optional[int]
) -> int:
    """Re-send ``message`` on every eligible interface; return the count.

    A service never transmits a revocation into an element it revokes: an
    endpoint of a failed link knows that port is dead, and a neighbour of
    a departed AS knows the AS is gone.  Other unavailable links are *not*
    locally known — sends over them are attempted and dropped in flight by
    the transport, which is exactly the "revocations crossing a failed
    link are lost" semantics.  The element sets and transport entry point
    are hoisted out of the per-interface loop: forwarding runs once per
    fresh message at every AS, making this the flood's hottest loop.
    """
    sent = 0
    view = service.view
    failed_links = message.failed_link_set
    failed_ases = message.failed_as_set
    send = service.transport.send_message
    as_id = service.as_id
    for interface_id in view.interface_ids():
        if interface_id == arrival_interface:
            continue
        if view.link_of(interface_id).key in failed_links:
            continue
        if failed_ases and view.neighbor_of(interface_id)[0] in failed_ases:
            continue
        send(as_id, interface_id, message)
        sent += 1
    service.revocations.forwarded += sent
    return sent


def originate_revocation(
    service,
    now_ms: float,
    failed_link: Optional[LinkID] = None,
    failed_as: Optional[int] = None,
    failed_links: Tuple[LinkID, ...] = (),
    failed_ases: Tuple[int, ...] = (),
    ttl_ms: Optional[float] = None,
    max_hops: Optional[int] = None,
) -> RevocationMessage:
    """Originate, locally apply and flood one revocation from ``service``.

    Called by the beaconing driver on the ASes adjacent to a failure (the
    endpoints of a failed link; the neighbours of a departed AS).  The
    origin withdraws its own state immediately — it detected the failure —
    and the message starts its hop-by-hop journey to everyone else.

    Several simultaneously failed elements batch into one message via
    ``failed_links`` / ``failed_ases`` (one flood instead of one per
    element); ``ttl_ms`` and ``max_hops`` bound the message's lifetime and
    propagation radius (see :class:`RevocationMessage`).
    """
    state: RevocationState = service.revocations
    message = RevocationMessage(
        origin_as=service.as_id,
        sequence=state.next_sequence(),
        created_at_ms=now_ms,
        failed_link=failed_link,
        failed_as=failed_as,
        failed_links=tuple(failed_links),
        failed_ases=tuple(failed_ases),
        ttl_ms=ttl_ms,
        max_hops=max_hops,
    ).signed(service.builder.signer)
    state.originated += 1
    # Mark the own message seen so a copy reflected back over a cycle is a
    # duplicate, not a fresh withdrawal.
    state.mark_seen(message.key, now_ms)
    _apply(service, message, now_ms)
    _forward(service, message, arrival_interface=None)
    return message


def bounce_if_revoked(service, beacon, on_interface, now_ms: float) -> bool:
    """Negative caching: bounce a beacon crossing a recently revoked element.

    A beacon arriving over a link or AS the service withdrew inside the
    dedup window means the sender has not heard the withdrawal yet —
    silently admitting the beacon would resurrect the dead path, silently
    dropping it would leave the sender ignorant.  Instead the cached
    revocation is re-originated (re-sent) toward the sender, closing the
    information gap.  Returns ``True`` when the beacon was bounced (the
    caller must not admit it).

    Callers should guard the call with a cheap emptiness check on
    ``service.revocations.revoked_links`` / ``revoked_ases`` so the common
    no-revocations path stays allocation- and call-free.
    """
    state: RevocationState = service.revocations
    if not state.revoked_links and not state.revoked_ases:
        return False
    message = state.revoked_recently(beacon.links(), beacon.as_path(), now_ms)
    if message is None:
        return False
    state.reoriginated += 1
    if on_interface is not None:
        service.transport.send_message(service.as_id, on_interface, message)
    return True


def handle_revocation(
    service, message: RevocationMessage, on_interface: int, now_ms: float
) -> bool:
    """Process one delivered revocation at ``service``.

    Returns ``True`` when the message was fresh and applied (and therefore
    re-forwarded, unless its scope is exhausted); ``False`` for duplicates,
    stale (TTL-expired) copies and invalid signatures.
    """
    state: RevocationState = service.revocations
    state.received += 1
    # TTL and scope are enforced here and only here (inlined rather than
    # message methods: this handler runs once per delivered copy
    # network-wide and method dispatch measurably costs flood throughput).
    if message.ttl_ms is not None and now_ms - message.created_at_ms > message.ttl_ms:
        # Not marked seen: staleness is a property of this copy's arrival
        # time, and dropping it must not shadow an earlier in-TTL copy.
        state.rejected_stale += 1
        return False
    if message.max_hops is not None:
        hop_path = message.hop_path
        if not hop_path or hop_path[-1] != service.as_id:
            # The transport stamps every delivery of a scoped message with
            # the receiving AS, so a copy whose hop path does not end here
            # has been tampered with (truncated to dodge the propagation
            # bound).  Not marked seen: an authentic copy must still
            # process.
            state.rejected_invalid += 1
            return False
    key = message.key
    if state.is_duplicate(key, now_ms):
        state.duplicates += 1
        return False
    if service.ingress.verify_signatures:
        try:
            message.verify(service.ingress.verifier)
        except SignatureError:
            # Not marked seen: a later authentic copy must still process.
            state.rejected_invalid += 1
            return False
    state.mark_seen(key, now_ms)
    _apply(service, message, now_ms)
    if state.suppress_forwarding:
        return True
    if message.max_hops is None or len(message.hop_path) < message.max_hops:
        _forward(service, message, arrival_interface=on_interface)
    return True
