"""Path-construction beacons (PCBs).

A beacon records one inter-domain path from its **origin AS** to the AS
currently holding it, at the granularity of (AS, ingress interface, egress
interface) hops, together with per-hop static performance metadata and a
signature chain: every AS signs the entry it appends, over everything that
precedes it (paper §III).

Beacons are immutable.  Propagating a beacon to a neighbour produces a new
beacon with one more :class:`ASEntry`; registering a beacon at the local
path service produces a *terminated* beacon whose last entry has no egress
interface.  The :class:`BeaconBuilder` owned by each AS's egress gateway is
the only component that creates or extends beacons, which keeps the signing
logic in one place.

Fast-path invariants
--------------------

Every beacon holds, from construction on, the derived state each beacon
needs: the header encoding, the full encoding of every entry, the
prefix-digest chain, the AS path and the AS set.  A beacon built by
:class:`BeaconBuilder` *carries* that state from its parent instead of
recomputing it: the header encoding is the parent's object, and each tuple
is the parent's plus one element.  One extension therefore encodes the new
entry's unsigned form once, signs ``header | entry_0 | … | entry_{L-1} |
unsigned`` once and hashes the full encoding once — ``O(1)`` encodings and
digests per hop, whatever the hop count.  A directly constructed
``Beacon(...)`` (tests, ``dataclasses.replace``) computes the same state
from scratch in one pass.  Rarely used values (links, accumulated metrics,
the full encoding) stay lazy in :func:`functools.cached_property` slots.
Derived state lives outside the declared fields, so equality, hashing and
``repr`` never see it.

Element ``i`` of :meth:`Beacon.prefix_digests` is
``sha256(header | entry_0 | … | entry_i)``, i.e. the digest the beacon had
when entry ``i`` was its last entry; :meth:`Beacon.digest` is the last
element.  The digest is the canonical identity used for deduplication
everywhere, and the ingress gateway keys its verified-prefix cache on the
chain, so both dedup and incremental re-verification read the same values.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import beacon_digest, count_crypto_op
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import BeaconError, LoopError
from repro.core.extensions import ExtensionSet
from repro.core.staticinfo import StaticInfo
from repro.topology.entities import InterfaceID, LinkID, normalize_link_id

#: Default beacon validity: SCION caps PCB lifetimes with a global upper
#: bound; we use six hours of simulated time.
DEFAULT_VALIDITY_MS = 6.0 * 60.0 * 60.0 * 1000.0

_beacon_sequence = itertools.count(1)


def _encode_unsigned(
    as_id: int,
    ingress_interface: Optional[int],
    egress_interface: Optional[int],
    static_info: StaticInfo,
) -> str:
    return (
        f"entry(as={as_id},in={ingress_interface},"
        f"out={egress_interface},{static_info.encode()})"
    )


@dataclass(frozen=True)
class ASEntry:
    """One AS hop of a beacon.

    Attributes:
        as_id: The AS that appended this entry.
        ingress_interface: Local interface on which the beacon was received;
            ``None`` for the origin entry.
        egress_interface: Local interface over which the beacon was (or will
            be) propagated; ``None`` for a terminal entry created at
            registration time.
        static_info: Per-hop performance metadata.
        signature: Signature of ``as_id`` over the beacon prefix ending in
            this entry.
    """

    as_id: int
    ingress_interface: Optional[int]
    egress_interface: Optional[int]
    static_info: StaticInfo = field(default_factory=StaticInfo)
    signature: bytes = b""

    def encode_unsigned(self) -> str:
        """Return the canonical encoding of the entry without its signature."""
        return _encode_unsigned(
            self.as_id, self.ingress_interface, self.egress_interface, self.static_info
        )

    def encode(self) -> str:
        """Return the canonical encoding including the signature.

        Beacons carry these encodings (see the module docstring), so the
        fast path never calls this for an entry it has already encoded.
        """
        return f"{self.encode_unsigned()}sig({self.signature.hex()})"


@dataclass(frozen=True)
class Beacon:
    """An immutable path-construction beacon.

    Attributes:
        origin_as: AS that originated the beacon.
        created_at_ms: Simulated creation timestamp in milliseconds.
        validity_ms: Lifetime after which the beacon expires.
        entries: AS entries from the origin to the current holder.
        extensions: IREC extensions set by the origin AS.
        beacon_id: Monotonic identifier, unique within one process; used
            only for diagnostics, never for protocol decisions.
    """

    origin_as: int
    created_at_ms: float
    entries: Tuple[ASEntry, ...]
    extensions: ExtensionSet = field(default_factory=ExtensionSet)
    validity_ms: float = DEFAULT_VALIDITY_MS
    beacon_id: int = field(default_factory=lambda: next(_beacon_sequence))

    def __post_init__(self) -> None:
        """Compute the derived state from scratch (see the module docstring)."""
        header = (
            f"pcb(origin={self.origin_as},created={self.created_at_ms:.3f},"
            f"validity={self.validity_ms:.3f},{self.extensions.encode()})"
        )
        encodings = tuple(entry.encode() for entry in self.entries)
        digests: List[str] = []
        if encodings:
            count_crypto_op("beacon_digest")
            state = hashlib.sha256(header.encode("utf-8"))
            for encoding in encodings:
                state.update(b"|")
                state.update(encoding.encode("utf-8"))
                digests.append(state.copy().hexdigest())
        as_path = tuple(entry.as_id for entry in self.entries)
        self.__dict__.update(
            _header=header,
            _encodings=encodings,
            _prefix_digests=tuple(digests),
            _as_path=as_path,
            _as_set=frozenset(as_path),
        )

    def _extended(self, entry: ASEntry, encoding: str, digest: str) -> "Beacon":
        """Return this beacon plus the signed ``entry``, carrying derived state.

        Skips ``__init__``: ``encoding`` is the new entry's full encoding and
        ``digest`` the child's digest, both computed once by
        :meth:`BeaconBuilder._append`.
        """
        child = object.__new__(type(self))
        child.__dict__.update(
            origin_as=self.origin_as,
            created_at_ms=self.created_at_ms,
            entries=self.entries + (entry,),
            extensions=self.extensions,
            validity_ms=self.validity_ms,
            beacon_id=next(_beacon_sequence),
            _header=self._header,
            _encodings=self._encodings + (encoding,),
            _prefix_digests=self._prefix_digests + (digest,),
            _as_path=self._as_path + (entry.as_id,),
            _as_set=self._as_set | {entry.as_id},
        )
        return child

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------
    @property
    def hop_count(self) -> int:
        """Return the number of AS entries (AS-level path length)."""
        return len(self.entries)

    @property
    def last_entry(self) -> ASEntry:
        """Return the most recently appended entry."""
        if not self.entries:
            raise BeaconError("beacon has no entries")
        return self.entries[-1]

    @property
    def last_as(self) -> int:
        """Return the AS that appended the last entry."""
        return self.last_entry.as_id

    @property
    def origin_interface(self) -> Optional[int]:
        """Return the egress interface of the origin entry."""
        if not self.entries:
            return None
        return self.entries[0].egress_interface

    @property
    def is_terminated(self) -> bool:
        """Return whether the beacon has been terminated (registered)."""
        return bool(self.entries) and self.entries[-1].egress_interface is None

    @property
    def target_as(self) -> Optional[int]:
        """Return the pull-based target AS, if any."""
        return self.extensions.target.target_as if self.extensions.target else None

    @property
    def algorithm_id(self) -> Optional[str]:
        """Return the on-demand algorithm identifier, if any."""
        return self.extensions.algorithm.algorithm_id if self.extensions.algorithm else None

    @property
    def interface_group_id(self) -> Optional[int]:
        """Return the origin interface-group identifier, if any."""
        if self.extensions.interface_group is None:
            return None
        return self.extensions.interface_group.group_id

    def as_path(self) -> Tuple[int, ...]:
        """Return the sequence of AS identifiers from the origin onwards."""
        return self._as_path

    def contains_as(self, as_id: int) -> bool:
        """Return whether ``as_id`` already appears on the beacon's path."""
        return as_id in self._as_set

    def links(self) -> Tuple[LinkID, ...]:
        """Return the inter-domain links traversed, as normalised link ids.

        The link between consecutive entries ``i`` and ``i + 1`` connects
        the egress interface of entry ``i`` with the ingress interface of
        entry ``i + 1``.  The tuple is cached: link-state checks run on
        every in-flight delivery of a dynamic scenario and revocation
        purges probe it per stored beacon, so the walk must not repeat.
        """
        return self._links

    @cached_property
    def _links(self) -> Tuple[LinkID, ...]:
        result: List[LinkID] = []
        for previous, current in zip(self.entries, self.entries[1:]):
            if previous.egress_interface is None or current.ingress_interface is None:
                raise BeaconError("interior beacon entries must specify both interfaces")
            a: InterfaceID = (previous.as_id, previous.egress_interface)
            b: InterfaceID = (current.as_id, current.ingress_interface)
            result.append(normalize_link_id(a, b))
        return tuple(result)

    def link_set(self) -> frozenset:
        """Return :meth:`links` as a cached frozenset for containment checks."""
        return self._link_set

    @cached_property
    def _link_set(self) -> frozenset:
        return frozenset(self._links)

    def interfaces(self) -> Tuple[InterfaceID, ...]:
        """Return every (AS, interface) pair that appears on the beacon."""
        result: List[InterfaceID] = []
        for entry in self.entries:
            if entry.ingress_interface is not None:
                result.append((entry.as_id, entry.ingress_interface))
            if entry.egress_interface is not None:
                result.append((entry.as_id, entry.egress_interface))
        return tuple(result)

    @cached_property
    def vector_cache(self) -> dict:
        """Per-beacon cache of extracted path vectors, keyed by criteria.

        Filled by :meth:`repro.core.criteria.StandardMetrics.vector_for`.
        """
        return {}

    # ------------------------------------------------------------------
    # accumulated metrics
    # ------------------------------------------------------------------
    def total_latency_ms(self) -> float:
        """Return the accumulated latency from the origin to the holder.

        Sums every entry's intra-AS latency and every traversed link's
        latency.  For a non-terminated beacon the last entry's egress link
        latency is included, i.e. the value is the latency up to the ingress
        interface of the *next* AS (the one about to receive the beacon),
        matching what that AS observes when optimizing received paths.
        The value is cached after the first call.
        """
        return self._total_latency_ms

    @cached_property
    def _total_latency_ms(self) -> float:
        return sum(entry.static_info.hop_latency_ms for entry in self.entries)

    def bottleneck_bandwidth_mbps(self) -> float:
        """Return the bottleneck (minimum) link bandwidth along the path (cached)."""
        return self._bottleneck_bandwidth_mbps

    @cached_property
    def _bottleneck_bandwidth_mbps(self) -> float:
        bandwidths = [
            entry.static_info.link_bandwidth_mbps
            for entry in self.entries
            if entry.static_info.link_bandwidth_mbps is not None
        ]
        return min(bandwidths) if bandwidths else float("inf")

    # ------------------------------------------------------------------
    # lifecycle and integrity
    # ------------------------------------------------------------------
    def is_expired(self, now_ms: float) -> bool:
        """Return whether the beacon has passed its validity horizon."""
        return now_ms >= self.created_at_ms + self.validity_ms

    def expires_at_ms(self) -> float:
        """Return the absolute simulated expiry time."""
        return self.created_at_ms + self.validity_ms

    def encode(self) -> bytes:
        """Return the full canonical encoding (cached after the first call)."""
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        count_crypto_op("beacon_encode")
        return "|".join((self._header, *self._encodings)).encode("utf-8")

    def encoded_size(self) -> int:
        """Return ``len(self.encode())`` without keeping the encoding."""
        return len("|".join((self._header, *self._encodings)).encode("utf-8"))

    def prefix_digests(self) -> Tuple[str, ...]:
        """Return the digest chain of the beacon's prefixes.

        Element ``i`` is the SHA-256 hex digest of
        ``header | entry_0 | … | entry_i`` — i.e. exactly the
        :meth:`digest` the beacon had when entry ``i`` was its last entry.
        The ingress gateway keys its verified-prefix cache on these values.
        """
        return self._prefix_digests

    def digest(self) -> str:
        """Return the SHA-256 hex digest of the full encoding."""
        digests = self._prefix_digests
        return digests[-1] if digests else beacon_digest(self.encode())

    def verify(self, verifier: Verifier) -> None:
        """Verify the complete signature chain.

        Raises:
            SignatureError: If any entry's signature is invalid.
            BeaconError: If the beacon has no entries.
        """
        self.verify_suffix(verifier, first_entry=0)

    def verify_suffix(self, verifier: Verifier, first_entry: int) -> None:
        """Verify the signatures of entries ``first_entry`` onwards.

        The signed prefixes are built from one growing buffer over the
        carried entry encodings, so the string work is linear in the
        encoding size.  Skipping already-verified prefixes is only sound
        when the caller knows the prefix ending at ``first_entry - 1`` was
        verified against the same key material — that is what the ingress
        gateway's verified-prefix cache establishes.

        Raises:
            SignatureError: If any checked entry's signature is invalid.
            BeaconError: If the beacon has no entries or ``first_entry`` is
                out of range.
        """
        if not self.entries:
            raise BeaconError("cannot verify a beacon without entries")
        if not 0 <= first_entry <= len(self.entries):
            raise BeaconError(f"entry index {first_entry} out of range")
        encodings = self._encodings
        prefix = "|".join((self._header, *encodings[:first_entry]))
        for index in range(first_entry, len(encodings)):
            entry = self.entries[index]
            encoding = encodings[index]
            # A full entry encoding is the unsigned one plus ``sig(<hex>)``.
            unsigned = encoding[: len(encoding) - 2 * len(entry.signature) - 5]
            verifier.verify(entry.as_id, f"{prefix}|{unsigned}".encode("utf-8"), entry.signature)
            prefix = f"{prefix}|{encoding}"


@dataclass
class BeaconBuilder:
    """Creates, extends and terminates beacons on behalf of one AS.

    All three operations go through :meth:`_append`, which signs the new
    entry over the correctly chained prefix and builds the signed entry and
    the child beacon exactly once each.  It is owned by the AS's egress
    gateway.
    """

    as_id: int
    signer: Signer

    def originate(
        self,
        egress_interface: int,
        created_at_ms: float,
        static_info: Optional[StaticInfo] = None,
        extensions: Optional[ExtensionSet] = None,
        validity_ms: float = DEFAULT_VALIDITY_MS,
    ) -> Beacon:
        """Create a fresh beacon leaving this AS over ``egress_interface``."""
        header_only = Beacon(
            origin_as=self.as_id,
            created_at_ms=created_at_ms,
            entries=(),
            extensions=extensions or ExtensionSet(),
            validity_ms=validity_ms,
            beacon_id=0,
        )
        return self._append(header_only, None, egress_interface, static_info)

    def extend(
        self,
        beacon: Beacon,
        ingress_interface: int,
        egress_interface: int,
        static_info: Optional[StaticInfo] = None,
    ) -> Beacon:
        """Append this AS's hop to ``beacon`` for propagation."""
        return self._append(beacon, ingress_interface, egress_interface, static_info)

    def terminate(
        self,
        beacon: Beacon,
        ingress_interface: int,
        static_info: Optional[StaticInfo] = None,
    ) -> Beacon:
        """Append a terminal (no-egress) entry, producing a registrable segment."""
        return self._append(beacon, ingress_interface, None, static_info)

    def _append(
        self,
        parent: Beacon,
        ingress_interface: Optional[int],
        egress_interface: Optional[int],
        static_info: Optional[StaticInfo],
    ) -> Beacon:
        """Return ``parent`` plus this AS's signed entry (no loop allowed).

        Encodes the entry's unsigned form once, signs
        ``header | entry_0 | … | entry_{L-1} | unsigned`` and hashes that
        message followed by the signature, which is the child's full
        encoding.
        """
        if parent.is_terminated:
            raise BeaconError("cannot extend a terminated beacon")
        if parent.contains_as(self.as_id):
            raise LoopError(
                f"AS {self.as_id} already on path {parent.as_path()}; refusing to create a loop"
            )
        static_info = static_info or StaticInfo()
        unsigned = _encode_unsigned(self.as_id, ingress_interface, egress_interface, static_info)
        signed = "|".join((parent._header, *parent._encodings, unsigned)).encode("utf-8")
        signature = self.signer.sign(signed)
        seal = f"sig({signature.hex()})"
        count_crypto_op("beacon_digest")
        state = hashlib.sha256(signed)
        state.update(seal.encode("utf-8"))
        entry = ASEntry(self.as_id, ingress_interface, egress_interface, static_info, signature)
        return parent._extended(entry, unsigned + seal, state.hexdigest())


def dedupe_beacons(beacons: Iterable[Beacon]) -> List[Beacon]:
    """Return ``beacons`` with exact duplicates (by digest) removed.

    Order is preserved; the first occurrence of each digest wins.
    """
    seen = set()
    result: List[Beacon] = []
    for beacon in beacons:
        digest = beacon.digest()
        if digest not in seen:
            seen.add(digest)
            result.append(beacon)
    return result


def beacons_per_origin(beacons: Sequence[Beacon]) -> dict:
    """Group beacons by origin AS (helper shared by stores and algorithms)."""
    grouped: dict = {}
    for beacon in beacons:
        grouped.setdefault(beacon.origin_as, []).append(beacon)
    return grouped
