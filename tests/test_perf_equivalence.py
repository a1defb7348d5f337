"""Equivalence tests for the beacon fast path.

The hot-path optimizations (derived beacon state carried from parent to
child, the sweep-based Pareto frontier and the ingress gateway's
incremental signature verification) are pure performance work: they must
be observationally identical to the naive implementations.  These property
tests pin that down:

* the digest equals an independent, from-scratch re-encoding and
  re-hashing of the beacon after arbitrary extension/termination chains,
  every element of the prefix-digest chain equals the digest of the
  corresponding prefix beacon, and every derived value of a builder-made
  beacon equals that of a freshly constructed ``Beacon(...)`` with the
  same fields,
* one extension does O(1) work whatever the hop count: one digest, one
  signature and one static-info encoding,
* the sweep/skyline ``pareto_frontier`` returns exactly the same labelled
  pairs (same order) as the quadratic reference on random vectors with 2–4
  metrics, including duplicates and maximize-objective metrics, and
* incremental verification accepts exactly what full verification accepts
  and rejects beacons tampered at every entry position, with or without a
  warm verified-prefix cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algebra import (
    BANDWIDTH,
    HOP_COUNT,
    LATENCY,
    PathVector,
    RELIABILITY,
    pareto_frontier,
    pareto_frontier_naive,
)
from repro.core.beacon import Beacon, BeaconBuilder
from repro.core.extensions import ExtensionSet
from repro.core.ingress import IngressGateway, VerifiedPrefixCache
from repro.core.staticinfo import StaticInfo
from repro.crypto.hashing import perf_counters
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import BeaconError, LoopError, SignatureError

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
latencies = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
bandwidths = st.one_of(
    st.none(), st.floats(min_value=1.0, max_value=100_000.0, allow_nan=False)
)

hop_specs = st.lists(
    st.tuples(latencies, latencies, bandwidths), min_size=1, max_size=7
)
interfaces = st.integers(min_value=1, max_value=8)
#: One builder operation after the origination: (AS offset, ingress,
#: egress, intra latency, link latency, bandwidth).  Each step's AS is the
#: previous one plus the offset, so a non-positive offset can revisit an
#: AS, which the builder must refuse as a loop.
builder_steps = st.lists(
    st.tuples(
        st.integers(min_value=-2, max_value=3),
        interfaces,
        interfaces,
        latencies,
        latencies,
        bandwidths,
    ),
    min_size=0,
    max_size=7,
)
extension_sets = st.sampled_from(
    [
        None,
        ExtensionSet().with_interface_group(3),
        ExtensionSet().with_target(77),
    ]
)


def build_chain(key_store, hops, terminate=False, extensions=None):
    """Build a signed beacon from (intra_latency, link_latency, bandwidth) hops."""
    origin_builder = BeaconBuilder(
        as_id=10, signer=Signer(as_id=10, key_store=key_store)
    )
    intra, link, bandwidth = hops[0]
    beacon = origin_builder.originate(
        egress_interface=1,
        created_at_ms=0.0,
        static_info=StaticInfo(link_latency_ms=link, link_bandwidth_mbps=bandwidth),
        extensions=extensions,
    )
    for index, (intra, link, bandwidth) in enumerate(hops[1:], start=1):
        as_id = 10 + index
        builder = BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store))
        last = terminate and index == len(hops) - 1
        info = StaticInfo(
            intra_latency_ms=intra,
            link_latency_ms=0.0 if last else link,
            link_bandwidth_mbps=None if last else bandwidth,
        )
        if last:
            beacon = builder.terminate(beacon, ingress_interface=2, static_info=info)
        else:
            beacon = builder.extend(
                beacon, ingress_interface=2, egress_interface=1, static_info=info
            )
    return beacon


def naive_encode(beacon: Beacon) -> bytes:
    """Re-encode a beacon from its raw fields, bypassing every memo."""
    parts = [
        f"pcb(origin={beacon.origin_as},created={beacon.created_at_ms:.3f},"
        f"validity={beacon.validity_ms:.3f},{beacon.extensions.encode()})"
    ]
    for entry in beacon.entries:
        unsigned = (
            f"entry(as={entry.as_id},in={entry.ingress_interface},"
            f"out={entry.egress_interface},{entry.static_info.encode()})"
        )
        parts.append(f"{unsigned}sig({entry.signature.hex()})")
    return "|".join(parts).encode("utf-8")


# ----------------------------------------------------------------------
# (a) digests
# ----------------------------------------------------------------------
class TestDigestEquivalence:
    @given(hops=hop_specs, terminate=st.booleans(), with_extension=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_cached_digest_matches_naive_reencode(self, hops, terminate, with_extension):
        key_store = KeyStore()
        extensions = (
            ExtensionSet().with_interface_group(3) if with_extension else None
        )
        beacon = build_chain(
            key_store, hops, terminate=terminate and len(hops) > 1, extensions=extensions
        )
        expected = hashlib.sha256(naive_encode(beacon)).hexdigest()
        assert beacon.digest() == expected
        # The memo must be stable across repeated calls.
        assert beacon.digest() == expected
        assert beacon.encode() == naive_encode(beacon)

    @given(hops=hop_specs)
    @settings(max_examples=40, deadline=None)
    def test_prefix_digest_chain_matches_prefix_beacons(self, hops):
        key_store = KeyStore()
        beacon = build_chain(key_store, hops)
        chain = beacon.prefix_digests()
        assert len(chain) == beacon.hop_count
        for index in range(beacon.hop_count):
            prefix = replace(beacon, entries=beacon.entries[: index + 1])
            assert chain[index] == hashlib.sha256(naive_encode(prefix)).hexdigest()
        assert beacon.digest() == chain[-1]

    def test_extension_reuses_parent_entry_encodings(self, key_store):
        parent = build_chain(key_store, [(0.0, 5.0, 100.0), (1.0, 5.0, 100.0)])
        builder = BeaconBuilder(as_id=99, signer=Signer(as_id=99, key_store=key_store))
        child = builder.extend(parent, ingress_interface=1, egress_interface=2)
        # The child shares the parent's entry objects and carries the
        # parent's prefix digests instead of recomputing them.
        assert child.entries[:2] == parent.entries[:2]
        assert child.entries[0] is parent.entries[0]
        assert child.prefix_digests()[:2] == parent.prefix_digests()
        assert child.prefix_digests()[1] is parent.digest()
        assert child.digest() != parent.digest()
        assert hashlib.sha256(naive_encode(child)).hexdigest() == child.digest()


def fresh_copy(beacon: Beacon) -> Beacon:
    """Construct ``beacon`` anew from its fields, so every derived value is
    computed from scratch instead of carried from a parent."""
    return Beacon(
        origin_as=beacon.origin_as,
        created_at_ms=beacon.created_at_ms,
        entries=beacon.entries,
        extensions=beacon.extensions,
        validity_ms=beacon.validity_ms,
        beacon_id=beacon.beacon_id,
    )


def build_steps(key_store, origin_info, steps, extensions, created_at_ms, validity_ms):
    """Run one originate plus ``steps`` through ``BeaconBuilder``.

    Returns every beacon built, in order.  A step whose AS is already on the
    path must raise :class:`LoopError`; a step after a termination must
    raise :class:`BeaconError`.  A step terminates when its egress
    interface is 8.
    """
    intra, link, bandwidth = origin_info
    beacon = BeaconBuilder(as_id=1, signer=Signer(as_id=1, key_store=key_store)).originate(
        egress_interface=1,
        created_at_ms=created_at_ms,
        static_info=StaticInfo(link_latency_ms=link, link_bandwidth_mbps=bandwidth),
        extensions=extensions,
        validity_ms=validity_ms,
    )
    built = [beacon]
    as_id = 1
    for offset, ingress, egress, intra, link, bandwidth in steps:
        as_id += offset
        builder = BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store))
        if egress == 8:
            operation, args = builder.terminate, (beacon, ingress)
            info = StaticInfo(intra_latency_ms=intra)
        else:
            operation, args = builder.extend, (beacon, ingress, egress)
            info = StaticInfo(intra, link, bandwidth)
        if beacon.is_terminated or beacon.contains_as(as_id):
            refusal = BeaconError if beacon.is_terminated else LoopError
            with pytest.raises(refusal):
                operation(*args, static_info=info)
            continue
        beacon = operation(*args, static_info=info)
        built.append(beacon)
    return built


class TestBuilderEquivalence:
    @given(
        origin_info=st.tuples(latencies, latencies, bandwidths),
        steps=builder_steps,
        extensions=extension_sets,
        created_at_ms=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        validity_ms=st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_built_beacons_equal_fresh_construction(
        self, origin_info, steps, extensions, created_at_ms, validity_ms
    ):
        key_store = KeyStore()
        built = build_steps(
            key_store, origin_info, steps, extensions, created_at_ms, validity_ms
        )
        for beacon in built:
            fresh = fresh_copy(beacon)
            assert fresh == beacon
            assert beacon.encode() == fresh.encode() == naive_encode(beacon)
            assert beacon.encoded_size() == len(naive_encode(beacon))
            assert beacon.digest() == fresh.digest()
            assert beacon.digest() == hashlib.sha256(naive_encode(beacon)).hexdigest()
            assert beacon.prefix_digests() == fresh.prefix_digests()
            assert beacon.prefix_digests() == tuple(
                hashlib.sha256(
                    naive_encode(replace(beacon, entries=beacon.entries[: index + 1]))
                ).hexdigest()
                for index in range(beacon.hop_count)
            )
            assert beacon.as_path() == fresh.as_path()
            assert beacon.as_path() == tuple(entry.as_id for entry in beacon.entries)
            for as_id in {*beacon.as_path(), 99}:
                assert beacon.contains_as(as_id) == fresh.contains_as(as_id)
                assert beacon.contains_as(as_id) == (as_id in beacon.as_path())
            assert beacon.links() == fresh.links()
            assert beacon.link_set() == fresh.link_set()
            assert beacon.total_latency_ms() == fresh.total_latency_ms()
            assert beacon.bottleneck_bandwidth_mbps() == fresh.bottleneck_bandwidth_mbps()
            beacon.verify(Verifier(key_store=key_store))
            fresh.verify(Verifier(key_store=key_store))
        # Derived state never shows in equality, hashing or repr.
        last = built[-1]
        assert hash(fresh_copy(last)) == hash(last)
        assert repr(fresh_copy(last)) == repr(last)


@pytest.mark.parametrize("hops", [1, 2, 3, 5, 8, 12])
def test_one_extension_does_constant_work(hops, key_store, monkeypatch):
    """One ``extend`` of an L-hop beacon, with the digest and prefix chain
    every receiver reads, costs one digest, one signature and one
    static-info encoding — independent of L."""
    parent = build_chain(key_store, [(1.0, 2.0, 100.0)] * hops)
    parent.digest()
    builder = BeaconBuilder(as_id=500, signer=Signer(as_id=500, key_store=key_store))
    encoded = []
    original_encode = StaticInfo.encode
    monkeypatch.setattr(
        StaticInfo, "encode", lambda info: encoded.append(info) or original_encode(info)
    )
    before = perf_counters()
    child = builder.extend(
        parent, ingress_interface=3, egress_interface=4, static_info=StaticInfo(1.0, 2.0, 50.0)
    )
    child.digest()
    child.prefix_digests()
    after = perf_counters()
    assert after["beacon_digest"] - before["beacon_digest"] == 1
    assert after["signature_sign"] - before["signature_sign"] == 1
    assert len(encoded) == 1
    assert child.hop_count == hops + 1


# ----------------------------------------------------------------------
# (b) pareto frontier
# ----------------------------------------------------------------------
METRIC_POOLS = (
    (LATENCY,),  # single-metric degenerate case: frontier = all minima
    (BANDWIDTH,),  # ...including a maximize-objective single metric
    (LATENCY, BANDWIDTH),
    (LATENCY, HOP_COUNT, BANDWIDTH),
    (LATENCY, HOP_COUNT, BANDWIDTH, RELIABILITY),
)


class TestParetoEquivalence:
    @given(
        pool_index=st.integers(min_value=0, max_value=len(METRIC_POOLS) - 1),
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
            min_size=0,
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_sweep_matches_quadratic_reference(self, pool_index, rows):
        metrics = METRIC_POOLS[pool_index]
        labelled = [
            (
                index,
                PathVector(
                    metrics=metrics,
                    values=tuple(float(v) for v in row[: len(metrics)]),
                ),
            )
            for index, row in enumerate(rows)
        ]
        fast = pareto_frontier(labelled)
        naive = pareto_frontier_naive(labelled)
        assert [label for label, _v in fast] == [label for label, _v in naive]
        assert [v.values for _l, v in fast] == [v.values for _l, v in naive]

    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_duplicate_heavy_three_metric_sweep_matches_reference(self, rows):
        # Values drawn from {0, 1, 2}³ force many exact duplicates, the
        # regime where the k ≥ 3 skyline scan is easiest to get wrong
        # (duplicates must all be kept: they do not dominate each other).
        metrics = (LATENCY, HOP_COUNT, BANDWIDTH)
        labelled = [
            (index, PathVector(metrics=metrics, values=tuple(float(v) for v in row)))
            for index, row in enumerate(rows)
        ]
        fast = pareto_frontier(labelled)
        naive = pareto_frontier_naive(labelled)
        assert [label for label, _v in fast] == [label for label, _v in naive]

    @given(
        values=st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=40),
        maximize=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_metric_degenerate_matches_reference(self, values, maximize):
        metric = BANDWIDTH if maximize else LATENCY
        labelled = [
            (index, PathVector(metrics=(metric,), values=(float(v),)))
            for index, v in enumerate(values)
        ]
        fast = pareto_frontier(labelled)
        naive = pareto_frontier_naive(labelled)
        assert [label for label, _v in fast] == [label for label, _v in naive]
        if values:
            best = max(values) if maximize else min(values)
            # Every optimum (including duplicates) survives, nothing else.
            assert [v.values[0] for _l, v in fast] == [
                float(v) for v in values if v == best
            ]

    def test_duplicates_are_all_kept(self):
        vector = PathVector(metrics=(LATENCY, BANDWIDTH), values=(10.0, 100.0))
        other = PathVector(metrics=(LATENCY, BANDWIDTH), values=(10.0, 100.0))
        dominated = PathVector(metrics=(LATENCY, BANDWIDTH), values=(20.0, 50.0))
        frontier = pareto_frontier([("a", vector), ("b", other), ("c", dominated)])
        assert [label for label, _v in frontier] == ["a", "b"]

    def test_duplicates_are_all_kept_with_three_metrics(self):
        metrics = (LATENCY, HOP_COUNT, BANDWIDTH)
        twin_a = PathVector(metrics=metrics, values=(10.0, 3.0, 100.0))
        twin_b = PathVector(metrics=metrics, values=(10.0, 3.0, 100.0))
        dominated = PathVector(metrics=metrics, values=(20.0, 4.0, 50.0))
        incomparable = PathVector(metrics=metrics, values=(5.0, 9.0, 100.0))
        frontier = pareto_frontier(
            [("a", twin_a), ("b", twin_b), ("c", dominated), ("d", incomparable)]
        )
        assert [label for label, _v in frontier] == ["a", "b", "d"]

    def test_infinite_values_are_handled(self):
        # Bottleneck identity is +inf; the sweep must not choke on it.
        best = PathVector(metrics=(LATENCY, BANDWIDTH), values=(1.0, float("inf")))
        worse = PathVector(metrics=(LATENCY, BANDWIDTH), values=(2.0, 100.0))
        frontier = pareto_frontier([("best", best), ("worse", worse)])
        assert [label for label, _v in frontier] == ["best"]
        assert pareto_frontier([]) == []


# ----------------------------------------------------------------------
# (c) incremental verification
# ----------------------------------------------------------------------
def tamper(beacon: Beacon, position: int) -> Beacon:
    """Return a copy of ``beacon`` with entry ``position`` altered."""
    entry = beacon.entries[position]
    forged = replace(
        entry,
        static_info=replace(entry.static_info, intra_latency_ms=entry.static_info.intra_latency_ms + 1.0),
    )
    entries = beacon.entries[:position] + (forged,) + beacon.entries[position + 1 :]
    return replace(beacon, entries=entries)


class TestIncrementalVerification:
    @given(hops=hop_specs)
    @settings(max_examples=40, deadline=None)
    def test_incremental_accepts_what_full_accepts(self, hops):
        key_store = KeyStore()
        beacon = build_chain(key_store, hops)
        verifier = Verifier(key_store=key_store)
        beacon.verify(verifier)  # full verification accepts

        gateway = IngressGateway(as_id=999_999, verifier=verifier)
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)
        assert gateway.stats.full_verifications == 1
        assert gateway.stats.signatures_checked == beacon.hop_count

        # Re-verifying an extension only checks the new entry's signature.
        builder = BeaconBuilder(as_id=777, signer=Signer(as_id=777, key_store=key_store))
        child = builder.extend(beacon, ingress_interface=3, egress_interface=4)
        assert gateway.receive(child, on_interface=1, now_ms=0.0)
        assert gateway.stats.incremental_verifications == 1
        assert gateway.stats.signatures_checked == beacon.hop_count + 1

    @given(hops=hop_specs, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_tampered_entries_rejected_at_every_position(self, hops, data):
        key_store = KeyStore()
        beacon = build_chain(key_store, hops)
        verifier = Verifier(key_store=key_store)
        position = data.draw(
            st.integers(min_value=0, max_value=beacon.hop_count - 1), label="position"
        )
        forged = tamper(beacon, position)
        with pytest.raises(SignatureError):
            forged.verify(verifier)
        gateway = IngressGateway(as_id=999_999, verifier=verifier)
        assert not gateway.receive(forged, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_signature == 1

    def test_warm_cache_still_rejects_tampered_extension(self, key_store):
        beacon = build_chain(key_store, [(0.0, 5.0, 100.0), (1.0, 5.0, 100.0)])
        verifier = Verifier(key_store=key_store)
        gateway = IngressGateway(as_id=999_999, verifier=verifier)
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)

        builder = BeaconBuilder(as_id=777, signer=Signer(as_id=777, key_store=key_store))
        child = builder.extend(beacon, ingress_interface=3, egress_interface=4)

        # Tampering the new entry: the cached prefix is valid, but the
        # incremental check of the appended entry must still fail.
        forged_new = tamper(child, child.hop_count - 1)
        assert not gateway.receive(forged_new, on_interface=1, now_ms=0.0)

        # Tampering a cached-prefix entry changes the prefix digests, so the
        # cache cannot match and full verification fails.
        forged_old = tamper(child, 0)
        assert not gateway.receive(forged_old, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_signature == 2

        # The untampered extension is still accepted afterwards.
        assert gateway.receive(child, on_interface=1, now_ms=0.0)

    def test_prefix_cache_is_bounded(self):
        cache = VerifiedPrefixCache(max_entries=3)
        for index in range(5):
            cache.add(f"digest-{index}")
        assert len(cache) == 3
        assert "digest-0" not in cache
        assert "digest-4" in cache
