#!/usr/bin/env python
"""Benchmark-regression harness for the beacon fast path.

Runs the paper-derived workloads at a pinned scale and writes one JSON
report (wall-clock per stage, beacons/sec, digest/verify operation counts)
so that successive PRs have a perf trajectory to regress against:

    PYTHONPATH=src python benchmarks/run_benchmarks.py --out BENCH_PR1.json

Stages
------

* ``fig6_rac_latency``      — on-demand RAC processing latency over growing
                              candidate sets (modelled sandbox/IPC costs
                              zeroed so raw Python cost is visible),
* ``fig7_rac_throughput``   — aggregate PCB/s of several RACs over the
                              Figure-7 (rac count, |Φ|) grid,
* ``pareto_frontier``       — the Sobrinho-style dominant-set baseline over
                              synthetic candidate sets (stresses the
                              frontier computation and metric extraction),
* ``beaconing_e2e``         — a full multi-period beaconing simulation with
                              signature verification enabled, at the scale
                              selected by ``--scale`` / ``IREC_BENCH_SCALE``
                              (default ``medium``),
* ``dynamic_convergence``   — a beaconing simulation under a seeded schedule
                              of link failures/recoveries with convergence
                              tracking (added in PR 2; absent from older
                              baselines, which the comparison tolerates),
* ``revocation``            — the hop-by-hop revocation flood: after one
                              warm-up beaconing period, a batch of link
                              failures is injected and the resulting
                              signed revocation messages (dedup, indexed
                              withdrawal, re-forwarding) are drained;
                              reports messages/s (added in PR 4),
* ``traffic``               — the flow-level traffic engine: a gravity+
                              hotspot workload of aggregated end-host flows
                              over the registered paths through the
                              capacity-aware link model, reporting
                              flow-rounds/s and — in a scenario-coupled
                              second run — goodput recovery after a stub AS
                              is cut off (added in PR 3),
* ``control_overload``      — a simultaneous revocation storm against
                              bounded, rate-limited per-AS inboxes
                              (finite service budget, bounded capacity,
                              priority scheduling): reports storm
                              throughput (messages/s, regression-gated)
                              plus the queueing-delay distribution,
                              drop/mark/deferral counters and the
                              deepest queue reached (added in PR 6),
* ``message_fabric``        — the unified message fabric: a mixed workload
                              of path-registration messages and revocation
                              floods driven through the typed transport,
                              drained once with batched per-AS inboxes
                              (the default) and once in per-message mode
                              (``batch_size=1``); reports messages/s for
                              both plus the batch speedup (added in PR 5),
* ``path_query``            — the path-query serving tier: after a warmed
                              beaconing run, every AS's
                              ``PathQueryFrontend`` serves a pinned mix of
                              plain and policy-filtered queries from its
                              response cache (reports ``lookups_per_s``),
                              then a seeded revocation-churn phase
                              alternates link withdrawals with sampled
                              per-lookup latencies (reports the p99 and
                              the cache hit/invalidation counters)
                              (added in PR 9).

``--fail-on-regression PCT`` (used by CI together with ``--baseline``)
exits non-zero when any stage's throughput drops by more than PCT percent
or its wall time grows by more than PCT percent versus the baseline.

Every stage resets the library's crypto perf counters first, so the
reported ``digest``/``verify`` numbers are the operations that stage
actually performed (memo/cache hits do not count — that is the point).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

if __package__ is None or __package__ == "":  # direct script invocation
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.algorithms.pareto import ParetoDominantAlgorithm
from repro.analysis.microbench import latency_series, measure_throughput
from repro.analysis.workloads import synthetic_candidate_set

try:
    from repro.crypto.hashing import perf_counters, reset_perf_counters
except ImportError:  # pre-PR1 trees have no crypto perf counters
    def perf_counters():
        return {}

    def reset_perf_counters():
        return None
from repro.obs import spans
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import random_link_failures
from repro.simulation.scenario import don_scenario
from repro.topology.generator import SCALES, TopologyConfig, generate_topology, scale_config

try:
    import resource
except ImportError:  # non-Unix platform: RSS sampling degrades to None
    resource = None


def peak_rss_mb():
    """Return the process's peak RSS in MiB (None where unsupported).

    ``ru_maxrss`` is a high-water mark, so per-stage values are
    monotonically non-decreasing across the run: a stage's entry shows the
    peak *up to and including* that stage, and a jump pinpoints the stage
    that grew the footprint.  (Linux reports KiB, macOS bytes.)
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(peak / divisor, 2)

# Pinned workload shapes — change them only together with a note in the
# report's ``meta`` section, otherwise cross-PR comparisons are meaningless.
FIG6_SIZES = (16, 64, 256)
FIG7_RAC_COUNTS = (1, 4)
FIG7_SIZES = (64, 256, 1024)
PARETO_SIZES = (256, 1024)
PARETO_ROUNDS = 3


def scale_topology_config(scale: str, seed: int = 7) -> TopologyConfig:
    """Return the pinned topology configuration for ``scale``.

    The presets live in :func:`repro.topology.generator.scale_config`,
    shared with ``benchmarks/conftest.py`` and the experiment sweeps.
    """
    return scale_config(scale, seed)


def _staged(run):
    """Run ``run`` with fresh perf counters; return (result, wall_s, counters)."""
    reset_perf_counters()
    start = time.perf_counter()
    result = run()
    wall_s = time.perf_counter() - start
    return result, wall_s, perf_counters()


def stage_fig6_rac_latency() -> dict:
    """Figure-6 latency decomposition with modelled costs zeroed."""
    series, wall_s, counters = _staged(
        lambda: latency_series(FIG6_SIZES, modelled_setup_ms=0.0, modelled_ipc_call_ms=0.0)
    )
    return {
        "wall_s": wall_s,
        "points": [
            {
                "candidate_set_size": point.candidate_set_size,
                "irec_total_ms": point.irec_total_ms,
                "legacy_ms": point.legacy_ms,
            }
            for point in series
        ],
        "crypto_ops": counters,
    }


def stage_fig7_rac_throughput() -> dict:
    """Figure-7 throughput grid; the headline beacons/sec number."""

    def run():
        points = []
        for size in FIG7_SIZES:
            for rac_count in FIG7_RAC_COUNTS:
                points.append(measure_throughput(rac_count=rac_count, candidate_set_size=size))
        return points

    points, wall_s, counters = _staged(run)
    throughputs = [p.pcbs_per_second for p in points if p.pcbs_per_second > 0]
    return {
        "wall_s": wall_s,
        # Mean of the per-point measured throughputs: the wall clock also
        # covers (identical) workload construction, the measured PCB/s is
        # the regression-relevant number.
        "beacons_per_s": sum(throughputs) / len(throughputs) if throughputs else 0.0,
        "points": [
            {
                "rac_count": p.rac_count,
                "candidate_set_size": p.candidate_set_size,
                "pcbs_per_second": p.pcbs_per_second,
            }
            for p in points
        ],
        "crypto_ops": counters,
    }


def stage_pareto_frontier() -> dict:
    """Dominant-set selection over synthetic candidates (related-work baseline)."""
    algorithm = ParetoDominantAlgorithm()
    candidate_sets = {size: synthetic_candidate_set(size) for size in PARETO_SIZES}

    def run():
        processed = 0
        for size, candidates in candidate_sets.items():
            beacons = [candidate.beacon for candidate in candidates]
            for _round in range(PARETO_ROUNDS):
                dominant = algorithm.dominant_set(beacons)
                processed += len(beacons)
                assert dominant, f"empty dominant set for size {size}"
        return processed

    processed, wall_s, counters = _staged(run)
    return {
        "wall_s": wall_s,
        "beacons_per_s": processed / wall_s if wall_s > 0 else 0.0,
        "crypto_ops": counters,
    }


def stage_beaconing_e2e(scale: str, periods: int) -> dict:
    """Full beaconing simulation with signature verification enabled."""
    topology = generate_topology(scale_topology_config(scale))

    def run():
        simulation = BeaconingSimulation(
            topology, don_scenario(periods=periods, verify_signatures=True)
        )
        return simulation.run()

    result, wall_s, counters = _staged(run)
    stats_totals = {"received": 0, "accepted": 0, "full_verifications": 0,
                    "incremental_verifications": 0, "signatures_checked": 0}
    for service in result.services.values():
        ingress = getattr(service, "ingress", None)
        stats = getattr(ingress, "stats", None)
        if stats is None:
            continue
        for key in stats_totals:
            stats_totals[key] += getattr(stats, key, 0)
    return {
        "wall_s": wall_s,
        "periods": result.periods_run,
        "pcbs_sent": result.collector.total_sent,
        "beacons_per_s": result.collector.total_sent / wall_s if wall_s > 0 else 0.0,
        "ingress": stats_totals,
        "crypto_ops": counters,
    }


def stage_dynamic_convergence(scale: str, periods: int) -> dict:
    """Beaconing under seeded failures/recoveries with convergence tracking."""
    import random

    topology = generate_topology(scale_topology_config(scale))
    interval_ms = 600_000.0
    scenario = don_scenario(periods=periods + 2, verify_signatures=False)
    as_ids = topology.as_ids()
    victim_links = [link.key for link in topology.links_of(as_ids[-1])]
    scenario.timeline.extend(
        random_link_failures(
            topology,
            count=2,
            rng=random.Random(97),
            start_ms=1.5 * interval_ms,
            spacing_ms=interval_ms,
            recovery_after_ms=1.5 * interval_ms,
            candidates=victim_links,
        )
    )

    def run():
        simulation = BeaconingSimulation(topology, scenario)
        simulation.watch_pair(as_ids[-1], as_ids[0])
        return simulation.run()

    result, wall_s, counters = _staged(run)
    records = result.convergence.records
    recovered = [r for r in records if r.recovered]
    return {
        "wall_s": wall_s,
        "pcbs_sent": result.collector.total_sent,
        "beacons_per_s": result.collector.total_sent / wall_s if wall_s > 0 else 0.0,
        "pcbs_dropped": result.collector.total_dropped,
        "revocations": result.collector.total_revocations,
        "disruptions": len(records),
        "recovered": len(recovered),
        "mean_recovery_ms": (
            sum(r.time_to_recovery_ms for r in recovered) / len(recovered)
            if recovered
            else 0.0
        ),
        "crypto_ops": counters,
    }


def run_revocation_flood(
    topology,
    failure_count: int = 60,
    drain_ms: float = 60_000.0,
    inbox_batch_size=None,
) -> dict:
    """Warm up one beaconing period, then flood revocations for sampled links.

    The canonical revocation workload, shared by the ``revocation`` stage
    and ``benchmarks/bench_revocation.py`` (which passes a conftest-scaled
    topology).  Only the flood phase is timed — the measured quantity is
    the revocation subsystem (origination, hop-by-hop forwarding, dedup,
    indexed withdrawal), not the warm-up beaconing.  ``inbox_batch_size``
    selects the fabric's drain mode (``None``: batched, ``1``:
    per-message).
    """
    import gc
    import random

    from repro.simulation.beaconing import BeaconingSimulation

    scenario = don_scenario(periods=1, verify_signatures=False)
    scenario.inbox_batch_size = inbox_batch_size
    simulation = BeaconingSimulation(topology, scenario)
    simulation.run()  # warm-up: populate the per-AS databases

    rng = random.Random(5)
    pool = list(topology.link_ids())
    # Cap at a quarter of the links: failing most of a small topology
    # just partitions it and measures drops, not flood throughput.
    chosen = rng.sample(pool, k=min(failure_count, max(1, len(pool) // 4)))
    collector = simulation.collector
    messages_before = collector.total_revocations
    scheduler = simulation.scheduler

    # A process that already holds large simulations (earlier harness
    # stages) pays full GC passes over gigabytes of live beacons during
    # the flood; freeze parks the existing objects in the permanent
    # generation so the timed section only pays for its own garbage.
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        for link_id in chosen:
            simulation.link_state.fail_link(link_id)
            (as_a, _), (as_b, _) = link_id
            for as_id in sorted({as_a, as_b}):
                if simulation.link_state.is_as_up(as_id):
                    simulation.services[as_id].originate_revocation(
                        now_ms=scheduler.now_ms, failed_link=link_id
                    )
        # Drain every in-flight revocation; per-hop delays are
        # milliseconds, so the default one-minute horizon is comfortable.
        scheduler.run_until(scheduler.now_ms + drain_ms)
        wall_s = time.perf_counter() - start
    finally:
        gc.unfreeze()

    messages = collector.total_revocations - messages_before
    withdrawals = sum(
        len(service.revocations.applied_at) for service in simulation.services.values()
    )
    duplicates = sum(
        service.revocations.duplicates for service in simulation.services.values()
    )
    return {
        "wall_s": wall_s,
        "failures": len(chosen),
        "messages": messages,
        "messages_per_s": messages / wall_s if wall_s > 0 else 0.0,
        "messages_dropped": collector.revocations_dropped,
        "withdrawals_applied": withdrawals,
        "duplicates": duplicates,
        "ases": topology.num_ases,
    }


def stage_revocation(scale: str) -> dict:
    """Hop-by-hop revocation flood throughput (messages/s)."""
    topology = generate_topology(scale_topology_config(scale))
    reset_perf_counters()
    report = run_revocation_flood(topology)
    report["crypto_ops"] = perf_counters()
    return report


def run_message_fabric(
    topology,
    inbox_batch_size=None,
    failure_count: int = 40,
    registrations_per_as: int = 20,
    drain_ms: float = 60_000.0,
) -> dict:
    """Drive a mixed typed-message workload through the unified fabric.

    After one warm-up beaconing period populates the per-AS databases,
    every AS offers a slice of its registered paths to each neighbour as
    :class:`~repro.core.messages.PathRegistrationMessage` traffic, and a
    batch of link failures triggers hop-by-hop revocation floods — all
    through the one ``send_message`` path, landing in per-AS inboxes
    drained per scheduler tick.  Only the injection + drain phase is
    timed; the headline number is fabric messages (registrations +
    revocations) processed per wall-clock second.
    """
    import gc
    import random

    from repro.simulation.beaconing import BeaconingSimulation

    scenario = don_scenario(periods=1, verify_signatures=False)
    scenario.inbox_batch_size = inbox_batch_size
    simulation = BeaconingSimulation(topology, scenario)
    simulation.run()  # warm-up: populate the per-AS databases

    rng = random.Random(11)
    pool = list(topology.link_ids())
    chosen = rng.sample(pool, k=min(failure_count, max(1, len(pool) // 4)))
    collector = simulation.collector
    scheduler = simulation.scheduler
    revocations_before = collector.total_revocations
    registrations_before = collector.total_registrations

    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        # Path-registration traffic: each AS offers its best known paths
        # to every neighbour (the gossip a distributed path layer pays).
        for as_id in sorted(simulation.services):
            service = simulation.services[as_id]
            sender = getattr(service, "send_path_registration", None)
            if sender is None:
                continue
            paths = service.path_service.all_paths()[:registrations_per_as]
            for interface_id in service.view.interface_ids():
                for path in paths:
                    sender(interface_id, path, now_ms=scheduler.now_ms)
        # Revocation floods for a batch of simultaneous link failures.
        for link_id in chosen:
            simulation.link_state.fail_link(link_id)
            (as_a, _), (as_b, _) = link_id
            for as_id in sorted({as_a, as_b}):
                if simulation.link_state.is_as_up(as_id):
                    simulation.services[as_id].originate_revocation(
                        now_ms=scheduler.now_ms, failed_link=link_id
                    )
        scheduler.run_until(scheduler.now_ms + drain_ms)
        wall_s = time.perf_counter() - start
    finally:
        gc.unfreeze()

    revocations = collector.total_revocations - revocations_before
    registrations = collector.total_registrations - registrations_before
    messages = revocations + registrations
    return {
        "wall_s": wall_s,
        "messages": messages,
        "revocations": revocations,
        "registrations": registrations,
        "messages_per_s": messages / wall_s if wall_s > 0 else 0.0,
        "messages_dropped": collector.revocations_dropped + collector.registrations_dropped,
        "failures": len(chosen),
        "ases": topology.num_ases,
        "inbox_batch_size": inbox_batch_size,
    }


def stage_message_fabric(scale: str) -> dict:
    """Unified-fabric throughput: batched drains vs per-message delivery."""
    reset_perf_counters()
    batched = run_message_fabric(
        generate_topology(scale_topology_config(scale)), inbox_batch_size=None
    )
    per_message = run_message_fabric(
        generate_topology(scale_topology_config(scale)), inbox_batch_size=1
    )
    speedup = (
        batched["messages_per_s"] / per_message["messages_per_s"]
        if per_message["messages_per_s"] > 0
        else 0.0
    )
    return {
        # The headline (regression-gated) numbers are the batched mode's —
        # batching is the fabric's default.
        "wall_s": batched["wall_s"],
        "messages_per_s": batched["messages_per_s"],
        "messages": batched["messages"],
        "batched": batched,
        "per_message": per_message,
        "batch_speedup": speedup,
        "crypto_ops": perf_counters(),
    }


def run_path_query(
    topology,
    target_lookups: int = 2_000_000,
    queries_per_as: int = 8,
    churn_links: int = 12,
    samples_per_wave: int = 400,
    drain_ms: float = 60_000.0,
) -> dict:
    """Serve a pinned query mix from every AS's path-query frontend.

    Two phases, shared by the ``path_query`` stage and
    ``benchmarks/bench_path_query.py``:

    1. **Throughput** — after a two-period beaconing warm-up populates the
       per-AS path services, each AS gets a pinned mix of plain and
       policy-filtered :class:`~repro.core.query.PathQuery` objects over
       the origins it knows.  One pass warms the response caches, then a
       timed tight loop replays the whole mix until ``target_lookups``
       lookups have been served — the steady state the serving tier is
       built for, so the headline ``lookups_per_s`` is effectively the
       cache-hit rate.
    2. **Revocation churn** — a seeded batch of link failures is applied
       one wave at a time; each wave originates real revocation floods,
       drains them, then samples per-lookup wall latencies across the
       (now partially invalidated) frontends.  The reported ``p99_us``
       covers re-materialization misses, and the frontend counters show
       how much of the cache the churn actually invalidated.
    """
    import gc
    import random

    from repro.core.query import PathQuery
    from repro.simulation.beaconing import BeaconingSimulation

    scenario = don_scenario(periods=2, verify_signatures=False)
    simulation = BeaconingSimulation(topology, scenario)
    simulation.run()  # warm-up: populate the per-AS path services
    scheduler = simulation.scheduler
    now_ms = scheduler.now_ms

    # Pinned per-AS query mix: plain queries over the first origins each
    # AS knows, plus policy-filtered variants (tag + latency ceiling) that
    # exercise the admission predicate and distinct cache keys.
    bound = []  # (frontend.query, query) pairs — pre-bound for the hot loop
    for as_id in sorted(simulation.services):
        service = simulation.services[as_id]
        frontend = service.query_frontend
        origins = sorted({
            path.segment.origin_as for path in service.path_service.all_paths()
        })
        for origin in origins[:queries_per_as]:
            bound.append((frontend.query, PathQuery(origin_as=origin)))
        for origin in origins[: max(1, queries_per_as // 4)]:
            bound.append(
                (frontend.query, PathQuery(origin_as=origin, max_latency_ms=500.0))
            )
    for lookup, query in bound:  # warm the response caches
        lookup(query, now_ms=now_ms)

    rounds = max(1, target_lookups // max(1, len(bound)))
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        for _round in range(rounds):
            for lookup, query in bound:
                lookup(query, now_ms)
        wall_s = time.perf_counter() - start
    finally:
        gc.unfreeze()
    lookups = rounds * len(bound)

    # Churn phase: withdraw links wave by wave, sampling lookup latencies
    # against the partially invalidated caches after each flood drains.
    rng = random.Random(17)
    pool = list(topology.link_ids())
    chosen = rng.sample(pool, k=min(churn_links, max(1, len(pool) // 4)))
    latencies_us = []
    for link_id in chosen:
        simulation.link_state.fail_link(link_id)
        (as_a, _), (as_b, _) = link_id
        for as_id in sorted({as_a, as_b}):
            if simulation.link_state.is_as_up(as_id):
                simulation.services[as_id].originate_revocation(
                    now_ms=scheduler.now_ms, failed_link=link_id
                )
        scheduler.run_until(scheduler.now_ms + drain_ms)
        now_ms = scheduler.now_ms
        for lookup, query in bound[:samples_per_wave]:
            sample_start = time.perf_counter()
            lookup(query, now_ms)
            latencies_us.append((time.perf_counter() - sample_start) * 1e6)

    latencies_us.sort()
    p99_us = (
        latencies_us[min(len(latencies_us) - 1, int(0.99 * len(latencies_us)))]
        if latencies_us
        else 0.0
    )
    frontends = [service.query_frontend for service in simulation.services.values()]
    hits = sum(f.hits for f in frontends)
    total = sum(f.lookups for f in frontends)
    return {
        "wall_s": wall_s,
        "lookups": lookups,
        "lookups_per_s": lookups / wall_s if wall_s > 0 else 0.0,
        "queries": len(bound),
        "churn": {
            "failures": len(chosen),
            "latency_samples": len(latencies_us),
            "p99_us": p99_us,
            "mean_us": (
                sum(latencies_us) / len(latencies_us) if latencies_us else 0.0
            ),
        },
        "cache": {
            "hits": hits,
            "misses": sum(f.misses for f in frontends),
            "invalidations": sum(f.invalidations for f in frontends),
            "evictions": sum(f.evictions for f in frontends),
            "hit_ratio": hits / total if total else 0.0,
        },
        "ases": topology.num_ases,
    }


def stage_path_query(scale: str) -> dict:
    """Path-query serving throughput plus the churn-phase latency tail."""
    topology = generate_topology(scale_topology_config(scale))
    reset_perf_counters()
    report = run_path_query(topology)
    report["crypto_ops"] = perf_counters()
    return report


def stage_control_overload(scale: str) -> dict:
    """Bounded-inbox revocation storm: throughput plus the queueing tail.

    Every AS runs a finite service budget (8 messages per 5 ms round,
    capacity 256, tail-drop), and a 30-link simultaneous storm hits
    mid-run — the workload the queue model exists for.  The headline
    ``messages_per_s`` is the storm's end-to-end control-message
    throughput (the run converges despite the backpressure); the
    queue-delay distribution and the drop/mark/deferral counters describe
    *how* the control plane degraded.
    """
    import random

    from repro.simulation.events import revocation_storm
    from repro.simulation.network import InboxProfile

    topology = generate_topology(scale_topology_config(scale))
    interval_ms = 600_000.0
    scenario = don_scenario(periods=3, verify_signatures=False)
    scenario.inbox_profile = InboxProfile(
        budget_per_tick=8, capacity=256, service_interval_ms=5.0
    )
    scenario.timeline.extend(
        revocation_storm(
            topology, count=30, rng=random.Random(23), at_ms=1.5 * interval_ms
        )
    )

    def run():
        return BeaconingSimulation(topology, scenario).run()

    result, wall_s, counters = _staged(run)
    collector = result.collector
    delay = collector.queue_delay_stats()
    high_water = collector.queue_high_water_marks()
    messages = collector.control_messages_total()
    return {
        "wall_s": wall_s,
        "messages": messages,
        "messages_per_s": messages / wall_s if wall_s > 0 else 0.0,
        "revocations": collector.total_revocations,
        "inbox_dropped": collector.inbox_dropped_total(),
        "inbox_marked": collector.inbox_marked_total(),
        "inbox_deferred": collector.inbox_deferred_total(),
        "queue_delay_ms": {
            "mean": delay["mean"],
            "p99": delay["p99"],
            "count": delay["count"],
        },
        "max_queue_depth": max(high_water.values()) if high_water else 0,
        "ases": topology.num_ases,
        "crypto_ops": counters,
    }


def stage_traffic(scale: str) -> dict:
    """Flow-level traffic engine: flow-rounds/s plus goodput recovery."""
    from repro.simulation.beaconing import BeaconingSimulation
    from repro.traffic import CapacityLinkModel, EcmpPolicy, TrafficEngine, hotspot_matrix
    from repro.units import minutes

    topology = generate_topology(scale_topology_config(scale))
    as_ids = topology.as_ids()
    warmup = BeaconingSimulation(
        topology, don_scenario(periods=2, verify_signatures=False)
    )
    warmup.run()

    total_flows = {"paper": 1_000_000, "large": 750_000, "medium": 500_000}.get(
        scale, 100_000
    )
    matrix = hotspot_matrix(
        topology,
        total_demand_mbps=1_000_000.0,
        total_flows=total_flows,
        hotspot_as=as_ids[0],
        hotspot_fraction=0.3,
        max_pairs=min(2_000, topology.num_ases * (topology.num_ases - 1)),
        seed=3,
    )
    engine = TrafficEngine(
        topology=topology,
        path_services={a: s.path_service for a, s in warmup.services.items()},
        matrix=matrix,
        link_state=warmup.link_state,
        policy=EcmpPolicy(max_paths=2),
        link_model=CapacityLinkModel(topology, capacity_scale=0.5),
    )

    def run():
        return engine.run_rounds(30)

    collector, wall_s, counters = _staged(run)
    last = collector.samples[-1]
    flow_rounds = collector.total_flow_rounds

    # Scenario-coupled failover: cut off a stub, measure goodput recovery.
    period_ms = minutes(10)
    fail_ms = 2.5 * period_ms
    scenario = don_scenario(periods=6, verify_signatures=False)
    victim_as = as_ids[-1]
    for link in topology.links_of(victim_as):
        scenario.at(fail_ms).fail_link(link.key)
        scenario.at(fail_ms + 1.5 * period_ms).recover_link(link.key)
    failover_sim = BeaconingSimulation(topology, scenario)
    # Modest demand: the failover measurement wants the dip to come from
    # the cutoff, not from background congestion.
    failover_matrix = hotspot_matrix(
        topology,
        total_demand_mbps=50_000.0,
        total_flows=min(total_flows, 100_000),
        hotspot_as=victim_as,
        hotspot_fraction=0.4,
        max_pairs=min(500, topology.num_ases * (topology.num_ases - 1)),
        seed=3,
    )
    failover_engine = TrafficEngine.for_simulation(
        failover_sim, failover_matrix, policy=EcmpPolicy(max_paths=2),
        round_interval_ms=minutes(1),
    )
    failover_engine.schedule_rounds(start_ms=period_ms + minutes(1), count=48)
    failover_sim.run()
    failover = failover_engine.collector
    mean_ttr = failover.mean_time_to_reroute_ms()
    recovery = failover.goodput_recovery_ms(fail_ms, tolerance=0.05)

    return {
        "wall_s": wall_s,
        "flow_rounds": flow_rounds,
        "flow_rounds_per_s": flow_rounds / wall_s if wall_s > 0 else 0.0,
        "flows": matrix.total_flows,
        "flow_groups": len(matrix),
        "offered_mbps": last.offered_mbps,
        "carried_mbps": last.carried_mbps,
        "max_link_utilization": last.max_link_utilization,
        "failover": {
            "groups_broken": len(failover.reroutes),
            "mean_time_to_reroute_ms": mean_ttr,
            "goodput_recovery_ms": recovery,
        },
        "crypto_ops": counters,
    }


def _stage_throughput(stage: dict) -> float:
    """Return a stage's measured throughput, derived from points if needed."""
    points = stage.get("points")
    if points and "pcbs_per_second" in points[0]:
        throughputs = [p["pcbs_per_second"] for p in points if p["pcbs_per_second"] > 0]
        if throughputs:
            return sum(throughputs) / len(throughputs)
    if "flow_rounds_per_s" in stage:
        return stage["flow_rounds_per_s"]
    if "lookups_per_s" in stage:
        return stage["lookups_per_s"]
    if "messages_per_s" in stage:
        return stage["messages_per_s"]
    return stage.get("beacons_per_s", 0.0)


def compare_to_baseline(report: dict, baseline: dict) -> dict:
    """Return per-stage speedups of ``report`` over ``baseline``."""
    comparison = {}
    for name, stage in report["stages"].items():
        base = baseline.get("stages", {}).get(name)
        if not base:
            continue
        entry = {"baseline_wall_s": base["wall_s"]}
        if stage.get("wall_s"):
            entry["wall_speedup"] = base["wall_s"] / stage["wall_s"]
        base_throughput = _stage_throughput(base)
        throughput = _stage_throughput(stage)
        if base_throughput > 0:
            # Emit the ratio even when the current throughput is zero — a
            # total collapse must register as a 0.00x regression, not
            # silently fall back to the (probably improved) wall time.
            entry["baseline_beacons_per_s"] = base_throughput
            entry["beacons_per_s"] = throughput
            entry["throughput_speedup"] = throughput / base_throughput
        comparison[name] = entry
    return comparison


def find_regressions(comparison: dict, tolerance: float) -> list:
    """Return stages slower than the baseline beyond ``tolerance``.

    A stage regresses when its throughput dropped below ``1 - tolerance``
    of the baseline, or — for stages without a throughput metric — its
    wall time grew beyond ``1 + tolerance`` of the baseline.  Throughput
    is preferred because wall time also covers workload construction and
    is noisier on shared CI runners.
    """
    floor = 1.0 - tolerance
    ceiling = 1.0 + tolerance
    regressions = []
    for name, entry in sorted(comparison.items()):
        throughput_speedup = entry.get("throughput_speedup")
        if throughput_speedup is not None:
            if throughput_speedup < floor:
                regressions.append(
                    f"{name}: throughput at {throughput_speedup:.2f}x of baseline "
                    f"(floor {floor:.2f}x)"
                )
            continue
        wall_speedup = entry.get("wall_speedup")
        if wall_speedup is not None and wall_speedup > 0 and 1.0 / wall_speedup > ceiling:
            regressions.append(
                f"{name}: wall time at {1.0 / wall_speedup:.2f}x of baseline "
                f"(ceiling {ceiling:.2f}x)"
            )
    return regressions


def git_revision() -> dict:
    """Return the repo's current git SHA (and dirtiness), best-effort.

    Stamped into the report's ``meta`` so cross-PR comparisons can tell
    exactly which tree produced a baseline; any git failure (no repo, no
    binary) degrades to ``None`` rather than failing the run.
    """
    import subprocess

    repo_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return {"git_sha": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"git_sha": sha.stdout.strip(), "git_dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None}


def run_all(scale: str, periods: int, profile: bool = False) -> dict:
    report = {
        "meta": {
            "harness": "run_benchmarks.py v6",
            "scale": scale,
            "periods": periods,
            "profile": profile,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "unix_time": time.time(),
            **git_revision(),
        },
        "stages": {},
    }
    stages = (
        ("fig6_rac_latency", stage_fig6_rac_latency),
        ("fig7_rac_throughput", stage_fig7_rac_throughput),
        ("pareto_frontier", stage_pareto_frontier),
        ("beaconing_e2e", lambda: stage_beaconing_e2e(scale, periods)),
        ("dynamic_convergence", lambda: stage_dynamic_convergence(scale, periods)),
        ("revocation", lambda: stage_revocation(scale)),
        ("message_fabric", lambda: stage_message_fabric(scale)),
        ("path_query", lambda: stage_path_query(scale)),
        ("control_overload", lambda: stage_control_overload(scale)),
        ("traffic", lambda: stage_traffic(scale)),
    )
    if profile:
        spans.enable()
    for name, stage in stages:
        print(f"[bench] running {name} ...", flush=True)
        if profile:
            spans.reset()
        stage_start = time.perf_counter()
        entry = stage()
        stage_wall_s = time.perf_counter() - stage_start
        entry["peak_rss_mb"] = peak_rss_mb()
        if profile:
            # Phase-attributed time per stage: where the stage's *full*
            # wall clock went (exclusive times; see docs/observability.md).
            # Attribution runs against the whole stage — several stages do
            # instrumented warmup/setup outside their measured `wall_s`
            # window, so `wall_s` would over-count coverage.
            entry["phases"] = spans.snapshot()
            entry["profile_wall_s"] = stage_wall_s
            print(spans.attribution_table(stage_wall_s), flush=True)
        report["stages"][name] = entry
        print(
            f"[bench]   {name}: wall={entry['wall_s']:.2f}s"
            f" peak_rss={entry['peak_rss_mb']}MiB",
            flush=True,
        )
    if profile:
        spans.disable()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_PR1.json", help="output JSON path")
    parser.add_argument(
        "--scale",
        default=os.environ.get("IREC_BENCH_SCALE", "medium"),
        choices=SCALES,
        help="end-to-end simulation scale (default: IREC_BENCH_SCALE or medium)",
    )
    parser.add_argument(
        "--periods", type=int, default=3, help="beaconing periods for the e2e stage"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="previous report (e.g. from the seed tree) to compute speedups against",
    )
    parser.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="with --baseline: exit non-zero when a stage regresses by more "
        "than PCT percent (throughput drop, or wall-time growth for stages "
        "without a throughput metric)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable phase-attributed profiling spans: print a per-stage "
        "time-attribution table and record the phases in each stage's JSON "
        "entry (adds a few percent of overhead — do not compare profiled "
        "walls against unprofiled baselines)",
    )
    args = parser.parse_args(argv)
    if args.fail_on_regression is not None and args.baseline is None:
        parser.error("--fail-on-regression requires --baseline")

    baseline = None
    if args.baseline:
        # Load up front: a bad path must fail before the expensive run.
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        baseline_scale = baseline.get("meta", {}).get("scale")
        if baseline_scale is not None and baseline_scale != args.scale:
            print(
                f"[bench] WARNING: baseline was measured at scale={baseline_scale!r}, "
                f"this run uses scale={args.scale!r}; speedups are not comparable",
                flush=True,
            )

    report = run_all(args.scale, args.periods, profile=args.profile)
    if baseline is not None:
        report["baseline_meta"] = baseline.get("meta", {})
        report["speedup_vs_baseline"] = compare_to_baseline(report, baseline)
        for name, entry in report["speedup_vs_baseline"].items():
            wall = entry.get("wall_speedup")
            throughput = entry.get("throughput_speedup")
            print(
                f"[bench] {name}: wall {wall:.2f}x" if wall else f"[bench] {name}:",
                f"throughput {throughput:.2f}x" if throughput else "",
                flush=True,
            )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {args.out}")
    if args.fail_on_regression is not None:
        regressions = find_regressions(
            report.get("speedup_vs_baseline", {}), args.fail_on_regression / 100.0
        )
        if regressions:
            for line in regressions:
                print(f"[bench] REGRESSION {line}", flush=True)
            return 1
        print(
            f"[bench] no stage regressed beyond {args.fail_on_regression:.0f}%",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
