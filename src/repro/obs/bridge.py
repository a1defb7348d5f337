"""Bind the repo's scattered counters into the metrics registry.

Every pre-existing instrumentation surface — ``MetricsCollector`` fields,
the ``repro.crypto`` perf counters, ``SimulatedTransport`` inbox stats,
``TrafficEngine`` round stats, the scheduler heap — registers here as
*callback gauges*: the registry polls them at ``snapshot()`` time, so
binding a simulation adds **zero** hot-path cost (no simulation code path
ever calls into the registry).  One ``registry.snapshot()`` after a bind
therefore returns the whole system's state.

Callback gauges are rebound on every call (``Gauge.bind``), so binding a
fresh simulation to the process-global :data:`~repro.obs.registry.REGISTRY`
replaces a previous run's callbacks instead of reading dead objects.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.hashing import perf_counters
from repro.obs.registry import REGISTRY, MetricsRegistry

#: The crypto perf-counter keys exported as gauges (process-global,
#: cumulative — reset via ``repro.crypto.hashing.reset_perf_counters``).
CRYPTO_COUNTER_KEYS = (
    "beacon_digest",
    "beacon_encode",
    "signature_sign",
    "signature_verify",
)


def bind_crypto(registry: Optional[MetricsRegistry] = None) -> None:
    """Expose the process-global crypto perf counters as gauges."""
    registry = registry if registry is not None else REGISTRY
    for key in CRYPTO_COUNTER_KEYS:
        registry.gauge(
            f"crypto.{key}_total",
            help=f"cumulative {key} operations (process-global perf counter)",
            fn=lambda _key=key: perf_counters().get(_key, 0),
        )


def bind_simulation(simulation, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register a :class:`BeaconingSimulation`'s state surfaces; return the registry.

    Everything is a callback gauge over objects the simulation already
    maintains: collector totals, overload/aggregation ledgers, queue-delay
    distribution, per-AS inbox backlog and high-water marks, scheduler
    heap size.  Call once after constructing the simulation.
    """
    registry = registry if registry is not None else REGISTRY
    collector = simulation.collector
    scheduler = simulation.scheduler
    transport = simulation.transport
    gauge = registry.gauge

    gauge("sim.pcbs_sent_total", help="PCB transmissions recorded",
          fn=lambda: collector.total_sent)
    gauge("sim.pcbs_dropped_total", help="PCBs lost on unavailable links",
          fn=lambda: collector.total_dropped)
    gauge("sim.revocations_total", help="revocation message transmissions",
          fn=lambda: collector.total_revocations)
    gauge("sim.revocations_dropped_total", help="revocations lost in flight",
          fn=lambda: collector.revocations_dropped)
    gauge("sim.registrations_total", help="path-registration transmissions",
          fn=lambda: collector.total_registrations)
    gauge("sim.control_messages_total", help="all control-plane messages sent",
          fn=collector.control_messages_total)
    gauge("sim.returned_beacons_total", help="pull-based beacon returns",
          fn=collector.returned_beacons)
    gauge("sim.gray_dropped", label="kind",
          help="messages silently lost to degraded links, per kind",
          fn=lambda: dict(collector.gray_dropped))
    gauge("sim.periods_run", help="completed beaconing periods",
          fn=lambda: simulation.periods_run)

    # Driver-side revocation aggregation (how many simultaneous failures
    # were batched into each multi-element RevocationMessage).
    gauge("sim.revocation_batches_total",
          help="aggregated revocation originations (one flood per origin per tick)",
          fn=lambda: collector.revocation_batches)
    gauge("sim.revocation_batch_elements_total",
          help="failed elements carried by aggregated revocation originations",
          fn=lambda: collector.revocation_batch_elements)
    gauge("sim.revocation_batch_elements_max",
          help="most elements batched into one revocation origination",
          fn=lambda: collector.revocation_batch_max)
    gauge("sim.revocation_multi_batches_total",
          help="originations batching more than one simultaneous failure",
          fn=lambda: collector.revocation_multi_batches)

    # Overload accounting (bounded, rate-limited inboxes).
    gauge("fabric.inbox_dropped", label="kind",
          help="messages tail-dropped by bounded inboxes, per kind",
          fn=lambda: dict(collector.inbox_dropped))
    gauge("fabric.inbox_marked", label="kind",
          help="messages congestion-marked by bounded inboxes, per kind",
          fn=lambda: dict(collector.inbox_marked))
    gauge("fabric.inbox_deferred", label="kind",
          help="messages serviced after their arrival tick, per kind",
          fn=lambda: dict(collector.inbox_deferred))
    gauge("fabric.queue_high_water", label="as_id",
          help="deepest inbox queue observed, per AS",
          fn=lambda: {str(k): v for k, v in collector.queue_high_water_marks().items()})
    gauge("fabric.queue_delay_ms", label="stat",
          help="queueing-delay distribution of serviced messages (ms)",
          fn=collector.queue_delay_stats)
    gauge("fabric.inbox_backlog", label="as_id",
          help="delivered messages awaiting drain, per AS",
          fn=lambda: {
              str(as_id): transport.pending_messages(as_id)
              for as_id in sorted(simulation.services)
          })

    gauge("scheduler.queue_size", help="events currently on the heap",
          fn=lambda: scheduler.queue_size)
    gauge("scheduler.processed_events_total", help="events dispatched so far",
          fn=lambda: scheduler.processed_events)
    gauge("scheduler.now_ms", help="current simulated time (ms)",
          fn=lambda: scheduler.now_ms)

    # The path-query serving tier: fabric-side message counts plus the
    # per-AS frontends' serving counters, aggregated across the topology.
    gauge("query.messages_total", help="path-query message transmissions",
          fn=lambda: collector.total_queries)
    gauge("query.responses_total", help="path-query-response transmissions",
          fn=lambda: collector.total_query_responses)

    def _frontends():
        for service in simulation.services.values():
            frontend = getattr(service, "query_frontend", None)
            if frontend is not None:
                yield frontend

    def _sum(attr):
        return lambda: sum(getattr(f, attr) for f in _frontends())

    def _hit_ratio():
        lookups = hits = 0
        for frontend in _frontends():
            lookups += frontend.lookups
            hits += frontend.hits
        return hits / lookups if lookups else 0.0

    gauge("query.lookups_total", help="path lookups served by query frontends",
          fn=_sum("lookups"))
    gauge("query.cache_hits_total", help="lookups served from the response cache",
          fn=_sum("hits"))
    gauge("query.cache_misses_total", help="lookups that materialized a response",
          fn=_sum("misses"))
    gauge("query.cache_invalidations_total",
          help="cached responses dropped by registration/withdrawal/expiry",
          fn=_sum("invalidations"))
    gauge("query.cache_evictions_total", help="cached responses evicted by the LRU bound",
          fn=_sum("evictions"))
    gauge("query.negative_hits_total", help="lookups served from cached empty responses",
          fn=_sum("negative_hits"))
    gauge("query.negative_inserts_total", help="empty responses cached as negative entries",
          fn=_sum("negative_inserts"))
    gauge("query.cache_hit_ratio", help="hits over lookups across all frontends",
          fn=_hit_ratio)

    bind_crypto(registry)
    return registry


def bind_query_frontend(
    frontend, name: str = "query", registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Register one :class:`PathQueryFrontend`'s counters; return the registry.

    For standalone serving setups (benchmarks, unit harnesses) that have a
    frontend without a full simulation around it.
    """
    registry = registry if registry is not None else REGISTRY
    gauge = registry.gauge
    gauge(f"{name}.lookups_total", help="path lookups served",
          fn=lambda: frontend.lookups)
    gauge(f"{name}.cache_hits_total", help="lookups served from cache",
          fn=lambda: frontend.hits)
    gauge(f"{name}.cache_misses_total", help="lookups that materialized",
          fn=lambda: frontend.misses)
    gauge(f"{name}.cache_invalidations_total", help="cached responses invalidated",
          fn=lambda: frontend.invalidations)
    gauge(f"{name}.cache_hit_ratio", help="hits over lookups",
          fn=lambda: frontend.cache_hit_ratio)
    gauge(f"{name}.cache_size", help="materialized responses currently cached",
          fn=lambda: frontend.cache_size)
    return registry


def bind_traffic_engine(engine, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register a :class:`TrafficEngine`'s round stats; return the registry."""
    registry = registry if registry is not None else REGISTRY
    collector = engine.collector
    gauge = registry.gauge

    gauge("traffic.rounds_run", help="traffic rounds executed",
          fn=lambda: engine.rounds_run)
    gauge("traffic.flow_rounds_total", help="flow-rounds simulated",
          fn=lambda: engine.rounds_run * engine.total_flows())

    def _last(attr):
        def read():
            samples = collector.samples
            return getattr(samples[-1], attr) if samples else 0.0
        return read

    gauge("traffic.offered_mbps", help="offered demand of the latest round",
          fn=_last("offered_mbps"))
    gauge("traffic.carried_mbps", help="carried traffic of the latest round",
          fn=_last("carried_mbps"))
    gauge("traffic.blackholed_groups", help="groups without a usable path",
          fn=_last("blackholed_groups"))
    gauge("traffic.max_link_utilization", help="peak link utilization",
          fn=_last("max_link_utilization"))
    return registry
