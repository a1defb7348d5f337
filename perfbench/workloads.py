"""The benchmark's three workloads: inputs from a seed, setup, timed phase, checks.

Every workload runs as a sequence of *sessions*.  A session is one setup
(topology generation, simulation construction and, for ``serving``, a
beaconing warm-up) followed by one timed phase over a fixed amount of work,
so every session of a run does identical work and yields the same
fingerprint.  The runner (``run.py``) repeats sessions until its time budget
is spent and reports medians.

The topology is pinned (the small preset at topology seed 7) on purpose:
across generator seeds the same preset moves the PCB count by about 10%
(18.7k to 23.2k PCBs in 3 periods over seeds 1 to 8), more than the bounds
can absorb, so the workload seed derives everything *except* the graph --
the AS signing keys, the pull-based disjointness pairs, the failure storm
and watched pair, the query mix, the revocation waves and the traffic
matrix.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import time
import traceback
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.interface_groups import GeographicGroupingPolicy
from repro.core.query import PathQuery
from repro.crypto.hashing import perf_counters, reset_perf_counters
from repro.crypto.keys import KeyStore
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import revocation_storm
from repro.simulation.network import InboxProfile
from repro.simulation.scenario import (
    ScenarioConfig,
    delay_optimization_spec,
    don_scenario,
    five_shortest_paths_spec,
    heuristic_disjointness_spec,
    on_demand_spec,
    one_shortest_path_spec,
)
from repro.topology import generator
from repro.traffic import CapacityLinkModel, EcmpPolicy, TrafficEngine, hotspot_matrix
from repro.units import minutes

#: The pinned topology: the harness's "small" preset at its default seed.
#: Kept here rather than imported so that a later change to the shared
#: presets cannot silently change this benchmark's input.
TOPOLOGY = generator.TopologyConfig(
    num_ases=30,
    num_core=4,
    num_transit=9,
    core_parallel_links=2,
    transit_provider_count=2,
    stub_provider_count=2,
    peering_probability=0.15,
    max_pops_core=5,
    max_pops_transit=3,
    max_pops_stub=2,
    seed=7,
)
PERIOD_MS = minutes(10)

BEACONING_PERIODS = 2
PD_PAIRS = 2
PD_DESIRED_PATHS = 5

CHURN_PERIODS = 3
STORM_LINKS = 12
CHURN_INBOX = InboxProfile(budget_per_tick=8, capacity=256, service_interval_ms=5.0)

SERVING_WARMUP_PERIODS = 2
QUERIES_PER_AS = 24
POLICY_QUERIES_PER_AS = 8
WAVE_DRAIN_MS = 60_000.0
TRAFFIC_FLOWS = 200_000
TRAFFIC_PAIRS = 300


@dataclass
class Session:
    """What one session measured and checked.

    ``wall_s`` is the timed phase only; ``units`` counts the work done in it
    (PCBs, control messages, lookups, ...), ``phase_s`` splits the timed
    phase by step, ``lookup_us`` holds the p50 and p99 per-lookup latency
    and ``ledger`` the exact operation counts that are not call counts.
    """

    setup_s: float
    wall_s: float = 0.0
    units: Dict[str, int] = field(default_factory=dict)
    phase_s: Dict[str, float] = field(default_factory=dict)
    lookup_us: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Reasons the session as a whole (the "run" operation) failed.
    problems: List[str] = field(default_factory=list)
    fingerprint: str = ""
    ledger: Dict[str, float] = field(default_factory=dict)
    #: Set on traced sessions: the tracer, then its per-layer metrics and spans.
    tracer: Optional[object] = None
    trace: Dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    #: Set on untraced sessions: the host-speed sampler (``calibrate.py``),
    #: whose probe time the clocks leave out.  The runner then sets the
    #: median probe time and ``scale``, the factor from measured to
    #: reference seconds.
    sampler: Optional[object] = None
    probe_s: float = 0.0
    scale: float = 1.0

    def _probing_s(self) -> float:
        return self.sampler.spent_s if self.sampler is not None else 0.0

    def step(self, name: str, body: Callable[[], object]) -> object:
        """Run ``body`` as timed work; it counts to ``wall_s`` and ``phase_s[name]``."""
        phase = self.tracer.phase("timed") if self.tracer is not None else nullcontext()
        with phase:
            probing = self._probing_s()
            start = time.perf_counter()
            try:
                return body()
            finally:
                elapsed = time.perf_counter() - start - (self._probing_s() - probing)
                self.wall_s += elapsed
                self.phase_s[name] = self.phase_s.get(name, 0.0) + elapsed

    def check(self, ok: bool, message: str) -> None:
        """Count one operation as attempted, and as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across
    # processes and independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{purpose}")


def _key_store(workload: str, seed: int) -> KeyStore:
    return KeyStore(deployment_secret=f"perfbench:{workload}:{seed}".encode("ascii"))


def _digest(parts, hasher=None) -> str:
    hasher = hasher or hashlib.sha256()
    for part in parts:
        hasher.update(str(part).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _hex(digest) -> str:
    """A beacon digest as hex text, whether the program keeps it as text or bytes."""
    return digest.hex() if isinstance(digest, bytes) else digest


# ----------------------------------------------------------------------
# counters shared by all workloads
# ----------------------------------------------------------------------
def _services(simulation: BeaconingSimulation):
    return [simulation.services[as_id] for as_id in sorted(simulation.services)]


def _snapshot(simulation: BeaconingSimulation) -> Dict[str, float]:
    """Cumulative exact counters of the simulation (deltas give the ledger)."""
    collector = simulation.collector
    counts: Dict[str, float] = {
        "events": simulation.scheduler.processed_events,
        "pcbs_sent": collector.total_sent,
        "pcbs_dropped": collector.total_dropped,
        "control_msgs": collector.control_messages_total(),
        "revocation_msgs": collector.total_revocations,
        "revocation_msgs_dropped": collector.revocations_dropped,
        "inbox_dropped": collector.inbox_dropped_total(),
        "inbox_deferred": collector.inbox_deferred_total(),
        "inbox_marked": collector.inbox_marked_total(),
        "rac_rounds": len(simulation.round_reports),
    }
    totals = dict.fromkeys(
        (
            "ingress_received", "ingress_accepted", "ingress_full_verifications",
            "ingress_incremental_verifications", "ingress_signatures_checked",
            "egress_propagated", "egress_registered", "revocations_received",
            "revocations_duplicates", "query_lookups", "query_hits", "query_misses",
            "query_invalidations",
        ),
        0,
    )
    for service in _services(simulation):
        stats = service.ingress.stats
        totals["ingress_received"] += stats.received
        totals["ingress_accepted"] += stats.accepted
        totals["ingress_full_verifications"] += stats.full_verifications
        totals["ingress_incremental_verifications"] += stats.incremental_verifications
        totals["ingress_signatures_checked"] += stats.signatures_checked
        totals["egress_propagated"] += service.egress.stats.propagated
        totals["egress_registered"] += service.egress.stats.registered
        totals["revocations_received"] += service.revocations.received
        totals["revocations_duplicates"] += service.revocations.duplicates
        frontend = service.query_frontend
        totals["query_lookups"] += frontend.lookups
        totals["query_hits"] += frontend.hits
        totals["query_misses"] += frontend.misses
        totals["query_invalidations"] += frontend.invalidations
    counts.update(totals)
    return counts


def _ledger(simulation, before: Dict[str, float], round_reports_from: int) -> Dict[str, float]:
    after = _snapshot(simulation)
    ledger = {key: after[key] - before[key] for key in after}
    candidates = selections = failed_buckets = 0
    for report in simulation.round_reports[round_reports_from:]:
        for rac_report in report.rac_reports:
            candidates += rac_report.candidates
            selections += rac_report.selections
            failed_buckets += rac_report.failed_buckets
    ledger["rac_candidates"] = candidates
    ledger["rac_selections"] = selections
    ledger["rac_failed_buckets"] = failed_buckets
    for name, value in perf_counters().items():
        ledger[f"crypto_{name}"] = value
    delay = simulation.collector.queue_delay_stats()
    ledger["queue_delay_count"] = delay.get("count", 0)
    ledger["queue_delay_p99_ms"] = delay.get("p99", 0.0) if delay.get("count") else 0.0
    return ledger


def _state_digest(simulation: BeaconingSimulation) -> List[str]:
    """Each AS's sorted registered-path digests plus the collector totals."""
    parts = []
    for service in _services(simulation):
        digests = sorted(_hex(path.segment.digest()) for path in service.path_service.all_paths())
        parts.append(f"{service.as_id}:{len(digests)}:{_digest(digests)}")
    collector = simulation.collector
    parts.append(
        "collector:"
        f"{collector.total_sent},{collector.total_dropped},{collector.returned_beacons()},"
        f"{collector.total_revocations},{collector.revocations_dropped},"
        f"{collector.total_registrations},{collector.total_queries},"
        f"{collector.inbox_dropped_total()},{collector.inbox_deferred_total()},"
        f"{collector.inbox_marked_total()}"
    )
    parts.append("convergence:" + _digest([simulation.convergence.trace_text()]))
    return parts


def _audit_paths(simulation: BeaconingSimulation, session: Session) -> None:
    """Check every registered path against the topology, independently of the DBs.

    A path must start at its origin, end at the registering AS, visit no AS
    twice, cross only links of the topology and be unexpired now.
    """
    known_links = set(simulation.topology.link_ids())
    now_ms = simulation.scheduler.now_ms
    bad = []
    for service in _services(simulation):
        for path in service.path_service.all_paths():
            segment = path.segment
            as_path = segment.as_path()
            if (
                as_path[0] != segment.origin_as
                or as_path[-1] != service.as_id
                or len(set(as_path)) != len(as_path)
                or segment.is_expired(now_ms)
                or any(link not in known_links for link in segment.links())
            ):
                bad.append((service.as_id, as_path))
    if bad:
        session.problems.append(f"{len(bad)} registered paths fail the audit, e.g. {bad[:2]}")


def _timed(simulation: BeaconingSimulation, body: Callable[[], None]) -> Tuple[Dict, int]:
    """Run ``body`` (which times its own steps) with fresh crypto counters and a frozen heap.

    Returns the counter snapshot and round-report index taken before it.
    """
    reset_perf_counters()
    before = _snapshot(simulation)
    reports_from = len(simulation.round_reports)
    gc.collect()
    gc.freeze()
    try:
        body()
    finally:
        gc.unfreeze()
    return before, reports_from


# ----------------------------------------------------------------------
# beaconing: the static fast path with the paper's algorithm mix
# ----------------------------------------------------------------------
def beaconing_scenario() -> ScenarioConfig:
    """1SP, 5SP, DOB2000, HD and the on-demand RAC, signatures verified."""
    return ScenarioConfig(
        algorithms=(
            one_shortest_path_spec(),
            five_shortest_paths_spec(),
            delay_optimization_spec(extended_paths=True, rac_id="dob2000"),
            heuristic_disjointness_spec(),
            on_demand_spec(),
        ),
        grouping_policy=GeographicGroupingPolicy(radius_km=2000.0),
        periods=BEACONING_PERIODS,
        verify_signatures=True,
    )


def beaconing_setup(seed: int) -> BeaconingSimulation:
    topology = generator.generate_topology(TOPOLOGY)
    simulation = BeaconingSimulation(
        topology, beaconing_scenario(), key_store=_key_store("beaconing", seed)
    )
    rng = _rng("beaconing", seed, "pd")
    as_ids = topology.as_ids()
    for _ in range(PD_PAIRS):
        origin, target = rng.sample(as_ids, 2)
        simulation.add_pull_disjointness(origin, target, desired_paths=PD_DESIRED_PATHS)
    return simulation


def beaconing_run(simulation: BeaconingSimulation, session: Session) -> None:
    before, reports_from = _timed(simulation, lambda: session.step("run", simulation.run))
    session.ledger = _ledger(simulation, before, reports_from)
    session.units = {
        "pcbs": int(session.ledger["pcbs_sent"]),
        "control_msgs": int(session.ledger["control_msgs"]),
    }
    if session.units["pcbs"] == 0:
        session.problems.append("the run sent no PCBs")
    _audit_paths(simulation, session)
    parts = _state_digest(simulation)
    for orchestrator in simulation.orchestrators:
        parts.append(
            f"pd:{orchestrator.service.as_id}->{orchestrator.target_as}:"
            f"{orchestrator.state.value}:{orchestrator.disjoint_path_count()}"
        )
    session.fingerprint = _digest(parts)


# ----------------------------------------------------------------------
# churn: DON under a link-failure storm with bounded inboxes
# ----------------------------------------------------------------------
def churn_setup(seed: int) -> BeaconingSimulation:
    topology = generator.generate_topology(TOPOLOGY)
    scenario = don_scenario(periods=CHURN_PERIODS, verify_signatures=False)
    scenario.inbox_profile = CHURN_INBOX
    scenario.timeline.extend(
        revocation_storm(
            topology,
            count=STORM_LINKS,
            rng=_rng("churn", seed, "storm"),
            at_ms=1.5 * PERIOD_MS,
            recovery_after_ms=PERIOD_MS,
        )
    )
    simulation = BeaconingSimulation(topology, scenario, key_store=_key_store("churn", seed))
    source, destination = _rng("churn", seed, "watch").sample(topology.as_ids(), 2)
    simulation.watch_pair(source, destination)
    return simulation


def churn_run(simulation: BeaconingSimulation, session: Session) -> None:
    beaconing_run(simulation, session)
    if simulation.collector.total_revocations == 0:
        session.problems.append("the failure storm sent no revocations")


# ----------------------------------------------------------------------
# serving: closed-loop queries, revocation waves and traffic rounds
# ----------------------------------------------------------------------
@dataclass
class ServingState:
    simulation: BeaconingSimulation
    queries: List[Tuple[int, PathQuery]]
    wave_links: List
    engine: TrafficEngine


def serving_setup(seed: int) -> ServingState:
    topology = generator.generate_topology(TOPOLOGY)
    simulation = BeaconingSimulation(
        topology,
        don_scenario(periods=SERVING_WARMUP_PERIODS, verify_signatures=False),
        key_store=_key_store("serving", seed),
    )
    simulation.run()  # warm-up: populate the per-AS path services

    rng = _rng("serving", seed, "queries")
    queries: List[Tuple[int, PathQuery]] = []
    for service in _services(simulation):
        origins = sorted({p.segment.origin_as for p in service.path_service.all_paths()})
        chosen = rng.sample(origins, min(QUERIES_PER_AS, len(origins)))
        queries.extend((service.as_id, PathQuery(origin_as=origin)) for origin in chosen)
        for origin in chosen[:POLICY_QUERIES_PER_AS]:
            ceiling = rng.choice((150.0, 300.0, 600.0))
            queries.append((service.as_id, PathQuery(origin_as=origin, max_latency_ms=ceiling)))

    # One wave per link, in a seed-shuffled order: the set of failed links,
    # and so the withdrawal work, is the same for every seed.
    wave_links = sorted(topology.link_ids())
    _rng("serving", seed, "waves").shuffle(wave_links)
    traffic_rng = _rng("serving", seed, "traffic")
    matrix = hotspot_matrix(
        topology,
        total_demand_mbps=1_000_000.0,
        total_flows=TRAFFIC_FLOWS,
        hotspot_as=traffic_rng.choice(topology.as_ids()),
        hotspot_fraction=0.3,
        max_pairs=TRAFFIC_PAIRS,
        seed=traffic_rng.randrange(2**31),
    )
    engine = TrafficEngine.for_simulation(
        simulation,
        matrix,
        policy=EcmpPolicy(max_paths=2),
        link_model=CapacityLinkModel(topology, capacity_scale=0.5),
        probe_paths=False,
    )
    return ServingState(simulation, queries, wave_links, engine)


def serving_run(state: ServingState, session: Session) -> None:
    simulation = state.simulation
    scheduler = simulation.scheduler
    services = simulation.services
    collector = simulation.collector
    units = {"lookups": 0, "revocation_msgs": 0, "waves": 0, "rounds": 0, "flow_rounds": 0}
    fingerprint = hashlib.sha256(_digest(_state_digest(simulation)).encode("ascii"))
    samples = array("d")

    def lookups(now_ms: float) -> List:
        # Every AS serves its pinned query mix; each end host waits for its reply.
        clock = time.perf_counter
        results = []
        for as_id, query in state.queries:
            start = clock()
            result = services[as_id].query_frontend.query(query, now_ms)
            samples.append((clock() - start) * 1e6)
            results.append(result)
        return results

    def wave(link_id) -> None:
        simulation.link_state.fail_link(link_id)
        (as_a, _), (as_b, _) = link_id
        for as_id in sorted({as_a, as_b}):
            services[as_id].originate_revocation(now_ms=scheduler.now_ms, failed_link=link_id)
        scheduler.run_until(scheduler.now_ms + WAVE_DRAIN_MS)

    def restore(link_id, withdrawn) -> None:
        # The link comes back and the withdrawn paths are registered again,
        # as the next beaconing period would, so every cycle starts from
        # the warmed-up path stock instead of a shrinking one.
        simulation.link_state.restore_link(link_id)
        for service, path in withdrawn:
            service.path_service.register(path)

    def body() -> None:
        for link_id in state.wave_links:
            now_ms = scheduler.now_ms
            results = session.step("lookups", lambda: lookups(now_ms))
            units["lookups"] += len(results)
            for (as_id, query), result in zip(state.queries, results):
                path_service = services[as_id].path_service
                held = all(
                    path_service.get(path.segment.digest()) is path
                    and not path.segment.is_expired(now_ms)
                    and path.segment.origin_as == query.origin_as
                    for path in result.paths
                )
                session.check(held, f"AS {as_id} served a path it does not hold for {query}")
                digests = ",".join(_hex(path.segment.digest()) for path in result.paths)
                _digest(
                    [f"q{as_id}:{query.origin_as}:{query.max_latency_ms}:{digests}"], fingerprint
                )

            crossing = [
                (service, path)
                for service in _services(simulation)
                for path in service.path_service.all_paths()
                if link_id in path.segment.links()
            ]
            revocations_before = collector.total_revocations
            session.step("waves", lambda: wave(link_id))
            sent = collector.total_revocations - revocations_before
            units["waves"] += 1
            units["revocation_msgs"] += sent
            stale = sum(
                1 for service, path in crossing
                if service.path_service.get(path.segment.digest()) is not None
            )
            session.check(stale == 0, f"{stale} paths still cross revoked link {link_id}")
            session.step("waves", lambda: restore(link_id, crossing))
            _digest([f"w{link_id}:{sent}:{len(crossing)}"], fingerprint)

            sample = session.step("rounds", lambda: state.engine.run_round(scheduler.now_ms))
            units["rounds"] += 1
            units["flow_rounds"] += sample.flow_rounds
            session.check(
                math.isfinite(sample.carried_mbps)
                and -1e-6 <= sample.carried_mbps <= sample.offered_mbps + 1e-6,
                f"round carried {sample.carried_mbps} of {sample.offered_mbps} Mbps",
            )
            _digest([f"r{sample.carried_mbps!r}:{sample.blackholed_groups}"], fingerprint)

    before, reports_from = _timed(simulation, body)
    session.ledger = _ledger(simulation, before, reports_from)
    session.ledger["traffic_reroutes"] = len(state.engine.collector.reroutes)
    session.units = units
    ordered = sorted(samples)
    session.lookup_us = {
        "p50": ordered[len(ordered) // 2],
        "p99": ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
        "samples": len(ordered),
    }
    session.fingerprint = _digest(_state_digest(simulation), fingerprint)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    run: Callable[[object, Session], None]
    #: Named rates: metric -> (``units`` key, ``phase_s`` key it is timed
    #: over, or None for the whole timed phase).
    rates: Dict[str, Tuple[str, Optional[str]]]
    #: The rate reported as the benchmark's ``ops_per_s``.
    ops: str


WORKLOADS = {
    "beaconing": Workload(
        beaconing_setup, beaconing_run, {"pcbs_per_s": ("pcbs", None)}, "pcbs_per_s"
    ),
    "churn": Workload(
        churn_setup,
        churn_run,
        {"pcbs_per_s": ("pcbs", None), "control_msgs_per_s": ("control_msgs", None)},
        "control_msgs_per_s",
    ),
    "serving": Workload(
        serving_setup,
        serving_run,
        {
            "lookups_per_s": ("lookups", "lookups"),
            "revocations_per_s": ("revocation_msgs", "waves"),
            "flow_rounds_per_s": ("flow_rounds", "rounds"),
        },
        "lookups_per_s",
    ),
}


def run_session(workload: Workload, seed: int, tracer=None, sampler=None) -> Session:
    """Set up ``workload`` for ``seed`` and run its timed phase once.

    An exception anywhere fails the session's run operation instead of
    ending the benchmark, so the failure shows up in ``failed``.
    """
    session = Session(setup_s=0.0, tracer=tracer, sampler=sampler)
    try:
        phase = tracer.phase("setup") if tracer is not None else nullcontext()
        probing = session._probing_s()
        start = time.perf_counter()
        with phase:
            state = workload.setup(seed)
        session.setup_s = time.perf_counter() - start - (session._probing_s() - probing)
        workload.run(state, session)
    except Exception as error:  # noqa: BLE001 - reported as a failed operation
        session.problems.append(
            "".join(traceback.format_exception_only(type(error), error)).strip()
        )
    return session
