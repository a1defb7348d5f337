"""The periodic beaconing driver.

This module glues the topology, the control services and the simulated
transport into the experiment the paper runs: every AS originates PCBs and
runs its RACs once per propagation interval (ten simulated minutes), PCBs
travel with link propagation delays, and after a configurable number of
periods the registered paths and transmission counts are available for the
Figure-8 analyses.

The driver also hosts pull-based disjointness orchestrators, advancing them
after every period so that the PD experiment can run inside the same
simulation.

Dynamic scenarios add a timeline of typed events
(:mod:`repro.simulation.events`) that the driver schedules on its
discrete-event scheduler, so a link failure scheduled mid-period really
interrupts propagation: in-flight PCBs on the link are lost, the ASes
adjacent to the failure originate signed
:class:`~repro.core.messages.RevocationMessage`\\ s that flood hop-by-hop
through the simulated transport (each AS withdraws state crossing the
failed element when the revocation *arrives*, then re-forwards it), and
the :class:`~repro.simulation.collector.ConvergenceCollector` measures how
watched AS pairs recover over the following periods — with withdrawal
timing now topology-dependent instead of instantaneous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.control_service import ControlServiceConfig, IrecControlService, RoundReport
from repro.core.local_view import LocalTopologyView
from repro.core.messages import RevocationMessage
from repro.core.pull import PullBasedDisjointnessOrchestrator, PullState
from repro.crypto.keys import KeyStore
from repro.exceptions import ConfigurationError, SimulationError, UnknownASError
from repro.obs import spans as _spans
from repro.scion.legacy import LegacyControlService
from repro.simulation.collector import ConvergenceCollector, MetricsCollector
from repro.simulation.engine import EventScheduler
from repro.simulation.events import (
    ASJoin,
    ASLeave,
    BeaconFlood,
    BeaconPeriodChange,
    ForwardingSuppression,
    GrayFailure,
    GrayRecovery,
    LinkFailure,
    LinkFlap,
    LinkRecovery,
    PolicySwap,
    RACSwap,
    RevocationForgery,
    RevocationReplay,
    ServiceRateChange,
    TimedEvent,
    TopologyGrowth,
)
from repro.simulation.failures import LinkState
from repro.simulation.network import SimulatedTransport
from repro.simulation.scenario import AlgorithmSpec, ScenarioConfig
from repro.topology.entities import ASInfo, Interface, Link
from repro.topology.geo import GeoCoordinate
from repro.topology.graph import Topology
from repro.topology.intra_domain import IntraDomainRegistry

#: A control service of either flavour.
AnyControlService = Union[IrecControlService, LegacyControlService]


@dataclass
class SimulationResult:
    """Everything a finished simulation exposes to the analysis code."""

    topology: Topology
    services: Dict[int, AnyControlService]
    collector: MetricsCollector
    round_reports: List[RoundReport] = field(default_factory=list)
    periods_run: int = 0
    final_time_ms: float = 0.0
    convergence: ConvergenceCollector = field(default_factory=ConvergenceCollector)
    link_state: LinkState = field(default_factory=LinkState)

    def service(self, as_id: int) -> AnyControlService:
        """Return the control service of ``as_id``."""
        try:
            return self.services[as_id]
        except KeyError:
            raise UnknownASError(as_id) from None

    def registered_paths(self, at_as: int, origin_as: int):
        """Return the paths registered at ``at_as`` towards ``origin_as``."""
        return self.service(at_as).path_service.paths_to(origin_as)


class BeaconingSimulation:
    """Drives periodic beaconing over a topology according to a scenario."""

    def __init__(
        self,
        topology: Topology,
        scenario: ScenarioConfig,
        key_store: Optional[KeyStore] = None,
        intra_domain: Optional[IntraDomainRegistry] = None,
    ) -> None:
        self.topology = topology
        self.scenario = scenario
        self.key_store = key_store or KeyStore()
        self.intra_domain = intra_domain or IntraDomainRegistry()
        self.scheduler = EventScheduler()
        self.collector = MetricsCollector(period_ms=scenario.propagation_interval_ms)
        self.link_state = LinkState()
        self.convergence = ConvergenceCollector()
        for as_id in scenario.inbox_profiles:
            if as_id not in topology:
                raise ConfigurationError(
                    f"inbox_profiles targets unknown AS {as_id}"
                )
        self.transport = SimulatedTransport(
            topology=topology,
            scheduler=self.scheduler,
            collector=self.collector,
            processing_delay_ms=scenario.processing_delay_ms,
            link_state=self.link_state,
            batch_size=scenario.inbox_batch_size,
            inbox_profile=scenario.inbox_profile,
            inbox_profiles=dict(scenario.inbox_profiles),
            loss_seed=scenario.loss_seed,
        )
        self.services: Dict[int, AnyControlService] = {}
        self.orchestrators: List[PullBasedDisjointnessOrchestrator] = []
        self.round_reports: List[RoundReport] = []
        self.watched_pairs: List[Tuple[int, int]] = []
        #: Callbacks ``(event, now_ms)`` invoked after a timeline event has
        #: been applied; the traffic engine subscribes here so failures
        #: break active flows the instant they fire.
        self.event_listeners: List = []
        #: Callbacks ``(as_id, message, removed, now_ms)`` invoked when a
        #: revocation message withdraws state at one AS — i.e. when the
        #: flood *reaches* that AS, not when the failure fired.  The
        #: traffic engine subscribes here to break flows at withdrawal
        #: time.
        self.revocation_listeners: List = []
        #: Callbacks ``(now_ms,)`` invoked at the end of every completed
        #: beaconing period — the observatory's time-series sampler hook.
        #: Fired once per period (never on a message path) and after all
        #: convergence/overload bookkeeping, so listeners observe the
        #: period's final state and cannot perturb golden traces.
        self.period_listeners: List = []
        self._periods_run = 0
        self._interval_ms = scenario.propagation_interval_ms
        self._next_period_start_ms = 0.0
        self._horizon_reached = False
        self._deferred_events: List[TimedEvent] = []
        #: Failures queued by same-tick events for aggregated revocation
        #: origination: one flush per tick batches co-owned failures into
        #: multi-element messages (one flood per origin, not per element).
        self._pending_failed_links: List[Tuple] = []
        self._pending_failed_ases: List[int] = []
        #: time_ms → scheduled timeline events not yet applied at that
        #: time; the flush runs when the last same-time event finishes.
        self._scheduled_event_counts: Dict[float, int] = {}
        self._applying_deferred = False
        #: (dropped, marked, deferred) totals at the last period boundary,
        #: for per-period overload trace deltas.
        self._overload_snapshot = (0, 0, 0)
        #: Per-AS deployed RAC specs, kept in sync by RACSwap so a churned
        #: AS can be cold-restarted with its *current* deployment.
        self._deployed_specs: Dict[int, Dict[str, AlgorithmSpec]] = {}
        self._build_services()
        self._schedule_timeline()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_services(self) -> None:
        for as_info in self.topology:
            self._build_service(as_info)

    def _build_service(self, as_info: ASInfo) -> AnyControlService:
        """Build, wire and register the control service of one AS.

        Shared by initial construction and mid-run growth churn
        (:class:`~repro.simulation.events.TopologyGrowth`), so a grown AS
        gets exactly the deployment a founding AS would.
        """
        view = LocalTopologyView.from_topology(
            self.topology,
            as_info.as_id,
            intra_domain=self.intra_domain.model_for(as_info),
        )
        if as_info.as_id in set(self.scenario.legacy_ases):
            service: AnyControlService = LegacyControlService(
                view=view,
                key_store=self.key_store,
                transport=self.transport,
                verify_signatures=self.scenario.verify_signatures,
            )
        else:
            service = IrecControlService(
                view=view,
                key_store=self.key_store,
                transport=self.transport,
                grouping_policy=self.scenario.grouping_policy,
                config=ControlServiceConfig(
                    verify_signatures=self.scenario.verify_signatures,
                    revocation_dedup_window_ms=self.scenario.revocation_dedup_window_ms,
                    register_down_segments=self.scenario.register_down_segments,
                ),
            )
            specs = self._deployed_specs.setdefault(as_info.as_id, {})
            for spec in self.scenario.algorithms:
                self._install_rac(service, spec)
                specs[spec.rac_id] = spec
        service.revocations.dedup_window_ms = self.scenario.revocation_dedup_window_ms
        # The serving tier reads simulated time from the scheduler, so
        # cached query responses expire on the simulation's clock.
        service.query_frontend.clock = lambda: self.scheduler.now_ms
        service.on_withdrawal = self._withdrawal_notifier(as_info.as_id)
        self.services[as_info.as_id] = service
        self.transport.register(service)
        return service

    @staticmethod
    def _install_rac(service: IrecControlService, spec: AlgorithmSpec) -> None:
        """Install one RAC described by ``spec`` (deployment and hot-swap)."""
        if spec.on_demand:
            service.add_on_demand_rac(
                rac_id=spec.rac_id,
                max_paths_per_interface=spec.max_paths_per_interface,
                registration_limit=spec.registration_limit,
            )
        else:
            assert spec.factory is not None  # validated by AlgorithmSpec
            service.add_static_rac(
                rac_id=spec.rac_id,
                algorithm=spec.factory(),
                max_paths_per_interface=spec.max_paths_per_interface,
                registration_limit=spec.registration_limit,
                use_interface_groups=spec.use_interface_groups,
                use_targets=spec.use_targets,
            )

    def _schedule_timeline(self) -> None:
        """Schedule every timeline event on the discrete-event scheduler.

        Events beyond the simulated horizon (``periods`` × interval, as
        modified by period changes) do not fire during the run; ones
        landing in the final in-flight flush window are deferred to the
        next ``run()`` (if any).  Events sharing a timestamp with PCB
        deliveries apply first: they were scheduled earlier, and the
        scheduler breaks ties FIFO.

        The timeline is validated first: impossible schedules (a recovery
        of a link that was never failed, a rejoin of an AS that never
        left) raise :class:`~repro.exceptions.ConfigurationError` here
        instead of silently no-opping mid-run.
        """
        self.scenario.timeline.validate(self.topology)
        grown_ases = {
            timed.event.new_as
            for timed in self.scenario.timeline
            if isinstance(timed.event, TopologyGrowth)
        }
        for timed in self.scenario.timeline:
            link_kinds = (LinkFailure, LinkRecovery, LinkFlap, GrayFailure, GrayRecovery)
            if isinstance(timed.event, link_kinds) and timed.event.link_id not in self.topology.links:
                raise SimulationError(
                    f"timeline event {timed.trace_label()!r} references an unknown link"
                )
            if isinstance(timed.event, (ASLeave, ASJoin)) and timed.event.as_id not in self.topology:
                raise SimulationError(
                    f"timeline event {timed.trace_label()!r} references an unknown AS"
                )
            if isinstance(timed.event, (PolicySwap, RACSwap)) and timed.event.as_ids is not None:
                for as_id in timed.event.as_ids:
                    if as_id not in self.services:
                        raise SimulationError(
                            f"timeline event {timed.trace_label()!r} targets unknown AS {as_id}"
                        )
            if isinstance(timed.event, RevocationForgery):
                if timed.event.link_id not in self.topology.links:
                    raise SimulationError(
                        f"timeline event {timed.trace_label()!r} references an unknown link"
                    )
                byzantine_targets = (timed.event.attacker_as, timed.event.claimed_origin)
            elif isinstance(timed.event, RevocationReplay):
                byzantine_targets = (timed.event.attacker_as,)
            elif isinstance(timed.event, ForwardingSuppression):
                byzantine_targets = timed.event.as_ids
            else:
                byzantine_targets = ()
            for as_id in byzantine_targets:
                # Grown ASes are legitimate targets once their growth
                # event has fired; the timeline validator enforces the
                # ordering, so membership alone suffices here.
                if as_id not in self.topology and as_id not in grown_ases:
                    raise SimulationError(
                        f"timeline event {timed.trace_label()!r} targets unknown AS {as_id}"
                    )
            self._scheduled_event_counts[timed.time_ms] = (
                self._scheduled_event_counts.get(timed.time_ms, 0) + 1
            )
            self.scheduler.schedule_at(
                timed.time_ms,
                lambda now_ms, _timed=timed: self._apply_event(_timed, now_ms),
            )

    # ------------------------------------------------------------------
    # orchestrators (pull-based disjointness)
    # ------------------------------------------------------------------
    def add_pull_disjointness(
        self,
        origin_as: int,
        target_as: int,
        desired_paths: int = 20,
        seed_paths: Sequence = (),
    ) -> PullBasedDisjointnessOrchestrator:
        """Attach a PD orchestrator at ``origin_as`` towards ``target_as``."""
        service = self.services.get(origin_as)
        if not isinstance(service, IrecControlService):
            raise ConfigurationError(
                f"AS {origin_as} does not run IREC and cannot originate pull-based beacons"
            )
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=service,
            target_as=target_as,
            desired_paths=desired_paths,
            seed_paths=tuple(seed_paths),
        )
        self.orchestrators.append(orchestrator)
        return orchestrator

    # ------------------------------------------------------------------
    # dynamic events and convergence
    # ------------------------------------------------------------------
    def watch_pair(self, source_as: int, destination_as: int) -> None:
        """Track convergence of the paths registered at ``source_as``
        towards ``destination_as`` across dynamic events."""
        for as_id in (source_as, destination_as):
            if as_id not in self.topology:
                raise UnknownASError(as_id)
        pair = (source_as, destination_as)
        if pair not in self.watched_pairs:
            self.watched_pairs.append(pair)

    def add_event_listener(self, listener) -> None:
        """Register a ``(event, now_ms)`` callback fired after each applied
        timeline event (failures, recoveries, churn, swaps)."""
        self.event_listeners.append(listener)

    def add_period_listener(self, listener) -> None:
        """Register a ``(now_ms,)`` callback fired at every period end."""
        self.period_listeners.append(listener)

    @property
    def periods_run(self) -> int:
        """Return how many beaconing periods have completed so far."""
        return self._periods_run

    def usable_path_count(self, source_as: int, destination_as: int) -> int:
        """Return how many registered paths of the pair are usable right now.

        A registered path is usable when the watched endpoints are online
        and every inter-domain link on its segment is currently available.
        """
        if not (self.link_state.is_as_up(source_as) and self.link_state.is_as_up(destination_as)):
            return 0
        paths = self.services[source_as].path_service.paths_to(destination_as)
        return sum(
            1 for path in paths if self.link_state.path_available(path.segment.links())
        )

    def _watched_counts(self) -> Dict[Tuple[int, int], int]:
        return {
            pair: self.usable_path_count(*pair) for pair in self.watched_pairs
        }

    def _usable_registration_times(
        self, source_as: int, destination_as: int
    ) -> Tuple[float, ...]:
        """Return when each currently *usable* path of the pair appeared.

        The sub-period recovery timestamps.  First-registration times are
        used on purpose: a withdrawn path that returns is a fresh entry
        (its ``registered_at_ms`` post-dates the disruption), while a
        surviving path that is merely re-registered keeps its original
        timestamp — so routine periodic merges can never back-date a
        recovery (``last_registered_at_ms`` is refreshed by exactly those
        merges and would).
        """
        if not (self.link_state.is_as_up(source_as) and self.link_state.is_as_up(destination_as)):
            return ()
        return tuple(
            path.registered_at_ms
            for path in self.services[source_as].path_service.paths_to(destination_as)
            if self.link_state.path_available(path.segment.links())
        )

    def _apply_event(self, timed: TimedEvent, now_ms: float) -> None:
        """Apply one timeline event and feed the convergence collector."""
        if self._horizon_reached:
            # Events landing in the final in-flight flush (just past the
            # last period) are beyond the simulated horizon: no period of
            # this run would observe their effects.  They are deferred, not
            # dropped, so a later run() continuing the simulation still
            # applies them (at the start of its first period).
            self._deferred_events.append(timed)
            self._finish_event(timed, now_ms)
            return
        before = self._watched_counts()
        event = timed.event
        if isinstance(event, LinkFailure):
            self.link_state.fail_link(event.link_id)
            self._queue_revocations(failed_link=event.link_id)
        elif isinstance(event, LinkRecovery):
            self.link_state.restore_link(event.link_id)
            # The element is alive again: every service forgets its
            # negative-cache entry so fresh beacons over it are admitted
            # instead of bounced.
            for service in self._services_in_order():
                service.revocations.clear_revoked_link(event.link_id)
        elif isinstance(event, ASLeave):
            self.link_state.set_as_offline(event.as_id)
            # The departing AS restarts cold; its neighbours detect the
            # loss and originate revocations, so everyone *reachable*
            # withdraws state crossing it as the flood arrives.
            self._cold_restart(self.services[event.as_id])
            self._queue_revocations(failed_as=event.as_id)
        elif isinstance(event, ASJoin):
            self.link_state.set_as_online(event.as_id)
            for service in self._services_in_order():
                service.revocations.clear_revoked_as(event.as_id)
        elif isinstance(event, ServiceRateChange):
            targets = (
                sorted(event.as_ids)
                if event.as_ids is not None
                else sorted(self.services)
            )
            for as_id in targets:
                self.transport.set_inbox_budget(as_id, event.budget_per_tick)
        elif isinstance(event, BeaconFlood):
            if self.link_state.is_as_up(event.attacker_as):
                attacker = self.services[event.attacker_as]
                for _ in range(event.bursts):
                    attacker.originate(now_ms=now_ms)
        elif isinstance(event, PolicySwap):
            # Both service flavours expose set_policies (the legacy ingress
            # gateway honours admission policies too).
            for service in self._event_targets(event.as_ids):
                service.set_policies(list(event.policies))
        elif isinstance(event, RACSwap):
            for service in self._event_targets(event.as_ids):
                if not isinstance(service, IrecControlService):
                    if event.as_ids is None:
                        continue  # broadcast swaps skip legacy ASes
                    raise SimulationError(
                        f"RAC swap explicitly targets AS {service.as_id}, "
                        "which runs the legacy control service"
                    )
                if not service.remove_rac(event.target_rac_id):
                    if event.as_ids is None:
                        # Broadcast swaps tolerate ASes that (no longer)
                        # deploy the target RAC — e.g. after an earlier
                        # per-AS swap — just as they tolerate legacy ASes.
                        continue
                    raise SimulationError(
                        f"RAC swap targets {event.target_rac_id!r}, which is not "
                        f"deployed at AS {service.as_id}"
                    )
                self._install_rac(service, event.spec)
                specs = self._deployed_specs.setdefault(service.as_id, {})
                specs.pop(event.target_rac_id, None)
                specs[event.spec.rac_id] = event.spec
        elif isinstance(event, BeaconPeriodChange):
            self._interval_ms = event.interval_ms
        elif isinstance(event, LinkFlap):
            self._start_flap(event, now_ms)
        elif isinstance(event, GrayFailure):
            # Deliberately *no* revocation, no negative caching and no
            # availability change: the fault is silent by definition, so
            # the control plane keeps advertising paths across the link
            # and only end-host-observed quality reveals it.
            self.link_state.set_gray(event.link_id, event.drop_rate)
        elif isinstance(event, GrayRecovery):
            self.link_state.clear_gray(event.link_id)
        elif isinstance(event, RevocationForgery):
            if self.link_state.is_as_up(event.attacker_as):
                self._forge_revocations(event, now_ms)
        elif isinstance(event, RevocationReplay):
            if self.link_state.is_as_up(event.attacker_as):
                self._replay_revocations(event)
        elif isinstance(event, ForwardingSuppression):
            for as_id in sorted(event.as_ids):
                self.services[as_id].set_revocation_forwarding(not event.suppress)
        elif isinstance(event, TopologyGrowth):
            self._grow_topology(event)
        else:
            raise SimulationError(f"unsupported scenario event {event!r}")

        after = self._watched_counts()
        self.convergence.on_event(
            event_label=event.trace_label(),
            now_ms=now_ms,
            pair_paths={pair: (before[pair], after[pair]) for pair in before},
            messages_total=self.collector.control_messages_total(),
        )
        for listener in self.event_listeners:
            listener(event, now_ms)
        self._finish_event(timed, now_ms)

    def _finish_event(self, timed: TimedEvent, now_ms: float) -> None:
        """Flush queued revocations once the tick's last event has applied.

        The flush must run before any *other* same-time scheduler callback
        (traffic rounds, drains) observes the failures, so it happens
        synchronously here — once the per-time counter built by
        :meth:`_schedule_timeline` says no further timeline event shares
        this timestamp.  During a deferred-event replay the caller
        (:meth:`run_period`) flushes once after the whole batch instead.
        """
        remaining = self._scheduled_event_counts.get(timed.time_ms, 1) - 1
        if remaining > 0:
            self._scheduled_event_counts[timed.time_ms] = remaining
            return
        self._scheduled_event_counts.pop(timed.time_ms, None)
        if self._applying_deferred:
            return
        if self._pending_failed_links or self._pending_failed_ases:
            self._flush_revocations(now_ms)

    def _cold_restart(self, service: AnyControlService) -> None:
        """Wipe a departing AS's volatile control-plane state.

        A churned AS comes back as a freshly booted deployment: empty
        ingress database and path service, a cold verified-prefix cache
        and — for IREC ASes — freshly instantiated RACs of its current
        deployment (algorithm state must not survive the restart).
        """
        service.ingress.database.remove_matching(lambda _stored: True)
        service.path_service.remove_matching(lambda _path: True)
        service.ingress.verified_prefixes.clear()
        if isinstance(service, IrecControlService):
            service.pull_results.clear()
            for spec in self._deployed_specs.get(service.as_id, {}).values():
                service.remove_rac(spec.rac_id)
                self._install_rac(service, spec)

    def _event_targets(self, as_ids: Optional[Tuple[int, ...]]) -> List[AnyControlService]:
        if as_ids is None:
            return self._services_in_order()
        for as_id in as_ids:
            if as_id not in self.services:
                raise UnknownASError(as_id)
        return [self.services[as_id] for as_id in sorted(as_ids)]

    def _queue_revocations(
        self, failed_link: Optional[Tuple] = None, failed_as: Optional[int] = None
    ) -> None:
        """Queue a failure for aggregated revocation origination.

        Failures are not revoked one message per element: every failure of
        the current scheduler tick is collected, and one flush — run by
        :meth:`_finish_event` after the tick's last timeline event — has
        each adjacent AS originate a single
        :class:`~repro.core.messages.RevocationMessage` batching *all*
        the elements it detected.  A revocation storm of N simultaneous
        failures therefore costs each origin one flood, not N.
        """
        if failed_link is not None:
            self._pending_failed_links.append(failed_link)
        if failed_as is not None:
            self._pending_failed_ases.append(failed_as)

    def _flush_revocations(self, now_ms: float) -> None:
        """Originate the queued failures' revocations, one message per origin.

        The endpoints of each failed link (and the neighbours of each
        departed AS) detect those failures locally: each origin withdraws
        its own state immediately and floods one signed message naming
        every element it detected this tick, hop-by-hop through the
        transport.  Every other AS withdraws when (and if) a copy arrives
        — replacing the old instantaneous counter flood with real,
        propagation-limited control-plane traffic.
        """
        failed_links, self._pending_failed_links = self._pending_failed_links, []
        failed_ases, self._pending_failed_ases = self._pending_failed_ases, []
        per_origin: Dict[int, Tuple[List[Tuple], List[int]]] = {}
        for link in failed_links:
            (as_a, _if_a), (as_b, _if_b) = link
            for as_id in sorted({as_a, as_b}):
                per_origin.setdefault(as_id, ([], []))[0].append(link)
        for gone_as in failed_ases:
            for as_id in self.topology.neighbors(gone_as):
                per_origin.setdefault(as_id, ([], []))[1].append(gone_as)
        for as_id in sorted(per_origin):
            if not self.link_state.is_as_up(as_id):
                continue
            links, ases = per_origin[as_id]
            self.collector.record_revocation_batch(len(links) + len(ases))
            self.services[as_id].originate_revocation(
                now_ms=now_ms,
                failed_links=tuple(links),
                failed_ases=tuple(ases),
            )

    # ------------------------------------------------------------------
    # adversarial & gray-failure events
    # ------------------------------------------------------------------
    def _start_flap(self, event: LinkFlap, now_ms: float) -> None:
        """Install a flap's loss rates and schedule its on/off toggles.

        Each toggle replays the full :class:`LinkFailure` /
        :class:`LinkRecovery` machinery (revocation origination, negative
        cache clearing, convergence records, listeners) via
        :meth:`_apply_event`, so a flapping link is loud exactly like a
        scripted failure.  Toggle times are registered in the per-tick
        event counter first, keeping the aggregated revocation flush
        correct when a toggle shares a tick with other timeline events.
        """
        key = event.link_id
        (as_a, _if_a), (as_b, _if_b) = key
        if event.loss_ab:
            self.link_state.set_link_loss(key, as_b, event.loss_ab)
        if event.loss_ba:
            self.link_state.set_link_loss(key, as_a, event.loss_ba)
        if event.loss_ab or event.loss_ba:
            if event.duration_ms is not None:
                clear_at = now_ms + event.duration_ms
            else:
                clear_at = now_ms + event.schedule[-1]
            self.scheduler.schedule_at(
                clear_at,
                lambda _t, _key=key: self.link_state.clear_link_loss(_key),
            )
        for index, offset in enumerate(event.schedule):
            toggle = (
                LinkFailure(link_id=key) if index % 2 == 0 else LinkRecovery(link_id=key)
            )
            timed_toggle = TimedEvent(time_ms=now_ms + offset, event=toggle)
            self._scheduled_event_counts[timed_toggle.time_ms] = (
                self._scheduled_event_counts.get(timed_toggle.time_ms, 0) + 1
            )
            self.scheduler.schedule_at(
                timed_toggle.time_ms,
                lambda t, _timed=timed_toggle: self._apply_event(_timed, t),
            )

    def _forge_revocations(self, event: RevocationForgery, now_ms: float) -> None:
        """Inject revocations that claim another AS's identity.

        The attacker signs with its *own* key while naming
        ``claimed_origin`` as the message origin, so receivers that verify
        signatures reject every copy (``rejected_invalid``) without
        marking it seen and without withdrawing anything; with
        verification disabled the forgery succeeds — the scenario knob for
        quantifying what signature checking buys.
        """
        attacker = self.services[event.attacker_as]
        send = self.transport.send_message
        interface_ids = attacker.view.interface_ids()
        for index in range(event.count):
            forged = RevocationMessage(
                origin_as=event.claimed_origin,
                sequence=event.sequence_base + index,
                created_at_ms=now_ms,
                failed_link=event.link_id,
            ).signed(attacker.builder.signer)
            for interface_id in interface_ids:
                send(event.attacker_as, interface_id, forged)

    def _replay_revocations(self, event: RevocationReplay) -> None:
        """Re-flood revocations the attacker has already processed.

        Replayed copies carry their original authentic signatures and
        ``(origin, sequence)`` keys, so honest receivers inside the dedup
        window drop them as ``duplicates`` — no state changes, only
        counter noise.  Cached messages are replayed in sorted key order
        (cycling when ``count`` exceeds the cache), keeping the injected
        traffic deterministic.
        """
        attacker = self.services[event.attacker_as]
        state = attacker.revocations
        cached: Dict[Tuple[int, int], RevocationMessage] = {}
        for message, _cached_at in state.revoked_links.values():
            cached[message.key] = message
        for message, _cached_at in state.revoked_ases.values():
            cached[message.key] = message
        if not cached:
            return
        replayable = [cached[key] for key in sorted(cached)]
        send = self.transport.send_message
        interface_ids = attacker.view.interface_ids()
        for index in range(event.count):
            message = replayable[index % len(replayable)]
            for interface_id in interface_ids:
                send(event.attacker_as, interface_id, message)

    def _grow_topology(self, event: TopologyGrowth) -> None:
        """Grow the topology: a brand-new AS attaches and comes online.

        Adds the AS and its links to the live topology, patches the
        attachment ASes' local views (their next origination round uses
        the new interface), and builds + registers a control service so
        the newcomer participates from the next beaconing period on.
        """
        latitude, longitude = event.location
        location = GeoCoordinate(latitude=latitude, longitude=longitude)
        new_info = ASInfo(as_id=event.new_as, name=f"grown-{event.new_as}")
        for index in range(1, len(event.attach_to) + 1):
            new_info.add_interface(
                Interface(as_id=event.new_as, interface_id=index, location=location)
            )
        self.topology.add_as(new_info)
        for index, neighbor_as in enumerate(event.attach_to, start=1):
            neighbor_info = self.topology.as_info(neighbor_as)
            neighbor_if = max(neighbor_info.interfaces, default=0) + 1
            existing = neighbor_info.interface_ids()
            neighbor_location = (
                neighbor_info.interface(existing[0]).location if existing else location
            )
            neighbor_info.add_interface(
                Interface(
                    as_id=neighbor_as,
                    interface_id=neighbor_if,
                    location=neighbor_location,
                )
            )
            link = Link(
                interface_a=(event.new_as, index),
                interface_b=(neighbor_as, neighbor_if),
                latency_ms=event.latency_ms,
                bandwidth_mbps=event.bandwidth_mbps,
                relationship=event.relationship,
            )
            self.topology.add_link(link)
            self.services[neighbor_as].view.attach_link(neighbor_if, link)
        self._build_service(new_info)

    def add_revocation_listener(self, listener) -> None:
        """Register an ``(as_id, message, removed, now_ms)`` callback fired
        whenever a revocation message withdraws state at an AS."""
        self.revocation_listeners.append(listener)

    def _withdrawal_notifier(self, as_id: int):
        """Return the per-service withdrawal callback fanning out to listeners."""

        def notify(message, removed, now_ms: float, _as_id=as_id) -> None:
            for listener in self.revocation_listeners:
                listener(_as_id, message, removed, now_ms)

        return notify

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_period(self) -> List[RoundReport]:
        """Run one complete beaconing period.

        The period consists of: origination at every AS, delivery of all
        in-flight PCBs (their latencies are tiny compared to the period),
        one RAC round at every AS, another delivery phase so that freshly
        propagated PCBs reach their neighbours before the period ends, and
        finally an advancement step for every pull orchestrator.

        Timeline events fire inside the delivery phases (the scheduler
        processes them in time order with in-flight PCBs), offline ASes
        neither originate nor run rounds, and at the period boundary every
        watched pair is probed for convergence.  A period change applies
        from the next period onwards.
        """
        period_start_ms = self._next_period_start_ms
        mid_period_ms = period_start_ms + self._interval_ms / 2.0
        period_end_ms = period_start_ms + self._interval_ms

        self.scheduler.run_until(period_start_ms)
        if self._deferred_events:
            # Events deferred by a previous run()'s flush apply now, at the
            # first instant a period can observe them.
            deferred, self._deferred_events = self._deferred_events, []
            self._applying_deferred = True
            try:
                for timed in deferred:
                    self._apply_event(timed, self.scheduler.now_ms)
            finally:
                self._applying_deferred = False
            if self._pending_failed_links or self._pending_failed_ases:
                self._flush_revocations(self.scheduler.now_ms)
        with _spans.span("sim.originate"):
            for service in self._services_in_order():
                if self.link_state.is_as_up(service.as_id):
                    service.originate(now_ms=self.scheduler.now_ms)
        self.scheduler.run_until(mid_period_ms)

        reports: List[RoundReport] = []
        with _spans.span("sim.rac_round"):
            for service in self._services_in_order():
                if not self.link_state.is_as_up(service.as_id):
                    continue
                report = service.run_round(now_ms=self.scheduler.now_ms)
                if isinstance(report, RoundReport):
                    reports.append(report)
        self.scheduler.run_until(period_end_ms)

        for orchestrator in self.orchestrators:
            if not self.link_state.is_as_up(orchestrator.service.as_id):
                continue
            if orchestrator.state is PullState.IDLE:
                orchestrator.start(now_ms=self.scheduler.now_ms)
            else:
                orchestrator.advance(now_ms=self.scheduler.now_ms)

        if self.watched_pairs:
            self.convergence.on_period_end(
                now_ms=self.scheduler.now_ms,
                pair_paths=self._watched_counts(),
                messages_total=self.collector.control_messages_total(),
                pair_registered_at={
                    pair: self._usable_registration_times(*pair)
                    for pair in self.watched_pairs
                },
            )

        snapshot = (
            self.collector.inbox_dropped_total(),
            self.collector.inbox_marked_total(),
            self.collector.inbox_deferred_total(),
        )
        if snapshot != self._overload_snapshot:
            previous = self._overload_snapshot
            self._overload_snapshot = snapshot
            # Only overloaded periods emit a trace line, so unlimited runs
            # (the PR-5 default) keep a bit-identical golden trace.
            self.convergence.on_overload(
                self.scheduler.now_ms,
                dropped=snapshot[0] - previous[0],
                marked=snapshot[1] - previous[1],
                deferred=snapshot[2] - previous[2],
            )

        self.round_reports.extend(reports)
        self._periods_run += 1
        self._next_period_start_ms = period_end_ms
        for listener in self.period_listeners:
            listener(self.scheduler.now_ms)
        return reports

    def run(self, periods: Optional[int] = None) -> SimulationResult:
        """Run ``periods`` beaconing periods (default: the scenario's count)."""
        total = periods if periods is not None else self.scenario.periods
        for _ in range(total):
            self.run_period()
        # Flush any remaining in-flight deliveries; timeline events in the
        # flush window are beyond the horizon and suppressed.
        self._horizon_reached = True
        self.scheduler.run_until(self._next_period_start_ms + 1.0)
        self._horizon_reached = False
        return SimulationResult(
            topology=self.topology,
            services=dict(self.services),
            collector=self.collector,
            round_reports=list(self.round_reports),
            periods_run=self._periods_run,
            final_time_ms=self.scheduler.now_ms,
            convergence=self.convergence,
            link_state=self.link_state,
        )

    def _services_in_order(self) -> List[AnyControlService]:
        return [self.services[as_id] for as_id in sorted(self.services)]
