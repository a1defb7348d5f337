"""Outside-in layer trace: wraps the public entry points of ``repro`` modules.

The benchmark never edits the program.  For a traced run it replaces each
boundary below with a wrapper, from this file, that records a span (name,
start, end, parent) and counts the call.  Self time is a span's duration
minus the part covered by wrapped children.  Spans stay in memory and are
written out when the run ends.

Spans are attributed to the *phase* that was open when they ran: the
runner opens ``timed`` around the work it times and ``setup`` around
setup; everything else (checks, fingerprints) is ``untimed``.  The
per-layer metrics report the timed phase, except the topology generator,
which only runs during setup.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: (metric prefix, module, attribute path, what to count from results).
#: ``truthy`` counts calls that returned a true value, ``sum`` adds up
#: integer results.  A boundary that a later version of the program no
#: longer has is reported with zero calls instead of failing the run.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("simulation.beaconing.BeaconingSimulation.run_period",
     "repro.simulation.beaconing", "BeaconingSimulation.run_period", None),
    ("simulation.engine.EventScheduler.run_until",
     "repro.simulation.engine", "EventScheduler.run_until", None),
    ("simulation.network.SimulatedTransport.send_message",
     "repro.simulation.network", "SimulatedTransport.send_message", None),
    ("core.control_service.IrecControlService.on_message_batch",
     "repro.core.control_service", "IrecControlService.on_message_batch", None),
    ("core.control_service.IrecControlService.run_round",
     "repro.core.control_service", "IrecControlService.run_round", None),
    ("core.control_service.IrecControlService.originate",
     "repro.core.control_service", "IrecControlService.originate", None),
    ("core.ingress.IngressGateway.receive",
     "repro.core.ingress", "IngressGateway.receive", None),
    ("crypto.Signer.sign", "repro.crypto.signer", "Signer.sign", None),
    ("crypto.Verifier.verify", "repro.crypto.signer", "Verifier.verify", None),
    ("core.beacon.BeaconBuilder.extend", "repro.core.beacon", "BeaconBuilder.extend", None),
    ("core.egress.EgressGateway.originate", "repro.core.egress", "EgressGateway.originate", None),
    ("core.egress.EgressGateway.propagate", "repro.core.egress", "EgressGateway.propagate", None),
    ("core.egress.EgressGateway.register", "repro.core.egress", "EgressGateway.register", None),
    ("core.rac.RoutingAlgorithmContainer.process",
     "repro.core.rac", "RoutingAlgorithmContainer.process", None),
    ("algorithms.KShortestPathAlgorithm.execute",
     "repro.algorithms.shortest_path", "KShortestPathAlgorithm.execute", None),
    ("algorithms.DelayOptimizationAlgorithm.execute",
     "repro.algorithms.delay", "DelayOptimizationAlgorithm.execute", None),
    ("algorithms.HeuristicDisjointnessAlgorithm.execute",
     "repro.algorithms.disjointness", "HeuristicDisjointnessAlgorithm.execute", None),
    ("algorithms.LinkAvoidingAlgorithm.execute",
     "repro.algorithms.pull_disjoint", "LinkAvoidingAlgorithm.execute", None),
    ("core.databases.IngressDatabase.insert",
     "repro.core.databases", "IngressDatabase.insert", None),
    ("core.databases.PathService.register",
     "repro.core.databases", "PathService.register", "truthy"),
    ("core.databases.IngressDatabase.remove_crossing_link",
     "repro.core.databases", "IngressDatabase.remove_crossing_link", "sum"),
    ("core.databases.PathService.remove_crossing_link",
     "repro.core.databases", "PathService.remove_crossing_link", "sum"),
    ("core.revocation.on_revocation",
     "repro.core.control_service", "IrecControlService.on_revocation", None),
    ("core.revocation.originate_revocation",
     "repro.core.control_service", "IrecControlService.originate_revocation", None),
    ("core.query.PathQueryFrontend.query", "repro.core.query", "PathQueryFrontend.query", None),
    ("traffic.engine.TrafficEngine.run_round",
     "repro.traffic.engine", "TrafficEngine.run_round", None),
    ("topology.generator.generate_topology", "repro.topology.generator", "generate_topology", None),
)

#: Boundaries reported from the setup phase rather than the timed phase.
SETUP_BOUNDARIES = frozenset({"topology.generator.generate_topology"})

#: ``untimed`` collects calls made outside any root span (checks, fingerprints).
PHASES = ("setup", "timed", "untimed")


class Tracer:
    """Installs the boundary wrappers and accumulates spans per phase."""

    def __init__(self) -> None:
        self.names: List[str] = [name for name, _, _, _ in BOUNDARIES]
        #: Root spans of the phases the runner opens; their self time is the
        #: phase's unattributed remainder.
        self.names.extend(("bench.setup", "bench.timed"))
        self.missing: List[str] = []
        self._phase = "untimed"
        self._stack: List[int] = []
        self._covered: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []
        self.reset()

    def install(self) -> None:
        """Wrap every boundary that exists in the imported program."""
        for index, (name, module_name, path, count) in enumerate(BOUNDARIES):
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__.get(attribute) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            setattr(owner, attribute, self._wrap(index, original, count))
            self._restore.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def reset(self) -> None:
        """Forget spans and totals (between sessions), keeping the wrappers."""
        size = len(self.names)
        self.calls: Dict[str, List[int]] = {phase: [0] * size for phase in PHASES}
        self.self_s: Dict[str, List[float]] = {phase: [0.0] * size for phase in PHASES}
        self.results: Dict[str, List[int]] = {phase: [0] * size for phase in PHASES}
        #: Wall time spent inside each phase's root spans.
        self.phase_s: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        #: (name index, start, end, parent span index or -1).
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []

    @contextmanager
    def phase(self, phase: str):
        """Open the root span of ``phase`` (setup or timed); boundary spans inside count to it."""
        previous = self._phase
        self._phase = phase
        root = self.names.index("bench." + phase)
        span_index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(root, phase, span_index, start, end)
            self.phase_s[phase] += end - start
            self._phase = previous

    def _open(self) -> int:
        span_index = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_index)
        self._covered.append(0.0)
        return span_index

    def _close(self, index: int, phase: str, span_index: int, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_s[phase][index] += duration - self._covered.pop()
        self.calls[phase][index] += 1
        if self._covered:
            self._covered[-1] += duration
        parent = self._stack[-1] if self._stack else -1
        self.spans[span_index] = (index, start, end, parent)

    def _wrap(self, index: int, function, count: Optional[str]):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            phase = tracer._phase
            span_index = tracer._open()
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index, phase, span_index, start, clock())
            if count == "truthy":
                if result:
                    tracer.results[phase][index] += 1
            elif count == "sum" and isinstance(result, int):
                tracer.results[phase][index] += result
            return result

        return traced

    def write_spans(self, spans, path: str) -> None:
        """Write ``spans`` (as recorded by this tracer) as ``name,start,end,parent`` lines."""
        origin = min((span[1] for span in spans if span), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent\n")
            for span in spans:
                if span is None:
                    continue
                index, start, end, parent = span
                handle.write(
                    f"{self.names[index]},{start - origin:.9f},{end - origin:.9f},{parent}\n"
                )


def _resolve(module_name: str, path: str):
    """Return (owner, attribute) for ``module.Class.method`` or ``module.function``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None, attribute
    return owner, attribute
