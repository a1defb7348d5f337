"""Golden-trace regression test for the dynamic-scenario engine.

Runs a small seeded dynamic scenario (scripted failure/recovery/churn plus
generator-produced random failures) and digests the complete
event/convergence trace together with the headline collector counters.
The digest is compared against a checked-in constant, proving that the
discrete-event scheduler, the timeline application order and the
convergence bookkeeping are bit-for-bit deterministic — across runs in one
process and across processes/machines.

If a PR changes the engine's observable behaviour on purpose, update
``GOLDEN_DIGEST`` with the value printed by the failing assertion and
justify the change in the PR description.
"""

import hashlib
import random

from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import random_churn, random_link_failures
from repro.simulation.scenario import don_scenario
from repro.units import minutes

from tests.conftest import line_topology

# Recovery records are dated at the sub-period registration timestamp of
# the freshly re-registered (previously withdrawn) paths when those account
# for the whole disruption, not at the next period-boundary probe — the
# PR 3 sub-period convergence measurement.
# PR 4: the post-failure revocation flood became real hop-by-hop messages
# (repro.core.revocation): `revocations=` in the summary now counts
# individual transmissions instead of one counter bump per notified AS,
# and withdrawal happens when each AS *receives* a revocation, which
# shifts purge timing (and therefore PCB send/drop counts and recovery
# instants) by the propagation delays of the flood.
GOLDEN_DIGEST = "5ce362c5870d1b961141d110321bed2360d38f20be418884cfa6aac7ee21ed8d"


def run_scenario(instrument=None):
    """Run the pinned golden scenario; return its trace text.

    ``instrument`` (if given) receives the built simulation right before
    ``run()`` — the observatory tests use it to attach telemetry and prove
    the digest is unchanged with instrumentation enabled.
    """
    topology = line_topology(5)
    scenario = don_scenario(periods=11, verify_signatures=False)

    core_link = topology.link_ids()[1]  # the 2-3 link
    scenario.at(minutes(25)).fail_link(core_link)
    scenario.at(minutes(45)).recover_link(core_link)
    scenario.at(minutes(55)).as_leave(4).at(minutes(65)).as_join(4)
    scenario.timeline.extend(
        random_link_failures(
            topology,
            count=1,
            rng=random.Random(1234),
            start_ms=minutes(15),
            spacing_ms=minutes(10),
            recovery_after_ms=minutes(10),
        )
    )

    simulation = BeaconingSimulation(topology, scenario)
    simulation.watch_pair(3, 1)
    simulation.watch_pair(5, 1)
    if instrument is not None:
        instrument(simulation)
    result = simulation.run()

    summary = (
        f"sent={result.collector.total_sent}"
        f" dropped={result.collector.total_dropped}"
        f" revocations={result.collector.total_revocations}"
        f" periods={result.periods_run}"
        f" final={result.final_time_ms:.3f}"
        f" records={len(result.convergence.records)}"
    )
    record_lines = [record.trace_label() for record in result.convergence.records]
    return "\n".join([result.convergence.trace_text(), *record_lines, summary])


class TestGoldenTrace:
    def test_trace_is_reproducible_within_process(self):
        assert run_scenario() == run_scenario()

    def test_trace_matches_checked_in_digest(self):
        trace = run_scenario()
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGEST, (
            "golden trace changed — if intentional, update GOLDEN_DIGEST to "
            f"{digest!r}; trace was:\n{trace}"
        )


# ---------------------------------------------------------------------------
# PR 7: adversarial & gray-failure family golden traces
# ---------------------------------------------------------------------------

# One pinned digest per new event family.  Each scenario runs the same
# 5-AS line as the clean golden run with one family's events layered on
# top; the digests prove the adversarial machinery (flap toggles, silent
# loss dice, forgery/replay/suppression dispatch, live topology growth)
# is bit-for-bit deterministic.  Update a value (with justification) only
# when a PR intentionally changes that family's observable behaviour.
FAMILY_DIGESTS = {
    "flap": "dcb7e8c70c5fa6ac472ced3facb84f53e92e226fec878941ebe4d4d610aa65f9",
    "gray": "8b32eaa6ae7f473d4e5d3e28d84f4da8df220e6699cb92529a004e10419be68d",
    "byzantine": "cabf009078db2dc83332a0ef98311bb85fb7327f1adc83b6507514161e46a27f",
    "churn_growth": "88fdf89b7b30598881211d32212dc5af79545604816a3a79bd0ef7de324e0fe4",
}


def run_family_scenario(family):
    """Run one adversarial-family golden scenario; return its trace text."""
    topology = line_topology(5)
    # Byzantine runs verify signatures — the family's whole point is the
    # rejection path; the others keep the clean run's cheap setting.
    scenario = don_scenario(
        periods=9, verify_signatures=(family == "byzantine")
    )
    scenario.loss_seed = 42
    link = topology.link_ids()[1]  # the 2-3 link

    if family == "flap":
        scenario.at(minutes(25)).flap_link(
            link,
            schedule=(0.0, minutes(6), minutes(12), minutes(18)),
            loss_ab=0.3,
            loss_ba=0.3,
        )
    elif family == "gray":
        scenario.at(minutes(25)).gray_fail(link, drop_rate=0.7)
        scenario.at(minutes(55)).gray_recover(link)
    elif family == "byzantine":
        scenario.at(minutes(25)).forge_revocation(
            attacker_as=5, claimed_origin=2, link_id=link, count=2
        )
        scenario.at(minutes(30)).fail_link(link)
        scenario.at(minutes(40)).recover_link(link)
        scenario.at(minutes(45)).replay_revocations(attacker_as=5, count=1)
        scenario.at(minutes(50)).suppress_forwarding((4,))
    elif family == "churn_growth":
        scenario.at(minutes(25)).grow_as(6, attach_to=(3, 5))
        scenario.at(minutes(45)).grow_as(7, attach_to=(6,))
    else:  # pragma: no cover - guard against typos in parametrization
        raise ValueError(f"unknown family {family!r}")

    simulation = BeaconingSimulation(topology, scenario)
    simulation.watch_pair(5, 1)
    result = simulation.run()
    summary = (
        f"sent={result.collector.total_sent}"
        f" dropped={result.collector.total_dropped}"
        f" gray={result.collector.gray_dropped_total()}"
        f" revocations={result.collector.total_revocations}"
        f" rejected={sum(s.revocations.rejected_invalid for s in result.services.values())}"
        f" duplicates={sum(s.revocations.duplicates for s in result.services.values())}"
        f" ases={len(result.services)}"
        f" final={result.final_time_ms:.3f}"
        f" records={len(result.convergence.records)}"
    )
    record_lines = [record.trace_label() for record in result.convergence.records]
    return "\n".join([result.convergence.trace_text(), *record_lines, summary])


class TestAdversarialGoldenTraces:
    def test_family_traces_are_reproducible_within_process(self):
        for family in FAMILY_DIGESTS:
            assert run_family_scenario(family) == run_family_scenario(family)

    def test_family_traces_match_checked_in_digests(self):
        for family, expected in FAMILY_DIGESTS.items():
            trace = run_family_scenario(family)
            digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
            assert digest == expected, (
                f"{family} golden trace changed — if intentional, update "
                f"FAMILY_DIGESTS[{family!r}] to {digest!r}; trace was:\n{trace}"
            )

    def test_byzantine_events_disabled_matches_clean_digest(self):
        """Acceptance: attackers off ⇒ the pinned clean digest, untouched.

        The adversarial plumbing (loss seed, new dispatch branches, the
        suppression/forgery hooks) must be strictly pay-for-what-you-use:
        a scenario that schedules no adversarial events produces the
        exact clean golden trace.
        """
        trace = run_scenario()
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGEST

    def test_defeated_attack_does_not_change_registered_paths(self):
        """Forgery + replay against verifying ASes: path state identical."""

        def run(attack):
            topology = line_topology(5)
            scenario = don_scenario(periods=6, verify_signatures=True)
            if attack:
                scenario.at(minutes(25)).forge_revocation(
                    attacker_as=5,
                    claimed_origin=2,
                    link_id=topology.link_ids()[1],
                    count=3,
                )
            simulation = BeaconingSimulation(topology, scenario)
            result = simulation.run()
            paths = {
                as_id: sorted(
                    path.segment.digest()
                    for path in service.path_service.all_paths()
                )
                for as_id, service in result.services.items()
            }
            return paths, result

        clean_paths, _clean = run(attack=False)
        attacked_paths, attacked = run(attack=True)
        assert attacked_paths == clean_paths
        assert all(
            service.revocations.applied_at == {}
            for service in attacked.services.values()
        )
