"""Repository benchmark for the IREC reproduction: three workloads, one process each.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload beaconing --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
also runs sessions with every layer boundary wrapped (see ``tracer.py``) and
reports the per-layer metrics instead.  Either way the full report --
every named metric with its unit and sample count, the operation ledger,
the fingerprint -- is written to ``perfbench/out/``, and a traced run also
writes its spans there.

End-to-end times and rates are in *reference seconds*: each session's
measured seconds scaled by how fast a fixed probe ran while it ran
(``calibrate.py``), so that a shared host's changing speed does not
show as a change of the program.  The report keeps the measured seconds
too (``raw_setup_s``, ``raw_wall_s``) with the probe time (``probe_s``),
each a median over sessions.

Run all three workloads, each in a fresh process, print every metric and
check the fingerprints and the ledger (identical across two runs of the
default seed, different on the held-out seed)::

    python3 perfbench/run.py --all --seconds 10

Re-pin the fingerprints in ``design.json`` after a change of behaviour::

    python3 perfbench/run.py --pin

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark changes no program file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DESIGN_PATH = os.path.join(HERE, "design.json")
#: Every median rests on at least this many sessions, however long they take.
MIN_SESSIONS = 3
#: A run stops starting sessions after this long even below MIN_SESSIONS,
#: so a run ends well inside three minutes.
HARD_STOP_S = 120.0


def _import_program() -> None:
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)


def _load_design() -> dict:
    with open(DESIGN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def _sessions(workload, seed: int, seconds: float, minimum: int, tracer=None) -> list:
    """Run sessions until the budget is spent.

    Untraced sessions run under the host-speed sampler; each gets the
    ``scale`` from measured to reference seconds of its own probes (see
    ``calibrate.py``), since the host's speed changes within seconds.
    """
    from calibrate import Sampler, scale
    from workloads import run_session

    sampler = Sampler() if tracer is None else None
    sessions = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        if sampler is not None:
            sampler.start()
        try:
            session = run_session(workload, seed, tracer, sampler)
        finally:
            if sampler is not None:
                sampler.stop()
        if sampler is not None and sampler.samples:
            session.probe_s = _median(sampler.samples)
            session.scale = scale(session.probe_s)
        if tracer is not None:
            session.trace = _layer_metrics(tracer, session)
            session.spans = tracer.spans
        sessions.append(session)
        gc.collect()
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (len(sessions) >= minimum and elapsed >= seconds):
            return sessions


def _rate(sessions, unit: str, phase: Optional[str]) -> float:
    """Median over sessions of ``unit`` per reference second of ``phase`` (None: whole timed phase)."""
    return _median([
        _ratio(s.units.get(unit, 0), (s.phase_s.get(phase, 0.0) if phase else s.wall_s) * s.scale)
        for s in sessions
    ])


def _named_metrics(workload, sessions, attempted: int, failed: int) -> dict:
    """Every end-to-end metric of the workload, as ``name -> (value, unit, samples)``.

    Times and rates are in reference seconds; ``raw_setup_s``, ``raw_wall_s``
    and ``probe_s`` keep the measured seconds and the host speed they were
    scaled by.
    """
    n = len(sessions)
    metrics = {
        "setup_s": (_median([s.setup_s * s.scale for s in sessions]), "s", n),
        "wall_s": (_median([s.wall_s * s.scale for s in sessions]), "s", n),
        "peak_rss_mb": (_peak_rss_mb(), "MiB", 1),
        "failed_ratio": (_ratio(failed, attempted), "ratio", attempted),
        "raw_setup_s": (_median([s.setup_s for s in sessions]), "s", n),
        "raw_wall_s": (_median([s.wall_s for s in sessions]), "s", n),
        "probe_s": (_median([s.probe_s for s in sessions]), "s", n),
    }
    for metric, (unit, phase) in workload.rates.items():
        metrics[metric] = (_rate(sessions, unit, phase), "1/s", n)
    metrics["ops_per_s"] = metrics[workload.ops]
    latencies = [(s.lookup_us, s.scale) for s in sessions if s.lookup_us]
    if latencies:
        lookups = int(sum(latency["samples"] for latency, _ in latencies))
        for share in ("p50", "p99"):
            value = _median([latency[share] * scale for latency, scale in latencies])
            metrics[f"lookup_{share}_us"] = (value, "us", lookups)
    return metrics


def _layer_metrics(tracer, session) -> dict:
    """Per-layer numbers of one traced session: boundary calls and self time plus counters."""
    from tracer import SETUP_BOUNDARIES

    metrics = {}
    for index, name in enumerate(tracer.names):
        if name.startswith("bench."):
            continue
        phase = "setup" if name in SETUP_BOUNDARIES else "timed"
        metrics[f"{name}.calls"] = tracer.calls[phase][index]
        metrics[f"{name}.self_s"] = tracer.self_s[phase][index]
    results = tracer.results["timed"]
    index_of = tracer.names.index
    ledger = session.ledger
    metrics.update({
        "simulation.engine.events": ledger.get("events", 0),
        "simulation.network.inbox_dropped": ledger.get("inbox_dropped", 0),
        "simulation.network.inbox_deferred": ledger.get("inbox_deferred", 0),
        "simulation.network.inbox_drop_ratio": _ratio(
            ledger.get("inbox_dropped", 0), ledger.get("control_msgs", 0)
        ),
        "simulation.network.queue_delay_p99_ms": ledger.get("queue_delay_p99_ms", 0.0),
        "core.ingress.accept_ratio": _ratio(
            ledger.get("ingress_accepted", 0), ledger.get("ingress_received", 0)
        ),
        "core.ingress.incremental_verify_ratio": _ratio(
            ledger.get("ingress_incremental_verifications", 0),
            ledger.get("ingress_full_verifications", 0)
            + ledger.get("ingress_incremental_verifications", 0),
        ),
        "core.ingress.signatures_checked": ledger.get("ingress_signatures_checked", 0),
        "core.beacon.encodes": ledger.get("crypto_beacon_encode", 0),
        "core.beacon.digests": ledger.get("crypto_beacon_digest", 0),
        "crypto.signs": ledger.get("crypto_signature_sign", 0),
        "crypto.verifies": ledger.get("crypto_signature_verify", 0),
        "core.egress.propagated": ledger.get("egress_propagated", 0),
        "core.rac.candidates": ledger.get("rac_candidates", 0),
        "core.rac.selected_ratio": _ratio(
            ledger.get("rac_selections", 0), ledger.get("rac_candidates", 0)
        ),
        "core.databases.path_register_new_ratio": _ratio(
            results[index_of("core.databases.PathService.register")],
            tracer.calls["timed"][index_of("core.databases.PathService.register")],
        ),
        "core.databases.withdrawn": (
            results[index_of("core.databases.IngressDatabase.remove_crossing_link")]
            + results[index_of("core.databases.PathService.remove_crossing_link")]
        ),
        "core.revocation.duplicate_ratio": _ratio(
            ledger.get("revocations_duplicates", 0), ledger.get("revocations_received", 0)
        ),
        "core.query.hit_ratio": _ratio(ledger.get("query_hits", 0), ledger.get("query_lookups", 0)),
        "core.query.misses": ledger.get("query_misses", 0),
        "core.query.invalidations": ledger.get("query_invalidations", 0),
        "traffic.engine.reroutes": ledger.get("traffic_reroutes", 0),
        "trace.wall_s": tracer.phase_s["timed"],
        "trace.unattributed_s": tracer.self_s["timed"][index_of("bench.timed")],
        "trace.setup_s": tracer.phase_s["setup"],
        "trace.spans": len(tracer.spans),
    })
    return metrics


def _exact_ledger(session) -> dict:
    """The noise-free part of a traced session: call counts and exact counters."""
    ledger = dict(session.ledger)
    ledger.update({k: v for k, v in session.trace.items() if k.endswith(".calls")})
    return ledger


def _verdict(sessions, pinned):
    """Count operations and failures over all sessions of a run.

    Each session is one run operation plus its own lookups, waves and
    rounds.  A run fails when it raised, failed its audit, or its
    fingerprint differs from the first session's; the whole result is
    incorrect when any operation failed or the fingerprint is not the pinned one.
    """
    fingerprint = sessions[0].fingerprint
    errors = []
    if pinned is not None and fingerprint != pinned:
        errors.append(f"fingerprint {fingerprint} != pinned {pinned}")
    attempted = failed = 0
    for session in sessions:
        problems = list(session.problems)
        if session.fingerprint != fingerprint:
            problems.append(f"fingerprint {session.fingerprint} != first session's {fingerprint}")
        attempted += 1 + session.attempted
        failed += int(bool(problems)) + session.failed
        errors.extend(problems + session.errors)
    return attempted, failed, errors


def _trace_layers(untraced, traced, tracer):
    """Per-layer metrics of the median traced session, plus overhead and ledger repeat."""
    traced = sorted(traced, key=lambda s: s.trace["trace.wall_s"])
    chosen = traced[len(traced) // 2]
    layers = dict(chosen.trace)
    layers["trace.untraced_wall_s"] = _median([s.wall_s for s in untraced])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    ledgers = [_exact_ledger(s) for s in traced]
    layers["trace.ledger_repeats"] = int(all(ledger == ledgers[0] for ledger in ledgers))
    return layers, ledgers[0], chosen


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    """Measure one workload in this process and print the result line."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    pinned = _load_design()["fingerprints"].get(name, {}).get(str(seed))
    if traced:
        from tracer import Tracer

        untraced = _sessions(workload, seed, seconds / 2.0, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced_sessions = _sessions(workload, seed, seconds / 2.0, 2, tracer)
        finally:
            tracer.uninstall()
        sessions = untraced + traced_sessions
    else:
        sessions = untraced = _sessions(workload, seed, seconds, MIN_SESSIONS)

    attempted, failed, errors = _verdict(sessions, pinned)
    # Traced sessions are not probed (a probe would land in their spans),
    # so the end-to-end metrics come from the untraced ones.
    named = _named_metrics(workload, untraced, attempted, failed)
    report = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "sessions": len(sessions),
        "fingerprint": sessions[0].fingerprint,
        "fingerprint_pinned": pinned,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:50],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "ledger": sessions[-1].ledger,
        "untraced_sessions": [
            {"setup_s": s.setup_s, "wall_s": s.wall_s, "probe_s": s.probe_s} for s in untraced
        ],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    benchmark = _load_benchmark()
    if traced:
        layers, report["exact_ledger"], chosen = _trace_layers(untraced, traced_sessions, tracer)
        report["per_layer"] = layers
        report["missing_boundaries"] = tracer.missing
        tracer.write_spans(chosen.spans, os.path.join(OUT_DIR, f"{name}-seed{seed}.spans.csv"))
        values, declared = layers, benchmark["per_layer"]
    else:
        values, declared = {k: v for k, (v, _, _) in named.items()}, benchmark["end_to_end"]
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(traced)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    for line in errors[:10]:
        print(f"perfbench: {name}: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if not errors else 1


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# all workloads, each in a fresh process
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, traced: bool) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    report["returncode"] = completed.returncode
    return report


def run_all(seconds: float) -> int:
    from workloads import WORKLOADS

    design = _load_design()
    default_seed, held_out = design["default_seed"], design["held_out_seed"]
    ok = True
    for name in WORKLOADS:
        report = _child(name, default_seed, seconds, False)
        print(f"== {name} (seed {default_seed}, {report['sessions']} sessions, "
              f"fingerprint {report['fingerprint']})")
        for metric, entry in report["metrics"].items():
            print(f"  {metric:<20} {entry['value']:>14.6g} {entry['unit']:<6} n={entry['samples']}")
        first = _child(name, default_seed, seconds, True)
        second = _child(name, default_seed, seconds, True)
        other = _child(name, held_out, seconds, True)
        checks = {
            "correct": all(r["returncode"] == 0 for r in (report, first, second, other)),
            "fingerprint pinned": report["fingerprint"] == report["fingerprint_pinned"],
            "ledger repeats": first["exact_ledger"] == second["exact_ledger"],
            "fingerprint repeats": first["fingerprint"] == second["fingerprint"],
            "held-out ledger differs": first["exact_ledger"] != other["exact_ledger"],
            "held-out fingerprint differs": first["fingerprint"] != other["fingerprint"],
        }
        layers = first["per_layer"]
        attributed = sum(v for k, v in layers.items() if k.endswith(".self_s")
                         and not k.startswith("topology.generator."))
        checks["self times add up to the traced wall"] = math.isclose(
            attributed + layers["trace.unattributed_s"], layers["trace.wall_s"], rel_tol=1e-6
        )
        for metric, rule, limit in design["design_checks"].get(name, ()):
            checks[f"design: {metric} {rule} {limit}"] = _holds(layers, metric, rule, limit)
        print(f"  trace overhead {layers['trace.overhead_s']:.3f} s "
              f"over {layers['trace.untraced_wall_s']:.3f} s untraced")
        for check, passed in checks.items():
            print(f"  {'ok  ' if passed else 'FAIL'} {check}")
            ok = ok and passed
    return 0 if ok else 1


def _holds(layers: dict, metric: str, rule: str, limit: float) -> bool:
    value = layers[metric]
    if rule == "equals":
        return value == limit
    if rule == "above":
        return value > limit
    return value <= limit * layers["trace.wall_s"]  # share_below


def pin() -> int:
    """Recompute the pinned fingerprints for every workload and pinned seed."""
    from workloads import WORKLOADS, run_session

    design = _load_design()
    fingerprints = {}
    for name, workload in WORKLOADS.items():
        fingerprints[name] = {}
        for seed in design["pinned_seeds"]:
            session = run_session(workload, seed)
            if session.problems or session.failed:
                print(f"{name} seed {seed}: {session.problems + session.errors}", file=sys.stderr)
                return 1
            fingerprints[name][str(seed)] = session.fingerprint
            gc.collect()
        print(f"pinned {name}: {len(fingerprints[name])} seeds", flush=True)
    design["fingerprints"] = fingerprints
    with open(DESIGN_PATH, "w", encoding="utf-8") as handle:
        json.dump(design, handle, indent=2)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("beaconing", "churn", "serving"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and check")
    parser.add_argument("--pin", action="store_true", help="re-pin the fingerprints")
    args = parser.parse_args(argv)
    _import_program()
    if args.pin:
        return pin()
    if args.all:
        return run_all(args.seconds)
    if args.workload is None:
        parser.error("--workload is required (or --all / --pin)")
    seed = args.seed if args.seed is not None else _load_design()["default_seed"]
    return run_workload(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
