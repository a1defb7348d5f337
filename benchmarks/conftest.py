"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Because the
paper's simulations run on a 500-AS topology with >100k links — hours of
work for a pure-Python simulator — the benchmarks default to a scaled-down
topology that preserves the structural properties (tiered, geo-embedded,
multi-PoP) and therefore the *shape* of the results.  Set the environment
variable ``IREC_BENCH_SCALE=paper`` to run the full 500-AS configuration,
or ``medium``/``large`` for an intermediate size; the presets are
:func:`repro.topology.generator.scale_config`, shared with
``run_benchmarks.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.topology.generator import TopologyConfig, generate_topology, scale_config


def bench_scale() -> str:
    """Return the configured benchmark scale (small / medium / large / paper)."""
    return os.environ.get("IREC_BENCH_SCALE", "small").lower()


def bench_topology_config(seed: int = 7) -> TopologyConfig:
    """Return the topology configuration for the configured scale."""
    return scale_config(bench_scale(), seed=seed)


def simulation_periods() -> int:
    """Return the number of beaconing periods simulated per configuration."""
    return {"paper": 6, "medium": 4}.get(bench_scale(), 3)


@pytest.fixture(scope="session")
def bench_topology():
    """The benchmark topology (shared across benchmark modules)."""
    return generate_topology(bench_topology_config())
