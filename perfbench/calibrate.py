"""A fixed pure-Python kernel that measures how fast this host runs right now.

The benchmark's host is shared: the same session of the same code runs up
to twice as slow from one minute -- or one second -- to the next, with CPU
time tracking wall time, so no amount of repetition steadies raw seconds.
A :class:`Sampler` therefore runs a short *probe* of this kernel from a
timer signal every ``INTERVAL_S`` while a session runs, and the session's
clocks leave the probes' time out.  The samples fall where the session's
time is spent, and each session's measured seconds are reported at a
fixed *reference speed*::

    reference seconds = measured seconds * (REFERENCE_S / probe seconds) ** ELASTICITY

where ``probe seconds`` is the median of the session's probes.  The kernel
does the kinds of work the simulation does -- small objects and attribute
access, dict and set traffic, a binary heap, sorting, struct packing and
HMAC-SHA256 over short messages -- and does not touch the program, so a
change to the program moves only the measured seconds.
"""

from __future__ import annotations

import hashlib
import heapq
import hmac
import signal
import struct
import time
from typing import List

#: Probe seconds at the reference speed (a quiet core of a 2-vCPU cloud
#: host): reference seconds equal measured seconds when a probe takes
#: exactly this long.
REFERENCE_S = 0.002
#: How much of the kernel's slowdown the simulation shares.  The kernel
#: runs from the CPU caches, the simulation also waits on memory, which a
#: contended host slows less.  Over runs of five seeds on a shared 2-vCPU
#: host, the middle half of the run medians of wall_s spread 14-33% of
#: the median unscaled, 4-19% scaled by the full kernel ratio (1.0) and
#: 4-12% scaled with 0.8 on all three workloads.
ELASTICITY = 0.8
#: Kernel iterations in one probe (about 2 ms).
PROBE_ITERATIONS = 150
#: Seconds between two probes: about 4% of a session goes to probing.
INTERVAL_S = 0.05


class _Hop:
    __slots__ = ("as_id", "ingress", "egress", "latency")

    def __init__(self, as_id: int, ingress: int, egress: int, latency: float) -> None:
        self.as_id = as_id
        self.ingress = ingress
        self.egress = egress
        self.latency = latency


def kernel(iterations: int) -> int:
    """A fixed amount of work; returns a checksum so nothing is optimised away."""
    secret = b"perfbench-calibration"
    pack = struct.Struct(">IHHd").pack
    heap: list = []
    table: dict = {}
    seen: set = set()
    checksum = 0
    for i in range(iterations):
        hops = [_Hop((i * 7 + j) % 97, j, j + 1, (i % 13) * 0.5 + j) for j in range(6)]
        key = tuple(hop.as_id for hop in hops)
        latency = sum(hop.latency for hop in hops)
        payload = b"".join(pack(h.as_id, h.ingress, h.egress, h.latency) for h in hops)
        tag = hmac.new(secret, payload, hashlib.sha256).digest()
        table.setdefault(key[0], []).append((latency, key))
        if key not in seen:
            seen.add(key)
            heapq.heappush(heap, (latency, i, key))
        if len(heap) > 64:
            heapq.heappop(heap)
        checksum ^= tag[0]
    for entries in table.values():
        entries.sort()
        checksum += len(entries[:5])
    return checksum + len(heap)


class Sampler:
    """Probes the host's speed from a timer signal while it is started.

    ``samples`` holds each probe's seconds and ``spent_s`` their sum, which
    the session's clocks subtract.  Python runs the probe in the main
    thread between two bytecodes of whatever the session is doing.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        self.spent_s = 0.0

    def _on_timer(self, _signum, _frame) -> None:
        start = time.perf_counter()
        kernel(PROBE_ITERATIONS)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def start(self) -> None:
        self.samples = []
        self.spent_s = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(probe_s: float) -> float:
    """The factor from measured to reference seconds at a median probe time."""
    return (REFERENCE_S / probe_s) ** ELASTICITY
