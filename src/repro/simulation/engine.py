"""A deterministic discrete-event scheduler.

The scheduler is intentionally minimal: events are ``(time, callback)``
pairs processed in time order, with a monotonically increasing sequence
number breaking ties so that runs are bit-for-bit reproducible.  The
beaconing driver uses it to deliver PCBs with link delays and to trigger
periodic origination and RAC rounds.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.exceptions import SimulationError
from repro.obs import spans as _spans

#: An event callback receives the current simulated time in milliseconds.
EventCallback = Callable[[float], None]


class _ScheduledEvent:
    """One queued ``(time, callback)`` pair.

    A plain slotted class with a hand-written ``__lt__``: heap pushes and
    pops compare events millions of times per simulation, and the
    dataclass-generated comparison (which builds field tuples per call)
    showed up prominently in flood profiles.  Ordering is (time, sequence)
    with sequence unique, exactly as before.
    """

    __slots__ = ("time_ms", "sequence", "callback", "cancelled")

    def __init__(self, time_ms: float, sequence: int, callback: EventCallback) -> None:
        self.time_ms = time_ms
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False

    def __lt__(self, other: "_ScheduledEvent") -> bool:
        if self.time_ms != other.time_ms:
            return self.time_ms < other.time_ms
        return self.sequence < other.sequence


@dataclass
class EventScheduler:
    """Priority-queue based discrete-event scheduler."""

    now_ms: float = 0.0
    _queue: List[_ScheduledEvent] = field(default_factory=list)
    _sequence: "itertools.count" = field(default_factory=lambda: itertools.count())
    processed_events: int = 0

    def schedule_at(self, time_ms: float, callback: EventCallback) -> _ScheduledEvent:
        """Schedule ``callback`` at absolute time ``time_ms``.

        Raises:
            SimulationError: If the time lies in the past.
        """
        if time_ms < self.now_ms:
            raise SimulationError(
                f"cannot schedule an event at {time_ms} ms; current time is {self.now_ms} ms"
            )
        event = _ScheduledEvent(time_ms=time_ms, sequence=next(self._sequence), callback=callback)
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay_ms: float, callback: EventCallback) -> _ScheduledEvent:
        """Schedule ``callback`` after ``delay_ms`` milliseconds.

        Raises:
            SimulationError: If the delay is negative.
        """
        if delay_ms < 0.0:
            raise SimulationError(f"delay must be non-negative, got {delay_ms}")
        return self.schedule_at(self.now_ms + delay_ms, callback)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a previously scheduled event (it will be skipped)."""
        event.cancelled = True

    def run_until(self, horizon_ms: float) -> int:
        """Process events up to and including ``horizon_ms``.

        Returns:
            The number of events processed.  The current time advances to
            ``horizon_ms`` even if the queue drains earlier.
        """
        frame = _spans.push("scheduler.dispatch") if _spans.ENABLED else None
        try:
            processed = 0
            while self._queue and self._queue[0].time_ms <= horizon_ms:
                event = heapq.heappop(self._queue)
                if event.cancelled:
                    continue
                self.now_ms = event.time_ms
                event.callback(self.now_ms)
                processed += 1
                self.processed_events += 1
            self.now_ms = max(self.now_ms, horizon_ms)
            return processed
        finally:
            if frame is not None:
                _spans.pop(frame)

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Process every pending event (bounded by ``max_events``).

        Raises:
            SimulationError: If the bound is hit, which usually indicates a
                runaway event loop.
        """
        frame = _spans.push("scheduler.dispatch") if _spans.ENABLED else None
        try:
            processed = 0
            while self._queue:
                if processed >= max_events:
                    raise SimulationError(f"exceeded the limit of {max_events} events")
                event = heapq.heappop(self._queue)
                if event.cancelled:
                    continue
                self.now_ms = event.time_ms
                event.callback(self.now_ms)
                processed += 1
                self.processed_events += 1
            return processed
        finally:
            if frame is not None:
                _spans.pop(frame)

    @property
    def pending(self) -> int:
        """Return the number of pending (non-cancelled) events."""
        return sum(1 for event in self._queue if not event.cancelled)

    @property
    def queue_size(self) -> int:
        """Return the heap size, cancelled entries included.

        O(1), unlike :attr:`pending` — the right shape for a registry
        gauge polled at every snapshot.
        """
        return len(self._queue)

    def peek_next_time(self) -> Optional[float]:
        """Return the time of the next pending event, if any; O(1) amortized.

        Cancelled entries at the heap head are popped lazily — safe, since
        the run loops would skip them anyway.
        """
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        return queue[0].time_ms if queue else None
