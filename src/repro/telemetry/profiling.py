"""Lightweight phase profiling: wall time and throughput per phase.

A :class:`PhaseProfiler` accumulates (wall seconds, work units) per
named phase — warm-up vs measurement inside one run, cache-lookup vs
execute inside a sweep — and renders events-per-second summaries.  It
is plain accounting on top of ``time.perf_counter``; no signals, no
threads, safe to leave attached.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple


@dataclass
class PhaseRecord:
    """Accumulated cost of one named phase."""

    name: str
    wall_s: float = 0.0
    #: Work units processed in the phase (refs, cells, events...).
    events: int = 0
    calls: int = 0

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "events": self.events,
            "calls": self.calls,
            "events_per_s": self.events_per_s,
        }


class PhaseProfiler:
    """Accumulates wall time and work counts per named phase."""

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseRecord] = {}

    def __len__(self) -> int:
        return len(self._phases)

    def __contains__(self, name: str) -> bool:
        return name in self._phases

    @property
    def phases(self) -> Dict[str, PhaseRecord]:
        return dict(self._phases)

    def record(self, name: str) -> PhaseRecord:
        """The (created-on-demand) record for ``name``."""
        rec = self._phases.get(name)
        if rec is None:
            rec = self._phases[name] = PhaseRecord(name)
        return rec

    def add(self, name: str, wall_s: float, events: int = 0) -> PhaseRecord:
        """Fold one finished stretch of work into phase ``name``."""
        rec = self.record(name)
        rec.wall_s += wall_s
        rec.events += events
        rec.calls += 1
        return rec

    @contextmanager
    def phase(self, name: str, events: int = 0) -> Iterator[PhaseRecord]:
        """Time a ``with`` block as one call of phase ``name``.

        The yielded record can be updated in-block (e.g. bump
        ``rec.events`` as work is discovered); ``events`` passed here
        are added up-front.
        """
        rec = self.record(name)
        rec.events += events
        rec.calls += 1
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec.wall_s += time.perf_counter() - t0

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain-data view, insertion (phase-creation) ordered."""
        return {name: rec.as_dict() for name, rec in self._phases.items()}

    def mark(self) -> Dict[str, Tuple[float, int, int]]:
        """The ``(wall_s, events, calls)`` of every phase so far, for a
        later :meth:`merge` of only what came after."""
        return {
            name: (rec.wall_s, rec.events, rec.calls)
            for name, rec in self._phases.items()
        }

    def merge(
        self,
        other: "PhaseProfiler",
        since: Optional[Dict[str, Tuple[float, int, int]]] = None,
    ) -> None:
        """Fold another profiler's phases into this one; with ``since``
        (an earlier :meth:`mark` of ``other``) only the work ``other``
        recorded after it."""
        since = since or {}
        for name, rec in other._phases.items():
            wall_s, events, calls = since.get(name, (0.0, 0, 0))
            if rec.calls == calls:
                continue
            mine = self.record(name)
            mine.wall_s += rec.wall_s - wall_s
            mine.events += rec.events - events
            mine.calls += rec.calls - calls

    def summary(self) -> str:
        """One line per phase: wall seconds, events, events/s."""
        if not self._phases:
            return "profile: no phases recorded"
        lines = []
        for rec in self._phases.values():
            line = f"  {rec.name}: {rec.wall_s:.3f}s"
            if rec.events:
                line += f", {rec.events} events at {rec.events_per_s:,.0f}/s"
            lines.append(line)
        return "profile:\n" + "\n".join(lines)


__all__ = ["PhaseProfiler", "PhaseRecord"]
