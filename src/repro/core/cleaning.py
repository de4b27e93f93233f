"""The paper's dirty-line cleaning FSM (Figure 2).

Hardware view: a cycle counter plus a latch holding the next cache set
number.  Every ``interval / n_sets`` cycles the logic visits the latched
set, examines each line's (dirty, written) pair and either cleans the
line (``dirty=1, written=0`` — predicted write-dead) or resets its
written bit (``written=1`` — still being modified, second chance).  The
latch then advances, so each individual line is revisited once per
*cleaning interval* — the paper's 64K…4M-cycle parameter.

This module implements only the sweep schedule; the per-line actions
live in :meth:`repro.core.protected_cache.ProtectedL2.advance` because
they mutate cache state.  The sweep runs between demand accesses (the
paper gives L1 requests priority at the L2 ports), so the schedule is
asked at every reference and nearly always answers "nothing due": that
answer is one multiply-add and one comparison, with no iterator or
result object built.
"""

from __future__ import annotations

from typing import Dict, Sequence


class CleaningLogic:
    """Sweep scheduler: which sets are due for a cleaning check.

    The schedule is exact in the long run even when ``interval`` is not
    a multiple of ``n_sets``: elapsed cycles are accounted in units of
    ``1 / n_sets`` cycles so no drift accumulates.
    """

    def __init__(self, n_sets: int, interval_cycles: int) -> None:
        if n_sets <= 0:
            raise ValueError("n_sets must be positive")
        if interval_cycles <= 0:
            raise ValueError("cleaning interval must be positive")
        self.n_sets = n_sets
        self.interval_cycles = interval_cycles
        #: Next set the latch points at.
        self.next_set = 0
        self._last_cycle = 0
        #: Accumulated time in units of 1/n_sets cycles.
        self._tick_balance = 0
        #: Total set checks issued (for reporting).
        self.checks = 0

    #: :class:`~repro.telemetry.metrics.StatsSource` identity.
    labels = {"component": "cleaning-fsm"}

    @property
    def cycles_per_set_check(self) -> float:
        """Average cycles between consecutive set visits."""
        return self.interval_cycles / self.n_sets

    def as_dict(self) -> Dict[str, int]:
        return {"checks": self.checks, "next_set": self.next_set}

    def reset(self, cycle: int = 0) -> None:
        """Zero the check counter; the sweep latch keeps its position."""
        self.checks = 0

    def due_sets(self, cycle: int) -> Sequence[int]:
        """Every set due for a check in (last cycle, ``cycle``], in order.

        Cycles must be non-decreasing across calls.  If the simulator
        jumps far ahead, at most two full sweeps are issued for the gap —
        re-checking an unchanged set more often than that is idempotent
        (cleaning an already-clean cache), so capping keeps long idle
        gaps cheap without changing observable state.

        Whether anything is due is plain arithmetic on the tick balance;
        the common "nothing due" answer is the empty tuple.  Otherwise
        ``balance // interval`` checks are due, capped at two sweeps, and
        either way the balance keeps only its remainder modulo the
        interval (an over-long idle gap is discarded, as the cap says).
        """
        if cycle < self._last_cycle:
            raise ValueError("cleaning clock moved backwards")
        balance = self._tick_balance + (cycle - self._last_cycle) * self.n_sets
        self._last_cycle = cycle
        interval = self.interval_cycles
        if balance < interval:
            self._tick_balance = balance
            return ()
        n_sets = self.n_sets
        due = min(balance // interval, 2 * n_sets)
        self._tick_balance = balance % interval
        first = self.next_set
        self.next_set = (first + due) % n_sets
        self.checks += due
        return [(first + i) % n_sets for i in range(due)]
