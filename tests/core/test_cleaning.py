"""Tests for the cleaning-logic sweep scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CleaningLogic


class GeneratorSchedule:
    """The definition: the sweep schedule as a per-check generator loop."""

    def __init__(self, n_sets, interval):
        self.n_sets, self.interval = n_sets, interval
        self.next_set = self.last_cycle = self.balance = self.checks = 0

    def due_sets(self, cycle):
        if cycle < self.last_cycle:
            raise ValueError("cleaning clock moved backwards")
        self.balance += (cycle - self.last_cycle) * self.n_sets
        self.last_cycle = cycle
        cap = 2 * self.n_sets
        issued = 0
        while self.balance >= self.interval and issued < cap:
            self.balance -= self.interval
            current = self.next_set
            self.next_set = (current + 1) % self.n_sets
            self.checks += 1
            issued += 1
            yield current
        if issued == cap:
            self.balance %= self.interval


class TestValidation:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            CleaningLogic(n_sets=16, interval_cycles=0)

    def test_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            CleaningLogic(n_sets=0, interval_cycles=100)

    def test_clock_must_not_go_backwards(self):
        cl = CleaningLogic(n_sets=4, interval_cycles=100)
        list(cl.due_sets(50))
        with pytest.raises(ValueError):
            list(cl.due_sets(40))


class TestSchedule:
    def test_each_line_checked_once_per_interval(self):
        """After exactly one interval, every set was visited once."""
        cl = CleaningLogic(n_sets=8, interval_cycles=800)
        visited = []
        for cycle in range(0, 801, 10):
            visited.extend(cl.due_sets(cycle))
        assert sorted(visited) == list(range(8))

    def test_sets_visited_in_order(self):
        cl = CleaningLogic(n_sets=4, interval_cycles=400)
        visited = []
        for cycle in range(0, 1601, 25):
            visited.extend(cl.due_sets(cycle))
        assert visited[:8] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_no_checks_before_first_slot(self):
        cl = CleaningLogic(n_sets=4, interval_cycles=400)
        assert list(cl.due_sets(99)) == []
        assert list(cl.due_sets(100)) == [0]

    def test_interval_smaller_than_sets(self):
        """Multiple sets can come due in a single cycle."""
        cl = CleaningLogic(n_sets=8, interval_cycles=4)
        due = list(cl.due_sets(1))
        assert due == [0, 1]

    def test_cycles_per_set_check(self):
        cl = CleaningLogic(n_sets=4096, interval_cycles=1 << 20)
        assert cl.cycles_per_set_check == 256.0

    @given(
        st.integers(2, 64),
        st.integers(10, 5000),
        st.lists(st.integers(1, 300), min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_long_run_drift(self, n_sets, interval, steps):
        """Total checks == elapsed * n_sets / interval, exactly (floored),
        independent of the call pattern — provided no gap hits the
        two-full-sweep cap."""
        cl = CleaningLogic(n_sets=n_sets, interval_cycles=interval)
        cap_gap = interval  # keeps every advance safely under the sweep cap
        cycle = 0
        total = 0
        for dt in steps:
            cycle += min(dt, cap_gap)
            total += len(list(cl.due_sets(cycle)))
        assert total == (cycle * n_sets) // interval

    def test_idle_gap_capped_at_two_sweeps(self):
        cl = CleaningLogic(n_sets=4, interval_cycles=4)
        due = list(cl.due_sets(1_000_000))
        assert len(due) == 8  # 2 * n_sets

    @given(
        st.integers(1, 64),
        st.integers(1, 5000),
        st.lists(
            st.one_of(st.integers(0, 300), st.integers(0, 40_000)),
            min_size=1, max_size=60,
        ),
        st.integers(1, 400),
    )
    @settings(max_examples=300, deadline=None)
    def test_early_out_matches_generator_schedule(
        self, n_sets, interval, steps, back
    ):
        """Same sets in the same order, same counters and latch — over
        call patterns that hit the two-sweep cap — and a backwards clock
        raises in both without disturbing either."""
        fast = CleaningLogic(n_sets=n_sets, interval_cycles=interval)
        slow = GeneratorSchedule(n_sets, interval)
        cycle = 0
        for dt in steps:
            cycle += dt
            assert list(fast.due_sets(cycle)) == list(slow.due_sets(cycle))
            assert (fast.checks, fast.next_set) == (slow.checks, slow.next_set)
        if cycle > 0:
            with pytest.raises(ValueError):
                fast.due_sets(cycle - min(back, cycle))
            with pytest.raises(ValueError):
                list(slow.due_sets(cycle - min(back, cycle)))
        cycle += interval
        assert list(fast.due_sets(cycle)) == list(slow.due_sets(cycle))
        assert (fast.checks, fast.next_set) == (slow.checks, slow.next_set)

    def test_checks_counter(self):
        cl = CleaningLogic(n_sets=4, interval_cycles=40)
        for cycle in range(0, 101, 10):
            list(cl.due_sets(cycle))
        assert cl.checks == 10
