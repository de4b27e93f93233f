"""Wilson score intervals and the sequential stopping rule.

A fault-injection campaign estimates Bernoulli rates (P(SDC | strike),
P(DUE | strike), ...).  Fixed trial counts either waste work (the rate
was easy to pin down) or under-deliver (the interval is still wide when
the budget runs out).  The campaign engine instead runs in rounds and
stops when the **Wilson score interval** of the target rate is tighter
than a requested half-width.

Wilson is the right interval here because injection outcomes are rare
events: the normal (Wald) interval collapses to width zero whenever a
round observes no SDCs, which would stop a campaign after one lucky
round.  The Wilson interval stays honestly wide at zero observed
successes (its upper bound is ~``z²/(n+z²)``), so the rule cannot stop
before enough trials have run to *bound* the rate, even at p = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

#: Two-sided z for a 95% interval; campaigns quote everything at 95%.
Z95 = 1.959963984540054


def wilson_interval(
    successes: int, trials: int, z: float = Z95
) -> Tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion.

    Returns ``(lo, hi)`` with ``0 <= lo <= p_hat <= hi <= 1``.  With
    ``trials == 0`` the interval is the uninformative ``(0, 1)``.
    """
    if successes < 0 or trials < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    spread = (
        z * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials))
    ) / denom
    lo = max(0.0, centre - spread)
    hi = min(1.0, centre + spread)
    # Guard float noise at the boundaries: the interval must contain
    # the point estimate even when centre - spread ~ 1e-17 != 0.
    if successes == 0:
        lo = 0.0
    if successes == trials:
        hi = 1.0
    return lo, hi


def wilson_half_width(successes: int, trials: int, z: float = Z95) -> float:
    """Half the width of the Wilson interval (the stopping statistic)."""
    lo, hi = wilson_interval(successes, trials, z)
    return (hi - lo) / 2.0


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the target rate's Wilson half-width is small enough.

    ``target_half_width``
        Stop once ``wilson_half_width(successes, trials) <= target``
        (the acceptance criterion's ±1% is ``0.01``).
    ``min_trials``
        Never stop earlier, however tight the interval — guards the
        rule against tiny-sample flukes at extreme rates.
    ``max_trials``
        Hard budget: always stop at or beyond it, interval or not.
    ``z``
        Interval confidence (default 95%).
    """

    target_half_width: float = 0.01
    min_trials: int = 1_000
    max_trials: int = 1_000_000
    z: float = Z95

    def __post_init__(self) -> None:
        if not 0 < self.target_half_width < 1:
            raise ValueError("target_half_width must be in (0, 1)")
        if self.min_trials < 1 or self.max_trials < self.min_trials:
            raise ValueError("need 1 <= min_trials <= max_trials")

    def half_width(self, successes: int, trials: int) -> float:
        return wilson_half_width(successes, trials, self.z)

    def should_stop(self, successes: int, trials: int) -> bool:
        """Decision after a round, from the campaign-wide aggregate.

        Depends only on (successes, trials) — never on worker count or
        completion order — so the stopping point is deterministic for a
        fixed seed at any ``--jobs`` value.
        """
        if trials >= self.max_trials:
            return True
        if trials < self.min_trials:
            return False
        return self.half_width(successes, trials) <= self.target_half_width


__all__ = [
    "StoppingRule",
    "Z95",
    "wilson_half_width",
    "wilson_interval",
]
