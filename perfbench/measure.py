"""Small statistics helpers of the benchmark (pure, tested)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

__all__ = [
    "MIN_BEYOND", "RECONCILE_TOLERANCE", "tail_percentile", "reconcile",
]

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: Layer self times plus the residual must equal the traced wall time
#: within this share of it.
RECONCILE_TOLERANCE = 0.005


def tail_percentile(n: int, candidates: Sequence[float] = (99.9, 99, 95, 90)
                    ) -> Optional[float]:
    """Highest candidate percentile with at least :data:`MIN_BEYOND` of
    ``n`` samples beyond it, or ``None`` when none qualifies."""
    for p in sorted(candidates, reverse=True):
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def reconcile(self_ns: Dict[str, int], residual_ns: int, wall_ns: int
              ) -> float:
    """Relative mismatch of (sum of self times + residual) vs wall time.

    Raises ``ValueError`` when any term is negative, which only a frame
    bookkeeping error can produce.
    """
    if wall_ns <= 0:
        raise ValueError("empty measured region")
    if residual_ns < 0 or any(v < 0 for v in self_ns.values()):
        raise ValueError("negative self time or residual")
    return abs(sum(self_ns.values()) + residual_ns - wall_ns) / wall_ns
