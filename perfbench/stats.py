"""Small statistics shared by the benchmark and its tests."""

from __future__ import annotations

import statistics

__all__ = [
    "PERCENTILE_LEVELS",
    "failed_fraction",
    "quartile_spread",
    "tail_percentile",
]

#: Candidate tail levels, highest first.
PERCENTILE_LEVELS = (99.9, 99.0, 95.0, 90.0, 50.0)


def tail_percentile(samples: int, beyond: int = 10) -> float | None:
    """The highest level in :data:`PERCENTILE_LEVELS` that leaves at
    least *beyond* of *samples* above it, or None when none does.

    1,000 samples give 99 (ten beyond it); 999 give 95.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    for level in PERCENTILE_LEVELS:
        # Integer arithmetic: samples * (100 - level) / 100 >= beyond.
        if round(samples * (1000 - round(level * 10))) >= beyond * 1000:
            return level
    return None


def failed_fraction(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("attempted must be >= 1")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must be in [0, attempted]")
    return failed / attempted


def quartile_spread(values) -> float:
    """(Q3 − Q1) / median, with the quartiles of
    ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))
