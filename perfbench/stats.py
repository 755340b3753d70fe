"""Order statistics the benchmark reports."""

from __future__ import annotations


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def tail_note(values, q: float) -> str:
    """How many samples lie beyond the ``q``-th percentile, for the table."""
    beyond = int(len(values) * (100.0 - q) / 100.0)
    flag = "" if beyond >= 10 else ", fewer than 10 beyond: indicative"
    return f"n={len(values)}, {beyond} beyond p{q:g}{flag}"
