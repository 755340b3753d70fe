"""Refresh-cost model and split-threshold derivation (Section IV-D).

The paper derives the split thresholds from a cost model of refreshed
rows.  For the 4-counter example: a balanced tree refreshes
``CostSCA = w * R / T`` rows per interval (Eq. 2), while a tree that
deepened under a bias ``x`` toward one small group refreshes
``CostCAT = ((2w)^2 + w^2 + (w/2)^2 + (x + w/2) * w/2) * alpha / T``
rows (Eq. 3) with ``alpha = R / (x + 4w)``.  Equating the two yields the
critical bias ``x > 3w`` (Eq. 4) above which the unbalanced tree wins,
and the tie condition at that bias fixes adjacent split thresholds at a
ratio of 2 near the start of growth, with the last two thresholds pinned
at ``T/2`` and ``T``.

This module implements the cost functions (used in tests to verify the
critical bias) and the generalized threshold derivation that
:mod:`repro.core.thresholds` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass


def cost_sca(w: float, references: float, refresh_threshold: float) -> float:
    """Eq. 2: rows refreshed per interval by the balanced 4-counter tree.

    ``w = N/4`` is the rows per leaf of the balanced tree.
    """
    return w * references / refresh_threshold


def cost_cat(
    w: float, bias: float, references: float, refresh_threshold: float
) -> float:
    """Eq. 3: rows refreshed by the unbalanced tree of Figure 6(c).

    Counters at levels 1, 2, 3, 3 hold 2w, w, w/2, w/2 rows; the deepest
    group receives ``bias`` extra references.
    """
    alpha = references / (bias + 4 * w)
    weighted_rows = (
        (2 * w) ** 2 + w**2 + (w / 2) ** 2 + (bias + w / 2) * (w / 2)
    )
    return weighted_rows * alpha / refresh_threshold


def critical_bias(w: float) -> float:
    """Eq. 4: the bias above which the unbalanced tree wins (3w)."""
    return 3.0 * w


@dataclass(frozen=True)
class TreeShapeCost:
    """Refresh cost of an arbitrary tree shape under a reference split.

    ``levels`` lists the level of each leaf; ``shares`` the fraction of
    the R references each leaf receives.  The expected rows refreshed is
    ``sum(share_i * R / T * rows_i)`` where ``rows_i = N / 2^level_i``.
    """

    n_rows: int
    levels: tuple[int, ...]
    shares: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.shares):
            raise ValueError("levels and shares must have equal length")
        total_cover = sum(2.0 ** (-l) for l in self.levels)
        if abs(total_cover - 1.0) > 1e-9:
            raise ValueError(f"leaves do not tile the bank (cover={total_cover})")
        if abs(sum(self.shares) - 1.0) > 1e-9:
            raise ValueError("shares must sum to 1")

    def rows_refreshed(self, references: float, refresh_threshold: float) -> float:
        """Expected rows refreshed per interval under this shape."""
        total = 0.0
        for level, share in zip(self.levels, self.shares):
            group_rows = self.n_rows / (1 << level)
            hits = share * references / refresh_threshold
            total += hits * group_rows
        return total


def derive_split_thresholds(
    refresh_threshold: int, n_counters: int, max_levels: int
) -> list[int]:
    """Generalized split-threshold schedule (model strategy).

    Anchors:

    * ``T_{L-1} = T`` and ``T_{L-2} = T/2`` (convergence guarantee);
    * the first split ratio is 2 (the critical-bias tie condition of the
      4-counter example);
    * interior ratios ease toward 5/4, matching the published anchor
      sequence for (T=32K, M=64, L=10): 5155, 10309, 12886, 16384, 32768.

    Returns thresholds for levels ``log2(M)-1 .. L-1``.
    """
    import math

    m = int(math.log2(n_counters))
    first_level = m - 1
    last_level = max_levels - 1
    k = last_level - first_level + 1
    t = refresh_threshold
    if k <= 0:
        return []
    if k == 1:
        return [t]
    if k == 2:
        return [max(1, t // 2), t]
    n_head = k - 1
    values = [0.0] * n_head
    values[-1] = t / 2
    ratios = [2.0]
    n_ratios = n_head - 1
    for j in range(1, n_ratios):
        frac = (j - 1) / max(1, n_ratios - 2) if n_ratios > 2 else 0.0
        ratios.append(1.25 + 0.0215 * frac * (n_ratios - 1))
    for i in range(n_head - 2, -1, -1):
        values[i] = values[i + 1] / ratios[i]
    # Floor at 1 like the geometric schedule: a small T against a long
    # level span would otherwise round the head to a threshold of 0.
    out = [max(1, int(round(v))) for v in values] + [t]
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] + 1
    return out
