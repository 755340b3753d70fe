"""Split-threshold schedules for the Counter-based Adaptive Tree.

Section IV-D of the paper shows that the CAT's effectiveness is sensitive
to the *split thresholds* ``T_l`` — the counter value at which a level-
``l`` leaf splits into two level-``l+1`` leaves.  Three facts anchor the
schedule:

* ``T_{L-1} = T`` (the refresh threshold itself terminates the schedule);
* ``T_{L-2} = T/2`` so the tree always finishes growing before any counter
  can reach ``T``;
* at the *critical bias* (the access skew at which an unbalanced tree
  starts beating the balanced one, ``x > 3w`` in the paper's 4-counter
  example) the tie condition gives ``T_{l+1} = 2 T_l`` between adjacent
  levels near the start of growth.

The paper's generalized model lives in a technical report that is not
public; for the one configuration whose values the paper prints
(``T = 32768, M = 64, L = 10``: 5155, 10309, 12886, 16384, 32768) we use
the published constants verbatim.  For every other configuration we
provide two strategies:

``"model"`` (default)
    A cost-balance schedule derived from the same reasoning as the paper's
    4-counter example, implemented in
    :func:`repro.analysis.cost_model.derive_split_thresholds`.  It
    interpolates between the doubling regime at the first split level and
    the fixed ``T/2 → T`` tail, which reproduces the published M=64/L=10
    values to within a few percent.

``"geometric"``
    The naive repeated-doubling schedule ``T_l = T / 2^(L-1-l)``, useful
    as an ablation baseline (bench ``bench_ablation_thresholds``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.cost_model import derive_split_thresholds

#: Published split thresholds, keyed by (refresh_threshold, M, L).
#: Values are for levels m-1 .. L-1 where m = log2(M).
PAPER_THRESHOLDS: dict[tuple[int, int, int], tuple[int, ...]] = {
    (32768, 64, 10): (5155, 10309, 12886, 16384, 32768),
}


def _geometric_schedule(refresh_threshold: int, first_level: int, last_level: int) -> list[int]:
    """Repeated-doubling schedule ``T_l = T / 2^(last_level - l)``."""
    out = []
    for level in range(first_level, last_level + 1):
        out.append(max(1, refresh_threshold >> (last_level - level)))
    return out


@dataclass(frozen=True)
class SplitThresholds:
    """The per-level split-threshold schedule of one CAT configuration.

    Attributes
    ----------
    refresh_threshold:
        The crosstalk refresh threshold ``T`` (e.g. 32768).
    n_counters:
        ``M``, the number of hardware counters per bank (power of two).
    max_levels:
        ``L``, the maximum tree depth (levels ``0 .. L-1``).
    presplit_levels:
        ``λ``: the CAT starts from a complete balanced tree with λ levels
        (λ = log2(M) in the paper's model derivation, which leaves M/2
        counters free to grow the tree non-uniformly).
    values:
        Tuple of thresholds for levels ``presplit_levels-1 .. L-1``;
        ``values[-1] == refresh_threshold``.
    strategy:
        Which schedule produced the values (``"paper"``, ``"model"`` or
        ``"geometric"``).
    """

    refresh_threshold: int
    n_counters: int
    max_levels: int
    presplit_levels: int
    values: tuple[int, ...]
    strategy: str

    @classmethod
    def create(
        cls,
        refresh_threshold: int,
        n_counters: int,
        max_levels: int,
        strategy: str = "auto",
        presplit_levels: int | None = None,
    ) -> "SplitThresholds":
        """Build a schedule for a (T, M, L) configuration.

        ``strategy="auto"`` selects the paper-published table when the
        configuration matches, otherwise the cost-balance model.
        """
        if n_counters < 2 or n_counters & (n_counters - 1):
            raise ValueError(f"n_counters must be a power of two >= 2, got {n_counters}")
        m = int(math.log2(n_counters))
        if presplit_levels is None:
            presplit_levels = m
        if not 1 <= presplit_levels <= m:
            raise ValueError(
                f"presplit_levels must be in [1, log2(M)={m}], got {presplit_levels}"
            )
        if max_levels <= m:
            raise ValueError(
                f"max_levels (L={max_levels}) must exceed log2(M)={m} for the "
                "tree to have room to grow; use SCA for a purely static scheme"
            )
        first_level = presplit_levels - 1
        last_level = max_levels - 1
        key = (refresh_threshold, n_counters, max_levels)
        if strategy == "auto":
            strategy = "paper" if key in PAPER_THRESHOLDS else "model"
        if strategy == "paper":
            if key not in PAPER_THRESHOLDS:
                raise KeyError(
                    f"no published thresholds for T={refresh_threshold}, "
                    f"M={n_counters}, L={max_levels}; use strategy='model'"
                )
            published = PAPER_THRESHOLDS[key]
            # Published values cover levels m-1 .. L-1.  If λ < m the head
            # levels below m-1 extend by halving.
            values = list(published)
            for _ in range(m - presplit_levels):
                values.insert(0, max(1, values[0] // 2))
        elif strategy == "model":
            # The model depends only on T and the level span, so asking
            # for M = 2**λ yields levels λ-1 .. L-1 for any λ <= log2(M).
            values = derive_split_thresholds(
                refresh_threshold, 1 << presplit_levels, max_levels
            )
        elif strategy == "geometric":
            values = _geometric_schedule(refresh_threshold, first_level, last_level)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        values_t = tuple(values)
        if len(values_t) != last_level - first_level + 1:
            raise AssertionError("schedule length mismatch")
        if values_t[-1] != refresh_threshold:
            raise AssertionError("schedule must terminate at the refresh threshold")
        if any(b <= a for a, b in zip(values_t, values_t[1:])):
            raise AssertionError(f"schedule must be strictly increasing: {values_t}")
        return cls(
            refresh_threshold=refresh_threshold,
            n_counters=n_counters,
            max_levels=max_levels,
            presplit_levels=presplit_levels,
            values=values_t,
            strategy=strategy,
        )

    def threshold_for_level(self, level: int) -> int:
        """Split threshold ``T_l`` for a counter at tree level ``level``.

        Levels below the pre-split depth never hold an active counter once
        the pre-split completes, but during construction-from-root (λ=1)
        they use the first scheduled value extended by halving.
        """
        first_level = self.presplit_levels - 1
        if level >= self.max_levels - 1:
            return self.refresh_threshold
        if level < first_level:
            # Extend below the schedule by halving (only reachable when a
            # caller builds from the root with λ < presplit schedule head).
            return max(1, self.values[0] >> (first_level - level))
        return self.values[level - first_level]

    def scaled(self, factor: float) -> "SplitThresholds":
        """Return a schedule with every threshold divided by ``factor``.

        Used by the simulator's scale-invariance machinery: dividing T and
        all split thresholds by the same factor (while dividing access
        counts identically) preserves the tree dynamics.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        new_values = [max(2, int(round(v / factor))) for v in self.values]
        # Re-impose strict monotonicity after rounding.
        for i in range(1, len(new_values)):
            if new_values[i] <= new_values[i - 1]:
                new_values[i] = new_values[i - 1] + 1
        return SplitThresholds(
            refresh_threshold=new_values[-1],
            n_counters=self.n_counters,
            max_levels=self.max_levels,
            presplit_levels=self.presplit_levels,
            values=tuple(new_values),
            strategy=self.strategy + "+scaled",
        )
