"""Synthetic DRAM row-access stream generators.

The paper evaluates on Memory Scheduling Championship traces; those are
not redistributable, so we synthesise per-bank row-activation streams
with the statistical structure the paper documents:

* **unbalanced access**: a small group of rows dominates the activations
  of a bank within a refresh interval (Figure 3);
* **suite-dependent skew**: commercial workloads are moderately skewed,
  some PARSEC workloads (blackscholes, facesim) extremely so, streaming
  SPEC workloads nearly uniform;
* **temporal phases**: hot sets move between intervals (the behaviour
  DRCAT's reconfiguration targets).

A stream is described by a :class:`StreamModel` built from a workload's
parameters; :meth:`StreamModel.sample` draws the row ids of one refresh
interval for one bank.  Mitigation schemes only observe (time, row), so
matching these marginals exercises the identical code paths real traces
would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StreamModel:
    """Mixture model for one bank's row-activation stream.

    ``hot_fraction`` of activations go to ``n_hot`` rows grouped in
    ``n_clusters`` contiguous clusters (intra-cluster popularity is
    Zipf-ranked); the remaining activations follow a Zipf-over-ranks
    distribution across the whole bank through a per-phase permutation.
    """

    n_rows: int
    n_hot: int
    hot_fraction: float
    n_clusters: int
    zipf_alpha: float
    #: support of the background distribution (rows with nonzero mass)
    background_rows: int

    def __post_init__(self) -> None:
        if self.n_rows <= 0:
            raise ValueError("n_rows must be positive")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must lie in [0, 1]")
        if self.n_hot < 0 or self.n_hot > self.n_rows:
            raise ValueError("n_hot out of range")
        if self.hot_fraction > 0 and self.n_hot == 0:
            raise ValueError("hot_fraction > 0 requires n_hot > 0")
        if self.n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        if not 0 < self.background_rows <= self.n_rows:
            raise ValueError("background_rows out of range")

    def phase_layout(self, rng: np.random.Generator) -> "PhaseLayout":
        """Draw the row placement for one phase (hot clusters + perm)."""
        hot_rows = _draw_hot_rows(rng, self.n_rows, self.n_hot, self.n_clusters)
        background = rng.choice(
            self.n_rows, size=self.background_rows, replace=False
        )
        return PhaseLayout(hot_rows=hot_rows, background_rows=background)

    def sample(
        self,
        rng: np.random.Generator,
        n_accesses: int,
        layout: "PhaseLayout",
    ) -> np.ndarray:
        """Draw ``n_accesses`` row ids for one interval in one phase."""
        if n_accesses <= 0:
            return np.empty(0, dtype=np.int64)
        n_hot_acc = int(round(n_accesses * self.hot_fraction))
        n_bg_acc = n_accesses - n_hot_acc
        parts = []
        if n_hot_acc and len(layout.hot_rows):
            parts.append(
                _zipf_draw(
                    rng, layout.hot_rows, max(self.zipf_alpha, 1.0), n_hot_acc
                )
            )
        elif n_hot_acc:
            n_bg_acc += n_hot_acc
        if n_bg_acc:
            parts.append(
                _zipf_draw(
                    rng, layout.background_rows, self.zipf_alpha, n_bg_acc
                )
            )
        rows = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        rng.shuffle(rows)
        return rows.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PhaseLayout:
    """Concrete row placement of one phase."""

    hot_rows: np.ndarray
    background_rows: np.ndarray


@functools.lru_cache(maxsize=256)
def _zipf_cdf(n: int, alpha: float) -> np.ndarray:
    """Cached, normalised Zipf-over-ranks CDF over ``n`` ranks.

    ``alpha = 0`` degenerates to uniform; larger alpha concentrates mass
    on the first ranks.  Cached per (n, alpha): the sweep draws from the
    same distribution for every interval of every bank, and callers only
    read it (the array is read-only).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-alpha) if alpha > 0 else np.ones(n)
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


#: Forward steps a guide-table draw takes through its bucket before the
#: remaining draws fall back to a binary search.  Buckets of Zipf CDFs
#: with ``alpha <= 1.2`` span at most ~12 ranks at ``K ~ 4n``; the cap
#: bounds the heavy tails of larger ``alpha`` (spans of tens of
#: thousands of ranks at ``alpha = 2.5``), where stepping is linear.
_GUIDE_MAX_STEPS = 8


@functools.lru_cache(maxsize=64)
def _zipf_guide(n: int, alpha: float) -> np.ndarray:
    """Cached guide table of :func:`_zipf_cdf` (Chen & Asau 1974).

    ``guide[j] = #{i : cdf[i] <= j/K}`` for ``j = 0..K``, where ``K`` is
    the power of two at or above ``4n``.  Multiplying by a power of two
    is exact, so ``ceil(cdf*K)`` is the first bucket edge at or above
    each CDF step and the table is a cumulative bincount of it.  int32
    keeps a 49K-rank table at 1 MB.
    """
    cdf = _zipf_cdf(n, alpha)
    k = 1 << (4 * n - 1).bit_length()
    edges = np.ceil(cdf * k).astype(np.intp)
    guide = np.cumsum(np.bincount(edges, minlength=k + 1), dtype=np.int32)
    guide.setflags(write=False)
    return guide


def _zipf_draw(
    rng: np.random.Generator, pool: np.ndarray, alpha: float, size: int
) -> np.ndarray:
    """Draw ``size`` Zipf-ranked elements of ``pool`` (with replacement).

    Inverse-transform sampling against the cached CDF; consumes the
    generator stream exactly like ``rng.choice(pool, size, p=probs)``
    (one ``random(size)`` draw) while skipping the per-call
    re-normalisation and cumsum that ``choice`` performs.

    Each uniform ``u`` resolves to ``searchsorted(cdf, u, 'right')``
    exactly, through the guide table instead of a binary search:
    ``u`` is a multiple of 2**-53 below 1, so its bucket ``j =
    floor(u*K)`` is exact and the answer lies in ``[guide[j],
    guide[j+1]]``.  Where the two are equal that is the answer (most
    draws); otherwise the draw steps forward from ``guide[j]`` while
    ``cdf[i] <= u``, which stops by ``n - 1`` because ``cdf[-1] == 1 >
    u``.  Draws still stepping after :data:`_GUIDE_MAX_STEPS` steps are
    finished with ``searchsorted``.  See DESIGN.md "Stream generation".
    """
    n = len(pool)
    cdf = _zipf_cdf(n, alpha)
    guide = _zipf_guide(n, alpha)
    u = rng.random(size)
    bucket = (u * (len(guide) - 1)).astype(np.intp)
    ranks = guide[bucket]
    # guide[1:][bucket] is guide[bucket + 1] without allocating bucket + 1.
    pending = np.flatnonzero(ranks != guide[1:][bucket])
    del bucket
    at, u_pending = ranks[pending], u[pending]
    for _ in range(_GUIDE_MAX_STEPS):
        moved = np.flatnonzero(cdf[at] <= u_pending)
        if not moved.size:
            break
        pending, at, u_pending = pending[moved], at[moved] + 1, u_pending[moved]
        ranks[pending] = at
    else:
        ranks[pending] = np.searchsorted(cdf, u_pending, side="right")
    return pool[ranks]


def _draw_hot_rows(
    rng: np.random.Generator, n_rows: int, n_hot: int, n_clusters: int
) -> np.ndarray:
    """Place ``n_hot`` hot rows into ``n_clusters`` contiguous clusters."""
    if n_hot == 0:
        return np.empty(0, dtype=np.int64)
    n_clusters = min(n_clusters, n_hot)
    base, extra = divmod(n_hot, n_clusters)
    rows: list[np.ndarray] = []
    for c in range(n_clusters):
        size = base + (1 if c < extra else 0)
        start = int(rng.integers(0, max(1, n_rows - size)))
        rows.append(np.arange(start, start + size, dtype=np.int64))
    out = np.unique(np.concatenate(rows))
    # Collisions between clusters can shrink the set; top up randomly.
    while len(out) < n_hot:
        filler = rng.integers(0, n_rows, size=n_hot - len(out))
        out = np.unique(np.concatenate([out, filler]))
    return out[:n_hot]


def interarrival_times_ns(
    rng: np.random.Generator, n_accesses: int, duration_ns: float
) -> np.ndarray:
    """Poisson-like arrival timestamps filling ``duration_ns``.

    Exponential inter-arrivals are drawn and rescaled so the final
    arrival lands just inside the interval — preserving both the mean
    rate and the burstiness that makes bank-conflict stalls realistic.
    """
    if n_accesses <= 0:
        return np.empty(0, dtype=np.float64)
    gaps = rng.exponential(1.0, size=n_accesses)
    times = np.cumsum(gaps)
    times *= duration_ns / times[-1] * (1.0 - 1e-9)
    return times


def uniform_stream(n_rows: int) -> StreamModel:
    """A fully uniform stream (the pattern under which CAT mimics SCA)."""
    return StreamModel(
        n_rows=n_rows,
        n_hot=0,
        hot_fraction=0.0,
        n_clusters=1,
        zipf_alpha=0.0,
        background_rows=n_rows,
    )


def single_aggressor_stream(n_rows: int, hot_fraction: float = 0.9) -> StreamModel:
    """A classic rowhammer pattern: one row takes most activations."""
    return StreamModel(
        n_rows=n_rows,
        n_hot=1,
        hot_fraction=hot_fraction,
        n_clusters=1,
        zipf_alpha=1.2,
        background_rows=n_rows,
    )
