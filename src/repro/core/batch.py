"""Shared machinery for the exact batched (vectorized) scheme fast path.

The batched simulation engine (:mod:`repro.sim.engine`) replaces the
per-activation Python loop with numpy chunk processing while remaining
*event-exact*: it must emit the identical refresh-command sequence — at
the identical stream positions — as the scalar loop, and leave every
counter, statistic, and tree structure in the identical state.

The core idea is *headroom*.  Counting schemes (SCA and the CAT family)
only change externally observable state when some counter crosses a
threshold: a refresh, a split, or a DRCAT harvest attempt.  Between such
events, processing activations is a pure per-counter accumulation, which
vectorizes as an ``np.bincount``.  Each active counter therefore exposes
a *headroom*: the number of further hits it can absorb before its next
event.  Counter ``c`` triggers at the ``headroom[c]``-th occurrence of
``c`` in the stream, so one gather over a window finds every counter's
trigger position at once; they form an *event queue* popped in stream
order.  Each popped event applies the prefix before it in bulk and
replays the single event access through the scheme's scalar ``access``
— which stays the oracle for all tree mutations (split, harvest/merge,
weight updates, refreshes).

The queue stays valid across a replay as long as the tree's *generation*
(:meth:`CounterTree._generation`: the map version, plus the refresh
count when DRCAT weights are tracked) is unchanged.  Such a replay is a
failed DRCAT harvest (it only parks the replayed counter), a PRCAT
refresh (it only resets the replayed counter) or a no-op: no other
counter's headroom moved, and applying the prefix consumed exactly the
hits each queued position was computed from, so only the replayed
counter's next trigger is re-found.  A split, merge or DRCAT refresh
changes the generation — ids, budgets, blocked flags and counts may all
have moved — and the rest of the window is gathered afresh.

Most failed harvests never reach a replay.  When a popped trigger is a
harvest attempt whose gate (:meth:`CounterTree._harvest_gate`) lies
below the tree's cold-pair floor, the scalar scan is certain to return
nothing, so the queue settles the attempt in place: it parks the
counter, leaves the hit in the pending bulk prefix and re-queues the
counter's refresh trigger.  The count at the trigger is known without
applying the prefix: it is the gathered count plus the counter's
occurrences up to the trigger.

Headroom may be *conservative* (too small) without breaking exactness:
a queued position whose scalar replay turns out not to be an event
simply costs one extra scalar call.  It must never be optimistic.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import MitigationScheme, RefreshCommand

#: Window size for chunked batch processing.  Bounds the cost of one
#: gather (a sort of at most this many ids) while keeping the
#: per-window Python overhead negligible.
BATCH_WINDOW = 2048


def check_rows(rows: np.ndarray, n_rows: int) -> None:
    """Vectorized equivalent of the scalar per-access row range check."""
    if len(rows) and (int(rows.min()) < 0 or int(rows.max()) >= n_rows):
        bad = rows[(rows < 0) | (rows >= n_rows)][0]
        raise ValueError(f"row {int(bad)} out of range for bank with {n_rows} rows")


def counter_scheme_access_batch(
    scheme: "MitigationScheme", rows: np.ndarray
) -> list[tuple[int, list["RefreshCommand"]]]:
    """Exact batched access for tree-based schemes (PRCAT / DRCAT).

    Processes windows of accesses against the tree's row-block index
    map.  Each gather queues the trigger position of every counter whose
    remaining hits reach its headroom; events replay through the
    scheme's scalar ``access`` (the oracle) in stream order, except
    harvests certain to fail, which are settled in place, and the
    event-free stretches between them apply via
    :meth:`CounterTree.apply_bulk_counts`.  Returns ``(position,
    commands)`` pairs for every access that emitted commands, in stream
    order.
    """
    n = len(rows)
    if n == 0:
        return []
    check_rows(rows, scheme.n_rows)
    tree = scheme.tree
    n_bins = tree.n_counters
    t = tree.thresholds.refresh_threshold
    top = tree.max_levels - 1
    blocked = tree._harvest_blocked
    events: list[tuple[int, list["RefreshCommand"]]] = []
    scalar_calls = 0
    for base in range(0, n, BATCH_WINDOW):
        chunk = rows[base : base + BATCH_WINDOW]
        start = 0
        while start < len(chunk):
            # Gather the rest of the window: ids, per-counter hit counts,
            # and one trigger per crossing counter.  ``order`` lists each
            # counter's occurrences contiguously, in stream order, ending
            # before ``end[c]``; a queue entry ``(pos, c, k)`` is the
            # access at ``order[k]``, where ``c``'s count is ``off[c] + k``.
            ids = tree.map_rows_to_counters(chunk[start:])
            generation = tree._generation()
            harvesting = (
                tree.track_weights
                and tree._harvest_budget > 0
                and not tree._free_counters
            )
            counts = np.bincount(ids, minlength=n_bins)
            headroom = tree._headroom()
            crossing = (counts >= headroom).nonzero()[0]
            queue: list[tuple[int, int, int]] = []
            if len(crossing):
                order = np.argsort(ids, kind="stable")
                end = np.cumsum(counts)
                trigger = (end - counts + headroom - 1)[crossing]
                off = (np.asarray(tree._count) + counts - end + 1).tolist()
                end = end.tolist()
                queue = list(
                    zip(order[trigger].tolist(), crossing.tolist(), trigger.tolist())
                )
                heapq.heapify(queue)
            applied = 0
            while queue:
                pos, c, k = heapq.heappop(queue)
                count = off[c] + k
                if (
                    harvesting
                    and not blocked[c]
                    and tree._level[c] < top
                    and count < t
                    and tree._harvest_gate(c, count) < tree._cold_floor
                ):
                    # A harvest certain to fail (an unblocked counter below
                    # max level triggers at its split threshold or later):
                    # park ``c``, keep the hit in the bulk prefix; its next
                    # event is a refresh.
                    blocked[c] = True
                    k += t - count
                else:
                    tree.apply_bulk_counts(np.bincount(ids[applied:pos], minlength=n_bins))
                    cmds = scheme.access(int(chunk[start + pos]))
                    scalar_calls += 1
                    if cmds:
                        events.append((base + start + pos, cmds))
                    applied = pos + 1
                    if tree._generation() != generation:
                        break  # re-gather the rest of the window
                    off[c] = tree._count[c] - k
                    k += tree._headroom_of(c)
                if k < end[c]:
                    heapq.heappush(queue, (int(order[k]), c, k))
            else:
                # Queue drained: the rest of the window is event-free.
                rest = np.bincount(ids[applied:], minlength=n_bins) if applied else counts
                tree.apply_bulk_counts(rest)
                applied = len(ids)
            start += applied
    # Scalar replays already counted their own activations.
    scheme.stats.activations += n - scalar_calls
    return events
