"""The CAT batch path's event queue against the scalar ``access`` oracle.

``counter_scheme_access_batch`` finds every counter-tree event of a
window from one gather and keeps its queue across replays that leave
the tree's generation unchanged (failed DRCAT harvests, PRCAT
refreshes).  These tests drive PRCAT/DRCAT ``access_batch`` and a twin
scheme looping ``access`` over skewed, drifting streams longer than one
window, on trees small enough that the counter pool exhausts and
harvest storms occur, and require identical events, tree registers and
statistics.  They also pin ``_find_cold_pair``'s merge-victim selection
on hand-built trees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BATCH_WINDOW
from repro.core.cat import PRCATScheme
from repro.core.counter_tree import CounterTree
from repro.core.drcat import DRCATScheme
from repro.core.thresholds import SplitThresholds

N_ROWS = 256
MAX_LEVELS = 6


def skewed_stream(seed, n, n_hot, hot_fraction):
    """Uniform background plus a hot set that moves halfway through."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, N_ROWS, size=n)
    for lo, hi in ((0, n // 2), (n // 2, n)):
        hot_rows = rng.integers(0, N_ROWS, size=n_hot)
        mask = rng.random(hi - lo) < hot_fraction
        rows[lo:hi][mask] = rng.choice(hot_rows, size=int(mask.sum()))
    return rows


def scalar_twin(scheme, rows):
    """Loop the scalar oracle; pin the per-counter headroom rule.

    Returns the ``(position, commands)`` events plus, per window, the
    positions of failed harvests and of refreshes.
    """
    tree = scheme.tree
    # ``_headroom()`` reads per-level caches built with the index map.
    tree.map_rows_to_counters(rows[:1])
    events, failed, refreshed = [], [], []
    for i, row in enumerate(rows.tolist()):
        headroom = tree._headroom()
        for c in range(tree.n_counters):
            if tree._counter_active[c]:
                assert tree._headroom_of(c) == headroom[c], (i, c)
        blocked = sum(tree._harvest_blocked)
        refreshes = tree.total_refresh_commands
        cmds = scheme.access(row)
        if cmds:
            events.append((i, cmds))
        if tree.total_refresh_commands != refreshes:
            refreshed.append(i)
        elif sum(tree._harvest_blocked) > blocked:
            failed.append(i)
    return events, failed, refreshed


def assert_batch_matches_scalar(cls, rows, t, m):
    batched = cls(N_ROWS, t, n_counters=m, max_levels=MAX_LEVELS)
    twin = cls(N_ROWS, t, n_counters=m, max_levels=MAX_LEVELS)
    got = batched.access_batch(rows)
    want, failed, refreshed = scalar_twin(twin, rows)
    assert got == want
    assert batched.tree.to_state() == twin.tree.to_state()
    assert batched.stats.snapshot() == twin.stats.snapshot()
    return failed, refreshed


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    cls=st.sampled_from([PRCATScheme, DRCATScheme]),
    seed=st.integers(0, 2**16),
    length=st.integers(BATCH_WINDOW + 1, 3 * BATCH_WINDOW),
    n_hot=st.integers(1, 8),
    hot_fraction=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    t=st.sampled_from([32, 64, 128]),
    m=st.sampled_from([4, 8, 16]),
)
def test_access_batch_matches_scalar_loop(
    cls, seed, length, n_hot, hot_fraction, t, m
):
    rows = skewed_stream(seed, length, n_hot, hot_fraction)
    assert_batch_matches_scalar(cls, rows, t, m)


def test_failed_harvest_then_refresh_in_one_window():
    """The queue survives failed harvests and re-gathers on a refresh."""
    rows = skewed_stream(0, 3 * BATCH_WINDOW, 4, 0.6)
    failed, refreshed = assert_batch_matches_scalar(DRCATScheme, rows, 64, 8)
    assert any(
        f < r and f // BATCH_WINDOW == r // BATCH_WINDOW
        for f in failed
        for r in refreshed
    )


# ---------------------------------------------------------------------------
# _find_cold_pair selection rules
# ---------------------------------------------------------------------------


def pair_tree(indexed, split=(0, 1, 2, 3)):
    """M=8 tree: pre-split leaves 0-3 (level 2), then ``split`` halved.

    Every split leaf becomes a level-3 sibling pair under a fresh inode;
    all counts start at 40 (T=64) and all weights at 0.  ``indexed``
    builds the batch path's row-block index map.
    """
    tree = CounterTree(64, SplitThresholds.create(64, 8, 5), track_weights=True)
    for idx in split:
        tree._split(idx, tree._low[idx])
    for c in range(tree.n_counters):
        if tree._counter_active[c]:
            tree._count[c] = 40
    if indexed:
        tree.map_rows_to_counters(np.arange(64))
    return tree


def pairs(tree):
    """``{inode: (left, right)}`` of every inode with two leaf children."""
    return {
        j: (tree._child_l[j], tree._child_r[j])
        for j in range(tree.n_counters - 1)
        if tree._inode_active[j] and tree._leaf_l[j] and tree._leaf_r[j]
    }


@pytest.fixture(params=[False, True], ids=["no-index-map", "index-map"])
def indexed(request):
    return request.param


class TestFindColdPair:
    def test_lowest_inode_wins_a_tie(self, indexed):
        tree = pair_tree(indexed)
        by_inode = pairs(tree)
        low, high = min(by_inode), max(by_inode)
        for inode in (low, high):
            left, right = by_inode[inode]
            tree._count[left], tree._count[right] = 3, 5
        assert tree._find_cold_pair(exclude=-1)[0] == low

    def test_smallest_merged_count_wins(self, indexed):
        # The merged count is the larger child count (max inheritance).
        tree = pair_tree(indexed)
        by_inode = pairs(tree)
        low, high = min(by_inode), max(by_inode)
        tree._count[by_inode[low][0]], tree._count[by_inode[low][1]] = 1, 12
        tree._count[by_inode[high][0]], tree._count[by_inode[high][1]] = 9, 9
        assert tree._find_cold_pair(exclude=-1)[0] == high

    def test_exclude_disqualifies_its_pair(self, indexed):
        tree = pair_tree(indexed)
        by_inode = pairs(tree)
        cold, other = sorted(by_inode)[:2]
        tree._count[by_inode[cold][0]] = tree._count[by_inode[cold][1]] = 0
        tree._count[by_inode[other][0]] = tree._count[by_inode[other][1]] = 10
        for hot in by_inode[cold]:
            assert tree._find_cold_pair(exclude=hot)[0] == other

    def test_nonzero_weight_disqualifies(self, indexed):
        tree = pair_tree(indexed)
        by_inode = pairs(tree)
        cold, other = sorted(by_inode)[:2]
        tree._count[by_inode[cold][0]] = tree._count[by_inode[cold][1]] = 0
        tree._count[by_inode[other][0]] = tree._count[by_inode[other][1]] = 10
        for child in by_inode[cold]:
            tree._weight[child] = 1
            assert tree._find_cold_pair(exclude=-1)[0] == other
            tree._weight[child] = 0

    def test_pair_below_presplit_levels_never_merges(self, indexed):
        # Leaves 0 and 1 stay pre-split (level 2 < presplit_levels = 3).
        tree = pair_tree(indexed, split=(2, 3))
        by_inode = pairs(tree)
        shallow = [j for j, (left, _) in by_inode.items() if left == 0]
        assert shallow and tree._level[0] < tree.thresholds.presplit_levels
        tree._count[0] = tree._count[1] = 0
        chosen = tree._find_cold_pair(exclude=-1)[0]
        assert chosen != shallow[0]
        assert tree._level[tree._child_l[chosen]] >= 3

    def test_count_gate_disqualifies(self, indexed):
        tree = pair_tree(indexed)
        by_inode = pairs(tree)
        cold = min(by_inode)
        tree._count[by_inode[cold][0]] = 12
        tree._count[by_inode[cold][1]] = 2
        assert tree._find_cold_pair(exclude=-1, count_gate=12)[0] == cold
        assert tree._find_cold_pair(exclude=-1, count_gate=11) is None
