"""The CAT batch path's event queue against the scalar ``access`` oracle.

``counter_scheme_access_batch`` finds every counter-tree event of a
window from one gather and keeps its queue across replays that leave
the tree's generation unchanged (failed DRCAT harvests, PRCAT
refreshes).  These tests drive PRCAT/DRCAT ``access_batch`` and a twin
scheme looping ``access`` over skewed, drifting streams longer than one
window, on trees small enough that the counter pool exhausts and
harvest storms occur, and require identical events, tree registers and
statistics.  The scalar twin also pins the tree's cold-pair floor at or
below the true minimum merged count at every step, across epoch
boundaries and a restore.  They also pin ``_find_cold_pair``'s
merge-victim selection on hand-built trees.
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


def brute_min_merged(tree):
    """Smallest merged count over every mergeable pair (``T`` if none).

    The eligibility filters of ``_find_cold_pair``: two zero-weight leaf
    siblings at level >= ``presplit_levels``; no pair is excluded.
    """
    merged = [
        max(tree._count[left], tree._count[right])
        for left, right in pairs(tree).values()
        if not (tree._weight[left] or tree._weight[right])
        and tree._level[left] >= tree.thresholds.presplit_levels
    ]
    return min(merged, default=tree.thresholds.refresh_threshold)


def scalar_twin(scheme, rows):
    """Loop the scalar oracle; pin the per-counter headroom rule and the
    cold-pair floor (never above the true minimum merged count).

    Returns the ``(position, commands)`` events plus, per window, the
    positions of failed harvests and of refreshes.
    """
    tree = scheme.tree
    # ``_headroom()`` reads per-level caches built with the index map.
    tree.map_rows_to_counters(rows[:1])
    events, failed, refreshed = [], [], []
    for i, row in enumerate(rows.tolist()):
        assert tree._cold_floor <= brute_min_merged(tree), i
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
    assert tree._cold_floor <= brute_min_merged(tree)
    return events, failed, refreshed


def count_replays(scheme):
    """Count the scalar ``access`` calls the batch path makes on ``scheme``."""
    calls = []
    access = scheme.access

    def counted(row):
        calls.append(row)
        return access(row)

    scheme.access = counted
    return calls


def assert_batch_matches_scalar(cls, rows, t, m):
    """Returns the twin's failed harvests and refreshes, and the batched
    scheme's scalar replays."""
    batched = cls(N_ROWS, t, n_counters=m, max_levels=MAX_LEVELS)
    twin = cls(N_ROWS, t, n_counters=m, max_levels=MAX_LEVELS)
    replays = count_replays(batched)
    got = batched.access_batch(rows)
    want, failed, refreshed = scalar_twin(twin, rows)
    assert got == want
    assert batched.tree.to_state() == twin.tree.to_state()
    assert batched.stats.snapshot() == twin.stats.snapshot()
    return failed, refreshed, replays


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
    """The queue survives failed harvests and re-gathers on a refresh;
    it settles most failed harvests in place, without a replay."""
    rows = skewed_stream(0, 3 * BATCH_WINDOW, 4, 0.6)
    failed, refreshed, replays = assert_batch_matches_scalar(
        DRCATScheme, rows, 64, 8
    )
    assert any(
        f < r and f // BATCH_WINDOW == r // BATCH_WINDOW
        for f in failed
        for r in refreshed
    )
    assert len(replays) < len(failed)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n_chunks=st.integers(3, 6),
    hot_fraction=st.sampled_from([0.5, 0.7, 0.9]),
    t=st.sampled_from([32, 64]),
    m=st.sampled_from([8, 16]),
)
def test_epochs_and_restore_match_scalar_loop(seed, n_chunks, hot_fraction, t, m):
    """Epoch decays and a mid-run restore cross the floor's resets.

    Both sides end every chunk with ``on_interval_boundary()``; midway,
    each round-trips ``to_state`` into a scheme that has already run, so
    a floor left over from that scheme's own history would show.
    """
    rows = skewed_stream(seed, 2 * BATCH_WINDOW, 4, hot_fraction)

    def scheme():
        return DRCATScheme(N_ROWS, t, n_counters=m, max_levels=MAX_LEVELS)

    batched, twin = scheme(), scheme()
    for i, chunk in enumerate(np.array_split(rows, n_chunks)):
        if i == n_chunks // 2:
            ran = [scheme(), scheme()]
            for other in ran:
                other.access_batch(skewed_stream(seed + 1, BATCH_WINDOW, 2, 0.9))
            ran[0].restore_state(batched.to_state())
            ran[1].restore_state(twin.to_state())
            batched, twin = ran
        assert batched.access_batch(chunk) == scalar_twin(twin, chunk)[0]
        assert batched.to_state() == twin.to_state()
        batched.on_interval_boundary()
        twin.on_interval_boundary()


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

    def test_split_drops_the_floor(self, indexed):
        # A failed scan raises the floor to the smallest merged count
        # (40); a split then creates a colder zero-weight pair.
        tree = pair_tree(indexed, split=(0, 1, 2))
        assert tree._find_cold_pair(exclude=-1, count_gate=30) is None
        assert tree._cold_floor == 40
        tree._count[3] = 5  # pre-split leaf, in no mergeable pair
        tree._split(3, tree._low[3])
        assert tree._cold_floor <= brute_min_merged(tree) == 5
        chosen = tree._find_cold_pair(exclude=-1, count_gate=30)[0]
        assert 3 in pairs(tree)[chosen]
