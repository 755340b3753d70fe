"""Tests for the workload suite and synthetic stream generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.suites import (
    SUITES,
    WORKLOAD_ORDER,
    WORKLOADS,
    get_workload,
    phase_layouts,
    row_frequency_histogram,
)
from repro.workloads.synthetic import (
    StreamModel,
    _zipf_cdf,
    _zipf_draw,
    _zipf_guide,
    interarrival_times_ns,
    single_aggressor_stream,
    uniform_stream,
)


class TestSuiteCatalogue:
    def test_eighteen_workloads(self):
        assert len(WORKLOADS) == 18
        assert len(WORKLOAD_ORDER) == 18

    def test_suite_membership(self):
        assert len(SUITES["COMM"]) == 5
        assert len(SUITES["PARSEC"]) == 7
        assert len(SUITES["SPEC"]) == 4
        assert len(SUITES["BIO"]) == 2

    def test_figure8_order(self):
        assert WORKLOAD_ORDER[0] == "comm1"
        assert WORKLOAD_ORDER[-1] == "tigr"

    def test_lookup(self):
        assert get_workload("black").suite == "PARSEC"
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_seeds_are_stable_and_distinct(self):
        seeds = [spec.seed for spec in WORKLOADS.values()]
        assert len(set(seeds)) == len(seeds)

    def test_rng_reproducible(self):
        spec = get_workload("comm1")
        a = spec.rng().integers(0, 1000, 10)
        b = spec.rng().integers(0, 1000, 10)
        assert list(a) == list(b)


class TestRowFrequency:
    def test_histogram_length(self):
        hist = row_frequency_histogram(get_workload("black"), 65536, 50_000)
        assert len(hist) == 65536
        assert hist.sum() == 50_000

    def test_blackscholes_concentration(self):
        """Figure 3: a small row group dominates accesses."""
        hist = row_frequency_histogram(get_workload("black"), 65536, 50_000)
        top = np.sort(hist)[::-1]
        assert top[:64].sum() > 0.5 * hist.sum()

    def test_streaming_workload_spread(self):
        """libquantum approaches a uniform sweep."""
        hist = row_frequency_histogram(get_workload("libq"), 65536, 50_000)
        top = np.sort(hist)[::-1]
        assert top[:64].sum() < 0.4 * hist.sum()

    def test_phases_move_hot_sets(self):
        spec = get_workload("black")
        h0 = row_frequency_histogram(spec, 4096, 20_000, phase=0)
        h1 = row_frequency_histogram(spec, 4096, 20_000, phase=1)
        hot0 = set(np.argsort(h0)[-10:])
        hot1 = set(np.argsort(h1)[-10:])
        assert hot0 != hot1


class TestStreamModel:
    def test_sample_length_and_range(self):
        model = get_workload("comm1").stream_model(4096)
        rng = np.random.default_rng(0)
        layout = model.phase_layout(rng)
        rows = model.sample(rng, 5000, layout)
        assert len(rows) == 5000
        assert rows.min() >= 0 and rows.max() < 4096

    def test_zero_accesses(self):
        model = uniform_stream(1024)
        rng = np.random.default_rng(0)
        layout = model.phase_layout(rng)
        assert len(model.sample(rng, 0, layout)) == 0

    def test_uniform_stream_has_no_hot_set(self):
        model = uniform_stream(1024)
        rng = np.random.default_rng(1)
        layout = model.phase_layout(rng)
        rows = model.sample(rng, 20_000, layout)
        hist = np.bincount(rows, minlength=1024)
        assert hist.max() < 0.01 * len(rows)

    def test_single_aggressor_dominates(self):
        model = single_aggressor_stream(1024, hot_fraction=0.9)
        rng = np.random.default_rng(2)
        layout = model.phase_layout(rng)
        rows = model.sample(rng, 10_000, layout)
        hist = np.bincount(rows, minlength=1024)
        assert hist.max() >= 0.85 * len(rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamModel(0, 1, 0.5, 1, 1.0, 1)
        with pytest.raises(ValueError):
            StreamModel(64, 1, 1.5, 1, 1.0, 64)
        with pytest.raises(ValueError):
            StreamModel(64, 0, 0.5, 1, 1.0, 64)  # hot_fraction needs hot rows
        with pytest.raises(ValueError):
            StreamModel(64, 1, 0.5, 0, 1.0, 64)

    def test_phase_layouts_per_workload(self):
        spec = get_workload("comm3")
        layouts = phase_layouts(spec, 4096)
        assert len(layouts) == spec.phase_count


#: Uniform draws are multiples of 2**-53 in [0, 1); a "tick" is the
#: integer multiplier.
GRID = 2 ** 53


class _FixedUniforms:
    """Stands in for a Generator whose next ``random(size)`` is ``u``."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, size: int) -> np.ndarray:
        assert size == len(self.u)
        return self.u


@st.composite
def zipf_draw_cases(draw):
    """``(n, alpha, u)`` with ``u`` on the 2**-53 grid, aimed at the
    guide table's edge cases: bucket edges ``j/K`` and the grid value
    just below them, and CDF steps rounded down to the grid."""
    n = draw(st.integers(1, 65536))
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]))
    k = len(_zipf_guide(n, alpha)) - 1
    cdf = _zipf_cdf(n, alpha)
    ticks = draw(st.lists(st.integers(0, GRID - 1), max_size=8))
    for j in draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=8)):
        ticks.append(j * (GRID // k))
        ticks.append(max(0, j * (GRID // k) - 1))
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=16)):
        ticks.append(min(int(np.floor(cdf[i] * GRID)), GRID - 1))
    return n, alpha, np.array(ticks, dtype=np.float64) / GRID


class TestZipfGuideTable:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=zipf_draw_cases())
    def test_draw_equals_binary_search(self, case):
        n, alpha, u = case
        try:
            cdf = _zipf_cdf(n, alpha)
            guide = _zipf_guide(n, alpha)
            k = len(guide) - 1
            assert k >= 4 * n and k & (k - 1) == 0
            assert np.array_equal(
                guide, np.searchsorted(cdf, np.arange(k + 1) / k, "right"))
            pool = np.arange(n)[::-1] * 3 + 1
            got = _zipf_draw(_FixedUniforms(u), pool, alpha, len(u))
            assert np.array_equal(
                got, pool[np.searchsorted(cdf, u, side="right")])
        finally:
            # Up to 1.5 MB of tables per n; do not keep 150 of them.
            for cached in (_zipf_cdf, _zipf_guide):
                cached.cache_clear()


class TestInterarrival:
    def test_times_fit_duration(self):
        rng = np.random.default_rng(0)
        times = interarrival_times_ns(rng, 1000, 64e6)
        assert len(times) == 1000
        assert times[0] > 0
        assert times[-1] < 64e6
        assert np.all(np.diff(times) >= 0)

    def test_empty(self):
        rng = np.random.default_rng(0)
        assert len(interarrival_times_ns(rng, 0, 1e6)) == 0

    def test_mean_rate(self):
        rng = np.random.default_rng(1)
        times = interarrival_times_ns(rng, 10_000, 1e6)
        mean_gap = np.diff(times).mean()
        assert mean_gap == pytest.approx(1e6 / 10_000, rel=0.05)
