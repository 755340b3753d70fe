"""Tests for the split-threshold schedules (Section IV-D)."""

import pytest

from repro.core.thresholds import PAPER_THRESHOLDS, SplitThresholds


class TestPaperAnchor:
    def test_published_values_returned_verbatim(self):
        st = SplitThresholds.create(32768, 64, 10, strategy="paper")
        assert st.values == (5155, 10309, 12886, 16384, 32768)

    def test_auto_selects_paper_for_anchor_config(self):
        st = SplitThresholds.create(32768, 64, 10)
        assert st.strategy == "paper"
        assert st.values == PAPER_THRESHOLDS[(32768, 64, 10)]

    def test_auto_falls_back_to_model_elsewhere(self):
        st = SplitThresholds.create(32768, 64, 11)
        assert st.strategy == "model"

    def test_paper_strategy_rejects_unknown_config(self):
        with pytest.raises(KeyError):
            SplitThresholds.create(16384, 64, 10, strategy="paper")


class TestModelSchedule:
    def test_terminates_at_refresh_threshold(self):
        st = SplitThresholds.create(16384, 64, 11, strategy="model")
        assert st.values[-1] == 16384

    def test_penultimate_is_half_threshold(self):
        st = SplitThresholds.create(32768, 64, 11, strategy="model")
        assert st.values[-2] == 16384

    def test_strictly_increasing(self):
        for t in (8192, 16384, 32768, 65536):
            for m, l in ((32, 10), (64, 11), (128, 12), (256, 13)):
                st = SplitThresholds.create(t, m, l, strategy="model")
                assert all(b > a for a, b in zip(st.values, st.values[1:]))

    def test_first_ratio_is_two(self):
        st = SplitThresholds.create(32768, 64, 11, strategy="model")
        assert st.values[1] == pytest.approx(2 * st.values[0], rel=0.01)

    def test_model_close_to_paper_anchor(self):
        """The generalized model should land near the published values."""
        st = SplitThresholds.create(32768, 64, 10, strategy="model")
        for model_v, paper_v in zip(st.values, PAPER_THRESHOLDS[(32768, 64, 10)]):
            assert model_v == pytest.approx(paper_v, rel=0.12)

    def test_length_matches_level_span(self):
        st = SplitThresholds.create(32768, 64, 11, strategy="model")
        # levels m-1 .. L-1 with m = 6: 5..10 -> 6 values
        assert len(st.values) == 6

    @pytest.mark.parametrize("t, m, max_levels, presplit, expected", [
        (32768, 64, 10, 3, (2179, 4359, 5449, 6957, 9070, 12069, 16384, 32768)),
        (32768, 64, 11, 1, (813, 1626, 2032, 2590, 3365, 4454, 6006, 8245,
                            11522, 16384, 32768)),
        (16384, 256, 13, 5, (797, 1593, 1992, 2541, 3307, 4390, 5941, 8192,
                             16384)),
        (8192, 32, 10, 2, (398, 797, 996, 1270, 1654, 2195, 2970, 4096, 8192)),
        (2048, 16, 9, 4, (243, 486, 608, 779, 1024, 2048)),
        # Tiny T: rounding ties are bumped to keep the schedule increasing.
        (64, 4, 12, 1, (1, 2, 3, 4, 5, 6, 8, 11, 16, 22, 32, 64)),
        # Tinier T: the head would round to 0; it is floored at 1 first.
        (16, 8, 12, 2, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16)),
    ])
    def test_presplit_below_log2m_values(self, t, m, max_levels, presplit,
                                         expected):
        """λ < log2(M) schedules span levels λ-1 .. L-1, pinned literally."""
        st = SplitThresholds.create(t, m, max_levels, strategy="model",
                                    presplit_levels=presplit)
        assert st.values == expected


class TestGeometricSchedule:
    def test_doubling(self):
        st = SplitThresholds.create(32768, 64, 10, strategy="geometric")
        for a, b in zip(st.values, st.values[1:]):
            assert b == 2 * a

    def test_terminates_at_threshold(self):
        st = SplitThresholds.create(32768, 64, 10, strategy="geometric")
        assert st.values[-1] == 32768


class TestValidation:
    def test_rejects_non_power_of_two_counters(self):
        with pytest.raises(ValueError):
            SplitThresholds.create(32768, 48, 11)

    def test_rejects_too_shallow_tree(self):
        # L must exceed log2(M)
        with pytest.raises(ValueError):
            SplitThresholds.create(32768, 64, 6)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            SplitThresholds.create(32768, 64, 11, strategy="nonsense")

    def test_rejects_bad_presplit(self):
        with pytest.raises(ValueError):
            SplitThresholds.create(32768, 64, 11, presplit_levels=0)
        with pytest.raises(ValueError):
            SplitThresholds.create(32768, 64, 11, presplit_levels=7)


class TestThresholdForLevel:
    def test_max_level_returns_refresh_threshold(self):
        st = SplitThresholds.create(32768, 64, 11)
        assert st.threshold_for_level(10) == 32768
        assert st.threshold_for_level(12) == 32768

    def test_schedule_levels(self):
        st = SplitThresholds.create(32768, 64, 10, strategy="paper")
        # presplit λ = 6 -> first scheduled level is 5
        assert st.threshold_for_level(5) == 5155
        assert st.threshold_for_level(6) == 10309
        assert st.threshold_for_level(9) == 32768

    def test_below_schedule_extends_by_halving(self):
        st = SplitThresholds.create(32768, 64, 10, strategy="paper")
        assert st.threshold_for_level(4) == 5155 // 2
        assert st.threshold_for_level(3) == 5155 // 4


class TestScaled:
    def test_scaling_divides_values(self):
        st = SplitThresholds.create(32768, 64, 10, strategy="paper")
        scaled = st.scaled(16.0)
        assert scaled.refresh_threshold == 2048
        for orig, new in zip(st.values, scaled.values):
            assert new == pytest.approx(orig / 16, abs=1.5)

    def test_scaling_preserves_monotonicity(self):
        st = SplitThresholds.create(32768, 64, 14, strategy="model")
        scaled = st.scaled(500.0)
        assert all(b > a for a, b in zip(scaled.values, scaled.values[1:]))

    def test_scaling_rejects_nonpositive(self):
        st = SplitThresholds.create(32768, 64, 11)
        with pytest.raises(ValueError):
            st.scaled(0)

    def test_identity_scale(self):
        st = SplitThresholds.create(32768, 64, 10, strategy="paper")
        assert st.scaled(1.0).values == st.values
