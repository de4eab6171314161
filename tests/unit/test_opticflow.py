"""Unit tests for the Reichardt-style motion detector."""

import numpy as np
import pytest

from repro.apps.opticflow import MotionDetector1D, moving_bar


class TestStimulus:
    def test_moving_bar_right(self):
        frames = moving_bar(8, ticks=4, direction="right")
        assert list(np.argmax(frames, axis=1)) == [0, 1, 2, 3]

    def test_moving_bar_left(self):
        frames = moving_bar(8, ticks=3, direction="left")
        assert list(np.argmax(frames, axis=1)) == [7, 6, 5]

    def test_one_pixel_per_frame(self):
        assert (moving_bar(16, 10, "right").sum(axis=1) == 1).all()


class TestDetector:
    def test_detects_rightward_motion(self):
        det = MotionDetector1D(n_pixels=16)
        frames = moving_bar(16, ticks=12, direction="right")
        assert det.detect(frames) == "right"

    def test_detects_leftward_motion(self):
        det = MotionDetector1D(n_pixels=16)
        frames = moving_bar(16, ticks=12, direction="left")
        assert det.detect(frames) == "left"

    def test_static_scene_is_none(self):
        det = MotionDetector1D(n_pixels=16)
        frames = np.zeros((10, 16), dtype=bool)
        assert det.detect(frames) == "none"

    def test_votes_direction_sensitive(self):
        det = MotionDetector1D(n_pixels=16)
        raster = det.present(moving_bar(16, 12, "right"))
        right, left = det.direction_votes(raster)
        assert right > left
        assert right > 0

    def test_speed_must_match_delay(self):
        # delay-2 detector prefers a bar moving one pixel per two ticks;
        # a fast bar gives weaker rightward evidence than a matched one.
        fast = MotionDetector1D(n_pixels=16, delay=1)
        raster = fast.present(moving_bar(16, 12, "right"))
        matched_votes = fast.direction_votes(raster)[0]
        assert matched_votes > 0

    def test_long_stimulus_equals_the_frame_by_frame_raster(self):
        """A stimulus longer than the delay buffer's slots: ``present`` injects
        each frame at its own tick, so it equals a frame-by-frame run, and no
        detection comes before the first delayed copy lands (tick 2)."""
        frames = moving_bar(24, 24, "right")
        raster = MotionDetector1D(n_pixels=24).present(frames)
        ref = MotionDetector1D(n_pixels=24)
        expected = []
        for t in range(len(frames) + 3):
            if t < len(frames):
                active = np.flatnonzero(frames[t])
                ref.core.inject_many(active, 1)
                ref.core.inject_many(active + 64, 2)
            expected.append(ref.core.step())
        assert np.array_equal(raster, np.array(expected))
        assert raster.any() and not raster[:2].any()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            MotionDetector1D(n_pixels=1)
        with pytest.raises(ValueError):
            MotionDetector1D(n_pixels=100)

    def test_rejects_wrong_frame_width(self):
        det = MotionDetector1D(n_pixels=8)
        with pytest.raises(ValueError):
            det.present(np.zeros((5, 9), dtype=bool))
