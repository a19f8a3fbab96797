"""Tests for viewing-sphere arithmetic."""

import math

import numpy as np
import pytest

from viewpilot.errors import InvalidInput
from viewpilot.geometry import (
    Action,
    NFoV,
    ViewingAngle,
    angular_distance,
    angular_offset,
    apply_action,
    nfov_iou,
)


class TestApplyAction:
    def test_identity_action(self):
        out = apply_action(ViewingAngle(10, 0), Action(0, 0))
        assert out == ViewingAngle(10, 0)

    def test_azimuth_wraparound(self):
        out = apply_action(ViewingAngle(359, 0), Action(2, 0))
        assert out.azimuth == pytest.approx(1.0)
        assert out.elevation == 0.0

    def test_elevation_clamp_at_pole(self):
        out = apply_action(ViewingAngle(0, 85), Action(0, 10))
        assert out == ViewingAngle(0, 90)

    def test_total_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            prev = ViewingAngle(rng.uniform(-720, 720), rng.uniform(-90, 90))
            delta = Action(rng.uniform(-500, 500), rng.uniform(-200, 200))
            out = apply_action(prev, delta)
            assert 0.0 <= out.azimuth < 360.0
            assert -90.0 <= out.elevation <= 90.0

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            Action(float("nan"), 0)
        with pytest.raises(InvalidInput):
            ViewingAngle(float("inf"), 0)


class TestAngularOffset:
    def test_shortest_path_across_wrap(self):
        off = angular_offset(ViewingAngle(350, 0), ViewingAngle(10, 0))
        assert off.d_azimuth == pytest.approx(20.0)
        assert off.d_elevation == 0.0

    def test_zero_offset(self):
        x = ViewingAngle(123.4, -5.6)
        off = angular_offset(x, x)
        assert off == Action(0, 0)

    def test_pure_elevation(self):
        off = angular_offset(ViewingAngle(0, -10), ViewingAngle(0, 30))
        assert off.d_azimuth == 0.0
        assert off.d_elevation == pytest.approx(40.0)

    def test_offset_inverts_apply(self):
        # apply_action(a, angular_offset(a, b)) == b whenever nothing clamps.
        rng = np.random.default_rng(1)
        for _ in range(300):
            a = ViewingAngle(rng.uniform(0, 360), rng.uniform(-89, 89))
            b = ViewingAngle(rng.uniform(0, 360), rng.uniform(-89, 89))
            back = apply_action(a, angular_offset(a, b))
            assert back.azimuth == pytest.approx(b.azimuth, abs=1e-9)
            assert back.elevation == pytest.approx(b.elevation, abs=1e-9)

    def test_roundtrip_recovers_reduced_action(self):
        # angular_offset(l, apply_action(l, d)) == d with d_azimuth reduced
        # into (-180, 180], for elevations that do not clamp.
        rng = np.random.default_rng(2)
        for _ in range(300):
            l = ViewingAngle(rng.uniform(0, 360), rng.uniform(-50, 50))
            d = Action(rng.uniform(-170, 170), rng.uniform(-30, 30))
            off = angular_offset(l, apply_action(l, d))
            assert off.d_azimuth == pytest.approx(d.d_azimuth, abs=1e-9)
            assert off.d_elevation == pytest.approx(d.d_elevation, abs=1e-9)


class TestAngularDistance:
    def test_coincident(self):
        x = ViewingAngle(42, 13)
        assert angular_distance(x, x) == 0.0

    def test_corner_distance_value(self):
        d = angular_distance(ViewingAngle(0, 0), ViewingAngle(32.75, 24.56))
        assert d == pytest.approx(40.9, abs=0.05)

    def test_wraparound_distance(self):
        assert angular_distance(ViewingAngle(355, 0), ViewingAngle(5, 0)) == pytest.approx(10.0)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = ViewingAngle(rng.uniform(0, 360), rng.uniform(-90, 90))
            b = ViewingAngle(rng.uniform(0, 360), rng.uniform(-90, 90))
            assert angular_distance(a, b) == pytest.approx(angular_distance(b, a), abs=1e-12)

    def test_triangle_inequality_within_half_turn_window(self):
        # Within a 180-degree azimuth window all shortest offsets are the
        # direct planar ones, so the Euclidean triangle inequality applies.
        rng = np.random.default_rng(4)
        for _ in range(300):
            base = rng.uniform(0, 360)
            pts = [
                ViewingAngle((base + rng.uniform(0, 180)) % 360, rng.uniform(-90, 90))
                for _ in range(3)
            ]
            a, b, c = pts
            assert angular_distance(a, c) <= angular_distance(a, b) + angular_distance(b, c) + 1e-9


def _points_in_nfov(az: np.ndarray, el: np.ndarray, box: NFoV) -> np.ndarray:
    """Membership of each point, used by the Monte-Carlo IoU oracle: a
    wrap-aware azimuth distance within half the span and an elevation within
    the clipped extent (no use of the IoU formulas under test)."""
    daz = np.abs(np.mod(az - box.center.azimuth + 180.0, 360.0) - 180.0)
    low, high = box.elevation_extent()
    return (daz <= box.h_span / 2.0) & (low <= el) & (el <= high)


def _iou_monte_carlo(a: NFoV, b: NFoV, n: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    az = rng.uniform(0, 360, n)
    el = rng.uniform(-90, 90, n)
    in_a, in_b = _points_in_nfov(az, el, a), _points_in_nfov(az, el, b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


class TestNfovIou:
    def test_identical_centers(self):
        box = NFoV(ViewingAngle(120, 30))
        assert nfov_iou(box, box) == 1.0

    def test_opposite_centers_disjoint(self):
        a = NFoV(ViewingAngle(0, 0))
        b = NFoV(ViewingAngle(180, 0))
        assert nfov_iou(a, b) == 0.0

    def test_one_third_overlap_at_half_width_offset(self):
        a = NFoV(ViewingAngle(0, 0))
        b = NFoV(ViewingAngle(32.75, 0))
        assert nfov_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_default_aspect_ratio(self):
        box = NFoV(ViewingAngle(0, 0))
        assert box.v_span == pytest.approx(49.125)

    def test_mismatched_spans_rejected(self):
        a = NFoV(ViewingAngle(0, 0), h_span=65.5)
        b = NFoV(ViewingAngle(0, 0), h_span=80.0)
        with pytest.raises(InvalidInput):
            nfov_iou(a, b)

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            a = NFoV(ViewingAngle(rng.uniform(0, 360), rng.uniform(-70, 70)))
            b = NFoV(
                ViewingAngle(
                    a.center.azimuth + rng.uniform(-70, 70),
                    a.center.elevation + rng.uniform(-50, 50),
                )
            )
            expected = _iou_monte_carlo(a, b, 200_000, seed=100 + trial)
            assert nfov_iou(a, b) == pytest.approx(expected, abs=0.01)

    def test_wraparound_intersection(self):
        # Rectangles straddling the 0/360 seam still overlap correctly.
        a = NFoV(ViewingAngle(5, 0))
        b = NFoV(ViewingAngle(355, 0))
        expected = _iou_monte_carlo(a, b, 200_000, seed=99)
        assert nfov_iou(a, b) > 0.0
        assert nfov_iou(a, b) == pytest.approx(expected, abs=0.01)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = NFoV(ViewingAngle(rng.uniform(0, 360), rng.uniform(-90, 90)))
            b = NFoV(ViewingAngle(rng.uniform(0, 360), rng.uniform(-90, 90)))
            iou = nfov_iou(a, b)
            assert 0.0 <= iou <= 1.0
            assert iou == pytest.approx(nfov_iou(b, a), abs=1e-12)

    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    def test_monotone_in_center_separation(self, axis):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = NFoV(ViewingAngle(rng.uniform(0, 360), rng.uniform(-80, 80)))
            steps = np.linspace(0, 180 if axis == "azimuth" else 120, 25)
            prev = math.inf
            for s in steps:
                if axis == "azimuth":
                    center = ViewingAngle(a.center.azimuth + s, a.center.elevation)
                else:
                    center = ViewingAngle(a.center.azimuth, min(90.0, a.center.elevation + s))
                iou = nfov_iou(a, NFoV(center))
                assert iou <= prev + 1e-12
                prev = iou
