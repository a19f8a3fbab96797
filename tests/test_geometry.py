"""Tests for viewing-sphere arithmetic."""

import math

import numpy as np
import pytest

from viewpilot.errors import InvalidInput
from viewpilot.geometry import (
    DEFAULT_H_SPAN, Trajectory, ViewingAngle, land_angles, nfov_iou, signed_azimuth_delta,
    signed_azimuth_delta_array,
)
from viewpilot.regressor import OFFSET_SCALE, loss_terms
from viewpilot.training import _follow_offset


def follow_offset(start, target) -> np.ndarray:
    """The regressor's follow offset from view ``start`` to slot ``target``,
    in degrees: ``training._follow_offset`` times OFFSET_SCALE."""
    out = np.empty(2)
    _follow_offset(np.asarray(target, dtype=float), np.asarray(start, dtype=float), out)
    return out * OFFSET_SCALE


def steer(prev, delta) -> np.ndarray:
    """The view after steering ``prev`` by ``delta``, landed as the rollout does."""
    return land_angles(np.add(prev, delta))


class TestApplyAction:
    """Steering lands through ``land_angles``: azimuth wraps, elevation clamps."""

    def test_identity_action(self):
        np.testing.assert_array_equal(steer([10.0, 0.0], [0.0, 0.0]), [10.0, 0.0])

    def test_azimuth_wraparound(self):
        out = steer([359.0, 0.0], [2.0, 0.0])
        assert out[0] == pytest.approx(1.0)
        assert out[1] == 0.0

    def test_elevation_clamp_at_pole(self):
        np.testing.assert_array_equal(steer([0.0, 85.0], [0.0, 10.0]), [0.0, 90.0])

    def test_total_on_random_inputs(self):
        # in range, equal to ViewingAngle's scalar rule, and the same in place
        rng = np.random.default_rng(0)
        prev = np.column_stack([rng.uniform(-720, 720, 200), rng.uniform(-90, 90, 200)])
        raw = prev + np.column_stack([rng.uniform(-500, 500, 200), rng.uniform(-200, 200, 200)])
        raw[0] = (-1e-14, 0.0)  # wraps to 360.0 before the fix-up
        out = land_angles(raw)
        assert np.all((0.0 <= out[:, 0]) & (out[:, 0] < 360.0))
        assert np.all((-90.0 <= out[:, 1]) & (out[:, 1] <= 90.0))
        assert out.tolist() == [[v.azimuth, v.elevation] for v in map(ViewingAngle, *raw.T)]
        assert land_angles(raw, raw) is raw and np.array_equal(raw, out)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            ViewingAngle(float("nan"), 0)
        with pytest.raises(InvalidInput):
            ViewingAngle(float("inf"), 0)


class TestViewingAngles:
    """A Trajectory's items equal one ViewingAngle constructor call per row."""

    def test_equals_the_constructor_per_row(self):
        rng = np.random.default_rng(4)
        rows = [*zip(rng.uniform(-800, 800, 500), rng.uniform(-200, 200, 500)),
                (-1e-320, -0.0), (360.0, 90.0), (-360.0, -90.0), (0.0, 1e-300)]
        built = list(Trajectory(np.array(rows)))
        expected = [ViewingAngle(az, el) for az, el in np.array(rows).tolist()]
        assert [(a.azimuth, a.elevation) for a in built] == [
            (a.azimuth, a.elevation) for a in expected
        ]
        assert all(type(a.azimuth) is float and type(a.elevation) is float for a in built)
        assert [math.copysign(1.0, a.elevation) for a in built] == [
            math.copysign(1.0, a.elevation) for a in expected
        ]

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (2.0, math.inf), (-math.inf, math.nan)])
    def test_first_non_finite_row_raises_the_constructors_error(self, bad):
        rows = np.array([(10.0, 5.0), bad, (math.nan, math.nan)])
        with pytest.raises(InvalidInput) as expected:
            ViewingAngle(*bad)
        with pytest.raises(InvalidInput) as err:
            Trajectory(rows)
        assert str(err.value) == str(expected.value)


SEAM_ROWS = [
    (360.0, 0.0), (720.0, 90.0), (-0.0, -0.0), (0.0, -0.0), (-1e-300, 90.0), (5.0, -90.0),
    (-360.0, 90.0 + 1e-13), (1e-320, -90.0 - 1e-13), (359.99999999999994, 89.99999999999999),
]


class TestSignedAzimuthDelta:
    """One array form of the delta rule, allocating or in place."""

    DELTAS = [v for row in SEAM_ROWS for v in row] + [
        180.0, -180.0, 540.0, -540.0, -1e-14, 180.0 + 1e-13, -180.0 - 1e-13, 179.99999999999997,
        -179.99999999999997, 350.0 - 10.0, 10.0 - 350.0,
    ]

    def test_in_place_equals_the_allocating_form_and_the_scalar_rule(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([self.DELTAS, rng.uniform(-1000, 1000, 500)])
        want = signed_azimuth_delta_array(x)
        assert want.tolist() == [signed_azimuth_delta(v) for v in x.tolist()]
        assert np.all((-180.0 < want) & (want <= 180.0))
        y = x.copy()
        assert signed_azimuth_delta_array(y, out=y) is y
        assert y.tolist() == want.tolist() and np.array_equal(np.signbit(y), np.signbit(want))
        off = np.column_stack([x, -x])  # a strided column, as the follow offset reduces it
        signed_azimuth_delta_array(off[:, 0], out=off[:, 0])
        assert off[:, 0].tolist() == want.tolist() and off[:, 1].tolist() == (-x).tolist()


class TestTrajectory:
    """The contract of the evaluation methods' return type: an immutable
    sequence of ViewingAngles over one landed (T, 2) array."""

    ROWS = [(370.0, 12.5), (-30.0, 95.0), (0.0, 0.0), (359.5, -91.0)]

    def _angles(self):
        return [ViewingAngle(az, el) for az, el in self.ROWS]

    def test_equals_a_list_or_tuple_of_its_angles_both_ways(self):
        traj, angles = Trajectory(self.ROWS), self._angles()
        assert traj == angles and angles == traj
        assert traj == tuple(angles) and tuple(angles) == traj
        assert traj == Trajectory(np.array(self.ROWS)) and traj == Trajectory(traj.array)
        assert [traj, traj] == [angles, angles]  # as lists of trajectories compare
        assert traj != angles[:-1] and angles[:-1] != traj
        assert traj != angles[::-1] and traj != Trajectory(self.ROWS[::-1])
        assert traj != [(a.azimuth, a.elevation) for a in angles]  # tuples are not angles
        assert traj != "angles" and traj != {0: angles[0]}

    def test_iteration_indexing_and_slicing(self):
        traj, angles = Trajectory(self.ROWS), self._angles()
        assert len(traj) == 4 and list(traj) == angles and list(reversed(traj)) == angles[::-1]
        assert [traj[i] for i in range(-4, 4)] == angles + angles
        assert all(type(a) is ViewingAngle and type(a.azimuth) is float for a in traj)
        for part in (slice(1, 3), slice(None, None, -2), slice(5, 9)):
            assert type(traj[part]) is Trajectory and traj[part] == angles[part]
        assert traj[np.int64(1)] == angles[1] and angles[2] in traj and traj.index(angles[3]) == 3
        with pytest.raises(IndexError):
            traj[4]
        assert list(Trajectory(np.empty((0, 2)))) == [] and Trajectory(np.empty((0, 2))) == []

    def test_is_immutable(self):
        rows = np.array(self.ROWS)
        traj = Trajectory(rows)
        rows[0] = (1.0, 1.0)  # the trajectory holds its own landed copy
        assert traj[0] == ViewingAngle(10.0, 12.5)
        with pytest.raises(ValueError):
            traj.array[0, 0] = 5.0
        with pytest.raises(AttributeError):
            traj.array = np.zeros((4, 2))
        with pytest.raises(TypeError):
            hash(traj)

    @pytest.mark.parametrize("row", SEAM_ROWS)
    def test_lands_as_the_constructor(self, row):
        expected = ViewingAngle(*row)
        (landed,) = Trajectory([row])
        assert (landed.azimuth, landed.elevation) == (expected.azimuth, expected.elevation)
        for got, want in ((landed.azimuth, expected.azimuth), (landed.elevation, expected.elevation)):
            assert math.copysign(1.0, got) == math.copysign(1.0, want)  # -0.0 stays -0.0
        assert Trajectory([row]).array.tolist() == [[expected.azimuth, expected.elevation]]

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 2, 2), (0,)])
    def test_refuses_what_is_not_angle_rows(self, shape):
        with pytest.raises(InvalidInput, match="a trajectory takes \\(T, 2\\) angle rows"):
            Trajectory(np.zeros(shape))


class TestAngularOffset:
    """The follow offset is the signed shortest offset from the view to the slot."""

    def test_shortest_path_across_wrap(self):
        off = follow_offset([350.0, 0.0], [10.0, 0.0])
        assert off[0] == pytest.approx(20.0)
        assert off[1] == 0.0

    def test_zero_offset(self):
        np.testing.assert_array_equal(follow_offset([123.4, -5.6], [123.4, -5.6]), [0.0, 0.0])

    def test_pure_elevation(self):
        off = follow_offset([0.0, -10.0], [0.0, 30.0])
        assert off[0] == 0.0
        assert off[1] == pytest.approx(40.0)

    def test_offset_inverts_apply(self):
        # steering a by the offset to b lands on b whenever nothing clamps
        rng = np.random.default_rng(1)
        for _ in range(300):
            a = [rng.uniform(0, 360), rng.uniform(-89, 89)]
            b = [rng.uniform(0, 360), rng.uniform(-89, 89)]
            back = steer(a, follow_offset(a, b))
            assert back[0] == pytest.approx(b[0], abs=1e-9)
            assert back[1] == pytest.approx(b[1], abs=1e-9)

    def test_roundtrip_recovers_reduced_action(self):
        # the offset from l to l steered by d is d with its azimuth reduced
        # into (-180, 180], for elevations that do not clamp
        rng = np.random.default_rng(2)
        for _ in range(300):
            l = [rng.uniform(0, 360), rng.uniform(-50, 50)]
            d = [rng.uniform(-170, 170), rng.uniform(-30, 30)]
            off = follow_offset(l, steer(l, d))
            assert off[0] == pytest.approx(d[0], abs=1e-9)
            assert off[1] == pytest.approx(d[1], abs=1e-9)


def angular_distance(a: ViewingAngle, b: ViewingAngle) -> float:
    """The wrap-aware distance between two views: the regression term of
    ``loss_terms`` over a single frame."""
    pred, gt = np.array([[[a.azimuth, a.elevation]]]), np.array([[[b.azimuth, b.elevation]]])
    return float(loss_terms(pred, gt)[0][0])


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


def iou(a, b, h_span: float = DEFAULT_H_SPAN) -> float:
    """``nfov_iou`` of the windows centered at two single angles."""
    return float(nfov_iou(np.array([a], dtype=float), np.array([b], dtype=float), h_span)[0])


def _points_in_nfov(az: np.ndarray, el: np.ndarray, center, h_span: float) -> np.ndarray:
    """Membership of each point, used by the Monte-Carlo IoU oracle: a
    wrap-aware azimuth distance within half the span and an elevation within
    the window's 4:3 height clipped to [-90, 90] (no use of the IoU formulas
    under test)."""
    daz = np.abs(np.mod(az - center[0] + 180.0, 360.0) - 180.0)
    half_height = h_span * 3.0 / 8.0
    low, high = max(-90.0, center[1] - half_height), min(90.0, center[1] + half_height)
    return (daz <= h_span / 2.0) & (low <= el) & (el <= high)


def _iou_monte_carlo(a, b, n: int, seed: int, h_span: float = DEFAULT_H_SPAN) -> float:
    rng = np.random.default_rng(seed)
    az = rng.uniform(0, 360, n)
    el = rng.uniform(-90, 90, n)
    in_a, in_b = _points_in_nfov(az, el, a, h_span), _points_in_nfov(az, el, b, h_span)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


class TestNfovIou:
    def test_identical_centers(self):
        assert iou([120, 30], [120, 30]) == 1.0

    @pytest.mark.parametrize("h_span", [0.0, -5.0, math.nan, math.inf, -math.inf])
    def test_a_span_that_is_not_positive_and_finite_is_refused_by_name(self, h_span):
        # An infinite span would make every overlap NaN (inf - inf).
        with pytest.raises(InvalidInput, match=r"NFoV span h_span must be positive and finite, got "):
            iou([120, 30], [100, 20], h_span)

    def test_opposite_centers_disjoint(self):
        assert iou([0, 0], [180, 0]) == 0.0

    def test_one_third_overlap_at_half_width_offset(self):
        assert iou([0, 0], [32.75, 0]) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_default_aspect_ratio(self):
        # the default 65.5-degree window is 49.125 degrees tall (4:3), clipped at the poles
        assert iou([0, 0], [0, 49.125]) == 0.0
        assert iou([0, 0], [0, 49.125 / 2.0]) == pytest.approx(1.0 / 3.0)
        assert iou([0, 90], [0, 80]) == pytest.approx(24.5625 / 34.5625)

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            a = [rng.uniform(0, 360), rng.uniform(-70, 70)]
            b = land_angles(np.add(a, [rng.uniform(-70, 70), rng.uniform(-50, 50)]))
            expected = _iou_monte_carlo(a, b, 200_000, seed=100 + trial)
            assert iou(a, b) == pytest.approx(expected, abs=0.01)

    def test_wraparound_intersection(self):
        # Windows straddling the 0/360 seam still overlap correctly.
        expected = _iou_monte_carlo([5, 0], [355, 0], 200_000, seed=99)
        assert iou([5, 0], [355, 0]) > 0.0
        assert iou([5, 0], [355, 0]) == pytest.approx(expected, abs=0.01)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(6)
        a = np.column_stack([rng.uniform(0, 360, 200), rng.uniform(-90, 90, 200)])
        b = np.column_stack([rng.uniform(0, 360, 200), rng.uniform(-90, 90, 200)])
        forward, backward = nfov_iou(a, b), nfov_iou(b, a)
        assert np.all((0.0 <= forward) & (forward <= 1.0))
        np.testing.assert_allclose(forward, backward, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("axis", ["azimuth", "elevation"])
    def test_monotone_in_center_separation(self, axis):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = np.array([rng.uniform(0, 360), rng.uniform(-80, 80)])
            steps = np.linspace(0, 180 if axis == "azimuth" else 120, 25)
            centers = np.tile(a, (len(steps), 1))
            if axis == "azimuth":
                centers[:, 0] += steps
            else:
                centers[:, 1] = np.minimum(90.0, centers[:, 1] + steps)
            ious = nfov_iou(np.tile(a, (len(steps), 1)), centers)
            assert np.all(np.diff(ious) <= 1e-12)
