"""Viewing-sphere arithmetic on the (azimuth, elevation) angle plane.

Azimuth lives in [0, 360) and wraps; elevation lives in [-90, 90] and
clamps (no pole crossing). Distances and the NFoV window overlap
(:func:`nfov_iou`, the per-frame term of mean overlap) are computed on the
angle plane with wrap-aware azimuth differences, not on the true sphere.
The IoU takes (..., 2) angle arrays; there is no per-window object. A
:class:`Trajectory` is a sequence of ViewingAngles held as one landed
(T, 2) array, its items built only when read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

DEFAULT_H_SPAN = 65.5


def wrap_azimuth(azimuth: float) -> float:
    """Normalize an azimuth into [0, 360)."""
    wrapped = azimuth % 360.0
    # Float mod of a tiny negative value can round up to exactly 360.0.
    return 0.0 if wrapped == 360.0 else wrapped


def clamp_elevation(elevation: float) -> float:
    """Clamp an elevation into [-90, 90]; NaN stays NaN, as in :func:`land_angles`."""
    return -90.0 if elevation < -90.0 else 90.0 if elevation > 90.0 else elevation


def signed_azimuth_delta(delta: float) -> float:
    """Reduce an azimuth difference to the signed shortest form in (-180, 180]."""
    reduced = (delta + 180.0) % 360.0 - 180.0
    return 180.0 if reduced == -180.0 else reduced


def signed_azimuth_delta_array(delta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized :func:`signed_azimuth_delta`, into ``out`` (a new float64
    array by default; ``delta`` itself works)."""
    out = np.add(delta, 180.0, out=np.empty(np.shape(delta)) if out is None else out)
    np.remainder(out, 360.0, out=out)
    out -= 180.0
    out[out == -180.0] = 180.0
    return out


def angle_offsets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wrap-aware a - b of (..., 2) angle arrays: the azimuth difference
    reduced in place by :func:`signed_azimuth_delta_array`."""
    out = np.subtract(a, b)
    signed_azimuth_delta_array(out[..., 0], out=out[..., 0])
    return out


def velocity_array(pred: np.ndarray) -> np.ndarray:
    """Wrap-aware per-frame velocities of a (..., T, 2) angle array, the first
    one (0, 0) because no angle precedes the first frame."""
    v = np.zeros_like(pred)
    v[..., 1:, :] = angle_offsets(pred[..., 1:, :], pred[..., :-1, :])
    return v


def land_angles(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Viewing angles from (..., 2) unclamped ones, into ``out`` (a new
    float64 array by default; ``raw`` itself works): azimuth wrapped into
    [0, 360) and elevation clamped into [-90, 90], as ViewingAngle does."""
    if out is None:
        out = np.empty(np.shape(raw))
    az = np.remainder(raw[..., 0], 360.0, out=out[..., 0])
    az[az == 360.0] = 0.0  # a tiny negative azimuth wraps to 360.0
    np.minimum(np.maximum(raw[..., 1], -90.0), 90.0, out=out[..., 1])
    return out


@dataclass(frozen=True)
class ViewingAngle:
    """A point on the viewing sphere, in degrees.

    The constructor enforces the type invariants: azimuth is wrapped into
    [0, 360) and elevation is clamped into [-90, 90].
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not (math.isfinite(self.azimuth) and math.isfinite(self.elevation)):
            raise InvalidInput(f"non-finite viewing angle ({self.azimuth}, {self.elevation})")
        object.__setattr__(self, "azimuth", wrap_azimuth(float(self.azimuth)))
        object.__setattr__(self, "elevation", clamp_elevation(float(self.elevation)))


class Trajectory(Sequence):
    """An immutable sequence of ViewingAngles over ``array``, one read-only,
    landed (T, 2) float64 copy of ``rows``. The rows are checked once (the
    first non-finite one raises ViewingAngle's InvalidInput) and landed as
    ViewingAngle lands them; items are built on access, a slice is a
    Trajectory. Equal to a Trajectory over an equal array and to a list or
    tuple of equal ViewingAngles.
    """

    __slots__ = ("_array",)

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise InvalidInput(f"a trajectory takes (T, 2) angle rows, got shape {rows.shape}")
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            az, el = rows[np.argmin(finite)].tolist()
            raise InvalidInput(f"non-finite viewing angle ({az}, {el})")
        self._array = land_angles(rows)
        self._array.flags.writeable = False

    @property
    def array(self) -> np.ndarray:
        return self._array

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trajectory(self._array[index])
        return _landed_angle(*self._array[index].tolist())

    def __iter__(self):
        return map(_landed_angle, *self._array.T.tolist())

    def __eq__(self, other):
        if isinstance(other, Trajectory):
            return bool(np.array_equal(self._array, other._array))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Trajectory({self._array.tolist()!r})"


def _landed_angle(az: float, el: float) -> ViewingAngle:
    """A ViewingAngle of floats already checked and landed."""
    angle = object.__new__(ViewingAngle)
    object.__setattr__(angle, "azimuth", az)
    object.__setattr__(angle, "elevation", el)
    return angle


def nfov_iou(a: np.ndarray, b: np.ndarray, h_span: float = DEFAULT_H_SPAN) -> np.ndarray:
    """Per-row intersection-over-union of the 4:3 NFoV windows of span
    ``h_span`` centered at the (..., 2) angle arrays ``a`` and ``b``.

    Centers are wrapped and clamped as :class:`ViewingAngle` does. The
    azimuth overlap is wrap-aware; elevation extents are clipped to
    [-90, 90] before intersecting. Symmetric, in [0, 1], and exactly 1
    where the centers coincide. ``h_span`` must be positive and finite.
    """
    if not 0.0 < h_span < math.inf:
        raise InvalidInput(f"NFoV span h_span must be positive and finite, got {h_span}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInput("non-finite viewing angle")
    az_a, el_a = np.moveaxis(land_angles(a), -1, 0)
    az_b, el_b = np.moveaxis(land_angles(b), -1, 0)
    d = np.abs(signed_azimuth_delta_array(az_b - az_a))
    near = np.maximum(h_span - d, 0.0)
    far = np.maximum(h_span - (360.0 - d), 0.0)
    ov_az = np.minimum(near + far, h_span)
    half = h_span * 3.0 / 4.0 / 2.0
    a_low, a_high = np.maximum(el_a - half, -90.0), np.minimum(el_a + half, 90.0)
    b_low, b_high = np.maximum(el_b - half, -90.0), np.minimum(el_b + half, 90.0)
    ov_el = np.maximum(np.minimum(a_high, b_high) - np.maximum(a_low, b_low), 0.0)
    inter = ov_az * ov_el
    union = h_span * (a_high - a_low) + h_span * (b_high - b_low) - inter
    return inter / union
