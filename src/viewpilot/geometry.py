"""Viewing-sphere arithmetic on the (azimuth, elevation) angle plane.

Azimuth lives in [0, 360) and wraps; elevation lives in [-90, 90] and
clamps (no pole crossing). Distances and rectangle overlaps are computed
on the angle plane with wrap-aware azimuth differences, not on the true
sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

DEFAULT_H_SPAN = 65.5
DEFAULT_V_SPAN = DEFAULT_H_SPAN * 3.0 / 4.0  # 4:3 aspect ratio


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


def signed_azimuth_delta_array(delta: np.ndarray) -> np.ndarray:
    """Vectorized :func:`signed_azimuth_delta`."""
    reduced = np.mod(delta + 180.0, 360.0) - 180.0
    return np.where(reduced == -180.0, 180.0, reduced)


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


def viewing_angles(rows) -> list[ViewingAngle]:
    """``[ViewingAngle(az, el) for az, el in rows]`` for a (T, 2) array, with
    the finiteness check, wrap and clamp run once over the whole array."""
    rows = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        az, el = rows[np.argmin(finite)].tolist()
        raise InvalidInput(f"non-finite viewing angle ({az}, {el})")
    new, put, angles = object.__new__, object.__setattr__, []
    for az, el in land_angles(rows).tolist():
        angle = new(ViewingAngle)
        put(angle, "azimuth", az)
        put(angle, "elevation", el)
        angles.append(angle)
    return angles


@dataclass(frozen=True)
class NFoV:
    """An axis-aligned rectangle on the angle plane centered at a viewing angle.

    v_span defaults to h_span * 3/4 (a 4:3 window).
    """

    center: ViewingAngle
    h_span: float = DEFAULT_H_SPAN
    v_span: float | None = None

    def __post_init__(self):
        if self.v_span is None:
            object.__setattr__(self, "v_span", self.h_span * 3.0 / 4.0)
        if not (self.h_span > 0.0 and self.v_span > 0.0):
            raise InvalidInput(f"NFoV spans must be positive, got ({self.h_span}, {self.v_span})")

    def elevation_extent(self) -> tuple[float, float]:
        """Vertical extent [low, high], clipped to the [-90, 90] elevation range."""
        half = self.v_span / 2.0
        low = max(-90.0, self.center.elevation - half)
        high = min(90.0, self.center.elevation + half)
        return low, high

    def area(self) -> float:
        low, high = self.elevation_extent()
        return self.h_span * (high - low)


def _azimuth_overlap(width: float, center_delta: float) -> float:
    """Overlap length of two azimuth arcs of equal ``width`` whose centers differ
    by ``center_delta`` degrees (shortest absolute difference)."""
    d = abs(center_delta)
    near = max(0.0, width - d)
    far = max(0.0, width - (360.0 - d))
    return min(width, near + far)


def nfov_iou(a: NFoV, b: NFoV) -> float:
    """Intersection-over-union of two equal-span NFoV rectangles.

    Azimuth overlap is wrap-aware; elevation extents are clipped to
    [-90, 90] before intersecting. Symmetric, in [0, 1], and exactly 1
    iff the centers coincide.
    """
    if a.h_span != b.h_span or a.v_span != b.v_span:
        raise InvalidInput(
            f"NFoV spans must match: ({a.h_span}, {a.v_span}) vs ({b.h_span}, {b.v_span})"
        )
    ov_az = _azimuth_overlap(a.h_span, signed_azimuth_delta(b.center.azimuth - a.center.azimuth))
    a_low, a_high = a.elevation_extent()
    b_low, b_high = b.elevation_extent()
    ov_el = max(0.0, min(a_high, b_high) - max(a_low, b_low))
    inter = ov_az * ov_el
    union = a.area() + b.area() - inter
    return inter / union


def nfov_iou_array(a: np.ndarray, b: np.ndarray, h_span: float = DEFAULT_H_SPAN) -> np.ndarray:
    """Per-row :func:`nfov_iou` of the 4:3 windows of span ``h_span``
    centered at the (..., 2) angle arrays ``a`` and ``b``.

    Centers are wrapped and clamped as :class:`ViewingAngle` does, and every
    operation is the scalar version's in the same order, so each entry is
    bit-identical to :func:`nfov_iou` of the two rows' :class:`NFoV` windows.
    """
    if not h_span > 0.0:
        raise InvalidInput(f"NFoV spans must be positive, got {h_span}")
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
