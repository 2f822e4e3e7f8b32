"""Directions on the unit sphere, rigid rotations, and measurement-setting layouts.

Spherical convention used project-wide: polar angle theta is measured from +z,
azimuth phi from +x toward +y.  A direction at the poles (sin(theta) ~ 0) is
canonicalized to phi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_POLE_EPS = 1e-14

LAYOUT_NAMES = ("original", "threeplus7", "threeplus6", "chsh")


@dataclass(frozen=True)
class Direction:
    """Point on the unit sphere: (theta, phi) in radians."""

    theta: float
    phi: float

    def cartesian(self) -> np.ndarray:
        return to_cartesian(self)


def to_cartesian(d: Direction) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(d.theta)
    return np.array([st * math.cos(d.phi), st * math.sin(d.phi), math.cos(d.theta)])


def from_cartesian(v) -> Direction:
    """Inverse of :func:`to_cartesian`; poles map to phi = 0.

    theta = atan2(hypot(x, y), z) keeps full precision near the poles, where
    acos(z / r) loses it (a direction 1e-8 from a pole moved by about 1e-8).
    """
    x, y, z = (float(c) for c in v)
    if x == y == z == 0.0:
        raise ValueError("zero vector has no direction")
    theta = math.atan2(math.hypot(x, y), z)
    phi = 0.0 if math.sin(theta) < _POLE_EPS else math.atan2(y, x)
    return Direction(theta, phi)


def angle_between(a: Direction, b: Direction) -> float:
    dot = float(np.dot(to_cartesian(a), to_cartesian(b)))
    return math.acos(max(-1.0, min(1.0, dot)))


@dataclass(frozen=True)
class RigidRotation:
    """Proper rotation in z-y-z Euler convention."""

    euler_z1: float
    euler_y: float
    euler_z2: float

    @staticmethod
    def identity() -> "RigidRotation":
        return RigidRotation(0.0, 0.0, 0.0)

    def as_matrix(self) -> np.ndarray:
        return _rot_z(self.euler_z1) @ _rot_y(self.euler_y) @ _rot_z(self.euler_z2)

    def apply(self, d: Direction) -> Direction:
        return from_cartesian(self.as_matrix() @ to_cartesian(d))


def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


@dataclass(frozen=True)
class SettingsLayout:
    """A named measurement-setting geometry with its inequality structure.

    ``groups`` holds (weight, [(a_index, b_index), ...]) with 0-based indices;
    the inequality value is sum over groups of weight * |sum of correlations|.
    ``bound_pairs`` lists (j, j2, weight): b-side index pairs that share an
    a-setting inside one group, used by the triangle-relaxed numeric bound.
    """

    name: str
    phi: float
    a_list: tuple
    b_list: tuple
    groups: tuple
    bound_pairs: tuple


def build_layout(name: str, phi: float = 0.0) -> SettingsLayout:
    """Construct one of the canonical layouts at inequality parameter phi.

    For ``threeplus7`` the two phi-dependent b-settings paired with a2 and a3
    are stored so that each collapses onto its reference direction at phi = 0
    (the relative angle of every phi-labelled pair is phi).
    """
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi must lie in [0, pi], got {phi}")
    half = 0.5 * math.pi
    if name == "original":
        a1, a2 = Direction(half, 0.0), Direction(0.0, 0.0)
        b = (Direction(half + phi, 0.0), Direction(phi, half), a2)
        groups = ((1.0, ((0, 0), (1, 2))), (1.0, ((1, 1), (1, 2))))
        bound_pairs = ((1, 2, 1.0),)
        return SettingsLayout(name, phi, (a1, a2), b, groups, bound_pairs)
    if name == "threeplus7":
        a = (Direction(half, 0.0), Direction(half, half), Direction(0.0, 0.0))
        b = (
            Direction(half, phi),
            Direction(half, half + phi),
            Direction(half + phi, half),
            Direction(phi, half),
            a[0],
            a[1],
            a[2],
        )
        groups = (
            (0.5, ((0, 0), (1, 1), (0, 4), (1, 5))),
            (0.5, ((1, 2), (2, 3), (1, 5), (2, 6))),
        )
        bound_pairs = ((0, 4, 0.5), (1, 5, 0.5), (2, 5, 0.5), (3, 6, 0.5))
        return SettingsLayout(name, phi, a, b, groups, bound_pairs)
    if name == "threeplus6":
        a = (Direction(half, 0.0), Direction(half, half), Direction(0.0, 0.0))
        h = 0.5 * phi
        b = (
            Direction(half, h),
            Direction(half, -h),
            Direction(half - h, half),
            Direction(half + h, half),
            Direction(h, 0.0),
            Direction(h, math.pi),
        )
        w = 2.0 / 3.0
        groups = ((w, ((0, 0), (0, 1))), (w, ((1, 2), (1, 3))), (w, ((2, 4), (2, 5))))
        bound_pairs = ((0, 1, w), (2, 3, w), (4, 5, w))
        return SettingsLayout(name, phi, a, b, groups, bound_pairs)
    if name == "chsh":
        a = (Direction(half, 0.0), Direction(half, half))
        b = (Direction(half, -0.75 * math.pi), Direction(half, 0.75 * math.pi))
        return SettingsLayout(name, phi, a, b, (), ())
    raise ValueError(f"unknown layout name {name!r}")


def rotate_settings(
    layout: SettingsLayout,
    rotation_a: RigidRotation,
    rotation_b: RigidRotation | None = None,
) -> SettingsLayout:
    """Rotate every a-direction by rotation_a and every b-direction by
    rotation_b (rotation_a again when rotation_b is None, i.e. a shared
    rigid-body rotation of both parties).  All relative angles inside a
    party are preserved."""
    if rotation_b is None:
        rotation_b = rotation_a
    ma, mb = rotation_a.as_matrix(), rotation_b.as_matrix()
    a_new = tuple(from_cartesian(ma @ to_cartesian(d)) for d in layout.a_list)
    b_new = tuple(from_cartesian(mb @ to_cartesian(d)) for d in layout.b_list)
    return replace(layout, a_list=a_new, b_list=b_new)
