"""Directions on the unit sphere, Leggett setting layouts, and their rigid rotations.

Spherical convention used project-wide: polar angle theta is measured from +z,
azimuth phi from +x toward +y.  A direction at the poles (sin(theta) ~ 0) is
canonicalized to phi = 0.

A layout is the settings of one Leggett inequality (original, threeplus7 or
threeplus6) at one phi.  It holds them as (n, 3) unit-vector arrays, which
is what the evaluators read, together with the (theta, phi) angles they
were computed from; it offers no per-setting Directions.  A
:class:`Direction` is the form of a single setting, such as the CHSH
settings of :mod:`leggett_lab.inequality`.  A grid of layouts is built as
arrays in one pass (:func:`build_layouts`).

A rigid rotation is a 3x3 proper rotation matrix.  :func:`rotate_settings`
applies one per layout, or one per party of each layout, to the vector
arrays of a batch of layouts; a rotated layout holds only its vectors, and
its angles are None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_POLE_EPS = 1e-14


@dataclass(frozen=True)
class Direction:
    """Point on the unit sphere: (theta, phi) in radians."""

    theta: float
    phi: float


def from_cartesian(v) -> Direction:
    """The direction of a nonzero vector v = r (sin t cos p, sin t sin p,
    cos t); poles map to phi = 0.

    theta = atan2(hypot(x, y), z) keeps full precision near the poles, where
    acos(z / r) loses it (a direction 1e-8 from a pole moved by about 1e-8).
    """
    x, y, z = (float(c) for c in v)
    if x == y == z == 0.0:
        raise ValueError("zero vector has no direction")
    theta = math.atan2(math.hypot(x, y), z)
    phi = 0.0 if math.sin(theta) < _POLE_EPS else math.atan2(y, x)
    return Direction(theta, phi)


@dataclass(frozen=True, eq=False)
class SettingsLayout:
    """The settings of a named Leggett inequality with its term structure.

    ``a`` and ``b`` hold the settings of the two parties as read-only (n, 3)
    unit-vector arrays.  ``angles`` is the pair of read-only (n, 2) arrays of
    the (theta, phi) those vectors were computed from, or None for a layout
    whose vectors were rotated as arrays.
    ``groups`` holds (weight, [(a_index, b_index), ...]) with 0-based indices;
    the inequality value is sum over groups of weight * |sum of correlations|.
    There is at least one group: a layout without one has no inequality,
    and building it raises ValueError.
    ``bound_pairs`` lists (j, j2, weight): b-side index pairs that share an
    a-setting inside one group, used by the triangle-relaxed numeric bound.
    """

    name: str
    phi: float
    a: np.ndarray
    b: np.ndarray
    groups: tuple
    bound_pairs: tuple
    angles: tuple | None = None

    def __post_init__(self):
        if not self.groups:
            raise ValueError(f"layout {self.name!r} has no inequality term groups")

    def __eq__(self, other):
        if not isinstance(other, SettingsLayout):
            return NotImplemented
        mine = (self.name, self.phi, self.groups, self.bound_pairs, self.angles is None)
        theirs = (other.name, other.phi, other.groups, other.bound_pairs, other.angles is None)
        arrays = zip((self.a, self.b) + (self.angles or ()), (other.a, other.b) + (other.angles or ()))
        return mine == theirs and all(np.array_equal(x, y) for x, y in arrays)


def _layouts(name, phis, angles, n_a: int, groups, bound_pairs) -> list:
    """The layouts of one name at each phi of phis, from the (P, n_a + n_b, 2)
    angles of their settings, party A's first.  The unit vectors
    (sin t cos p, sin t sin p, cos t) of every setting of every point are
    computed in one numpy pass; :func:`from_cartesian` inverts them."""
    st = np.sin(angles[..., 0])
    v = np.empty(angles.shape[:-1] + (3,))
    v[..., 0] = st * np.cos(angles[..., 1])
    v[..., 1] = st * np.sin(angles[..., 1])
    v[..., 2] = np.cos(angles[..., 0])
    v.flags.writeable = angles.flags.writeable = False
    return [
        SettingsLayout(name, phi, v[k, :n_a], v[k, n_a:], groups, bound_pairs, (angles[k, :n_a], angles[k, n_a:]))
        for k, phi in enumerate(phis)
    ]


def build_layout(name: str, phi: float = 0.0) -> SettingsLayout:
    """Construct one of the canonical layouts at inequality parameter phi.

    For ``threeplus7`` the two phi-dependent b-settings paired with a2 and a3
    are stored so that each collapses onto its reference direction at phi = 0
    (the relative angle of every phi-labelled pair is phi).
    """
    return build_layouts(name, [phi])[0]


def build_layouts(name: str, phis) -> list:
    """:func:`build_layout` at every phi of a grid, the settings of all points
    built as one array of angles and one of unit vectors."""
    phis = [float(phi) for phi in phis]
    for phi in phis:
        if not 0.0 <= phi <= math.pi:
            raise ValueError(f"phi must lie in [0, pi], got {phi}")
    phi = np.array(phis)
    half = 0.5 * math.pi
    x, y, z = (half, 0.0), (half, half), (0.0, 0.0)  # the coordinate axes as (theta, phi)
    if name == "original":
        a = (x, z)
        b = ((half + phi, 0.0), (phi, half), z)
        groups = ((1.0, ((0, 0), (1, 2))), (1.0, ((1, 1), (1, 2))))
        bound_pairs = ((1, 2, 1.0),)
    elif name == "threeplus7":
        a = (x, y, z)
        b = ((half, phi), (half, half + phi), (half + phi, half), (phi, half), x, y, z)
        groups = (
            (0.5, ((0, 0), (1, 1), (0, 4), (1, 5))),
            (0.5, ((1, 2), (2, 3), (1, 5), (2, 6))),
        )
        bound_pairs = ((0, 4, 0.5), (1, 5, 0.5), (2, 5, 0.5), (3, 6, 0.5))
    elif name == "threeplus6":
        a = (x, y, z)
        h = 0.5 * phi
        b = ((half, h), (half, -h), (half - h, half), (half + h, half), (h, 0.0), (h, math.pi))
        w = 2.0 / 3.0
        groups = ((w, ((0, 0), (0, 1))), (w, ((1, 2), (1, 3))), (w, ((2, 4), (2, 5))))
        bound_pairs = ((0, 1, w), (2, 3, w), (4, 5, w))
    else:
        raise ValueError(f"unknown layout name {name!r}")
    angles = np.empty((len(phis), len(a) + len(b), 2))
    for k, (theta, azimuth) in enumerate(a + b):
        angles[:, k, 0], angles[:, k, 1] = theta, azimuth
    return _layouts(name, phis, angles, len(a), groups, bound_pairs)


def rotate_settings(layouts, rotation_a, rotation_b=None) -> list:
    """The layouts with the settings of layouts[g] rotated: every a-vector by
    rotation_a[g] and every b-vector by rotation_b[g] (rotation_a again when
    rotation_b is None, a shared rigid-body rotation of both parties).

    The rotations are (P, 3, 3) stacks of proper rotation matrices, one per
    layout, so all relative angles inside a party are preserved.  The
    vectors of all layouts are rotated as one (P, n, 3) array, one
    np.matmul per layout, and the new layouts carry no angles.
    """
    if rotation_b is None:
        rotation_b = rotation_a
    a = np.matmul(np.array([lay.a for lay in layouts]), rotation_a.transpose(0, 2, 1))
    b = np.matmul(np.array([lay.b for lay in layouts]), rotation_b.transpose(0, 2, 1))
    a.flags.writeable = b.flags.writeable = False
    return [SettingsLayout(lay.name, lay.phi, a[g], b[g], lay.groups, lay.bound_pairs) for g, lay in enumerate(layouts)]
