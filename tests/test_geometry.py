import math

import numpy as np
import pytest

from leggett_lab import (
    Direction,
    SettingsLayout,
    build_layout,
    build_layouts,
    from_cartesian,
    rotate_settings,
)
from leggett_lab.optimize import _rotations
from conftest import angle_between, directions, random_direction, to_cartesian


def _euler(z1, y, z2):
    """The ZYZ rotation of one set of Euler angles as a stack of one matrix: (1, 3, 3)."""
    return _rotations(np.array([z1]), np.array([y]), np.array([z2]))


def test_to_cartesian_examples():
    assert np.allclose(to_cartesian(Direction(0.0, 1.3)), [0, 0, 1], atol=1e-15)
    assert np.allclose(to_cartesian(Direction(np.pi / 2, np.pi / 2)), [0, 1, 0], atol=1e-15)
    assert np.allclose(
        to_cartesian(Direction(np.pi / 2, 0.25)), [np.cos(0.25), np.sin(0.25), 0], atol=1e-15
    )


def test_unit_norm_and_roundtrip(rng):
    for _ in range(200):
        d = random_direction(rng)
        v = to_cartesian(d)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.allclose(to_cartesian(from_cartesian(v)), v, atol=1e-12)


@pytest.mark.parametrize("theta", [1e-6, 1e-7, 1e-8, 0.0, np.pi])
def test_roundtrip_near_the_poles(theta):
    for phi in (0.0, 0.7, -2.9):
        v = to_cartesian(Direction(theta, phi))
        assert np.abs(to_cartesian(from_cartesian(v)) - v).max() <= 1e-15
        assert np.abs(to_cartesian(from_cartesian(-v)) + v).max() <= 1e-15


def test_pole_azimuth_canonicalized():
    d = from_cartesian([0.0, 0.0, 1.0])
    assert d.phi == 0.0
    d = from_cartesian([0.0, 0.0, -1.0])
    assert d.phi == 0.0


def test_rotation_matrix_orthogonal(rng):
    for m in _rotations(*rng.uniform(0, 2 * np.pi, (3, 100))):
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_identity_rotation_fixes_directions(rng):
    ident = _euler(0.0, 0.0, 0.0)[0]
    for _ in range(50):
        d = random_direction(rng)
        assert np.allclose(ident @ to_cartesian(d), to_cartesian(d), atol=1e-12)


def test_rotation_preserves_angles(rng):
    for m in _rotations(*rng.uniform(0, 2 * np.pi, (3, 100))):
        a, b = random_direction(rng), random_direction(rng)
        ra, rb = from_cartesian(m @ to_cartesian(a)), from_cartesian(m @ to_cartesian(b))
        assert abs(angle_between(ra, rb) - angle_between(a, b)) < 1e-10


def test_layout_original():
    a, b = directions(build_layout("original", 0.4))
    assert len(a) == 2 and len(b) == 3
    # b3 stores the a2 duplication explicitly
    assert b[2] == a[1]
    assert abs(angle_between(a[0], b[0]) - 0.4) < 1e-12
    assert abs(angle_between(a[1], b[1]) - 0.4) < 1e-12


def test_layout_threeplus7_structure():
    phi = 0.25
    a, b = directions(build_layout("threeplus7", phi))
    assert len(a) == 3 and len(b) == 7
    # the three zero-angle settings coincide exactly
    assert b[4] == a[0]
    assert b[5] == a[1]
    assert b[6] == a[2]
    # b1 = (pi/2, phi)
    assert b[0] == Direction(np.pi / 2, 0.25)
    # every phi-labelled pair has relative angle phi
    for i, j in [(0, 0), (1, 1), (1, 2), (2, 3)]:
        assert abs(angle_between(a[i], b[j]) - phi) < 1e-12


def test_layout_threeplus7_phi0_collapse():
    a, b = directions(build_layout("threeplus7", 0.0))
    pairs = [(0, 0), (1, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6)]
    for i, j in pairs:
        assert np.allclose(to_cartesian(a[i]), to_cartesian(b[j]), atol=1e-12)


def test_layout_threeplus6_vectors():
    phi = 0.8
    lay = build_layout("threeplus6", phi)
    a, b = directions(lay)
    assert len(a) == 3 and len(b) == 6
    assert b[0] == Direction(np.pi / 2, 0.4)
    assert b[1] == Direction(np.pi / 2, -0.4)
    # angle(a_i, b_i+-) = phi/2 for every group
    for w, terms in lay.groups:
        for i, j in terms:
            assert abs(angle_between(a[i], b[j]) - phi / 2) < 1e-10


def test_layout_threeplus6_difference_vectors_orthogonal():
    for phi in np.linspace(0.05, np.pi - 0.05, 25):
        lay = build_layout("threeplus6", phi)
        _, b = directions(lay)
        diffs = []
        for j, j2, _ in lay.bound_pairs:
            diffs.append(to_cartesian(b[j]) - to_cartesian(b[j2]))
        for k in range(3):
            for l in range(k + 1, 3):
                assert abs(np.dot(diffs[k], diffs[l])) < 1e-9


def test_layout_phi0_collapse_threeplus6():
    lay = build_layout("threeplus6", 0.0)
    a, b = directions(lay)
    for w, terms in lay.groups:
        for i, j in terms:
            assert np.allclose(to_cartesian(a[i]), to_cartesian(b[j]), atol=1e-12)


@pytest.mark.parametrize("name", ["original", "threeplus7", "threeplus6"])
def test_layout_grid_equals_each_layout_and_its_angles(name):
    phis = np.linspace(0.0, np.pi, 9)
    grid = build_layouts(name, phis)
    for phi, lay in zip(phis, grid):
        alone = build_layout(name, phi)
        assert lay == alone and lay.phi == phi
        for vectors, dirs in zip((lay.a, lay.b), directions(lay)):
            assert not vectors.flags.writeable
            assert np.abs(vectors - [to_cartesian(d) for d in dirs]).max() <= 1e-15
    assert build_layouts(name, []) == []
    with pytest.raises(ValueError, match="got 3.5"):
        build_layouts(name, [0.1, 3.5, -1.0])


def test_layout_equality_compares_values():
    lay = build_layout("threeplus7", 0.3)
    assert lay == build_layout("threeplus7", 0.3)
    assert lay != build_layout("threeplus7", 0.31)
    (rotated,) = rotate_settings([lay], _euler(0.2, 0.4, 0.6))
    assert rotated != lay and rotated == rotate_settings([lay], _euler(0.2, 0.4, 0.6))[0]


def test_layout_rejects_bad_input():
    with pytest.raises(ValueError):
        build_layout("nope", 0.1)
    with pytest.raises(ValueError):
        build_layout("chsh", 0.0)
    with pytest.raises(ValueError):
        build_layout("threeplus6", -0.2)
    with pytest.raises(ValueError):
        build_layout("threeplus6", 3.5)


def test_layout_without_term_groups_is_refused():
    lay = build_layout("threeplus6", 0.4)
    with pytest.raises(ValueError, match="layout 'threeplus6' has no inequality term groups"):
        SettingsLayout(lay.name, lay.phi, lay.a, lay.b, (), lay.bound_pairs, lay.angles)


def test_rotate_settings_identity_and_axis():
    lay = build_layout("threeplus7", 0.3)
    (same,) = rotate_settings([lay], _euler(0.0, 0.0, 0.0))
    assert same.angles is None
    for d, e in zip(sum(directions(lay), ()), sum(directions(same), ())):
        assert np.allclose(to_cartesian(d), to_cartesian(e), atol=1e-12)
    # z-rotation by pi moves a1 = (pi/2, 0) to (pi/2, pi)
    (rot,) = rotate_settings([lay], _euler(np.pi, 0.0, 0.0))
    assert np.allclose(to_cartesian(directions(rot)[0][0]), [-1, 0, 0], atol=1e-12)


def test_rotate_settings_preserves_party_angles(rng):
    lay = build_layout("threeplus6", 0.7)
    for _ in range(20):
        ra = _euler(*rng.uniform(0, 2 * np.pi, 3))
        rb = _euler(*rng.uniform(0, 2 * np.pi, 3))
        (rot,) = rotate_settings([lay], ra, rb)
        for lst, new in zip(directions(lay), directions(rot)):
            for i in range(len(lst)):
                for j in range(i + 1, len(lst)):
                    assert (
                        abs(angle_between(new[i], new[j]) - angle_between(lst[i], lst[j]))
                        < 1e-10
                    )


def test_rotate_settings_stack_equals_each_layout_alone(rng):
    layouts = build_layouts("threeplus6", [0.2, 0.7, 1.3])
    ra = _rotations(*rng.uniform(0, 2 * np.pi, (3, len(layouts))))
    rb = _rotations(*rng.uniform(0, 2 * np.pi, (3, len(layouts))))
    stack = rotate_settings(layouts, ra, rb)
    for g, lay in enumerate(layouts):
        assert stack[g] == rotate_settings([lay], ra[g : g + 1], rb[g : g + 1])[0]


def test_rotate_settings_shared_mode():
    lay = build_layout("threeplus7", 0.2)
    r = _euler(0.3, 1.1, -0.4)
    (shared,) = rotate_settings([lay], r)
    (both,) = rotate_settings([lay], r, r)
    for d, e in zip(directions(shared)[1], directions(both)[1]):
        assert np.allclose(to_cartesian(d), to_cartesian(e), atol=1e-15)
