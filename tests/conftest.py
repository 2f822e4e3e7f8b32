import math
from types import SimpleNamespace

import numpy as np
import pytest

from leggett_lab import Direction, EcsSpec, SearchConfig, from_cartesian, optimize


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_direction(rng) -> Direction:
    """Uniform direction on the sphere."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(-np.pi, np.pi)
    return Direction(float(np.arccos(z)), float(phi))


def to_cartesian(d: Direction) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(d.theta)
    return np.array([st * math.cos(d.phi), st * math.sin(d.phi), math.cos(d.theta)])


def angle_between(a: Direction, b: Direction) -> float:
    dot = float(np.dot(to_cartesian(a), to_cartesian(b)))
    return math.acos(max(-1.0, min(1.0, dot)))


def directions(layout) -> tuple:
    """The settings of a layout's two parties as two tuples of Directions: of
    its angles, or of its vectors when it has none (a rotated layout)."""
    if layout.angles is None:
        return tuple(tuple(from_cartesian(v) for v in vectors) for vectors in (layout.a, layout.b))
    return tuple(tuple(Direction(theta, phi) for theta, phi in angles.tolist()) for angles in layout.angles)


# -- two-ket oracles -------------------------------------------------------------------
#
# The coefficient algebra of the on/off and parity models in the basis
# {|a>, |-a>}, in complex arithmetic: the oracle of the closed forms in
# leggett_lab.correlations.


def gram_matrix(alpha: float) -> np.ndarray:
    k = math.exp(-2.0 * alpha * alpha)
    return np.array([[1.0, k], [k, 1.0]])


def coefficient_tensor(spec: EcsSpec) -> np.ndarray:
    """2x2 coefficients C[x, y] of the ECS over the basis |x a> (x) |y a>, x, y in {+, -}."""
    norm = 1.0 / math.sqrt(2.0 * (1.0 + spec.sign * math.exp(-4.0 * spec.alpha**2)))
    c = np.zeros((2, 2), dtype=complex)
    c[0, 1] = norm
    c[1, 0] = spec.sign * norm
    return c


def rotation_map(theta: float, phi: float) -> np.ndarray:
    """Asymptotic action of the displacement/Kerr composite on coefficients:
    |a>  -> sin(t/2)|a> + e^{-i p} cos(t/2)|-a>,
    |-a> -> e^{i p} cos(t/2)|a> - sin(t/2)|-a>.
    Columns are the images; the map is exactly unitary."""
    s, c = math.sin(0.5 * theta), math.cos(0.5 * theta)
    ph = np.exp(1j * phi)
    return np.array([[s, ph * c], [np.conj(ph) * c, -s]])


# -- engine oracles --------------------------------------------------------------------


def scalar_nelder_mead(f, x0, step, fatol, maxiter):
    """Reference oracle: the one-start scalar simplex descent that the
    lockstep engine must reproduce for every start, bit for bit.

    Returns (x_best, f_best, converged, n_evaluations).  Ties are broken by
    vertex order and the initial simplex is x0 plus one step along each
    coordinate.
    """
    n = len(x0)
    pts = np.repeat(np.asarray(x0, dtype=float)[None, :], n + 1, axis=0)
    for k in range(n):
        pts[k + 1, k] += step[k]
    vals = np.array([f(p) for p in pts])
    nfev = n + 1
    for _ in range(maxiter):
        order = np.argsort(vals, kind="stable")
        pts, vals = pts[order], vals[order]
        if vals[-1] - vals[0] <= fatol:
            return pts[0], vals[0], True, nfev
        centroid = pts[:-1].mean(axis=0)
        xr = centroid + (centroid - pts[-1])
        fr = f(xr)
        nfev += 1
        if fr < vals[0]:
            xe = centroid + 2.0 * (centroid - pts[-1])
            fe = f(xe)
            nfev += 1
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            if fr < vals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = f(xc)
            nfev += 1
            if fc < min(fr, vals[-1]):
                pts[-1], vals[-1] = xc, fc
            else:  # shrink toward the best vertex
                pts[1:] = pts[0] + 0.5 * (pts[1:] - pts[0])
                vals[1:] = [f(p) for p in pts[1:]]
                nfev += n
    order = np.argsort(vals, kind="stable")
    return pts[order[0]], vals[order[0]], False, nfev


def rowwise(objective):
    """A batched objective that evaluates a scalar objective on each row."""
    return lambda points, owners=None: np.array([objective(x) for x in points], dtype=float)


def simplex_minimize(objective, ranges, config: SearchConfig, maxiter: int = optimize._MAX_ITERATIONS):
    """Best start of a seeded multi-start simplex descent in the box ranges.

    ranges gives one (lo, hi) interval per coordinate of objective, which
    maps one point to a float; the engine evaluates it row by row, with the
    starts and steps of a search and its tolerance, and at most maxiter
    iterations per start.  The best start has the lowest value, the first
    start on a tie; its point, value, converged flag and start_index are
    returned.  A start that exhausts its iterations without meeting the
    tolerance is still used but flags the result as unconverged.
    """
    starts = optimize._start_points(ranges, config)
    steps = [0.15 * (hi - lo) for lo, hi in ranges]
    x, v, ok, _ = optimize._nelder_mead(rowwise(objective), starts, steps, optimize._TOLERANCE, maxiter)
    s = int(np.argmin(v))
    return SimpleNamespace(point=x[s], value=float(v[s]), converged=bool(ok[s]), start_index=s)
