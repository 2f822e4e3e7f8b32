"""Leggett and CHSH inequality evaluation and bounds.

The inequality value is L = sum over term groups of weight * |sum of
correlations|; every canonical layout normalizes to L <= 4.  L of one point
or of a batch of points is one :func:`leggett_value` call, whose E comes
from :meth:`leggett_lab.correlations.ModelStack.term_correlation`, the one
array evaluator of E; the CHSH value at named settings sums the scalar
facade.

A violation verdict compares L against 4 - f_min, where f_min is either the
closed-form two-dimensional bound of the layout (mode "analytic2d") or the
state-corrected minimum over hidden local vectors (mode "state_corrected",
computed in :mod:`leggett_lab.optimize` and registered here to keep the
module dependency one-way).  The state-corrected value is exact for the
singlet, :func:`pes_fmin`, and for the pseudo-spin family,
|m(alpha)| * pes_fmin; for on/off and parity it comes from adversarial
multi-start minimization.  The searches, and the grid check that each
Leggett violation comes with a CHSH violation, live in
:mod:`leggett_lab.optimize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .correlations import CorrelationModel, ModelStack
from .geometry import Direction, SettingsLayout

VIOLATION_TOL = 1e-7  # margin above which a violation verdict is issued


@dataclass(frozen=True)
class BoundResult:
    """A bound term f_min and the resulting inequality bound 4 - f_min."""

    f_min: float
    bound: float
    mode: str  # "analytic2d" | "state_corrected"
    f_direct: float | None = None
    f_triangle: float | None = None
    converged: bool = True
    evaluations: int = 0


@dataclass(frozen=True)
class LeggettEvaluation:
    L: float
    bound: BoundResult
    margin: float
    violated: bool
    layout: SettingsLayout  # the settings L was evaluated at (rotated ones after optimize_rigid)


@dataclass(frozen=True)
class ChshEvaluation:
    B: float
    settings: tuple
    violated: bool


def leggett_value(model, layout):
    """sum_groups weight * |sum_terms E(a_i, b_j)| with the layout's settings.

    model is a CorrelationModel and layout a SettingsLayout, and the value is
    a float; or either is a sequence of P of them, the other then applying
    to every point, and the value is the (P,) array of the points.  The
    models share one measurement family and the layouts one set of term
    groups.  E of every term of every point comes from one
    :meth:`ModelStack.term_correlation` call (of the model's own stack, or
    of a stack of the models) on the features of
    :meth:`CorrelationModel.layout_features`, and the
    sums run in the order of the terms (:func:`_group_sum`), so at a layout
    built from angles each value is bit for bit the sum of the scalar
    ``model.correlation`` terms.
    """
    single = isinstance(model, CorrelationModel), isinstance(layout, SettingsLayout)
    models = [model] if single[0] else list(model)
    layouts = [layout] if single[1] else list(layout)
    if len(models) > 1 and len(layouts) > 1 and len(models) != len(layouts):
        raise ValueError(f"{len(models)} models for {len(layouts)} layouts")
    groups = layouts[0].groups
    if any(lay.groups != groups for lay in layouts):
        raise ValueError("the layouts of one evaluation must share their term groups")
    ia, jb = _term_indices(groups)
    features = [models[0].layout_features(lay) for lay in layouts]
    if len(features) == 1:
        fa, fb = features[0]
    else:
        fa = np.array([f for f, _ in features])
        fb = np.array([f for _, f in features])
    stack = models[0].stack if all(m is models[0] for m in models) else ModelStack(models)
    e = stack.term_correlation(fa.take(ia, -2), fb.take(jb, -2))
    total = _group_sum(groups, e[0] if len(e) == 1 else e)  # one point: numpy scalars, cheaper than (1,) arrays
    if all(single):
        return float(total)
    points = max(len(models), len(layouts))
    return total if np.shape(total) == (points,) else np.full(points, total)


def _group_sum(groups, e):
    """sum over groups of weight * |sum of the group's E|, from E of every term
    in order along the last axis of e: (T,) for one point, (P, T) for P.

    The sums run in the order of the terms, elementwise, so each point's
    value is bit for bit the scalar sum of its terms.
    """
    columns = iter(e.T)  # E of each term: a float for one point, a (P,) array for P
    total = 0.0
    for weight, terms in groups:
        s = next(columns)
        for _ in terms[1:]:
            s = s + next(columns)
        total = total + weight * abs(s)
    return total


@lru_cache(maxsize=None)
def _term_indices(groups) -> tuple:
    """The a and b setting index of every term of the groups, in order: two read-only (T,) arrays."""
    terms = [term for _, group in groups for term in group]
    ia, jb = np.array([i for i, _ in terms]), np.array([j for _, j in terms])
    ia.flags.writeable = jb.flags.writeable = False
    return ia, jb


def analytic_fmin(layout_name: str, phi: float) -> float:
    """Closed-form two-dimensional bound terms.

    original:   (4/pi) |sin(phi/2)|
    threeplus7:       |sin(phi/2)|
    threeplus6: (4/3) |sin(phi/2)|
    """
    s = abs(math.sin(0.5 * phi))
    if layout_name == "original":
        return 4.0 / math.pi * s
    if layout_name == "threeplus7":
        return s
    if layout_name == "threeplus6":
        return 4.0 / 3.0 * s
    raise ValueError(f"no Leggett bound for layout {layout_name!r}")


# the layouts with a state-corrected bound, those of pes_fmin's proof
STATE_CORRECTED_LAYOUTS = ("threeplus7", "threeplus6")


def pes_fmin(layout_name: str, phi: float) -> float:
    """Exact state-corrected bound term of the unit-sphere (Malus) model.

    With s = sin(phi/2) and c = cos(phi/2), phi in [0, pi]:

    threeplus7: s (s + c)
    threeplus6: (4/3) s

    Proof.  Write the direct objective as D(u, v) = sum_groups w * sum_terms
    |a_i.u - b_j.v| over unit vectors u, v.

    Lower bound: every layout.bound_pairs entry (j, j2, w) is two terms of
    one group that share a_i, so by the triangle inequality
    D(u, v) >= sum w |(b_j - b_j2).v| = sum_k |d_k.v| =: N(v), with
    d_k = w (b_j - b_j2).  N is a polyhedral norm.

    * threeplus6: the d_k are (2/3) 2s times y, z and x, so
      N(v) = (4/3) s (|v_x| + |v_y| + |v_z|) >= (4/3) s |v| = (4/3) s.
    * threeplus7: the d_k are s e_k with e_1 = (-s, c, 0), e_2 = (-c, -s, 0)
      (orthonormal in the xy plane) and e_3 = (0, -s, -c), e_4 = (0, c, -s)
      (orthonormal in the yz plane).  min over |v| = 1 of N(v) is
      1 / max |v| over the polytope N(v) <= 1 (bounded, as the e_k span
      R^3), and that maximum sits at a vertex, which lies on a ray where two planes e_j.v = 0 meet, i.e.
      along e_j x e_k.  Up to sign and normalization the six rays and the
      values of N/s on them are
        e_1 x e_2 ~ z:              s + c
        e_3 x e_4 ~ x:              s + c
        e_1 x e_3 ~ (c^2, sc, -s^2):  (s + c) / sqrt(c^2 + s^4)
        e_2 x e_4 ~ (s^2, -sc, -c^2): (s + c) / sqrt(s^2 + c^4)
        e_1 x e_4 ~ (c, s, c):        2 / sqrt(1 + c^2)
        e_2 x e_3 ~ (s, -c, s):       2 / sqrt(1 + s^2)
      Each is >= s + c, because c^2 + s^4 <= 1, s^2 + c^4 <= 1, and
      (s + c)^2 (1 + c^2) and (s + c)^2 (1 + s^2) are both <= 2 * 2.  Hence N(v) >= s (s + c).

    Attainment (h = phi/2):

    * threeplus7 at u = v = z: only the terms (i, j) = (1, 2) and (2, 3)
      (0-based layout indices) are nonzero, giving
      (1/2)(sin phi + 1 - cos phi) = s (s + c).
    * threeplus6 at u = (cos h, 0, sin h), v = x: only the term
      (i, j) = (2, 5) is nonzero, giving (2/3) 2 sin h = (4/3) s.

    D is unchanged by a rigid rotation of either party's settings (rotate
    u or v with them), so the value also holds for rotated layouts.
    """
    s, c = math.sin(0.5 * phi), math.cos(0.5 * phi)
    if layout_name == "threeplus7":
        return s * (s + c)
    if layout_name == "threeplus6":
        return 4.0 / 3.0 * s
    raise ValueError(f"no exact bound term for layout {layout_name!r}")


_numeric_fmin_impl = None


def register_numeric_fmin(func) -> None:
    """Called by :mod:`leggett_lab.optimize` to provide the state-corrected bound."""
    global _numeric_fmin_impl
    _numeric_fmin_impl = func


def leggett_bound(
    model: CorrelationModel,
    layout: SettingsLayout,
    mode: str = "state_corrected",
    config=None,
) -> BoundResult:
    """Bound for the given layout in the requested mode.

    The state-corrected mode covers the layouts of STATE_CORRECTED_LAYOUTS
    and raises ValueError for any other.  The original layout supports only
    the analytic mode: its closed-form factor rests on a rotational-invariance
    ensemble average that a point-mass hidden-vector minimization does not
    reproduce.
    """
    if mode == "analytic2d":
        f = analytic_fmin(layout.name, layout.phi)
        return BoundResult(f, 4.0 - f, "analytic2d")
    if mode != "state_corrected":
        raise ValueError(f"unknown bound mode {mode!r}")
    if _numeric_fmin_impl is None:  # pragma: no cover - import order guard
        raise RuntimeError("state-corrected bound unavailable: optimize module not imported")
    return _numeric_fmin_impl(model, layout, config)


def evaluate_points(models, layouts, mode: str = "state_corrected", configs=None, values=None) -> list:
    """The LeggettEvaluation of models[g] on layouts[g] at each point g.

    The bounds come first, point by point in order with configs[g] (None,
    or a None entry, takes the default), so the first point whose bound
    fails raises.  L of every point is then one :func:`leggett_value` call,
    unless values gives it.
    """
    if not models:
        return []
    bounds = [
        leggett_bound(model, layout, mode=mode, config=config)
        for model, layout, config in zip(models, layouts, configs or [None] * len(models))
    ]
    if values is None:
        values = leggett_value(models, layouts)
    out = []
    for value, bound, layout in zip(values, bounds, layouts):
        margin = float(value) - bound.bound
        out.append(LeggettEvaluation(float(value), bound, margin, margin > VIOLATION_TOL, layout))
    return out


def chsh_value(
    model: CorrelationModel, a: Direction, a2: Direction, b: Direction, b2: Direction
) -> ChshEvaluation:
    """B = E(a,b) + E(a,b2) + E(a2,b) - E(a2,b2); the inequality is |B| <= 2,
    so violation means |B| > 2, of either sign."""
    B = (
        model.correlation(a, b)
        + model.correlation(a, b2)
        + model.correlation(a2, b)
        - model.correlation(a2, b2)
    )
    return ChshEvaluation(B, (a, a2, b, b2), abs(B) > 2.0)


# the canonical CHSH settings a = x, a2 = y, b and b2, all on the equator, b
# and b2 at azimuth -3 pi/4 and 3 pi/4: the singlet's B is 2 sqrt(2) there
_CHSH_SETTINGS = tuple(Direction(0.5 * math.pi, p) for p in (0.0, 0.5 * math.pi, -0.75 * math.pi, 0.75 * math.pi))


def chsh_at_layout(model: CorrelationModel) -> ChshEvaluation:
    """CHSH at the fixed canonical settings (a, a2, b, b2) above."""
    return chsh_value(model, *_CHSH_SETTINGS)
