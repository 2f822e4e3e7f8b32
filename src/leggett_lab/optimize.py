"""Closed-form optima for the tensor models, and multi-start searches for the others.

Three quantities have closed forms for the singlet and pseudo-spin, whose
correlation E(a, b) = a^T diag(t) b is bilinear in the setting vectors, and
are not searched there:

* the state-corrected bound, :func:`numeric_fmin`: |m| * pes_fmin
  (|m| = 1 for the singlet);
* the CHSH maximum, :func:`optimize_chsh`: B = 2 sqrt(t_1^2 + t_2^2) over
  the two largest |t_c| (Horodecki, Horodecki and Horodecki, Phys. Lett. A
  200, 340 (1995)), evaluated at settings that reach it;
* the rigid-rotation optimum, :func:`optimize_rigid`: one eigenproblem (a
  shared rotation) or one proper-rotation trace maximum (independent
  rotations) per sign pattern of the term groups, with L read at rotations
  that reach it.

One Nelder-Mead engine serves only the on/off and parity models: their
hidden-vector bound minimization, CHSH setting maximization and
rigid-rotation optimization.  Through these the parameter scans and the
amplitude-threshold bisection search too.  The engine runs in lockstep: it
advances every start of a search as one (S, d+1, d) simplex array, and a
start leaves the active set when it converges or exhausts its iterations;
the tolerance and iteration cap may differ from start to start.  Objectives
take a (k, d) array of points and the (k,) owners of its rows and return a
(k,) array of values.  The searches are bound by the fixed cost of an
objective call, not by its rows: while few starts are live (at most
``_SPECULATIVE_LIVE``), a step evaluates the reflection, the expansion and
both contractions of every live start in one call and takes the point the
start's decision needs; above that, the reflection is one call and the
expansion or contraction of the starts that need one is a second.  For the
tensor models the engine remains the test oracle of the closed forms.

Each search fixes the box its starts are drawn from, one (lo, hi) interval
per coordinate: two (theta, phi) spheres for the direct bound, one for the
triangle bound, four for CHSH, and three Euler angles per rotation for the
rigid search.  A :class:`SearchConfig` carries only the number of starts
and the seed; every search stops by one rule, the module constants
``_TOLERANCE`` and ``_MAX_ITERATIONS``.

Owners let one batch hold the starts of several problems.  Each start
belongs to one problem, and the objective looks up that problem's constants
(the setting vectors of its layout and the t, P, Q, kappa of its model) by
the owner of each row.  :func:`_search` is the one multi-start entry point:
it runs the starts of P problems as one batch, polishes each problem's best
start as one more batch and returns the point, value and evaluation count
of each problem as arrays.  The CHSH search, the triangle bound and the
rigid search call it; the direct bound reads the engine's arrays itself,
because it also re-polishes its top decile.  :func:`optimize_rigid`
searches every point of a sweep as one :func:`_search` and only rotates:
it returns the settings it picks and their L.  The points of a sweep
reach the program through one evaluator, :func:`_evaluate`, which takes
the sweep's :class:`ScanTask`, makes at most one rigid call and bounds
every point with one :func:`leggett_lab.inequality.evaluate_points` call;
a single point is the batch of one.  :func:`scan` evaluates its grid so,
and :func:`threshold_alpha` its coarse grid and each batch of midpoints.
The threshold is one bisection, :func:`_bisect`: the walk runs it on the
signs of known margins, and where a margin is missing, speculation runs
the same bisection on the sign of a cubic through the known margins and
evaluates the midpoints it visits as one batch.  The determinism contract
below makes that bit-identical to evaluating them one at a time.

Determinism contract: identical config and objective give bit-identical
results.  Start 0 is the range midpoint (the identity rotation for rigid
searches), and the others come from a seeded scrambled Sobol sequence drawn
with numpy alone: Joe-Kuo direction numbers (SIAM J. Sci. Comput. 30, 2635
(2008)) under a linear matrix scramble and digital shift (Matousek,
J. Complexity 14, 527 (1998)), equal bit for bit to scipy 1.17's
``scipy.stats.qmc.Sobol`` at the same seed, which the tests check.  The
reduction picks the best value with start-index tie-break.  Each start
keeps its own reflection, expansion, contraction and shrink decisions and
its own stable vertex sort.  A candidate point that is evaluated but not
taken (the expansion or contraction a speculative step does not need) is
discarded, and the evaluation counts hold only the points the descent uses,
so they do not depend on the step mode.  No row of an objective's result
depends on which other rows share its batch.  E is elementwise everywhere.
The only small matrix and vector products are the rotations of the setting
vectors, and the local averages and weighted sums of the bound search; each is
stacked per row (np.matmul over a leading batch axis), never one BLAS
product across the batch axis, which can round a row differently depending
on the rows around it.  So every start follows exactly the trajectory it
would follow alone, whichever problems and candidate points share its
batch.  The closed-form rigid optimum and the array evaluation of L keep
the same contract: the eigenproblems, decompositions and rotations of the
setting vectors are per point.

The bound, CHSH and rigid-rotation objectives are the same code for all
four measurement families, through the one representation of
:class:`leggett_lab.correlations.CorrelationModel`.  The CHSH and rigid
objectives evaluate E with
:meth:`leggett_lab.correlations.ModelStack.term_correlation`, as
:func:`leggett_lab.inequality.leggett_value` does, so a row of the rigid
objective is L at its rotated settings bit for bit.  Both bound objectives
evaluate the local averages A = (P + Q s) / (1 + kappa s) with
:meth:`leggett_lab.correlations.CorrelationModel.local_averages`, the direct
one for both parties and the triangle one for party B.

:func:`implication_check` asks, as a sweep of :func:`scan` per amplitude,
whether every Leggett violation of a grid comes with a CHSH violation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .correlations import PES_FAMILY, CorrelationModel, ModelStack, ecs_model, pes_model
from .geometry import (
    Direction,
    SettingsLayout,
    build_layout,
    build_layouts,
    from_cartesian,
    rotate_settings,
)
from . import inequality
from .inequality import BoundResult, ChshEvaluation, LeggettEvaluation, chsh_value
from .util import stable_seed

_SPHERE = ((0.0, math.pi), (-math.pi, math.pi))
_EULER = ((0.0, 2.0 * math.pi),) * 3


class ConvergenceError(Exception):
    """A multi-start search did not settle on a reproducible optimum."""


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start Nelder-Mead configuration.

    starts are drawn from a Sobol sequence seeded with seed and scaled to the
    box of the search that uses the config; the box is not part of it.  Every
    search stops by the same rule, _TOLERANCE and _MAX_ITERATIONS.
    """

    starts: int = 32
    seed: int = 0


# the stopping rule of every start of a search: a simplex value spread of at
# most _TOLERANCE, or _MAX_ITERATIONS iterations (unconverged)
_TOLERANCE = 1e-10
_MAX_ITERATIONS = 2000


# While at most this many starts are live, a step evaluates the reflection,
# the expansion and both contractions of every live start in one objective
# call; above it, the reflection first and then only the trial point each
# start needs.  Few rows cost about a fixed 20-40 us per call, many rows cost
# per row.  Measured crossover (CPU s, best of 5, 2-CPU host; limit 0 never
# speculates): six 32-start on/off and parity bound searches 0.33 at limit 0,
# 0.27 at 32 and 64; the 15 x 64-start parity rigid batch of a scan-phi 2.17
# at 0, 2.03 at 32, 2.10 at 64, 2.32 at 128 and 3.99 with no limit.
_SPECULATIVE_LIVE = 32


def _nelder_mead(f, x0, step, fatol, maxiter, owners=None):
    """Reflection/expansion/contraction/shrink simplex descent of S starts in lockstep.

    x0 is an (S, n) array of start points and f maps a (k, n) array of
    points and the (k,) owners of its rows to a (k,) array of values.
    owners[s] is the problem that start s belongs to (all 0 by default), so
    one batch can hold the starts of several problems.  Each start's initial
    simplex is its point plus one step along each coordinate; its vertices
    are sorted stably every iteration, so ties go to vertex order.  A start
    stops when its simplex value spread is at most fatol, and unconverged
    after maxiter iterations; fatol and maxiter are one value for every
    start or one per start.  Returns per start (x_best, f_best, converged,
    n_evaluations) as arrays of length S.

    While at most _SPECULATIVE_LIVE starts are live, each iteration makes
    one objective call for all four candidate points of every live start
    and keeps, per start, the one point the two-call step would evaluate;
    the others are discarded and not counted in n_evaluations.  Shrinks are
    one more call either way.
    """
    x0 = np.asarray(x0, dtype=float)
    S, n = x0.shape
    owners = np.zeros(S, dtype=int) if owners is None else np.asarray(owners)
    pts = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    pts[:, diag + 1, diag] += np.asarray(step, dtype=float)
    vals = f(pts.reshape(-1, n), np.repeat(owners, n + 1)).reshape(S, n + 1)
    nfev = np.full(S, n + 1)
    best_x = np.empty((S, n))
    best_f = np.empty(S)
    converged = np.zeros(S, dtype=bool)
    # per row of pts and vals: the start's index, fatol and maxiter, and its
    # evaluations beyond the initial simplex and one reflection per iteration
    live = np.arange(S)
    tol = np.broadcast_to(np.asarray(fatol, dtype=float), (S,))
    cap = np.broadcast_to(np.asarray(maxiter), (S,))
    extra = np.zeros(S, dtype=int)

    def regroup():
        """Row indices, owners, owners of the four candidate blocks (None
        above the speculation limit) and the first maxiter of the live rows."""
        own = owners[live]
        own4 = np.concatenate((own, own, own, own)) if live.size <= _SPECULATIVE_LIVE else None
        return np.arange(live.size)[:, None], own, own4, cap.min()

    rows, own, own4, first_cap = regroup()
    for iteration in itertools.count():
        order = np.argsort(vals, axis=1, kind="stable")
        pts = pts[rows, order]
        vals = vals[rows, order]
        done = stop = vals[:, -1] - vals[:, 0] <= tol
        if iteration >= first_cap:
            exhausted = cap <= iteration
            done = done & ~exhausted
            stop = done | exhausted
        if stop.any():
            idx = live[stop]
            best_x[idx] = pts[stop, 0]
            best_f[idx] = vals[stop, 0]
            converged[idx] = done[stop]
            nfev[idx] += iteration + extra[stop]
            if stop.all():
                return best_x, best_f, converged, nfev
            go = ~stop
            live, pts, vals, tol, cap, extra = live[go], pts[go], vals[go], tol[go], cap[go], extra[go]
            rows, own, own4, first_cap = regroup()
        centroid = pts[:, :-1].sum(axis=1) / n
        d = centroid - pts[:, -1]
        # reflection, expansion, outside and inside contraction
        cand = np.empty((4,) + centroid.shape)
        xr = np.add(centroid, d, out=cand[0])
        xe = np.add(centroid, 2.0 * d, out=cand[1])
        xo = np.add(centroid, 0.5 * (xr - centroid), out=cand[2])
        xi = np.subtract(centroid, 0.5 * d, out=cand[3])  # centroid + 0.5 (worst - centroid), exactly
        if own4 is not None:
            fr, fe, fo, fi = f(cand.reshape(-1, n), own4).reshape(4, -1)
        else:
            fr = f(xr, own)
        v0, v2, vw = vals[:, 0], vals[:, -2], vals[:, -1]
        expand = fr < v0
        contract = ~expand & ~(fr < v2)
        # one more trial point for each start that expands or contracts
        outside = fr < vw
        trial = np.where(expand[:, None], xe, np.where(outside[:, None], xo, xi))
        probe = expand | contract
        if own4 is not None:
            ft = np.where(expand, fe, np.where(outside, fo, fi))
        else:
            ft = fr.copy()
            if probe.any():
                ft[probe] = f(trial[probe], own[probe])
        extra += probe
        inside = contract & (ft < np.where(vw < fr, vw, fr))
        take = (expand & (ft < fr)) | inside
        shrink = contract & ~inside
        shrinks = shrink.any()
        if shrinks:  # toward the best vertex; it replaces the worst vertex too
            best = pts[shrink, :1]
            shrunk = best + 0.5 * (pts[shrink, 1:] - best)
        pts[:, -1] = np.where(take[:, None], trial, xr)
        vals[:, -1] = np.where(take, ft, fr)
        if shrinks:
            pts[shrink, 1:] = shrunk
            vals[shrink, 1:] = f(shrunk.reshape(-1, n), np.repeat(own[shrink], n)).reshape(-1, n)
            extra[shrink] += n


# Sobol direction numbers of Joe and Kuo (SIAM J. Sci. Comput. 30, 2635
# (2008)) for dimensions 1 to 8: per dimension the primitive polynomial, as
# the integer of its coefficient bits, and the initial numbers m_1..m_deg
_SOBOL_BITS = 30
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17))
_TOP_FIRST = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # bit shifts, top bit first


@lru_cache(maxsize=None)
def _sobol_directions(d: int) -> np.ndarray:
    """(d, 30) direction numbers v[k, j] = m_j 2^(30 - j - 1) of the first d dimensions.

    Dimension 1 has m_j = 1 for all j; the others extend their initial m by
    the recurrence of Bratley and Fox (ACM TOMS 14, 88 (1988)).
    """
    if not 1 <= d <= len(_SOBOL_POLY):
        raise ValueError(f"Sobol starts need 1 to {len(_SOBOL_POLY)} dimensions, got {d}")
    v = np.empty((d, _SOBOL_BITS), dtype=np.uint32)
    for k in range(d):
        poly = _SOBOL_POLY[k]
        deg = poly.bit_length() - 1
        m = list(_SOBOL_VINIT[k]) if k else [1] * _SOBOL_BITS
        for j in range(len(m), _SOBOL_BITS):
            new = m[j - deg]
            for i in range(1, deg + 1):
                if (poly >> (deg - i)) & 1:
                    new ^= m[j - i] << i
            m.append(new)
        v[k] = [mj << (_SOBOL_BITS - 1 - j) for j, mj in enumerate(m)]
    v.setflags(write=False)
    return v


def _sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the scrambled d-dimensional Sobol sequence drawn with seed.

    Linear matrix scrambling plus a digital shift, in the order in which
    scipy draws them from np.random.default_rng(seed): the 30 shift bits of
    each dimension (bit k weighted 2^k), then a random lower-triangular 0/1
    matrix per dimension with a unit diagonal.  New bit p of a direction
    number is the parity of row p of its matrix times its bits, both top
    bit first.  Point 0 is the shift; point i XORs onto point i - 1 the
    scrambled direction number of the lowest set bit of i (the Gray-code
    order).
    """
    v = _sobol_directions(d)
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, (d, _SOBOL_BITS), dtype=np.uint32) @ (np.uint32(1) << _TOP_FIRST[::-1])
    lms = np.tril(rng.integers(0, 2, (d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    lms[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    bits = (v[:, None, :] >> _TOP_FIRST[:, None]) & 1  # bits[k, p, j]: bit p from the top of v[k, j]
    scrambled = (((lms @ bits) & 1) << _TOP_FIRST[:, None]).sum(axis=1, dtype=np.uint32)
    i = np.arange(n)
    gray = i ^ (i >> 1)
    quasi = np.repeat(shift[None, :], n, axis=0)
    for c in range(int(n - 1).bit_length()):
        quasi ^= np.where(((gray >> c) & 1)[:, None] == 1, scrambled[:, c], np.uint32(0))
    return quasi * (1.0 / (1 << _SOBOL_BITS))


def _start_points(ranges, config: SearchConfig) -> np.ndarray:
    """The box midpoint, then config.starts - 1 seeded Sobol points scaled to the box.

    The Sobol points are a draw of exactly config.starts - 1 points of
    :func:`_sobol`: Joe-Kuo direction numbers (SIAM J. Sci. Comput. 30, 2635
    (2008)) under Matousek's linear matrix scramble and digital shift
    (J. Complexity 14, 527 (1998)), on numpy alone.  The draw equals the
    first config.starts - 1 points of scipy.stats.qmc.Sobol(len(ranges),
    scramble=True, seed=config.seed).random(n) bit for bit, which
    tests/test_optimize.py checks against scipy 1.17.  Boxes of 1 to 8
    coordinates; the searches use 2, 3, 4, 6 and 8.
    """
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    pts = np.empty((config.starts, len(ranges)))
    pts[0] = 0.5 * (lo + hi)
    if config.starts > 1:
        pts[1:] = lo + _sobol(len(ranges), config.starts - 1, config.seed) * (hi - lo)
    return pts


def _polish(objective, x0, fatol=1e-15, maxiter=5000, owners=None):
    """Small-step descent from each row of x0, as one batch; (points, values, evaluations)."""
    x0 = np.atleast_2d(x0)
    x, v, _, nfev = _nelder_mead(objective, x0, np.full(x0.shape[1], 1e-3), fatol, maxiter, owners)
    return x, v, nfev


def _search(objective, ranges, starts):
    """The multi-start searches of P problems over the box ranges; problem g owns starts[g].

    The starts of all problems advance as one lockstep batch, with initial
    simplex steps of 0.15 of the box.  Each problem's best start has the
    lowest value, the first start on a tie; the P bests are polished as one
    more batch, and a polished point replaces its best only when it is
    lower.  Returns per problem the point (P, d), the value (P,) and the
    evaluations (P,) of all its starts and its polish.
    """
    sizes = [len(s) for s in starts]
    first = np.cumsum(sizes) - sizes  # the row of each problem's start 0
    steps = [0.15 * (hi - lo) for lo, hi in ranges]
    owners = np.repeat(np.arange(len(starts)), sizes)
    x, v, _, nfev = _nelder_mead(objective, np.concatenate(starts), steps, _TOLERANCE, _MAX_ITERATIONS, owners)
    best = first + np.array([np.argmin(v[r : r + n]) for r, n in zip(first, sizes)])
    px, pv, pn = _polish(objective, x[best], owners=np.arange(len(starts)))
    lower = pv < v[best]
    return np.where(lower[:, None], px, x[best]), np.where(lower, pv, v[best]), np.add.reduceat(nfev, first) + pn


# -- batched objectives --------------------------------------------------------------


def _row_dots(x, y):
    """x_r . y_r for rows of x (k, n) and y (k, n) or (n,), one dot product per row.

    Rows are made contiguous first: the dot kernel rounds a strided vector
    differently from a contiguous one, and the stride of a row can depend on
    the batch size.
    """
    x = np.ascontiguousarray(x)[:, None, :]
    y = np.ascontiguousarray(y)[..., None]
    return np.matmul(x, y)[:, 0, 0]


def _rotations(z1, y, z2):
    """ZYZ Euler rotation matrices for angle arrays of shape (k,): (k, 3, 3)."""
    cz, sz = np.cos(z1), np.sin(z1)
    cy, sy = np.cos(y), np.sin(y)
    c2, s2 = np.cos(z2), np.sin(z2)
    r = np.empty(np.shape(z1) + (3, 3))
    r[..., 0, 0] = cz * cy * c2 - sz * s2
    r[..., 0, 1] = -cz * cy * s2 - sz * c2
    r[..., 0, 2] = cz * sy
    r[..., 1, 0] = sz * cy * c2 + cz * s2
    r[..., 1, 1] = -sz * cy * s2 + cz * c2
    r[..., 1, 2] = sz * sy
    r[..., 2, 0] = -sy * c2
    r[..., 2, 1] = sy * s2
    r[..., 2, 2] = cy
    return r


def _rotation_pair(x, shared: bool):
    """R_a and R_b, (k, 3, 3) each, of rows of ZYZ Euler angles: (k, 3), R_a
    for both parties, for a shared rotation; (k, 6), R_a then R_b, otherwise."""
    ra = _rotations(x[:, 0], x[:, 1], x[:, 2])
    return ra, ra if shared else _rotations(x[:, 3], x[:, 4], x[:, 5])


def _rigid_groups(models, layouts):
    """The term groups of a batch of rigid problems, which must share one
    measurement family and one inequality (layout name and term groups)."""
    if len({m.family for m in models}) != 1:
        raise ValueError("a batch of rigid searches must share one measurement family")
    if len({(lay.name, lay.groups) for lay in layouts}) != 1:
        raise ValueError("a batch of rigid searches must share one layout name")
    return layouts[0].groups


def _make_rigid_objective(models, layouts, shared: bool):
    """Batched negative inequality value over Euler angles, (k, 3) or (k, 6).

    Problem g is models[g] on layouts[g]; a row owned by g rotates that
    problem's setting vectors and evaluates its model.  The models share one
    family and the layouts one inequality (name and term groups).  A row is
    bit for bit the value of :func:`leggett_lab.inequality.leggett_value` at
    the settings :func:`leggett_lab.geometry.rotate_settings` gives for the
    rotations of its angles: the same rotation, features, E evaluator
    (:class:`ModelStack`) and group sum.
    """
    groups = _rigid_groups(models, layouts)
    ia, jb = inequality._term_indices(groups)
    stack = ModelStack(models)
    features = models[0].batch_vector_features
    A0 = np.array([lay.a for lay in layouts])
    B0 = np.array([lay.b for lay in layouts])

    def objective(x, owners=None):
        if owners is None:
            owners = np.zeros(len(x), dtype=int)
        ra, rb = _rotation_pair(x, shared)
        fa = features(np.matmul(A0[owners], ra.transpose(0, 2, 1)))
        fb = features(np.matmul(B0[owners], rb.transpose(0, 2, 1)))
        return -inequality._group_sum(groups, stack.term_correlation(fa.take(ia, -2), fb.take(jb, -2), owners))

    return objective


# -- hidden-vector bound minimization ----------------------------------------------


def _bound_objectives(model: CorrelationModel, layout: SettingsLayout):
    """Batched objectives of the state-corrected bound of a searched family.

    direct maps rows (t_u, p_u, t_v, p_v) to sum_groups w * sum_terms
    |A(u; a_i) - B(v; b_j)|; triangle maps rows (t_v, p_v) to
    sum w * |B(v; b_j) - B(v; b_j')| over layout.bound_pairs.
    """
    fa, fb = model.layout_features(layout)
    flat = [(w, i, j) for w, group in layout.groups for i, j in group]
    weights = np.array([w for w, _, _ in flat])
    ia = np.array([i for _, i, _ in flat])
    jb = len(fa) + np.array([j for _, _, j in flat])  # B(v; b_j) follows the n A(u; a_i)
    pair_j = np.array([j for j, _, _ in layout.bound_pairs], dtype=int)
    pair_j2 = np.array([j2 for _, j2, _ in layout.bound_pairs], dtype=int)
    pair_w = np.array([w for _, _, w in layout.bound_pairs])

    def direct(x, owners=None):
        averages = model.local_averages("ab", (fa, fb), x[:, 0::2].T, x[:, 1::2].T)
        diff = averages[:, ia] - averages[:, jb]
        return _row_dots(np.abs(diff, out=diff), weights)

    def triangle(x, owners=None):
        vals = model.local_averages("b", (fb,), x[:, 0::2].T, x[:, 1::2].T)
        return _row_dots(np.abs(vals[:, pair_j] - vals[:, pair_j2]), pair_w)

    return direct, triangle


def numeric_fmin(model: CorrelationModel, layout: SettingsLayout, config: SearchConfig | None = None) -> BoundResult:
    """State-corrected bound term: adversarial minimum over hidden vectors.

    For the singlet and the pseudo-spin family the minimum is exact and
    nothing is searched.  The singlet's local average is the Malus law
    A(u; a) = a . u, whose minimum is :func:`leggett_lab.inequality.pes_fmin`
    (it holds for rotated layouts too).  The pseudo-spin local average is
    A(u; a) = a . w with w = 2(u.m)u - m, the Bloch vector m(alpha)
    reflected about u; as u ranges over the sphere, w covers the sphere of
    radius |m| (likewise on the B side, |m_b| = |m|).  The objective is
    therefore |m| times the singlet's and f_min = |m(alpha)| * pes_fmin.
    Both are reported with f_direct = f_triangle = f_min and zero
    evaluations.

    For the other families two formulations are computed.  The direct form
    minimizes sum_groups w * sum_terms |A(u; a_i) - B(v; b_j)| over (u, v) on
    the sphere pair (a point-mass hidden distribution is optimal because the
    integrand is a nonnegative average).  The triangle-relaxed form
    minimizes sum w * |B(v; b_j) - B(v; b_j')| over the b-pairs that share
    an a-setting.  The larger of the two is the f_min used for verdicts;
    both are reported.

    Each form is a multi-start search with config (the triangle with half
    the starts, at least 8, and its own seed).  Each form's best start (the
    lowest value, the first start on a tie) is refined by a small-step
    descent (fatol 1e-15, at most 5000 iterations) and replaced when that is
    lower; the triangle form is one :func:`_search`.  The direct form ranks
    its starts by a stable sort of their values: the first is the best, and
    with at least 4 starts the first tenth (at least 2) is the top decile,
    which is re-polished (fatol 1e-13, at most 1500 iterations); a spread of
    their values above 1e-6 raises ConvergenceError.  The direct best's
    polish and the decile's re-polish are one engine batch whose rows keep
    their own tolerance and iteration cap, so each row ends where a separate
    polish would.  evaluations counts every start of both forms and the two
    best-start polishes, not the re-polish.  Every caller takes this one
    path: no flag skips a polish or the spread check.
    """
    if layout.name not in inequality.STATE_CORRECTED_LAYOUTS:
        raise ValueError(f"numeric bound supports {'/'.join(inequality.STATE_CORRECTED_LAYOUTS)}, not {layout.name!r}")
    if model.tensor is not None:
        f = model.hidden_radius * inequality.pes_fmin(layout.name, layout.phi)
        return BoundResult(f, 4.0 - f, "state_corrected", f_direct=f, f_triangle=f)
    config = config or SearchConfig()
    direct, triangle = _bound_objectives(model, layout)
    steps = [0.15 * (hi - lo) for lo, hi in _SPHERE * 2]
    x, v, ok, nfev = _nelder_mead(direct, _start_points(_SPHERE * 2, config), steps, _TOLERANCE, _MAX_ITERATIONS)
    order = np.argsort(v, kind="stable")  # the best start first, the first start on a tie
    best = order[0]
    top = order[: max(2, -(-config.starts // 10)) if config.starts >= 4 else 0]
    # one batch: the best start's polish, then the top decile's re-polish
    px, pv, pn = _polish(
        direct,
        x[np.concatenate(([best], top))],
        fatol=[1e-15] + [1e-13] * len(top),
        maxiter=[5000] + [1500] * len(top),
    )
    vals = np.sort(pv[1:])
    if len(top) and vals[-1] - vals[0] > 1e-6:
        raise ConvergenceError(f"top-decile spread {vals[-1] - vals[0]:.3e} after {config.starts} starts")

    tri_cfg = SearchConfig(max(8, config.starts // 2), stable_seed(config.seed, "triangle"))
    _, tri_v, tri_n = _search(triangle, _SPHERE, [_start_points(_SPHERE, tri_cfg)])

    f_direct = max(0.0, float(min(pv[0], v[best])))  # the polished best where it is lower
    f_triangle = max(0.0, float(tri_v[0]))
    f_min = max(f_direct, f_triangle)
    return BoundResult(
        f_min=f_min,
        bound=4.0 - f_min,
        mode="state_corrected",
        f_direct=f_direct,
        f_triangle=f_triangle,
        converged=bool(ok[best]),
        evaluations=int(nfev.sum() + pn[0] + tri_n[0]),
    )


inequality.register_numeric_fmin(numeric_fmin)


# -- CHSH setting optimization -------------------------------------------------------


# the settings of the CHSH terms (a, b), (a, b2), (a2, b), (a2, b2) among (a, a2, b, b2)
_CHSH_A, _CHSH_B = np.array([0, 0, 1, 1]), np.array([2, 3, 2, 3])


def _chsh_objective(model: CorrelationModel):
    """Batched -B over rows of four (theta, phi) directions (a, a2, b, b2).

    E of the four terms is one call of the model's stack, summed in
    :func:`chsh_value`'s order.
    """

    def negative_b(x, owners=None):
        f = model.batch_features(x[:, 0::2], x[:, 1::2])
        e = model.stack.term_correlation(f.take(_CHSH_A, -2), f.take(_CHSH_B, -2))
        return -(e[:, 0] + e[:, 1] + e[:, 2] - e[:, 3])

    return negative_b


def _tensor_chsh(model: CorrelationModel) -> ChshEvaluation:
    """CHSH at the witness settings of the largest two |t_c|, which reach
    B = 2 sqrt(t_i^2 + t_j^2): a = sgn(t_i) e_i, a2 = sgn(t_j) e_j and
    b, b2 = cos(h) e_i +- sin(h) e_j with tan(h) = |t_j| / |t_i|."""
    t = model.tensor
    i, j = sorted(range(3), key=lambda c: -abs(t[c]))[:2]
    e = np.eye(3)
    h = math.atan2(abs(t[j]), abs(t[i]))
    return chsh_value(
        model,
        from_cartesian(math.copysign(1.0, t[i]) * e[i]),
        from_cartesian(math.copysign(1.0, t[j]) * e[j]),
        from_cartesian(math.cos(h) * e[i] + math.sin(h) * e[j]),
        from_cartesian(math.cos(h) * e[i] - math.sin(h) * e[j]),
    )


def optimize_chsh(model: CorrelationModel, config: SearchConfig | None = None) -> ChshEvaluation:
    """Maximize the CHSH combination over all four measurement directions.

    A tensor model (the singlet and pseudo-spin) reaches its maximum
    2 sqrt(t_i^2 + t_j^2) over the two largest |t_c| at closed-form
    settings, and config is not used.  On/off and parity are searched.
    """
    if model.tensor is not None:
        return _tensor_chsh(model)
    negative_b = _chsh_objective(model)
    x = _search(negative_b, _SPHERE * 4, [_start_points(_SPHERE * 4, config or SearchConfig())])[0][0]
    return chsh_value(
        model,
        Direction(float(x[0]), float(x[1])),
        Direction(float(x[2]), float(x[3])),
        Direction(float(x[4]), float(x[5])),
        Direction(float(x[6]), float(x[7])),
    )


# -- rigid-rotation optimization -------------------------------------------------------


def _signed_term_matrices(layouts, groups) -> np.ndarray:
    """M_sigma = sum_g sigma_g w_g sum_{(i, j) in g} b_j a_i^T of each layout
    for every sign pattern sigma in {+1, -1}^G: (P, 2^G, 3, 3).

    Outer products and sums are elementwise, so no point depends on the
    points that share its batch.
    """
    a = np.array([lay.a for lay in layouts])
    b = np.array([lay.b for lay in layouts])
    per_group = [w * sum(b[:, j, :, None] * a[:, i, None, :] for i, j in terms) for w, terms in groups]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(groups))))
    return sum(signs[:, g, None, None] * m[:, None] for g, m in enumerate(per_group))


def _rigid_optimum(models, layouts, shared: bool) -> tuple[np.ndarray, np.ndarray]:
    """The maximal inequality value over rigid rotations of each tensor-model
    point, and rotation matrices R_a, R_b that reach it: ((P,), ((P, 3, 3), (P, 3, 3))).
    R_a is R_b for a shared rotation.

    See :func:`optimize_rigid` for the derivation.  Raises ValueError for a
    shared rotation when a model's t_1 != t_2.
    """
    m = _signed_term_matrices(layouts, _rigid_groups(models, layouts))
    t = np.array([model.tensor for model in models])
    points = np.arange(len(models))
    if shared:
        if np.any(t[:, 0] != t[:, 1]):
            raise ValueError("the shared-rotation optimum needs a tensor with t_1 = t_2")
        d = (t[:, 2] - t[:, 0])[:, None, None, None]
        lam, vec = np.linalg.eigh(d * (0.5 * (m + m.swapaxes(-1, -2))))
        trace = m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2]
        values = t[:, :1] * trace + lam[..., -1]
        best = np.argmax(values, axis=1)
        n = vec[points, best, :, -1]  # R^T z = n: the third row of R
        r = _rotations(np.zeros(len(n)), np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2]), np.arctan2(n[:, 1], -n[:, 0]))
        return values[points, best], (r, r)
    x, st, yh = np.linalg.svd(t[:, :, None] * np.eye(3))  # T = X diag(st) Yh
    p, sm, qh = np.linalg.svd(m)  # M_sigma = P diag(sm) Qh
    det_t = (np.linalg.det(x) * np.linalg.det(yh))[:, None]
    det_m = np.linalg.det(p) * np.linalg.det(qh)
    flip = det_t * det_m < 0.0
    values = (st[:, None, :] * sm).sum(axis=-1) - 2.0 * np.where(flip, st[:, None, 2] * sm[..., 2], 0.0)
    best = np.argmax(values, axis=1)
    p, qh = p[points, best], qh[points, best]
    # R_b = Y A P^T and R_a = X B Qh, A = diag(1, 1, det Y det P), B = diag(1, 1, det Qh det X)
    fix_b = np.ones((len(points), 3))
    fix_a = np.ones((len(points), 3))
    fix_b[:, 2] = np.sign(np.linalg.det(yh) * np.linalg.det(p))
    fix_a[:, 2] = np.sign(np.linalg.det(x) * np.linalg.det(qh))
    rb = np.matmul(yh.transpose(0, 2, 1) * fix_b[:, None, :], p.transpose(0, 2, 1))
    ra = np.matmul(x * fix_a[:, None, :], qh)
    return values[points, best], (ra, rb)


def optimize_rigid(models, layouts, configs=None, shared: bool = False) -> tuple[list[SettingsLayout], np.ndarray]:
    """Maximize the inequality value over rigid rotations of the settings, at each point.

    Point g is models[g] on layouts[g].  shared=False rotates the two parties
    independently (R_a, R_b); shared=True applies one common rotation R to
    both.  Returns the settings picked for each point and L there: a list of
    P layouts and a (P,) array.  The picked value is never below the
    unrotated one.  The models share one family and the layouts one
    inequality; otherwise ValueError.  No bound is computed here: the caller
    bounds the picked settings (:func:`_evaluate`).

    Tensor models (the singlet and pseudo-spin) are solved in closed form,
    and configs is not used.  With E(a, b) = a^T T b and T = diag(t), a
    rotated term is E(R_a a_i, R_b b_j) = tr(T R_b b_j a_i^T R_a^T).  Let
    M_g = sum over the terms (i, j) of group g of b_j a_i^T.  Since
    |x| = max over s = +-1 of s x, and maxima commute,

        L* = max over sigma in {+-1}^G of max over R_a, R_b of tr(T R_b M R_a^T),

    with M = M_sigma = sum_g sigma_g w_g M_g; the 2^G patterns are evaluated
    exactly, so L* is the maximum and not a search result.

    * Shared rotation.  Every tensor model here has t_1 = t_2, so
      T = t_1 I + d z z^T with d = t_3 - t_1, and
      tr(T R M R^T) = t_1 tr M + d n^T sym(M) n with n = R^T z.  The inner
      maximum is t_1 tr M + lambda_max(d sym M), at the top eigenvector n;
      R = Rz(0) Ry(theta_n) Rz(atan2(n_y, -n_x)) has R^T z = n.
    * Independent rotations.  With the singular value decompositions
      T = X S_T Y^T and M = P S_M Q^T (singular values descending),
      max over U, V in SO(3) of tr(T U M V) is sum_i s_i(T) s_i(M), minus
      2 s_3(T) s_3(M) when det T det M < 0, the proper-rotation trace
      maximum of Kabsch and Umeyama (S. Umeyama, IEEE Trans. Pattern Anal.
      Mach. Intell. 13, 376 (1991)).  It is reached at U = R_b = Y A P^T and
      V = R_a^T = Q B X^T with A = diag(1, 1, det Y det P) and
      B = diag(1, 1, det Q det X).

    On/off and parity are searched.  Point g is searched with configs[g]
    (None entries, or a None list, take SearchConfig()) over ZYZ Euler
    angles, 3 or 6 of them.  All points are one :func:`_search`: their
    starts advance as one lockstep batch, and every point's best start is
    polished in one more batch; each point follows exactly the trajectory it
    would follow alone.  The identity rotation is always start 0.  R_a and
    R_b are the matrices of the best angles (:func:`_rotation_pair`), as in
    the search objective.

    Either way, :func:`leggett_lab.geometry.rotate_settings` applies R_a and
    R_b to the layouts' (n, 3) vector arrays of all points at once, and L at
    the rotated settings of every point is one
    :func:`leggett_lab.inequality.leggett_value` call.  A rotated layout has
    no angles, so on/off and parity read its features from the vectors, as
    the search objective does, and L is the searched optimum bit for bit.
    Where L does not beat the unrotated L (the identity is optimal, up to
    rounding), the point keeps its unrotated settings and value; the pick is
    array-wide.
    """
    if not models:
        return [], np.empty(0)
    if models[0].tensor is not None:
        ra, rb = _rigid_optimum(models, layouts, shared)[1]
    else:
        ra, rb = _rotation_pair(_searched_angles(models, layouts, configs, shared), shared)
    rotated = rotate_settings(layouts, ra, rb)
    unrotated_value = inequality.leggett_value(models, layouts)
    rotated_value = inequality.leggett_value(models, rotated)
    better = rotated_value > unrotated_value
    picked = [r if up else lay for r, lay, up in zip(rotated, layouts, better)]
    return picked, np.where(better, rotated_value, unrotated_value)


def _searched_angles(models, layouts, configs, shared: bool) -> np.ndarray:
    """The polished best Euler angles of each point's multi-start rigid search: (P, 3) or (P, 6)."""
    ranges = _EULER if shared else _EULER * 2
    configs = [c or SearchConfig() for c in configs or [None] * len(models)]
    objective = _make_rigid_objective(models, layouts, shared)
    starts = [_start_points(ranges, c) for c in configs]
    for st in starts:
        st[0] = 0.0  # start 0 is the identity rotation, not the box midpoint
    return _search(objective, ranges, starts)[0]


# -- grid points --------------------------------------------------------------------------


def _model(family: str, sign: int, alpha: float | None) -> CorrelationModel:
    """The singlet for family PES_FAMILY (alpha and sign unused), else the ECS model."""
    return pes_model() if family == PES_FAMILY else ecs_model(alpha, sign, family)


@dataclass(frozen=True)
class ScanTask:
    """The question at every grid point of a scan, or the one a threshold bisects."""

    layout_name: str
    family: str = PES_FAMILY
    sign: int = -1
    alpha: float | None = None
    phi: float | None = None
    bound_mode: str = "state_corrected"
    optimize: bool = False
    shared: bool = True
    include_chsh: bool = False
    starts: int = 32
    seed: int = 0


def _evaluate(task: ScanTask, models, layouts, seeds) -> list[LeggettEvaluation]:
    """The answer to task at each point g: models[g] on layouts[g].

    The task gives the bound mode, optimize, shared and starts.  With
    task.optimize, the rigid rotations of all points are optimized first as
    one batch (:func:`optimize_rigid`), point g searched with
    SearchConfig(task.starts, stable_seed(seeds[g], "rigid")).  Then one
    :func:`leggett_lab.inequality.evaluate_points` call bounds every point,
    with SearchConfig(task.starts, seeds[g]), at the settings its L is read
    at: the fixed ones, where L of all points is one array evaluation, or
    the ones optimize_rigid picked, with their L.  Points of a closed-form
    family get no configs, and their seeds are not read.
    """
    searched = _searched(models)
    values = None
    if task.optimize:
        configs = [SearchConfig(task.starts, stable_seed(seed, "rigid")) for seed in seeds] if searched else None
        layouts, values = optimize_rigid(models, layouts, configs, shared=task.shared)
    bound_configs = [SearchConfig(task.starts, seed) for seed in seeds] if searched else None
    return inequality.evaluate_points(models, layouts, task.bound_mode, bound_configs, values)


def _searched(models) -> bool:
    """Whether the points of models are searched, so draw seeds: on/off and
    parity are; the singlet and pseudo-spin, whose bound, CHSH maximum and
    rigid optimum are closed forms, search nothing."""
    return bool(models) and models[0].tensor is None


# -- threshold bisection ------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the amplitude-threshold search."""

    verdict: str  # "threshold" | "always" | "never"
    alpha_star: float | None
    bracket: tuple
    margin_lo: float
    margin_hi: float
    margin_at_star: float | None
    evaluations: int


DEFAULT_THRESHOLD_PHI = {"threeplus7": 0.2507, "threeplus6": 2.0 * math.atan(1.0 / 3.0)}
THRESHOLD_BRACKET = (0.5, 10.0)  # the amplitudes the coarse grid of threshold_alpha spans
THRESHOLD_SCAN_POINTS = 16  # the points of that grid
# the narrowest bracket the bisection always reaches: it stalls only where lo
# and hi are adjacent doubles, at most ulp(THRESHOLD_BRACKET[1]) apart inside
# the bracket, and then 0.5 * (lo + hi) is one of them
THRESHOLD_MIN_TOLERANCE = 2.0 * math.ulp(THRESHOLD_BRACKET[1])


def _bisect(lo: float, hi: float, tolerance: float, positive) -> tuple[list[float], tuple[float, float]]:
    """Bisect (lo, hi) until it is at most tolerance wide; a midpoint where
    positive(mid) holds becomes hi, any other lo.  Returns the midpoints in
    the order visited, ending with the alpha* midpoint of the final bracket,
    and that bracket."""
    path = []
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        path.append(mid)
        if positive(mid):
            hi = mid
        else:
            lo = mid
    path.append(0.5 * (lo + hi))
    return path, (lo, hi)


def _cubic_positive(known: dict, lo: float, hi: float):
    """Whether the margin is guessed positive at an amplitude inside (lo, hi).

    The guess is the sign of the polynomial through the two known margins at
    or below lo and the two at or above hi (a cubic; a lower degree where
    fewer are known).  It takes the margins m(lo) <= 0 < m(hi) exactly.
    """
    xs = sorted(a for a in known if a <= lo)[-2:] + sorted(a for a in known if a >= hi)[:2]

    def positive(x) -> bool:
        total = 0.0
        for xi in xs:
            term = known[xi]
            for xj in xs:
                if xj != xi:
                    term *= (x - xj) / (xi - xj)
            total += term
        return total > 0.0

    return positive


def threshold_alpha(task: ScanTask, tolerance: float = 1e-3) -> ThresholdResult:
    """Bisect the inequality margin of task over the state amplitude.

    The task states the question as :func:`scan` reads it: its layout,
    family, sign, phi (None for the layout's DEFAULT_THRESHOLD_PHI), bound
    mode, optimize, shared, starts and seed.  task.alpha and
    task.include_chsh are ignored: the amplitude is what the bisection
    varies, and no CHSH value is computed.

    The margin is scanned first on a fixed coarse grid, THRESHOLD_SCAN_POINTS
    evenly spaced amplitudes spanning THRESHOLD_BRACKET; the last
    sign change from nonpositive to positive (the amplitude beyond which the
    violation persists) seeds the bisection (:func:`_bisect`), which narrows
    the bracket to the requested width.  Each margin evaluation runs fresh
    inner optimizations with seeds derived from the amplitude, so a rerun
    with the same seed reproduces the result bit for bit.  All-positive
    margins give verdict "always", all-nonpositive "never".  Every bound and
    rigid search draws task.starts starts.

    Every evaluation of margins is one :func:`_evaluate` of the task, the
    coarse grid first.  The bisection reads the sign of each known margin;
    where a midpoint's margin is not known, it evaluates either that
    midpoint alone or, when speculation is safe, the whole path that the
    same bisection takes from the current bracket on the sign of the cubic
    through the nearest known margins (:func:`_cubic_positive`), down to
    alpha*.  The walk goes on over those margins and evaluates again where
    it leaves the path.  Every midpoint is 0.5 * (lo + hi) of the same
    interval as in a one-at-a-time bisection, and a margin depends only on
    its amplitude, never on the batch it is computed in, so alpha*, the
    bracket and every margin are bit-identical to the one-at-a-time walk.
    evaluations counts the grid and the midpoints that walk visits, alpha*
    included, not the speculative margins it discards.  Speculation is used
    only where a margin cannot raise: an optimized threshold with a tensor
    model (the singlet or pseudo-spin) or with a bound mode other than
    state_corrected.  Elsewhere a raised ConvergenceError of a speculative
    point could stop a run that bisection finishes.  A tolerance that is
    not finite or is below THRESHOLD_MIN_TOLERANCE (3.55e-15) raises
    ValueError: the bisection could not reach it.
    """
    if not (math.isfinite(tolerance) and tolerance >= THRESHOLD_MIN_TOLERANCE):
        raise ValueError(f"tolerance must be finite and at least {THRESHOLD_MIN_TOLERANCE!r}, got {tolerance!r}")
    if task.layout_name not in DEFAULT_THRESHOLD_PHI:
        raise ValueError(f"threshold supports threeplus7/threeplus6, not {task.layout_name!r}")
    phi = DEFAULT_THRESHOLD_PHI[task.layout_name] if task.phi is None else task.phi
    layout = build_layout(task.layout_name, phi)
    known = {}  # amplitude -> margin

    def evaluate(alphas) -> None:
        """Add the margin at each amplitude to known; the rigid searches of all of them run as one batch."""
        models = [_model(task.family, task.sign, alpha) for alpha in alphas]
        seeds = [None] * len(alphas)
        if _searched(models):
            seeds = [stable_seed(task.seed, task.layout_name, task.family, task.sign, round(alpha, 12))
                     for alpha in alphas]
        known.update(zip(alphas, (ev.margin for ev in _evaluate(task, models, [layout] * len(alphas), seeds))))

    grid = np.linspace(*THRESHOLD_BRACKET, THRESHOLD_SCAN_POINTS).tolist()  # floats, rounded alike by the seeds
    evaluate(grid)
    crossings = [(a, b) for a, b in zip(grid, grid[1:]) if known[a] <= 0.0 < known[b]]
    if not crossings:
        verdict = "always" if all(known[a] > 0.0 for a in grid) else "never"
        return ThresholdResult(verdict, None, THRESHOLD_BRACKET, known[grid[0]], known[grid[-1]], None, len(grid))

    lo, hi = crossings[-1]
    speculate = task.optimize and (
        task.bound_mode != "state_corrected" or _model(task.family, task.sign, lo).tensor is not None
    )

    def margin(alpha) -> float:
        if alpha not in known:
            if speculate:
                # no known margin lies inside the walk's bracket (the rest of
                # an earlier path lies in the half the walk left), so the
                # bracket's ends are alpha's nearest known amplitudes
                below = max(a for a in known if a < alpha)
                above = min(a for a in known if a > alpha)
                evaluate(_bisect(below, above, tolerance, _cubic_positive(known, below, above))[0])
            else:
                evaluate([alpha])
        return known[alpha]

    path, (lo, hi) = _bisect(lo, hi, tolerance, lambda mid: margin(mid) > 0.0)
    star = path[-1]
    return ThresholdResult("threshold", star, (lo, hi), known[lo], known[hi], margin(star), len(grid) + len(path))


# -- parameter scans --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    """One row of a parameter sweep (the CSV row format)."""

    index: int
    alpha: float | None
    phi: float
    L: float
    f_min_corrected: float | None
    f_min_analytic: float
    bound_used: float
    chsh_B: float | None
    margin: float
    violated: bool
    starts: int
    seed: int


def _record(task: ScanTask, index: int, alpha, phi, model, seed, ev: LeggettEvaluation) -> SweepRecord:
    """The row of one point; seed is None for a closed-form family, whose searches take no config.

    Under the analytic bound, f_min_corrected is filled only where it is a
    closed form (seed None) and the layout has one (STATE_CORRECTED_LAYOUTS);
    a searched family leaves it empty rather than run a search that the
    verdict does not read.
    """
    f_corr = ev.bound.f_min if ev.bound.mode == "state_corrected" else None
    if f_corr is None and seed is None and task.layout_name in inequality.STATE_CORRECTED_LAYOUTS:
        f_corr = numeric_fmin(model, ev.layout).f_min

    chsh_b = None
    if task.include_chsh:
        config = None if seed is None else SearchConfig(task.starts, stable_seed(seed, "chsh"))
        chsh_b = optimize_chsh(model, config).B

    return SweepRecord(
        index=index,
        alpha=alpha,
        phi=phi,
        L=ev.L,
        f_min_corrected=f_corr,
        f_min_analytic=inequality.analytic_fmin(task.layout_name, phi),
        bound_used=ev.bound.bound,
        chsh_B=chsh_b,
        margin=ev.margin,
        violated=ev.violated,
        starts=task.starts,
        seed=task.seed,
    )


def scan(variable: str, grid, task: ScanTask) -> list[SweepRecord]:
    """Evaluate the task at every grid point.

    Records come back in grid order; each point of a searched family draws
    its own seed from the task seed and its index.  The layouts and models
    of every point are built first (a phi scan builds its layouts as one
    array and shares one model, an alpha scan shares one layout), and the
    whole grid is then one :func:`_evaluate` of the task: with task.optimize
    one batch of rigid rotations, then the bounds point by point and L of
    all points as one array.  A point that fails stops the scan with no
    records."""
    grid = [float(g) for g in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be monotone nondecreasing")
    if variable == "phi":
        coords = [(task.alpha, g) for g in grid]
        layouts = build_layouts(task.layout_name, grid)
        models = [_model(task.family, task.sign, task.alpha)] * len(grid)
    elif variable == "alpha":
        if task.phi is None:
            raise ValueError("alpha scan needs task.phi")
        coords = [(g, task.phi) for g in grid]
        layouts = [build_layout(task.layout_name, task.phi)] * len(grid)
        models = [_model(task.family, task.sign, g) for g in grid]
    else:
        raise ValueError("variable must be 'phi' or 'alpha'")
    seeds = [None] * len(grid)
    if _searched(models):
        seeds = [stable_seed(task.seed, task.layout_name, task.family, i) for i in range(len(grid))]
    evs = _evaluate(task, models, layouts, seeds)
    return [
        _record(task, i, alpha, phi, model, seed, ev)
        for i, ((alpha, phi), model, seed, ev) in enumerate(zip(coords, models, seeds, evs))
    ]


# -- implication check ------------------------------------------------------------------


@dataclass(frozen=True)
class ImplicationReport:
    """Grid check that every Leggett violation comes with a CHSH violation."""

    counterexamples: tuple  # (alpha, phi, margin, B) of each violation with B <= 2
    leggett_violations: int
    points: int  # the points evaluated, those of unsettled amplitudes excluded
    unsettled: tuple  # (alpha, message) of each amplitude whose sweep raised ConvergenceError

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.unsettled


def implication_check(task: ScanTask, alpha_grid, phi_grid) -> ImplicationReport:
    """Check that every violated grid point has an optimized CHSH B > 2.

    Each amplitude of alpha_grid is one :func:`scan` over phi_grid
    (nondecreasing, as scan requires) with task.alpha set to it and
    include_chsh on, so a point is bounded, optimized and seeded exactly as
    a scan-phi row: the task gives the layout, family, sign, bound mode,
    optimize, shared, starts and seed.  task.alpha, task.phi and
    task.include_chsh are ignored.  A violated row with B <= 2 is a
    counterexample (alpha, phi, margin, B).  An amplitude whose sweep raises
    ConvergenceError is recorded as (alpha, message) in unsettled, and the
    check goes on to the next one; its points are not counted.

    ok means no counterexample and nothing unsettled, so the check never
    calls a grid it did not finish ok.  The bound is the one every scan
    uses, and soundness needs no looser search: for the singlet and
    pseudo-spin the bound and B are closed forms, and for on/off and parity
    every searched f is an attained objective value, so f >= f_min and the
    bound 4 - f is at most the true one, while a searched B is at most the
    true maximum.  A searched point can therefore flag extra violations and
    false counterexamples, never a false ok.  Where a search does not
    settle, its ConvergenceError marks the amplitude unsettled instead of
    going unseen.
    """
    counterexamples, unsettled = [], []
    violations = points = 0
    for alpha in alpha_grid:
        try:
            rows = scan("phi", phi_grid, replace(task, alpha=float(alpha), include_chsh=True))
        except ConvergenceError as exc:
            unsettled.append((float(alpha), str(exc)))
            continue
        points += len(rows)
        for r in rows:
            if r.violated:
                violations += 1
                if not r.chsh_B > 2.0:
                    counterexamples.append((r.alpha, r.phi, r.margin, r.chsh_B))
    return ImplicationReport(tuple(counterexamples), violations, points, tuple(unsettled))
