import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from leggett_lab import (
    Direction,
    ScanTask,
    SearchConfig,
    build_layout,
    ecs_model,
    kappa_K,
    leggett_value,
    optimize_chsh,
    optimize_rigid,
    pes_model,
    rotate_settings,
    scan,
    threshold_alpha,
)
from leggett_lab import BoundResult, ConvergenceError, chsh_value, optimize
from leggett_lab.util import stable_seed
from conftest import random_direction, rowwise, scalar_nelder_mead, simplex_minimize


def _cfg(starts=16, seed=0):
    return SearchConfig(starts=starts, seed=seed)


def test_simplex_convex_bowl():
    c = np.array([0.3, -1.2, 2.0, 0.7])
    res = simplex_minimize(lambda x: float(np.sum((x - c) ** 2)), [(-3, 3)] * 4, _cfg(starts=8))
    assert np.allclose(res.point, c, atol=1e-6)
    assert res.value < 1e-10


def test_simplex_rosenbrock():
    def rosen(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    res = simplex_minimize(rosen, [(-2, 2), (-1, 3)], _cfg(starts=8), maxiter=4000)
    assert np.allclose(res.point, [1.0, 1.0], atol=1e-4)


def test_simplex_deterministic():
    def f(x):
        return float(np.sin(3 * x[0]) * np.cos(2 * x[1]) + 0.1 * x[0] ** 2)

    box, cfg = [(-4, 4), (-4, 4)], _cfg(starts=12, seed=77)
    r1 = simplex_minimize(f, box, cfg)
    r2 = simplex_minimize(f, box, cfg)
    assert r1.value == r2.value
    assert np.array_equal(r1.point, r2.point)
    assert r1.start_index == r2.start_index


def test_simplex_flags_unconverged():
    res = simplex_minimize(lambda x: float(np.sum(x**2)), [(-1, 1)] * 3, _cfg(starts=2), maxiter=3)
    assert not res.converged  # flagged but still returned
    assert res.value >= 0.0


def test_optimize_chsh_pes():
    ev = optimize_chsh(pes_model(), _cfg(starts=16, seed=3))
    assert abs(ev.B - 2.0 * math.sqrt(2.0)) < 1e-9


def test_optimize_chsh_ecs_closed_form():
    for alpha in (0.5, 2.0):
        K = kappa_K(alpha)
        ev = optimize_chsh(ecs_model(alpha, -1), _cfg(starts=16, seed=4))
        assert abs(ev.B - 2.0 * math.sqrt(1.0 + K * K)) < 1e-4


def test_optimize_chsh_onoff_no_violation():
    ev = optimize_chsh(ecs_model(5.0, -1, "on_off"), _cfg(starts=16, seed=5))
    assert ev.B <= 2.0 + 1e-6


def _one_rotation(rotated, layout):
    """Whether rotated keeps every a_i . b_j of layout: as the settings of each
    party span space, one rotation of both parties does that and no other."""
    return np.abs(rotated.a @ rotated.b.T - layout.a @ layout.b.T).max() <= 1e-12


def test_optimize_rigid_identity_floor():
    lay = build_layout("threeplus7", 0.25)
    model = ecs_model(4.0, +1)
    unopt = leggett_value(model, lay)
    (ev,) = optimize_rigid(
        [model],
        [lay],
        [_cfg(starts=8, seed=6)],
        shared=True,
        bound_configs=[_cfg(starts=16, seed=7)],
    )
    assert ev.L >= unopt - 1e-9
    assert _one_rotation(ev.layout, lay)  # shared mode uses one rotation


def test_optimize_rigid_pes_threeplus6_no_gain():
    lay = build_layout("threeplus6", 0.65)
    unopt = leggett_value(pes_model(), lay)
    (ev,) = optimize_rigid(
        [pes_model()],
        [lay],
        [_cfg(starts=24, seed=8)],
        shared=False,
        bound_configs=[_cfg(starts=16, seed=9)],
    )
    assert ev.L - unopt <= 1e-3
    assert ev.L >= unopt - 1e-9


def test_threshold_pes_always_verdict():
    res = threshold_alpha(ScanTask("threeplus6", "qubit_projective", -1, seed=10, starts=16), tolerance=0.05)
    assert res.verdict == "always"
    assert res.alpha_star is None
    assert res.margin_lo > 0 and res.margin_hi > 0


def test_threshold_bisection_brackets():
    res = threshold_alpha(ScanTask("threeplus6", "pseudo_spin", -1, seed=11, starts=16), tolerance=0.05)
    assert res.verdict == "threshold"
    assert res.margin_lo <= 0 < res.margin_hi
    assert res.bracket[1] - res.bracket[0] <= 0.05
    assert 1.5 <= res.alpha_star <= 2.1


def test_threshold_deterministic():
    task = ScanTask("threeplus6", "pseudo_spin", -1, seed=12, starts=12)
    r1 = threshold_alpha(task, tolerance=0.2)
    r2 = threshold_alpha(task, tolerance=0.2)
    assert r1.alpha_star == r2.alpha_star
    assert r1.bracket == r2.bracket


def test_threshold_ignores_the_task_amplitude_and_chsh():
    task = ScanTask("threeplus7", "pseudo_spin", -1, seed=1)
    assert threshold_alpha(replace(task, alpha=3.0, include_chsh=True), 0.1) == threshold_alpha(task, 0.1)


@pytest.mark.parametrize("family", ["parity", "on_off"])  # verdicts "never" and "threshold"
def test_threshold_seeds_round_grid_and_midpoint_amplitudes_alike(family, monkeypatch):
    # numpy's round and Python's disagree on some amplitudes (9.1576995119645),
    # so every amplitude must reach the seed as a Python float
    amplitudes = []
    stable_seed = optimize.stable_seed

    def spy(*parts):
        if len(parts) == 5:  # (seed, layout, family, sign, amplitude)
            amplitudes.append(parts[4])
        return stable_seed(*parts)

    monkeypatch.setattr(optimize, "stable_seed", spy)
    res = threshold_alpha(ScanTask("threeplus7", family, -1, bound_mode="analytic2d"), tolerance=0.5)
    assert len(amplitudes) == res.evaluations  # the grid, then any bisection midpoints
    assert all(type(a) is float for a in amplitudes)


def test_scan_phi_records_sorted_and_deterministic():
    task = ScanTask("threeplus6", alpha=None, starts=16, seed=13)
    grid = [0.2, 0.4, 0.6, 0.8]
    recs1 = scan("phi", grid, task)
    assert [r.index for r in recs1] == [0, 1, 2, 3]
    assert all(r.f_min_analytic is not None for r in recs1)


def test_scan_alpha_needs_phi():
    with pytest.raises(ValueError):
        scan("alpha", [1.0, 2.0], ScanTask("threeplus6"))
    with pytest.raises(ValueError):
        scan("phi", [0.3, 0.1], ScanTask("threeplus6"))
    with pytest.raises(ValueError):
        scan("blah", [0.1], ScanTask("threeplus6", phi=0.5))


def test_scan_alpha_dip_tracks_kappa_dip():
    # the dip of L(alpha) for the pseudo-spin model sits at the K(alpha) dip
    task = ScanTask(
        "threeplus7", family="pseudo_spin", sign=-1, phi=0.25,
        bound_mode="analytic2d", starts=8, seed=14,
    )
    grid = list(np.arange(0.8, 3.01, 0.1))
    recs = scan("alpha", grid, task)
    dip = grid[int(np.argmin([r.L for r in recs]))]
    kgrid = np.arange(0.8, 3.01, 0.05)
    kdip = kgrid[int(np.argmin([kappa_K(a) for a in kgrid]))]
    assert abs(dip - kdip) < 0.3


# -- lockstep engine ------------------------------------------------------------------


def _rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


_KINK_W = np.array([0.5, 1.0, 0.25, 2.0])
_KINK_A = np.array([[1.0, -0.3, 0.2], [0.4, 1.1, -0.7], [-0.2, 0.5, 1.3], [0.9, 0.9, 0.1]])


def _kinked(x):
    return float(_KINK_W @ np.abs(_KINK_A @ x - np.array([0.3, -0.2, 0.8, 0.1])))


def _terraced(x):
    """A staircase bowl: most comparisons between vertices are ties."""
    return float(np.floor(4.0 * np.sum((x - 0.3) ** 2)) + np.floor(2.0 * abs(x[0])))


# every box the searches draw starts in: triangle bound, shared rotation,
# direct bound, independent rotations, CHSH settings
_SEARCH_BOXES = {
    2: optimize._SPHERE,
    3: optimize._EULER,
    4: optimize._SPHERE * 2,
    6: optimize._EULER * 2,
    8: optimize._SPHERE * 4,
}
_SOBOL_SEEDS = list(range(50)) + [stable_seed("sobol", i) for i in range(8)] + [2**32 - 1]


def _scipy_sobol(d, n, seed):
    from scipy.stats import qmc  # the oracle; the package draws without scipy

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return qmc.Sobol(d, scramble=True, seed=seed).random(n)


@pytest.mark.parametrize("d", sorted(_SEARCH_BOXES))
def test_sobol_draw_and_starts_equal_scipy_bit_for_bit(d):
    ranges = _SEARCH_BOXES[d]
    lo, hi = np.array(ranges).T
    for seed in _SOBOL_SEEDS:
        for n in (5, 8, 12, 16, 32, 33, 64):  # start counts of and between powers of two
            ref = _scipy_sobol(d, n, seed)
            assert np.array_equal(optimize._sobol(d, n, seed), ref), (n, seed)
            starts = optimize._start_points(ranges, _cfg(starts=n, seed=seed))
            assert np.array_equal(starts[0], 0.5 * (lo + hi))
            assert np.array_equal(starts[1:], lo + ref[: n - 1] * (hi - lo)), (n, seed)


@pytest.mark.parametrize("d", [0, 9])
def test_sobol_draw_rejects_dimensions_outside_one_to_eight(d):
    with pytest.raises(ValueError, match="1 to 8 dimensions"):
        optimize._sobol(d, 8, 0)


@pytest.mark.parametrize(
    "f, ranges, cfg, maxiter",
    [
        (_rosenbrock, [(-2, 2), (-1, 3)], _cfg(starts=12, seed=21), 4000),
        (_kinked, [(-2, 2)] * 3, _cfg(starts=12, seed=22), optimize._MAX_ITERATIONS),
        (_kinked, [(-2, 2)] * 3, _cfg(starts=6, seed=23), 7),
        (_terraced, [(-2, 2)] * 3, _cfg(starts=12, seed=24), optimize._MAX_ITERATIONS),
    ],
    ids=["rosenbrock", "kinked", "exhausted", "ties"],
)
def test_lockstep_engine_matches_scalar_oracle(f, ranges, cfg, maxiter):
    starts = optimize._start_points(ranges, cfg)
    steps = [0.15 * (hi - lo) for lo, hi in ranges]
    x, v, ok, nfev = optimize._nelder_mead(rowwise(f), starts, steps, optimize._TOLERANCE, maxiter)
    for s, x0 in enumerate(starts):
        rx, rv, rok, rn = scalar_nelder_mead(f, x0, steps, optimize._TOLERANCE, maxiter)
        assert np.array_equal(x[s], rx)
        assert v[s] == rv
        assert ok[s] == rok
        assert nfev[s] == rn
    if maxiter == 7:
        assert not ok.any()
    else:
        assert ok.all()


def _assert_rows_match_scalar_oracle(result, f, starts, steps, fatol, maxiter):
    x, v, ok, nfev = result
    for s, x0 in enumerate(starts):
        rx, rv, rok, rn = scalar_nelder_mead(f, x0, steps, fatol[s], maxiter[s])
        assert np.array_equal(x[s], rx)
        assert v[s] == rv
        assert ok[s] == rok
        assert nfev[s] == rn


def test_rows_with_their_own_fatol_and_maxiter_match_the_scalar_oracle():
    starts = optimize._start_points([(-2, 2)] * 3, _cfg(starts=6, seed=25))
    steps = [0.6] * 3
    fatol = np.array([1e-10, 1e-4, 1e-13, 1e-10, 1e-7, 1e-15])
    maxiter = np.array([2000, 2000, 9, 1500, 2000, 5000])
    result = optimize._nelder_mead(rowwise(_kinked), starts, steps, fatol, maxiter)
    _assert_rows_match_scalar_oracle(result, _kinked, starts, steps, fatol, maxiter)
    assert result[2].tolist() == [True, True, False, True, True, True]  # row 2 exhausts its 9 iterations


@pytest.mark.parametrize("n_starts", [8, 48])
def test_speculative_and_two_call_steps_match_the_scalar_oracle(n_starts, monkeypatch):
    # 8 live starts are within the speculation limit from the first step; 48
    # take the two-call step until enough of them converge
    cfg = _cfg(starts=n_starts, seed=26)
    starts = optimize._start_points([(-2, 2)] * 3, cfg)
    steps = [0.6] * 3
    runs = {}
    for limit in (optimize._SPECULATIVE_LIVE, 0):
        calls = []

        def counted(points, owners=None):
            calls.append(len(points))
            return rowwise(_kinked)(points)

        monkeypatch.setattr(optimize, "_SPECULATIVE_LIVE", limit)
        runs[limit] = (
            optimize._nelder_mead(counted, starts, steps, optimize._TOLERANCE, optimize._MAX_ITERATIONS),
            len(calls),
        )
    (got, speculative_calls), (want, two_call_calls) = runs.values()
    fatol, maxiter = [optimize._TOLERANCE] * n_starts, [optimize._MAX_ITERATIONS] * n_starts
    _assert_rows_match_scalar_oracle(got, _kinked, starts, steps, fatol, maxiter)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert speculative_calls < two_call_calls


def _sequential_fmin(model, layout, config):
    """numeric_fmin with its polishes as separate engine runs: the best start's,
    then the top decile's re-polish, then the triangle best's."""
    direct, triangle = optimize._bound_objectives(model, layout)

    def polished_best(objective, ranges, cfg):
        """The arrays of the starts, and the best start's polished value, converged flag and evaluations."""
        steps = [0.15 * (hi - lo) for lo, hi in ranges]
        x, v, ok, nfev = optimize._nelder_mead(
            objective, optimize._start_points(ranges, cfg), steps, optimize._TOLERANCE, optimize._MAX_ITERATIONS
        )
        best = min(range(len(v)), key=lambda s: (v[s], s))
        _, pv, pn = optimize._polish(objective, x[best])
        return x, v, float(min(pv[0], v[best])), bool(ok[best]), int(nfev.sum() + pn[0])

    x, v, best_value, converged, n = polished_best(direct, optimize._SPHERE * 2, config)
    if config.starts >= 4:
        top = sorted(range(len(v)), key=lambda s: v[s])[: max(2, -(-config.starts // 10))]
        vals = np.sort(optimize._polish(direct, x[top], fatol=1e-13, maxiter=1500)[1])
        if vals[-1] - vals[0] > 1e-6:
            raise ConvergenceError(f"top-decile spread {vals[-1] - vals[0]:.3e} after {config.starts} starts")
    tri_cfg = replace(config, starts=max(8, config.starts // 2), seed=stable_seed(config.seed, "triangle"))
    _, _, tri_value, _, tn = polished_best(triangle, optimize._SPHERE, tri_cfg)
    f_direct, f_triangle = max(0.0, best_value), max(0.0, tri_value)
    f_min = max(f_direct, f_triangle)
    return BoundResult(f_min, 4.0 - f_min, "state_corrected", f_direct, f_triangle, converged, n + tn)


_FMIN_POINTS = {
    "on_off": (ecs_model(5.0, -1, "on_off"), build_layout("threeplus7", 0.25)),
    "parity": (ecs_model(3.0, -1, "parity"), build_layout("threeplus7", 0.75)),
}


@pytest.mark.parametrize(
    "family, seed, starts",
    [(family, seed, 32) for family in ("on_off", "parity") for seed in (0, 1)] + [("on_off", 1, 3)],
)
def test_numeric_fmin_equals_the_sequential_polishes(family, seed, starts):
    model, layout = _FMIN_POINTS[family]
    config = _cfg(starts=starts, seed=seed)
    assert optimize.numeric_fmin(model, layout, config) == _sequential_fmin(model, layout, config)


def test_fig3_fault_point_raises_the_sequential_polish_message(monkeypatch):
    # every bound of the fig3 fault command, compared with the oracle as it runs
    numeric = optimize.inequality._numeric_fmin_impl
    outcomes = []

    def both(model, layout, config):
        try:
            want = _sequential_fmin(model, layout, config)
        except ConvergenceError as exc:
            want = str(exc)
        try:
            got = numeric(model, layout, config)
        except ConvergenceError as exc:
            outcomes.append((str(exc), want))
            raise
        outcomes.append((got, want))
        return got

    monkeypatch.setattr(optimize.inequality, "_numeric_fmin_impl", both)
    task = ScanTask("threeplus7", family="parity", sign=-1, alpha=5.0, optimize=True, starts=32, seed=0)
    with pytest.raises(ConvergenceError, match="top-decile spread 9.713e-04 after 32 starts"):
        scan("phi", [0.25], task)
    assert outcomes and all(got == want for got, want in outcomes)
    assert outcomes[-1][0] == "top-decile spread 9.713e-04 after 32 starts"


def _batched_objectives():
    lay7, lay6 = build_layout("threeplus7", 0.3), build_layout("threeplus6", 0.65)
    models = {
        "pes": pes_model(),
        "ps-": ecs_model(1.4, -1),
        "ps+": ecs_model(0.9, +1),
        "on-": ecs_model(3.0, -1, "on_off"),
        "par+": ecs_model(3.0, +1, "parity"),
    }
    out = {}
    for name, model in models.items():
        out[f"chsh-{name}"] = (optimize._chsh_objective(model), _SPHERE4)
        out[f"rigid-shared-{name}"] = (optimize._make_rigid_objective([model], [lay7], True), _EULER3)
        out[f"rigid-independent-{name}"] = (optimize._make_rigid_objective([model], [lay6], False), _EULER3 * 2)
        direct, triangle = optimize._bound_objectives(model, lay7)
        out[f"direct-{name}"] = (direct, _SPHERE2 * 2)
        out[f"triangle-{name}"] = (triangle, _SPHERE2)
    return out


_SPHERE2 = ((0.0, np.pi), (-np.pi, np.pi))
_SPHERE4 = _SPHERE2 * 4
_EULER3 = ((0.0, 2 * np.pi),) * 3


@pytest.mark.parametrize("name", sorted(_batched_objectives()))
def test_batched_objective_rows_do_not_depend_on_the_batch(name):
    objective, ranges = _batched_objectives()[name]
    cfg = _cfg(starts=6, seed=31)
    starts = optimize._start_points(ranges, cfg)
    steps = [0.15 * (hi - lo) for lo, hi in ranges]
    batch = optimize._nelder_mead(objective, starts, steps, optimize._TOLERANCE, 150)
    for s in range(cfg.starts):
        alone = optimize._nelder_mead(objective, starts[s : s + 1], steps, optimize._TOLERANCE, 150)
        assert np.array_equal(batch[0][s], alone[0][0])
        assert batch[1][s] == alone[1][0]
        assert batch[2][s] == alone[2][0]
        assert batch[3][s] == alone[3][0]


_FAMILY_MODELS = (
    pes_model(),
    ecs_model(1.3, -1),
    ecs_model(0.8, +1),
    ecs_model(2.0, -1, "on_off"),
    ecs_model(1.1, +1, "on_off"),
    ecs_model(3.0, -1, "parity"),
    ecs_model(0.7, +1, "parity"),
)


@pytest.mark.parametrize("model", _FAMILY_MODELS, ids=lambda m: m.label)
def test_batched_kernels_match_facade(model, rng):
    a_dirs = [random_direction(rng) for _ in range(3)]
    b_dirs = [random_direction(rng) for _ in range(4)]
    hidden = [random_direction(rng) for _ in range(5)]
    t = np.array([h.theta for h in hidden])
    p = np.array([h.phi for h in hidden])
    fa = model.batch_features(np.array([d.theta for d in a_dirs]), np.array([d.phi for d in a_dirs]))
    fb = model.batch_features(np.array([d.theta for d in b_dirs]), np.array([d.phi for d in b_dirs]))
    got_a = model.local_averages("a", (fa,), t[None], p[None])
    got_b = model.local_averages("b", (fb,), t[None], p[None])
    for k, h in enumerate(hidden):
        for i, a in enumerate(a_dirs):
            assert got_a[k, i] == pytest.approx(model.local_average_a(h, a), abs=1e-12)
        for j, b in enumerate(b_dirs):
            assert got_b[k, j] == pytest.approx(model.local_average_b(h, b), abs=1e-12)

    # E(a, b) through the batched CHSH objective
    settings = [[random_direction(rng) for _ in range(4)] for _ in range(5)]
    x = np.array([[c for d in row for c in (d.theta, d.phi)] for row in settings])
    got = -optimize._chsh_objective(model)(x)
    for k, row in enumerate(settings):
        assert got[k] == pytest.approx(chsh_value(model, *row).B, abs=1e-12)

    # the batched rigid objective is, bit for bit, L at the settings rotate_settings gives
    lay = build_layout("threeplus7", 0.4)
    euler = rng.uniform(0.0, 2 * np.pi, (5, 6))
    got = -optimize._make_rigid_objective([model], [lay], shared=False)(euler)
    ra, rb = optimize._rotations(*euler.T[:3]), optimize._rotations(*euler.T[3:])
    for k in range(len(euler)):
        (rotated,) = rotate_settings([lay], ra[k : k + 1], rb[k : k + 1])
        assert got[k] == leggett_value(model, rotated)


# -- grid batches ------------------------------------------------------------------


def _grid_problems():
    """(models, layouts, shared, starts per problem) of the batched rigid searches."""
    lay7 = build_layout("threeplus7", 0.2507)
    return {
        "pseudo-spin-alphas-shared": (
            [ecs_model(a, -1) for a in (0.8, 1.6, 2.4)], [lay7] * 3, True, (8, 8, 8)
        ),
        "phi-scan-independent": (
            [ecs_model(1.2, +1)] * 3,
            [
                build_layout("threeplus6", 0.2),
                # a rotated layout: its a-settings differ from the canonical (x, y, z)
                rotate_settings(
                    [build_layout("threeplus6", 0.5)], optimize._rotations(*np.reshape([0.3, 0.7, -0.4], (3, 1)))
                )[0],
                build_layout("threeplus6", 0.9),
            ],
            False,
            (6, 9, 6),
        ),
        "parity-shared": (
            [ecs_model(3.0, -1, "parity"), ecs_model(5.0, -1, "parity")],
            [build_layout("threeplus7", phi) for phi in (0.25, 0.75)],
            True,
            (6, 6),
        ),
        "singlet-independent": ([pes_model()] * 2, [lay7, build_layout("threeplus7", 0.6)], False, (5, 7)),
    }


def _rigid_configs(starts):
    return [_cfg(starts=s, seed=40 + g) for g, s in enumerate(starts)]


@pytest.mark.parametrize("name", sorted(_grid_problems()))
def test_grid_batch_gives_each_problem_its_solo_search(name):
    models, layouts, shared, n_starts = _grid_problems()[name]
    configs = _rigid_configs(n_starts)
    ranges = _EULER3 * (1 if shared else 2)
    starts = [optimize._start_points(ranges, c) for c in configs]
    objective = optimize._make_rigid_objective(models, layouts, shared)
    steps = [0.15 * (hi - lo) for lo, hi in ranges]
    owners = np.repeat(np.arange(len(starts)), n_starts)
    batched = optimize._nelder_mead(
        objective, np.concatenate(starts), steps, optimize._TOLERANCE, optimize._MAX_ITERATIONS, owners
    )
    point, value, evaluations = optimize._search(objective, ranges, starts)
    for g, (model, layout) in enumerate(zip(models, layouts)):
        solo_objective = optimize._make_rigid_objective([model], [layout], shared)
        solo = optimize._nelder_mead(solo_objective, starts[g], steps, optimize._TOLERANCE, optimize._MAX_ITERATIONS)
        rows = owners == g
        assert rows.sum() == len(solo[1]) == n_starts[g]
        for got, want in zip(batched, solo):  # points, values, converged flags, evaluations
            assert np.array_equal(got[rows], want)
        want_point, want_value, want_n = optimize._search(solo_objective, ranges, [starts[g]])
        assert np.array_equal(point[g], want_point[0])
        assert value[g] == want_value[0] and evaluations[g] == want_n[0]


def test_search_takes_the_first_of_tied_starts():
    # a constant objective ties every start; problem 1 holds problem 0's rows
    # in reverse order, so each problem must return its own start 0
    ranges = [(-2.0, 2.0)] * 3
    rows = optimize._start_points(ranges, _cfg(starts=5, seed=27))
    point, value, evaluations = optimize._search(
        lambda x, owners=None: np.zeros(len(x)), ranges, [rows, rows[::-1]]
    )
    assert np.array_equal(point[0], rows[0]) and np.array_equal(point[1], rows[-1])
    assert value.tolist() == [0.0, 0.0]
    # every start and the polish stop on their initial simplex of 4 points
    assert evaluations.tolist() == [(5 + 1) * 4] * 2


@pytest.mark.parametrize("name", sorted(_grid_problems()))
def test_optimize_rigid_batch_equals_each_point_alone(name):
    models, layouts, shared, n_starts = _grid_problems()[name]
    configs = _rigid_configs(n_starts)
    batch = optimize_rigid(models, layouts, configs, shared=shared, bound_mode="analytic2d")
    for ev, model, layout, config in zip(batch, models, layouts, configs):
        (alone,) = optimize_rigid([model], [layout], [config], shared=shared, bound_mode="analytic2d")
        assert ev == alone


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "independent"])
@pytest.mark.parametrize("family", ["on_off", "parity"])
def test_coefficient_rigid_optimum_reports_the_searched_value(family, shared):
    # L of each returned evaluation is the searched optimum -f(x*), bit for bit:
    # the settings are rotated and evaluated as the search objective does
    models = [ecs_model(alpha, -1, family) for alpha in (1.0, 3.0) for _ in range(4)]
    layouts = [build_layout("threeplus7", phi) for _ in range(2) for phi in (0.1, 0.25, 0.75, 1.5)]
    configs = [_cfg(starts=8, seed=50 + g) for g in range(len(models))]
    evs = optimize_rigid(models, layouts, configs, shared=shared, bound_mode="analytic2d")
    x = optimize._searched_angles(models, layouts, configs, shared)
    for g, (model, layout, ev) in enumerate(zip(models, layouts, evs)):
        assert ev.L == -optimize._make_rigid_objective([model], [layout], shared)(x[g : g + 1])[0]


def test_rigid_batch_of_no_points_and_of_mixed_problems():
    assert optimize_rigid([], [], shared=True) == []
    lay, lay6 = build_layout("threeplus7", 0.3), build_layout("threeplus6", 0.3)
    parity = ecs_model(3.0, -1, "parity")
    with pytest.raises(ValueError):
        optimize._make_rigid_objective([pes_model(), ecs_model(1.0, -1)], [lay, lay], True)
    with pytest.raises(ValueError):
        optimize._make_rigid_objective([pes_model()] * 2, [lay, lay6], True)
    # the closed form (tensor models first) and the search (parity first) reject alike
    for shared in (True, False):
        for models in ([pes_model(), ecs_model(1.0, -1)], [parity, ecs_model(3.0, -1)]):
            with pytest.raises(ValueError, match="one measurement family"):
                optimize_rigid(models, [lay, lay], shared=shared, bound_mode="analytic2d")
        for model in (ecs_model(1.0, -1), parity):
            with pytest.raises(ValueError, match="one layout name"):
                optimize_rigid([model] * 2, [lay, lay6], shared=shared, bound_mode="analytic2d")


# -- closed-form rigid optimum of the tensor models --------------------------------------


def _rigid_oracle(model, layout, shared, seed):
    """The Nelder-Mead rigid maximum, evaluated with rotation matrices: the
    default starts (identity first) and a polish of the best."""
    ranges = _EULER3 * (1 if shared else 2)
    objective = optimize._make_rigid_objective([model], [layout], shared)
    cfg = _cfg(starts=32 if shared else 64, seed=seed)
    starts = optimize._start_points(ranges, cfg)
    starts[0] = 0.0
    return -optimize._search(objective, ranges, [starts])[1][0]


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "independent"])
@pytest.mark.parametrize("layout_name", ["threeplus7", "threeplus6"])
@pytest.mark.parametrize("alpha", [0.4, 1.0, 2.4, 5.0])
@pytest.mark.parametrize("sign", [-1, +1])
def test_rigid_closed_form_is_the_maximum(sign, alpha, layout_name, shared):
    model = ecs_model(alpha, sign)
    layout = build_layout(layout_name, optimize.DEFAULT_THRESHOLD_PHI[layout_name])
    (value,), _ = optimize._rigid_optimum([model], [layout], shared)
    assert value >= _rigid_oracle(model, layout, shared, seed=60) - 1e-12
    unrotated = leggett_value(model, layout)
    assert value >= unrotated - 1e-15
    (ev,) = optimize_rigid([model], [layout], shared=shared)
    assert abs(ev.L - value) <= 1e-12  # the returned rotation reaches it
    assert ev.L >= unrotated
    if shared:
        assert _one_rotation(ev.layout, layout)


def test_rigid_closed_form_shared_rotation_needs_equal_transverse_entries():
    model = SimpleNamespace(family="pseudo_spin", tensor=(-0.5, -0.4, -1.0))
    with pytest.raises(ValueError, match="t_1 = t_2"):
        optimize._rigid_optimum([model], [build_layout("threeplus7", 0.3)], shared=True)
    optimize._rigid_optimum([model], [build_layout("threeplus7", 0.3)], shared=False)  # independent: any T


# -- closed-form CHSH of the tensor models ---------------------------------------------


def _chsh_oracle(model, seed):
    """The Nelder-Mead CHSH maximum: 32 starts and a polish of the best."""
    negative_b = optimize._chsh_objective(model)
    starts = optimize._start_points(_SPHERE4, _cfg(starts=32, seed=seed))
    return -optimize._search(negative_b, _SPHERE4, [starts])[1][0]


_TENSOR_MODELS = [pes_model()] + [ecs_model(a, s) for a in (0.4, 1.0, 2.4, 5.0) for s in (-1, +1)]


@pytest.mark.parametrize("model", _TENSOR_MODELS, ids=lambda m: m.label)
def test_tensor_chsh_closed_form(model):
    t = sorted((abs(c) for c in model.tensor), reverse=True)
    ev = optimize_chsh(model)
    assert abs(ev.B - 2.0 * math.sqrt(t[0] ** 2 + t[1] ** 2)) <= 1e-15
    assert chsh_value(model, *ev.settings).B == ev.B  # the settings reach it
    assert ev.violated == (ev.B > 2.0)
    assert ev.B >= _chsh_oracle(model, seed=50) - 1e-12
    if model.ecs is None:
        assert abs(ev.B - 2.0 * math.sqrt(2.0)) <= 1e-15


# -- amplitude threshold -----------------------------------------------------------------

# ThresholdResult of the optimized pseudo-spin threshold at seed 0, field for field:
# alpha*, the bracket and the evaluations as the one-midpoint-at-a-time bisection
# gave them, the margins at the closed-form rigid optimum
_THRESHOLD_PINS = {
    ("threeplus7", +1): (
        2.656982421875, (2.6566731770833334, 2.6572916666666666),
        -3.4923888573512585e-05, 3.6882847362917914e-06, -1.5614210047587562e-05,
    ),
    ("threeplus7", -1): (
        2.656982421875, (2.6566731770833334, 2.6572916666666666),
        -3.492388649561917e-05, 3.6882867870957625e-06, -1.5614207983016826e-05,
    ),
    ("threeplus6", +1): (
        1.820166015625, (1.819856770833333, 1.8204752604166665),
        -8.460317113634375e-05, 1.7801872041811606e-05, -3.34059286664079e-05,
    ),
    ("threeplus6", -1): (
        1.820166015625, (1.819856770833333, 1.8204752604166665),
        -7.637835772644763e-05, 2.5953274560119866e-05, -2.521789985676648e-05,
    ),
}


@pytest.mark.parametrize("layout_name, sign", sorted(_THRESHOLD_PINS))
def test_optimized_threshold_result_is_pinned(layout_name, sign):
    star, bracket, m_lo, m_hi, m_star = _THRESHOLD_PINS[layout_name, sign]
    res = threshold_alpha(ScanTask(layout_name, "pseudo_spin", sign, optimize=True, seed=0))
    assert res == optimize.ThresholdResult("threshold", star, bracket, m_lo, m_hi, m_star, 27)


def _sequential_threshold(margin, bracket=(0.5, 10.0), scan_points=16, tolerance=1e-3):
    """Reference: the amplitude scan, then one bisection midpoint at a time.

    Returns the ThresholdResult and the amplitudes it evaluates after the scan."""
    grid = np.linspace(bracket[0], bracket[1], scan_points)
    m = [margin(a) for a in grid]
    for i in range(scan_points - 1):
        if m[i] <= 0.0 < m[i + 1]:
            lo, hi, m_lo, m_hi = float(grid[i]), float(grid[i + 1]), m[i], m[i + 1]
    visited = []
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        visited.append(mid)
        if margin(mid) > 0.0:
            hi, m_hi = mid, margin(mid)
        else:
            lo, m_lo = mid, margin(mid)
    star = 0.5 * (lo + hi)
    visited.append(star)
    res = optimize.ThresholdResult("threshold", star, (lo, hi), m_lo, m_hi, margin(star), scan_points + len(visited))
    return res, visited


def _stub_rigid(margin, calls):
    """optimize_rigid with the margin a known function of alpha; records each call's amplitudes."""

    def stub(models, *args, **kwargs):
        calls.append([m.ecs.alpha for m in models])
        return [SimpleNamespace(margin=margin(m.ecs.alpha)) for m in models]

    return stub


_GRID = np.linspace(0.5, 10.0, 16)  # the default amplitude scan
_ROOT_NEAR_GRID = float(_GRID[3]) + 1e-7
# the first bisection midpoint, where the margin is then exactly 0 (not violated)
_ROOT_AT_MID = 0.5 * (float(_GRID[3]) + float(_GRID[4]))

_STUB_MARGINS = {
    "root-near-grid-point": lambda a: math.tanh(2.0 * (a - _ROOT_NEAR_GRID)),
    "root-at-midpoint": lambda a: (a - _ROOT_AT_MID) + 0.1 * (a - _ROOT_AT_MID) ** 3,
    "non-monotone-bump": lambda a: (a - 2.7) - 0.05 * math.exp(-(((a - 2.75) / 0.02) ** 2)) + 0.004 * math.sin(300.0 * a),
}

_PREDICTORS = {
    "cubic": None,
    "always-lo": lambda known, lo, hi: lo,
    "always-hi": lambda known, lo, hi: hi,
}


@pytest.mark.parametrize("predictor", sorted(_PREDICTORS))
@pytest.mark.parametrize("name", sorted(_STUB_MARGINS))
def test_speculative_walk_equals_sequential_bisection(name, predictor, monkeypatch):
    margin = _STUB_MARGINS[name]
    calls = []
    monkeypatch.setattr(optimize, "optimize_rigid", _stub_rigid(margin, calls))
    if _PREDICTORS[predictor] is not None:
        monkeypatch.setattr(optimize, "_predict_root", _PREDICTORS[predictor])
    res = threshold_alpha(ScanTask("threeplus7", "pseudo_spin", -1, optimize=True, seed=0))
    want, visited = _sequential_threshold(margin)
    assert res == want
    assert len(calls[0]) == 16  # the amplitude scan
    assert 1 <= len(calls) - 1 <= len(visited)  # never more calls than one per midpoint
    for batch in calls[1:]:
        assert set(batch) & set(visited)  # each call holds a midpoint that the walk consumes
    if predictor == "cubic" and name == "root-near-grid-point":
        assert len(calls) == 2  # the prediction held: one batch after the scan


@pytest.mark.parametrize(
    "family, bound_mode, speculates",
    [("parity", "state_corrected", False), ("on_off", "state_corrected", False), ("parity", "analytic2d", True)],
)
def test_coefficient_threshold_speculates_only_without_a_searched_bound(family, bound_mode, speculates, monkeypatch):
    # a searched bound can raise ConvergenceError, so a speculative point could stop the run
    margin = _STUB_MARGINS["root-at-midpoint"]
    calls = []
    monkeypatch.setattr(optimize, "optimize_rigid", _stub_rigid(margin, calls))
    res = threshold_alpha(ScanTask("threeplus7", family, -1, bound_mode=bound_mode, optimize=True, seed=0))
    want, visited = _sequential_threshold(margin)
    assert res == want
    if speculates:
        assert len(calls) < 1 + len(visited)
    else:
        assert calls[1:] == [[a] for a in visited]


def test_unoptimized_threshold_evaluates_each_margin_once(monkeypatch):
    calls = []
    evaluate = optimize.inequality.evaluate_points

    def counted(models, *args, **kwargs):
        calls.extend(m.ecs.alpha for m in models)
        return evaluate(models, *args, **kwargs)

    monkeypatch.setattr(optimize.inequality, "evaluate_points", counted)
    res = threshold_alpha(ScanTask("threeplus7", "pseudo_spin", -1, seed=1))
    assert res.verdict == "threshold"
    assert len(calls) == res.evaluations == 27


def test_optimized_threshold_makes_few_rigid_batches(monkeypatch):
    calls = []
    rigid = optimize.optimize_rigid

    def counted(models, *args, **kwargs):
        calls.append(len(models))
        return rigid(models, *args, **kwargs)

    monkeypatch.setattr(optimize, "optimize_rigid", counted)
    res = threshold_alpha(ScanTask("threeplus7", "pseudo_spin", -1, optimize=True, seed=1))
    assert res.evaluations == 27
    assert len(calls) <= 3  # the scan and at most two predicted bisection paths
