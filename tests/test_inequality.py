import math
from dataclasses import replace

import numpy as np
import pytest

from leggett_lab import (
    ConvergenceError,
    Direction,
    ScanTask,
    SearchConfig,
    analytic_fmin,
    build_layout,
    chsh_at_layout,
    chsh_value,
    ecs_model,
    implication_check,
    kappa_K,
    leggett_bound,
    leggett_value,
    numeric_fmin,
    pes_fmin,
    pes_model,
    pseudospin_bloch,
    rotate_settings,
)
from leggett_lab import optimize
from leggett_lab.util import stable_seed
from conftest import directions, simplex_minimize, to_cartesian
from leggett_lab.inequality import VIOLATION_TOL, evaluate_points

_SPHERE2 = ((0.0, np.pi), (-np.pi, np.pi)) * 2


def test_leggett_value_threeplus6_pes():
    assert leggett_value(pes_model(), build_layout("threeplus6", 0.0)) == pytest.approx(4.0, abs=1e-12)
    # closed form 4 cos(phi/2); frozen value computed from it directly
    val = leggett_value(pes_model(), build_layout("threeplus6", 0.65))
    assert val == pytest.approx(4.0 * math.cos(0.325), abs=1e-12)
    assert val == pytest.approx(3.790602905659263, abs=1e-12)


def test_leggett_value_threeplus7_pes():
    phi = 0.3
    val = leggett_value(pes_model(), build_layout("threeplus7", phi))
    assert val == pytest.approx(2.0 + 2.0 * math.cos(phi), abs=1e-12)


def test_leggett_value_ecs_limit_matches_pes():
    lay = build_layout("threeplus6", 0.65)
    pes = leggett_value(pes_model(), lay)
    ecs = leggett_value(ecs_model(50.0, -1), lay)
    assert abs(pes - ecs) < 1e-3


def test_leggett_value_group_exchange_invariance():
    # |sum| symmetry: swapping the two terms inside any group changes nothing
    lay = build_layout("threeplus6", 0.4)
    swapped = lay.groups[0][1][::-1]
    groups = ((lay.groups[0][0], swapped),) + lay.groups[1:]
    lay2 = replace(lay, groups=groups)
    m = ecs_model(1.0, -1)
    assert leggett_value(m, lay) == pytest.approx(leggett_value(m, lay2), abs=1e-15)


def _facade_value(model, layout):
    """The inequality value summed from scalar CorrelationModel.correlation terms."""
    a, b = directions(layout)
    return sum(
        w * abs(sum(model.correlation(a[i], b[j]) for i, j in terms))
        for w, terms in layout.groups
    )


_ARRAY_PATH_MODELS = [pes_model()] + [
    ecs_model(alpha, sign, family)
    for family in ("pseudo_spin", "on_off", "parity")
    for sign in (-1, +1)
    for alpha in (0.6, 2.0)
]


@pytest.mark.parametrize("model", _ARRAY_PATH_MODELS, ids=lambda m: m.label)
@pytest.mark.parametrize("layout_name", ["threeplus7", "threeplus6"])
def test_batched_leggett_value_matches_the_scalar_facade(model, layout_name, rng):
    fixed = [build_layout(layout_name, phi) for phi in (0.0, 0.3, 1.1, np.pi)]
    euler = rng.uniform(0, 2 * np.pi, (6, len(fixed)))
    rotated = rotate_settings(fixed, optimize._rotations(*euler[:3]), optimize._rotations(*euler[3:]))
    # rotated as arrays, as the closed-form rigid optimum rotates them
    q = np.linalg.qr(rng.normal(size=(2 * len(fixed), 3, 3)))[0]
    q *= np.sign(np.linalg.det(q))[:, None, None]
    by_matrix = [
        replace(lay, a=lay.a @ q[2 * k].T, b=lay.b @ q[2 * k + 1].T, angles=None) for k, lay in enumerate(fixed)
    ]
    layouts = fixed + rotated + by_matrix
    want = np.array([_facade_value(model, lay) for lay in layouts])
    batched = leggett_value(model, layouts)
    assert batched.shape == (len(layouts),)
    assert np.abs(batched - want).max() <= 1e-12
    assert [leggett_value(model, lay) for lay in layouts] == list(batched)
    # one model per point gives the same values as the shared model
    assert np.array_equal(leggett_value([model] * len(layouts), layouts), batched)


def test_leggett_value_of_models_stacked_on_one_layout():
    layout = build_layout("threeplus7", 0.25)
    for family in ("pseudo_spin", "parity"):
        models = [ecs_model(alpha, -1, family) for alpha in (0.4, 1.0, 3.0)]
        batched = leggett_value(models, layout)
        want = [_facade_value(m, layout) for m in models]
        assert np.abs(batched - want).max() <= 1e-12
        assert list(batched) == [leggett_value(m, layout) for m in models]
    # one model object repeated is one model; each point still gets its value
    assert leggett_value([models[0]] * 3, layout).tolist() == [leggett_value(models[0], layout)] * 3
    assert leggett_value(models[0], [layout]).tolist() == [leggett_value(models[0], layout)]
    with pytest.raises(ValueError, match="share one measurement family"):
        leggett_value([pes_model(), ecs_model(1.0, -1)], layout)
    with pytest.raises(ValueError, match="3 models for 2 layouts"):
        leggett_value(models, [layout, layout])
    with pytest.raises(ValueError, match="share their term groups"):
        leggett_value(models[0], [layout, build_layout("threeplus6", 0.25)])


def test_leggett_value_in_range(rng):
    for phi in np.linspace(0.0, np.pi, 8):
        for name in ("original", "threeplus7", "threeplus6"):
            val = leggett_value(ecs_model(1.1, -1), build_layout(name, phi))
            assert -1e-9 <= val <= 4.0 + 1e-9


def test_analytic_fmin_values():
    assert analytic_fmin("original", math.pi) == pytest.approx(4.0 / math.pi, abs=1e-15)
    assert analytic_fmin("threeplus6", 0.0) == 0.0
    assert analytic_fmin("threeplus7", 0.25) == pytest.approx(math.sin(0.125), abs=1e-15)
    with pytest.raises(ValueError):
        analytic_fmin("chsh", 0.2)


def test_numeric_fmin_malus_threeplus6():
    for phi in (0.2, 1.0):
        res = numeric_fmin(pes_model(), build_layout("threeplus6", phi))
        assert abs(res.f_min - (4.0 / 3.0) * math.sin(phi / 2)) < 1e-3
        assert res.f_min >= 0.0
        assert res.bound == pytest.approx(4.0 - res.f_min)
        assert abs(res.f_direct - res.f_triangle) < 1e-6


def _searched_direct(model, layout, config):
    """Best point and value of the multi-start search of the direct bound objective."""
    direct, _ = optimize._bound_objectives(model, layout)
    steps = [0.15 * (hi - lo) for lo, hi in _SPHERE2]
    x, v, _, _ = optimize._nelder_mead(
        direct, optimize._start_points(_SPHERE2, config), steps, optimize._TOLERANCE, optimize._MAX_ITERATIONS
    )
    best = min(range(len(v)), key=lambda s: (v[s], s))
    return x[best], v[best]


def test_numeric_fmin_phi0_argmin():
    lay = build_layout("threeplus6", 0.0)
    assert numeric_fmin(pes_model(), lay).f_min == 0.0
    x, value = _searched_direct(pes_model(), lay, SearchConfig(starts=32, seed=0))
    assert value < 1e-9
    u = to_cartesian(Direction(x[0], x[1]))
    v = to_cartesian(Direction(x[2], x[3]))
    assert np.linalg.norm(u - v) < 1e-3  # paired settings coincide: u = v


def test_numeric_fmin_threeplus7_exceeds_analytic():
    # the honest point-mass minimum is sin(phi/2)(sin+cos); the closed-form
    # |sin(phi/2)| is a relaxation, so the numeric bound is the tighter one
    for phi in (0.25, 0.65):
        res = numeric_fmin(pes_model(), build_layout("threeplus7", phi))
        s, c = math.sin(phi / 2), math.cos(phi / 2)
        assert abs(res.f_min - s * (s + c)) < 1e-3
        assert res.f_min >= analytic_fmin("threeplus7", phi) - 1e-9


def test_numeric_fmin_rejects_other_layouts():
    with pytest.raises(ValueError):
        numeric_fmin(pes_model(), build_layout("original", 0.3))


def test_numeric_fmin_pseudospin_alpha_scaling():
    # bounds at alpha = 5 and alpha = 50 nearly coincide
    lay = build_layout("threeplus7", 0.25)
    f5 = numeric_fmin(ecs_model(5.0, -1), lay).f_min
    f50 = numeric_fmin(ecs_model(50.0, -1), lay).f_min
    assert abs(f5 - f50) < 5e-3
    # and both equal |m(alpha)| times the unit-sphere value
    unit = numeric_fmin(pes_model(), lay).f_min
    assert abs(f5 - np.linalg.norm(pseudospin_bloch(5.0)) * unit) < 1e-4


def _direct_objective(model, layout):
    """sum_groups w * sum_terms |A(u; a_i) - B(v; b_j)| over x = (t_u, p_u, t_v, p_v)."""
    flat = [(w, i, j) for w, group in layout.groups for i, j in group]
    weights = np.array([w for w, _, _ in flat])
    ia = np.array([i for _, i, _ in flat])
    jb = np.array([j for _, _, j in flat])
    fa, fb = model.layout_features(layout)

    def objective(x):
        t = np.asarray(x, dtype=float)[None, :]
        abar = model.local_averages("a", (fa,), t[:, 0:1], t[:, 1:2])
        return float(weights @ np.abs(abar[0, ia] - model.local_averages("b", (fb,), t[:, 2:3], t[:, 3:4])[0, jb]))

    return objective


def test_pseudospin_fmin_closed_form_below_search():
    # (layout, phi, alpha, sign); the search is an upper estimate of f_min,
    # so the exact value may never lie above it
    points = (
        ("threeplus7", 0.02, 1.2, -1),
        ("threeplus7", 0.25, 0.8, -1),
        ("threeplus7", 1.2, 2.0, +1),
        ("threeplus7", np.pi, 0.4, +1),
        ("threeplus6", 0.02, 0.4, -1),
        ("threeplus6", 0.65, 1.2, +1),
        ("threeplus6", 2.0, 3.0, -1),
    )
    for k, (name, phi, alpha, sign) in enumerate(points):
        model = ecs_model(alpha, sign)
        lay = build_layout(name, phi)
        exact = np.linalg.norm(pseudospin_bloch(alpha)) * pes_fmin(name, phi)
        res = numeric_fmin(model, lay)
        assert res.f_min == pytest.approx(exact, abs=1e-15)
        assert res.f_direct == res.f_triangle == res.f_min
        assert res.bound == 4.0 - res.f_min
        assert res.mode == "state_corrected" and res.converged
        assert res.evaluations == 0
        found = simplex_minimize(_direct_objective(model, lay), _SPHERE2, SearchConfig(starts=16, seed=k))
        assert found.value >= exact - 1e-12


def test_pes_fmin_matches_numeric_search():
    cfg = SearchConfig(starts=32, seed=0)
    for name in ("threeplus7", "threeplus6"):
        for phi in (0.02, 0.25, 0.65, 1.2, 2.0):
            lay = build_layout(name, phi)
            exact = pes_fmin(name, phi)
            assert numeric_fmin(pes_model(), lay).f_min == exact
            f = _searched_direct(pes_model(), lay, cfg)[1]
            assert exact <= f + 1e-12
            if phi != 0.02:  # there the search overshoots threeplus6 by 5.8e-6
                assert f <= exact + 1e-6
    with pytest.raises(ValueError):
        pes_fmin("original", 0.5)


def _reflected_angle(m, t):
    """Polar angle in the xz plane of the unit u with 2(u.m)u - m = |m| w,
    where m lies in that plane and w = (sin t, 0, cos t): u bisects m and w."""
    return 0.5 * (math.atan2(m[0], m[2]) + t)


def test_fmin_attained_at_proof_witnesses():
    # witnesses as polar angles in the xz plane, u = (sin t, 0, cos t):
    # threeplus7 u = v = z; threeplus6 u = (cos h, 0, sin h), v = x
    witnesses = {"threeplus7": lambda h: (0.0, 0.0), "threeplus6": lambda h: (0.5 * np.pi - h, 0.5 * np.pi)}
    for name, witness in witnesses.items():
        for phi in (0.02, 0.65, 2.0, np.pi):
            lay = build_layout(name, phi)
            exact = pes_fmin(name, phi)
            tu, tv = witness(0.5 * phi)
            assert _direct_objective(pes_model(), lay)((tu, 0.0, tv, 0.0)) == pytest.approx(exact, abs=1e-12)
            for alpha, sign in ((0.4, -1), (1.2, +1), (3.0, -1)):
                m = pseudospin_bloch(alpha)
                mb = m * np.array([-1.0, 1.0, 1.0])  # Bloch vector of party B's |-alpha>
                x = (_reflected_angle(m, tu), 0.0, _reflected_angle(mb, tv), 0.0)
                value = _direct_objective(ecs_model(alpha, sign), lay)(x)
                assert value == pytest.approx(np.linalg.norm(m) * exact, abs=1e-12)


def test_numeric_fmin_convergence_error():
    # a full search whose top decile does not settle: parity ECS-, 3p7, alpha 5
    with pytest.raises(ConvergenceError, match="top-decile spread 2.211e-03 after 8 starts"):
        numeric_fmin(
            ecs_model(5.0, -1, "parity"),
            build_layout("threeplus7", 0.3),
            SearchConfig(8, stable_seed(6, 1, 0)),
        )


def test_numeric_fmin_monotone_in_starts():
    lay = build_layout("threeplus6", 0.8)
    cfg16 = SearchConfig(starts=16, seed=9)
    cfg32 = SearchConfig(starts=32, seed=9)
    f16 = _searched_direct(pes_model(), lay, cfg16)[1]
    f32 = _searched_direct(pes_model(), lay, cfg32)[1]
    assert f32 <= f16 + 1e-9  # doubled start set contains the original starts


def test_leggett_bound_modes():
    lay = build_layout("threeplus6", 0.5)
    analytic = leggett_bound(pes_model(), lay, mode="analytic2d")
    assert analytic.mode == "analytic2d"
    assert analytic.f_min == pytest.approx(analytic_fmin("threeplus6", 0.5))
    with pytest.raises(ValueError):
        leggett_bound(pes_model(), build_layout("original", 0.5), mode="state_corrected")
    with pytest.raises(ValueError):
        leggett_bound(pes_model(), lay, mode="nope")


def test_evaluate_points_pes_violation_window():
    ev, ev0 = evaluate_points([pes_model()] * 2, [build_layout("threeplus6", 0.65), build_layout("threeplus6", 2.8)])
    assert ev.violated and ev.margin > 0.1
    assert not ev0.violated


def test_chsh_value_and_canonical_settings():
    ev = chsh_at_layout(pes_model())
    assert ev.B == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert ev.violated
    # explicit settings: all four correlations of the singlet
    a, a2 = Direction(0.0, 0.0), Direction(np.pi / 2, 0.0)
    b, b2 = Direction(np.pi / 4, 0.0), Direction(3 * np.pi / 4, 0.0)
    ev = chsh_value(pes_model(), a, a2, b, b2)
    expected = (
        -math.cos(np.pi / 4) - math.cos(3 * np.pi / 4) - math.cos(np.pi / 4) + math.cos(np.pi / 4)
    )
    assert ev.B == pytest.approx(expected, abs=1e-12)
    assert abs(ev.B) <= 4.0


@pytest.mark.parametrize("alpha, B", [(1.0, -2.5718426309428386), (2.0, -2.6366859514445973), (5.0, -2.7996918956841528)])
def test_chsh_verdict_is_two_sided(alpha, B):
    # the inequality is |B| <= 2: ECS+ pseudo-spin at the canonical settings violates it from below
    ev = chsh_at_layout(ecs_model(alpha, +1, "pseudo_spin"))
    assert ev.B == B and ev.violated


def test_chsh_between_minus_2_and_0_is_no_violation():
    z, b = Direction(0.0, 0.0), Direction(np.pi / 3, 0.0)
    ev = chsh_value(pes_model(), z, z, b, b)  # B = -2 cos(pi/3)
    assert ev.B == pytest.approx(-1.0, abs=1e-12)
    assert not ev.violated


def test_implication_check_small_grid():
    rep = implication_check(
        ScanTask("threeplus7", "pseudo_spin", -1, starts=8, seed=5), np.linspace(3.0, 8.0, 3), np.linspace(0.15, 0.5, 3)
    )
    assert rep.ok
    assert rep.leggett_violations > 0  # the window genuinely violates
    assert rep.points == 9


def test_implication_check_parity_vacuous():
    # at alpha 1 the bound search does not settle, so the check is not ok; alpha 5 settles
    rep = implication_check(ScanTask("threeplus7", "parity", -1, starts=8, seed=6), [1.0, 5.0], [0.3, 0.8])
    assert rep.counterexamples == ()
    assert rep.leggett_violations == 0
    assert rep.unsettled == ((1.0, "top-decile spread 1.924e-06 after 8 starts"),)
    assert rep.points == 2
    assert not rep.ok


def test_implication_check_ignores_the_task_point_and_chsh():
    task = ScanTask("threeplus6", "pseudo_spin", +1, optimize=True)
    grids = [0.5, 2.0], [0.3, 0.9]
    want = implication_check(task, *grids)
    assert implication_check(replace(task, alpha=7.0, phi=1.5, include_chsh=False), *grids) == want


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "independent"])
@pytest.mark.parametrize("layout_name", ["threeplus7", "threeplus6"])
@pytest.mark.parametrize("sign", [-1, +1])
def test_optimized_implication_check_counts_the_closed_form_violations(sign, layout_name, shared):
    # the violations of the closed-form rigid optimum L* against the exact
    # bound, as in the dense grid test below, on the same points
    alphas, phis = [0.3, 1.0, 2.5, 6.0], [0.1, 0.4, 0.9, 1.6]
    models = [ecs_model(alpha, sign) for alpha in alphas]
    layouts = [build_layout(layout_name, phi) for phi in phis]
    value, _ = optimize._rigid_optimum([m for m in models for _ in layouts], layouts * len(models), shared)
    bound = np.array([numeric_fmin(m, lay).bound for m in models for lay in layouts])
    rep = implication_check(ScanTask(layout_name, "pseudo_spin", sign, optimize=True, shared=shared), alphas, phis)
    assert rep.leggett_violations == (value > bound + VIOLATION_TOL).sum() > 0
    assert rep.counterexamples == () and rep.unsettled == () and rep.ok
    assert rep.points == len(alphas) * len(phis)


def test_implication_check_counts_the_amplitudes_around_an_unsettled_one(monkeypatch):
    numeric = optimize.inequality._numeric_fmin_impl

    def failing(model, layout, config):
        if model.ecs.alpha == 5.5:
            raise ConvergenceError("no settled bound")
        return numeric(model, layout, config)

    task, phis = ScanTask("threeplus7", "pseudo_spin", -1), [0.15, 0.325, 0.5]
    settled = implication_check(task, [3.0, 8.0], phis)
    monkeypatch.setattr(optimize.inequality, "_numeric_fmin_impl", failing)
    rep = implication_check(task, [3.0, 5.5, 8.0], phis)
    assert rep.unsettled == ((5.5, "no settled bound"),)
    assert rep.points == 6 and not rep.ok
    assert rep.leggett_violations == settled.leggett_violations > 0
    assert rep.counterexamples == settled.counterexamples == ()


@pytest.mark.parametrize("layout_name", ["threeplus7", "threeplus6"])
def test_leggett_violation_implies_chsh_violation_on_a_dense_grid(layout_name):
    # the closed-form rigid optimum L* (shared and independent rotations) against the
    # exact bound |m| f_PES, and the closed-form CHSH maximum B of the same model
    alphas, phis = np.linspace(0.05, 6.0, 120), np.linspace(0.01, 3.1, 60)
    layouts = [build_layout(layout_name, phi) for phi in phis]
    violations = 0
    for sign in (-1, +1):
        models = [ecs_model(alpha, sign) for alpha in alphas]
        bound = np.array([[numeric_fmin(m, lay).bound for lay in layouts] for m in models])
        chsh_b = np.array([optimize.optimize_chsh(m).B for m in models])
        points = [(m, lay) for m in models for lay in layouts]
        for shared in (True, False):
            value, _ = optimize._rigid_optimum([m for m, _ in points], [lay for _, lay in points], shared)
            violated = value.reshape(bound.shape) > bound + VIOLATION_TOL
            assert not (violated & (chsh_b[:, None] <= 2.0)).any()
            violations += violated.sum()
    assert violations > 1000  # the grid does reach the violation window
