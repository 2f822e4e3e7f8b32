import math

import numpy as np
import pytest

from leggett_lab import (
    CorrelationModel,
    Direction,
    EcsSpec,
    ecs_model,
    kappa_K,
    operator_elements,
    pes_model,
    pseudospin_bloch,
)
from leggett_lab import correlations
import fock
from conftest import coefficient_tensor, gram_matrix, random_direction, rotation_map, to_cartesian

PES = pes_model()


def _coeff_correlation(spec, family, a, b):
    """Two-ket oracle for E(a, b) of on/off and parity: the ECS coefficient
    matrix rotated by rotation_map on both sides, contracted with the
    operator elements and normalized by the Gram matrix, in complex
    arithmetic."""
    m = operator_elements(family, spec.alpha)
    g = gram_matrix(spec.alpha)
    d = rotation_map(a.theta, a.phi) @ coefficient_tensor(spec) @ rotation_map(b.theta, b.phi).T
    num = np.einsum("xy,xu,yv,uv->", d.conj(), m, m, d)
    den = np.einsum("xy,xu,yv,uv->", d.conj(), g, g, d).real
    return float(num.real / den)


def _coeff_local_avg(spec, family, u, a, party):
    """Two-ket oracle for the local average of on/off and parity: party A
    rotates |alpha> = e_0, party B rotates |-alpha> = e_1."""
    m = operator_elements(family, spec.alpha)
    start = np.array([1.0, 0.0] if party == "a" else [0.0, 1.0], dtype=complex)
    c = rotation_map(a.theta, a.phi) @ (rotation_map(u.theta, u.phi) @ start)
    return float((c.conj() @ m @ c).real / (c.conj() @ gram_matrix(spec.alpha) @ c).real)


def _local_avg(model, u, a, party):
    return model.local_average_a(u, a) if party == "a" else model.local_average_b(u, a)


def _fock_mapped_ecs(alpha, sign, a, b, dim):
    """Two-mode state built by applying the coefficient rotation maps to the
    explicit coherent kets (the oracle for the coefficient-algebra route)."""
    kets = [fock.coherent(alpha, dim).amplitudes, fock.coherent(-alpha, dim).amplitudes]
    spec = EcsSpec(alpha, sign)
    d = rotation_map(a.theta, a.phi) @ coefficient_tensor(spec) @ rotation_map(b.theta, b.phi).T
    return sum(
        d[x, y] * np.outer(kets[x], kets[y]) for x in range(2) for y in range(2)
    )


def test_pes_correlation_examples():
    a = Direction(0.7, 0.3)
    assert PES.correlation(a, a) == pytest.approx(-1.0, abs=1e-15)
    assert PES.correlation(Direction(0.0, 0.0), Direction(np.pi / 2, 1.0)) == pytest.approx(0.0, abs=1e-15)
    assert PES.correlation(Direction(np.pi / 2, 0.0), Direction(np.pi / 2, 0.65)) == pytest.approx(
        -math.cos(0.65), abs=1e-15
    )


def test_malus_local_avg_examples():
    a = Direction(1.2, -0.4)
    assert PES.local_average_a(a, a) == pytest.approx(1.0, abs=1e-15)
    anti = Direction(np.pi - 1.2, -0.4 + np.pi)
    assert PES.local_average_a(anti, a) == pytest.approx(-1.0, abs=1e-14)
    assert PES.local_average_a(Direction(0.0, 0.0), Direction(np.pi / 2, 0.2)) == pytest.approx(0.0, abs=1e-15)


def test_pseudospin_correlation_poles_and_equator():
    model = ecs_model(1.3, -1)
    poles = Direction(0.0, 0.0)
    assert model.correlation(poles, poles) == pytest.approx(-1.0, abs=1e-14)
    eq = Direction(np.pi / 2, 0.4)
    assert model.correlation(eq, eq) == pytest.approx(-kappa_K(1.3), abs=1e-14)


def test_pseudospin_correlation_symmetry(rng):
    model = ecs_model(0.9, -1)
    for _ in range(30):
        a, b = random_direction(rng), random_direction(rng)
        assert model.correlation(a, b) == pytest.approx(model.correlation(b, a), abs=1e-14)


def test_pseudospin_correlation_oracle_minus(rng):
    alpha, dim = 1.0, fock.default_dim(1.0)
    psi = fock.ecs_fock(alpha, -1, dim)
    model = ecs_model(alpha, -1)
    for _ in range(20):
        a, b = random_direction(rng), random_direction(rng)
        oracle = fock.two_mode_expectation(
            psi, fock.spin_projection(a, dim), fock.spin_projection(b, dim)
        )
        assert abs(oracle.real - model.correlation(a, b)) < 1e-8


def test_pseudospin_correlation_oracle_plus_reflected(rng):
    # the sign + convention equals the raw expectation with party B's
    # settings relabelled by the reflection (bx, by, bz) -> (-bx, by, bz),
    # i.e. (theta, phi) -> (theta, pi - phi)
    alpha, dim = 1.0, fock.default_dim(1.0)
    psi = fock.ecs_fock(alpha, +1, dim)
    model = ecs_model(alpha, +1)
    for _ in range(20):
        a, b = random_direction(rng), random_direction(rng)
        reflected = Direction(b.theta, math.pi - b.phi)
        oracle = fock.two_mode_expectation(
            psi, fock.spin_projection(a, dim), fock.spin_projection(reflected, dim)
        )
        assert abs(oracle.real - model.correlation(a, b)) < 1e-8


def test_pseudospin_limit_to_pes(rng):
    # 1 - K(5) = 1.016e-2 and 1 - K(50) = 1.00015e-4 sit a hair above the
    # 1/(4 alpha^2) asymptote, so the gates carry a 1.05 factor
    for alpha, tol in ((5.0, 1.05e-2), (50.0, 1.05e-4)):
        model = ecs_model(alpha, -1)
        worst = 0.0
        for _ in range(100):
            a, b = random_direction(rng), random_direction(rng)
            worst = max(worst, abs(model.correlation(a, b) - PES.correlation(a, b)))
        assert worst < tol


def test_pseudospin_local_avg_reflection_cases(rng):
    model = ecs_model(1.4, -1)
    m = pseudospin_bloch(1.4)
    a = Direction(0.8, 0.5)
    # u = a: reflection fixes a
    assert model.local_average_a(a, a) == pytest.approx(
        float(np.dot(to_cartesian(a), m)), abs=1e-14
    )
    # u perpendicular to a: reflection negates a
    u = Direction(0.8 + np.pi / 2, 0.5)
    assert model.local_average_a(u, a) == pytest.approx(
        -float(np.dot(to_cartesian(a), m)), abs=1e-12
    )


def test_pseudospin_local_avg_oracle(rng):
    alpha, dim = 1.0, fock.default_dim(1.0)
    ca = fock.coherent(alpha, dim)
    cm = fock.coherent(-alpha, dim)
    model = ecs_model(alpha, -1)
    for _ in range(20):
        u, a = random_direction(rng), random_direction(rng)
        su = fock.spin_projection(u, dim).matrix
        sa = fock.spin_projection(a, dim).matrix
        op = fock.FockOperator(su.conj().T @ sa @ su)
        assert abs(
            fock.expectation(ca, op).real - model.local_average_a(u, a)
        ) < 1e-8
        assert abs(
            fock.expectation(cm, op).real - model.local_average_b(u, a)
        ) < 1e-8


def test_onoff_correlation_large_alpha_saturation(rng):
    model = ecs_model(5.0, -1, "on_off")
    for _ in range(10):
        a, b = random_direction(rng), random_direction(rng)
        assert abs(model.correlation(a, b) - 1.0) < 1e-6


def test_onoff_correlation_oracle(rng):
    alpha, dim = 1.0, fock.default_dim(1.0)
    model = ecs_model(alpha, -1, "on_off")
    op = fock.on_off_op(dim)
    for _ in range(20):
        a, b = random_direction(rng), random_direction(rng)
        psi = _fock_mapped_ecs(alpha, -1, a, b, dim)
        oracle = fock.two_mode_expectation(psi, op, op)
        assert abs(oracle.real - model.correlation(a, b)) < 1e-8


def test_onoff_correlation_bounded(rng):
    model = ecs_model(0.8, -1, "on_off")
    for _ in range(1000):
        a, b = random_direction(rng), random_direction(rng)
        assert abs(model.correlation(a, b)) <= 1.0 + 1e-10


def test_parity_correlation_oracle(rng):
    alpha, dim = 1.0, fock.default_dim(1.0)
    model = ecs_model(alpha, -1, "parity")
    op = fock.parity_op(dim)
    for _ in range(10):
        a, b = random_direction(rng), random_direction(rng)
        psi = _fock_mapped_ecs(alpha, -1, a, b, dim)
        oracle = fock.two_mode_expectation(psi, op, op)
        assert abs(oracle.real - model.correlation(a, b)) < 1e-8


def test_onoff_local_avg_cases(rng):
    model5 = ecs_model(5.0, -1, "on_off")
    for _ in range(10):
        u, a = random_direction(rng), random_direction(rng)
        val = model5.local_average_a(u, a)
        assert min(abs(val - 1.0), abs(val + 1.0)) < 1e-6
    # the rotation fixed point (theta_u, phi_u) = (pi, 0) leaves |alpha> alone
    model = ecs_model(1.0, -1, "on_off")
    fixed = Direction(np.pi, 0.0)
    for _ in range(5):
        a = random_direction(rng)
        direct = model.local_average_a(fixed, a)
        # <alpha| Pi(a) |alpha> with the same Gram normalization
        c = rotation_map(a.theta, a.phi) @ np.array([1.0, 0.0])
        num = (c.conj() @ operator_elements("on_off", 1.0) @ c).real
        den = (c.conj() @ gram_matrix(1.0) @ c).real
        assert direct == pytest.approx(num / den, abs=1e-12)


def test_onoff_local_avg_oracle(rng):
    # on/off and, as one more input, parity
    alpha, dim = 1.0, fock.default_dim(1.0)
    kets = [fock.coherent(alpha, dim).amplitudes, fock.coherent(-alpha, dim).amplitudes]
    for family, op in (("on_off", fock.on_off_op(dim).matrix), ("parity", fock.parity_op(dim).matrix)):
        model = ecs_model(alpha, -1, family)
        for _ in range(20):
            u, a = random_direction(rng), random_direction(rng)
            for party, start in (("a", [1.0, 0.0]), ("b", [0.0, 1.0])):
                c = rotation_map(a.theta, a.phi) @ (rotation_map(u.theta, u.phi) @ np.array(start, complex))
                psi = c[0] * kets[0] + c[1] * kets[1]
                oracle = (np.vdot(psi, op @ psi) / np.vdot(psi, psi)).real
                assert abs(oracle - _local_avg(model, u, a, party)) < 1e-8


def test_onoff_factorizes_at_large_alpha(rng):
    # product of single-party averages matches the correlation at alpha >= 5
    alpha = 5.0
    spec = EcsSpec(alpha, -1)
    model = ecs_model(alpha, -1, "on_off")
    g = gram_matrix(alpha)
    m = operator_elements("on_off", alpha)
    c0 = coefficient_tensor(spec)
    for _ in range(10):
        a, b = random_direction(rng), random_direction(rng)
        d = rotation_map(a.theta, a.phi) @ c0 @ rotation_map(b.theta, b.phi).T
        corr = model.correlation(a, b)
        den = np.einsum("xy,xu,yv,uv->", d.conj(), g, g, d).real
        avg_a = np.einsum("xy,xu,yv,uv->", d.conj(), m, g, d).real / den
        avg_b = np.einsum("xy,xu,yv,uv->", d.conj(), g, m, d).real / den
        assert abs(corr - avg_a * avg_b) < 1e-6


def test_model_facade_dispatch(rng):
    pes = pes_model()
    a, b = random_direction(rng), random_direction(rng)
    ab = float(np.dot(to_cartesian(a), to_cartesian(b)))
    assert pes.correlation(a, b) == pytest.approx(-ab, abs=1e-15)
    assert pes.local_average_a(a, b) == pytest.approx(ab, abs=1e-15)
    spec_model = ecs_model(1.2, -1, "pseudo_spin")
    transverse = math.sin(a.theta) * math.sin(b.theta) * math.cos(a.phi - b.phi)
    closed = -math.cos(a.theta) * math.cos(b.theta) - kappa_K(1.2) * transverse
    assert spec_model.correlation(a, b) == pytest.approx(closed, abs=1e-15)
    onoff = ecs_model(1.2, -1, "on_off")
    assert onoff.correlation(a, b) == pytest.approx(_coeff_correlation(EcsSpec(1.2, -1), "on_off", a, b), abs=1e-12)
    with pytest.raises(ValueError):
        ecs_model(1.0, -1, "bogus")
    with pytest.raises(ValueError):
        CorrelationModel("pseudo_spin", None)


def test_correlations_in_range_and_continuous(rng):
    models = [
        pes_model(),
        ecs_model(1.0, -1, "pseudo_spin"),
        ecs_model(1.0, +1, "pseudo_spin"),
        ecs_model(1.0, -1, "on_off"),
        ecs_model(1.0, -1, "parity"),
    ]
    for model in models:
        for _ in range(40):
            a, b = random_direction(rng), random_direction(rng)
            e = model.correlation(a, b)
            assert -1.0 - 1e-10 <= e <= 1.0 + 1e-10
            la = model.local_average_a(a, b)
            lb = model.local_average_b(a, b)
            assert -1.0 - 1e-10 <= la <= 1.0 + 1e-10
            assert -1.0 - 1e-10 <= lb <= 1.0 + 1e-10
        # finite-difference slope stays bounded along a random angular line
        a, b = random_direction(rng), random_direction(rng)
        h = 1e-4
        e0 = model.correlation(a, b)
        e1 = model.correlation(Direction(min(a.theta + h, np.pi), a.phi), b)
        assert abs(e1 - e0) / h < 10.0


@pytest.mark.parametrize("family", ["on_off", "parity"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_coefficient_models_match_two_ket_oracle(family, sign, rng):
    # the closed forms on reflection features against the complex two-ket
    # computation they replace
    for alpha in (0.3, 1.0, 3.0, 5.0):
        spec = EcsSpec(alpha, sign)
        model = CorrelationModel(family, spec)
        for _ in range(25):
            a, b, u = random_direction(rng), random_direction(rng), random_direction(rng)
            assert model.correlation(a, b) == pytest.approx(_coeff_correlation(spec, family, a, b), abs=1e-12)
            for party in ("a", "b"):
                assert _local_avg(model, u, a, party) == pytest.approx(
                    _coeff_local_avg(spec, family, u, a, party), abs=1e-12
                )


_MODELS = (
    pes_model(),
    ecs_model(1.3, -1),
    ecs_model(0.8, +1),
    ecs_model(2.0, -1, "on_off"),
    ecs_model(1.1, +1, "on_off"),
    ecs_model(3.0, -1, "parity"),
    ecs_model(0.7, +1, "parity"),
)


def _features(model, rng, shape):
    dirs = [random_direction(rng) for _ in range(int(np.prod(shape)))]
    theta = np.array([d.theta for d in dirs]).reshape(shape)
    phi = np.array([d.phi for d in dirs]).reshape(shape)
    return model.batch_features(theta, phi)


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.label)
def test_stack_of_one_is_built_once_and_equals_its_row_of_a_stack(model, rng):
    # a model evaluates E through its own stack; row r of a stack of several
    # models is bit for bit the stack of its owner alone
    assert model.stack is model.stack
    fa, fb = _features(model, rng, (5, 4)), _features(model, rng, (5, 4))
    assert model.stack.term_correlation(fa[0], fb[0]).shape == (1, 4)
    alone = model.stack.term_correlation(fa, fb)
    assert alone.shape == (5, 4)
    family = [m for m in _MODELS if m.family == model.family]
    owners = np.array([family.index(model)] * 5)
    stacked = correlations.ModelStack(family).term_correlation(fa, fb, owners)
    assert np.array_equal(stacked, alone)
    for r in range(5):
        assert np.array_equal(model.stack.term_correlation(fa[r], fb[r])[0], alone[r])


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.label)
def test_local_averages_of_both_parties_equal_each_party_alone(model, rng):
    # the direct bound objective asks for "ab", the triangle one for "b": one
    # evaluator, whose columns do not depend on the other party's
    fa, fb = _features(model, rng, (3,)), _features(model, rng, (4,))
    hidden = _features(pes_model(), rng, (2, 6))  # unit vectors, read back as angles
    theta, phi = np.arccos(hidden[..., 2]), np.arctan2(hidden[..., 1], hidden[..., 0])
    both = model.local_averages("ab", (fa, fb), theta, phi)
    a = model.local_averages("a", (fa,), theta[:1], phi[:1])
    b = model.local_averages("b", (fb,), theta[1:], phi[1:])
    assert both.shape == (6, 7)
    assert np.array_equal(both, np.concatenate((a, b), axis=1))
