import math

import numpy as np
import pytest

from leggett_lab import (
    EcsSpec,
    kappa_K,
    operator_elements,
    pseudospin_bloch,
)
from leggett_lab.coherent_algebra import FAMILIES, _log_sum_exp
import fock
from conftest import coefficient_tensor, gram_matrix, rotation_map


# -- EcsSpec --------------------------------------------------------------------


def test_ecs_spec_norm_consistency():
    for alpha in (0.3, 1.0, 2.5):
        for sign in (+1, -1):
            spec = EcsSpec(alpha, sign)
            c = coefficient_tensor(spec)
            g = gram_matrix(alpha)
            norm2 = np.einsum("xy,xu,yv,uv->", c.conj(), g, g, c).real
            assert abs(norm2 - 1.0) < 1e-12


def test_ecs_spec_validation():
    with pytest.raises(ValueError):
        EcsSpec(1.0, 0)
    with pytest.raises(ValueError):
        EcsSpec(-1.0, 1)


# -- K(alpha) -------------------------------------------------------------------


def test_kappa_k_limits():
    assert kappa_K(0.0) == 1.0
    assert kappa_K(0.01) > 0.9999
    assert kappa_K(50.0) > 0.999
    assert np.isfinite(kappa_K(100.0))


def test_kappa_k_band_and_dip():
    grid = np.arange(0.1, 10.0001, 0.01)
    ks = np.array([kappa_K(a) for a in grid])
    assert 0.905 <= ks.min() <= 0.910
    assert np.all(ks <= 1.0 + 1e-12)
    assert abs(grid[np.argmin(ks)] - 1.5) < 0.3


def test_kappa_k_continuity():
    for lo in (0.3, 1.45, 4.0, 20.0):
        a = np.array([lo, lo + 1e-3])
        k = [kappa_K(x) for x in a]
        assert abs(k[1] - k[0]) < 1e-2


def test_kappa_k_oracle_at_alpha1():
    # equatorial two-mode expectation equals -K
    alpha, dim = 1.0, fock.default_dim(1.0)
    psi = fock.ecs_fock(alpha, -1, dim)
    from leggett_lab.geometry import Direction

    eq = Direction(np.pi / 2, 0.7)
    val = fock.two_mode_expectation(
        psi, fock.spin_projection(eq, dim), fock.spin_projection(eq, dim)
    )
    assert abs(val.real - (-kappa_K(alpha))) < 1e-8


def _series_40_digits(alpha):
    """(K(alpha), m_x(alpha)) from the series summed term by term in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        x = a * a
        term = total = mpmath.mpf(1)
        n = 0
        while n < x or term > total * mpmath.mpf(10) ** -45:
            n += 1
            term *= x * x / ((2 * n) * (2 * n - 1)) * mpmath.sqrt(mpmath.mpf(2 * n - 1) / (2 * n + 1))
            total += term
        return 2 * x / mpmath.sinh(2 * x) * total**2, 2 * a * mpmath.exp(-x) * total


@pytest.mark.parametrize(
    "alpha, rel_tol",
    [(0.3, 1e-14), (1.0, 1e-14), (2.0, 1e-14), (5.0, 1e-14), (10.0, 1e-12), (20.0, 1e-12), (50.0, 5e-12), (100.0, 3e-11)],
)
def test_series_quantities_match_a_40_digit_sum(alpha, rel_tol):
    k_ref, mx_ref = _series_40_digits(alpha)
    assert abs(kappa_K(alpha) - k_ref) <= rel_tol * k_ref
    assert abs(pseudospin_bloch(alpha)[0] - mx_ref) <= rel_tol * mx_ref


@pytest.mark.parametrize("shift", [0.0, 650.0, -700.0])
def test_log_sum_exp_with_two_equal_largest_terms(shift):
    terms = np.array([-3.0, 1.25, -40.0, 1.25, 0.5])
    direct = math.log(math.fsum(math.exp(t) for t in terms))
    assert _log_sum_exp(terms + shift) == pytest.approx(direct + shift, rel=2e-16, abs=2e-16)


# -- Bloch vector ----------------------------------------------------------------


def test_bloch_vacuum_and_reality():
    assert np.allclose(pseudospin_bloch(0.0), [0, 0, -1])
    m = pseudospin_bloch(1.7)
    assert m[1] == 0.0


def test_bloch_matches_oracle():
    alpha, dim = 1.0, fock.default_dim(1.0)
    ca = fock.coherent(alpha, dim)
    sz, sp, sm = fock.pseudo_spin_ops(dim)
    sx = fock.FockOperator(sp.matrix + sm.matrix)
    sy = fock.FockOperator(-1j * (sp.matrix - sm.matrix))
    m = pseudospin_bloch(alpha)
    for comp, op in zip(m, (sx, sy, sz)):
        assert abs(fock.expectation(ca, op) - comp) < 1e-8


def test_bloch_length_bounded():
    for alpha in np.linspace(0.0, 50.0, 101):
        assert np.linalg.norm(pseudospin_bloch(alpha)) <= 1.0 + 1e-12


def test_bloch_continuity():
    for lo in (0.2, 1.0, 5.0):
        m1, m2 = pseudospin_bloch(lo), pseudospin_bloch(lo + 1e-3)
        assert np.linalg.norm(m1 - m2) < 1e-2


# -- coefficient maps --------------------------------------------------------------


def test_rotation_map_examples():
    m = rotation_map(np.pi, 0.0)
    assert np.allclose(m, [[1, 0], [0, -1]], atol=1e-15)
    m = rotation_map(0.0, 0.8)
    assert np.allclose(m, [[0, np.exp(0.8j)], [np.exp(-0.8j), 0]], atol=1e-15)


def test_rotation_map_unitary(rng):
    for _ in range(25):
        m = rotation_map(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


# -- operator elements --------------------------------------------------------------


def test_onoff_elements_alpha5():
    m = operator_elements("on_off", 5.0)
    # 1 - diag = 2 e^{-25} = 2.78e-11 (the quoted 2e-11 rounds this)
    assert abs(m[0, 0] - 1.0) < 3e-11
    assert abs(m[0, 1] - (math.exp(-50.0) - 2 * math.exp(-25.0))) < 1e-15


@pytest.mark.parametrize("family", ["onoff", "pseudo_spin"])  # the old spelling; a family without elements
def test_operator_elements_reject_other_family_names(family):
    with pytest.raises(ValueError, match=f"unknown operator family '{family}'"):
        operator_elements(family, 1.0)


def test_parity_elements_alpha1():
    m = operator_elements("parity", 1.0)
    assert m[0, 0] == pytest.approx(-math.exp(-2.0), abs=1e-15)
    assert m[0, 1] == pytest.approx(-1.0, abs=1e-15)


def test_all_families_match_oracle():
    alpha, dim = 1.5, fock.default_dim(1.5)
    kets = (fock.coherent(alpha, dim), fock.coherent(-alpha, dim))
    ops = {"on_off": fock.on_off_op(dim), "parity": fock.parity_op(dim)}
    for family in FAMILIES:
        m = operator_elements(family, alpha)
        for i in range(2):
            for j in range(2):
                oracle = np.vdot(kets[i].amplitudes, ops[family].matrix @ kets[j].amplitudes)
                assert abs(m[i, j] - oracle) < 1e-8


def test_elements_hermitian_exact():
    for family in FAMILIES:
        m = operator_elements(family, 0.8)
        assert np.array_equal(m, m.conj().T)


def _oracle_elements(family, alpha):
    """<x a|O|y a> in the truncated Fock space."""
    dim = fock.default_dim(alpha)
    kets = (fock.coherent(alpha, dim).amplitudes, fock.coherent(-alpha, dim).amplitudes)
    op = (fock.on_off_op(dim) if family == "on_off" else fock.parity_op(dim)).matrix
    return np.array([[np.vdot(bra, op @ ket) for ket in kets] for bra in kets])


def _matches_oracle(family, alpha, m):
    return np.abs(m - _oracle_elements(family, alpha)).max() <= 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_elements_match_the_fock_oracle_to_1e_12(family):
    for k in range(1, 61):  # alpha = 0.05:3:0.05
        alpha = 0.05 * k
        assert _matches_oracle(family, alpha, operator_elements(family, alpha)), alpha


@pytest.mark.parametrize("alpha", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_comparison_catches_a_1e_6_error_in_any_element(family, alpha):
    m = operator_elements(family, alpha)
    assert _matches_oracle(family, alpha, m)
    for i in range(2):
        for j in range(2):
            bad = m.copy()
            bad[i, j] += 1e-6
            assert not _matches_oracle(family, alpha, bad)
