"""Truncated number-basis simulator of one and two bosonic modes.

This module is the brute-force oracle of the tests: coherent states,
displacement and Kerr unitaries, the composite rotation that acts as a qubit
rotation on the span of |alpha> and |-alpha>, pseudo-spin operators, and
plain expectation values.  Everything here is dense numpy in a truncated
Fock space, except the displacement, which takes scipy's matrix exponential
on call.  The closed forms of ``leggett_lab`` are tested against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from leggett_lab.geometry import Direction
from leggett_lab.util import log_factorials

TAIL_TOL = 1e-8


class TruncationError(Exception):
    """Fock-space truncation leaves too much tail probability."""


def default_dim(alpha: float) -> int:
    """Truncation rule dim = ceil(alpha^2 + 10*alpha + 20), rounded up to an
    even value so that pseudo-spin parity pairs are complete."""
    dim = math.ceil(abs(alpha) ** 2 + 10 * abs(alpha) + 20)
    return dim + (dim % 2)


@dataclass(frozen=True)
class FockVector:
    """State vector in a truncated number basis."""

    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on a truncated number basis."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T)

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            return FockOperator(self.matrix @ other.matrix)
        if isinstance(other, FockVector):
            return FockVector(self.matrix @ other.amplitudes)
        return NotImplemented


def vacuum(dim: int) -> FockVector:
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    return FockVector(amps)


def coherent(alpha: complex, dim: int) -> FockVector:
    """Coherent state |alpha>, amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    Computed with log-domain factorials
    (:func:`leggett_lab.util.log_factorials`) so large alpha cannot overflow.
    Raises TruncationError when the exact Poisson tail beyond dim exceeds
    TAIL_TOL.
    """
    if dim < 4:
        raise ValueError("dim must be at least 4")
    alpha = complex(alpha)
    if alpha == 0:
        return vacuum(dim)
    n = np.arange(dim)
    mag, ang = abs(alpha), np.angle(alpha)
    log_mag = -0.5 * mag * mag + n * math.log(mag) - 0.5 * log_factorials(range(dim))
    amps = np.exp(log_mag) * np.exp(1j * n * ang)
    tail = coherent_tail_mass(alpha, dim)
    if tail > TAIL_TOL:
        raise TruncationError(
            f"coherent({alpha}, dim={dim}) leaves tail mass {tail:.3e}"
        )
    return FockVector(amps)


def coherent_tail_mass(alpha: complex, dim: int) -> float:
    """Poisson probability mass of photon numbers >= dim."""
    lam = abs(alpha) ** 2
    if lam == 0:
        return 0.0
    n = np.arange(dim)
    log_p = -lam + n * math.log(lam) - log_factorials(range(dim))
    return float(max(0.0, 1.0 - np.exp(log_p).sum()))


def annihilation(dim: int) -> FockOperator:
    return FockOperator(np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex))


def displace(beta: complex, dim: int) -> FockOperator:
    """exp(beta a^dag - beta* a) on the truncated space, by scipy's expm."""
    from scipy.linalg import expm

    a = annihilation(dim).matrix
    return FockOperator(expm(beta * a.conj().T - np.conj(beta) * a))


def kerr_half_pi(dim: int) -> FockOperator:
    """Self-Kerr evolution exp(-i pi n^2 / 2): diagonal 1, -i, 1, -i, ..."""
    n = np.arange(dim)
    return FockOperator(np.diag(np.exp(-0.5j * math.pi * n * n)))


def composite_rotation(theta: float, phi: float, alpha: float, dim: int) -> FockOperator:
    """Displacement/Kerr sequence acting as a qubit rotation on span{|a>,|-a>}.

    R(theta, phi) = D(i phi/4a) U_K D(i theta/4a) U_K D(i phi/4a), which for
    alpha >> 1 sends |alpha>  to  sin(t/2)|alpha> + e^{-i phi} cos(t/2)|-alpha>
    (the sign of the leading displacement is fixed so the realized map matches
    that image; see the rotation-map tests).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive real")
    u = kerr_half_pi(dim).matrix
    d_phi = displace(1j * phi / (4.0 * alpha), dim).matrix
    d_theta = displace(1j * theta / (4.0 * alpha), dim).matrix
    return FockOperator(d_phi @ u @ d_theta @ u @ d_phi)


def pseudo_spin_ops(dim: int) -> tuple[FockOperator, FockOperator, FockOperator]:
    """(s_z, s_plus, s_minus) with s_z = odd-minus-even photon-number parity,
    s_minus = sum |2n><2n+1|.  dim must be even so every parity pair is
    complete and (a . s)^2 = 1 holds exactly on the truncated space."""
    if dim % 2:
        raise ValueError("pseudo-spin operators need an even truncation dim")
    sz = np.diag(np.array([-1.0, 1.0] * (dim // 2), dtype=complex))
    sm = np.zeros((dim, dim), dtype=complex)
    for k in range(0, dim - 1, 2):
        sm[k, k + 1] = 1.0
    return FockOperator(sz), FockOperator(sm.conj().T), FockOperator(sm)


def spin_projection(d: Direction, dim: int) -> FockOperator:
    """a . s = sin t (e^{i p} s_- + e^{-i p} s_+) + cos t s_z for unit a."""
    sz, sp, sm = pseudo_spin_ops(dim)
    st, ct = math.sin(d.theta), math.cos(d.theta)
    ph = np.exp(1j * d.phi)
    return FockOperator(st * (ph * sm.matrix + np.conj(ph) * sp.matrix) + ct * sz.matrix)


def on_off_op(dim: int) -> FockOperator:
    """Dichotomic vacuum detector: +1 on any excitation, -1 on vacuum."""
    m = np.eye(dim, dtype=complex)
    m[0, 0] = -1.0
    return FockOperator(m)


def parity_op(dim: int) -> FockOperator:
    """+1 on odd, -1 on even photon number (equals pseudo-spin s_z)."""
    n = np.arange(dim)
    return FockOperator(np.diag(np.where(n % 2 == 1, 1.0, -1.0)).astype(complex))


def expectation(state: FockVector, op: FockOperator) -> complex:
    """<psi|O|psi> / <psi|psi>."""
    nrm = np.vdot(state.amplitudes, state.amplitudes).real
    if nrm < 1e-300:
        raise ValueError("zero-norm state")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes) / nrm)


# -- two-mode helpers ---------------------------------------------------------


def two_mode_product(left: FockVector, right: FockVector) -> np.ndarray:
    """Coefficient array psi[n1, n2] of a product state."""
    return np.outer(left.amplitudes, right.amplitudes)


def ecs_fock(alpha: float, sign: int, dim: int) -> np.ndarray:
    """Entangled coherent state N(|a>|-a> + sign |-a>|a>) as psi[n1, n2]."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    ca = coherent(alpha, dim)
    cm = coherent(-alpha, dim)
    psi = two_mode_product(ca, cm) + sign * two_mode_product(cm, ca)
    return psi / np.linalg.norm(psi)


def two_mode_expectation(psi: np.ndarray, op_a: FockOperator, op_b: FockOperator) -> complex:
    """<psi|(A x B)|psi> / <psi|psi> without materializing the Kronecker product."""
    nrm = np.vdot(psi, psi).real
    if nrm < 1e-300:
        raise ValueError("zero-norm state")
    out = op_a.matrix @ psi @ op_b.matrix.T
    return complex(np.vdot(psi, out) / nrm)
