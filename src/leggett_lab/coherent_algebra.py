"""Closed-form and log-domain quantities in the two-ket basis {|a>, |-a>}.

The basis is nonorthogonal with overlap kappa = <a|-a> = e^{-2 a^2} (real a),
so norms and expectations carry the Gram matrix [[1, kappa], [kappa, 1]].
The series behind K(alpha) and the pseudo-spin Bloch vector overflow naive
arithmetic well below alpha = 20; they are summed entirely in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CertificationError
from .util import log_factorials

ORACLE_ALPHA_MAX = 3.0  # two-mode Fock oracles stay cheap below this
MIN_COEFF_ALPHA = 0.05  # Gram matrix conditioning floor for coefficient algebra
# Largest amplitude accepted.  The series of K(alpha) and m(alpha) has about
# alpha^2 / 2 terms (5,929 at the cap), and its log-domain sum loses accuracy
# as alpha^2 grows: against a 40-digit sum, K is off by 5.6e-13 at alpha 50 and
# by 1.6e-11 at 100.  The paper's largest amplitude is 50.
MAX_ALPHA = 100.0

FAMILIES = ("onoff", "parity")


# -- ECS bookkeeping -----------------------------------------------------------


@dataclass(frozen=True)
class EcsSpec:
    """Entangled coherent state N(|a>|-a> + sign |-a>|a>), real 0 < a <= MAX_ALPHA."""

    alpha: float
    sign: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0.0 < self.alpha <= MAX_ALPHA:
            raise ValueError(f"alpha must be positive and at most {MAX_ALPHA:g}, got {self.alpha!r}")

    @property
    def kappa(self) -> float:
        return math.exp(-2.0 * self.alpha**2)

    @property
    def norm(self) -> float:
        return 1.0 / math.sqrt(2.0 * (1.0 + self.sign * math.exp(-4.0 * self.alpha**2)))

    def coefficient_tensor(self) -> np.ndarray:
        """2x2 coefficients C[x, y] over basis |x a> (x) |y a|, x,y in {+,-}."""
        c = np.zeros((2, 2), dtype=complex)
        c[0, 1] = self.norm
        c[1, 0] = self.sign * self.norm
        return c


def gram_matrix(alpha: float) -> np.ndarray:
    k = math.exp(-2.0 * alpha * alpha)
    return np.array([[1.0, k], [k, 1.0]])


# -- log-domain series ---------------------------------------------------------


@lru_cache(maxsize=4096)
def _log_even_series(alpha: float) -> float:
    """log of S(a) = sum_n a^{4n} / ((2n)! sqrt(2n+1)).

    Terms evaluated in the log domain, log((2n)!) from
    :func:`leggett_lab.util.log_factorials`, and summed by
    :func:`_log_sum_exp`; numpy and the standard library carry it all.  The grid of n extends far enough past
    the peak (2n ~ a^2) that dropped terms sit > 60 nats below the maximum.
    Cached per amplitude: a sweep asks for K(a) and m(a) at every grid point
    but at few distinct amplitudes.  alpha above MAX_ALPHA raises ValueError
    before the terms are allocated.
    """
    if alpha > MAX_ALPHA:
        raise ValueError(f"alpha must be at most {MAX_ALPHA:g}, got {alpha!r}")
    x = alpha * alpha
    peak = max(1.0, 0.5 * x)
    n_hi = int(peak + 12.0 * math.sqrt(peak + 4.0) + 80.0)
    log_fact = log_factorials(range(0, 2 * n_hi, 2))
    n = np.arange(n_hi)
    log_terms = 4.0 * n * math.log(alpha) - log_fact - 0.5 * np.log(2 * n + 1)
    return _log_sum_exp(log_terms)


def _log_sum_exp(log_terms: np.ndarray) -> float:
    """log(sum(exp(log_terms))) without overflow: the largest term is factored
    out exactly, and the others, scaled by it, are summed and added by log1p."""
    top = int(np.argmax(log_terms))
    rest = np.exp(log_terms - log_terms[top])
    rest[top] = 0.0
    return float(log_terms[top] + math.log1p(rest.sum()))


def _log_sinh(x: float) -> float:
    """log(sinh x) for x > 0 without overflow."""
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def kappa_K(alpha: float) -> float:
    """Pseudo-spin transverse correlation coefficient

        K(a) = (2 a^2 / sinh 2a^2) * S(a)^2,
        S(a) = sum_n a^{4n} / ((2n)! sqrt(2n+1)),

    evaluated fully in the log domain; K(0) = 1 by continuity.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha < 1e-6:
        return 1.0
    x = alpha * alpha
    log_k = math.log(2.0) + 2.0 * math.log(alpha) - _log_sinh(2.0 * x) + 2.0 * _log_even_series(alpha)
    return float(math.exp(log_k))


def pseudospin_bloch(alpha: float) -> np.ndarray:
    """Bloch vector m = <a| s |a> of a coherent state under pseudo-spin.

    m_x = 2 a e^{-a^2} S(a) (the s_+ and s_- expectations are equal for real
    a, so their symmetrized sum is twice the lowering-operator series),
    m_y = 0, and m_z = -e^{-2 a^2} since s_z is the photon-number parity.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return np.array([0.0, 0.0, -1.0])
    log_mx = math.log(2.0) + math.log(alpha) - alpha * alpha + _log_even_series(alpha)
    return np.array([math.exp(log_mx), 0.0, -math.exp(-2.0 * alpha * alpha)])


# -- coefficient maps ----------------------------------------------------------


def rotation_map(theta: float, phi: float) -> np.ndarray:
    """Asymptotic action of the displacement/Kerr composite on coefficients:
    |a>  -> sin(t/2)|a> + e^{-i p} cos(t/2)|-a>,
    |-a> -> e^{i p} cos(t/2)|a> - sin(t/2)|-a>.
    Columns are the images; the map is exactly unitary."""
    s, c = math.sin(0.5 * theta), math.cos(0.5 * theta)
    ph = np.exp(1j * phi)
    return np.array([[s, ph * c], [np.conj(ph) * c, -s]])


# -- operator matrix elements ---------------------------------------------------


def _elements_uncertified(family: str, alpha: float) -> np.ndarray:
    k = math.exp(-2.0 * alpha * alpha)
    if family == "onoff":
        e = math.exp(-alpha * alpha)
        return np.array([[1.0 - 2.0 * e, k - 2.0 * e], [k - 2.0 * e, 1.0 - 2.0 * e]], dtype=complex)
    return np.array([[-k, -1.0], [-1.0, -k]], dtype=complex)


def _certify_elements(family: str, alpha: float, m: np.ndarray) -> None:
    from . import fock  # local import: fock never imports this module

    dim = fock.default_dim(alpha)
    kets = (fock.coherent(alpha, dim), fock.coherent(-alpha, dim))
    op = fock.on_off_op(dim) if family == "onoff" else fock.parity_op(dim)
    worst = 0.0
    for i in range(2):
        for j in range(2):
            oracle = complex(np.vdot(kets[i].amplitudes, op.matrix @ kets[j].amplitudes))
            worst = max(worst, abs(oracle - m[i, j]))
    if worst > 1e-8:
        raise CertificationError(
            f"operator elements {family!r} at alpha={alpha} deviate from the "
            f"Fock oracle by {worst:.3e}"
        )


@lru_cache(maxsize=4096)
def _cached_elements(family: str, alpha: float, certify: bool) -> np.ndarray:
    m = _elements_uncertified(family, alpha)
    if certify:
        _certify_elements(family, alpha, m)
    m.setflags(write=False)
    return m


def operator_elements(family: str, alpha: float, certify: bool | None = None) -> np.ndarray:
    """2x2 matrix M[x, y] = <x a|O|y a> for x, y in {+1, -1}.

    Families: onoff (O = 1 - 2|0><0|, -1 on the vacuum) and parity
    (O = -(-1)^n, +1 on odd photon numbers), the two measurement families of
    :mod:`leggett_lab.correlations`, which reads P = M00 and Q = M01.
    Closed forms are certified at build time against the Fock oracle
    whenever alpha <= 3; results are cached per (family, alpha).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown operator family {family!r}")
    if alpha < MIN_COEFF_ALPHA:
        raise ValueError(f"operator elements need alpha >= {MIN_COEFF_ALPHA}")
    if certify is None:
        certify = alpha <= ORACLE_ALPHA_MAX
    return _cached_elements(family, float(alpha), bool(certify))
