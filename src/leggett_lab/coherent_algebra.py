"""Closed-form and log-domain quantities in the two-ket basis {|a>, |-a>}.

The basis is nonorthogonal with overlap kappa = <a|-a> = e^{-2 a^2} (real a),
so norms and expectations carry the Gram matrix [[1, kappa], [kappa, 1]].
The elements <+-a|O|+-a> of FAMILIES, on_off and parity (the names of
:mod:`leggett_lab.correlations`), are closed forms in e^{-a^2} and kappa;
the tests check them against the truncated Fock-space oracle.  The series
behind K(alpha) and the pseudo-spin Bloch vector overflow naive arithmetic
well below alpha = 20; they are summed entirely in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .util import log_factorials

MIN_COEFF_ALPHA = 0.05  # Gram matrix conditioning floor for coefficient algebra
# Largest amplitude accepted.  The series of K(alpha) and m(alpha) has about
# alpha^2 / 2 terms (5,929 at the cap), and its log-domain sum loses accuracy
# as alpha^2 grows: against a 40-digit sum, K is off by 5.6e-13 at alpha 50 and
# by 1.6e-11 at 100.  The paper's largest amplitude is 50.
MAX_ALPHA = 100.0

FAMILIES = ("on_off", "parity")


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


# -- operator matrix elements ---------------------------------------------------


@lru_cache(maxsize=4096)
def _elements(family: str, alpha: float) -> np.ndarray:
    k = math.exp(-2.0 * alpha * alpha)
    if family == "on_off":
        e = math.exp(-alpha * alpha)
        m = np.array([[1.0 - 2.0 * e, k - 2.0 * e], [k - 2.0 * e, 1.0 - 2.0 * e]], dtype=complex)
    else:
        m = np.array([[-k, -1.0], [-1.0, -k]], dtype=complex)
    m.setflags(write=False)
    return m


def operator_elements(family: str, alpha: float) -> np.ndarray:
    """2x2 matrix M[x, y] = <x a|O|y a> for x, y in {+1, -1}.

    family is one of FAMILIES: on_off (O = 1 - 2|0><0|, -1 on the vacuum)
    or parity (O = -(-1)^n, +1 on odd photon numbers), the two measurement
    families of :mod:`leggett_lab.correlations` under the same names, which
    reads P = M00 and Q = M01; any other name raises ValueError.
    With e = e^{-a^2} and kappa = e^{-2 a^2}, on/off gives M00 = 1 - 2e and
    M01 = kappa - 2e, parity M00 = -kappa and M01 = -1; M11 = M00 and
    M10 = M01.  The read-only result is cached per (family, alpha).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown operator family {family!r}")
    if alpha < MIN_COEFF_ALPHA:
        raise ValueError(f"operator elements need alpha >= {MIN_COEFF_ALPHA}")
    return _elements(family, float(alpha))
