"""Correlation functions E(a, b) and local averages for each state/measurement pair.

Four models are covered: the polarization-entangled singlet with projective
qubit measurements, and entangled coherent states (ECS) with pseudo-spin,
on/off or parity measurements.  Local averages model one party's
sub-ensemble mean when the local state is a rotated coherent state: party A
rotates |alpha>, party B rotates |-alpha>.

One representation
------------------
Every model is the diagonal t of a correlation tensor, three scalars P, Q
and kappa, a feature map f of a measurement direction and a hidden map h_A,
h_B of a hidden direction for each party.  Two formulas give every number:

    E(a, b) = (P^2 + Q^2 s) / (1 + kappa^2 s),  s = sum_c t_c f_c(a) f_c(b),
    A(u; a) = (P + Q s) / (1 + kappa s),        s = f(a) . h_A(u),

and B(v; b) is A with h_B.

* Singlet: P, Q, kappa = 0, 1, 0, so E = s and A = s.  f(a) is the unit
  vector of a, t = (-1, -1, -1), and h(u) = u (Malus law) for both parties.
* Pseudo-spin: P, Q, kappa = 0, 1, 0 and f(a) the unit vector.  t is
  (-K, -K, -1) for ECS- and (tanh(2 alpha^2) K, tanh(2 alpha^2) K, 1) for
  ECS+, with K = K(alpha); the ECS+ entries are the raw expectation after
  relabeling party B's settings by the reflection (bx, by, bz) ->
  (-bx, by, bz), checked against the Fock oracle in the tests.  The
  operator identity (u.s)(a.s)(u.s) = (2(u.a)u - a).s makes the local
  average a . h(u) with h(u) = 2(u.m)u - m, the Bloch vector m(alpha)
  reflected about u; party B holds |-alpha>, whose m has its x component
  flipped.
* On/off and parity: the two-ket basis {|alpha>, |-alpha>}.  The measured
  operator has the elements P + Q sigma_x, with P = M00 and Q = M01 of
  :func:`operator_elements`, and the Gram matrix is 1 + kappa sigma_x with
  kappa = e^{-2 alpha^2}.  A setting (theta, phi) acts on the coefficients
  by the map U(theta, phi) that sends |alpha> to sin(theta/2) |alpha> +
  e^{-i phi} cos(theta/2) |-alpha> and |-alpha> to e^{i phi} cos(theta/2)
  |alpha> - sin(theta/2) |-alpha>: the Hermitian reflection U = n . sigma
  with n = (cos(theta/2) cos phi, -cos(theta/2) sin phi, sin(theta/2)).
  Since (n.sigma) sigma_k (n.sigma) = 2 n_k (n.sigma) - sigma_k,

      U (P + Q sigma_x) U = P + Q w . sigma,  w = 2 (n.x) n - x,

  and likewise U (1 + kappa sigma_x) U = 1 + kappa w . sigma, so f = w.
  Party A's local state has the coefficients U(a) U(u) e_0, and
  <e_0| U(u) sigma U(u) |e_0> = 2 n_z n - z for the axis n of U(u) because
  <e_0| sigma |e_0> = z.  Hence A(u; a) = (P + Q s) / (1 + kappa s) with
  s = w(a) . h_A(u), h_A(u) = 2 n_z n - z; party B starts from e_1, whose
  <sigma> is -z, so h_B = -h_A.  The ECS coefficient matrix is a multiple
  of sigma_x (ECS+) or i sigma_y (ECS-), and tracing the Pauli expansions
  of numerator and Gram normalization gives E with t = (1, 1, -1) for ECS+
  and (-1, -1, -1) for ECS-.

  Caveat: U is the asymptotic (large-alpha) action of the displacement/Kerr
  composite.  It is unitary on the coefficients but not on
  span{|alpha>, |-alpha>} with its Gram metric when kappa is not negligible,
  so at alpha below about 2 E is not a quantum correlation and can exceed
  quantum bounds: optimized parity CHSH for ECS- reaches B = 3.669 at
  alpha = 0.3, above Tsirelson's 2 sqrt 2.

Evaluators
----------
The constants and maps are computed once per model.  Every sweep and every
search evaluates arrays, and each quantity has one array evaluator:

* E of any set of setting pairs is one :meth:`ModelStack.term_correlation`
  call on the feature arrays of the two sides.  A stack holds one model per
  point or per search row, or a single model for every row: each model's
  stack of itself (:attr:`CorrelationModel.stack`), built once.  The
  inequality value, the rigid-rotation search and the CHSH search all
  evaluate E this way.  The features are (n, 3) arrays: the unit vectors for
  the singlet and pseudo-spin; for on/off and parity the reflection features
  of a layout's angles, or of its vectors when it has none
  (:meth:`CorrelationModel.layout_features`).  The arithmetic is elementwise
  and in the order of operations of the scalar facade, so every E is bit for
  bit the facade's at the same features and no row depends on the rows
  around it.
* The local averages of the bound search are one
  :meth:`CorrelationModel.local_averages` call for the parties asked for
  (both for the direct objective, party B for the triangle one): one pass
  of the hidden map over the (P, k) hidden angles, whose per-party constant
  is an array over the P parties, then a per-row np.matmul of each party's
  setting features with its hidden vectors.

The facade methods correlation, local_average_a and local_average_b
evaluate one point in scalar ``math``.  They serve I/O (the CHSH value at
named settings) and are the test oracle of the array evaluators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .coherent_algebra import EcsSpec, kappa_K, operator_elements, pseudospin_bloch
from .geometry import Direction

PES_FAMILY = "qubit_projective"
ECS_FAMILIES = ("pseudo_spin", "on_off", "parity")


# -- feature and hidden maps ------------------------------------------------------
#
# Each map takes angles theta, phi and a module xp (math for one point, numpy
# for arrays) and returns the three components of a vector.


def _unit(theta, phi, xp):
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    st = xp.sin(theta)
    return st * xp.cos(phi), st * xp.sin(phi), xp.cos(theta)


def _axis(theta, phi, xp):
    """Axis n of the coefficient map U(theta, phi) = n . sigma."""
    half = 0.5 * theta
    c = xp.cos(half)
    return c * xp.cos(phi), -c * xp.sin(phi), xp.sin(half)


def _reflection(theta, phi, xp):
    """Reflection feature w = 2 (n.x) n - x."""
    nx, ny, nz = _axis(theta, phi, xp)
    return 2.0 * nx * nx - 1.0, 2.0 * nx * ny, 2.0 * nx * nz


def _reflection_of_vectors(v):
    """Reflection features of unit vectors v (..., 3), through their angles."""
    theta = np.arccos(np.clip(v[..., 2], -1.0, 1.0))
    return _stacked(_reflection(theta, np.arctan2(v[..., 1], v[..., 0]), np))


# Each hidden map takes, after theta, phi and xp, the constant of its party
# (see _Representation.hidden_constants): a float or a tuple of floats for one
# party, or arrays of shape (P, 1) that hold the constant of party p in row p,
# for angle arrays of shape (P, k).


def _malus(theta, phi, xp, _):
    """h(u) = u, the singlet's Malus law, for both parties."""
    return _unit(theta, phi, xp)


def _rotated_z(theta, phi, xp, sign):
    """h(u) = sign (2 n_z n - z): the Bloch vector of e_0 (sign 1, party A)
    or e_1 (sign -1, party B, whose Bloch vector is -z) under the reflection
    about n.  Negation is exact, so h_B = -h_A bit for bit."""
    nx, ny, nz = _axis(theta, phi, xp)
    tz = 2.0 * sign * nz
    return tz * nx, tz * ny, tz * nz - sign


def _reflected_bloch(theta, phi, xp, m):
    """h(u) = 2 (u.m) u - m, the Bloch vector m = (mx, my, mz) reflected about u."""
    mx, my, mz = m
    ux, uy, uz = _unit(theta, phi, xp)
    um2 = 2.0 * (ux * mx + uy * my + uz * mz)
    return um2 * ux - mx, um2 * uy - my, um2 * uz - mz


def _hidden_dots(settings, h):
    """f(a_i) . h_r of the setting features (n, 3) and hidden vectors h (k, 3),
    one per-row np.matmul: (k, n)."""
    return np.matmul(settings, h[:, :, None])[:, :, 0]


def _stacked(components):
    """Three component arrays of one shape as one array with a last axis of 3."""
    x, y, z = components
    out = np.empty(np.shape(x) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = x, y, z
    return out


class _Representation(NamedTuple):
    t: tuple  # diagonal of the correlation tensor
    p: float
    q: float
    kappa: float
    feature: Callable  # f(theta, phi, xp)
    vector_feature: Callable  # f of unit vectors (..., 3), numpy
    hidden: Callable  # h(theta, phi, xp, constant of the party)
    hidden_constants: tuple  # (party A's, party B's)
    hidden_radius: float | None  # |h(u)| of the tensor models


def _representation(family: str, ecs: EcsSpec | None) -> _Representation:
    p, q, kappa = 0.0, 1.0, 0.0
    feature, vector_feature = _unit, np.asarray
    radius = None
    if family == PES_FAMILY:
        t = (-1.0, -1.0, -1.0)
        hidden, constants = _malus, (None, None)
        radius = 1.0
    elif family == "pseudo_spin":
        K = kappa_K(ecs.alpha)
        if ecs.sign < 0:
            t = (-K, -K, -1.0)
        else:
            kt = math.tanh(2.0 * ecs.alpha**2) * K
            t = (kt, kt, 1.0)
        m = pseudospin_bloch(ecs.alpha)
        mx, my, mz = m.tolist()
        hidden, constants = _reflected_bloch, ((mx, my, mz), (-mx, my, mz))
        radius = math.sqrt(m.dot(m))  # np.linalg.norm(m), bit for bit
    else:
        m = operator_elements(family, ecs.alpha)
        t = (1.0, 1.0, -1.0) if ecs.sign > 0 else (-1.0, -1.0, -1.0)
        p, q, kappa = float(m[0, 0].real), float(m[0, 1].real), ecs.kappa
        feature, vector_feature = _reflection, _reflection_of_vectors
        hidden, constants = _rotated_z, (1.0, -1.0)
    return _Representation(t, p, q, kappa, feature, vector_feature, hidden, constants, radius)


def _rows(*constants):
    """The hidden-map constants of P parties as arrays of shape (P, 1), row p
    for the p-th; a tuple of them for tuple constants."""
    if constants[0] is None:
        return None
    if isinstance(constants[0], tuple):
        return tuple(_rows(*c) for c in zip(*constants))
    return np.array(constants)[:, None]


# -- model facade ---------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationModel:
    """A (state, measurement-family) pairing exposing E(a,b) and local averages."""

    family: str
    ecs: EcsSpec | None = None
    _rep: _Representation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family == PES_FAMILY:
            if self.ecs is not None:
                raise ValueError(f"{PES_FAMILY} applies to the singlet baseline only")
        elif self.family in ECS_FAMILIES:
            if self.ecs is None:
                raise ValueError(f"{self.family} needs an EcsSpec")
        else:
            raise ValueError(f"unknown measurement family {self.family!r}")
        object.__setattr__(self, "_rep", _representation(self.family, self.ecs))

    @property
    def tensor(self) -> tuple | None:
        """t when E(a, b) = sum_c t_c a_c b_c is bilinear in the setting vectors
        (the singlet and pseudo-spin); None for on/off and parity."""
        return self._rep.t if self.family in (PES_FAMILY, "pseudo_spin") else None

    @property
    def hidden_radius(self) -> float | None:
        """|h(u)|, the same at every hidden direction u for the tensor models:
        1 for the singlet, |m(alpha)| for pseudo-spin; None for on/off and parity."""
        return self._rep.hidden_radius

    @property
    def label(self) -> str:
        if self.ecs is None:
            return "pes"
        return f"ecs{'+' if self.ecs.sign > 0 else '-'}:{self.family}:a={self.ecs.alpha:g}"

    def _correlation_of(self, s):
        """E = (P^2 + Q^2 s) / (1 + kappa^2 s) of s = sum_c t_c f_c(a) f_c(b)."""
        r = self._rep
        return _ratio(s, r.p * r.p, r.q * r.q, r.kappa * r.kappa)

    def _average_of(self, s):
        """A = (P + Q s) / (1 + kappa s) of s = f(a) . h(u)."""
        r = self._rep
        return _ratio(s, r.p, r.q, r.kappa)

    # one point, scalar math

    def correlation(self, a: Direction, b: Direction) -> float:
        r = self._rep
        fa = r.feature(a.theta, a.phi, math)
        fb = r.feature(b.theta, b.phi, math)
        t = r.t
        return self._correlation_of(t[0] * fa[0] * fb[0] + t[1] * fa[1] * fb[1] + t[2] * fa[2] * fb[2])

    def _local_average(self, party: int, u: Direction, a: Direction) -> float:
        r = self._rep
        f = r.feature(a.theta, a.phi, math)
        h = r.hidden(u.theta, u.phi, math, r.hidden_constants[party])
        return self._average_of(f[0] * h[0] + f[1] * h[1] + f[2] * h[2])

    def local_average_a(self, u: Direction, a: Direction) -> float:
        return self._local_average(0, u, a)

    def local_average_b(self, v: Direction, b: Direction) -> float:
        return self._local_average(1, v, b)

    # batches, numpy

    def layout_features(self, layout) -> tuple:
        """f of the a and b settings of a layout, (n, 3) and (m, 3).

        The tensor models read the unit vectors.  On/off and parity read the
        layout's angles, which carry the pole labels their features depend
        on, or the vectors (:meth:`batch_vector_features`) of a layout
        without angles, such as a rotated one.
        """
        if self.tensor is not None:
            return layout.a, layout.b
        if layout.angles is None:
            return self.batch_vector_features(layout.a), self.batch_vector_features(layout.b)
        return tuple(self.batch_features(angles[:, 0], angles[:, 1]) for angles in layout.angles)

    def batch_features(self, theta, phi) -> np.ndarray:
        """f of directions given as angle arrays: (..., 3)."""
        return _stacked(self._rep.feature(theta, phi, np))

    def batch_vector_features(self, v) -> np.ndarray:
        """f of unit vectors v (..., 3): (..., 3)."""
        return self._rep.vector_feature(v)

    @functools.cached_property
    def stack(self) -> ModelStack:
        """The stack of this model alone, which evaluates E of every row under
        it; built on first use."""
        return ModelStack([self])

    @functools.cached_property
    def _hidden_rows(self) -> dict:
        """The hidden-map constants of each party string of
        :meth:`local_averages` (:func:`_rows`), built on first use: only the
        bound search needs them."""
        a, b = self._rep.hidden_constants
        return {"a": _rows(a), "b": _rows(b), "ab": _rows(a, b)}

    def local_averages(self, parties: str, features, theta, phi) -> np.ndarray:
        """A(u; a_i) of party "a" and B(v; b_j) of party "b", for the parties
        of the string parties ("a", "b" or "ab") in order: features[p] holds
        the (n_p, 3) setting features of the p-th and row p of the hidden
        angle arrays theta and phi, of shape (P, k), its hidden directions.
        Returns (k, n_0 + ... + n_(P-1)), the parties' columns side by side.
        One pass of the hidden map serves every party."""
        h = _stacked(self._rep.hidden(theta, phi, np, self._hidden_rows[parties]))
        return self._average_of(np.concatenate([_hidden_dots(f, hp) for f, hp in zip(features, h)], axis=1))


class ModelStack:
    """Models of one family evaluated in one batch, the constants looked up per row.

    term_correlation gives row r the E of models[owners[r]] (models[r] by
    default, and the one model for every row of a stack of one), bit for bit
    that model's scalar correlation at the same features.
    """

    def __init__(self, models):
        if len({m.family for m in models}) != 1:
            raise ValueError("stacked models must share one measurement family")
        reps = [m._rep for m in models]
        self._t = np.array([[r.t] for r in reps])  # (M, 1, 3)
        # (P^2, Q^2, kappa^2) of every model as three (M, 1) arrays; the tensor
        # models, whose E is s itself, have none
        self._c = None
        if models[0].tensor is None:
            self._c = np.array([(r.p * r.p, r.q * r.q, r.kappa * r.kappa) for r in reps]).T[:, :, None]

    def term_correlation(self, fa, fb, owners=None) -> np.ndarray:
        """E of row r between fa[r, k] and fb[r, k] under models[owners[r]],
        for feature arrays (R, T, 3), or (T, 3) shared by every row: (R, T).
        Without owners, row r belongs to models[r]; a stack of one model
        applies it to every row, and then feature arrays (..., T, 3) of any
        leading shape give (..., T), and (T, 3) gives (1, T)."""
        s = _term_sums(fa, fb, self._t if owners is None else self._t[owners])
        if self._c is None:
            return s
        return _ratio(s, *(self._c if owners is None else self._c[:, owners]))


def _term_sums(fa, fb, t):
    """s = sum_c t_c fa_c fb_c of each pair of feature rows, elementwise in
    the scalar facade's order: (t_c fa_c) fb_c for each c (multiplication
    commutes exactly), summed left to right.  Through the ratio this is bit
    for bit CorrelationModel.correlation.  The tensor models skip the ratio:
    with (P^2, Q^2, kappa^2) = (0, 1, 0) it returns s exactly, up to the sign
    of a zero.
    """
    p = fa * t
    p *= fb
    return p[..., 0] + p[..., 1] + p[..., 2]


def _ratio(s, c0, c1, d1):
    """(c0 + c1 s) / (1 + d1 s), for a float or an array s; equals s exactly
    when (c0, c1, d1) = (0, 1, 0)."""
    num = s * c1
    num += c0
    den = s * d1
    den += 1.0
    num /= den
    return num


def pes_model() -> CorrelationModel:
    return CorrelationModel(PES_FAMILY)


def ecs_model(alpha: float, sign: int, family: str = "pseudo_spin") -> CorrelationModel:
    return CorrelationModel(family, EcsSpec(alpha, sign))
