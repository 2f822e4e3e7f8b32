"""Output checks computed apart from the program.

Nothing here imports ``leggett_lab``: every reference value is rebuilt from
the physics.  K(alpha) and the coherent-state Bloch vector come from the
series S(alpha) = sum_n alpha^{4n} / ((2n)! sqrt(2n+1)), summed term by term
in mpmath well past its peak term n ~ alpha^2 / 2.  mpmath's ``nsum`` is not
used: at alpha = 50 it stops long before the peak and returns S ~ 2e49,
which makes K come out as 0.  Setting vectors, correlation tensors,
the coefficient-algebra model and the threshold root are written out again
from their definitions.

Each ``check_*`` function takes the command's parsed stdout summary (and the
CSV files it wrote) and returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import math
from functools import lru_cache

import mpmath
import numpy as np

TOL = 1e-9  # CSV cells carry 12 significant digits
VIOLATION_TOL = 1e-7  # margin above which the program must report a violation
TSIRELSON = 2.0 * math.sqrt(2.0)
HIDDEN_PAIRS = 64  # hidden-vector pairs sampled per bound checked

# -- pseudo-spin references ------------------------------------------------------


@lru_cache(maxsize=None)
def _series(alpha: float) -> mpmath.mpf:
    """S(alpha) summed explicitly; stops well past the peak at n ~ alpha^2/2."""
    with mpmath.workdps(40):
        a4 = mpmath.mpf(alpha) ** 4
        term = mpmath.mpf(1)
        total = mpmath.mpf(1)
        n_min = int(alpha * alpha / 2 + 12 * alpha + 40)
        n = 0
        while True:
            n += 1
            term *= a4 / ((2 * n) * (2 * n - 1)) * mpmath.sqrt(mpmath.mpf(2 * n - 1) / (2 * n + 1))
            total += term
            if n > n_min and term < total * mpmath.mpf(10) ** -45:
                return total


@lru_cache(maxsize=None)
def kappa_ref(alpha: float) -> float:
    """K(alpha) = (2 alpha^2 / sinh 2 alpha^2) S(alpha)^2."""
    with mpmath.workdps(40):
        x = 2 * mpmath.mpf(alpha) ** 2
        return float(x / mpmath.sinh(x) * _series(alpha) ** 2)


@lru_cache(maxsize=None)
def bloch_ref(alpha: float) -> tuple:
    """Bloch vector (m_x, 0, m_z) of |alpha> under pseudo-spin."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        mx = 2 * a * mpmath.exp(-a * a) * _series(alpha)
        return (float(mx), 0.0, float(-mpmath.exp(-2 * a * a)))


def transverse_ref(alpha: float, sign: int) -> float:
    """Transverse entry of the pseudo-spin correlation tensor diag(t, t, z)."""
    k = kappa_ref(alpha)
    return -k if sign < 0 else math.tanh(2.0 * alpha * alpha) * k


def tensor_ref(alpha: float, sign: int) -> np.ndarray:
    t = transverse_ref(alpha, sign)
    return np.diag([t, t, -1.0 if sign < 0 else 1.0])


def chsh_ref(alpha: float, sign: int) -> float:
    """Maximal CHSH value 2 sqrt(t1^2 + t2^2) of the correlation tensor
    (Horodecki et al., Phys. Lett. A 200, 340 (1995))."""
    sv = sorted(np.abs(np.diag(tensor_ref(alpha, sign))), reverse=True)
    return 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)


# -- layouts --------------------------------------------------------------------


def layout_ref(name: str, phi: float):
    """(A, B, groups) with A, B rows of unit setting vectors."""
    x, y, z = np.eye(3)
    if name == "threeplus7":
        c, s = math.cos(phi), math.sin(phi)
        b = [(c, s, 0.0), (-s, c, 0.0), (0.0, c, -s), (0.0, s, c), x, y, z]
        groups = ((0.5, ((0, 0), (1, 1), (0, 4), (1, 5))), (0.5, ((1, 2), (2, 3), (1, 5), (2, 6))))
    elif name == "threeplus6":
        c, s = math.cos(0.5 * phi), math.sin(0.5 * phi)
        b = [(c, s, 0.0), (c, -s, 0.0), (0.0, c, s), (0.0, c, -s), (s, 0.0, c), (-s, 0.0, c)]
        w = 2.0 / 3.0
        groups = ((w, ((0, 0), (0, 1))), (w, ((1, 2), (1, 3))), (w, ((2, 4), (2, 5))))
    else:
        raise ValueError(name)
    return np.array([x, y, z]), np.array(b, dtype=float), groups


def pes_fmin_ref(name: str, phi: float) -> float:
    s, c = math.sin(0.5 * phi), math.cos(0.5 * phi)
    return s * (s + c) if name == "threeplus7" else 4.0 / 3.0 * s


def leggett_from_corr(corr: np.ndarray, groups) -> float:
    return sum(w * abs(sum(corr[i, j] for i, j in terms)) for w, terms in groups)


def pseudospin_leggett(name: str, phi: float, alpha: float, sign: int) -> float:
    A, B, groups = layout_ref(name, phi)
    return leggett_from_corr(A @ tensor_ref(alpha, sign) @ B.T, groups)


def pseudospin_fmin(name: str, phi: float, alpha: float) -> float:
    return math.hypot(*bloch_ref(alpha)) * pes_fmin_ref(name, phi)


def _unit_vectors(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _objective(avg_a: np.ndarray, avg_b: np.ndarray, groups) -> np.ndarray:
    """sum_groups w sum_terms |A(u; a_i) - B(v; b_j)| for each sampled pair."""
    out = np.zeros(avg_a.shape[0])
    for w, terms in groups:
        for i, j in terms:
            out += w * np.abs(avg_a[:, i] - avg_b[:, j])
    return out


def pseudospin_objective_min(name: str, phi: float, alpha: float, rng) -> float:
    """Least bound objective over sampled hidden pairs (u, v)."""
    A, B, groups = layout_ref(name, phi)
    m = np.array(bloch_ref(alpha))
    mb = m * np.array([-1.0, 1.0, 1.0])
    u, v = _unit_vectors(rng, HIDDEN_PAIRS), _unit_vectors(rng, HIDDEN_PAIRS)
    wu = 2.0 * (u @ m)[:, None] * u - m  # m reflected about u
    wv = 2.0 * (v @ mb)[:, None] * v - mb
    return float(_objective(wu @ A.T, wv @ B.T, groups).min())


@lru_cache(maxsize=None)
def threshold_root(name: str, sign: int, phi: float, lo: float = 0.5, hi: float = 10.0) -> float:
    """Last amplitude in [lo, hi] where the unoptimized margin
    L - (4 - |m| f_PES) turns positive, by bisection to 1e-10."""

    def margin(a):
        return pseudospin_leggett(name, phi, a, sign) - 4.0 + pseudospin_fmin(name, phi, a)

    grid = np.linspace(lo, hi, 381)
    vals = [margin(float(a)) for a in grid]
    crossings = [k for k in range(len(grid) - 1) if vals[k] <= 0.0 < vals[k + 1]]
    if not crossings:
        raise ValueError(f"no threshold for {name} sign {sign} at phi {phi}")
    a, b = float(grid[crossings[-1]]), float(grid[crossings[-1] + 1])
    while b - a > 1e-10:
        mid = 0.5 * (a + b)
        if margin(mid) > 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


# -- coefficient-algebra model (on/off and parity) -----------------------------------


def _overlaps(alpha: float) -> np.ndarray:
    """<x alpha | y alpha> for x, y in (+1, -1)."""
    k = math.exp(-2.0 * alpha * alpha)
    return np.array([[1.0, k], [k, 1.0]])


def _elements(family: str, alpha: float) -> np.ndarray:
    """<x alpha| O |y alpha>: on/off O = 1 - 2|0><0|, parity O = -(-1)^n."""
    g = _overlaps(alpha)
    if family == "on_off":
        return g - 2.0 * math.exp(-alpha * alpha)
    return -g[:, ::-1]  # <x a|-(-1)^n|y a> = -<x a|-y a>


def _rotation(theta, phi):
    """Coefficient map of a setting: columns are the images of |a>, |-a>."""
    s, c = np.sin(0.5 * theta), np.cos(0.5 * theta)
    e = np.exp(1j * phi)
    return np.array([[s, e * c], [np.conj(e) * c, -s]])


def _angles(vec) -> tuple:
    return math.acos(max(-1.0, min(1.0, vec[2]))), math.atan2(vec[1], vec[0])


def coefficient_correlation(family: str, alpha: float, sign: int, a, b) -> float:
    """Gram-normalized E(a, b) from setting angles (theta, phi)."""
    nrm = 1.0 / math.sqrt(2.0 * (1.0 + sign * math.exp(-4.0 * alpha * alpha)))
    coeff = np.array([[0.0, nrm], [sign * nrm, 0.0]])
    d = _rotation(*a) @ coeff @ _rotation(*b).T
    m, g = _elements(family, alpha), _overlaps(alpha)
    num = np.sum(np.conj(d) * (m @ d @ m.T)).real
    den = np.sum(np.conj(d) * (g @ d @ g.T)).real
    return float(num / den)


def coefficient_leggett(family: str, alpha: float, sign: int, name: str, phi: float) -> float:
    A, B, groups = layout_ref(name, phi)
    corr = np.array(
        [[coefficient_correlation(family, alpha, sign, _angles(a), _angles(b)) for b in B] for a in A]
    )
    return leggett_from_corr(corr, groups)


def _local_averages(family, alpha, settings, hidden, start) -> np.ndarray:
    """A(u; s) = <c|M|c> / <c|G|c>, c = U(s) U(u) e_party, for every u x s."""
    m, g = _elements(family, alpha), _overlaps(alpha)
    out = np.empty((len(hidden), len(settings)))
    for k, u in enumerate(hidden):
        cu = _rotation(*_angles(u)) @ start
        for i, s in enumerate(settings):
            c = _rotation(*_angles(s)) @ cu
            out[k, i] = (np.conj(c) @ m @ c).real / (np.conj(c) @ g @ c).real
    return out


def coefficient_objective_min(family: str, alpha: float, name: str, phi: float, rng) -> float:
    A, B, groups = layout_ref(name, phi)
    u, v = _unit_vectors(rng, HIDDEN_PAIRS), _unit_vectors(rng, HIDDEN_PAIRS)
    avg_a = _local_averages(family, alpha, A, u, np.array([1.0, 0.0]))
    avg_b = _local_averages(family, alpha, B, v, np.array([0.0, 1.0]))
    return float(_objective(avg_a, avg_b, groups).min())


# -- per-command checks ------------------------------------------------------------


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str):
    return None if cell == "" else float(cell)


def _close(problems, what, got, want, tol=TOL):
    if got is None or not abs(got - want) <= tol:
        problems.append(f"{what}: {got!r} != {want!r} (tol {tol:g})")


def check_row_relations(row: dict, where: str) -> list[str]:
    """margin = L - bound_used, bound_used = 4 - f_min, violated <=> margin > 1e-7."""
    problems = []
    L, bound, margin = _num(row["L"]), _num(row["bound_used"]), _num(row["margin"])
    f_min = _num(row["f_min_corrected"])
    _close(problems, f"{where} margin", margin, L - bound)
    _close(problems, f"{where} bound_used", bound, 4.0 - f_min)
    if not f_min >= 0.0:
        problems.append(f"{where} f_min {f_min} < 0")
    if abs(margin - VIOLATION_TOL) > TOL and (row["violated"] == "true") != (margin > VIOLATION_TOL):
        problems.append(f"{where} violated={row['violated']} at margin {margin}")
    _close(problems, f"{where} f_min_analytic", _num(row["f_min_analytic"]), abs(math.sin(0.5 * float(row["phi"]))))
    return problems


def check_pseudospin_rows(rows, name: str, sign: int, rng, where: str) -> list[str]:
    """Unoptimized pseudo-spin rows: L and f_min against the references, and
    f_min at or below the objective at sampled hidden pairs."""
    problems = []
    for row in rows:
        at = f"{where} row {row['index']}"
        alpha, phi = float(row["alpha"]), float(row["phi"])
        problems += check_row_relations(row, at)
        _close(problems, f"{at} L", _num(row["L"]), pseudospin_leggett(name, phi, alpha, sign))
        f_min = _num(row["f_min_corrected"])
        _close(problems, f"{at} f_min", f_min, pseudospin_fmin(name, phi, alpha))
        sampled = pseudospin_objective_min(name, phi, alpha, rng)
        if not f_min <= sampled + TOL:
            problems.append(f"{at} f_min {f_min} above sampled objective {sampled}")
    return problems


def check_fig4(out_dir: str, rows_reported: int, rng) -> tuple[list[str], int]:
    problems, rows_seen = [], 0
    for alpha in (5, 50):
        rows = read_rows(f"{out_dir}/fig4_alpha{alpha}.csv")
        rows_seen += len(rows)
        if len(rows) != 50:
            problems.append(f"fig4 alpha {alpha}: {len(rows)} rows, expected 50")
        problems += check_pseudospin_rows(rows, "threeplus7", -1, rng, f"fig4 alpha {alpha}")
    if rows_seen != rows_reported:
        problems.append(f"fig4 wrote {rows_seen} rows, summary says {rows_reported}")
    return problems, rows_seen


def check_fig5(out_dir: str, rows_reported: int, n_alpha: int, rng) -> tuple[list[str], int]:
    problems, rows_seen = [], 0
    for sign, tag in ((+1, "plus"), (-1, "minus")):
        unopt = read_rows(f"{out_dir}/fig5_{tag}_unopt.csv")
        opt = read_rows(f"{out_dir}/fig5_{tag}_opt.csv")
        rows_seen += len(unopt) + len(opt)
        if len(unopt) != n_alpha or len(opt) != n_alpha:
            problems.append(f"fig5 {tag}: {len(unopt)}/{len(opt)} rows, expected {n_alpha}")
        problems += check_pseudospin_rows(unopt, "threeplus7", sign, rng, f"fig5 {tag} unopt")
        for u_row, o_row in zip(unopt, opt):
            at = f"fig5 {tag} opt row {o_row['index']}"
            alpha = float(o_row["alpha"])
            problems += check_row_relations(o_row, at)
            _close(problems, f"{at} f_min", _num(o_row["f_min_corrected"]),
                   pseudospin_fmin("threeplus7", float(o_row["phi"]), alpha))
            if not _num(o_row["L"]) >= _num(u_row["L"]) - TOL:
                problems.append(f"{at} optimized L {o_row['L']} below unoptimized {u_row['L']}")
            _close(problems, f"{at} chsh_B", _num(o_row["chsh_B"]), chsh_ref(alpha, sign))
    if rows_seen != rows_reported:
        problems.append(f"fig5 wrote {rows_seen} rows, summary says {rows_reported}")
    return problems, rows_seen


def check_fig3(path: str, alpha: float, phi: float) -> tuple[list[str], int]:
    """One optimized parity ECS- row: relations, and L at or above the
    unoptimized value computed here."""
    rows = read_rows(path)
    if len(rows) != 1:
        return [f"fig3: {len(rows)} rows, expected 1"], len(rows)
    row = rows[0]
    problems = check_row_relations(row, "fig3")
    unopt = coefficient_leggett("parity", alpha, -1, "threeplus7", phi)
    if not _num(row["L"]) >= unopt - TOL:
        problems.append(f"fig3 optimized L {row['L']} below unoptimized {unopt}")
    return problems, 1


def check_threshold(summary: dict, name: str, sign: int, phi: float, tolerance: float, optimized: bool) -> list[str]:
    """Unoptimized: alpha* within tolerance of the reference root.
    Optimized: alpha* at most the unoptimized root plus tolerance."""
    problems = []
    if summary.get("verdict") != "threshold":
        return [f"threshold verdict {summary.get('verdict')!r}"]
    star, (lo, hi) = summary["alpha_star"], summary["bracket"]
    if not (lo <= star <= hi and hi - lo <= tolerance):
        problems.append(f"threshold bracket {lo}..{hi} around {star} wider than {tolerance}")
    root = threshold_root(name, sign, phi)
    if optimized:
        if not star <= root + tolerance:
            problems.append(f"optimized alpha* {star} above unoptimized root {root} + {tolerance}")
    elif not abs(star - root) <= tolerance:
        problems.append(f"alpha* {star} not within {tolerance} of reference root {root}")
    return problems


def check_chsh(summary: dict, family: str, alpha: float, sign: int) -> list[str]:
    """B recomputed from the returned settings, and B <= 2 sqrt 2."""
    problems = []
    a, a2, b, b2 = (tuple(s) for s in summary["settings"])
    E = lambda p, q: coefficient_correlation(family, alpha, sign, p, q)  # noqa: E731
    recomputed = E(a, b) + E(a, b2) + E(a2, b) - E(a2, b2)
    _close(problems, "chsh B", summary["B"], recomputed)
    if not summary["B"] <= TSIRELSON + TOL:
        problems.append(f"chsh B {summary['B']} above 2 sqrt 2")
    if summary["violated"] != (summary["B"] > 2.0):
        problems.append(f"chsh violated={summary['violated']} at B {summary['B']}")
    return problems


def check_bound(summary: dict, family: str, alpha: float, name: str, phi: float, rng) -> list[str]:
    """0 <= f_min <= the objective at sampled hidden pairs."""
    problems = []
    f_min = summary["f_min_corrected"]
    if not f_min >= 0.0:
        problems.append(f"bound f_min {f_min} < 0")
    _close(problems, "bound f_min", f_min, max(summary["f_direct"], summary["f_triangle"]))
    _close(problems, "bound f_min_analytic", summary["f_min_analytic"], abs(math.sin(0.5 * phi)))
    sampled = coefficient_objective_min(family, alpha, name, phi, rng)
    if not f_min <= sampled + TOL:
        problems.append(f"bound f_min {f_min} above sampled objective {sampled}")
    return problems
