"""The three workloads: fixed lists of ``leggett-lab`` commands.

A command is one operation.  Each workload round runs its commands once, in
order, and a run repeats whole rounds.  The workload seed is passed to every
command as ``--seed``, except to the one command that is kept because it
stops on the ``ConvergenceError`` of ``numeric_fmin`` (``Op.fault``): it runs
on fixed inputs, at the program's default seed ``FAULT_SEED``, so that it
fails in every run.  It stopped at every seed tried, and each command that
takes the workload seed passed at every seed tried (``README.md``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

FAULT_SEED = 0
FIG5_ALPHAS = "0.8:2.4:0.8"  # three amplitudes
# (family, alpha, phi) of the coefficient_search bound commands
BOUND_POINTS = (("on_off", 5, 0.25), ("on_off", 5, 0.5), ("parity", 3, 0.75), ("parity", 5, 0.75))
THRESHOLD_TOLERANCE = 1e-3
THRESHOLD_PHI = {"3p7": ("threeplus7", 0.2507), "3p6": ("threeplus6", 2.0 * math.atan(1.0 / 3.0))}


@dataclass(frozen=True)
class Op:
    """One CLI command and what its output is checked against."""

    kind: str  # fig4 | fig5 | fig3 | threshold | chsh | bound
    argv: tuple
    params: dict = field(default_factory=dict)
    out: str = ""  # directory a reproduce command writes
    fault: bool = False  # expected to stop on the ConvergenceError of numeric_fmin

    @property
    def label(self) -> str:
        """The command without its output path."""
        argv = list(self.argv)
        if "--output" in argv:
            k = argv.index("--output")
            del argv[k : k + 2]
        return " ".join(argv)


WORKLOADS = ("closed_form", "pseudospin_search", "coefficient_search")


def _threshold(seed, layout, state, optimize):
    argv = ["threshold", "--layout", layout, "--state", state, "--tolerance", str(THRESHOLD_TOLERANCE),
            "--seed", str(seed)]
    if optimize:
        argv.append("--optimize")
    name, phi = THRESHOLD_PHI[layout]
    sign = -1 if state == "ecs-" else +1
    params = {"layout": name, "sign": sign, "phi": phi, "tolerance": THRESHOLD_TOLERANCE, "optimized": optimize}
    return Op("threshold", tuple(argv), params)


def closed_form(seed: int, work: str) -> list[Op]:
    """fig4 on its default grid and the four unoptimized thresholds."""
    fig4 = os.path.join(work, "fig4")
    ops = [Op("fig4", ("reproduce", "fig4", "--seed", str(seed), "--output", fig4), out=fig4)]
    for layout in ("3p7", "3p6"):
        for state in ("ecs-", "ecs+"):
            ops.append(_threshold(seed, layout, state, optimize=False))
    return ops


def pseudospin_search(seed: int, work: str) -> list[Op]:
    """fig5 on a reduced amplitude grid and the optimized thresholds."""
    fig5 = os.path.join(work, "fig5")
    argv = ("reproduce", "fig5", "--alpha", FIG5_ALPHAS, "--seed", str(seed), "--output", fig5)
    ops = [Op("fig5", argv, {"n_alpha": 3}, out=fig5)]
    for layout in ("3p7", "3p6"):
        ops.append(_threshold(seed, layout, "ecs-", optimize=True))
    return ops


def coefficient_search(seed: int, work: str) -> list[Op]:
    """On/off and parity ECS- at alpha 3 and 5: bound on a few phi, parity
    CHSH, and fig3 at one phi, which stops on the named fault."""
    ops = []
    for family, alpha, phi in BOUND_POINTS:
        argv = ("bound", "--layout", "3p7", "--state", "ecs-", "--family", family,
                "--alpha", str(alpha), "--phi", str(phi), "--seed", str(seed))
        ops.append(Op("bound", argv, {"family": family, "alpha": alpha, "phi": phi}))
    argv = ("chsh", "--state", "ecs-", "--family", "parity", "--alpha", "3", "--optimize", "--starts", "8",
            "--seed", str(seed))
    ops.append(Op("chsh", argv, {"family": "parity", "alpha": 3, "sign": -1}))
    path = os.path.join(work, "fig3")
    argv = ("reproduce", "fig3", "--alpha", "5", "--phi", "0.25", "--seed", str(FAULT_SEED), "--output", path)
    ops.append(Op("fig3", argv, {"alpha": 5.0, "phi": 0.25}, out=path, fault=True))
    return ops


def build(workload: str, seed: int, work: str) -> list[Op]:
    return {"closed_form": closed_form, "pseudospin_search": pseudospin_search,
            "coefficient_search": coefficient_search}[workload](seed, work)
