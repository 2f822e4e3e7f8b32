"""Command-line front end: deterministic sweeps, thresholds, and figure data.

Commands and the flags each one reads
-------------------------------------
scan-phi    sweep the inequality parameter phi at fixed amplitude
            --state --family --layout --alpha --phi --bound --optimize
            --independent-rotations --starts --seed --output --format --svg
scan-alpha  sweep the state amplitude alpha at fixed phi
            --state --family --layout --alpha --phi --bound --optimize
            --independent-rotations --starts --seed --output --format --svg
threshold   bisection for the violation-threshold amplitude
            --state --family --layout --phi --bound --optimize
            --independent-rotations --starts --seed --tolerance --output
chsh        CHSH value (canonical settings or optimized)
            --state --family --alpha --optimize --starts --seed --output
bound       bound term f_min for one layout/model/phi
            --state --family --layout --alpha --phi --starts --seed --output
reproduce   preset sweeps behind the figure data (fig3..fig6)
            --alpha --phi --independent-rotations --starts --seed --output --svg

The layouts of --layout are the Leggett inequalities original, threeplus7
(3p7) and threeplus6 (3p6).  The commands scan-phi, scan-alpha and bound
take all three, and the command threshold takes threeplus7 and threeplus6,
the layouts with a threshold phi.  The state-corrected bound covers
threeplus7 and threeplus6 only, so scan-phi and scan-alpha take original
only with --bound analytic, and bound reports no corrected f_min for it.
The command chsh takes no layout: it evaluates B at fixed canonical
settings, or optimizes them with --optimize.  A layout that its command
does not take exits 2.

A flag that its command does not read exits 2 ("unrecognized arguments"),
and so does --independent-rotations on reproduce fig4 and fig6, which never
optimize.  argv is the only input: a flag not given keeps the built-in
default (RunConfig's), so identical argv gives byte-identical output; the
seed, a whole number of at least 0, is --seed, else 0.  A lo:hi:step range
of more than MAX_RANGE_POINTS points exits 2 before any point is built, and
so does a range or single --alpha or --phi value that is not finite.  A
--tolerance below THRESHOLD_MIN_TOLERANCE (3.55e-15), the narrowest width
the threshold bisection can always reach, exits 2 when the arguments are
parsed.

The argument parser is built once per process and shared by every call of
:func:`parse_args` and :func:`run`; nothing changes it.  Its subparsers put
a flag in the namespace only when it is given, so RunConfig holds the one
set of defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import operator
import os
import sys

from .correlations import ECS_FAMILIES, PES_FAMILY
from .geometry import build_layout
from .inequality import STATE_CORRECTED_LAYOUTS, analytic_fmin, chsh_at_layout
from .optimize import (
    DEFAULT_THRESHOLD_PHI,
    THRESHOLD_MIN_TOLERANCE,
    ConvergenceError,
    ScanTask,
    SearchConfig,
    SweepRecord,
    _model,
    numeric_fmin,
    optimize_chsh,
    scan,
    threshold_alpha,
)
from .util import fmt12

LAYOUT_ALIASES = {
    "original": "original",
    "3p7": "threeplus7",
    "threeplus7": "threeplus7",
    "3p6": "threeplus6",
    "threeplus6": "threeplus6",
}
STATES = ("pes", "ecs+", "ecs-")

CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRecord))
_COLUMN_VALUES = operator.attrgetter(*CSV_COLUMNS)  # a record's values in column order
MAX_RANGE_POINTS = 10_000  # every grid point is a full evaluation; fig6's default grid has 70


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed command configuration; a flag its command does not give keeps the default here."""

    command: str
    state: str = "pes"
    family: str = "pseudo_spin"
    layout: str = "threeplus6"
    alpha: str = ""
    phi: str = ""
    bound: str = "corrected"
    optimize: bool = False
    shared: bool = True
    starts: int = 32
    seed: int = 0
    tolerance: float = 1e-3
    figure: str = ""
    output: str = ""
    fmt: str = "csv"
    svg: bool = False


def parse_range(text: str) -> list[float]:
    """'lo:hi:step' inclusive of lo, exclusive of hi + step/2; a plain number
    gives a single-point grid.  Every number must be finite.  Index-based so
    grids carry no accumulation drift.  The grid holds the i with
    i < (hi - lo) / step + 1/2, so a range of more than MAX_RANGE_POINTS
    points raises ValueError before any point is built."""
    pieces = text.split(":")
    if len(pieces) not in (1, 3):
        raise ValueError(f"range must be lo:hi:step, got {text!r}")
    values = [float(p) for p in pieces]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"range numbers must be finite, got {text!r}")
    if len(values) == 1:
        return values
    lo, hi, step = values
    if step <= 0:
        raise ValueError("range step must be positive")
    if (hi - lo) / step + 0.5 > MAX_RANGE_POINTS:
        raise ValueError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    out = []
    i = 0
    while True:
        v = lo + i * step
        if v >= hi + 0.5 * step:
            break
        out.append(v)
        i += 1
    if not out:
        raise ValueError(f"range {text!r} has no points")
    return out


def _whole_number(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least {least}, got {text!r}")
    return value


def _starts(text: str) -> int:
    """--starts: a whole number of at least 1."""
    return _whole_number(text, 1)


def _seed(text: str) -> int:
    """--seed: a whole number of at least 0, as numpy's generators take."""
    return _whole_number(text, 0)


def _tolerance(text: str) -> float:
    """--tolerance: a finite width of at least THRESHOLD_MIN_TOLERANCE, the
    narrowest that the threshold bisection can reach."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= THRESHOLD_MIN_TOLERANCE):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of at least {THRESHOLD_MIN_TOLERANCE!r}, got {text!r}"
        )
    return value


# every flag and its add_argument keywords; a flag a command does not give
# stays out of the namespace, so RunConfig holds the one set of defaults
_OPTIONS = {
    "--state": dict(choices=STATES),
    "--family": dict(choices=ECS_FAMILIES),
    "--layout": dict(choices=sorted(LAYOUT_ALIASES)),
    "--alpha": dict(help="value or lo:hi:step"),
    "--phi": dict(help="value or lo:hi:step"),
    "--bound": dict(choices=("corrected", "analytic")),
    "--optimize": dict(action="store_true"),
    "--independent-rotations": dict(dest="shared", action="store_false",
                                    help="rotate the two parties independently (default: one shared rotation)"),
    "--starts": dict(type=_starts),
    "--seed": dict(type=_seed),
    "--tolerance": dict(type=_tolerance),
    "--output": dict(),
    "--format": dict(dest="fmt", choices=("csv", "json")),
    "--svg": dict(action="store_true", help="also emit an SVG plot"),
}

# the flags each command reads (the module docstring lists the same)
_SCAN_FLAGS = ("--state", "--family", "--layout", "--alpha", "--phi", "--bound", "--optimize",
               "--independent-rotations", "--starts", "--seed", "--output", "--format", "--svg")
FLAGS = {
    "scan-phi": _SCAN_FLAGS,
    "scan-alpha": _SCAN_FLAGS,
    "threshold": ("--state", "--family", "--layout", "--phi", "--bound", "--optimize",
                  "--independent-rotations", "--starts", "--seed", "--tolerance", "--output"),
    "chsh": ("--state", "--family", "--alpha", "--optimize", "--starts", "--seed", "--output"),
    "bound": ("--state", "--family", "--layout", "--alpha", "--phi", "--starts", "--seed", "--output"),
    "reproduce": ("--alpha", "--phi", "--independent-rotations", "--starts", "--seed", "--output", "--svg"),
}


# keywords that one command's flag takes over its _OPTIONS entry: threshold
# bisects only the layouts with a threshold phi
_COMMAND_OPTIONS = {
    ("threshold", "--layout"): dict(
        choices=sorted(alias for alias, name in LAYOUT_ALIASES.items() if name in DEFAULT_THRESHOLD_PHI)
    ),
}


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparser per command: built once, never changed."""
    parser = argparse.ArgumentParser(
        prog="leggett-lab",
        description="Leggett/CHSH inequality laboratory for entangled coherent states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, flags in FLAGS.items():
        commands[name] = p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        if name == "reproduce":
            p.add_argument("figure", choices=("fig3", "fig4", "fig5", "fig6"))
        for flag in flags:
            p.add_argument(flag, **{**_OPTIONS[flag], **_COMMAND_OPTIONS.get((name, flag), {})})
    return parser, commands


def parse_args(argv) -> RunConfig:
    parser, commands = _shared_parser()
    fields = vars(parser.parse_args(argv))
    if fields.get("figure") in _FIXED_SETTINGS_FIGURES and not fields.get("shared", True):
        commands["reproduce"].error(f"argument --independent-rotations: reproduce {fields['figure']} never optimizes")
    if "layout" in fields:
        fields["layout"] = LAYOUT_ALIASES[fields["layout"]]
    cfg = RunConfig(**fields)
    if (cfg.command in ("scan-phi", "scan-alpha") and cfg.bound == "corrected"
            and cfg.layout not in STATE_CORRECTED_LAYOUTS):
        commands[cfg.command].error(
            f"argument --layout: {cfg.layout} has no state-corrected bound; give --bound analytic")
    return cfg


# -- output ----------------------------------------------------------------------


def _record_cells(r: SweepRecord) -> list[str]:
    return [fmt12(value) for value in _COLUMN_VALUES(r)]


def write_csv(path: str, records) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_record_cells(r)) for r in records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _records_json(records) -> list[dict]:
    return [dict(zip(CSV_COLUMNS, _COLUMN_VALUES(r))) for r in records]


def _write_records(path: str, records, variable: str, title: str, fmt: str = "csv", svg: bool = False) -> list[str]:
    """The rows of a sweep over variable ("phi" or "alpha") as CSV or JSON at
    path, and with svg their plot against variable next to it; the paths written."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_records_json(records), fh, sort_keys=True)
            fh.write("\n")
    else:
        write_csv(path, records)
    if not svg:
        return [path]
    from .svg import line_chart

    xs = [getattr(r, variable) for r in records]
    series = [
        ("L", xs, [r.L for r in records]),
        ("bound", xs, [r.bound_used for r in records]),
    ]
    if any(r.chsh_B is not None for r in records):
        series.append(("CHSH", xs, [r.chsh_B or 0.0 for r in records]))
    svg_path = os.path.splitext(path)[0] + ".svg"
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line_chart(series, title=title, x_label=variable))
    return [path, svg_path]


def _model_args(cfg: RunConfig):
    if cfg.state == "pes":
        return PES_FAMILY, 0
    return cfg.family, +1 if cfg.state == "ecs+" else -1


def _task(cfg: RunConfig, alpha: float | None = None, phi: float | None = None) -> ScanTask:
    family, sign = _model_args(cfg)
    return ScanTask(
        layout_name=cfg.layout,
        family=family,
        sign=sign,
        alpha=alpha,
        phi=phi,
        bound_mode=_bound_mode(cfg),
        optimize=cfg.optimize,
        shared=cfg.shared,
        include_chsh=False,
        starts=cfg.starts,
        seed=cfg.seed,
    )


# -- commands --------------------------------------------------------------------


def _bound_mode(cfg: RunConfig) -> str:
    return "state_corrected" if cfg.bound == "corrected" else "analytic2d"


def _cmd_scan(cfg: RunConfig):
    """scan-phi at a fixed amplitude, or scan-alpha at a fixed phi."""
    if cfg.command == "scan-phi":
        variable, grid = "phi", parse_range(cfg.phi or "0:1.2:0.05")
        if cfg.state != "pes" and not cfg.alpha:
            raise ValueError(f"scan-phi with --state {cfg.state} needs --alpha")
        task = _task(cfg, alpha=float(cfg.alpha) if cfg.alpha else None)
    else:
        variable, grid = "alpha", parse_range(cfg.alpha or "0.5:10:0.5")
        task = _task(cfg, phi=float(cfg.phi) if cfg.phi else DEFAULT_THRESHOLD_PHI.get(cfg.layout, 0.5))
    records = scan(variable, grid, task)
    stem = f"scan_{variable}"
    outputs = _write_records(cfg.output or f"{stem}.{cfg.fmt}", records, variable, stem, cfg.fmt, cfg.svg)
    best = max(records, key=lambda r: r.margin)
    return {
        "command": cfg.command,
        "outputs": outputs,
        "rows": len(records),
        "seed": cfg.seed,
        f"argmax_{variable}": getattr(best, variable),
        "max_margin": best.margin,
    }


def _write_summary(cfg: RunConfig, **fields) -> dict:
    """The summary of a command that writes no rows; with --output it is also
    written there as JSON (with outputs still empty)."""
    summary = {"command": cfg.command, "outputs": [], "rows": 0, "seed": cfg.seed, **fields}
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, sort_keys=True)
            fh.write("\n")
        summary["outputs"] = [cfg.output]
    return summary


def _cmd_threshold(cfg: RunConfig):
    res = threshold_alpha(_task(cfg, phi=float(cfg.phi) if cfg.phi else None), cfg.tolerance)
    return _write_summary(
        cfg,
        verdict=res.verdict,
        alpha_star=res.alpha_star,
        bracket=list(res.bracket),
        evaluations=res.evaluations,
    )


def _cmd_chsh(cfg: RunConfig):
    family, sign = _model_args(cfg)
    model = _model(family, sign, float(cfg.alpha) if cfg.alpha else 1.0)
    if cfg.optimize:
        ev = optimize_chsh(model, SearchConfig(cfg.starts, cfg.seed))
    else:
        ev = chsh_at_layout(model)
    return _write_summary(cfg, B=ev.B, violated=ev.violated, settings=[[d.theta, d.phi] for d in ev.settings])


def _cmd_bound(cfg: RunConfig):
    phi = float(cfg.phi) if cfg.phi else 0.5
    layout = build_layout(cfg.layout, phi)
    family, sign = _model_args(cfg)
    model = _model(family, sign, float(cfg.alpha) if cfg.alpha else 1.0)
    fields = {"phi": phi, "f_min_analytic": analytic_fmin(cfg.layout, phi),
              "f_min_corrected": None, "f_direct": None, "f_triangle": None}
    if cfg.layout in STATE_CORRECTED_LAYOUTS:
        res = numeric_fmin(model, layout, SearchConfig(cfg.starts, cfg.seed))
        fields.update(f_min_corrected=res.f_min, f_direct=res.f_direct, f_triangle=res.f_triangle)
    return _write_summary(cfg, **fields)


# -- figure presets ----------------------------------------------------------------

# the phi scans of the figures, one per amplitude (ECS-, state-corrected bound):
# figure -> (layout, family, optimize, default phi grid, CSV name prefix)
_PHI_SCANS = {
    "fig3": ("threeplus7", "parity", True, "0.05:1.0:0.05", "fig3_alpha"),
    "fig4": ("threeplus7", "pseudo_spin", False, "0.02:1.0:0.02", "fig4_alpha"),
    "fig6": ("threeplus6", "pseudo_spin", False, "0.02:1.4:0.02", "fig6_phiscan_alpha"),
}
_FIXED_SETTINGS_FIGURES = ("fig4", "fig6")  # they never optimize, so no --independent-rotations


def _cmd_reproduce(cfg: RunConfig):
    outdir = cfg.output or "."
    alphas = parse_range(cfg.alpha) if cfg.alpha else None
    sweeps = []  # (CSV name, scan variable, grid, task)
    # every sweep is pseudo-spin ECS- unless it says otherwise, with the run's rotations, starts and seed
    base = ScanTask("threeplus7", family="pseudo_spin", sign=-1, shared=cfg.shared, starts=cfg.starts, seed=cfg.seed)
    if cfg.figure in _PHI_SCANS:
        layout, family, optimize, default_phis, prefix = _PHI_SCANS[cfg.figure]
        phis = parse_range(cfg.phi or default_phis)
        for alpha in alphas or [5.0, 50.0]:
            task = dataclasses.replace(base, layout_name=layout, family=family, alpha=alpha, optimize=optimize)
            sweeps.append((f"{prefix}{alpha:g}.csv", "phi", phis, task))
    if cfg.figure == "fig5":
        grid = alphas or parse_range("0.4:10:0.4")
        phi = float(cfg.phi) if cfg.phi else DEFAULT_THRESHOLD_PHI["threeplus7"]
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            for optimize, opt_tag in ((False, "unopt"), (True, "opt")):
                task = dataclasses.replace(base, sign=sign, phi=phi, optimize=optimize, include_chsh=optimize)
                sweeps.append((f"fig5_{tag}_{opt_tag}.csv", "alpha", grid, task))
    if cfg.figure == "fig6":
        task = dataclasses.replace(
            base, layout_name="threeplus6", phi=DEFAULT_THRESHOLD_PHI["threeplus6"], include_chsh=True
        )
        sweeps.append(("fig6_alphascan.csv", "alpha", alphas or parse_range("0.4:10:0.4"), task))
    os.makedirs(outdir, exist_ok=True)
    outputs = []
    rows = 0
    for name, variable, grid, task in sweeps:
        records = scan(variable, grid, task)
        outputs += _write_records(os.path.join(outdir, name), records, variable, name, svg=cfg.svg)
        rows += len(records)
    return {
        "command": cfg.command,
        "figure": cfg.figure,
        "outputs": outputs,
        "rows": rows,
        "seed": cfg.seed,
    }


_DISPATCH = {
    "scan-phi": _cmd_scan,
    "scan-alpha": _cmd_scan,
    "threshold": _cmd_threshold,
    "chsh": _cmd_chsh,
    "bound": _cmd_bound,
    "reproduce": _cmd_reproduce,
}


def run(argv) -> int:
    """Entry point; returns the process exit code: 0 ok, 1 a search that did
    not settle (ConvergenceError), 2 argument errors."""
    try:
        cfg = parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        summary = _DISPATCH[cfg.command](cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
