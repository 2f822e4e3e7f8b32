"""Command-line front end: deterministic sweeps, thresholds, and figure data.

Commands
--------
scan-phi    sweep the inequality parameter phi at fixed amplitude
scan-alpha  sweep the state amplitude alpha at fixed phi
threshold   bisection for the violation-threshold amplitude
chsh        CHSH value (canonical settings or optimized)
bound       bound term f_min for one layout/model/phi
reproduce   preset sweeps behind the figure data (fig3..fig6)

Identical argv and seed give byte-identical CSV output.  The default seed
comes from the LEGGETT_LAB_SEED environment variable (0 if unset).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .errors import LeggettLabError
from .geometry import build_layout
from .inequality import analytic_fmin, chsh_at_layout, evaluate_leggett
from .correlations import ecs_model, pes_model
from .optimize import (
    DEFAULT_THRESHOLD_PHI,
    ScanTask,
    SearchConfig,
    SweepRecord,
    numeric_fmin,
    optimize_chsh,
    scan,
    threshold_alpha,
)
from .util import fmt12, stable_seed

LAYOUT_ALIASES = {
    "original": "original",
    "3p7": "threeplus7",
    "threeplus7": "threeplus7",
    "3p6": "threeplus6",
    "threeplus6": "threeplus6",
    "chsh": "chsh",
}
STATES = ("pes", "ecs+", "ecs-")
FAMILIES = ("pseudo_spin", "on_off", "parity")
COMMANDS = ("scan-phi", "scan-alpha", "threshold", "chsh", "bound", "reproduce")

CSV_COLUMNS = (
    "index",
    "alpha",
    "phi",
    "L",
    "f_min_corrected",
    "f_min_analytic",
    "bound_used",
    "chsh_B",
    "margin",
    "violated",
    "starts",
    "seed",
)


@dataclass(frozen=True)
class RunConfig:
    """Parsed command configuration."""

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
    """'lo:hi:step' inclusive of lo, exclusive of hi + step/2; plain numbers
    give a single-point grid.  Index-based so grids carry no accumulation
    drift."""
    if ":" not in text:
        return [float(text)]
    pieces = text.split(":")
    if len(pieces) != 3:
        raise ValueError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in pieces)
    if step <= 0:
        raise ValueError("range step must be positive")
    out = []
    i = 0
    while True:
        v = lo + i * step
        if v >= hi + 0.5 * step:
            break
        out.append(v)
        i += 1
    return out


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line must be 'key = value': {raw!r}")
            key, val = (p.strip() for p in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leggett-lab",
        description="Leggett/CHSH inequality laboratory for entangled coherent states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_layout=True):
        p.add_argument("--config", default="", help="key = value defaults file")
        p.add_argument("--state", choices=STATES, default="pes")
        p.add_argument("--family", choices=FAMILIES, default="pseudo_spin")
        if needs_layout:
            p.add_argument("--layout", choices=sorted(LAYOUT_ALIASES), default="3p6")
        p.add_argument("--alpha", default="", help="value or lo:hi:step")
        p.add_argument("--phi", default="", help="value or lo:hi:step")
        p.add_argument("--bound", choices=("corrected", "analytic"), default="corrected")
        p.add_argument("--optimize", action="store_true")
        p.add_argument("--independent-rotations", dest="shared", action="store_false",
                       help="rotate the two parties independently (default: one shared rotation)")
        p.add_argument("--starts", type=int, default=32)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tolerance", type=float, default=1e-3)
        p.add_argument("--output", default="")
        p.add_argument("--format", dest="fmt", choices=("csv", "json", "svg"), default="csv")
        p.add_argument("--svg", action="store_true", help="also emit an SVG plot")

    for name in ("scan-phi", "scan-alpha", "threshold", "chsh", "bound"):
        common(sub.add_parser(name))
    rep = sub.add_parser("reproduce")
    rep.add_argument("figure", choices=("fig3", "fig4", "fig5", "fig6"))
    common(rep)
    return parser


def parse_args(argv) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    overrides = _read_config_file(ns.config) if ns.config else {}

    def pick(name, cast=str):
        flag = getattr(ns, name, None)
        default = parser.get_default(name) if name != "figure" else ""
        if flag is not None and flag != default:
            return flag
        if name in overrides:
            val = overrides[name]
            if cast is bool:
                return val.lower() in ("1", "true", "yes", "on")
            return cast(val)
        return flag if flag is not None else default

    seed = ns.seed
    if seed is None:
        seed = overrides.get("seed")
    if seed is None:
        seed = os.environ.get("LEGGETT_LAB_SEED", "0")
    layout = pick("layout") if hasattr(ns, "layout") else "3p6"
    return RunConfig(
        command=ns.command,
        state=pick("state"),
        family=pick("family"),
        layout=LAYOUT_ALIASES[layout],
        alpha=str(pick("alpha")),
        phi=str(pick("phi")),
        bound=pick("bound"),
        optimize=bool(pick("optimize", bool)),
        shared=bool(pick("shared", bool)),
        starts=int(pick("starts", int)),
        seed=int(seed),
        tolerance=float(pick("tolerance", float)),
        figure=getattr(ns, "figure", ""),
        output=pick("output"),
        fmt=pick("fmt"),
        svg=bool(pick("svg", bool)),
    )


# -- output ----------------------------------------------------------------------


def _record_cells(r: SweepRecord) -> list[str]:
    return [
        fmt12(r.index),
        fmt12(r.alpha),
        fmt12(r.phi),
        fmt12(r.L),
        fmt12(r.f_min_corrected),
        fmt12(r.f_min_analytic),
        fmt12(r.bound_used),
        fmt12(r.chsh_B),
        fmt12(r.margin),
        fmt12(r.violated),
        fmt12(r.starts),
        fmt12(r.seed),
    ]


def write_csv(path: str, records) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_record_cells(r)) for r in records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _records_json(records) -> list[dict]:
    return [{col: getattr(r, col) for col in CSV_COLUMNS} for r in records]


def _write_records(cfg: RunConfig, records, stem: str) -> list[str]:
    outputs = []
    base = cfg.output or f"{stem}.{ 'json' if cfg.fmt == 'json' else 'csv' }"
    if cfg.fmt == "json":
        with open(base, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_records_json(records), fh, sort_keys=True)
            fh.write("\n")
    else:
        write_csv(base, records)
    outputs.append(base)
    if cfg.svg or cfg.fmt == "svg":
        from .svg import line_chart

        xs = [r.phi if cfg.command == "scan-phi" else r.alpha for r in records]
        series = [
            ("L", xs, [r.L for r in records]),
            ("bound", xs, [r.bound_used for r in records]),
        ]
        if any(r.chsh_B is not None for r in records):
            series.append(("CHSH", xs, [r.chsh_B or 0.0 for r in records]))
        svg_path = os.path.splitext(base)[0] + ".svg"
        with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(line_chart(series, title=stem, x_label="phi" if cfg.command == "scan-phi" else "alpha"))
        outputs.append(svg_path)
    return outputs


def _model_args(cfg: RunConfig):
    if cfg.state == "pes":
        return "qubit_projective", 0
    return cfg.family, +1 if cfg.state == "ecs+" else -1


def _task(cfg: RunConfig, alpha: float | None = None, phi: float | None = None) -> ScanTask:
    family, sign = _model_args(cfg)
    return ScanTask(
        layout_name=cfg.layout,
        family=family,
        sign=sign,
        alpha=alpha,
        phi=phi,
        bound_mode="state_corrected" if cfg.bound == "corrected" else "analytic2d",
        optimize=cfg.optimize,
        shared=cfg.shared,
        include_chsh=False,
        starts=cfg.starts,
        seed=cfg.seed,
    )


# -- commands --------------------------------------------------------------------


def _cmd_scan_phi(cfg: RunConfig):
    grid = parse_range(cfg.phi or "0:1.2:0.05")
    alpha = float(cfg.alpha) if cfg.alpha else None
    records = scan("phi", grid, _task(cfg, alpha=alpha))
    outputs = _write_records(cfg, records, "scan_phi")
    best = max(records, key=lambda r: r.margin)
    return {
        "command": cfg.command,
        "outputs": outputs,
        "rows": len(records),
        "seed": cfg.seed,
        "argmax_phi": best.phi,
        "max_margin": best.margin,
    }


def _cmd_scan_alpha(cfg: RunConfig):
    grid = parse_range(cfg.alpha or "0.5:10:0.5")
    phi = float(cfg.phi) if cfg.phi else DEFAULT_THRESHOLD_PHI.get(cfg.layout, 0.5)
    task = _task(cfg, phi=phi)
    records = scan("alpha", grid, task)
    outputs = _write_records(cfg, records, "scan_alpha")
    best = max(records, key=lambda r: r.margin)
    return {
        "command": cfg.command,
        "outputs": outputs,
        "rows": len(records),
        "seed": cfg.seed,
        "argmax_alpha": best.alpha,
        "max_margin": best.margin,
    }


def _cmd_threshold(cfg: RunConfig):
    family, sign = _model_args(cfg)
    phi = float(cfg.phi) if cfg.phi else None
    res = threshold_alpha(
        family,
        sign,
        cfg.layout,
        optimized=cfg.optimize,
        tolerance=cfg.tolerance,
        phi=phi,
        seed=cfg.seed,
        starts=cfg.starts,
        shared=cfg.shared,
        bound_mode="state_corrected" if cfg.bound == "corrected" else "analytic2d",
    )
    summary = {
        "command": cfg.command,
        "outputs": [],
        "rows": 0,
        "seed": cfg.seed,
        "verdict": res.verdict,
        "alpha_star": res.alpha_star,
        "bracket": list(res.bracket),
        "evaluations": res.evaluations,
    }
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, sort_keys=True)
            fh.write("\n")
        summary["outputs"] = [cfg.output]
    return summary


def _cmd_chsh(cfg: RunConfig):
    family, sign = _model_args(cfg)
    alpha = float(cfg.alpha) if cfg.alpha else 1.0
    model = pes_model() if cfg.state == "pes" else ecs_model(alpha, sign, cfg.family)
    if cfg.optimize:
        ccfg = SearchConfig(
            ranges=((0.0, math.pi), (-math.pi, math.pi)) * 4,
            starts=cfg.starts,
            seed=cfg.seed,
        )
        ev = optimize_chsh(model, ccfg)
    else:
        ev = chsh_at_layout(model)
    summary = {
        "command": cfg.command,
        "outputs": [],
        "rows": 0,
        "seed": cfg.seed,
        "B": ev.B,
        "violated": ev.violated,
        "settings": [[d.theta, d.phi] for d in ev.settings],
    }
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, sort_keys=True)
            fh.write("\n")
        summary["outputs"] = [cfg.output]
    return summary


def _cmd_bound(cfg: RunConfig):
    phi = float(cfg.phi) if cfg.phi else 0.5
    layout = build_layout(cfg.layout, phi)
    family, sign = _model_args(cfg)
    alpha = float(cfg.alpha) if cfg.alpha else 1.0
    model = pes_model() if cfg.state == "pes" else ecs_model(alpha, sign, cfg.family)
    summary = {
        "command": cfg.command,
        "outputs": [],
        "rows": 0,
        "seed": cfg.seed,
        "phi": phi,
        "f_min_analytic": None,
        "f_min_corrected": None,
        "f_direct": None,
        "f_triangle": None,
    }
    try:
        summary["f_min_analytic"] = analytic_fmin(cfg.layout, phi)
    except ValueError:
        pass
    if cfg.layout in ("threeplus7", "threeplus6"):
        bcfg = SearchConfig(
            ranges=((0.0, math.pi), (-math.pi, math.pi)) * 2,
            starts=cfg.starts,
            seed=cfg.seed,
        )
        res = numeric_fmin(model, layout, bcfg)
        summary["f_min_corrected"] = res.f_min
        summary["f_direct"] = res.f_direct
        summary["f_triangle"] = res.f_triangle
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, sort_keys=True)
            fh.write("\n")
        summary["outputs"] = [cfg.output]
    return summary


# -- figure presets ----------------------------------------------------------------


def _cmd_reproduce(cfg: RunConfig):
    outdir = cfg.output or "."
    os.makedirs(outdir, exist_ok=True)
    outputs = []
    rows = 0
    alphas = parse_range(cfg.alpha) if cfg.alpha else None

    def emit(name, records):
        nonlocal rows
        path = os.path.join(outdir, name)
        write_csv(path, records)
        outputs.append(path)
        rows += len(records)
        if cfg.svg:
            from .svg import line_chart

            xs = [r.phi if r.alpha is None or len({q.alpha for q in records}) == 1 else r.alpha for r in records]
            svg_path = os.path.splitext(path)[0] + ".svg"
            with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(
                    line_chart(
                        [("L", xs, [r.L for r in records]), ("bound", xs, [r.bound_used for r in records])],
                        title=name,
                    )
                )
            outputs.append(svg_path)

    if cfg.figure == "fig3":
        phis = parse_range(cfg.phi) if cfg.phi else parse_range("0.05:1.0:0.05")
        for alpha in alphas or [5.0, 50.0]:
            task = ScanTask(
                "threeplus7",
                family="parity",
                sign=-1,
                alpha=alpha,
                bound_mode="state_corrected",
                optimize=True,
                shared=cfg.shared,
                starts=cfg.starts,
                seed=cfg.seed,
            )
            emit(f"fig3_alpha{alpha:g}.csv", scan("phi", phis, task))
    elif cfg.figure == "fig4":
        phis = parse_range(cfg.phi) if cfg.phi else parse_range("0.02:1.0:0.02")
        for alpha in alphas or [5.0, 50.0]:
            task = ScanTask(
                "threeplus7",
                family="pseudo_spin",
                sign=-1,
                alpha=alpha,
                bound_mode="state_corrected",
                starts=cfg.starts,
                seed=cfg.seed,
            )
            emit(f"fig4_alpha{alpha:g}.csv", scan("phi", phis, task))
    elif cfg.figure == "fig5":
        grid = alphas or parse_range("0.4:10:0.4")
        phi = float(cfg.phi) if cfg.phi else DEFAULT_THRESHOLD_PHI["threeplus7"]
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            for optimize, opt_tag in ((False, "unopt"), (True, "opt")):
                task = ScanTask(
                    "threeplus7",
                    family="pseudo_spin",
                    sign=sign,
                    phi=phi,
                    bound_mode="state_corrected",
                    optimize=optimize,
                    shared=cfg.shared,
                    include_chsh=optimize,
                    starts=cfg.starts,
                    seed=cfg.seed,
                )
                emit(f"fig5_{tag}_{opt_tag}.csv", scan("alpha", grid, task))
    elif cfg.figure == "fig6":
        phis = parse_range(cfg.phi) if cfg.phi else parse_range("0.02:1.4:0.02")
        for alpha in alphas or [5.0, 50.0]:
            task = ScanTask(
                "threeplus6",
                family="pseudo_spin",
                sign=-1,
                alpha=alpha,
                bound_mode="state_corrected",
                starts=cfg.starts,
                seed=cfg.seed,
            )
            emit(f"fig6_phiscan_alpha{alpha:g}.csv", scan("phi", phis, task))
        grid = alphas or parse_range("0.4:10:0.4")
        task = ScanTask(
            "threeplus6",
            family="pseudo_spin",
            sign=-1,
            phi=DEFAULT_THRESHOLD_PHI["threeplus6"],
            bound_mode="state_corrected",
            include_chsh=True,
            starts=cfg.starts,
            seed=cfg.seed,
        )
        emit("fig6_alphascan.csv", scan("alpha", grid, task))
    return {
        "command": cfg.command,
        "figure": cfg.figure,
        "outputs": outputs,
        "rows": rows,
        "seed": cfg.seed,
    }


_DISPATCH = {
    "scan-phi": _cmd_scan_phi,
    "scan-alpha": _cmd_scan_alpha,
    "threshold": _cmd_threshold,
    "chsh": _cmd_chsh,
    "bound": _cmd_bound,
    "reproduce": _cmd_reproduce,
}


def run(argv) -> int:
    """Entry point; returns the process exit code (0 ok, 1 internal invariant
    failure, 2 argument errors)."""
    try:
        cfg = parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = _DISPATCH[cfg.command](cfg)
    except LeggettLabError as exc:
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
