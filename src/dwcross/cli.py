"""Command-line surface: solve, sweep, detect and compare subcommands with
CSV output, optional SVG charts, and bundled parameter presets.

Exit codes: 0 success, 1 configuration error, 2 solver error, 3 tolerance
gate failure (compare).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .errors import ConfigError, DwcrossError
from .models import VARIANTS, ModelParams, UnitsConfig
from .oracle import OracleConfig, oracle_levels
from .rootfind import RootfindConfig, solve_levels
from .sweep import (
    AvoidedCrossing,
    SpectrumTable,
    SweepSpec,
    detect_avoided_crossings,
    edge_candidates,
    effective_levels,
    sweep_levels,
)

__all__ = ["RunConfig", "parse_config", "main", "PRESETS"]

# Frozen reproductions of the figure configurations.  Sweep windows that
# the source ranges leave open at a degenerate endpoint start at
# 0.02*lambda_max (b, hw2) or just inside the validity bound (c > b).
# The delta-coupled wells mix strongly, so some of the marked crossings
# are wide (up to ~2.2 eV at the fig3 b~1 throat); those presets carry an
# explicit gap ceiling large enough to certify them.
PRESETS: dict[str, dict] = {
    "fig3": dict(
        model="m1", u=1.0, v0=10.0, a=2.0, b=2.0,
        lambda_min=0.1, lambda_max=5.0, steps=200, levels=4, gap_ceiling=2.5,
    ),
    "fig4": dict(
        model="m1", u=0.2625, v0=20.0, a=5.0, b=5.0,
        lambda_min=0.5, lambda_max=25.0, steps=250, levels=4,
    ),
    "fig5": dict(
        model="m2", u=1.0, v0=10.0, a=2.0, b=1.0, c=2.0,
        lambda_min=1.05, lambda_max=6.0, steps=200, levels=5,
    ),
    "fig6a": dict(
        model="m3", u=1.0, v0=10.0, hw1=2.0, hw2=2.0,
        lambda_min=0.06, lambda_max=3.0, steps=240, levels=5, gap_ceiling=0.8,
    ),
    "fig6b": dict(
        model="m4", u=1.0, v0=10.0, hw1=2.0, hw2=2.0, a=0.5,
        lambda_min=0.06, lambda_max=3.0, steps=240, levels=5, gap_ceiling=0.8,
    ),
}

# Default compare-gate tolerance (eV) per model variant.
_GATE_TOLERANCE = {"m1": 2e-3, "m2": 2e-3, "m3": 5e-3, "m4": 5e-3}


@dataclass
class RunConfig:
    """Fully merged run settings (defaults < preset < config file < flags).
    Each field is a config-file key of its name and type, and a flag."""

    model: str | None = None
    u: float = 1.0
    v0: float | None = None
    a: float | None = None
    b: float | None = None
    c: float | None = None
    hw1: float | None = None
    hw2: float | None = None
    lambda_min: float | None = None
    lambda_max: float | None = None
    steps: int = 200
    levels: int = 4
    out: str | None = None
    svg: str | None = None
    effective: bool = False
    tolerance: float | None = None
    oracle_points: int | None = None
    richardson: bool = True
    gap_ceiling: float | None = None
    e_min: float | None = None

    def __post_init__(self) -> None:
        # NaN passes every comparison-based check downstream (a NaN tolerance
        # passes any gate), so no float may be NaN or infinite.
        for name, kind in _SETTINGS.items():
            value = getattr(self, name)
            if kind is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.gap_ceiling is not None and self.gap_ceiling <= 0.0:
            raise ConfigError(f"gap_ceiling must be > 0, got {self.gap_ceiling}")
        if self.tolerance is not None and self.tolerance < 0.0:
            raise ConfigError(f"tolerance must be >= 0, got {self.tolerance}")

    def build_model(self) -> ModelParams:
        if self.model is None:
            raise ConfigError("no model selected (use --model or --preset)")
        cls = VARIANTS.get(self.model.lower())
        if cls is None:
            raise ConfigError(f"unknown model {self.model!r} (expected {'|'.join(VARIANTS)})")
        return _built(cls, *[self._req(f.name) for f in fields(cls)])

    def _req(self, name: str) -> float:
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"model {self.model} requires parameter {name!r}")
        return value

    def build_units(self) -> UnitsConfig:
        return _built(UnitsConfig, u=self.u)

    def build_sweep_spec(self) -> SweepSpec:
        if self.lambda_min is None or self.lambda_max is None:
            raise ConfigError("sweep needs lambda_min and lambda_max (or a preset)")
        return _built(SweepSpec, self.lambda_min, self.lambda_max, self.steps, self.levels)

    def build_rootfind(self) -> RootfindConfig:
        e_min = RootfindConfig.e_min if self.e_min is None else self.e_min
        return _built(RootfindConfig, e_min=e_min)

    def build_oracle(self) -> OracleConfig:
        return OracleConfig(n_points=self.oracle_points, richardson=self.richardson)


def _built(cls, *args, **kwargs):
    """cls(*args, **kwargs), its invariant violations reported as ConfigError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Each setting's value type: the field's annotation, "T | None" read as T.
_SETTINGS: dict[str, type] = {
    name: next((t for t in get_args(hint) if t is not type(None)), hint)
    for name, hint in get_type_hints(RunConfig).items()
}

# Flags are --<name> with "-" for "_", and --no-<name> for a switch that
# defaults on; these settings differ from that or take more options.
_FLAG_SPELLING = {"steps": "--lambda-steps"}
_FLAG_OPTIONS: dict[str, dict] = {
    "model": dict(choices=list(VARIANTS)),
    "u": dict(help="units constant 2*mu/hbar^2 in 1/(eV A^2)"),
    "v0": dict(help="barrier height (eV) or delta strength (eV*A)"),
    "svg": dict(help="also emit a line chart (sweep only)"),
    "effective": dict(help="append width-scaled levels u*(a+b)^2*E (m1 sweeps)"),
    "tolerance": dict(help="compare gate tolerance in eV"),
}


def _parse_value(key: str, raw: str, where: str):
    kind = _SETTINGS.get(key, str)  # "preset" names a preset
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    """Parse key=value configuration text ('#' comments, UTF-8)."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip().lower()
        if key not in _SETTINGS and key != "preset":
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, raw, f"line {lineno}")
    return out


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dwcross",
        description="Bound-state spectra and avoided crossings of 1D double wells",
    )
    parser.add_argument(
        "command", choices=list(_COMMANDS),
        help="solve: the first N levels at a fixed parameter point; sweep: the level "
        "curves over the well parameter; detect: sweep, then locate and refine avoided "
        "crossings; compare: gate the analytic levels against the finite-difference oracle",
    )
    parser.add_argument("--config", type=Path, help="key=value configuration file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="bundled figure configuration")
    for f in fields(RunConfig):
        kind, options = _SETTINGS[f.name], dict(_FLAG_OPTIONS.get(f.name, {}), dest=f.name)
        flag = f.name.replace("_", "-")
        if kind is bool:  # a switch away from the default
            flag = "no-" + flag if f.default else flag
            options.update(action="store_false" if f.default else "store_true", default=None)
        else:
            options.update(type=kind)
        parser.add_argument(_FLAG_SPELLING.get(f.name, "--" + flag), **options)
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Build a RunConfig from CLI flag tokens.

    Precedence: defaults < preset < config file keys < flags.
    """
    return RunConfig(**_collect(argv)[1])


def _expand_preset(values: dict) -> dict:
    preset = values.pop("preset", None)
    if preset is None:
        return values
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    base = dict(PRESETS[preset])
    base.update(values)
    return base


def _collect(argv: list[str]) -> tuple[str, dict]:
    ns = _build_parser().parse_args(argv)
    values: dict = {}
    if ns.config:
        try:
            text = Path(ns.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {ns.config}: {exc}") from exc
        values = parse_config_text(text)
    if ns.preset:  # the flag's preset, else the file's
        values["preset"] = ns.preset
    merged = _expand_preset(values)
    for name in _SETTINGS:
        value = getattr(ns, name)
        if value is not None:
            merged[name] = value
    return ns.command, merged


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _default_out(cfg: RunConfig, command: str) -> Path:
    return Path(cfg.out) if cfg.out else Path(f"{command}.csv")


def cmd_solve(cfg: RunConfig) -> int:
    """Write level,energy_ev rows for the configured parameter point."""
    model = cfg.build_model()
    units = cfg.build_units()
    levels = solve_levels(model, units, cfg.levels, cfg.build_rootfind())
    _write_csv(_default_out(cfg, "solve"), "level,energy_ev", enumerate(levels, start=1))
    return 0


def _sweep_model(cfg: RunConfig) -> ModelParams:
    # The swept parameter needs no base value; seed it from the window end
    # (every grid point is validated and substituted during the sweep).
    cls = VARIANTS.get((cfg.model or "").lower())
    if cls is not None and cfg.lambda_max is not None and getattr(cfg, cls.sweep_param) is None:
        cfg = replace(cfg, **{cls.sweep_param: cfg.lambda_max})
    return cfg.build_model()


def _sweep_table(cfg: RunConfig, model: ModelParams) -> SpectrumTable:
    return sweep_levels(model, cfg.build_units(), cfg.build_sweep_spec(), cfg.build_rootfind())


def cmd_sweep(cfg: RunConfig) -> int:
    """Write the lambda grid and level columns (optionally effective levels
    and an SVG chart)."""
    model = _sweep_model(cfg)
    if cfg.effective and model.kind != "m1":
        raise ConfigError(f"effective levels are defined for the m1 b-sweep, not {model.kind}")
    table = _sweep_table(cfg, model)
    n = table.levels.shape[1]
    header = "lambda," + ",".join(f"E{j}" for j in range(1, n + 1))
    columns = [table.levels]
    if cfg.effective:
        columns.append(effective_levels(table))
        header += "," + ",".join(f"Ep{j}" for j in range(1, n + 1))
    body = np.column_stack([table.lambdas] + columns)
    out = _default_out(cfg, "sweep")
    _write_csv(out, header, body)
    if cfg.svg:
        try:
            _write_svg(Path(cfg.svg), table.lambdas, table.levels, model.sweep_param)
        except ConfigError:
            out.unlink()  # a config error leaves no output behind
            raise
    return 0


def _write_crossings(path: Path, crossings: list[AvoidedCrossing]) -> None:
    _write_csv(path, "gap_index,lambda_star,gap_ev,e_mid_ev", map(astuple, crossings))


def cmd_detect(cfg: RunConfig) -> int:
    """Write refined avoided crossings plus boundary candidates."""
    table = _sweep_table(cfg, _sweep_model(cfg))
    crossings = detect_avoided_crossings(table, cfg.gap_ceiling)
    edges = edge_candidates(table, cfg.gap_ceiling)
    out = _default_out(cfg, "detect")
    _write_crossings(out, crossings)
    _write_crossings(out.with_suffix(".edges.csv"), edges)
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    """Analytic roots vs Richardson oracle, with a tolerance gate (exit 3)."""
    if cfg.e_min is not None:
        # the oracle solves for the lowest levels, so the analytic ones
        # must be the lowest too
        raise ConfigError("compare gates the lowest levels; e_min cannot be set")
    model = cfg.build_model()
    units = cfg.build_units()
    analytic = solve_levels(model, units, cfg.levels, cfg.build_rootfind())
    reference = oracle_levels(
        model, units, cfg.levels, cfg.build_oracle(), e_top=1.5 * analytic[-1], seeds=analytic
    )
    tolerance = cfg.tolerance if cfg.tolerance is not None else _GATE_TOLERANCE[model.kind]
    rows = [
        (i, ana, ora, abs(ana - ora))
        for i, (ana, ora) in enumerate(zip(analytic, reference), start=1)
    ]
    _write_csv(_default_out(cfg, "compare"), "level,analytic_ev,oracle_ev,abs_diff_ev", rows)
    worst = max(row[-1] for row in rows)
    if worst > tolerance:
        print(
            f"tolerance gate failed: max |analytic - oracle| = {worst:.3e} eV "
            f"> {tolerance:.3e} eV",
            file=sys.stderr,
        )
        return 3
    return 0


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _write_svg(path: Path, xs: np.ndarray, series: np.ndarray, x_label: str) -> None:
    """Minimal self-contained line chart: one polyline per level column."""
    width, height, margin = 960, 600, 70.0
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(series)), float(np.max(series))
    y_pad = 0.05 * (y1 - y0 or 1.0)
    y0, y1 = y0 - y_pad, y1 + y_pad

    def sx(x: float) -> float:
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="13">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 22:.1f}" '
            f'text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8:.1f}" y="{sy(yv) + 4:.1f}" '
            f'text-anchor="end">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 18}" text-anchor="middle">'
        f"{x_label}</text>"
    )
    parts.append(
        f'<text x="22" y="{height / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 22 {height / 2:.1f})">energy (eV)</text>'
    )
    for col in range(series.shape[1]):
        color = _SVG_PALETTE[col % len(_SVG_PALETTE)]
        points = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, series[:, col])
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "detect": cmd_detect,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, merged = _collect(argv)
        cfg = RunConfig(**merged)
        if command != "sweep" and (cfg.svg or cfg.effective):
            raise ConfigError(f"svg and effective apply to sweep only, not {command}")
        return _COMMANDS[command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DwcrossError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
