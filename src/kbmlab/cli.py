"""Command-line front end.

Two subcommands: ``run`` executes gamma sweeps over a surface spectrum and
serializes tables, reports and plot-ready data; ``selftest`` runs the
acceptance suite and prints one pass/fail line per criterion.

Configuration is a JSON file with nested sections (schema in the README);
every field has a matching flag and flags override file values.  Output is
deterministic for a fixed config: numbers are written with 17 significant
digits, JSON keys are sorted, and no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import acceptance
from .eig import MAX_DENSE_DIM
from .errors import ConfigError, KbmLabError
from .ladder import casimir_residual, finite_block, ladder_coefficients
from .operator import (
    TruncationPolicy,
    accretivity_minimum,
    assemble_generator,
    fixed_truncation,
    truncate,
)
from .perturb import perturbation_series, zero_mode_resolvent_norm
from .spectra import (
    GammaTable,
    SurfaceSpectrum,
    convergence_summary,
    custom_spectrum,
    gamma_sweep,
    make_gamma_grid,
    mixing_report,
    sphere_spectrum,
    torus_spectrum,
)

DIAGNOSTIC_GAMMAS = (0.5, 2.0, 10.0)
DIAGNOSTIC_ZETAS = (0.25, 0.5, 0.75)
KNOWN_CHECKS = ("accretivity", "casimir", "resolvent_bound")

CSV_COLUMNS = ("gamma", "re_lambda", "im_lambda", "abs_error", "simple", "k_max", "residual")


@dataclass
class SurfaceConfig:
    kind: str = "sphere"
    K: float = 1.0
    l_max: int = 2
    L: float = 2.0 * math.pi
    eta_cap: float = 2.5
    path: Optional[str] = None


@dataclass
class GridConfig:
    log_start: float = 0.0
    log_end: float = 4.0
    points: int = 101
    explicit: Optional[list] = None


@dataclass
class TruncationConfig:
    kind: str = "adaptive"
    k_max: Optional[int] = None
    tol: float = 1e-10


@dataclass
class OutputConfig:
    formats: tuple = ("csv", "json")
    directory: str = "out"


@dataclass
class RunConfig:
    surface: SurfaceConfig = field(default_factory=SurfaceConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    checks: tuple = KNOWN_CHECKS

    def validate(self) -> None:
        s = self.surface
        for name, value in (
            ("surface.K", s.K),
            ("surface.L", s.L),
            ("surface.eta_cap", s.eta_cap),
            ("gamma_grid.log_start", self.grid.log_start),
            ("gamma_grid.log_end", self.grid.log_end),
            ("truncation.tol", self.truncation.tol),
        ):
            if not _is_finite_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if s.kind not in ("sphere", "torus", "custom"):
            raise ConfigError(f"unknown surface kind {s.kind!r}")
        if s.kind == "sphere" and not s.K > 0.0:
            raise ConfigError("sphere surface needs K > 0")
        if s.kind == "sphere" and s.l_max < 0:
            raise ConfigError("l_max must be >= 0")
        if s.kind == "torus" and not s.L > 0.0:
            raise ConfigError("torus surface needs L > 0")
        if s.kind == "custom" and not s.path:
            raise ConfigError("custom surface needs a path to an eta list")
        if self.grid.explicit is None:
            if self.grid.points < 2:
                raise ConfigError("gamma grid needs points >= 2")
            if not self.grid.log_end > self.grid.log_start:
                raise ConfigError("gamma grid must be increasing")
        else:
            explicit = self.grid.explicit
            if not explicit:
                raise ConfigError("explicit gamma grid must not be empty")
            bad_gammas = [v for v in explicit if not (_is_finite_number(v) and v > 0.0)]
            if bad_gammas:
                raise ConfigError(f"explicit gammas must be finite and > 0, got {bad_gammas}")
            if len(set(explicit)) != len(explicit):
                raise ConfigError("explicit gammas must be distinct")
        if self.truncation.kind not in ("fixed", "adaptive"):
            raise ConfigError(f"unknown truncation kind {self.truncation.kind!r}")
        if self.truncation.kind == "fixed" and (self.truncation.k_max or 0) < 1:
            raise ConfigError("fixed truncation needs k_max >= 1")
        if self.truncation.kind == "fixed" and 4 * self.truncation.k_max + 1 > MAX_DENSE_DIM:
            # the certificate block doubles the cutoff to [-2 k_max, 2 k_max]
            raise ConfigError(
                f"fixed truncation needs k_max <= {(MAX_DENSE_DIM - 1) // 4}: the doubled "
                f"certificate block would exceed the dense limit {MAX_DENSE_DIM}"
            )
        bad = [c for c in self.checks if c not in KNOWN_CHECKS]
        if bad:
            raise ConfigError(f"unknown checks {bad}; known: {list(KNOWN_CHECKS)}")
        if not set(self.output.formats) <= {"csv", "json"}:
            raise ConfigError("output formats must be a subset of {csv, json}")


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _fmt(x: float) -> str:
    """17 significant digits round-trips doubles exactly."""
    return f"{float(x):.17g}"


def load_config(path: Optional[str]) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for section, cls, attr in (
        ("surface", SurfaceConfig, "surface"),
        ("gamma_grid", GridConfig, "grid"),
        ("truncation", TruncationConfig, "truncation"),
        ("outputs", OutputConfig, "output"),
    ):
        if section in raw:
            block = raw[section]
            if not isinstance(block, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            current = getattr(cfg, attr)
            for key, value in block.items():
                if not hasattr(current, key):
                    raise ConfigError(f"unknown key {key!r} in section {section!r}")
                if key == "formats":
                    value = tuple(value)
                setattr(current, key, value)
    if "checks" in raw:
        cfg.checks = tuple(raw["checks"])
    return cfg


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> None:
    s, g, t, o = cfg.surface, cfg.grid, cfg.truncation, cfg.output
    if args.surface is not None:
        s.kind = args.surface
    if args.curvature is not None:
        s.K = args.curvature
    if args.l_max is not None:
        s.l_max = args.l_max
    if args.side is not None:
        s.L = args.side
    if args.eta_cap is not None:
        s.eta_cap = args.eta_cap
    if args.custom_path is not None:
        s.path = args.custom_path
    if args.gamma_log_start is not None:
        g.log_start = args.gamma_log_start
    if args.gamma_log_end is not None:
        g.log_end = args.gamma_log_end
    if args.gamma_points is not None:
        g.points = args.gamma_points
    if args.gamma_explicit is not None:
        g.explicit = [float(v) for v in args.gamma_explicit.split(",") if v]
    if args.truncation is not None:
        t.kind = args.truncation
    if args.k_max is not None:
        t.k_max = args.k_max
    if args.truncation_tol is not None:
        t.tol = args.truncation_tol
    if args.formats is not None:
        o.formats = tuple(f for f in args.formats.split(",") if f)
    if args.out is not None:
        o.directory = args.out
    if args.checks is not None:
        cfg.checks = tuple(c for c in args.checks.split(",") if c)


def _load_custom_entries(path: str) -> list:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read eta list {path!r}: {exc}") from exc
    entries = raw["entries"] if isinstance(raw, dict) else raw
    for item in entries:
        if not (isinstance(item, (list, tuple)) and item and _is_finite_number(item[0])):
            raise ConfigError(f"eta list {path!r}: entry {item!r} needs a finite eta")
    return [tuple(item) for item in entries]


def build_spectrum(cfg: RunConfig) -> SurfaceSpectrum:
    s = cfg.surface
    if s.kind == "sphere":
        return sphere_spectrum(s.K, s.l_max)
    if s.kind == "torus":
        return torus_spectrum(s.L, s.eta_cap)
    return custom_spectrum(s.K, _load_custom_entries(s.path))


def build_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.grid.explicit is not None:
        return np.asarray(sorted(float(g) for g in cfg.grid.explicit))
    return make_gamma_grid(cfg.grid.log_start, cfg.grid.log_end, cfg.grid.points)


def _policy(cfg: RunConfig) -> TruncationPolicy:
    t = cfg.truncation
    if t.kind == "fixed":
        return TruncationPolicy(kind="fixed", k_max=int(t.k_max))
    return TruncationPolicy(kind="adaptive", tol=t.tol)


def _table_rows(table: GammaTable) -> list:
    rows = []
    for i, gamma in enumerate(table.gamma_grid):
        rows.append(
            {
                "gamma": float(gamma),
                "re_lambda": float(table.lam[i].real),
                "im_lambda": float(table.lam[i].imag),
                "abs_error": float(table.abs_error[i]),
                "simple": bool(table.simple[i]),
                "collided": bool(table.collided[i]),
                "k_max": int(table.k_trunc[i]),
                "certificate": float(table.certificate[i]),
                "residual": float(table.residual[i]),
                "eta": table.eta,
                "curvature": table.curvature,
            }
        )
    return rows


def _write_table_csv(path: Path, table: GammaTable) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for i, gamma in enumerate(table.gamma_grid):
        lines.append(
            ",".join(
                (
                    _fmt(gamma),
                    _fmt(table.lam[i].real),
                    _fmt(table.lam[i].imag),
                    _fmt(table.abs_error[i]),
                    "true" if table.simple[i] else "false",
                    str(int(table.k_trunc[i])),
                    _fmt(table.residual[i]),
                )
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _eta_tag(index: int, eta: float) -> str:
    return f"{index:02d}_eta_{eta:.6g}".replace(".", "p").replace("-", "m")


def run(cfg: RunConfig) -> dict:
    """Execute the configured sweeps and write all artifacts.

    Returns a manifest of written paths; raises KbmLabError subclasses on
    any validation or module failure.
    """
    cfg.validate()
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)

    spectrum = build_spectrum(cfg)
    grid = build_grid(cfg)
    policy = _policy(cfg)

    K = spectrum.curvature
    tables = [
        gamma_sweep(
            entry.eta,
            K,
            grid,
            policy=policy if entry.eta > 0.0 and K <= 0.0 else None,
            multiplicity=entry.multiplicity,
        )
        for entry in spectrum.entries
    ]

    manifest = {"tables": [], "plots": []}
    records = {"surface": cfg.surface.kind, "curvature": spectrum.curvature, "rows": []}
    for i, (entry, table) in enumerate(zip(spectrum.entries, tables)):
        tag = _eta_tag(i, entry.eta)
        rows = _table_rows(table)
        records["rows"].extend(rows)
        if "csv" in cfg.output.formats:
            path = outdir / f"table_{tag}.csv"
            _write_table_csv(path, table)
            manifest["tables"].append(str(path))
        if "json" in cfg.output.formats:
            path = outdir / f"table_{tag}.json"
            _write_json(
                path,
                {
                    "eta": entry.eta,
                    "curvature": spectrum.curvature,
                    "multiplicity": entry.multiplicity,
                    "label": entry.label,
                    "empirical_r": table.empirical_r,
                    "rows": rows,
                },
            )
            manifest["tables"].append(str(path))
        plot = outdir / f"plot_convergence_{tag}.dat"
        plot_lines = [
            f"{_fmt(g)} {_fmt(e)}" for g, e in zip(table.gamma_grid, table.abs_error)
        ]
        plot.write_text("\n".join(plot_lines) + "\n")
        manifest["plots"].append(str(plot))

    summary = {
        "surface": cfg.surface.kind,
        "curvature": spectrum.curvature,
        "per_eta": [convergence_summary(t) for t in tables],
    }
    try:
        mixing = mixing_report(spectrum, tables)
        summary["mixing"] = mixing
        mix_path = outdir / "plot_mixing.dat"
        mix_lines = [
            f"{_fmt(g)} {_fmt(v)} {_fmt(mixing['eta1'])}"
            for g, v in zip(mixing["gamma"], mixing["re_lambda_eta1"])
        ]
        mix_path.write_text("\n".join(mix_lines) + "\n")
        manifest["plots"].append(str(mix_path))
    except KbmLabError:
        summary["mixing"] = None

    series_lines = ["eta,mu1,mu2,second_derivative,eta_over_2_residual"]
    series_records = []
    diag = {"accretivity": [], "casimir": [], "resolvent_bound": []}
    for entry, table in zip(spectrum.entries, tables):
        eta = entry.eta
        if eta == 0.0 or K > 0.0:
            block = finite_block(eta, K)
        else:
            # the cutoff the sweep certified; no second doubling study
            block = truncate(eta, K, fixed_truncation(int(table.k_trunc[0])))
        coeffs = ladder_coefficients(block)
        series = perturbation_series(block, coeffs)
        resid = abs(series.mu2 - 0.5 * eta)
        series_lines.append(
            ",".join(
                (
                    _fmt(eta),
                    _fmt(series.mu1.real),
                    _fmt(series.mu2.real),
                    _fmt(series.second_derivative.real),
                    _fmt(resid),
                )
            )
        )
        series_records.append(
            {
                "eta": eta,
                "mu1": series.mu1.real,
                "mu2": series.mu2.real,
                "second_derivative": series.second_derivative.real,
                "eta_over_2_residual": resid,
            }
        )
        if "casimir" in cfg.checks:
            diag["casimir"].append({"eta": eta, "residual": casimir_residual(coeffs)})
        if "accretivity" in cfg.checks:
            for gamma in DIAGNOSTIC_GAMMAS:
                op = assemble_generator(block, coeffs, gamma)
                diag["accretivity"].append(
                    {"eta": eta, "gamma": gamma, "min_real_energy": accretivity_minimum(op)}
                )
        if "resolvent_bound" in cfg.checks and eta > 0.0:
            for zeta in DIAGNOSTIC_ZETAS:
                bound = zero_mode_resolvent_norm(eta, zeta)
                diag["resolvent_bound"].append(
                    {
                        "eta": eta,
                        "zeta": zeta,
                        "computed": bound.computed,
                        "closed_form": bound.closed_form,
                        "rel_error": abs(bound.computed - bound.closed_form)
                        / bound.closed_form,
                    }
                )

    series_path = outdir / "perturbation_series.csv"
    series_path.write_text("\n".join(series_lines) + "\n")
    _write_json(outdir / "summary.json", summary)
    _write_json(outdir / "diagnostics.json", {k: v for k, v in diag.items() if v})
    records["series"] = series_records
    _write_json(outdir / "records.json", records)
    manifest["summary"] = str(outdir / "summary.json")
    manifest["diagnostics"] = str(outdir / "diagnostics.json")
    manifest["records"] = str(outdir / "records.json")
    manifest["series"] = str(series_path)
    return manifest


def selftest(
    criteria: Optional[Sequence[int]] = None,
    tolerance_scale: float = 1.0,
    seed: int = acceptance.DEFAULT_SEED,
    report_path: Optional[str] = None,
) -> int:
    """Run the acceptance suite; print one line per criterion."""
    results = acceptance.run_acceptance(
        criteria=criteria, tolerance_scale=tolerance_scale, seed=seed
    )
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.cid:2d}: {r.title} | {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} criteria passed")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if report_path:
        Path(report_path).write_text(text)
    return 1 if n_fail else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbmlab",
        description=(
            "Spectral laboratory for the kinetic Brownian motion generator on "
            "constant-curvature surface bundles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunConfig()
    epilog = (
        "unset flags fall back to the config file, then to built-in defaults: "
        f"surface={defaults.surface.kind} K={defaults.surface.K} "
        f"l_max={defaults.surface.l_max} L={defaults.surface.L:.6g} "
        f"eta_cap={defaults.surface.eta_cap}; gamma grid 10^{defaults.grid.log_start}"
        f"..10^{defaults.grid.log_end} with {defaults.grid.points} points; "
        f"truncation={defaults.truncation.kind} tol={defaults.truncation.tol}; "
        f"formats={','.join(defaults.output.formats)} out={defaults.output.directory}; "
        f"checks={','.join(defaults.checks)}"
    )
    p_run = sub.add_parser(
        "run",
        help="sweep a surface spectrum and write tables",
        epilog=epilog,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_run.add_argument("--config", default=None, help="JSON config file (flags override it)")
    p_run.add_argument("--surface", choices=["sphere", "torus", "custom"], default=None)
    p_run.add_argument("--curvature", type=float, default=None, help="Gaussian curvature K")
    p_run.add_argument("--l-max", type=int, default=None, help="sphere: largest l")
    p_run.add_argument("--side", type=float, default=None, help="torus: side length L")
    p_run.add_argument("--eta-cap", type=float, default=None, help="torus: largest eta")
    p_run.add_argument("--custom-path", default=None, help="custom: JSON eta list")
    p_run.add_argument("--gamma-log-start", type=float, default=None)
    p_run.add_argument("--gamma-log-end", type=float, default=None)
    p_run.add_argument("--gamma-points", type=int, default=None)
    p_run.add_argument("--gamma-explicit", default=None, help="comma-separated gamma list")
    p_run.add_argument("--truncation", choices=["fixed", "adaptive"], default=None)
    p_run.add_argument("--k-max", type=int, default=None, help="fixed truncation cutoff")
    p_run.add_argument("--truncation-tol", type=float, default=None)
    p_run.add_argument("--formats", default=None, help="comma-separated subset of csv,json")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--checks", default=None, help="comma-separated diagnostic suites")

    p_self = sub.add_parser(
        "selftest",
        help="run the acceptance suite",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_self.add_argument("--criteria", default=None, help="comma-separated criterion ids")
    p_self.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p_self.add_argument("--report", default=None, help="write the report to this file")
    p_self.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help=(
            "multiply all acceptance tolerances; a tiny value forces designed "
            "failures to demonstrate that the harness detects regressions"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        criteria = None
        if args.criteria:
            criteria = [int(c) for c in args.criteria.split(",") if c]
        return selftest(
            criteria=criteria,
            tolerance_scale=args.tolerance_scale,
            seed=args.seed,
            report_path=args.report,
        )
    cfg = None
    try:
        cfg = load_config(args.config)
        _apply_flags(cfg, args)
        run(cfg)
    except ConfigError as exc:
        _emit_error(cfg, exc)
        return 2
    except (KbmLabError, ValueError) as exc:
        _emit_error(cfg, exc)
        return 1
    return 0


def _emit_error(cfg: Optional[RunConfig], exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    if cfg is not None:
        try:
            outdir = Path(cfg.output.directory)
            outdir.mkdir(parents=True, exist_ok=True)
            _write_json(outdir / "errors.json", record)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
