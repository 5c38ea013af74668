"""Command-line front end.

Two subcommands: ``run`` executes gamma sweeps over a surface spectrum and
writes the branch lambda_eta(gamma) with its per-row certificates (one
table per eta), the convergence verdicts and the mixing-rate report
(``summary.json``), the perturbation series, taken on the block each
table carries, and plot-ready data;
``selftest`` runs the acceptance suite and prints one pass/fail line per
criterion.  Identities that hold by construction (accretivity, the
Casimir identity, the zero-mode resolvent bound) are certified by the
acceptance suite, not written by ``run``.

Configuration is a JSON file with nested sections (schema in the README);
every key has a matching flag (``_RUN_FLAGS``) and flags override file
values.  Every key given must change the run: one the run would not read
(a surface key its kind ignores, a log-grid key next to an explicit gamma
list, a tolerance with fixed truncation) is a ConfigError.
``RunConfig.validate`` checks types and that rule; the range rules live
in the library code that builds the spectrum, the grid and the
truncation policy.
A run that stops on its inputs before any sweep reports a ConfigError and
exits with 2; one whose sweep fails exits with 1.  The JSON error record
names the error, its message, the stage (``config`` or ``sweep``) and the
eta of the failing sweep (null outside a sweep).  Output is deterministic
for a fixed config: numbers are written with 17 significant digits, JSON
keys are sorted, and no timestamps are emitted.
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

from .errors import ConfigError, KbmLabError
from .operator import TruncationPolicy
from .perturb import perturbation_series
from .spectra import (
    GammaTable,
    SurfaceSpectrum,
    check_fixed_cutoff,
    check_gamma_grid,
    convergence_summary,
    custom_spectrum,
    gamma_sweep,
    make_gamma_grid,
    mixing_report,
    sphere_spectrum,
    torus_spectrum,
)

CSV_COLUMNS = ("gamma", "re_lambda", "im_lambda", "abs_error", "simple", "k_max", "residual")

# The config file's sections and the RunConfig field that holds each.
_SECTIONS = {"surface": "surface", "gamma_grid": "grid", "truncation": "truncation",
             "outputs": "output"}
# The surface keys each kind reads besides ``kind``, and the keys of the
# log grid, which an explicit gamma list replaces.
_SURFACE_READS = {"sphere": ("K", "l_max"), "torus": ("L", "eta_cap"), "custom": ("K", "path")}
_LOG_GRID_KEYS = ("gamma_grid.log_start", "gamma_grid.log_end", "gamma_grid.points")


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
    # "section.key" of every key a flag or the config file set -> where
    given: dict = field(default_factory=dict)

    def validate(self) -> tuple[SurfaceSpectrum, np.ndarray, TruncationPolicy]:
        """Check what a config file or a flag can get wrong in type, that
        the run reads every key given (``_check_given``), and the one rule
        that ties two sections; then build and return the run's spectrum,
        gamma grid and truncation policy, whose constructors enforce every
        range rule.  Any error raised is a ConfigError."""
        s, g, t, o = self.surface, self.grid, self.truncation, self.output
        for name, value in (
            ("surface.K", s.K),
            ("surface.L", s.L),
            ("surface.eta_cap", s.eta_cap),
            ("gamma_grid.log_start", g.log_start),
            ("gamma_grid.log_end", g.log_end),
            ("truncation.tol", t.tol),
        ):
            if not _is_finite_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name, value in (("surface.l_max", s.l_max), ("gamma_grid.points", g.points)):
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not (t.k_max is None or _is_int(t.k_max)):
            raise ConfigError(f"truncation.k_max must be an integer, got {t.k_max!r}")
        if s.kind not in ("sphere", "torus", "custom"):
            raise ConfigError(f"unknown surface kind {s.kind!r}")
        self._check_given()
        if s.kind == "custom" and not (isinstance(s.path, str) and s.path):
            raise ConfigError("custom surface needs a path to an eta list")
        if g.explicit is not None and not (
            isinstance(g.explicit, (list, tuple)) and all(map(_is_finite_number, g.explicit))
        ):
            raise ConfigError(
                f"gamma_grid.explicit must be a list of finite numbers, got {g.explicit!r}"
            )
        if t.kind == "fixed" and (s.kind == "sphere" or (s.kind == "custom" and s.K > 0.0)):
            raise ConfigError("fixed truncation needs K <= 0; a K > 0 surface has finite blocks")
        formats = o.formats
        if not (isinstance(formats, (list, tuple)) and all(f in ("csv", "json") for f in formats)):
            raise ConfigError(f"outputs.formats must be a list of csv and json, got {formats!r}")
        if not isinstance(o.directory, str):
            raise ConfigError(f"outputs.directory must be a string, got {o.directory!r}")
        try:
            spectrum, grid = build_spectrum(self), build_grid(self)
            policy = TruncationPolicy(kind=t.kind, k_max=t.k_max, tol=t.tol)
            if policy.kind == "fixed":
                check_fixed_cutoff(policy.k_max)
        except KbmLabError as exc:
            raise ConfigError(str(exc)) from exc
        return spectrum, grid, policy

    def _check_given(self) -> None:
        """A key given by a flag or in the config file that the run would not
        read is a ConfigError naming the key and where it came from: a
        surface key its kind does not read, a log-grid key next to an
        explicit gamma list, and a tolerance with fixed truncation."""
        kind = self.surface.kind
        reads = [f"surface.{key}" for key in ("kind",) + _SURFACE_READS[kind]]
        for key, source in self.given.items():
            if key.startswith("surface.") and key not in reads:
                why = f"a {kind} surface reads {' and '.join(reads[1:])}"
            elif key in _LOG_GRID_KEYS and self.grid.explicit is not None:
                why = "gamma_grid.explicit replaces the log grid"
            elif key == "truncation.tol" and self.truncation.kind == "fixed":
                why = "fixed truncation reads no tolerance"
            else:
                continue
            raise ConfigError(f"{key}, given {source}, is not read by this run: {why}")


def _is_finite_number(value) -> bool:
    # abs() <= max also rejects nan, and compares an int too large for a float exactly
    return isinstance(value, (int, float)) and not isinstance(value, bool) and (
        abs(value) <= sys.float_info.max
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    for section, block in raw.items():
        if section == "workers":  # the deleted ``run --workers``; ignored
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r} in config {path!r}")
        if not isinstance(block, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        current = getattr(cfg, _SECTIONS[section])
        for key, value in block.items():
            if not hasattr(current, key):
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            setattr(current, key, value)
            cfg.given[f"{section}.{key}"] = f"in the config file {path!r}"
    return cfg


def _number(text: str):
    """float(text), or the text itself where it is no number."""
    try:
        return float(text)
    except ValueError:
        return text


# One row per ``run`` flag: the flag, the config section and key it sets,
# its argparse type or choices, and its help, to which ``build_parser``
# adds the key's default.  Every flag is None unless given, so the config
# file's value stands where a flag is absent.
_RUN_FLAGS = (
    ("--surface", "surface", "kind", ("sphere", "torus", "custom"), "base surface"),
    ("--curvature", "surface", "K", float, "Gaussian curvature K"),
    ("--l-max", "surface", "l_max", int, "sphere: largest l"),
    ("--side", "surface", "L", float, "torus: side length L"),
    ("--eta-cap", "surface", "eta_cap", float, "torus: largest eta"),
    ("--custom-path", "surface", "path", str, "custom: JSON eta list"),
    ("--gamma-log-start", "gamma_grid", "log_start", float, "log10 of the first gamma"),
    ("--gamma-log-end", "gamma_grid", "log_end", float, "log10 of the last gamma"),
    ("--gamma-points", "gamma_grid", "points", int, "points of the log grid"),
    ("--gamma-explicit", "gamma_grid", "explicit", str,
     "comma-separated gamma list, in place of the log grid"),
    ("--truncation", "truncation", "kind", ("fixed", "adaptive"), "cutoff policy for K <= 0"),
    ("--k-max", "truncation", "k_max", int, "fixed truncation cutoff"),
    ("--truncation-tol", "truncation", "tol", float, "adaptive truncation tolerance"),
    ("--formats", "outputs", "formats", str, "comma-separated subset of csv,json"),
    ("--out", "outputs", "directory", str, "output directory"),
)
# Comma-list flags and the type of their items.  They are split in
# ``_apply_flags``, not by argparse, so a bad item is a ConfigError record
# written to the run's output directory like any other bad value.
_COMMA_LISTS = {"--gamma-explicit": _number, "--formats": str}


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> None:
    """Set the config key of every ``run`` flag given.  An item of a comma
    list that is no number stays a string, which ``RunConfig.validate``
    rejects."""
    for flag, section, key, _, _ in _RUN_FLAGS:
        value = getattr(args, f"{section}.{key}")
        if value is None:
            continue
        if flag in _COMMA_LISTS:
            value = [_COMMA_LISTS[flag](v) for v in value.split(",") if v]
        setattr(getattr(cfg, _SECTIONS[section]), key, value)
        cfg.given[f"{section}.{key}"] = f"by {flag}"


def _load_custom_entries(path: str) -> list:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read eta list {path!r}: {exc}") from exc
    entries = raw.get("entries") if isinstance(raw, dict) else raw
    if not isinstance(entries, list):
        raise ConfigError(f"eta list {path!r} must be a list of entries or {{\"entries\": [...]}}")
    for item in entries:
        if not (
            isinstance(item, list)
            and len(item) in (2, 3)
            and _is_finite_number(item[0])
            and _is_int(item[1])
        ):
            raise ConfigError(
                f"eta list {path!r}: entry {item!r} must be [eta, multiplicity] or [eta, "
                "multiplicity, label] with a finite eta and an integer multiplicity"
            )
    return [tuple(item) for item in entries]


def build_spectrum(cfg: RunConfig) -> SurfaceSpectrum:
    s = cfg.surface
    if s.kind == "sphere":
        return sphere_spectrum(s.K, s.l_max)
    if s.kind == "torus":
        return torus_spectrum(s.L, s.eta_cap)
    return custom_spectrum(s.K, _load_custom_entries(s.path))


def build_grid(cfg: RunConfig) -> np.ndarray:
    g = cfg.grid
    if g.explicit is not None:
        return check_gamma_grid(sorted(float(v) for v in g.explicit))
    return check_gamma_grid(make_gamma_grid(g.log_start, g.log_end, g.points))


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
                "k_max": table.k_trunc,
                "certificate": float(table.certificate[i]),
                "residual": float(table.residual[i]),
                "eta": table.eta,
                "curvature": table.curvature,
            }
        )
    return rows


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, int) else _fmt(value)


def _write_table_csv(path: Path, rows: list) -> None:
    """One line per ``_table_rows`` row, in the ``CSV_COLUMNS`` order."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _eta_tag(index: int, eta: float) -> str:
    return f"{index:02d}_eta_{eta:.6g}".replace(".", "p").replace("-", "m")


def run(cfg: RunConfig) -> dict:
    """Execute the configured sweeps and write their artifacts: per eta a
    ``table_*.csv`` and/or ``table_*.json`` (as ``outputs.formats`` asks)
    and a ``plot_convergence_*.dat``; then ``plot_mixing.dat`` (when the
    spectrum has a nonzero eta), ``perturbation_series.csv`` and
    ``summary.json``.  Every table and plot shares the run's gamma grid.

    Returns a manifest of written paths (keys ``tables``, ``plots``,
    ``summary``, ``series``).  Raises ConfigError when the inputs or the
    output directory cannot be built, before any sweep, and another
    KbmLabError subclass (or a ValueError) when a sweep fails; that error
    carries the eta of its sweep as ``exc.eta``.
    """
    spectrum, grid, policy = cfg.validate()
    outdir = Path(cfg.output.directory)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {str(outdir)!r}: {exc}") from exc

    tables = []
    for entry in spectrum.entries:
        try:
            tables.append(
                gamma_sweep(
                    entry.eta, spectrum.curvature, grid, policy, multiplicity=entry.multiplicity
                )
            )
        except (KbmLabError, ValueError) as exc:
            exc.eta = entry.eta
            raise

    manifest = {"tables": [], "plots": []}
    for i, (entry, table) in enumerate(zip(spectrum.entries, tables)):
        tag = _eta_tag(i, entry.eta)
        rows = _table_rows(table)
        if "csv" in cfg.output.formats:
            path = outdir / f"table_{tag}.csv"
            _write_table_csv(path, rows)
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
            for g, v in zip(grid, mixing["re_lambda_eta1"])
        ]
        mix_path.write_text("\n".join(mix_lines) + "\n")
        manifest["plots"].append(str(mix_path))
    except KbmLabError:
        summary["mixing"] = None

    series_lines = ["eta,mu1,mu2,second_derivative,eta_over_2_residual"]
    for entry, table in zip(spectrum.entries, tables):
        eta = entry.eta
        series = perturbation_series(table.coeffs)
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

    series_path = outdir / "perturbation_series.csv"
    series_path.write_text("\n".join(series_lines) + "\n")
    _write_json(outdir / "summary.json", summary)
    manifest["summary"] = str(outdir / "summary.json")
    manifest["series"] = str(series_path)
    return manifest


def selftest(
    criteria: Optional[Sequence[int]] = None,
    tolerance_scale: float = 1.0,
    report_path: Optional[str] = None,
) -> int:
    """Run the acceptance suite; print one line per criterion with its
    wall time, and the build time of the shared sweep fixture when a
    criterion needed it.  The ``report_path`` file gets the criterion lines
    without the times, so reports of the same code compare byte for byte.
    An unknown criterion id, a tolerance scale outside (0, 1], or a report
    path that cannot be opened for writing raises ConfigError before any
    criterion runs."""
    from . import acceptance  # only the self-test pays for importing the suite

    if report_path:
        try:  # an unwritable report fails before any criterion runs
            Path(report_path).open("a").close()
        except OSError as exc:
            raise ConfigError(f"cannot write the report {report_path!r}: {exc}") from exc
    results, data = acceptance.run_acceptance(
        criteria=criteria, tolerance_scale=tolerance_scale
    )
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.cid:2d}: {r.title} | {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    total = f"{len(results) - n_fail}/{len(results)} criteria passed"
    timed = [f"{line} | {r.seconds:.2f} s" for line, r in zip(lines, results)]
    if data is not None:
        readers = ", ".join(str(c.cid) for c in acceptance.CRITERIA if c.reads_fixture)
        timed.insert(0, f"shared sweep fixture (criteria {readers}) | {data.build_seconds:.2f} s")
    sys.stdout.write("\n".join(timed + [total]) + "\n")
    if report_path:
        Path(report_path).write_text("\n".join(lines + [total]) + "\n")
    return 1 if n_fail else 0


class _Parser(argparse.ArgumentParser):
    """argparse that reads a token parsing as a float (-1e0, -inf) as a
    value, not as an unknown option, and reports a usage error as a
    ``ConfigError`` record on stderr, exit 2."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def error(self, message):
        _emit_error(None, ConfigError(f"{self.prog}: {message}"))
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kbmlab",
        description=(
            "Spectral laboratory for the kinetic Brownian motion generator on "
            "constant-curvature surface bundles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sweep a surface spectrum and write tables")
    p_run.add_argument("--config", default=None, help="JSON config file (flags override it)")
    defaults = RunConfig()
    for flag, section, key, kind, text in _RUN_FLAGS:
        default = getattr(getattr(defaults, _SECTIONS[section]), key)
        if default is not None:
            shown = ",".join(default) if isinstance(default, tuple) else default
            text = f"{text} (default: {shown})"
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        p_run.add_argument(flag, dest=f"{section}.{key}", default=None, help=text, **typed)

    p_self = sub.add_parser(
        "selftest",
        help="run the acceptance suite",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_self.add_argument("--criteria", default=None, help="comma-separated criterion ids")
    p_self.add_argument("--report", default=None, help="write the report to this file")
    p_self.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help=(
            "multiply all acceptance tolerances by this value in (0, 1]; a tiny "
            "value forces designed failures to demonstrate that the harness "
            "detects regressions"
        ),
    )
    return parser


def _criterion_ids(text: Optional[str]) -> Optional[list]:
    if not text:
        return None
    try:
        return [int(c) for c in text.split(",") if c]
    except ValueError as exc:
        raise ConfigError(f"--criteria must be comma-separated integers, got {text!r}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = None
    try:
        if args.command == "selftest":
            return selftest(
                criteria=_criterion_ids(args.criteria),
                tolerance_scale=args.tolerance_scale,
                report_path=args.report,
            )
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
    record = {
        "error": type(exc).__name__,
        "message": str(exc),
        "stage": "config" if isinstance(exc, ConfigError) else "sweep",
        "eta": getattr(exc, "eta", None),
    }
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    if cfg is not None and isinstance(cfg.output.directory, str):
        try:
            outdir = Path(cfg.output.directory)
            outdir.mkdir(parents=True, exist_ok=True)
            _write_json(outdir / "errors.json", record)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
