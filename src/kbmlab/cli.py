"""Command-line front end.

Two subcommands: ``run`` executes gamma sweeps over a surface spectrum and
writes the branch lambda_eta(gamma) with its per-row certificates (one
JSON table per eta, the only place a per-gamma value is written) and the
convergence verdicts and the mixing-rate report (``summary.json``);
``selftest`` runs the acceptance suite and prints one pass/fail line per
criterion.  Identities that hold by construction (accretivity, the
Casimir identity, the zero-mode resolvent bound, the perturbation series
mu1 = 0 and 2*mu2 = eta) are certified by the acceptance suite, not
written by ``run``.

The config is the JSON mapping the README documents, ``{"surface": {...},
"gamma_grid": {...}, "truncation": {...}, "outputs": {...}}``, read from
a file and overridden by flags.  ``KEYS`` declares each key once: its
flag, its default, the check of its value, its help and the rule that
says when a run reads it.  A section or key not in it is a ConfigError,
whether the mapping comes from a file or from a caller of ``run``.
Every key given must change the run: one the
run would not read (a surface key its kind ignores, a log-grid key next to
an explicit gamma list, a truncation key on a K > 0 surface, whose blocks
are finite, a tolerance next to a ``k_max``, which fixes the cutoff) is a
ConfigError.  ``validate`` applies the table; the range rules live in the
library code that builds the spectrum, the grid and the truncation policy.
A run that stops on its inputs before any sweep reports a ConfigError and
exits with 2; one whose sweep fails exits with 1.  The JSON error record
names the error, its message, the stage (``config`` or ``sweep``) and the
eta of the failing sweep (null outside a sweep).  Output is deterministic
for a fixed config: numbers are written as JSON's shortest round-trip
repr, keys are sorted, and no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, KbmLabError
from .operator import TruncationPolicy
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


def _is_finite_number(value) -> bool:
    # abs() <= max also rejects nan, and compares an int too large for a float exactly
    return isinstance(value, (int, float)) and not isinstance(value, bool) and (
        abs(value) <= sys.float_info.max
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(text: str):
    """float(text), or the text itself where it is no number."""
    try:
        return float(text)
    except ValueError:
        return text


def _numbers(text: str) -> list:
    """Parse a comma list flag item by item.  ``_number`` keeps an item that
    is no number as a string, so the key's check refuses it with a
    ConfigError record like any other bad value, not argparse."""
    return [_number(v) for v in text.split(",") if v]


class _Check(NamedTuple):
    """A key's value check: ``test``, the message when it fails (formatted
    with ``key`` and ``value``), how a flag's text becomes a value, and the
    choices the flag takes."""

    test: Callable[[object], bool]
    wants: str
    parse: Callable[[str], object] = str
    choices: Optional[tuple] = None


def _choice(*choices: str, wants: str) -> _Check:
    return _Check(lambda v: v in choices, wants, choices=choices)


_FINITE = _Check(_is_finite_number, "{key} must be a finite number, got {value!r}", float)
_INTEGER = _Check(_is_int, "{key} must be an integer, got {value!r}", int)
# None, the default of k_max and of explicit, leaves them unset
_CUTOFF = _Check(lambda v: v is None or _is_int(v), _INTEGER.wants, int)
_PATH = _Check(lambda v: isinstance(v, str) and v != "",
               "custom surface needs a path to an eta list")
_GAMMAS = _Check(
    lambda v: v is None or (isinstance(v, (list, tuple)) and all(map(_is_finite_number, v))),
    "{key} must be a list of finite numbers, got {value!r}",
    _numbers,
)
_STRING = _Check(lambda v: isinstance(v, str), "{key} must be a string, got {value!r}")


class _Rule(NamedTuple):
    """When a run reads a key: ``reads(values)`` of the run's values, and
    ``why(values)``, the reason the run gives when it does not."""

    reads: Callable[[dict], bool]
    why: Callable[[dict], str]


def _surface_why(v: dict) -> str:
    reads = [key for key, row in KEYS.items()
             if key.startswith("surface.") and row.rule and row.rule.reads(v)]
    return f"a {v['surface.kind']} surface reads {' and '.join(reads)}"


def _read_by(*kinds: str) -> _Rule:
    """The rule of a surface key that the surfaces of these kinds read."""
    return _Rule(lambda v: v["surface.kind"] in kinds, _surface_why)


def _finite_blocks(v: dict) -> bool:
    kind = v["surface.kind"]
    return kind == "sphere" or (kind == "custom" and v["surface.K"] > 0.0)


def _truncation_why(v: dict) -> str:
    if _finite_blocks(v):
        return "a K > 0 surface has finite blocks; truncation is read only where K <= 0"
    return "truncation.k_max fixes the cutoff, which reads no tolerance"


_LOG_GRID = _Rule(lambda v: v["gamma_grid.explicit"] is None,
                  lambda v: "gamma_grid.explicit replaces the log grid")
_TRUNCATION = _Rule(lambda v: not _finite_blocks(v), _truncation_why)
_TOLERANCE = _Rule(lambda v: not _finite_blocks(v) and v["truncation.k_max"] is None,
                   _truncation_why)


class _Key(NamedTuple):
    """One config key: its flag, its default, its value check, the flag's
    help (to which ``build_parser`` adds the default) and the rule that
    says when a run reads it (None: every run does)."""

    flag: str
    default: object
    check: _Check
    help: str
    rule: Optional[_Rule] = None


# Every config key, "section.key", in the order the run checks them: a
# rule reads only keys above its own, which are checked by then.
KEYS = {
    "surface.kind": _Key(
        "--surface", "sphere",
        _choice("sphere", "torus", "custom", wants="unknown surface kind {value!r}"),
        "base surface"),
    "surface.K": _Key("--curvature", 1.0, _FINITE, "Gaussian curvature K",
                      _read_by("sphere", "custom")),
    "surface.l_max": _Key("--l-max", 2, _INTEGER, "sphere: largest l", _read_by("sphere")),
    "surface.L": _Key("--side", 2.0 * math.pi, _FINITE, "torus: side length L",
                      _read_by("torus")),
    "surface.eta_cap": _Key("--eta-cap", 2.5, _FINITE, "torus: largest eta", _read_by("torus")),
    "surface.path": _Key("--custom-path", None, _PATH, "custom: JSON eta list",
                         _read_by("custom")),
    "gamma_grid.log_start": _Key("--gamma-log-start", 0.0, _FINITE, "log10 of the first gamma",
                                 _LOG_GRID),
    "gamma_grid.log_end": _Key("--gamma-log-end", 4.0, _FINITE, "log10 of the last gamma",
                               _LOG_GRID),
    "gamma_grid.points": _Key("--gamma-points", 101, _INTEGER, "points of the log grid",
                              _LOG_GRID),
    "gamma_grid.explicit": _Key("--gamma-explicit", None, _GAMMAS,
                                "comma-separated gamma list, in place of the log grid"),
    "truncation.k_max": _Key("--k-max", None, _CUTOFF,
                             "fixed cutoff for K <= 0; adaptive without one", _TRUNCATION),
    "truncation.tol": _Key("--truncation-tol", 1e-10, _FINITE, "adaptive truncation tolerance",
                           _TOLERANCE),
    "outputs.directory": _Key("--out", "out", _STRING, "output directory"),
}


_SECTIONS = dict.fromkeys(key.partition(".")[0] for key in KEYS)


def _given(config: dict) -> list:
    """"section.key" of every key the config gives."""
    return [f"{section}.{key}" for section, block in config.items() for key in block]


def _values(config: dict) -> dict:
    """Every key's value: the config's where it gives the key, else the
    key's default."""
    values = {}
    for key, row in KEYS.items():
        section, _, name = key.partition(".")
        values[key] = config.get(section, {}).get(name, row.default)
    return values


def validate(config: dict, where: Optional[dict] = None) -> tuple:
    """Check the run's config against ``KEYS`` and build the run's
    spectrum, gamma grid and truncation policy, whose constructors enforce
    every range rule; return them.

    Every section must be an object, and every section and key must be
    one of ``KEYS``.  Then every key is checked in ``KEYS`` order.  A key
    the run does not read (its rule) must not be given: it would not
    change the run, so it is refused with where it was given
    (``where[key]``, by default "in the config").  A key the run reads
    must pass its check.  Any error raised is a ConfigError."""
    for section, block in config.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r} in the config")
        if not isinstance(block, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key in block:
            if f"{section}.{key}" not in KEYS:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
    v, given = _values(config), _given(config)
    for key, row in KEYS.items():
        if row.rule is not None and not row.rule.reads(v):
            if key in given:
                source = (where or {}).get(key, "in the config")
                raise ConfigError(
                    f"{key}, given {source}, is not read by this run: {row.rule.why(v)}"
                )
        elif not row.check.test(v[key]):
            raise ConfigError(row.check.wants.format(key=key, value=v[key]))
    try:
        spectrum, grid = build_spectrum(v), build_grid(v)
        policy = TruncationPolicy(k_max=v["truncation.k_max"], tol=v["truncation.tol"])
        if policy.k_max is not None:
            check_fixed_cutoff(policy.k_max)
    except KbmLabError as exc:
        raise ConfigError(str(exc)) from exc
    return spectrum, grid, policy


def load_config(path: Optional[str] = None) -> dict:
    """The config file's mapping, with every section of ``KEYS`` present
    (empty where the file has none); no path gives the empty config.  The
    file must hold a JSON object of objects, into which flags can be set;
    ``validate`` checks its names.  The top-level ``workers`` of the deleted
    ``run --workers`` is ignored."""
    config = {section: {} for section in _SECTIONS}
    if path is None:
        return config
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    for section, block in raw.items():
        if section == "workers":
            continue
        if not isinstance(block, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        config.setdefault(section, {}).update(block)
    return config


def _apply_flags(config: dict, args: argparse.Namespace) -> dict:
    """Set the config key of every ``run`` flag given; return where each
    was given."""
    where = {}
    for key, row in KEYS.items():
        value = getattr(args, key)
        if value is not None:
            section, _, name = key.partition(".")
            config[section][name] = value
            where[key] = f"by {row.flag}"
    return where


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


def build_spectrum(v: dict) -> SurfaceSpectrum:
    """The surface spectrum of the run's values (``_values``)."""
    kind = v["surface.kind"]
    if kind == "sphere":
        return sphere_spectrum(v["surface.K"], v["surface.l_max"])
    if kind == "torus":
        return torus_spectrum(v["surface.L"], v["surface.eta_cap"])
    return custom_spectrum(v["surface.K"], _load_custom_entries(v["surface.path"]))


def build_grid(v: dict) -> np.ndarray:
    """The gamma grid of the run's values (``_values``)."""
    if v["gamma_grid.explicit"] is not None:
        return check_gamma_grid(sorted(float(g) for g in v["gamma_grid.explicit"]))
    return check_gamma_grid(make_gamma_grid(
        v["gamma_grid.log_start"], v["gamma_grid.log_end"], v["gamma_grid.points"]
    ))


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


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _eta_tag(index: int, eta: float) -> str:
    return f"{index:02d}_eta_{eta:.6g}".replace(".", "p").replace("-", "m")


def run(config: dict, where: Optional[dict] = None) -> dict:
    """Execute the configured sweeps and write their artifacts: per eta a
    ``table_*.json``, then ``summary.json``.  Every table shares the run's
    gamma grid, and only the tables hold per-gamma values.  The summary
    holds the surface kind, the curvature, each eta's verdicts
    (``spectra.convergence_summary``) and the mixing report
    (``spectra.mixing_report``); no value a table holds is repeated there.

    ``config`` is the documented JSON mapping (``load_config``); a key it
    does not give takes its default, and ``where`` says where each key was
    given (see ``validate``).
    Returns a manifest of written paths (keys ``tables`` and ``summary``).
    Raises ConfigError when the inputs or the
    output directory cannot be built, before any sweep, and another
    KbmLabError subclass (or a ValueError) when a sweep fails; that error
    carries the eta of its sweep as ``exc.eta``.
    """
    spectrum, grid, policy = validate(config, where)
    v = _values(config)
    outdir = Path(v["outputs.directory"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {str(outdir)!r}: {exc}") from exc

    tables = []
    for entry in spectrum.entries:
        try:
            tables.append(gamma_sweep(entry.eta, spectrum.curvature, grid, policy))
        except (KbmLabError, ValueError) as exc:
            exc.eta = entry.eta
            raise

    manifest = {"tables": []}
    for i, (entry, table) in enumerate(zip(spectrum.entries, tables)):
        path = outdir / f"table_{_eta_tag(i, entry.eta)}.json"
        _write_json(
            path,
            {
                "eta": entry.eta,
                "curvature": spectrum.curvature,
                "multiplicity": entry.multiplicity,
                "label": entry.label,
                "empirical_r": table.empirical_r,
                "rows": _table_rows(table),
            },
        )
        manifest["tables"].append(str(path))

    summary = {
        "surface": v["surface.kind"],
        "curvature": spectrum.curvature,
        "per_eta": [convergence_summary(t) for t in tables],
    }
    try:
        summary["mixing"] = mixing_report(spectrum, tables)
    except KbmLabError:
        summary["mixing"] = None

    _write_json(outdir / "summary.json", summary)
    manifest["summary"] = str(outdir / "summary.json")
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

    # no abbreviations: --truncation would otherwise set --truncation-tol
    p_run = sub.add_parser("run", help="sweep a surface spectrum and write tables",
                           allow_abbrev=False)
    p_run.add_argument("--config", default=None, help="JSON config file (flags override it)")
    # every flag is None unless given, so the config file's value stands
    # where a flag is absent
    for key, row in KEYS.items():
        text = row.help
        if row.default is not None:
            text = f"{text} (default: {row.default})"
        p_run.add_argument(row.flag, dest=key, default=None, help=text,
                           type=row.check.parse, choices=row.check.choices)

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
        where = dict.fromkeys(_given(cfg), f"in the config file {args.config!r}")
        where.update(_apply_flags(cfg, args))
        run(cfg, where)
    except ConfigError as exc:
        _emit_error(cfg, exc)
        return 2
    except (KbmLabError, ValueError) as exc:
        _emit_error(cfg, exc)
        return 1
    return 0


def _emit_error(cfg: Optional[dict], exc: Exception) -> None:
    record = {
        "error": type(exc).__name__,
        "message": str(exc),
        "stage": "config" if isinstance(exc, ConfigError) else "sweep",
        "eta": getattr(exc, "eta", None),
    }
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    directory = None if cfg is None else _values(cfg)["outputs.directory"]
    if isinstance(directory, str):
        try:
            outdir = Path(directory)
            outdir.mkdir(parents=True, exist_ok=True)
            _write_json(outdir / "errors.json", record)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
