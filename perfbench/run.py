#!/usr/bin/env python3
"""kbmlab benchmark: closed-loop runner for the sweep and scan workloads.

    python3 perfbench/run.py --workload sphere --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --write-reference       # refresh reference.json

One run repeats one unit of work (a child process running the program on
the workload's inputs) until ``--seconds`` have passed, one unit at a time,
and reports the median over units.  Children run the package from
``src/`` of this checkout with ``--workers 1`` and BLAS threads capped at
the number of usable cores.

End-to-end metrics (``--trace 0``) are measured with no wrapper except a
probe on the solve entry point.  ``--trace 1`` alternates untraced and
traced units, reports the per-layer metrics of the traced ones, the
tracing overhead, and per-call times of single kernels at block
dimensions 3, 65 and 245.

Every unit's artifacts pass the row-level correctness gate in
``workloads.py`` outside the timed region; a unit that exits non-zero or
writes ``errors.json`` fails all of its rows.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (rows)
and ``metrics``.  The full record, with the environment, the artifact
digests and the reference comparison, goes to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

E2E = {"wall_s": "s", "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_UNITS = 3
# A run stops starting units once this much time has passed, whatever
# MIN_UNITS says, so that it ends well inside the 180 s limit.
HARD_STOP_S = 120.0
UNIT_TIMEOUT_S = 170.0

MICRO = {"dims": [3, 65, 245], "eta": 10.0, "x": -0.05, "shift": [0.3, 0.1]}

# Per-layer metrics: name -> function of a traced unit's summary and the
# workload's rows per unit.  Counts come from the first traced unit (they
# repeat exactly), times are medians over the traced units.
def _count(key):
    return lambda s, rows: s.get(key, 0)


def _ratio(num, den):
    return lambda s, rows: (num(s, rows) / den(s, rows)) if den(s, rows) else 0.0


_NEWTON_IN_TRACKS = _count("eig.newton_polish.calls_from.eig.track_branch")
LAYER_COUNTS = {
    "eig.eig_dense.calls": _count("eig.eig_dense.calls"),
    "eig.eig_dense.n3_sum": _count("eig.eig_dense.n3_sum"),
    "eig.char_poly.calls": _count("eig.char_poly.calls"),
    "eig.char_poly.dim_sum": _count("eig.char_poly.dim_sum"),
    "eig.newton.calls": _count("eig.newton_polish.calls"),
    "eig.newton.iters": _count("eig.newton_polish.iters"),
    "eig.newton.rejected": lambda s, rows: _NEWTON_IN_TRACKS(s, rows)
    - s.get("eig.track_branch.steps", 0),
    "eig.track_branch.calls": _count("eig.track_branch.calls"),
    "eig.track_branch.steps": _count("eig.track_branch.steps"),
    "eig.track_branch.collisions": _count("eig.track_branch.collisions"),
    "eig.track_branch.accept_ratio": _ratio(_count("eig.track_branch.steps"), _NEWTON_IN_TRACKS),
    "eig.residual_norm.calls": _count("eig.residual_norm.calls"),
    "operator.tridiag_solve.calls": _count("operator.tridiag_solve.calls"),
    "operator.tridiag_solve.rhs_cols": _count("operator.tridiag_solve.rhs_cols"),
    "operator.truncate.calls": _count("operator.truncate.calls"),
    "operator.truncate.k_max": _count("operator.truncate.k_max"),
    "operator.assemble.calls": lambda s, rows: s.get("operator.assemble_perturbed.calls", 0)
    + s.get("operator.assemble_generator.calls", 0),
    "perturb.operator_norm.calls": _count("perturb.operator_norm.calls"),
    "perturb.riesz_projection.calls": _count("perturb.riesz_projection.calls"),
    "spectra.gamma_sweep.calls": _count("spectra.gamma_sweep.calls"),
    "spectra.tracks_per_row": _ratio(
        _count("eig.track_branch.calls_from.spectra.gamma_sweep"), lambda s, rows: rows
    ),
    "spectra.dense_continuation.calls": _count("spectra.dense_continuation.calls"),
    "ladder.coefficients.calls": _count("ladder.ladder_coefficients.calls"),
    "cli.bytes_written": _count("cli.bytes_written"),
    "cli.files_written": _count("cli.files_written"),
}
LAYER_TIMES = {
    "eig.eig_dense.self_s": _count("eig.eig_dense.self_s"),
    "eig.char_poly.self_s": _count("eig.char_poly.self_s"),
    "eig.track_branch.self_s": _count("eig.track_branch.self_s"),
    "eig.residual_norm.busy_s": _count("eig.residual_norm.busy_s"),
    "operator.tridiag_solve.self_s": _count("operator.tridiag_solve.self_s"),
    "operator.truncate.busy_s": _count("operator.truncate.busy_s"),
    "operator.assemble.self_s": lambda s, rows: s.get("operator.assemble_perturbed.self_s", 0.0)
    + s.get("operator.assemble_generator.self_s", 0.0),
    "ladder.coefficients.self_s": _count("ladder.ladder_coefficients.self_s"),
}
# Self times of layers that some workload never calls: they read exactly 0
# there, so they are printed with the trace report but are not part of the
# per-layer metric set.
REPORT_ONLY_TIMES = {
    "operator.accretivity.self_s": _count("operator.accretivity_minimum.self_s"),
    "perturb.perturbation_radius.busy_s": _count("perturb.perturbation_radius.busy_s"),
    "perturb.operator_norm.self_s": _count("perturb.operator_norm.self_s"),
    "perturb.riesz_projection.self_s": _count("perturb.riesz_projection.self_s"),
    "perturb.perturbation_series.busy_s": _count("perturb.perturbation_series.busy_s"),
    "spectra.gamma_sweep.self_s": _count("spectra.gamma_sweep.self_s"),
    "spectra.sweep_s.max": _count("spectra.gamma_sweep.max_s"),
    "cli.run.self_s": _count("cli.run.self_s"),
}
MICRO_KERNELS = {
    ("eig", "char_poly"): "flop",
    ("eig", "newton_polish"): "flop",
    ("operator", "tridiag_solve_1col"): "flop",
    ("operator", "tridiag_solve_ncol"): "flop",
    ("eig", "eig_dense"): "flop",
    ("operator", "assemble_perturbed"): "bytes",
}


def layer_units() -> dict:
    """Every per-layer metric printed with ``--trace 1``, with its unit."""
    units = {name: "count" for name in LAYER_COUNTS}
    units["eig.track_branch.accept_ratio"] = "ratio"
    units["spectra.tracks_per_row"] = "ratio"
    units["cli.bytes_written"] = "bytes"
    units.update({name: "s" for name in LAYER_TIMES})
    units["trace.overhead_frac"] = "ratio"
    for (layer, kernel), op_unit in MICRO_KERNELS.items():
        for n in MICRO["dims"]:
            units[f"{layer}.{kernel}.us_n{n}"] = "us"
            units[f"{layer}.{kernel}.{op_unit}_n{n}"] = op_unit
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def write_inputs(inputs: dict, run_dir: Path) -> None:
    """Materialize the program's input files for a run."""
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "inputs.json").write_text(json.dumps(inputs, indent=1, sort_keys=True))
    if inputs["kind"] == "sweep":
        config = json.loads(json.dumps(inputs["config"]))
        if inputs["entries"] is not None:
            eta_path = run_dir / "etas.json"
            eta_path.write_text(json.dumps({"entries": inputs["entries"]}))
            config["surface"]["path"] = str(eta_path)
        (run_dir / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True))


def run_child(spec: dict, unit_dir: Path, timeout: float) -> tuple[dict, float, float, object]:
    """Run child.py on ``spec``; returns (result, spawn time, exit time, rc)."""
    unit_dir.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = unit_dir / "spec.json", unit_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)]
    with open(unit_dir / "log.txt", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            rc = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t_exit = time.monotonic()
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    return result, t_spawn, t_exit, rc


def run_unit(inputs: dict, run_dir: Path, idx: int, trace: bool, timeout: float) -> dict:
    unit_dir = run_dir / f"unit{idx:03d}{'t' if trace else ''}"
    out = unit_dir / "out"
    spec = {"kind": inputs["kind"], "trace": trace, "run_id": idx, "out": str(out)}
    if inputs["kind"] == "sweep":
        spec["argv"] = ["run", "--config", str(run_dir / "config.json"), "--out", str(out)]
    else:
        spec.update(cases=inputs["cases"], x_target=inputs["x_target"])
    result, t_spawn, t_exit, rc = run_child(spec, unit_dir, timeout)
    unit = {"idx": idx, "trace": trace, "rc": rc, "dir": str(unit_dir.relative_to(ROOT))}
    ok = rc == 0 and result.get("rc") == 0 and not (out / "errors.json").exists()
    if ok:
        unit["wall_s"] = result["t_done"] - t_spawn
        unit["setup_s"] = result["t_first"] - t_spawn
        unit["solve_s"] = result["t_last"] - result["t_first"]
        unit["rows_per_s"] = inputs["rows"] / unit["solve_s"]
        unit["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
        try:
            failed, problems = wl.gate(inputs, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failed, problems = inputs["rows"], [f"unreadable artifacts: {exc!r}"]
    else:
        unit["wall_s"] = t_exit - t_spawn
        failed = inputs["rows"]
        problems = [f"program failed (exit {rc}); see {unit['dir']}/log.txt"]
        if (out / "errors.json").exists():
            problems.append((out / "errors.json").read_text().strip())
    unit.update(attempted=inputs["rows"], failed=failed, problems=problems[:5])
    if out.exists():
        unit["digests"] = wl.digests(out)
        unit["values"] = wl.result_values(out)
        if "trace" in result and inputs["kind"] == "sweep":
            files = [p for p in out.rglob("*") if p.is_file()]
            result["trace"]["cli.files_written"] = len(files)
            result["trace"]["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    unit["trace_summary"] = result.get("trace")
    return unit


def _median(values):
    values = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def measure(inputs: dict, run_dir: Path, seconds: float, trace: bool, min_units: int) -> dict:
    """Closed loop: one unit at a time until ``seconds`` have passed."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    write_inputs(inputs, run_dir)
    t_start = time.monotonic()
    micro = None
    if trace:
        result, _, _, rc = run_child({"kind": "micro", **MICRO}, run_dir / "micro", UNIT_TIMEOUT_S)
        micro = result.get("micro") if rc == 0 else None
        if micro is None:
            print(f"micro-kernels failed (exit {rc}); see {run_dir / 'micro' / 'log.txt'}")
    units = []
    while True:
        elapsed = time.monotonic() - t_start
        traced = trace and len(units) % 2 == 1
        unit = run_unit(inputs, run_dir, len(units), traced, UNIT_TIMEOUT_S - elapsed)
        units.append(unit)
        if len(units) > 1:
            shutil.rmtree(ROOT / unit["dir"] / "out", ignore_errors=True)
        elapsed = time.monotonic() - t_start
        last = unit["wall_s"]
        need_more = len(units) < (2 * min_units if trace else min_units)
        if elapsed + last > HARD_STOP_S or (not need_more and elapsed + last > seconds):
            break
    return {"units": units, "micro": micro, "elapsed_s": time.monotonic() - t_start}


def end_to_end(units: list) -> dict:
    """Medians over the untraced units."""
    plain = [u for u in units if not u["trace"]]
    ok = [u for u in plain if u["rc"] == 0 and "setup_s" in u] or plain
    return {
        name: {"value": _median([u.get(name) for u in ok]), "unit": unit}
        for name, unit in E2E.items()
    }


def per_layer(units: list, rows: int, micro) -> tuple[dict, dict]:
    """(per-layer metrics, report-only extras) from the traced units."""
    traced = [u for u in units if u["trace"] and u["trace_summary"]]
    metrics, extra = {}, {}
    if traced:
        first = traced[0]["trace_summary"]
        for name, fn in LAYER_COUNTS.items():
            metrics[name] = fn(first, rows)
        for table, dest in ((LAYER_TIMES, metrics), (REPORT_ONLY_TIMES, extra)):
            for name, fn in table.items():
                dest[name] = _median([fn(u["trace_summary"], rows) for u in traced])
        plain = _median([u["wall_s"] for u in units if not u["trace"] and u["rc"] == 0])
        traced_wall = _median([u["wall_s"] for u in traced])
        metrics["trace.overhead_frac"] = traced_wall / plain - 1.0
    metrics.update(micro or {})
    out = {
        name: {"value": metrics.get(name, math.nan), "unit": unit}
        for name, unit in layer_units().items()
    }
    return out, {name: {"value": v, "unit": "s"} for name, v in extra.items()}


def environment(seed: int) -> dict:
    env = child_env()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # informational only
        blas = f"unknown ({type(exc).__name__})"
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "kbmlab").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def compare_reference(name: str, seed: int, units: list) -> dict:
    """Artifact identity across units and against the default-seed reference."""
    with_digests = [u for u in units if "digests" in u]
    out = {
        "identical_across_units": len({json.dumps(u["digests"]) for u in with_digests}) <= 1,
        "digests": with_digests[0]["digests"] if with_digests else {},
    }
    if seed != wl.DEFAULT_SEED or not REFERENCE.exists() or not with_digests:
        out["reference"] = "not compared (the reference is for the default seed)"
        return out
    ref = json.loads(REFERENCE.read_text()).get(name)
    if ref is None:
        out["reference"] = "no reference for this workload"
        return out
    same = with_digests[0]["digests"] == ref["digests"]
    out["identical_to_reference"] = same
    if not same:
        out["max_abs_dlambda"] = wl.max_abs_delta(with_digests[0]["values"], ref["values"])
    return out


def run_workload(
    inputs: dict, seconds: float, trace: bool, min_units: int = MIN_UNITS, tag: str = ""
) -> dict:
    """Measure one workload; returns the full result record."""
    name, seed = inputs["workload"], inputs["seed"]
    run_dir = WORK / f"{name}{tag}-s{seed}-t{int(trace)}"
    m = measure(inputs, run_dir, seconds, trace, min_units)
    units = m["units"]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    if trace:
        metrics, report_only = per_layer(units, inputs["rows"], m["micro"])
    else:
        metrics, report_only = end_to_end(units), {}
    record = {
        "workload": name,
        "why": wl.WORKLOADS.get(name, ""),
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "units": len(units),
        "rows_per_unit": inputs["rows"],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "report_only": report_only,
        "artifacts": compare_reference(name, seed, units),
        "environment": environment(seed),
        "unit_records": [
            {k: v for k, v in u.items() if k not in ("digests", "values", "trace_summary")}
            for u in units
        ],
        "elapsed_s": m["elapsed_s"],
    }
    record_path = WORK / f"result-{run_dir.name}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    record["record_path"] = str(record_path.relative_to(ROOT))
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    print(f"# {name}: {record['why']}")
    print(f"{name} units={record['units']} rows/unit={record['rows_per_unit']} "
          f"seed={record['seed']} trace={int(record['trace'])}")
    for metric, mv in list(record["metrics"].items()) + list(record["report_only"].items()):
        print(f"{name} {metric} {mv['value']:.6g} {mv['unit']}")
    print(f"{name} failed_frac {record['failed_frac']:.6g} ratio")
    art = record["artifacts"]
    print(f"{name} artifacts identical across units: {art['identical_across_units']}; "
          f"reference: {art.get('identical_to_reference', art.get('reference'))}"
          + (f" (max |dlambda| {art['max_abs_dlambda']:.3e})" if "max_abs_dlambda" in art else ""))
    for u in record["unit_records"]:
        for p in u["problems"]:
            print(f"{name} unit {u['idx']}: {p}")
    print(f"{name} record {record['record_path']}")


def result_line(records: list, prefix: bool) -> str:
    metrics = {}
    for r in records:
        for metric, mv in r["metrics"].items():
            metrics[f"{r['workload']}.{metric}" if prefix else metric] = mv
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for mv in metrics.values():
        if not math.isfinite(mv["value"]):  # nothing measured: every unit failed
            mv["value"] = None
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
        allow_nan=False,
    )


def run_all(inputs_list: list, seconds: float, trace: bool, **kwargs) -> list:
    """Measure each workload in turn and print its report; a workload whose
    program fails is recorded as failed and the next one still runs."""
    records = []
    for inputs in inputs_list:
        record = run_workload(inputs, seconds, trace, **kwargs)
        print_record(record)
        records.append(record)
    return records


def write_reference() -> None:
    """Record digests and values of one default-seed unit per workload."""
    ref = {}
    for name in wl.WORKLOADS:
        inputs = wl.make_inputs(name, wl.DEFAULT_SEED)
        run_dir = WORK / f"{name}-reference"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        write_inputs(inputs, run_dir)
        unit = run_unit(inputs, run_dir, 0, False, UNIT_TIMEOUT_S)
        if unit["failed"]:
            raise SystemExit(f"{name}: reference unit failed: {unit['problems']}")
        ref[name] = {"digests": unit["digests"], "values": unit["values"]}
        print(f"{name}: {len(unit['digests'])} artifacts")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help=f"one of {sorted(wl.WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kbmlab" / "__init__.py").is_file():
        print(f"error: no kbmlab package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in wl.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    inputs = [wl.make_inputs(name, args.seed) for name in names]
    records = run_all(inputs, args.seconds, bool(args.trace))
    print(result_line(records, prefix=len(records) > 1), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
