#!/usr/bin/env python3
"""End-to-end run over all three model surfaces.

Writes the tables and the summary for the sphere (K=1), the flat square
torus (side 2*pi) and a curvature -1 surface with a user-style eta list,
into out_suite/<surface>/.  The curvature -1 eta list is written beside
its artifacts, as out_suite/hyperbolic/etas.json.
"""

import json
import math
from pathlib import Path

from kbmlab.cli import run

OUT_ROOT = Path("out_suite")
HYPERBOLIC_ETAS = [[0.0, 1], [2.0, 1], [5.0, 1], [10.0, 1]]
GRID = {"log_start": 0.5, "log_end": 4.0, "points": 71}


def run_surface(name, surface):
    manifest = run({
        "surface": surface,
        "gamma_grid": GRID,
        "outputs": {"directory": str(OUT_ROOT / name)},
    })
    summary = json.loads(Path(manifest["summary"]).read_text())
    print(f"\n== {name} ==")
    # the summary holds the verdicts, each table its rows, in the same eta order
    for row, path in zip(summary["per_eta"], manifest["tables"]):
        final = json.loads(Path(path).read_text())["rows"][-1]["abs_error"]
        print(
            f"  eta = {row['eta']:6g}  final |lambda - eta| = {final:.3e}"
            f"  monotone tail: {row['tail_monotone']}  rate: {row['fitted_rate']}"
        )


def main():
    run_surface("sphere", {"kind": "sphere", "K": 1.0, "l_max": 3})
    run_surface("torus", {"kind": "torus", "L": 2.0 * math.pi, "eta_cap": 2.5})
    eta_path = OUT_ROOT / "hyperbolic" / "etas.json"
    eta_path.parent.mkdir(parents=True, exist_ok=True)
    eta_path.write_text(json.dumps({"entries": HYPERBOLIC_ETAS}))
    run_surface("hyperbolic", {"kind": "custom", "K": -1.0, "path": str(eta_path)})
    print(f"\nartifacts under {OUT_ROOT}/")


if __name__ == "__main__":
    main()
