#!/usr/bin/env python3
"""End-to-end run over all three model surfaces.

Writes tables, summaries, perturbation series and diagnostics for the
sphere (K=1), the flat square torus (side 2*pi) and a curvature -1
surface with a user-style eta list, into out_suite/<surface>/.
"""

import json
import math
import tempfile
from pathlib import Path

from kbmlab.cli import RunConfig, SurfaceConfig, GridConfig, OutputConfig, run

OUT_ROOT = Path("out_suite")
HYPERBOLIC_ETAS = [[0.0, 1], [2.0, 1], [5.0, 1], [10.0, 1]]


def run_surface(name, surface, grid):
    cfg = RunConfig(
        surface=surface,
        grid=grid,
        output=OutputConfig(formats=("csv", "json"), directory=str(OUT_ROOT / name)),
    )
    manifest = run(cfg)
    summary = json.loads(Path(manifest["summary"]).read_text())
    print(f"\n== {name} ==")
    for row in summary["per_eta"]:
        print(
            f"  eta = {row['eta']:6g}  final |lambda - eta| = {row['final_error']:.3e}"
            f"  monotone tail: {row['tail_monotone']}  rate: {row['fitted_rate']}"
        )


def main():
    grid = GridConfig(log_start=0.5, log_end=4.0, points=71)
    run_surface("sphere", SurfaceConfig(kind="sphere", K=1.0, l_max=3), grid)
    run_surface(
        "torus", SurfaceConfig(kind="torus", L=2.0 * math.pi, eta_cap=2.5), grid
    )
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"entries": HYPERBOLIC_ETAS}, fh)
        eta_path = fh.name
    run_surface(
        "hyperbolic", SurfaceConfig(kind="custom", K=-1.0, path=eta_path), grid
    )
    print(f"\nartifacts under {OUT_ROOT}/")


if __name__ == "__main__":
    main()
