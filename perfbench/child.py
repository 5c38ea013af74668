"""One unit of benchmark work, run in its own process by ``run.py``.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC names the unit kind:

- ``sweep``: ``kbmlab run`` through ``kbmlab.cli.main`` with the given argv;
- ``scan``: the collision / perturbation-radius / Riesz-projection scan;
- ``micro``: per-call times of single kernels on fixed blocks.

Timestamps are ``time.monotonic()`` (CLOCK_MONOTONIC, shared by all
processes of the machine), so the parent can subtract its own spawn time.
The first call into the solve layer is found by rebinding that function
in every package module; with ``"trace": true`` every layer function is
wrapped as well (see ``spans.py``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

CONTOUR_NODES = 64


class SolveProbe:
    """Records the first entry into and the last exit from one function."""

    def __init__(self):
        self.first = None
        self.last = None

    def wrap(self, fn):
        def probed(*args, **kwargs):
            if self.first is None:
                self.first = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.last = time.monotonic()

        return probed


def _binders():
    return [m for n, m in list(sys.modules.items()) if n == "kbmlab" or n.startswith("kbmlab.")]


def run_sweep(spec: dict, probe: SolveProbe) -> int:
    import kbmlab.cli
    import kbmlab.spectra
    from spans import rebind

    rebind(_binders(), kbmlab.spectra.gamma_sweep, probe.wrap(kbmlab.spectra.gamma_sweep))
    return kbmlab.cli.main(spec["argv"])


def run_scan(spec: dict, probe: SolveProbe) -> int:
    import kbmlab as kb
    import numpy as np
    from workloads import CONTOUR_RADIUS

    contour = kb.Contour(center=0.0, radius=CONTOUR_RADIUS, nodes=CONTOUR_NODES)
    blocks = []
    for case in spec["cases"]:
        K, eta = case["K"], case["eta"]
        if K > 0.0:
            block = kb.finite_block(eta, K)
        else:
            block = kb.truncate(eta, K, kb.fixed_truncation(case["k_max"]))
        blocks.append((case, block, kb.ladder_coefficients(block)))

    probe.first = time.monotonic()
    rows = []
    for case, block, coeffs in blocks:
        br = kb.track_branch(block, coeffs, spec["x_target"])
        radius = kb.perturbation_radius(block, coeffs, contour)
        riesz = []
        for x in case["riesz_x"]:
            proj = kb.riesz_projection(kb.assemble_perturbed(block, coeffs, x), contour)
            riesz.append(
                {
                    "x": x,
                    "idempotency": kb.idempotency_defect(proj),
                    "trace_error": float(abs(np.trace(proj) - 1.0)),
                }
            )
        rows.append(
            {
                "K": case["K"],
                "eta": case["eta"],
                "dim": int(block.dim),
                "status": br.status,
                "x_collision": None if br.x_collision is None else abs(br.x_collision),
                "radius": radius,
                "riesz": riesz,
            }
        )
    probe.last = time.monotonic()
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "scan.json").write_text(json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n")
    return 0


# Per-kernel computed operation counts (unit, count) for a block of dim n.
# Flop counts use 8 real flops per complex multiply-add.
def _op_count(kernel: str, n: int, iters: int = 0):
    if kernel == "char_poly":  # five complex multiply-adds per rung
        return "flop", 40 * n
    if kernel == "newton_polish":  # one char_poly per iteration
        return "flop", 40 * n * iters
    if kernel == "tridiag_solve_1col":  # LU, two sweeps, residual, one refinement
        return "flop", 8 * (2 * n + 9 * n)
    if kernel == "tridiag_solve_ncol":
        return "flop", 8 * (2 * n + 9 * n * n)
    if kernel == "eig_dense":  # Hessenberg QR, eigenvalues only (~10 n^3 complex)
        return "flop", 80 * n**3
    if kernel == "assemble_perturbed":  # three diagonals, plus the dense cache
        return "bytes", 16 * (3 * n - 2) + (16 * n * n if n <= 512 else 0)
    raise ValueError(kernel)


def _per_call_us(fn, repeats: int = 7, min_batch_s: float = 0.01) -> float:
    fn()
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= min_batch_s or calls >= 1 << 16:
            break
        calls *= 4
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    samples.sort()
    return 1e6 * samples[len(samples) // 2]


def run_micro(spec: dict) -> dict:
    import kbmlab as kb
    import numpy as np

    out = {}
    eta, x = spec["eta"], spec["x"]
    mu_guess = complex(0.5 * eta * x * x)
    shift = complex(*spec["shift"])
    for n in spec["dims"]:
        k = (n - 1) // 2
        block = kb.truncate(eta, -1.0, kb.fixed_truncation(k))
        coeffs = kb.ladder_coefficients(block)
        op = kb.assemble_perturbed(block, coeffs, x)
        iters = kb.newton_polish(op, mu_guess)[2]
        ones, eye = np.ones(n, dtype=complex), np.eye(n, dtype=complex)
        kernels = {
            ("eig", "char_poly"): lambda: kb.char_poly(op, mu_guess),
            ("eig", "newton_polish"): lambda: kb.newton_polish(op, mu_guess),
            ("operator", "tridiag_solve_1col"): lambda: kb.tridiag_solve(op, shift, ones),
            ("operator", "tridiag_solve_ncol"): lambda: kb.tridiag_solve(op, shift, eye),
            ("eig", "eig_dense"): lambda: kb.eig_dense(op),
            ("operator", "assemble_perturbed"): lambda: kb.assemble_perturbed(block, coeffs, x),
        }
        for (layer, kernel), fn in kernels.items():
            unit, count = _op_count(kernel, n, iters)
            out[f"{layer}.{kernel}.us_n{n}"] = _per_call_us(fn)
            out[f"{layer}.{kernel}.{unit}_n{n}"] = count
    return out


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result_path = Path(argv[2])
    result: dict = {}
    if spec["kind"] == "micro":
        result["micro"] = run_micro(spec)
        result_path.write_text(json.dumps(result))
        return 0

    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        import kbmlab  # noqa: F401  (load every module before wrapping)

        tracer = Tracer(run_id=spec.get("run_id", 0))
        tracer.install()
    probe = SolveProbe()
    runner = run_sweep if spec["kind"] == "sweep" else run_scan
    rc = runner(spec, probe)
    result.update(
        rc=rc,
        t_done=time.monotonic(),
        t_first=probe.first,
        t_last=probe.last,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        tracer.save(result_path.with_name("spans.npz"))
        result["trace"] = tracer.summary()
    result_path.write_text(json.dumps(result))
    return 0 if rc == 0 and probe.first is not None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
