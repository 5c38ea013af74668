"""Acceptance suite: ten executable criteria with pinned tolerances.

Each criterion returns a result record; the CLI selftest and the pytest
acceptance module both consume these.  ``tolerance_scale`` multiplies
every tolerance and exists to demonstrate that the harness detects
regressions (a tiny scale forces designed failures); production runs use
the default 1.0.

The suite cases are eta in {2, 6, 12} on the unit sphere, eta in {1, 2}
on the flat square torus of side 2*pi, and eta in {2, 5, 10} on a
user-supplied curvature -1 list.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .eig import eig_dense, track_branch
from .ladder import (
    casimir_residual,
    coupling_matrix,
    finite_block,
    ladder_coefficients,
    lowering_coeff_sq,
    lowering_matrix,
    raising_matrix,
)
from .operator import (
    assemble_generator,
    assemble_perturbed,
    fixed_truncation,
    numerical_range_floor,
    truncate,
)
from .perturb import (
    Contour,
    idempotency_defect,
    perturbation_series,
    riesz_projection,
    zero_mode_resolvent_norm,
)
from .spectra import (
    error_at_gamma,
    gamma_sweep,
    make_gamma_grid,
    tail_mask,
)

SPHERE_K = 1.0
SPHERE_ETAS = (2.0, 6.0, 12.0)
TORUS_ETAS = (1.0, 2.0)  # flat square torus, side 2*pi
CUSTOM_K = -1.0
CUSTOM_ETAS = (2.0, 5.0, 10.0)

DEFAULT_SEED = 20250808


def suite_cases() -> list:
    """(curvature, eta) pairs of the convergence suite."""
    cases = [(SPHERE_K, eta) for eta in SPHERE_ETAS]
    cases += [(0.0, eta) for eta in TORUS_ETAS]
    cases += [(CUSTOM_K, eta) for eta in CUSTOM_ETAS]
    return cases


def suite_block(K: float, eta: float):
    """Block and coefficients for one suite case.  An infinite ladder is cut
    at |k| <= 32: criteria 3, 6, 7 and 10 check identities that hold at any
    cutoff, and criterion 9 judges the truncation on the sweeps."""
    if K > 0.0:
        block = finite_block(eta, K)
    else:
        block = truncate(eta, K, fixed_truncation(32))
    return block, ladder_coefficients(block)


def acceptance_gamma_grid() -> np.ndarray:
    """25 points per decade from 10 to 1e4; hits 1e3 and 1e4 exactly."""
    return make_gamma_grid(1.0, 4.0, 76)


@dataclass
class SuiteData:
    grid: np.ndarray
    tables: dict
    build_seconds: float


def build_suite_data() -> SuiteData:
    """Gamma sweeps for every suite case (the expensive shared step)."""
    t0 = time.perf_counter()
    grid = acceptance_gamma_grid()
    tables = {}
    for K, eta in suite_cases():
        tables[(K, eta)] = gamma_sweep(eta, K, grid)
    return SuiteData(grid=grid, tables=tables, build_seconds=time.perf_counter() - t0)


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    seconds: float


def _result(cid, title, passed, detail, t0) -> CriterionResult:
    return CriterionResult(
        cid=cid, title=title, passed=bool(passed), detail=detail, seconds=time.perf_counter() - t0
    )


def closed_form_mu(x: float) -> float:
    """Branch of the 3x3 sphere block eta=2, K=1 in cancellation-free form:
    (1 - sqrt(1 - 4 x^2)) / 2 = 2 x^2 / (1 + sqrt(1 - 4 x^2))."""
    return 2.0 * x * x / (1.0 + math.sqrt(1.0 - 4.0 * x * x))


def closed_form_lambda(gamma: float) -> float:
    """lambda(gamma) on the same block for gamma > 4, stable form
    4 / (1 + sqrt(1 - 16/gamma^2))."""
    return 4.0 / (1.0 + math.sqrt(1.0 - 16.0 / (gamma * gamma)))


def criterion_1(scale: float = 1.0) -> CriterionResult:
    """Tracked branch equals the closed form on the eta=2 sphere block."""
    t0 = time.perf_counter()
    tol = 1e-10 * scale
    block, coeffs = suite_block(SPHERE_K, 2.0)
    xs = np.linspace(-0.45, 0.45, 50)
    worst = 0.0
    for x in xs:
        if x == 0.0:
            continue
        br = track_branch(block, coeffs, float(x))
        if not br.reached:
            return _result(1, "closed-form branch oracle", False, f"collision at x={x}", t0)
        worst = max(worst, abs(br.final_mu - closed_form_mu(float(x))))
    elapsed = time.perf_counter() - t0
    passed = worst <= tol and elapsed < 1.0
    detail = f"max |mu - closed form| = {worst:.3e} (tol {tol:.1e}) over 50 samples"
    if elapsed >= 1.0:
        detail += " [exceeded the 1 s budget]"
    return _result(1, "closed-form branch oracle", passed, detail, t0)


def criterion_2(data: SuiteData, scale: float = 1.0) -> CriterionResult:
    """Branch values converge to eta at the pinned desk-scale tolerances."""
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for (K, eta), table in data.tables.items():
        tol3 = 1e-3 * (1.0 + eta) * scale
        tol4 = 1e-5 * (1.0 + eta) * scale
        e3 = error_at_gamma(table, 1e3)
        e4 = error_at_gamma(table, 1e4)
        worst = max(worst, e4 / (1.0 + eta))
        mask = tail_mask(table.gamma_grid, eta)
        monotone = bool(np.all(np.diff(table.abs_error[mask]) < 0.0))
        if e3 > tol3:
            failures.append(f"(K={K}, eta={eta}): err(1e3)={e3:.2e} > {tol3:.1e}")
        if e4 > tol4:
            failures.append(f"(K={K}, eta={eta}): err(1e4)={e4:.2e} > {tol4:.1e}")
        if not monotone:
            failures.append(f"(K={K}, eta={eta}): tail not monotone")
    total = data.build_seconds + (time.perf_counter() - t0)
    if total >= 120.0:
        failures.append("exceeded the 2 min budget")
    detail = "; ".join(failures) if failures else (
        f"all {len(data.tables)} cases within tolerance, worst scaled err(1e4) = {worst:.2e}"
    )
    return _result(2, "spectral convergence at desk scale", not failures, detail, t0)


def criterion_3(scale: float = 1.0) -> CriterionResult:
    """First-order coefficient vanishes; branch curvature recovers eta."""
    t0 = time.perf_counter()
    tol1 = 1e-14 * scale
    tol2 = 1e-8 * scale
    failures = []
    for K, eta in suite_cases():
        block, coeffs = suite_block(K, eta)
        series = perturbation_series(block, coeffs)
        if abs(series.mu1) > tol1:
            failures.append(f"(K={K}, eta={eta}): |mu1|={abs(series.mu1):.2e}")
        rel = abs(series.second_derivative - eta) / eta
        if rel > tol2:
            failures.append(f"(K={K}, eta={eta}): |2*mu2 - eta|/eta={rel:.2e}")
    detail = "; ".join(failures) if failures else "mu1 = 0 and 2*mu2 = eta on every case"
    return _result(3, "second-order perturbation coefficients", not failures, detail, t0)


def criterion_4(scale: float = 1.0) -> CriterionResult:
    """Zero-mode resolvent norm equals |zeta|^-1 sqrt(eta/2)."""
    t0 = time.perf_counter()
    tol = 1e-10 * scale
    worst = 0.0
    for eta in (2.0, 8.0, 32.0):
        for zeta in (0.25, 0.5, 0.75):
            bound = zero_mode_resolvent_norm(eta, zeta)
            worst = max(worst, abs(bound.computed - bound.closed_form) / bound.closed_form)
    detail = f"max relative deviation {worst:.2e} (tol {tol:.1e})"
    return _result(4, "zero-mode resolvent norm bound", worst <= tol, detail, t0)


def criterion_5(scale: float = 1.0) -> CriterionResult:
    """Riesz projection is a rank-one idempotent for x in {0, 0.1, 0.3}."""
    t0 = time.perf_counter()
    tol = 1e-8 * scale
    block, coeffs = suite_block(SPHERE_K, 2.0)
    contour = Contour(center=0.0, radius=0.5, nodes=64)
    worst_idem, worst_tr = 0.0, 0.0
    for x in (0.0, 0.1, 0.3):
        proj = riesz_projection(assemble_perturbed(block, coeffs, x), contour)
        worst_idem = max(worst_idem, idempotency_defect(proj))
        worst_tr = max(worst_tr, abs(np.trace(proj) - 1.0))
    ok = worst_idem <= tol and worst_tr <= tol
    detail = f"max ||P^2-P|| = {worst_idem:.2e}, max |tr P - 1| = {worst_tr:.2e} (tol {tol:.1e})"
    return _result(5, "Riesz projection idempotency and rank", ok, detail, t0)


def criterion_6(scale: float = 1.0) -> CriterionResult:
    """Casimir identity, exact skewness, raising*lowering scalar values."""
    t0 = time.perf_counter()
    tol = 1e-12 * scale
    failures = []
    cases = suite_cases() + [(SPHERE_K, 0.0)]
    for K, eta in cases:
        block, coeffs = suite_block(K, eta) if eta > 0 else (finite_block(0.0, K), None)
        if coeffs is None:
            coeffs = ladder_coefficients(block)
        res = casimir_residual(coeffs)
        if res > tol:
            failures.append(f"(K={K}, eta={eta}): casimir residual {res:.2e}")
        x_mat = coupling_matrix(coeffs)
        if np.max(np.abs(x_mat + x_mat.T)) != 0.0:
            failures.append(f"(K={K}, eta={eta}): coupling not exactly skew")
        prod = raising_matrix(coeffs) @ lowering_matrix(coeffs)
        ks = block.ks
        interior = slice(None) if block.finite else slice(1, -1)
        expected = np.array([-lowering_coeff_sq(eta, K, int(k)) for k in ks])
        dev = np.max(np.abs(np.diag(prod)[interior] - expected[interior])) if block.dim > 2 or block.finite else 0.0
        if dev > tol:
            failures.append(f"(K={K}, eta={eta}): raising*lowering scalar off by {dev:.2e}")
    detail = "; ".join(failures) if failures else f"identities hold to {tol:.1e} on all blocks"
    return _result(6, "ladder algebraic identities", not failures, detail, t0)


def criterion_7(scale: float = 1.0) -> CriterionResult:
    """Generator restrictions have nonnegative numerical range."""
    t0 = time.perf_counter()
    floor = -1e-12 * scale
    worst = math.inf
    for K, eta in suite_cases() + [(SPHERE_K, 0.0)]:
        block, coeffs = suite_block(K, eta) if eta > 0 else (finite_block(0.0, K), None)
        if coeffs is None:
            coeffs = ladder_coefficients(block)
        for gamma in (0.5, 2.0, 10.0):
            op = assemble_generator(block, coeffs, gamma)
            worst = min(worst, numerical_range_floor(op))
    detail = (
        f"min Re<Pv,v> >= {worst:.3e}, Gershgorin's bound on the Hermitian part "
        f"(floor {floor:.1e})"
    )
    return _result(7, "accretivity of the generator", worst >= floor, detail, t0)


def criterion_8(scale: float = 1.0) -> CriterionResult:
    """Collision located at |x| = 0.5 +- 0.01; complex values below gamma=4."""
    t0 = time.perf_counter()
    block, coeffs = suite_block(SPHERE_K, 2.0)
    br = track_branch(block, coeffs, -0.6)
    ok_flag = br.status == "collision" and br.x_collision is not None
    x_col = abs(br.x_collision) if ok_flag else math.nan
    ok_loc = ok_flag and abs(x_col - 0.5) <= 0.01 * scale
    gamma_est = 2.0 / x_col if ok_flag else math.nan
    ok_gamma = ok_flag and abs(gamma_est - 4.0) <= 0.1 * scale

    table = gamma_sweep(2.0, SPHERE_K, [3.0, 3.5, 5.0])
    below = table.lam[:2]
    ok_complex = bool(np.all(np.abs(below.imag) > 0.0)) and bool(np.all(table.collided[:2]))
    ok_above = (not table.collided[2]) and abs(table.lam[2] - closed_form_lambda(5.0)) <= 1e-9

    passed = ok_loc and ok_gamma and ok_complex and ok_above
    detail = (
        f"x_collision = {x_col:.6f} (gamma ~ {gamma_est:.4f}); "
        f"gamma<4 rows complex and flagged: {ok_complex}; gamma=5 row clean: {ok_above}"
    )
    return _result(8, "collision diagnostics", passed, detail, t0)


def criterion_9(data: SuiteData, scale: float = 1.0) -> CriterionResult:
    """Doubling the truncation moves lambda by < 1e-10 on the tail."""
    t0 = time.perf_counter()
    tol = 1e-10 * scale
    failures = []
    worst = 0.0
    for (K, eta), table in data.tables.items():
        if K > 0.0:
            continue
        mask = tail_mask(table.gamma_grid, eta)
        certs = table.certificate[mask]
        if not np.all(np.isfinite(certs)):
            failures.append(f"(K={K}, eta={eta}): missing certificate")
            continue
        worst = max(worst, float(np.max(certs)))
        if np.any(certs >= tol):
            failures.append(f"(K={K}, eta={eta}): certificate {np.max(certs):.2e}")
    detail = "; ".join(failures) if failures else f"max doubling shift {worst:.2e} (tol {tol:.1e})"
    return _result(9, "truncation doubling certificate", not failures, detail, t0)


def criterion_10(scale: float = 1.0, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Tracked values reappear in the dense spectrum of the generator.

    Cells are drawn with gamma above the tail threshold 4*(1 + sqrt(eta)),
    because the branch's separation radius shrinks like 1/sqrt(eta) and
    below it there is no simple branch to compare.
    """
    t0 = time.perf_counter()
    tol = 1e-8 * scale
    rng = np.random.default_rng(seed)
    cases = suite_cases()
    worst = 0.0
    failures = []
    for _ in range(20):
        K, eta = cases[rng.integers(len(cases))]
        gamma_floor = 4.0 * (1.0 + math.sqrt(eta))
        gamma = float(gamma_floor * 10.0 ** rng.uniform(math.log10(1.5), math.log10(6.0)))
        block, coeffs = suite_block(K, eta)
        if block.dim > 512:
            failures.append(f"(K={K}, eta={eta}): block dim {block.dim} exceeds 512")
            continue
        br = track_branch(block, coeffs, -2.0 / gamma)
        if not br.reached:
            failures.append(f"(K={K}, eta={eta}, gamma={gamma:.2f}): collision")
            continue
        lam = 0.5 * gamma * gamma * br.final_mu
        eigs = eig_dense(assemble_generator(block, coeffs, gamma))
        dev = float(np.min(np.abs(eigs - lam)))
        worst = max(worst, dev)
        if dev > tol:
            failures.append(f"(K={K}, eta={eta}, gamma={gamma:.2f}): dev {dev:.2e}")
    detail = "; ".join(failures) if failures else f"max deviation {worst:.2e} over 20 cells (tol {tol:.1e})"
    return _result(10, "dense-oracle equivalence", not failures, detail, t0)


CRITERION_TITLES = {
    1: "closed-form branch oracle",
    2: "spectral convergence at desk scale",
    3: "second-order perturbation coefficients",
    4: "zero-mode resolvent norm bound",
    5: "Riesz projection idempotency and rank",
    6: "ladder algebraic identities",
    7: "accretivity of the generator",
    8: "collision diagnostics",
    9: "truncation doubling certificate",
    10: "dense-oracle equivalence",
}


def run_acceptance(
    criteria: Optional[Sequence[int]] = None,
    tolerance_scale: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> tuple[list, Optional[SuiteData]]:
    """Run the selected criteria (all by default).  Returns their results
    and the shared sweep fixture that criteria 2 and 9 read (None when
    neither is selected); its build time is counted in no criterion's
    ``seconds``."""
    wanted = sorted(set(criteria)) if criteria else list(range(1, 11))
    for cid in wanted:
        if cid not in CRITERION_TITLES:
            raise ValueError(f"unknown criterion {cid}")
    data = build_suite_data() if any(c in (2, 9) for c in wanted) else None
    results = []
    for cid in wanted:
        if cid == 1:
            results.append(criterion_1(tolerance_scale))
        elif cid == 2:
            results.append(criterion_2(data, tolerance_scale))
        elif cid == 3:
            results.append(criterion_3(tolerance_scale))
        elif cid == 4:
            results.append(criterion_4(tolerance_scale))
        elif cid == 5:
            results.append(criterion_5(tolerance_scale))
        elif cid == 6:
            results.append(criterion_6(tolerance_scale))
        elif cid == 7:
            results.append(criterion_7(tolerance_scale))
        elif cid == 8:
            results.append(criterion_8(tolerance_scale))
        elif cid == 9:
            results.append(criterion_9(data, tolerance_scale))
        elif cid == 10:
            results.append(criterion_10(tolerance_scale, seed))
    return results, data
