"""Acceptance suite: ten executable criteria with pinned tolerances.

Each criterion returns a result record; the CLI selftest and the pytest
acceptance module both consume these.  ``tolerance_scale`` multiplies
every tolerance and exists to demonstrate that the harness detects
regressions (a tiny scale forces designed failures); production runs use
the default 1.0.  It can only tighten the contract: a scale that is not
in (0, 1] is a ConfigError.  ``CRITERIA`` registers each criterion's id,
title and whether it reads the shared fixture.

The suite cases are eta in {2, 6, 12} on the unit sphere, eta in {1, 2}
on the flat square torus of side 2*pi, and eta in {2, 5, 10} on a
user-supplied curvature -1 list.  Criteria 2, 8, 9 and 10 read one shared
fixture, the sweeps of every case on the default run's grid
(``build_suite_data``), so they judge the rows ``kbmlab run`` reports.
Nothing is drawn at random.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .eig import eig_dense, track_branch
from .errors import ConfigError
from .ladder import (
    casimir_residual,
    coupling_matrix,
    ladder_coefficients,
    lowering_coeff_sq,
    lowering_matrix,
    raising_matrix,
)
from .operator import (
    assemble_generator,
    assemble_perturbed,
    block_at,
    numerical_range_floor,
)
from .perturb import (
    Contour,
    idempotency_defect,
    perturbation_series,
    riesz_projection,
    zero_mode_resolvent_norm,
)
from .spectra import (
    default_gamma_grid,
    error_at_gamma,
    gamma_sweep,
    tail_mask,
    tail_threshold,
)

SPHERE_K = 1.0
SPHERE_ETAS = (2.0, 6.0, 12.0)
TORUS_ETAS = (1.0, 2.0)  # flat square torus, side 2*pi
CUSTOM_K = -1.0
CUSTOM_ETAS = (2.0, 5.0, 10.0)


def suite_cases() -> list:
    """(curvature, eta) pairs of the convergence suite."""
    cases = [(SPHERE_K, eta) for eta in SPHERE_ETAS]
    cases += [(0.0, eta) for eta in TORUS_ETAS]
    cases += [(CUSTOM_K, eta) for eta in CUSTOM_ETAS]
    return cases


def suite_block(K: float, eta: float):
    """Block and coefficients for one suite case.  An infinite ladder is cut
    at |k| <= 32: criteria 3, 6 and 7 check identities that hold at any
    cutoff, and criteria 9 and 10 judge the truncation on the sweeps."""
    block = block_at(eta, K, 32)
    return block, ladder_coefficients(block)


@dataclass
class SuiteData:
    tables: dict  # (K, eta) -> GammaTable
    build_seconds: float


def build_suite_data() -> SuiteData:
    """Gamma sweeps for every suite case on the default run's grid (the
    expensive shared step)."""
    t0 = time.perf_counter()
    grid = default_gamma_grid()
    tables = {}
    for K, eta in suite_cases():
        tables[(K, eta)] = gamma_sweep(eta, K, grid)
    return SuiteData(tables=tables, build_seconds=time.perf_counter() - t0)


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    seconds: float


class Criterion(NamedTuple):
    cid: int
    title: str
    run: Callable[..., CriterionResult]
    reads_fixture: bool


CRITERIA: list[Criterion] = []


def _criterion(cid: int, title: str, reads_fixture: bool = False):
    """Register a check that returns (passed, detail) as criterion ``cid``.
    The registered function returns the timed ``CriterionResult``; a check
    that reads the fixture takes the ``SuiteData`` first."""

    def register(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check(*args, **kwargs)
            return CriterionResult(cid, title, bool(passed), detail, time.perf_counter() - t0)

        CRITERIA.append(Criterion(cid, title, run, reads_fixture))
        return run

    return register


def closed_form_mu(x: float) -> float:
    """Branch of the 3x3 sphere block eta=2, K=1 in cancellation-free form:
    (1 - sqrt(1 - 4 x^2)) / 2 = 2 x^2 / (1 + sqrt(1 - 4 x^2))."""
    return 2.0 * x * x / (1.0 + math.sqrt(1.0 - 4.0 * x * x))


def closed_form_lambda(gamma: float) -> float:
    """lambda(gamma) on the same block for gamma > 4, stable form
    4 / (1 + sqrt(1 - 16/gamma^2))."""
    return 4.0 / (1.0 + math.sqrt(1.0 - 16.0 / (gamma * gamma)))


@_criterion(1, "closed-form branch oracle")
def criterion_1(scale: float = 1.0):
    """Tracked branch equals the closed form on the eta=2 sphere block at 50
    parameters, landed on by one checkpointed continuation per sign."""
    t0 = time.perf_counter()
    tol = 1e-10 * scale
    block, coeffs = suite_block(SPHERE_K, 2.0)
    xs = np.linspace(-0.45, 0.45, 50)
    worst = 0.0
    for side in (xs[xs < 0.0][::-1], xs[xs > 0.0]):
        br = track_branch(block, coeffs, side[-1], checkpoints=side)
        if br.status != "complete":
            return False, f"collision at x={br.x_collision}"
        for x, i in zip(side, br.checkpoint_index):
            worst = max(worst, abs(br.mu_values[i] - closed_form_mu(float(x))))
    elapsed = time.perf_counter() - t0
    passed = worst <= tol and elapsed < 1.0
    detail = f"max |mu - closed form| = {worst:.3e} (tol {tol:.1e}) on 50 samples, 2 continuations"
    if elapsed >= 1.0:
        detail += " [exceeded the 1 s budget]"
    return passed, detail


@_criterion(2, "spectral convergence at desk scale", reads_fixture=True)
def criterion_2(data: SuiteData, scale: float = 1.0):
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
    return not failures, detail


@_criterion(3, "second-order perturbation coefficients")
def criterion_3(scale: float = 1.0):
    """First-order coefficient vanishes; branch curvature recovers eta."""
    tol1 = 1e-14 * scale
    tol2 = 1e-8 * scale
    failures = []
    for K, eta in suite_cases():
        series = perturbation_series(suite_block(K, eta)[1])
        if abs(series.mu1) > tol1:
            failures.append(f"(K={K}, eta={eta}): |mu1|={abs(series.mu1):.2e}")
        rel = abs(series.second_derivative - eta) / eta
        if rel > tol2:
            failures.append(f"(K={K}, eta={eta}): |2*mu2 - eta|/eta={rel:.2e}")
    detail = "; ".join(failures) if failures else "mu1 = 0 and 2*mu2 = eta on every case"
    return not failures, detail


@_criterion(4, "zero-mode resolvent norm bound")
def criterion_4(scale: float = 1.0):
    """Zero-mode resolvent norm equals |zeta|^-1 sqrt(eta/2)."""
    tol = 1e-10 * scale
    worst = 0.0
    for eta in (2.0, 8.0, 32.0):
        for zeta in (0.25, 0.5, 0.75):
            bound = zero_mode_resolvent_norm(eta, zeta)
            worst = max(worst, abs(bound.computed - bound.closed_form) / bound.closed_form)
    detail = f"max relative deviation {worst:.2e} (tol {tol:.1e})"
    return worst <= tol, detail


@_criterion(5, "Riesz projection idempotency and rank")
def criterion_5(scale: float = 1.0):
    """Riesz projection is a rank-one idempotent for x in {0, 0.1, 0.3}."""
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
    return ok, detail


@_criterion(6, "ladder algebraic identities")
def criterion_6(scale: float = 1.0):
    """Casimir identity, exact skewness, raising*lowering scalar values."""
    tol = 1e-12 * scale
    failures = []
    cases = suite_cases() + [(SPHERE_K, 0.0)]
    for K, eta in cases:
        block, coeffs = suite_block(K, eta)
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
    return not failures, detail


@_criterion(7, "accretivity of the generator")
def criterion_7(scale: float = 1.0):
    """Generator restrictions have nonnegative numerical range."""
    floor = -1e-12 * scale
    worst = math.inf
    for K, eta in suite_cases() + [(SPHERE_K, 0.0)]:
        coeffs = suite_block(K, eta)[1]
        for gamma in (0.5, 2.0, 10.0):
            op = assemble_generator(coeffs, gamma)
            worst = min(worst, numerical_range_floor(op))
    detail = (
        f"min Re<Pv,v> >= {worst:.3e}, Gershgorin's bound on the Hermitian part "
        f"(floor {floor:.1e})"
    )
    return worst >= floor, detail


@_criterion(8, "collision diagnostics", reads_fixture=True)
def criterion_8(data: SuiteData, scale: float = 1.0):
    """The sphere eta = 2 sweep collides at |x_c| = 0.5 +- 0.01, so at
    gamma = 2/|x_c| = 4 +- 0.1, with x_c = 2/``empirical_r``.  Every row
    with gamma < 4 is collided and complex, and the first row above 4 is
    not collided and matches the closed form to 1e-9."""
    table = data.tables[(SPHERE_K, 2.0)]
    gamma_c = table.empirical_r if table.empirical_r is not None else math.nan
    x_c = 2.0 / gamma_c
    ok_loc = abs(x_c - 0.5) <= 0.01 * scale
    ok_gamma = abs(gamma_c - 4.0) <= 0.1 * scale

    below = table.gamma_grid < 4.0
    ok_complex = bool(
        below.any() and np.all(table.lam[below].imag != 0.0) and np.all(table.collided[below])
    )
    i = int(np.argmin(below))  # the first row above gamma = 4
    gamma = float(table.gamma_grid[i])
    ok_above = (not table.collided[i]) and abs(table.lam[i] - closed_form_lambda(gamma)) <= 1e-9

    detail = (
        f"x_collision = {x_c:.6f} (gamma ~ {gamma_c:.4f}); {int(below.sum())} rows with "
        f"gamma<4 complex and flagged: {ok_complex}; gamma={gamma:.4g} row clean: {ok_above}"
    )
    return ok_loc and ok_gamma and ok_complex and ok_above, detail


@_criterion(9, "truncation doubling certificate", reads_fixture=True)
def criterion_9(data: SuiteData, scale: float = 1.0):
    """Doubling the truncation moves lambda by < 1e-10 on the tail."""
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
    return not failures, detail


@_criterion(10, "dense-oracle equivalence", reads_fixture=True)
def criterion_10(data: SuiteData, scale: float = 1.0):
    """Swept values reappear in the dense spectrum of the generator.

    On every case, each simple row with 1.5 f <= gamma <= 6 f, where
    f = 4*(1 + sqrt(eta)) is the tail threshold (``tail_threshold``), is
    compared with the eigenvalues of ``assemble_generator`` on the table's
    own block, whose coefficients the table carries (``table.coeffs``; the
    sweep's certified cutoff ``k_trunc`` on an infinite ladder).  Below
    the band the branch's separation radius shrinks like 1/sqrt(eta) and
    there is no simple branch to compare.  A case with no simple row in
    the band fails.
    """
    tol = 1e-8 * scale
    worst = 0.0
    cells = 0
    failures = []
    for (K, eta), table in data.tables.items():
        f = tail_threshold(eta)
        g = table.gamma_grid
        rows = np.nonzero(table.simple & (g >= 1.5 * f) & (g <= 6.0 * f))[0]
        if rows.size == 0:
            failures.append(f"(K={K}, eta={eta}): no simple row in the band")
            continue
        coeffs = table.coeffs
        for i in rows:
            eigs = eig_dense(assemble_generator(coeffs, float(g[i])))
            dev = float(np.min(np.abs(eigs - table.lam[i])))
            worst = max(worst, dev)
            cells += 1
            if dev > tol:
                failures.append(f"(K={K}, eta={eta}, gamma={g[i]:.2f}): dev {dev:.2e}")
    detail = "; ".join(failures) if failures else (
        f"max deviation {worst:.2e} over {cells} cells on {len(data.tables)} cases (tol {tol:.1e})"
    )
    return not failures, detail


def run_acceptance(
    criteria: Optional[Sequence[int]] = None,
    tolerance_scale: float = 1.0,
) -> tuple[list, Optional[SuiteData]]:
    """Run the selected criteria (all by default).  Returns their results
    and the shared sweep fixture (None when no selected criterion reads
    it); its build time is counted in no criterion's ``seconds``.  An
    unknown criterion id, or a ``tolerance_scale`` outside (0, 1] (NaN and
    infinities included), raises ConfigError before any criterion runs."""
    if not 0.0 < tolerance_scale <= 1.0:
        raise ConfigError(
            f"tolerance scale must be in (0, 1], got {tolerance_scale!r}; "
            "it may tighten the acceptance tolerances but never loosen them"
        )
    unknown = set(criteria or ()) - {c.cid for c in CRITERIA}
    if unknown:
        known = [c.cid for c in CRITERIA]
        raise ConfigError(f"unknown criteria {sorted(unknown)}; known: {known}")
    chosen = [c for c in CRITERIA if not criteria or c.cid in criteria]
    data = build_suite_data() if any(c.reads_fixture for c in chosen) else None
    results = [
        c.run(data, tolerance_scale) if c.reads_fixture else c.run(tolerance_scale)
        for c in chosen
    ]
    return results, data
