"""Surface spectra, gamma sweeps and convergence reports.

A sweep fixes one base-surface eigenvalue eta and reports
lambda(gamma) = (gamma^2/2) * mu(-2/gamma) on a gamma grid together with
per-row diagnostics: simplicity, collision passage, the truncation used
and its doubling certificate, and the eigenvector residual.  mu is one
holomorphic branch in x = -2/gamma, so a sweep continues it once per
block, from x = 0 out to the deepest grid point, landing exactly on every
grid value of x on the way (the doubled certificate block gets a second
such continuation).  Rows therefore share one path: where it stops at a
collision, every deeper row is resolved from the dense spectrum of the
even parity sector (``operator.even_sector``), which holds the branch
through 0, seeded with the path's last simple value; the picked value is
Newton-polished on that sector.  Each row's eigenvector residual is then
taken once, at the row's reported mu, on the full block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .eig import EigenBranch, eig_dense, newton_polish, residual_norm, track_branch
from .errors import BranchCollisionError, EigensolveError, SpectrumValidationError
from .ladder import CasimirBlock, LadderCoefficients, finite_block, ladder_coefficients
from .operator import TruncationPolicy, assemble_perturbed, even_sector, truncate


@dataclass(frozen=True)
class SpectrumEntry:
    eta: float
    multiplicity: int
    label: str


@dataclass(frozen=True, eq=False)
class SurfaceSpectrum:
    """Laplace spectrum of a model base surface, sorted by eigenvalue.

    The branch computation runs once per eta; multiplicities ride along as
    metadata because every copy of a block carries the same branch.
    """

    curvature: float
    entries: tuple
    source: str

    def __post_init__(self):
        if self.source not in ("sphere", "flat_torus", "custom"):
            raise SpectrumValidationError(f"unknown source {self.source!r}")
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise SpectrumValidationError("spectrum must not be empty")
        etas = [e.eta for e in entries]
        if any(not eta >= 0.0 for eta in etas):
            raise SpectrumValidationError("negative eta in spectrum")
        if any(not math.isfinite(eta) for eta in etas):
            raise SpectrumValidationError("non-finite eta in spectrum")
        if any(e.multiplicity < 1 for e in entries):
            raise SpectrumValidationError("multiplicities must be >= 1")
        if sorted(etas) != etas:
            raise SpectrumValidationError("entries must be sorted ascending by eta")
        if etas[0] != 0.0:
            raise SpectrumValidationError("zero mode (constants) missing from spectrum")

    def smallest_nonzero(self) -> float:
        for e in self.entries:
            if e.eta > 0.0:
                return e.eta
        raise SpectrumValidationError("spectrum has no nonzero eigenvalue")


def sphere_spectrum(K: float, l_max: int) -> SurfaceSpectrum:
    """Round sphere of curvature K > 0: eta = K*l*(l+1), multiplicity 2l+1."""
    if not K > 0.0:
        raise SpectrumValidationError("sphere needs K > 0")
    if l_max < 0:
        raise SpectrumValidationError("l_max must be >= 0")
    entries = tuple(
        SpectrumEntry(eta=K * l * (l + 1), multiplicity=2 * l + 1, label=f"l={l}")
        for l in range(l_max + 1)
    )
    return SurfaceSpectrum(curvature=K, entries=entries, source="sphere")


def torus_spectrum(L: float, eta_cap: float) -> SurfaceSpectrum:
    """Flat square torus of side L: eta = (2*pi/L)^2 (m^2 + n^2) <= eta_cap."""
    if not L > 0.0:
        raise SpectrumValidationError("torus needs L > 0")
    if not eta_cap >= 0.0:
        raise SpectrumValidationError("eta_cap must be >= 0")
    scale = (2.0 * math.pi / L) ** 2
    m_max = int(math.floor(math.sqrt(eta_cap / scale))) if eta_cap > 0 else 0
    counts: dict[int, int] = {}
    for m in range(-m_max, m_max + 1):
        for n in range(-m_max, m_max + 1):
            s = m * m + n * n
            if scale * s <= eta_cap:
                counts[s] = counts.get(s, 0) + 1
    entries = tuple(
        SpectrumEntry(eta=scale * s, multiplicity=counts[s], label=f"m2+n2={s}")
        for s in sorted(counts)
    )
    return SurfaceSpectrum(curvature=0.0, entries=entries, source="flat_torus")


def custom_spectrum(K: float, eta_list: Sequence[tuple]) -> SurfaceSpectrum:
    """User-supplied spectrum (eta, multiplicity) pairs, e.g. for K < 0.

    Values are taken on trust after validation; the zero mode must be
    present and every eta nonnegative.
    """
    entries = []
    for i, item in enumerate(eta_list):
        eta, mult = float(item[0]), int(item[1])
        label = str(item[2]) if len(item) > 2 else f"custom-{i}"
        entries.append(SpectrumEntry(eta=eta, multiplicity=mult, label=label))
    entries.sort(key=lambda e: e.eta)
    return SurfaceSpectrum(curvature=K, entries=tuple(entries), source="custom")


def make_gamma_grid(log_start: float, log_end: float, points: int) -> np.ndarray:
    """Logarithmic grid 10**(log_start .. log_end); endpoints land exactly
    on round powers when the exponents do."""
    if points < 2:
        raise SpectrumValidationError("gamma grid needs at least 2 points")
    if not log_end > log_start:
        raise SpectrumValidationError("gamma grid must be increasing")
    j = np.arange(points, dtype=float)
    expo = log_start + (log_end - log_start) * j / (points - 1)
    return np.power(10.0, expo)


def default_gamma_grid() -> np.ndarray:
    """25 points per decade from gamma = 1 to gamma = 1e4."""
    return make_gamma_grid(0.0, 4.0, 101)


@dataclass(frozen=True, eq=False)
class GammaTable:
    """Sweep record for one eta: lambda values and row diagnostics.

    ``collided`` marks rows that the sweep's one continuation did not
    reach as simple samples, because it stopped at a collision x_c with
    |x_c| <= |x|; their values come from the even sector's dense spectrum
    (Newton-polished) and are complex past an exceptional point.
    ``residual`` is the eigenvector residual at the row's mu, NaN where
    inverse iteration fails; ``simple`` rows are the reached rows with a
    finite residual.
    ``certificate`` is the change of lambda under doubling the truncation
    (0 on intrinsically finite ladders, NaN where the doubled block's
    continuation stopped before the row).  ``empirical_r`` is 2/|x_c| at
    the collision that stopped the continuation (None when it reached
    every row), a diagnostic with no claimed relation to the true
    analyticity threshold.
    """

    eta: float
    curvature: float
    multiplicity: int
    gamma_grid: np.ndarray
    lam: np.ndarray
    abs_error: np.ndarray
    simple: np.ndarray
    collided: np.ndarray
    k_trunc: np.ndarray
    certificate: np.ndarray
    residual: np.ndarray
    empirical_r: Optional[float]


def _dense_continuation(
    block: CasimirBlock, coeffs: LadderCoefficients, x: complex, seed_mu: complex
) -> complex:
    """Pick the branch value past a collision from the dense spectrum of the
    even parity sector, which holds the branch through 0: nearest to the
    last tracked value, ties resolved toward positive imaginary part (then
    larger real part) for determinism.  The pick is then Newton-polished on
    the sector's characteristic polynomial, which removes the dense
    solver's error; a pick where Newton does not converge is returned as it
    is."""
    even = even_sector(block, coeffs, x)
    eigs = eig_dense(even)
    dist = np.abs(eigs - seed_mu)
    dmin = float(np.min(dist))
    tie = np.nonzero(dist <= dmin * (1.0 + 1e-9) + 1e-15)[0]
    cand = eigs[tie]
    pick = complex(cand[np.lexsort((cand.real, cand.imag))[-1]])
    root, converged, _ = newton_polish(even, pick)
    return root if converged else pick


def _track_rows(
    block: CasimirBlock, coeffs: LadderCoefficients, grid: np.ndarray
) -> tuple[EigenBranch, np.ndarray]:
    """One continuation through x = -2/gamma for every gamma of the
    ascending grid.

    Returns the branch and, per row, the index of the row's sample in the
    branch when the continuation landed there with a simple value, else -1.
    """
    # ascending |x| is the grid reversed; each x is the same float that a
    # continuation to that row alone would end on
    xs = -2.0 / grid[::-1]
    branch = track_branch(block, coeffs, xs[-1], checkpoints=xs)
    hit = np.full(grid.size, -1)
    for j, i in enumerate(branch.checkpoint_index):
        if branch.simple[i]:
            hit[j] = i
    return branch, hit[::-1]


def gamma_sweep(
    eta: float,
    K: float,
    gamma_grid: Sequence[float],
    policy: Optional[TruncationPolicy] = None,
    multiplicity: int = 1,
) -> GammaTable:
    """The branch at x = -2/gamma for every gamma in the grid.

    The trivial eta = 0 branch is identically zero.  For K <= 0 the block
    is truncated by ``policy`` (adaptive by default, certified at the
    deepest x of the grid) and every row records the lambda shift under
    doubling the cutoff.  Each block is continued once through all grid
    points; a collision marks the rows at and beyond it, and is not fatal
    unless the continuation accepted no step at all (x_c = 0), which
    raises BranchCollisionError.  A reached row whose residual fails reads
    NaN and simple = False; the rows after it are unaffected.  A non-finite
    or negative eta, or a non-finite K, raises SpectrumValidationError.
    """
    if not (math.isfinite(eta) and eta >= 0.0 and math.isfinite(K)):
        raise SpectrumValidationError(
            f"gamma sweep needs a finite eta >= 0 and a finite K, got eta = {eta!r}, K = {K!r}"
        )
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise SpectrumValidationError("gamma grid must be a nonempty 1-d array")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise SpectrumValidationError("gamma grid must be ascending and positive")
    n = grid.size

    if eta == 0.0:
        zeros = np.zeros(n)
        return GammaTable(
            eta=0.0,
            curvature=K,
            multiplicity=multiplicity,
            gamma_grid=grid,
            lam=zeros.astype(complex),
            abs_error=zeros.copy(),
            simple=np.ones(n, dtype=bool),
            collided=np.zeros(n, dtype=bool),
            k_trunc=np.zeros(n, dtype=int),
            certificate=zeros.copy(),
            residual=zeros.copy(),
            empirical_r=None,
        )

    if K > 0.0:
        block = finite_block(eta, K)
        block2 = None
    else:
        pol = policy if policy is not None else TruncationPolicy()
        if pol.kind == "adaptive" and pol.x_ref is None:
            # certify at the deepest grid point that stays inside the
            # separation regime gamma >= 4*(1 + sqrt(eta))
            x_ref = -min(2.0 / grid[0], 0.5 / (1.0 + math.sqrt(eta)))
            pol = TruncationPolicy(kind="adaptive", tol=pol.tol, x_ref=x_ref)
        block = truncate(eta, K, pol)
        k2 = 2 * block.k_max
        block2 = CasimirBlock(curvature=K, eta=eta, k_min=-k2, k_max=k2, finite=False)
    coeffs = ladder_coefficients(block)

    branch, hit = _track_rows(block, coeffs, grid)
    if branch.x_collision == 0:
        raise BranchCollisionError(
            f"eta = {eta!r}, K = {K!r}: the branch continuation accepted no step "
            f"from x = 0 ({branch.reason})"
        )
    half_g2 = 0.5 * grid * grid

    mu = np.empty(n, dtype=complex)
    collided = hit < 0
    mu[~collided] = branch.mu_values[hit[~collided]]
    empirical_r: Optional[float] = None
    if np.any(collided):
        seed_mu = complex(branch.mu_values[np.nonzero(branch.simple)[0][-1]])
        for i in np.nonzero(collided)[0]:
            mu[i] = _dense_continuation(block, coeffs, -2.0 / grid[i], seed_mu)
        if branch.x_collision is not None:
            empirical_r = 2.0 / abs(branch.x_collision)
    lam = half_g2 * mu

    resid = np.empty(n)
    for i in range(n):
        try:
            resid[i] = residual_norm(assemble_perturbed(block, coeffs, -2.0 / grid[i]), mu[i])
        except EigensolveError:
            resid[i] = math.nan
    simple = ~collided & np.isfinite(resid)

    if block2 is None:
        cert = np.zeros(n)
    else:
        branch2, hit2 = _track_rows(block2, ladder_coefficients(block2), grid)
        cert = np.full(n, math.nan)
        ok2 = hit2 >= 0
        cert[ok2] = np.abs(lam[ok2] - half_g2[ok2] * branch2.mu_values[hit2[ok2]])

    return GammaTable(
        eta=eta,
        curvature=K,
        multiplicity=multiplicity,
        gamma_grid=grid,
        lam=lam,
        abs_error=np.abs(lam - eta),
        simple=simple,
        collided=collided,
        k_trunc=np.full(n, block.k_max, dtype=int),
        certificate=cert,
        residual=resid,
        empirical_r=empirical_r,
    )


def tail_mask(gammas: np.ndarray, eta: float) -> np.ndarray:
    """Asymptotic-regime rows: gamma >= 4*(1 + sqrt(eta))."""
    return np.asarray(gammas) >= 4.0 * (1.0 + math.sqrt(max(eta, 0.0)))


def fitted_decay_exponent(gammas: np.ndarray, errors: np.ndarray) -> Optional[float]:
    """Least-squares slope of log|error| versus log gamma; None when fewer
    than three usable points.  The observed value is about -2 on the
    closed-form case, but only convergence itself is guaranteed, so
    consumers must treat the exponent as empirical."""
    g = np.asarray(gammas, dtype=float)
    e = np.asarray(errors, dtype=float)
    ok = (e > 0.0) & np.isfinite(e)
    if int(np.sum(ok)) < 3:
        return None
    slope = np.polyfit(np.log10(g[ok]), np.log10(e[ok]), 1)[0]
    return float(slope)


def error_at_gamma(table: GammaTable, gamma: float) -> float:
    """abs_error at an exact grid point."""
    idx = np.nonzero(table.gamma_grid == gamma)[0]
    if idx.size == 0:
        raise SpectrumValidationError(f"gamma = {gamma!r} is not a grid point")
    return float(table.abs_error[idx[0]])


def convergence_summary(table: GammaTable) -> dict:
    """Per-eta verdict data: tail error, monotonicity, empirical rate."""
    mask = tail_mask(table.gamma_grid, table.eta)
    tail_err = table.abs_error[mask]
    if tail_err.size < 2 or np.all(tail_err == 0.0):
        monotone = True  # exact zero branch has nothing left to decrease
    else:
        monotone = bool(np.all(np.diff(tail_err) < 0.0))
    rate = fitted_decay_exponent(table.gamma_grid[mask], tail_err) if table.eta > 0 else None
    return {
        "eta": table.eta,
        "curvature": table.curvature,
        "multiplicity": table.multiplicity,
        "k_trunc": int(table.k_trunc[0]) if table.k_trunc.size else 0,
        "tail_gamma_from": 4.0 * (1.0 + math.sqrt(max(table.eta, 0.0))),
        "max_tail_error": float(np.max(tail_err)) if tail_err.size else 0.0,
        "final_error": float(table.abs_error[-1]),
        "tail_monotone": monotone,
        "fitted_rate": rate,
        "rate_is_empirical": True,
        "empirical_r": table.empirical_r,
        "converged": bool(
            monotone and (tail_err.size == 0 or tail_err[-1] == np.min(tail_err))
        ),
    }


def mixing_report(spectrum: SurfaceSpectrum, tables: Sequence[GammaTable]) -> dict:
    """Spectral-gap report: Re lambda at the smallest nonzero eta bounds
    the optimal mixing rate, so its gamma -> infinity trend against eta_1
    is the quantity of interest."""
    eta1 = spectrum.smallest_nonzero()
    table = None
    for t in tables:
        if abs(t.eta - eta1) <= 1e-12 * (1.0 + eta1):
            table = t
            break
    if table is None:
        raise SpectrumValidationError(f"no table for the spectral gap eta_1 = {eta1!r}")
    re = table.lam.real
    mask = tail_mask(table.gamma_grid, eta1)
    tail_excess = re[mask] - eta1
    return {
        "eta1": eta1,
        "curvature": spectrum.curvature,
        "gamma": [float(g) for g in table.gamma_grid],
        "re_lambda_eta1": [float(v) for v in re],
        "gap_bound_curve": [float(v) for v in re],
        "tail_value": float(re[-1]),
        "tail_gap_to_eta1": float(re[-1] - eta1),
        "approaches_from_above": bool(np.all(tail_excess > 0.0)) if tail_excess.size else None,
        "tail_fitted_rate": fitted_decay_exponent(
            table.gamma_grid[mask], np.abs(tail_excess)
        ),
    }
