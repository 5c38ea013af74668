"""Surface spectra, gamma sweeps and convergence reports.

A sweep fixes one base-surface eigenvalue eta and reports
lambda(gamma) = (gamma^2/2) * mu(-2/gamma) on a gamma grid together with
per-row diagnostics: simplicity, collision passage, the truncation used
and its doubling certificate, and the eigenvector residual.  mu is one
holomorphic branch in x = -2/gamma, so a sweep continues it once per
block, from x = 0 out to the deepest grid point, landing exactly on every
grid value of x on the way.  Rows therefore share one path: where it stops
at a collision, every deeper row is resolved from the dense spectrum of
the even parity sector, which holds the branch through 0 (one stacked
dense solve for all such rows of a block), seeded with the path's last
simple value; each picked value is Newton-polished on its sector.  Both
read the ``operator.EvenSector`` that the continuation formed.

An infinite ladder (K <= 0) is truncated by sweeping the whole grid at
cutoff k and again at 2k; the shift of every row, reached or collided, is
its truncation certificate, and the sweep doubles k until every shift is
below the policy's tolerance.  Each row's eigenvector residual is then
taken at the row's reported mu on the accepted block, for all rows in one
batched inverse iteration on the even parity sector.  That is the full
block's residual: the sector basis is orthonormal and invariant under the
block, and the branch lives in the sector.  The table keeps the ladder
coefficients of that block (``GammaTable.coeffs``), so its readers take
the block from the table instead of building it again."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .eig import MAX_DENSE_DIM, eig_dense, inverse_iteration, newton_polish, track_branch
from .errors import (
    BranchCollisionError,
    SpectrumValidationError,
    TruncationError,
)
from .ladder import CasimirBlock, LadderCoefficients, ladder_coefficients
from .operator import EvenSector, TruncationPolicy, block_at

# The adaptive truncation's first cutoff: rows converge at small cutoffs,
# because the branch's eigenvector decays once k^2 exceeds the coupling
# |x|*a_k, which grows like |x|*sqrt(eta + k^2)/2.
FIRST_CUTOFF = 8

# The largest |m| of the torus lattice ``torus_spectrum`` enumerates, over
# (2 m + 1)^2 points.  Each distinct eta is a block that ``kbmlab run``
# sweeps in 10-100 ms on the default grid; m <= 64 allows at most 1232 of
# them, a run of minutes, and every eta_cap < 4225 on the side-2 pi torus.
TORUS_MAX_M = 64

# The largest l of the sphere levels ``sphere_spectrum`` enumerates.  Each
# level is a block of dimension 2 l + 1 that ``kbmlab run`` sweeps on the
# default grid in 7 ms (l = 8) to 0.64 s (l = 256); l <= 256 allows 257
# blocks, a run of 74 s (``--l-max 256`` on a shared 2-core Xeon host).
SPHERE_MAX_L = 256

# The most points a gamma grid may hold, 100 times the default grid's 101.
# ``kbmlab run --surface sphere --l-max 1`` on 10001 points takes 1.0-1.5 s
# and 62 MB of peak RSS, and writes 8.2 MB (three runs, shared 2-core Xeon).
GAMMA_GRID_MAX_POINTS = 10001

# The rounding floor of a table's |lambda - eta|, in units of eps * (1 + eta).
# lambda = (gamma^2 / 2) * mu rounds gamma^2 / 2, the product and the
# Newton-polished mu, about one ulp of eta each, so two rows' errors can
# differ by about twice that from rounding alone; 4 covers it, and the
# steps seen at the floor are 0.4-1.3 units (sphere eta = 2 to gamma = 1e8,
# K = -1 eta = 2/7).  A step of the tail error below it is not an increase.
ROUNDING_ULPS = 4


@dataclass(frozen=True)
class SpectrumEntry:
    eta: float
    multiplicity: int
    label: str


@dataclass(frozen=True, eq=False)
class SurfaceSpectrum:
    """Laplace spectrum of a model base surface: one entry per distinct
    eigenvalue, in strictly ascending order.

    The branch computation runs once per eta; multiplicities ride along as
    metadata because every copy of a block carries the same branch.
    """

    curvature: float
    entries: tuple

    def __post_init__(self):
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
        for prev, eta in zip(etas, etas[1:]):
            if not prev < eta:
                raise SpectrumValidationError(
                    f"entries must be strictly ascending by eta, got {eta!r} after {prev!r}; "
                    "give a repeated eta once with the summed multiplicity"
                )
        if etas[0] != 0.0:
            raise SpectrumValidationError("zero mode (constants) missing from spectrum")

    def smallest_nonzero(self) -> float:
        for e in self.entries:
            if e.eta > 0.0:
                return e.eta
        raise SpectrumValidationError("spectrum has no nonzero eigenvalue")


def sphere_spectrum(K: float, l_max: int) -> SurfaceSpectrum:
    """Round sphere of curvature K > 0: eta = K*l*(l+1), multiplicity 2l+1,
    for 0 <= l <= l_max <= ``SPHERE_MAX_L``."""
    if not K > 0.0:
        raise SpectrumValidationError("sphere needs K > 0")
    if l_max < 0:
        raise SpectrumValidationError("l_max must be >= 0")
    if l_max > SPHERE_MAX_L:
        raise SpectrumValidationError(
            f"l_max = {l_max!r} is beyond the limit l_max <= {SPHERE_MAX_L}"
        )
    entries = tuple(
        SpectrumEntry(eta=K * l * (l + 1), multiplicity=2 * l + 1, label=f"l={l}")
        for l in range(l_max + 1)
    )
    return SurfaceSpectrum(curvature=K, entries=entries)


def torus_spectrum(L: float, eta_cap: float) -> SurfaceSpectrum:
    """Flat square torus of side L: eta = (2*pi/L)^2 (m^2 + n^2) <= eta_cap."""
    if not L > 0.0:
        raise SpectrumValidationError("torus needs L > 0")
    if not eta_cap >= 0.0:
        raise SpectrumValidationError("eta_cap must be >= 0")
    try:
        scale = (2.0 * math.pi / L) ** 2
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise SpectrumValidationError(
            f"torus side L = {L!r} puts the eta scale (2 pi / L)^2 outside the float range"
        )
    reach = math.sqrt(eta_cap / scale)  # every mode has m^2 + n^2 <= reach^2
    if not reach < TORUS_MAX_M + 1:
        raise SpectrumValidationError(
            f"torus side L = {L!r} with eta_cap = {eta_cap!r} reaches lattice modes up to "
            f"|m| = {reach:.6g}, beyond the limit |m| <= {TORUS_MAX_M}"
        )
    m_max = int(reach)
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
    return SurfaceSpectrum(curvature=0.0, entries=entries)


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
    return SurfaceSpectrum(curvature=K, entries=tuple(entries))


def make_gamma_grid(log_start: float, log_end: float, points: int) -> np.ndarray:
    """Logarithmic grid 10**(log_start .. log_end) of 2 to
    ``GAMMA_GRID_MAX_POINTS`` points; endpoints land exactly on round
    powers when the exponents do.  A power beyond the float range reads
    inf, which ``check_gamma_grid`` rejects."""
    if not 2 <= points <= GAMMA_GRID_MAX_POINTS:
        raise SpectrumValidationError(
            f"gamma grid needs 2 to {GAMMA_GRID_MAX_POINTS} points, got {points!r}"
        )
    if not log_end > log_start:
        raise SpectrumValidationError("gamma grid must be increasing")
    j = np.arange(points, dtype=float)
    expo = log_start + (log_end - log_start) * j / (points - 1)
    with np.errstate(over="ignore"):
        return np.power(10.0, expo)


def check_gamma_grid(gamma_grid: Sequence[float]) -> np.ndarray:
    """The grid as an ascending, positive 1-d float array of 1 to
    ``GAMMA_GRID_MAX_POINTS`` points with 0 < gamma^2 / 2 < inf (lambda =
    (gamma^2 / 2) mu, and x = -2/gamma overflows where gamma^2 / 2
    underflows); else SpectrumValidationError."""
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or not 0 < grid.size <= GAMMA_GRID_MAX_POINTS:
        raise SpectrumValidationError(
            f"gamma grid must be 1-d with 1 to {GAMMA_GRID_MAX_POINTS} points, got {grid.shape}"
        )
    with np.errstate(over="ignore", under="ignore"):
        half_g2 = 0.5 * grid * grid
    # before differencing, where inf - inf would warn
    outside = ~((half_g2 > 0.0) & (half_g2 < math.inf))
    if np.any(outside):
        raise SpectrumValidationError(
            f"gamma grid holds gamma = {float(grid[outside][0])!r}, whose gamma^2 / 2 is not "
            "in (0, inf)"
        )
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise SpectrumValidationError("gamma grid must be positive and strictly ascending")
    return grid


def _max_cutoff() -> int:
    """The largest cutoff k whose doubled block [-2k, 2k], which certifies
    it, holds at most ``MAX_DENSE_DIM`` modes (4k + 1); the largest matrix
    a sweep solves densely is that block's even sector, of dimension
    2k + 1."""
    return (MAX_DENSE_DIM - 1) // 4


def check_fixed_cutoff(k_max: int) -> None:
    """TruncationError unless the block [-2k, 2k] that certifies a sweep's
    fixed cutoff k fits the dense limit (k <= ``_max_cutoff()``).  That block
    is itself built at the fixed cutoff 2k, so the rule cannot live in
    ``TruncationPolicy``."""
    if k_max > _max_cutoff():
        raise TruncationError(
            f"fixed truncation needs k_max <= {_max_cutoff()}, got {k_max}: the "
            f"doubled block of the fixed cutoff would exceed the dense limit {MAX_DENSE_DIM}"
        )


def default_gamma_grid() -> np.ndarray:
    """25 points per decade from gamma = 1 to gamma = 1e4."""
    return make_gamma_grid(0.0, 4.0, 101)


@dataclass(frozen=True, eq=False)
class GammaTable:
    """Sweep record for one eta: lambda values and row diagnostics.

    ``coeffs`` are the ladder coefficients of the block every row is
    reported on, one block for the whole table: ``operator.block_at`` at
    the cutoff the sweep certified.  ``eta``,
    ``curvature`` and ``k_trunc`` (its k_max, 0 for eta = 0) read that
    block, and the acceptance suite's dense oracle (criterion 10) assembles
    its generator from them; ``cli.run`` writes ``k_trunc`` and the row
    arrays below to a table's JSON rows.
    ``collided`` marks rows that the continuation on the reported block
    did not reach as simple samples, because it stopped at a collision x_c
    with |x_c| <= |x|; their values come from the even sector's dense
    spectrum (Newton-polished) and are complex past an exceptional point.
    ``residual`` is the eigenvector residual at the row's mu, taken on the
    even parity sector, NaN where inverse iteration fails; ``simple`` rows
    are the reached rows with a finite residual.
    ``certificate`` is |lambda_k - lambda_2k|, the change of the row's
    lambda between the sweeps at the reported cutoff k = ``k_trunc`` and at
    2k (0 on intrinsically finite ladders).  ``empirical_r`` is 2/|x_c| at
    the collision that stopped the continuation (None when it reached
    every row), a diagnostic with no claimed relation to the true
    analyticity threshold.
    """

    coeffs: LadderCoefficients
    gamma_grid: np.ndarray
    lam: np.ndarray
    abs_error: np.ndarray
    simple: np.ndarray
    collided: np.ndarray
    certificate: np.ndarray
    residual: np.ndarray
    empirical_r: Optional[float]

    @property
    def eta(self) -> float:
        return self.coeffs.block.eta

    @property
    def curvature(self) -> float:
        return self.coeffs.block.curvature

    @property
    def k_trunc(self) -> int:
        return self.coeffs.block.k_max


def _dense_continuation(sector: EvenSector, xs: np.ndarray, seed_mu: complex) -> np.ndarray:
    """Pick the branch value past a collision at every x of ``xs`` from the
    dense spectrum of the even parity sector, which holds the branch
    through 0; one stacked solve serves them all.  Each pick is the
    eigenvalue nearest to the last tracked value, ties resolved toward
    positive imaginary part (then larger real part) for determinism.  It
    is then Newton-polished on its sector's characteristic polynomial,
    which removes the dense solver's error; a pick where Newton does not
    converge is returned as it is.  Newton reads each sector's float
    lists."""
    eigs = eig_dense(sector.at(xs))
    dist = np.abs(eigs - seed_mu)
    ties = dist <= np.min(dist, axis=1, keepdims=True) * (1.0 + 1e-9) + 1e-15
    mu = np.empty(len(xs), dtype=complex)
    for i, x in enumerate(xs.tolist()):
        cand = eigs[i, ties[i]]
        pick = complex(cand[np.lexsort((cand.real, cand.imag))[-1]])
        root, converged, _ = newton_polish(sector.lists(x), pick)
        mu[i] = root if converged else pick
    return mu


class _BlockSweep(NamedTuple):
    """Every row's mu on one block's sector, with the rows the continuation missed."""

    coeffs: LadderCoefficients
    sector: EvenSector
    mu: np.ndarray
    collided: np.ndarray
    empirical_r: Optional[float]


def _sweep_block(block: CasimirBlock, grid: np.ndarray) -> _BlockSweep:
    """mu at x = -2/gamma for every gamma of the ascending grid, from one
    continuation through all of them: the continuation's sample where it
    landed on the row with a simple value, else the ``_dense_continuation``
    value seeded with the last simple sample.  A continuation that accepted
    no step (x_c = 0) raises BranchCollisionError."""
    coeffs = ladder_coefficients(block)
    # ascending |x| is the grid reversed; each x is the same float that a
    # continuation to that row alone would end on
    xs = -2.0 / grid[::-1]
    branch = track_branch(block, coeffs, xs[-1], checkpoints=xs)
    if branch.x_collision == 0:
        raise BranchCollisionError(
            f"eta = {block.eta!r}, K = {block.curvature!r}: the branch continuation "
            f"accepted no step from x = 0 ({branch.reason})"
        )
    hit = np.full(grid.size, -1)
    for j, i in enumerate(branch.checkpoint_index):
        if branch.simple[i]:
            hit[grid.size - 1 - j] = i
    mu = np.empty(grid.size, dtype=complex)
    collided = hit < 0
    mu[~collided] = branch.mu_values[hit[~collided]]
    empirical_r: Optional[float] = None
    if np.any(collided):
        seed_mu = complex(branch.mu_values[np.nonzero(branch.simple)[0][-1]])
        mu[collided] = _dense_continuation(branch.sector, -2.0 / grid[collided], seed_mu)
        if branch.x_collision is not None:
            empirical_r = 2.0 / abs(branch.x_collision)
    return _BlockSweep(coeffs, branch.sector, mu, collided, empirical_r)


def gamma_sweep(
    eta: float,
    K: float,
    gamma_grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> GammaTable:
    """The branch at x = -2/gamma for every gamma in the grid, on the
    blocks ``operator.block_at`` builds at a cutoff k.

    The trivial eta = 0 branch is identically zero.  An intrinsically finite
    block (``block.finite``, K > 0) reads no cutoff and is swept once, with
    certificate 0.  An infinite ladder (eta > 0, K <= 0) is swept at k and
    again at 2k, and every row's certificate is |lambda_k - lambda_2k|.  A
    ``policy.k_max`` is run once; without one (the default) the sweep
    starts at k = 8 and accepts the first k at which every row's
    certificate is below ``policy.tol``, otherwise the 2k sweep becomes the
    base.  It raises TruncationError once the next doubled block [-2k, 2k]
    would exceed the dense limit, for a fixed cutoff before any sweep on
    any block (``check_fixed_cutoff``).  A continuation that accepted no
    step (x_c = 0) raises BranchCollisionError; any other collision only
    marks the rows at and beyond it.  A row whose residual fails reads NaN
    and simple = False; every other row keeps its bits.  A non-finite or negative eta, a
    non-finite K, or a grid that ``check_gamma_grid`` rejects raises
    SpectrumValidationError.
    """
    if not (math.isfinite(eta) and eta >= 0.0 and math.isfinite(K)):
        raise SpectrumValidationError(
            f"gamma sweep needs a finite eta >= 0 and a finite K, got eta = {eta!r}, K = {K!r}"
        )
    grid = check_gamma_grid(gamma_grid)
    half_g2 = 0.5 * grid * grid
    n = grid.size

    fixed = policy.k_max is not None
    k = policy.k_max if fixed else FIRST_CUTOFF
    if fixed:
        check_fixed_cutoff(k)
    block = block_at(eta, K, k)
    if eta == 0.0:
        zeros = np.zeros(n)
        return GammaTable(
            coeffs=ladder_coefficients(block),
            gamma_grid=grid,
            lam=zeros.astype(complex),
            abs_error=zeros.copy(),
            simple=np.ones(n, dtype=bool),
            collided=np.zeros(n, dtype=bool),
            certificate=zeros.copy(),
            residual=zeros.copy(),
            empirical_r=None,
        )

    base = _sweep_block(block, grid)
    cert = np.zeros(n)
    while not block.finite:
        doubled = _sweep_block(block_at(eta, K, 2 * k), grid)
        cert = np.abs(half_g2 * base.mu - half_g2 * doubled.mu)
        if fixed or np.all(cert < policy.tol):
            break
        k, base, shift = 2 * k, doubled, float(np.max(cert))
        if k > _max_cutoff():
            raise TruncationError(
                f"eta = {eta!r}, K = {K!r}: the doubled block of cutoff {k} would exceed "
                f"the dense limit {MAX_DENSE_DIM}; the last doubling moved a row by up to "
                f"{shift:.3g} (tol {policy.tol:g})"
            )

    lam = half_g2 * base.mu
    resid = inverse_iteration(base.sector.at(-2.0 / grid), base.mu)

    return GammaTable(
        coeffs=base.coeffs,
        gamma_grid=grid,
        lam=lam,
        abs_error=np.abs(lam - eta),
        simple=~base.collided & np.isfinite(resid),
        collided=base.collided,
        certificate=cert,
        residual=resid,
        empirical_r=base.empirical_r,
    )


def tail_threshold(eta: float) -> float:
    """The first gamma of the asymptotic regime, 4*(1 + sqrt(eta))."""
    return 4.0 * (1.0 + math.sqrt(max(eta, 0.0)))


def tail_mask(gammas: np.ndarray, eta: float) -> np.ndarray:
    """Asymptotic-regime rows: gamma >= ``tail_threshold(eta)``."""
    return np.asarray(gammas) >= tail_threshold(eta)


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
    """Per-eta verdicts: where the tail starts, its largest error, its
    monotonicity, its fitted rate and convergence.  The values the table
    holds (its cutoff, collision and errors) are not repeated.

    The tail is monotone when each step decreases or grows by no more than
    the rounding of lambda (``ROUNDING_ULPS``); it has converged when it is
    monotone and its last error is its smallest, to the same rounding.  The
    rate is empirical (``fitted_decay_exponent``)."""
    mask = tail_mask(table.gamma_grid, table.eta)
    tail_err = table.abs_error[mask]
    floor = ROUNDING_ULPS * np.finfo(float).eps * (1.0 + table.eta)
    monotone = bool(np.all(np.diff(tail_err) <= floor))  # True for fewer than two rows
    rate = fitted_decay_exponent(table.gamma_grid[mask], tail_err) if table.eta > 0 else None
    return {
        "eta": table.eta,
        "tail_gamma_from": tail_threshold(table.eta),
        "max_tail_error": float(np.max(tail_err)) if tail_err.size else 0.0,
        "tail_monotone": monotone,
        "fitted_rate": rate,
        "converged": bool(
            monotone and (tail_err.size == 0 or tail_err[-1] <= np.min(tail_err) + floor)
        ),
    }


def mixing_report(spectrum: SurfaceSpectrum, tables: Sequence[GammaTable]) -> dict:
    """Spectral-gap report: Re lambda at the smallest nonzero eta bounds
    the optimal mixing rate, so its gamma -> infinity trend against eta_1
    is the quantity of interest.  The report holds its verdicts only; the
    Re lambda column itself, its last value included, is the eta_1
    table's."""
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
        "tail_gap_to_eta1": float(re[-1] - eta1),
        "approaches_from_above": bool(np.all(tail_excess > 0.0)) if tail_excess.size else None,
        "tail_fitted_rate": fitted_decay_exponent(
            table.gamma_grid[mask], np.abs(tail_excess)
        ),
    }
