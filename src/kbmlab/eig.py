"""Eigenvalue machinery for tridiagonal matrices with a skew coupling.

Five pieces: the characteristic polynomial by the scaled three-term
determinant recurrence (a loop on Python scalars, float or complex), a dense
eigensolver used strictly as a brute-force oracle (one matrix or a stack,
densified in chunks of bounded size), eigenvector residuals for a whole
stack of matrices from one twisted factorization each, continuation along
the real axis of the eigenvalue branch that emanates from the unperturbed
value 0, and the exceptional point where that branch ends.  On the real
axis every family member, and each of its parity sectors, has a real
coupling; the dense solver then runs in real arithmetic, in less than half
the time of the complex solve on the sector sizes used here.

The continuation follows the real segment [0, x_target], on which the
paper's x = -2/gamma lies, one step at a time, with a secant predictor and
a Newton corrector on the characteristic polynomial of the even parity
sector (dimension k_max + 1), which holds the branch through 0, read from
the block's ``operator.EvenSector`` (formed once, returned on the
``EigenBranch``); a complex x_target or checkpoint raises TypeError.  The
branch is holomorphic in x; that is checked through ``newton_polish`` on
the sector at complex x.  A step is accepted only if
the corrected value stays within half of the current sample's gap to the
rest of the spectrum; otherwise the step is halved.  Each new sample is certified
before the next step.  Inside the Kato disk, |x| below the radius r0 of
the circle |zeta| = 1/2 (``operator.kato_radius``, computed once per
block), that circle holds exactly one eigenvalue of the block, the
branch, and every other one lies outside it (Kato, *Perturbation Theory
for Linear Operators*, II.3); a sample there with |mu| < 1/2 has its gap
to the rest of the spectrum bounded below by 1/2 - |mu| and needs no
eigensolve.  Every other sample is checked by one dense solve of its even
sector.  That check certifies the odd sector, a slice of the even one
(``operator.odd_sector``), by its numerical range (Horn & Johnson,
*Topics in Matrix Analysis*, 1.2): at real x the odd sector's Hermitian
part is diag(m^2, m >= 1), so every odd eigenvalue has Re >= 1, and when
the even gap is below 1 - Re mu the nearest two eigenvalues of the full
block are both even.  Otherwise the odd sector is solved too and the
union decides, so gaps and simplicity keep their full-block meaning.  The
bound is below the dense gap, so it can only confirm an acceptance or a
simple sample; where it leaves a decision open, that one sample's dense
check is computed and decides, so every decision is the one the dense gap
makes.  Steps are shortened to land exactly on caller-given checkpoints of
the segment, so one continuation serves every parameter on it.  It
computes no eigenvectors; callers take the residuals of
``twisted_residuals`` where they report values.

The branch ends where it meets its even-sector neighbour at a square-root
exceptional point, p = dp/dmu = 0 (Kato, *Perturbation Theory for Linear
Operators*, II.1).  The first rejected step from a sample solves that 2x2
system in (x^2, mu) by Newton (``exceptional_point``); when the certified
point lies inside the step the continuation stops there.  An accepted
sample that is not simple asks the same of the stretch to the next
checkpoint, since the point may lie just beyond it.  Otherwise loss of
numerical simplicity (gap below threshold, or step underflow) flags the
collision.  Either way the partial branch is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import EigensolveError
from .ladder import CasimirBlock, LadderCoefficients
from .operator import (
    EvenSector,
    TridiagonalOperator,
    batch_slices,
    kato_radius,
    numerical_range_floor,
    odd_sector,
)

MAX_DENSE_DIM = 4096

# Below this gap, Newton on the characteristic polynomial loses quadratic
# convergence and simplicity is numerically unverifiable.
COLLISION_REL = 1e-6

NEWTON_MAX_ITER = 60

# track_branch's base step on the segment [0, x_target]: |x_target|/STEP_X
# steps, rounded up, and at least MIN_STEPS.
STEP_X = 0.05
MIN_STEPS = 4

# The Kato disk of track_branch: the circle |zeta| = DISK_RHO separates the
# unperturbed 0 from the rest of {m^2}, and for |x| below its Kato radius
# r0 holds exactly one eigenvalue of the block, the branch.  Samples are
# admitted only below r0 * (1 - DISK_MARGIN).  r0 is lambda_max^(-1/2) of
# two symmetric tridiagonal Gram blocks that a diagonal +-1 similarity
# makes entrywise nonnegative, so lambda_max moves by at most the relative
# error of the entries (Perron-Frobenius), a few eps, plus the backward
# error of eigvalsh, a modest multiple of eps ||G|| = eps lambda_max.
# Against a 40-digit Sturm bisection of the same blocks, r0's relative
# error was below 1 eps for every cutoff measured up to 4095 (K = -1 and 0
# with eta up to 1e6, and sphere blocks); DISK_MARGIN is about 4500 eps.
DISK_RHO = 0.5
DISK_MARGIN = 1e-12

_EPS = float(np.finfo(float).eps)
_BIG = 2.0**512
_SMALL = 2.0**-512


class CharPolyValue(NamedTuple):
    """det(op - lambda*I) as value * 2**exp2; derivative shares exp2."""

    value: complex
    derivative: complex
    exp2: int


def char_poly(op: TridiagonalOperator, lam: complex) -> CharPolyValue:
    """Characteristic determinant and its lambda-derivative.

    Three-term recurrence on leading principal minors with power-of-two
    rescaling, so that the determinants of large and of tiny matrices stay
    in range; the true determinant is value * 2**exp2.  The loop runs on
    Python scalars, which cost a fraction of numpy scalars per operation.
    Whenever |p| or |dp| leaves [2**-512, 2**512] (on rung 0 too), all
    four carried values are scaled by the power of two that centres the
    binary exponents of p and dp on 0 (``_rescaled``), which brings both
    back into that range whenever their ratio allows.  Scaling by a power
    of two is exact, so the value and derivative carry the bits of the
    unscaled recurrence wherever it stays normal, and Newton's v/dv is the
    same on any rescale schedule.
    """
    return _char_poly(*_lists(op), lam)


def _lists(op: TridiagonalOperator) -> tuple[list, list]:
    """``op``'s diagonal and rung products -c_j^2 as Python lists."""
    return op.diag.tolist(), (-(op.coupling * op.coupling)).tolist()


def _rescaled(p, p_prev, dp, dp_prev, exp2: int) -> tuple:
    """The recurrence's carried values times 2**-e, and exp2 + e, for e the
    mean binary exponent of the nonzero finite ones of p and dp (kept
    where 2**-e is a float); no such value leaves them unchanged."""
    es = [math.frexp(abs(v))[1] for v in (p, dp) if 0.0 < abs(v) < math.inf]
    if not es:
        return p, p_prev, dp, dp_prev, exp2
    e = min(max(sum(es) // len(es), -1022), 1022)
    f = math.ldexp(1.0, -e)
    return p * f, p_prev * f, dp * f, dp_prev * f, exp2 + e


def _char_poly(d: list, c: list, lam) -> CharPolyValue:
    """``char_poly`` on the diagonal ``d`` and the rung products ``c`` as
    Python lists, which a caller evaluating one operator many times
    converts once.  It runs in the arithmetic of the scalars given (see
    ``newton_polish``)."""
    p_prev, p = 1.0, d[0] - lam
    dp_prev, dp = 0.0, -1.0
    exp2 = 0
    big, small = _BIG, _SMALL
    if not small <= abs(p) <= big:
        p, p_prev, dp, dp_prev, exp2 = _rescaled(p, p_prev, dp, dp_prev, exp2)
    for dj, cj in zip(d[1:], c):
        t = dj - lam
        p, p_prev = t * p - cj * p_prev, p
        dp, dp_prev = t * dp - p_prev - cj * dp_prev, dp
        # a NaN fails the range test too, and is left as it is
        if not (small <= abs(p) <= big and small <= abs(dp) <= big):
            p, p_prev, dp, dp_prev, exp2 = _rescaled(p, p_prev, dp, dp_prev, exp2)
    return CharPolyValue(p, dp, exp2)


def newton_polish(op, mu0: complex) -> tuple[complex, bool, int]:
    """Newton iteration on the characteristic polynomial from ``mu0``, at
    most ``NEWTON_MAX_ITER`` steps.

    Converges when the step reaches the relative rounding floor of the
    iterate; the exponent of the determinant cancels from the Newton step,
    so scaling never enters.  ``op`` is a TridiagonalOperator, converted
    to Python lists once, or those lists, (diagonal, rung products), as
    ``EvenSector.lists`` forms them.  The iteration runs in the
    arithmetic of the scalars given.  On float lists (real x) from a float
    ``mu0`` it is real, and its float root is bitwise the real part of the
    complex iteration's, whose imaginary parts would all be zero (+0.0 on
    the iterates).  The continuation runs it on those float lists; on an
    operator assembled at complex x it is the check of the branch's
    holomorphy.  Returns (root, converged, iterations).
    """
    mu = mu0
    prev_step = math.inf
    d, c = _lists(op) if isinstance(op, TridiagonalOperator) else op
    for it in range(1, NEWTON_MAX_ITER + 1):
        v, dv, _ = _char_poly(d, c, mu)
        if v == 0:
            return mu, True, it
        if dv == 0:
            return mu, False, it
        step = v / dv
        mu_new = mu - step
        s = abs(step)
        if s <= 64.0 * _EPS * abs(mu_new) + 1e-280:
            return mu_new, True, it
        if s >= prev_step:
            # stalled at the rounding floor; keep the best iterate
            return mu, prev_step <= 1e-9 * (1.0 + abs(mu)), it
        mu, prev_step = mu_new, s
    return mu, prev_step <= 1e-9 * (1.0 + abs(mu)), NEWTON_MAX_ITER


def eig_dense(op: TridiagonalOperator) -> np.ndarray:
    """All eigenvalues by a dense nonsymmetric solve (brute-force oracle);
    a stack of matrices gives one row of eigenvalues per matrix.

    An operator with a real coupling (every family member at real x, so
    every sector the continuation certifies, and every generator) is a
    real matrix and goes to the real LAPACK solver, about a quarter of the
    complex solver's arithmetic, whose non-real eigenvalues come in exact
    conjugate pairs; a complex coupling is solved in complex arithmetic
    throughout.  The result is complex either way.  The stack is densified
    and solved in chunks of at most ``operator.STACK_BUDGET`` entries (one
    matrix when a single one is larger), one stacked LAPACK call per
    chunk, so no dense array above the budget is ever allocated.
    """
    if op.dim > MAX_DENSE_DIM:
        raise EigensolveError(f"dense oracle limited to dimension {MAX_DENSE_DIM}")
    return _eigvals(op)


def _eigvals(op: TridiagonalOperator) -> np.ndarray:
    """``eig_dense`` of one matrix or a stack, densified and solved per
    chunk of the entry budget."""
    parts = batch_slices(op.diag.shape[0] if op.diag.ndim == 2 else 1, op.dim * op.dim)
    if len(parts) > 1:
        return np.concatenate([_eigvals(_rows(op, part)) for part in parts])
    return np.linalg.eigvals(op.to_dense()).astype(complex, copy=False)


def _rows(op: TridiagonalOperator, rows) -> TridiagonalOperator:
    """The matrices ``rows`` (a slice or indices) of a stack."""
    return TridiagonalOperator(op.diag[rows], op.coupling[rows])


class SpotCheck(NamedTuple):
    """Dense check of a tracked value mu against the full block."""

    even_eigs: np.ndarray  # the even sector's dense spectrum
    gap: float  # distance from mu to the second-nearest eigenvalue
    nu: Optional[complex]  # that second-nearest one; None when it is odd


def certify_samples(even: TridiagonalOperator, mu: complex) -> SpotCheck:
    """``SpotCheck`` of one sample: the second-nearest eigenvalue of the
    full (truncated) block to ``mu`` and its distance, the gap, for the
    block's even sector ``even`` at the sample's x.  ``track_branch``
    certifies with it the samples outside the Kato disk, and a disk sample
    where the Kato bound leaves a decision open.

    The even sector is solved densely.  Its odd sector, ``odd_sector(even)``
    (none on the single-mode block), has eigenvalues of real part at least f
    = ``numerical_range_floor`` of it, so none is within f - Re mu of mu;
    when the even gap is below that (less 64 eps max|d| for LAPACK's
    rounding of the odd spectrum) both nearest eigenvalues are even.
    Otherwise the odd sector is solved too, and the union decides.  Either
    way the check equals, bit for bit, the one on the union of both
    sectors' dense spectra, even sector first (ties go to the lower index).
    """
    mu = complex(mu)
    eigs = eig_dense(even)
    both = eigs
    odd = odd_sector(even)
    if odd is not None:
        margin = 64.0 * _EPS * float(np.max(np.abs(odd.diag)))
        if not np.sort(np.abs(eigs - mu))[1] < numerical_range_floor(odd) - mu.real - margin:
            both = np.concatenate((eigs, eig_dense(odd)))
    dist = np.abs(both - mu)
    near = np.argsort(dist, kind="stable")[:2]
    if near.size < 2:
        return SpotCheck(eigs, math.inf, None)
    nu = complex(both[near[1]]) if near[1] < even.dim else None
    return SpotCheck(eigs, float(dist[near[1]]), nu)


def collision_threshold(mu: complex) -> float:
    return COLLISION_REL * (1.0 + abs(mu))


def _even_recurrence(
    d: list, b: list, t: float, mu: float
) -> tuple[float, float, float, float, float]:
    """p, p_mu, p_mumu, p_t and p_mut of the even sector's characteristic
    polynomial at (t = x^2, mu), all times one common power of two.

    The sector's minors obey p_n = (d_n - mu) p_{n-1} + t b_n p_{n-2}
    (b_n = a^2 on rung n - 1 -> n, doubled on rung 0), which is polynomial
    in t and mu; the four derivatives follow by differentiating it.  All
    ten carried values are rescaled together by 2**-+512 when the largest
    of the five current ones leaves [2**-512, 2**512].
    """
    p0, p1 = 1.0, d[0] - mu
    m0, m1 = 0.0, -1.0  # p_mu
    mm0 = mm1 = 0.0  # p_mumu
    t0 = t1 = 0.0  # p_t
    mt0 = mt1 = 0.0  # p_mut
    big, small = _BIG, _SMALL
    for dn, bn in zip(d[1:], b):
        q, tb = dn - mu, t * bn
        p2 = q * p1 + tb * p0
        m2 = q * m1 - p1 + tb * m0
        mm2 = q * mm1 - 2.0 * m1 + tb * mm0
        t2 = q * t1 + tb * t0 + bn * p0
        mt2 = q * mt1 - t1 + tb * mt0 + bn * m0
        p0, p1, m0, m1, mm0, mm1 = p1, p2, m1, m2, mm1, mm2
        t0, t1, mt0, mt1 = t1, t2, mt1, mt2
        s = max(abs(p1), abs(m1), abs(mm1), abs(t1), abs(mt1))
        if s > big or 0.0 < s < small:
            f = small if s > big else big
            p0, p1, m0, m1, mm0, mm1 = p0 * f, p1 * f, m0 * f, m1 * f, mm0 * f, mm1 * f
            t0, t1, mt0, mt1 = t0 * f, t1 * f, mt0 * f, mt1 * f
    return p1, m1, mm1, t1, mt1


def exceptional_point(
    sector: EvenSector,
    x_cur: float,
    x_try: float,
    mu_cur: float,
    nu: Optional[complex],
    *,
    eigs_cur: np.ndarray,
) -> Optional[float]:
    """The exceptional point x_c that ends the real step x_cur -> x_try, or
    None when no exceptional point is certified there.

    The branch value mu_cur at x_cur and its nearest neighbour ``nu`` (None
    when that neighbour lies in the odd sector) meet at a square-root
    branch point of the even ``sector``, where p = p_mu = 0.  That system
    is solved for (t, mu), t = x^2, by Newton with the Jacobian
    [[p_t, p_mu], [p_mut, p_mumu]] from ``_even_recurrence`` on the
    sector's diagonal and ``squared_rungs``.  The seed
    comes from ``eigs_cur``, the sector's own dense spectrum at x_cur (the
    eigenvalue nearest mu_cur and its nearest neighbour, which meet at
    their midpoint after the time the square-root model gives from their
    slopes), so the result depends on mu_cur and nu only through
    comparisons.

    Certified means: Newton converged to t_c > x_cur^2; p_mumu and p_t do
    not vanish there (a simple square-root branch point); mu_c lies
    strictly between mu_cur and nu; |x_cur| < |x_c| <= |x_try|; and the
    even sector's dense spectrum at x_c holds two eigenvalues within
    ``collision_threshold(mu_c)`` of mu_c.
    """
    if nu is None or nu.imag != 0.0:
        return None
    d, b = sector.diag, sector.squared_rungs()
    t_cur = x_cur * x_cur

    near = np.argsort(np.abs(eigs_cur - mu_cur))[:2]
    if near.size < 2 or eigs_cur[near].imag.any():
        return None
    mu_a, mu_b = eigs_cur[near].real.tolist()
    slopes = []
    for mu in (mu_a, mu_b):
        _, pm, _, pt, _ = _even_recurrence(d, b, t_cur, mu)
        if pm == 0.0:
            return None
        slopes.append(-pt / pm)
    dt = 0.5 * (mu_a - mu_b) / (slopes[1] - slopes[0])
    if not dt > 0.0:
        return None

    t, mu = t_cur + dt, 0.5 * (mu_a + mu_b)
    prev = math.inf
    for _ in range(50):
        p, pm, pmm, pt, pmt = _even_recurrence(d, b, t, mu)
        det = pt * pmm - pm * pmt
        if det == 0.0 or not math.isfinite(det):
            return None
        dt = (pm * pm - p * pmm) / det
        dmu = (p * pmt - pt * pm) / det
        rel = max(abs(dt) / max(abs(t), 1e-300), abs(dmu) / max(abs(mu), 1e-300))
        if rel >= prev:
            # stalled at the rounding floor; keep the iterate before the step
            if prev > 1e-10:
                return None
            break
        t, mu, prev = t + dt, mu + dmu, rel
        if rel <= 8.0 * _EPS:
            break
    else:
        return None

    _, _, pmm, pt, _ = _even_recurrence(d, b, t, mu)
    if not (t > t_cur and pmm != 0.0 and pt != 0.0):
        return None
    if not min(mu_cur, nu.real) < mu < max(mu_cur, nu.real):
        return None
    x_c = math.copysign(math.sqrt(t), x_try)
    if not abs(x_cur) < abs(x_c) <= abs(x_try):
        return None
    dist = np.sort(np.abs(eig_dense(sector.at(x_c)) - mu))
    if not (dist.size >= 2 and dist[1] <= collision_threshold(mu)):
        return None
    return x_c


def twisted_residuals(op: TridiagonalOperator, mu) -> np.ndarray:
    """Eigenvector residuals of a stack of B operators (``op.diag`` of shape
    (B, n)) at ``mu`` (B,), from one twisted factorization of every op - mu.

    Twisted at r, the factorization gives the v with v_r = 1 and (op - mu)
    v = g_r e_r, so the residual of v is |g_r| / ||v|| with no iteration
    (Fernando, *Numer. Math.* 77, 1997; Dhillon & Parlett, *Lin. Alg.
    Appl.* 387, 2004).  The twist minimises |g_r| = 1 / |(op - mu)^-1_rr|,
    so v is one inverse-iteration step from the best unit vector e_r.  A
    mu that is no eigenvalue reads its residual, at least sigma_min(op -
    mu); a row whose factorization overflows reads NaN.  Every step is
    elementwise along the stack, so each row has the bits it gets alone.
    One matrix is a stack of one.
    """
    scale, g, v = _twisted(op, mu)
    with np.errstate(invalid="ignore"):
        top = np.max(np.abs(v), axis=1)
        return scale * (np.abs(g) / top / _norms(v / top[:, None]))


def _twisted(op: TridiagonalOperator, mu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, g_r, v) of ``twisted_residuals``.  Each row of op - mu is divided
    by s, a power of two at its largest |entry|; that is exact, so the
    results are the unscaled ones up to the exponent, and stay in the
    float range.  With d = op.diag - mu and the coupling c (c below the
    diagonal, -c above), the forward and backward pivots are D_j = d_j +
    c (c / D), so no entry is squared, and an exactly zero pivot divides
    as eps; g = D+ + D- - d.  From v_r = 1, v_j = (c_j / D+_j) v_j+1 above
    r and v_j = -(c_j-1 / D-_j) v_j-1 below it."""
    mu = np.asarray(mu, dtype=complex)
    top = np.max(np.abs(np.hstack([op.diag, op.coupling, mu[:, None]])), axis=1)
    scale = np.ldexp(1.0, np.frexp(top)[1] - 1)
    # rung j of every matrix is row j: d[j] and c[j]
    d = ((op.diag - mu[:, None]) / scale[:, None]).T
    c = (op.coupling / scale[:, None]).T
    n, batch = d.shape
    fwd, bwd, qf, qb = d.copy(), d.copy(), np.ones_like(d), np.ones_like(d)
    with np.errstate(all="ignore"):  # an overflow runs on to NaN
        for j in range(n - 1):
            qf[j] = c[j] / np.where(fwd[j] == 0.0, _EPS, fwd[j])
            fwd[j + 1] += c[j] * qf[j]
            i = n - 1 - j
            qb[i] = c[i - 1] / np.where(bwd[i] == 0.0, _EPS, bwd[i])
            bwd[i - 1] += c[i - 1] * qb[i]
        g = fwd + bwd - d
        r = np.argmin(np.abs(g), axis=0)
        rows = np.arange(n)[:, None]
        # v_j is the product of the ratios between j and r
        above = np.multiply.accumulate(np.where(rows < r, qf, 1.0)[::-1], axis=0)[::-1]
        below = np.multiply.accumulate(np.where(rows > r, -qb, 1.0), axis=0)
    return scale, g[r, np.arange(batch)], np.where(rows < r, above, below).T


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row.

    The squares are summed by halving the zero-padded row until one column
    is left, an order fixed by the row length alone: NumPy's own reduction
    picks its order from the layout, so a row's sum would change with the
    stack around it.
    """
    batch, n = v.shape
    width = 1 << (n - 1).bit_length()
    sq = np.zeros((batch, width))
    sq[:, :n] = (v.conj() * v).real
    while width > 1:
        width //= 2
        sq = sq[:, :width] + sq[:, width : 2 * width]
    return np.sqrt(sq[:, 0])


@dataclass(frozen=True, eq=False)
class EigenBranch:
    """Continuation record of the branch through the unperturbed value 0.

    ``simple[i]`` says that the sample's gap to the rest of the spectrum
    is above ``collision_threshold(mu_values[i])``: the distance from mu to
    the second-nearest eigenvalue of the block, from the dense
    certification, on samples outside the Kato disk; on a sample inside
    it, the Kato bound 1/2 - |mu|, which is at most that distance (see
    ``track_branch``).  The record holds no gaps, eigenvectors or
    residuals.
    ``status`` is "complete" when x_target was reached, otherwise
    "collision" with the stopping parameter in ``x_collision`` and the
    trigger in ``reason``: "exceptional point" (x_collision is the certified
    point, beyond the last sample, which may be a non-simple one), "gap
    below collision threshold" (the last sample, which is not simple) or
    "step underflow near loss of simplicity" (the last sample, the step
    having been halved below 1e-12).
    ``checkpoint_index`` holds, for each checkpoint the continuation landed
    on (in order, x_target last), the index of its sample in ``x_samples``;
    a checkpoint sample may be the non-simple one that stopped the
    continuation.
    The parameters are real: ``x_collision`` is a float and ``x_samples``
    is a float array, whose last entry is the target when the
    continuation is complete; ``mu_values`` is complex.
    ``sector`` is the block's even sector, which the continuation read.
    """

    sector: EvenSector
    x_samples: np.ndarray
    mu_values: np.ndarray
    simple: np.ndarray
    status: str
    reason: str = ""
    x_collision: Optional[float] = None
    checkpoint_index: tuple = ()


def track_branch(
    block: CasimirBlock,
    coeffs: LadderCoefficients,
    x_target: float,
    *,
    checkpoints: Sequence[float] = (),
) -> EigenBranch:
    """Continue the eigenvalue branch from 0 at x = 0 to the real
    ``x_target``.

    The unperturbed value 0 is a simple eigenvalue on the block (the
    diagonal is k^2 and the zero mode occurs once), so the branch starts
    well defined; it lies in the even parity sector, where Newton runs.
    Gaps, the neighbour and simplicity are those of the full block.
    Coefficients of a block other than ``block`` raise ValueError.

    ``checkpoints`` are parameters on the segment (0, x_target] in order of
    increasing |x|; x_target is appended when it is not the last one.  A
    complex x_target or checkpoint, even one with zero imaginary part,
    raises TypeError before any step is taken.  The continuation shortens
    the step that would pass a checkpoint so that it samples the
    checkpoint's exact value, and the step size is carried on unchanged
    past it.

    Each step predicts the value at the next parameter by the secant
    through the last two samples, corrects it by Newton on the float lists
    of the block's ``operator.EvenSector`` (formed once, so no operator is
    built and Newton runs in float arithmetic), judges the correction,
    certifies the new sample and then accepts it, stops, or halves the
    step.  A correction |mu - mu_pred| above half the current sample's gap
    to the rest of the spectrum, or a Newton solve that fails, rejects the
    step: ds is halved, and a step below 1e-12 of the segment ends the
    continuation.  An
    accepted sample that is not simple ends it too.  Three easy solves (at
    most five Newton iterations each) in a row double ds, up to the base
    step.

    The certificate of a sample is the Kato bound inside the disk and a
    dense solve outside it.  r0 = ``operator.kato_radius`` at the node
    zeta = 1/2 is the Kato radius of the circle |zeta| = 1/2, exact over the
    whole circle (``perturb.perturbation_radius``), computed once.  For |x|
    < r0 that circle holds exactly one eigenvalue of the block, both parity
    sectors included, and every other eigenvalue nu has |nu| > 1/2, so the
    second-nearest eigenvalue to a value mu inside the circle is farther
    than 1/2 - |mu|.  A sample with |x| < r0 (1 - DISK_MARGIN) and 1/2 - |mu|
    above ``collision_threshold(mu)`` is therefore simple and takes that
    bound as its gap, with no eigensolve.  Every other sample is certified
    by ``certify_samples``: a dense solve of its even sector, and of the odd
    one only where the numerical range comes near the branch.  The bound
    is below the dense gap, so it only confirms decisions: a correction
    within half the bound is accepted; a larger one takes the current
    sample's dense check, computed then, and is judged against its gap, as
    is the exceptional point's neighbour and spectrum below.  Every
    decision is therefore the one the dense gap makes.  The single-mode
    block has no coupling, no radius and the dense path, with gap inf; an
    even sector past ``MAX_DENSE_DIM`` takes the dense path too, which
    raises EigensolveError.  The bound, like the dense check, is that of
    the truncated block.

    The first rejected step from each sample asks ``exceptional_point``
    whether the step ran into the exceptional point where the branch meets
    the neighbour of the current sample.  If so the continuation stops
    with reason "exceptional point" and x_collision = x_c; no checkpoint
    lies between the sample and x_c, because steps never pass one.
    Otherwise the step is halved.  An accepted sample that is not simple
    asks ``exceptional_point`` the same of the stretch from it to the next
    checkpoint; a certified point there becomes x_collision, and the
    sample stays the last one.  Both calls hand over the even spectrum and
    the neighbour from the sample's dense check, computed then for a disk
    sample; at the start x = 0 they are the exact unperturbed ones, m^2 for
    m = 0..k_max and 1.
    """
    coeffs.check_block(block)
    ck_x, ck_s = _checkpoint_params(x_target, checkpoints)
    x_target = float(x_target)
    dim = block.dim
    sector = EvenSector.of(coeffs)

    # the unperturbed spectrum is m^2 on the symmetric block: the nearest
    # neighbour of 0 is 1, none on the single-mode block
    gap0 = 1.0 if dim > 1 else math.inf
    if x_target == 0:
        return EigenBranch(
            sector=sector,
            x_samples=np.array([0.0]),
            mu_values=np.array([0j]),
            simple=np.array([gap0 > collision_threshold(0.0)]),
            status="complete",
            checkpoint_index=(0,),
        )

    ds_base = 1.0 / max(MIN_STEPS, math.ceil(abs(x_target) / STEP_X))
    ds_min = 1e-12

    xs = [0.0]
    mus = [0j]
    simples = [gap0 > collision_threshold(0.0)]

    # the single-mode block has no coupling to bound and keeps the dense
    # path, as does a sector past the dense limit, which raises there
    r_disk = 0.0
    if 1 < dim and block.k_max < MAX_DENSE_DIM:
        r_disk = kato_radius(sector, np.array([DISK_RHO + 0j])) * (1.0 - DISK_MARGIN)
    # the current sample (x and mu are floats: Newton on the float lists of
    # a real sector returns real roots from a real prediction), the one
    # before it for the secant, and its gap with its dense check (None while
    # the Kato bound stands in for both); at x = 0 the even spectrum is
    # exactly m^2 and the neighbour of 0 is m^2 = 1, which the even sector
    # holds
    s_cur = x_cur = mu_cur = 0.0
    s_prev, mu_prev = None, 0.0
    gap = gap0
    check = SpotCheck(np.array(sector.diag), gap0, 1.0 + 0j if dim > 1 else None)
    ds, easy, nxt = ds_base, 0, 0
    ep_tried = False
    status, reason, x_coll = "complete", "", None
    landed = []

    def dense_check() -> SpotCheck:
        # the current sample's dense check, computed once where its Kato
        # bound leaves a decision open
        nonlocal check
        if check is None:
            check = certify_samples(sector.at(x_cur), mu_cur)
        return check

    while nxt < len(ck_s):
        # predict by secant at ds, shortened to land on the next checkpoint
        # (or stretched to it when less than 1.5 ds away)
        s_ck = ck_s[nxt]
        ds_eff = min(ds, s_ck - s_cur)
        if s_ck - s_cur < 1.5 * ds:
            ds_eff = s_ck - s_cur
        s_new = s_cur + ds_eff
        if s_ck - s_new < 1e-15:
            s_new = s_ck
        at_checkpoint = s_new == s_ck
        x_new = ck_x[nxt] if at_checkpoint else s_new * x_target
        if s_prev is not None and s_cur != s_prev:
            slope = (mu_cur - mu_prev) / (s_cur - s_prev)
            mu_pred = mu_cur + slope * (s_new - s_cur)
        else:
            mu_pred = mu_cur
        mu_new, ok, iters = newton_polish(sector.lists(x_new), mu_pred)

        # the correction leaves half the current sample's gap; a bound
        # below that gap can only confirm an acceptance
        move = abs(mu_new - mu_pred)
        if not ok or (move > 0.5 * gap and move > 0.5 * dense_check().gap):
            if not ep_tried:
                # the first rejection from x_cur: the step may have run into
                # the exceptional point where the branch meets nu
                ep_tried = True
                cur = dense_check()
                x_c = exceptional_point(
                    sector, x_cur, x_new, mu_cur, cur.nu, eigs_cur=cur.even_eigs
                )
                if x_c is not None:
                    status, reason, x_coll = "collision", "exceptional point", x_c
                    break
            ds *= 0.5
            easy = 0
            if ds < ds_min:
                status, reason = "collision", "step underflow near loss of simplicity"
                x_coll = x_cur
                break
            continue

        if abs(x_new) < r_disk and DISK_RHO - abs(mu_new) > collision_threshold(mu_new):
            # DISK_RHO - |mu| bounds the gap and confirms simplicity
            check, gap = None, DISK_RHO - abs(mu_new)
        else:
            check = certify_samples(sector.at(x_new), mu_new)
            gap = check.gap
        is_simple = gap > collision_threshold(mu_new)
        xs.append(x_new)
        mus.append(mu_new)
        simples.append(is_simple)
        if at_checkpoint:
            landed.append(len(xs) - 1)
            nxt += 1
        if not is_simple:
            # a sample in the disk is simple, so this one has its check
            status, reason, x_coll = "collision", "gap below collision threshold", x_new
            if nxt < len(ck_s):
                # the exceptional point may lie just beyond this sample,
                # short of the next checkpoint
                x_c = exceptional_point(
                    sector, x_new, ck_x[nxt], mu_new, check.nu, eigs_cur=check.even_eigs
                )
                if x_c is not None:
                    reason, x_coll = "exceptional point", x_c
            break
        s_prev, mu_prev = s_cur, mu_cur
        s_cur, x_cur, mu_cur = s_new, x_new, mu_new
        ep_tried = False
        if iters <= 5:
            easy += 1
            if easy >= 3 and ds < ds_base:
                ds, easy = min(2.0 * ds, ds_base), 0
        else:
            easy = 0

    return EigenBranch(
        sector=sector,
        x_samples=np.array(xs),
        mu_values=np.array(mus),
        simple=np.array(simples),
        status=status,
        reason=reason,
        x_collision=x_coll,
        checkpoint_index=tuple(landed),
    )


def _checkpoint_params(x_target: float, checkpoints: Sequence[float]) -> tuple[list, list]:
    """Checkpoints ending at x_target, as floats, and their fractions s =
    x / x_target.

    A checkpoint's own value, not s * x_target, is the one sampled, so a
    caller gets back exactly the float it asked for.  A complex x_target or
    checkpoint raises TypeError: ``float`` of a NumPy complex scalar would
    drop its imaginary part with no more than a warning.
    """
    if np.iscomplexobj(x_target) or np.iscomplexobj(checkpoints):
        raise TypeError("the branch continuation runs on real x; got a complex parameter")
    x_target = float(x_target)
    xs = [float(c) for c in checkpoints]
    if not xs or xs[-1] != x_target:
        xs.append(x_target)
    if x_target == 0:
        if len(xs) > 1:
            raise ValueError("checkpoints need a nonzero x_target")
        return xs, [0.0]
    fractions = [c / x_target for c in xs]
    mags = [abs(c) for c in xs]
    if any(not f > 0.0 for f in fractions) or any(b <= a for a, b in zip(mags, mags[1:])):
        raise ValueError(
            "checkpoints must lie on the segment (0, x_target] in order of increasing |x|"
        )
    return xs, fractions[:-1] + [1.0]

