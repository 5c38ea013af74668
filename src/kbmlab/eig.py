"""Eigenvalue machinery for complex tridiagonal matrices.

Five pieces: the characteristic polynomial by the scaled three-term
determinant recurrence (a loop on Python scalars, float or complex), a dense
eigensolver used strictly as a brute-force oracle (one matrix or a stack,
densified in chunks of bounded size), inverse-iteration eigenvectors for
a whole stack of matrices at once, continuation along the real axis of
the eigenvalue branch that emanates from the unperturbed value 0, and the
exceptional point where that branch ends.  On the real axis every family
member, and each of its parity sectors, is a real matrix; the dense
solver then runs in real arithmetic, in less than half the time of the
complex solve on the sector sizes used here.

The continuation walks the real segment [0, x_target], on which the
paper's x = -2/gamma lies, with a secant predictor and a Newton corrector
on the characteristic polynomial of the even parity sector
(``operator.even_sector``, dimension k_max + 1), which holds the branch
through 0, read as Python float lists formed once per block; a complex
x_target or checkpoint raises TypeError.  The branch is holomorphic in x;
that is checked through ``newton_polish`` on the sector assembled at
complex x.  The continuation takes Newton-only steps first and certifies
them afterwards.  Inside the Kato disk, |x| below the radius r0 of the
circle |zeta| = 1/2 (``operator.kato_radius``, computed once per block),
that circle holds exactly one eigenvalue of the block, the branch, and
every other one lies outside it (Kato, *Perturbation Theory for Linear
Operators*, II.3); a sample there with |mu| < 1/2 has its gap to the rest
of the spectrum bounded below by 1/2 - |mu| and needs no eigensolve.  One
stacked dense solve checks the gap of every other walked sample, on the
stack of their even sectors built in one call.  That check solves the even
sectors only and certifies the odd ones, slices of the even ones
(``operator.odd_sector``), by their numerical range (Horn & Johnson,
*Topics in Matrix Analysis*, 1.2): at real x the odd sector's Hermitian
part is diag(m^2, m >= 1), so every odd eigenvalue has Re >= 1, and when
the even gap is below 1 - Re mu the nearest two eigenvalues of the full
block are both even.  Otherwise that sample's odd sector is solved too and
the union decides, so gaps and simplicity keep their full-block meaning.
A step is accepted only if the corrected value stays within half of the
previous sample's gap to the rest of the spectrum; otherwise the step is
halved and the walked samples after it are discarded.  The bound is below
the dense gap, so it can only confirm an acceptance or a simple sample;
where it leaves a decision open, that one sample's dense check is computed
and decides, so every decision is the one the dense gap makes.  Steps are
shortened to land exactly on caller-given checkpoints of the segment, so
one continuation serves every parameter on it.  It computes no
eigenvectors; callers take ``inverse_iteration`` where they report values.

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

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import BranchCollisionError, EigensolveError
from .ladder import CasimirBlock, LadderCoefficients
from .operator import (
    TridiagonalOperator,
    batch_slices,
    even_sector,
    gtsv,
    kato_radius,
    numerical_range_floor,
    odd_sector,
)

MAX_DENSE_DIM = 4096

# Below this gap, Newton on the characteristic polynomial loses quadratic
# convergence and simplicity is numerically unverifiable.
COLLISION_REL = 1e-6

NEWTON_MAX_ITER = 60
INVERSE_MAX_ITER = 30

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
_SQRT2 = math.sqrt(2.0)


class CharPolyValue(NamedTuple):
    """det(op - lambda*I) as value * 2**exp2; derivative shares exp2."""

    value: complex
    derivative: complex
    exp2: int


def char_poly(op: TridiagonalOperator, lam: complex) -> CharPolyValue:
    """Characteristic determinant and its lambda-derivative.

    Three-term recurrence on leading principal minors with power-of-two
    rescaling so that determinants of large matrices never overflow; the
    true determinant is value * 2**exp2.  The loop runs on Python scalars,
    which cost a fraction of numpy scalars per operation.  Values are
    rescaled when the largest of |p|, |p_prev|, |dp|, |dp_prev| leaves
    [2**-512, 2**512]; p_prev and dp_prev passed that test on the previous
    rung, so the four-way maximum is formed only when |p| or |dp| is out of
    range (on rung 1 also when |d_0 - lambda| is), which gives the same
    bits as forming it on every rung.
    """
    return _char_poly(op.diag.tolist(), (op.sub * op.sup).tolist(), lam)


def _char_poly(d: list, c: list, lam) -> CharPolyValue:
    """``char_poly`` on the diagonal ``d`` and the rung products c_j =
    sub_j * sup_j as Python lists, which a caller evaluating one operator
    many times converts once.  It runs in the arithmetic of the scalars
    given (see ``newton_polish``)."""
    p_prev, p = 1.0, d[0] - lam
    dp_prev, dp = 0.0, -1.0
    exp2 = 0
    big, small = _BIG, _SMALL
    # an empty range sends rung 1 to the four-way test when |d_0 - lambda|
    # is out of range
    hi = big if abs(p) <= big else 0.0
    for dj, cj in zip(d[1:], c):
        t = dj - lam
        p, p_prev = t * p - cj * p_prev, p
        dp, dp_prev = t * dp - p_prev - cj * dp_prev, dp
        # a NaN fails the range test too and meets the four-way test as before
        if not (small <= abs(p) <= hi and small <= abs(dp) <= hi):
            hi = big
            m = max(abs(p), abs(p_prev), abs(dp), abs(dp_prev))
            if m > big:
                p *= small
                p_prev *= small
                dp *= small
                dp_prev *= small
                exp2 += 512
            elif 0.0 < m < small:
                p *= big
                p_prev *= big
                dp *= big
                dp_prev *= big
                exp2 -= 512
    return CharPolyValue(p, dp, exp2)


def newton_polish(op, mu0: complex) -> tuple[complex, bool, int]:
    """Newton iteration on the characteristic polynomial from ``mu0``, at
    most ``NEWTON_MAX_ITER`` steps.

    Converges when the step reaches the relative rounding floor of the
    iterate; the exponent of the determinant cancels from the Newton step,
    so scaling never enters.  ``op`` is a TridiagonalOperator, converted
    to Python lists once, or those lists, (diagonal, rung products), as
    ``EvenSectorLists.at`` forms them.  The iteration runs in the
    arithmetic of the scalars given.  On float lists from a float ``mu0``
    it is real, and its float root is bitwise the real part of the complex
    iteration's, whose imaginary parts would all be zero (+0.0 on the
    iterates).  The continuation runs it on those float lists; on an
    operator assembled at complex x it is the check of the branch's
    holomorphy.  Returns (root, converged, iterations).
    """
    mu = mu0
    prev_step = math.inf
    if isinstance(op, TridiagonalOperator):
        d, c = op.diag.tolist(), (op.sub * op.sup).tolist()
    else:
        d, c = op
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


class EvenSectorLists(NamedTuple):
    """One block's even sector as Python float lists, formed once for the
    many Newton solves on it: the diagonal m^2 (m = 0..k_max) and the rung
    coefficients a_m (``coeffs.a[k_max:]``)."""

    diag: list
    rungs: list

    @classmethod
    def of(cls, block: CasimirBlock, coeffs: LadderCoefficients) -> "EvenSectorLists":
        k = block.k_max
        return cls([float(m * m) for m in range(k + 1)], coeffs.a[k:].tolist())

    def at(self, x: float) -> tuple[list, list]:
        """``newton_polish``'s (diagonal, rung products) of ``even_sector``
        at real x: s_j = x*a_j, s_0 *= sqrt(2) and c_j = -(s_j*s_j), the
        IEEE products whose results are the real parts of that sector's."""
        s = [x * a for a in self.rungs]
        if s:
            s[0] *= _SQRT2
        return self.diag, [-(v * v) for v in s]


def eig_dense(op: TridiagonalOperator) -> np.ndarray:
    """All eigenvalues by a dense nonsymmetric solve (brute-force oracle);
    a stack of matrices gives one row of eigenvalues per matrix.

    A call with no imaginary part anywhere (every family member at real
    x, so every stack the continuation certifies, and every generator)
    goes to the real LAPACK solver, about a quarter of the complex
    solver's arithmetic, whose non-real eigenvalues come in exact
    conjugate pairs; any other call is solved in complex arithmetic
    throughout.  The result is complex either way.  The stack is densified
    and solved in chunks of at most ``operator.STACK_BUDGET`` entries (one
    matrix when a single one is larger), one stacked LAPACK call per
    chunk, so no dense array above the budget is ever allocated.
    """
    if op.dim > MAX_DENSE_DIM:
        raise EigensolveError(f"dense oracle limited to dimension {MAX_DENSE_DIM}")
    return _eigvals(op, not (op.diag.imag.any() or op.sub.imag.any() or op.sup.imag.any()))


def _eigvals(op: TridiagonalOperator, real: bool) -> np.ndarray:
    """``eig_dense`` of one matrix or a stack, in real arithmetic when
    ``real``, densified and solved per chunk of the entry budget."""
    parts = batch_slices(op.diag.shape[0] if op.diag.ndim == 2 else 1, op.dim * op.dim)
    if len(parts) > 1:
        return np.concatenate([_eigvals(_rows(op, part), real) for part in parts])
    a = op.to_dense()
    return np.linalg.eigvals(a.real if real else a).astype(complex, copy=False)


def _rows(op: TridiagonalOperator, rows) -> TridiagonalOperator:
    """The matrices ``rows`` (a slice or indices) of a stack."""
    return TridiagonalOperator(op.diag[rows], op.sup[rows], op.sub[rows])


class SpotCheck(NamedTuple):
    """Dense check of a tracked value mu against the full block."""

    even_eigs: np.ndarray  # the even sector's dense spectrum
    oracle_dev: float  # distance from mu to the nearest eigenvalue
    gap: float  # distance from mu to the second-nearest eigenvalue
    nu: Optional[complex]  # that second-nearest one; None when it is odd


def certify_samples(even: TridiagonalOperator, mu) -> list:
    """``SpotCheck`` of every sample of a stack: the nearest and
    second-nearest eigenvalue of the full (truncated) block to mu[i], for
    the stacked even sectors ``even`` (B, n) and the tracked values ``mu``
    (B,).  ``track_branch`` certifies with it the walked samples outside the
    Kato disk, and a single disk sample where the Kato bound leaves a
    decision open.

    The even sectors are solved in one stacked ``eig_dense`` call and every
    row's two nearest eigenvalues come from one row-wise stable argsort.
    The odd sectors are ``odd_sector(even)`` (none on the single-mode
    block).  Their eigenvalues have real part at least f =
    ``numerical_range_floor`` of them, so none is within f - Re mu of mu;
    when a row's even gap is below that (less 64 eps max|d| for LAPACK's
    rounding of the odd spectrum) both nearest eigenvalues are even.  The
    odd sectors of the other rows are solved in one more stacked call, and
    the union decides there.  Either way every row equals, bit for bit,
    the check on the union of both sectors' dense spectra, even sector
    first (ties go to the lower index).
    """
    mu = np.asarray(mu, dtype=complex)
    rows = np.arange(mu.size)
    eigs = eig_dense(even)
    dist = np.abs(eigs - mu[:, None])
    near = np.argsort(dist, axis=1, kind="stable")[:, :2]
    nearest = dist[rows, near[:, 0]]
    gap = dist[rows, near[:, 1]] if even.dim > 1 else np.full(mu.size, math.inf)
    nu = [complex(v) for v in eigs[rows, near[:, 1]]] if even.dim > 1 else [None] * mu.size
    odd = odd_sector(even)
    if odd is not None:
        margin = 64.0 * _EPS * np.max(np.abs(odd.diag), axis=1)
        union = np.flatnonzero(~(gap < numerical_range_floor(odd) - mu.real - margin))
        if union.size:
            odd_eigs = eig_dense(_rows(odd, union))
            for i, o in zip(union.tolist(), odd_eigs):
                both = np.concatenate((eigs[i], o))
                d = np.abs(both - mu[i])
                pair = np.argsort(d, kind="stable")[:2]
                nearest[i], gap[i] = d[pair[0]], d[pair[1]]
                nu[i] = complex(both[pair[1]]) if pair[1] < even.dim else None
    return [
        SpotCheck(eigs[i], float(nearest[i]), float(gap[i]), nu[i]) for i in rows.tolist()
    ]


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
    ten carried values are rescaled together, as in ``char_poly``.
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
    block: CasimirBlock,
    coeffs: LadderCoefficients,
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
    branch point of the even sector, where p = p_mu = 0.  That system is
    solved for (t, mu), t = x^2, by Newton with the Jacobian
    [[p_t, p_mu], [p_mut, p_mumu]] from ``_even_recurrence``.  The seed
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
    d, a = EvenSectorLists.of(block, coeffs)
    b = [v * v for v in a]
    b[0] *= 2.0
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
    dist = np.sort(np.abs(eig_dense(even_sector(block, coeffs, x_c)) - mu))
    if not (dist.size >= 2 and dist[1] <= collision_threshold(mu)):
        return None
    return x_c


def inverse_iteration(op: TridiagonalOperator, mu) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors of a stack of B operators (``op.diag`` of shape
    (B, n)) for the eigenvalues near ``mu`` (B,), by inverse iteration with
    every matrix's solve in one ``gtsv`` call per step.

    Each row starts from the unit vector at its diagonal entry nearest mu
    and runs at most ``INVERSE_MAX_ITER`` solves, until its residual
    ||(op - mu) v|| is at most 1e-10 times its ||op||_inf (Ipsen, *SIAM
    Review* 39, 1997).  A row whose op - mu is exactly singular moves to
    the shift mu + 8*eps*||op||_inf for the rest of its iteration (the
    standard inverse-iteration device; a nudge of one eps is lost to
    rounding on small blocks).  The phase is fixed by making the
    largest-modulus entry real and positive.  A row whose iteration
    yields a zero or non-finite vector, or does not converge (a defective
    or clustered eigenvalue), reads NaN.  Rows stop at their own
    convergence and every step is elementwise along the stack, so each
    row has the bits it gets alone.

    One matrix is a stack of one.  Returns (v, r): the vectors (B, n) and
    their residuals (B,) at mu.
    """
    mu = np.asarray(mu, dtype=complex)
    batch, n = op.diag.shape
    nrm = op.inf_norm()
    tol = 1e-10 * np.maximum(nrm, 1e-300)
    vecs = np.full((batch, n), math.nan, dtype=complex)
    res = np.full(batch, math.nan)
    # a row leaves ``todo`` when it converges or fails; its result is then final
    todo = np.ones(batch, dtype=bool)
    shift = mu
    v = np.zeros((batch, n), dtype=complex)
    v[np.arange(batch), np.argmin(np.abs(op.diag - mu[:, None]), axis=1)] = 1.0
    for _ in range(INVERSE_MAX_ITER):
        w, singular = gtsv(op.sub, op.diag - shift[:, None], op.sup, v)
        singular &= todo
        if singular.any():
            shift = np.where(singular, mu + 8.0 * _EPS * nrm, shift)
            w[singular] = gtsv(
                op.sub[singular], op.diag[singular] - shift[singular, None],
                op.sup[singular], v[singular],
            )[0]
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows fail below
            wn = _norms(w)
        ok = todo & np.isfinite(wn) & (wn > 0.0)
        v = np.where(ok[:, None], w / np.where(ok, wn, 1.0)[:, None], v)
        r = _residuals(op, mu, v)
        done = ok & (r <= tol)
        vecs[done], res[done] = v[done], r[done]
        todo = ok & ~done
        if not todo.any():
            break
    # the phase does not change the residual; failed rows stay NaN
    top = vecs[np.arange(batch), np.argmax(np.abs(vecs), axis=1)]
    with np.errstate(invalid="ignore"):
        return vecs * (np.conj(top) / np.abs(top))[:, None], res


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


def _residuals(op: TridiagonalOperator, mu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||(op - mu) v|| for every matrix of a stack."""
    return _norms(op.matvec(v) - mu[:, None] * v)


@dataclass(frozen=True, eq=False)
class EigenBranch:
    """Continuation record of the branch through the unperturbed value 0.

    ``simple[i]`` is gap_to_rest[i] > collision_threshold(mu_values[i]).
    ``gap_to_rest`` is the distance from mu to the second-nearest eigenvalue
    of the block, from the dense certification, on samples outside the
    Kato disk; on a sample inside it, the Kato bound 1/2 - |mu|, which is
    at most that distance (see ``track_branch``).  The record holds no
    eigenvectors or residuals.
    ``status`` is "complete" when x_target was reached, otherwise
    "collision" with the stopping parameter in ``x_collision`` and the
    trigger in ``reason``: "exceptional point" (x_collision is the certified
    point, beyond the last sample, which may be a non-simple one), "gap
    below collision threshold" (the last sample, which is not simple) or
    "step underflow near loss of simplicity" (the last sample, the step
    having been halved below 1e-12).
    ``oracle_dev`` is the largest deviation between a tracked value and its
    nearest dense-oracle eigenvalue over the accepted samples that the dense
    check certified, those outside the disk (0.0 when there are none).
    ``checkpoint_index`` holds, for each checkpoint the continuation landed
    on (in order, x_target last), the index of its sample in ``x_samples``;
    a checkpoint sample may be the non-simple one that stopped the
    continuation.
    ``discarded`` counts the walked samples dropped unused because an
    earlier sample of their walk failed its certification (see
    ``track_branch``); it does not change any other field.  A walk ends at
    a sample inside the disk whose value lies outside the circle, so a
    Newton jump there discards nothing.
    The parameters are real: ``x_target`` and ``x_collision`` are floats
    and ``x_samples`` is a float array; ``mu_values`` is complex.
    """

    block: CasimirBlock
    x_target: float
    x_samples: np.ndarray
    mu_values: np.ndarray
    gap_to_rest: np.ndarray
    simple: np.ndarray
    status: str
    reason: str = ""
    x_collision: Optional[float] = None
    oracle_dev: float = 0.0
    checkpoint_index: tuple = ()
    discarded: int = 0

    @property
    def final_mu(self) -> complex:
        return complex(self.mu_values[-1])

    @property
    def reached(self) -> bool:
        return self.status == "complete"


@dataclass
class _Cursor:
    """Where a continuation stands: its last sample (s_cur, x_cur, mu_cur)
    with its gap and its dense ``check`` (None while the Kato bound stands
    in for both), the one before (s_prev, mu_prev) for the secant
    predictor, the step ``ds`` with the run of easy Newton solves that
    doubles it, and the next checkpoint ``nxt``.  x and mu are floats:
    Newton on the float lists of a real sector returns real roots from a
    real prediction."""

    ds: float
    gap: float
    check: Optional[SpotCheck]
    s_cur: float = 0.0
    x_cur: float = 0.0
    mu_cur: float = 0.0
    s_prev: Optional[float] = None
    mu_prev: float = 0.0
    easy: int = 0
    nxt: int = 0

    def advance(self, step: "_Step", ds_base: float) -> None:
        """Move to the accepted ``step``; three easy solves (at most five
        Newton iterations each) in a row double ds, up to ds_base."""
        self.s_prev, self.mu_prev = self.s_cur, self.mu_cur
        self.s_cur, self.x_cur, self.mu_cur = step.s, step.x, step.mu
        self.nxt += step.at_checkpoint
        if step.iters <= 5:
            self.easy += 1
            if self.easy >= 3 and self.ds < ds_base:
                self.ds = min(2.0 * self.ds, ds_base)
                self.easy = 0
        else:
            self.easy = 0


class _Step(NamedTuple):
    """One Newton step of a walk: the parameter reached, the secant
    prediction and the corrected value."""

    s: float
    x: float
    at_checkpoint: bool
    mu_pred: float
    mu: float
    ok: bool
    iters: int


def _newton_step(
    lists: EvenSectorLists, cur: _Cursor, ck_x: list, ck_s: list, x_target: float
) -> _Step:
    """The next step from ``cur``: ds, shortened to land on the next
    checkpoint (or stretched to it when less than 1.5 ds away), then Newton
    on the even sector's float lists ``lists.at(x)`` from the secant
    prediction; no operator is built."""
    s_ck = ck_s[cur.nxt]
    ds_eff = min(cur.ds, s_ck - cur.s_cur)
    if s_ck - cur.s_cur < 1.5 * cur.ds:
        ds_eff = s_ck - cur.s_cur
    s_new = cur.s_cur + ds_eff
    if s_ck - s_new < 1e-15:
        s_new = s_ck
    at_checkpoint = s_new == s_ck
    x_new = ck_x[cur.nxt] if at_checkpoint else s_new * x_target
    if cur.s_prev is not None and cur.s_cur != cur.s_prev:
        slope = (cur.mu_cur - cur.mu_prev) / (cur.s_cur - cur.s_prev)
        mu_pred = cur.mu_cur + slope * (s_new - cur.s_cur)
    else:
        mu_pred = cur.mu_cur
    mu_new, ok, iters = newton_polish(lists.at(x_new), mu_pred)
    return _Step(s_new, x_new, at_checkpoint, mu_pred, mu_new, ok, iters)


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

    ``checkpoints`` are parameters on the segment (0, x_target] in order of
    increasing |x|; x_target is appended when it is not the last one.  A
    complex x_target or checkpoint, even one with zero imaginary part,
    raises TypeError before any step is taken.  The continuation shortens
    the step that would pass a checkpoint so that it samples the
    checkpoint's exact value, and the step size is carried on unchanged
    past it.

    The loop alternates two phases.  A walk takes Newton-only steps from
    the last certified sample (secant predictor, landing on checkpoints,
    ds doubled after three easy steps) until Newton fails, the first
    step's correction leaves half the last certified gap, x_target is
    reached, the walk has its length, or a sample inside the Kato disk
    (below) has |mu| >= 1/2.  That value is not the branch, which is the
    one eigenvalue inside the circle there, so the walk stops instead of
    running on along another branch.  Then the walked samples are
    certified and replayed in order under the acceptance rules of a
    step-by-step continuation: a sample whose correction |mu - mu_pred|
    exceeds half the previous sample's gap is a rejected step, a sample
    that is not simple ends the continuation, and the walked samples after
    either are dropped and counted in ``discarded``.  The walk's steps
    depend on no gap, so the decisions are bit for bit those of checking
    each sample with a dense solve before taking the next step.  The first
    walk runs until it stops on its own; after a rejection the next walk is
    one step long, and each fully certified walk doubles the length of the
    next, so from the first rejection on no walk discards more samples than
    were certified since the last one.

    The certificate of a sample is the Kato bound inside the disk and a
    dense solve outside it.  r0 = ``operator.kato_radius`` at the node
    zeta = 1/2 is the Kato radius of the circle |zeta| = 1/2, exact over the
    whole circle (``perturb.perturbation_radius``), computed once.  For |x|
    < r0 that circle holds exactly one eigenvalue of the block, both parity
    sectors included, and every other eigenvalue nu has |nu| > 1/2, so the
    second-nearest eigenvalue to a value mu inside the circle is farther
    than 1/2 - |mu|.  A sample with |x| < r0 (1 - DISK_MARGIN) and 1/2 - |mu|
    above ``collision_threshold(mu)`` is therefore simple and takes that
    bound as its gap, with no eigensolve.  Every other walked sample is
    certified at once by ``certify_samples`` on their even sectors, built in
    one ``even_sector`` call: one stacked dense solve of them, and of their
    odd slices only where the numerical range comes near the branch.  The
    bound is below the dense gap, so it only confirms decisions: a
    correction within half the bound is accepted; a larger one takes the
    previous sample's dense check, computed for that sample alone (its bits
    are those of a stacked one), and is judged against its gap, as is the
    exceptional point's neighbour and spectrum below.  The single-mode
    block has no coupling, no radius and the dense path, with gap inf; an
    even sector past ``MAX_DENSE_DIM`` takes the dense path too, which
    raises EigensolveError.  The bound, like the dense check, is that of
    the truncated block.

    Newton reads the block's ``EvenSectorLists``, formed once: it builds
    no operator and runs in float arithmetic.

    The first rejected step from each sample asks ``exceptional_point``
    whether the step ran into the exceptional point where the branch meets
    the neighbour of the last certified sample.  If so the continuation
    stops with reason "exceptional point" and x_collision = x_c; no
    checkpoint lies between the sample and x_c, because steps never pass
    one.  Otherwise the step is halved.  An accepted sample that is not
    simple asks ``exceptional_point`` the same of the stretch from it to
    the next checkpoint; a certified point there becomes x_collision, and
    the sample stays the last one.  Both calls hand over the even spectrum
    and the neighbour from the sample's dense check, computed then for a
    disk sample; at the start x = 0 they are the exact unperturbed ones,
    m^2 for m = 0..k_max and 1.
    """
    ck_x, ck_s = _checkpoint_params(x_target, checkpoints)
    x_target = float(x_target)
    dim = block.dim

    # the unperturbed spectrum is m^2 on the symmetric block: the nearest
    # neighbour of 0 is 1, none on the single-mode block
    gap0 = 1.0 if dim > 1 else math.inf
    if x_target == 0:
        return EigenBranch(
            block=block,
            x_target=x_target,
            x_samples=np.array([0.0]),
            mu_values=np.array([0j]),
            gap_to_rest=np.array([gap0]),
            simple=np.array([gap0 > collision_threshold(0.0)]),
            status="complete",
            checkpoint_index=(0,),
        )

    ds_base = 1.0 / max(MIN_STEPS, math.ceil(abs(x_target) / STEP_X))
    ds_min = 1e-12

    xs = [0.0]
    mus = [0j]
    gaps = [gap0]
    simples = [gap0 > collision_threshold(0.0)]

    lists = EvenSectorLists.of(block, coeffs)
    # at x = 0 the even spectrum is exactly m^2 and the neighbour of 0 is
    # m^2 = 1, which the even sector holds
    start = SpotCheck(np.array(lists.diag), 0.0, gap0, 1.0 + 0j if dim > 1 else None)
    cur = _Cursor(ds=ds_base, gap=gap0, check=start)
    # the single-mode block has no coupling to bound and keeps the dense
    # path, as does a sector past the dense limit, which raises there
    r_disk = 0.0
    if 1 < dim and block.k_max < MAX_DENSE_DIM:
        r_disk = kato_radius(block, coeffs, np.array([DISK_RHO + 0j])) * (1.0 - DISK_MARGIN)
    ep_tried = False
    oracle_dev = 0.0
    status, reason, x_coll = "complete", "", None
    landed = []
    walk_length = math.inf
    discarded = 0

    def in_disk(step: _Step) -> bool:
        # DISK_RHO - |mu| bounds the gap and confirms simplicity
        return abs(step.x) < r_disk and DISK_RHO - abs(step.mu) > collision_threshold(step.mu)

    def dense_check() -> SpotCheck:
        # the current sample's dense check, computed once where its Kato
        # bound leaves a decision open; it has the bits of a stacked one
        if cur.check is None:
            even = even_sector(block, coeffs, np.array([cur.x_cur]))
            cur.check = certify_samples(even, [cur.mu_cur])[0]
            cur.gap = cur.check.gap
        return cur.check

    def rejects(step: _Step) -> bool:
        # the correction leaves half the current sample's gap; a bound
        # below that gap can only confirm an acceptance
        move = abs(step.mu - step.mu_pred)
        return move > 0.5 * cur.gap and move > 0.5 * dense_check().gap

    while cur.nxt < len(ck_s):
        # walk from a copy of the cursor; the replay below moves the real one
        walker = dataclasses.replace(cur)
        walked: list = []
        rejected: Optional[_Step] = None
        while len(walked) < walk_length and walker.nxt < len(ck_s):
            step = _newton_step(lists, walker, ck_x, ck_s, x_target)
            if not step.ok or (not walked and rejects(step)):
                rejected = step
                break
            walked.append(step)
            walker.advance(step, ds_base)
            if abs(step.x) < r_disk and not abs(step.mu) < DISK_RHO:
                # inside the disk the branch is the one eigenvalue in the
                # circle, so this value is not the branch: stop here
                break

        disk = [in_disk(step) for step in walked]
        dense = [step for step, d in zip(walked, disk) if not d]
        checks = iter(certify_samples(
            even_sector(block, coeffs, np.array([step.x for step in dense])),
            [step.mu for step in dense],
        ) if dense else ())
        done = False
        for i, (step, in_circle) in enumerate(zip(walked, disk)):
            if rejects(step):
                rejected = step
                discarded += len(walked) - i - 1
                break
            if in_circle:
                check, gap = None, DISK_RHO - abs(step.mu)
            else:
                check = next(checks)
                gap = check.gap
                oracle_dev = max(oracle_dev, check.oracle_dev)
            is_simple = gap > collision_threshold(step.mu)
            xs.append(step.x)
            mus.append(step.mu)
            gaps.append(gap)
            simples.append(is_simple)
            if step.at_checkpoint:
                landed.append(len(xs) - 1)
            if not is_simple:
                # a sample in the disk is simple, so this one has its check
                discarded += len(walked) - i - 1
                status, reason, x_coll = "collision", "gap below collision threshold", step.x
                nxt = cur.nxt + step.at_checkpoint
                if nxt < len(ck_s):
                    # the exceptional point may lie just beyond this sample,
                    # short of the next checkpoint
                    x_c = exceptional_point(
                        block, coeffs, step.x, ck_x[nxt], step.mu, check.nu,
                        eigs_cur=check.even_eigs,
                    )
                    if x_c is not None:
                        reason, x_coll = "exceptional point", x_c
                done = True
                break
            cur.advance(step, ds_base)
            cur.gap, cur.check = gap, check
            ep_tried = False
        if done:
            break
        if rejected is None:
            walk_length *= 2
            continue

        if not ep_tried:
            # the first rejection from x_cur: the step may have run into
            # the exceptional point where the branch meets nu
            ep_tried = True
            check = dense_check()
            x_c = exceptional_point(
                block, coeffs, cur.x_cur, rejected.x, cur.mu_cur, check.nu,
                eigs_cur=check.even_eigs,
            )
            if x_c is not None:
                status, reason, x_coll = "collision", "exceptional point", x_c
                break
        cur.ds *= 0.5
        cur.easy = 0
        if cur.ds < ds_min:
            status, reason = "collision", "step underflow near loss of simplicity"
            x_coll = cur.x_cur
            break
        walk_length = 1

    return EigenBranch(
        block=block,
        x_target=x_target,
        x_samples=np.array(xs),
        mu_values=np.array(mus),
        gap_to_rest=np.array(gaps),
        simple=np.array(simples),
        status=status,
        reason=reason,
        x_collision=x_coll,
        oracle_dev=oracle_dev,
        checkpoint_index=tuple(landed),
        discarded=discarded,
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


def branch_value(block: CasimirBlock, coeffs: LadderCoefficients, x: float) -> complex:
    """Branch value at the real x; raises if the continuation hits a
    collision."""
    br = track_branch(block, coeffs, x)
    if not br.reached:
        raise BranchCollisionError(
            f"branch lost simplicity near x = {br.x_collision} ({br.reason})"
        )
    return br.final_mu
