"""Eigenvalue machinery for complex tridiagonal matrices.

Five pieces: the characteristic polynomial by the scaled three-term
determinant recurrence (a loop on Python complex scalars), a dense
eigensolver used strictly as a brute-force oracle, inverse-iteration
eigenvectors, holomorphic continuation of the eigenvalue branch that
emanates from the unperturbed value 0, and the exceptional point where
that branch ends on the real axis.  On the real axis every family
member, and each of its parity sectors, is a real matrix; the dense
solver then runs in real arithmetic, in less than half the time of the
complex solve on the sector sizes used here.

The continuation walks the segment [0, x_target] with a secant predictor
and a Newton corrector on the characteristic polynomial of the even parity
sector (``operator.parity_sectors``, dimension k_max + 1), which holds the
branch through 0.  The dense gap check solves the even sector only and
certifies the odd one by its numerical range (Horn & Johnson, *Topics in
Matrix Analysis*, 1.2): at real x the odd sector's Hermitian part is
diag(m^2, m >= 1), so every odd eigenvalue has Re >= 1, and when the even
gap is below 1 - Re mu the nearest two eigenvalues of the full block are
both even.  Otherwise the odd sector is solved too and the union decides,
so gaps and simplicity keep their full-block meaning.  A step is accepted
only if the corrected value stays within half of the last known gap to
the rest of the spectrum; otherwise the step is halved.  Steps are
shortened to land exactly on caller-given checkpoints of the segment, so
one continuation serves every parameter on it.  It computes no
eigenvectors; callers take ``residual_norm`` where they report a value.

On a real segment the branch ends where it meets its even-sector
neighbour at a square-root exceptional point, p = dp/dmu = 0 (Kato,
*Perturbation Theory for Linear Operators*, II.1).  The first rejected
step from a sample solves that 2x2 system in (x^2, mu) by Newton
(``exceptional_point``); when the certified point lies inside the step the
continuation stops there.  An accepted sample that is not simple asks the
same of the stretch to the next checkpoint, since the point may lie just
beyond it.  Otherwise, and on complex segments, loss of numerical
simplicity (gap below threshold, or step underflow) flags the collision.
Either way the partial branch is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import BranchCollisionError, EigensolveError
from .ladder import CasimirBlock, LadderCoefficients
from .operator import (
    TridiagonalOperator,
    even_sector,
    numerical_range_floor,
    parity_sectors,
    tridiag_solve,
)

MAX_DENSE_DIM = 4096

# Below this gap, Newton on the characteristic polynomial loses quadratic
# convergence and simplicity is numerically unverifiable.
COLLISION_REL = 1e-6

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
    rescaling so that determinants of large matrices never overflow; the
    true determinant is value * 2**exp2.  The loop runs on Python complex
    scalars, which cost a fraction of numpy scalars per operation.  Values
    are rescaled when the largest of |p|, |p_prev|, |dp|, |dp_prev| leaves
    [2**-512, 2**512]; p_prev and dp_prev passed that test on the previous
    rung, so the four-way maximum is formed only when |p| or |dp| is out of
    range (on rung 1 also when |d_0 - lambda| is), which gives the same
    bits as forming it on every rung.
    """
    lam = complex(lam)
    d = op.diag.tolist()
    p_prev, p = 1.0 + 0j, d[0] - lam
    dp_prev, dp = 0j, -1.0 + 0j
    exp2 = 0
    c = (op.sub * op.sup).tolist()
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


def newton_polish(
    op: TridiagonalOperator, mu0: complex, *, max_iter: int = 60
) -> tuple[complex, bool, int]:
    """Newton iteration on the characteristic polynomial from ``mu0``.

    Converges when the step reaches the relative rounding floor of the
    iterate; the exponent of the determinant cancels from the Newton step,
    so scaling never enters.  Returns (root, converged, iterations).
    """
    mu = complex(mu0)
    prev_step = math.inf
    for it in range(1, max_iter + 1):
        v, dv, _ = char_poly(op, mu)
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
    return mu, prev_step <= 1e-9 * (1.0 + abs(mu)), max_iter


def eig_dense(op: TridiagonalOperator) -> np.ndarray:
    """All eigenvalues by a dense nonsymmetric solve (brute-force oracle).

    A matrix with no imaginary part (every family member at real x, every
    generator) goes to the real LAPACK solver, about a quarter of the
    complex solver's arithmetic, whose non-real eigenvalues come in exact
    conjugate pairs; the result is complex either way.
    """
    if op.dim > MAX_DENSE_DIM:
        raise EigensolveError(f"dense oracle limited to dimension {MAX_DENSE_DIM}")
    a = op.to_dense()
    if not (op.diag.imag.any() or op.sub.imag.any() or op.sup.imag.any()):
        a = a.real
    return np.linalg.eigvals(a).astype(complex, copy=False)


def parity_eigvals(
    even: TridiagonalOperator, odd: Optional[TridiagonalOperator]
) -> np.ndarray:
    """Full-block spectrum as the union of the two parity sectors' dense
    spectra (see ``operator.parity_sectors``), even sector first; the
    oracle that ``spot_check`` agrees with."""
    if odd is None:
        return eig_dense(even)
    return np.concatenate((eig_dense(even), eig_dense(odd)))


class SpotCheck(NamedTuple):
    """Dense check of a tracked value mu against the full block."""

    even_eigs: np.ndarray  # the even sector's dense spectrum
    oracle_dev: float  # distance from mu to the nearest eigenvalue
    gap: float  # distance from mu to the second-nearest eigenvalue
    nu: Optional[complex]  # that second-nearest one; None when it is odd


def spot_check(
    even: TridiagonalOperator, odd: Optional[TridiagonalOperator], mu: complex
) -> SpotCheck:
    """Nearest and second-nearest eigenvalue of the full block to mu.

    The even sector is solved densely.  The odd sector's eigenvalues have
    real part at least f = ``numerical_range_floor(odd)``, so none is within
    f - Re mu of mu; when the even gap is below that (less 64 eps max|d|
    for LAPACK's rounding of the odd spectrum) both nearest eigenvalues are
    even and the odd sector is not solved.  Otherwise the odd sector is
    solved too and the union decides.  Either way the result equals, bit
    for bit, the one on ``parity_eigvals`` (ties go to the lower index,
    even sector first).
    """
    eigs = even_eigs = eig_dense(even)
    dist = np.abs(eigs - mu)
    near = np.argsort(dist, kind="stable")[:2]
    gap = float(dist[near[1]]) if near.size > 1 else math.inf
    if odd is not None:
        margin = 64.0 * _EPS * float(np.max(np.abs(odd.diag)))
        if not gap < numerical_range_floor(odd) - mu.real - margin:
            eigs = np.concatenate((even_eigs, eig_dense(odd)))
            dist = np.abs(eigs - mu)
            near = np.argsort(dist, kind="stable")[:2]
            gap = float(dist[near[1]])
    nu = complex(eigs[near[1]]) if near.size > 1 and near[1] < even.dim else None
    return SpotCheck(even_eigs, float(dist[near[0]]), gap, nu)


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
    eigs_cur: Optional[np.ndarray] = None,
) -> Optional[float]:
    """The exceptional point x_c that ends the real step x_cur -> x_try, or
    None when no exceptional point is certified there.

    The branch value mu_cur at x_cur and its nearest neighbour ``nu`` (None
    when that neighbour lies in the odd sector) meet at a square-root
    branch point of the even sector, where p = p_mu = 0.  That system is
    solved for (t, mu), t = x^2, by Newton with the Jacobian
    [[p_t, p_mu], [p_mut, p_mumu]] from ``_even_recurrence``.  The seed
    comes from the sector's own dense spectrum at x_cur (the eigenvalue
    nearest mu_cur and its nearest neighbour, which meet at their midpoint
    after the time the square-root model gives from their slopes), so the
    result depends on mu_cur and nu only through comparisons.  A caller
    that holds that spectrum passes it as ``eigs_cur``, which saves the
    solve; the default solves it.

    Certified means: Newton converged to t_c > x_cur^2; p_mumu and p_t do
    not vanish there (a simple square-root branch point); mu_c lies
    strictly between mu_cur and nu; |x_cur| < |x_c| <= |x_try|; and the
    even sector's dense spectrum at x_c holds two eigenvalues within
    ``collision_threshold(mu_c)`` of mu_c.
    """
    if nu is None or nu.imag != 0.0:
        return None
    k = block.k_max
    d = [float(m * m) for m in range(k + 1)]
    b = (coeffs.a[k:] ** 2).tolist()
    b[0] *= 2.0
    t_cur = x_cur * x_cur

    eigs = eigs_cur if eigs_cur is not None else eig_dense(even_sector(block, coeffs, x_cur))
    near = np.argsort(np.abs(eigs - mu_cur))[:2]
    if near.size < 2 or eigs[near].imag.any():
        return None
    mu_a, mu_b = eigs[near].real.tolist()
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


def gap_to_rest(mu: complex, eigs: np.ndarray) -> float:
    """Distance from mu to the nearest eigenvalue other than its own match."""
    d = np.sort(np.abs(np.asarray(eigs) - mu))
    if d.size <= 1:
        return math.inf
    return float(d[1])


def eigvec(
    op: TridiagonalOperator,
    mu: complex,
    *,
    max_iter: int = 30,
    check_simple: bool = True,
) -> np.ndarray:
    """Unit eigenvector for the eigenvalue near ``mu`` by inverse iteration.

    Residual target is 1e-10 times the operator norm; the phase is fixed by
    making the largest-modulus entry real and positive.  When op - mu is
    exactly singular, the solves use the shift mu + 8*eps*||op||_inf
    instead (the standard inverse-iteration device; a nudge of one eps is
    lost to rounding on small blocks).  Raises when the eigenvalue is
    degenerate within the collision threshold or when the iteration does
    not converge (defective or clustered eigenvalue).
    """
    n = op.dim
    if check_simple and 1 < n <= MAX_DENSE_DIM:
        d = np.sort(np.abs(eig_dense(op) - mu))
        if d[0] > 1e-6 * (1.0 + abs(mu)):
            raise EigensolveError("mu is not within tolerance of an eigenvalue")
        if d[1] <= collision_threshold(mu):
            raise EigensolveError("eigenvalue is not numerically simple")
    v = np.zeros(n, dtype=complex)
    v[int(np.argmin(np.abs(op.diag - mu)))] = 1.0
    nrm = op.inf_norm()
    tol = 1e-10 * max(nrm, 1e-300)
    shift = mu
    for _ in range(max_iter):
        try:
            w = tridiag_solve(op, shift, v)
        except EigensolveError:
            shift = mu + 8.0 * _EPS * nrm
            w = tridiag_solve(op, shift, v)
        wn = float(np.linalg.norm(w))
        if not math.isfinite(wn) or wn == 0.0:
            raise EigensolveError("inverse iteration produced a degenerate vector")
        v = w / wn
        r = float(np.linalg.norm(op.matvec(v) - mu * v))
        if r <= tol:
            i = int(np.argmax(np.abs(v)))
            v = v * (np.conj(v[i]) / abs(v[i]))
            return v
    raise EigensolveError(
        "inverse iteration did not converge; eigenvalue defective or clustered"
    )


def residual_norm(op: TridiagonalOperator, mu: complex) -> float:
    """||(op - mu) v|| for the inverse-iteration eigenvector at mu."""
    v = eigvec(op, mu, check_simple=False)
    return float(np.linalg.norm(op.matvec(v) - mu * v))


@dataclass(frozen=True, eq=False)
class EigenBranch:
    """Continuation record of the branch through the unperturbed value 0.

    ``simple[i]`` is gap_to_rest[i] > collision_threshold(mu_values[i]);
    the gaps come from the dense spot checks, and the record holds no
    eigenvectors or residuals.
    ``status`` is "complete" when x_target was reached, otherwise
    "collision" with the stopping parameter in ``x_collision`` and the
    trigger in ``reason``: "exceptional point" (x_collision is the certified
    point, beyond the last sample, which may be a non-simple one), "gap
    below collision threshold" (the last sample, which is not simple) or
    "step underflow near loss of simplicity" (the last sample, the step
    having been halved below 1e-12).
    ``oracle_dev`` is the largest deviation between a tracked value and its
    nearest dense-oracle eigenvalue over all spot-checked samples.
    ``checkpoint_index`` holds, for each checkpoint the continuation landed
    on (in order, x_target last), the index of its sample in ``x_samples``;
    a checkpoint sample may be the non-simple one that stopped the
    continuation.
    """

    block: CasimirBlock
    x_target: complex
    x_samples: np.ndarray
    mu_values: np.ndarray
    gap_to_rest: np.ndarray
    simple: np.ndarray
    status: str
    reason: str = ""
    x_collision: Optional[complex] = None
    oracle_dev: float = 0.0
    checkpoint_index: tuple = ()

    @property
    def final_mu(self) -> complex:
        return complex(self.mu_values[-1])

    @property
    def reached(self) -> bool:
        return self.status == "complete"


def track_branch(
    block: CasimirBlock,
    coeffs: LadderCoefficients,
    x_target: complex,
    steps: Optional[int] = None,
    *,
    gap_stride: Optional[int] = None,
    checkpoints: Sequence[complex] = (),
) -> EigenBranch:
    """Continue the eigenvalue branch from 0 at x = 0 to ``x_target``.

    The unperturbed value 0 is a simple eigenvalue on the block (the
    diagonal is k^2 and the zero mode occurs once), so the branch starts
    well defined; it lies in the even parity sector, where Newton runs.
    Gap spot checks against the dense oracle (``spot_check``: the even
    sector's spectrum, and the odd one's only when its numerical range
    comes near the branch) run at every sample for block dimension <= 512
    and every 8th sample otherwise, and at every checkpoint.  Gaps, the
    neighbour and simplicity are those of the full block.

    ``checkpoints`` are parameters on the segment (0, x_target] in order of
    increasing |x|; x_target is appended when it is not the last one.  The
    continuation shortens the step that would pass a checkpoint so that it
    samples the checkpoint's exact value, and the step size is carried on
    unchanged past it.

    On a real segment, the first rejected step from each sample asks
    ``exceptional_point`` whether the step ran into the exceptional point
    where the branch meets the neighbour of the last gap check.  If so the
    continuation stops with reason "exceptional point" and x_collision =
    x_c; no checkpoint lies between the sample and x_c, because steps never
    pass one.  Otherwise the step is halved.  An accepted sample that is
    not simple asks ``exceptional_point`` the same of the stretch from it
    to the next checkpoint; a certified point there becomes x_collision,
    and the sample stays the last one.  Both calls hand over the even
    spectrum from the sample's spot check when there was one.
    """
    x_target = complex(x_target)
    dim = block.dim
    stride = gap_stride if gap_stride is not None else (1 if dim <= 512 else 8)
    ck_x, ck_s = _checkpoint_params(x_target, checkpoints)

    eigs0 = block.ks.astype(float) ** 2
    gap0 = gap_to_rest(0.0, eigs0.astype(complex))
    if x_target == 0:
        return EigenBranch(
            block=block,
            x_target=x_target,
            x_samples=np.array([0j]),
            mu_values=np.array([0j]),
            gap_to_rest=np.array([gap0]),
            simple=np.array([gap0 > collision_threshold(0.0)]),
            status="complete",
            checkpoint_index=(0,),
        )

    base_steps = steps if steps is not None else max(4, int(math.ceil(abs(x_target) / 0.05)))
    ds_base = 1.0 / base_steps
    ds_min = 1e-12

    xs = [0j]
    mus = [0j]
    gaps = [gap0]
    simples = [gap0 > collision_threshold(0.0)]

    s_cur = 0.0
    x_cur = 0j
    mu_cur = 0j
    s_prev: Optional[float] = None
    mu_prev = 0j
    last_gap = gap0
    # the unperturbed neighbour of 0 is m^2 = 1, which the even sector holds
    last_nu: Optional[complex] = 1.0 + 0j if dim > 1 else None
    real_segment = x_target.imag == 0.0
    ep_tried = False
    # the even sector's dense spectrum at x_cur, when its spot check ran
    eigs_cur: Optional[np.ndarray] = None
    oracle_dev = 0.0
    status, reason, x_coll = "complete", "", None
    ds = ds_base
    idx = 0
    easy = 0
    nxt = 0
    landed = []

    while nxt < len(ck_s):
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

        even, odd = parity_sectors(block, coeffs, x_new)
        mu_new, ok, iters = newton_polish(even, mu_pred)
        trust = 0.5 * last_gap
        if (not ok) or abs(mu_new - mu_pred) > trust:
            if real_segment and not ep_tried:
                # the first rejection from x_cur: the step may have run into
                # the exceptional point where the branch meets nu
                ep_tried = True
                x_c = exceptional_point(
                    block, coeffs, x_cur.real, x_new.real, mu_cur.real, last_nu,
                    eigs_cur=eigs_cur,
                )
                if x_c is not None:
                    status, reason, x_coll = "collision", "exceptional point", complex(x_c)
                    break
            ds *= 0.5
            easy = 0
            if ds < ds_min:
                status, reason = "collision", "step underflow near loss of simplicity"
                x_coll = x_cur
                break
            continue

        idx += 1
        spot = (idx % stride == 0) or at_checkpoint
        if spot:
            check = spot_check(even, odd, mu_new)
            oracle_dev = max(oracle_dev, check.oracle_dev)
            gap = last_gap = check.gap
            last_nu = check.nu
        else:
            gap = last_gap
        is_simple = gap > collision_threshold(mu_new)

        xs.append(x_new)
        mus.append(mu_new)
        gaps.append(gap)
        simples.append(is_simple)
        if at_checkpoint:
            landed.append(len(xs) - 1)
            nxt += 1

        if not is_simple:
            status, reason = "collision", "gap below collision threshold"
            x_coll = x_new
            if real_segment and nxt < len(ck_s):
                # the exceptional point may lie just beyond this sample,
                # short of the next checkpoint
                x_c = exceptional_point(
                    block, coeffs, x_new.real, ck_x[nxt].real, mu_new.real, last_nu,
                    eigs_cur=check.even_eigs if spot else None,
                )
                if x_c is not None:
                    reason, x_coll = "exceptional point", complex(x_c)
            break

        s_prev, mu_prev = s_cur, mu_cur
        s_cur, x_cur, mu_cur = s_new, x_new, mu_new
        eigs_cur = check.even_eigs if spot else None
        ep_tried = False
        if iters <= 5:
            easy += 1
            if easy >= 3 and ds < ds_base:
                ds = min(2.0 * ds, ds_base)
                easy = 0
        else:
            easy = 0

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
    )


def _checkpoint_params(
    x_target: complex, checkpoints: Sequence[complex]
) -> tuple[list, list]:
    """Checkpoints ending at x_target and their fractions s = x / x_target.

    A checkpoint's own value, not s * x_target, is the one sampled, so a
    caller gets back exactly the float it asked for.
    """
    xs = [complex(c) for c in checkpoints]
    if not xs or xs[-1] != x_target:
        xs.append(x_target)
    if x_target == 0:
        if len(xs) > 1:
            raise ValueError("checkpoints need a nonzero x_target")
        return xs, [0.0]
    fractions = [c / x_target for c in xs]
    mags = [abs(c) for c in xs]
    if (
        any(abs(f.imag) > 1e-12 or not f.real > 0.0 for f in fractions)
        or any(b <= a for a, b in zip(mags, mags[1:]))
    ):
        raise ValueError(
            "checkpoints must lie on the segment (0, x_target] in order of increasing |x|"
        )
    return xs, [f.real for f in fractions[:-1]] + [1.0]


def branch_value(
    block: CasimirBlock,
    coeffs: LadderCoefficients,
    x: complex,
) -> complex:
    """Branch value at x; raises if the continuation hits a collision."""
    br = track_branch(block, coeffs, x)
    if not br.reached:
        raise BranchCollisionError(
            f"branch lost simplicity near x = {br.x_collision} ({br.reason})"
        )
    return br.final_mu
