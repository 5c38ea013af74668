"""Eigenvalue machinery for complex tridiagonal matrices.

Four pieces: the characteristic polynomial by the scaled three-term
determinant recurrence, a dense eigensolver used strictly as a brute-force
oracle, inverse-iteration eigenvectors, and holomorphic continuation of
the eigenvalue branch that emanates from the unperturbed value 0.

The continuation walks the segment [0, x_target] with a secant predictor
and a Newton corrector on the characteristic polynomial.  A step is
accepted only if the corrected value stays within half of the last known
gap to the rest of the spectrum; otherwise the step is halved.  Steps are
shortened to land exactly on caller-given checkpoints of the segment, so
one continuation serves every parameter on it.  Loss of numerical
simplicity (gap below threshold, step underflow, or Newton stall) flags a
collision and returns the partial branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import BranchCollisionError, EigensolveError
from .ladder import CasimirBlock, LadderCoefficients
from .operator import TridiagonalOperator, assemble_perturbed, tridiag_solve

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
    true determinant is value * 2**exp2.
    """
    lam = complex(lam)
    d = op.diag
    n = op.dim
    p_prev, p = 1.0 + 0j, d[0] - lam
    dp_prev, dp = 0j, -1.0 + 0j
    exp2 = 0
    if n == 1:
        return CharPolyValue(p, dp, 0)
    c = op.sub * op.sup
    for j in range(1, n):
        t = d[j] - lam
        p, p_prev = t * p - c[j - 1] * p_prev, p
        dp, dp_prev = t * dp - p_prev - c[j - 1] * dp_prev, dp
        m = max(abs(p), abs(p_prev), abs(dp), abs(dp_prev))
        if m > _BIG:
            p *= _SMALL
            p_prev *= _SMALL
            dp *= _SMALL
            dp_prev *= _SMALL
            exp2 += 512
        elif 0.0 < m < _SMALL:
            p *= _BIG
            p_prev *= _BIG
            dp *= _BIG
            dp_prev *= _BIG
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
    """All eigenvalues by a dense nonsymmetric solve (brute-force oracle)."""
    if op.dim > MAX_DENSE_DIM:
        raise EigensolveError(f"dense oracle limited to dimension {MAX_DENSE_DIM}")
    return np.linalg.eigvals(op.to_dense())


def collision_threshold(mu: complex) -> float:
    return COLLISION_REL * (1.0 + abs(mu))


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

    ``simple[i]`` is gap_to_rest[i] > collision_threshold(mu_values[i]).
    ``status`` is "complete" when x_target was reached, otherwise
    "collision" with the stopping parameter in ``x_collision`` and the
    trigger in ``reason``.  ``oracle_dev`` is the largest deviation between
    a tracked value and its nearest dense-oracle eigenvalue over all
    spot-checked samples.  ``checkpoint_index`` holds, for each checkpoint
    the continuation landed on (in order, x_target last), the index of its
    sample in ``x_samples``; a checkpoint sample may be the non-simple one
    that stopped the continuation.
    """

    block: CasimirBlock
    x_target: complex
    x_samples: np.ndarray
    mu_values: np.ndarray
    residuals: np.ndarray
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
    well defined.  Gap spot checks against the dense oracle run at every
    sample for dimension <= 512 and every 8th sample otherwise, and at
    every checkpoint.

    ``checkpoints`` are parameters on the segment (0, x_target] in order of
    increasing |x|; x_target is appended when it is not the last one.  The
    continuation shortens the step that would pass a checkpoint so that it
    samples the checkpoint's exact value, and the step size is carried on
    unchanged past it.
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
            residuals=np.array([0.0]),
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
    residuals = [0.0]
    gaps = [gap0]
    simples = [gap0 > collision_threshold(0.0)]

    s_cur = 0.0
    x_cur = 0j
    mu_cur = 0j
    s_prev: Optional[float] = None
    mu_prev = 0j
    last_gap = gap0
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

        op = assemble_perturbed(block, coeffs, x_new)
        mu_new, ok, iters = newton_polish(op, mu_pred)
        trust = 0.5 * last_gap
        if (not ok) or abs(mu_new - mu_pred) > trust:
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
            eigs = eig_dense(op)
            dist = np.abs(eigs - mu_new)
            oracle_dev = max(oracle_dev, float(np.min(dist)))
            gap = gap_to_rest(mu_new, eigs)
            last_gap = gap
        else:
            gap = last_gap
        is_simple = gap > collision_threshold(mu_new)

        if is_simple:
            try:
                res = residual_norm(op, mu_new)
            except EigensolveError:
                is_simple = False
                res = math.nan
        else:
            res = math.nan

        xs.append(x_new)
        mus.append(mu_new)
        residuals.append(res)
        gaps.append(gap)
        simples.append(is_simple)
        if at_checkpoint:
            landed.append(len(xs) - 1)
            nxt += 1

        if not is_simple:
            status, reason = "collision", "gap below collision threshold"
            x_coll = x_new
            break

        s_prev, mu_prev = s_cur, mu_cur
        s_cur, x_cur, mu_cur = s_new, x_new, mu_new
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
        residuals=np.array(residuals),
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
    steps: Optional[int] = None,
) -> complex:
    """Branch value at x; raises if the continuation hits a collision."""
    br = track_branch(block, coeffs, x, steps)
    if not br.reached:
        raise BranchCollisionError(
            f"branch lost simplicity near x = {br.x_collision} ({br.reason})"
        )
    return br.final_mu
