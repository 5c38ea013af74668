"""Tridiagonal restrictions of the perturbed fiber Laplacian and of the
kinetic Brownian motion generator on one Casimir block, together with the
truncation policy for infinite ladders, the numerical-range minimum and
the shifted tridiagonal solve.

In the fixed gauge the perturbed family reads diag(k^2) + x*X with X real
skew-symmetric, and the rescaled generator is (gamma^2/2)*diag(k^2) -
gamma*X, which coincides entrywise with (gamma^2/2) times the family at
x = -2/gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import EigensolveError, TruncationError
from .ladder import CasimirBlock, LadderCoefficients, ladder_coefficients


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Complex tridiagonal matrix in the ladder basis.

    ``sub[j]`` is the entry [j+1, j] (raising direction), ``sup[j]`` the
    entry [j, j+1].  ``k_offset`` maps array slot 0 to its ladder mode.
    ``meta`` records provenance (eta, curvature, x or gamma, truncation).
    """

    diag: np.ndarray
    sup: np.ndarray
    sub: np.ndarray
    k_offset: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=complex)
        sup = np.asarray(self.sup, dtype=complex)
        sub = np.asarray(self.sub, dtype=complex)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a nonempty 1-d array")
        if sup.shape != (diag.size - 1,) or sub.shape != (diag.size - 1,):
            raise ValueError("off-diagonals must have length dim - 1")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "sub", sub)

    @property
    def dim(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        n = self.dim
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(n), np.arange(n)] = self.diag
        if n > 1:
            m[np.arange(n - 1), np.arange(1, n)] = self.sup
            m[np.arange(1, n), np.arange(n - 1)] = self.sub
        return m

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        out = self.diag * v
        if self.dim > 1:
            out[1:] += self.sub * v[:-1]
            out[:-1] += self.sup * v[1:]
        return out

    def inf_norm(self) -> float:
        n = self.dim
        row = np.abs(self.diag).astype(float)
        if n > 1:
            row[:-1] += np.abs(self.sup)
            row[1:] += np.abs(self.sub)
        return float(np.max(row))


def assemble_perturbed(
    block: CasimirBlock, coeffs: LadderCoefficients, x: complex
) -> TridiagonalOperator:
    """Fiber Laplacian diag(k^2) plus x times the geodesic coupling.

    ``x`` may be complex; the physically relevant substitution is the real
    value x = -2/gamma, but holomorphy diagnostics need complex parameters.
    """
    if coeffs.a.shape != (block.dim - 1,):
        raise ValueError("block and coefficients are inconsistent")
    ks = block.ks.astype(float)
    diag = (ks * ks).astype(complex)
    sub = complex(x) * coeffs.a
    sup = -complex(x) * coeffs.a
    meta = {
        "eta": block.eta,
        "curvature": block.curvature,
        "kind": "perturbed",
        "x": complex(x),
        "k_min": block.k_min,
        "k_max": block.k_max,
        "finite": block.finite,
    }
    return TridiagonalOperator(diag=diag, sup=sup, sub=sub, k_offset=block.k_min, meta=meta)


def assemble_generator(
    block: CasimirBlock, coeffs: LadderCoefficients, gamma: float
) -> TridiagonalOperator:
    """Rescaled kinetic-Brownian generator (gamma^2/2)*diag(k^2) - gamma*X."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    ks = block.ks.astype(float)
    diag = (0.5 * gamma * gamma * ks * ks).astype(complex)
    sub = (-gamma) * coeffs.a + 0j
    sup = gamma * coeffs.a + 0j
    meta = {
        "eta": block.eta,
        "curvature": block.curvature,
        "kind": "generator",
        "gamma": float(gamma),
        "k_min": block.k_min,
        "k_max": block.k_max,
        "finite": block.finite,
    }
    return TridiagonalOperator(diag=diag, sup=sup, sub=sub, k_offset=block.k_min, meta=meta)


@dataclass(frozen=True)
class TruncationPolicy:
    """How to pick the mode cutoff for an infinite ladder.

    ``fixed`` uses k_max as given.  ``adaptive`` starts from
    max(32, ceil(8*(1+sqrt(eta)))) and doubles until the tracked branch at
    ``x_ref`` moves by less than ``tol``; the certified cutoff is the first
    one in that doubling sequence.
    """

    kind: str = "adaptive"
    k_max: Optional[int] = None
    tol: float = 1e-10
    x_ref: Optional[complex] = None

    def __post_init__(self):
        if self.kind not in ("fixed", "adaptive"):
            raise TruncationError(f"unknown truncation kind {self.kind!r}")
        if self.kind == "fixed" and (self.k_max is None or self.k_max < 1):
            raise TruncationError("fixed truncation needs k_max >= 1")
        if self.kind == "adaptive" and not self.tol > 0.0:
            raise TruncationError("adaptive truncation needs tol > 0")


def fixed_truncation(k_max: int) -> TruncationPolicy:
    return TruncationPolicy(kind="fixed", k_max=int(k_max))


def adaptive_truncation(tol: float = 1e-10, x_ref: Optional[complex] = None) -> TruncationPolicy:
    return TruncationPolicy(kind="adaptive", tol=tol, x_ref=x_ref)


def default_cutoff(eta: float) -> int:
    """Starting cutoff: the branch near 0 localizes on low |k| because the
    diagonal grows like k^2 while couplings grow at most linearly."""
    return max(32, int(math.ceil(8.0 * (1.0 + math.sqrt(max(eta, 0.0))))))


def truncate(eta: float, K: float, policy: TruncationPolicy) -> CasimirBlock:
    """Symmetric truncation [-k_max, k_max] of an infinite ladder.

    Rejects K > 0 (those ladders terminate on their own).  The adaptive
    policy returns the first cutoff in the doubling sequence whose branch
    value at ``policy.x_ref`` is stable to ``policy.tol`` under doubling; it
    raises TruncationError once the doubled block [-2k, 2k] would exceed
    the dense limit.
    """
    if K > 0.0:
        raise TruncationError("K > 0 ladders are intrinsically finite; no truncation")
    if not eta > 0.0:
        raise TruncationError("eta = 0 block is a single mode; nothing to truncate")
    if policy.kind == "fixed":
        k = int(policy.k_max)
        return CasimirBlock(curvature=K, eta=eta, k_min=-k, k_max=k, finite=False)

    from . import eig  # deferred: eig depends on this module

    if policy.x_ref is not None:
        x_ref = policy.x_ref
    else:
        # stay inside the separation regime, which shrinks like 1/sqrt(eta)
        x_ref = -min(0.2, 0.5 / (1.0 + math.sqrt(eta)))

    def branch_at(k: int) -> complex:
        blk = CasimirBlock(curvature=K, eta=eta, k_min=-k, k_max=k, finite=False)
        br = eig.track_branch(blk, ladder_coefficients(blk), x_ref)
        if br.status != "complete":
            raise TruncationError(f"branch tracking failed at cutoff {k} ({br.status})")
        return br.mu_values[-1]

    k, mu_k = default_cutoff(eta), None
    while 4 * k + 1 <= eig.MAX_DENSE_DIM:
        if mu_k is None:
            mu_k = branch_at(k)
        mu_2k = branch_at(2 * k)
        if abs(mu_2k - mu_k) < policy.tol:
            return CasimirBlock(curvature=K, eta=eta, k_min=-k, k_max=k, finite=False)
        k, mu_k = 2 * k, mu_2k
    raise TruncationError(
        f"doubling study did not certify a cutoff k_max <= {(eig.MAX_DENSE_DIM - 1) // 4} "
        f"(the doubled block must fit the dense limit {eig.MAX_DENSE_DIM})"
    )


def accretivity_minimum(op: TridiagonalOperator) -> float:
    """Minimum of Re<op v, v> over complex unit vectors.

    That is the smallest eigenvalue of the Hermitian part (op + op^*)/2,
    a Hermitian tridiagonal matrix with diagonal Re(diag) and off-diagonal
    (sub + conj(sup))/2; a diagonal phase change makes the off-diagonal
    real and nonnegative.  For generator restrictions the skew coupling
    drops out, so the value is min (gamma^2/2) k^2 = 0 exactly.
    """
    off = np.abs(0.5 * (op.sub + np.conj(op.sup)))
    lam = scipy.linalg.eigvalsh_tridiagonal(op.diag.real, off, select="i", select_range=(0, 0))
    return float(lam[0])


def tridiag_solve(op: TridiagonalOperator, shift: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (op - shift*I) x = rhs for one or several right-hand sides.

    One banded LAPACK solve (``?gtsv``: Gaussian elimination with partial
    pivoting); an exactly singular matrix raises EigensolveError.
    """
    ab = np.zeros((3, op.dim), dtype=complex)
    ab[0, 1:] = op.sup
    ab[1] = op.diag - shift
    ab[2, :-1] = op.sub
    try:
        return scipy.linalg.solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # exactly singular
        raise EigensolveError(f"shifted tridiagonal solve failed: {exc}") from exc
