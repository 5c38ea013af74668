"""Tridiagonal restrictions of the perturbed fiber Laplacian and of the
kinetic Brownian motion generator on one Casimir block, together with the
truncation policy for infinite ladders, the split of the perturbed family
into its two parity sectors, an O(n) floor of the numerical range, and
the shifted tridiagonal solve.  Everything here runs on NumPy
alone, so importing the package loads no SciPy.

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

from .errors import EigensolveError, TruncationError
from .ladder import CasimirBlock, LadderCoefficients


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Complex tridiagonal matrix in the ladder basis.

    ``sub[j]`` is the entry [j+1, j] (raising direction), ``sup[j]`` the
    entry [j, j+1].  ``meta`` records provenance (eta, curvature, x or
    gamma, truncation).
    """

    diag: np.ndarray
    sup: np.ndarray
    sub: np.ndarray
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
    return TridiagonalOperator(diag=diag, sup=sup, sub=sub, meta=meta)


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
    return TridiagonalOperator(diag=diag, sup=sup, sub=sub, meta=meta)


def parity_sectors(
    block: CasimirBlock, coeffs: LadderCoefficients, x: complex
) -> tuple[TridiagonalOperator, Optional[TridiagonalOperator]]:
    """The perturbed family split by the parity J e_k = (-1)^k e_{-k}.

    J commutes with diag(k^2) and with X because a_{-k-1} = a_k, so in the
    orthonormal basis e_0, (e_m + (-1)^m e_{-m})/sqrt(2) (J = +1, m =
    1..k_max) and (e_m - (-1)^m e_{-m})/sqrt(2) (J = -1) the family is
    block diagonal with two tridiagonal sectors.  Both have diagonal m^2,
    sub[m] = x*a_m and sup = -sub on the rungs m -> m+1; in the even
    sector rung 0 carries a factor sqrt(2).  The even sector (dimension
    k_max + 1) holds the branch through 0; the odd one (dimension k_max)
    is None on the single-mode block.
    """
    even = even_sector(block, coeffs, x)
    m = block.k_max
    if m == 0:
        return even, None
    sub = complex(x) * coeffs.a[m + 1 :]
    meta = {**even.meta, "parity": -1}
    odd = TridiagonalOperator(diag=even.diag[1:], sup=-sub, sub=sub, meta=meta)
    return even, odd


def even_sector(
    block: CasimirBlock, coeffs: LadderCoefficients, x: complex
) -> TridiagonalOperator:
    """The J = +1 sector of ``parity_sectors``: diagonal m^2 (m = 0..k_max),
    sub[m] = x*a_m and sup = -sub, with rung 0 carrying a factor sqrt(2)."""
    if coeffs.a.shape != (block.dim - 1,):
        raise ValueError("block and coefficients are inconsistent")
    m = block.k_max
    x = complex(x)
    ms = np.arange(m + 1, dtype=complex)
    sub = x * coeffs.a[m:]
    sub[:1] *= math.sqrt(2.0)
    meta = {"eta": block.eta, "curvature": block.curvature, "kind": "perturbed", "x": x}
    return TridiagonalOperator(
        diag=ms * ms, sup=-sub, sub=sub, meta={**meta, "parity": 1}
    )


@dataclass(frozen=True)
class TruncationPolicy:
    """How ``spectra.gamma_sweep`` picks the mode cutoff of an infinite
    ladder.

    ``fixed`` uses k_max as given.  ``adaptive`` doubles the cutoff from
    k = 8 until lambda moves by less than ``tol`` on every row of the sweep
    when the cutoff is doubled once more.  Either way the sweep reports the
    shift under doubling as each row's certificate.
    """

    kind: str = "adaptive"
    k_max: Optional[int] = None
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in ("fixed", "adaptive"):
            raise TruncationError(f"unknown truncation kind {self.kind!r}")
        if self.kind == "fixed" and (self.k_max is None or self.k_max < 1):
            raise TruncationError("fixed truncation needs k_max >= 1")
        if self.kind == "adaptive" and not self.tol > 0.0:
            raise TruncationError("adaptive truncation needs tol > 0")


def fixed_truncation(k_max: int) -> TruncationPolicy:
    return TruncationPolicy(kind="fixed", k_max=int(k_max))


def adaptive_truncation(tol: float = 1e-10) -> TruncationPolicy:
    return TruncationPolicy(kind="adaptive", tol=tol)


def truncate(eta: float, K: float, policy: TruncationPolicy) -> CasimirBlock:
    """Symmetric truncation [-k_max, k_max] of an infinite ladder at a
    fixed policy's cutoff.

    Rejects K > 0 (those ladders terminate on their own), eta = 0 (a single
    mode) and adaptive policies, whose cutoff only a sweep can certify
    (``spectra.gamma_sweep``).
    """
    if K > 0.0:
        raise TruncationError("K > 0 ladders are intrinsically finite; no truncation")
    if not eta > 0.0:
        raise TruncationError("eta = 0 block is a single mode; nothing to truncate")
    if policy.kind != "fixed":
        raise TruncationError(
            "an adaptive cutoff is certified by gamma_sweep; truncate needs a fixed policy"
        )
    k = int(policy.k_max)
    return CasimirBlock(curvature=K, eta=eta, k_min=-k, k_max=k, finite=False)


def numerical_range_floor(op: TridiagonalOperator) -> float:
    """A lower bound on min Re<op v, v> over unit vectors, in O(dim):
    Gershgorin's bound min_j (Re d_j - |h_{j-1}| - |h_j|) on the Hermitian
    part (op + op^*)/2, whose off-diagonal is h = (sub + conj(sup))/2.

    Every eigenvalue of op lies in its numerical range, so its real part
    is at least this floor (Horn & Johnson, *Topics in Matrix Analysis*,
    1.2).  For a family member diag(m^2) + x*X, h = i*Im(x)*X: at real x
    the floor is min Re d exactly, and so it is for every generator
    restriction, whose Hermitian part is diag((gamma^2/2) k^2).
    """
    row = op.diag.real.copy()
    if op.dim > 1:
        h = np.abs(0.5 * (op.sub + np.conj(op.sup)))
        row[:-1] -= h
        row[1:] -= h
    return float(np.min(row))


def tridiag_solve(op: TridiagonalOperator, shift: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (op - shift*I) x = rhs for one or several right-hand sides.

    LAPACK's ``?gtsv`` algorithm on Python complex scalars: Gaussian
    elimination with partial pivoting (pivot by |Re| + |Im|), where each
    row interchange fills one entry of a second superdiagonal, then back
    substitution.  A 2-d ``rhs`` runs through the same loop with its rows
    as NumPy vectors and is not modified.  An exactly zero pivot (an
    exactly singular matrix) raises EigensolveError.
    """
    shift = complex(shift)
    d = [z - shift for z in op.diag.tolist()]
    du = op.sup.tolist()
    dl = op.sub.tolist()
    dl_size = (np.abs(op.sub.real) + np.abs(op.sub.imag)).tolist()  # pivot size |Re| + |Im|
    rhs = np.asarray(rhs, dtype=complex)
    b = rhs.tolist() if rhs.ndim == 1 else list(rhs)
    n = len(d)
    du2 = [0j] * n
    for k in range(n - 1):
        dk = d[k]
        if not dl_size[k]:
            if not dk:
                raise EigensolveError(f"shifted tridiagonal solve: zero pivot in row {k}")
        elif abs(dk.real) + abs(dk.imag) >= dl_size[k]:
            mult = dl[k] / dk
            d[k + 1] -= mult * du[k]
            b[k + 1] = b[k + 1] - mult * b[k]  # not in place: rows may be views of rhs
        else:  # interchange rows k and k+1
            lk = dl[k]
            mult = dk / lk
            d[k], d[k + 1], du[k] = lk, du[k] - mult * d[k + 1], d[k + 1]
            if k < n - 2:
                du2[k] = du[k + 1]
                du[k + 1] = -mult * du2[k]
            b[k], b[k + 1] = b[k + 1], b[k] - mult * b[k + 1]
    if not d[n - 1]:
        raise EigensolveError(f"shifted tridiagonal solve: zero pivot in row {n - 1}")
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for k in range(n - 3, -1, -1):
        b[k] = (b[k] - du[k] * b[k + 1] - du2[k] * b[k + 2]) / d[k]
    return np.array(b, dtype=complex)
