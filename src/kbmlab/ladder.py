"""Ladder algebra of a single Casimir block.

Functions on the sphere bundle of a constant-curvature surface split into
invariant blocks labelled by the Gaussian curvature K and a Casimir value
eta >= 0, with at most one basis vector per vertical Fourier mode k.  The
raising and lowering operators move between neighbouring modes, and only
their coefficient magnitudes are fixed by the algebra:

    |raising from mode k|^2  = c_k = (eta - K*k*(k+1)) / 4
    |lowering from mode k|^2 = (eta + K*k - K*k^2) / 4

For K > 0 the ladder terminates exactly where a coefficient vanishes; for
K <= 0 and eta > 0 it is infinite and any finite matrix is a truncation
choice.  The eta = 0 block is the single trivial mode k = 0 on which all
ladder operators vanish.  The k -> -k parity makes every range symmetric,
so a block (``CasimirBlock``) is (K, eta, k_max) on the modes [-k_max,
k_max].

One rule, relative to the scale s_k of the rung's terms and so valid at
every scale of K and eta, decides where a finite ladder ends
(``_vanishes``); ``ladder_extent`` and ``CasimirBlock`` both apply it.

Gauge convention used throughout: the raising coefficient a_k is real with
a_k >= 0 and the lowering coefficient on the same rung is -a_k.  This is
the unique real gauge compatible with raising* = -lowering; it makes
X = raising + lowering a real skew-symmetric matrix, and it leaves every
assembled spectrum unchanged because phase gauges act by diagonal unitary
conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import LadderRangeError

# Relative tolerance for identities that are exact in exact arithmetic: a
# deviation of at most TOL_ZERO times the scale of the terms involved is
# rounding.
TOL_ZERO = 1e-12

MAX_LADDER_SLOTS = 20001


def ladder_coeff_sq(eta: float, K: float, k: int) -> float:
    """Squared raising coefficient c_k from mode k to mode k+1.

    Total function; a negative return value means mode k+1 is absent from
    the block.  The integer k*(k+1) is formed exactly and is the same for k
    and -k-1, so the rung k -> k+1 and its mirror -k-1 -> -k get bitwise
    equal values.  An integer array of k gives one value per k, each
    bitwise the one that k gives alone.
    """
    return 0.25 * (eta - K * (k * (k + 1)))


def lowering_coeff_sq(eta: float, K: float, k: int) -> float:
    """Squared lowering coefficient from mode k to mode k-1.

    Algebraically equal to ``ladder_coeff_sq(eta, K, k - 1)``.
    """
    return 0.25 * (eta + K * k - K * k * k)


def _rung_scale(eta: float, K: float, k: int) -> float:
    """s_k = (eta + |K|*k*(k+1)) / 4, the size of the terms that c_k sums."""
    return 0.25 * (eta + abs(K) * (k * (k + 1)))


def _vanishes(eta: float, K: float, k: int) -> bool:
    """Whether the rung k -> k+1 vanishes: |c_k| <= ``TOL_ZERO`` * s_k."""
    return abs(ladder_coeff_sq(eta, K, k)) <= TOL_ZERO * _rung_scale(eta, K, k)


def _check_casimir(eta: float, K: float) -> None:
    """LadderRangeError unless K and eta are finite and eta >= 0: a NaN or
    infinite K or eta gives NaN or infinite coefficients."""
    if not (math.isfinite(K) and math.isfinite(eta)):
        raise LadderRangeError(f"curvature and eta must be finite, got K = {K!r}, eta = {eta!r}")
    if not eta >= 0.0:
        raise LadderRangeError(f"eta must be nonnegative, got {eta!r}")


def ladder_extent(eta: float, K: float) -> Optional[int]:
    """Intrinsic k_max of the (eta, K) block, or None for an infinite ladder.

    For K > 0 the rungs c_k fall as k grows, and the ladder ends at the
    first k whose rung vanishes (``_vanishes``) or is negative; on an eta
    that is no level K*l*(l+1) that rung is negative, and the block
    refuses the range.  For K <= 0 and eta > 0 the ladder never
    terminates.  eta = 0 always yields the single mode {0}.  The range is
    symmetric because c_{-k-1} is bitwise c_k, so the lower end mirrors
    the upper one.  A non-finite K or eta raises LadderRangeError.
    """
    _check_casimir(eta, K)
    if eta == 0.0:
        return 0
    if K <= 0.0:
        return None

    # the end solves k^2 + k <= eta/K, so the scan below always terminates
    root = math.sqrt(eta / K)
    if not root < MAX_LADDER_SLOTS - 1:
        raise LadderRangeError(f"ladder extent exceeds {MAX_LADDER_SLOTS} slots")
    return next(k for k in range(int(root) + 3)
                if ladder_coeff_sq(eta, K, k) < 0.0 or _vanishes(eta, K, k))


@dataclass(frozen=True)
class CasimirBlock:
    """One invariant block: curvature K, Casimir value eta and the modes
    [-k_max, k_max].

    The k -> -k parity makes every block's range symmetric, so k_max fixes
    it.  The block is ``finite`` (its range is the ladder's own) when K > 0
    or eta = 0; otherwise the ladder is infinite and k_max is a truncation
    choice.  A finite block must have the intrinsic k_max
    (``ladder_extent``), which ``finite_block`` supplies;
    ``operator.block_at`` builds either kind.  Blocks compare and hash by
    value, (K, eta, k_max), so two built separately are equal.  K and eta
    must be finite, and eta >= 0.

    Only a finite block's top rung is checked (it must vanish): that puts
    eta at K*l*(l+1), l = k_max, and every interior rung at or above
    c_{l-1} = K*l/2 > 0, while an infinite ladder has every c_k >= eta/4.
    """

    curvature: float
    eta: float
    k_max: int

    def __post_init__(self):
        _check_casimir(self.eta, self.curvature)
        if not (isinstance(self.k_max, int) and self.k_max >= 0):
            raise LadderRangeError(f"k_max must be a nonnegative integer, got {self.k_max!r}")
        if self.dim > MAX_LADDER_SLOTS:
            raise LadderRangeError(f"block dimension exceeds {MAX_LADDER_SLOTS}")
        K, eta = self.curvature, self.eta
        if eta == 0.0:
            if self.k_max != 0:
                raise LadderRangeError("eta = 0 block is the single mode {0}")
            return
        if self.finite and not _vanishes(eta, K, self.k_max):
            raise LadderRangeError(
                "finite ladder must terminate exactly where a coefficient vanishes"
            )

    @property
    def finite(self) -> bool:
        """Whether the range is intrinsic rather than a truncation choice."""
        return self.curvature > 0.0 or self.eta == 0.0

    @property
    def dim(self) -> int:
        return 2 * self.k_max + 1

    @property
    def ks(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    @property
    def slot0(self) -> int:
        """Array index of the k = 0 mode."""
        return self.k_max


def finite_block(eta: float, K: float) -> CasimirBlock:
    """Block on the intrinsic mode range; requires K > 0 or eta = 0."""
    k_max = ladder_extent(eta, K)
    if k_max is None:
        raise LadderRangeError("block is infinite; choose a truncation instead")
    return CasimirBlock(curvature=K, eta=eta, k_max=k_max)


@dataclass(frozen=True, eq=False)
class LadderCoefficients:
    """Raising coefficients a_k >= 0 of one block in the fixed real gauge.

    ``a[j]`` couples array slot j (mode j - k_max) to slot j + 1.
    """

    block: CasimirBlock
    a: np.ndarray

    def __post_init__(self):
        block = self.block
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if a.shape != (block.dim - 1,):
            raise LadderRangeError("coefficient array length must be dim - 1")
        if np.any(a < 0.0):
            raise LadderRangeError("gauge requires a_k >= 0")
        eta, K = block.eta, block.curvature
        # the identities are exact in exact arithmetic; allow the rounding
        # of the rung's scale, or of the next rung's, whose terms the
        # lowering formula from mode k+1 sums when k >= 0
        ks = block.ks[:-1]
        up = ladder_coeff_sq(eta, K, ks)
        down = lowering_coeff_sq(eta, K, ks + 1)
        tol = TOL_ZERO * np.maximum(_rung_scale(eta, K, ks), _rung_scale(eta, K, ks + 1))
        sq = a * a
        bad_up = np.abs(sq - up) > tol
        bad = np.flatnonzero(bad_up | (np.abs(sq - down) > tol))
        if bad.size:
            j = bad[0]
            which = "raising" if bad_up[j] else "lowering"
            raise LadderRangeError(f"a_{ks[j]}^2 violates the {which} norm identity")

    def check_block(self, block: CasimirBlock) -> None:
        """ValueError unless these are the coefficients of ``block``."""
        if self.block != block:
            raise ValueError(f"coefficients of {self.block} paired with {block}")


def ladder_coefficients(block: CasimirBlock) -> LadderCoefficients:
    """Compute the gauge-fixed coefficients a_k = sqrt(c_k) of a block;
    every rung inside a block is positive (``CasimirBlock``), and the rung
    k -> k+1 and its mirror -k-1 -> -k get bitwise equal coefficients."""
    ks = block.ks[:-1]
    a = np.sqrt(ladder_coeff_sq(block.eta, block.curvature, ks))
    return LadderCoefficients(block=block, a=a)


def raising_matrix(coeffs: LadderCoefficients) -> np.ndarray:
    """Dense matrix of the raising operator: entry [j+1, j] = a_j."""
    n = coeffs.block.dim
    m = np.zeros((n, n))
    if n > 1:
        m[np.arange(1, n), np.arange(n - 1)] = coeffs.a
    return m


def lowering_matrix(coeffs: LadderCoefficients) -> np.ndarray:
    """Dense matrix of the lowering operator: entry [j, j+1] = -a_j."""
    n = coeffs.block.dim
    m = np.zeros((n, n))
    if n > 1:
        m[np.arange(n - 1), np.arange(1, n)] = -coeffs.a
    return m


def coupling_matrix(coeffs: LadderCoefficients) -> np.ndarray:
    """Geodesic coupling X = raising + lowering; real skew-symmetric."""
    return raising_matrix(coeffs) + lowering_matrix(coeffs)


def vertical_matrix(block: CasimirBlock) -> np.ndarray:
    """Vertical rotation generator V = diag(i*k)."""
    return np.diag(1j * block.ks.astype(float))


def casimir_residual(coeffs: LadderCoefficients) -> float:
    """Max-norm defect of the Casimir identity on interior rows.

    Assembles -4*X_+*X_- + i*K*V - K*V^2 - eta*I on the block and takes the
    maximum absolute entry over rows whose product stencil does not touch a
    truncation boundary.  On intrinsically finite ladders every row is
    interior; on truncations the first and last rows are excluded.
    """
    block = coeffs.block
    K, eta = block.curvature, block.eta
    xp = raising_matrix(coeffs)
    xm = lowering_matrix(coeffs)
    v = vertical_matrix(block)
    m = -4.0 * (xp @ xm) + 1j * K * v - K * (v @ v) - eta * np.eye(block.dim)
    if block.finite:
        rows = m
    else:
        if block.dim <= 2:
            return 0.0
        rows = m[1:-1]
    return float(np.max(np.abs(rows)))
