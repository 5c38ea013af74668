"""Tridiagonal restrictions of the perturbed fiber Laplacian and of the
kinetic Brownian motion generator on one Casimir block, together with the
truncation policy for infinite ladders and the one constructor of a block
at a cutoff (``block_at``), the two parity sectors of the perturbed
family, the Kato radius of the family on a contour (``kato_radius``,
shared by ``perturb.perturbation_radius`` and ``eig.track_branch``), an
O(n) floor of the numerical range, and the shifted solve of one operator
at many shifts (``tridiag_solve``), one stacked ``numpy.linalg.solve`` of
the densified matrices.  Everything here runs on NumPy alone, so
importing the package loads no SciPy.

``EvenSector``, formed once per block, is the only code that knows the
even sector's layout; every reader of the sector takes one of its views,
and the odd sector is a slice of the even one (``odd_sector``).

In the fixed gauge the perturbed family reads diag(k^2) + x*X with X real
skew-symmetric, and the rescaled generator is (gamma^2/2)*diag(k^2) -
gamma*X, which coincides entrywise with (gamma^2/2) times the family at
x = -2/gamma; each is stored as its real diagonal and one skew coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EigensolveError, TruncationError
from .ladder import CasimirBlock, LadderCoefficients, finite_block

# The most matrix entries a batched kernel materialises at once: a stacked
# dense eigensolve (``eig.eig_dense``) and a stack of resolvents
# (``perturb.riesz_projection``, through ``tridiag_solve``) each densify
# and solve at most this many entries per chunk of its batch, one matrix
# when a single one is larger.  2**16 complex entries are 1 MiB.
STACK_BUDGET = 2**16


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Tridiagonal matrix in the ladder basis, or a stack of them, with a
    real ``diag`` (a complex one raises ValueError) and a skew coupling:
    ``coupling[..., j]`` is the entry [j+1, j] (raising direction) and
    ``-coupling[..., j]`` the entry [j, j+1].  The coupling is complex only
    at complex x, as in the holomorphy checks.  A 2-d ``diag`` of shape (B,
    n), with a coupling of shape (B, n - 1), is a stack of B matrices of
    one dimension; ``to_dense``, ``matvec`` and ``inf_norm`` then act on
    every matrix of the stack.
    """

    diag: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.diag):
            raise ValueError("the diagonal must be real")
        diag = np.asarray(self.diag, dtype=float)
        coupling = np.asarray(self.coupling, complex if np.iscomplexobj(self.coupling) else float)
        if diag.ndim not in (1, 2) or diag.shape[-1] < 1:
            raise ValueError("diag must be a nonempty 1-d array or a 2-d stack of them")
        if coupling.shape != diag.shape[:-1] + (diag.shape[-1] - 1,):
            raise ValueError("the coupling must have length dim - 1")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "coupling", coupling)

    @property
    def dim(self) -> int:
        return self.diag.shape[-1]

    def to_dense(self) -> np.ndarray:
        n = self.dim
        i = np.arange(n)
        m = np.zeros(self.diag.shape + (n,), dtype=self.coupling.dtype)
        m[..., i, i] = self.diag
        if n > 1:
            m[..., i[1:], i[:-1]] = self.coupling
            m[..., i[:-1], i[1:]] = -self.coupling
        return m

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        out = self.diag * v
        if self.dim > 1:
            out[..., 1:] += self.coupling * v[..., :-1]
            out[..., :-1] += (-self.coupling) * v[..., 1:]
        return out

    def inf_norm(self):
        """Largest absolute row sum: a float, or one per matrix of a stack."""
        row = np.abs(self.diag)
        if self.dim > 1:
            row[..., :-1] += np.abs(self.coupling)
            row[..., 1:] += np.abs(self.coupling)
        norm = np.max(row, axis=-1)
        return float(norm) if norm.ndim == 0 else norm


def assemble_perturbed(
    block: CasimirBlock, coeffs: LadderCoefficients, x: complex
) -> TridiagonalOperator:
    """Fiber Laplacian diag(k^2) plus x times the geodesic coupling.

    ``x`` may be complex.  The physically relevant substitution is the
    real value x = -2/gamma, the only one the branch continuation takes;
    a complex x serves the holomorphy checks, which run ``newton_polish``
    on the sector assembled there.  Coefficients of a block other than
    ``block`` raise ValueError.
    """
    coeffs.check_block(block)
    ks = block.ks.astype(float)
    return TridiagonalOperator(ks * ks, x * coeffs.a)


def assemble_generator(coeffs: LadderCoefficients, gamma: float) -> TridiagonalOperator:
    """Rescaled kinetic-Brownian generator (gamma^2/2)*diag(k^2) - gamma*X
    on the block of ``coeffs``."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    ks = coeffs.block.ks.astype(float)
    return TridiagonalOperator(0.5 * gamma * gamma * ks * ks, (-gamma) * coeffs.a)


def _rung0(s, squared: bool = False):
    """Rung 0 of ``s`` (a list, or arrays' last axis) times sqrt(2), or 2 if ``squared``."""
    f = 2.0 if squared else math.sqrt(2.0)
    if isinstance(s, np.ndarray):
        s[..., :1] *= f
    elif s:
        s[0] *= f
    return s


@dataclass(frozen=True, eq=False)
class EvenSector:
    """The J = +1 parity sector of the perturbed family on one block.

    The parity J e_k = (-1)^k e_{-k} commutes with diag(k^2) and with X
    because a_{-k-1} = a_k, so in the orthonormal basis e_0, (e_m +
    (-1)^m e_{-m})/sqrt(2) (J = +1, m = 1..k_max) and (e_m - (-1)^m
    e_{-m})/sqrt(2) (J = -1) the family is block diagonal with two
    tridiagonal sectors.  Both have diagonal m^2 and the coupling x*a_m on
    the rungs m -> m+1.  This one, of dimension k_max + 1, starts
    at m = 0 and holds the branch through 0; its rung 0 carries a factor
    sqrt(2).  ``odd_sector`` derives the other from it.

    ``diag`` holds m^2 and ``rungs`` the a_m before that factor, as Python
    floats.  Each view keeps one order of IEEE operations for every reader,
    so all see the same bits.  ``of`` takes the coefficients alone.
    """

    block: CasimirBlock
    diag: list
    rungs: list

    @classmethod
    def of(cls, coeffs: LadderCoefficients) -> "EvenSector":
        k = coeffs.block.k_max
        return cls(coeffs.block, [float(m * m) for m in range(k + 1)], coeffs.a[k:].tolist())

    def coupling(self, x) -> np.ndarray:
        """The rungs x*a_m (rung 0 times sqrt(2)), one row per x of shape (B, 1)."""
        return _rung0(x * np.array(self.rungs))

    def at(self, x) -> TridiagonalOperator:
        """The sector at x, real or complex (its coupling has the type of x);
        a 1-d array of x gives the stack of those sectors, each bitwise
        equal to the sector at its x alone."""
        x = np.asarray(x)
        return TridiagonalOperator(np.tile(self.diag, x.shape + (1,)), self.coupling(x[..., None]))

    def lists(self, x: float) -> tuple[list, list]:
        """``newton_polish``'s (diagonal, rung products -s_j^2) at real x,
        s_j = x*a_j (rung 0 times sqrt(2)): bitwise ``at(x)``'s diagonal and -c^2."""
        s = _rung0([x * a for a in self.rungs])
        return self.diag, [-(v * v) for v in s]

    def squared_rungs(self) -> list:
        """a_j^2, doubled on rung 0: ``eig._even_recurrence``'s t = x^2 terms."""
        return _rung0([v * v for v in self.rungs], squared=True)


def kato_radius(sector: EvenSector, zeta: np.ndarray) -> float:
    """min over the points ``zeta`` (a 1-d complex array) of 1 / ||X
    (diag(k^2) - zeta)^-1||, or infinity where every norm is 0.

    The parity sectors are orthogonal and invariant under both X and
    diag(k^2), and the odd one is the even one without its zero mode, so
    the norm is the even sector's.  With the rungs a = ``sector.coupling(1.0)``
    (rung 0 carries its sqrt(2)) and diagonal m^2, the resolvent
    diag(1/(m^2 - zeta)) is diag(w) times a diagonal unitary, w_m = 1/|m^2
    - zeta|, so the norm is that of the real B = X_e diag(w).  B^T B couples index j only to j +- 2: it is two
    symmetric tridiagonal blocks, one per index parity, with diagonal w_j^2
    (a_{j-1}^2 + a_j^2) and off-diagonal -a_j a_{j+1} w_j w_{j+2}.  The
    squared norm is the largest eigenvalue of those blocks, from one
    batched ``eigvalsh`` call over the points per index parity.
    """
    a = np.concatenate(([0.0], sector.coupling(1.0), [0.0]))  # a_{j-1}, j = 0..k_max+1
    w = 1.0 / np.abs(np.array(sector.diag) - zeta[:, None])
    diag = w * w * (a[:-1] ** 2 + a[1:] ** 2)
    off = -(a[1:-2] * a[2:-1]) * w[:, :-2] * w[:, 2:]
    sigma_sq = np.zeros(zeta.size)
    for start in (0, 1):
        d = diag[:, start::2]
        gram = np.zeros((zeta.size, d.shape[1], d.shape[1]))
        idx = np.arange(d.shape[1])
        gram[:, idx, idx] = d
        gram[:, idx[:-1], idx[1:]] = gram[:, idx[1:], idx[:-1]] = off[:, start::2]
        sigma_sq = np.maximum(sigma_sq, np.linalg.eigvalsh(gram)[:, -1])
    # the largest norm gives the smallest radius; a zero norm bounds nothing
    peak = float(np.max(sigma_sq))
    return 1.0 / math.sqrt(peak) if peak > 0.0 else math.inf


def odd_sector(even: TridiagonalOperator) -> Optional[TridiagonalOperator]:
    """The J = -1 sector at the x of ``even`` (one ``EvenSector.at`` or a
    stack of them), or None on the single-mode block.

    In the basis of ``EvenSector`` the odd sector (dimension k_max) has
    diagonal m^2 (m = 1..k_max) and the coupling x*a_m on m -> m+1: the
    even sector without its zero mode, row and column m = 0, which holds
    the only factor sqrt(2).  Its arrays are views of ``even``'s, so every
    entry is bitwise the one the sector assembled at that x has.
    """
    if even.dim == 1:
        return None
    return TridiagonalOperator(even.diag[..., 1:], even.coupling[..., 1:])


@dataclass(frozen=True)
class TruncationPolicy:
    """How ``spectra.gamma_sweep`` picks the mode cutoff of an infinite
    ladder.

    A ``k_max`` fixes the cutoff.  Without one the cutoff is adaptive: the
    sweep doubles it from k = 8 until lambda moves by less than ``tol`` on
    every row of the sweep when the cutoff is doubled once more.  Either
    way the sweep reports the shift under doubling as each row's
    certificate.
    """

    k_max: Optional[int] = None
    tol: float = 1e-10

    def __post_init__(self):
        if self.k_max is not None and self.k_max < 1:
            raise TruncationError(f"fixed truncation needs k_max >= 1, got {self.k_max!r}")
        if self.k_max is None and not self.tol > 0.0:
            raise TruncationError(f"adaptive truncation needs tol > 0, got {self.tol!r}")


def fixed_truncation(k_max: int) -> TruncationPolicy:
    return TruncationPolicy(k_max=int(k_max))


def truncate(eta: float, K: float, policy: TruncationPolicy) -> CasimirBlock:
    """Symmetric truncation [-k_max, k_max] of an infinite ladder at a
    fixed policy's cutoff.

    Rejects K > 0 (those ladders terminate on their own), eta = 0 (a single
    mode) and a policy without a cutoff, which only a sweep can certify
    (``spectra.gamma_sweep``); the block rejects a negative eta and a
    non-finite K or eta (LadderRangeError).
    """
    if K > 0.0:
        raise TruncationError("K > 0 ladders are intrinsically finite; no truncation")
    if eta == 0.0:
        raise TruncationError("eta = 0 block is a single mode; nothing to truncate")
    if policy.k_max is None:
        raise TruncationError(
            "an adaptive cutoff is certified by gamma_sweep; truncate needs a fixed policy"
        )
    return CasimirBlock(curvature=K, eta=eta, k_max=int(policy.k_max))


def block_at(eta: float, K: float, k_max: int) -> CasimirBlock:
    """The (eta, K) block at cutoff ``k_max``: the intrinsic block
    (``finite_block``) when K > 0 or eta = 0, which reads no cutoff, else
    the truncation [-k_max, k_max] of the infinite ladder (``truncate``)."""
    if K > 0.0 or eta == 0.0:
        return finite_block(eta, K)
    return truncate(eta, K, fixed_truncation(k_max))


def batch_slices(batch: int, entries: int) -> list:
    """Consecutive slices that cover a batch of ``batch`` items of
    ``entries`` entries each, every slice holding at most ``STACK_BUDGET``
    entries (one item when a single one holds more)."""
    step = max(1, STACK_BUDGET // max(entries, 1))
    return [slice(i, min(i + step, batch)) for i in range(0, batch, step)]


def numerical_range_floor(op: TridiagonalOperator):
    """A lower bound on min Re<op v, v> over unit vectors, in O(dim):
    Gershgorin's bound min_j (d_j - |h_{j-1}| - |h_j|) on the Hermitian
    part (op + op^*)/2, whose off-diagonal is h = (c - conj(c))/2 = i*Im c
    for the coupling c.

    Every eigenvalue of op lies in its numerical range, so its real part
    is at least this floor (Horn & Johnson, *Topics in Matrix Analysis*,
    1.2).  At real x, and for every generator restriction, the coupling is
    real, and the floor is min d exactly.

    A float, or one per matrix of a stack, each bitwise its matrix's own.
    """
    row = op.diag.copy()
    if op.dim > 1:
        h = np.abs(op.coupling.imag)
        row[..., :-1] -= h
        row[..., 1:] -= h
    floor = np.min(row, axis=-1)
    return float(floor) if floor.ndim == 0 else floor


def tridiag_solve(op: TridiagonalOperator, shift, rhs: np.ndarray) -> np.ndarray:
    """Solve (op - shift*I) x = rhs for one or several right-hand sides.

    ``rhs`` is (n,) or (n, m) and is not modified.  The shifted matrix is
    densified and solved by LAPACK's ``?gesv`` (``numpy.linalg.solve``, LU
    with partial pivoting).  A 1-d array of S shifts solves the stack of
    every shifted matrix in one call and returns (S,) + rhs.shape, each
    solution bitwise equal to the one its shift gives alone.  An exactly
    singular matrix (an exactly zero pivot) raises EigensolveError.
    """
    shift = np.asarray(shift, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    n = op.dim
    a = np.broadcast_to(op.to_dense(), shift.shape + (n, n)).astype(complex)
    a[..., range(n), range(n)] -= shift[..., None]
    b = rhs.reshape(n, -1)
    try:
        x = np.linalg.solve(a, np.broadcast_to(b, a.shape[:-1] + b.shape[-1:]))
    except np.linalg.LinAlgError:
        raise EigensolveError(
            f"shifted tridiagonal solve: exactly singular (shift {shift!r})"
        ) from None
    return x.reshape(shift.shape + rhs.shape)
