"""Tridiagonal restrictions of the perturbed fiber Laplacian and of the
kinetic Brownian motion generator on one Casimir block, together with the
truncation policy for infinite ladders and the one constructor of a block
at a cutoff (``block_at``), the two parity sectors of the perturbed
family, the Kato radius of the family on a contour (``kato_radius``,
shared by ``perturb.perturbation_radius`` and ``eig.track_branch``), an
O(n) floor of the numerical range, and the tridiagonal solver: LAPACK's
``?gtsv`` elimination run over a batch of systems at once (``gtsv``),
which serves one operator at many shifts (``tridiag_solve``) and a stack
of operators (``eig.inverse_iteration``).  Everything here runs on NumPy
alone, so importing the package loads no SciPy.

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
# dense eigensolve (``eig.eig_dense``) densifies, and a batched resolvent
# (``perturb.riesz_projection``) solves, at most this many entries per
# chunk of its batch, one matrix when a single one is larger.  2**16
# complex entries are 1 MiB.
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


def gtsv(
    dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve B tridiagonal systems at once by LAPACK's ``?gtsv`` algorithm.

    ``d`` (B, n) holds the diagonals, ``dl`` and ``du`` (B, n - 1) the sub-
    and superdiagonals; ``b`` is (B, n), or (B, n, m) for m right-hand
    sides per system.  No input is modified.  Gaussian elimination with
    partial pivoting (pivot by |Re| + |Im|), where each row interchange
    fills one entry of a second superdiagonal, then back substitution
    (Anderson et al., *LAPACK Users' Guide*).  The loop runs over the
    rungs once; each rung updates the two rows it touches in every system
    together, and picks the interchanged or the plain pair per system
    with one masked copy.  Every step is elementwise along the batch, so
    each system's solution has the bits it has when solved alone.

    Returns (x, singular): x has b's shape, and singular[s] flags an
    exactly zero pivot in system s, whose x is NaN.
    """
    d = np.asarray(d, dtype=complex)
    dl = np.asarray(dl, dtype=complex)
    du = np.asarray(du, dtype=complex)
    batch, n = d.shape
    b = np.asarray(b, dtype=complex)
    rhs = b.reshape(batch, n, 1 if b.ndim == 2 else b.shape[2])
    # w[r] is row r along the batch: its entry in column c sits in slot
    # c % 3 (a row spans three columns at every stage), its right-hand
    # sides in slots 3 and on.  Two zero rows below the last let the back
    # substitution run one formula down to row 0.
    w = np.zeros((n + 2, 3 + rhs.shape[2], batch), dtype=complex)
    w[:n, 3:] = rhs.transpose(1, 2, 0)
    for r in range(3):
        w[r:n:3, r] = d[:, r::3].T
        w[r + 1 : n : 3, r] = dl[:, r::3].T
        w[r : n - 1 : 3, (r + 1) % 3] = du[:, r::3].T
    dl_size = (np.abs(dl.real) + np.abs(dl.imag)).T
    # NumPy rounds a complex product of size-1 operands of unequal ndim
    # without FMA, unlike every other layout, so the products below pair
    # operands of equal ndim whatever the batch size.
    with np.errstate(all="ignore"):  # a singular system runs on to NaN
        for k in range(n - 1):
            c = k % 3
            pair = w[k : k + 2]
            dk = pair[0, c]
            swap = np.abs(dk.real) + np.abs(dk.imag) < dl_size[k]
            np.copyto(pair, pair[::-1], where=swap)  # NumPy buffers the overlap
            piv, low = pair[0], pair[1]
            np.subtract(low, (low[c : c + 1] / piv[c : c + 1]) * piv, out=low)
            low[c] = 0.0
        x = w[:, 3:]
        for k in range(n - 1, -1, -1):
            c = k % 3
            u, u2 = (c + 1) % 3, (c + 2) % 3
            xk = x[k]
            np.subtract(xk, w[k, u : u + 1] * x[k + 1], out=xk)
            np.subtract(xk, w[k, u2 : u2 + 1] * x[k + 2], out=xk)
            np.divide(xk, w[k, c : c + 1], out=xk)
    rows = np.arange(n)
    singular = np.logical_or.reduce(w[rows, rows % 3] == 0.0, axis=0)
    x = x[:n].transpose(2, 0, 1)
    if singular.any():
        x[singular] = math.nan
    return x.reshape(b.shape), singular


def tridiag_solve(op: TridiagonalOperator, shift, rhs: np.ndarray) -> np.ndarray:
    """Solve (op - shift*I) x = rhs for one or several right-hand sides.

    ``rhs`` is (n,) or (n, m) and is not modified.  A 1-d array of S
    shifts solves every shifted system in one ``gtsv`` call and returns
    (S,) + rhs.shape, each solution bitwise equal to the one its shift
    gives alone.  An exactly zero pivot (an exactly singular matrix)
    raises EigensolveError.
    """
    shift = np.asarray(shift, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    d = np.atleast_2d(op.diag - shift[..., None])
    batch = d.shape[:1]
    c = np.broadcast_to(op.coupling, batch + op.coupling.shape)
    x, singular = gtsv(c, d, -c, np.broadcast_to(rhs, batch + rhs.shape))
    if singular.any():
        bad = np.atleast_1d(shift)[singular][0]
        raise EigensolveError(f"shifted tridiagonal solve: exactly singular at shift {bad!r}")
    return x.reshape(shift.shape + rhs.shape)
