"""Matrix-level perturbation machinery for one Casimir block.

Covers the second-order Rayleigh-Schrodinger coefficients of the branch
through 0, Riesz spectral projections by trapezoidal contour quadrature
(the resolvents from batched tridiagonal solves over chunks of nodes),
the Kato perturbation radius min_zeta 1/||X (D - zeta)^-1|| over the
contour, and the closed-form lower bound |zeta|^-1 sqrt(eta/2) for that
norm restricted to the zeroth fiber mode.  The radius's core is
``operator.kato_radius``, which takes the norm on the even parity sector
(``operator.EvenSector``); that is exact, since the sectors are
orthogonal and invariant under X and D, and the odd sector is a submatrix
of the even one (``operator.odd_sector``).  The resolvent's phases drop
out of the norm and the real Gram matrix splits by index parity into two
symmetric tridiagonal blocks, so a contour node costs the largest
eigenvalue of two real matrices of size about k_max/2.  On a circle with a
real centre c <= 0 the norm peaks at the node zeta = c + radius, which
alone gives the minimum over the whole circle; any other circle takes
every node.  The same core, at the node 1/2 of the circle |zeta| = 1/2,
gives ``eig.track_branch`` the radius below which its samples are
certified by the Kato bound instead of a dense eigensolve.

For the linear family diag(k^2) + x*X the second-order data is explicit:
the first-order coefficient vanishes because the coupling only moves
between neighbouring modes, and the first correction vector lives on the
modes k = +-1 where the unperturbed diagonal equals 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourPlacementError, EigensolveError, LadderRangeError
from .eig import eig_dense
from .ladder import (
    CasimirBlock,
    LadderCoefficients,
    coupling_matrix,
    ladder_coefficients,
)
from .operator import (
    EvenSector,
    TridiagonalOperator,
    batch_slices,
    block_at,
    kato_radius,
    tridiag_solve,
)

# Minimum admissible distance between the contour and any eigenvalue.
CONTOUR_DIST_MIN = 1e-8


@dataclass(frozen=True, eq=False)
class PerturbationSeries:
    """Taylor data mu0 + mu1*x + mu2*x^2 of the tracked branch.

    ``phi0`` is the unit eigenvector at x = 0 (supported on the zero
    mode), ``phi1`` the first correction with its component along phi0
    fixed to zero; the second-order coefficient does not depend on that
    free component.  The curvature of the branch is 2*mu2.
    """

    block: CasimirBlock
    mu0: complex
    mu1: complex
    mu2: complex
    phi0: np.ndarray
    phi1: np.ndarray

    @property
    def second_derivative(self) -> complex:
        return 2.0 * self.mu2


def perturbation_series(coeffs: LadderCoefficients) -> PerturbationSeries:
    """Second-order Rayleigh-Schrodinger series of the branch through 0.

    mu1 = <X phi0, phi0> and mu2 = <X phi1, phi0> with the correction
    solving (diag(k^2) - 0) phi1 = -(X - mu1) phi0 on the orthogonal
    complement of phi0; there the diagonal is k^2 >= 1, hence invertible.
    X is applied from the block's coupling, in O(dim).  The series
    of the trivial eta = 0 block is identically zero.
    """
    block = coeffs.block
    n = block.dim
    i0 = block.slot0
    phi0 = np.zeros(n, dtype=complex)
    phi0[i0] = 1.0
    if block.eta == 0.0:
        return PerturbationSeries(
            block=block, mu0=0j, mu1=0j, mu2=0j, phi0=phi0, phi1=np.zeros(n, dtype=complex)
        )
    if block.k_max < 1:
        raise LadderRangeError("series needs the modes k = -1, 0, 1 inside the block")

    x_op = TridiagonalOperator(np.zeros(n), coeffs.a)  # X, as in coupling_matrix
    x_phi0 = x_op.matvec(phi0)
    mu1 = complex(x_phi0[i0])

    ks = block.ks.astype(float)
    diag = ks * ks
    rhs = -(x_phi0 - mu1 * phi0)
    phi1 = np.zeros(n, dtype=complex)
    mask = np.arange(n) != i0
    if np.any(diag[mask] == 0.0):
        raise EigensolveError("correction solve is singular off the zero mode")
    phi1[mask] = rhs[mask] / diag[mask]

    mu2 = complex(np.vdot(phi0, x_op.matvec(phi1)))
    return PerturbationSeries(block=block, mu0=0j, mu1=mu1, mu2=mu2, phi0=phi0, phi1=phi1)


@dataclass(frozen=True)
class Contour:
    """Circular quadrature contour with equispaced nodes."""

    center: complex = 0.0
    radius: float = 0.5
    nodes: int = 64

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ContourPlacementError("contour radius must be positive")
        if self.nodes < 8:
            raise ContourPlacementError("contour needs at least 8 nodes")

    def points(self) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(self.nodes) / self.nodes
        return self.center + self.radius * np.exp(1j * theta)


def validate_contour_for_block(contour: Contour, block: CasimirBlock) -> None:
    """The circle must separate the zero mode from the rest of the
    unperturbed spectrum {k^2}: it keeps a distance of CONTOUR_DIST_MIN
    from every k^2 and encloses k = 0 and no other mode.  For center 0
    this forces radius in (0, 1)."""
    k2 = block.ks.astype(float) ** 2
    dist = np.abs(np.abs(k2 - contour.center) - contour.radius)
    if float(np.min(dist)) < CONTOUR_DIST_MIN:
        raise ContourPlacementError("contour passes through the unperturbed spectrum")
    inside = np.abs(k2 - contour.center) < contour.radius
    if not inside[block.slot0] or np.count_nonzero(inside) > 1:
        raise ContourPlacementError("contour must enclose the zero mode and no other mode")


def riesz_projection(op: TridiagonalOperator, contour: Contour) -> np.ndarray:
    """Spectral projection -(1/2*pi*i) * contour integral of the resolvent.

    Trapezoidal quadrature over the equispaced nodes; on a circle the rule
    converges exponentially in the node count for the analytic resolvent.
    The resolvents come from one ``tridiag_solve`` call per chunk of node
    shifts, each chunk holding at most ``operator.STACK_BUDGET`` resolvent
    entries (one node when n^2 is larger), and are summed chunk by chunk;
    a block with 64 * n^2 within the budget (n <= 32) takes one call.
    Eigenvalues closer than 1e-8 to the contour are rejected.
    """
    eigs = eig_dense(op)
    dist = np.abs(np.abs(eigs - contour.center) - contour.radius)
    if float(np.min(dist)) < CONTOUR_DIST_MIN:
        raise ContourPlacementError("an eigenvalue lies on or near the contour")
    theta = 2.0 * np.pi * np.arange(contour.nodes) / contour.nodes
    phases = np.exp(1j * theta)
    shifts = contour.center + contour.radius * phases
    weights = (contour.radius / contour.nodes) * phases
    eye = np.eye(op.dim, dtype=complex)
    total = None
    for part in batch_slices(contour.nodes, op.dim * op.dim):
        chunk = np.einsum("j,jab->ab", weights[part], tridiag_solve(op, shifts[part], eye))
        total = chunk if total is None else total + chunk
    return -total


def idempotency_defect(proj: np.ndarray) -> float:
    """Spectral norm of P^2 - P."""
    return float(np.linalg.norm(proj @ proj - proj, 2))


def perturbation_radius(
    block: CasimirBlock, coeffs: LadderCoefficients, contour: Contour
) -> float:
    """Kato radius min over the contour of 1 / ||X (diag(k^2) - zeta)^-1||.

    For |x| below it the contour still separates the tracked branch: it
    holds exactly one eigenvalue of diag(k^2) + x X (Kato, Perturbation
    Theory for Linear Operators, II.3).  The radius is computed on the
    (truncated) block by ``operator.kato_radius``, the one implementation,
    which ``eig.track_branch`` also calls to certify its samples inside the
    circle |zeta| = 1/2.  Coefficients of a block other than ``block``
    raise ValueError.  The contour is validated next; the trivial block
    then returns infinity because its coupling vanishes, as does a contour
    on which the norm is 0.

    A real centre c <= 0 needs one node, zeta = c + radius (node 0 of
    ``Contour.points``), and the result is the minimum over the whole
    circle, not only over its nodes.  On the circle
    |m^2 - zeta|^2 = (m^2 - c)^2 + radius^2 - 2 radius (m^2 - c) cos(theta)
    with m^2 - c >= 0, so every weight w_m = 1/|m^2 - zeta| peaks at theta
    = 0.  A diagonal +-1 similarity flips the off-diagonal signs of a
    symmetric tridiagonal block, and the Gram blocks' diagonals are
    nonnegative, so the largest eigenvalue is that of the entrywise
    absolute value, which is nondecreasing in every entry
    (Perron-Frobenius).  A complex centre or c > 0 takes the largest
    eigenvalue at every node.
    """
    coeffs.check_block(block)
    validate_contour_for_block(contour, block)
    if block.eta == 0.0:
        return math.inf
    center = complex(contour.center)
    if center.imag == 0.0 and center.real <= 0.0:
        zeta = np.array([center + contour.radius])  # node 0 of contour.points()
    else:
        zeta = contour.points()
    return kato_radius(EvenSector.of(coeffs), zeta)


@dataclass(frozen=True)
class ZeroModeNorm:
    computed: float
    closed_form: float


def zero_mode_resolvent_norm(eta: float, zeta: complex) -> ZeroModeNorm:
    """Norm of X (diag(k^2) - zeta)^-1 restricted to zero-mode inputs.

    The computed route applies the assembled matrices to the zero-mode
    basis vector; the closed form is |zeta|^-1 * sqrt(eta/2).  The two must
    agree to 1e-10 relative, which pins the growth in eta that rules out a
    uniform perturbation radius across blocks.
    """
    if not eta > 0.0:
        raise LadderRangeError("the bound needs eta > 0")
    zeta = complex(zeta)
    k_probe = max(2, int(math.ceil(math.sqrt(abs(zeta)))) + 2)
    for k in range(0, k_probe + 1):
        if abs(zeta - k * k) < 1e-12 * (1.0 + k * k):
            raise ContourPlacementError("zeta lies on the unperturbed spectrum")
    block = block_at(eta, 0.0, 2)
    coeffs = ladder_coefficients(block)
    x_mat = coupling_matrix(coeffs)
    e0 = np.zeros(block.dim, dtype=complex)
    e0[block.slot0] = 1.0
    image = x_mat @ (e0 / (0.0 - zeta))
    computed = float(np.linalg.norm(image))
    closed = math.sqrt(0.5 * eta) / abs(zeta)
    return ZeroModeNorm(computed=computed, closed_form=closed)
