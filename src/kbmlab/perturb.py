"""Matrix-level perturbation machinery for one Casimir block.

Covers the second-order Rayleigh-Schrodinger coefficients of the branch
through 0, Riesz spectral projections by trapezoidal contour quadrature,
the perturbation-radius estimate min_zeta 1/||X (D - zeta)^-1||, and the
closed-form lower bound |zeta|^-1 sqrt(eta/2) for that norm restricted to
the zeroth fiber mode.

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
from .operator import TridiagonalOperator, fixed_truncation, tridiag_solve, truncate

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


def perturbation_series(block: CasimirBlock, coeffs: LadderCoefficients) -> PerturbationSeries:
    """Second-order Rayleigh-Schrodinger series of the branch through 0.

    mu1 = <X phi0, phi0> and mu2 = <X phi1, phi0> with the correction
    solving (diag(k^2) - 0) phi1 = -(X - mu1) phi0 on the orthogonal
    complement of phi0; there the diagonal is k^2 >= 1, hence invertible.
    The series of the trivial eta = 0 block is identically zero.
    """
    n = block.dim
    i0 = block.slot0
    phi0 = np.zeros(n, dtype=complex)
    phi0[i0] = 1.0
    if block.eta == 0.0:
        return PerturbationSeries(
            block=block, mu0=0j, mu1=0j, mu2=0j, phi0=phi0, phi1=np.zeros(n, dtype=complex)
        )
    if block.k_min > -1 or block.k_max < 1:
        raise LadderRangeError("series needs the modes k = -1, 0, 1 inside the block")

    x_mat = coupling_matrix(coeffs).astype(complex)
    x_phi0 = x_mat[:, i0]
    mu1 = complex(x_phi0[i0])

    ks = block.ks.astype(float)
    diag = ks * ks
    rhs = -(x_phi0 - mu1 * phi0)
    phi1 = np.zeros(n, dtype=complex)
    mask = np.arange(n) != i0
    if np.any(diag[mask] == 0.0):
        raise EigensolveError("correction solve is singular off the zero mode")
    phi1[mask] = rhs[mask] / diag[mask]

    mu2 = complex(np.vdot(phi0, x_mat @ phi1))
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
    unperturbed spectrum {k^2}; for center 0 this forces radius in (0, 1)."""
    k2 = block.ks.astype(float) ** 2
    dist = np.abs(np.abs(k2 - contour.center) - contour.radius)
    if float(np.min(dist)) < CONTOUR_DIST_MIN:
        raise ContourPlacementError("contour passes through the unperturbed spectrum")
    inside = np.abs(k2 - contour.center) < contour.radius
    if not np.any(inside):
        raise ContourPlacementError("contour encloses no unperturbed eigenvalue")


def riesz_projection(op: TridiagonalOperator, contour: Contour) -> np.ndarray:
    """Spectral projection -(1/2*pi*i) * contour integral of the resolvent.

    Trapezoidal quadrature over the equispaced nodes; on a circle the rule
    converges exponentially in the node count for the analytic resolvent.
    Eigenvalues closer than 1e-8 to the contour are rejected.
    """
    eigs = eig_dense(op)
    dist = np.abs(np.abs(eigs - contour.center) - contour.radius)
    if float(np.min(dist)) < CONTOUR_DIST_MIN:
        raise ContourPlacementError("an eigenvalue lies on or near the contour")
    n = op.dim
    identity = np.eye(n, dtype=complex)
    proj = np.zeros((n, n), dtype=complex)
    theta = 2.0 * np.pi * np.arange(contour.nodes) / contour.nodes
    phases = np.exp(1j * theta)
    for ph in phases:
        zeta = contour.center + contour.radius * ph
        resolvent = tridiag_solve(op, zeta, identity)
        proj -= (contour.radius / contour.nodes) * ph * resolvent
    return proj


def idempotency_defect(proj: np.ndarray) -> float:
    """Spectral norm of P^2 - P."""
    return float(np.linalg.norm(proj @ proj - proj, 2))


def enclosed_count(op: TridiagonalOperator, contour: Contour) -> int:
    """Number of eigenvalues strictly inside the contour (dense oracle)."""
    eigs = eig_dense(op)
    return int(np.sum(np.abs(eigs - contour.center) < contour.radius))


def perturbation_radius(
    block: CasimirBlock, coeffs: LadderCoefficients, contour: Contour
) -> float:
    """min over contour nodes of 1 / ||X (diag(k^2) - zeta)^-1||.

    Lower bound for the coupling strength |x| below which the contour
    still separates the tracked branch; computed on the (truncated) block,
    so it is documented as an estimate, not a proved bound.  The trivial
    block returns infinity because its coupling vanishes.
    """
    if block.eta == 0.0:
        return math.inf
    validate_contour_for_block(contour, block)
    x_mat = coupling_matrix(coeffs).astype(complex)
    k2 = block.ks.astype(float) ** 2
    best = math.inf
    for zeta in contour.points():
        scaled = x_mat / (k2 - zeta)[None, :]
        sigma = float(np.linalg.norm(scaled, 2))
        if sigma > 0.0:
            best = min(best, 1.0 / sigma)
    return best


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
    block = truncate(eta, 0.0, fixed_truncation(2))
    coeffs = ladder_coefficients(block)
    x_mat = coupling_matrix(coeffs)
    e0 = np.zeros(block.dim, dtype=complex)
    e0[block.slot0] = 1.0
    image = x_mat @ (e0 / (0.0 - zeta))
    computed = float(np.linalg.norm(image))
    closed = math.sqrt(0.5 * eta) / abs(zeta)
    return ZeroModeNorm(computed=computed, closed_form=closed)
