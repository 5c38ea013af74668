import numpy as np
import pytest

from kbmlab import (
    BranchCollisionError,
    EigenBranch,
    EvenSector,
    TridiagonalOperator,
    block_at,
    eig_dense,
    ladder_coefficients,
    track_branch,
)


@pytest.fixture(scope="session")
def sphere_l1():
    """eta=2, K=1 block: the 3x3 case with a closed-form branch."""
    block = block_at(2.0, 1.0, 0)
    return block, ladder_coefficients(block)


@pytest.fixture(scope="session")
def hyperbolic_block():
    """eta=5, K=-1, truncated to |k| <= 20."""
    block = block_at(5.0, -1.0, 20)
    return block, ladder_coefficients(block)


def match_spectra(e1, e2, tol):
    """Largest distance from each eigenvalue of e1 to its nearest in e2."""
    e1 = np.asarray(e1)
    e2 = np.asarray(e2)
    assert e1.size == e2.size
    worst = 0.0
    for v in e1:
        worst = max(worst, float(np.min(np.abs(e2 - v))))
    return worst <= tol


def property_block(kind, l_or_k, eta, K):
    """A sphere ladder l(l+1) at K = 1, or a truncation [-k, k] of a torus
    (K = 0) or K < 0 ladder."""
    if kind == "sphere":
        return block_at(float(l_or_k * (l_or_k + 1)), 1.0, 0)
    return block_at(eta, 0.0 if kind == "torus" else K, l_or_k)


def branch_value(coeffs, x):
    """Branch value at the real x on the block of ``coeffs``; raises if the
    continuation hits a collision."""
    br = track_branch(coeffs.block, coeffs, x)
    if br.status != "complete":
        raise BranchCollisionError(
            f"branch lost simplicity near x = {br.x_collision} ({br.reason})"
        )
    return complex(br.mu_values[-1])


def enclosed_count(op, contour):
    """Number of eigenvalues strictly inside the contour (dense oracle)."""
    eigs = eig_dense(op)
    return int(np.sum(np.abs(eigs - contour.center) < contour.radius))


def even_sector(coeffs, x):
    """The even parity sector at x (a scalar or a 1-d array) of the block of
    ``coeffs``, from its ``EvenSector``."""
    return EvenSector.of(coeffs).at(x)


def stuck_at_zero(block, coeffs, x_target, checkpoints=()):
    """Stand-in for track_branch: a continuation that accepted no step."""
    return EigenBranch(
        sector=EvenSector.of(coeffs),
        x_samples=np.array([0j]),
        mu_values=np.array([0j]),
        simple=np.array([True]),
        status="collision",
        reason="step underflow near loss of simplicity",
        x_collision=0j,
    )


def parity_eigvals(even, odd):
    """Full-block spectrum as the union of the two parity sectors' dense
    spectra (see ``operator.EvenSector``), even sector first; the oracle
    that ``eig.certify_samples`` agrees with."""
    if odd is None:
        return eig_dense(even)
    return np.concatenate((eig_dense(even), eig_dense(odd)))


def assembled_odd_sector(block, coeffs, x):
    """The J = -1 sector at x (a scalar or a 1-d array, real or complex)
    assembled from the ladder directly: diagonal m^2 and the coupling x*a_m
    for m = 1..k_max; None on the single-mode block."""
    m = block.k_max
    if m == 0:
        return None
    ms = np.arange(1, m + 1.0)
    if np.ndim(x) == 0:
        return TridiagonalOperator(ms * ms, x * coeffs.a[m + 1 :])
    coupling = np.array([xi * coeffs.a[m + 1 :] for xi in x]).reshape(len(x), m - 1)
    return TridiagonalOperator(np.array([ms * ms] * len(x)), coupling)


def one_row(op):
    """The stack holding the single matrix ``op``."""
    return TridiagonalOperator(op.diag[None], op.coupling[None])


def stack_of(ops):
    """The stack of operators of one dimension."""
    return TridiagonalOperator(
        np.stack([op.diag for op in ops]), np.stack([op.coupling for op in ops])
    )


def sector_parity(op):
    """+1 for an even sector (or a stack of them), -1 for an odd one: the
    even sector's first diagonal entry is m^2 = 0, the odd one's is 1."""
    first = op.diag[..., 0]
    assert np.all(first == first.flat[0])
    return 1 if first.flat[0] == 0 else -1


def accretivity_minimum(op):
    """Minimum of Re<op v, v> over complex unit vectors by a dense solve:
    the smallest eigenvalue of the Hermitian part (op + op^*)/2, a
    Hermitian tridiagonal matrix with diagonal ``diag`` and off-diagonal
    (c - conj(c))/2 for the coupling c (the entry [j, j+1] is -c_j); a
    diagonal phase change makes the off-diagonal real and nonnegative.  The
    oracle for ``numerical_range_floor``."""
    n = op.dim
    i = np.arange(n)
    herm = np.zeros((n, n))
    herm[i, i] = op.diag
    herm[i[1:], i[:-1]] = herm[i[:-1], i[1:]] = np.abs(
        0.5 * (op.coupling - np.conj(op.coupling))
    )
    return float(np.linalg.eigvalsh(herm)[0])
