import numpy as np
import pytest

from kbmlab import EigenBranch, finite_block, fixed_truncation, ladder_coefficients, truncate


@pytest.fixture(scope="session")
def sphere_l1():
    """eta=2, K=1 block: the 3x3 case with a closed-form branch."""
    block = finite_block(2.0, 1.0)
    return block, ladder_coefficients(block)


@pytest.fixture(scope="session")
def hyperbolic_block():
    """eta=5, K=-1, truncated to |k| <= 20."""
    block = truncate(5.0, -1.0, fixed_truncation(20))
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
        return finite_block(float(l_or_k * (l_or_k + 1)), 1.0)
    return truncate(eta, 0.0 if kind == "torus" else K, fixed_truncation(l_or_k))


def stuck_at_zero(block, coeffs, x_target, checkpoints=()):
    """Stand-in for track_branch: a continuation that accepted no step."""
    return EigenBranch(
        block=block,
        x_target=complex(x_target),
        x_samples=np.array([0j]),
        mu_values=np.array([0j]),
        gap_to_rest=np.array([1.0]),
        simple=np.array([True]),
        status="collision",
        reason="step underflow near loss of simplicity",
        x_collision=0j,
    )
