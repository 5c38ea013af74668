import math

import numpy as np
import pytest

from kbmlab import (
    Contour,
    ContourPlacementError,
    LadderRangeError,
    assemble_perturbed,
    branch_value,
    enclosed_count,
    finite_block,
    fixed_truncation,
    idempotency_defect,
    ladder_coefficients,
    perturbation_radius,
    perturbation_series,
    riesz_projection,
    truncate,
    zero_mode_resolvent_norm,
)

SUITE = [(1.0, 2.0), (1.0, 6.0), (1.0, 12.0), (0.0, 1.0), (0.0, 2.0), (-1.0, 2.0), (-1.0, 5.0), (-1.0, 10.0)]


def _block(K, eta):
    if K > 0:
        block = finite_block(eta, K)
    else:
        block = truncate(eta, K, fixed_truncation(32))
    return block, ladder_coefficients(block)


@pytest.mark.parametrize("K,eta", SUITE)
def test_series_first_order_vanishes_structurally(K, eta):
    block, coeffs = _block(K, eta)
    series = perturbation_series(block, coeffs)
    # coupling moves between neighbouring modes only, so mu1 is exactly 0
    assert abs(series.mu1) <= 1e-15


@pytest.mark.parametrize("K,eta", SUITE)
def test_series_second_order_recovers_eta(K, eta):
    block, coeffs = _block(K, eta)
    series = perturbation_series(block, coeffs)
    assert abs(series.second_derivative - eta) <= 1e-8 * eta


def test_series_sphere_l1_quartic_oracle(sphere_l1):
    # closed-form branch is x^2 + x^4 + ... so the quadratic coefficient is 1
    block, coeffs = sphere_l1
    series = perturbation_series(block, coeffs)
    assert series.mu2 == pytest.approx(1.0, abs=1e-12)


def test_series_invariants(sphere_l1):
    block, coeffs = sphere_l1
    series = perturbation_series(block, coeffs)
    assert np.linalg.norm(series.phi0) == pytest.approx(1.0, abs=1e-15)
    off_slot = np.delete(np.abs(series.phi0), block.slot0)
    assert np.max(off_slot, initial=0.0) <= 1e-14
    assert abs(np.vdot(series.phi0, series.phi1)) <= 1e-12
    # correction equation (diag - mu0) phi1 = -(X - mu1) phi0
    from kbmlab import coupling_matrix

    lhs = (block.ks.astype(float) ** 2) * series.phi1
    rhs = -(coupling_matrix(coeffs) @ series.phi0 - series.mu1 * series.phi0)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_series_trivial_block_is_zero():
    block = finite_block(0.0, 1.0)
    series = perturbation_series(block, ladder_coefficients(block))
    assert series.mu1 == 0 and series.mu2 == 0


def test_series_vs_branch_taylor_remainder(sphere_l1):
    # |mu(x) - mu2 x^2| should vanish like x^4; the fitted slope must be
    # well above the cubic floor
    block, coeffs = sphere_l1
    series = perturbation_series(block, coeffs)
    xs = np.array([2.0**-k for k in range(3, 10)])
    remainders = []
    for x in xs:
        mu = branch_value(block, coeffs, float(x))
        remainders.append(abs(mu - series.mu1 * x - series.mu2 * x * x))
    slope = np.polyfit(np.log(xs), np.log(remainders), 1)[0]
    assert slope >= 2.7


def test_riesz_projection_diagonal_case(sphere_l1):
    block, coeffs = sphere_l1
    proj = riesz_projection(assemble_perturbed(block, coeffs, 0.0), Contour(0.0, 0.5, 64))
    expect = np.zeros((3, 3))
    expect[1, 1] = 1.0
    assert np.max(np.abs(proj - expect)) <= 1e-12


@pytest.mark.parametrize("x", [0.1, 0.3])
def test_riesz_projection_rank_one(sphere_l1, x):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, x)
    proj = riesz_projection(op, Contour(0.0, 0.5, 64))
    assert idempotency_defect(proj) <= 1e-8
    assert abs(np.trace(proj) - 1.0) <= 1e-8
    assert enclosed_count(op, Contour(0.0, 0.5, 64)) == 1


def test_riesz_projection_off_center_contour(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.3)
    proj = riesz_projection(op, Contour(1.0, 0.05, 64))
    assert abs(np.trace(proj) - 1.0) <= 1e-8  # encloses only the eigenvalue 1


def test_riesz_projection_trace_counts_enclosed(hyperbolic_block):
    block, coeffs = hyperbolic_block
    op = assemble_perturbed(block, coeffs, 0.15)
    contour = Contour(0.0, 0.5, 64)
    proj = riesz_projection(op, contour)
    assert abs(np.trace(proj) - enclosed_count(op, contour)) <= 1e-8


def test_riesz_rejects_eigenvalue_on_contour(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.0)
    with pytest.raises(ContourPlacementError):
        riesz_projection(op, Contour(0.5, 0.5, 64))  # circle through 0 and 1


def test_quadrature_doubling_converges(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.3)
    prev = riesz_projection(op, Contour(0.0, 0.5, 64))
    for nodes in (128, 256):
        cur = riesz_projection(op, Contour(0.0, 0.5, nodes))
        assert np.linalg.norm(cur - prev, 2) < 1e-10
        prev = cur


def test_resolvent_factorization_identity(sphere_l1):
    # R(zeta, x) = R(zeta) (1 + x X R(zeta))^-1 at contour points
    block, coeffs = sphere_l1
    from kbmlab import coupling_matrix

    x = 0.08
    dense0 = assemble_perturbed(block, coeffs, 0.0).to_dense()
    dense_x = assemble_perturbed(block, coeffs, x).to_dense()
    x_mat = coupling_matrix(coeffs).astype(complex)
    eye = np.eye(block.dim)
    rng = np.random.default_rng(17)
    for _ in range(8):
        zeta = 0.5 * np.exp(2j * np.pi * rng.uniform())
        r0 = np.linalg.inv(dense0 - zeta * eye)
        lhs = np.linalg.inv(dense_x - zeta * eye)
        rhs = r0 @ np.linalg.inv(eye + x * x_mat @ r0)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9


def test_perturbation_radius_sphere_bound(sphere_l1):
    block, coeffs = sphere_l1
    r = perturbation_radius(block, coeffs, Contour(0.0, 0.5, 64))
    # the zero-mode lower bound forces r <= |zeta| / sqrt(eta/2) = 1/2
    assert 0.0 < r <= 0.5 + 1e-12


def test_perturbation_radius_decays_with_eta():
    block = truncate(8.0, -1.0, fixed_truncation(64))
    coeffs = ladder_coefficients(block)
    r = perturbation_radius(block, coeffs, Contour(0.0, 0.5, 64))
    assert 0.0 < r <= 0.25 + 1e-12


def test_perturbation_radius_trivial_block_is_infinite():
    block = finite_block(0.0, 1.0)
    r = perturbation_radius(block, ladder_coefficients(block), Contour(0.0, 0.5, 16))
    assert math.isinf(r)


@pytest.mark.parametrize(
    "eta,zeta,expect",
    [(2.0, 0.5, 2.0), (8.0, 0.5, 4.0), (2.0, 0.25, 4.0)],
)
def test_zero_mode_norm_values(eta, zeta, expect):
    bound = zero_mode_resolvent_norm(eta, zeta)
    assert bound.computed == pytest.approx(expect, rel=1e-10)
    assert bound.closed_form == pytest.approx(expect, rel=1e-10)
    assert bound.computed == pytest.approx(bound.closed_form, rel=1e-10)


def test_zero_mode_norm_grid():
    for eta in (2.0, 8.0, 32.0):
        for zeta in (0.25, 0.5, 0.75):
            bound = zero_mode_resolvent_norm(eta, zeta)
            rel = abs(bound.computed - bound.closed_form) / bound.closed_form
            assert rel <= 1e-10


def test_zero_mode_norm_rejects_spectrum_point():
    with pytest.raises(ContourPlacementError):
        zero_mode_resolvent_norm(2.0, 1.0)
    with pytest.raises(LadderRangeError):
        zero_mode_resolvent_norm(0.0, 0.5)


def test_contour_validation():
    with pytest.raises(ContourPlacementError):
        Contour(0.0, -0.5, 64)
    with pytest.raises(ContourPlacementError):
        Contour(0.0, 0.5, 4)
    from kbmlab.perturb import validate_contour_for_block

    block = finite_block(2.0, 1.0)
    with pytest.raises(ContourPlacementError):
        validate_contour_for_block(Contour(0.0, 1.0, 64), block)  # touches k^2 = 1
