import math

import numpy as np
import pytest

from kbmlab import (
    TruncationError,
    accretivity_minimum,
    adaptive_truncation,
    assemble_generator,
    assemble_perturbed,
    eig_dense,
    finite_block,
    fixed_truncation,
    ladder_coefficients,
    tridiag_solve,
    truncate,
)


def test_perturbed_at_zero_is_diagonal(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.0)
    assert np.array_equal(op.diag.real, [1.0, 0.0, 1.0])
    assert np.all(op.sub == 0) and np.all(op.sup == 0)


def test_perturbed_off_diagonals(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.3)
    expect = 0.3 * math.sqrt(0.5)
    assert np.allclose(op.sub.real, expect, rtol=1e-15, atol=0)
    assert np.allclose(op.sup.real, -expect, rtol=1e-15, atol=0)
    # entries are exactly x * a in the fixed gauge
    assert np.array_equal(op.sub, 0.3 * coeffs.a + 0j)
    assert np.array_equal(op.sup, -(0.3 * coeffs.a) + 0j)


def test_trivial_block_assembles_to_zero():
    block = finite_block(0.0, 1.0)
    coeffs = ladder_coefficients(block)
    op = assemble_perturbed(block, coeffs, 0.7)
    assert op.dim == 1 and op.diag[0] == 0
    gen = assemble_generator(block, coeffs, 3.0)
    assert gen.diag[0] == 0


def test_generator_entries(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_generator(block, coeffs, 4.0)
    assert np.array_equal(op.diag.real, [8.0, 0.0, 8.0])
    assert np.allclose(op.sub.real, -4.0 * math.sqrt(0.5), rtol=1e-15)
    assert np.allclose(op.sup.real, 4.0 * math.sqrt(0.5), rtol=1e-15)


@pytest.mark.parametrize("gamma", [1.0, 10.0, 100.0])
def test_generator_matches_scaled_family(sphere_l1, gamma):
    block, coeffs = sphere_l1
    gen = assemble_generator(block, coeffs, gamma)
    fam = assemble_perturbed(block, coeffs, -2.0 / gamma)
    s = 0.5 * gamma * gamma
    for got, ref in ((gen.diag, s * fam.diag), (gen.sub, s * fam.sub), (gen.sup, s * fam.sup)):
        scale = np.maximum(np.abs(ref), 1e-300)
        assert np.max(np.abs(got - ref) / scale) <= 1e-13


def test_generator_rejects_nonpositive_gamma(sphere_l1):
    block, coeffs = sphere_l1
    with pytest.raises(ValueError):
        assemble_generator(block, coeffs, 0.0)


def test_skew_part_is_exact(hyperbolic_block):
    block, coeffs = hyperbolic_block
    op = assemble_perturbed(block, coeffs, 0.4)
    x_part = op.to_dense() - np.diag(op.diag)
    assert np.max(np.abs(x_part + x_part.T)) == 0.0


def test_coupling_has_no_real_energy(hyperbolic_block):
    block, coeffs = hyperbolic_block
    from kbmlab import coupling_matrix

    x = coupling_matrix(coeffs)
    rng = np.random.default_rng(3)
    for _ in range(25):
        v = rng.standard_normal(block.dim) + 1j * rng.standard_normal(block.dim)
        v /= np.linalg.norm(v)
        assert abs(np.vdot(v, x @ v).real) <= 1e-14


def test_real_family_spectrum_closed_under_conjugation(hyperbolic_block):
    block, coeffs = hyperbolic_block
    eigs = eig_dense(assemble_perturbed(block, coeffs, 0.8))
    conj = np.conj(eigs)
    for v in eigs:
        assert np.min(np.abs(conj - v)) <= 1e-10


def test_truncate_fixed_echoes_policy():
    block = truncate(5.0, -1.0, fixed_truncation(32))
    assert (block.k_min, block.k_max, block.finite) == (-32, 32, False)
    block = truncate(1.0, 0.0, fixed_truncation(16))
    assert (block.k_min, block.k_max) == (-16, 16)


def test_truncate_adaptive_certifies_default_cutoff():
    block = truncate(5.0, -1.0, adaptive_truncation(1e-10, -0.2))
    assert block.k_max == 32  # first cutoff in the doubling study already stable


def test_truncate_adaptive_stops_at_the_dense_limit(monkeypatch):
    # the doubling study of eta = 5 compares k = 32 with k = 64, whose
    # doubled block [-64, 64] has dimension 129
    import kbmlab.eig

    policy = adaptive_truncation(1e-10, -0.2)
    monkeypatch.setattr(kbmlab.eig, "MAX_DENSE_DIM", 129)
    assert truncate(5.0, -1.0, policy).k_max == 32
    monkeypatch.setattr(kbmlab.eig, "MAX_DENSE_DIM", 128)
    with pytest.raises(TruncationError, match="k_max <= 31"):
        truncate(5.0, -1.0, policy)


def test_truncate_rejects_positive_curvature():
    with pytest.raises(TruncationError):
        truncate(2.0, 1.0, fixed_truncation(8))


def test_truncation_nesting(hyperbolic_block):
    # branch value is stable under doubling the cutoff
    from kbmlab import branch_value, CasimirBlock

    block, coeffs = hyperbolic_block
    mu1 = branch_value(block, coeffs, -0.2)
    big = CasimirBlock(curvature=-1.0, eta=5.0, k_min=-40, k_max=40, finite=False)
    mu2 = branch_value(big, ladder_coefficients(big), -0.2)
    assert abs(mu1 - mu2) < 1e-10


@pytest.mark.parametrize("eta,K,kmax,gamma", [(2.0, 1.0, None, 3.0), (5.0, -1.0, 64, 0.5)])
def test_accretivity_examples(eta, K, kmax, gamma):
    block = finite_block(eta, K) if K > 0 else truncate(eta, K, fixed_truncation(kmax))
    coeffs = ladder_coefficients(block)
    op = assemble_generator(block, coeffs, gamma)
    assert accretivity_minimum(op) >= -1e-12


def test_accretivity_trivial_block_is_zero():
    block = finite_block(0.0, 1.0)
    op = assemble_generator(block, ladder_coefficients(block), 2.0)
    assert accretivity_minimum(op) == 0.0


def test_accretivity_is_exact_off_the_generator(hyperbolic_block):
    # complex x gives a Hermitian part with nonzero off-diagonal
    block, coeffs = hyperbolic_block
    op = assemble_perturbed(block, coeffs, 0.3 + 0.2j)
    dense = op.to_dense()
    exact = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))[0]
    assert abs(accretivity_minimum(op) - exact) <= 1e-12


def test_tridiag_solve_against_dense(hyperbolic_block):
    block, coeffs = hyperbolic_block
    op = assemble_perturbed(block, coeffs, 0.3 + 0.1j)
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(block.dim) + 1j * rng.standard_normal(block.dim)
    zeta = 0.4 + 0.3j
    x = tridiag_solve(op, zeta, rhs)
    ref = np.linalg.solve(op.to_dense() - zeta * np.eye(block.dim), rhs)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_tridiag_solve_random_shifts_match_dense(hyperbolic_block):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    block, coeffs = hyperbolic_block
    op = assemble_perturbed(block, coeffs, 0.25)
    dense = op.to_dense()
    eye = np.eye(block.dim)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def inner(seed):
        rng = np.random.default_rng(seed)
        zeta = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.05, 1.0))
        rhs = rng.standard_normal(block.dim) + 1j * rng.standard_normal(block.dim)
        x = tridiag_solve(op, zeta, rhs)
        ref = np.linalg.solve(dense - zeta * eye, rhs)
        assert np.linalg.norm(x - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))

    inner()


def test_tridiag_solve_multiple_rhs(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.2)
    rhs = np.eye(3, dtype=complex)
    x = tridiag_solve(op, 0.5j, rhs)
    ref = np.linalg.inv(op.to_dense() - 0.5j * np.eye(3))
    assert np.max(np.abs(x - ref)) <= 1e-12


def test_tridiag_solve_pivot_fallback():
    # diag (0, 1): the first pivot vanishes at shift 0 and forces pivoting
    from kbmlab import TridiagonalOperator

    op = TridiagonalOperator(
        diag=np.array([0.0, 1.0], dtype=complex),
        sup=np.array([1.0], dtype=complex),
        sub=np.array([2.0], dtype=complex),
        k_offset=0,
    )
    rhs = np.array([1.0, 1.0], dtype=complex)
    x = tridiag_solve(op, 0.0, rhs)
    ref = np.linalg.solve(op.to_dense(), rhs)
    assert np.linalg.norm(x - ref) <= 1e-12
