import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    accretivity_minimum,
    assembled_odd_sector,
    branch_value,
    even_sector,
    one_row,
    parity_eigvals,
    property_block,
)
from kbmlab import (
    EigensolveError,
    EvenSector,
    TridiagonalOperator,
    TruncationError,
    TruncationPolicy,
    assemble_generator,
    assemble_perturbed,
    block_at,
    eig_dense,
    finite_block,
    fixed_truncation,
    ladder_coefficients,
    numerical_range_floor,
    odd_sector,
    tridiag_solve,
    truncate,
)
from kbmlab.acceptance import suite_block, suite_cases


def test_perturbed_at_zero_is_diagonal(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.0)
    assert np.array_equal(op.diag, [1.0, 0.0, 1.0])
    assert np.all(op.coupling == 0) and np.all(op.to_dense() == np.diag(op.diag))


def test_perturbed_off_diagonals(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.3)
    expect = 0.3 * math.sqrt(0.5)
    dense = op.to_dense()
    assert np.allclose(np.diag(dense, -1), expect, rtol=1e-15, atol=0)
    assert np.allclose(np.diag(dense, 1), -expect, rtol=1e-15, atol=0)
    # entries are exactly x * a in the fixed gauge, real at real x
    assert op.diag.dtype == op.coupling.dtype == dense.dtype == np.float64
    assert np.array_equal(op.coupling, 0.3 * coeffs.a)
    assert np.array_equal(np.diag(dense, -1), 0.3 * coeffs.a)
    assert np.array_equal(np.diag(dense, 1), -(0.3 * coeffs.a))


def test_trivial_block_assembles_to_zero():
    block = finite_block(0.0, 1.0)
    coeffs = ladder_coefficients(block)
    op = assemble_perturbed(block, coeffs, 0.7)
    assert op.dim == 1 and op.diag[0] == 0
    gen = assemble_generator(coeffs, 3.0)
    assert gen.diag[0] == 0


def test_generator_entries(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_generator(coeffs, 4.0)
    dense = op.to_dense()
    assert np.array_equal(op.diag, [8.0, 0.0, 8.0]) and dense.dtype == np.float64
    assert np.allclose(np.diag(dense, -1), -4.0 * math.sqrt(0.5), rtol=1e-15)
    assert np.allclose(np.diag(dense, 1), 4.0 * math.sqrt(0.5), rtol=1e-15)


@pytest.mark.parametrize("gamma", [1.0, 10.0, 100.0])
def test_generator_matches_scaled_family(sphere_l1, gamma):
    block, coeffs = sphere_l1
    gen = assemble_generator(coeffs, gamma)
    fam = assemble_perturbed(block, coeffs, -2.0 / gamma)
    s = 0.5 * gamma * gamma
    for got, ref in ((gen.diag, s * fam.diag), (gen.coupling, s * fam.coupling)):
        scale = np.maximum(np.abs(ref), 1e-300)
        assert np.max(np.abs(got - ref) / scale) <= 1e-13


def test_generator_rejects_nonpositive_gamma(sphere_l1):
    block, coeffs = sphere_l1
    with pytest.raises(ValueError):
        assemble_generator(coeffs, 0.0)


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
    assert (block.ks[0], block.k_max, block.finite) == (-32, 32, False)
    block = truncate(1.0, 0.0, fixed_truncation(16))
    assert (block.ks[0], block.k_max) == (-16, 16)


def test_truncate_rejects_an_adaptive_policy():
    # a policy without a cutoff is adaptive: the sweep certifies its cutoff,
    # on every row
    with pytest.raises(TruncationError, match="fixed policy"):
        truncate(5.0, -1.0, TruncationPolicy())


def test_a_policy_is_fixed_by_its_cutoff_alone():
    # a k_max fixes the cutoff and no k_max makes it adaptive, so no other
    # field says which; each kind checks the one value it reads
    assert [f.name for f in dataclasses.fields(TruncationPolicy)] == ["k_max", "tol"]
    assert fixed_truncation(8) == TruncationPolicy(k_max=8)
    with pytest.raises(TruncationError, match="k_max >= 1, got 0"):
        fixed_truncation(0)
    with pytest.raises(TruncationError, match="tol > 0, got 0.0"):
        TruncationPolicy(tol=0.0)


@given(
    kind=st.sampled_from(["sphere", "flat", "hyperbolic"]),
    level=st.integers(0, 40),
    K=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    eta=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
    k_max=st.integers(1, 64),
)
@settings(max_examples=200, deadline=None)
def test_block_at_is_the_intrinsic_block_or_the_truncation_at_the_cutoff(
    kind, level, K, eta, k_max
):
    # K > 0 on the sphere levels K*l*(l+1), K = 0 and K < 0; eta = 0 and
    # eta > 0; cutoffs up to 64.  The split every caller used to write out:
    # finite_block for K > 0, else truncate at the fixed cutoff, and the
    # single mode for eta = 0, which truncate refuses
    if kind == "sphere":
        eta = K * (level * (level + 1))
    else:
        K = 0.0 if kind == "flat" else -K
    block = block_at(eta, K, k_max)
    if K > 0.0 or eta == 0.0:
        assert block == finite_block(eta, K) and block.finite
        assert block_at(eta, K, k_max + 1) == block  # the cutoff is not read
    else:
        assert block == truncate(eta, K, fixed_truncation(k_max)) and not block.finite
    assert (block.curvature, block.eta) == (K, eta)


def test_truncate_rejects_positive_curvature():
    with pytest.raises(TruncationError):
        truncate(2.0, 1.0, fixed_truncation(8))


def test_truncation_nesting(hyperbolic_block):
    # branch value is stable under doubling the cutoff
    from kbmlab import CasimirBlock

    block, coeffs = hyperbolic_block
    mu1 = branch_value(coeffs, -0.2)
    big = CasimirBlock(curvature=-1.0, eta=5.0, k_max=40)
    mu2 = branch_value(ladder_coefficients(big), -0.2)
    assert abs(mu1 - mu2) < 1e-10


@pytest.mark.parametrize("eta,K,kmax,gamma", [(2.0, 1.0, None, 3.0), (5.0, -1.0, 64, 0.5)])
def test_accretivity_examples(eta, K, kmax, gamma):
    block = block_at(eta, K, kmax)
    coeffs = ladder_coefficients(block)
    op = assemble_generator(coeffs, gamma)
    assert numerical_range_floor(op) >= -1e-12
    assert numerical_range_floor(op) <= accretivity_minimum(op)


def test_accretivity_trivial_block_is_zero():
    block = finite_block(0.0, 1.0)
    op = assemble_generator(ladder_coefficients(block), 2.0)
    assert numerical_range_floor(op) == accretivity_minimum(op) == 0.0


@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
def test_accretivity_of_the_generator_is_exactly_zero(gamma):
    # the skew coupling cancels in the Hermitian part, which is then the
    # diagonal (gamma^2/2) k^2 with its minimum 0 at k = 0; the O(n) floor
    # the run reports equals the dense minimum bit for bit, sign included
    blocks = [suite_block(K, eta)[0] for K, eta in suite_cases()]
    blocks.append(truncate(300.0, -1.0, fixed_truncation(147)))
    for block in blocks:
        op = assemble_generator(ladder_coefficients(block), gamma)
        floor = numerical_range_floor(op)
        assert floor == accretivity_minimum(op) == 0.0
        assert math.copysign(1.0, floor) == math.copysign(1.0, accretivity_minimum(op))


def test_accretivity_is_exact_off_the_generator(hyperbolic_block):
    # complex x gives a Hermitian part with nonzero off-diagonal; the dense
    # oracle is exact there, and the O(n) floor stays below it
    block, coeffs = hyperbolic_block
    op = assemble_perturbed(block, coeffs, 0.3 + 0.2j)
    dense = op.to_dense()
    exact = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))[0]
    assert abs(accretivity_minimum(op) - exact) <= 1e-12
    assert numerical_range_floor(op) <= exact + 1e-12


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
    op = TridiagonalOperator(diag=np.array([0.0, 1.0]), coupling=np.array([2.0]))
    rhs = np.array([1.0, 1.0], dtype=complex)
    x = tridiag_solve(op, 0.0, rhs)
    ref = np.linalg.solve(op.to_dense(), rhs)
    assert np.linalg.norm(x - ref) <= 1e-12


def _random_tridiagonal(n, seed, interchange):
    """Tridiagonal operator with a real diagonal and a complex coupling, a
    complex shift and a right-hand side, scaled by one factor in
    1e-3..1e3; ``interchange`` makes the coupling 10 to 1000 times larger
    than diag - shift, so partial pivoting swaps rows."""
    rng = np.random.default_rng(seed)

    def entries(m):
        return rng.standard_normal(m) + 1j * rng.standard_normal(m)

    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    off = scale * (10.0 ** rng.uniform(1.0, 3.0) if interchange else 1.0)
    op = TridiagonalOperator(diag=scale * rng.standard_normal(n), coupling=off * entries(n - 1))
    return op, complex(scale * entries(1)[0]), entries(n)


@given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1), interchange=st.booleans())
@settings(max_examples=200, deadline=None)
def test_tridiag_solve_matches_lapack_gtsv_and_the_dense_solve(n, seed, interchange):
    op, shift, rhs = _random_tridiagonal(n, seed, interchange)
    x = tridiag_solve(op, shift, rhs)
    a = op.to_dense() - shift * np.eye(n)
    ref = np.linalg.solve(a, rhs)
    cond = np.linalg.cond(a)
    assert np.linalg.norm(x - ref) <= 1e-13 * cond * np.linalg.norm(ref)
    if n > 1:  # the wrapper rejects an empty subdiagonal
        # LAPACK's tridiagonal solver, an independent elimination
        c = op.coupling
        *_, ref_gtsv, info = scipy.linalg.lapack.zgtsv(c, op.diag - shift, -c, rhs)
        assert info == 0
        assert np.linalg.norm(x - ref_gtsv) <= 1e-13 * np.linalg.norm(ref_gtsv)


@given(n=st.integers(1, 40), shifts=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_tridiag_solve_with_a_shift_array_equals_one_call_per_shift(n, shifts, seed):
    rng = np.random.default_rng(seed)
    op, _, rhs = _random_tridiagonal(n, seed, interchange=bool(seed % 2))
    zetas = rng.standard_normal(shifts) + 1j * rng.standard_normal(shifts)
    for b in (rhs, np.stack([rhs, 2.0 * rhs[::-1]], axis=1)):
        x = tridiag_solve(op, zetas, b)
        assert x.shape == (shifts,) + b.shape
        for zeta, xz in zip(zetas, x):
            assert np.array_equal(xz, tridiag_solve(op, zeta, b))


def test_tridiag_solve_one_by_one_with_a_real_rhs():
    # n = 2 with a row interchange is test_tridiag_solve_pivot_fallback
    op = TridiagonalOperator(diag=np.array([3.0]), coupling=np.zeros(0))
    assert tridiag_solve(op, 3.0 - 2.0j, np.array([6.0])) == pytest.approx([-3.0j], abs=1e-15)


@pytest.mark.parametrize(
    "diag,sup,sub",
    [
        ([0.0], [], []),  # 1x1 zero
        ([1.0, 0.0, 1.0], [0.0, 0.0], [0.0, 0.0]),  # zero pivot before the last row
        ([1.0, -1.0], [-1.0], [1.0]),  # rank one: the last pivot cancels exactly
    ],
)
def test_tridiag_solve_exactly_singular_raises(diag, sup, sub):
    # each matrix is skew-coupled (sup = -sub) and exactly singular
    op = TridiagonalOperator(diag=np.array(diag), coupling=np.array(sub))
    dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    assert np.array_equal(op.to_dense(), dense) and np.linalg.matrix_rank(dense) < op.dim
    with pytest.raises(EigensolveError):
        tridiag_solve(op, 0.0, np.ones(op.dim))
    with pytest.raises(EigensolveError):
        tridiag_solve(op, np.array([0.5j, 0.0]), np.ones(op.dim))


def test_tridiag_solve_raises_where_the_last_pivot_cancels():
    # [[1, -i], [i, 1]] has rank one: the last pivot is 1 - i*(-i) = 0
    op = TridiagonalOperator(diag=np.array([1.0, 1.0]), coupling=np.array([1.0j]))
    with pytest.raises(EigensolveError):
        tridiag_solve(op, 0.0, np.ones(2))


def test_a_complex_diagonal_is_refused():
    # the diagonal of every operator the package forms is real; only the
    # coupling turns complex, at complex x
    with pytest.raises(ValueError, match="real"):
        TridiagonalOperator(diag=np.array([1.0 + 0.0j, 2.0]), coupling=np.array([0.5]))
    op = TridiagonalOperator(diag=np.array([1, 2]), coupling=np.array([0.5j]))
    assert op.diag.dtype == np.float64 and op.coupling.dtype == np.complex128


def test_tridiag_solve_leaves_a_two_dimensional_rhs_unmodified(hyperbolic_block):
    block, coeffs = hyperbolic_block
    op = assemble_perturbed(block, coeffs, 0.3 + 0.1j)
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal((block.dim, 5)) + 1j * rng.standard_normal((block.dim, 5))
    kept = rhs.copy()
    x = tridiag_solve(op, 0.4 + 0.3j, rhs)
    assert np.array_equal(rhs, kept)
    for j in range(5):
        col = tridiag_solve(op, 0.4 + 0.3j, rhs[:, j])
        assert np.linalg.norm(x[:, j] - col) <= 1e-14 * np.linalg.norm(col)


def test_eigvec_of_an_exact_eigenvalue_takes_no_solve(sphere_l1):
    # diag (1, 0, 1) at x = 0: the shift 0 is an exact eigenvalue, where
    # the solve hits a zero pivot; the twisted factorization needs no solve
    # and reads the residual 0 at the zero slot
    import kbmlab.eig

    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.0)
    with pytest.raises(EigensolveError):
        tridiag_solve(op, 0.0, np.ones(3))
    scale, g, v = kbmlab.eig._twisted(one_row(op), [0.0])
    assert g[0] == 0.0 and v.tolist() == [[0.0, 1.0, 0.0]]


def _parity_block(K, eta, k_max):
    """A symmetric block for the parity property: the truncation [-k_max,
    k_max] for K <= 0, else the sphere ladder K*l*(l+1) with the largest
    l <= k_max that keeps eta_l <= eta (at least l = 1)."""
    if K > 0.0:
        l = k_max
        while l > 1 and K * (l * (l + 1)) > eta:
            l -= 1
        eta = K * (l * (l + 1))
    return block_at(eta, K, k_max)


@given(
    K=st.floats(-2.0, 2.0),
    eta=st.floats(0.0, 50.0, exclude_min=True),
    k_max=st.integers(1, 40),
    x_re=st.floats(-1.0, 1.0),
    x_im=st.floats(-1.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_parity_sectors_split_the_block_exactly(K, eta, k_max, x_re, x_im):
    block = _parity_block(K, eta, k_max)
    coeffs = ladder_coefficients(block)
    x = complex(x_re, x_im)
    full = assemble_perturbed(block, coeffs, x).to_dense()
    # J e_k = (-1)^k e_{-k}: reverse the modes and flip the odd ones
    sign = (-1.0) ** np.abs(block.ks)
    assert np.array_equal(sign[:, None] * sign[None, :] * full[::-1, ::-1], full)

    even = even_sector(coeffs, x)
    odd = odd_sector(even)
    # the odd sector is empty only on a single-mode block (tiny K * eta)
    assert even.dim == block.k_max + 1
    assert (0 if odd is None else odd.dim) == block.k_max
    union = parity_eigvals(even, odd)
    ref = np.linalg.eigvals(full)
    assert union.size == ref.size
    # sorting cannot pair conjugates or near ties reliably; match the two
    # multisets by an optimal assignment instead
    dist = np.abs(union[:, None] - ref[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    norm = float(np.max(np.sum(np.abs(full), axis=1)))
    assert np.max(dist[rows, cols]) <= 1e-10 * (1.0 + norm)


def test_parity_sectors_of_the_sphere_l1_block(sphere_l1):
    # even basis e_0, (e_1 - e_-1)/sqrt(2): rung 0 carries sqrt(2) * a_0 = 1
    block, coeffs = sphere_l1
    even = even_sector(coeffs, 0.3)
    odd = odd_sector(even)
    assert np.array_equal(even.diag, [0.0, 1.0]) and np.array_equal(odd.diag, [1.0])
    assert even.coupling[0] == pytest.approx(0.3, rel=1e-15)
    assert np.array_equal(np.diag(even.to_dense(), 1), -even.coupling)
    assert even.coupling.dtype == np.float64 and odd.coupling.size == 0
    trivial = finite_block(0.0, 1.0)
    even0 = even_sector(ladder_coefficients(trivial), 0.3)
    assert even0.dim == 1 and odd_sector(even0) is None


@given(
    kind=st.sampled_from(["sphere", "torus", "negative"]),
    k=st.integers(0, 30),
    eta=st.floats(0.1, 50.0),
    K=st.floats(-2.0, -0.1),
    xs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1, max_size=6),
    complex_x=st.booleans(),
    stacked=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_odd_sector_is_the_assembled_odd_sector_bit_for_bit(
    kind, k, eta, K, xs, complex_x, stacked
):
    # sphere l = 0 is the single-mode block; truncations need k_max >= 1
    block = property_block(kind, k if kind == "sphere" else max(k, 1), eta, K)
    coeffs = ladder_coefficients(block)
    x = np.array([complex(re, im) if complex_x else re for re, im in xs])
    if not stacked:
        x = x[0]
    even = even_sector(coeffs, x)
    odd = odd_sector(even)
    ref = assembled_odd_sector(block, coeffs, x)
    if ref is None:
        assert block.k_max == 0 and odd is None
        return
    assert odd.dim == block.k_max
    assert odd.coupling.dtype == (np.complex128 if complex_x else np.float64)
    for name in ("diag", "coupling"):
        got, want = getattr(odd, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        # a slice of the even sector, not a new assembly
        assert got.size == 0 or np.shares_memory(got, getattr(even, name))


def _sector_formulas(block, coeffs, x):
    """The even sector's views written out one by one, as the package
    formed them before ``EvenSector`` held them: the operator at x (a
    scalar or a 1-d array, real or complex), Newton's float lists at the
    first real x, the squared rungs of the exceptional point's recurrence
    and the diagonal and rungs of the Kato radius, the real parts of the
    operator at x = 1."""

    def operator_at(x):
        m = block.k_max
        x = np.asarray(x)
        ms = np.arange(m + 1.0)
        coupling = x[..., None] * coeffs.a[m:]
        coupling[..., :1] *= math.sqrt(2.0)
        diag = ms * ms
        if x.ndim:
            diag = diag[None].repeat(x.size, axis=0)
        return TridiagonalOperator(diag=diag, coupling=coupling)

    x0 = float(np.real(np.ravel(x)[0]))
    rungs = coeffs.a[block.k_max :].tolist()
    s = [x0 * a for a in rungs]
    if s:
        s[0] *= math.sqrt(2.0)
    lists = ([float(m * m) for m in range(block.k_max + 1)], [-(v * v) for v in s])
    squared = [v * v for v in rungs]
    if squared:
        squared[0] *= 2.0
    unit = operator_at(1.0)
    return operator_at(x), x0, lists, squared, (unit.diag, unit.coupling)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@given(
    kind=st.sampled_from(["sphere", "flat", "hyperbolic"]),
    l=st.integers(0, 40),
    k=st.integers(1, 64),
    eta=st.floats(0.1, 1e4),
    xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    x_im=st.floats(-1.0, 1.0),
    complex_x=st.booleans(),
    stacked=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_every_view_of_the_even_sector_has_the_bits_of_its_formula(
    kind, l, k, eta, xs, x_im, complex_x, stacked
):
    # sphere blocks l <= 40, K = 0 and K = -1 truncations k <= 64; the
    # operator view at a real or complex scalar x and at a stack of x, the
    # float views at a real x, each bitwise its formula, signed zeros
    # included
    if kind == "sphere":
        block = block_at(float(l * (l + 1)), 1.0, k)
    else:
        block = block_at(eta, 0.0 if kind == "flat" else -1.0, k)
    coeffs = ladder_coefficients(block)
    x = np.array([complex(v, x_im) if complex_x else v for v in xs])
    if not stacked:
        x = x[0] if complex_x else float(xs[0])
    sector = EvenSector.of(coeffs)
    op, x0, lists, squared, (unit_diag, unit_rungs) = _sector_formulas(block, coeffs, x)
    assert len(sector.diag) == block.k_max + 1

    got = sector.at(x)
    assert got.coupling.dtype == (np.complex128 if complex_x else np.float64)
    for name in ("diag", "coupling"):
        assert _same_bits(getattr(got, name), getattr(op, name)), name
    if stacked:
        for i, xi in enumerate(x):
            alone = sector.at(xi)
            for name in ("diag", "coupling"):
                assert _same_bits(getattr(got, name)[i], getattr(alone, name)), name

    diag, rungs = sector.lists(x0)
    assert diag == lists[0] and all(type(v) is float for v in diag + rungs)
    assert _same_bits(diag, lists[0]) and _same_bits(rungs, lists[1])

    assert _same_bits(sector.squared_rungs(), squared)
    assert _same_bits(np.array(sector.diag), unit_diag)
    assert _same_bits(sector.coupling(1.0), unit_rungs)


def test_the_sector_record_rejects_coefficients_of_another_block(sphere_l1):
    # the record takes the coefficients alone and is always their block's;
    # a block passed next to them is refused
    block, _ = sphere_l1
    other = ladder_coefficients(finite_block(6.0, 1.0))
    with pytest.raises(TypeError):
        EvenSector.of(block, other)
    assert EvenSector.of(other).block is other.block
