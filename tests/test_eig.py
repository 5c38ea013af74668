import math

import mpmath
import numpy as np
import pytest
import scipy.optimize

import kbmlab.eig
import kbmlab.operator
from kbmlab import (
    BranchCollisionError,
    EigensolveError,
    EvenSector,
    TridiagonalOperator,
    assemble_generator,
    assemble_perturbed,
    block_at,
    char_poly,
    eig_dense,
    exceptional_point,
    fixed_truncation,
    inverse_iteration,
    ladder_coefficients,
    newton_polish,
    numerical_range_floor,
    odd_sector,
    track_branch,
    truncate,
)

from conftest import (
    accretivity_minimum,
    assembled_odd_sector,
    branch_value,
    even_sector,
    match_spectra,
    one_row,
    parity_eigvals,
    property_block,
    sector_parity,
    stack_of,
)


from hypothesis import given, settings
from hypothesis import strategies as st


def closed_det(x, lam):
    """Independent oracle for the 3x3 sphere block: (1-l)(l^2 - l + x^2)."""
    return (1.0 - lam) * (lam * lam - lam + x * x)


def closed_mu(x):
    return 2.0 * x * x / (1.0 + math.sqrt(1.0 - 4.0 * x * x))


def test_char_poly_matches_closed_form(sphere_l1):
    block, coeffs = sphere_l1
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8)
        lam = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
        op = assemble_perturbed(block, coeffs, x)
        cp = char_poly(op, lam)
        got = cp.value * 2.0**cp.exp2
        assert got == pytest.approx(closed_det(x, lam), abs=1e-12, rel=1e-12)


def test_char_poly_root_at_tracked_branch(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.3)
    cp = char_poly(op, 0.1)
    assert abs(cp.value * 2.0**cp.exp2) <= 1e-12


def test_char_poly_singular_diagonal(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.0)
    cp = char_poly(op, 0.0)
    assert cp.value == 0.0


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_char_poly_matches_dense_determinant(seed, n):
    # dual route: recurrence value against the dense determinant oracle
    # every complex rung product is -c^2 for some coupling c
    rng = np.random.default_rng(seed)
    op = TridiagonalOperator(
        diag=rng.standard_normal(n),
        coupling=rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1),
    )
    lam = complex(rng.standard_normal(), rng.standard_normal())
    cp = char_poly(op, lam)
    dense = np.linalg.det(op.to_dense() - lam * np.eye(n))
    scale = max(abs(dense), 1.0)
    assert abs(cp.value * 2.0**cp.exp2 - dense) <= 1e-10 * scale


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_char_poly_derivative_matches_finite_difference(seed):
    rng = np.random.default_rng(seed)
    n = 6
    op = TridiagonalOperator(
        diag=rng.standard_normal(n),
        coupling=rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1),
    )
    lam = complex(rng.standard_normal(), rng.standard_normal())
    h = 1e-6
    plus = char_poly(op, lam + h)
    minus = char_poly(op, lam - h)
    fd = (plus.value * 2.0**plus.exp2 - minus.value * 2.0**minus.exp2) / (2 * h)
    cp = char_poly(op, lam)
    dv = cp.derivative * 2.0**cp.exp2
    assert abs(dv - fd) <= 1e-5 * (1.0 + abs(dv))


def test_char_poly_one_by_one():
    op = TridiagonalOperator(diag=np.array([0.0]), coupling=np.zeros(0, dtype=complex))
    cp = char_poly(op, 0.25 + 0.5j)
    assert cp.value == -(0.25 + 0.5j) and cp.derivative == -1.0 and cp.exp2 == 0


def test_char_poly_scaling_survives_large_dimension():
    block = truncate(5.0, -1.0, fixed_truncation(300))
    coeffs = ladder_coefficients(block)
    op = assemble_perturbed(block, coeffs, 0.1)
    cp = char_poly(op, 0.01)
    assert np.isfinite(cp.value.real) and np.isfinite(cp.value.imag)
    assert cp.exp2 > 0  # determinant overflows a double without rescaling
    root, ok, _ = newton_polish(op, 0.02)
    assert ok
    assert abs(root - branch_value(coeffs, 0.1)) <= 1e-12


def _reference_char_poly(op, lam):
    """The recurrence written plainly: numpy scalars, starting from the
    float values ``char_poly`` starts from, and the largest of all four
    magnitudes tested against 2**+-512 on every rung."""
    big, small = 2.0**512, 2.0**-512
    lam = complex(lam)
    d, c = op.diag, -(op.coupling * op.coupling)
    p_prev, p = np.float64(1.0), d[0] - lam
    dp_prev, dp = np.float64(0.0), np.float64(-1.0)
    exp2 = 0
    with np.errstate(all="ignore"):
        for j in range(1, op.dim):
            t = d[j] - lam
            p, p_prev = t * p - c[j - 1] * p_prev, p
            dp, dp_prev = t * dp - p_prev - c[j - 1] * dp_prev, dp
            m = max(abs(p), abs(p_prev), abs(dp), abs(dp_prev))
            if m > big:
                p, p_prev, dp, dp_prev = (v * small for v in (p, p_prev, dp, dp_prev))
                exp2 += 512
            elif 0.0 < m < small:
                p, p_prev, dp, dp_prev = (v * big for v in (p, p_prev, dp, dp_prev))
                exp2 -= 512
    return p, dp, exp2


def _same_bits(got, ref):
    return (
        np.complex128(got.value).tobytes() == np.complex128(ref[0]).tobytes()
        and np.complex128(got.derivative).tobytes() == np.complex128(ref[1]).tobytes()
        and got.exp2 == ref[2]
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    log_scale=st.floats(-120.0, 60.0),
    real=st.booleans(),
    big_first=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_char_poly_is_bitwise_the_plain_recurrence(seed, n, log_scale, real, big_first):
    # entries from 1e-120 (every rung rescales up) to 1e60 (rescales down)
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale

    def draw(size):
        v = rng.standard_normal(size)
        if not real:
            v = v + 1j * rng.standard_normal(size)
        return scale * v

    diag = scale * rng.standard_normal(n)
    if big_first:
        diag[0] = 1e170  # |d_0 - lambda| > 2**512 on the first rung
    # every complex rung product is -c^2 for some coupling c
    op = TridiagonalOperator(diag=diag, coupling=draw(n - 1))
    lam = complex(draw(1)[0])
    assert _same_bits(char_poly(op, lam), _reference_char_poly(op, lam))


def test_char_poly_first_rung_weighs_the_first_diagonal():
    # |p| = 2**-88 and |dp| < 2**512 after rung 1 are in range, but |d_0| >
    # 2**512 is not, so the four-way test rescales there: d_1*d_0 rounds to
    # -2**1022, which the rung product -c^2 = -2**1022 - 2**-88 i cancels
    d0 = np.nextafter(2.0**512, math.inf)
    d1 = -(2.0**1022 / d0)
    op = TridiagonalOperator(
        diag=np.array([d0, d1]), coupling=np.array([complex(2.0**511, 2.0**-600)])
    )
    ref = _reference_char_poly(op, 0.0)
    assert ref[2] == 512
    assert _same_bits(char_poly(op, 0.0), ref)


def test_char_poly_rescales_underflowing_determinants():
    # the rescale follows the largest magnitude, here |dp_prev| ~ |p| / d^2,
    # so p itself stays a normal float only while d**3 >> 2**-510 (d >> 1e-51)
    rng = np.random.default_rng(5)
    diag = 1e-40 * rng.uniform(0.5, 2.0, 40)
    op = TridiagonalOperator(diag=diag, coupling=np.zeros(39))
    cp = char_poly(op, 0.0)
    assert cp.exp2 < 0  # the determinant is about 1e-1600
    got = math.log2(abs(cp.value)) + cp.exp2
    assert got == pytest.approx(float(np.sum(np.log2(diag))), rel=1e-12)


@given(
    kind=st.sampled_from(["sphere", "torus", "negative"]),
    k=st.integers(1, 256),
    eta=st.floats(0.1, 1e4),
    K=st.floats(-2.0, -0.1),
    x=st.floats(-3.0, 3.0),
    mu_frac=st.floats(-0.1, 1.1),
    mu_im=st.floats(-3.0, 3.0),
    complex_mu=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_char_poly_of_the_sector_at_real_x_is_bitwise_its_lists(
    kind, k, eta, K, x, mu_frac, mu_im, complex_mu
):
    # at real x the operator's diagonal and rung products -c^2 are the
    # float lists that the continuation's Newton reads, so both routes give
    # the same bits, in float arithmetic from a real mu and in complex
    # arithmetic from a complex one
    coeffs = ladder_coefficients(property_block(kind, k, eta, K))
    sector = EvenSector.of(coeffs)
    mu = mu_frac * coeffs.block.k_max**2
    if complex_mu:
        mu = complex(mu, mu_im)
    got = char_poly(sector.at(x), mu)
    ref = kbmlab.eig._char_poly(*sector.lists(x), mu)
    assert isinstance(got.value, complex) == complex_mu
    assert type(got.value) is type(ref.value) and _same_bits(got, ref)


@given(
    kind=st.sampled_from(["sphere", "torus", "negative"]),
    k=st.integers(1, 256),
    eta=st.floats(0.1, 1e4),
    K=st.floats(-2.0, -0.1),
    x=st.floats(-3.0, 3.0),
    mu_frac=st.floats(-0.1, 1.1),
    mu_im=st.floats(-3.0, 3.0),
    complex_mu=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_newton_on_the_block_lists_is_bitwise_newton_on_the_assembled_sector(
    kind, k, eta, K, x, mu_frac, mu_im, complex_mu
):
    # the continuation's Newton at real x reads the block's float lists: in
    # float arithmetic from a real seed, in complex from a complex one; up
    # to k = 256 the recurrence rescales.  Either gives the bits of Newton
    # in complex arithmetic on the assembled sector.
    block = property_block(kind, k, eta, K)
    coeffs = ladder_coefficients(block)
    mu0 = mu_frac * block.k_max**2
    if complex_mu:
        mu0 = complex(mu0, mu_im)
    got = newton_polish(EvenSector.of(coeffs).lists(x), mu0)
    ref = newton_polish(even_sector(coeffs, x), complex(mu0))
    assert isinstance(got[0], complex) == complex_mu
    assert np.complex128(got[0]).tobytes() == np.complex128(ref[0]).tobytes()
    assert got[1:] == ref[1:]
    if not complex_mu:
        # a real root reads +0.0 as its imaginary part, as the complex one does
        assert ref[0].imag == 0.0 and math.copysign(1.0, ref[0].imag) == 1.0


def test_eig_dense_examples(sphere_l1):
    block, coeffs = sphere_l1
    eigs = eig_dense(assemble_perturbed(block, coeffs, 0.3))
    assert match_spectra(eigs, [1.0, 0.1, 0.9], 1e-10)
    eigs = eig_dense(assemble_perturbed(block, coeffs, 0.0))
    assert match_spectra(eigs, [0.0, 1.0, 1.0], 1e-12)
    eigs = eig_dense(assemble_perturbed(block, coeffs, 0.6))
    half = 0.5 * math.sqrt(0.44)
    assert match_spectra(eigs, [1.0, 0.5 + 1j * half, 0.5 - 1j * half], 1e-10)


def test_eig_dense_dimension_guard():
    block = truncate(1.0, 0.0, fixed_truncation(2500))
    coeffs = ladder_coefficients(block)
    with pytest.raises(EigensolveError):
        eig_dense(assemble_perturbed(block, coeffs, 0.1))


def test_eig_dense_takes_the_real_path_exactly_when_the_coupling_is_real(
    hyperbolic_block, monkeypatch
):
    # the dtype of the coupling decides: real at real x and for every
    # generator, complex at complex x, even one with a zero imaginary part
    block, coeffs = hyperbolic_block
    sector = EvenSector.of(coeffs)
    ops = [
        assemble_perturbed(block, coeffs, -0.3),
        assemble_perturbed(block, coeffs, -0.3 + 0j),
        assemble_perturbed(block, coeffs, 0.2 + 0.1j),
        assemble_generator(coeffs, 2.0),
        sector.at(-0.3),
        sector.at(np.array([-0.3, -0.1])),
        sector.at(-0.3 + 0j),
        odd_sector(sector.at(np.array([0.2 + 0.1j, -0.1]))),
    ]
    solved = []
    real_eigvals = np.linalg.eigvals

    def eigvals(a):
        solved.append(a.dtype)
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    for op, real in zip(ops, [True, False, False, True, True, True, False, False]):
        solved.clear()
        eigs = eig_dense(op)
        assert (op.coupling.dtype == np.float64) == real
        assert solved == [np.dtype(float if real else complex)]
        assert eigs.dtype == np.complex128 and eigs.shape == op.diag.shape


def test_eig_dense_solves_real_sectors_in_real_arithmetic():
    block = truncate(300.0, -1.0, fixed_truncation(147))
    coeffs = ladder_coefficients(block)
    even = even_sector(coeffs, -0.05)
    odd = odd_sector(even)
    assert np.count_nonzero(eig_dense(even).imag) == 2  # one complex pair
    for op in (even, odd):
        eigs = eig_dense(op)
        assert eigs.dtype == np.complex128
        # the real solver returns non-real eigenvalues as exact conjugate pairs
        cplx = eigs[eigs.imag != 0.0]
        assert np.array_equal(np.sort_complex(cplx), np.sort_complex(np.conj(cplx)))
        ref = np.linalg.eigvals(op.to_dense())
        dist = np.abs(eigs[:, None] - ref[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(dist)
        assert np.max(dist[rows, cols]) <= 1e-10 * (1.0 + op.inf_norm())
    # complex x keeps the complex solve
    even_c = even_sector(coeffs, -0.05 + 0.01j)
    assert np.array_equal(eig_dense(even_c), np.linalg.eigvals(even_c.to_dense()))


@pytest.mark.parametrize("k_max, budget", [(4, 100), (4, 80), (8, 50), (8, 100), (8, 300)])
def test_eig_dense_chunks_a_stack_within_the_entry_budget(monkeypatch, k_max, budget):
    # an all-real and an all-complex stack of nine sectors; with the budget
    # lowered every LAPACK call and every dense array holds at most
    # ``budget`` entries (one matrix when n^2 is larger), and each row keeps
    # the bits it gets alone and under the default budget
    block = truncate(5.0, -1.0, fixed_truncation(k_max))
    coeffs = ladder_coefficients(block)
    real_xs = -0.1 * np.arange(1.0, 10.0)
    stacks = {"f": real_xs, "c": real_xs + 0.05j * np.arange(-4.0, 5.0) + 1e-13j}
    for kind, xs in stacks.items():
        stack = even_sector(coeffs, xs)
        n = stack.dim
        whole = eig_dense(stack)
        for x, row in zip(xs, whole):
            assert row.tobytes() == eig_dense(even_sector(coeffs, x)).tobytes()

        sizes = []
        real_eigvals = np.linalg.eigvals
        real_dense = kbmlab.operator.TridiagonalOperator.to_dense

        def eigvals(a):
            sizes.append(("lapack", a.size, a.dtype.kind))
            return real_eigvals(a)

        def to_dense(op):
            sizes.append(("dense", op.diag.size * op.dim, None))
            return real_dense(op)

        with monkeypatch.context() as m:
            m.setattr(kbmlab.operator, "STACK_BUDGET", budget)
            m.setattr(np.linalg, "eigvals", eigvals)
            m.setattr(kbmlab.operator.TridiagonalOperator, "to_dense", to_dense)
            chunked = eig_dense(stack)
        assert chunked.tobytes() == whole.tobytes()
        assert all(size <= max(budget, n * n) for _, size, _ in sizes)
        # nine matrices of the stack's one kind, in whole chunks
        per_chunk = max(1, budget // (n * n))
        lapack = [k for what, _, k in sizes if what == "lapack"]
        assert lapack == [kind] * -(-9 // per_chunk)


def test_eigvec_diagonal_case(sphere_l1):
    # one matrix is a stack of one for inverse_iteration; on diag (1, 0, 1)
    # the vector is the unit vector of the middle slot, whose residual at 0
    # is exactly 0
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.0)
    res = inverse_iteration(one_row(op), [0.0])
    assert res.shape == (1,) and res[0] == 0.0


def test_eigvec_residual(sphere_l1):
    block, coeffs = sphere_l1
    op = assemble_perturbed(block, coeffs, 0.3)
    res = inverse_iteration(one_row(op), [0.1])
    assert res.shape == (1,) and 0.0 <= res[0] <= 1e-10 * op.inf_norm()
    # far from every eigenvalue the iteration stalls and the row reads NaN
    assert np.isnan(inverse_iteration(one_row(op), [0.55])[0])


def test_eigvec_overflowing_solve_moves_to_the_nudged_shift():
    # eta = 3.2e-148 on the torus: the branch value is 6e-148 at x = -2 and
    # 6e-156 at x = -2e-4, and mu is within rounding of it, so the solve at
    # mu or the square of its solution overflows; the row moves to the
    # shift 8 eps ||op|| and its residual is finite
    coeffs = ladder_coefficients(block_at(3.1582734083485954e-148, 0.0, 8))
    xs = [-2.0, -2e-4]
    mu = [branch_value(coeffs, x) for x in xs]
    sector = even_sector(coeffs, np.array(xs))
    res = inverse_iteration(sector, mu)
    assert np.all(np.isfinite(res)) and np.all(res <= 1e-10 * sector.inf_norm())


def test_track_branch_closed_form(sphere_l1):
    block, coeffs = sphere_l1
    assert branch_value(coeffs, 0.3) == pytest.approx(0.1, abs=1e-10)
    for x in np.linspace(-0.45, 0.45, 21):
        if x == 0:
            continue
        assert branch_value(coeffs, float(x)) == pytest.approx(
            closed_mu(float(x)), abs=1e-10
        )


def test_track_branch_at_zero_is_trivial(sphere_l1):
    block, coeffs = sphere_l1
    br = track_branch(block, coeffs, 0.0)
    assert br.status == "complete" and br.x_samples.size == 1 and br.mu_values[-1] == 0


def test_track_branch_flags_collision(sphere_l1):
    block, coeffs = sphere_l1
    br = track_branch(block, coeffs, 0.5)
    assert br.status == "collision"
    assert abs(abs(br.x_collision) - 0.5) <= 0.01
    with pytest.raises(BranchCollisionError):
        branch_value(coeffs, 0.55)


def _dense_deviations(block, coeffs, br):
    """Distance from each tracked value to the nearest eigenvalue of the
    dense spectrum of the assembled block at its x.  ``oracle_dev`` covers
    only the samples certified outside the Kato disk, so it is checked here
    on every sample."""
    eigs = eig_dense(stack_of([assemble_perturbed(block, coeffs, x) for x in br.x_samples]))
    return np.min(np.abs(eigs - br.mu_values[:, None]), axis=1)


def _dense_gaps(br, idx):
    """The gap to the rest of the spectrum that ``certify_samples`` gives
    each sample ``idx`` of the branch, from the sample's even sector (the
    record keeps only the verdict ``simple``)."""
    return np.array([
        kbmlab.eig.certify_samples(br.sector.at(br.x_samples[i]), br.mu_values[i]).gap
        for i in idx
    ])


def test_branch_oracle_agreement(sphere_l1):
    block, coeffs = sphere_l1
    br = track_branch(block, coeffs, 0.45)
    assert br.x_samples.size > 1
    assert np.max(_dense_deviations(block, coeffs, br)) <= 1e-9


def test_branch_residual_bound(hyperbolic_block):
    # stay inside the separation radius, which shrinks like 1/sqrt(eta)
    block, coeffs = hyperbolic_block
    br = track_branch(block, coeffs, -0.25)
    assert br.status == "complete"
    op_norm = assemble_perturbed(block, coeffs, -0.25).inf_norm()
    # the inverse-iteration residual on the full block at every sample
    full = stack_of([assemble_perturbed(block, coeffs, x) for x in br.x_samples])
    res = inverse_iteration(full, br.mu_values)
    assert np.all(np.isfinite(res))
    assert max(res) <= 1e-9 * (1.0 + op_norm)
    assert np.max(_dense_deviations(block, coeffs, br)) <= 1e-9


def test_branch_is_real_on_real_axis(sphere_l1):
    block, coeffs = sphere_l1
    for x in (0.1, 0.25, 0.4, 0.49):
        mu = branch_value(coeffs, x)
        assert abs(mu.imag) <= 1e-10


def test_branch_holomorphy_cauchy_riemann(sphere_l1):
    # centered differences of mu along the real and imaginary directions
    # must satisfy d_re mu = -i d_im mu for a holomorphic branch; the
    # continuation runs on real x, so Newton on the sector assembled at
    # each complex x polishes the branch value at the real x0
    block, coeffs = sphere_l1
    x0 = 0.12
    h = 2e-4
    seed = branch_value(coeffs, x0)
    mu = {}
    for dx in (h, -h, 1j * h, -1j * h):
        mu[dx], ok, _ = newton_polish(even_sector(coeffs, x0 + dx), seed)
        assert ok
    d_re = (mu[h] - mu[-h]) / (2 * h)
    d_im = (mu[1j * h] - mu[-1j * h]) / (2j * h)
    assert abs(d_re - d_im) <= 1e-6


def test_branch_on_truncated_flat_block():
    block = truncate(2.0, 0.0, fixed_truncation(32))
    coeffs = ladder_coefficients(block)
    mu = branch_value(coeffs, -0.02)
    # leading behavior (eta/2) x^2 with quartic correction below 1e-8
    assert mu == pytest.approx(1.0 * 0.02**2, rel=1e-2)
    assert abs(mu.imag) <= 1e-12


def test_track_branch_lands_on_checkpoints_exactly(sphere_l1):
    # 0.001 + 0.009 != 0.01 in floating point, and (x / 0.45) * 0.45 != x
    # for x = 0.057 and 0.229: the path must still sample every
    # checkpoint's own float, never a value assembled from steps
    block, coeffs = sphere_l1
    cks = [-0.001, -0.01, -0.057, -0.1, -0.229, -0.3, -0.45]
    br = track_branch(block, coeffs, cks[-1], checkpoints=cks)
    assert br.status == "complete" and len(br.checkpoint_index) == len(cks)
    assert br.checkpoint_index[-1] == br.x_samples.size - 1
    for x, i in zip(cks, br.checkpoint_index):
        assert br.x_samples[i] == x
        assert br.simple[i]
        assert br.mu_values[i] == pytest.approx(closed_mu(x), abs=1e-14)


def test_track_branch_default_checkpoint_is_target(sphere_l1):
    block, coeffs = sphere_l1
    br = track_branch(block, coeffs, 0.3)
    assert br.checkpoint_index == (br.x_samples.size - 1,)
    assert br.x_samples[-1] == 0.3
    assert track_branch(block, coeffs, 0.0).checkpoint_index == (0,)


def test_track_branch_reports_checkpoints_before_a_collision(sphere_l1):
    block, coeffs = sphere_l1
    br = track_branch(block, coeffs, -0.6, checkpoints=[-0.2, -0.4, -0.55])
    assert br.status == "collision"
    assert [br.x_samples[i] for i in br.checkpoint_index] == [-0.2, -0.4]


@pytest.mark.parametrize(
    "x_target, cks",
    [(-0.4, [-0.3, -0.1]), (-0.4, [0.1]), (-0.4, [-0.5]), (-0.4, [-0.1, -0.1]), (0.0, [0.1])],
)
def test_track_branch_rejects_checkpoints_off_the_segment(sphere_l1, x_target, cks):
    block, coeffs = sphere_l1
    with pytest.raises(ValueError):
        track_branch(block, coeffs, x_target, checkpoints=cks)


@pytest.mark.parametrize("value", [0.5j, -0.3 + 0j, np.complex128(-0.3)], ids=repr)
@pytest.mark.parametrize("where", ["x_target", "checkpoint"])
def test_a_complex_parameter_is_a_type_error_before_any_step(
    sphere_l1, monkeypatch, value, where
):
    # the continuation runs on real x; a complex value is refused even with
    # a zero imaginary part, which float() would drop with only a warning
    block, coeffs = sphere_l1
    calls = []
    monkeypatch.setattr(kbmlab.eig, "newton_polish", lambda *args: calls.append(args))
    x_target, cks = (value, ()) if where == "x_target" else (-0.4, [value, -0.4])
    with pytest.raises(TypeError):
        track_branch(block, coeffs, x_target, checkpoints=cks)
    assert calls == []


def _full_block(block, coeffs, x):
    # reference: the whole block as the "even sector" (with no odd one),
    # i.e. Newton and the gap check on the full matrix; a 1-d x gives the
    # stack, as even_sector does
    if np.ndim(x) == 0:
        return assemble_perturbed(block, coeffs, x)
    return stack_of([assemble_perturbed(block, coeffs, xi) for xi in x])


@pytest.mark.parametrize(
    "K, eta, k_max, x_target, checkpoints",
    [
        (1.0, 2.0, None, -0.6, (-0.1, -0.3, -0.45)),  # collides at |x| = 1/2
        (-1.0, 5.0, 20, -0.3, (-0.01, -0.2)),
        (-1.0, 300.0, 147, -0.2, (-0.0002, -0.002, -0.02)),  # collides
    ],
)
def test_track_branch_on_the_even_sector_matches_the_full_block(
    monkeypatch, K, eta, k_max, x_target, checkpoints
):
    block = block_at(eta, K, k_max)
    coeffs = ladder_coefficients(block)
    br = track_branch(block, coeffs, x_target, checkpoints=checkpoints)
    # Newton on the full block from each separated sample stays put; close
    # to a collision the root's condition ~ eps*||A||/gap makes both the
    # sector and the full-block root drift by up to 2e-11 from a 40-digit
    # root at eta = 300, so those samples are not held to 1e-12
    gaps = _dense_gaps(br, range(br.x_samples.size))
    separated = np.nonzero(br.simple & (gaps >= 1e-3))[0][1:]
    assert set(br.checkpoint_index) & set(np.nonzero(br.simple)[0]) <= set(separated)
    for i in separated:
        full = assemble_perturbed(block, coeffs, br.x_samples[i])
        root, ok, _ = newton_polish(full, br.mu_values[i])
        assert ok and abs(root - br.mu_values[i]) <= 1e-12

    # the full-block continuation stops at the same point with the same
    # checkpoint verdicts (its step halvings near the collision may differ)
    monkeypatch.setattr(EvenSector, "at", lambda sector, x: _full_block(block, coeffs, x))
    monkeypatch.setattr(kbmlab.eig, "odd_sector", lambda even: None)
    ref = track_branch(block, coeffs, x_target, checkpoints=checkpoints)
    assert (br.status, br.x_collision) == (ref.status, ref.x_collision)
    assert br.checkpoint_index == ref.checkpoint_index
    ck = list(br.checkpoint_index)
    assert np.array_equal(br.simple[ck], ref.simple[ck])
    assert np.array_equal(br.x_samples[: ck[-1] + 1], ref.x_samples[: ck[-1] + 1])
    assert np.max(np.abs(br.mu_values[ck] - ref.mu_values[ck])) <= 1e-12
    # the sector's certification gives the full block's gap
    assert np.allclose(gaps[ck], _dense_gaps(ref, ck), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("K, eta, k_max", [(1.0, 6.0, None), (-1.0, 2.0, 6)])
@pytest.mark.parametrize("x", [-0.05, -0.2])
def test_track_branch_matches_a_40_digit_dense_oracle(K, eta, k_max, x):
    block = block_at(eta, K, k_max)
    mu = branch_value(ladder_coefficients(block), x)
    with mpmath.workdps(40):
        ks = [int(k) for k in block.ks]
        xm = mpmath.mpf(x)
        a = mpmath.zeros(block.dim, block.dim)
        for j, k in enumerate(ks):
            a[j, j] = k * k
            if j + 1 < block.dim:
                # same gauge as ladder_coefficients, in 40 digits
                c = xm * mpmath.sqrt((mpmath.mpf(eta) - K * (k * (k + 1))) / 4)
                a[j + 1, j], a[j, j + 1] = c, -c
        eigs = mpmath.eig(a, left=False, right=False)
        nearest = min(eigs, key=lambda e: abs(e - mu))
        assert abs(complex(nearest) - mu) <= 1e-12


def _block(K, eta, k_max):
    return block_at(eta, K, k_max)


def _ep_40_digits(block, x0, mu0):
    """Root of det(A(x) - mu) = d/dmu det(A(x) - mu) = 0 on the full block
    in 40-digit arithmetic, independent of the parity split and of the
    recurrence."""
    K, eta = block.curvature, block.eta
    ks = [int(k) for k in block.ks]
    with mpmath.workdps(40):
        def det(x, mu):
            a = mpmath.zeros(block.dim, block.dim)
            for j, k in enumerate(ks):
                a[j, j] = k * k - mu
                if j + 1 < block.dim:
                    c = x * mpmath.sqrt((mpmath.mpf(eta) - K * (k * (k + 1))) / 4)
                    a[j + 1, j], a[j, j + 1] = c, -c
            return mpmath.det(a)

        def ddet(x, mu):
            return mpmath.diff(lambda m: det(x, m), mu)

        x, mu = mpmath.findroot([det, ddet], (mpmath.mpf(x0), mpmath.mpf(mu0)))
        return float(x), float(mu)


@pytest.mark.parametrize("K, eta, k_max", [(1.0, 6.0, None), (-1.0, 2.0, 6)])
def test_exceptional_point_matches_a_40_digit_solution(K, eta, k_max):
    block = _block(K, eta, k_max)
    br = track_branch(block, ladder_coefficients(block), -1.0)
    assert (br.status, br.reason) == ("collision", "exceptional point")
    x_c = br.x_collision
    # seed: two digits of x_c and the midpoint of the closest dense pair there
    eigs = np.sort(eig_dense(assemble_perturbed(block, ladder_coefficients(block), x_c)).real)
    i = int(np.argmin(np.diff(eigs)))
    x_mp, mu_mp = _ep_40_digits(block, round(x_c, 2), 0.5 * (eigs[i] + eigs[i + 1]))
    assert abs(x_c - x_mp) <= 1e-13
    assert abs(mu_mp - 0.5 * (eigs[i] + eigs[i + 1])) <= 1e-6


@pytest.mark.parametrize("x_target", [-1.0, 0.9, -0.5])
def test_sphere_exceptional_point_is_one_half(sphere_l1, x_target):
    # the 3x3 block's even sector has p = mu^2 - mu + x^2, so x_c = 1/2
    block, coeffs = sphere_l1
    br = track_branch(block, coeffs, x_target)
    assert (br.status, br.reason) == ("collision", "exceptional point")
    assert isinstance(br.x_collision, float) and br.x_collision * x_target > 0.0
    assert abs(abs(br.x_collision) - 0.5) <= 1e-15


# x_collision of the continuation to x = -1 when it still crept up to the
# collision by step halving down to a step of 1e-12
_CRAWL_X_C = [
    (1.0, 2.0, None, -0.49999999999999994),
    (1.0, 6.0, None, -0.2959258998511359),
    (1.0, 12.0, None, -0.2106084478029516),
    (1.0, 20.0, None, -0.16356417991046335),
    (1.0, 72.0, None, -0.0864524855234777),
    (-1.0, 2.0, 32, -0.5416221984080039),
    (-1.0, 5.0, 32, -0.333816053456394),
    (-1.0, 10.0, 34, -0.23410965025832417),
    (-1.0, 30.0, 52, -0.1344372858016868),
    (-1.0, 300.0, 147, -0.042410958569962534),
    (-1.0, 300.0, 294, -0.042410958569962534),
    (0.0, 1.0, 48, -0.7343843068912975),
    (0.0, 2.0, 48, -0.5192881234004743),
    (0.0, 4.0, 48, -0.3671921534449211),
]


@pytest.mark.parametrize("K, eta, k_max, x_crawl", _CRAWL_X_C)
def test_exceptional_point_agrees_with_the_step_halving_crawl(K, eta, k_max, x_crawl):
    block = _block(K, eta, k_max)
    br = track_branch(block, ladder_coefficients(block), -1.0)
    assert (br.status, br.reason) == ("collision", "exceptional point")
    x_c = br.x_collision
    # the crawl stopped at its last accepted step, short of the point
    assert abs(x_c - x_crawl) <= 1e-9 and abs(x_c) >= abs(x_crawl)
    # the point lies beyond the last sample, inside the rejected step
    assert abs(x_c) > abs(br.x_samples[-1])


def test_exceptional_point_certificate(sphere_l1, monkeypatch):
    block, coeffs = sphere_l1
    sector = EvenSector.of(coeffs)
    x_cur = -0.45
    mu_cur = closed_mu(x_cur)
    # the even sector's eigenvalues are (1 +- sqrt(1 - 4x^2)) / 2
    nu = complex(1.0 - mu_cur)
    eigs_cur = eig_dense(sector.at(x_cur))
    x_c = exceptional_point(sector, x_cur, -0.6, mu_cur, nu, eigs_cur=eigs_cur)
    assert x_c is not None and abs(x_c + 0.5) <= 1e-15
    # the neighbour is in the odd sector, complex, or on the wrong side of mu_c
    for bad_nu in (None, complex(nu.real, 0.1), complex(-0.5)):
        assert exceptional_point(sector, x_cur, -0.6, mu_cur, bad_nu, eigs_cur=eigs_cur) is None
    # the point lies beyond the step, or the step starts past it
    assert exceptional_point(sector, x_cur, -0.49, mu_cur, nu, eigs_cur=eigs_cur) is None
    assert exceptional_point(
        sector, -0.52, -0.6, 0.5, nu, eigs_cur=eig_dense(sector.at(-0.52))
    ) is None
    # the dense spectrum at x_c must hold the colliding pair; the sector's
    # one rung is x times that of the sector at x = 1
    real_dense = kbmlab.eig.eig_dense
    unit = abs(sector.at(1.0).coupling[0])

    def split_at_the_point(op):
        eigs = real_dense(op)
        if abs(op.coupling[0]) >= (0.5 - 1e-12) * unit:
            eigs[np.argmin(np.abs(eigs - 0.5))] += 1e-3
        return eigs

    monkeypatch.setattr(kbmlab.eig, "eig_dense", split_at_the_point)
    assert exceptional_point(sector, x_cur, -0.6, mu_cur, nu, eigs_cur=eigs_cur) is None


@pytest.mark.parametrize("x_target", [-1.0, 0.9, -0.6])
def test_exceptional_point_needs_an_even_neighbour(sphere_l1, monkeypatch, x_target):
    # an odd sector crowding the branch from above (a constant 0.6) stands
    # in for a block whose nearest neighbour is odd; the branch meets its
    # even partner (1 + sqrt(1 - 4x^2))/2 at x_c = 1/2, and that partner is
    # the nearer one only for x^2 > 0.24
    block, coeffs = sphere_l1

    def crowded(even):
        rows = even.diag.shape[:-1]
        return TridiagonalOperator(diag=np.full(rows + (1,), 0.6), coupling=np.zeros(rows + (0,)))

    monkeypatch.setattr(kbmlab.eig, "odd_sector", crowded)
    br = track_branch(block, coeffs, x_target)
    assert br.status == "collision" and abs(abs(br.x_collision) - 0.5) <= 1e-15
    assert abs(br.x_samples[-1]) ** 2 > 0.24


@pytest.mark.parametrize(
    "K, eta, k_max", [(1.0, 6.0, None), (1.0, 20.0, None), (1.0, 72.0, None), (-1.0, 5.0, 32)]
)
def test_exceptional_point_ignores_rounding_in_its_inputs(monkeypatch, K, eta, k_max):
    # Newton's last bit depends on its seed on these blocks, so the seed
    # comes from the sector's own dense spectrum: perturbing the tracked
    # value and its neighbour leaves the point bit for bit unchanged
    block = _block(K, eta, k_max)
    coeffs = ladder_coefficients(block)
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return exceptional_point(*args, **kwargs)

    monkeypatch.setattr(kbmlab.eig, "exceptional_point", recording)
    br = track_branch(block, coeffs, -1.0)
    assert len(calls) == 1
    (sector, x_cur, x_try, mu_cur, nu), kwargs = calls[0]
    # the continuation hands over its record of the block's sector and the
    # certified spectrum at x_cur; solving it afresh gives the same point,
    # bit for bit
    assert sector is br.sector
    fresh = eig_dense(sector.at(x_cur))
    assert exceptional_point(*calls[0][0], **kwargs) == br.x_collision
    assert exceptional_point(*calls[0][0], eigs_cur=fresh) == br.x_collision
    for rel in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7):
        for scale in (1.0 + rel, 1.0 - rel):
            x_c = exceptional_point(
                sector, x_cur, x_try, mu_cur * scale, nu * scale, eigs_cur=fresh
            )
            assert x_c == br.x_collision


@pytest.mark.parametrize(
    "K, eta, k_max",
    [(1.0, 2.0, None), (1.0, 72.0, None), (-1.0, 5.0, 16), (-1.0, 300.0, 64), (-1.0, 5e4, 256)],
)
def test_the_dense_even_spectrum_at_zero_is_exactly_m_squared(K, eta, k_max):
    # track_branch hands exceptional_point the exact unperturbed spectrum at
    # x = 0 in place of a dense solve there; the two are the same bits
    block = _block(K, eta, k_max)
    eigs = eig_dense(even_sector(ladder_coefficients(block), 0.0))
    m = np.arange(block.k_max + 1.0)
    assert eigs.tobytes() == (m * m).astype(complex).tobytes()


def test_a_non_simple_sample_just_short_of_the_exceptional_point_reports_the_point(
    sphere_l1, monkeypatch
):
    # the continuation to 0.7 accepts a sample within the collision
    # threshold of x_c = 1/2; the point lies just beyond it and is solved
    # from that sample instead of being reported as the sample itself
    block, coeffs = sphere_l1
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return exceptional_point(*args, **kwargs)

    monkeypatch.setattr(kbmlab.eig, "exceptional_point", recording)
    br = track_branch(block, coeffs, 0.7)
    assert (br.status, br.reason) == ("collision", "exceptional point")
    assert br.x_collision == 0.49999999999999994
    assert br.x_samples[-1] == 0.49999999999999983 and not br.simple[-1]
    gap = _dense_gaps(br, [-1])[0]
    assert gap <= kbmlab.eig.collision_threshold(br.mu_values[-1])
    # asked from the sample, up to the next checkpoint, with the sample's
    # even spectrum from its certification
    (_, x_cur, x_try, _, _), kwargs = calls[-1]
    assert (x_cur, x_try) == (br.x_samples[-1], 0.7)
    assert kwargs["eigs_cur"] is not None


@given(
    kind=st.sampled_from(["sphere", "torus", "negative"]),
    k=st.integers(1, 40),
    eta=st.floats(0.1, 50.0),
    K=st.floats(-2.0, -0.1),
    reach=st.floats(0.0, 2.0),
    wide=st.booleans(),
    sign=st.sampled_from([-1.0, 1.0]),
    x_im=st.floats(-1.0, 1.0),
    complex_x=st.booleans(),
    at_branch=st.integers(0, 2),
    pick=st.integers(0, 2**16),
    offset_re=st.floats(-0.5, 0.5),
    offset_im=st.floats(-0.5, 0.5),
    offset_scale=st.sampled_from([0.0, 1e-3, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_spot_check_on_the_even_sector_equals_the_union(
    kind, k, eta, K, reach, wide, sign, x_im, complex_x, at_branch, pick, offset_re, offset_im,
    offset_scale,
):
    block = property_block(kind, k, eta, K)
    coeffs = ladder_coefficients(block)
    # |x| up to about twice the separation radius, which shrinks like
    # 1/sqrt(eta) (the continuation's range, and beyond it), or up to 2
    r = reach if wide else reach / (1.0 + math.sqrt(block.eta))
    x = r * complex(sign, x_im if complex_x else 0.0)
    even = even_sector(coeffs, x)
    odd = assembled_odd_sector(block, coeffs, x)

    # every computed odd eigenvalue keeps to the numerical-range floor
    floor = numerical_range_floor(odd)
    if x.imag == 0.0:
        assert floor == 1.0
    assert floor <= accretivity_minimum(odd) + 1e-12 * (1.0 + odd.inf_norm())
    odd_eigs = eig_dense(odd)
    assert np.min(odd_eigs.real) >= floor - 1e-12 * (1.0 + odd.inf_norm())

    # mu near the even eigenvalue closest to 0 (where the tracked branch
    # lives) or near any even eigenvalue; either way the even-only check
    # decides as the union does
    even_eigs = eig_dense(even)
    i = int(np.argmin(np.abs(even_eigs))) if at_branch else pick % even.dim
    mu = even_eigs[i] + offset_scale * complex(offset_re, offset_im)
    union = parity_eigvals(even, odd)
    dist = np.abs(union - mu)
    near = np.argsort(dist, kind="stable")[:2]
    check = kbmlab.eig.certify_samples(even, mu)
    assert np.array_equal(check.even_eigs, even_eigs)
    assert check.oracle_dev == float(dist[near[0]])
    assert check.gap == float(dist[near[1]])
    nu = complex(union[near[1]]) if near[1] < even.dim else None
    assert check.nu == nu


def test_spot_check_solves_the_odd_sector_only_when_it_may_be_near(sphere_l1, monkeypatch):
    block, coeffs = sphere_l1
    even = even_sector(coeffs, 0.3)
    solved = []
    real_dense = kbmlab.eig.eig_dense

    def counting(op):
        solved.append(sector_parity(op))
        return real_dense(op)

    monkeypatch.setattr(kbmlab.eig, "eig_dense", counting)
    # the branch at 0.1, its even partner at 0.9: the odd value 1 is farther
    mu = closed_mu(0.3)
    check = kbmlab.eig.certify_samples(even, mu)
    assert solved == [1] and check.nu is not None and abs(check.nu - (1.0 - mu)) <= 1e-14
    # a point close to 1 may have the odd eigenvalue as its neighbour
    solved.clear()
    check = kbmlab.eig.certify_samples(even, 0.95)
    assert solved == [1, -1] and check.nu is None and check.gap == abs(1.0 - 0.95)
