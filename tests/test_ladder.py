import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbmlab import (
    CasimirBlock,
    LadderCoefficients,
    LadderRangeError,
    TruncationError,
    assemble_perturbed,
    block_at,
    casimir_residual,
    coupling_matrix,
    eig_dense,
    finite_block,
    fixed_truncation,
    ladder_coeff_sq,
    ladder_coefficients,
    ladder_extent,
    lowering_coeff_sq,
    lowering_matrix,
    raising_matrix,
    sphere_spectrum,
    truncate,
    vertical_matrix,
)

from conftest import match_spectra, property_block
from kbmlab.ladder import MAX_LADDER_SLOTS, TOL_ZERO


def test_coeff_sq_direct_substitution():
    assert ladder_coeff_sq(2.0, 1.0, 0) == 0.5
    assert ladder_coeff_sq(0.0, -1.0, 0) == 0.0


@given(eta=st.floats(0.0, 50.0), k=st.integers(-50, 50))
def test_coeff_sq_flat_case_is_mode_independent(eta, k):
    assert ladder_coeff_sq(eta, 0.0, k) == eta / 4.0


@given(
    eta=st.floats(0.0, 50.0),
    K=st.floats(-4.0, 4.0),
    k=st.integers(-40, 40),
)
def test_raising_and_lowering_coefficients_are_consistent(eta, K, k):
    # the lowering coefficient at mode k is the raising coefficient one rung below
    assert lowering_coeff_sq(eta, K, k) == pytest.approx(
        ladder_coeff_sq(eta, K, k - 1), abs=1e-12
    )


@pytest.mark.parametrize(
    "eta,K,k_min,k_max",
    [(2.0, 1.0, -1, 1), (6.0, 1.0, -2, 2), (12.0, 1.0, -3, 3), (8.0, 4.0, -1, 1)],
)
def test_extent_sphere_cases(eta, K, k_min, k_max):
    assert ladder_extent(eta, K) == k_max
    block = finite_block(eta, K)
    assert (block.ks[0], block.k_max, block.finite) == (k_min, k_max, True)


def test_extent_negative_curvature_is_unbounded():
    assert ladder_extent(5.0, -1.0) is None
    with pytest.raises(LadderRangeError, match="infinite"):
        finite_block(5.0, -1.0)


def test_extent_trivial_block_is_single_slot():
    assert ladder_extent(0.0, -1.0) == 0
    assert ladder_extent(0.0, 1.0) == 0
    for K in (-1.0, 1.0):
        block = finite_block(0.0, K)
        assert (block.k_max, block.dim, block.finite) == (0, 1, True)


def test_extent_rejects_negative_eta():
    with pytest.raises(LadderRangeError):
        ladder_extent(-1.0, 1.0)


@given(log_k=st.floats(-150.0, 150.0), l=st.integers(0, 256))
@settings(max_examples=200, deadline=None)
def test_extent_recovers_sphere_ladder(log_k, l):
    # the rung test is relative to the rung's scale, so the level
    # eta = K*l*(l+1) of a sphere of any curvature ends at k_max = l
    K = 10.0 ** log_k
    eta = sphere_spectrum(K, l).entries[l].eta
    assert ladder_extent(eta, K) == l
    block = finite_block(eta, K)
    assert block.k_max == l
    assert np.all(ladder_coefficients(block).a > 0.0)


def test_extent_of_a_ladder_beyond_the_float_range_is_refused():
    # eta / K overflows to inf: the ladder is longer than any block may be
    with pytest.raises(LadderRangeError, match="exceeds"):
        ladder_extent(1e10, 1e-300)


def test_block_rejects_inexact_termination():
    # eta=3 with K=1 is not of the form l*(l+1): no finite ladder exists
    with pytest.raises(LadderRangeError):
        CasimirBlock(curvature=1.0, eta=3.0, k_max=1)


@pytest.mark.parametrize("eta", [3.0, 1e-20])
def test_an_eta_off_the_sphere_levels_has_no_block(eta):
    # neither is K*l*(l+1) on K = 1: the rung c_0 = eta/4 is its whole
    # scale, so a tiny eta is no single-mode block, and eta = 3 ends between
    # two levels; every range is refused
    with pytest.raises(LadderRangeError, match="must terminate"):
        finite_block(eta, 1.0)
    for k_max in range(4):
        with pytest.raises(LadderRangeError):
            CasimirBlock(curvature=1.0, eta=eta, k_max=k_max)


def test_block_rejects_truncation_of_positive_curvature():
    # a K > 0 block is always finite: a wider range than the ladder's own
    # is no truncation but a negative rung
    with pytest.raises(LadderRangeError):
        CasimirBlock(curvature=1.0, eta=2.0, k_max=5)


def test_blocks_compare_and_hash_by_curvature_eta_and_cutoff():
    block = CasimirBlock(curvature=-1.0, eta=5.0, k_max=8)
    twin = truncate(5.0, -1.0, fixed_truncation(8))
    assert twin is not block and twin == block and hash(twin) == hash(block)
    assert {block: 1}[twin] == 1 and len({block, twin}) == 1
    for other in (
        CasimirBlock(curvature=-1.0, eta=2.0, k_max=8),
        CasimirBlock(curvature=-1.0, eta=5.0, k_max=16),
        CasimirBlock(curvature=0.0, eta=5.0, k_max=8),
    ):
        assert other != block and len({block, other}) == 2
    assert finite_block(2.0, 1.0) == CasimirBlock(curvature=1.0, eta=2.0, k_max=1)


def test_coefficients_sphere_l1(sphere_l1):
    _, coeffs = sphere_l1
    assert np.allclose(coeffs.a, np.sqrt(0.5), atol=0, rtol=1e-15)


def test_coefficients_reject_range_outside_block():
    ok = CasimirBlock(curvature=-1.0, eta=5.0, k_max=4)
    ladder_coefficients(ok)  # K <= 0 coefficients never go negative
    with pytest.raises(LadderRangeError):
        # squared coefficient goes negative beyond the intrinsic top rung
        CasimirBlock(curvature=1.0, eta=2.0, k_max=3)


@pytest.mark.parametrize("eta, K, k_max", [(6.0, 1.0, None), (5.0, -1.0, 48), (2.0, 0.0, 12)])
@pytest.mark.parametrize("where", ["bottom", "middle", "top"])
def test_a_coefficient_perturbed_at_one_rung_is_rejected_at_its_k(eta, K, k_max, where):
    block = block_at(eta, K, k_max)
    a = ladder_coefficients(block).a
    j = {"bottom": 0, "middle": a.size // 2, "top": a.size - 1}[where]
    bad = a.copy()
    bad[j] += 1e-3 * (1.0 + bad[j])
    k = j - block.k_max
    with pytest.raises(LadderRangeError, match=rf"^a_{k}\^2 violates the raising norm identity$"):
        LadderCoefficients(block=block, a=bad)
    # with the top rung broken as well, the lower k is the one named
    bad[-1] += 1e-3 * (1.0 + bad[-1])
    with pytest.raises(LadderRangeError, match=rf"^a_{k}\^2 violates"):
        LadderCoefficients(block=block, a=bad)
    # a perturbation inside the tolerance is accepted
    ok = a.copy()
    ok[j] *= 1.0 + 1e-15
    LadderCoefficients(block=block, a=ok)


def _loop_coefficient_check(block, a):
    """The identity check one rung at a time: the message for the first
    offending rung, or None.  The tolerance is relative to the larger
    scale (eta + |K| m(m+1))/4 of the rung (m = k) and of the next one
    (m = k + 1), whose terms the lowering formula from mode k + 1 sums."""
    eta, K = block.eta, block.curvature
    for j, k in enumerate(range(-block.k_max, block.k_max)):
        up = ladder_coeff_sq(eta, K, k)
        down = lowering_coeff_sq(eta, K, k + 1)
        tol = TOL_ZERO * max(0.25 * (eta + abs(K) * m * (m + 1)) for m in (k, k + 1))
        if abs(a[j] ** 2 - up) > tol:
            return f"a_{k}^2 violates the raising norm identity"
        if abs(a[j] ** 2 - down) > tol:
            return f"a_{k}^2 violates the lowering norm identity"
    return None


@given(
    kind=st.sampled_from(["sphere", "torus", "negative"]),
    k=st.integers(1, 64),
    eta=st.floats(0.1, 1e4),
    K=st.floats(-2.0, -0.1),
    rungs=st.lists(st.integers(0, 10**6), max_size=3),
    size=st.sampled_from([1e-16, 1e-13, 1e-12, 1e-11, 1e-6]),
)
@settings(max_examples=100, deadline=None)
def test_the_coefficient_check_decides_as_the_loop_over_rungs(kind, k, eta, K, rungs, size):
    block = property_block(kind, k, eta, K)
    a = ladder_coefficients(block).a.copy()
    for r in rungs:
        a[r % a.size] += size * (1.0 + a[r % a.size])
    expected = _loop_coefficient_check(block, a)
    if expected is None:
        LadderCoefficients(block=block, a=a)
    else:
        with pytest.raises(LadderRangeError) as err:
            LadderCoefficients(block=block, a=a)
        assert str(err.value) == expected


@pytest.mark.parametrize("eta, k_max", [(2.0, 3), (6.0, 4), (12.0, 5)])
def test_a_finite_range_past_the_ladder_does_not_terminate(eta, k_max):
    # the range holds negative rungs, from k = -k_max on; its top rung does
    # not vanish, and that is the one check a finite block makes
    assert ladder_coeff_sq(eta, 1.0, -k_max) < 0.0
    with pytest.raises(
        LadderRangeError, match="^finite ladder must terminate exactly where a coefficient vanishes$"
    ):
        CasimirBlock(curvature=1.0, eta=eta, k_max=k_max)


def test_casimir_residual_examples(sphere_l1, hyperbolic_block):
    _, coeffs = sphere_l1
    assert casimir_residual(coeffs) <= 1e-12
    _, coeffs_h = hyperbolic_block
    assert casimir_residual(coeffs_h) <= 1e-12
    trivial = ladder_coefficients(finite_block(0.0, -1.0))
    assert casimir_residual(trivial) == 0.0


def test_coupling_is_exactly_skew(sphere_l1, hyperbolic_block):
    for _, coeffs in (sphere_l1, hyperbolic_block):
        x = coupling_matrix(coeffs)
        assert np.max(np.abs(x + x.T)) == 0.0


def test_adjoint_relation(sphere_l1, hyperbolic_block):
    # raising* = -lowering in the fixed real gauge
    for _, coeffs in (sphere_l1, hyperbolic_block):
        assert np.array_equal(raising_matrix(coeffs).T.conj(), -lowering_matrix(coeffs))


def test_raising_lowering_scalar_products(hyperbolic_block):
    block, coeffs = hyperbolic_block
    prod = raising_matrix(coeffs) @ lowering_matrix(coeffs)
    diag = np.diag(prod)
    for j, k in enumerate(block.ks):
        if j == 0:  # the bottom row stencil crosses the truncation boundary
            continue
        assert diag[j] == pytest.approx(-lowering_coeff_sq(block.eta, block.curvature, int(k)), abs=1e-12)


def test_commutator_with_vertical_field(sphere_l1, hyperbolic_block):
    # [V, raising] = i*raising and [V, lowering] = -i*lowering on interior rows
    for block, coeffs in (sphere_l1, hyperbolic_block):
        v = vertical_matrix(block)
        xp = raising_matrix(coeffs).astype(complex)
        xm = lowering_matrix(coeffs).astype(complex)
        comm_p = v @ xp - xp @ v - 1j * xp
        comm_m = v @ xm - xm @ v + 1j * xm
        assert np.max(np.abs(comm_p)) <= 1e-12
        assert np.max(np.abs(comm_m)) <= 1e-12


def test_gauge_invariance_of_spectra(sphere_l1, hyperbolic_block):
    from kbmlab import assemble_generator

    rng = np.random.default_rng(11)
    ops = []
    for block, coeffs in (sphere_l1, hyperbolic_block):
        ops.append(assemble_perturbed(block, coeffs, 0.37))
        ops.append(assemble_generator(coeffs, 7.0))
    for op in ops:
        base = eig_dense(op)
        dense = op.to_dense()
        n = dense.shape[0]
        for _ in range(10):
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
            u = np.diag(phases)
            conj = np.conj(u.T) @ dense @ u
            eigs = np.linalg.eigvals(conj)
            assert match_spectra(base, eigs, 1e-10)


def test_interior_casimir_residual_on_wide_truncation():
    block = truncate(5.0, -1.0, fixed_truncation(40))
    coeffs = ladder_coefficients(block)
    assert casimir_residual(coeffs) <= 1e-12


def _rejected_with_k_min(K, eta, k_max):
    """Whether a block on [k_min, k_max] = [-k_max, k_max] with finite = (K > 0
    or eta = 0), the one flag consistent with K and eta, fails the checks
    of the record that also stored k_min and finite."""
    k_min, finite = -k_max, K > 0.0 or eta == 0.0
    if not eta >= 0.0:
        return True
    if not (isinstance(k_min, int) and isinstance(k_max, int)) or not k_min <= 0 <= k_max:
        return True
    if k_max - k_min + 1 > MAX_LADDER_SLOTS:
        return True
    if eta == 0.0:
        return k_min != 0 or k_max != 0
    if np.any(ladder_coeff_sq(eta, K, np.arange(k_min, k_max)) < 0.0):
        return True
    if finite:
        # both ends must vanish, relative to the scale of their terms
        top = ladder_coeff_sq(eta, K, k_max)
        bot = lowering_coeff_sq(eta, K, k_min)
        tol = TOL_ZERO * 0.25 * (eta + abs(K) * k_max * (k_max + 1))
        return abs(top) > tol or abs(bot) > tol
    return False


def _check_layout(block):
    # the formulas of the record that stored k_min = -k_max
    k_min = -block.k_max
    assert np.array_equal(block.ks, np.arange(k_min, block.k_max + 1))
    assert block.dim == block.k_max - k_min + 1 == block.ks.size
    assert block.slot0 == -k_min and block.ks[block.slot0] == 0
    assert block.finite == (block.curvature > 0.0 or block.eta == 0.0)


@given(
    sign=st.sampled_from([1.0, 0.0, -1.0]),
    size=st.floats(0.05, 4.0),
    eta_kind=st.sampled_from(["zero", "ladder", "positive", "negative"]),
    l=st.integers(0, 64),
    raw_eta=st.floats(1e-3, 1e4),
    k_max=st.integers(0, 64),
    on_ladder=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_a_block_is_curvature_eta_and_k_max(sign, size, eta_kind, l, raw_eta, k_max, on_ladder):
    K = sign * size
    eta = {
        "zero": 0.0,
        "ladder": abs(K) * l * (l + 1),  # a sphere level when K > 0
        "positive": raw_eta,
        "negative": -raw_eta,
    }[eta_kind]
    if on_ladder:
        k_max = l
    # direct construction rejects exactly what the k_min record rejected
    if _rejected_with_k_min(K, eta, k_max):
        with pytest.raises(LadderRangeError):
            CasimirBlock(curvature=K, eta=eta, k_max=k_max)
    else:
        _check_layout(CasimirBlock(curvature=K, eta=eta, k_max=k_max))
    # finite_block builds the intrinsic block, and only where there is one
    if eta < 0.0 or not (K > 0.0 or eta == 0.0):
        with pytest.raises(LadderRangeError):
            finite_block(eta, K)
    else:
        try:
            block = finite_block(eta, K)
        except LadderRangeError:
            # an eta off the ladder's levels has no intrinsic block
            assert _rejected_with_k_min(K, eta, ladder_extent(eta, K))
        else:
            assert block.k_max == ladder_extent(eta, K) and block.finite
            _check_layout(block)
    # truncate builds the infinite ladders' blocks, never finite ones
    if K <= 0.0 and eta > 0.0 and k_max >= 1:
        block = truncate(eta, K, fixed_truncation(k_max))
        assert block.k_max == k_max and not block.finite
        _check_layout(block)


@pytest.mark.parametrize("k_max", [-1, -5, 2.0, None])
def test_a_block_rejects_a_k_max_that_is_no_nonnegative_integer(k_max):
    with pytest.raises(LadderRangeError, match="k_max must be a nonnegative integer"):
        CasimirBlock(curvature=-1.0, eta=5.0, k_max=k_max)


def test_a_block_rejects_more_than_the_slot_limit():
    k = (MAX_LADDER_SLOTS - 1) // 2
    assert CasimirBlock(curvature=-1.0, eta=5.0, k_max=k).dim == MAX_LADDER_SLOTS
    with pytest.raises(LadderRangeError, match="dimension exceeds"):
        CasimirBlock(curvature=-1.0, eta=5.0, k_max=k + 1)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize(
    "K, eta",
    [(_NAN, 5.0), (_INF, 5.0), (-_INF, 5.0)]
    + [(K, eta) for K in (-1.0, 0.0, 1.0) for eta in (_NAN, _INF)],
    ids=repr,
)
def test_a_non_finite_curvature_or_eta_builds_no_block(K, eta):
    # a NaN or infinite K or eta would give NaN or infinite coefficients;
    # every constructor refuses it, truncate by its own rule when that
    # comes first (K > 0 ladders are finite)
    with pytest.raises(LadderRangeError, match="must be finite"):
        CasimirBlock(curvature=K, eta=eta, k_max=8)
    with pytest.raises(LadderRangeError, match="must be finite"):
        block_at(eta, K, 8)
    with pytest.raises(LadderRangeError, match="must be finite"):
        finite_block(eta, K)
    if K > 0.0:
        with pytest.raises(TruncationError, match="K > 0"):
            truncate(eta, K, fixed_truncation(8))
    else:
        with pytest.raises(LadderRangeError, match="must be finite"):
            truncate(eta, K, fixed_truncation(8))
