import math
import os
import pathlib
import subprocess
import sys
import textwrap

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kbmlab
import kbmlab.eig
import kbmlab.perturb
from kbmlab import (
    Contour,
    ContourPlacementError,
    LadderRangeError,
    assemble_perturbed,
    block_at,
    coupling_matrix,
    finite_block,
    fixed_truncation,
    idempotency_defect,
    ladder_coefficients,
    perturbation_radius,
    perturbation_series,
    riesz_projection,
    track_branch,
    truncate,
    zero_mode_resolvent_norm,
)

from conftest import branch_value, enclosed_count, property_block

SUITE = [(1.0, 2.0), (1.0, 6.0), (1.0, 12.0), (0.0, 1.0), (0.0, 2.0), (-1.0, 2.0), (-1.0, 5.0), (-1.0, 10.0)]


def _block(K, eta):
    block = block_at(eta, K, 32)
    return block, ladder_coefficients(block)


@pytest.mark.parametrize("K,eta", SUITE)
def test_series_first_order_vanishes_structurally(K, eta):
    block, coeffs = _block(K, eta)
    series = perturbation_series(coeffs)
    # coupling moves between neighbouring modes only, so mu1 is exactly 0
    assert abs(series.mu1) <= 1e-15


@pytest.mark.parametrize("K,eta", SUITE)
def test_series_second_order_recovers_eta(K, eta):
    block, coeffs = _block(K, eta)
    series = perturbation_series(coeffs)
    assert abs(series.second_derivative - eta) <= 1e-8 * eta


def test_series_sphere_l1_quartic_oracle(sphere_l1):
    # closed-form branch is x^2 + x^4 + ... so the quadratic coefficient is 1
    block, coeffs = sphere_l1
    series = perturbation_series(coeffs)
    assert series.mu2 == pytest.approx(1.0, abs=1e-12)


def test_series_invariants(sphere_l1):
    block, coeffs = sphere_l1
    series = perturbation_series(coeffs)
    assert np.linalg.norm(series.phi0) == pytest.approx(1.0, abs=1e-15)
    off_slot = np.delete(np.abs(series.phi0), block.slot0)
    assert np.max(off_slot, initial=0.0) <= 1e-14
    assert abs(np.vdot(series.phi0, series.phi1)) <= 1e-12
    # correction equation (diag - mu0) phi1 = -(X - mu1) phi0
    from kbmlab import coupling_matrix

    lhs = (block.ks.astype(float) ** 2) * series.phi1
    rhs = -(coupling_matrix(coeffs) @ series.phi0 - series.mu1 * series.phi0)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def _dense_series(block, coeffs):
    """mu1, mu2 and phi1 with X applied as the dense coupling matrix."""
    n, i0 = block.dim, block.slot0
    phi0 = np.zeros(n, dtype=complex)
    phi0[i0] = 1.0
    x_mat = coupling_matrix(coeffs).astype(complex)
    x_phi0 = x_mat[:, i0]
    mu1 = complex(x_phi0[i0])
    diag = block.ks.astype(float) ** 2
    rhs = -(x_phi0 - mu1 * phi0)
    phi1 = np.zeros(n, dtype=complex)
    mask = np.arange(n) != i0
    phi1[mask] = rhs[mask] / diag[mask]
    return mu1, complex(np.vdot(phi0, x_mat @ phi1)), phi1


@pytest.mark.parametrize(
    "K, etas, cutoffs",
    [
        (1.0, [l * (l + 1.0) for l in range(1, 16)], [None]),
        (0.5, [0.5 * l * (l + 1) for l in range(1, 16)], [None]),
        (3.7, [3.7 * l * (l + 1) for l in range(1, 16)], [None]),
        (-1.0, [0.3, 2.0, 5.0, 300.0, 2e4], [1, 2, 7, 64, 255]),
        (0.0, [0.3, 2.0, 5.0, 300.0, 2e4], [1, 2, 7, 64, 255]),
        (-0.3, [0.3, 2.0, 5.0, 300.0, 2e4], [1, 2, 7, 64, 255]),
    ],
)
def test_series_on_the_tridiagonal_coupling_has_the_dense_bits(K, etas, cutoffs):
    # X phi is taken from the block's three diagonals; the dense product
    # adds only exact zeros, so every bit agrees, the sign of a zero too
    for eta in etas:
        for k in cutoffs:
            block = block_at(eta, K, k)
            coeffs = ladder_coefficients(block)
            series = perturbation_series(coeffs)
            mu1, mu2, phi1 = _dense_series(block, coeffs)
            assert np.array([series.mu1, series.mu2]).tobytes() == np.array([mu1, mu2]).tobytes()
            assert series.phi1.tobytes() == phi1.tobytes()


def test_series_trivial_block_is_zero():
    series = perturbation_series(ladder_coefficients(finite_block(0.0, 1.0)))
    assert series.mu1 == 0 and series.mu2 == 0


def test_series_vs_branch_taylor_remainder(sphere_l1):
    # |mu(x) - mu2 x^2| should vanish like x^4; the fitted slope must be
    # well above the cubic floor
    block, coeffs = sphere_l1
    series = perturbation_series(coeffs)
    xs = np.array([2.0**-k for k in range(3, 10)])
    remainders = []
    for x in xs:
        mu = branch_value(coeffs, float(x))
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


@pytest.mark.parametrize("eta", [2.0, 6.0, 12.0])
def test_riesz_projection_matches_the_node_by_node_quadrature(eta):
    # the blocks the collision scan projects, at its Riesz sample points 0,
    # 0.2 and 0.6 times the zero-mode bound |zeta| / sqrt(eta / 2)
    from kbmlab import tridiag_solve

    block = finite_block(eta, 1.0)
    coeffs = ladder_coefficients(block)
    contour = Contour(0.0, 0.5, 64)
    eye = np.eye(block.dim, dtype=complex)
    for frac in (0.0, 0.2, 0.6):
        op = assemble_perturbed(block, coeffs, frac * 0.5 / math.sqrt(0.5 * eta))
        ref = np.zeros((block.dim, block.dim), dtype=complex)
        for ph in np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes):
            ref -= (contour.radius / contour.nodes) * ph * tridiag_solve(op, contour.radius * ph, eye)
        assert np.max(np.abs(riesz_projection(op, contour) - ref)) <= 1e-14


@pytest.mark.parametrize("per_chunk", [5, 63, 1])
def test_riesz_projection_in_chunks_matches_the_node_by_node_quadrature(monkeypatch, per_chunk):
    # with the entry budget lowered to per_chunk resolvents of the 5x5 block,
    # the nodes are solved per_chunk at a time, and the sum of the chunks
    # still agrees with the node-by-node sum
    import kbmlab.operator
    from kbmlab import tridiag_solve

    block = finite_block(6.0, 1.0)
    coeffs = ladder_coefficients(block)
    op = assemble_perturbed(block, coeffs, 0.1)
    contour = Contour(0.0, 0.5, 64)
    eye = np.eye(block.dim, dtype=complex)
    ref = np.zeros((block.dim, block.dim), dtype=complex)
    for ph in np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes):
        ref -= (contour.radius / contour.nodes) * ph * tridiag_solve(op, contour.radius * ph, eye)
    calls = []
    real_solve = kbmlab.perturb.tridiag_solve

    def counting(op, shift, rhs):
        calls.append(np.size(shift))
        return real_solve(op, shift, rhs)

    monkeypatch.setattr(kbmlab.perturb, "tridiag_solve", counting)
    monkeypatch.setattr(kbmlab.operator, "STACK_BUDGET", per_chunk * block.dim**2)
    assert np.max(np.abs(riesz_projection(op, contour) - ref)) <= 1e-14
    full, rest = divmod(contour.nodes, per_chunk)
    assert calls == [per_chunk] * full + ([rest] if rest else [])


def test_riesz_projection_of_a_large_block_keeps_its_memory_bounded():
    # a dimension-257 block with 64 nodes: one batched solve of every node
    # would hold 64 * 257^2 complex resolvent entries (about 70 MB); in
    # chunks of the entry budget the call adds only a few MB to the peak
    # RSS of a fresh process
    script = textwrap.dedent(
        """
        import resource
        from kbmlab import (Contour, assemble_perturbed, fixed_truncation,
                            ladder_coefficients, riesz_projection, truncate)
        block = truncate(5.0, -1.0, fixed_truncation(128))
        op = assemble_perturbed(block, ladder_coefficients(block), -0.01)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        proj = riesz_projection(op, Contour(0.0, 0.5, 64))
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) / 1024.0, abs(proj.trace() - 1.0))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(kbmlab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    grown_mb, trace_error = float(out[0]), float(out[1])
    assert grown_mb < 20.0
    assert trace_error < 1e-8


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


@pytest.mark.parametrize("K,eta", SUITE)
def test_perturbation_radius_matches_the_full_block_norm(K, eta):
    # the sector split is exact: same min over nodes of 1/||X (D - zeta)^-1||
    from kbmlab import coupling_matrix

    block, coeffs = _block(K, eta)
    contour = Contour(0.0, 0.5, 64)
    x_mat = coupling_matrix(coeffs)
    k2 = block.ks.astype(float) ** 2
    full = min(1.0 / np.linalg.norm(x_mat / (k2 - z)[None, :], 2) for z in contour.points())
    assert perturbation_radius(block, coeffs, contour) == pytest.approx(full, rel=1e-13)


@pytest.mark.parametrize("nodes", [8, 64, 65])
def test_perturbation_radius_sphere_l1_closed_form(sphere_l1, nodes):
    # The even sector of the l = 1 block is m = 0, 1 with coupling
    # [[0, -1], [1, 0]] (a_0 = sqrt(eta/4) = 1/sqrt(2), times sqrt(2) on
    # rung 0), the odd sector is m = 1 alone with zero coupling.  So
    # X (D - zeta)^-1 on the even sector is [[0, -1/(1 - zeta)], [-1/zeta, 0]],
    # whose norm is max(1/|zeta|, 1/|1 - zeta|) = 2 at every node of the
    # circle |zeta| = 1/2, and r = 1/2 for any node count.
    block, coeffs = sphere_l1
    r = perturbation_radius(block, coeffs, Contour(0.0, 0.5, nodes))
    assert r == pytest.approx(0.5, rel=1e-15, abs=0.0)


@given(
    kind=st.sampled_from(["sphere", "torus", "negative"]),
    l=st.integers(1, 30),
    k=st.integers(1, 48),
    eta=st.floats(0.1, 50.0),
    K=st.floats(-2.0, -0.1),
    centered=st.booleans(),
    c_re=st.floats(-0.45, 0.45),
    c_im=st.floats(-0.45, 0.45),
    complex_center=st.booleans(),
    spread=st.floats(0.02, 0.98),
    nodes=st.integers(8, 128),
)
@settings(max_examples=200, deadline=None)
def test_perturbation_radius_equals_the_dense_definition(
    kind, l, k, eta, K, centered, c_re, c_im, complex_center, spread, nodes
):
    block = property_block(kind, l if kind == "sphere" else k, eta, K)
    coeffs = ladder_coefficients(block)
    # a circle around the centre that holds 0 and leaves out 1 (so every
    # k^2 >= 1, since the centre's real part is below 1/2)
    center = 0j if centered else complex(c_re, c_im if complex_center else 0.0)
    radius = abs(center) + spread * (abs(1.0 - center) - abs(center))
    contour = Contour(center, radius, nodes)

    x_mat = coupling_matrix(coeffs).astype(complex)
    k2 = block.ks.astype(float) ** 2
    zeta = contour.points()[:, None, None]
    norms = np.linalg.norm(x_mat[None, :, :] / (k2[None, None, :] - zeta), 2, axis=(1, 2))
    dense = float(np.min(1.0 / norms))

    r = perturbation_radius(block, coeffs, contour)
    assert r == pytest.approx(dense, rel=1e-13, abs=0.0)
    if centered:
        # the zero-mode column alone has norm sqrt(eta/2)/radius
        assert r <= radius / math.sqrt(0.5 * block.eta) * (1.0 + 1e-12)


@pytest.mark.parametrize("center", [0.0, -0.2])
@pytest.mark.parametrize("K,eta", SUITE)
def test_perturbation_radius_is_the_minimum_over_the_whole_circle(K, eta, center):
    # a real centre c <= 0 takes node 0 alone, so the node count cannot move
    # the radius; the dense definition on 4096 nodes finds no smaller one.
    # Real X and real c make the matrix at conj(zeta) the conjugate of the
    # one at zeta, with the same norm, so the nodes with theta <= pi suffice.
    block, coeffs = _block(K, eta)
    radii = {nodes: perturbation_radius(block, coeffs, Contour(center, 0.5, nodes))
             for nodes in (8, 64, 65, 4096)}
    assert len(set(radii.values())) == 1, radii

    x_mat = coupling_matrix(coeffs).astype(complex)
    k2 = block.ks.astype(float) ** 2
    zeta = Contour(center, 0.5, 4096).points()[: 4096 // 2 + 1]
    norms = np.concatenate([
        np.linalg.norm(x_mat[None, :, :] / (k2[None, None, :] - z[:, None, None]), 2, axis=(1, 2))
        for z in np.array_split(zeta, 8)
    ])
    dense = float(np.min(1.0 / norms))
    assert dense >= radii[4096] * (1.0 - 1e-13)


def _sturm_largest_eigenvalue(d, e):
    """Largest eigenvalue of the symmetric tridiagonal matrix (d, e), in
    mpmath, by bisection on the Sturm count of negative pivots."""
    n = len(d)
    lo = mpmath.mpf(0)
    hi = max(d[i] + (abs(e[i - 1]) if i else 0) + (abs(e[i]) if i < n - 1 else 0) for i in range(n))
    for _ in range(200):
        lam = (lo + hi) / 2
        q = d[0] - lam
        below = int(q < 0)
        for i in range(1, n):
            q = d[i] - lam - e[i - 1] ** 2 / (q if q else mpmath.mpf(10) ** -80)
            below += int(q < 0)
        lo, hi = (lo, lam) if below == n else (lam, hi)
    return hi


@pytest.mark.parametrize(
    "K, eta, k_max", [(-1.0, 5.0, 16), (-1.0, 5e4, 256), (0.0, 2.0, 64), (1.0, 600.0, None)]
)
def test_the_disk_radius_is_exact_within_the_continuation_margin(K, eta, k_max):
    # track_branch admits a sample only below r0 (1 - DISK_MARGIN), so the
    # float r0 of the circle |zeta| = 1/2 must be within DISK_MARGIN of the
    # exact radius of the same (float-coefficient) block, here from its
    # Gram blocks in 50 digits
    block = block_at(eta, K, k_max)
    coeffs = ladder_coefficients(block)
    m = block.k_max
    with mpmath.workdps(50):
        a = [mpmath.mpf(0)] + [mpmath.mpf(float(v)) for v in coeffs.a[m:]] + [mpmath.mpf(0)]
        a[1] *= mpmath.sqrt(2)
        w = [1 / abs(mpmath.mpf(j * j) - mpmath.mpf(0.5)) for j in range(m + 1)]
        diag = [w[j] ** 2 * (a[j] ** 2 + a[j + 1] ** 2) for j in range(m + 1)]
        off = [-a[j + 1] * a[j + 2] * w[j] * w[j + 2] for j in range(m - 1)]
        peak = max(_sturm_largest_eigenvalue(diag[s::2], off[s::2]) for s in (0, 1))
        exact = 1 / mpmath.sqrt(peak)
        r0 = perturbation_radius(block, coeffs, Contour(0.0, 0.5))
        assert abs(r0 - exact) < kbmlab.eig.DISK_MARGIN * exact


@pytest.mark.parametrize("K,eta", SUITE)
def test_every_certified_collision_lies_outside_the_kato_disk(K, eta):
    # for |x| < r0 the contour |zeta| = 1/2 holds exactly one eigenvalue, so
    # no two can meet there: on the collision scan's blocks every collision
    # that track_branch certifies has |x_c| >= r0
    block = block_at(eta, K, 48)
    coeffs = ladder_coefficients(block)
    branch = track_branch(block, coeffs, -2.5)
    radius = perturbation_radius(block, coeffs, Contour(0.0, 0.5, 64))
    assert branch.status == "collision"
    assert abs(branch.x_collision) >= radius * (1.0 - 1e-12)
    if (K, eta) == (1.0, 2.0):
        # the sphere l = 1 branch collides on the disk's edge, x_c = r0 = 1/2
        assert abs(branch.x_collision) == pytest.approx(0.5, rel=0.0, abs=1e-15)
        assert radius == pytest.approx(0.5, rel=0.0, abs=1e-15)


def test_perturbation_radius_trivial_block_is_infinite():
    block = finite_block(0.0, 1.0)
    r = perturbation_radius(block, ladder_coefficients(block), Contour(0.0, 0.5, 16))
    assert math.isinf(r)
    # the contour is validated before the infinite radius is returned, as on
    # every other block
    with pytest.raises(ContourPlacementError):
        perturbation_radius(block, ladder_coefficients(block), Contour(1.0, 0.5, 64))


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
    validate_contour_for_block(Contour(0.1 + 0.2j, 0.4, 64), block)  # holds 0 alone


@pytest.mark.parametrize(
    "contour",
    [Contour(0.0, 2.0, 64), Contour(1.0, 0.5, 64), Contour(0.5, 0.2, 64)],
    ids=["encloses k = 0, 1, -1", "leaves out the zero mode", "encloses no mode"],
)
def test_contour_must_enclose_the_zero_mode_alone(sphere_l1, contour):
    from kbmlab.perturb import validate_contour_for_block

    block, coeffs = sphere_l1
    with pytest.raises(ContourPlacementError):
        validate_contour_for_block(contour, block)
    with pytest.raises(ContourPlacementError):
        perturbation_radius(block, coeffs, contour)


# Blocks paired with the coefficients of another block: eta = 5 with the
# eta = 2 block's coefficients at cutoff 8, whose series once read 2*mu2 =
# 2.0, and one eta at the cutoffs 8 and 16.
MISMATCHED = {
    "other eta": (block_at(5.0, -1.0, 8), ladder_coefficients(block_at(2.0, -1.0, 8))),
    "other cutoff": (block_at(5.0, -1.0, 8), ladder_coefficients(block_at(5.0, -1.0, 16))),
}
# The functions that still take a block next to its coefficients.
PAIR_TAKERS = {
    "track_branch": lambda block, coeffs: track_branch(block, coeffs, -0.3).mu_values,
    "perturbation_radius": lambda block, coeffs: perturbation_radius(
        block, coeffs, Contour(0.0, 0.5, 64)
    ),
    "assemble_perturbed": lambda block, coeffs: assemble_perturbed(block, coeffs, 0.3).to_dense(),
}


@pytest.mark.parametrize("pair", MISMATCHED)
@pytest.mark.parametrize("call", PAIR_TAKERS)
def test_a_block_with_another_blocks_coefficients_is_rejected(pair, call):
    with pytest.raises(ValueError, match="paired with"):
        PAIR_TAKERS[call](*MISMATCHED[pair])


@pytest.mark.parametrize("call", PAIR_TAKERS)
def test_a_pair_of_equal_blocks_built_apart_is_accepted(call):
    block = block_at(5.0, -1.0, 8)
    coeffs = ladder_coefficients(truncate(5.0, -1.0, fixed_truncation(8)))
    assert coeffs.block is not block
    got = PAIR_TAKERS[call](block, coeffs)
    assert np.array_equal(got, PAIR_TAKERS[call](coeffs.block, coeffs))


def test_series_generator_and_sector_take_the_coefficients_alone(sphere_l1):
    from kbmlab import EvenSector, assemble_generator

    block, coeffs = sphere_l1
    for call in (
        lambda: perturbation_series(block, coeffs),
        lambda: assemble_generator(block, coeffs, 2.0),
        lambda: EvenSector.of(block, coeffs),
    ):
        with pytest.raises(TypeError):
            call()
    assert perturbation_series(coeffs).block is block
