import math

import numpy as np
import pytest

import kbmlab.spectra
from conftest import stuck_at_zero
from kbmlab import (
    BranchCollisionError,
    EigensolveError,
    SpectrumValidationError,
    adaptive_truncation,
    custom_spectrum,
    eig_dense,
    assemble_generator,
    assemble_perturbed,
    finite_block,
    fitted_decay_exponent,
    fixed_truncation,
    gamma_sweep,
    ladder_coefficients,
    make_gamma_grid,
    mixing_report,
    newton_polish,
    parity_sectors,
    sphere_spectrum,
    tail_mask,
    torus_spectrum,
    track_branch,
    truncate,
)


def closed_lambda(gamma):
    """lambda on the eta=2 sphere block for gamma > 4 (stable form)."""
    return 4.0 / (1.0 + math.sqrt(1.0 - 16.0 / (gamma * gamma)))


def test_sphere_spectrum_examples():
    s = sphere_spectrum(1.0, 2)
    assert [(e.eta, e.multiplicity) for e in s.entries] == [(0.0, 1), (2.0, 3), (6.0, 5)]
    s = sphere_spectrum(4.0, 1)
    assert [(e.eta, e.multiplicity) for e in s.entries] == [(0.0, 1), (8.0, 3)]
    s = sphere_spectrum(1.0, 0)
    assert [(e.eta, e.multiplicity) for e in s.entries] == [(0.0, 1)]


def test_sphere_spectrum_rejects_bad_input():
    with pytest.raises(SpectrumValidationError):
        sphere_spectrum(-1.0, 2)
    with pytest.raises(SpectrumValidationError):
        sphere_spectrum(1.0, -1)


def test_torus_spectrum_examples():
    s = torus_spectrum(2.0 * math.pi, 2.5)
    assert [(e.eta, e.multiplicity) for e in s.entries] == [(0.0, 1), (1.0, 4), (2.0, 4)]
    s = torus_spectrum(2.0 * math.pi, 0.5)
    assert [(e.eta, e.multiplicity) for e in s.entries] == [(0.0, 1)]
    s = torus_spectrum(math.pi, 5.0)
    assert [(e.eta, e.multiplicity) for e in s.entries] == [(0.0, 1), (4.0, 4)]


def test_custom_spectrum_validation():
    s = custom_spectrum(-1.0, [(0.0, 1), (3.838, 1)])
    assert s.source == "custom" and s.entries[1].eta == 3.838
    with pytest.raises(SpectrumValidationError):
        custom_spectrum(-1.0, [(-1.0, 1)])
    with pytest.raises(SpectrumValidationError):
        custom_spectrum(-1.0, [(2.0, 1)])  # zero mode missing
    with pytest.raises(SpectrumValidationError):
        custom_spectrum(-1.0, [(0.0, 1), (math.inf, 1)])


def test_gamma_grid_hits_decades_exactly():
    grid = make_gamma_grid(0.0, 4.0, 101)
    assert grid.size == 101
    for g in (1.0, 10.0, 100.0, 1000.0, 10000.0):
        assert g in grid


def test_sweep_closed_form_row():
    table = gamma_sweep(2.0, 1.0, [5.0])
    assert table.lam[0].real == pytest.approx(2.5, abs=1e-10)
    assert abs(table.lam[0].imag) <= 1e-12
    assert table.simple[0] and not table.collided[0]


def test_sweep_collision_row():
    table = gamma_sweep(2.0, 1.0, [4.0])
    assert not table.simple[0]
    assert table.lam[0].real == pytest.approx(4.0, abs=1e-6)


def test_sweep_trivial_eta_is_identically_zero():
    table = gamma_sweep(0.0, -1.0, [1.0, 10.0, 100.0])
    assert np.all(table.lam == 0) and np.all(table.abs_error == 0)
    assert np.all(table.simple) and not np.any(table.collided)


def test_sweep_closed_form_invariant_on_tail():
    grid = make_gamma_grid(np.log10(5.0), 3.0, 20)
    table = gamma_sweep(2.0, 1.0, grid)
    for g, lam in zip(table.gamma_grid, table.lam):
        if g > 4.0:
            assert lam.real == pytest.approx(closed_lambda(g), abs=1e-9)


def test_sweep_monotone_tail_and_rate():
    grid = make_gamma_grid(1.0, 4.0, 31)
    table = gamma_sweep(2.0, 1.0, grid)
    mask = tail_mask(grid, 2.0)
    tail = table.abs_error[mask]
    assert np.all(np.diff(tail) < 0.0)
    rate = fitted_decay_exponent(grid[mask], tail)
    assert rate is not None and rate <= -1.7


def test_sweep_empirical_r_detects_sphere_collision():
    table = gamma_sweep(2.0, 1.0, [3.0, 5.0, 10.0])
    assert table.empirical_r == pytest.approx(4.0, abs=0.05)
    # the collision point itself is |x_c| = 1/2; a spurious simplicity veto
    # near it moves x_c by 1e-4 and empirical_r by 1e-3
    table = gamma_sweep(2.0, 1.0, make_gamma_grid(0.0, 4.0, 41))
    assert abs(2.0 / table.empirical_r - 0.5) <= 1e-12
    clean = gamma_sweep(2.0, 1.0, [10.0, 100.0])
    assert clean.empirical_r is None


@pytest.mark.parametrize(
    "eta, K, grid",
    [
        (2.0, 1.0, list(make_gamma_grid(0.0, 4.0, 41))),  # collides at gamma = 4
        (300.0, -1.0, [1.0, 2.0, 5.0, 10.0, 100.0, 1e4]),
    ],
)
def test_collided_rows_are_newton_roots_of_their_sector(eta, K, grid):
    table = gamma_sweep(eta, K, grid)
    if K > 0.0:
        block = finite_block(eta, K)
    else:
        block = truncate(eta, K, fixed_truncation(int(table.k_trunc[0])))
    coeffs = ladder_coefficients(block)
    assert np.count_nonzero(table.collided) >= 4
    eps = np.finfo(float).eps
    for i in np.nonzero(table.collided)[0]:
        gamma = table.gamma_grid[i]
        mu = table.lam[i] / (0.5 * gamma * gamma)
        sectors = [s for s in parity_sectors(block, coeffs, -2.0 / gamma) if s is not None]
        # the sector whose dense spectrum holds the picked value: the even
        # one, which holds the branch through 0
        eigs = [eig_dense(s) for s in sectors]
        dist = [float(np.min(np.abs(e - mu))) for e in eigs]
        j = int(np.argmin(dist))
        assert j == 0 and dist[j] <= 1e-10
        # a raw dense pick sits up to 55 eps |mu| from the root at eta = 300
        root, ok, _ = newton_polish(sectors[j], mu)
        assert ok and abs(root - mu) <= 16.0 * eps * abs(mu)
        # and the row is exactly the root that Newton reaches from the pick
        pick = eigs[j][np.argmin(np.abs(eigs[j] - mu))]
        root, ok, _ = newton_polish(sectors[j], pick)
        assert ok and table.lam[i] == 0.5 * gamma * gamma * root


def test_collided_rows_follow_the_branch_past_the_exceptional_point():
    # past x_c = 1/2 the sphere eta = 2 branch is 1/2 + i sqrt(4x^2 - 1)/2,
    # the root with positive imaginary part of mu^2 - mu + x^2
    table = gamma_sweep(2.0, 1.0, make_gamma_grid(0.0, 4.0, 41))
    below = table.gamma_grid < 4.0
    assert np.all(table.collided[below]) and np.count_nonzero(below) == 7
    for gamma, lam in zip(table.gamma_grid[below], table.lam[below]):
        x = -2.0 / gamma
        ref = 0.5 * gamma * gamma * complex(0.5, 0.5 * math.sqrt(4.0 * x * x - 1.0))
        assert abs(lam - ref) <= 1e-12 * abs(ref)


def test_sweep_that_accepts_no_step_raises(monkeypatch):
    monkeypatch.setattr(kbmlab.spectra, "track_branch", stuck_at_zero)
    with pytest.raises(BranchCollisionError, match=r"eta = 2\.0, K = 1\.0"):
        gamma_sweep(2.0, 1.0, [1.0, 10.0])


def test_sweep_at_huge_eta_collides_at_the_scaled_point():
    # at eta = 1e150 the curvature terms of a_k^2 = (eta + k(k+1))/4 vanish
    # in rounding, so the block is the K = 0, eta = 1 block with couplings
    # scaled by 1e75, and its exceptional point sits at x_c / 1e75
    table = gamma_sweep(1e150, -1.0, [1.0, 10.0, 100.0], fixed_truncation(5))
    assert np.all(table.collided)
    unit = truncate(1.0, 0.0, fixed_truncation(5))
    x_c = track_branch(unit, ladder_coefficients(unit), -1.0).x_collision
    assert math.isfinite(table.empirical_r) and table.empirical_r > 0.0
    assert table.empirical_r == pytest.approx(2e75 / abs(x_c), rel=1e-12)


def test_sweep_multiplicity_is_metadata():
    table = gamma_sweep(2.0, 1.0, [10.0], multiplicity=3)
    assert table.multiplicity == 3


def test_sweep_value_in_generator_spectrum():
    block = finite_block(6.0, 1.0)
    coeffs = ladder_coefficients(block)
    table = gamma_sweep(6.0, 1.0, [25.0])
    eigs = eig_dense(assemble_generator(block, coeffs, 25.0))
    assert np.min(np.abs(eigs - table.lam[0])) <= 1e-8


def test_sweep_rejects_bad_grid():
    with pytest.raises(SpectrumValidationError):
        gamma_sweep(2.0, 1.0, [5.0, 4.0])
    with pytest.raises(SpectrumValidationError):
        gamma_sweep(2.0, 1.0, [-1.0, 2.0])


@pytest.mark.parametrize(
    "eta, K",
    [
        (math.inf, -1.0),
        (math.inf, 1.0),
        (-1.0, -1.0),
        (-2.0, 1.0),
        (math.nan, -1.0),
        (2.0, math.nan),
        (2.0, math.inf),
    ],
)
def test_sweep_rejects_bad_eta_or_curvature(eta, K):
    with pytest.raises(SpectrumValidationError, match="finite eta >= 0 and a finite K"):
        gamma_sweep(eta, K, [1.0, 10.0])


def test_mixing_report_closed_form_value():
    spectrum = sphere_spectrum(1.0, 1)
    grid = make_gamma_grid(1.0, 3.0, 11)  # includes gamma = 10 exactly
    tables = [gamma_sweep(e.eta, 1.0, grid, multiplicity=e.multiplicity) for e in spectrum.entries]
    report = mixing_report(spectrum, tables)
    assert report["eta1"] == 2.0
    i10 = report["gamma"].index(10.0)
    assert report["re_lambda_eta1"][i10] == pytest.approx(2.0871215252207998, abs=1e-9)
    assert report["approaches_from_above"] is True
    assert report["tail_value"] == pytest.approx(2.0, abs=1e-4)


def test_mixing_report_requires_eta1_table():
    spectrum = sphere_spectrum(1.0, 1)
    zero_only = [gamma_sweep(0.0, 1.0, [10.0, 100.0])]
    with pytest.raises(SpectrumValidationError):
        mixing_report(spectrum, zero_only)


def _per_row(eta, K, grid, k_trunc):
    """Independent per-row oracle: one track from x = 0 for every gamma,
    on the sweep's block and, for K <= 0, its doubled block."""
    if K > 0.0:
        blocks = [finite_block(eta, K)]
    else:
        blocks = [truncate(eta, K, fixed_truncation(k)) for k in (k_trunc, 2 * k_trunc)]
    rows = []
    for gamma in grid:
        x = -2.0 / gamma
        brs = [track_branch(b, ladder_coefficients(b), x) for b in blocks]
        rows.append([0.5 * gamma * gamma * br.final_mu if br.reached else None for br in brs])
    return rows


@pytest.mark.parametrize(
    "eta, K, grid",
    [
        (2.0, 1.0, [2.5, 3.0, 3.9, 4.1, 5.0, 8.0, 20.0, 100.0, 1e4]),
        (5.0, -1.0, list(make_gamma_grid(0.0, 4.0, 13))),
    ],
)
def test_single_path_matches_per_row_tracks(eta, K, grid):
    table = gamma_sweep(eta, K, grid)
    oracle = _per_row(eta, K, table.gamma_grid, int(table.k_trunc[0]))
    assert np.any(table.collided) and not np.all(table.collided)
    for i, row in enumerate(oracle):
        assert table.collided[i] == (row[0] is None)
        assert table.simple[i] == (row[0] is not None)
        if row[0] is not None:
            assert abs(table.lam[i] - row[0]) <= 1e-12
        if K <= 0.0:
            if row[1] is None:
                assert math.isnan(table.certificate[i])
            else:
                assert abs(table.certificate[i] - abs(table.lam[i] - row[1])) <= 1e-12
        else:
            assert table.certificate[i] == 0.0


def test_sweep_checkpoints_land_bitwise_at_large_eta(monkeypatch):
    # gamma = 100 sits at s = 0.01 of the path to x = -2: a path that
    # accumulated its steps skipped it and sent the row to the dense fallback
    tracks = []

    def recording(*args, **kwargs):
        br = track_branch(*args, **kwargs)
        tracks.append((kwargs["checkpoints"], br))
        return br

    monkeypatch.setattr(kbmlab.spectra, "track_branch", recording)
    grid = [1.0, 10.0, 100.0, 1e3, 1e4]
    table = gamma_sweep(300.0, -1.0, grid)
    assert len(tracks) == 2  # the block and its doubled certificate block
    for xs, br in tracks:
        assert list(xs) == [-2.0 / g for g in reversed(grid)]
        assert len(br.checkpoint_index) >= 3
        for x, i in zip(xs, br.checkpoint_index):
            assert br.x_samples[i] == x
    tail = tail_mask(table.gamma_grid, 300.0)
    assert list(table.gamma_grid[tail]) == [100.0, 1e3, 1e4]
    assert not np.any(table.collided[tail])
    assert np.all(table.certificate[tail] < 1e-10)
    assert abs(table.lam[2] - 300.0) < 30.0


@pytest.mark.parametrize("eta, K, tracks", [(2.0, 1.0, 1), (5.0, -1.0, 2)])
def test_sweep_tracks_once_per_block(monkeypatch, eta, K, tracks):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return track_branch(*args, **kwargs)

    monkeypatch.setattr(kbmlab.spectra, "track_branch", counting)
    gamma_sweep(eta, K, make_gamma_grid(0.0, 4.0, 13))
    assert len(calls) == tracks
    assert all(x == -2.0 for x in calls)


def test_hyperbolic_sweep_solves_no_odd_sector(monkeypatch):
    # at real x the odd sector's eigenvalues have real part >= 1, and every
    # spot check of the hyperbolic sweep finds the even neighbour nearer;
    # the exceptional-point solve reuses the spot check's spectrum at x_cur
    # and solves only the certificate at x_c
    solves = []
    real_dense = kbmlab.eig.eig_dense

    def counting(op):
        solves.append(op.meta.get("parity"))
        return real_dense(op)

    ep_solves = []
    real_ep = kbmlab.eig.exceptional_point

    def recording(block, coeffs, x_cur, x_try, mu_cur, nu, **kwargs):
        before = len(solves)
        x_c = real_ep(block, coeffs, x_cur, x_try, mu_cur, nu, **kwargs)
        ep_solves.append((x_cur, kwargs.get("eigs_cur") is not None, len(solves) - before))
        return x_c

    monkeypatch.setattr(kbmlab.eig, "eig_dense", counting)
    monkeypatch.setattr(kbmlab.spectra, "eig_dense", counting)
    monkeypatch.setattr(kbmlab.eig, "exceptional_point", recording)
    for eta in (2.0, 5.0, 10.0):
        gamma_sweep(eta, -1.0, make_gamma_grid(0.0, 4.0, 13))
    assert solves.count(1) > 0 and solves.count(-1) == 0
    assert ep_solves
    for x_cur, cached, n in ep_solves:
        # every sample of these blocks is spot-checked; only the start x = 0 is not
        assert cached == (x_cur != 0.0)
        if cached:
            assert n == 1


def _row_mu(table, block, coeffs):
    """Every row's mu, found without the sweep: the sample of a continuation
    through every grid x where it landed simple, else the Newton root from
    the even sector's dense eigenvalue nearest the row."""
    grid = table.gamma_grid
    xs = -2.0 / grid[::-1]
    br = track_branch(block, coeffs, xs[-1], checkpoints=xs)
    mu = np.empty(grid.size, dtype=complex)
    for j, i in enumerate(br.checkpoint_index):
        mu[grid.size - 1 - j] = br.mu_values[i]
    for i in np.nonzero(table.collided)[0]:
        even = parity_sectors(block, coeffs, -2.0 / grid[i])[0]
        eigs = eig_dense(even)
        pick = eigs[np.argmin(np.abs(eigs - table.lam[i] / (0.5 * grid[i] ** 2)))]
        mu[i] = newton_polish(even, pick)[0]
    assert np.all(table.lam == 0.5 * grid * grid * mu)
    return mu


@pytest.mark.parametrize("eta, K, points", [(2.0, 1.0, 41), (5.0, -1.0, 13)])
def test_sweep_residual_is_the_residual_at_each_reported_value(eta, K, points):
    table = gamma_sweep(eta, K, make_gamma_grid(0.0, 4.0, points))
    assert np.any(table.simple) and np.any(table.collided)
    if K > 0.0:
        block = finite_block(eta, K)
    else:
        block = truncate(eta, K, fixed_truncation(int(table.k_trunc[0])))
    coeffs = ladder_coefficients(block)
    for gamma, mu, res in zip(table.gamma_grid, _row_mu(table, block, coeffs), table.residual):
        op = assemble_perturbed(block, coeffs, -2.0 / gamma)
        assert res == kbmlab.eig.residual_norm(op, mu)


def test_continuation_and_truncation_take_no_eigenvector(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the continuation took an eigenvector")

    # residual_norm takes its eigenvector through eigvec
    monkeypatch.setattr(kbmlab.eig, "eigvec", forbidden)
    block = finite_block(2.0, 1.0)
    assert track_branch(block, ladder_coefficients(block), 0.7).status == "collision"
    truncate(5.0, -1.0, adaptive_truncation(x_ref=-0.1))


@pytest.mark.parametrize("eta, K, points", [(2.0, 1.0, 41), (5.0, -1.0, 13), (0.0, -1.0, 13)])
def test_sweep_takes_one_residual_per_row(monkeypatch, eta, K, points):
    calls = []
    real = kbmlab.eig.residual_norm

    def counting(op, mu):
        calls.append(op.meta["x"])
        return real(op, mu)

    monkeypatch.setattr(kbmlab.eig, "residual_norm", counting)
    monkeypatch.setattr(kbmlab.spectra, "residual_norm", counting)
    grid = make_gamma_grid(0.0, 4.0, points)
    gamma_sweep(eta, K, grid)
    assert calls == ([complex(-2.0 / g) for g in grid] if eta > 0.0 else [])


def test_failed_residual_marks_only_its_row(monkeypatch):
    grid = make_gamma_grid(0.0, 4.0, 41)
    clean = gamma_sweep(2.0, 1.0, grid)
    j = 20
    assert clean.simple[j] and np.all(clean.simple[j:])
    real = kbmlab.eig.residual_norm

    def failing(op, mu):
        if op.meta["x"] == -2.0 / grid[j]:
            raise EigensolveError("inverse iteration did not converge")
        return real(op, mu)

    monkeypatch.setattr(kbmlab.spectra, "residual_norm", failing)
    table = gamma_sweep(2.0, 1.0, grid)
    assert math.isnan(table.residual[j])
    assert not table.simple[j] and not table.collided[j]
    assert table.lam[j] == clean.lam[j]
    rest = np.arange(grid.size) != j
    for field in ("lam", "simple", "collided", "residual", "certificate"):
        assert np.array_equal(getattr(table, field)[rest], getattr(clean, field)[rest])
    assert table.empirical_r == clean.empirical_r
