import dataclasses
import math

import numpy as np
import pytest

import kbmlab.spectra
from conftest import even_sector, sector_parity, stack_of, stuck_at_zero
from kbmlab import (
    BranchCollisionError,
    SpectrumValidationError,
    TruncationError,
    TruncationPolicy,
    assemble_generator,
    assemble_perturbed,
    block_at,
    custom_spectrum,
    default_gamma_grid,
    eig_dense,
    finite_block,
    fitted_decay_exponent,
    fixed_truncation,
    gamma_sweep,
    ladder_coefficients,
    make_gamma_grid,
    mixing_report,
    newton_polish,
    odd_sector,
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


def test_sphere_spectrum_bounds_l_max_before_enumerating_the_levels():
    # each level is a swept block, so the bound caps a run as TORUS_MAX_M does
    assert kbmlab.spectra.SPHERE_MAX_L == 256
    s = sphere_spectrum(1.0, 256)
    assert len(s.entries) == 257 and s.entries[-1].eta == 256.0 * 257.0
    for l_max in (257, 10**8, 10**18):
        with pytest.raises(SpectrumValidationError, match=r"l_max <= 256"):
            sphere_spectrum(1.0, l_max)


def test_torus_spectrum_examples():
    s = torus_spectrum(2.0 * math.pi, 2.5)
    assert [(e.eta, e.multiplicity) for e in s.entries] == [(0.0, 1), (1.0, 4), (2.0, 4)]
    s = torus_spectrum(2.0 * math.pi, 0.5)
    assert [(e.eta, e.multiplicity) for e in s.entries] == [(0.0, 1)]
    s = torus_spectrum(math.pi, 5.0)
    assert [(e.eta, e.multiplicity) for e in s.entries] == [(0.0, 1), (4.0, 4)]


def test_torus_spectrum_bounds_the_lattice_before_enumerating_it():
    # on the side-2 pi torus eta = m^2 + n^2, so eta_cap < 65^2 keeps |m| <= 64
    assert kbmlab.spectra.TORUS_MAX_M == 64
    s = torus_spectrum(2.0 * math.pi, 65.0**2 - 1.0)
    assert (s.entries[-1].eta, s.entries[-1].multiplicity, len(s.entries)) == (4217.0, 8, 1232)
    for L, eta_cap in ((2.0 * math.pi, 65.0**2), (1e4, 2.5), (1e150, 1e300)):
        with pytest.raises(SpectrumValidationError, match=r"\|m\| <= 64"):
            torus_spectrum(L, eta_cap)


def test_custom_spectrum_validation():
    s = custom_spectrum(-1.0, [(0.0, 1), (3.838, 1)])
    assert s.entries[1].eta == 3.838
    with pytest.raises(SpectrumValidationError):
        custom_spectrum(-1.0, [(-1.0, 1)])
    with pytest.raises(SpectrumValidationError):
        custom_spectrum(-1.0, [(2.0, 1)])  # zero mode missing
    with pytest.raises(SpectrumValidationError):
        custom_spectrum(-1.0, [(0.0, 1), (math.inf, 1)])
    with pytest.raises(SpectrumValidationError, match="summed multiplicity"):
        custom_spectrum(-1.0, [(0.0, 1), (2.0, 1), (2.0, 2)])  # eta = 2 twice


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
    block, coeffs = _sweep_block(table)
    assert np.count_nonzero(table.collided) >= 4
    eps = np.finfo(float).eps
    for i in np.nonzero(table.collided)[0]:
        gamma = table.gamma_grid[i]
        mu = table.lam[i] / (0.5 * gamma * gamma)
        even = even_sector(coeffs, -2.0 / gamma)
        sectors = [s for s in (even, odd_sector(even)) if s is not None]
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


def test_a_sphere_of_tiny_curvature_keeps_its_ladder():
    # K = 1e-13, level l = 1: every rung is far below an absolute 1e-12, but
    # the block still ends at its l and the branch approaches eta
    table = gamma_sweep(2e-13, 1e-13, make_gamma_grid(0.0, 4.0, 11))
    assert table.k_trunc == 1 and np.all(table.simple)
    assert table.abs_error[-1] < 1e-10 * 2e-13


def test_a_curved_sphere_level_past_the_old_absolute_rule_sweeps():
    # K = 3.3, l = 104: eta = 36036 puts the rounding of the top rung above
    # 1e-12, which ended the ladder nowhere under an absolute test
    eta = sphere_spectrum(3.3, 104).entries[-1].eta
    table = gamma_sweep(eta, 3.3, make_gamma_grid(0.0, 4.0, 5))
    assert table.k_trunc == 104
    assert np.all(np.isfinite(table.lam))


def test_sweep_value_in_generator_spectrum():
    block = finite_block(6.0, 1.0)
    coeffs = ladder_coefficients(block)
    table = gamma_sweep(6.0, 1.0, [25.0])
    eigs = eig_dense(assemble_generator(coeffs, 25.0))
    assert np.min(np.abs(eigs - table.lam[0])) <= 1e-8


def test_sweep_rejects_bad_grid():
    with pytest.raises(SpectrumValidationError):
        gamma_sweep(2.0, 1.0, [5.0, 4.0])
    with pytest.raises(SpectrumValidationError):
        gamma_sweep(2.0, 1.0, [-1.0, 2.0])
    # gamma^2 / 2 overflows or underflows to 0, or the grid holds no number
    for grid in ([0.5, 1e300], [1.0, math.inf], [math.nan, 2.0], [1e-170, 1.0]):
        with pytest.raises(SpectrumValidationError, match="gamma\\^2 / 2"):
            gamma_sweep(2.0, 1.0, grid)
        with pytest.raises(SpectrumValidationError, match="gamma\\^2 / 2"):
            gamma_sweep(2.0, -1.0, grid)


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
    tables = [gamma_sweep(e.eta, 1.0, grid) for e in spectrum.entries]
    report = mixing_report(spectrum, tables)
    assert report["eta1"] == 2.0
    i10 = list(grid).index(10.0)
    assert tables[1].lam[i10].real == pytest.approx(2.0871215252207998, abs=1e-9)
    # the tail value is the eta_1 table's last Re lambda, which the report
    # does not repeat
    tail = tables[1].lam[-1].real
    assert "tail_value" not in report
    assert report["tail_gap_to_eta1"] == tail - 2.0
    assert report["approaches_from_above"] is True
    assert tail == pytest.approx(2.0, abs=1e-4)


def test_mixing_report_requires_eta1_table():
    spectrum = sphere_spectrum(1.0, 1)
    zero_only = [gamma_sweep(0.0, 1.0, [10.0, 100.0])]
    with pytest.raises(SpectrumValidationError):
        mixing_report(spectrum, zero_only)


def _per_row(table):
    """Independent per-row oracle: one track from x = 0 for every gamma,
    on the sweep's block."""
    block, coeffs = _sweep_block(table)
    rows = []
    for gamma in table.gamma_grid:
        br = track_branch(block, coeffs, -2.0 / gamma)
        rows.append(0.5 * gamma * gamma * br.mu_values[-1] if br.status == "complete" else None)
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
    k = table.k_trunc
    oracle = _per_row(table)
    assert np.any(table.collided) and not np.all(table.collided)
    for i, lam in enumerate(oracle):
        assert table.collided[i] == (lam is None)
        assert table.simple[i] == (lam is not None)
        if lam is not None:
            assert abs(table.lam[i] - lam) <= 1e-12
    if K <= 0.0:
        # every row, reached or collided, is certified against an
        # independent sweep at twice the cutoff
        doubled = gamma_sweep(eta, K, grid, fixed_truncation(2 * k))
        assert np.array_equal(table.certificate, np.abs(table.lam - doubled.lam))
        assert np.all(np.isfinite(table.certificate))
    else:
        assert np.all(table.certificate == 0.0)


_TABLE_FIELDS = (
    "lam", "abs_error", "simple", "collided", "k_trunc", "certificate", "residual",
)


@pytest.mark.parametrize("eta", [2.0, 5.0, 300.0])
def test_adaptive_cutoff_is_the_first_certified_one(eta):
    # the adaptive sweep is the fixed sweep at the cutoff it reports, and
    # half that cutoff (when it was tried) leaves some row uncertified
    grid = make_gamma_grid(0.0, 4.0, 13)
    table = gamma_sweep(eta, -1.0, grid, TruncationPolicy(tol=1e-10))
    k = table.k_trunc
    fixed = gamma_sweep(eta, -1.0, grid, fixed_truncation(k))
    for field in _TABLE_FIELDS:
        assert np.array_equal(getattr(table, field), getattr(fixed, field), equal_nan=True)
    assert table.empirical_r == fixed.empirical_r
    assert np.all(table.certificate < 1e-10)
    if k > 8:
        assert np.any(gamma_sweep(eta, -1.0, grid, fixed_truncation(k // 2)).certificate >= 1e-10)


def test_adaptive_acceptance_is_strict():
    # a shift equal to the tolerance does not certify the cutoff, as in
    # criterion 9
    grid = make_gamma_grid(0.0, 4.0, 13)
    tol = float(np.max(gamma_sweep(2.0, -1.0, grid, fixed_truncation(8)).certificate))
    assert gamma_sweep(2.0, -1.0, grid, TruncationPolicy(tol=tol)).k_trunc == 16
    assert gamma_sweep(2.0, -1.0, grid, TruncationPolicy(tol=2.0 * tol)).k_trunc == 8


def test_sweep_certifies_every_row_at_huge_eta():
    # the cutoff grows only as far as the rows need, so the doubled block
    # stays far inside the dense limit
    table = gamma_sweep(20000.0, -1.0, make_gamma_grid(0.0, 4.0, 11))
    assert np.any(table.collided)
    assert table.k_trunc <= 64
    assert np.all(table.certificate < 1e-10)


def test_sweep_raises_at_the_dense_limit(monkeypatch):
    # eta = 5 certifies cutoff 16 against 32; the doubled block [-32, 32]
    # has dimension 65
    grid = make_gamma_grid(0.0, 4.0, 13)
    monkeypatch.setattr(kbmlab.spectra, "MAX_DENSE_DIM", 65)
    assert gamma_sweep(5.0, -1.0, grid).k_trunc == 16
    monkeypatch.setattr(kbmlab.spectra, "MAX_DENSE_DIM", 64)
    message = r"eta = 5\.0, K = -1\.0: .* cutoff 16 .* by up to 2\.38e-10"
    with pytest.raises(TruncationError, match=message):
        gamma_sweep(5.0, -1.0, grid)


def test_a_fixed_cutoff_beyond_the_dense_limit_names_the_cutoff_and_the_limit():
    # no doubling ran, so the message reports no shift; the check depends on
    # the cutoff alone, and the CLI runs the same one before any sweep
    grid = make_gamma_grid(0.0, 4.0, 13)
    with pytest.raises(TruncationError) as exc:
        gamma_sweep(5.0, -1.0, grid, fixed_truncation(1024))
    assert str(exc.value) == (
        "fixed truncation needs k_max <= 1023, got 1024: the doubled block of the fixed "
        "cutoff would exceed the dense limit 4096"
    )


@pytest.mark.parametrize("eta, K, k_max", [(0.0, -1.0, 1024), (2.0, 1.0, 1024), (5.0, -1.0, 20000)])
def test_a_fixed_cutoff_beyond_the_dense_limit_is_refused_on_every_block(eta, K, k_max):
    # the cutoff alone decides, as in RunConfig.validate, before any block
    # is built: a block beyond the ladder's slot limit would raise otherwise
    with pytest.raises(TruncationError, match=f"got {k_max}: the doubled block"):
        gamma_sweep(eta, K, make_gamma_grid(0.0, 4.0, 13), fixed_truncation(k_max))


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
    # cutoffs 8, 16 and 32, one track each; 16 is certified
    assert [br.sector.block.k_max for _, br in tracks] == [8, 16, 32]
    assert table.k_trunc == 16
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


@pytest.mark.parametrize("eta, K, tracks", [(2.0, 1.0, 1), (5.0, -1.0, 3)])
def test_sweep_tracks_once_per_block(monkeypatch, eta, K, tracks):
    # one track per cutoff tried: eta = 5 doubles 8 -> 16 -> 32 and
    # certifies 16
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
    # certified sample of the hyperbolic sweep finds the even neighbour nearer;
    # the exceptional-point solve reuses the certified spectrum at x_cur
    # and solves only the certificate at x_c
    solves = []
    real_dense = kbmlab.eig.eig_dense

    def counting(op):
        solves.append(sector_parity(op))
        return real_dense(op)

    ep_solves = []
    real_ep = kbmlab.eig.exceptional_point

    def recording(sector, x_cur, x_try, mu_cur, nu, **kwargs):
        before = len(solves)
        x_c = real_ep(sector, x_cur, x_try, mu_cur, nu, **kwargs)
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
        # every sample of these blocks is certified; only the start x = 0 is not
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
        even = even_sector(coeffs, -2.0 / grid[i])
        eigs = eig_dense(even)
        pick = eigs[np.argmin(np.abs(eigs - table.lam[i] / (0.5 * grid[i] ** 2)))]
        mu[i] = newton_polish(even, pick)[0]
    assert np.all(table.lam == 0.5 * grid * grid * mu)
    return mu


def _sweep_block(table):
    """The block a sweep reports on, with its coefficients: the ones the
    table carries, which are those of the intrinsic block (K > 0 or eta =
    0) or of the truncation at the certified cutoff, bit for bit."""
    eta, K = table.eta, table.curvature
    block = table.coeffs.block
    rebuilt = block_at(eta, K, table.k_trunc)
    assert (block.curvature, block.eta, block.k_max) == (K, eta, rebuilt.k_max)
    assert table.coeffs.a.tobytes() == ladder_coefficients(rebuilt).a.tobytes()
    return block, table.coeffs


@pytest.mark.parametrize("eta, K, points", [(2.0, 1.0, 41), (5.0, -1.0, 13)])
def test_sweep_residual_is_the_residual_at_each_reported_value(eta, K, points):
    # the sweep solves the even sector; the full block's eigenvector is the
    # same vector in an orthonormal basis, so the residuals agree to rounding
    table = gamma_sweep(eta, K, make_gamma_grid(0.0, 4.0, points))
    assert np.any(table.simple) and np.any(table.collided)
    block, coeffs = _sweep_block(table)
    full = stack_of([assemble_perturbed(block, coeffs, -2.0 / g) for g in table.gamma_grid])
    full_res = kbmlab.eig.twisted_residuals(full, _row_mu(table, block, coeffs))
    assert np.all(np.isfinite(full_res))
    assert np.max(np.abs(table.residual - full_res)) <= 1e-13


def test_continuation_and_truncation_take_no_eigenvector(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the continuation took an eigenvector")

    # every eigenvector and residual goes through the twisted factorization
    monkeypatch.setattr(kbmlab.eig, "_twisted", forbidden)
    block = finite_block(2.0, 1.0)
    assert track_branch(block, ladder_coefficients(block), 0.7).status == "collision"
    block = truncate(5.0, -1.0, fixed_truncation(16))
    assert track_branch(block, ladder_coefficients(block), -2.0).status == "collision"


@pytest.mark.parametrize(
    "eta, K, points",
    [(2.0, 1.0, 41), (5.0, -1.0, 13), (0.0, -1.0, 13), (72.0, 1.0, 41), (300.0, -1.0, 13)],
)
def test_sweep_takes_one_residual_per_row(monkeypatch, eta, K, points):
    # one batched call for the whole table, and each row gets the bits the
    # batched routine gives that row alone
    calls = []
    real = kbmlab.eig.twisted_residuals

    def counting(op, mu):
        calls.append(op)
        return real(op, mu)

    monkeypatch.setattr(kbmlab.spectra, "twisted_residuals", counting)
    grid = make_gamma_grid(0.0, 4.0, points)
    table = gamma_sweep(eta, K, grid)
    if eta == 0.0:
        assert calls == [] and np.all(table.residual == 0.0)
        return
    block, coeffs = _sweep_block(table)
    # the stack of the accepted block's even sectors at every grid x
    assert len(calls) == 1
    assert calls[0].coupling.tobytes() == even_sector(coeffs, -2.0 / grid).coupling.tobytes()
    for x, mu, res in zip(-2.0 / grid, _row_mu(table, block, coeffs), table.residual):
        alone = real(even_sector(coeffs, np.array([x])), np.array([mu]))
        assert alone[0] == res


def test_failed_residual_marks_only_its_row(monkeypatch):
    grid = make_gamma_grid(0.0, 4.0, 41)
    clean = gamma_sweep(2.0, 1.0, grid)
    j = 20
    assert clean.simple[j] and np.all(clean.simple[j:])
    block = finite_block(2.0, 1.0)
    target = even_sector(ladder_coefficients(block), -2.0 / grid[j]).coupling
    real = kbmlab.eig._twisted

    def failing(op, mu):
        scale, g, v = real(op, mu)
        g[np.all(op.coupling == target, axis=1)] = math.nan  # row j's factorization breaks down
        return scale, g, v

    monkeypatch.setattr(kbmlab.eig, "_twisted", failing)
    table = gamma_sweep(2.0, 1.0, grid)
    assert math.isnan(table.residual[j])
    assert not table.simple[j] and not table.collided[j]
    assert table.lam[j] == clean.lam[j]
    rest = np.arange(grid.size) != j
    for field in ("lam", "simple", "collided", "residual", "certificate"):
        assert np.array_equal(getattr(table, field)[rest], getattr(clean, field)[rest])
    assert table.empirical_r == clean.empirical_r


@pytest.mark.parametrize(
    "eta, K", [(2.0, 1.0), (72.0, 1.0), (300.0, -1.0), (15000.0, -1.0), (50.0, 0.0)]
)
def test_sweep_residual_is_its_vectors_dense_residual(monkeypatch, eta, K):
    # every row's residual, collided complex-mu rows included, against
    # ||(T - mu) v|| / ||v|| recomputed by a dense complex matvec for the
    # factorization's own v
    seen = []
    real = kbmlab.eig._twisted

    def recording(op, mu):
        out = real(op, mu)
        seen.append((op, np.asarray(mu), out[2]))
        return out

    monkeypatch.setattr(kbmlab.eig, "_twisted", recording)
    table = gamma_sweep(eta, K, default_gamma_grid())
    assert np.any(table.collided) and np.any(np.iscomplex(table.lam[table.collided]))
    [(op, mu, v)] = seen
    a = op.to_dense() - mu[:, None, None] * np.eye(op.dim)
    w = np.einsum("bij,bj->bi", a, v)
    dense = np.linalg.norm(w, axis=1) / np.linalg.norm(v, axis=1)
    assert np.all(np.isfinite(table.residual))
    assert np.max(np.abs(table.residual - dense)) <= 1e-13


def _count_dense(monkeypatch):
    """Record the number of matrices of every eig_dense call, from every
    module that binds it."""
    import kbmlab.eig
    import kbmlab.perturb

    matrices = []
    real_dense = kbmlab.eig.eig_dense

    def counting(op):
        matrices.append(op.diag.shape[0] if op.diag.ndim == 2 else 1)
        return real_dense(op)

    for mod in (kbmlab.eig, kbmlab.spectra, kbmlab.perturb):
        monkeypatch.setattr(mod, "eig_dense", counting)
    return matrices


@pytest.mark.parametrize(
    "surface, points, truncation, dense_max",
    [
        # sphere l_max = 8: the samples outside the Kato disk, the
        # exceptional-point checks and the collided rows (256 dense solves
        # with a spot check per sample); K = -1 eta in {2, 5, 10}: 124 before
        # the disk; eta = 300: 15
        ({"kind": "sphere", "K": 1.0, "l_max": 8}, 41, None, 106),
        ({"kind": "custom", "K": -1.0, "etas": [0.0, 2.0, 5.0, 10.0]}, 13, None, 47),
        ({"kind": "custom", "K": -1.0, "etas": [0.0, 300.0]}, 5, None, 12),
        # sectors of dimension 257 and 513: 62 matrices when the first
        # continuation past r0 ran on before its samples were certified
        (
            {"kind": "custom", "K": -1.0, "etas": [0.0, 5e4]}, 11,
            {"k_max": 256}, 20,
        ),
    ],
    ids=["sphere", "hyperbolic", "deep_eta", "fixed_k256_eta_5e4"],
)
def test_a_run_certifies_each_continuation_with_few_dense_solves(
    monkeypatch, tmp_path, surface, points, truncation, dense_max
):
    import json

    from kbmlab.cli import main

    surface = dict(surface)
    etas = surface.pop("etas", None)
    if etas is not None:
        path = tmp_path / "etas.json"
        path.write_text(json.dumps({"entries": [[eta, 1] for eta in etas]}))
        surface["path"] = str(path)
    config = {
        "gamma_grid": {"log_start": 0.0, "log_end": 4.0, "points": points},
        "surface": surface,
        "workers": 1,
    }
    if truncation is not None:
        config["truncation"] = truncation
    (tmp_path / "config.json").write_text(json.dumps(config))
    matrices = _count_dense(monkeypatch)
    argv = ["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert sum(matrices) <= dense_max


@pytest.mark.parametrize(
    "eta, K, points", [(2.0, 1.0, 41), (72.0, 1.0, 41), (5.0, -1.0, 13), (300.0, -1.0, 5)]
)
def test_a_sweep_continuation_assembles_one_even_sector_per_step_and_one_stack_per_walk(
    monkeypatch, eta, K, points
):
    # inside a continuation Newton reads each step's even sector from the
    # float lists of the block's one EvenSector record, formed once per
    # continuation, and no operator is built per step; every operator is
    # built by the record's ``at`` view (one per densely certified sample,
    # and those of exceptional_point), as the odd slice of such a sector or
    # as a row selection of a stack, so no odd sector is assembled and
    # kato_radius builds none.  The collided rows are polished from the
    # same record's lists, on one stack.
    import kbmlab.eig
    from kbmlab import Contour, EvenSector, TridiagonalOperator, perturbation_radius

    running = []  # the instrumented functions running now, innermost last
    built, polished, formed = [], [], []
    runs = []  # per continuation: its record, Newton solves and certifications
    disk_radius = []  # r0 (1 - 1e-12) of the block being continued

    def within(name, fn, record=None):
        def wrapped(*args, **kwargs):
            running.append(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                running.pop()
            if record is not None:
                record(args, out)
            return out

        return wrapped

    def in_disk(x, mu):
        return abs(x) < disk_radius[-1] and 0.5 - abs(mu) > collision_threshold(mu)

    dense_rungs = []

    def record_even(args, op):
        if "dense_continuation" in running:
            dense_rungs[:] = (-(op.coupling * op.coupling)).tolist()
        elif "track_branch" in running and "exceptional_point" not in running:
            # one sample's sector at a time: the steps' sectors are lists
            assert args[0] is formed[-1] and np.ndim(args[1]) == 0
            runs[-1]["sectors"].append((op, args[1]))

    def record_odd(args, odd):
        assert odd is None or np.shares_memory(odd.diag, args[0].diag)

    real_lists = EvenSector.lists

    def lists(sector, x):
        if "track_branch" in running:
            runs[-1]["solves"].append([x])
        return real_lists(sector, x)

    def record_newton(args, out):
        diag, rungs = args[0]  # the lists, not an operator
        assert diag is formed[-1].diag and len(rungs) == len(diag) - 1
        if "track_branch" in running:
            runs[-1]["solves"][-1].append(out[0])
        else:
            assert "dense_continuation" in running
            polished.append(rungs)

    def record_certify(args, out):
        even, x = runs[-1]["sectors"][-1]
        assert even is args[0]
        runs[-1]["certified"].append((x, args[1]))

    def track(block, coeffs, x_target, **kwargs):
        r0 = within("radius", perturbation_radius)(block, coeffs, Contour(0.0, 0.5))
        disk_radius.append(r0 * (1.0 - 1e-12))
        runs.append({"solves": [], "sectors": [], "certified": []})
        br = within("track_branch", real_track)(block, coeffs, x_target, **kwargs)
        runs[-1]["branch"] = br
        return br

    real_track = kbmlab.spectra.track_branch
    collision_threshold = kbmlab.eig.collision_threshold

    def record_dense(args, out):
        # the dense continuation reads the record its continuation formed
        assert args[0] is runs[-1]["branch"].sector
        assert polished == dense_rungs
        polished.clear()

    real_of = EvenSector.of

    def of(cls, coeffs):
        sector = real_of(coeffs)
        if "radius" not in running:
            formed.append(sector)
        return sector

    real_init = TridiagonalOperator.__post_init__

    def init(self):
        real_init(self)
        if "track_branch" in running or "dense_continuation" in running:
            built.append(set(running))

    for name, record in (
        ("odd_sector", record_odd),
        ("_rows", None),
        ("newton_polish", record_newton),
        ("certify_samples", record_certify),
        ("exceptional_point", None),
        ("kato_radius", None),
    ):
        monkeypatch.setattr(kbmlab.eig, name, within(name, getattr(kbmlab.eig, name), record))
    monkeypatch.setattr(kbmlab.spectra, "track_branch", track)
    monkeypatch.setattr(EvenSector, "of", classmethod(of))
    monkeypatch.setattr(EvenSector, "at", within("at", EvenSector.at, record_even))
    monkeypatch.setattr(EvenSector, "lists", lists)
    monkeypatch.setattr(
        kbmlab.spectra, "_dense_continuation",
        within("dense_continuation", kbmlab.spectra._dense_continuation, record_dense),
    )
    monkeypatch.setattr(
        kbmlab.spectra, "newton_polish",
        within("newton_polish", kbmlab.spectra.newton_polish, record_newton),
    )
    monkeypatch.setattr(TridiagonalOperator, "__post_init__", init)
    gamma_sweep(eta, K, make_gamma_grid(0.0, 4.0, points))

    assert runs
    for run in runs:
        br, solves = run["branch"], run["solves"]
        samples = list(zip(br.x_samples.tolist(), br.mu_values.tolist()))
        # Newton solves are the steps taken plus the rejected ones: each
        # solve is either the record's next sample or a rejected step, after
        # which the next solve lies past the current sample and no farther
        # out than the rejected one
        taken = 0
        for j, (x, root) in enumerate(solves):
            if taken + 1 < len(samples) and (x, root) == samples[taken + 1]:
                taken += 1
            elif j + 1 < len(solves):
                assert abs(samples[taken][0]) < abs(solves[j + 1][0]) <= abs(x)
        assert taken == len(samples) - 1 > 0
        # one even sector per densely certified sample: every sample past
        # x = 0 outside the disk once, plus disk samples whose bound left a
        # decision open
        certified = run["certified"]
        assert len(certified) == len(run["sectors"]) == len(set(certified))
        dense = [s for s in samples[1:] if not in_disk(*s)]
        assert set(dense) <= set(certified) <= set(samples[1:])
        assert all(in_disk(*s) for s in set(certified) - set(dense))
    # the record is formed once per continuation, by the continuation, and
    # nowhere else in the sweep (not by the collided-row polish, the
    # exceptional point or the residuals), and it is the one each branch
    # carries
    assert [run["branch"].sector for run in runs] == formed
    assert built and all(ctx & {"at", "odd_sector", "_rows"} for ctx in built)


@pytest.mark.parametrize(
    "eta, K, log_end, points", [(2.0, 1.0, 8.0, 201), (2.0 / 7.0, -1.0, 4.0, 101)]
)
def test_a_tail_at_the_rounding_floor_has_converged(eta, K, log_end, points):
    # sphere eta = 2 out to gamma = 1e8, and K = -1, eta = 2/7 on the default
    # grid: the tail error reaches a few ulps of eta, where a step grows by
    # up to 1.3 eps * (1 + eta) from rounding alone
    table = gamma_sweep(eta, K, make_gamma_grid(0.0, log_end, points), TruncationPolicy())
    summary = kbmlab.spectra.convergence_summary(table)
    assert summary["converged"] and summary["tail_monotone"]
    # a last row above the floor is still an increase
    floor = kbmlab.spectra.ROUNDING_ULPS * np.finfo(float).eps * (1.0 + eta)
    errors = table.abs_error.copy()
    errors[-1] = errors[tail_mask(table.gamma_grid, eta)].min() + 2.0 * floor
    raised = kbmlab.spectra.convergence_summary(dataclasses.replace(table, abs_error=errors))
    assert not raised["converged"] and not raised["tail_monotone"]
