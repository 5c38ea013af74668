"""The step-by-step continuation against a reference loop.

``_reference_track`` is the continuation written as one loop that checks
every accepted sample against the dense spectrum of both parity sectors
before it takes the next step, on sectors it builds itself: the even one
from the block's ``EvenSector`` at each x, the odd one assembled from the
ladder.
``track_branch`` takes the same steps but certifies the samples inside
the Kato disk by the bound DISK_RHO - |mu|, solves the others' even
sectors only, and computes a disk sample's dense check only where the
bound leaves a decision open; the two must make the same decisions, bit
for bit.  Only ``oracle_dev`` (over the densely certified samples)
differs.  The record holds no gaps; a disk sample's bound is checked
against the reference's dense gap on its own.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kbmlab.eig
from kbmlab import (
    Contour,
    EvenSector,
    TridiagonalOperator,
    assemble_perturbed,
    block_at,
    eig_dense,
    ladder_coefficients,
    perturbation_radius,
    track_branch,
)
from kbmlab.acceptance import build_suite_data, suite_cases
from kbmlab.eig import MIN_STEPS, STEP_X, _checkpoint_params, collision_threshold

from conftest import assembled_odd_sector, parity_eigvals, property_block, stack_of

# the fields that carry the continuation's decisions; oracle_dev is
# compared on its own
FIELDS = (
    "x_samples", "mu_values", "simple", "status", "reason", "x_collision",
    "checkpoint_index",
)
RHO = 0.5  # the Kato disk's contour |zeta| = 1/2


def _disk_samples(block, coeffs, br):
    """Mask of the samples past x = 0 that the Kato bound certifies: |x|
    below the radius of the contour |zeta| = RHO, less its rounding margin,
    and RHO - |mu| above the collision threshold."""
    r0 = perturbation_radius(block, coeffs, Contour(0.0, RHO))
    mus = br.mu_values
    disk = (np.abs(br.x_samples) < r0 * (1.0 - 1e-12)) & (
        RHO - np.abs(mus) > kbmlab.eig.COLLISION_REL * (1.0 + np.abs(mus))
    )
    disk[0] = False
    return disk


def _union_check(even, odd, mu):
    """Nearest and second-nearest eigenvalue to mu on the union of both
    sectors' dense spectra, even first (the oracle of ``certify_samples``)."""
    eigs = parity_eigvals(even, odd)
    dist = np.abs(eigs - mu)
    near = np.argsort(dist, kind="stable")[:2]
    gap = float(dist[near[1]]) if near.size > 1 else math.inf
    nu = complex(eigs[near[1]]) if near.size > 1 and near[1] < even.dim else None
    return float(dist[near[0]]), gap, nu


def _reference_track(block, coeffs, x_target, checkpoints=(), checks=None):
    """The continuation one step at a time; the module's Newton and
    exceptional point, and the sector record's operator view, are looked up
    at call time, so patches apply.  ``checks`` gets each accepted sample's
    oracle deviation and dense gap, in order."""
    eig = kbmlab.eig
    sector = EvenSector.of(coeffs)
    ck_x, ck_s = _checkpoint_params(x_target, checkpoints)
    x_target = float(x_target)
    unperturbed = np.sort(block.ks.astype(float) ** 2)
    gap0 = float(unperturbed[1]) if block.dim > 1 else math.inf
    ds_base = 1.0 / max(MIN_STEPS, math.ceil(abs(x_target) / STEP_X))
    xs, mus, simples = [0.0], [0j], [gap0 > collision_threshold(0.0)]
    s_cur, x_cur, mu_cur, s_prev, mu_prev = 0.0, 0.0, 0j, None, 0j
    last_gap = gap0
    last_nu = 1.0 + 0j if block.dim > 1 else None
    ep_tried, oracle_dev = False, 0.0
    eigs_cur = eig.eig_dense(sector.at(0.0))
    status, reason, x_coll = "complete", "", None
    ds, easy, nxt, landed = ds_base, 0, 0, []
    while nxt < len(ck_s):
        s_ck = ck_s[nxt]
        ds_eff = min(ds, s_ck - s_cur)
        if s_ck - s_cur < 1.5 * ds:
            ds_eff = s_ck - s_cur
        s_new = s_cur + ds_eff
        if s_ck - s_new < 1e-15:
            s_new = s_ck
        at_checkpoint = s_new == s_ck
        x_new = ck_x[nxt] if at_checkpoint else s_new * x_target
        if s_prev is not None and s_cur != s_prev:
            mu_pred = mu_cur + (mu_cur - mu_prev) / (s_cur - s_prev) * (s_new - s_cur)
        else:
            mu_pred = mu_cur
        even = sector.at(x_new)
        odd = assembled_odd_sector(block, coeffs, x_new)
        mu_new, ok, iters = eig.newton_polish(even, mu_pred)
        if (not ok) or abs(mu_new - mu_pred) > 0.5 * last_gap:
            if not ep_tried:
                ep_tried = True
                x_c = eig.exceptional_point(
                    sector, x_cur, x_new, mu_cur.real, last_nu, eigs_cur=eigs_cur
                )
                if x_c is not None:
                    status, reason, x_coll = "collision", "exceptional point", x_c
                    break
            ds *= 0.5
            easy = 0
            if ds < 1e-12:
                status, reason, x_coll = "collision", "step underflow near loss of simplicity", x_cur
                break
            continue
        dev, gap, last_nu = _union_check(even, odd, mu_new)
        oracle_dev = max(oracle_dev, dev)
        if checks is not None:
            checks.append((dev, gap))
        last_gap = gap
        is_simple = gap > collision_threshold(mu_new)
        xs.append(x_new)
        mus.append(mu_new)
        simples.append(is_simple)
        if at_checkpoint:
            landed.append(len(xs) - 1)
            nxt += 1
        if not is_simple:
            status, reason, x_coll = "collision", "gap below collision threshold", x_new
            if nxt < len(ck_s):
                x_c = eig.exceptional_point(
                    sector, x_new, ck_x[nxt], mu_new.real, last_nu, eigs_cur=eig.eig_dense(even)
                )
                if x_c is not None:
                    reason, x_coll = "exceptional point", x_c
            break
        s_prev, mu_prev = s_cur, mu_cur
        s_cur, x_cur, mu_cur = s_new, x_new, mu_new
        eigs_cur = eig.eig_dense(even)
        ep_tried = False
        if iters <= 5:
            easy += 1
            if easy >= 3 and ds < ds_base:
                ds, easy = min(2.0 * ds, ds_base), 0
        else:
            easy = 0
    return kbmlab.eig.EigenBranch(
        sector=sector, x_samples=np.array(xs), mu_values=np.array(mus),
        simple=np.array(simples), status=status, reason=reason, x_collision=x_coll, oracle_dev=oracle_dev, checkpoint_index=tuple(landed),
    )


def _assert_same_record(br, ref, checks):
    """Every decision of ``br`` is the reference's, bit for bit; a disk
    sample's bound RHO - |mu| is at most the reference's dense gap;
    oracle_dev is the largest of the reference's deviations over the
    samples outside the disk."""
    for name in FIELDS:
        a, b = getattr(br, name), getattr(ref, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            # bitwise, signed zeros included
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name
    block = br.sector.block
    disk = _disk_samples(block, ladder_coefficients(block), br)
    devs = [dev for dev, _ in checks]
    gaps = np.array([gap for _, gap in checks])
    assert np.all(RHO - np.abs(br.mu_values[1:][disk[1:]]) <= gaps[disk[1:]])
    assert br.oracle_dev == max([d for d, k in zip(devs, disk[1:]) if not k], default=0.0)


def _recording_sectors(monkeypatch):
    """Record the x of every even sector the continuation builds: one per
    densely certified sample (and one per exceptional point checked)."""
    sectors = []
    real = EvenSector.at

    def recording(sector, x):
        sectors.append(x)
        return real(sector, x)

    monkeypatch.setattr(EvenSector, "at", recording)
    return sectors


def _recording_solves(monkeypatch):
    """Record the x of every Newton solve of the continuation, which reads
    its sector from ``EvenSector.lists``."""
    solves = []
    real = EvenSector.lists

    def recording(sector, x):
        solves.append(x)
        return real(sector, x)

    monkeypatch.setattr(EvenSector, "lists", recording)
    return solves


@given(
    kind=st.sampled_from(["sphere", "torus", "negative"]),
    k=st.integers(1, 24),
    eta=st.floats(0.1, 50.0),
    K=st.floats(-2.0, -0.1),
    reach=st.floats(0.05, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    fractions=st.lists(st.integers(1, 99), max_size=6, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_track_branch_equals_the_step_by_step_loop(kind, k, eta, K, reach, sign, fractions):
    block = property_block(kind, k, eta, K)
    coeffs = ladder_coefficients(block)
    # out to about three separation radii, which shrink like 1/sqrt(eta)
    x_target = sign * reach / (1.0 + math.sqrt(block.eta))
    cks = [0.01 * f * x_target for f in sorted(fractions)]
    br = track_branch(block, coeffs, x_target, checkpoints=cks)
    checks = []
    ref = _reference_track(block, coeffs, x_target, cks, checks)
    _assert_same_record(br, ref, checks)


def _rung_products(sector):
    """The rung products -c_j^2 of the coupling c that ``newton_polish``
    reads, from an operator or from its (diagonal, rung products) lists."""
    if isinstance(sector, TridiagonalOperator):
        return (-(sector.coupling * sector.coupling)).tolist()
    return sector[1]


def _jumping_newton(monkeypatch, block, coeffs, x_jump):
    """newton_polish that, the first time it runs at x_jump, lands 2.5 off
    the root as if it had converged to another eigenvalue (the branch's gap
    there is about 1).  The sector at x_jump is told by its rung products,
    whether Newton gets it as an operator (the reference loop) or as the
    block's lists (``track_branch``).  Clearing the returned list re-arms
    it."""
    real = kbmlab.eig.newton_polish
    target = _rung_products(EvenSector.of(coeffs).at(x_jump))
    fired = []

    def jumping(op, mu0):
        root, ok, iters = real(op, mu0)
        if _rung_products(op) == target and not fired:
            fired.append(x_jump)
            return root + 2.5, True, iters
        return root, ok, iters

    monkeypatch.setattr(kbmlab.eig, "newton_polish", jumping)
    return fired


def _jump_and_roll_back(monkeypatch, K, eta, k_max, points, jump_at):
    """Continue a sweep's checkpoints with Newton jumping 2.5 off the root
    at the clean run's sample jump_at; check the record against the
    reference, and that the step after the rejected jump is solved short of
    it.  Returns (block, coeffs, clean branch, the jump's x, the x of every
    even sector built)."""
    block = block_at(eta, K, k_max)
    coeffs = ladder_coefficients(block)
    grid = np.power(10.0, 4.0 * np.arange(points) / (points - 1))
    cks = list(-2.0 / grid[::-1])
    clean = track_branch(block, coeffs, cks[-1], checkpoints=cks)
    x_jump = float(clean.x_samples[jump_at])

    fired = _jumping_newton(monkeypatch, block, coeffs, x_jump)
    sectors = _recording_sectors(monkeypatch)
    solves = _recording_solves(monkeypatch)
    br = track_branch(block, coeffs, cks[-1], checkpoints=cks)
    fired.clear()
    checks = []
    ref = _reference_track(block, coeffs, cks[-1], cks, checks)
    _assert_same_record(br, ref, checks)
    # the reference rejected the jump, retried with half the step and went
    # on to the same end
    assert fired and (br.status, br.reason) == (clean.status, clean.reason)
    # nothing is solved beyond the rejected step: the next Newton solve lies
    # past the last accepted sample and not past the jump (on the jump's x
    # again when the jump sat on a checkpoint that the halved step still
    # reaches)
    x_last = abs(float(clean.x_samples[jump_at - 1]))
    after = solves[solves.index(x_jump) + 1]
    assert x_last < abs(after) <= abs(x_jump)
    return block, coeffs, clean, x_jump, sectors


@pytest.mark.parametrize(
    "K, eta, k_max, points, jump_at",
    [
        (-1.0, 5.0, 16, 13, 4),
        (1.0, 6.0, None, 41, 9),
        (0.0, 2.0, 12, 21, 2),
    ],
)
def test_a_newton_jump_mid_walk_is_rolled_back(monkeypatch, K, eta, k_max, points, jump_at):
    block, coeffs, clean, x_jump, sectors = _jump_and_roll_back(
        monkeypatch, K, eta, k_max, points, jump_at
    )
    # the jump lands outside the circle |zeta| = 1/2 at an x inside the
    # disk, and the samples before it lie in the disk too: no sample is
    # solved densely before the jump, whose correction leaves half the Kato
    # bound, so the first dense certification is the last accepted sample's
    # alone, whose dense gap then rejects the jump
    disk = _disk_samples(block, coeffs, clean)
    assert disk[jump_at] and np.all(disk[1:jump_at])
    assert sectors[0] == clean.x_samples[jump_at - 1]


def test_a_newton_jump_past_the_disk_radius_is_rolled_back(monkeypatch):
    # past r0 every sample is solved densely; after the jump the next step
    # is still taken short of it
    jump_at = 12
    block, coeffs, clean, x_jump, _ = _jump_and_roll_back(
        monkeypatch, -1.0, 5.0, 16, 13, jump_at
    )
    assert abs(x_jump) >= perturbation_radius(block, coeffs, Contour(0.0, RHO))


def _suite_and_scan_branches(monkeypatch):
    """(block, coeffs, branch) of every continuation of the acceptance
    suite's sweeps on the default grid (both cutoffs of each K <= 0 case),
    and of the collision scan's blocks (k_max 48) continued to x = -2.5."""
    runs = []
    real = kbmlab.spectra.track_branch

    def recording(block, coeffs, x_target, **kwargs):
        br = real(block, coeffs, x_target, **kwargs)
        runs.append((block, coeffs, br))
        return br

    monkeypatch.setattr(kbmlab.spectra, "track_branch", recording)
    build_suite_data()
    for K, eta in suite_cases():
        block = block_at(eta, K, 48)
        coeffs = ladder_coefficients(block)
        runs.append((block, coeffs, track_branch(block, coeffs, -2.5)))
    return runs


def test_every_disk_certified_sample_is_isolated_on_the_full_block(monkeypatch):
    # the Kato bound's claim, against the dense spectrum of the whole block
    # (both parity sectors): inside the disk the circle |zeta| = 1/2 holds
    # exactly one eigenvalue, the branch, and the second-nearest eigenvalue
    # to mu is at least RHO - |mu| away, the gap the continuation judged by
    runs = _suite_and_scan_branches(monkeypatch)
    total = 0
    for block, coeffs, br in runs:
        disk = _disk_samples(block, coeffs, br)
        idx = np.flatnonzero(disk)
        if not idx.size:
            continue
        total += idx.size
        mu = br.mu_values[idx]
        assert np.all(br.simple[idx])
        eigs = eig_dense(stack_of([assemble_perturbed(block, coeffs, x) for x in br.x_samples[idx]]))
        assert np.all(np.count_nonzero(np.abs(eigs) < RHO, axis=1) == 1)
        dist = np.sort(np.abs(eigs - mu[:, None]), axis=1)
        # the tracked value is that eigenvalue, and the rest keep the bound
        assert np.all(dist[:, 0] <= 1e-12 * (1.0 + np.abs(mu)))
        assert np.all(dist[:, 1] >= RHO - np.abs(mu))
    # 23 continuations (the infinite ladders' sweeps take two or three
    # cutoffs each) with 1246 disk samples among them
    assert len(runs) > 16 and total > 1000
