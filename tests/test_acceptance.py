"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
CLI ``selftest``, which runs the same suite).
"""

import dataclasses

import numpy as np
import pytest

from kbmlab import acceptance


@pytest.fixture(scope="module")
def suite_data():
    return acceptance.build_suite_data()


def _report(result):
    print(f"criterion {result.cid:02d} {'PASS' if result.passed else 'FAIL'}: "
          f"{result.title} | {result.detail}")
    assert result.passed, f"criterion {result.cid}: {result.detail}"


def test_criterion_01_closed_form_branch():
    _report(acceptance.criterion_1())


def test_criterion_02_convergence_at_desk_scale(suite_data):
    _report(acceptance.criterion_2(suite_data))


def test_criterion_03_perturbation_coefficients():
    _report(acceptance.criterion_3())


def test_criterion_04_zero_mode_norm_bound():
    _report(acceptance.criterion_4())


def test_criterion_05_riesz_projection():
    _report(acceptance.criterion_5())


def test_criterion_06_algebraic_identities():
    _report(acceptance.criterion_6())


def test_criterion_07_accretivity():
    _report(acceptance.criterion_7())


def test_criterion_08_collision_diagnostics(suite_data):
    _report(acceptance.criterion_8(suite_data))


def test_criterion_09_truncation_certificate(suite_data):
    _report(acceptance.criterion_9(suite_data))


def test_criterion_10_oracle_equivalence(suite_data):
    _report(acceptance.criterion_10(suite_data))


def test_criterion_10_reads_each_tables_own_coefficients(suite_data, monkeypatch):
    # the generator is assembled on the coefficients the table carries, the
    # same object, and criterion 10 builds no block of its own
    seen = []
    real = acceptance.assemble_generator

    def recording(coeffs, gamma):
        seen.append(coeffs)
        return real(coeffs, gamma)

    def forbidden(*args, **kwargs):
        raise AssertionError("criterion 10 built a block")

    monkeypatch.setattr(acceptance, "assemble_generator", recording)
    for name in ("block_at", "ladder_coefficients"):
        monkeypatch.setattr(acceptance, name, forbidden)
    assert acceptance.criterion_10(suite_data).passed
    tables = list(suite_data.tables.values())
    assert {id(coeffs) for coeffs in seen} == {id(t.coeffs) for t in tables}
    for coeffs in seen:
        assert any(coeffs is t.coeffs for t in tables)


def _doctored(data, case, **fields):
    """The fixture with one table's fields replaced."""
    tables = dict(data.tables)
    tables[case] = dataclasses.replace(tables[case], **fields)
    return dataclasses.replace(data, tables=tables)


def test_criterion_08_fails_on_a_misplaced_collision(suite_data):
    case = (acceptance.SPHERE_K, 2.0)
    result = acceptance.criterion_8(_doctored(suite_data, case, empirical_r=4.5))
    assert not result.passed and "x_collision = 0.444444" in result.detail


def test_criterion_10_fails_on_a_moved_row(suite_data):
    case = (acceptance.CUSTOM_K, 5.0)
    table = suite_data.tables[case]
    f = 4.0 * (1.0 + np.sqrt(5.0))
    i = int(np.nonzero(table.gamma_grid >= 1.5 * f)[0][0])
    lam = table.lam.copy()
    lam[i] += 1e-6
    result = acceptance.criterion_10(_doctored(suite_data, case, lam=lam))
    assert not result.passed and result.detail.startswith("(K=-1.0, eta=5.0, gamma=")


def test_criterion_10_fails_on_a_case_without_band_rows(suite_data):
    case = (0.0, 1.0)
    simple = np.zeros_like(suite_data.tables[case].simple)
    result = acceptance.criterion_10(_doctored(suite_data, case, simple=simple))
    assert not result.passed and result.detail.startswith("(K=0.0, eta=1.0): no simple row")


def test_registry_lists_every_criterion_once():
    assert [c.cid for c in acceptance.CRITERIA] == list(range(1, 11))
    assert [c.cid for c in acceptance.CRITERIA if c.reads_fixture] == [2, 8, 9, 10]
