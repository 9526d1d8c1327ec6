"""Acceptance suite: each test runs one numbered selftest criterion at
its stated tolerance and prints a pass/fail line (visible with -s or in
failure output)."""

import json

from ccr_hopf import selftest
from ccr_hopf.reports import dump_json

SEED = 42


def _run(fn):
    result = fn(SEED)
    tag = "PASS" if result["passed"] else "FAIL"
    print(f"criterion {result['criterion']:02d} [{tag}] {result['name']}")
    assert result["passed"], json.dumps(result["details"], indent=2, default=str)
    return result


def test_criterion_01_exact_ccr_normal_forms():
    r = _run(selftest.criterion_01)
    assert r["details"]["deformed"] == r["details"]["deformed_expected"]
    assert r["details"]["undeformed"] == r["details"]["undeformed_expected"]


def test_criterion_02_confluence_two_schedules():
    r = _run(selftest.criterion_02)
    assert r["details"]["words_checked"] == 1000
    assert r["details"]["mismatches"] == []


def test_criterion_03_k_collapse_identity():
    r = _run(selftest.criterion_03)
    assert r["details"]["symbolic"] == r["details"]["symbolic_expected"]
    assert r["details"]["numeric_max_error"] < 1e-12


def test_criterion_04_deformation_constant_special_cases():
    r = _run(selftest.criterion_04)
    assert r["details"]["c_equals_1_max_error"] <= 1e-12
    assert r["details"]["q_near_1_max_error"] < 1e-8


def test_criterion_05_classical_hopf_axioms():
    r = _run(selftest.criterion_05)
    axioms = {rep["axiom"] for rep in r["details"]["reports"]}
    assert axioms == {"coassociativity", "counit", "antipode", "cocommutativity"}
    assert all(rep["degree"] == 3 for rep in r["details"]["reports"])


def test_criterion_06_deformed_hopf_axioms():
    r = _run(selftest.criterion_06)
    assert r["details"]["witness_matches_recorded_residual"] is True
    assert r["details"]["cocommutativity_at_s_equals_1"]["status"] == "pass"


def test_criterion_07_idempotent_identity_finding():
    r = _run(selftest.criterion_07)
    assert r["details"]["recorded_as_finding"] is True
    witnesses = {f["witness"] for f in r["details"]["report"]["failures"]}
    assert witnesses == {"Delta on I*I = I", "S on I*I = I"}


def test_criterion_08_fock_ccr_and_generating_function():
    r = _run(selftest.criterion_08)
    assert r["details"]["ccr_max_residual"] < 1e-12
    assert r["details"]["genfun_error_nmax20"] < 1e-8
    assert r["details"]["monotone"] is True


def test_criterion_09_normal_form_representation_functor():
    r = _run(selftest.criterion_09)
    assert r["details"]["expressions"] == 200
    assert r["details"]["max_residual"] < 1e-10


def test_criterion_10_transfer_representation_ccr():
    r = _run(selftest.criterion_10)
    assert r["details"]["points"] == 20
    assert r["details"]["max_residual"] < 1e-12


def test_criterion_11_number_operator_growth_trend():
    r = _run(selftest.criterion_11)
    assert max(r["details"]["uniform_relative_errors"]) <= 0.02
    assert r["details"]["slope_ratio"] >= 5.0


def test_criterion_12_gaussian_measure_checks():
    r = _run(selftest.criterion_12)
    d = r["details"]
    assert d["cocycle_max_residual"] < 1e-10
    assert d["density_ratio_max_residual"] < 1e-10
    assert d["eta_max_error"] < 1e-8
    assert d["weyl_max_residual"] < 1e-10
    assert all(b["within_3_sigma"] for b in d["bochner"].values())


def test_criterion_13_deterministic_reports():
    first = selftest.run_criteria(SEED)
    second = selftest.run_criteria(SEED)
    identical = dump_json(first).encode() == dump_json(second).encode()
    tag = "PASS" if identical else "FAIL"
    print(f"criterion 13 [{tag}] deterministic-reports")
    assert identical


def test_criterion_documents_share_one_frame():
    # every criterion document is its number, name, verdict and details,
    # and the exact comparisons carry tolerance 0.0 next to the verdict
    exact = {1, 2, 5, 6, 7, 13}
    docs = [fn(SEED) for fn in selftest.CRITERION_FUNCS]
    docs.append(selftest.run_selftest(SEED)["criteria"][12])
    for position, doc in enumerate(docs):
        number = position + 1
        assert doc["criterion"] == number
        frame = {"criterion", "name", "passed", "details"}
        assert set(doc) == (frame | {"tolerance"} if number in exact else frame), number
        if number in exact:
            assert doc["tolerance"] == 0.0
        assert type(doc["passed"]) is bool
        assert isinstance(doc["details"], dict)
    assert len({doc["name"] for doc in docs}) == len(docs) == 13
