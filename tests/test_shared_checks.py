"""The checks that both a command and the acceptance suite judge are
defined once, in the module that measures them: each command's report
and each selftest criterion carry the same tolerance, both read one
verdict's passed, and the shared sampling loops draw what the loops they
replaced drew."""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from ccr_hopf import fock, measure, selftest
from ccr_hopf.cli import main
from ccr_hopf.measure import GaussianModel, eta_error, eta_sweep, gauss_vector
from ccr_hopf.reports import dump_json


@functools.cache
def _criterion(n: int) -> dict:
    return selftest.CRITERION_FUNCS[n - 1](42)


def _cli(capsys, argv) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["results"]


BOCHNER_TEXT = f"{measure.BOCHNER_SIGMAS} standard errors"

# (argv, report field, criterion, criterion fields, the one definition)
SHARED = [
    (["measure", "cocycle", "--samples", "5"], "tolerance", 12,
     ["cocycle_tolerance", "density_ratio_tolerance"], measure.COCYCLE_TOLERANCE),
    (["measure", "eta"], "tolerance", 12, ["eta_tolerance"], measure.ETA_TOLERANCE),
    (["measure", "weyl", "--count", "5"], "tolerance", 12, ["weyl_tolerance"],
     measure.WEYL_TOLERANCE),
    (["measure", "bochner", "--samples", "2000"], "tolerance", 12,
     ["bochner.sqrt2-identity.tolerance", "bochner.triangular.tolerance"], BOCHNER_TEXT),
    (["fock", "transfer", "--nmax", "4"], "tolerance", 10, ["tolerance"],
     fock.TRANSFER_TOLERANCE),
    (["fock", "genfun", "--v", "0.5"], "tolerance", 8, ["genfun_tolerance"],
     fock.GENFUN_TOLERANCE),
    (["fock", "trend", "--nmax", "12"], "slope_ratio_floor", 11, ["slope_ratio_floor"],
     fock.SLOPE_RATIO_FLOOR),
]


@pytest.mark.parametrize("argv, field, criterion, paths, want", SHARED,
                         ids=[" ".join(s[0][:2]) for s in SHARED])
def test_command_and_criterion_read_one_tolerance(capsys, argv, field, criterion, paths, want):
    assert _cli(capsys, argv)[field] == want
    details = _criterion(criterion)["details"]
    for path in paths:
        value = details
        for key in path.split("."):
            value = value[key]
        assert value == want


# tolerances only a command judges: (argv, report field, module, constant,
# its value, a value that fails the same run, the exit code it fails with).
# No tolerance fails a spectrum of the positive semidefinite N without
# falling below the solver's rounding bound, which spectrum_check refuses
CLI_ONLY = [
    (["fock", "spectrum", "--nmax", "6"], "nonnegative_tolerance", fock,
     "NONNEGATIVE_TOLERANCE", 1e-8, -1.0, 2),
    (["measure", "pd-check"], "tolerance", measure, "PD_EIGENVALUE_FLOOR", -1e-10, 1.0, 1),
]


@pytest.mark.parametrize("argv, field, module, name, value, failing, code", CLI_ONLY,
                         ids=[" ".join(c[0][:2]) for c in CLI_ONLY])
def test_report_tolerance_is_the_constant_its_verdict_reads(capsys, monkeypatch, argv, field,
                                                            module, name, value, failing, code):
    assert getattr(module, name) == value
    assert _cli(capsys, argv)[field] == value
    # moving the one constant moves the report and the verdict together
    monkeypatch.setattr(module, name, failing)
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and f"tolerance of {failing:g}" in err
    else:
        doc = json.loads(out)
        assert doc["passed"] is False and doc["results"][field] == failing


# (module, verdict, argv, criterion): each verdict a command and a criterion share
VERDICTS = [
    (measure, "cocycle_sweep", ["measure", "cocycle", "--samples", "5"], 12),
    (measure, "eta_check", ["measure", "eta"], 12),
    (measure, "weyl_sweep", ["measure", "weyl", "--count", "5"], 12),
    (measure, "bochner_check", ["measure", "bochner", "--samples", "2000"], 12),
    (fock, "transfer_check", ["fock", "transfer", "--nmax", "4"], 10),
    (fock, "genfun_check", ["fock", "genfun", "--v", "0.5"], 8),
    (fock, "boundedness_trend", ["fock", "trend", "--nmax", "12"], 11),
]


@pytest.mark.parametrize("module, name, argv, criterion", VERDICTS, ids=[v[1] for v in VERDICTS])
def test_a_failing_verdict_fails_the_command_and_the_criterion(capsys, monkeypatch, module, name,
                                                               argv, criterion):
    # neither the command nor the criterion judges the fields again: the
    # verdict's passed alone decides both
    verdict = getattr(module, name)

    def failing(*args, **kw):
        return verdict(*args, **kw)[0], False

    assert _criterion(criterion)["passed"] is True
    for where in (module, selftest):  # selftest binds the names it imports
        monkeypatch.setattr(where, name, failing)
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
    assert selftest.CRITERION_FUNCS[criterion - 1](42)["passed"] is False


def _eta_loop(model, rng, count):
    # the loop eta_sweep replaced: v, then u, for each point
    points = []
    for _ in range(count):
        v = gauss_vector(rng, model.d)
        u = gauss_vector(rng, model.d)
        points.append(eta_error(model, v, u))
    return points


def test_eta_sweep_draws_as_the_command_did(capsys):
    rows = _cli(capsys, ["measure", "eta", "--seed", "7", "--d", "3"])["points"]
    want = _eta_loop(GaussianModel.fock(3), random.Random("7:eta-cli"), 3)
    assert rows == [{"error": e, "estimate": g, "exact": x} for e, g, x in want]
    assert eta_sweep(GaussianModel.fock(3), random.Random("7:eta-cli"), 3) == want


def test_eta_sweep_draws_as_criterion_12_did():
    # criterion 12's stream: per model the cocycle sweep, ten eta points,
    # then the Weyl sweep, all from one rng
    rng, ref = random.Random("42:measure"), random.Random("42:measure")
    worst = 0.0
    for model in (GaussianModel.fock(2), GaussianModel(np.array([[1.0, 0.3], [0.0, 2.0]]))):
        for r in (rng, ref):
            measure.cocycle_sweep(model, r, 100)
        got = eta_sweep(model, rng, 10)
        assert got == _eta_loop(model, ref, 10)
        worst = max(worst, *(err for err, _, _ in got))
        for r in (rng, ref):
            measure.weyl_sweep(model, r, 50)
    assert rng.random() == ref.random()
    assert _criterion(12)["details"]["eta_max_error"] == worst


def test_bochner_check_fields_and_verdict():
    model = GaussianModel(np.array([[1.0, 0.3], [0.0, 2.0]]))
    v = np.array([0.3, -1.0])
    fields, passed = measure.bochner_check(model, v, 2000, 5)
    est = measure.bochner_mc(model, v, samples=2000, seed=5)
    gap = abs(est.estimate - model.Z(v))
    assert fields == {"estimate_im": est.estimate.imag, "estimate_re": est.estimate.real,
                      "exact": model.Z(v), "gap": gap, "stderr": est.stderr,
                      "tolerance": BOCHNER_TEXT}
    assert passed is (gap <= measure.BOCHNER_SIGMAS * est.stderr)


def test_trend_verdict():
    trend, passed = fock.boundedness_trend(d_values=(1, 2), nmax=12)
    assert passed is (trend["slope_ratio"] >= fock.SLOPE_RATIO_FLOOR)
    assert not passed  # two mode counts at nmax 12 stay under the floor
    # the verdict stands beside the fields, which the report serializes
    assert sorted(json.loads(dump_json(trend))) == [
        "d_values", "nmax", "slope_ratio", "summable", "summable_slope", "uniform",
        "uniform_slope"]


def test_vacuum_occupancy_of_the_built_operator(capsys):
    # fock spectrum reports <0|N|0> of the operator it solves
    m = fock.ModeSpace(2, 8)
    spec = fock.BogoliubovSpec.uniform(2, 0.3)
    n = fock.number_operator(m, spec)
    vac = m.vacuum()
    want = float(np.real(np.vdot(vac, n @ vac)))
    argv = ["fock", "spectrum", "--nmax", "8", "--family", "uniform", "--r", "0.3"]
    assert _cli(capsys, argv)["vacuum_occupancy"] == want


def test_both_numeric_layers_refuse_a_gram_asymmetric_past_their_tolerance():
    # the checks state atol=1e-12 and no relative slack: numpy's default
    # rtol=1e-5 let this file's 1e-6 asymmetry through to the fock commands
    # and measure eta, where normalize refused it
    path = Path(__file__).parent / "golden" / "gram_asymmetric.json"
    gram = json.loads(path.read_text(encoding="utf-8"))
    with pytest.raises(fock.FockError, match="gram must be Hermitian"):
        fock.ModeSpace(2, 3, gram=gram)
    with pytest.raises(measure.MeasureError, match="gram must be a real symmetric"):
        GaussianModel.fock(2, gram=gram)
    # a mirror within 1e-12 still passes both
    gram[1][0] = gram[0][1] + 5e-13
    assert fock.ModeSpace(2, 3, gram=gram).gram is not None
    assert GaussianModel.fock(2, gram=gram).gram[1][0] == gram[1][0]
