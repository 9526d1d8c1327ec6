"""The residual bounds of the cocycle, density-ratio, Weyl and transfer
verdicts scale with the values each compares.

A fixed absolute bound failed on exact identities once the compared
values grew large: about one selftest seed in eight failed criterion 12
on rounding alone.  These tests replay criterion 12's draws over many
seeds, sweep the commands over the size of their inputs, and plant
defects that the scaled bounds must still catch.
"""

from __future__ import annotations

import inspect
import json
import random
import textwrap

import numpy as np
import pytest

from ccr_hopf import fock, measure, selftest
from ccr_hopf.cli import main
from ccr_hopf.measure import GaussianModel, cocycle_sweep, gauss_vector, weyl_sweep

# criterion 12's two models
MODELS = (GaussianModel.fock(2), GaussianModel(np.array([[1.0, 0.3], [0.0, 2.0]])))


def _criterion_12_verdicts(seed: int) -> list:
    """The cocycle and Weyl verdicts of criterion 12 at seed, from its one
    rng; the twenty vectors each eta sweep draws are drawn, not solved."""
    rng = random.Random(f"{seed}:measure")
    verdicts = []
    for model in MODELS:
        verdicts.append(cocycle_sweep(model, rng, 100))
        for _ in range(20):
            gauss_vector(rng, model.d)
        verdicts.append(weyl_sweep(model, rng, 50))
    return verdicts


def test_criterion_12_draws_pass_over_a_seed_sweep():
    # seeds 5, 8 and 877038 failed the absolute bound on the cocycle or the
    # density ratio, 626 on the Weyl relation as well; 130 of seeds 0-999
    # failed it.  Budget: 5 s (about 4 s on a 2-core x86-64 VM)
    failed = [seed for seed in (*range(200), 5, 8, 626, 877038)
              if not all(passed for _, passed in _criterion_12_verdicts(seed))]
    assert failed == []


@pytest.mark.parametrize("scale", [0.1, 0.25, 0.5, 2.0, 10.0])
@pytest.mark.parametrize("argv", [["measure", "cocycle", "--samples", "300"],
                                  ["measure", "weyl", "--count", "100"]],
                         ids=["cocycle", "weyl"])
def test_measure_checks_pass_at_every_scale(capsys, argv, scale):
    assert main([*argv, "--scale", str(scale)]) == 0
    capsys.readouterr()


# near-orthogonal v and w make the target C Re<v|w> small next to the
# products it is compared with
@pytest.mark.parametrize("v, w", [("1e-3,-1e-3", "2,1e-3"), ("1,-1", "2,1"), ("1e3,-1e3", "2,1e3"),
                                  ("1e7,-1e7", "2,1e7"), ("300,400", "100,200"),
                                  ("300,400", "400,-300")])
def test_transfer_passes_at_every_vector_size(capsys, v, w):
    assert main(["fock", "transfer", "--v", v, "--w", w]) == 0
    capsys.readouterr()


def _mutant(module, name: str, old: str, new: str):
    """module.name compiled from its source with the one text old replaced
    by new, in the module's namespace."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1
    scope = {}
    exec(compile(src.replace(old, new), module.__file__, "exec"), module.__dict__, scope)
    return scope[name]


def _assert_criterion_12_fails(check: int):
    """Both models fail the cocycle verdict (check 0) or the Weyl verdict
    (check 1), and so does criterion 12."""
    for seed in (42, 7):
        assert not any(passed for _, passed in _criterion_12_verdicts(seed)[check::2])
        assert selftest.criterion_12(seed)["passed"] is False


def test_a_cocycle_with_the_wrong_quadratic_term_fails(capsys, monkeypatch):
    monkeypatch.setattr(measure, "cocycle", _mutant(measure, "cocycle", "-0.25 *", "-0.5 *"))
    _assert_criterion_12_fails(0)
    for model in MODELS:
        fields, passed = cocycle_sweep(model, random.Random(1), 100)
        assert not passed
        assert min(fields["cocycle_max_residual"], fields["density_ratio_max_residual"]) > 1e-3
    assert main(["measure", "cocycle", "--scale", "0.5"]) == 1
    capsys.readouterr()


def test_a_weyl_relation_without_its_phase_fails(capsys, monkeypatch):
    monkeypatch.setattr(measure, "_weyl_sides", _mutant(
        measure, "_weyl_sides", "cmath.exp(1j * model.inner(v, vp)) * ", ""))
    _assert_criterion_12_fails(1)
    for model in MODELS:
        fields, passed = weyl_sweep(model, random.Random(1), 50)
        assert not passed and fields["max_residual"] > 1e-3
    assert main(["measure", "weyl", "--scale", "0.25"]) == 1
    capsys.readouterr()


def test_a_transfer_target_without_its_real_part_fails(capsys, monkeypatch, tmp_path):
    gram = [[1, [0, "1/2"]], [[0, "-1/2"], 1]]
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram), encoding="utf-8")
    m = fock.ModeSpace(2, 10, gram=np.array([[1, 0.5j], [-0.5j, 1]]))
    rng = random.Random(3)
    points = [(fock.transfer_rep(m, rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5)),
               gauss_vector(rng, 2), gauss_vector(rng, 2)) for _ in range(20)]
    assert all(fock.transfer_check(*p)[1] for p in points)
    assert main(["fock", "transfer", "--gram", str(path)]) == 0
    monkeypatch.setattr(fock, "transfer_check", _mutant(
        fock, "transfer_check", "float(np.real(np.conj(v) @ m.gram @ w))",
        "complex(np.conj(v) @ m.gram @ w)"))
    assert not any(fock.transfer_check(*p)[1] for p in points)
    assert main(["fock", "transfer", "--gram", str(path)]) == 1
    capsys.readouterr()
