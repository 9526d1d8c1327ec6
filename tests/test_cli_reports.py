"""Report shape of every fock and measure subcommand.

The golden corpus leaves these commands out because their floats depend
on the BLAS build.  What does not depend on it is pinned here: the exit
code, the ``command`` field, the exact ``config`` echo (including the
``fock-command``/``measure-command`` echo, the ``--seed`` given and the
deformation point ``fock transfer`` used) and the key set of
``results``.  ``--output`` writes the report stdout would hold to a file,
for an algebra and a fock command alike.
"""

from __future__ import annotations

import json

import pytest

from ccr_hopf.cli import main

# (argv, exit code, config echo, sorted results keys)
CASES = [
    (
        ["fock", "matrices", "--d", "1", "--nmax", "3"], 0,
        {"d": 1, "fock-command": "matrices", "format": "json", "gram": None, "nmax": 3,
         "output": None, "seed": 42},
        ["dim", "modes", "states"],
    ),
    (
        ["fock", "matrices", "--d", "1", "--nmax", "2", "--seed", "7"], 0,
        {"d": 1, "fock-command": "matrices", "format": "json", "gram": None, "nmax": 2,
         "output": None, "seed": 7},
        ["dim", "modes", "states"],
    ),
    (
        ["fock", "spectrum", "--nmax", "6"], 0,
        {"d": 2, "family": "fock", "fock-command": "spectrum", "format": "json", "gram": None,
         "k": 5, "nmax": 6, "output": None, "r": 0.34657359027997264, "seed": 42},
        ["eigenvalues", "nonnegative_tolerance", "rs", "solver", "vacuum_occupancy"],
    ),
    (
        ["fock", "spectrum", "--nmax", "6", "--family", "uniform", "--r", "0.3", "--k", "3"],
        0,
        {"d": 2, "family": "uniform", "fock-command": "spectrum", "format": "json", "gram": None,
         "k": 3, "nmax": 6, "output": None, "r": 0.3, "seed": 42},
        ["eigenvalues", "nonnegative_tolerance", "rs", "solver", "vacuum_occupancy"],
    ),
    (
        ["fock", "genfun", "--v", "1.0"], 0,
        {"d": 1, "family": "fock", "fock-command": "genfun", "format": "json", "gram": None,
         "nmax": 10, "output": None, "r": 0.34657359027997264, "seed": 42, "v": "1.0"},
        ["error", "expected", "tolerance", "value_im", "value_re"],
    ),
    (
        ["fock", "genfun", "--d", "2", "--v", "0.5,-1", "--family", "summable"], 0,
        {"d": 2, "family": "summable", "fock-command": "genfun", "format": "json", "gram": None,
         "nmax": 10, "output": None, "r": 0.34657359027997264, "seed": 42, "v": "0.5,-1"},
        ["error", "expected", "tolerance", "value_im", "value_re"],
    ),
    (
        ["fock", "transfer", "--nmax", "6"], 0,
        {"c": 0.8, "d": 2, "fock-command": "transfer", "format": "json", "gram": None, "nmax": 6,
         "output": None, "q": 1.5, "seed": 42, "v": None, "w": None},
        ["c_qc", "residual", "scale", "tolerance", "v", "w"],
    ),
    (
        ["fock", "transfer", "--nmax", "4", "--seed", "7"], 0,
        {"c": 0.8, "d": 2, "fock-command": "transfer", "format": "json", "gram": None, "nmax": 4,
         "output": None, "q": 1.5, "seed": 7, "v": None, "w": None},
        ["c_qc", "residual", "scale", "tolerance", "v", "w"],
    ),
    (
        ["fock", "transfer", "--nmax", "6", "--v", "1,0", "--w", "0.5,2", "--q", "1.3", "--c",
         "0.7", "--seed", "3"], 0,
        {"c": 0.7, "d": 2, "fock-command": "transfer", "format": "json", "gram": None, "nmax": 6,
         "output": None, "q": 1.3, "seed": 3, "v": "1,0", "w": "0.5,2"},
        ["c_qc", "residual", "scale", "tolerance", "v", "w"],
    ),
    (
        ["fock", "trend", "--nmax", "12", "--dvalues", "1,2"], 1,
        {"dvalues": "1,2", "fock-command": "trend", "format": "json", "nmax": 12, "output": None,
         "seed": 42},
        ["slope_ratio_floor", "trend"],
    ),
    (
        ["measure", "cocycle", "--samples", "10"], 0,
        {"d": 2, "format": "json", "gram": None, "kmat": None, "measure-command": "cocycle",
         "output": None, "samples": 10, "scale": None, "seed": 42},
        ["cocycle_max_residual", "density_ratio_max_residual", "samples", "tolerance"],
    ),
    (
        ["measure", "cocycle", "--samples", "10", "--scale", "1.3", "--seed", "7"], 0,
        {"d": 2, "format": "json", "gram": None, "kmat": None, "measure-command": "cocycle",
         "output": None, "samples": 10, "scale": 1.3, "seed": 7},
        ["cocycle_max_residual", "density_ratio_max_residual", "samples", "tolerance"],
    ),
    (
        ["measure", "eta"], 0,
        {"d": 2, "format": "json", "gram": None, "kmat": None, "measure-command": "eta",
         "output": None, "scale": None, "seed": 42, "u": None, "v": None},
        ["max_error", "points", "tolerance"],
    ),
    (
        ["measure", "eta", "--v", "1,2", "--u", "0.5,-1"], 0,
        {"d": 2, "format": "json", "gram": None, "kmat": None, "measure-command": "eta",
         "output": None, "scale": None, "seed": 42, "u": "0.5,-1", "v": "1,2"},
        ["max_error", "points", "tolerance"],
    ),
    (
        ["measure", "bochner", "--samples", "2000"], 0,
        {"d": 2, "format": "json", "gram": None, "kmat": None, "measure-command": "bochner",
         "output": None, "samples": 2000, "scale": None, "seed": 42, "v": None},
        ["estimate_im", "estimate_re", "exact", "gap", "samples", "stderr", "tolerance", "v"],
    ),
    (
        ["measure", "bochner", "--samples", "2000", "--v", "0.3,-1", "--seed", "5"], 0,
        {"d": 2, "format": "json", "gram": None, "kmat": None, "measure-command": "bochner",
         "output": None, "samples": 2000, "scale": None, "seed": 5, "v": "0.3,-1"},
        ["estimate_im", "estimate_re", "exact", "gap", "samples", "stderr", "tolerance", "v"],
    ),
    (
        ["measure", "weyl", "--count", "10"], 0,
        {"count": 10, "d": 2, "format": "json", "gram": None, "kmat": None,
         "measure-command": "weyl", "output": None, "scale": None, "seed": 42},
        ["max_residual", "points", "tolerance"],
    ),
    (
        ["measure", "weyl", "--count", "5", "--d", "3", "--seed", "7"], 0,
        {"count": 5, "d": 3, "format": "json", "gram": None, "kmat": None,
         "measure-command": "weyl", "output": None, "scale": None, "seed": 7},
        ["max_residual", "points", "tolerance"],
    ),
    (
        ["measure", "pd-check", "--d", "3", "--scale", "0.8"], 0,
        {"count": 8, "d": 3, "format": "json", "gram": None, "kmat": None,
         "measure-command": "pd-check", "output": None, "scale": 0.8, "seed": 42},
        ["min_eigenvalue", "tolerance", "vectors"],
    ),
]


@pytest.mark.parametrize(
    "argv, code, config, keys",
    CASES,
    ids=[f"{i:02d}-{'-'.join(c[0][:2])}" for i, c in enumerate(CASES)],
)
def test_fock_measure_report_shape(capsys, argv, code, config, keys):
    assert main(list(argv)) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == " ".join(argv[:2])
    assert doc["config"] == config
    assert sorted(doc["results"]) == keys
    assert doc["passed"] is (code == 0)


@pytest.mark.parametrize(
    "argv", [["normalize", "pi(0)*phi(0)"], ["fock", "spectrum", "--d", "1", "--nmax", "4"]]
)
def test_output_writes_the_stdout_report_to_the_file(capsys, tmp_path, argv):
    assert main(argv) == 0
    want, status = capsys.readouterr()
    path = tmp_path / "report.json"
    assert main(argv + ["--output", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == status and err.startswith("ok: ")
    # the report is stdout's bytes but for its config echo of the path
    echo = '"output": null'
    assert want.count(echo) == 1
    assert path.read_bytes() == want.replace(echo, f'"output": {json.dumps(str(path))}').encode()
    # a file in a missing directory is refused through main's OSError branch
    assert main(argv + ["--output", str(tmp_path / "missing" / "report.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("ccr-hopf: ")
