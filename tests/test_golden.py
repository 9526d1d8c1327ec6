"""Golden CLI corpus: recorded invocations replayed byte for byte.

``tests/golden/cli.json`` holds the argv, exit code, stdout and stderr of
each invocation.  Each one is replayed through ``ccr_hopf.cli.main``
in-process from inside ``tests/golden/`` (the config block echoes the
``--gram`` path) and must reproduce every byte.  Argparse usage text is
part of the record, so the terminal width is pinned to 80 columns; the
corpus was recorded with Python 3.11.  It also holds the ``--help`` text
of every subcommand and command group.  Runs of the commands whose floats
depend on the BLAS build (``fock``, ``measure``) are not in the corpus;
``tests/test_cli_reports.py`` pins their report shape instead.  The
exceptions are three ``measure bochner`` runs, which pin the bytes of the
Monte-Carlo estimate, merged block by block in a fixed order, on the
recording build.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from ccr_hopf.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


def _replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_golden_cli(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _replay(case["argv"])
    assert out == case["stdout"]
    assert err == case["stderr"]
    assert code == case["exit"]
