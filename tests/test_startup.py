"""What an invocation pays for: the parser is built once per process and
reused without carrying state between calls, and the package and the CLI
import numpy and scipy only for the commands that use them."""

import json
import subprocess
import sys

import pytest

from ccr_hopf import cli


def _main(capsys, argv):
    """(exit code, stdout, stderr) of one in-process invocation; --help
    ends in SystemExit, whose code is returned as well."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _fresh_main(capsys, monkeypatch, argv):
    # the same invocation on a parser built just for it
    with monkeypatch.context() as mp:
        mp.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        return _main(capsys, argv)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_forgets_flags(capsys, monkeypatch):
    code, out, _ = _main(capsys, ["normalize", "--numeric", "pi(0)*phi(0)"])
    assert code == 0 and json.loads(out)["config"]["numeric"] is True
    code, out, err = _main(capsys, ["normalize", "pi(0)*phi(0)"])
    doc = json.loads(out)
    assert code == 0 and doc["config"]["numeric"] is False
    assert "normal_form_numeric" not in doc["results"]
    assert (code, out, err) == _fresh_main(capsys, monkeypatch, ["normalize", "pi(0)*phi(0)"])


def test_reused_parser_forgets_env_seed(capsys, monkeypatch):
    argv = ["hopf-check", "--checks", "multiplicativity", "--degree", "1", "--modes", "1"]
    monkeypatch.setenv("CCR_HOPF_SEED", "7")
    code, out, _ = _main(capsys, argv)
    assert code == 0 and json.loads(out)["config"]["seed"] == 7
    monkeypatch.delenv("CCR_HOPF_SEED")
    code, out, err = _main(capsys, argv)
    assert code == 0 and json.loads(out)["config"]["seed"] == 42
    assert (code, out, err) == _fresh_main(capsys, monkeypatch, argv)


@pytest.mark.parametrize(
    "argv", [["--help"], ["normalize", "--help"], ["fock", "spectrum", "--help"]]
)
def test_reused_parser_help_follows_columns(capsys, monkeypatch, argv):
    texts = {}
    for columns in ("40", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = _main(capsys, argv)
        assert code == 0
        assert (code, out) == _fresh_main(capsys, monkeypatch, argv)[:2]
        texts[columns] = out
    assert texts["40"] != texts["80"]


def _python(code: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


_NUMERIC_LOADED = "print(json.dumps(sorted({'numpy', 'scipy'} & set(sys.modules))))"


def test_fresh_cli_import_and_algebra_command_skip_numpy():
    proc = _python(
        "import json, sys\n"
        "import ccr_hopf.cli\n" + _NUMERIC_LOADED + "\n"
        "code = ccr_hopf.cli.main(['normalize', 'pi(0)*phi(0)'])\n"
        "assert code == 0, code\n" + _NUMERIC_LOADED + "\n"
    )
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[0]) == []
    assert json.loads(lines[-1]) == []


def test_fresh_package_resolves_every_public_name():
    proc = _python(
        "import ccr_hopf\n"
        "for name in ccr_hopf.__all__:\n"
        "    getattr(ccr_hopf, name)\n"
        "assert sorted(dir(ccr_hopf)) == sorted(ccr_hopf.__all__)\n"
    )
    assert proc.stdout == ""


def test_fresh_star_import():
    proc = _python(
        "import json, ccr_hopf\n"
        "ns = {}\n"
        "exec('from ccr_hopf import *', ns)\n"
        "print(json.dumps(sorted(set(ccr_hopf.__all__) - set(ns))))\n"
    )
    assert json.loads(proc.stdout) == []


def test_fresh_measure_import_skips_fock_and_scipy():
    proc = _python(
        "import json, sys\n"
        "import ccr_hopf.measure\n"
        "print(json.dumps(sorted({'ccr_hopf.fock', 'scipy'} & set(sys.modules))))\n"
    )
    assert json.loads(proc.stdout) == []


def test_fresh_fock_import_skips_sparse_linalg():
    proc = _python(
        "import json, sys\n"
        "import ccr_hopf.fock\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.sparse.linalg'))))\n"
    )
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize(
    "argv", [["fock", "spectrum", "--d", "1", "--nmax", "4"], ["measure", "eta"]]
)
def test_fresh_numeric_commands(argv):
    # inside this test process fock and measure are already imported, so a
    # lazy import the command forgot would only show in a fresh interpreter
    proc = subprocess.run([sys.executable, "-m", "ccr_hopf.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
