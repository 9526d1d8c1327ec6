"""What an invocation pays for: the parser is built once per process and
reused without carrying state between calls, the package and the CLI
import numpy only for the commands that use them, nothing imports scipy,
which only the tests use, and the package holds no definition that only
the tests reach."""

import ast
import json
import subprocess
import sys
from pathlib import Path

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
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'ccr_hopf.fock' or m.split('.')[0] == 'scipy')))\n"
    )
    assert json.loads(proc.stdout) == []


def test_fresh_fock_import_skips_sparse_linalg():
    # no scipy module at all, scipy.sparse.linalg among them
    proc = _python(
        "import json, sys\n"
        "import ccr_hopf.fock\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["fock", "spectrum", "--d", "2", "--nmax", "10", "--family", "uniform"],
        ["fock", "genfun", "--v", "1.0"],
        ["selftest", "--seed", "42"],
        ["fock", "transfer"],
        ["fock", "matrices"],
        ["fock", "trend"],
    ],
)
def test_fresh_fock_commands_skip_scipy_solvers(argv):
    # the Fock layer runs on numpy alone, so no scipy module is loaded, its
    # solver packages or any other; scipy.sparse alone would add about
    # 20 MB and 0.14 s to the first call
    proc = _python(
        "import contextlib, io, json, sys\n"
        "import ccr_hopf.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = ccr_hopf.cli.main({argv!r})\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
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


ROOT = Path(__file__).resolve().parents[1]
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# definitions under src/ccr_hopf that nothing in src or perfbench/ references,
# each with the reason it stays
UNREFERENCED_ALLOWED = {
    ("hopf.py", "_co_free"): "the free-algebra coproduct the tests check _co_nf against",
}


def _references(tree, strings):
    """(name, names of the enclosing definitions) of every name and
    attribute in tree, and of every string constant when strings is set."""
    out = []

    def visit(node, enclosing):
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def test_every_definition_is_referenced_outside_itself():
    # a function, class or method that no command, selftest criterion or
    # benchmark workload reaches moves into tests/ as an oracle or goes.
    # A reference is a name or attribute in src/ccr_hopf or perfbench/
    # outside the definition itself; perfbench also names functions as
    # strings (workloads.Layers).  Dunder methods are called by protocol.
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "ccr_hopf").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, node.name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, _DEFINITIONS)
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
        used |= {name for name, enclosing in _references(tree, False) if name not in enclosing}
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= {name for name, enclosing in _references(tree, True) if name not in enclosing}
    unreferenced = {(f, name): line for f, name, line in defined if name not in used}
    stray = [f"{f}:{line} {name}" for (f, name), line in sorted(unreferenced.items())
             if (f, name) not in UNREFERENCED_ALLOWED]
    assert not stray, "referenced from nowhere in src or perfbench: " + ", ".join(stray)
    # an allowance outlives neither its definition nor its reason
    assert set(UNREFERENCED_ALLOWED) <= set(unreferenced)
