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


def test_reused_parser_forgets_the_seed(capsys, monkeypatch):
    argv = ["hopf-check", "--checks", "multiplicativity", "--degree", "1", "--modes", "1"]
    code, out, _ = _main(capsys, argv + ["--seed", "7"])
    assert code == 0 and json.loads(out)["config"]["seed"] == 7
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


def _names(nodes, strings=False):
    """Every name and attribute under nodes, and every string constant
    when strings is set."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.add(sub.value)
    return out


def _own_code(node):
    """What runs when a definition is used: a function's whole node, and a
    class's bases, decorators and body outside its methods and nested
    classes, which are definitions of their own."""
    if isinstance(node, ast.ClassDef):
        return node.bases + node.keywords + node.decorator_list + [
            stmt for stmt in node.body if not isinstance(stmt, _DEFINITIONS)]
    return [node]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced_outside_itself():
    # a function, class or method that no command, selftest criterion or
    # benchmark workload reaches moves into tests/ as an oracle or goes.
    # Reached names are walked from the roots: the module-level statements
    # of src/ccr_hopf, which run on import; dunder methods, which are
    # called by protocol; and every name, attribute and string in
    # perfbench/ (workloads.Layers names functions as strings).  A reached
    # name reaches what every definition of that name references.  Names
    # are matched without their scope, so a definition still passes when
    # reached code uses its name for something else: hopf's letters.index
    # would keep a definition named index.
    defined, calls, roots = [], {}, set()
    for path in sorted((ROOT / "src" / "ccr_hopf").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots |= _names(stmt for stmt in tree.body if not isinstance(stmt, _DEFINITIONS))
        for node in ast.walk(tree):
            if not isinstance(node, _DEFINITIONS):
                continue
            names = _names(_own_code(node))
            if _is_dunder(node.name):
                roots |= names
            else:
                defined.append((path.name, node.name, node.lineno))
                calls.setdefault(node.name, set()).update(names)
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        roots |= _names([ast.parse(path.read_text(encoding="utf-8"))], strings=True)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(calls.get(name, ()))
    stray = [f"{f}:{line} {name}" for f, name, line in sorted(defined) if name not in reached]
    assert not stray, "reached from nowhere in src or perfbench: " + ", ".join(stray)
