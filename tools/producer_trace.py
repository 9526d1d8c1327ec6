"""Statement lines of ``src/ccr_hopf`` that no producer of the package runs.

One process, under ``sys.settrace``, runs every producer the repository
records:

- every golden case of ``tests/golden/cli.json`` through
  ``ccr_hopf.cli.main``, from inside ``tests/golden/`` as the golden test
  replays it, and the first one that prints a report once more with
  ``--output`` into a temporary directory;
- every row of ``.github/cli-contract.sh`` whose timeout is at most 60 s,
  from the repository root; a row is split with ``shlex``, and a row that
  needs the shell's expansion (``$(...)``) is expanded once by ``bash``,
  as the table's ``eval "argv=($args)"`` expands it;
- two cycles of each of the four benchmark workloads, ``rewrite``,
  ``hopf``, ``numeric`` and ``cli`` (seed 1), through the executors of
  ``perfbench/workloads.py``; the ``cli`` workload's gram files are
  written, as its worker writes them, into the same temporary directory.

It then prints, file by file, the statement lines that none of them ran,
and exits 1 when a file has more of them than its ceiling in CEILINGS.
A statement is an ``ast`` statement whose first line holds bytecode, so a
function's docstring is not one.  The output depends on the tree alone,
not on the run's timing.  The tool takes no options, edits nothing under
``perfbench/`` and writes no file (not even bytecode caches) outside that
temporary directory, which it removes.  Run it
from anywhere:

    python tools/producer_trace.py

It took about a minute on a 2-core x86 host.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ccr_hopf"
GOLDEN = ROOT / "tests" / "golden"
CONTRACT = ROOT / ".github" / "cli-contract.sh"
CONTRACT_TIMEOUT_S = 60
WORKLOADS = ("rewrite", "hopf", "numeric", "cli")
CYCLES = 2
# the most never-run statements each file may keep, a file missing here
# none.  A ceiling may only fall: a change that runs more of a file lowers
# its ceiling to the new count, and code that no producer runs needs a
# producer (a golden case, a contract row) rather than a higher ceiling
CEILINGS = {
    "__init__.py": 7, "algebra.py": 25, "cli.py": 13, "exprparse.py": 8, "fock.py": 19,
    "hopf.py": 7, "measure.py": 13, "reports.py": 4, "scalars.py": 18, "selftest.py": 2,
}


def statement_lines(path: Path) -> set:
    """First lines of the statements of a source file that hold bytecode."""
    source = path.read_text(encoding="utf-8")
    code_lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    stmts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return stmts & code_lines


def contract_rows() -> list:
    """argv of the contract rows within the timeout: split with shlex, or
    expanded by bash when a row needs the shell's expansion."""
    text = CONTRACT.read_text(encoding="utf-8")
    table = text.split("<<'ROWS'\n", 1)[1].split("\nROWS\n", 1)[0]
    rows = []
    for line in table.splitlines():
        parts = line.split(None, 2)
        if len(parts) < 3 or line.startswith("#") or int(parts[1]) > CONTRACT_TIMEOUT_S:
            continue
        if "$(" in parts[2]:
            out = subprocess.run(["bash", "-c", f'printf "%s\\0" {parts[2]}'],
                                 capture_output=True, check=True).stdout
            rows.append(out.decode().split("\0")[:-1])
        else:
            rows.append(shlex.split(parts[2]))
    return rows


def run_cli(main, argv, cwd: Path) -> None:
    """One in-process invocation; its output and exit code are dropped."""
    os.chdir(cwd)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(list(argv))
        except SystemExit:  # argparse rejects bad usage this way
            pass


def run_producers() -> str:
    """Run every producer; returns a one-line account of what ran."""
    from ccr_hopf.cli import main

    here = os.getcwd()
    os.environ["COLUMNS"] = "80"
    cases = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))
    report = next(c["argv"] for c in cases if c["exit"] == 0 and "--help" not in c["argv"])
    rows = contract_rows()
    requests = 0
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for case in cases:
                run_cli(main, case["argv"], GOLDEN)
            run_cli(main, report + ["--output", os.path.join(tmp, "report.json")], GOLDEN)
            for argv in rows:
                run_cli(main, argv, ROOT)
        finally:
            os.chdir(here)

        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        # the cli cycle names the gram files its setup writes in CLI_DIR
        workloads.CLI_DIR = tmp
        for name in WORKLOADS:
            wl = workloads.WORKLOADS[name]
            rng = random.Random(f"1:{name}")
            if name == "cli":
                workloads.cli_setup(rng, tmp)
            layers = workloads.Layers(wl.modules)
            for index in range(CYCLES):
                for req in wl.cycle(rng, index):
                    requests += 1
                    try:
                        workloads.EXECUTORS[req.kind](layers, req.params)
                    except Exception:  # noqa: BLE001 -- a failing request still ran its lines
                        pass
    return (f"{len(cases)} golden cases (one again with --output), {len(rows)} contract rows, "
            f"{requests} requests of {CYCLES} cycles of {', '.join(WORKLOADS)}")


def main() -> int:
    files = sorted(PACKAGE.glob("*.py"))
    hits = {str(path): set() for path in files}

    def on_call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        add = lines.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(PACKAGE.parent))
    warnings.simplefilter("ignore")
    sys.settrace(on_call)
    try:
        ran = run_producers()
    finally:
        sys.settrace(None)

    print(f"# ran {ran}")
    over = []
    for path in files:
        stmts = statement_lines(path)
        unrun = sorted(stmts - hits[str(path)])
        print(f"{path.name}: {len(unrun)} of {len(stmts)} statements never ran")
        if unrun:
            print("  " + " ".join(map(str, unrun)))
        if len(unrun) > CEILINGS.get(path.name, 0):
            over.append(f"{path.name} has {len(unrun)} never-run statements, over its "
                        f"ceiling of {CEILINGS.get(path.name, 0)}")
    for line in over:
        print(f"producer_trace: {line}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
