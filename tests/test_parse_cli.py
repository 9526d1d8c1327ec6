import contextlib
import io
import json
import math
import os
import random
import shlex
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccr_hopf.algebra import (
    FAM_AM,
    FAM_AP,
    FAM_PHI,
    FAM_PI,
    RIGHTMOST_STEP_BUDGET,
    AlgebraError,
    Presentation,
    adjoint,
    legal_letter_count,
    legal_letters,
    normal_form,
    phi,
    random_expr,
    unit,
)
from ccr_hopf.cli import _HOPF_CHECKS, main
from ccr_hopf.exprparse import ParseError, expr_to_text, parse_expr, scalar_text
from ccr_hopf.fock import GENFUN_TAIL_BUDGET, _poisson_tail
from ccr_hopf.hopf import MAX_CHECK_WORDS
from ccr_hopf.scalars import IMAG, KAPPA, ONE, S_PARAM, Scalar


def test_grammar_examples():
    e = parse_expr("pi(0)*phi(0) - phi(0)*pi(0)")
    assert len(e.terms) == 2
    assert all(len(w) == 2 for w in e.terms)

    e = parse_expr("i*kappa*I")
    ((word, coeff),) = e.terms.items()
    assert word == ((0, 0),)
    assert coeff == IMAG * KAPPA

    e = parse_expr("ap(1)^2")
    ((word, coeff),) = e.terms.items()
    assert word == ((5, 1), (5, 1))
    assert coeff == ONE


def test_whitespace_and_numbers():
    assert parse_expr("  phi( 2 ) * 3/4 ") == parse_expr("3/4*phi(2)")
    assert parse_expr("3.5*one") == parse_expr("7/2*one")
    assert parse_expr("0") == parse_expr("phi(0) - phi(0)")
    # unary minus binds the whole leading term
    assert parse_expr("-2*phi(0)") == -parse_expr("2*phi(0)")


def test_negative_exponents_scalars_only():
    e = parse_expr("s^-2*Kinv")
    ((word, coeff),) = e.terms.items()
    assert coeff == S_PARAM ** -2
    with pytest.raises(ParseError):
        parse_expr("phi(0)^-1")
    # a parenthesized scalar subexpression is an acceptable base
    e = parse_expr("(1 + s)^-1 * I")
    ((_, coeff),) = e.terms.items()
    assert coeff == (ONE + S_PARAM) ** -1


def test_parse_error_positions():
    cases = [
        ("phi(0", 5),
        ("2 +", 3),
        ("phi(x)", 4),
        ("wibble", 0),
        ("1 ) 2", 2),
        ("phi(0) $ 2", 7),
    ]
    for text, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.position == pos


def test_round_trip_random():
    rng = random.Random(20240817)
    presentations = [
        Presentation(),
        Presentation(variant="deformed-strict"),
        Presentation(variant="deformed-strict", basis="ladder"),
        Presentation(variant="deformed-collapsed"),
    ]
    for k in range(240):
        p = presentations[k % len(presentations)]
        e = random_expr(rng, p, max_degree=4, modes=3)
        for cand in (e, normal_form(e, p), adjoint(e)):
            assert parse_expr(expr_to_text(cand)) == cand


def test_expr_str_round_trips():
    # str(e) is the grammar's text form, denominators included
    rng = random.Random(4242)
    p = Presentation(variant="deformed-strict")
    scalars = [
        IMAG,
        KAPPA,
        Scalar.rational(3, 4),
        (ONE + S_PARAM).inverse(),
        KAPPA * (S_PARAM ** 2 - IMAG).inverse(),
    ]
    for _ in range(120):
        e = random_expr(rng, p, max_degree=3, modes=2)
        e = e * rng.choice(scalars) + random_expr(rng, p, max_degree=2, modes=2)
        assert parse_expr(str(e)) == e
    assert str(IMAG * phi(0) + 2 * unit()) == "2 + i*phi(0)"


def test_scalar_text_rational_function():
    r = (ONE + S_PARAM) * (S_PARAM ** 2 - Scalar.rational(3)).inverse()
    text = scalar_text(r)
    assert "/" not in text.replace("1/", "", 0) or "^-1" in text
    parsed = parse_expr(text)
    ((word, coeff),) = parsed.terms.items()
    assert word == ()
    assert coeff == r


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_cli_normalize_deformed(capsys):
    code, doc, _ = run_cli(
        capsys, ["normalize", "pi(0)*phi(0)", "--variant", "deformed"]
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["results"]["normal_form"]["text"] == "-i*kappa*I + phi(0)*pi(0)"
    # constant coefficients serialize as rational strings
    coeffs = {t["word"]: t["coeff"] for t in doc["results"]["normal_form"]["terms"]}
    assert coeffs["phi(0)*pi(0)"] == {"im": "0", "re": "1"}
    assert coeffs["I"] == "-i*kappa"


def test_cli_normalize_numeric(capsys):
    code, doc, _ = run_cli(capsys, ["normalize", "pi(0)*phi(0)", "--numeric"])
    assert code == 0
    rows = doc["results"]["normal_form_numeric"]
    by_word = {r["word"]: r["coeff"] for r in rows}
    assert by_word["I"] == {"im": -1.0, "re": 0.0}


def test_cli_commutator_with_gram(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps([[1, "1/2"], ["1/2", 2]]))
    code, doc, _ = run_cli(
        capsys, ["commutator", "pi(0)", "phi(1)", "--gram", str(gram)]
    )
    assert code == 0
    ((term,),) = (doc["results"]["commutator"]["terms"],)
    assert term["word"] == "I"
    assert term["coeff"] == {"im": "-1/2", "re": "0"}


def test_cli_fock_transfer_with_gram(tmp_path, capsys):
    # the residual is judged against the gram inner product; against the
    # Euclidean v.w these matrices leave 3.486
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps([[1, "1/2"], ["1/2", 2]]))
    code, doc, err = run_cli(
        capsys, ["fock", "transfer", "--nmax", "6", "--seed", "42", "--gram", str(gram)]
    )
    assert code == 0, err
    assert doc["passed"] is True
    assert doc["results"]["residual"] < 1e-12


def test_cli_convert_round_trip(capsys):
    code, doc, _ = run_cli(capsys, ["convert", "ap(0)", "--to", "phi-pi"])
    assert code == 0
    text = doc["results"]["converted"]["text"]
    back = normal_form(parse_expr(text), Presentation(basis="ladder"))
    assert back == parse_expr("ap(0)")


def test_cli_hopf_check_default_passes(capsys):
    code, doc, _ = run_cli(capsys, ["hopf-check", "--flavor", "classical", "--degree", "3"])
    assert code == 0
    axioms = [r["axiom"] for r in doc["results"]["reports"]]
    assert axioms == [
        "coassociativity",
        "counit",
        "antipode",
        "cocommutativity",
        "multiplicativity",
    ]
    assert all(r["status"] == "pass" for r in doc["results"]["reports"])


def test_cli_hopf_check_witness_failure(capsys):
    code, doc, _ = run_cli(
        capsys,
        [
            "hopf-check",
            "--flavor",
            "deformed",
            "--variant",
            "deformed",
            "--degree",
            "1",
            "--checks",
            "cocommutativity",
        ],
    )
    assert code == 1
    report = doc["results"]["reports"][0]
    assert report["status"] == "fail"
    witnesses = {f["witness"] for f in report["failures"]}
    assert "phi(0)" in witnesses


@pytest.mark.parametrize("checks", ["multiplicativity,multiplicativity", "counit,counit",
                                    "counit,antipode,counit"])
def test_cli_hopf_check_refuses_a_repeated_check(capsys, monkeypatch, checks):
    # a repeated name ran its check twice and reported it twice; it is
    # refused before any check runs
    monkeypatch.setattr("ccr_hopf.cli._HOPF_CHECK_TABLE", {})
    code, doc, err = run_cli(capsys, ["hopf-check", "--checks", checks])
    assert code == 2 and doc is None
    assert err.startswith("ccr-hopf: ") and err.count("\n") == 1
    assert "is named more than once" in err


@pytest.mark.parametrize("checks", ["", "counit,", ",counit", "counit,,antipode"])
def test_cli_hopf_check_refuses_an_empty_check_name(capsys, monkeypatch, checks):
    # an empty --checks ran the whole default set; it names the empty
    # check, as a trailing comma does, and is refused before any check runs
    monkeypatch.setattr("ccr_hopf.cli._HOPF_CHECK_TABLE", {})
    code, doc, err = run_cli(capsys, ["hopf-check", "--checks", checks])
    assert code == 2 and doc is None
    assert err == "ccr-hopf: unknown check ''; choose from " + ", ".join(_HOPF_CHECKS) + "\n"


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, ["normalize", "phi(0"])
    assert code == 2 and "position 5" in err
    code, _, err = run_cli(capsys, ["normalize", "phi(0)", "--q", "2.0"])
    assert code == 2 and "--c" in err
    code, _, err = run_cli(capsys, ["normalize", "K"])  # K needs a deformed variant
    assert code == 2
    code, _, err = run_cli(capsys, ["measure", "cocycle", "--kmat", "/no/such/file.json"])
    assert code == 2



def test_cli_malformed_gram_json_exits_2(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text("[[1, 0], [0, 1")
    code, doc, err = run_cli(capsys, ["normalize", "phi(0)", "--gram", str(gram)])
    assert code == 2 and doc is None
    assert "not valid JSON" in err


def test_cli_mode_outside_gram_exits_2(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text("[[1, 0], [0, 1]]")
    for expr in ("phi(5)", "phi(5)*pi(5)", "pi(5)*phi(5)"):
        code, doc, err = run_cli(capsys, ["normalize", expr, "--gram", str(gram)])
        assert code == 2 and doc is None
        assert "mode index 5 outside the 2-mode gram" in err


@pytest.mark.parametrize("checks", ["counit", "antipode", "coassociativity", "cocommutativity",
                                    "respects-relations", "multiplicativity"])
@pytest.mark.parametrize("degree", ["0", "1"])
def test_cli_hopf_check_refuses_a_mode_window_past_the_gram_at_every_degree(capsys, checks,
                                                                           degree):
    # a degree-0 sweep builds no word over the window's letters, yet its
    # window is refused like every other check's, in the same words
    code, doc, err = run_cli(capsys, ["hopf-check", "--checks", checks, "--degree", degree,
                                      "--modes", "3", "--gram", _GRAM2])
    assert code == 2 and doc is None
    assert err == "ccr-hopf: mode index 2 outside the 2-mode gram\n"


def test_cli_non_finite_vector_exits_2(capsys):
    code, doc, err = run_cli(capsys, ["fock", "genfun", "--v", "nan"])
    assert code == 2 and doc is None
    assert "non-finite" in err


def test_cli_overflowing_generating_function_exits_2(capsys):
    code, doc, err = run_cli(capsys, ["fock", "genfun", "--v", "1e300"])
    assert code == 2 and doc is None
    assert err.startswith("ccr-hopf: ") and err.count("\n") == 1


def test_cli_overflowing_squeezing_exits_2(capsys):
    argv = ["fock", "spectrum", "--family", "uniform", "--r", "1e308"]
    code, doc, err = run_cli(capsys, argv)
    assert code == 2 and doc is None
    assert "squeezing" in err



def test_cli_spectrum_reports_solver(capsys):
    argv = ["fock", "spectrum", "--d", "2", "--nmax", "6", "--family", "uniform", "--k", "3"]
    code, doc, _ = run_cli(capsys, argv)
    assert code == 0
    # four parity sectors; (even, even) holds 10 of the 28 states
    assert doc["results"]["solver"] == {"blocks": 4, "largest_block": 10, "method": "dense-blocks"}
    assert len(doc["results"]["eigenvalues"]) == 3
    code, doc, _ = run_cli(capsys, ["fock", "spectrum", "--d", "2", "--nmax", "3"])
    assert code == 0
    assert doc["results"]["solver"] == {"blocks": 10, "largest_block": 1, "method": "dense-blocks"}


def test_cli_spectrum_refuses_a_rounding_bound_past_the_tolerance(capsys):
    # summable squeezing at r = 100 reported eigenvalues of -1.5e71 for a
    # positive semidefinite N: the solver's bound s u ||N||_F is 3.4e73
    argv = ["fock", "spectrum", "--family", "summable", "--d", "2", "--r", "100"]
    code, doc, err = run_cli(capsys, argv)
    assert code == 2 and doc is None
    assert err.startswith("ccr-hopf: ") and err.count("\n") == 1
    assert "rounding bound 3.36e+73 (largest block of 21 states)" in err
    # asking for no eigenvalue leaves nothing to round, and reports as before
    code, doc, _ = run_cli(capsys, argv + ["--k", "0"])
    assert code == 0 and doc["results"]["eigenvalues"] == []
    assert doc["results"]["solver"] == {"blocks": 4, "largest_block": 21,
                                        "method": "dense-blocks"}


def test_cli_spectrum_finds_the_blocks_once(capsys, monkeypatch):
    # one fock spectrum searches the invariant blocks once, for the report's
    # solver layout and for the solve, and refuses in the order it did:
    # a negative k first, then the block budget before the rounding bound
    import numpy as np

    from ccr_hopf import fock

    calls = []
    for name in ("invariant_blocks", "_solver_blocks", "_block_eigenvalues"):
        def counted(*args, _f=getattr(fock, name), _name=name):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(fock, name, counted)
    argv = ["fock", "spectrum", "--d", "2", "--nmax", "6", "--family", "uniform"]
    for k, code in (("3", 0), ("0", 0), ("-1", 2)):
        calls.clear()
        got, doc, err = run_cli(capsys, argv + ["--k", k])
        assert got == code
        if code == 0:
            assert len(doc["results"]["eigenvalues"]) == int(k)
            assert calls == ["_solver_blocks", "invariant_blocks", "_block_eigenvalues"]
        else:
            assert "k must be non-negative" in err and calls == ["_solver_blocks"]
    # one mode at nmax 4100 splits into two parity blocks of 2051 states,
    # over the solver's budget and past the rounding bound at once
    calls.clear()
    code, _, err = run_cli(capsys, ["fock", "spectrum", "--d", "1", "--nmax", "4100",
                                    "--family", "uniform", "--r", "0.5"])
    assert code == 2 and "exceeds the dense eigen-solver budget" in err
    assert calls == ["_solver_blocks", "invariant_blocks"]
    n = fock.number_operator(fock.ModeSpace(1, 4100), fock.BogoliubovSpec.uniform(1, 0.5))
    assert 2051 * 2.0 ** -53 * float(np.linalg.norm(n.vals)) > fock.NONNEGATIVE_TOLERANCE
    # the public solve finds the blocks once too, and k = 0 is refused nothing
    calls.clear()
    assert fock.smallest_eigenvalues(n, 0) == ()
    assert calls == ["_solver_blocks", "invariant_blocks", "_block_eigenvalues"]


_ROOT = Path(__file__).resolve().parent.parent


def _contract_rows():
    """(exit code, timeout in s, argv, label) of every row of the contract
    table, split as tools/producer_trace.py splits them: with shlex, and a
    row that needs the shell's expansion ($(...)) by bash, once, as the
    table's eval "argv=($args)" expands it.  label is shlex.join(argv), or
    an expanded row's own text, since its argv runs to thousands of
    characters."""
    table = (_ROOT / ".github" / "cli-contract.sh").read_text(encoding="utf-8")
    rows = []
    for line in table.split("<<'ROWS'\n", 1)[1].split("\nROWS\n", 1)[0].splitlines():
        parts = line.split(None, 2)
        if len(parts) < 3 or line.startswith("#"):
            continue
        if "$(" in parts[2]:
            argv, label = _shell_words(parts[2]), parts[2]
        else:
            argv = shlex.split(parts[2])
            label = shlex.join(argv)
        rows.append((int(parts[0]), int(parts[1]), argv, label))
    return rows


def _shell_words(args):
    """The words bash expands args to, command substitutions included."""
    out = subprocess.run(["bash", "-c", f'printf "%s\\0" {args}'], capture_output=True,
                         check=True).stdout
    return out.decode().split("\0")[:-1]


def _recorded_spectrum_argvs():
    """The fock spectrum invocations of the golden corpus and of the
    contract table that expect a report (exit 0 or 1), help text aside."""
    cases = json.loads((_ROOT / "tests" / "golden" / "cli.json").read_text(encoding="utf-8"))
    argvs = [c["argv"] for c in cases if c["exit"] != 2]
    argvs += [argv for want, _, argv, _ in _contract_rows() if want in (0, 1)]
    return [a for a in argvs if a[:2] == ["fock", "spectrum"] and "--help" not in a]


def test_recorded_spectra_stay_inside_the_rounding_bound(capsys, monkeypatch):
    # the bound s u ||N||_F, recomputed here, stays below the tolerance on
    # every spectrum the corpus and the contract record, so none is refused
    import numpy as np

    from ccr_hopf import fock

    bounds = []
    check = fock.spectrum_check

    def bounded(n, k):
        bounds.append(fock.invariant_blocks(n)[1].max() * 2.0 ** -53 * np.linalg.norm(n.toarray()))
        return check(n, k)

    monkeypatch.setattr(fock, "spectrum_check", bounded)
    argvs = _recorded_spectrum_argvs()
    assert len(argvs) >= 4
    for argv in argvs:
        assert main(argv) in (0, 1), argv
        capsys.readouterr()
    assert len(bounds) == len(argvs)
    assert max(bounds) < 1e-10 < fock.NONNEGATIVE_TOLERANCE


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["fock", "spectrum", "--d", "1", "--nmax", "4", "--k", "-1"], "non-negative"),
        (["fock", "spectrum", "--d", "1", "--nmax", "4100", "--family", "uniform"], "budget"),
        (["hopf-check", "--degree", "-1"], "--degree"),
        (["hopf-check", "--checks", "counit", "--degree", "-1"], "--degree"),
        (["hopf-check", "--modes", "100000000"], "budget"),
        (["hopf-check", "--modes", "100000000", "--checks", "counit", "--degree", "0"], "budget"),
        (["measure", "weyl", "--count", "100000000"], "budget"),
        (["measure", "pd-check", "--count", "100000000"], "budget"),
        # within the candidate-word budget, but Delta of the degree-12 words
        # would hold 188419 free coproduct terms
        (["hopf-check", "--modes", "1", "--degree", "12"], "budget"),
        (["hopf-check", "--checks", "antipode", "--modes", "2", "--degree", "6"], "budget"),
        # a 9-mode test function may translate into 32805 monomials
        (["measure", "weyl", "--d", "9", "--count", "1"], "budget"),
        (["measure", "weyl", "--d", "8", "--count", "10"], "budget"),
        # multiplicativity trials at degree 16 multiply words of up to 32
        # letters (40.8 s before the trial budget)
        (["hopf-check", "--checks", "multiplicativity", "--modes", "1", "--degree", "16"],
         "budget of 16"),
        # coefficients a report cannot hold: an integer with more digits than
        # the interpreter converts to text, or a value past the float range
        (["normalize", "pi(0)^300*phi(0)^300", "--variant", "deformed", "--q", "1.5",
          "--c", "0.8"], "digits"),
        (["normalize", "123456^1000*phi(0)"], "digits"),
        (["normalize", "10^400*phi(0)", "--numeric"], "float range"),
        # numbers and a mode index with more digits than the interpreter
        # converts (4300): an integer, a ratio, a decimal and a mode
        (["normalize", "1" * 5000 + "*phi(0)"],
         "parse error: too many digits in a number at position 0"),
        (["normalize", "phi(0) + 2/" + "3" * 5000],
         "parse error: too many digits in a number at position 9"),
        (["normalize", "1." + "1" * 5000 + "*phi(0)"],
         "parse error: too many digits in a number at position 0"),
        (["normalize", "phi(" + "1" * 5000 + ")"],
         "parse error: too many digits in a mode number at position 4"),
    ],
)
def test_cli_unbounded_arguments_exit_2(capsys, argv, needle):
    code, doc, err = run_cli(capsys, argv)
    assert code == 2 and doc is None
    assert needle in err and "Traceback" not in err
    assert err.startswith("ccr-hopf: ") and err.count("\n") == 1


@pytest.mark.parametrize("modes", ["0", "-3"])
def test_cli_respects_relations_without_modes_exits_2(capsys, modes):
    argv = ["hopf-check", "--checks", "respects-relations", "--modes", modes]
    code, doc, err = run_cli(capsys, argv)
    assert code == 2 and doc is None
    assert "no covered field generators" in err


# one command of each family that reads a --gram or --kmat file
_MATRIX_FILE_COMMANDS = [
    ["normalize", "phi(0)", "--gram"],
    ["hopf-check", "--degree", "1", "--gram"],
    ["fock", "matrices", "--nmax", "1", "--gram"],
    ["measure", "eta", "--gram"],
    ["measure", "eta", "--kmat"],
]


@pytest.mark.parametrize("argv", _MATRIX_FILE_COMMANDS)
@pytest.mark.parametrize("bad", ['"x"', '"1/0"', "[1]", "[0, [1, 2]]", "true", "false",
                                 "[true, 0]", '["1/2", false]'])
def test_cli_unreadable_matrix_entry_exits_2(tmp_path, capsys, argv, bad):
    path = tmp_path / "m.json"
    path.write_text(f"[[1, 0], [0, {bad}]]")
    code, doc, err = run_cli(capsys, argv + [str(path)])
    assert code == 2 and doc is None
    assert "cannot read matrix entry" in err


@pytest.mark.parametrize("argv", _MATRIX_FILE_COMMANDS)
def test_cli_matrix_entries_read_like_a_gram(tmp_path, capsys, argv):
    # rational strings inside [re, im] pairs, read as Gram reads them
    path = tmp_path / "m.json"
    path.write_text('[[1, ["1/2", 0]], [["1/2", "0"], 2]]')
    code, doc, _ = run_cli(capsys, argv + [str(path)])
    assert code == 0 and doc["passed"] is True


@pytest.mark.parametrize("argv", _MATRIX_FILE_COMMANDS[2:])
def test_cli_ragged_matrix_file_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "m.json"
    path.write_text("[[1, 0], [0]]")
    code, doc, err = run_cli(capsys, argv + [str(path)])
    assert code == 2 and doc is None
    assert "must hold a square matrix" in err


@pytest.mark.parametrize(
    "argv", [["measure", "pd-check", "--gram"], ["measure", "eta", "--kmat"],
             ["measure", "cocycle", "--samples", "5", "--kmat"]]
)
def test_cli_measure_refuses_complex_matrix(tmp_path, capsys, argv):
    path = tmp_path / "m.json"
    path.write_text("[[1, [0, 1]], [[0, -1], 2]]")
    code, doc, err = run_cli(capsys, argv + [str(path)])
    assert code == 2 and doc is None
    assert "nonzero imaginary part" in err


def test_cli_many_modes_enumerate_without_recursion(capsys):
    code, doc, _ = run_cli(capsys, ["fock", "spectrum", "--d", "1100", "--nmax", "1", "--k", "2"])
    assert code == 0 and doc["results"]["eigenvalues"] == [0.0, 1.0]
    code, doc, err = run_cli(capsys, ["fock", "trend", "--dvalues", "1,1000"])
    assert code == 2 and doc is None
    assert "budget of" in err and "states" in err


def test_hopf_check_budget_admits_degree_5_over_2_modes():
    for variant in ("undeformed", "deformed-strict", "deformed-collapsed"):
        p = Presentation(variant=variant)
        for modes in (-1, 0, 1, 3):
            assert legal_letter_count(p, modes) == len(legal_letters(p, modes))
        assert math.comb(legal_letter_count(p, 2) + 5, 5) <= MAX_CHECK_WORDS


def test_cli_trend_needs_two_mode_counts(capsys):
    code, doc, err = run_cli(capsys, ["fock", "trend", "--dvalues", "1", "--nmax", "12"])
    assert code == 2 and doc is None
    assert "two distinct mode counts" in err
    code, _, err = run_cli(capsys, ["fock", "trend", "--dvalues", "1,x"])
    assert code == 2 and "--dvalues" in err


@pytest.mark.parametrize("argv", [
    ["fock", "trend", "--nmax", "0"],
    ["measure", "bochner", "--v", "1e308,1e308"],
    ["measure", "eta", "--v", "1e308,1e308", "--u", "1,1"],
    ["fock", "transfer", "--v", "1e308,1e308"],
    ["measure", "cocycle", "--scale", "1e-150"],
    ["measure", "weyl", "--scale", "1e-150", "--count", "5"],
    ["measure", "eta", "--scale", "1e-150"],
    ["measure", "cocycle", "--scale", "1e-150", "--samples", "1", "--seed", "1"],
    ["measure", "cocycle", "--scale", "1e-10", "--samples", "1", "--seed", "0"],
], ids=["trend-nmax-0", "bochner-overflow", "eta-overflow", "transfer-overflow",
        "cocycle-scale-overflow", "weyl-scale-overflow", "eta-scale-overflow",
        "cocycle-infinite-density", "cocycle-zero-density"])
def test_cli_refuses_input_without_a_finite_report(capsys, argv):
    # a cutoff that admits no quantum, and vectors or scales whose products
    # overflow a float, would print slope_ratio=inf, NaN or Infinity as a
    # failed check, end in a traceback, or (a NaN density ratio, which max()
    # drops) pass with a residual of 0
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("ccr-hopf: ")


def test_cli_non_finite_report_value_exits_2(capsys, monkeypatch):
    # the report writer refuses NaN and Infinity rather than print them
    import ccr_hopf.fock as fock

    def infinite_trend(d_values, nmax):
        return {"d_values": list(d_values), "nmax": nmax, "slope_ratio": math.inf}, True

    monkeypatch.setattr(fock, "boundedness_trend", infinite_trend)
    code = main(["fock", "trend"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("ccr-hopf: ")


def test_cli_bochner_keeps_large_finite_phases(capsys):
    code, doc, _ = run_cli(capsys, ["measure", "bochner", "--v", "1e200,1e200"])
    assert code == 0
    res = doc["results"]
    assert all(math.isfinite(res[k]) for k in ("estimate_re", "estimate_im", "gap", "stderr"))


def test_cli_normalize_long_word(capsys):
    code, doc, _ = run_cli(capsys, ["normalize", "pi(0)*phi(0)^600"])
    assert code == 0
    assert doc["results"]["normal_form"]["text"] == "-600*i*I*phi(0)^599 + phi(0)^600*pi(0)"

def test_cli_fock_genfun_check(capsys):
    code, doc, _ = run_cli(
        capsys, ["fock", "genfun", "--d", "1", "--nmax", "20", "--v", "1.0"]
    )
    assert code == 0
    r = doc["results"]
    assert abs(r["value_re"] - r["expected"]) <= r["tolerance"]
    assert r["error"] < 1e-8


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["--v", "1e5"], "no --nmax within the 20000-state budget"),
        (["--v", "1e3", "--nmax", "20"], "no --nmax within the 20000-state budget"),
        (["--family", "uniform", "--r", "3", "--v", "1", "--nmax", "20"], "it needs --nmax 286"),
        (["--family", "uniform", "--r", "10", "--v", "1"], "no --nmax"),
        (["--d", "2", "--nmax", "30", "--v", "1.5,-2", "--family", "summable", "--r", "1"],
         "it needs --nmax 39"),
        # at d = 1 the 2000-state Krylov budget binds before the state budget
        (["--v", "70", "--nmax", "20"], "2000-state Krylov budget (at most 1999 for d=1)"),
    ],
)
def test_cli_genfun_over_budget_exits_2_before_expm(capsys, monkeypatch, argv, needle):
    import ccr_hopf.fock

    def unreachable(*args, **kwargs):
        raise AssertionError("the budget must refuse before the Lanczos solve runs")

    monkeypatch.setattr(ccr_hopf.fock, "vacuum_generating_function", unreachable)
    code, doc, err = run_cli(capsys, ["fock", "genfun"] + argv)
    assert _one_refusal(code, doc, err)
    assert f"budget of {GENFUN_TAIL_BUDGET:g}" in err and needle in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--v", "1.0"],
        ["--d", "2", "--v", "0.5,-1", "--family", "summable"],  # tail weight 6.5e-9
        ["--family", "uniform", "--r", "3", "--v", "1", "--nmax", "286"],
        ["--d", "2", "--nmax", "39", "--v", "1.5,-2", "--family", "summable", "--r", "1"],
        ["--d", "3", "--nmax", "14", "--v", "0.4,-0.3,0.8", "--family", "uniform", "--r", "-0.5"],
        # a gram run is checked against the same closed form
        ["--d", "2", "--v", "0.3,0.4", "--family", "uniform", "--r", "0.4",
         "--gram", str(Path(__file__).resolve().parent / "golden" / "gram2.json")],
    ],
)
def test_cli_genfun_checks_every_family(capsys, argv):
    code, doc, _ = run_cli(capsys, ["fock", "genfun"] + argv)
    assert code == 0
    r = doc["results"]
    assert r["tolerance"] == 1e-8 and r["error"] <= 1e-10
    assert abs(r["value_re"] - r["expected"]) == r["error"]


def test_genfun_closed_form_holds_with_a_gram():
    # the budget's mean occupation uses the gram's coordinates, which are
    # complex for a complex gram; the truncated value confirms it
    import numpy as np

    from ccr_hopf.fock import BogoliubovSpec, ModeSpace, genfun_mean, vacuum_generating_function

    v = np.array([0.5, -0.7])
    for gram in ([[2, 0.3 + 0.4j], [0.3 - 0.4j, 1]], [[2, 0.3], [0.3, 1]]):
        m = ModeSpace(2, 40, gram=np.array(gram))
        for spec in (BogoliubovSpec.fock(2), BogoliubovSpec.uniform(2, 0.4),
                     BogoliubovSpec.summable(2, -0.6)):
            mu = genfun_mean(m, v, spec)
            assert _poisson_tail(mu, m.nmax) < 1e-40
            z = vacuum_generating_function(m, v, spec)
            assert abs(z - math.exp(-mu / 2)) < 1e-14


def test_cli_spectrum_of_many_modes(capsys):
    code, doc, _ = run_cli(capsys, ["fock", "spectrum", "--d", "1100", "--nmax", "1"])
    assert code == 0
    assert doc["results"]["eigenvalues"] == [0.0, 1.0, 1.0, 1.0, 1.0]
    assert doc["results"]["solver"]["blocks"] == 1101


def test_cli_rightmost_schedule_refuses_a_walk_over_its_step_budget(capsys):
    # pi(0)^8*phi(0)^8 took 20 s on the reference walker before it had a budget
    argv = ["normalize", "pi(0)^8*phi(0)^8", "--schedule", "rightmost"]
    code, doc, err = run_cli(capsys, argv)
    assert _one_refusal(code, doc, err)
    assert f"walked {RIGHTMOST_STEP_BUDGET} rewrite steps" in err
    assert run_cli(capsys, argv[:2])[0] == 0


def test_cli_genfun_refuses_a_krylov_space_over_the_eigen_budget(capsys):
    # the tail is within budget, but T would have 2001 states
    code, doc, err = run_cli(capsys, ["fock", "genfun", "--v", "1", "--nmax", "2000"])
    assert _one_refusal(code, doc, err)
    assert "Krylov space of nmax + 1 = 2001 states" in err


def _one_refusal(code, doc, err) -> bool:
    """Exit 2, no report, and stderr holding one "ccr-hopf:" line."""
    lines = err.splitlines()
    return code == 2 and doc is None and len(lines) == 1 and lines[0].startswith("ccr-hopf: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "phi(0)", "--variant", "deformed"],
        ["commutator", "phi(0)", "pi(0)", "--variant", "deformed"],
        ["hopf-check", "--degree", "1", "--flavor", "deformed", "--variant", "deformed"],
        ["fock", "transfer", "--nmax", "2"],
    ],
)
@pytest.mark.parametrize(
    "qc", [["--q", "nan", "--c", "1"], ["--q", "2", "--c", "nan"], ["--q", "inf", "--c", "1"],
           ["--q", "1e300", "--c", "2"]],
)
def test_cli_unusable_deformation_exits_2(capsys, argv, qc):
    assert _one_refusal(*run_cli(capsys, argv + qc))


def test_cli_undeformed_variant_refuses_numeric_qc(capsys):
    # kappa = 1 there, so a numeric point would be echoed but never used
    code, doc, err = run_cli(capsys, ["normalize", "pi(0)*phi(0)", "--q", "1.5", "--c", "0.8"])
    assert _one_refusal(code, doc, err) and "undeformed" in err
    # the both-or-neither check still comes first
    code, doc, err = run_cli(capsys, ["normalize", "phi(0)", "--q", "1.5"])
    assert _one_refusal(code, doc, err) and "needs both --q and --c" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "(s-1)^-1*phi(0)"],
        ["normalize", "(kappa-1)^-1*phi(0)"],
        ["commutator", "(1+s)^-1*phi(0)", "(s-1)^-1*pi(0)"],
        ["convert", "(kappa-1)^-1*phi(0)", "--to", "ladder"],
        ["antipode", "(kappa-1)^-1*phi(0)", "--flavor", "deformed"],
    ],
)
def test_cli_denominator_vanishing_at_numeric_qc_exits_2(capsys, argv):
    # kappa = s = 1 at q = c = 1, where these typed denominators vanish
    qc = ["--variant", "deformed", "--q", "1", "--c", "1"]
    code, doc, err = run_cli(capsys, argv + qc)
    assert _one_refusal(code, doc, err) and "vanishes at q=1.0, c=1.0" in err
    # away from that point, and without numeric q and c, they run
    for flags in (["--variant", "deformed", "--q", "1.5", "--c", "0.8"], ["--variant", "deformed"]):
        assert run_cli(capsys, argv + flags)[0] == 0


def test_typed_denominators_are_evaluated_only_at_numeric_qc(monkeypatch):
    calls = []
    substitute = Scalar.substitute
    monkeypatch.setattr(Scalar, "substitute", lambda s, a: calls.append(a) or substitute(s, a))
    e = parse_expr("(s-1)^-1*phi(0) + 2*pi(0) + kappa*phi(1)")
    Presentation(variant="deformed-strict").validate_expr(e)
    Presentation(variant="deformed-strict", q=1.5, c=0.8).validate_expr(parse_expr("2*pi(0)"))
    assert calls == []  # symbolic presentations and constant coefficients cost nothing
    # typed kappa and s are not refused in general, only a denominator that
    # vanishes at the point; a denominator of 1 is not evaluated
    Presentation(variant="deformed-strict", q=1.5, c=0.8).validate_expr(e)
    assert len(calls) == 1
    with pytest.raises(AlgebraError, match="vanishes"):
        Presentation(variant="deformed-collapsed", q=1.0, c=1.0).validate_expr(e)


@pytest.mark.parametrize("sub", ["cocycle", "eta", "bochner", "weyl", "pd-check"])
def test_cli_measure_kmat_with_scale_exits_2(capsys, tmp_path, sub):
    kmat = tmp_path / "k.json"
    kmat.write_text("[[1, 0], [0, 2]]")
    code, doc, err = run_cli(capsys, ["measure", sub, "--kmat", str(kmat), "--scale", "1.3"])
    assert _one_refusal(code, doc, err) and "--kmat and --scale" in err


@pytest.mark.parametrize("text", ["1/0*phi(0)", "0/0*phi(0)", "phi(0) + 3/0"])
def test_cli_zero_denominator_literal_exits_2(capsys, text):
    code, doc, err = run_cli(capsys, ["normalize", text])
    assert _one_refusal(code, doc, err) and "zero denominator" in err
    assert f"position {text.index('/') - 1}" in err


@pytest.mark.parametrize("text", ["phi(0)^99999999999", "s^99999999999*phi(0)",
                                  "(1+s)^-100000*phi(0)", "phi(0)^1001", "phi(0)^" + "9" * 5000])
def test_cli_exponent_above_limit_exits_2(capsys, text):
    # powers are built by repeated multiplication; the parser refuses an
    # exponent above its limit before multiplying anything
    code, doc, err = run_cli(capsys, ["normalize", text])
    assert _one_refusal(code, doc, err) and "exponent above the limit 1000" in err
    assert f"position {text.index('^') + 1 + text.startswith('(1+s)^-')}" in err


def test_cli_exponent_at_limit_is_accepted(capsys):
    code, doc, _ = run_cli(capsys, ["normalize", "phi(0)^0001000*s^1000"])
    assert code == 0
    assert doc["results"]["normal_form"]["text"] == "s^1000*phi(0)^1000"


@pytest.mark.parametrize("scale", ["nan", "1e-200"])
@pytest.mark.parametrize("sub", ["cocycle", "eta", "bochner", "weyl", "pd-check"])
def test_cli_measure_refuses_non_finite_model(capsys, sub, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would reach stderr
        code, doc, err = run_cli(capsys, ["measure", sub, "--scale", scale])
    assert _one_refusal(code, doc, err) and "finite" in err


_SEEDED = [
    ["hopf-check", "--degree", "1"],
    ["fock", "transfer", "--nmax", "2"],
    ["measure", "cocycle", "--samples", "5"],
    ["measure", "eta"],
    ["measure", "bochner", "--samples", "100"],
    ["measure", "weyl", "--count", "5"],
    ["measure", "pd-check", "--count", "2"],
    ["selftest"],
]


@pytest.mark.parametrize("argv", _SEEDED)
def test_cli_negative_seed_exits_2(capsys, argv):
    code, doc, err = run_cli(capsys, argv + ["--seed", "-1"])
    assert _one_refusal(code, doc, err) and "non-negative" in err


_GRAM2 = str(Path(__file__).resolve().parent / "golden" / "gram2.json")


@pytest.mark.parametrize("hopf_map", ["coproduct", "counit", "antipode"])
@pytest.mark.parametrize(
    "argv, needle",
    [
        (["phi(0)", "--basis", "ladder"], "phi-pi basis"),
        (["K*phi(0)", "--flavor", "deformed", "--variant", "undeformed"], "use a deformed variant"),
        (["phi(0)", "--flavor", "deformed", "--variant", "undeformed"], "use a deformed variant"),
        (["phi(5)", "--gram", _GRAM2], "mode index 5 outside the 2-mode gram"),
        (["K*phi(0)"], "generator K is not covered by the classical structure maps"),
    ],
)
def test_cli_structure_maps_share_one_guard(capsys, hopf_map, argv, needle):
    code, doc, err = run_cli(capsys, [hopf_map] + argv)
    assert _one_refusal(code, doc, err) and needle in err


def test_cli_reports_reproducible(capsys):
    argv = ["fock", "transfer", "--d", "2", "--nmax", "8", "--seed", "11"]
    code1, doc1, _ = run_cli(capsys, argv)
    code2, doc2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert doc1 == doc2
    argv = ["measure", "weyl", "--d", "2", "--count", "25"]
    _, doc1, _ = run_cli(capsys, argv)
    _, doc2, _ = run_cli(capsys, argv)
    assert doc1 == doc2


@pytest.mark.parametrize("d", ["-1", "0"])
@pytest.mark.parametrize("sub", ["cocycle", "eta", "bochner", "weyl", "pd-check"])
def test_cli_measure_needs_a_positive_dimension(capsys, sub, d):
    code, doc, err = run_cli(capsys, ["measure", sub, "--d", d])
    assert code == 2 and doc is None
    assert "--d must be positive" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "cocycle", "--samples", "0"],
        ["measure", "cocycle", "--samples", "-1"],
        ["measure", "weyl", "--count", "0"],
        ["measure", "weyl", "--count", "-3"],
    ],
)
def test_cli_measure_sweeps_need_a_point(capsys, argv):
    code, doc, err = run_cli(capsys, argv)
    assert code == 2 and doc is None
    assert "at least one sample point" in err


def test_cli_measure_eta_needs_both_vectors(capsys):
    for flags in (["--v", "1,2"], ["--u", "1,2"], ["--d", "3", "--v", "1,2"]):
        code, doc, err = run_cli(capsys, ["measure", "eta"] + flags)
        assert code == 2 and doc is None
        assert "both --v and --u" in err


def test_cli_measure_kmat_must_match_d(capsys, tmp_path):
    kmat = tmp_path / "k.json"
    kmat.write_text("[[1, 0, 0], [0, 2, 0], [0, 0, 1]]")
    code, doc, err = run_cli(capsys, ["measure", "eta", "--kmat", str(kmat)])
    assert code == 2 and doc is None
    assert "--kmat holds a 3 x 3 matrix but --d is 2" in err
    code, doc, _ = run_cli(capsys, ["measure", "eta", "--kmat", str(kmat), "--d", "3"])
    assert code == 0 and len(doc["results"]["points"]) == 3


def test_cli_measure_pd_and_scale(capsys):
    code, doc, _ = run_cli(capsys, ["measure", "pd-check", "--d", "2", "--scale", "1.3"])
    assert code == 0
    assert doc["results"]["min_eigenvalue"] >= -1e-10


def test_cli_pd_check_at_a_tiny_scale_prints_no_warning():
    # det(C) of C = 1e300 I overflows a float; numpy's RuntimeWarning went to
    # stderr ahead of the verdict line, which a fresh interpreter shows
    proc = subprocess.run(
        [sys.executable, "-m", "ccr_hopf.cli", "measure", "pd-check", "--scale", "1e-150"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("ok: measure pd-check ")


def test_cli_cocycle_under_a_huge_gram_prints_one_refusal_line(tmp_path):
    # u_v = G v near 1e200 takes M_K(C u_v) and the density past the float
    # range; numpy's overflow warnings went to stderr ahead of the refusal
    gram = tmp_path / "gram.json"
    gram.write_text("[[1e200, 0], [0, 1e200]]")
    proc = subprocess.run(
        [sys.executable, "-m", "ccr_hopf.cli", "measure", "cocycle", "--gram", str(gram)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("ccr-hopf: ")


def test_cli_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ccr_hopf.cli", "normalize", "one"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["normal_form"]["text"] == "one"
    assert "ok:" in proc.stderr


# Fuzzed normalize text: grammar-built token lists, numbers of at most two
# digits, one token dropped or a stray token inserted in two texts of three.
# Tokens are joined by spaces so that an edit never merges two numbers.  The
# exponents of generators and groups stay small, which bounds the degree.
_NAT = st.integers(0, 99).map(str)
_SCALAR = st.one_of(_NAT, st.builds("{}/{}".format, _NAT, _NAT),
                    st.builds("{}.{}".format, _NAT, _NAT), st.sampled_from(["i", "kappa", "s", "r2"]))
# modes 0 and 1 are drawn as often as the rest, so that letters share a mode
_MODE = st.one_of(st.sampled_from(["0", "1"]), _NAT)
_GEN = st.one_of(st.builds(lambda f, j: [f, "(", j, ")"], st.sampled_from(["phi", "pi", "ap", "am"]), _MODE),
                 st.sampled_from(["I", "K", "Kinv", "one"]).map(lambda g: [g]))
_STRAY = ["(", ")", "^", "-", "+", "*", "/", ".", "phi", "7", "1.5", "@", "Kinv"]


@st.composite
def _fuzz_expr(draw, top=True):
    terms = []
    for _ in range(draw(st.integers(1, 3 if top else 2))):
        factors = []
        for _ in range(draw(st.integers(1, 4 if top else 2))):
            kind = draw(st.sampled_from(["scalar", "gen", "gen", "group"] if top else ["scalar", "gen"]))
            if kind == "scalar":
                atom, most = [draw(_SCALAR)], 99
            elif kind == "gen":
                atom, most = draw(_GEN), 12 if top else 2
            else:
                atom, most = ["(", *draw(_fuzz_expr(top=False)), ")"], 3
            if draw(st.booleans()):
                atom += ["^", *draw(st.sampled_from([[], ["-"]])), str(draw(st.integers(0, most)))]
            factors.append(atom)
        terms.append([t for i, f in enumerate(factors) for t in ([] if i == 0 else ["*"]) + f])
    signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(terms), max_size=len(terms)))
    lead = ["-"] if signs[0] == "-" else []
    return lead + [t for i, term in enumerate(terms) for t in ([] if i == 0 else [signs[i]]) + term]


@st.composite
def _fuzz_text(draw):
    tokens = draw(_fuzz_expr())
    edit = draw(st.sampled_from(["none", "drop", "insert"]))
    k = draw(st.integers(0, len(tokens) - (edit == "drop")))
    if edit == "drop":
        del tokens[k]
    elif edit == "insert":
        tokens.insert(k, draw(st.sampled_from(_STRAY)))
    return " ".join(tokens)


def _exit_and_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_fuzz_text(), st.sampled_from(["undeformed", "deformed", "deformed-strict", "deformed-collapsed"]),
       st.sampled_from(["phi-pi", "ladder"]))
def test_cli_normalize_fuzzed_text(text, variant, basis):
    # exit 0 with a JSON report or exit 2, whatever the text; no exception
    # escapes main.  Up to degree 6 the reference engine prints the same report, bar the
    # schedule it echoes.
    argv = ["normalize", text, "--variant", variant, "--basis", basis, "--schedule"]
    code, out = _exit_and_stdout(argv + ["leftmost"])
    assert code in (0, 2)
    if code == 0:
        json.loads(out)
        if max(map(len, parse_expr(text).terms), default=0) <= 6:
            echo = '"schedule": "leftmost"'
            assert out.count(echo) == 1
            want = out.replace(echo, '"schedule": "rightmost"')
            assert _exit_and_stdout(argv + ["rightmost"]) == (0, want)


# a name --checks may hold that no check has: a near miss, the empty name
# or free text; a comma would split it in two, so none holds one
_BAD_CHECK_NAME = st.one_of(
    st.sampled_from(["", "Counit", "counit ", " antipode", "respects_relations", "bogus"]),
    st.text(st.characters(blacklist_characters=",", blacklist_categories=("Cs",)), max_size=12),
)


@st.composite
def _check_lists(draw):
    """Distinct known check names in any order, and then as often as not
    one edit: a name repeated, or a bad name put in."""
    names = draw(st.permutations(_HOPF_CHECKS))[: draw(st.integers(0, len(_HOPF_CHECKS)))]
    edit = draw(st.sampled_from(["none", "none", "repeat", "insert"]))
    k = draw(st.integers(0, len(names)))
    if edit == "repeat" and names:
        names.insert(k, draw(st.sampled_from(names)))
    elif edit == "insert":
        names.insert(k, draw(_BAD_CHECK_NAME))
    return names


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_check_lists())
def test_cli_hopf_check_fuzzed_check_lists(drawn):
    # exit 2 exactly when a name is unknown, empty or repeated, with one
    # ccr-hopf: line on stderr and nothing on stdout; otherwise exit 0 or 1
    # and one report per name, in the order given.  main is called bare, so
    # an exception that escapes it fails the test.  200 examples.
    names = ",".join(drawn).split(",")  # an empty list is one empty name
    argv = ["hopf-check", "--checks=" + ",".join(drawn), "--degree", "1", "--modes", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if any(n not in _HOPF_CHECKS for n in names) or len(set(names)) < len(names):
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("ccr-hopf: ") and err.getvalue().count("\n") == 1
    else:
        reports = json.loads(out.getvalue())["results"]["reports"]
        assert [r["axiom"] for r in reports] == names
        assert code == (0 if all(r["status"] == "pass" for r in reports) else 1)


# the values the argv fuzz puts in place of one flag's value: zero, a
# negative, integers past every budget (400 digits, and 4300, the most the
# interpreter converts, so twice it or a product with it has more digits
# than a refusal may print), a subnormal, the non-finite floats and the
# empty string
_EDGE_VALUES = ["0", "-1", "9" * 400, "9" * 4300, "1e-320", "nan", "inf", "-inf", ""]
_HUGE, _LIMIT = _EDGE_VALUES[2], _EDGE_VALUES[3]

# (argv, index of a flag's value) over every contract row within the
# 60 s timeout
_FLAG_VALUES = [(argv, i) for _, limit, argv, _ in _contract_rows() if limit <= 60
                for i in range(1, len(argv))
                if argv[i - 1].startswith("--") and not argv[i].startswith("--")]


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _assert_contract(argv):
    """Run argv in process and assert the exit-code contract of
    .github/cli-contract.sh: argparse's usage error (SystemExit(2)) is
    allowed; otherwise the exit code is 0, 1 or 2, exits 0 and 1 print
    strict JSON, and exit 2 prints nothing on stdout and one ccr-hopf:
    line on stderr.  Any exception that escapes main fails the caller,
    and so does a warning, which a process would print on stderr.  The
    exit code is returned, None for argparse's."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(_ROOT)  # the rows name their files from the repository root
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("ccr-hopf: ") and err.getvalue().count("\n") == 1, argv
    else:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    return code


@settings(max_examples=2600, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_FLAG_VALUES), st.sampled_from(_EDGE_VALUES))
def test_cli_contract_rows_with_one_edge_flag_value(row, value):
    # one contract row with one flag's value replaced by an edge value
    # keeps the exit-code contract.  2600 examples, derandomized, draw
    # the argv of every one of the 2151 (row, flag, value) choices, the
    # rows built with printf included, in about 15 s
    argv, i = row
    _assert_contract(argv[:i] + [value] + argv[i + 1:])


@pytest.mark.parametrize("argv", [
    # the mode budget refuses d before np.eye(d), which numpy refuses with
    # ValueError past its dimension limit
    ["measure", "weyl", "--d", _HUGE, "--count", "1"],
    # I/c would overflow to inf, and numpy warn on stderr, before K is refused
    ["measure", "cocycle", "--scale", "1e-320"],
    # the word budget refuses letters or a degree past it before it forms
    # comb(letters + degree, degree), which has more than 4300 digits here
    # and which math.comb refuses with OverflowError past 2^63
    ["hopf-check", "--modes", _HUGE, "--degree", "12"],
    ["hopf-check", "--modes", _HUGE, "--degree", _HUGE],
    # at the 4300-digit limit, 2*modes + 3, 2*degree and samples*d have
    # 4301 digits: each budget compares the given size and prints only it
    ["hopf-check", "--modes", _LIMIT, "--degree", "2"],
    ["hopf-check", "--checks", "respects-relations", "--modes", _LIMIT],
    ["hopf-check", "--checks", "multiplicativity", "--modes", _LIMIT],
    ["hopf-check", "--checks", "multiplicativity", "--degree", _LIMIT],
    ["measure", "bochner", "--samples", _LIMIT],
])
def test_cli_contract_breaches_found_by_the_argv_fuzz(argv):
    assert _assert_contract(argv) == 2


def test_cli_fock_refuses_a_huge_mode_count_at_cutoff_zero(monkeypatch):
    # the state budget counts comb(d + nmax, d) states, one at nmax = 0
    # whatever d is, while ModeSpace builds arrays d entries long: the
    # mode budget refuses d first.  Here the first such array fails
    # instead of being built
    from ccr_hopf import fock

    def built(d, nmax):
        raise AssertionError(f"a {d}-mode table was built")

    monkeypatch.setattr(fock, "_tail_counts", built)
    assert _assert_contract(["fock", "spectrum", "--d", _HUGE, "--nmax", "0"]) == 2


@pytest.mark.parametrize("argv", [["--d", "120", "--nmax", "1"], ["--d", "1", "--nmax", "19999"]])
def test_cli_fock_matrices_refuses_its_dense_output_before_any_build(monkeypatch, argv):
    # the dense-entry budget reads d and nmax alone, so neither a basis nor
    # a matrix is built for a refused pair
    from ccr_hopf import fock

    def built(*args, **kwargs):
        raise AssertionError("a basis or a matrix was built")

    monkeypatch.setattr(fock, "ModeSpace", built)
    monkeypatch.setattr(fock, "phi_pi_matrices", built)
    assert _assert_contract(["fock", "matrices"] + argv) == 2


@pytest.mark.parametrize("sub, argv", [("spectrum", []), ("genfun", ["--v", ",".join(["1"] * 19999)]),
                                       ("transfer", [])])
def test_cli_fock_refuses_a_table_over_budget_before_any_array(monkeypatch, sub, argv):
    # 20000 states over 19999 modes pass the state budget, yet their (dim, d)
    # occupation table would take 3.2 GB: the space's admission refuses the
    # pair before any array of the basis is built
    import numpy as np

    from ccr_hopf import fock

    def built(*args, **kwargs):
        raise AssertionError("an array of the basis was built")

    for name in ("arange", "empty", "zeros", "zeros_like"):
        monkeypatch.setattr(np, name, built)
    monkeypatch.setattr(fock, "_tail_counts", built)
    assert _assert_contract(["fock", sub, "--d", "19999", "--nmax", "1"] + argv) == 2


@pytest.mark.parametrize("sub, flags", [("genfun", ["--v", "1"]), ("transfer", ["--v", "1"]),
                                        ("transfer", ["--w", "1,2"])])
def test_cli_fock_reads_a_given_vector_before_it_builds_the_space(monkeypatch, capsys, sub, flags):
    # a vector whose length is not d is refused before the d-mode space is
    # built: at d = 19999 the space alone took 1.9 s and 49 MB
    from ccr_hopf import fock

    def built(*args, **kwargs):
        raise AssertionError("the space was built")

    monkeypatch.setattr(fock, "ModeSpace", built)
    code, doc, err = run_cli(capsys, ["fock", sub, "--d", "19999", "--nmax", "0"] + flags)
    assert code == 2 and doc is None
    text = flags[1]
    assert err == (f"ccr-hopf: vector {text!r} has {len(text.split(','))} entries, "
                   "expected 19999\n")


# Positional expressions built by structure, not by text: a sum of two or
# three terms of one or two letters raised to a power up to 20, a product
# of up to three such powers, or a run of one letter, up to 400 long as a
# power or up to 40 written out, over the letters of both bases.  Powers of
# sums past the free-product budget (MAX_PRODUCT_PAIRS term pairs a step)
# are refused at once; the rest are expanded and mapped
_STRUCT_LETTERS = [f"{f}({j})" for f in ("phi", "pi", "ap", "am") for j in (0, 1)]
_STRUCT_MAPS = ["normalize", "commutator", "adjoint", "convert", "coproduct", "counit", "antipode"]
# the longest one argv of the structured fuzz may run, in seconds
_STRUCT_TIMEOUT = 20


@st.composite
def _structured_expr(draw):
    kind = draw(st.sampled_from(["power", "product", "run"]))
    if kind == "run":
        g, n = draw(st.sampled_from(_STRUCT_LETTERS)), draw(st.integers(1, 400))
        return f"{g}^{n}" if draw(st.booleans()) else "*".join([g] * min(n, 40))
    factors = []
    for _ in range(draw(st.integers(1, 3)) if kind == "product" else 1):
        words = st.lists(st.sampled_from(_STRUCT_LETTERS), min_size=1, max_size=2).map("*".join)
        terms = draw(st.lists(words, min_size=2, max_size=3))
        factors.append(f"({'+'.join(terms)})^{draw(st.integers(0, 20))}")
    return "*".join(factors)


def _slow_expansion(sub, basis, texts):
    """Whether the map admits these texts and then expands them for
    seconds, which no budget bounds yet (ROADMAP item 4's term budget).  A
    letter the map writes as two terms expands: one of the other basis, one
    of the source basis under convert, and every letter under coproduct.
    Such a draw has several words (the commutator's product of its two
    arguments) whose expansion, the sum of 2^(expanding letters) over the
    words, passes 2^18: normalize "(phi(1)*ap(1)+am(0)*ap(1))^12" and
    coproduct "(phi(0)+pi(0))^12" took 22 s and more.  Or, outside
    coproduct, whose words of one letter expand runs, a word with more than
    40 expanding letters: normalize "am(0)^311" took 234 s and convert
    "phi(0)^100" 5 s.  Or it is a commutator of two words past 200 letters:
    phi(0)^400 with pi(0)^400 took 5 s."""
    own = (FAM_PHI, FAM_PI) if basis == "phi-pi" else (FAM_AP, FAM_AM)

    def expands(g):
        return sub == "coproduct" or (g[0] in own) == (sub == "convert")

    words, free, most, longest = 1, 1, 0, []
    for text in texts:
        try:
            terms = parse_expr(text).terms
        except (AlgebraError, ParseError):
            return False  # refused before the map runs
        counts = [sum(map(expands, w)) for w in terms] or [0]
        words, free, most = words * len(terms), free * sum(2 ** k for k in counts), most + max(counts)
        longest.append(max(map(len, terms), default=0))
    if sub == "commutator" and min(longest) > 200:
        return True
    return (words > 1 and free > 2 ** 18) or (sub != "coproduct" and most > 40)


class _Overtime(BaseException):
    """Raised by the alarm inside main; no handler of main catches it."""


def _overtime(signum, frame):
    raise _Overtime


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_STRUCT_MAPS), st.sampled_from(["phi-pi", "ladder"]), _structured_expr(),
       _structured_expr())
def test_cli_structured_expressions_keep_the_contract(sub, basis, text, other):
    # every map over the structured expressions keeps the exit-code
    # contract (_assert_contract), each argv within _STRUCT_TIMEOUT seconds:
    # an alarm stops it there, and the time is checked after it returns.
    # _slow_expansion's draws are skipped.  150 examples, derandomized, in
    # about 8 s; about one in eight is skipped, and most powers of sums are
    # refused by the free-product budget
    texts = [text, other] if sub == "commutator" else [text]
    assume(not _slow_expansion(sub, basis, texts))
    to = ["--to", "ladder" if basis == "phi-pi" else "phi-pi"] if sub == "convert" else []
    argv = [sub, *texts, "--basis", basis, *to]
    previous = signal.signal(signal.SIGALRM, _overtime)
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, _STRUCT_TIMEOUT)
    try:
        _assert_contract(argv)
    except _Overtime:
        pytest.fail(f"{shlex.join(argv)} ran past {_STRUCT_TIMEOUT} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < _STRUCT_TIMEOUT, argv


_CONTRACT_ROWS = [(want, argv, label) for want, limit, argv, label in _contract_rows()
                  if limit <= 60]


@pytest.mark.parametrize("want, argv", [row[:2] for row in _CONTRACT_ROWS],
                         ids=[label for _, _, label in _CONTRACT_ROWS])
def test_cli_contract_rows_exit_as_the_table_says(want, argv):
    # every row of .github/cli-contract.sh within 60 s, the rows built
    # with printf included, run in process, keeps the contract and exits
    # with its row's code; the 120 s row has a test of its own
    assert _assert_contract(argv) == want
