import json
import math
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ccr_hopf.algebra import (
    Presentation,
    adjoint,
    legal_letter_count,
    legal_letters,
    normal_form,
    phi,
    random_expr,
    unit,
)
from ccr_hopf.cli import (
    GENFUN_TAIL_BUDGET,
    MAX_CHECK_WORDS,
    _genfun_mean,
    _poisson_tail,
    main,
)
from ccr_hopf.exprparse import ParseError, expr_to_text, parse_expr, scalar_text
from ccr_hopf.scalars import IMAG, KAPPA, S_PARAM, Scalar


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
    assert coeff.is_one()


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
    assert coeff == (Scalar.one() + S_PARAM) ** -1


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
        (Scalar.one() + S_PARAM).inverse(),
        KAPPA * (S_PARAM ** 2 - IMAG).inverse(),
    ]
    for _ in range(120):
        e = random_expr(rng, p, max_degree=3, modes=2)
        e = e * rng.choice(scalars) + random_expr(rng, p, max_degree=2, modes=2)
        assert parse_expr(str(e)) == e
    assert str(IMAG * phi(0) + 2 * unit()) == "2 + i*phi(0)"


def test_scalar_text_rational_function():
    r = (Scalar.one() + S_PARAM) * (S_PARAM ** 2 - Scalar.rational(3)).inverse()
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


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["fock", "spectrum", "--d", "1", "--nmax", "4", "--k", "-1"], "non-negative"),
        (["fock", "spectrum", "--d", "1", "--nmax", "4100", "--family", "uniform"], "budget"),
        (["hopf-check", "--degree", "-1"], "--degree"),
        (["hopf-check", "--checks", "counit", "--degree", "-1"], "--degree"),
        (["hopf-check", "--modes", "100000000"], "budget"),
        (["hopf-check", "--modes", "100000000", "--checks", "counit", "--degree", "0"], "budget"),
    ],
)
def test_cli_unbounded_arguments_exit_2(capsys, argv, needle):
    code, doc, err = run_cli(capsys, argv)
    assert code == 2 and doc is None
    assert needle in err and "Traceback" not in err


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
@pytest.mark.parametrize("bad", ['"x"', '"1/0"', "[1]", "[0, [1, 2]]"])
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


def _poisson_tail_oracle(mu, n):
    # every term of the upper tail, far past the mode, added exactly
    top = int(mu + 40 * math.sqrt(mu) + n + 200)
    return math.fsum(math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
                     for k in range(n + 1, top))


def test_poisson_tail_matches_direct_sum():
    for mu in (1e-3, 0.5, 0.9571, 3.7, 40.0, 201.7, 900.0):
        for n in (0, 1, 5, 10, 20, 60, 286, 1200):
            want = _poisson_tail_oracle(mu, n)
            got = _poisson_tail(mu, n)
            assert abs(got - want) <= 1e-12 + 1e-9 * want, (mu, n, got, want)
    assert _poisson_tail(0.0, 3) == 0.0
    assert _poisson_tail(math.inf, 3) == 1.0
    assert _poisson_tail(5e9, 19999) == 1.0


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["--v", "1e5"], "no --nmax within the 20000-state budget"),
        (["--v", "1e3", "--nmax", "20"], "no --nmax within the 20000-state budget"),
        (["--family", "uniform", "--r", "3", "--v", "1", "--nmax", "20"], "it needs --nmax 286"),
        (["--family", "uniform", "--r", "10", "--v", "1"], "no --nmax"),
        (["--d", "2", "--nmax", "30", "--v", "1.5,-2", "--family", "summable", "--r", "1"],
         "it needs --nmax 39"),
    ],
)
def test_cli_genfun_over_budget_exits_2_before_expm(capsys, monkeypatch, argv, needle):
    import ccr_hopf.fock

    def unreachable(*args, **kwargs):
        raise AssertionError("the budget must refuse before expm_multiply runs")

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

    from ccr_hopf.fock import BogoliubovSpec, ModeSpace, vacuum_generating_function

    v = np.array([0.5, -0.7])
    for gram in ([[2, 0.3 + 0.4j], [0.3 - 0.4j, 1]], [[2, 0.3], [0.3, 1]]):
        m = ModeSpace(2, 40, gram=np.array(gram))
        for spec in (BogoliubovSpec.fock(2), BogoliubovSpec.uniform(2, 0.4),
                     BogoliubovSpec.summable(2, -0.6)):
            mu = _genfun_mean(m, v, spec)
            assert _poisson_tail(mu, m.nmax) < 1e-40
            z = vacuum_generating_function(m, v, spec)
            assert abs(z - math.exp(-mu / 2)) < 1e-14


def test_cli_spectrum_of_many_modes(capsys):
    code, doc, _ = run_cli(capsys, ["fock", "spectrum", "--d", "1100", "--nmax", "1"])
    assert code == 0
    assert doc["results"]["eigenvalues"] == [0.0, 1.0, 1.0, 1.0, 1.0]
    assert doc["results"]["solver"]["blocks"] == 1101


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
def test_cli_negative_seed_exits_2(capsys, monkeypatch, argv):
    code, doc, err = run_cli(capsys, argv + ["--seed", "-1"])
    assert _one_refusal(code, doc, err) and "non-negative" in err
    monkeypatch.setenv("CCR_HOPF_SEED", "-5")
    code, doc, err = run_cli(capsys, argv)
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


def test_cli_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("CCR_HOPF_SEED", "7")
    code, doc, _ = run_cli(capsys, ["measure", "bochner", "--d", "2", "--samples", "5000"])
    assert code == 0
    assert doc["config"]["seed"] == 7
    monkeypatch.setenv("CCR_HOPF_SEED", "not-a-number")
    code, _, err = run_cli(capsys, ["measure", "bochner", "--d", "2"])
    assert code == 2 and "CCR_HOPF_SEED" in err


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
