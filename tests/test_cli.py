import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qdissect.cli import main
from qdissect.series import MAX_LENGTH


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_text(capsys):
    code, out, _ = run(capsys, "expand", "R(q)", "--order", "6")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines == ["0\t1", "1\t-1", "2\t1", "4\t-1", "5\t1"]


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, "expand", "k", "--order", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["series"] == {"valuation": 1, "order": 4, "coeffs": ["1", "-1", "-1"]}


def test_expand_is_deterministic(capsys):
    _, out1, _ = run(capsys, "expand", "G(q)*H(q)", "--order", "50")
    _, out2, _ = run(capsys, "expand", "G(q)*H(q)", "--order", "50")
    assert out1 == out2


def test_dissect_slice(capsys):
    code, out, _ = run(
        capsys, "dissect", "R(q)*R(q^2)^2", "--mod", "5", "--order", "40",
        "--slice", "4", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["slices"]["4"]["valuation"] == 1  # alpha(4) = 0


def test_dissect_mod_one_is_identity(capsys):
    code, out, _ = run(capsys, "dissect", "G(q)", "--mod", "1", "--order", "8", "--json")
    data = json.loads(out)
    assert data["slices"]["0"]["coeffs"] == ["1", "1", "1", "1", "2", "2", "3", "3"]


def test_prodmake_with_period(capsys):
    code, out, _ = run(
        capsys, "prodmake", "JP(;q,q^4;q^5)", "--order", "60", "--period", "5",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["period"] == 5
    assert data["residue_pattern"]["eta"] == {"1": -1, "4": -1}


@pytest.mark.parametrize(
    "expr, order, period, tail",
    [
        # (-q^2;q^5)^3 / (q^2;q^5): the (1+q^n) split
        ("JP(-q^2,-q^2,-q^2;q^2;q^5)", "60", "5",
         ["# pattern mod 5:",
          "#   (1-q^n)^-1 for n = 2 (mod 5)",
          "#   (1+q^n)^3 for n = 2 (mod 5)"]),
        ("(1-q)*JP(;q^2,q^3;q^3)", "40", "3",
         ["# pattern mod 3:",
          "#   (1-q^n)^-1 for n = 0 (mod 3)",
          "#   (1-q^n)^-1 for n = 2 (mod 3)",
          "#   leading exceptions: {1: 1}"]),
        ("1+q+q^2", "9", "3", ["# no period-3 pattern"]),
    ],
    ids=["plus-split", "leading-exception", "no-pattern"],
)
def test_prodmake_period_text(capsys, expr, order, period, tail):
    code, out, _ = run(capsys, "prodmake", expr, "--order", order, "--period", period)
    assert code == 0
    assert out.splitlines()[-len(tail):] == tail


def test_verify_by_id_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--id", "gh-cross-sum", "--order", "60")
    assert code == 0 and "pass" in out

    code, out, _ = run(capsys, "verify", "G(q)", "H(q)", "--order", "10")
    assert code == 1

    code, _, err = run(capsys, "verify")
    assert code == 2 and "verify needs" in err


def test_verify_adhoc_identity(capsys):
    code, out, _ = run(
        capsys, "verify", "G(q)*H(q)", "JP(;q,q^2,q^3,q^4;q^5)", "--order", "150",
        "--json",
    )
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["passed"] is True


def test_verify_all_emits_json_lines(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--order", "40", "--json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 43
    assert all(json.loads(l)["passed"] for l in lines)


def test_pipeline_command(capsys):
    code, out, _ = run(capsys, "pipeline", "--target", "alpha", "--order", "60")
    assert code == 0
    assert out.count("pass") == 7


def test_signs_command_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "alpha.csv"
    code, out, _ = run(
        capsys, "signs", "--which", "alpha", "--order", "60", "--csv", str(csv_path)
    )
    assert code == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "n,coefficient,residue,verdict"
    assert rows[1] == "0,1,0,ok"
    assert len(rows) == 61


def test_list_command(capsys):
    code, out, _ = run(capsys, "list", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["identities"]) == 43


def test_parse_error_is_reported(capsys):
    code, _, err = run(capsys, "expand", "G(q")
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe"])
def test_unreadable_registry_is_one_line_error(tmp_path, capsys, content):
    path = tmp_path / "registry.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, "verify", "--all", "--registry", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: RegistryError: cannot read registry")
    assert len(err.splitlines()) == 1


REC = {"id": "x", "lhs": "q", "rhs": "q", "order": 10}
DIS = {"source": "R(q)", "record": "x", "modulus": 5, "period": 50,
       "terms": [{"scale": 1, "shift": 0, "jp": "JP(;q;q)"}]}


def with_dissection(**fields):
    return {"identities": [REC], "dissections": {"alpha": {**DIS, **fields}}, "pipelines": {}}


PIPELINE_ALPHA = ("pipeline", "--target", "alpha")


@pytest.mark.parametrize(
    "registry, command",
    [(r, ("verify", "--all")) for r in [
        {"identities": [{"id": "x", "lhs": "q", "rhs": "q"}], "dissections": {},
         "pipelines": {}},
        {"identities": [], "pipelines": {}},
        [],
        {"identities": [REC, REC], "dissections": {}, "pipelines": {}},
        {"identities": [REC], "dissections": {"alpha": {}}, "pipelines": {}},
        with_dissection(modulus=0),
        with_dissection(period="50"),
        with_dissection(terms={}),
        with_dissection(terms=[{"scale": 1, "shift": 0.5, "jp": "JP(;q;q)"}]),
        with_dissection(terms=[{"scale": 1, "shift": 0}]),
        with_dissection(record="nope"),
        {"identities": [REC], "dissections": {}, "pipelines": {"alpha": {"aux": None}}},
        {"identities": [REC], "dissections": {},
         "pipelines": {"alpha": {"steps": ["x", "nope"], "aux": None}}},
        {"identities": [REC], "dissections": {}, "pipelines": {"alpha": {"steps": ["x"]}}},
        {"identities": [REC], "dissections": {},
         "pipelines": {"alpha": {"steps": ["x"], "aux": {"factor1": "q", "factor2": "q"}}}},
    ]] + [({"identities": [REC], "dissections": {}, "pipelines": {}}, PIPELINE_ALPHA)],
    ids=["record-without-order", "no-dissections", "top-level-list", "duplicate-ids",
         "empty-dissection", "modulus-zero", "period-string", "terms-not-list",
         "term-float-shift", "term-without-jp", "unknown-dissection-record",
         "pipeline-without-steps", "unknown-pipeline-step", "pipeline-without-aux",
         "aux-without-numerator", "no-pipeline-for-target"],
)
def test_registry_schema_errors_are_one_line(tmp_path, capsys, registry, command):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(registry))
    code, out, err = run(capsys, *command, "--registry", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: RegistryError: registry ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "expr", ["(" * 3000 + "q" + ")" * 3000, "+".join(["q"] * 3000)],
    ids=["nested-brackets", "flat-sum"],
)
def test_deep_expressions_are_one_line_errors(capsys, expr):
    code, out, err = run(capsys, "expand", expr, "--order", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParseError: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--id", "nope"), "UsageError: no registry identity named 'nope'"),
        (("dissect", "R(q)", "--mod", "5", "--slice", "7"), "UsageError: slice must be in 0..4"),
        (("dissect", "R(q)", "--mod", "5", "--slice", "-1"), "UsageError: slice must be in 0..4"),
        (("dissect", "R(q)", "--mod", "11", "--order", "10"), "UsageError: mod 11 exceeds order 10"),
        (("dissect", "R(q)", "--mod", "1000000000", "--order", "10"), "UsageError: mod 1000000000"),
        (("prodmake", "1+q", "--order", "10", "--period", "0"), "UsageError: period must be >= 1"),
        (("prodmake", "1+q", "--order", "10", "--period", "-3"), "UsageError: period must be >= 1"),
        (("prodmake", "1+q", "--order", "10", "--period", "50"),
         "OrderExceeded: period 50 needs exponents to at least 3*50, have 10"),
        (("signs", "--which", "alpha", "--order", "5", "--csv", "{tmp}/missing/x.csv"),
         "UsageError: cannot write {tmp}/missing/x.csv: No such file or directory"),
    ],
    ids=["unknown-id", "slice-past-mod", "negative-slice", "mod-past-order", "huge-mod",
         "period-zero", "negative-period", "period-past-order", "unwritable-csv"],
)
def test_bad_arguments_are_one_line_errors(tmp_path, capsys, argv, message):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert message.replace("{tmp}", str(tmp_path)) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("expr", ["(10^1000)^3000*G(q)", "2^1099511627776*G(q)"],
                         ids=["power-of-a-power", "huge-exponent"])
def test_huge_constant_powers_are_refused_before_computing(capsys, expr):
    # each constant has millions of bits or more; computing it ran for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", expr, "--order", "5")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith("error: BudgetExceeded: a constant power of about ")
    assert len(err.splitlines()) == 1


def test_large_integers_print_in_full(capsys):
    # 2^20000 has 6021 digits, past the interpreter's default limit of 4300
    code, out, err = run(capsys, "expand", "2^20000", "--order", "1")
    assert (code, err) == (0, "")
    assert out == f"0\t{2 ** 20000}\n# trusted below q^1\n"
    code, out, _ = run(capsys, "expand", "2^20000", "--order", "1", "--json")
    assert json.loads(out)["series"]["coeffs"] == [str(2 ** 20000)]
    code, out, err = run(capsys, "verify", "2^20000", "2^20000+q^0", "--order", "1")
    assert (code, err) == (1, "")
    assert out == (f"FAIL  adhoc  order=1  (first mismatch at q^0: {2 ** 20000}"
                   f" vs {2 ** 20000 + 1})\n")


@pytest.mark.slow
def test_fibonacci_past_the_digit_limit_prints_in_full(capsys):
    # the coefficient of q^n in 1/(1-q-q^2) is F(n+1); F(21000) has 4389 digits
    code, out, err = run(capsys, "expand", "1/(1-q-q^2)", "--order", "21000")
    assert (code, err) == (0, "")
    a, b = 0, 1
    for _ in range(21000):
        a, b = b, a + b
    assert out.splitlines()[-2:] == [f"20999\t{a}", "# trusted below q^21000"]


@pytest.mark.parametrize(
    "argv, want",
    [
        (("expand", "1/(q^40+q^41)", "--order", "5"), "-40\t1\n-39\t-1\n-38\t1\n"),
        (("expand", "(q^40+q^41)^-1", "--order", "5"), "-40\t1\n-39\t-1\n-38\t1\n"),
        (("verify", "1/(q^30*(1+q))", "q^-30/(1+q)", "--order", "3"), "pass  adhoc  order=3\n"),
    ],
    ids=["div", "negative-power", "verify"],
)
def test_divisor_zero_at_the_working_order_is_retried(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(want)


def test_zero_divisor_is_a_one_line_error(capsys):
    code, out, err = run(capsys, "expand", "1/(q-q)", "--order", "600")
    assert (code, out) == (2, "")
    assert err == ("error: NonUnitLeadingCoefficient: cannot invert the zero series"
                   " (a divisor is zero below q^4696)\n")


def test_order_validation(capsys):
    code, _, err = run(capsys, "expand", "q", "--order", "0")
    assert code == 2


def run_capped(*argv, timeout=60):
    """The CLI in a child process whose address space is capped at 2 GB, so
    that a regression fails instead of allocating gigabytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cap = 2 << 30
    return subprocess.run(
        [sys.executable, "-m", "qdissect.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def test_huge_negative_power_of_q_is_constant_size():
    """q^-N is the empty product shifted: O(1) coefficients, not N."""
    proc = run_capped("expand", "q^-1000000000", "--order", "5")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "-1000000000\t1\n# trusted below q^5\n"


@pytest.mark.parametrize("argv", [
    # the results really have ~10^9 coefficients below q^5
    ("expand", "q^-1000000000+1", "--order", "5"),
    ("expand", "q^-1000000000*G(q)", "--order", "5"),
    ("expand", "R(q)", "--order", "100000000"),
    ("prodmake", "1+q", "--order", "100000000"),
    ("signs", "--which", "alpha", "--order", "100000000"),
], ids=["laurent-sum", "laurent-term", "expand-order", "prodmake-order", "signs-order"])
def test_long_lists_are_refused_before_allocating(argv):
    # each ran out of memory or ran for minutes before the length bound
    start = time.perf_counter()
    proc = run_capped(*argv, timeout=30)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: BudgetExceeded: a list of ")
    assert proc.stderr.endswith(f" coefficients is past the limit of {MAX_LENGTH}\n")
    assert len(proc.stderr.splitlines()) == 1
