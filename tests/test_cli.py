import json

import pytest

from qdissect.cli import main


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


@pytest.mark.parametrize(
    "registry",
    [
        {"identities": [{"id": "x", "lhs": "q", "rhs": "q"}], "dissections": {},
         "pipelines": {}},
        {"identities": [], "pipelines": {}},
        [],
    ],
    ids=["record-without-order", "no-dissections", "top-level-list"],
)
def test_registry_schema_errors_are_one_line(tmp_path, capsys, registry):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(registry))
    code, out, err = run(capsys, "verify", "--all", "--registry", str(path))
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


def test_order_validation(capsys):
    code, _, err = run(capsys, "expand", "q", "--order", "0")
    assert code == 2
