import json
from importlib import resources

import jsonschema
import pytest

from qsikit import paper
from qsikit.cli import main


@pytest.fixture(scope="module")
def schema():
    path = resources.files("qsikit") / "schemas/cli_output.schema.json"
    return json.loads(path.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    data = json.loads(out)
    jsonschema.validate(data, schema)
    return code, data, err


def test_zsigmondy_exception_text(capsys):
    code, out, _ = run_cli(capsys, "zsigmondy", "2", "6")
    assert code == 0
    assert "none (exception)" in out


def test_zsigmondy_json(capsys, schema):
    code, data, _ = run_json(capsys, schema, "zsigmondy", "2", "4")
    assert code == 0
    assert data["result"]["prime"] == 5
    code, data, _ = run_json(capsys, schema, "zsigmondy", "2", "6")
    assert data["result"]["exception"] is True


def test_order_psl27(capsys, schema):
    code, out, _ = run_cli(capsys, "order", "PSL", "2", "7")
    assert code == 0 and "168" in out
    code, data, _ = run_json(capsys, schema, "order", "PSL", "2", "7")
    assert data["result"]["simple"] == 168


def test_order_exceptional_family_single_param(capsys, schema):
    code, data, _ = run_json(capsys, schema, "order", "2B2", "8")
    assert code == 0
    assert data["result"]["simple"] == 29120


def test_order_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "order", "PSL", "7")
    assert code == 2
    assert "PSL" in err


def test_table_json_valid(capsys, schema):
    code, data, _ = run_json(capsys, schema, "table", "S4")
    assert code == 0
    assert data["result"]["group_order"] == 24
    degrees = sorted(r["degree"] for r in data["result"]["irreducibles"])
    assert degrees == [1, 1, 2, 3, 3]


def test_table_text_and_json_same_verdict(capsys, schema):
    code, out, _ = run_cli(capsys, "table", "A5")
    assert code == 0
    assert "1, 3, 3, 4, 5" in out
    code, data, _ = run_json(capsys, schema, "table", "A5")
    assert [r["degree"] for r in data["result"]["irreducibles"]] == \
        [1, 3, 3, 4, 5]


def test_qsi_a5(capsys, schema):
    code, data, _ = run_json(capsys, schema, "qsi", "A5")
    assert code == 0
    assert data["result"]["group_positive"] is False
    statuses = {v["character_degree"]: v["status"]
                for v in data["result"]["verdicts"]}
    assert statuses[4] == "refuted-exhaustive"
    assert statuses[1] == "monomial-with-witness"


def test_qsi_single_character_by_degree(capsys, schema):
    code, data, _ = run_json(capsys, schema, "qsi", "PSL27", "--char", "6")
    assert code == 0
    (verdict,) = data["result"]["verdicts"]
    assert verdict["status"] == "refuted-exhaustive"


def test_qsi_character_by_index(capsys, schema):
    code, data, _ = run_json(capsys, schema, "qsi", "A5", "--char", "@0")
    assert code == 0
    (verdict,) = data["result"]["verdicts"]
    assert verdict["character_degree"] == 1


def test_qsi_monomial_mode(capsys, schema):
    code, data, _ = run_json(capsys, schema, "qsi", "S4", "--monomial")
    assert code == 0
    assert data["result"]["group_positive"] is True
    assert all(v["status"] == "monomial-with-witness"
               for v in data["result"]["verdicts"])


def test_qsi_ambiguous_degree_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "qsi", "A5", "--char", "2")
    assert code == 2
    assert "degree" in err


def test_unknown_group_exit_code(capsys):
    code, _, err = run_cli(capsys, "qsi", "M12")
    assert code == 2
    assert "M12" in err


def test_eliminate_json(capsys, schema):
    code, data, _ = run_json(capsys, schema, "eliminate", "PSL", "4", "2")
    assert code == 0
    labels = [c["label"] for c in data["result"]["candidates"]]
    assert any(label.startswith("GL2") for label in labels)


def test_eliminate_unsupported_case(capsys):
    code, _, err = run_cli(capsys, "eliminate", "G2", "3")
    assert code == 2
    assert "G2" in err


def test_capacity_exit_code(capsys, tmp_path):
    # a fresh group object (not the cached catalog instance) so the
    # enumeration bound is actually consulted
    from qsikit import catalog
    from qsikit.perm import format_generator_file

    path = tmp_path / "a9.gens"
    path.write_text(format_generator_file(catalog.load("A9")))
    code, _, err = run_cli(capsys, "table", str(path),
                           "--max-elements", "100")
    assert code == 3
    assert "100" in err


def test_qsi_honours_max_elements(capsys, tmp_path):
    from qsikit import catalog
    from qsikit.perm import format_generator_file

    path = tmp_path / "s4.gens"
    path.write_text(format_generator_file(catalog.load("S4")))
    code, _, err = run_cli(capsys, "qsi", str(path), "--max-elements", "5")
    assert code == 3
    assert "bound 5" in err
    # verify-paper loads its groups per case and takes no element bound
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "a5-not-qsi", "--max-elements", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("selector", ["abc", "@x", "@"])
def test_qsi_malformed_char_is_usage_error(capsys, selector):
    code, _, err = run_cli(capsys, "qsi", "A5", "--char", selector)
    assert code == 2
    assert err.startswith("error:") and repr(selector) in err


@pytest.mark.parametrize("case", sorted(paper.CASES))
def test_verify_paper_case(capsys, schema, case):
    extra = ["--samples", "120"] if case == "psp43-2st-witness" else []
    code, data, _ = run_json(capsys, schema, "verify-paper", case, *extra)
    assert code == 0
    assert data["result"]["case"] == case
    assert data["result"]["ok"] is True
    if case == "psp43-2st-witness":
        sweep = data["result"]["details"]["sweep"]
        assert sweep["status"] == "refuted-by-prefilter"


def test_verify_paper_unknown_case(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "nope")
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_paper_sweep_needs_samples(capsys, samples):
    code, out, err = run_cli(capsys, "verify-paper", "psp43-2st-witness",
                             "--samples", samples)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and samples in err


def test_table_of_a_directory_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "table", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(tmp_path) in err


def test_malformed_generator_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.gens"
    path.write_text("degree 3\n(1,5)\n")
    code, out, err = run_cli(capsys, "table", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "degree 3" in err
