import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import qsikit
from qsikit import lietype, paper
from qsikit.cli import main
from qsikit.primes import _PRIME_TEST_BITS, _RHO_WORK

# Python's limit on the digits of an int turned into a string (0 before
# Python 3.10.7, which has none)
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


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


@pytest.mark.parametrize("argv,message", [
    (("order", "XYZ", "2", "3"), "error: unknown family 'XYZ'; known: "),
    (("order", "2B2", "2", "8"), "error: 2B2 takes a single parameter q"),
    (("eliminate", "PSL", "7"), "error: PSL takes parameters n and q"),
])
def test_family_parameter_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(message)


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
def test_verify_paper_sweep_needs_samples(capsys, monkeypatch, samples):
    # the count is checked before the case builds anything
    calls = []

    def case(**kwargs):
        calls.append(kwargs)
        return True, {}, []

    monkeypatch.setitem(paper.CASES, "psp43-2st-witness", case)
    code, out, err = run_cli(capsys, "verify-paper", "psp43-2st-witness",
                             "--samples", samples)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and samples in err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("table", "A5", "--max-elements", "-5"),
    ("qsi", "A5", "--max-elements", "-1"),
    ("qsi", "A5", "--max-group-order", "-1"),
    ("verify-paper", "a5-not-qsi", "--max-group-order", "-3"),
])
def test_negative_bounds_are_rejected_when_parsed(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be at least 0, not {argv[-1]}" \
        in captured.err


def test_fixtures_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zsigmondy", "2", "6", "--fixtures", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fixtures x" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code,message", [
    # q = (2^61 - 1)(2^89 - 1): recognised without factoring q
    (("order", "PSL", "2", str((2**61 - 1) * (2**89 - 1))), 2,
     "is not a prime power"),
    # the 801-bit primitive part of 2^3000 - 1 has no factor rho reaches
    (("zsigmondy", "2", "3000"), 3,
     f"Pollard rho bound of {_RHO_WORK} bit-iterations"),
    # a 14 265-bit q with no perfect root and no small prime factor
    (("order", "PSL", "2", str(3**9000 + 2)), 3,
     f"primality test bound of {_PRIME_TEST_BITS} bits"),
    # the simple orders of E8(2^60) and E8(2^131) have over 4 300 digits
    (("order", "E8", str(2**60)), 3,
     f"more than {INT_MAX_STR_DIGITS} digits"),
    (("eliminate", "E8", str(2**131), "--json"), 3,
     f"more than {INT_MAX_STR_DIGITS} digits"),
], ids=["order", "zsigmondy", "prime-test-bound", "e8-order-digits",
        "e8-eliminate-digits"])
def test_large_lie_type_inputs_return_at_once(argv, code, message):
    src = Path(qsikit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-m", "qsikit.cli", *argv],
                            env=env, capture_output=True, text=True,
                            timeout=5)
    assert result.returncode == code
    assert result.stdout == ""
    assert message in result.stderr


def test_other_value_errors_are_raised(monkeypatch):
    def group_order(tag, n, q):
        raise ValueError("a bug, not a digit limit")
    monkeypatch.setattr(lietype, "group_order", group_order)
    with pytest.raises(ValueError, match="a bug, not a digit limit"):
        main(["order", "PSL", "2", "7"])


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
