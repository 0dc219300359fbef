import inspect
import json
from fractions import Fraction

import pytest

from conftest import load_golden
from shufflealg import descent as D
from shufflealg.cli import DEFAULTS, main, parse_biword_combination
from shufflealg.lincomb import LinComb
from shufflealg.biwords import biword
from shufflealg.rigidity import (
    perturbed_presentation,
    save_presentation,
    shuffle_presentation,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_product_biword_prec_matches_golden(capsys):
    golden = load_golden("biword_products.json")["prec"]
    code, out, _ = run(capsys, "product", "biword-prec", "12|ab", "21|cd")
    assert code == 0
    expected = " + ".join(text for text, _ in golden["expected"])
    assert out == expected


def test_product_biword_succ(capsys):
    code, out, _ = run(capsys, "product", "biword-succ", "12|ab", "21|cd")
    assert code == 0
    assert out == "4123|3124 + 4132|3142 + 4312|3412"


def test_product_shuffle_unit(capsys):
    code, out, _ = run(capsys, "product", "shuffle", "a", "")
    assert code == 0
    assert out == "a1"


def test_product_internal(capsys):
    code, out, _ = run(capsys, "product", "internal", "312|111", "132|111")
    assert code == 0
    assert out == "213|111"


def test_product_internal_annihilation_prints_zero(capsys):
    code, out, _ = run(capsys, "product", "internal", "12|11", "123|111")
    assert code == 0
    assert out == "0"


def test_product_json_roundtrip(capsys):
    code, out, _ = run(capsys, "product", "--json", "biword-prec", "1|1", "1|2")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"coeff_num": 1, "coeff_den": 1, "key": {"perm": [1, 2], "deg": [1, 2]}}
    ]


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "product", "biword-prec", "12|1z", "1|1")
    assert code == 2
    assert "position" in err


def test_coproduct_commands(capsys):
    code, out, _ = run(capsys, "coproduct", "prec", "3142|1,2,3,4")
    assert code == 0
    assert out == "21|12 (x) 21|34 + 213|123 (x) 1|4"
    code, out, _ = run(capsys, "coproduct", "succ", "3142|1234")
    assert code == 0
    assert out == "1|1 (x) 132|234"
    code, out, _ = run(capsys, "coproduct", "full", "12|11")
    assert code == 0
    assert out == "1 (x) 12|11 + 1|1 (x) 1|1 + 12|11 (x) 1"
    code, out, _ = run(capsys, "coproduct", "deconcat", "a1.b2")
    assert code == 0
    assert out == "1 (x) a1.b2 + a1 (x) b2 + a1.b2 (x) 1"


def test_pi_command(capsys):
    for route in ("closed", "alternating", "recursive"):
        code, out, _ = run(capsys, "pi", "3", "--route", route)
        assert code == 0
        assert out == "1|3"
    code, out, _ = run(capsys, "pi", "1,1")
    assert code == 0
    assert out == "12|11"


def test_dims_command(capsys):
    code, out, _ = run(capsys, "dims", "6", "--descd")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "descd"]
    assert [line.split()[1] for line in lines[1:7]] == ["1", "3", "10", "36", "137", "543"]
    assert lines[-1] == "flags: none"
    code, out, _ = run(capsys, "dims", "6", "--descd", "--series")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "descd", "closed", "catalan"]
    assert lines[6].split() == ["6", "543", "543", "543"]


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "5", "--prim", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"] == []
    kernels = [row["prim_kernel"] for row in payload["rows"]]
    assert kernels == [1, 1, 2, 10, 70]


def test_dims_cutoff_exceeded(capsys):
    code, out, err = run(capsys, "dims", "40", "--series")
    assert code == 2
    assert "cutoff" in err


def test_dims_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"series_cutoff": 20, "prim_cutoff": 2}))
    code, out, _ = run(capsys, "dims", "14", "--descd", "--config", str(config))
    assert code == 0
    code, out, err = run(capsys, "dims", "3", "--config", str(tmp_path / "nope.json"))
    assert code == 2


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"speed": 11}))
    code, _, err = run(capsys, "verify", "pn-coproduct", "2", "--config", str(config))
    assert code == 2
    assert "unknown config keys" in err


def test_verify_pass_and_unknown_suite(capsys):
    code, out, _ = run(capsys, "verify", "pn-coproduct", "4")
    assert code == 0
    assert out == "PASS: pn-coproduct up to weight 4"
    code, out, err = run(capsys, "verify", "shuffle-axioms", "0")
    assert code == 2
    assert "PASS" not in out
    assert "nothing to check at this weight" in err
    code, _, err = run(capsys, "verify", "nonsense", "2")
    assert code == 2
    assert "unknown suite" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json", "pi-primitive", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"suite": "pi-primitive", "max_weight": 3, "checked": 12, "failures": []}


@pytest.mark.parametrize("suite, weight", [("dendriform", "1"), ("bidendriform", "0")])
def test_verify_with_nothing_to_check_exits_2(capsys, suite, weight):
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "verify", suite, weight, *extra)
        assert code == 2
        assert out == ""
        assert "nothing to check at this weight" in err


def test_cutoff_defaults_come_from_descent():
    assert DEFAULTS["rank_cutoff"] == D.DEFAULT_RANK_CUTOFF
    assert DEFAULTS["prim_cutoff"] == D.DEFAULT_PRIM_CUTOFF == 6
    assert DEFAULTS["series_cutoff"] == D.DEFAULT_SERIES_CUTOFF
    defaults = inspect.signature(D.dimension_report).parameters
    assert defaults["rank_cutoff"].default == D.DEFAULT_RANK_CUTOFF
    assert defaults["prim_cutoff"].default == D.DEFAULT_PRIM_CUTOFF
    assert D.prim_dend_dimension(6) == 550


def test_dims_explicit_zero_cutoff_is_kept(capsys):
    code, out, _ = run(capsys, "dims", "3", "--prim", "--prim-cutoff", "0", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == [1, 2, 3]
    assert all("prim_kernel" not in row for row in rows)
    code, out, _ = run(capsys, "dims", "3", "--descd", "--rank-cutoff", "0", "--json")
    assert code == 0
    assert all("descd_rank" not in row for row in json.loads(out)["rows"])
    code, _, err = run(capsys, "dims", "3", "--series-cutoff", "0")
    assert code == 2
    assert "cutoff" in err


def test_membership_command(capsys):
    code, out, _ = run(capsys, "membership", "213|111")
    assert code == 1
    assert out == "false"
    code, out, _ = run(capsys, "membership", "213|111 + 231|111")
    assert code == 0
    assert out == "true"
    code, _, err = run(capsys, "membership", "1|1 + 1|2")
    assert code == 2
    code, _, err = run(capsys, "membership", "213|111", "--weight", "4")
    assert code == 2


def test_parse_biword_combination():
    combo = parse_biword_combination("2*12|11 - 1/2*21|11 + 1|2")
    assert combo == LinComb(
        {biword((1, 2), (1, 1)): 2, biword((2, 1), (1, 1)): Fraction(-1, 2), biword((1,), (2,)): 1}
    )


def test_decompose_command(tmp_path, capsys):
    A = shuffle_presentation({1: 1, 2: 1, 3: 1}, 3)
    good = tmp_path / "shx.json"
    save_presentation(A, good)
    code, out, _ = run(capsys, "decompose", str(good), "a1.a1.a1", "--roundtrip")
    assert code == 0
    assert out.splitlines() == ["a1<(a1<(a1))", "roundtrip: ok"]

    code, out, _ = run(capsys, "decompose", "--json", str(good), "a1.a2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "label": "a1.a2",
        "terms": [{"coeff_num": 1, "coeff_den": 1, "word": ["a1", "a2"]}],
    }

    bad = tmp_path / "bad.json"
    save_presentation(perturbed_presentation(A, "a1", "a1", LinComb.single("a2")), bad)
    code, out, _ = run(capsys, "decompose", str(bad), "a1.a1.a1")
    assert code == 1
    assert "FAIL" in out

    code, _, err = run(capsys, "decompose", str(tmp_path / "missing.json"), "a1")
    assert code == 2

    code, _, err = run(capsys, "decompose", str(good), "zz9")
    assert code == 2


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["product", "warble", "a", "b"])
    assert exc.value.code == 2
