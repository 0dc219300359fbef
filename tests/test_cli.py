import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import load_golden
import shufflealg
from shufflealg import descent as D
from shufflealg import rigidity as R
from shufflealg import verify as V
from shufflealg import words as W
from shufflealg import cli
from shufflealg.cli import COMMANDS, DEFAULTS, build_parser, main, parse_biword_combination
from shufflealg.lincomb import LinComb, accumulate
from shufflealg.biwords import Biword
from oracles import perturbed_presentation, prim_dend_dimension
from shufflealg.rigidity import (
    RigidityError,
    presentation_from_json,
    presentation_to_json,
    save_presentation,
    shuffle_presentation,
    validate_presentation,
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


@pytest.mark.parametrize("kind, terms", [("shuffle", 301), ("word-prec", 300)])
def test_product_of_a_long_word_needs_no_deep_recursion(capsys, kind, terms):
    # a1^300 with b1: b1 goes into one of the 301 gaps (not the first under <)
    code, out, _ = run(capsys, "product", "--json", kind, ".".join(["a1"] * 300), "b1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == terms
    assert all((t["coeff_num"], t["coeff_den"], len(t["key"])) == (1, 1, 301) for t in payload)


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


def test_pi_route_with_a_composition_is_a_usage_error(capsys):
    for route in ("alternating", "recursive"):
        code, out, err = run(capsys, "pi", "2,1", "--route", route)
        assert code == 2
        assert out == ""
        assert "--route" in err
    code, out, _ = run(capsys, "pi", "2,1", "--route", "closed")
    assert code == 0
    assert out == "12|21"


@pytest.mark.parametrize("target", ["1,,2", ",3,", "2,", ","])
def test_pi_rejects_an_empty_part(capsys, target):
    code, out, err = run(capsys, "pi", target)
    assert (code, out) == (2, "")
    assert err == f"error: bad composition {target!r}"


@pytest.mark.parametrize("target", ["0", "0,1"])
def test_pi_needs_a_positive_weight(capsys, target):
    assert run(capsys, "pi", target) == (2, "", "error: pi needs a positive weight or composition")


def test_pi_alternating_route_at_weight_10_in_a_fresh_process():
    env = {**os.environ, "PYTHONPATH": str(Path(shufflealg.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "shufflealg.cli", "pi", "10", "--route", "alternating", "--json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    (term,) = json.loads(done.stdout)
    assert (term["coeff_num"], term["coeff_den"]) == (1, 1)
    assert str(Biword(tuple(term["key"]["perm"]), tuple(term["key"]["deg"]))) == "1|10"


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


def test_dims_series_alone_selects_every_group(capsys):
    # --series adds series columns to the groups; naming no group selects all three
    code, out, _ = run(capsys, "dims", "6", "--series")
    assert code == 0
    assert out.splitlines()[0].split() == ["n", "biwords", "R(x)", "descd", "closed", "catalan", "prim", "P(x)"]
    for extra in ([], ["--json"]):
        code, out, _ = run(capsys, "dims", "6", *extra)
        assert code == 0
        code, out_series, _ = run(capsys, "dims", "6", "--series", *extra)
        assert code == 0
        assert out_series == out


def test_dims_40_output_matches_golden(capsys):
    # the benchmark's dims job, byte for byte; a faster route must print the same
    golden = (Path(__file__).parent / "golden" / "dims_40.json").read_bytes()
    assert hashlib.sha256(golden).hexdigest() == (
        "b73a2e55810ff63800d6eca805bd5a52de8db82febfc22b32f5647a0be1cef4d"
    )
    code = main(["dims", "40", "--rank-cutoff", "6", "--prim-cutoff", "6", "--series-cutoff", "40", "--json"])
    assert code == 0
    assert capsys.readouterr().out.encode() == golden


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "5", "--prim", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"] == []
    kernels = [row["prim_kernel"] for row in payload["rows"]]
    assert kernels == [1, 1, 2, 10, 70]


def test_dims_json_row_key_order(capsys):
    # the keys follow the column order of dimension_report; their order is part of the output
    code, out, _ = run(capsys, "dims", "2", "--json")
    assert code == 0
    keys = ["n", "biword_count", "biword_series", "descd_rank", "descd_closed", "descd_catalan",
            "prim_kernel", "prim_series"]
    assert [list(row) for row in json.loads(out)["rows"]] == [keys, keys]


@pytest.mark.parametrize("option", ["--rank-cutoff", "--prim-cutoff", "--series-cutoff"])
def test_dims_rejects_a_negative_cutoff(tmp_path, capsys, option):
    code, out, err = run(capsys, "dims", "2", option, "-1")
    assert code == 2
    assert out == ""
    assert f"{option} must be non-negative, got -1" in err
    key = option[2:].replace("-", "_")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: -2}))
    code, out, err = run(capsys, "dims", "2", "--config", str(config))
    assert code == 2
    assert out == ""
    assert f"config key {key!r} must be non-negative, got -2" in err


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_dims_needs_a_positive_weight(capsys, max_n):
    code, out, err = run(capsys, "dims", max_n)
    assert code == 2
    assert out == ""
    assert "must be positive" in err


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


@pytest.mark.parametrize("data", [{"verify_weight": 3.9}, {"verify_weight": True}, {"rank_cutoff": "3"}])
def test_config_rejects_values_that_are_not_integers(tmp_path, capsys, data):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "pn-coproduct", "--config", str(config))
    assert code == 2
    assert out == ""
    assert repr(next(iter(data))) in err
    config.write_text(json.dumps(list(data)))
    code, out, err = run(capsys, "verify", "pn-coproduct", "--config", str(config))
    assert code == 2
    assert "JSON object" in err


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


def test_verify_lets_a_key_error_inside_a_suite_propagate(capsys, monkeypatch):
    def broken(max_weight):
        raise KeyError("inside the suite")

    monkeypatch.setitem(V.SUITES, "tau", broken)
    with pytest.raises(KeyError, match="inside the suite"):
        main(["verify", "tau", "2"])
    assert "unknown suite" not in capsys.readouterr().err


def test_verify_lets_a_value_error_inside_a_suite_propagate(capsys, monkeypatch):
    def broken(max_weight):
        raise ValueError("a bug inside the suite")

    monkeypatch.setitem(V.SUITES, "tau", broken)
    with pytest.raises(ValueError, match="a bug inside the suite"):
        main(["verify", "tau", "2"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("suite", ["action-compat", "pn-coproduct"])
def test_verify_rejects_a_negative_weight(tmp_path, capsys, suite):
    code, out, err = run(capsys, "verify", suite, "-1", "--json")
    assert code == 2
    assert out == ""
    assert "max_weight must be non-negative, got -1" in err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"verify_weight": -2}))
    code, out, err = run(capsys, "verify", suite, "--config", str(config))
    assert code == 2
    assert out == ""
    assert "config key 'verify_weight' must be non-negative, got -2" in err


def test_verify_at_weight_0_is_unchanged(capsys):
    # the internal-compose pairs of action-compat do not depend on the weight
    code, out, _ = run(capsys, "verify", "action-compat", "0", "--json")
    assert code == 0
    assert json.loads(out) == {"suite": "action-compat", "max_weight": 0, "checked": 3481, "failures": []}


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json", "pi-primitive", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"suite": "pi-primitive", "max_weight": 3, "checked": 12, "failures": []}


def test_verify_action_compat_at_default_weight(capsys):
    # no weight given: the configured verify_weight (5)
    code, out, _ = run(capsys, "verify", "action-compat", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_weight"] == 5
    assert payload["failures"] == []
    assert payload["checked"] == 6037


@pytest.mark.parametrize("suite, weight", [("dendriform", "1"), ("bidendriform", "0"), ("pn-coproduct", "0")])
def test_verify_with_nothing_to_check_exits_2(capsys, suite, weight):
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "verify", suite, weight, *extra)
        assert code == 2
        assert out == ""
        assert "nothing to check at this weight" in err


@pytest.mark.parametrize("suite", sorted(V.SUITES))
def test_every_suite_checks_something_at_weight_3(capsys, suite):
    code, out, _ = run(capsys, "verify", "--json", suite, "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["failures"] == []
    assert payload["checked"] > 0


def test_generic_suites_checked_at_weight_4(capsys):
    checked = {}
    for suite in ("shuffle-axioms", "dendriform", "bidendriform", "bialgebra", "tau", "rigidity"):
        code, out, _ = run(capsys, "verify", "--json", suite, "4")
        assert code == 0
        checked[suite] = json.loads(out)["checked"]
    assert checked == {
        "shuffle-axioms": 524, "dendriform": 21, "bidendriform": 84, "bialgebra": 122, "tau": 240,
        "rigidity": 540,
    }


def test_tau_flags_an_antipode_that_drops_its_last_proper_cut(capsys, monkeypatch):
    # the presentation antipode without the last proper cut of each label is
    # wrong on every label with a proper cut (two letters or more) and right
    # on every letter, which has none
    def antipode_label(A, label):
        if label == R.UNIT_LABEL:
            return LinComb.single(label)
        acc = {label: -1}
        proper = [(pair, c) for pair, c in A._coproduct_row(label) if R.UNIT_LABEL not in pair]
        for (left, right), c in proper[:-1]:
            for key, ck in antipode_label(A, left).terms().items():
                accumulate(acc, ((k, -c * ck * cs) for k, cs in A._shuffle_row(key, right)))
        return LinComb._raw(acc)

    monkeypatch.setattr(R, "_antipode_label", antipode_label)
    code, out, _ = run(capsys, "verify", "--json", "tau", "4")
    failures = json.loads(out)["failures"]
    assert code == 1
    assert failures[0]["identity"] == "antipode-signed-reversal"
    flagged = [f["inputs"] for f in failures if f["identity"] == "antipode-signed-reversal"]
    labels = shuffle_presentation(W.standard_alphabet(4, 2), 4).labels()
    assert flagged == [[label] for label in labels if "." in label]


def test_cutoff_defaults_live_in_the_cli():
    assert DEFAULTS == {"verify_weight": 5, "rank_cutoff": 6, "prim_cutoff": 6, "series_cutoff": 12}
    # the library takes every bound from its caller
    params = inspect.signature(D.dimension_report).parameters
    for name in ("include", "rank_cutoff", "prim_cutoff"):
        assert params[name].default is inspect.Parameter.empty
    assert prim_dend_dimension(6) == 550


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
    # a leading sign belongs to the first term; a sign after a coefficient's exponent mark to its exponent
    for combination in ("-12|11 - 21|11", "+ 2*12|11", "12|11 + 1e-3*21|11"):
        assert run(capsys, "membership", combination, "--json") == (0, '{"member": true, "weight": 2}', "")
    # a degree letter e follows '|', so its sign starts a new term
    assert run(capsys, "membership", "12|ee - 21|ee", "--json") == (0, '{"member": true, "weight": 10}', "")
    # the unit has weight 0, below the graded components: a usage error, not "non-member"
    for combination in ("1", "2*1"):
        code, out, err = run(capsys, "membership", combination)
        assert (code, out) == (2, "")
        assert "weight 0" in err and "Traceback" not in err


def test_parse_biword_combination():
    combo = parse_biword_combination("2*12|11 - 1/2*21|11 + 1|2")
    assert combo == LinComb(
        {Biword((1, 2), (1, 1)): 2, Biword((2, 1), (1, 1)): Fraction(-1, 2), Biword((1,), (2,)): 1}
    )


@pytest.mark.parametrize("operand, position", [
    ("12|11 + 1|x", 10),  # the bad character, counted in the operand as typed
    ("x*12|11", 0),  # a bad coefficient at its start
    ("1/0*12|11", 0),
    ("12|11 + 1e100000000*21|11", 8),  # an exponent past the integer-text digit limit
    ("2e-*12|11", 0),  # a signed exponent with no digits
    ("12|11 + 21|1", 11),  # the degree row of the second term
    ("12|11 +", 7),  # an empty term at its start, here the end of the operand
    ("  12|1z", 6),  # leading spaces count
    ("", 0),  # empty combination
])
def test_combination_parse_errors_give_the_typed_position(capsys, operand, position):
    code, out, err = run(capsys, "membership", operand)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error at position {position}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, position", [
    (("product", "biword-prec", "  12|1z", "1|1"), 6),  # leading spaces count
    (("coproduct", "prec", "  3,1,2|1,x,1"), 10),
    (("product", "shuffle", "  a1.B2", "c1"), 5),
    (("coproduct", "deconcat", "   a1..b2"), 6),
    (("product", "shuffle", "a1.bx", "c1"), 4),  # expected a weight, got 'x'
    (("product", "shuffle", "a0", "b1"), 1),  # letter weight must be positive
])
def test_single_operand_parse_errors_give_the_typed_position(capsys, argv, position):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error at position {position}: ")
    assert "Traceback" not in err


def test_zero_combination_and_a_half_coproduct_of_the_unit_exit_2(capsys):
    assert run(capsys, "membership", "12|11 - 12|11") == (2, "", "error: the zero combination has no defined weight")
    assert run(capsys, "coproduct", "prec", "1") == (2, "", "error: half-coproducts need a nonempty biword")


def _off_by_one_at_3(values):
    """A dimension series (called with no argument) whose coefficient 3 is one too large."""
    return lambda: [values()[n] + (n == 3) for n in range(4)]


@pytest.mark.parametrize("attr, planted, flag", [
    ("biword_count", lambda n, real=D.biword_count: real(n) + (n == 3),
     "n=3: biword count 12 != R coefficient 11"),
    ("descd_class_dimension", lambda n, real=D.descd_class_dimension: real(n) + (n == 3),
     "n=3: descd rank 11 != closed-form coefficient 10"),
    ("descent_dim_series_catalan", _off_by_one_at_3(D.descent_dim_series_catalan),
     "n=3: closed-form coefficient 10 != catalan-compose coefficient 11"),
    ("primitive_dim_series", _off_by_one_at_3(D.primitive_dim_series),
     "n=3: primitive kernel 2 != primitive series 3"),
])
def test_dims_prints_a_planted_disagreement_as_a_flag(capsys, monkeypatch, attr, planted, flag):
    monkeypatch.setattr(D, attr, planted)
    code, out, _ = run(capsys, "dims", "3")
    assert code == 1
    assert out.splitlines()[-1] == f"FLAG: {flag}"
    assert "flags: none" not in out
    code, out, _ = run(capsys, "dims", "3", "--json")
    assert code == 1
    assert json.loads(out)["flags"] == [flag]


def test_decompose_names_primitives_on_a_saved_presentation(tmp_path, capsys, half_coordinates):
    path = tmp_path / "half.json"
    save_presentation(half_coordinates, path)
    assert run(capsys, "decompose", str(path), "p") == (0, "1/2*P2.0 - 1/2*q", "")
    assert run(capsys, "decompose", str(path), "s") == (0, "u<(u) + P2.0", "")
    code, out, _ = run(capsys, "decompose", "--json", str(path), "p")
    assert code == 0
    assert json.loads(out) == {"label": "p", "terms": [
        {"coeff_num": 1, "coeff_den": 2, "word": ["P2.0"]},
        {"coeff_num": -1, "coeff_den": 2, "word": ["q"]},
    ]}
    code, out, _ = run(capsys, "decompose", "--json", str(path), "s")
    assert code == 0
    assert json.loads(out) == {"label": "s", "terms": [
        {"coeff_num": 1, "coeff_den": 1, "word": ["u", "u"]},
        {"coeff_num": 1, "coeff_den": 1, "word": ["P2.0"]},
    ]}


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


def test_decompose_roundtrip_evaluates_once(tmp_path, capsys, monkeypatch):
    # primitive_decomposition evaluates the decomposition; --roundtrip reports that check
    good = tmp_path / "shx.json"
    save_presentation(shuffle_presentation({1: 1, 2: 1}, 3), good)
    calls = []
    evaluate = R.PrimitiveDecomposition.evaluate
    monkeypatch.setattr(R.PrimitiveDecomposition, "evaluate", lambda self: calls.append(1) or evaluate(self))
    code, out, _ = run(capsys, "decompose", str(good), "a1.a2", "--roundtrip", "--json")
    assert code == 0
    assert json.loads(out)["roundtrip"] is True
    assert len(calls) == 1


def test_decompose_json_reports_a_failure_as_json(tmp_path, capsys, monkeypatch):
    # the weight-3 one-symbol word model with a1 < a1 = 2*a1.a1
    body = presentation_to_json(shuffle_presentation({1: 1}, 3))
    for row in body["prec"]:
        if row[:2] == ["a1", "a1"]:
            row[2] = [["a1.a1", "2"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    code, out, _ = run(capsys, "decompose", str(bad), "a1.a1", "--json")
    assert code == 1
    payload = json.loads(out)
    assert sorted(payload) == ["checked", "failures", "label"]
    assert payload["label"] == "a1.a1"
    report = validate_presentation(presentation_from_json(body))
    assert payload["checked"] == report.checked > 0
    assert payload["failures"] == [
        {"identity": f.identity, "inputs": list(f.inputs), "lhs": str(f.lhs), "rhs": str(f.rhs)}
        for f in report
    ]
    code, out, _ = run(capsys, "decompose", str(bad), "a1.a1")
    assert code == 1
    assert out.startswith(f"FAIL: presentation violates {len(report)} axiom instance(s)\n")

    # a rigidity failure on a valid presentation becomes one more record
    good = tmp_path / "good.json"
    save_presentation(shuffle_presentation({1: 1}, 3), good)

    def planted(A, label):
        raise RigidityError("planted")

    monkeypatch.setattr("shufflealg.rigidity.primitive_decomposition", planted)
    code, out, _ = run(capsys, "decompose", str(good), "a1.a1", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["checked"] == validate_presentation(shuffle_presentation({1: 1}, 3)).checked
    assert payload["failures"] == [
        {"identity": "decomposition-roundtrip", "inputs": ["a1.a1"], "lhs": "planted", "rhs": ""}
    ]
    code, out, _ = run(capsys, "decompose", str(good), "a1.a1")
    assert (code, out) == (1, "FAIL: rigidity failure: planted")


@pytest.mark.parametrize("body", [
    [],
    {"basis": [], "prec": [], "coproduct": []},
    {"basis": {"1": [["a"]]}, "prec": [], "coproduct": []},
    {"basis": {"1": ["a"]}, "prec": [["a", "a"]], "coproduct": []},
    {"basis": {"1": ["a"]}, "prec": [], "coproduct": [["a", 5]]},
    {"basis": {"1": ["a"]}, "prec": [], "coproduct": [["a", [["1", "a", "1/0"]]]]},
    {"basis": {"1": ["a"]}, "prec": [], "coproduct": [["a", [["1", "a", 0.1]]]]},
], ids=[
    "top-level-list", "basis-list", "list-label", "short-prec-entry", "coproduct-terms-number",
    "zero-denominator", "float-coefficient",
])
def test_decompose_rejects_a_malformed_presentation(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, "decompose", str(path), "a")
    assert code == 2
    assert out == ""
    assert "cannot load presentation" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["product", "warble", "a", "b"])
    assert exc.value.code == 2


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # against a bare interpreter, so modules that a site hook loads do not count
    env = {**os.environ, "PYTHONPATH": str(Path(shufflealg.__file__).parents[1])}

    def loaded(statement):
        code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return set(done.stdout.split())

    added = loaded("import shufflealg.cli") - loaded("pass")
    assert not {"dataclasses", "inspect"} & added
    # a command imports the modules it runs, and a coefficient that is not an int imports fractions
    modules = ("series", "descent", "linalg", "rigidity", "action", "verify")
    deferred = {"fractions", "decimal", "numbers", *(f"shufflealg.{m}" for m in modules)}
    assert not deferred & added, deferred & added


def test_integral_commands_leave_fractions_unloaded(tmp_path):
    """Each command in a fresh interpreter: only a non-integral coefficient loads fractions."""
    A = shuffle_presentation({1: 1, 2: 1, 3: 1}, 3)
    path = tmp_path / "shx.json"
    save_presentation(A, path)
    env = {**os.environ, "PYTHONPATH": str(Path(shufflealg.__file__).parents[1])}
    code = (
        "import sys\nfrom shufflealg.cli import main\ncode = main(sys.argv[1:])\n"
        "print('fractions' in sys.modules, code)"
    )
    cases = [
        (["product", "star", "21|11", "12|12"], False),
        (["coproduct", "full", "213|121"], False),
        (["pi", "6", "--route", "recursive"], False),
        (["dims", "12"], False),
        (["verify", "tau", "3"], False),
        (["decompose", str(path), "a1.a1.a1", "--roundtrip"], False),
        (["membership", "12|11 + 1/2*21|11", "--json"], True),
    ]
    bare = subprocess.run([sys.executable, "-c", "import sys; print('fractions' in sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    assert bare.stdout.split() == ["False"]
    for argv, loads_fractions in cases:
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
        *out, last = done.stdout.splitlines()
        assert last == f"{loads_fractions} 0", (argv, done.stderr)
        if argv[0] == "membership":
            assert json.loads(out[0]) == {"member": True, "weight": 2}


# argument lists per subcommand: a valid one, then usage errors of the
# subparser and of the top-level parser (an unrecognized extra argument)
_PARSER_CASES = {
    "product": [["internal", "312|111", "132|111", "--json"], [], ["warble", "a", "b"], ["star", "1", "1", "x"]],
    "coproduct": [["full", "21|12", "--config", "c.json"], ["sideways", "1"], ["prec"], ["prec", "1", "2"]],
    "pi": [["3", "--route", "recursive"], [], ["3", "--route", "nope"], ["3", "--bogus"]],
    "dims": [["5", "--descd", "--rank-cutoff", "4"], ["five"], [], ["5", "6"]],
    "verify": [["tau", "3", "--json"], ["tau"], [], ["tau", "x"], ["tau", "3", "4"]],
    "membership": [["213|111 + 231|111", "--weight", "3"], [], ["1", "--weight", "x"], ["1", "2"]],
    "decompose": [["f.json", "a1", "--roundtrip"], ["f.json"], ["f.json", "a1", "b1"]],
}


def _parse(parser, argv):
    """(namespace or None, exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


def test_full_parser_has_every_command():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == COMMANDS == tuple(_PARSER_CASES)


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subcommand_parser_matches_the_full_parser(command):
    full, alone = build_parser(), build_parser(command)
    for rest in [*_PARSER_CASES[command], ["--help"], ["-h", "x"]]:
        argv = [command, *rest]
        got, want = _parse(alone, argv), _parse(full, argv)
        assert got == want, argv
    namespace, code, _, _ = _parse(alone, [command, *_PARSER_CASES[command][0]])
    assert code is None and namespace["command"] == command
    _, code, help_text, _ = _parse(alone, [command, "--help"])
    assert code == 0 and help_text.startswith(f"usage: shufflealg {command} [-h] [--json] [--config FILE]")
    _, code, _, error = _parse(alone, [command, *_PARSER_CASES[command][-1]])
    assert code == 2 and error.startswith("usage: shufflealg [-h]\n") and "unrecognized arguments" in error


def test_main_builds_the_named_subcommand_alone(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def recording(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    assert main(["pi", "3"]) == 0
    for argv in ([], ["--help"], ["-h", "pi"], ["warble"], ["--json", "pi", "3"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert built == ["pi", None, None, None, None, None]
