"""Every function, method and property getter in ``src/shufflealg`` is
reached by a command, except the names on ``UNREACHED``, each with its reason.

The command lines of ``_command_lines`` run in-process under
``sys.setprofile``, which records the code object of every Python call.
Between them they run every ``product`` and ``coproduct`` kind, every ``pi``
route and a composition, ``dims`` as text and as JSON, every ``verify``
suite at weight 3, a member and a non-member, ``decompose`` on a saved
weight-3 word model and on a corrupted copy, a bad word and a bad biword
operand, ``--help`` and a usage error (argparse's exits 0 and 2).  A definition that none of them enters and that the allow-list does
not name is code only the tests call: move it to ``tests/oracles.py`` or
delete it.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
from pathlib import Path

import shufflealg
from shufflealg import cli
from shufflealg import verify as V
from shufflealg.rigidity import presentation_to_json, shuffle_presentation
from shufflealg.words import standard_alphabet

PACKAGE_DIR = Path(shufflealg.__file__).resolve().parent

_SPANNING_ROUTE = "the spanning-set route, a standing oracle that perfbench/selftest.py calls"
_LINCOMB_API = "library API: the operators and read access of a linear combination"
_PRESENTATION_API = "library API: a presentation's entries, and its file written from Python"
_REPR = "debugging aid; no command prints a repr"

# never entered by a command: qualified name -> why it stays in src/
UNREACHED = {
    "descent.DendMonomial.weight": _SPANNING_ROUTE,
    "descent.DendMonomial.__str__": _SPANNING_ROUTE,
    "descent._tree_weight": _SPANNING_ROUTE,
    "descent._render_tree": _SPANNING_ROUTE,
    "descent._tree_shapes": _SPANNING_ROUTE,
    "descent._evaluate_tree": _SPANNING_ROUTE,
    "descent.descd_spanning_set": _SPANNING_ROUTE,
    "descent.descd_echelon": _SPANNING_ROUTE,
    "descent.descd_dimension": _SPANNING_ROUTE,
    "lincomb.LinComb.__add__": _LINCOMB_API,
    "lincomb.LinComb.__mul__": _LINCOMB_API,
    "lincomb.LinComb.__bool__": _LINCOMB_API,
    "lincomb.LinComb.__contains__": _LINCOMB_API,
    "lincomb.LinComb.__iter__": _LINCOMB_API,
    "lincomb.LinComb.keys": _LINCOMB_API,
    "lincomb.LinComb.coefficient": _LINCOMB_API,
    "lincomb.LinComb.__repr__": _REPR,
    "words.Word.__repr__": _REPR,
    "biwords.Biword.__repr__": _REPR,
    "biwords.Biword.__reduce__": "pickle and copy call it to rebuild a biword; no command pickles one",
    "rigidity.Presentation.prec": _PRESENTATION_API,
    "rigidity.Presentation.coproduct": _PRESENTATION_API,
    "rigidity.presentation_to_json": _PRESENTATION_API,
    "rigidity.save_presentation": _PRESENTATION_API,
    "rigidity.biword_act": "library API: a biword acting on the labels of a presentation",
    "cli._end_process": "ends the process, so only a fresh interpreter enters it (tests/test_cli_exit.py)",
    "verify._row_map": "builds a failure record of internal-compose-vs-action, which a passing run never does",
}


def _command_lines(tmp_path: Path) -> list:
    """(argument list, expected exit code) for every run of the scan."""
    body = presentation_to_json(shuffle_presentation(standard_alphabet(3, 2), 3))
    model = tmp_path / "words-3.json"
    model.write_text(json.dumps(body))
    (entry,) = [row for row in body["prec"] if row[:2] == ["a1", "a1"]]
    entry[2] = [["a1.a1", "2"]]
    broken = tmp_path / "words-3-bad.json"
    broken.write_text(json.dumps(body))
    runs = [(["product", kind, "a1.b2", "b1"], 0) for kind in ("word-prec", "word-succ", "shuffle")]
    runs += [(["product", kind, "21|12", "1|3"], 0) for kind in ("biword-prec", "biword-succ", "star")]
    runs += [(["product", "internal", "312|111", "132|111"], 0)]
    runs += [(["coproduct", kind, "213|121"], 0) for kind in ("prec", "succ", "full")]
    runs += [(["coproduct", "deconcat", "a1.b2.a1", "--json"], 0)]
    runs += [(["pi", "3", "--route", route], 0) for route in ("closed", "alternating", "recursive")]
    runs += [(["pi", "1,2", "--json"], 0), (["dims", "4"], 0), (["dims", "4", "--json"], 0)]
    runs += [(["verify", suite, "3", "--json"], 0) for suite in V.SUITES]
    runs += [(["verify", "tau", "3"], 0)]
    runs += [(["membership", "213|111 + 231|111"], 0), (["membership", "213|111", "--json"], 1)]
    runs += [(["decompose", str(model), "a1.b2", "--roundtrip"], 0)]
    runs += [(["decompose", str(model), "b1.a2", "--json"], 0)]
    runs += [(["decompose", str(broken), "a1.b2", "--json"], 1)]
    runs += [(["product", "shuffle", "a1.B2", "b1"], 2), (["coproduct", "full", "21|1x"], 2)]
    runs += [(["--help"], 0), (["product", "warble", "a1", "b1"], 2)]
    return runs


def _entered_code(runs) -> set:
    """The code objects of the Python calls made while the runs execute."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sink = io.StringIO()
    previous = sys.getprofile()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv, _ in runs:
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:  # argparse's help and usage errors
                    codes.append(exc.code)
        finally:
            sys.setprofile(previous)
    assert codes == [code for _, code in runs], sink.getvalue()
    return entered


def _definitions() -> dict:
    """Every function, method and property getter written in the package,
    as code object -> qualified name ``module.Class.name``."""
    found = {}
    for info in pkgutil.iter_modules(shufflealg.__path__):
        for value in vars(importlib.import_module(f"shufflealg.{info.name}")).values():
            members = vars(value).values() if inspect.isclass(value) else [value]
            for member in members:
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                    # a builtin getter (itemgetter, tuple) has no code to be seen entered
                    assert hasattr(member, "__code__"), f"{value.__qualname__}: property getter {member!r}"
                code = getattr(member, "__code__", None)
                if code is not None and Path(code.co_filename).resolve().parent == PACKAGE_DIR:
                    found.setdefault(code, f"{Path(code.co_filename).stem}.{member.__qualname__}")
    return found


def test_only_the_allow_list_is_unreached(tmp_path):
    entered = _entered_code(_command_lines(tmp_path))
    unreached = {name for code, name in _definitions().items() if code not in entered}
    # (entered by no command and not on the list, on the list but entered)
    assert (sorted(unreached - UNREACHED.keys()), sorted(UNREACHED.keys() - unreached)) == ([], [])
