"""Command-line front end.

Subcommands: product, coproduct, pi, dims, verify, membership, decompose.
Exit codes: 0 success, 1 verification failure (failed suite, flagged
dimension table, non-member, rigidity failure), 2 usage or parse error.

Operand grammar: words are dot-separated letters like ``a1.b2.a1`` (weight 1
when omitted); biwords are ``perm|degrees`` with digit strings or comma
lists, and degree letters a..i read as 1..9; ``1`` or the empty string is
the unit on both sides.  Combinations accept signed terms with optional
rational coefficients, e.g. ``213|111 + 231|111`` or ``2*12|11 - 1/2*21|11``.

A JSON config file (``--config``) can pin default cutoffs: keys
``verify_weight``, ``rank_cutoff``, ``prim_cutoff``, ``series_cutoff``, whose
defaults are :data:`DEFAULTS`, the one table of them.

:func:`main` reads a plain command line from :data:`ARGUMENTS`, the one
table of every subcommand's arguments, without argparse.  Help, no
arguments, usage errors and any line the table parser does not fully
understand go to :func:`build_parser`, whose argparse parser, built from the
same table, prints the help, usage and error texts.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .lincomb import LinComb, parse_coefficient
from . import words as W
from . import biwords as B

DEFAULTS = {
    "verify_weight": 5,
    "rank_cutoff": 6,
    "prim_cutoff": 6,
    "series_cutoff": 12,
}


class UsageError(Exception):
    pass


# -- rendering ---------------------------------------------------------------

def _key_to_json(key):
    if isinstance(key, W.Word):
        return W.word_to_json(key)
    if isinstance(key, B.Biword):
        return B.biword_to_json(key)
    if isinstance(key, tuple):
        if len(key) == 2:
            return {"left": _key_to_json(key[0]), "right": _key_to_json(key[1])}
        return [_key_to_json(k) for k in key]
    return str(key)


def lincomb_to_json(lc: LinComb) -> list:
    return [
        {"coeff_num": c.numerator, "coeff_den": c.denominator, "key": _key_to_json(k)}
        for k, c in lc.items()
    ]


def emit(args, payload_json, payload_text: str) -> None:
    if args.json:
        print(json.dumps(payload_json, indent=None))
    else:
        print(payload_text)


# -- operand parsing ------------------------------------------------------------

def parse_biword_combination(text: str) -> LinComb:
    """Signed sum of optionally weighted biword terms.  A parse error gives
    its position in ``text`` as typed, spaces included."""
    stripped = text.replace(" ", "")
    typed = [i for i, ch in enumerate(text) if ch != " "] + [len(text)]  # stripped index -> typed
    if not stripped:
        raise B.BiwordParseError("empty combination", 0)
    sign, term, terms = 1, "", []
    for pos, ch in enumerate(stripped):
        # a sign after the exponent mark of a coefficient (no '|' or '*' yet) continues the term
        if ch in "+-" and not (term[-1:] in ("e", "E") and "|" not in term and "*" not in term):
            if pos:  # a leading sign belongs to the first term
                terms.append((sign, term, pos - len(term)))
            sign, term = (-1 if ch == "-" else 1), ""
        else:
            term += ch
    terms.append((sign, term, len(stripped) - len(term)))
    pairs = []
    for sgn, chunk, at in terms:
        if not chunk:
            raise B.BiwordParseError("empty term in combination", typed[at])
        coeff = 1
        if "*" in chunk:
            coeff_text, chunk = chunk.split("*", 1)
            try:
                coeff = parse_coefficient(coeff_text)
            except (ValueError, ZeroDivisionError):
                raise B.BiwordParseError(f"bad coefficient {coeff_text!r}", typed[at]) from None
            at += len(coeff_text) + 1
        try:
            pairs.append((B.parse_biword(chunk), coeff * sgn))
        except B.BiwordParseError as exc:
            raise B.BiwordParseError(str(exc), typed[at + exc.position]) from None
    return LinComb(pairs)


# -- subcommands -----------------------------------------------------------------

def _setting(args, attr: str, key: str, label: str) -> int:
    """The command-line value ``attr`` if given (even 0), else config key ``key``;
    a negative value is a usage error naming its source."""
    given = getattr(args, attr)
    value = args.config_values[key] if given is None else given
    if value < 0:
        source = f"config key {key!r}" if given is None else label
        raise UsageError(f"{source} must be non-negative, got {value}")
    return value


def _products() -> dict:
    """Each ``product`` kind's (operand parser, product).  The table is built
    at each call, so a rebound module function is the one that runs."""
    return {
        "word-prec": (W.parse_word, W.word_prec),
        "word-succ": (W.parse_word, W.word_succ),
        "shuffle": (W.parse_word, W.word_shuffle),
        "biword-prec": (B.parse_biword, B.biword_prec),
        "biword-succ": (B.parse_biword, B.biword_succ),
        "star": (B.parse_biword, B.biword_star),
        "internal": (B.parse_biword, B.internal_compose),
    }


def cmd_product(args) -> int:
    parse, fn = _products()[args.kind]
    result = fn(parse(args.lhs), parse(args.rhs))
    emit(args, lincomb_to_json(result), str(result))
    return 0


def cmd_coproduct(args) -> int:
    kind = args.kind
    if kind == "deconcat":
        word_ = W.parse_word(args.arg)
        result = W.deconcat(word_)
    else:
        bw = B.parse_biword(args.arg)
        if kind == "full":
            result = B.hopf_coproduct(LinComb.single(bw))
        else:
            if bw.is_unit():
                raise UsageError("half-coproducts need a nonempty biword")
            result = B.coproduct_prec(bw) if kind == "prec" else B.coproduct_succ(bw)
    emit(args, lincomb_to_json(result), str(result))
    return 0


def cmd_pi(args) -> int:
    from . import descent as D
    parts = args.target.split(",") if args.target else []
    try:
        numbers = [int(p) for p in parts]  # an empty part is malformed too
    except ValueError:
        raise UsageError(f"bad composition {args.target!r}")
    if not numbers or any(n < 1 for n in numbers):
        raise UsageError("pi needs a positive weight or composition")
    if len(numbers) == 1:
        result = D.pi_n(numbers[0], args.route)
    elif args.route != "closed":
        raise UsageError(f"--route {args.route} applies to a single weight, not to a composition")
    else:
        result = D.pi_composite(tuple(numbers))
    emit(args, lincomb_to_json(result), str(result))
    return 0


def cmd_dims(args) -> int:
    from . import descent as D
    include = [c for c in D.REPORT_COLUMNS if getattr(args, c)]
    if include in ([], ["series"]):  # no column group named: all of them
        include = D.REPORT_COLUMNS
    rank_cutoff, prim_cutoff, series_cutoff = (
        _setting(args, name, name, "--" + name.replace("_", "-"))
        for name in ("rank_cutoff", "prim_cutoff", "series_cutoff")
    )
    if args.max_n < 1:
        raise UsageError(f"max weight must be positive, got {args.max_n}")
    if args.max_n > series_cutoff:
        raise UsageError(
            f"max weight {args.max_n} exceeds the series cutoff {series_cutoff}"
        )
    rows, flags = D.dimension_report(
        args.max_n, include=include, rank_cutoff=rank_cutoff, prim_cutoff=prim_cutoff
    )
    if args.json:
        print(json.dumps({"rows": rows, "flags": flags}))
    else:
        _print_dims_table(rows, flags)
    return 1 if flags else 0


# the title of each column of a dims row, in column order
_DIM_TITLES = {
    "n": "n",
    "biword_count": "biwords",
    "biword_series": "R(x)",
    "descd_rank": "descd",
    "descd_closed": "closed",
    "descd_catalan": "catalan",
    "prim_kernel": "prim",
    "prim_series": "P(x)",
}


def _print_dims_table(rows: list[dict], flags: list[str]) -> None:
    used = [key for key in _DIM_TITLES if any(key in row for row in rows)]
    table = [[_DIM_TITLES[key] for key in used]]
    table += [[str(row.get(key, "")) for key in used] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(used))]
    for line in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    if flags:
        for flag in flags:
            print(f"FLAG: {flag}")
    else:
        print("flags: none")


def cmd_verify(args) -> int:
    from . import verify as V
    max_weight = _setting(args, "max_weight", "verify_weight", "max_weight")
    if args.suite not in V.SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(V.SUITES))}"
        )
    failures = V.SUITES[args.suite](max_weight)
    if not failures and not failures.checked:
        raise UsageError(
            f"nothing to check at this weight: {args.suite} up to weight {max_weight} "
            "has no identity instances"
        )
    if args.json:
        print(json.dumps({"suite": args.suite, "max_weight": max_weight, **_report_json(failures)}))
    elif failures:
        print(f"FAIL: {args.suite} up to weight {max_weight}: {len(failures)} violation(s)")
        for f in failures[:5]:
            print(str(f))
    else:
        print(f"PASS: {args.suite} up to weight {max_weight}")
    return 1 if failures else 0


def _report_json(report) -> dict:
    """The instance count and failure records of a report, for ``--json``."""
    records = [
        {"identity": f.identity, "inputs": list(map(str, f.inputs)), "lhs": str(f.lhs), "rhs": str(f.rhs)}
        for f in report
    ]
    return {"checked": report.checked, "failures": records}


def cmd_membership(args) -> int:
    from . import descent as D
    x = parse_biword_combination(args.combination)
    if x.is_zero():
        raise UsageError("the zero combination has no defined weight")
    weights = {key.weight for key in x.terms()}
    if len(weights) != 1:
        raise UsageError(f"combination is not weight-homogeneous: weights {sorted(weights)}")
    (n,) = weights
    if args.weight is not None and args.weight != n:
        raise UsageError(f"combination has weight {n}, not {args.weight}")
    if n == 0:
        raise UsageError("the descent algebra starts at weight 1; the unit has weight 0")
    member = D.descd_membership(x, n)
    emit(args, {"member": member, "weight": n}, "true" if member else "false")
    return 0 if member else 1


def cmd_decompose(args) -> int:
    from . import rigidity as R
    try:
        A = R.load_presentation(args.file)
    except (OSError, json.JSONDecodeError, R.PresentationError) as exc:
        raise UsageError(f"cannot load presentation: {exc}")
    report = R.validate_presentation(A)
    if report:
        summary = [f"presentation violates {len(report)} axiom instance(s)", *(f"  {v}" for v in report[:5])]
        return _decompose_failed(args, report, "\n".join(summary))
    try:
        decomp = R.primitive_decomposition(A, args.label)
    except R.PresentationError as exc:
        raise UsageError(str(exc))
    except R.RigidityError as exc:
        report.append(R.Failure("decomposition-roundtrip", (args.label,), str(exc), ""))
        return _decompose_failed(args, report, f"rigidity failure: {exc}")
    # primitive_decomposition has evaluated the decomposition back to the label
    if args.json:
        terms = [
            {"coeff_num": c.numerator, "coeff_den": c.denominator, "word": list(map(decomp.primitive_name, pids))}
            for pids, c in decomp.terms.items()
        ]
        payload = {"label": args.label, "terms": terms}
        if args.roundtrip:
            payload["roundtrip"] = True
        print(json.dumps(payload))
    else:
        print(str(decomp))
        if args.roundtrip:
            print("roundtrip: ok")
    return 0


def _decompose_failed(args, report, text: str) -> int:
    if args.json:
        print(json.dumps({"label": args.label, **_report_json(report)}))
    else:
        print(f"FAIL: {text}")
    return 1


# -- parser ------------------------------------------------------------------------

def _suite_names() -> str:
    from . import verify as V
    return ", ".join(sorted(V.SUITES))


# Every subcommand's (help, function, rows), each row a name (a leading "--"
# makes an option) and its add_argument settings: the table parser reads
# plain command lines from these rows, and build_parser gives them to argparse.
_COMMON = (
    ("--json", {"action": "store_true", "help": "emit JSON instead of text"}),
    ("--config", {"metavar": "FILE", "help": "JSON file with default cutoffs"}),
)
# argparse reads a token that starts with "-" as an option, so such an operand follows "--"
_DASHED = "an operand that starts with '-' goes after '--', which follows every option"
ARGUMENTS = {
    "product": ("expand a product of two operands", cmd_product, (
        ("kind", {"choices": list(_products())}), ("lhs", {"help": _DASHED}), ("rhs", {"help": _DASHED}))),
    "coproduct": ("expand a coproduct", cmd_coproduct, (
        ("kind", {"choices": ["prec", "succ", "full", "deconcat"]}), ("arg", {"help": _DASHED}))),
    "pi": ("idempotent of a weight or composition", cmd_pi, (
        ("target", {"help": "a weight like 3 or a composition like 1,2"}),
        ("--route", {"choices": ["closed", "alternating", "recursive"], "default": "closed",
                     "help": "computation route for a single weight"}))),
    "dims": ("dimension table with cross-checks", cmd_dims, (
        ("max_n", {"type": int}),
        # descent.REPORT_COLUMNS, named here so that parsing leaves descent unloaded
        *((f"--{c}", {"action": "store_true", "help": f"include the {c} columns"})
          for c in ("biwords", "descd", "prim", "series")),
        *((f"--{c}-cutoff", {"type": int, "default": None}) for c in ("rank", "prim", "series")))),
    "verify": ("run an identity suite", cmd_verify, (
        ("suite", {"help": _suite_names}),  # called for argparse's help text alone
        ("max_weight", {"nargs": "?", "type": int, "default": None}))),
    "membership": ("test membership in the descent algebra", cmd_membership, (
        ("combination", {"help": f"e.g. '213|111 + 231|111'; {_DASHED}"}), ("--weight", {"type": int, "default": None}))),
    "decompose": ("primitive decomposition in a presentation file", cmd_decompose, (
        ("file", {}), ("label", {}),
        ("--roundtrip", {"action": "store_true", "help": "report the round trip that every decomposition passes"}))),
}
COMMANDS = tuple(ARGUMENTS)


def _plain_value(token: str, spec: dict):
    """What argparse makes of ``token`` in a row, or None where argparse must judge."""
    if "action" in spec:  # a flag takes no token
        return True
    if token[:1] == "-" and token[1:2] != " ":  # an option, "--", "-1" or a missing value
        return None
    if spec.get("type") is int:
        # plain ASCII digits only; int() reads 640 of them under any digit limit
        if not (token.isascii() and token.isdigit() and len(token) < 640):
            return None
        token = int(token)
    return None if "choices" in spec and token not in spec["choices"] else token


def _plain_args(argv: list):
    """The namespace argparse gives a plain command line, read from the table,
    or None for anything else: no command first, help, ``--``, ``--opt=value``,
    an abbreviated or unknown option, a token or value that starts with "-"
    (a space after it makes a positional, as in ``- 2*12|11``), an int that is
    not plain ASCII digits, a value outside its choices or a wrong number of
    positionals."""
    if not argv or argv[0] not in ARGUMENTS:
        return None
    _, fn, rows = ARGUMENTS[argv[0]]
    options = {name: spec for name, spec in _COMMON + rows if name[:2] == "--"}
    positionals = [row for row in rows if row[0][:2] != "--"]
    values = {name[2:].replace("-", "_"): False if "action" in spec else spec.get("default")
              for name, spec in options.items()}
    values.update(command=argv[0], fn=fn)
    required = sum("nargs" not in spec for _, spec in positionals)
    count, ended, tokens = 0, False, iter(argv[1:])
    for token in tokens:
        spec = options.get(token)
        if spec is None:
            if ended or count == len(positionals):
                return None
            name, spec = positionals[count]
            count += 1
        else:
            # an option after the required positionals ends them, the optional one too, as in argparse
            ended = count >= required
            name = token[2:].replace("-", "_")
            if "action" not in spec:
                token = next(tokens, "-")
        values[name] = _plain_value(token, spec)
        if values[name] is None:
            return None
    if count < required:
        return None
    values.update((name, spec["default"]) for name, spec in positionals[count:])
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of every subcommand, built from :data:`ARGUMENTS`;
    :func:`main` builds it only for a line the table parser leaves to it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="shufflealg",
        description="Exact computations in shuffle algebras, graded permutations, "
        "and the dendriform descent algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, fn, rows) in ARGUMENTS.items():
        p = sub.add_parser(command, help=help_text)
        for name, spec in _COMMON + rows:
            if callable(spec.get("help")):
                spec = {**spec, "help": spec["help"]()}
            p.add_argument(name, **spec)
        p.set_defaults(fn=fn)
    return parser


def _load_config(path: str | None) -> dict:
    values = dict(DEFAULTS)
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise UsageError("the config file must hold a JSON object")
        unknown = set(data) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if type(value) is not int:
                raise UsageError(f"config key {key!r} must be an integer, got {json.dumps(value)}")
        values.update(data)
    return values


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    ``main(argv)`` with a list runs that list and returns the code.  With no
    argument list, ``main`` runs the process's own command line and then ends
    the process as the interpreter's exit does, minus its teardown: it runs
    the atexit handlers, flushes stdout and stderr, and exits with the code,
    or with 120 after a failed flush, which it reports as the interpreter
    does.  Under a profiler or a trace function it returns the code instead,
    so that they can report.
    """
    if argv is not None:
        return _run(list(argv))
    code = _run(sys.argv[1:])
    monitoring = getattr(sys, "monitoring", None)  # where cProfile registers from 3.12 on
    if sys.getprofile() or sys.gettrace() or (monitoring and monitoring.get_tool(monitoring.PROFILER_ID)):
        return code
    _end_process(code)


def _end_process(code: int):
    """End the process as ``Py_Finalize`` would up to its flush of stdio."""
    import atexit
    import os
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is None or getattr(stream, "closed", False):  # e.g. fd 1 closed at launch
            continue
        try:
            stream.flush()
        except Exception as exc:  # the interpreter catches any error of this flush
            code = 120
            if stream is sys.stdout and sys.stderr is not None:
                # its report of a failed stdout flush (of stderr's it reports none); should
                # this write fail too, the error leaves main and that exit gives 120 as well
                import traceback
                sys.stderr.write(f"Exception ignored in: {stream!r}\n"
                                 + "".join(traceback.format_exception_only(type(exc), exc)))
    os._exit(code)


def _run(argv: list) -> int:
    # argparse reads only what the table parser leaves: help, usage errors, odd lines
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        args.config_values = _load_config(getattr(args, "config", None))
        return args.fn(args)
    except (B.BiwordParseError, W.WordParseError) as exc:
        print(f"parse error at position {exc.position}: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
