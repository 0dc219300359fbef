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

:func:`main` builds the parser of the subcommand its first argument names,
and no other; ``--help``, no arguments or an unknown command get the parser
of all seven.  Both print the same help, usage and error texts.
"""

from __future__ import annotations

import argparse
import json
import sys

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

COMMANDS = ("product", "coproduct", "pi", "dims", "verify", "membership", "decompose")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with ``command``'s alone.

    The one-subcommand parser parses that command's argument lists as the
    full one does, with the same help, usage and error texts.
    """
    parser = argparse.ArgumentParser(
        prog="shufflealg",
        description="Exact computations in shuffle algebras, graded permutations, "
        "and the dendriform descent algebra.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--config", metavar="FILE", help="JSON file with default cutoffs")

    # the full parser's usage lists its choices; the one-subcommand parser names them all in the metavar
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def wanted(name: str) -> bool:
        return command is None or command == name

    if wanted("product"):
        p = sub.add_parser("product", parents=[common], help="expand a product of two operands")
        p.add_argument("kind", choices=list(_products()))
        p.add_argument("lhs")
        p.add_argument("rhs")
        p.set_defaults(fn=cmd_product)

    if wanted("coproduct"):
        p = sub.add_parser("coproduct", parents=[common], help="expand a coproduct")
        p.add_argument("kind", choices=["prec", "succ", "full", "deconcat"])
        p.add_argument("arg")
        p.set_defaults(fn=cmd_coproduct)

    if wanted("pi"):
        p = sub.add_parser("pi", parents=[common], help="idempotent of a weight or composition")
        p.add_argument("target", help="a weight like 3 or a composition like 1,2")
        p.add_argument(
            "--route",
            choices=["closed", "alternating", "recursive"],
            default="closed",
            help="computation route for a single weight",
        )
        p.set_defaults(fn=cmd_pi)

    if wanted("dims"):
        from . import descent as D
        p = sub.add_parser("dims", parents=[common], help="dimension table with cross-checks")
        p.add_argument("max_n", type=int)
        for flag in D.REPORT_COLUMNS:
            p.add_argument(f"--{flag}", action="store_true", help=f"include the {flag} columns")
        p.add_argument("--rank-cutoff", type=int, default=None)
        p.add_argument("--prim-cutoff", type=int, default=None)
        p.add_argument("--series-cutoff", type=int, default=None)
        p.set_defaults(fn=cmd_dims)

    if wanted("verify"):
        from . import verify as V
        p = sub.add_parser("verify", parents=[common], help="run an identity suite")
        p.add_argument("suite", help=", ".join(sorted(V.SUITES)))
        p.add_argument("max_weight", nargs="?", type=int, default=None)
        p.set_defaults(fn=cmd_verify)

    if wanted("membership"):
        p = sub.add_parser("membership", parents=[common], help="test membership in the descent algebra")
        p.add_argument("combination", help="e.g. '213|111 + 231|111'")
        p.add_argument("--weight", type=int, default=None)
        p.set_defaults(fn=cmd_membership)

    if wanted("decompose"):
        p = sub.add_parser("decompose", parents=[common], help="primitive decomposition in a presentation file")
        p.add_argument("file")
        p.add_argument("label")
        p.add_argument(
            "--roundtrip", action="store_true", help="report the round trip that every decomposition passes"
        )
        p.set_defaults(fn=cmd_decompose)

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
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run names its subcommand first; --help, no arguments or an unknown
    # command get the full parser, whose texts list every subcommand
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        args.config_values = _load_config(getattr(args, "config", None))
        return args.fn(args)
    except (B.BiwordParseError, W.WordParseError) as exc:
        print(f"parse error at position {exc.position}: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
