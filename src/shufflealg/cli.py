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
``verify_weight``, ``rank_cutoff``, ``prim_cutoff``, ``series_cutoff``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .lincomb import LinComb
from . import words as W
from . import biwords as B
from . import descent as D
from . import rigidity as R
from . import verify as V

DEFAULTS = {
    "verify_weight": V.DEFAULT_SUITE_WEIGHT,
    "rank_cutoff": D.DEFAULT_RANK_CUTOFF,
    "prim_cutoff": D.DEFAULT_PRIM_CUTOFF,
    "series_cutoff": D.DEFAULT_SERIES_CUTOFF,
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
    """Signed sum of optionally weighted biword terms."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise B.BiwordParseError("empty combination", 0)
    pos = 0
    sign = 1
    if stripped[0] in "+-":
        sign = -1 if stripped[0] == "-" else 1
        pos = 1
    term = ""
    terms = []
    for ch in stripped[pos:]:
        if ch in "+-":
            terms.append((sign, term, pos))
            sign = -1 if ch == "-" else 1
            term = ""
        else:
            term += ch
        pos += 1
    terms.append((sign, term, pos))
    pairs = []
    for sgn, chunk, at in terms:
        if not chunk:
            raise B.BiwordParseError("empty term in combination", at)
        coeff = 1
        if "*" in chunk:
            coeff_text, chunk = chunk.split("*", 1)
            try:
                coeff = Fraction(coeff_text)
            except (ValueError, ZeroDivisionError):
                raise B.BiwordParseError(f"bad coefficient {coeff_text!r}", at) from None
        pairs.append((B.parse_biword(chunk), coeff * sgn))
    return LinComb(pairs)


# -- subcommands -----------------------------------------------------------------

def cmd_product(args) -> int:
    kind = args.kind
    if kind in ("word-prec", "word-succ", "shuffle"):
        lhs = W.parse_word(args.lhs)
        rhs = W.parse_word(args.rhs)
        fn = {
            "word-prec": W.word_prec,
            "word-succ": W.word_succ,
            "shuffle": W.word_shuffle,
        }[kind]
        result = fn(lhs, rhs)
    else:
        lhs = B.parse_biword(args.lhs)
        rhs = B.parse_biword(args.rhs)
        fn = {
            "biword-prec": B.biword_prec,
            "biword-succ": B.biword_succ,
            "star": B.biword_star,
            "internal": B.internal_compose,
        }[kind]
        result = fn(lhs, rhs)
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
    parts = [p for p in args.target.split(",") if p]
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"bad composition {args.target!r}")
    if not numbers or any(n < 1 for n in numbers):
        raise UsageError("pi needs a positive weight or composition")
    if len(numbers) == 1:
        result = D.pi_n(numbers[0], args.route)
    else:
        result = D.pi_composite(tuple(numbers))
    emit(args, lincomb_to_json(result), str(result))
    return 0


def cmd_dims(args) -> int:
    config = args.config_values
    include = [c for c in ("biwords", "descd", "prim", "series") if getattr(args, c)]
    if not include:
        include = ["biwords", "descd", "prim", "series"]
    # an explicit option wins, even when it is 0
    rank_cutoff, prim_cutoff, series_cutoff = (
        config[name] if getattr(args, name) is None else getattr(args, name)
        for name in ("rank_cutoff", "prim_cutoff", "series_cutoff")
    )
    if args.max_n > series_cutoff:
        raise UsageError(
            f"max weight {args.max_n} exceeds the series cutoff {series_cutoff}"
        )
    report = D.dimension_report(
        args.max_n, include=include, rank_cutoff=rank_cutoff, prim_cutoff=prim_cutoff
    )
    if args.json:
        payload = {
            "rows": [
                {k: v for k, v in vars(row).items() if v is not None}
                for row in report.rows
            ],
            "flags": report.flags,
        }
        print(json.dumps(payload))
    else:
        _print_dims_table(report)
    return 0 if report.ok else 1


_DIM_COLUMNS = [
    ("n", "n"),
    ("biwords", "biword_count"),
    ("R(x)", "biword_series"),
    ("descd", "descd_rank"),
    ("closed", "descd_closed"),
    ("catalan", "descd_catalan"),
    ("prim", "prim_kernel"),
    ("P(x)", "prim_series"),
]


def _print_dims_table(report) -> None:
    used = [
        (title, attr)
        for title, attr in _DIM_COLUMNS
        if any(getattr(row, attr) is not None for row in report.rows)
    ]
    table = [[title for title, _ in used]]
    for row in report.rows:
        table.append(
            ["" if getattr(row, attr) is None else str(getattr(row, attr)) for _, attr in used]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(used))]
    for line in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    if report.flags:
        for flag in report.flags:
            print(f"FLAG: {flag}")
    else:
        print("flags: none")


def cmd_verify(args) -> int:
    config = args.config_values
    max_weight = args.max_weight if args.max_weight is not None else config["verify_weight"]
    try:
        failures = V.run_suite(args.suite, max_weight)
    except KeyError:
        raise UsageError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(V.SUITES))}"
        )
    if not failures and not failures.checked:
        raise UsageError(
            f"nothing to check at this weight: {args.suite} up to weight {max_weight} "
            "has no identity instances"
        )
    if args.json:
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "max_weight": max_weight,
                    "checked": failures.checked,
                    "failures": [
                        {
                            "identity": f.identity,
                            "inputs": [str(i) for i in f.inputs],
                            "lhs": str(f.lhs),
                            "rhs": str(f.rhs),
                        }
                        for f in failures
                    ],
                }
            )
        )
    else:
        if failures:
            print(f"FAIL: {args.suite} up to weight {max_weight}: {len(failures)} violation(s)")
            for f in failures[:5]:
                print(str(f))
        else:
            print(f"PASS: {args.suite} up to weight {max_weight}")
    return 1 if failures else 0


def cmd_membership(args) -> int:
    x = parse_biword_combination(args.combination)
    if x.is_zero():
        raise UsageError("the zero combination has no defined weight")
    weights = {key.weight for key in x.terms()}
    if len(weights) != 1:
        raise UsageError(f"combination is not weight-homogeneous: weights {sorted(weights)}")
    (n,) = weights
    if args.weight is not None and args.weight != n:
        raise UsageError(f"combination has weight {n}, not {args.weight}")
    member = D.descd_membership(x, n)
    emit(args, {"member": member, "weight": n}, "true" if member else "false")
    return 0 if member else 1


def cmd_decompose(args) -> int:
    try:
        A = R.load_presentation(args.file)
    except (OSError, json.JSONDecodeError, KeyError, R.PresentationError) as exc:
        print(f"error: cannot load presentation: {exc}", file=sys.stderr)
        return 2
    violations = R.validate_presentation(A)
    if violations:
        print(f"FAIL: presentation violates {len(violations)} axiom instance(s)")
        for v in violations[:5]:
            print(f"  {v}")
        return 1
    try:
        decomp = R.primitive_decomposition(A, args.label)
    except R.PresentationError as exc:
        raise UsageError(str(exc))
    except R.RigidityError as exc:
        print(f"FAIL: rigidity failure: {exc}")
        return 1
    roundtrip = None
    if args.roundtrip:
        roundtrip = decomp.evaluate() == LinComb.single(args.label)
        if not roundtrip:
            print("FAIL: decomposition does not evaluate back to the label")
            return 1
    if args.json:
        payload = {
            "label": args.label,
            "terms": [
                {
                    "coeff_num": c.numerator,
                    "coeff_den": c.denominator,
                    "word": [decomp.primitive_name(p) for p in pids],
                }
                for pids, c in decomp.terms.items()
            ],
        }
        if roundtrip is not None:
            payload["roundtrip"] = roundtrip
        print(json.dumps(payload))
    else:
        print(str(decomp))
        if roundtrip:
            print("roundtrip: ok")
    return 0


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflealg",
        description="Exact computations in shuffle algebras, graded permutations, "
        "and the dendriform descent algebra.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--config", metavar="FILE", help="JSON file with default cutoffs")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", parents=[common], help="expand a product of two operands")
    p.add_argument(
        "kind",
        choices=["word-prec", "word-succ", "shuffle", "biword-prec", "biword-succ", "star", "internal"],
    )
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("coproduct", parents=[common], help="expand a coproduct")
    p.add_argument("kind", choices=["prec", "succ", "full", "deconcat"])
    p.add_argument("arg")
    p.set_defaults(fn=cmd_coproduct)

    p = sub.add_parser("pi", parents=[common], help="idempotent of a weight or composition")
    p.add_argument("target", help="a weight like 3 or a composition like 1,2")
    p.add_argument(
        "--route",
        choices=["closed", "alternating", "recursive"],
        default="closed",
        help="computation route for a single weight",
    )
    p.set_defaults(fn=cmd_pi)

    p = sub.add_parser("dims", parents=[common], help="dimension table with cross-checks")
    p.add_argument("max_n", type=int)
    for flag in ("biwords", "descd", "prim", "series"):
        p.add_argument(f"--{flag}", action="store_true", help=f"include the {flag} columns")
    p.add_argument("--rank-cutoff", type=int, default=None)
    p.add_argument("--prim-cutoff", type=int, default=None)
    p.add_argument("--series-cutoff", type=int, default=None)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("verify", parents=[common], help="run an identity suite")
    p.add_argument("suite", help=", ".join(sorted(V.SUITES)))
    p.add_argument("max_weight", nargs="?", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "membership", parents=[common], help="test membership in the descent algebra"
    )
    p.add_argument("combination", help="e.g. '213|111 + 231|111'")
    p.add_argument("--weight", type=int, default=None)
    p.set_defaults(fn=cmd_membership)

    p = sub.add_parser(
        "decompose", parents=[common], help="primitive decomposition in a presentation file"
    )
    p.add_argument("file")
    p.add_argument("label")
    p.add_argument("--roundtrip", action="store_true", help="re-evaluate and assert equality")
    p.set_defaults(fn=cmd_decompose)

    return parser


def _load_config(path: str | None) -> dict:
    values = dict(DEFAULTS)
    if path:
        with open(path) as fh:
            data = json.load(fh)
        unknown = set(data) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        values.update({k: int(v) for k, v in data.items()})
    return values


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
