"""Traced launch of one ``shufflealg`` command, and the per-layer metrics.

Run as a script, this file is the job process of a traced pass::

    python3 perfbench/tracer.py --job-id ID --out TRACE.json -- verify tau 6 --json

It imports ``shufflealg.cli``, wraps the public functions listed in
``TARGETS`` (rebinding them in every ``shufflealg`` module that holds them by
name, and in module-level dispatch tables), calls ``shufflealg.cli.main``
with the remaining arguments, and writes the counters and spans to
``TRACE.json`` when the command returns.  Nothing under ``src/`` changes.

Three kinds of wrapper:

* ``span``: timed, and each call is kept as a span (name, start, end,
  parent span, job id) in memory until the job ends;
* ``time``: timed like a span but not kept, for functions called up to
  ~10^6 times a job;
* ``count``: a call counter only, for the hottest constructors.

Self time is a call's duration minus the time its timed callees cover.
Total time counts only the outermost call of a recursive function.

Imported as a module (by ``run.py``), it only aggregates trace files into
the metrics of ``per_layer_metrics``.
"""

from __future__ import annotations

import argparse
import builtins
import importlib
import json
import sys
import time
import types

SPAN_LIMIT = 100_000  # spans kept per function and job; later calls are timed only

# (target name, module, attribute path, wrapper kind)
TARGETS = [
    ("cli.main", "cli", "main", "span"),
    ("cli.build_parser", "cli", "build_parser", "span"),
    ("cli._load_config", "cli", "_load_config", "span"),
    ("cli.parse_biword_combination", "cli", "parse_biword_combination", "span"),
    ("cli.emit", "cli", "emit", "span"),
    ("cli.lincomb_to_json", "cli", "lincomb_to_json", "span"),
    ("cli.lincomb_to_text", "cli", "lincomb_to_text", "span"),
    ("cli._print_dims_table", "cli", "_print_dims_table", "span"),
    ("action.convolution_via_action", "action", "convolution_via_action", "time"),
    ("action.endo_apply", "action", "endo_apply", "time"),
    ("action.phi_apply", "action", "phi_apply", "count"),
    ("action.compose_via_action", "action", "compose_via_action", "count"),
    ("lincomb.LinComb", "lincomb", "LinComb.__init__", "count"),
    ("lincomb.add", "lincomb", "LinComb.__add__", "time"),
    ("lincomb.mul", "lincomb", "LinComb.__mul__", "time"),
    ("lincomb.linear_extend", "lincomb", "linear_extend", "time"),
    ("lincomb.bilinear_extend", "lincomb", "bilinear_extend", "time"),
    ("words.parse_word", "words", "parse_word", "span"),
    ("words.word_prec", "words", "word_prec", "count"),
    ("words.word_shuffle", "words", "word_shuffle", "count"),
    ("words.word_prec_lc", "words", "word_prec_lc", "time"),
    ("words.word_shuffle_lc", "words", "word_shuffle_lc", "time"),
    ("words.deconcat", "words", "deconcat", "time"),
    ("words.enumerate_words", "words", "enumerate_words", "span"),
    ("biwords.parse_biword", "biwords", "parse_biword", "span"),
    ("biwords.biword_prec", "biwords", "biword_prec", "time"),
    ("biwords.biword_succ", "biwords", "biword_succ", "time"),
    ("biwords.biword_star", "biwords", "biword_star", "time"),
    ("biwords.coproduct_prec", "biwords", "coproduct_prec", "time"),
    ("biwords.coproduct_succ", "biwords", "coproduct_succ", "time"),
    ("biwords.hopf_coproduct", "biwords", "hopf_coproduct", "time"),
    ("biwords.internal_compose", "biwords", "internal_compose", "count"),
    ("biwords.Biword", "biwords", "Biword.__post_init__", "count"),
    ("linalg.add", "linalg", "RowEchelon.add", "time"),
    ("linalg.contains", "linalg", "RowEchelon.contains", "time"),
    ("linalg.rank_of", "linalg", "rank_of", "span"),
    ("linalg.modp_rank", "linalg", "modp_rank", "span"),
    ("descent.descd_spanning_set", "descent", "descd_spanning_set", "span"),
    ("descent.descd_echelon", "descent", "descd_echelon", "span"),
    ("descent.descd_membership", "descent", "descd_membership", "span"),
    ("descent.prim_dend_dimension", "descent", "prim_dend_dimension", "span"),
    ("descent.dimension_report", "descent", "dimension_report", "span"),
    ("descent.pi_n", "descent", "pi_n", "count"),
    ("series.getitem", "series", "PowerSeries.__getitem__", "time"),
    ("series.compose", "series", "PowerSeries.compose", "count"),
    ("rigidity.load_presentation", "rigidity", "load_presentation", "span"),
    ("rigidity.validate_presentation", "rigidity", "validate_presentation", "span"),
    ("rigidity.tau", "rigidity", "tau", "time"),
    ("rigidity.primitive_basis", "rigidity", "primitive_basis", "span"),
    ("rigidity.primitive_decomposition", "rigidity", "primitive_decomposition", "span"),
    ("rigidity.shuffle_presentation", "rigidity", "shuffle_presentation", "span"),
]

VERIFY_SUITES = [
    "action-compat", "idempotents", "shuffle-axioms", "bidendriform", "bialgebra", "tau", "rigidity",
]

CLI_PARSE = [
    "cli.build_parser", "cli.parse_args", "cli._load_config", "cli.parse_biword_combination",
    "biwords.parse_biword", "words.parse_word",
]
CLI_RENDER = [
    "cli.emit", "cli.lincomb_to_json", "cli.lincomb_to_text", "cli._print_dims_table",
    "cli.json.dumps", "cli.print",
]

MAXIMA = ("max_depth", "peak")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth", "max_depth", "fills", "useful", "peak")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.max_depth = 0
        self.fills = 0  # memo misses (series.getitem)
        self.useful = 0  # adds that grew the span (linalg.add)
        self.peak = 0  # largest rank (linalg.add) or term count (lincomb.add)


class Tracer:
    """Counters and spans of one job process."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.stats: dict[str, Stat] = {}
        self.spans: list = []
        self.stack = [[0.0, -1]]  # frames: [time covered by timed callees, span id]
        self.caches: dict[str, object] = {}

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def counted(self, name: str, fn):
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn, keep_spans: bool, pre=None, post=None):
        st = self.stat(name)
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        job = self.job_id

        def wrapper(*args, **kwargs):
            st.calls += 1
            if pre is not None:
                pre(st, args)
            st.depth += 1
            if st.depth > st.max_depth:
                st.max_depth = st.depth
            parent = stack[-1]
            keep = keep_spans and st.calls <= SPAN_LIMIT
            if keep:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st.self_s += d - frame[0]
                parent[0] += d
                st.depth -= 1
                if st.depth == 0:
                    st.total_s += d
                if keep:
                    spans[sid] = (name, t0, t1, parent[1], job)
            if post is not None:
                post(st, args, result)
            return result

        return wrapper

    def wrapper_for(self, name: str, kind: str, fn):
        pre = post = None
        if name == "series.getitem":
            def pre(st, args):
                memo = getattr(args[0], "_memo", None)
                if memo is not None and args[1] not in memo:
                    st.fills += 1
        elif name == "lincomb.add":
            def post(st, args, result):
                size = len(result) if hasattr(result, "terms") else 0
                if size > st.peak:
                    st.peak = size
        elif name == "linalg.add":
            def post(st, args, result):
                if result:
                    st.useful += 1
                rank = getattr(args[0], "rank", 0)
                if rank > st.peak:
                    st.peak = rank
        if kind == "count":
            return self.counted(name, fn)
        return self.timed(name, fn, kind == "span", pre, post)


def _rebind(package_modules, orig, replacement) -> None:
    """Replace ``orig`` wherever a package module holds it by name or in a dict."""
    for mod in package_modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = replacement


def install(tracer: Tracer, package: str = "shufflealg") -> None:
    """Wrap every target that exists; a missing target is skipped."""
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == package or name.startswith(package + ".")) and m is not None]
    for mod in modules:
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)) and getattr(value, "__module__", None) == mod.__name__:
                tracer.caches[f"{mod.__name__.split('.')[-1]}.{attr}"] = value
    for name, module, path, kind in TARGETS:
        try:
            mod = importlib.import_module(f"{package}.{module}")
        except ImportError:
            continue
        owner = mod
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            continue
        wrapped = tracer.wrapper_for(name, kind, orig)
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if value is orig:
                    setattr(owner, key, wrapped)
        else:
            _rebind(modules, orig, wrapped)
    verify = sys.modules.get(f"{package}.verify")
    for suite, fn in list(getattr(verify, "SUITES", {}).items()):
        _rebind(modules, fn, tracer.timed(f"verify.{suite}", fn, True))
    cli = sys.modules.get(f"{package}.cli")
    if cli is None:
        return
    # argparse's parse_args, json.dumps and print, seen from the cli module only
    build_parser = cli.build_parser

    def build_parser_traced(*args, **kwargs):
        parser = build_parser(*args, **kwargs)
        parser.parse_args = tracer.timed("cli.parse_args", parser.parse_args, True)
        return parser

    cli.build_parser = build_parser_traced
    json_view = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json) if not k.startswith("__")})
    json_view.dumps = tracer.timed("cli.json.dumps", json.dumps, True)
    cli.json = json_view
    cli.print = tracer.timed("cli.print", builtins.print, True)


def cache_counts(tracer: Tracer) -> dict[str, list[int]]:
    out = {}
    for name, fn in tracer.caches.items():
        info = fn.cache_info()
        out[name] = [info.hits, info.misses, info.currsize]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job-id", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    t0 = time.perf_counter()
    cli = importlib.import_module("shufflealg.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer(args.job_id)
    install(tracer)
    try:
        code = cli.main(command)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    record = {
        "job": args.job_id,
        "exit": code,
        "import_s": import_s,
        "stats": {name: {k: getattr(st, k) for k in Stat.__slots__ if k != "depth"}
                  for name, st in tracer.stats.items()},
        "caches": cache_counts(tracer),
        "spans": tracer.spans,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return code


# -- aggregation in the benchmark process -----------------------------------------------

def merge(records: list[dict], passes: int) -> dict:
    """Counters of the jobs' trace records, per pass; maxima stay maxima."""
    stats: dict[str, dict] = {}
    caches: dict[str, list[int]] = {}
    entries = 0
    import_s = 0.0
    for rec in records:
        import_s += rec["import_s"]
        for name, st in rec["stats"].items():
            acc = stats.setdefault(name, dict.fromkeys(st, 0))
            for key, value in st.items():
                acc[key] = max(acc[key], value) if key in MAXIMA else acc[key] + value
        for name, (hits, misses, size) in rec["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        entries = max(entries, sum(size for _, _, size in rec["caches"].values()))
    for acc in stats.values():
        for key in acc:
            if key not in MAXIMA:
                acc[key] /= passes
    return {"stats": stats, "caches": caches, "cache_entries": entries, "import_s": import_s / passes}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(agg: dict, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    stats = agg["stats"]

    def field_of(name, key):
        return stats.get(name, {}).get(key, 0)

    def hit_ratio(name):
        hits, misses = agg["caches"].get(name, [0, 0])
        return _ratio(hits, hits + misses)

    m: dict[str, tuple[float, str]] = {}

    def calls(name):
        m[f"{name}.calls"] = (field_of(name, "calls"), "count")

    def self_s(name):
        m[f"{name}.self_s"] = (field_of(name, "self_s"), "s")

    def total_s(name):
        m[f"{name}.total_s"] = (field_of(name, "total_s"), "s")

    def hits(name):
        m[f"{name}.hit_ratio"] = (hit_ratio(name), "ratio")

    total_s("cli.main")
    m["cli.import_s"] = (agg["import_s"], "s")
    m["cli.parse.self_s"] = (sum(field_of(n, "self_s") for n in CLI_PARSE), "s")
    m["cli.render.self_s"] = (sum(field_of(n, "self_s") for n in CLI_RENDER), "s")
    for suite in VERIFY_SUITES:
        total_s(f"verify.{suite}")
    for name in ("action.convolution_via_action", "action.endo_apply"):
        calls(name)
        self_s(name)
    calls("action.phi_apply")
    calls("action.compose_via_action")
    calls("lincomb.LinComb")
    for name in ("lincomb.add", "lincomb.mul"):
        calls(name)
        self_s(name)
    self_s("lincomb.linear_extend")
    self_s("lincomb.bilinear_extend")
    m["lincomb.terms_max"] = (field_of("lincomb.add", "peak"), "count")
    for name in ("words.word_prec", "words.word_shuffle"):
        calls(name)
        hits(name)
    self_s("words.word_prec_lc")
    self_s("words.word_shuffle_lc")
    calls("words.deconcat")
    self_s("words.deconcat")
    hits("words.word_antipode")
    total_s("words.enumerate_words")
    for fn in ("biword_prec", "biword_succ", "biword_star", "coproduct_prec", "coproduct_succ", "hopf_coproduct"):
        calls(f"biwords.{fn}")
        self_s(f"biwords.{fn}")
    calls("biwords.internal_compose")
    calls("biwords.Biword")
    hits("biwords.enumerate_biwords")
    calls("linalg.add")
    self_s("linalg.add")
    m["linalg.add.useful_ratio"] = (_ratio(field_of("linalg.add", "useful"), field_of("linalg.add", "calls")), "ratio")
    calls("linalg.contains")
    self_s("linalg.contains")
    total_s("linalg.rank_of")
    calls("linalg.modp_rank")
    total_s("linalg.modp_rank")
    m["linalg.rank_max"] = (field_of("linalg.add", "peak"), "count")
    total_s("descent.descd_spanning_set")
    total_s("descent.descd_echelon")
    hits("descent.descd_echelon")
    total_s("descent.descd_membership")
    total_s("descent.prim_dend_dimension")
    total_s("descent.dimension_report")
    calls("descent.pi_n")
    hits("descent.p_n")
    calls("series.getitem")
    m["series.getitem.fills"] = (field_of("series.getitem", "fills"), "count")
    self_s("series.getitem")
    m["series.getitem.max_depth"] = (field_of("series.getitem", "max_depth"), "count")
    calls("series.compose")
    for fn in ("load_presentation", "validate_presentation", "primitive_basis",
               "primitive_decomposition", "shuffle_presentation"):
        total_s(f"rigidity.{fn}")
    calls("rigidity.tau")
    self_s("rigidity.tau")
    m["cache.entries"] = (agg["cache_entries"], "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main())
