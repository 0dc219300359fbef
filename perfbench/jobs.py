"""Seeded workloads and the output checks that decide whether a job passed.

Every job is one ``shufflealg`` command line.  The workload seed changes the
content of the operands only: weights, term counts and operand sizes are
fixed per job, and every cutoff and weight is spelled out on the command
line so that a changed library default cannot change the work.

The checks never import ``shufflealg``.  Each output is compared against a
route of this file's own: riffle and cut enumeration for products and
coproducts, closed-form counts for the dimension table, binary-search-tree
classes for descent-algebra membership, and the program's own failure lists
for the verification suites.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable

MEMBERSHIP_WEIGHT = 5
# sizes of the tree classes whose sums make up one membership operand
MEMBERSHIP_CLASS_SIZES = (2, 3, 4, 6)
PRESENTATION_WEIGHT = 5
PRESENTATION_SYMBOLS = 2
DECOMPOSE_PROFILES = ((1, 1, 1, 1), (1, 2, 1), (2, 2))


@dataclass
class Job:
    """One CLI invocation with the check its output must pass.

    ``size`` describes the shape of the inputs (never their content); two
    seeds of one workload give equal sizes job by job.
    """

    job_id: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    size: tuple
    timeout_s: float = 30.0
    command: list[str] | None = field(default=None)  # overrides the CLI launch


# -- biwords as (perm, deg) tuples -----------------------------------------------

def biword_text(perm, deg) -> str:
    return "".join(map(str, perm)) + "|" + "".join(map(str, deg))


def random_biword(rng: random.Random, size: int, max_deg: int = 3):
    perm = list(range(1, size + 1))
    rng.shuffle(perm)
    return tuple(perm), tuple(rng.randint(1, max_deg) for _ in range(size))


def riffles(a, b):
    """All interleavings of a's columns with b's columns shifted by |a|."""
    k = len(a[0])
    cols_a = list(zip(*a))
    cols_b = [(v + k, d) for v, d in zip(*b)]
    n = len(cols_a) + len(cols_b)
    for slots in itertools.combinations(range(n), len(cols_b)):
        ia = iter(cols_a)
        ib = iter(cols_b)
        cols = [next(ib) if pos in slots else next(ia) for pos in range(n)]
        yield tuple(c[0] for c in cols), tuple(c[1] for c in cols)


def half_product(a, b, side: str) -> dict:
    """prec keeps a's first column in front, succ b's; star is their sum."""
    k = len(a[0])
    out: dict = defaultdict(int)
    for perm, deg in riffles(a, b):
        if side == "star" or (side == "prec") == (perm[0] <= k):
            out[(perm, deg)] += 1
    return dict(out)


def standardize(values) -> tuple:
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def cuts(a, side: str) -> dict:
    """Nontrivial cuts; the column with top entry 1 stays left for prec and
    goes right for succ.  ``full`` adds both trivial cuts."""
    perm, deg = a
    n = len(perm)
    pos1 = perm.index(1) + 1
    if side == "prec":
        ks = range(pos1, n)
    elif side == "succ":
        ks = range(1, pos1)
    else:
        ks = range(0, n + 1)
    out = {}
    for k in ks:
        left = (standardize(perm[:k]), deg[:k])
        right = (standardize(perm[k:]), deg[k:])
        out[(left, right)] = 1
    return out


def internal_product(a, b) -> dict:
    """The biword of "apply b, then a"; zero when the degrees disagree."""
    (pa, da), (pb, db) = a, b
    if len(pa) != len(pb) or any(da[i] != db[pa[i] - 1] for i in range(len(pa))):
        return {}
    return {(tuple(pb[pa[i] - 1] for i in range(len(pa))), da): 1}


def compatible_left(rng: random.Random, b):
    """A random a whose degrees match b read through a's top row."""
    size = len(b[0])
    perm = list(range(1, size + 1))
    rng.shuffle(perm)
    return tuple(perm), tuple(b[1][v - 1] for v in perm)


def nested_prec_of_columns(parts) -> dict:
    """pi_{n1} < (pi_{n2} < ...) with pi_n the one-column biword of degree n."""
    acc = {((1,), (parts[-1],)): 1}
    for part in reversed(parts[:-1]):
        col = ((1,), (part,))
        nxt: dict = defaultdict(int)
        for key, c in acc.items():
            for out, m in half_product(col, key, "prec").items():
                nxt[out] += c * m
        acc = dict(nxt)
    return acc


# -- reading the CLI's JSON -----------------------------------------------------

def _biword_from_json(obj) -> tuple:
    return tuple(obj["perm"]), tuple(obj["deg"])


def _combination_from_json(items) -> dict:
    out = {}
    for item in items:
        key = item["key"]
        if "left" in key:
            key = (_biword_from_json(key["left"]), _biword_from_json(key["right"]))
        else:
            key = _biword_from_json(key)
        out[key] = Fraction(item["coeff_num"], item["coeff_den"])
    return out


def expect_combination(expected: dict) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        got = _combination_from_json(json.loads(stdout))
        want = {k: Fraction(v) for k, v in expected.items() if v}
        if got != want:
            return f"result differs from the riffle/cut enumeration ({len(got)} vs {len(want)} terms)"
        return None

    return check


def expect_verify_pass(suite: str):
    def check(code: int, stdout: str) -> str | None:
        payload = json.loads(stdout)
        if payload.get("suite") != suite:
            return f"payload names suite {payload.get('suite')!r}"
        if payload.get("failures") != []:
            return f"{len(payload.get('failures') or [])} failure(s) reported"
        if code != 0:
            return f"exit code {code}, expected 0"
        return None

    return check


def expect_membership(member: bool):
    def check(code: int, stdout: str) -> str | None:
        payload = json.loads(stdout)
        if payload.get("member") is not member:
            return f"member={payload.get('member')!r}, expected {member}"
        if code != (0 if member else 1):
            return f"exit code {code} for member={member}"
        return None

    return check


def expect_roundtrip(label: str):
    def check(code: int, stdout: str) -> str | None:
        payload = json.loads(stdout)
        if payload.get("label") != label or payload.get("roundtrip") is not True:
            return "decomposition did not round-trip"
        if code != 0:
            return f"exit code {code}, expected 0"
        return None

    return check


# -- the dimension table's own closed forms ------------------------------------------

def biword_counts(max_n: int) -> list[int]:
    """Biwords of weight n: sum over k of k! C(n-1, k-1)."""
    return [1] + [
        sum(factorial(k) * comb(n - 1, k - 1) for k in range(1, n + 1))
        for n in range(1, max_n + 1)
    ]


def a002212(max_n: int) -> list[int]:
    """(n+1) a(n) = (6n-3) a(n-1) - 5(n-2) a(n-2), a(0) = a(1) = 1."""
    a = [1, 1]
    for n in range(2, max_n + 1):
        num = (6 * n - 3) * a[n - 1] - 5 * (n - 2) * a[n - 2]
        a.append(num // (n + 1))
    return a[: max_n + 1]


def primitive_counts(max_n: int) -> list[int]:
    """Coefficients of (R - 1) / R^2 with R the biword counting series."""
    r = biword_counts(max_n)
    r2 = [sum(r[i] * r[n - i] for i in range(n + 1)) for n in range(max_n + 1)]
    inv = [1]
    for n in range(1, max_n + 1):
        inv.append(-sum(r2[i] * inv[n - i] for i in range(1, n + 1)))
    num = [0] + r[1:]
    return [sum(num[i] * inv[n - i] for i in range(n + 1)) for n in range(max_n + 1)]


def expect_dims(max_n: int, rank_cutoff: int, prim_cutoff: int):
    counts = biword_counts(max_n)
    descd = a002212(max_n)
    prim = primitive_counts(max_n)

    def check(code: int, stdout: str) -> str | None:
        payload = json.loads(stdout)
        if payload.get("flags") != []:
            return f"flags: {payload.get('flags')}"
        rows = payload.get("rows", [])
        if [row.get("n") for row in rows] != list(range(1, max_n + 1)):
            return "rows do not cover 1..max_n"
        for row in rows:
            n = row["n"]
            want = {
                "biword_series": counts[n],
                "descd_closed": descd[n],
                "descd_catalan": descd[n],
                "prim_series": prim[n],
            }
            if n <= rank_cutoff:
                want["descd_rank"] = descd[n]
            if n <= prim_cutoff:
                want["prim_kernel"] = prim[n]
            if "biword_count" in row:
                want["biword_count"] = counts[n]
            for key, value in want.items():
                if row.get(key) != value:
                    return f"n={n}: {key}={row.get(key)!r}, expected {value}"
        if code != 0:
            return f"exit code {code}, expected 0"
        return None

    return check


# -- descent-algebra membership by binary search tree classes ---------------------------
#
# The weight-n descent algebra is spanned by the sums over the classes of
# biwords with equal decorated binary search tree (insert the top row left to
# right, each node keeping its column's degree).  A combination lies in it
# exactly when its coefficient is constant on every class.

def compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def tree_class(perm, deg):
    root = None
    for v, d in zip(perm, deg):
        node = [v, d, None, None]
        if root is None:
            root = node
            continue
        cur = root
        while True:
            side = 2 if v < cur[0] else 3
            if cur[side] is None:
                cur[side] = node
                break
            cur = cur[side]

    def shape(node):
        return None if node is None else (shape(node[2]), node[1], shape(node[3]))

    return shape(root)


def tree_classes(n: int) -> dict[int, list[list[tuple]]]:
    """Classes of weight-n biwords, grouped by class size, in a fixed order."""
    classes = defaultdict(list)
    for comp_ in compositions(n):
        for perm in itertools.permutations(range(1, len(comp_) + 1)):
            classes[tree_class(perm, comp_)].append((perm, comp_))
    by_size = defaultdict(list)
    for members in classes.values():
        by_size[len(members)].append(sorted(members))
    for groups in by_size.values():
        groups.sort()
    return by_size


def _random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))


def combination_text(terms) -> str:
    """Signed sum in the CLI's operand grammar, e.g. ``+ 2*213|111 - 1/2*231|111``."""
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{biword_text(*b)}" for b, c in terms)


def membership_operand(rng: random.Random, by_size, member: bool):
    """A combination of class sums; a non-member has one coefficient moved."""
    terms = []
    for size in MEMBERSHIP_CLASS_SIZES:
        members = rng.choice(by_size[size])
        c = _random_coeff(rng)
        terms.extend([b, c] for b in members)
    if not member:
        i = rng.randrange(len(terms))
        delta = _random_coeff(rng)
        while terms[i][1] + delta == 0:
            delta = _random_coeff(rng)
        terms[i][1] += delta
    rng.shuffle(terms)
    return [tuple(t) for t in terms]


# -- the word presentation for decompose ------------------------------------------------

def _words(weight: int, symbols: int):
    out = []
    for comp_ in compositions(weight):
        for syms in itertools.product(range(symbols), repeat=len(comp_)):
            out.append(tuple(zip(comp_, syms)))
    out.sort(key=lambda w: (len(w), w))
    return out


def word_label(w) -> str:
    return ".".join(chr(ord("a") + s) + str(wt) for wt, s in w) if w else "1"


def _shuffle(u, v, memo) -> dict:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v)
    if key not in memo:
        out: dict = defaultdict(int)
        for w, c in _shuffle(u[1:], v, memo).items():
            out[u[:1] + w] += c
        for w, c in _shuffle(u, v[1:], memo).items():
            out[v[:1] + w] += c
        memo[key] = dict(out)
    return memo[key]


def word_presentation(max_weight: int, symbols: int) -> dict:
    """The truncated shuffle algebra of words in the CLI's presentation format."""
    words = {w: _words(w, symbols) for w in range(1, max_weight + 1)}
    memo: dict = {}
    prec = []
    for wa in range(1, max_weight + 1):
        for wb in range(1, max_weight - wa + 1):
            for u in words[wa]:
                for v in words[wb]:
                    entry: dict = defaultdict(int)
                    for w, c in _shuffle(u[1:], v, memo).items():
                        entry[word_label(u[:1] + w)] += c
                    prec.append([word_label(u), word_label(v), sorted([k, str(c)] for k, c in entry.items())])
    prec.sort(key=lambda row: (row[0], row[1]))
    coproduct = []
    for ws in words.values():
        for w in ws:
            entries = sorted([word_label(w[:k]), word_label(w[k:]), "1"] for k in range(len(w) + 1))
            coproduct.append([word_label(w), entries])
    coproduct.sort(key=lambda row: row[0])
    return {
        "basis": {str(wt): [word_label(w) for w in ws] for wt, ws in words.items()},
        "prec": prec,
        "coproduct": coproduct,
    }


# -- workloads -------------------------------------------------------------------------

def _verify(suite: str, weight: int) -> Job:
    return Job(
        f"verify-{suite}-{weight}",
        ["verify", suite, str(weight), "--json"],
        expect_verify_pass(suite),
        ("verify", suite, weight),
    )


def action_verify(rng: random.Random, workdir: str) -> list[Job]:
    return [_verify("action-compat", 4), _verify("idempotents", 5)]


def hopf_verify(rng: random.Random, workdir: str) -> list[Job]:
    jobs = [
        _verify("shuffle-axioms", 5),
        _verify("bidendriform", 5),
        _verify("bialgebra", 4),
        _verify("tau", 5),
        _verify("rigidity", 5),
    ]
    path = f"{workdir}/words-w{PRESENTATION_WEIGHT}.json"
    for i, profile in enumerate(DECOMPOSE_PROFILES):
        label = word_label(tuple((wt, rng.randrange(PRESENTATION_SYMBOLS)) for wt in profile))
        jobs.append(
            Job(
                f"decompose-{i}",
                ["decompose", path, label, "--roundtrip", "--json"],
                expect_roundtrip(label),
                ("decompose", PRESENTATION_WEIGHT, PRESENTATION_SYMBOLS, profile),
            )
        )
    return jobs


def presentation_files(workload: str) -> dict[str, dict]:
    """Input files a workload needs, written before timing starts."""
    if workload != "hopf-verify":
        return {}
    return {
        f"words-w{PRESENTATION_WEIGHT}.json": word_presentation(PRESENTATION_WEIGHT, PRESENTATION_SYMBOLS)
    }


def descent_dims(rng: random.Random, workdir: str) -> list[Job]:
    max_n, rank_cutoff, prim_cutoff = 40, 6, 6
    jobs = [
        Job(
            f"dims-{max_n}",
            [
                "dims", str(max_n),
                "--rank-cutoff", str(rank_cutoff),
                "--prim-cutoff", str(prim_cutoff),
                "--series-cutoff", str(max_n),
                "--json",
            ],
            expect_dims(max_n, rank_cutoff, prim_cutoff),
            ("dims", max_n, rank_cutoff, prim_cutoff),
        )
    ]
    by_size = tree_classes(MEMBERSHIP_WEIGHT)
    for i in range(6):
        member = i % 2 == 0
        terms = membership_operand(rng, by_size, member)
        jobs.append(
            Job(
                f"membership-{i}",
                ["membership", combination_text(terms), "--weight", str(MEMBERSHIP_WEIGHT), "--json"],
                expect_membership(member),
                ("membership", MEMBERSHIP_WEIGHT, len(terms)),
            )
        )
    for kind, sizes in (("biword-prec", (3, 4)), ("biword-succ", (4, 3)), ("star", (3, 3))):
        a = random_biword(rng, sizes[0])
        b = random_biword(rng, sizes[1])
        side = {"biword-prec": "prec", "biword-succ": "succ", "star": "star"}[kind]
        jobs.append(
            Job(
                f"product-{kind}",
                ["product", kind, biword_text(*a), biword_text(*b), "--json"],
                expect_combination(half_product(a, b, side)),
                ("product", kind, sizes),
            )
        )
    b = random_biword(rng, 4)
    a = compatible_left(rng, b)
    jobs.append(
        Job(
            "product-internal",
            ["product", "internal", biword_text(*a), biword_text(*b), "--json"],
            expect_combination(internal_product(a, b)),
            ("product", "internal", (4, 4)),
        )
    )
    for kind, size in (("prec", 4), ("succ", 4), ("full", 3)):
        a = random_biword(rng, size)
        expected = cuts(a, kind)
        jobs.append(
            Job(
                f"coproduct-{kind}",
                ["coproduct", kind, biword_text(*a), "--json"],
                expect_combination(expected),
                ("coproduct", kind, size),
            )
        )
    for route in ("closed", "alternating", "recursive"):
        jobs.append(
            Job(
                f"pi-{route}",
                ["pi", "6", "--route", route, "--json"],
                expect_combination({((1,), (6,)): 1}),
                ("pi", route, 6),
            )
        )
    for weight, nparts in ((6, 3), (5, 2)):
        parts = _random_composition(rng, weight, nparts)
        jobs.append(
            Job(
                f"pi-composite-{weight}-{nparts}",
                ["pi", ",".join(map(str, parts)), "--json"],
                expect_combination(nested_prec_of_columns(parts)),
                ("pi", "composite", weight, nparts),
            )
        )
    return jobs


def _random_composition(rng: random.Random, weight: int, nparts: int) -> tuple:
    cuts_ = sorted(rng.sample(range(1, weight), nparts - 1))
    bounds = [0, *cuts_, weight]
    return tuple(bounds[i + 1] - bounds[i] for i in range(nparts))


# why each workload exists: see README.md next to this file
WORKLOADS = {
    "action-verify": action_verify,
    "hopf-verify": hopf_verify,
    "descent-dims": descent_dims,
}


def build_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """The workload's jobs for this seed; same seed, same command lines."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, workdir)
