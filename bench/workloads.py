"""The four workloads: inputs made from a seed, the operations, and the
check of each operation's output.

An operation's ``run`` calls the program through module attributes (so the
tracer's wrappers see the calls) and returns its output.  ``check`` gets
that output, raises ``CheckError`` when an answer is wrong, and returns a
reason when the operation failed by a fault of the program (a traceback or
a wrong exit status) rather than giving a wrong answer; None otherwise.
``digest`` reduces the output to a SHA-256 of its public form (text, JSON
terms, counts), covering everything ``check`` reads.  The checks run once,
in a process of their own; the measured process only compares digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Any, Callable

import checks
from checks import require

import legclus.augvar as augvar
import legclus.bridge as bridge
import legclus.cli as cli
import legclus.cluster as cluster
import legclus.dga as dga
import legclus.fillings as fillings
import legclus.polygon as polygon


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], str]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warm_up: Callable[[], None]


def word(text: str):
    return bridge.BridgeWord.parse(text)


def blocks_of(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def json_digest(public) -> str:
    return hashlib.sha256(json.dumps(public, sort_keys=True).encode()).hexdigest()


def stream_digest(items) -> str:
    """SHA-256 of the reprs of ``items``, hashed one by one so that no
    second copy of a large output is built."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def poly_digest(polys) -> str:
    """Per name in sorted order: the variable names, then the
    (exponents, coefficient) terms in sorted order."""
    def items():
        for name in sorted(polys):
            p = polys[name]
            yield name, tuple(p.table.names)
            for exps in sorted(p.terms):
                yield exps, p.terms[exps]
    return stream_digest(items())


# ----------------------------------------------------------------------
# dga-expand

# d(b2) grows from about 10^3 to 5*10^4 terms along the ladder; both
# parities of k, since odd and even k use different disk formulas.  With
# nine operations the 90th percentile is the largest one, [4^6].
DGA_LADDER = [
    "3,3,3,3,3,3,3", "4,4,4,4,4", "4,4,4,4", "3,3,3,3,3,3,3,3,3", "3,4,3,4,3,4",
    "4,4,4,4,4,4,4", "5,4,5,4", "5,5,5,5", "4,4,4,4,4,4",
]
AUGMENTATION_SAMPLE = 64
AUGMENTATION_LIMIT = 4096  # words with more F2 points skip the lift check


def dga_expand(seed: int) -> Workload:
    rng = random.Random(seed)
    order = DGA_LADDER[:]
    rng.shuffle(order)
    ops = []
    for text in order:
        w, blocks = word(text), blocks_of(text)
        op_rng = random.Random(rng.random())

        def check(pres, text=text, blocks=blocks, w=w, op_rng=op_rng):
            diffs = {g: p.to_json_terms() for g, p in pres.differentials.items()}
            checks.check_differentials(blocks, diffs, op_rng)
            if checks.point_count(blocks, 2) <= AUGMENTATION_LIMIT:
                points = augvar.enumerate_points(augvar.presentation(w), 2)
                require(len(points) == checks.point_count(blocks, 2), f"{len(points)} F2 points of {text}")
                if len(points) > AUGMENTATION_SAMPLE:
                    points = op_rng.sample(points, AUGMENTATION_SAMPLE)
                checks.check_augmentations(blocks, diffs, [dict(pt.values, t1=pt.t1, t2=pt.t2) for pt in points])
            return None

        ops.append(Op(f"build_dga {text}", lambda w=w: dga.build_dga(w), check,
                      lambda pres: poly_digest(pres.differentials)))

    def warm_up():
        dga.build_dga(word("3,3,3,3"))

    return Workload("dga-expand", ops, warm_up)


# ----------------------------------------------------------------------
# chart-sweep

# five words whose run times are well apart (about 3, 6, 9, 12 and 21 ms
# on a 2 GHz virtual CPU), so the median and the 90th percentile each fall
# in the middle of one word's sequences rather than between two words
CHART_WORDS = ["3,3,3", "4,5", "4,3,3,4", "5,4,5", "7,7"]
SEQUENCES_PER_WORD = 24


def chart_outputs(res) -> dict:
    """The parts of a run that the checks read, in public text form."""
    return {
        "images": {g: p.canonical_text() for g, p in res.parametrization.items()},
        "t1": res.t1.canonical_text(),
        "t2": res.t2.canonical_text(),
        "triangulations": [t.to_text() for t in res.triangulations],
    }


def chart_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for text in CHART_WORDS:
        w, blocks = word(text), blocks_of(text)
        class_state: dict = {}
        for _ in range(SEQUENCES_PER_WORD):
            seq = checks.random_sequence(blocks, rng)
            op_rng = random.Random(rng.random())

            def run(w=w, seq=seq):
                res = fillings.run_sequence(w, seq)
                return res, fillings.is_torus_chart(res)

            def check(out, blocks=blocks, op_rng=op_rng, class_state=class_state):
                res, torus = out
                require(torus is True, "is_torus_chart is not True")
                if not class_state:
                    per_block = [
                        [(t.n, sorted(t.diagonals)) for t in polygon.triangulations(n)]
                        for n in checks.polygon_sizes(blocks)
                    ]
                    checks.check_class_tuples(blocks, per_block)
                    class_state["ok"] = True
                check_chart_text(blocks, chart_outputs(res), op_rng)

            ops.append(Op(f"run_sequence {text} {seq}", run, check,
                          lambda out: json_digest([chart_outputs(out[0]), out[1]])))

    def warm_up():
        w = word("3,3")
        fillings.is_torus_chart(fillings.run_sequence(w, checks.random_sequence((3, 3), random.Random(0))))

    return Workload("chart-sweep", ops, warm_up)


def check_chart_text(blocks, seen: dict, rng: random.Random) -> None:
    images = {g: checks.parse_f2_text(t) for g, t in seen["images"].items()}
    tris = [checks.parse_triangulation(t) for t in seen["triangulations"]]
    units = [f"s{i}" for i in range(1, sum(blocks) - 2 * len(blocks) + 3)]
    checks.check_chart(
        blocks, images, tris, units,
        checks.parse_f2_text(seen["t1"]), checks.parse_f2_text(seen["t2"]), rng,
    )


# ----------------------------------------------------------------------
# enumerate

# nine operations, so the median is the fifth (mutation_class [6]) and the
# 90th percentile the largest.  No operation takes much over a second, so
# a run holds several rounds and each operation's median is steady.  The
# seed changes nothing here: the order is fixed because the peak RSS moved
# with it (26.2 to 27.9 MB over five shuffled orders).
SEED_CLASSES = ["6", "5,5", "6,4"]
CENSUS = ["5,6,5", "6,4,6"]
POINT_COUNTS = [("4,4,4", 7), ("4,4,4", 11), ("3,4,3", 7), ("3,4,3", 31)]
SEED_BOUND = 10000
CENSUS_BUDGET = 100000


def enumerate_workload(seed: int) -> Workload:
    """The same nine enumerations for every seed."""
    ops = []
    for text in SEED_CLASSES:
        w, blocks = word(text), blocks_of(text)

        def check(out, blocks=blocks):
            seeds, exceeded = out
            require(not exceeded, "mutation class hit its bound")
            want = checks.seed_count(blocks)
            require(len(seeds) == want, f"mutation class {list(blocks)}: {len(seeds)} seeds, Catalan product {want}")

        ops.append(Op(f"mutation_class {text}",
                      lambda w=w: cluster.mutation_class(augvar.initial_seed(w).seed, bound=SEED_BOUND), check,
                      lambda out: json_digest([len(out[0]), out[1]])))
    for text in CENSUS:
        w, blocks = word(text), blocks_of(text)

        def check(census, blocks=blocks):
            want = checks.filling_count(blocks)
            require(census.count == want, f"census {list(blocks)}: {census.count}, Catalan product {want}")
            reps = census.representatives
            require(len(set(reps)) == len(reps) == want, f"{len(set(reps))} distinct representatives, expected {want}")

        ops.append(Op(f"enumerate_filling_classes {text}",
                      lambda w=w: fillings.enumerate_filling_classes(w, budget=CENSUS_BUDGET), check,
                      lambda census: stream_digest([census.count, *sorted(census.representatives)])))
    for text, p in POINT_COUNTS:
        w, blocks = word(text), blocks_of(text)

        def check(count, blocks=blocks, p=p):
            checks.check_point_count(blocks, p, count)

        ops.append(Op(f"count_points {text} p={p}",
                      lambda w=w, p=p: augvar.count_points(augvar.presentation(w), p), check, json_digest))

    def warm_up():
        w = word("3,3")
        cluster.mutation_class(augvar.initial_seed(w).seed, bound=SEED_BOUND)
        fillings.enumerate_filling_classes(w, budget=CENSUS_BUDGET)
        augvar.count_points(augvar.presentation(w), 7)

    return Workload("enumerate", ops, warm_up)


# ----------------------------------------------------------------------
# cli-mix

# words (m <= CLI_MAX_CROSSINGS) per command; the seed picks the order,
# the mutation vertices, the pinching sequences and the classification
# partners, but not the words, so that the cost of a round does not depend
# on the seed
CLI_MAX_CROSSINGS = 10
CLI_SLOTS = [
    ("classify", "5,4"), ("classify", "3,3,3"), ("classify-pair", "5,4"), ("classify-pair", "4,2,3"),
    ("dga", "3,3,3"), ("dga", "4,4"), ("dga", "2,3,2,3"),
    ("augvar-count", "5,4", 3), ("augvar-count", "3,3,3", 5), ("augvar-count", "6", 7),
    ("augvar-enumerate", "4,4", 2), ("augvar-enumerate", "3,3", 3),
    ("seed", "5,4"), ("seed", "4,3,3"),
    ("mutate", "5,4"), ("mutate", "6"),
    ("seeds", "5,4"), ("seeds", "6"),
    ("fillings-sequence", "5,4"), ("fillings-sequence", "3,3,3"),
    ("fillings", "5,4"), ("fillings-enumerate", "4,3,3"),
    ("rulings", "5,4"), ("rulings", "3,3,4"),
    ("verify", "5,4"), ("verify", "3,3,3"), ("verify", "6,4"),
    # fails today by a fault of the program: cmd_verify compares the fan
    # seed with the initial seed without dropping unit frozen vertices, so
    # on a word with a block of at most 2 crossings it prints [FAIL] and
    # exits 1; the right result is exit 0 and "ok": true
    ("verify", "2,2,2,2"),
]

# each fails today by a fault of the program: the right result is exit 1
# or 2 with a one-line error and no traceback
MALFORMED = [
    ["mutate", "5", "--at", "9"],      # IndexError traceback
    ["mutate", "5", "--at", "x"],      # ValueError traceback
    ["mutate", "5", "--at", "0"],      # AlgebraError: index -1 wraps to the frozen vertex
    ["augvar", "3", "--count", "--char", "4"],  # computes over Z/4, MISMATCH, exit 0
    ["seeds", "5", "--bound", "-1"],   # "1 seeds (bound hit)", exit 0
]


@dataclass
class CliResult:
    code: int | None
    out: str
    err: str
    exception: str | None


def call_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # the call is an operation: a traceback is its failure
        exc = f"{type(e).__name__}: {e}"
    return CliResult(code, out.getvalue(), err.getvalue(), exc)


def random_word(rng: random.Random) -> str:
    """A rational-form word with at most CLI_MAX_CROSSINGS crossings."""
    while True:
        k = rng.randint(1, 4)
        blocks = [rng.randint(1, 5)] + [rng.randint(2, 5) for _ in range(k - 2)] + ([rng.randint(1, 5)] if k > 1 else [])
        if sum(blocks) <= CLI_MAX_CROSSINGS:
            return ",".join(map(str, blocks))


def cli_mix(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for slot in CLI_SLOTS:
        kind, text = slot[0], slot[1]
        blocks = blocks_of(text)
        for fmt in ("text", "json"):
            argv, check = cli_call(kind, text, blocks, fmt, slot[2:], rng)
            ops.append(Op(f"{' '.join(argv)}", lambda argv=argv: call_cli(argv), check, cli_digest))
    for argv in MALFORMED:
        ops.append(Op(" ".join(argv), lambda argv=argv: call_cli(argv), malformed_check, cli_digest))
    rng.shuffle(ops)

    def warm_up():
        for argv in (["classify", "3,3"], ["verify", "3,3", "--json"]):
            call_cli(argv)

    return Workload("cli-mix", ops, warm_up)


def cli_digest(res: CliResult) -> str:
    return json_digest([res.code, res.out, res.err, res.exception])


def malformed_check(res: CliResult) -> str | None:
    """The right result: exit 1 or 2, an error line, no traceback."""
    lines = [l for l in res.err.splitlines() if l.strip()]
    if res.exception is not None:
        return f"traceback: {res.exception}"
    if res.code not in (1, 2) or not lines or "error" not in lines[-1] or "MISMATCH" in res.out:
        return f"exit {res.code}: {res.out.strip().splitlines()[-1:]}"
    return None


def cli_call(kind, text, blocks, fmt, extra, rng):
    """The argv of one call and the check of its output."""
    as_json = fmt == "json"
    flag = ["--json"] if as_json else []
    check_rng = random.Random(rng.random())

    def parsed(res: CliResult):
        if as_json:
            data = json.loads(res.out)
            require(data.get("schema") == "legclus/1", f"schema {data.get('schema')!r}")
            return data
        return res.out

    def wrap(inner):
        def check(res: CliResult) -> str | None:
            if res.exception is not None:
                return f"traceback: {res.exception}"
            if res.code != 0:
                return f"exit {res.code}: {res.err.strip()}"
            inner(parsed(res))
            return None
        return check

    if kind == "classify":
        def inner(out):
            p, q = checks.fraction(blocks)
            if as_json:
                require(out["fraction"] == [p, q], f"fraction {out['fraction']} != {p}/{q}")
            else:
                require(f"-> fraction {p}/{q}" in out, f"fraction {p}/{q} missing")
        return ["classify", text] + flag, wrap(inner)
    if kind == "classify-pair":
        other = random_word(rng)
        same = checks.isotopic(blocks, blocks_of(other))

        def inner(out):
            if as_json:
                require(out["isotopic"] is same, f"isotopic {out['isotopic']} for {text} vs {other}")
            else:
                verdict = out.strip().splitlines()[-1]
                require(verdict.startswith("isotopic" if same else "not isotopic"), f"verdict {verdict!r}")
        return ["classify", text, other] + flag, wrap(inner)
    if kind == "dga":
        def inner(out):
            if as_json:
                diffs = out["differentials"]
            else:
                diffs = {}
                for line in out.splitlines()[1:]:
                    m = re.fullmatch(r"\s*d\((\w+)\) = (.*)", line)
                    require(m is not None, f"unreadable line {line!r}")
                    diffs[m.group(1)] = checks.parse_f2_text(m.group(2))
            checks.check_differentials(blocks, diffs, check_rng)
        return ["dga", text] + flag, wrap(inner)
    if kind == "augvar-count":
        (p,) = extra

        def inner(out):
            want = checks.point_count(blocks, p)
            if as_json:
                require(out["count"] == want and out["verdict"] == "MATCH", f"count {out['count']} != {want}")
            else:
                require(f"count over F{p}: {want}  [MATCH]" in out, f"count over F{p} != {want}")
        return ["augvar", text, "--count", "--char", str(p)] + flag, wrap(inner)
    if kind == "augvar-enumerate":
        (p,) = extra

        def inner(out):
            want = checks.point_count(blocks, p)
            if as_json:
                points = [pt["values"] for pt in out["points"]]
            else:
                points = [
                    dict((kv.split("=")[0], int(kv.split("=")[1])) for kv in line.split()[1].split(","))
                    for line in out.splitlines() if line.startswith("  point ")
                ]
            require(len(points) == want, f"{len(points)} points, closed form {want}")
            for pt in points:
                for window, nonzero in checks.defining_windows(blocks):
                    value = checks.fold((pt[f"a{c}"] for c in window), p)
                    require((value != 0) == nonzero, f"point {pt} breaks the window {window}")
        return ["augvar", text, "--enumerate", "--char", str(p)] + flag, wrap(inner)
    if kind == "seed":
        def inner(out):
            size = len(checks.mutable_vertices(blocks)) + len(blocks)
            if as_json:
                ex = out["seed"]["exchange"]
                require(len(ex) == size == len(out["seed"]["variables"]), f"seed size {len(ex)} != {size}")
                require(all(ex[i][j] == -ex[j][i] for i in range(size) for j in range(size)), "exchange matrix not skew")
            else:
                require(len(out.splitlines()) == size + 1, f"seed size != {size}")
        return ["seed", text] + flag, wrap(inner)
    if kind == "mutate":
        verts = rng.sample(checks.mutable_vertices(blocks), 2)
        verts.append(verts[0])

        def inner(out):
            if as_json:
                require(out["mutations"] == verts, f"mutations {out['mutations']} != {verts}")
                ex = out["seed"]["exchange"]
                require(all(ex[i][j] == -ex[j][i] for i in range(len(ex)) for j in range(len(ex))), "exchange matrix not skew")
            else:
                require(f"after mutations at {verts}" in out, "mutation trail missing")
        return ["mutate", text, "--at", ",".join(map(str, verts))] + flag, wrap(inner)
    if kind == "seeds":
        def inner(out):
            want = checks.seed_count(blocks)
            if as_json:
                require(out["count"] == want and out["exceeded"] is False, f"{out['count']} seeds, Catalan product {want}")
            else:
                require(out.startswith(f"mutation class of [{text}]: {want} seeds\n"), f"seed count != {want}")
        return ["seeds", text] + flag, wrap(inner)
    if kind == "fillings-sequence":
        seq = checks.random_sequence(blocks, rng)

        def inner(out):
            if as_json:
                seen = {"images": out["parametrization"], "t1": out["t1"], "t2": out["t2"],
                        "triangulations": out["triangulations"]}
            else:
                lines = out.splitlines()
                seen = {
                    "images": dict(re.fullmatch(r"\s*(a\d+) -> (.*)", l).groups() for l in lines if " -> " in l and "pinch" not in l),
                    "t1": next(l.split(" = ")[1] for l in lines if l.strip().startswith("t1 =")),
                    "t2": next(l.split(" = ")[1] for l in lines if l.strip().startswith("t2 =")),
                    "triangulations": [l.split(": ", 1)[1] for l in lines if l.strip().startswith("block ")],
                }
            check_chart_text(blocks, seen, check_rng)
        return ["fillings", text, "--sequence", ",".join(map(str, seq))] + flag, wrap(inner)
    if kind in ("fillings", "fillings-enumerate"):
        listing = kind == "fillings-enumerate"

        def inner(out):
            want = checks.filling_count(blocks)
            if as_json:
                require(out["count"] == want, f"{out['count']} filling classes, Catalan product {want}")
                if listing:
                    require(len(out["representatives"]) == want, "representatives missing")
            else:
                require(out.startswith(f"filling classes of [{text}]: {want} "), f"filling count != {want}")
                if listing:
                    require(sum(l.startswith("  sequence ") for l in out.splitlines()) == want, "representatives missing")
        return ["fillings", text] + (["--enumerate"] if listing else []) + flag, wrap(inner)
    if kind == "rulings":
        def inner(out):
            want = checks.ruling_count(blocks)
            if as_json:
                require(out["count"] == want and out["identity"] is True, f"{out['count']} rulings, Fibonacci product {want}")
            else:
                require(out.startswith(f"normal rulings of [{text}]: {want} "), f"ruling count != {want}")
                require("point-count identity: PASS" in out, "Kauffman identity not PASS")
        return ["rulings", text] + flag, wrap(inner)
    if kind == "verify":
        def inner(out):
            if as_json:
                require(out["ok"] is True and all(out["checks"].values()), "verify is not ok")
            else:
                lines = out.splitlines()[1:]
                require(bool(lines) and all(l.startswith("  [PASS] ") for l in lines), "verify has a check not PASS")
        return ["verify", text] + flag, wrap(inner)
    raise ValueError(f"unknown command kind {kind}")


WORKLOADS = {
    "dga-expand": dga_expand,
    "chart-sweep": chart_sweep,
    "enumerate": enumerate_workload,
    "cli-mix": cli_mix,
}
