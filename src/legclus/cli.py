"""Command-line interface.

Subcommands: classify, dga, augvar, seed, mutate, seeds, fillings,
rulings, verify.  Output is deterministic text or JSON (schema
"legclus/1"); quivers render to DOT and triangulations to SVG via
--format.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from . import augvar, bridge, fillings, rulings
from .augvar import Style
from .bridge import BridgeWord
from .cluster import Seed, merge_seeds, mutation_class, strip_unit_frozen
from .dga import build_dga
from .errors import BudgetError, InputError
from .polygon import Triangulation, block_seed
from .ring import Coefficients

SCHEMA = "legclus/1"


def _budget(default: int) -> int:
    value = os.environ.get("LEGCLUS_BUDGET")
    if value:
        try:
            return int(value)
        except ValueError:
            raise InputError(f"LEGCLUS_BUDGET={value!r} is not an integer") from None
    return default


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"{option} needs a comma list of integers, got {text!r}") from None


def _emit(args, payload: dict[str, Any], text: str) -> None:
    if getattr(args, "json", False):
        data = json.dumps({"schema": SCHEMA, **payload}, sort_keys=True, indent=2) + "\n"
    else:
        data = text
    path = getattr(args, "out", None)
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(data)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from None
    else:
        sys.stdout.write(data)


def _seed_payload(seed: Seed) -> dict[str, Any]:
    return {
        "exchange": [list(row) for row in seed.quiver.matrix],
        "frozen": sorted(seed.quiver.frozen),
        "variables": [v.canonical_text() for v in seed.variables],
    }


def _seed_text(seed: Seed) -> str:
    lines = []
    for v in range(seed.quiver.size):
        kind = "frozen " if v in seed.quiver.frozen else "mutable"
        targets = [
            f"{w + 1}" + ("x%d" % seed.quiver.matrix[v][w] if seed.quiver.matrix[v][w] > 1 else "")
            for w in range(seed.quiver.size)
            if seed.quiver.matrix[v][w] > 0
        ]
        arrow = (" -> " + ",".join(targets)) if targets else ""
        lines.append(f"  {v + 1} [{kind}] {seed.variables[v].canonical_text()}{arrow}")
    return "\n".join(lines)


def cmd_classify(args) -> None:
    w1 = BridgeWord.parse(args.word)
    f1 = bridge.fraction_value(w1)
    lines = [f"word {w1} -> fraction {f1.p}/{f1.q}"]
    payload: dict[str, Any] = {"word": list(w1.blocks), "fraction": [f1.p, f1.q]}
    if args.other:
        w2 = BridgeWord.parse(args.other)
        f2 = bridge.fraction_value(w2)
        same = bridge.smooth_isotopic(w1, w2)
        verdict = "isotopic" if same else "not isotopic"
        lines.append(f"word {w2} -> fraction {f2.p}/{f2.q}")
        lines.append(f"{verdict} ({f1.p}/{f1.q} vs {f2.p}/{f2.q})")
        payload.update(
            {"other": list(w2.blocks), "other_fraction": [f2.p, f2.q], "isotopic": same}
        )
    else:
        moves = {
            "extend-one": str(bridge.apply_move(w1, bridge.Move.EXTEND_ONE)),
            "prepend-one": str(bridge.apply_move(w1, bridge.Move.PREPEND_ONE)),
            "reverse": str(bridge.apply_move(w1, bridge.Move.REVERSE)),
        }
        for name, result in moves.items():
            lines.append(f"move {name}: {result}")
        payload["moves"] = moves
    _emit(args, payload, "\n".join(lines) + "\n")


def cmd_dga(args) -> None:
    word = BridgeWord.parse(args.word)
    dga = build_dga(word)
    lines = [f"dg-algebra of {word} over F2 (commutative image)"]
    payload = {"word": list(word.blocks), "differentials": {}}
    for name in dga.generators:
        text = dga.differentials[name].canonical_text()
        lines.append(f"  d({name}) = {text}")
        payload["differentials"][name] = dga.differentials[name].to_json_terms()
    _emit(args, payload, "\n".join(lines) + "\n")


def cmd_augvar(args) -> None:
    word = BridgeWord.parse(args.word)
    if args.count or args.enumerate:
        try:
            Coefficients.prime_field(args.char)
        except ValueError:
            raise InputError(f"--char must be a prime, got {args.char}") from None
    style = Style.EQUATION if args.style == "equation" else Style.INEQUALITY
    pres = augvar.presentation(word, style)
    closed = augvar.point_count_closed_form(word)
    lines = [f"augmentation variety of {word} ({style.value} style)"]
    for eq in pres.equations:
        lines.append(f"  {eq.canonical_text()} = 0")
    for ineq in pres.inequations:
        lines.append(f"  {ineq.canonical_text()} != 0")
    lines.append(f"closed-form point count: {closed.canonical_text()}")
    payload: dict[str, Any] = {
        "word": list(word.blocks),
        "style": style.value,
        "coordinates": list(pres.coordinates),
        "equations": [eq.canonical_text() for eq in pres.equations],
        "inequations": [iq.canonical_text() for iq in pres.inequations],
        "closed_form": closed.canonical_text(),
    }
    if args.count or args.enumerate:
        p = args.char
        expected = augvar.closed_form_value(word, p)
        lines.append(f"closed form at q={p}: {expected}")
        payload["char"] = p
        payload["closed_form_value"] = expected
        if args.enumerate:
            points = augvar.enumerate_points(pres, p, budget=_budget(augvar.DEFAULT_BUDGET))
            count = len(points)
            payload["points"] = [
                {"values": dict(sorted(pt.values.items())), "t1": pt.t1, "t2": pt.t2}
                for pt in points
            ]
            for pt in points:
                vals = ",".join(f"{k}={v}" for k, v in sorted(pt.values.items()))
                lines.append(f"  point {vals}  t1={pt.t1} t2={pt.t2}")
        else:
            # the first-row transfer keeps at most p^2 states, p tries each
            work = sum(len(chords) * p * p ** min(len(chords), 2) for chords, _ in pres.system)
            budget = _budget(augvar.DEFAULT_BUDGET)
            if work > budget:
                raise BudgetError(f"point count over ~{work} transfer steps exceeds budget {budget}")
            count = augvar.count_points(pres, p)
        verdict = "MATCH" if count == expected else "MISMATCH"
        lines.append(f"brute-force count over F{p}: {count}  [{verdict}]")
        payload["count"] = count
        payload["verdict"] = verdict
    _emit(args, payload, "\n".join(lines) + "\n")
    if payload.get("verdict") == "MISMATCH":
        raise InputError("brute-force count does not match the closed form")


def cmd_seed(args) -> None:
    word = BridgeWord.parse(args.word)
    if args.format == "dot" and args.json:
        raise InputError("--format dot draws the quiver, which --json cannot carry")
    ws = augvar.initial_seed(word)
    if args.format == "dot":
        labels = [v.canonical_text() for v in ws.seed.variables]
        _emit(args, {}, ws.seed.quiver.to_dot(labels))
        return
    payload = {"word": list(word.blocks), "seed": _seed_payload(ws.seed)}
    text = f"initial seed of {word}\n" + _seed_text(ws.seed) + "\n"
    _emit(args, payload, text)


def cmd_mutate(args) -> None:
    word = BridgeWord.parse(args.word)
    ws = augvar.initial_seed(word)
    seed = ws.seed
    trail = _int_list(args.at, "--at")
    for v in trail:
        if not 1 <= v <= seed.quiver.size:
            raise InputError(f"vertex {v} is not among the seed's vertices 1..{seed.quiver.size}")
        if v - 1 in seed.quiver.frozen:
            raise InputError(f"vertex {v} is frozen")
    for v in trail:
        seed = seed.mutate(v - 1)
    payload = {
        "word": list(word.blocks),
        "mutations": trail,
        "seed": _seed_payload(seed),
    }
    text = f"seed of {word} after mutations at {trail}\n" + _seed_text(seed) + "\n"
    _emit(args, payload, text)


def cmd_seeds(args) -> None:
    word = BridgeWord.parse(args.word)
    ws = augvar.initial_seed(word)
    bound = args.bound if args.bound is not None else _budget(10000)
    seeds, exceeded = mutation_class(ws.seed, bound=bound)
    lines = [f"mutation class of {word}: {len(seeds)} seeds" + (" (bound hit)" if exceeded else "")]
    payload = {
        "word": list(word.blocks),
        "count": len(seeds),
        "exceeded": exceeded,
    }
    if args.enumerate:
        payload["seeds"] = [_seed_payload(s) for s in seeds]
        for s in seeds:
            lines.append("  " + "; ".join(v.canonical_text() for v in s.variables))
    _emit(args, payload, "\n".join(lines) + "\n")


def cmd_fillings(args) -> None:
    word = BridgeWord.parse(args.word)
    if args.format == "svg" and args.sequence is None:
        raise InputError("--format svg draws a filling and needs --sequence")
    if args.format == "svg" and args.json:
        raise InputError("--format svg draws a filling, which --json cannot carry")
    if args.sequence is not None:
        seq = tuple(_int_list(args.sequence, "--sequence")) if args.sequence else ()
        res = fillings.run_sequence(word, seq)
        lines = [f"pinching sequence {list(seq)} on {word}"]
        for b, t in enumerate(res.triangulations):
            lines.append(f"  block {b + 1}: {t.to_text()}")
        for name, poly in sorted(res.parametrization.items()):
            lines.append(f"  {name} -> {poly.canonical_text()}")
        lines.append(f"  t1 = {res.t1.canonical_text()}")
        lines.append(f"  t2 = {res.t2.canonical_text()}")
        for rec in res.records:
            kind = "same-component" if rec.same_component else "joins-components"
            lines.append(f"  pinch a{rec.chord} -> {rec.unit} [{kind}]")
        payload = {
            "word": list(word.blocks),
            "sequence": list(seq),
            "triangulations": [t.to_text() for t in res.triangulations],
            "seed": _seed_payload(res.seed),
            "parametrization": {
                k: v.canonical_text() for k, v in res.parametrization.items()
            },
            "t1": res.t1.canonical_text(),
            "t2": res.t2.canonical_text(),
            "pinches": [
                {"chord": r.chord, "unit": r.unit, "same_component": r.same_component}
                for r in res.records
            ],
        }
        if args.format == "svg":
            _emit(args, {}, res.triangulations[0].to_svg())
            return
        _emit(args, payload, "\n".join(lines) + "\n")
        return
    census = fillings.enumerate_filling_classes(word, budget=_budget(100000))
    expected = fillings.expected_filling_count(word)
    lines = [
        f"filling classes of {word}: {census.count} "
        f"(per block {list(census.per_block_counts)}; Catalan product {expected})"
    ]
    payload = {
        "word": list(word.blocks),
        "count": census.count,
        "per_block": list(census.per_block_counts),
        "catalan_product": expected,
    }
    if args.enumerate:
        payload["representatives"] = [list(rep) for rep in census.representatives]
        for rep in census.representatives:
            lines.append("  sequence " + ",".join(str(c) for c in rep))
    _emit(args, payload, "\n".join(lines) + "\n")


def cmd_rulings(args) -> None:
    word = BridgeWord.parse(args.word)
    expected = rulings.expected_ruling_count(word)
    budget = _budget(100000)
    if expected > budget:
        raise BudgetError(f"{expected} normal rulings exceed the budget {budget}")
    all_rulings = rulings.enumerate_rulings(word)
    poly = rulings.ruling_polynomial(word)
    ok = rulings.kauffman_identity_check(word)
    lines = [f"normal rulings of {word}: {len(all_rulings)} (Fibonacci product {expected})"]
    for r in all_rulings:
        shape = rulings.StratumShape.of(r)
        types = "".join(t for _, t in r.types)
        lines.append(
            f"  {types or '-'}  s={r.switches} r={r.returns} "
            f"stratum (F*)^{shape.torus_rank} x F^{shape.affine_rank}"
        )
    lines.append(f"ruling polynomial B(z) = {poly.canonical_text()}")
    lines.append(f"point-count identity: {'PASS' if ok else 'FAIL'}")
    payload = {
        "word": list(word.blocks),
        "count": len(all_rulings),
        "fibonacci_product": expected,
        "rulings": [
            {
                "types": dict((str(c), t) for c, t in r.types),
                "switches": r.switches,
                "returns": r.returns,
            }
            for r in all_rulings
        ],
        "ruling_polynomial": poly.canonical_text(),
        "identity": ok,
    }
    _emit(args, payload, "\n".join(lines) + "\n")


def cmd_verify(args) -> None:
    word = BridgeWord.parse(args.word)
    checks: list[tuple[str, bool]] = []

    f = bridge.fraction_value(word)
    if f.p >= 2:
        rt = bridge.fraction_value(bridge.word_from_fraction(f))
        checks.append(("fraction round-trip", rt.p == f.p and rt.q % f.p == f.q % f.p))
    for move in bridge.Move:
        checks.append(
            (f"move {move.value} preserves class", bridge.smooth_isotopic(word, bridge.apply_move(word, move)))
        )

    pres = augvar.presentation(word)
    for p in (2, 3):
        checks.append(
            (
                f"point count over F{p}",
                augvar.count_points(pres, p) == augvar.closed_form_value(word, p),
            )
        )
        checks.append((f"forced units over F{p}", augvar.verify_forced_units_exhaustive(word, p)))

    ws = augvar.initial_seed(word)
    checks.append(("really full rank", ws.seed.quiver.is_really_full_rank()))
    fan = [
        block_seed(word, layout, Triangulation.fan(layout.size))
        for layout in word.layouts
    ]
    checks.append(("fan seed matches initial seed", strip_unit_frozen(merge_seeds(fan)) == ws.seed))

    skipped: list[str] = []
    ruling_checks = ["ruling count is the Fibonacci product", "Kauffman point-count identity"]
    expected_rulings = rulings.expected_ruling_count(word)
    if expected_rulings > _budget(20000):
        skipped += ruling_checks
    else:
        checks.append((ruling_checks[0], len(rulings.enumerate_rulings(word)) == expected_rulings))
        checks.append((ruling_checks[1], rulings.kauffman_identity_check(word)))
    try:
        census = fillings.enumerate_filling_classes(word, budget=_budget(20000))
        checks.append(("filling census Catalan product", census.count == fillings.expected_filling_count(word)))
        res = fillings.run_sequence(word, census.representatives[0])
        checks.append(("representative chart units", res.t1.is_unit() and res.t2.is_unit()))
    except BudgetError:
        skipped.append("filling census")

    lines = [f"verification of {word}"]
    lines += [f"  [{'PASS' if good else 'FAIL'}] {name}" for name, good in checks]
    lines += [f"  [SKIP] {name} (budget)" for name in skipped]
    failed = not all(good for _, good in checks)
    payload = {
        "word": list(word.blocks),
        "checks": {name: good for name, good in checks},
        "skipped": skipped,
        "ok": not failed and not skipped,
    }
    _emit(args, payload, "\n".join(lines) + "\n")
    if failed:
        raise InputError("verification failed")
    if skipped:
        raise InputError(f"verification incomplete, skipped: {', '.join(skipped)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legclus",
        description="Exact combinatorics of two-bridge Legendrian fronts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="write output to a file")

    p = sub.add_parser("classify", help="fractions, moves, isotopy test")
    p.add_argument("word")
    p.add_argument("other", nargs="?")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dga", help="generators and differentials")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_dga)

    p = sub.add_parser("augvar", help="variety presentation and point counts")
    p.add_argument("word")
    p.add_argument("--char", type=int, default=2)
    p.add_argument("--count", action="store_true")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--style", choices=["inequality", "equation"], default="inequality")
    common(p)
    p.set_defaults(func=cmd_augvar)

    p = sub.add_parser("seed", help="initial cluster seed")
    p.add_argument("word")
    p.add_argument("--format", choices=["text", "dot"], default="text")
    common(p)
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("mutate", help="mutate the initial seed")
    p.add_argument("word")
    p.add_argument("--at", required=True, help="comma list of 1-based vertices")
    common(p)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("seeds", help="mutation class")
    p.add_argument("word")
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="list the seeds: breadth-first from the initial seed for a "
        "connected quiver; for a quiver of several components (e.g. one per "
        "block) in product order, the last component varying fastest",
    )
    p.add_argument("--bound", type=int, help="seed budget (default: LEGCLUS_BUDGET, else 10000)")
    common(p)
    p.set_defaults(func=cmd_seeds)

    p = sub.add_parser("fillings", help="pinching sequences and classes")
    p.add_argument("word")
    p.add_argument("--sequence", help="comma list of crossings to pinch")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--format", choices=["text", "svg"], default="text")
    common(p)
    p.set_defaults(func=cmd_fillings)

    p = sub.add_parser("rulings", help="normal rulings and the Kauffman identity")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_rulings)

    p = sub.add_parser("verify", help="cross-check battery for one word")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (InputError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
