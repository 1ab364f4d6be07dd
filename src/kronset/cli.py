"""Command-line front end: parse set specifications, run computations,
emit machine-readable reports.

Reports are single JSON documents on standard output (``--pretty`` switches
to a human-readable rendering).  Exit codes: 0 success with certification,
1 success without certification (budget hit), 2 invalid input, 3 resource
limit refused upfront.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time

from . import __version__
from .diagnostics import (
    b2_coincidences,
    classify,
    maximal_separated_set,
    pisier_report,
    quasi_independent,
    roots_threshold,
    volume_bound,
)
from .engine import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    KroneckerResult,
    LADDER_MAX_ORDER,
    TargetMap,
    alpha,
    alpha_n,
    approx_error,
)
from .errors import BudgetExceededError, GroupMismatchError, SetSpecError
from .gallery import ExampleSpec, verify_example
from .groups import Character, CharacterSet, DualPoint, GroupSpec

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

_FACTOR_RE = re.compile(r"Z(\d+)?(?:\^(\d+))?")


def parse_set_spec(text: str) -> tuple[GroupSpec, CharacterSet]:
    """Parse ``"<group> : <elements>"`` into a group and character set.

    The group clause is factors joined by ``x``: ``Z`` or ``Z^r`` for free
    factors, ``Zm`` or ``Zm^s`` for torsion ones.  Elements are
    comma-separated integer tuples in brackets, with coordinates in the
    written factor order; torsion coordinates are reduced mod their order.
    """
    colon = text.find(":")
    if colon < 0:
        raise SetSpecError("missing ':' between group clause and element list")
    group_part, elems_part = text[:colon], text[colon + 1:]

    factors: list[int | None] = []  # None marks a free factor
    pos = 0
    for chunk in group_part.split("x"):
        stripped = chunk.strip()
        offset = pos + chunk.index(stripped) if stripped else pos
        if not stripped:
            raise SetSpecError("empty group factor", offset)
        m = _FACTOR_RE.fullmatch(stripped)
        if not m:
            raise SetSpecError(f"bad group factor {stripped!r}", offset)
        order = int(m.group(1)) if m.group(1) else None
        if order is not None and order < 2:
            raise SetSpecError(f"torsion order must be >= 2, got {order}", offset)
        repeat = int(m.group(2)) if m.group(2) else 1
        if repeat < 1:
            raise SetSpecError("factor exponent must be >= 1", offset)
        factors.extend([order] * repeat)
        pos += len(chunk) + 1
    free_positions = [i for i, f in enumerate(factors) if f is None]
    torsion_positions = [i for i, f in enumerate(factors) if f is not None]
    group = GroupSpec(len(free_positions),
                      tuple(factors[i] for i in torsion_positions))

    body = elems_part.strip()
    if not body:
        raise SetSpecError("empty element list", colon + 1)
    elements = []
    cursor = 0
    expect_sep = False
    base = colon + 1
    while cursor < len(elems_part):
        ch = elems_part[cursor]
        if ch.isspace():
            cursor += 1
            continue
        if expect_sep:
            if ch != ",":
                raise SetSpecError("expected ',' between elements", base + cursor)
            cursor += 1
            expect_sep = False
            continue
        if ch != "[":
            raise SetSpecError("expected '[' to open an element", base + cursor)
        end = elems_part.find("]", cursor)
        if end < 0:
            raise SetSpecError("unclosed element bracket", base + cursor)
        inner = elems_part[cursor + 1:end]
        try:
            values = [int(v.strip()) for v in inner.split(",")] if inner.strip() else []
        except ValueError:
            raise SetSpecError(f"non-integer coordinate in {inner!r}", base + cursor)
        if len(values) != len(factors):
            raise SetSpecError(
                f"element has {len(values)} coordinates, group has {len(factors)}",
                base + cursor)
        free = tuple(values[i] for i in free_positions)
        tors = tuple(values[i] for i in torsion_positions)
        elements.append(Character(group, free, tors))
        cursor = end + 1
        expect_sep = True
    if not elements:
        raise SetSpecError("no elements given", base)
    seen = set()
    for e in elements:
        if e.coords in seen:
            raise SetSpecError(f"duplicate element {list(e.free_coords + e.torsion_coords)}")
        seen.add(e.coords)
    return group, CharacterSet(group, tuple(elements))


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def _bracket_json(bracket) -> dict:
    out = {"lower": bracket.lower, "upper": bracket.upper, "width": bracket.width}
    if bracket.exact_turns is not None:
        t = bracket.exact_turns
        out["exact_turns"] = f"{t.numerator}/{t.denominator}"
    return out


def _target_json(target: TargetMap | None) -> dict | None:
    if target is None:
        return None
    out = {"angles": list(target.angles)}
    if target.roots_order is not None:
        out["roots_order"] = target.roots_order
        out["turns"] = [f"{j}/{target.roots_order}" for j in target.grid_indices]
    return out


def _point_json(point: DualPoint | None) -> dict | None:
    if point is None:
        return None
    return {"torus_angles": list(point.torus_angles),
            "torsion_selections": list(point.torsion_selections)}


def _result_json(res: KroneckerResult) -> dict:
    kappa_lo, kappa_up = res.kappa
    out = {
        "alpha": _bracket_json(res.alpha),
        "kappa": {"lower": kappa_lo, "upper": kappa_up},
        "roots_order": res.roots_order,
        "certified": res.certified,
        "worst_target": _target_json(res.worst_target),
        "witness_point": _point_json(res.witness_point),
        "work": {
            "targets_enumerated": res.work.targets_enumerated,
            "targets_pruned": res.work.targets_pruned,
            "inner_evals": res.work.inner_evals,
            "budget_exhausted": res.work.budget_exhausted,
            "stop_reason": res.work.stop_reason,
        },
    }
    if res.work.ladder:
        out["work"]["ladder"] = [
            {"n": n, "lower": lo, "upper": hi, "completed": done}
            for n, lo, hi, done in res.work.ladder
        ]
    if res.worst_target is not None and res.witness_point is not None:
        out["witness_error"] = approx_error(res.chars, res.worst_target,
                                            res.witness_point)
    return out


def _set_json(group: GroupSpec, chars: CharacterSet) -> dict:
    return {
        "group": {"free_rank": group.free_rank,
                  "torsion_orders": list(group.torsion_orders),
                  "describe": group.describe()},
        "elements": [
            {"free": list(c.free_coords), "torsion": list(c.torsion_coords)}
            for c in chars
        ],
    }


def _emit(report: dict, args) -> None:
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if args.pretty:
        _pretty_print(report)
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _pretty_print(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _pretty_print(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _pretty_print(item, indent + 1)
                print(f"{pad}  -")
        else:
            print(f"{pad}{key}: {value}")


def _base_report(command: str, args, input_fields: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "kronset", "version": __version__},
        "command": command,
        "input": input_fields,
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_alpha(args) -> tuple[int, dict]:
    group, chars = parse_set_spec(args.set)
    res = alpha(chars, tol=args.tol, budget=args.budget, threads=args.threads,
                max_order=args.max_order)
    report = _base_report(args.command, args, {
        "set": args.set, **_set_json(group, chars),
        "tol": args.tol, "budget": args.budget, "max_order": args.max_order,
    })
    report["result"] = _result_json(res)
    report["certification"] = "certified" if res.certified else "partial"
    return (EXIT_OK if res.certified else EXIT_UNCERTIFIED), report


def _cmd_alpha_n(args) -> tuple[int, dict]:
    group, chars = parse_set_spec(args.set)
    res = alpha_n(chars, args.n, tol=args.tol, budget=args.budget,
                  threads=args.threads)
    report = _base_report("alpha-n", args, {
        "set": args.set, **_set_json(group, chars),
        "n": args.n, "tol": args.tol, "budget": args.budget,
    })
    report["result"] = _result_json(res)
    report["certification"] = "certified" if res.certified else "partial"
    return (EXIT_OK if res.certified else EXIT_UNCERTIFIED), report


def _cmd_net(args) -> tuple[int, dict]:
    group, chars = parse_set_spec(args.set)
    eps = args.epsilon
    alpha_res = None
    if eps is None:
        alpha_res = alpha(chars, tol=args.tol, budget=args.budget,
                          threads=args.threads, max_order=args.max_order)
        kappa_up = alpha_res.kappa[1]
        if kappa_up >= 2.0:
            raise BudgetExceededError(
                "no certified chordal upper bound below 2; pass --epsilon explicitly")
        eps = (2.0 - kappa_up) / 2.0
    sep = maximal_separated_set(chars, eps, grid_cells=args.grid_cells,
                                budget=args.universe_budget)
    rep = pisier_report(chars, sep)
    report = _base_report("net", args, {
        "set": args.set, **_set_json(group, chars),
        "epsilon": eps, "grid_cells": args.grid_cells,
    })
    report["result"] = {
        "cardinality": rep.cardinality,
        "rate": rep.rate,
        "condition_met": rep.condition_met,
        "universe_size": sep.universe_size,
        "points": [_point_json(p) for p in sep.points],
    }
    if alpha_res is not None:
        kappa_up = alpha_res.kappa[1]
        report["result"]["kappa_upper"] = kappa_up
        if kappa_up + eps < 2.0:
            eta, bound = volume_bound(kappa_up + eps, len(chars))
            report["result"]["volume_bound"] = {
                "eta": eta, "bound": bound,
                "satisfied": rep.cardinality >= bound,
            }
    report["certification"] = "certified"
    return EXIT_OK, report


def _cmd_quasi(args) -> tuple[int, dict]:
    group, chars = parse_set_spec(args.set)
    flag, witness = quasi_independent(chars, budget=args.budget, method=args.method)
    report = _base_report("quasi", args, {
        "set": args.set, **_set_json(group, chars), "method": args.method,
    })
    report["result"] = {"quasi_independent": flag,
                        "witness": list(witness) if witness else None}
    report["certification"] = "certified"
    return EXIT_OK, report


def _cmd_b2(args) -> tuple[int, dict]:
    group, chars = parse_set_spec(args.set)
    count, quads = b2_coincidences(chars, budget=args.budget)
    report = _base_report("b2", args, {
        "set": args.set, **_set_json(group, chars),
    })
    report["result"] = {
        "coincidences": count,
        "quadruples": [
            [list(g.free_coords + g.torsion_coords) for g in quad] for quad in quads
        ],
    }
    report["certification"] = "certified"
    return EXIT_OK, report


def _cmd_classify(args) -> tuple[int, dict]:
    group, chars = parse_set_spec(args.set)
    orders = [int(v) for v in args.n_list.split(",")] if args.n_list else [2, 3, 4]
    alpha_res = alpha(chars, tol=args.tol, budget=args.budget,
                      threads=args.threads, max_order=args.max_order)
    roots = [alpha_n(chars, n, tol=args.tol, budget=args.budget,
                     threads=args.threads) for n in orders]
    verdict = classify(chars, alpha_res, roots)
    report = _base_report("classify", args, {
        "set": args.set, **_set_json(group, chars),
        "orders": orders, "tol": args.tol, "budget": args.budget,
    })
    report["result"] = {
        "flags": {
            "i0_sufficient": verdict.i0_sufficient,
            "sidon_by_kappa": verdict.sidon_by_kappa,
            "sidon_by_kappa_n": verdict.sidon_by_kappa_n,
            "inconclusive": verdict.inconclusive,
        },
        "fired_orders": list(verdict.fired_orders),
        "kappa_bracket": list(verdict.kappa_bracket),
        "kappa_n_brackets": [
            {"n": n, "lower": lo, "upper": up, "threshold": roots_threshold(n)}
            for n, lo, up in verdict.kappa_n_brackets
        ],
        "alpha": _result_json(alpha_res),
    }
    certified = alpha_res.certified and all(r.certified for r in roots)
    report["certification"] = "certified" if certified else "partial"
    return (EXIT_OK if certified else EXIT_UNCERTIFIED), report


def _verification_json(rep) -> dict:
    return {
        "example": {k: v for k, v in vars(rep.example).items() if v},
        "passed": rep.passed,
        "checks": [
            {"name": c.name, "relation": c.relation, "value": c.value,
             "passed": c.passed}
            for c in rep.checks
        ],
        "data": rep.data,
    }


def _sweep_values(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise SetSpecError("sweep spec must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise SetSpecError("sweep step must be positive")
    out = []
    q = start
    while q <= stop + 1e-9:
        out.append(round(q, 10))
        q += step
    return out


def _cmd_gallery(args) -> tuple[int, dict]:
    report = _base_report("gallery", args, {
        "example": args.example, "tol": args.tol, "budget": args.budget,
    })
    if args.example == "hadamard" and args.sweep_q:
        rows = []
        verdicts = []
        for q in _sweep_values(args.sweep_q):
            if q <= 1.0:
                continue
            spec = ExampleSpec.hadamard(q, args.length, args.start)
            rep = verify_example(spec, tol=args.tol, budget=args.budget)
            verdicts.append(rep.passed)
            rows.append({
                "q": q,
                "length": args.length,
                "start": args.start,
                "alpha_lower": rep.data["alpha_lower"],
                "alpha_upper": rep.data["alpha_upper"],
                "kappa_lower": rep.data["kappa_lower"],
                "kappa_upper": rep.data["kappa_upper"],
                "certified": rep.data["certified"],
                "quasi_independent": rep.checks[1].value,
                "reading_small": rep.data["reading[pi/(q-1)]"]["status"],
                "reading_large": rep.data["reading[pi*(q-1)]"]["status"],
            })
        report["result"] = {"sweep": rows}
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
            report["result"]["csv"] = args.csv
        passed = all(verdicts)
        report["certification"] = "certified" if passed else "partial"
        return (EXIT_OK if passed else EXIT_UNCERTIFIED), report

    if args.example == "z2cube":
        spec = ExampleSpec.z2cube()
    elif args.example == "coset":
        spec = ExampleSpec.coset(args.n, args.truncation)
    elif args.example == "mixed":
        spec = ExampleSpec.mixed(args.big_n)
    elif args.example == "hadamard":
        spec = ExampleSpec.hadamard(args.q, args.length, args.start)
    else:
        raise SetSpecError(f"unknown example {args.example!r}")
    rep = verify_example(spec, tol=args.tol, budget=args.budget)
    report["result"] = _verification_json(rep)
    report["certification"] = "certified" if rep.passed else "partial"
    return (EXIT_OK if rep.passed else EXIT_UNCERTIFIED), report


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, with_set=True) -> None:
    if with_set:
        p.add_argument("--set", required=True,
                       help="set spec, e.g. \"Z : [1],[2]\" or \"Z2^3 : [0,1,0],[1,0,1]\"")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronset",
        description="certified interpolation-constant brackets for character sets")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("alpha", "kappa"):
        p = sub.add_parser(name, help=f"continuous-target constant ({name} scale)")
        _add_common(p)
        p.add_argument("--max-order", type=int, default=LADDER_MAX_ORDER)

    p = sub.add_parser("alpha-n", help="roots-grid constant")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("net", help="greedy separated set and counting bounds")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--grid-cells", type=int, default=None)
    p.add_argument("--universe-budget", type=int, default=1_000_000)
    p.add_argument("--max-order", type=int, default=8)

    p = sub.add_parser("quasi", help="quasi-independence check")
    _add_common(p)
    p.add_argument("--method", choices=("auto", "direct", "mitm"), default="auto")

    p = sub.add_parser("b2", help="pair-sum coincidence count")
    _add_common(p)

    p = sub.add_parser("classify", help="sufficient interpolation flags")
    _add_common(p)
    p.add_argument("--n-list", default="2,3,4")
    p.add_argument("--max-order", type=int, default=LADDER_MAX_ORDER)

    p = sub.add_parser("gallery", help="worked example verification")
    _add_common(p, with_set=False)
    p.add_argument("--example", required=True,
                   choices=("z2cube", "coset", "mixed", "hadamard"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--truncation", type=int, default=4)
    p.add_argument("--big-n", type=int, default=6)
    p.add_argument("--q", type=float, default=4.0)
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--sweep-q", default=None, help="sweep spec start:stop:step")
    p.add_argument("--csv", default=None, help="CSV output path for sweeps")
    return parser


_COMMANDS = {
    "alpha": _cmd_alpha, "kappa": _cmd_alpha, "alpha-n": _cmd_alpha_n,
    "net": _cmd_net, "quasi": _cmd_quasi, "b2": _cmd_b2,
    "classify": _cmd_classify, "gallery": _cmd_gallery,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = _COMMANDS[args.command](args)
    except (SetSpecError, GroupMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceededError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    report["exit_code"] = code
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
