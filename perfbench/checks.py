"""Correctness checks on the reports the benchmark's tasks produce.

Reference values come from the brute-force oracles in ``tests/oracles.py``,
which share no code path with the library.  Every function here returns a
list of problems; an empty list means the report passed.  All of this runs
outside the timed region.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import oracles
from kronset.engine import DEFAULT_TOL

TWO_PI = 2.0 * math.pi
#: float slack when comparing an oracle value with a reported bracket end
FLOAT_SLACK = 1e-9
#: outer grid of the two-element continuous oracle; its value can sit up to
#: pi / grid below the true supremum
PAIR_ORACLE_GRID = 150
#: slices of the first torus coordinate in the rank-2 inner oracle
PLANE_SLICES = 256
#: largest targets x dual points product for the exhaustive torsion oracle
TORSION_EXHAUSTIVE_LIMIT = 20_000

EXIT_BY_CERT = {"certified": 0, "partial": 1}


def check_report(task: dict, code: int, report: dict | None) -> list[str]:
    """Contract checks shared by every task, then the kind-specific ones."""
    if code not in (0, 1, 2, 3):
        return [f"exit code {code} outside the 0/1/2/3 contract"]
    if report is None:
        return [f"exit code {code} without a report"]
    problems = []
    cert = report.get("certification")
    if EXIT_BY_CERT.get(cert) != code or report.get("exit_code") != code:
        problems.append(f"exit code {code} does not match certification {cert!r}")
    kind = task["kind"]
    if kind in ("alpha", "alpha_n"):
        problems += _check_bracket(task, report)
    elif kind == "coset":
        problems += _check_coset(task, report)
    elif kind == "net":
        problems += _check_net(task, report)
    elif kind == "quasi":
        problems += _check_quasi(task, report)
    elif kind == "b2":
        problems += _check_b2(task, report)
    return problems


def same_result(report: dict, reference: dict) -> list[str]:
    """A pooled report must carry the serial report's brackets and witnesses."""
    keys = ("alpha", "worst_target", "witness_point")
    got, want = report["result"], reference["result"]
    if "brackets" in got.get("data", {}):  # gallery report
        got, want = got["data"], want["data"]
        keys = ("brackets",)
    return [f"{k} differs from the serial run" for k in keys if got.get(k) != want.get(k)]


# ---------------------------------------------------------------------------
# brackets of alpha / alpha-n
# ---------------------------------------------------------------------------

def _check_bracket(task: dict, report: dict) -> list[str]:
    res = report["result"]
    br = res["alpha"]
    lo, hi = br["lower"], br["upper"]
    problems = []
    if not 0.0 <= lo <= hi <= math.pi:
        return [f"bracket [{lo}, {hi}] is not ordered inside [0, pi]"]
    tol = task.get("tol", DEFAULT_TOL)
    if res["certified"] and hi - lo > tol + FLOAT_SLACK:
        problems.append(f"certified width {hi - lo:.3g} exceeds tol {tol}")
    if task.get("orders") and "exact_turns" not in br:
        problems.append("torsion task returned no exact_turns")
    target = res["worst_target"]
    if target is None:
        return problems + ["no worst target"]
    elements = [e["free"] + e["torsion"] for e in report["input"]["elements"]]
    value_lo, value_hi, exact = _worst_value(task, elements, target)
    if value_hi < lo - FLOAT_SLACK:
        problems.append(f"oracle value {value_hi:.12g} at the worst target is below"
                        f" the reported lower end {lo:.12g}")
    if value_lo > hi + FLOAT_SLACK:
        problems.append(f"oracle value {value_lo:.12g} at the worst target is above"
                        f" the reported upper end {hi:.12g}")
    if exact is not None and "exact_turns" in br and Fraction(br["exact_turns"]) != exact:
        problems.append(f"exact value {br['exact_turns']} != oracle {exact}")
    if task["kind"] == "alpha" and len(task["slopes"]) == 2:
        a, b = task["slopes"]
        sup, _ = oracles.alpha_pair_grid(a, b, grid=PAIR_ORACLE_GRID)
        if not lo - math.pi / PAIR_ORACLE_GRID - FLOAT_SLACK <= sup <= hi + FLOAT_SLACK:
            problems.append(f"grid oracle {sup:.9g} outside [{lo:.9g}, {hi:.9g}]")
    if task.get("orders") and _torsion_small(task):
        sup = _torsion_sup(task, elements)
        if float(sup) * TWO_PI < lo - FLOAT_SLACK or float(sup) * TWO_PI > hi + FLOAT_SLACK:
            problems.append(f"exhaustive torsion value {sup} outside the bracket")
    return problems


def _worst_value(task: dict, elements, target: dict):
    """Enclosure (low, high, exact or None) of the inner minimum at the
    reported worst target, computed by the oracles."""
    phi = target["angles"]
    group = task["group"]
    if task.get("orders"):
        orders = task["orders"]
        turns = [Fraction(t) for t in target["turns"]]
        val, _ = oracles.best_point_torsion_exhaustive(orders, elements, turns)
        return float(val) * TWO_PI, float(val) * TWO_PI, val
    if group == "Z":
        _, val = oracles.min_error_breakpoints([e[0] for e in elements], phi)
        return val, val, None
    if group == "Z x Z2^3":
        # exact torsion selections, exact rank-1 minimum for each of them
        best = math.inf
        for sel in itertools.product((0, 1), repeat=3):
            shifted = [p - math.pi * sum(t * s for t, s in zip(e[1:], sel))
                       for p, e in zip(phi, elements)]
            best = min(best, oracles.min_error_breakpoints([e[0] for e in elements],
                                                           shifted)[1])
        return best, best, None
    if group == "Z^2":
        # exact minimum over the second coordinate on slices of the first;
        # the slice minimum is Lipschitz in the first coordinate
        col1 = [e[0] for e in elements]
        col2 = [e[1] for e in elements]
        step = TWO_PI / PLANE_SLICES
        best = min(
            oracles.min_error_breakpoints(
                col2, [p - a * step * i for p, a in zip(phi, col1)])[1]
            for i in range(PLANE_SLICES))
        slack = max(abs(a) for a in col1) * step / 2.0
        return best - slack, best, None
    raise ValueError(f"no oracle for group {group!r}")


def _torsion_small(task: dict) -> bool:
    size = task["n"] ** len(task["elements"]) * math.prod(task["orders"])
    return size <= TORSION_EXHAUSTIVE_LIMIT


def _torsion_sup(task: dict, elements) -> Fraction:
    """Exhaustive grid constant of a small torsion set, in turns."""
    n = task["n"]
    return max(
        oracles.best_point_torsion_exhaustive(
            task["orders"], elements, [Fraction(j, n) for j in idx])[0]
        for idx in itertools.product(range(n), repeat=len(elements)))


# ---------------------------------------------------------------------------
# gallery and diagnostics
# ---------------------------------------------------------------------------

#: coset truncations whose grid constant the exhaustive oracle recomputes
COSET_EXHAUSTIVE_MAX = 2


def _check_coset(task: dict, report: dict) -> list[str]:
    n = task["coset_n"]
    data = report["result"]["data"]
    problems = []
    for row in data["brackets"]:
        lo, hi, k = row["lower"], row["upper"], row["truncation"]
        if not 0.0 <= lo <= hi <= math.pi:
            problems.append(f"truncation {k}: bracket [{lo}, {hi}] is not ordered")
            continue
        if k <= COSET_EXHAUSTIVE_MAX:
            slopes = [1 + n * j for j in range(-k, k + 1)]
            sup, _ = oracles.alpha_n_exhaustive(slopes, n)
            if not lo - FLOAT_SLACK <= sup <= hi + FLOAT_SLACK:
                problems.append(f"truncation {k}: exhaustive value {sup:.12g}"
                                f" outside [{lo:.12g}, {hi:.12g}]")
    if len(data["brackets"]) != task["truncation"]:
        problems.append("wrong number of truncation brackets")
    return problems


def _check_net(task: dict, report: dict) -> list[str]:
    # on a basis of Z2^d every pair of distinct dual points differs on some
    # basis character by pi, so the greedy net admits the whole dual
    d = len(task["elements"])
    res = report["result"]
    points = {tuple(p["torsion_selections"]) for p in res["points"]}
    if res["universe_size"] != 2**d or res["cardinality"] != 2**d or len(points) != 2**d:
        return [f"net admitted {res['cardinality']} of {res['universe_size']} points,"
                f" expected all {2**d}"]
    return []


def _check_quasi(task: dict, report: dict) -> list[str]:
    terms = [e[0] for e in task["elements"]]
    # a dissociate sequence (each term > twice the sum before it) admits no
    # nontrivial {-1, 0, 1} relation
    dissociate = all(abs(b) > 2 * sum(abs(a) for a in terms[:i])
                     for i, b in enumerate(terms) if i)
    res = report["result"]
    problems = []
    if dissociate and not res["quasi_independent"]:
        problems.append("dissociate set reported as not quasi-independent")
    witness = res["witness"]
    if witness is not None and (not any(witness)
                                or sum(c * t for c, t in zip(witness, terms)) != 0):
        problems.append(f"witness {witness} is not a nontrivial relation")
    return problems


def _check_b2(task: dict, report: dict) -> list[str]:
    terms = [e[0] for e in task["elements"]]
    sums = Counter(terms[i] + terms[j] for i in range(len(terms))
                   for j in range(i, len(terms)))
    expected = sum(c * (c - 1) // 2 for c in sums.values())
    res = report["result"]
    if res["coincidences"] != expected or len(res["quadruples"]) != expected:
        return [f"{res['coincidences']} coincidences reported, {expected} expected"]
    return []
