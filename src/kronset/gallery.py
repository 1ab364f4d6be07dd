"""Worked example sets and the verifications run against each of them.

Four families are covered: the four-element set in Z2^3 whose best error
is exactly pi, symmetric truncations of the coset 1 + nZ, the paired set
in Z (+) Z2^N whose halves are quasi-independent but whose union is not,
and lacunary integer sets with a prescribed consecutive ratio.  Infinite
families are represented by finite truncations, so recorded lower bounds
only bound the full-set constants from below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any

import numpy as np

from ._minimax import _dist_array
from .diagnostics import quasi_independent
from .engine import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    ErrorBracket,
    TargetMap,
    _set_data,
    alpha,
    alpha_n,
    best_point,
)
from .groups import (
    ANGLE_ATOL,
    TWO_PI,
    Character,
    CharacterSet,
    DualPoint,
    GroupSpec,
)


@dataclass(frozen=True)
class ExampleSpec:
    """Parameters selecting one concrete example set."""

    kind: str
    grid_order: int = 0      # coset: the n of 1 + nZ and of the target grid
    truncation: int = 0      # coset: largest |k| kept
    big_n: int = 0           # mixed: number of paired factors
    ratio: float = 0.0       # hadamard: consecutive-ratio floor q
    length: int = 0          # hadamard: number of elements
    start: int = 1           # hadamard: first element floor

    def __post_init__(self):
        if self.kind == "z2cube":
            pass
        elif self.kind == "coset":
            if self.grid_order < 2 or self.truncation < 0:
                raise ValueError("coset example needs n >= 2 and truncation >= 0")
        elif self.kind == "mixed":
            if self.big_n < 1:
                raise ValueError("mixed example needs at least one paired factor")
        elif self.kind == "hadamard":
            if not (self.ratio > 1.0 and self.length >= 1 and self.start >= 1):
                raise ValueError("hadamard example needs q > 1, length >= 1, start >= 1")
        else:
            raise ValueError(f"unknown example kind {self.kind!r}")

    @classmethod
    def z2cube(cls) -> "ExampleSpec":
        return cls("z2cube")

    @classmethod
    def coset(cls, n: int, truncation: int) -> "ExampleSpec":
        return cls("coset", grid_order=n, truncation=truncation)

    @classmethod
    def mixed(cls, big_n: int) -> "ExampleSpec":
        return cls("mixed", big_n=big_n)

    @classmethod
    def hadamard(cls, ratio: float, length: int, start: int = 1) -> "ExampleSpec":
        return cls("hadamard", ratio=float(ratio), length=length, start=start)


@dataclass(frozen=True)
class CheckRecord:
    """One verification line: pass/fail, or informational when passed is None."""

    name: str
    relation: str
    value: Any
    passed: bool | None


@dataclass(frozen=True)
class VerificationReport:
    example: ExampleSpec
    checks: tuple[CheckRecord, ...]
    data: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)


def make_example(spec: ExampleSpec) -> CharacterSet:
    """Construct the character set an ExampleSpec describes."""
    if spec.kind == "z2cube":
        g = GroupSpec(0, (2, 2, 2))
        coords = [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)]
        return CharacterSet(g, tuple(Character(g, (), c) for c in coords))
    if spec.kind == "coset":
        n, k_max = spec.grid_order, spec.truncation
        return CharacterSet.of_integers([1 + n * k for k in range(-k_max, k_max + 1)])
    if spec.kind == "mixed":
        return _mixed_sets(spec.big_n)[2]
    if spec.kind == "hadamard":
        return CharacterSet.of_integers(hadamard_terms(spec.ratio, spec.length, spec.start))
    raise ValueError(f"unknown example kind {spec.kind!r}")


def hadamard_terms(ratio: float, length: int, start: int = 1) -> list[int]:
    """Integers with every consecutive ratio >= ratio: each term is the
    ceiling of ratio times its predecessor, so rounding never erodes the gap."""
    terms = [max(1, math.ceil(start))]
    for _ in range(length - 1):
        terms.append(math.ceil(ratio * terms[-1]))
    return terms


def _mixed_sets(big_n: int):
    """The two halves and their union in Z (+) Z2^big_n."""
    g = GroupSpec(1, (2,) * big_n)

    def char(freq: int, factor: int) -> Character:
        tors = tuple(1 if i == factor else 0 for i in range(big_n))
        return Character(g, (freq,), tors)

    half_pos = CharacterSet(g, tuple(char(n, n - 1) for n in range(1, big_n + 1)))
    half_neg = CharacterSet(g, tuple(char(-n, n - 1) for n in range(1, big_n + 1)))
    union = CharacterSet(g, half_pos.elements + half_neg.elements)
    return half_pos, half_neg, union


def mixed_flip_error(big_n: int, u_grid: int = 10_000):
    """Certified lower bound for the best error of the sign-flip target.

    The target puts angle pi on the positive-frequency half and 0 on the
    other.  For fixed torus coordinate u the optimal binary selections
    decouple per factor, so the error reduces to a function of u alone,
    minimized here over a grid with a Lipschitz-slack certificate.
    Returns (certified_lower, grid_minimum, u_at_minimum).
    """
    u = np.linspace(0.0, TWO_PI, u_grid, endpoint=False)
    worst = np.zeros_like(u)
    for n in range(1, big_n + 1):
        sel0 = np.maximum(_dist_array(n * u - math.pi), _dist_array(-n * u))
        sel1 = np.maximum(_dist_array(n * u), _dist_array(-n * u - math.pi))
        np.maximum(worst, np.minimum(sel0, sel1), out=worst)
    k = int(np.argmin(worst))
    grid_min = float(worst[k])
    slack = big_n * (TWO_PI / u_grid) / 2.0
    return max(0.0, grid_min - slack), grid_min, float(u[k])


def _farthest_grid_error(chars: CharacterSet, n: int, point: DualPoint) -> float:
    """Worst error any n-grid target can force at a fixed dual point."""
    roots = TWO_PI * np.arange(n) / n
    return float(_dist_array(roots[:, None] - _set_data(chars).point_args(point)).max())


def odd_bound_check(chars: CharacterSet, n: int, tol: float = DEFAULT_TOL,
                    budget: int = DEFAULT_BUDGET):
    """Check the universal odd-order bound: the grid constant never exceeds
    pi - pi/n.  Returns (passed, result)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("the universal bound is for odd orders >= 3")
    res = alpha_n(chars, n, tol=tol, budget=budget)
    return res.alpha.upper <= math.pi - math.pi / n + tol, res


def coset_alpha_series(n: int, truncations, tol: float = DEFAULT_TOL,
                       budget_per_step: int = DEFAULT_BUDGET):
    """Grid-constant brackets for nested coset truncations.

    Each step seeds the enumeration with every extension of the previous
    worst target, which keeps certified lower bounds nondecreasing even
    when a budget stops the scan early.
    """
    results = []
    prev = None
    floor = 0.0
    for k_max in truncations:
        chars = make_example(ExampleSpec.coset(n, k_max))
        seeds = []
        if prev is not None:
            prev_idx = prev.worst_target.grid_indices if prev.worst_target else None
            if prev_idx is not None:
                # sorted order grows by one character at each end
                for j_lo in range(n):
                    for j_hi in range(n):
                        seeds.append((j_lo,) + prev_idx + (j_hi,))
        res = alpha_n(chars, n, tol=tol, budget=budget_per_step, seed_targets=seeds)
        if res.alpha.lower < floor:
            # nested sets have nondecreasing constants, so the previous
            # certified lower bound stays valid and absorbs slack jitter
            res = replace(res, alpha=ErrorBracket(min(floor, res.alpha.upper),
                                                  res.alpha.upper,
                                                  res.alpha.exact_turns))
        floor = res.alpha.lower
        results.append((k_max, res))
        prev = res
    return results


# ---------------------------------------------------------------------------
# per-example verification
# ---------------------------------------------------------------------------

def verify_example(spec: ExampleSpec, tol: float = DEFAULT_TOL,
                   budget: int = DEFAULT_BUDGET) -> VerificationReport:
    if spec.kind == "z2cube":
        return _verify_z2cube(spec, tol, budget)
    if spec.kind == "coset":
        return _verify_coset(spec, tol, budget)
    if spec.kind == "mixed":
        return _verify_mixed(spec, tol, budget)
    if spec.kind == "hadamard":
        return _verify_hadamard(spec, tol, budget)
    raise ValueError(f"unknown example kind {spec.kind!r}")


def _verify_z2cube(spec, tol, budget) -> VerificationReport:
    chars = make_example(spec)
    checks = []
    data: dict = {}

    # the obstruction target: angle pi on the (1,0,1) character, 0 elsewhere
    flip = [1 if c.torsion_coords == (1, 0, 1) else 0 for c in chars]
    phi = TargetMap.from_grid(chars, 2, flip)
    point, bracket = best_point(chars, phi, budget=budget)
    data["obstruction_error_turns"] = str(bracket.exact_turns)
    checks.append(CheckRecord(
        "obstruction target error", "best error == pi, exactly",
        bracket.upper, bracket.exact_turns == Fraction(1, 2)))
    checks.append(CheckRecord(
        "chordal constant", "kappa == 2, exactly",
        bracket.chordal()[1], bracket.chordal()[1] == 2.0))

    for n in (2, 4, 6):
        res = alpha_n(chars, n, tol=tol, budget=budget)
        data[f"alpha_{n}_turns"] = str(res.alpha.exact_turns)
        checks.append(CheckRecord(
            f"grid constant, n={n}", "even grids reach pi exactly",
            res.alpha.lower, res.alpha.exact_turns == Fraction(1, 2)))

    for n in (3, 5):
        res = alpha_n(chars, n, tol=tol, budget=budget)
        expect = Fraction(n - 1, 2 * n)  # pi - pi/n in turns
        data[f"alpha_{n}_turns"] = str(res.alpha.exact_turns)
        checks.append(CheckRecord(
            f"grid constant, n={n}", "odd grids reach the cap pi - pi/n exactly",
            res.alpha.lower, res.alpha.exact_turns == expect))

    # nearest-to-antipode root on the flipped character still forces the cap
    n = 3
    odd_idx = [((n - 1) // 2) if c.torsion_coords == (1, 0, 1) else 0 for c in chars]
    phi_odd = TargetMap.from_grid(chars, n, odd_idx)
    _, br_odd = best_point(chars, phi_odd, budget=budget)
    checks.append(CheckRecord(
        "odd-variant target", "best error == pi - pi/3, exactly",
        br_odd.upper, br_odd.exact_turns == Fraction(1, 3)))

    return VerificationReport(spec, tuple(checks), data)


def _verify_coset(spec, tol, budget) -> VerificationReport:
    n, k_max = spec.grid_order, spec.truncation
    cap = math.pi - math.pi / n
    checks = []
    data: dict = {"n": n, "brackets": []}

    series = coset_alpha_series(n, range(1, k_max + 1), tol=tol,
                                budget_per_step=budget)
    lowers = []
    for k, res in series:
        data["brackets"].append({
            "truncation": k,
            "lower": res.alpha.lower,
            "upper": res.alpha.upper,
            "certified": res.certified,
        })
        lowers.append(res.alpha.lower)
        if n % 2 == 1:
            checks.append(CheckRecord(
                f"upper bound, K={k}", "alpha_n <= pi - pi/n (universal odd bound)",
                res.alpha.upper, res.alpha.upper <= cap + tol))
    checks.append(CheckRecord(
        "lower-bound monotonicity", "certified lower bounds nondecreasing in K",
        lowers, all(b >= a - 1e-9 for a, b in zip(lowers, lowers[1:]))))

    if n % 2 == 0:
        witness = DualPoint(GroupSpec(1), (math.pi / n,), ())
        worst = 0.0
        for k, _ in series:
            chars = make_example(ExampleSpec.coset(n, k))
            worst = max(worst, _farthest_grid_error(chars, n, witness))
        data["witness_error"] = worst
        checks.append(CheckRecord(
            "half-step witness", "every grid target errs <= pi - pi/n at the witness",
            worst, worst <= cap + ANGLE_ATOL))

    return VerificationReport(spec, tuple(checks), data)


def _verify_mixed(spec, tol, budget) -> VerificationReport:
    big_n = spec.big_n
    half_pos, half_neg, union = _mixed_sets(big_n)

    checks = []
    data: dict = {"big_n": big_n}

    ok_pos, _ = quasi_independent(half_pos)
    ok_neg, _ = quasi_independent(half_neg)
    ok_union, witness = quasi_independent(union)
    checks.append(CheckRecord(
        "positive half", "quasi-independent", ok_pos, ok_pos))
    checks.append(CheckRecord(
        "negative half", "quasi-independent", ok_neg, ok_neg))
    checks.append(CheckRecord(
        "union", "not quasi-independent", ok_union, not ok_union))
    if witness is not None:
        data["union_witness"] = list(witness)
        acc = union.group.zero_character()
        for g, c in zip(union, witness):
            if c:
                acc = acc + g if c > 0 else acc - g
        checks.append(CheckRecord(
            "union witness", "returned signing sums to the identity",
            list(witness), acc.is_identity() and any(witness)))
    # the structural relation behind the failure: a pair and its mirror cancel
    pair_sum = union[big_n - 1] + union[big_n]  # (-1; e_1) + (1; e_1)
    checks.append(CheckRecord(
        "mirror pair", "(1; e_1) + (-1; e_1) == identity",
        pair_sum.coords, pair_sum.is_identity()))

    lower, grid_min, u_at = mixed_flip_error(big_n)
    data["flip_error_lower"] = lower
    data["flip_error_grid"] = grid_min
    data["flip_error_u"] = u_at
    checks.append(CheckRecord(
        "sign-flip target", "certified error lower bound (approaches pi with N)",
        lower, None))
    return VerificationReport(spec, tuple(checks), data)


def _verify_hadamard(spec, tol, budget) -> VerificationReport:
    chars = make_example(spec)
    terms = [c.free_coords[0] for c in chars]
    q = spec.ratio
    checks = []
    data: dict = {"terms": terms, "q": q}

    ratios = [b / a for a, b in zip(terms, terms[1:])]
    checks.append(CheckRecord(
        "gap", "consecutive ratios >= q", ratios,
        all(r >= q - 1e-12 for r in ratios)))

    qi, _ = quasi_independent(chars)
    checks.append(CheckRecord(
        "quasi-independence", "expected for q >= 3", qi,
        qi if q >= 3 else None))

    res = alpha(chars, tol=tol, budget=budget)
    data["alpha_lower"] = res.alpha.lower
    data["alpha_upper"] = res.alpha.upper
    data["kappa_lower"], data["kappa_upper"] = res.kappa
    data["certified"] = res.certified
    data["ladder"] = [list(r) for r in res.work.ladder]
    have_level = any(r[3] for r in res.work.ladder)  # a completed level
    checks.append(CheckRecord(
        "bracket", "certified two-sided bracket produced",
        (res.alpha.lower, res.alpha.upper), have_level))

    # the gap bound is stated ambiguously; evaluate the chordal bracket
    # against both readings and report, asserting neither
    k_lo, k_up = res.kappa
    for label, angle in (("pi/(q-1)", math.pi / (q - 1.0)),
                         ("pi*(q-1)", math.pi * (q - 1.0))):
        bound = 2.0 * abs(math.sin(angle / 2.0))
        if k_up <= bound + 1e-12:
            status = "holds"
        elif k_lo > bound:
            status = "violated"
        else:
            status = "undecided"
        data[f"reading[{label}]"] = {"bound": bound, "status": status}
        checks.append(CheckRecord(
            f"gap-bound reading {label}", "kappa bracket vs bound", status, None))

    return VerificationReport(spec, tuple(checks), data)
