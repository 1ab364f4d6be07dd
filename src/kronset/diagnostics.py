"""Separated-set witnesses, counting bounds, and arithmetic diagnostics.

The net machinery builds greedy maximal separated subsets of the dual
group under the set-sup chordal metric and evaluates the volume and
roots-counting lower bounds on their cardinality.  The arithmetic side
checks quasi-independence (no nontrivial {-1,0,1} relation summing to the
identity) and counts pair-sum coincidences.  A classifier turns certified
chordal upper bounds into the sufficient interpolation flags.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._minimax import _dist_array
from .engine import KroneckerResult, _check_limits, _set_data
from .errors import BudgetExceededError
from .groups import (
    ANGLE_ATOL,
    TWO_PI,
    CharacterSet,
    DualPoint,
    chordal_of_angle,
)

#: sufficient-condition thresholds, chordal scale
I0_THRESHOLD = math.sqrt(2.0)
SIDON_THRESHOLD = 2.0


def roots_threshold(n: int) -> float:
    """|1 - e^{i pi (1 - 1/n)}|, the chordal distance from 1 to the farthest
    n-th root of unity."""
    if n < 2:
        raise ValueError("root order must be >= 2")
    return chordal_of_angle(math.pi * (1.0 - 1.0 / n))


@dataclass(frozen=True)
class SeparatedSet:
    """Greedy maximal epsilon-separated subset of a finite candidate universe."""

    chars: CharacterSet
    epsilon: float
    points: tuple[DualPoint, ...]
    universe_size: int

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PisierReport:
    epsilon: float
    cardinality: int
    rate: float                 # log2 |S| / |F|
    condition_met: bool


@dataclass(frozen=True)
class ClassificationReport:
    i0_sufficient: bool
    sidon_by_kappa: bool
    sidon_by_kappa_n: bool
    fired_orders: tuple[int, ...]
    inconclusive: bool
    kappa_bracket: tuple[float, float]
    kappa_n_brackets: tuple[tuple[int, float, float], ...]


def sup_chordal_distance(chars: CharacterSet, x: DualPoint, y: DualPoint) -> float:
    """sup over the set of |gamma(x) - gamma(y)|, the metric of the net
    condition."""
    data = _set_data(chars)
    gap = float(_dist_array(data.point_args(x) - data.point_args(y)).max())
    return chordal_of_angle(gap)


def _universe(chars: CharacterSet, grid_cells: int | None, budget: int):
    """Candidate dual points in canonical order: exact torsion exhaustion,
    an evenly spaced grid on each torus coordinate."""
    group = chars.group
    r, orders = group.free_rank, group.torsion_orders
    if r > 0:
        if not grid_cells or grid_cells < 1:
            raise ValueError("groups with free rank need a torus grid resolution")
        size = grid_cells**r * math.prod(orders) if orders else grid_cells**r
    else:
        size = math.prod(orders)
    if size > budget:
        raise BudgetExceededError(f"candidate universe of {size} points exceeds budget {budget}")
    ranges = [range(grid_cells) for _ in range(r)] + [range(m) for m in orders]
    for combo in itertools.product(*ranges):
        angles = tuple(TWO_PI * t / grid_cells for t in combo[:r])
        yield DualPoint(group, angles, combo[r:])


def maximal_separated_set(chars: CharacterSet, epsilon: float,
                          grid_cells: int | None = None,
                          budget: int = 1_000_000) -> SeparatedSet:
    """Greedy maximal epsilon-separated set over the candidate universe.

    A candidate is admitted iff its set-sup chordal distance to every point
    admitted so far is >= epsilon; the pass order is canonical, so the
    result is deterministic.  Maximality holds relative to the universe:
    every candidate ends up within < epsilon of some member.
    """
    if not 0.0 < epsilon:
        raise ValueError("separation threshold must be positive")
    _check_limits(universe_budget=budget)
    data = _set_data(chars)
    admitted: list[DualPoint] = []
    # arguments of the admitted points in the first rows, grown by doubling
    admitted_args = np.empty((16, data.m))
    count = 0
    # separation compared with the standard slack for mixed exact/float angles
    floor = epsilon - ANGLE_ATOL
    for point in _universe(chars, grid_cells, budget):
        count += 1
        args = data.point_args(point)
        k = len(admitted)
        # chordal_of_angle is increasing, so the nearest admitted point decides
        if k and chordal_of_angle(
                float(_dist_array(args - admitted_args[:k]).max(axis=1).min())) < floor:
            continue
        if k == len(admitted_args):
            admitted_args = np.concatenate([admitted_args, np.empty_like(admitted_args)])
        admitted_args[k] = args
        admitted.append(point)
    return SeparatedSet(chars, float(epsilon), tuple(admitted), count)


def pisier_report(chars: CharacterSet, sep: SeparatedSet) -> PisierReport:
    """Cardinality-rate summary of a separated set: |S| >= 2^{rate |F|} holds
    by construction with rate = log2|S| / |F|."""
    if sep.chars != chars:
        raise ValueError("separated set was built for a different character set")
    rate = math.log2(len(sep.points)) / len(chars)
    return PisierReport(sep.epsilon, len(sep.points), rate,
                        min(sep.epsilon, rate) > 0.0)


def volume_bound(c: float, size_f: int) -> tuple[float, float]:
    """Volume lower bound on a maximal separated set's cardinality.

    c is the chordal radius of the covering cells; eta = 2 arcsin(c/2) is
    the corresponding angular half-width, and each of the |F| coordinates
    of a cell spans at most 2 eta out of 2 pi, giving (pi/eta)^{|F|}.
    """
    if not 0.0 < c < 2.0:
        raise ValueError("chordal radius must lie strictly between 0 and 2")
    if size_f < 1:
        raise ValueError("set size must be >= 1")
    eta = 2.0 * math.asin(c / 2.0)
    return eta, (math.pi / eta) ** size_f


def roots_count_bound(n: int, size_f: int) -> float:
    """Counting lower bound (n/(n-1))^{|F|} from the roots-grid covering."""
    if n < 2:
        raise ValueError("root order must be >= 2")
    if size_f < 0:
        raise ValueError("set size must be >= 0")
    return (n / (n - 1.0)) ** size_f


# ---------------------------------------------------------------------------
# arithmetic diagnostics
# ---------------------------------------------------------------------------

def _signed_sum(chars, indices, signs):
    group = chars.group
    free = [0] * group.free_rank
    tors = [0] * group.torsion_rank
    for idx, sign in zip(indices, signs):
        g = chars[idx]
        for p, a in enumerate(g.free_coords):
            free[p] += sign * a
        for p, t in enumerate(g.torsion_coords):
            tors[p] += sign * t
    return tuple(free), tuple(t % m for t, m in zip(tors, group.torsion_orders))


def _is_zero_sum(chars, indices, signs) -> bool:
    free, tors = _signed_sum(chars, indices, signs)
    return not any(free) and not any(tors)


def _canonical_witness(coeffs) -> tuple[int, ...]:
    for c in coeffs:
        if c != 0:
            return coeffs if c > 0 else tuple(-v for v in coeffs)
    return coeffs


def _quasi_direct(chars: CharacterSet, budget: int):
    """Smallest-support-first search for a {-1,0,1} relation; the leading
    nonzero coefficient is normalized to +1."""
    m = len(chars)
    work = 0
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            for rest in itertools.product((1, -1), repeat=size - 1):
                signs = (1,) + rest
                work += size
                if work > budget:
                    raise BudgetExceededError("signed-sum enumeration exceeded budget")
                if _is_zero_sum(chars, support, signs):
                    witness = [0] * m
                    for idx, sign in zip(support, signs):
                        witness[idx] = sign
                    return False, tuple(witness)
    return True, None


def _quasi_mitm(chars: CharacterSet, budget: int):
    """Meet-in-the-middle over a half split: hash all signed sums of the
    first half, scan the second half for a matching negation."""
    m = len(chars)
    half = (m + 1) // 2
    left, right = range(half), range(half, m)
    if 3 ** len(left) * half > budget:
        raise BudgetExceededError("half-enumeration exceeds budget")

    sums: dict = {}
    zero_key_nonzero = None
    for signs in itertools.product((1, 0, -1), repeat=half):
        key = _signed_sum(chars, left, signs)
        sums.setdefault(key, signs)
        if any(signs) and not any(key[0]) and not any(key[1]) and zero_key_nonzero is None:
            zero_key_nonzero = signs
    if zero_key_nonzero is not None:
        witness = tuple(zero_key_nonzero) + (0,) * (m - half)
        return False, _canonical_witness(witness)

    for signs in itertools.product((1, 0, -1), repeat=m - half):
        free, tors = _signed_sum(chars, right, signs)
        need = (tuple(-a for a in free),
                tuple((-t) % mm for t, mm in zip(tors, chars.group.torsion_orders)))
        hit = sums.get(need)
        if hit is None:
            continue
        if not any(signs) and not any(hit):
            continue
        witness = tuple(hit) + tuple(signs)
        return False, _canonical_witness(witness)
    return True, None


def quasi_independent(chars: CharacterSet, budget: int = 3**16,
                      method: str = "auto"):
    """True iff no nontrivial {-1,0,1}-relation over the set sums to the
    identity; returns (flag, witness coefficients or None)."""
    _check_limits(budget=budget)
    m = len(chars)
    if method == "auto":
        method = "direct" if 3**m * m <= min(budget, 3**13) else "mitm"
    if method == "direct":
        return _quasi_direct(chars, budget)
    if method == "mitm":
        return _quasi_mitm(chars, budget)
    raise ValueError(f"unknown method {method!r}")


def b2_coincidences(chars: CharacterSet, budget: int = 1_000_000):
    """Pair-sum coincidences: unordered pairs of (repetition-allowed) pairs
    with equal sums that are not permutations of each other.

    Returns (count, quadruples); each quadruple is (g1, g2, g3, g4) with
    g1 + g2 = g3 + g4 and {g3, g4} != {g1, g2}, listed deterministically.
    """
    _check_limits(budget=budget)
    m = len(chars)
    n_pairs = m * (m + 1) // 2
    if n_pairs > budget:
        raise BudgetExceededError(f"{n_pairs} pairs exceed budget {budget}")
    by_sum: dict = {}
    for i in range(m):
        for j in range(i, m):
            key = _signed_sum(chars, (i, j), (1, 1))
            by_sum.setdefault(key, []).append((i, j))
    count = 0
    quads = []
    for key in sorted(by_sum):
        group = by_sum[key]
        for (i, j), (k, l) in itertools.combinations(group, 2):
            count += 1
            quads.append((chars[i], chars[j], chars[k], chars[l]))
    return count, quads


def classify(chars: CharacterSet, alpha_result: KroneckerResult,
             roots_results=()) -> ClassificationReport:
    """Sufficient-condition flags from certified upper bounds only.

    A flag fires iff the relevant chordal upper bound lies strictly below
    its threshold; brackets that straddle a threshold leave the set
    inconclusive for that condition.
    """
    if alpha_result.chars != chars:
        raise ValueError("result computed for a different character set")
    kappa_lo, kappa_up = alpha_result.kappa
    i0 = kappa_up < I0_THRESHOLD
    sidon = kappa_up < SIDON_THRESHOLD
    fired = []
    n_brackets = []
    for res in roots_results:
        if res.chars != chars or res.roots_order is None:
            raise ValueError("roots results must target the same set")
        lo, up = res.kappa
        n_brackets.append((res.roots_order, lo, up))
        if up < roots_threshold(res.roots_order):
            fired.append(res.roots_order)
    by_roots = bool(fired)
    return ClassificationReport(
        i0_sufficient=i0,
        sidon_by_kappa=sidon,
        sidon_by_kappa_n=by_roots,
        fired_orders=tuple(sorted(fired)),
        inconclusive=not (i0 or sidon or by_roots),
        kappa_bracket=(kappa_lo, kappa_up),
        kappa_n_brackets=tuple(n_brackets),
    )
