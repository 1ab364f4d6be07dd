"""Certified brackets for angular interpolation constants of character sets.

For a finite set E of characters, the quantities computed here are the
worst-case best approximation errors

    sup over targets phi   of   inf over dual points x   of
        max_{gamma in E} dist(phi(gamma), arg gamma(x))

with targets ranging either over maps into the n-th-roots angle grid
(`alpha_n`) or over all angle-valued maps (`alpha`, bracketed through the
grid ladder).  Every returned bracket is two-sided and sound: lower ends
come from solved targets, upper ends from exhaustive enumeration, the
universal farthest-root cap, or the grid-rounding bound.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._minimax import _dist_array, min_error_box, min_error_circle, solve_torsion_units
from .errors import BudgetExceededError
from .groups import (
    ANGLE_ATOL,
    TWO_PI,
    CharacterSet,
    DualPoint,
    angular_distance,
    chordal_of_angle,
    evaluate_arg,
)

DEFAULT_TOL = 1e-3
DEFAULT_BUDGET = 10**8
#: largest roots-grid order the continuous-constant ladder will climb to
LADDER_MAX_ORDER = 1 << 13
#: most targets one process-pool task solves ahead of the scan
MAX_RUN = 16


class Budget:
    """Mutable work counter; raises once the evaluation limit is crossed."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.used = 0

    def charge(self, amount: int):
        self.used += int(amount)
        if self.used > self.limit:
            raise BudgetExceededError(f"work budget of {self.limit} inner evaluations exceeded")

    @property
    def remaining(self) -> int:
        return self.limit - self.used


def grid_cap(n: int) -> float:
    """Largest possible arc distance from an angle to the n-th-roots grid's
    worst target, i.e. the distance from 1 to the farthest n-th root."""
    if n < 2:
        raise ValueError("grid order must be >= 2")
    return math.pi if n % 2 == 0 else math.pi * (n - 1) / n


@dataclass(frozen=True)
class TargetMap:
    """Angles assigned to each character of a set, in canonical set order."""

    chars: CharacterSet
    angles: tuple[float, ...]
    roots_order: int | None = None
    grid_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.angles) != len(self.chars):
            raise ValueError("one target angle per character required")
        angles = tuple(float(a) % TWO_PI for a in self.angles)
        object.__setattr__(self, "angles", angles)
        if self.roots_order is not None:
            n = self.roots_order
            if n < 2:
                raise ValueError("roots grid order must be >= 2")
            if self.grid_indices is None or len(self.grid_indices) != len(angles):
                raise ValueError("grid targets need one root index per character")
            for j, a in zip(self.grid_indices, angles):
                if not 0 <= j < n or abs(a - TWO_PI * j / n) > ANGLE_ATOL:
                    raise ValueError("target angles disagree with their grid indices")

    @classmethod
    def from_angles(cls, chars: CharacterSet, angles) -> "TargetMap":
        return cls(chars, tuple(float(a) for a in angles))

    @classmethod
    def from_grid(cls, chars: CharacterSet, n: int, indices) -> "TargetMap":
        idx = tuple(int(j) % n for j in indices)
        return cls(chars, tuple(TWO_PI * j / n for j in idx), n, idx)

    def translated(self, y: DualPoint) -> "TargetMap":
        """Target shifted by the character arguments of a dual point."""
        return TargetMap.from_angles(
            self.chars, [a + evaluate_arg(g, y) for a, g in zip(self.angles, self.chars)]
        )

    def negated(self) -> "TargetMap":
        if self.roots_order is not None:
            return TargetMap.from_grid(self.chars, self.roots_order,
                                       [-j for j in self.grid_indices])
        return TargetMap.from_angles(self.chars, [-a for a in self.angles])


@dataclass(frozen=True)
class ErrorBracket:
    """Two-sided enclosure [lower, upper] of an angular error, in [0, pi]."""

    lower: float
    upper: float
    exact_turns: Fraction | None = None

    def __post_init__(self):
        lo = min(max(self.lower, 0.0), math.pi)
        hi = min(max(self.upper, 0.0), math.pi)
        if lo > hi:
            if lo - hi > 1e-9:
                raise ValueError(f"inverted bracket [{self.lower}, {self.upper}]")
            lo = hi
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def chordal(self) -> tuple[float, float]:
        return chordal_of_angle(self.lower), chordal_of_angle(self.upper)


@dataclass
class WorkStats:
    targets_enumerated: int = 0
    targets_pruned: int = 0
    inner_evals: int = 0
    budget_exhausted: bool = False
    ladder: tuple = ()


@dataclass(frozen=True)
class KroneckerResult:
    """Certified bracket plus the witnesses that realise its lower end."""

    chars: CharacterSet
    alpha: ErrorBracket
    roots_order: int | None
    worst_target: TargetMap | None
    witness_point: DualPoint | None
    work: WorkStats
    certified: bool

    @property
    def kappa(self) -> tuple[float, float]:
        return self.alpha.chordal()


# ---------------------------------------------------------------------------
# cached per-set arrays
# ---------------------------------------------------------------------------

class _SetData:
    def __init__(self, chars: CharacterSet):
        g = chars.group
        self.chars = chars
        self.m = len(chars)
        self.r = g.free_rank
        self.s = g.torsion_rank
        self.orders = g.torsion_orders
        self.lcm = g.torsion_lcm
        self.free = np.array(
            [c.free_coords for c in chars], dtype=np.int64
        ).reshape(self.m, self.r)
        self.torsion = [c.torsion_coords for c in chars]
        # one torsion step of factor i moves character k by unit_rows[k][i],
        # measured in turns/lcm
        self.unit_rows = tuple(
            tuple(t * (self.lcm // m) for t, m in zip(row, self.orders))
            for row in self.torsion
        )
        if self.s:
            self.tau = np.array(
                [[TWO_PI * t / m for t, m in zip(row, self.orders)] for row in self.torsion]
            )
        else:
            self.tau = np.zeros((self.m, 0))
        self.slopes = self.free[:, 0].copy() if self.r == 1 else None

    def selections(self):
        if not self.s:
            return iter([()])
        return itertools.product(*[range(m) for m in self.orders])

    def point_args(self, point: DualPoint) -> np.ndarray:
        """arg gamma(point) for every character, vectorized."""
        args = np.zeros(self.m)
        if self.r:
            args += self.free @ np.asarray(point.torus_angles)
        if self.s:
            args += self.tau @ np.asarray(point.torsion_selections)
        return args


@lru_cache(maxsize=256)
def _set_data(chars: CharacterSet) -> _SetData:
    return _SetData(chars)


def approx_error(chars: CharacterSet, phi: TargetMap, x: DualPoint) -> float:
    """max over the set of the arc distance between target and evaluation."""
    if phi.chars != chars:
        raise ValueError("target map was built for a different character set")
    return max(
        angular_distance(a, evaluate_arg(g, x)) for a, g in zip(phi.angles, chars)
    )


# ---------------------------------------------------------------------------
# single-target inner minimization over the dual group
# ---------------------------------------------------------------------------

def _solve_target(data: _SetData, angles: np.ndarray, grid, tol: float,
                  budget: Budget):
    """Bracket inf over the dual of the worst-coordinate error for one target.

    `grid` is (n, indices) when the target lies on the n-th-roots grid,
    which unlocks exact integer arithmetic on purely torsion groups.
    Returns (lower, upper, DualPoint, exact_turns | None).
    """
    group = data.chars.group
    if data.r == 0:
        if grid is not None:
            n, indices = grid
            modulus = math.lcm(data.lcm, n)
            scale = modulus // data.lcm
            rows = [tuple(u * scale for u in row) for row in data.unit_rows]
            targets = [j * (modulus // n) for j in indices]
            units, sel = solve_torsion_units(rows, modulus, targets, data.selections(), budget)
            val = math.tau * units / modulus
            return val, val, DualPoint(group, (), sel), Fraction(units, modulus)
        best_val, best_sel = None, None
        for sel in data.selections():
            budget.charge(data.m)
            val = 0.0
            for a, row in zip(angles, data.unit_rows):
                au = sum(u * c for u, c in zip(row, sel)) % data.lcm
                val = max(val, angular_distance(float(a), TWO_PI * au / data.lcm))
            if best_val is None or val < best_val:
                best_val, best_sel = val, sel
        return best_val, best_val, DualPoint(group, (), best_sel), None

    best = None
    lower = math.inf
    for sel in data.selections():
        psi = angles - (data.tau @ np.asarray(sel) if data.s else 0.0)
        if data.r == 1:
            theta, lo, up = min_error_circle(data.slopes, psi, budget)
            theta_vec = (theta,)
        else:
            theta_arr, lo, up = min_error_box(data.free, psi, tol, budget)
            theta_vec = tuple(float(t) for t in theta_arr)
        lower = min(lower, lo)
        if best is None or up < best[0]:
            best = (up, theta_vec, sel)
    upper, theta_vec, sel = best
    return lower, upper, DualPoint(group, theta_vec, sel), None


def best_point(chars: CharacterSet, phi: TargetMap, tol: float = DEFAULT_TOL,
               budget: int = DEFAULT_BUDGET):
    """Dual point nearly minimizing the error for one target, with a bracket.

    The bracket encloses the true infimum over the whole dual group; its
    upper end is attained by the returned point.  Raises
    BudgetExceededError when the budget runs out before the bracket is
    narrower than tol.
    """
    if phi.chars != chars:
        raise ValueError("target map was built for a different character set")
    data = _set_data(chars)
    b = Budget(budget)
    grid = (phi.roots_order, phi.grid_indices) if phi.roots_order else None
    lower, upper, point, exact = _solve_target(data, np.asarray(phi.angles), grid, tol, b)
    attained = approx_error(chars, phi, point)
    bracket = ErrorBracket(min(lower, attained), attained, exact)
    if bracket.width > tol + ANGLE_ATOL:
        raise BudgetExceededError(
            f"bracket width {bracket.width:.3g} exceeds tolerance {tol:.3g}"
        )
    return point, bracket


# ---------------------------------------------------------------------------
# symmetry-reduced enumeration of roots-grid targets
# ---------------------------------------------------------------------------

def _symmetry_shifts(data: _SetData, n: int):
    """Subgroup of target shifts phi -> phi + (arg gamma(y)) with y running
    over dual points whose character arguments all lie on the n-grid."""
    gens = set()
    for j in range(data.r):
        vec = tuple(int(a) % n for a in data.free[:, j])
        if any(vec):
            gens.add(vec)
    for i in range(data.s):
        m_i = data.orders[i]
        col = [row[i] for row in data.torsion]
        if all((n * t) % m_i == 0 for t in col):
            vec = tuple((t * n // m_i) % n for t in col)
            if any(vec):
                gens.add(vec)
    zero = (0,) * data.m
    cap = max(4 * n, 64)
    # any subgroup of the full shift group is a sound quotient, so fall back
    # to fewer generators (ultimately none) if the closure grows too large
    for gen_set in (sorted(gens), sorted(gens)[:1], []):
        closure = {zero}
        frontier = [zero]
        while frontier and len(closure) <= cap:
            v = frontier.pop()
            for g in gen_set:
                w = tuple((a + b) % n for a, b in zip(v, g))
                if w not in closure:
                    closure.add(w)
                    frontier.append(w)
        if len(closure) <= cap:
            return sorted(closure)
    return [zero]


def _canonical_targets(m: int, n: int, transforms):
    """Lexicographically minimal representatives of target-grid orbits.

    transforms is a list of (sign, shift vector) pairs; a leaf is yielded
    iff no transform maps it to a lexicographically smaller index tuple.
    """
    idx = [0] * m

    def rec(d: int, active):
        if d == m:
            yield tuple(idx)
            return
        for v in range(n):
            ok = True
            nxt = []
            for s, sh in active:
                tv = (s * v + sh[d]) % n
                if tv < v:
                    ok = False
                    break
                if tv == v:
                    nxt.append((s, sh))
            if not ok:
                continue
            idx[d] = v
            yield from rec(d + 1, nxt)

    yield from rec(0, transforms)


@dataclass
class _Incumbent:
    lower: float
    upper: float
    indices: tuple[int, ...]
    point: DualPoint
    exact: Fraction | None


def _scan_targets(data: _SetData, n: int, items, tol: float, budget: Budget,
                  cap: float, stats: WorkStats):
    """Solve targets in scan order, keeping the incumbent worst target.

    items yields (indices, solved): a (solution, cost) pair solved ahead by
    a pool is used only if the cost fits in the remaining budget, else the
    target is solved here, so charges and stops match a run without a pool.

    Returns (best, global_hi, status) where status is 'capped' when the
    incumbent reached the universal cap, 'done' when the iterator was
    exhausted, and 'budget' when the work limit was hit.
    """
    step = TWO_PI / n
    probe_args = deque(maxlen=4)
    probe_args.append(np.zeros(data.m))  # identity of the dual group
    best = None
    global_hi = 0.0
    status = "done"
    for indices, solved in items:
        angles = np.array(indices, dtype=np.float64) * step
        try:
            if best is not None:
                # a cheap upper bound at probe points can rule the target out
                pruned = False
                for args in probe_args:
                    budget.charge(data.m)
                    if float(_dist_array(angles - args).max()) <= best.lower:
                        pruned = True
                        break
                if pruned:
                    stats.targets_pruned += 1
                    continue
            if solved is not None and solved[1] <= budget.remaining:
                solution, cost = solved
                budget.charge(cost)
            else:
                solution = _solve_target(data, angles, (n, tuple(indices)), tol, budget)
        except BudgetExceededError:
            status = "budget"
            break
        lower, upper, point, exact = solution
        stats.targets_enumerated += 1
        global_hi = max(global_hi, upper)
        if best is None or lower > best.lower:
            best = _Incumbent(lower, upper, tuple(indices), point, exact)
            probe_args.append(data.point_args(point))
        if best.lower >= cap - tol:
            status = "capped"
            break
    return best, global_hi, status


def _solve_run(chars: CharacterSet, n: int, tol: float, limit: int, run):
    """Process-pool worker: (solution, budget units charged) per target of a
    run, stopping before the first target that takes the run past `limit`."""
    data = _set_data(chars)
    budget = Budget(limit)
    solved = []
    for indices in run:
        used = budget.used
        angles = np.array(indices, dtype=np.float64) * (TWO_PI / n)
        try:
            solution = _solve_target(data, angles, (n, indices), tol, budget)
        except BudgetExceededError:
            break
        solved.append((solution, budget.used - used))
    return solved


def _solved_ahead(chars: CharacterSet, n: int, tol: float, budget: Budget,
                  idx_iter, threads: int):
    """Yield (indices, solved) in idx_iter order, solved being the (solution,
    cost) a pool of `threads` workers found, or None.  At most 2*threads runs
    are in flight, each capped by the budget left when submitted; runs double
    from one target up to MAX_RUN, so short scans still use every worker."""
    in_flight = deque()
    size = 1
    with ProcessPoolExecutor(max_workers=threads) as pool:
        while True:
            while len(in_flight) < 2 * threads:
                run = list(itertools.islice(idx_iter, size))
                if not run:
                    break
                in_flight.append((run, pool.submit(_solve_run, chars, n, tol,
                                                   budget.remaining, run)))
                size = min(2 * size, MAX_RUN)
            if not in_flight:
                return
            run, future = in_flight.popleft()
            yield from itertools.zip_longest(run, future.result())


def alpha_n(chars: CharacterSet, n: int, tol: float = DEFAULT_TOL,
            budget: int = DEFAULT_BUDGET, threads: int = 1,
            seed_targets=()) -> KroneckerResult:
    """Certified bracket for the n-th-roots-grid interpolation constant.

    Enumerates one representative per orbit of the target grid under
    translation and negation symmetry, solving the inner minimization for
    each.  seed_targets (index tuples) are solved first, which both raises
    the incumbent early and, across growing sets, keeps certified lower
    bounds monotone.  If the budget runs out a partial result is returned
    with certified=False: its lower end is still sound, the upper end falls
    back to the universal cap.

    threads > 1 starts worker processes that solve targets ahead of the one
    scan; every field of the result, work counters included, is the same for
    any thread count.
    """
    if n < 2:
        raise ValueError("roots grid order must be >= 2")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    data = _set_data(chars)
    cap = grid_cap(n)
    shifts = _symmetry_shifts(data, n)
    transforms = [
        (s, sh) for s in (1, -1) for sh in shifts if not (s == 1 and not any(sh))
    ]
    # large first coordinates violate canonicity earliest, so scanning them
    # first keeps the enumeration's per-node cost near constant
    transforms.sort(key=lambda t: t[1], reverse=True)
    stats = WorkStats()
    seeds = [tuple(int(j) % n for j in seed) for seed in seed_targets]
    for seed in seeds:
        if len(seed) != data.m:
            raise ValueError("seed target has wrong number of entries")

    budget_obj = Budget(budget)
    idx_iter = itertools.chain(seeds, _canonical_targets(data.m, n, transforms))
    items = ((indices, None) for indices in idx_iter)
    if threads > 1:
        items = _solved_ahead(chars, n, tol, budget_obj, idx_iter, threads)
    with contextlib.closing(items):
        best, global_hi, status = _scan_targets(data, n, items, tol, budget_obj, cap, stats)
    stats.inner_evals = budget_obj.used

    if best is None:
        bracket = ErrorBracket(0.0, cap)
        worst = witness = None
        certified = False
    else:
        worst = TargetMap.from_grid(chars, n, best.indices)
        witness = best.point
        if status == "capped":
            bracket = ErrorBracket(best.lower, cap, _cap_turns(n, best.exact))
            certified = True
        elif status == "done":
            bracket = ErrorBracket(best.lower, min(max(global_hi, best.lower), cap),
                                   best.exact)
            certified = True
        else:
            bracket = ErrorBracket(best.lower, cap)
            certified = False
    stats.budget_exhausted = status == "budget"
    return KroneckerResult(chars, bracket, n, worst, witness, stats, certified)


def _cap_turns(n: int, exact: Fraction | None) -> Fraction | None:
    """Keep the exact value on a cap exit only when it equals the cap."""
    if exact is None:
        return None
    cap_turns = Fraction(1, 2) if n % 2 == 0 else Fraction(n - 1, 2 * n)
    return exact if exact == cap_turns else None


def alpha(chars: CharacterSet, tol: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET,
          threads: int = 1, max_order: int = LADDER_MAX_ORDER) -> KroneckerResult:
    """Certified bracket for the continuous-target interpolation constant.

    Climbs the doubling ladder of roots-grid orders: rounding a continuous
    target to the n-grid moves every coordinate by at most pi/n, so the
    grid constant brackets the continuous one within [value_n, value_n +
    pi/n].  Stops when the requested width is reached, the ladder limit is
    hit, or the budget is spent; the last two return certified=False with
    the narrowest bracket found so far.
    """
    lower, upper = 0.0, math.pi
    remaining = int(budget)
    ladder = []
    best_rung = None
    certified = False
    stats = WorkStats()
    n = 2
    while True:
        rung = alpha_n(chars, n, tol=tol / 2, budget=remaining, threads=threads)
        remaining -= rung.work.inner_evals
        stats.inner_evals += rung.work.inner_evals
        stats.targets_enumerated += rung.work.targets_enumerated
        stats.targets_pruned += rung.work.targets_pruned
        if best_rung is None or rung.alpha.lower >= lower:
            best_rung = rung
        lower = max(lower, rung.alpha.lower)
        if rung.certified:
            upper = min(upper, rung.alpha.upper + math.pi / n)
        upper = max(lower, min(upper, math.pi))
        ladder.append((n, rung.alpha.lower, rung.alpha.upper, rung.certified))
        if upper - lower <= tol:
            certified = True
            break
        if not rung.certified or 2 * n > max_order or remaining <= 0:
            break
        n *= 2
    stats.ladder = tuple(ladder)
    stats.budget_exhausted = not certified and remaining <= 0
    exact = None
    if (
        best_rung is not None
        and best_rung.alpha.exact_turns is not None
        and upper == lower
    ):
        exact = best_rung.alpha.exact_turns
    bracket = ErrorBracket(lower, upper, exact)
    return KroneckerResult(
        chars,
        bracket,
        None,
        best_rung.worst_target if best_rung else None,
        best_rung.witness_point if best_rung else None,
        stats,
        certified,
    )
