"""Certified brackets for angular interpolation constants of character sets.

For a finite set E of characters, the quantities computed here are the
worst-case best approximation errors

    sup over targets phi   of   inf over dual points x   of
        max_{gamma in E} dist(phi(gamma), arg gamma(x))

with targets ranging either over maps into the n-th-roots angle grid
(`alpha_n`) or over all angle-valued maps (`alpha`, bracketed by refining
grid cells of the target torus).  Every returned bracket is two-sided and
sound: lower ends come from solved targets, upper ends from exhaustive
enumeration, the universal farthest-root cap, or the cell bound
value(t) + pi/n over order-n cells that cover the target torus.  For sets
in Z, refined cells take their values from a few integer lifts of the
target kept by the cell they were split from.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ._minimax import (
    LIFT_EPS,
    _dist_array,
    line_distances,
    line_term_count,
    line_witness,
    min_error_box,
    min_error_circle,
    solve_torsion_units,
)
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

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

DEFAULT_TOL = 1e-3
DEFAULT_BUDGET = 10**8
#: largest roots-grid order the continuous-constant refinement will reach
LADDER_MAX_ORDER = 1 << 13
#: most targets one process-pool task solves ahead of the scan
MAX_RUN = 16
#: open cells split per batch of refined children
PARENT_BATCH = 8
#: an open cell of radius r keeps the lifts within LIFT_REACH * r of its
#: value: enough to hold the best lift of every descendant cell
LIFT_REACH = 4
#: largest set whose cells carry lifts.  A split makes 3^m - 1 children, so
#: for larger sets cheap cells let the budget reach open levels of ~10^6
#: cells, whose bookkeeping then costs more time and memory than the solves
LIFT_MAX_SIZE = 3


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
    #: why the scan stopped: 'done', 'capped', 'budget' or (alpha) 'max_order'
    stop_reason: str = "done"
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
                  budget: Budget, lift_margin: float | None = None):
    """Bracket inf over the dual of the worst-coordinate error for one target.

    `grid` is (n, indices) when the target lies on the n-th-roots grid,
    which unlocks exact integer arithmetic on purely torsion groups.
    Returns (lower, upper, DualPoint, exact_turns | None, lifts), lifts
    being the circle lifts within lift_margin of the value for a set in Z
    (see `_minimax.circle_lifts`), else None.
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
            return val, val, DualPoint(group, (), sel), Fraction(units, modulus), None
        best_val, best_sel = None, None
        for sel in data.selections():
            budget.charge(data.m)
            val = 0.0
            for a, row in zip(angles, data.unit_rows):
                au = sum(u * c for u, c in zip(row, sel)) % data.lcm
                val = max(val, angular_distance(float(a), TWO_PI * au / data.lcm))
            if best_val is None or val < best_val:
                best_val, best_sel = val, sel
        return best_val, best_val, DualPoint(group, (), best_sel), None, None

    if data.r == 1 and data.s == 0 and lift_margin is not None:
        theta, lo, up, lifts = min_error_circle(data.slopes, angles, budget,
                                                lift_margin=lift_margin)
        return lo, up, DualPoint(group, (theta,), ()), None, lifts
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
    return lower, upper, DualPoint(group, theta_vec, sel), None, None


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
    lower, upper, point, exact, _ = _solve_target(data, np.asarray(phi.angles), grid, tol, b)
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


def _canonical_iter(data: _SetData, n: int):
    """One order-n target per orbit under translation and negation."""
    transforms = [
        (s, sh) for s in (1, -1) for sh in _symmetry_shifts(data, n)
        if not (s == 1 and not any(sh))
    ]
    # large first coordinates violate canonicity earliest, so scanning them
    # first keeps the enumeration's per-node cost near constant
    transforms.sort(key=lambda t: t[1], reverse=True)
    return _canonical_targets(data.m, n, transforms)


def _shift_basis(data: _SetData, n: int) -> list:
    """Echelon basis of the order-n shift group H of `_symmetry_shifts`: the
    d-th row is an element with zeros before coordinate d and the least
    positive coordinate d among such elements (None if they all have 0)."""
    group = np.array(_symmetry_shifts(data, n), dtype=np.int64).reshape(-1, data.m)
    basis = []
    for d in range(data.m):
        col = np.where(group[:, d] > 0, group[:, d], n)
        basis.append(group[col.argmin()] if col.min() < n else None)
        group = group[group[:, d] == 0]
    return basis


def _orbit_reps(cells: np.ndarray, basis: list, n: int) -> np.ndarray:
    """Lexicographically least image of each row of `cells` under the order-n
    target transforms v -> +-v + h, h in the group with echelon `basis`."""
    k = len(cells)
    both = np.concatenate([cells, -cells % n])
    # subtracting multiples of the d-th basis row takes coordinate d to its
    # least value and keeps the earlier coordinates
    for d, h in enumerate(basis):
        if h is not None:
            both = (both - (both[:, d] // h[d])[:, None] * h) % n
    plus, minus = both[:k], both[k:]
    first = (plus != minus).argmax(axis=1)
    rows = np.arange(k)
    take = minus[rows, first] < plus[rows, first]
    return np.where(take[:, None], minus, plus)


def _orbit_keys(rows: np.ndarray, n: int) -> list:
    """Integer key of each order-n index row (its digits in base n)."""
    m = rows.shape[1]
    if m * math.log2(n) < 62:
        return (rows @ (n ** np.arange(m - 1, -1, -1, dtype=np.int64))).tolist()
    keys = []
    for row in rows.tolist():
        key = 0
        for c in row:
            key = key * n + c
        keys.append(key)
    return keys


def _children(data: _SetData, parents: np.ndarray, lifts: list, basis: list, n: int,
              seen: set):
    """Order-n targets 2t + d, d in {-1, 0, 1}^m other than 0, whose cells of
    radius pi/n cover the order-n/2 cells of the rows t of `parents`: one per
    orbit, skipping orbits whose key is in `seen`, as (indices, solved).

    A parent's lifts (or None) hold the best lift of each of its children,
    whose value is then the least inner value over them: solved is
    ((value - slack, value + slack, None, None, child lifts), cost) for such
    a child, the slack covering the rounding of the closed form, the child
    keeping the lifts within LIFT_REACH * pi/n of its value.  Children of a
    parent without lifts have solved None.
    """
    m = parents.shape[1]
    offsets = np.array([d for d in itertools.product((-1, 0, 1), repeat=m) if any(d)],
                       dtype=np.int64)
    margin = LIFT_REACH * math.pi / n
    terms = line_term_count(data.slopes) if data.slopes is not None else 0
    slack = 1e-12 * max(1.0, float(np.abs(data.free).max(initial=0))) ** 2
    for start in range(0, len(parents), PARENT_BATCH):
        raw = 2 * parents[start:start + PARENT_BATCH, None, :] + offsets
        kids = raw % n
        keys = iter(_orbit_keys(_orbit_reps(kids.reshape(-1, m), basis, n), n))
        for p, parent_lifts in enumerate(lifts[start:start + PARENT_BATCH]):
            new = []
            for c, key in zip(range(len(offsets)), keys):
                if key not in seen:
                    seen.add(key)
                    new.append(c)
            if parent_lifts is None:
                for row in kids[p, new].tolist():
                    yield tuple(row), None
                continue
            nu = parent_lifts[0]
            # values at the unwrapped angles raw * 2pi/n, nearest the parent
            vals = line_distances(data.slopes, raw[p, new][:, None, :] * (TWO_PI / n)
                                  + TWO_PI * nu[None, :, :])
            values = vals.min(axis=1)
            near = vals <= values[:, None] + (margin + LIFT_EPS)
            wraps = raw[p, new] // n
            cost = len(nu) * terms
            for c, (row, value) in enumerate(zip(kids[p, new].tolist(), values.tolist())):
                child_lifts = (nu[near[c]] + wraps[c], vals[c][near[c]])
                yield tuple(row), ((max(0.0, value - slack), value + slack, None, None,
                                    child_lifts), cost)


def _near_lifts(lifts, cut: float):
    """The lifts (nu, values) whose value is at most cut, or None."""
    if lifts is None:
        return None
    nu, vals = lifts
    near = vals <= cut + LIFT_EPS
    return nu[near], vals[near]


def _lift_point(data: _SetData, angles: np.ndarray, lifts) -> DualPoint:
    """Dual point attaining the least inner value over `lifts` at angles."""
    nu, vals = lifts
    s = line_witness(data.slopes, angles + TWO_PI * nu[int(vals.argmin())])
    return DualPoint(data.chars.group, (s % TWO_PI,), ())


@dataclass
class _Incumbent:
    lower: float
    upper: float
    order: int
    indices: tuple[int, ...]
    point: DualPoint
    exact: Fraction | None


@dataclass
class _Scan:
    """What the scans of one computation share: the incumbent worst target,
    the last few witness points used as probes, the budget, the work
    counters and the pool of `threads` workers, if any, that solves targets
    ahead.  `tol` is the inner-solve tolerance and the cap-exit margin."""

    data: _SetData
    tol: float
    budget: Budget
    pool: ProcessPoolExecutor | None = None
    threads: int = 1
    stats: WorkStats = field(default_factory=WorkStats)
    best: _Incumbent | None = None
    probe_args: deque = field(init=False)

    def __post_init__(self):
        # the identity of the dual group is the first probe
        self.probe_args = deque([np.zeros(self.data.m)], maxlen=4)


def _scan_targets(scan: _Scan, n: int, items, cap: float, radius: float = 0.0,
                  slack: float = 0.0, opened: list | None = None,
                  lift_margin: float | None = None):
    """Solve order-n targets in scan order, keeping the incumbent worst target.

    Each target stands for the cell of targets within `radius` of it in
    every coordinate.  The inner minimum is 1-Lipschitz in the target, so
    value + radius bounds the whole cell; the cell closes once that bound is
    within `slack` of the incumbent's lower end.  A probe point's error is a
    value bound that closes a cell without solving it (a pruned target).
    Solved cells that stay open are appended to `opened` as (indices,
    upper, lifts), lifts being those within lift_margin of the value.

    items yields (indices, solved): a (solution, cost) pair solved ahead by
    a pool is used only if the cost fits in the remaining budget, else the
    target is solved here, so charges and stops match a run without a pool.
    A solution from lifts (no witness point, see `_children`) skips the
    probes and is always used; its witness is found if it raises the
    incumbent.

    Returns (closed_hi, open_hi, status): the largest bound over closed and
    over open cells, and 'capped' when the incumbent reached `cap`, 'done'
    when the iterator was exhausted, 'budget' when the work limit was hit.
    """
    data, budget, stats, tol = scan.data, scan.budget, scan.stats, scan.tol
    best = scan.best
    step = TWO_PI / n
    closed_hi = open_hi = 0.0
    status = "done"
    for indices, solved in items:
        lifted = solved is not None and solved[0][2] is None
        if not lifted:
            angles = np.array(indices, dtype=np.float64) * step
        try:
            if best is not None and not lifted:
                probed = None
                for args in scan.probe_args:
                    budget.charge(data.m)
                    bound = float(_dist_array(angles - args).max()) + radius
                    if bound - best.lower <= slack:
                        probed = bound
                        break
                if probed is not None:
                    stats.targets_pruned += 1
                    closed_hi = max(closed_hi, probed)
                    continue
            if lifted or (solved is not None and solved[1] <= budget.remaining):
                solution, cost = solved
                budget.charge(cost)
            else:
                solution = _solve_target(data, angles, (n, tuple(indices)), tol, budget,
                                         lift_margin)
        except BudgetExceededError:
            status = "budget"
            break
        lower, upper, point, exact, lifts = solution
        stats.targets_enumerated += 1
        if best is None or lower > best.lower:
            if point is None:
                point = _lift_point(data, np.array(indices, dtype=np.float64) * step, lifts)
            scan.best = best = _Incumbent(lower, upper, n, tuple(indices), point, exact)
            scan.probe_args.append(data.point_args(point))
        bound = upper + radius
        if bound - best.lower <= slack:
            closed_hi = max(closed_hi, bound)
        else:
            open_hi = max(open_hi, bound)
            if opened is not None:
                opened.append((tuple(indices), upper, lifts))
        if best.lower >= cap - tol:
            status = "capped"
            break
    return closed_hi, open_hi, status


def _solve_run(chars: CharacterSet, n: int, tol: float, limit: int, run,
               lift_margin: float | None = None):
    """Process-pool worker: (solution, budget units charged) per target of a
    run, stopping before the first target that takes the run past `limit`."""
    data = _set_data(chars)
    budget = Budget(limit)
    solved = []
    for indices in run:
        used = budget.used
        angles = np.array(indices, dtype=np.float64) * (TWO_PI / n)
        try:
            solution = _solve_target(data, angles, (n, indices), tol, budget, lift_margin)
        except BudgetExceededError:
            break
        solved.append((solution, budget.used - used))
    return solved


def _solved_ahead(scan: _Scan, n: int, items, lift_margin: float | None):
    """Pass on the (indices, solved) pairs of `items`, the pairs without a
    solution getting the (solution, cost) the scan's pool found, or None.
    At most 2*threads runs are in flight, each capped by the budget left
    when submitted; runs double from one target up to MAX_RUN, so short
    scans still use every worker."""
    in_flight = deque()
    size = 1
    while True:
        while len(in_flight) < 2 * scan.threads:
            run = list(itertools.islice(items, size))
            if not run:
                break
            todo = [indices for indices, solved in run if solved is None]
            future = scan.pool.submit(_solve_run, scan.data.chars, n, scan.tol,
                                      scan.budget.remaining, todo, lift_margin) if todo else None
            in_flight.append((run, future))
            size = min(2 * size, MAX_RUN)
        if not in_flight:
            return
        run, future = in_flight.popleft()
        ahead = iter(future.result() if future is not None else ())
        for indices, solved in run:
            yield indices, next(ahead, None) if solved is None else solved


def _scan_items(scan: _Scan, n: int, items, lift_margin: float | None = None):
    """The (indices, solved) pairs of `items` for `_scan_targets`, those
    without a solution solved ahead by the scan's pool if it has one."""
    if scan.pool is not None:
        return _solved_ahead(scan, n, items, lift_margin)
    return items


def _pool(threads: int):
    """Worker processes for a computation with `threads` > 1 (none for one
    thread); ValueError for threads < 1."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1:
        return contextlib.nullcontext()
    # imported here: the process machinery is a sizeable share of the
    # library's import time and memory, and single-threaded calls need none
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=threads)


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
    data = _set_data(chars)
    cap = grid_cap(n)
    seeds = [tuple(int(j) % n for j in seed) for seed in seed_targets]
    for seed in seeds:
        if len(seed) != data.m:
            raise ValueError("seed target has wrong number of entries")

    idx_iter = itertools.chain(seeds, _canonical_iter(data, n))
    with _pool(threads) as pool:
        scan = _Scan(data, tol, Budget(budget), pool, threads)
        cells = ((indices, None) for indices in idx_iter)
        with contextlib.closing(_scan_items(scan, n, cells)) as items:
            closed_hi, open_hi, status = _scan_targets(scan, n, items, cap)
    best, stats = scan.best, scan.stats
    stats.inner_evals = scan.budget.used

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
            global_hi = max(closed_hi, open_hi)
            bracket = ErrorBracket(best.lower, min(max(global_hi, best.lower), cap),
                                   best.exact)
            certified = True
        else:
            bracket = ErrorBracket(best.lower, cap)
            certified = False
    stats.budget_exhausted = status == "budget"
    stats.stop_reason = status
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

    Lipschitz refinement of cells over the target torus, one level per
    roots-grid order n = 2, 4, 8, ...: an order-n target t stands for the
    cell of continuous targets within pi/n of it in every coordinate, and
    the inner minimum is 1-Lipschitz in the target, so value(t) + pi/n
    bounds the cell.  Level 2 scans every order-2 orbit; a cell whose bound
    is within tol of the incumbent lower end closes, and each open cell is
    split into the order-2n cells around 2t + {-1, 0, 1}^m, one target per
    orbit under translation and negation.  For a set of at most
    LIFT_MAX_SIZE characters in Z an open cell keeps its nearby lifts (see
    `_minimax.circle_lifts`), which give the exact value of every cell
    refined from it without a full solve.  The upper end is the least, over
    completed levels, of the largest bound over all cells.  Stops certified
    once the bracket is tol wide, uncertified when the next level would
    pass max_order or the budget runs out (see work.stop_reason); each
    work.ladder entry is (n, lower, upper, level completed).
    """
    with _pool(threads) as pool:
        scan = _Scan(_set_data(chars), tol / 2, Budget(budget), pool, threads)
        upper, lower, ladder, reason = _refine(scan, tol, max_order)
    best, stats = scan.best, scan.stats
    stats.inner_evals = scan.budget.used
    stats.budget_exhausted = reason == "budget"
    stats.stop_reason = reason
    stats.ladder = tuple(ladder)
    certified = reason in ("done", "capped")
    if best is None:
        return KroneckerResult(chars, ErrorBracket(0.0, upper), None, None, None,
                               stats, False)
    exact = best.exact if upper == lower else None
    return KroneckerResult(chars, ErrorBracket(lower, upper, exact), None,
                           TargetMap.from_grid(chars, best.order, best.indices),
                           best.point, stats, certified)


def _refine(scan: _Scan, tol: float, max_order: int):
    """The level loop of `alpha`: returns (upper, lower, ladder, stop reason)."""
    upper = math.pi
    closed_top = 0.0  # largest bound over cells closed at earlier levels
    ladder = []
    n, parents = 2, None
    while True:
        radius = math.pi / n
        lift_margin = LIFT_REACH * radius if scan.data.m <= LIFT_MAX_SIZE else None
        opened = []
        if parents is None:
            cells = ((indices, None) for indices in _canonical_iter(scan.data, n))
        else:
            cells, closed = _next_level(scan.data, n, parents, scan.best.lower, tol, opened)
            closed_top = max(closed_top, closed)
        with contextlib.closing(_scan_items(scan, n, cells, lift_margin)) as items:
            closed_hi, _, status = _scan_targets(scan, n, items, upper, radius, tol, opened,
                                                 lift_margin)
        lower = scan.best.lower if scan.best is not None else 0.0
        if status == "done":
            closed_top = max(closed_top, closed_hi)
            level_top = max([closed_top] + [u + radius for _, u, _ in opened])
            upper = max(lower, min(upper, level_top))
        ladder.append((n, lower, upper, status != "budget"))
        if status != "done" or upper - lower <= tol:
            return upper, lower, ladder, status
        if 2 * n > max_order:
            return upper, lower, ladder, "max_order"
        parents = opened
        n *= 2


def _next_level(data: _SetData, n: int, parents: list, lower: float, tol: float,
                opened: list):
    """Split the open order-n/2 cells (indices, upper, lifts) into order-n
    cells.

    A parent still open against `lower` keeps its centre 2t, whose value is
    known, as an order-n cell (appended to `opened` unless it closes, with
    the parent's lifts near enough for the smaller cell) and contributes its
    other children to the returned (indices, solved) iterator, largest
    parent bound first.  Returns (children, largest bound of the cells
    closed here).
    """
    radius = math.pi / n
    uppers = np.array([u for _, u, _ in parents])
    order = np.argsort(-uppers, kind="stable")
    uppers = uppers[order]
    indices = np.array([t for t, _, _ in parents], dtype=np.int64).reshape(-1, data.m)[order]
    bound = uppers + 2 * radius
    keep = bound - lower > tol
    closed = float(bound[~keep].max(initial=0.0))
    lifts = [parents[i][2] for i in order[keep]]
    centres, uppers = 2 * indices[keep], uppers[keep]
    bound = uppers + radius
    still = bound - lower > tol
    closed = max(closed, float(bound[~still].max(initial=0.0)))
    for centre, upper, lift, open_ in zip(centres.tolist(), uppers.tolist(), lifts, still):
        if open_:
            opened.append((tuple(centre), upper,
                           _near_lifts(lift, upper + LIFT_REACH * radius)))
    basis = _shift_basis(data, n)
    seen = set(_orbit_keys(_orbit_reps(centres, basis, n), n))
    return _children(data, indices[keep], lifts, basis, n, seen), closed
