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
from functools import lru_cache, partial
from typing import TYPE_CHECKING

import numpy as np

from ._minimax import (
    CIRCLE_BLOCK,
    LIFT_EPS,
    TABLE_BLOCK,
    _dist_array,
    exact_dtype,
    first_least,
    line_distances,
    line_term_count,
    line_witness,
    min_error_box,
    min_error_circle,
    solve_torsion_units,
    subset_count,
    vertex_systems,
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
#: children split from a block of parents at a time (see `_children`).  On
#: `ladder` 2^11 runs as fast as 2^12 with half the temporaries; 2^10 is
#: about 10% slower
CHILD_BLOCK = 1 << 11
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


def _check_limits(**limits):
    """ValueError unless every limit is a number >= 0 (nan is refused too)."""
    for name, value in limits.items():
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


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

def mixed_radix_rows(radices, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the product of range(r) over `radices`, one
    column per radix, in the order of itertools.product; Python integers
    (object arrays) once the row count nears 2^61."""
    dtype = exact_dtype(math.prod(radices))
    index = np.arange(start, stop, dtype=dtype)
    rows = np.empty((stop - start, len(radices)), dtype=dtype)
    for i in range(len(radices) - 1, -1, -1):
        index, rows[:, i] = index // radices[i], index % radices[i]
    return rows


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
        self.free_key = tuple(map(tuple, self.free.tolist()))
        self.selection_count = g.dual_torsion_size
        self._units = np.array(self.unit_rows, dtype=exact_dtype(
            self.lcm * max(self.orders, default=1))).reshape(self.m, self.s).T
        self._table = None

    def selection(self, index: int) -> tuple[int, ...]:
        """The index-th torsion selection (see `selection_rows`)."""
        return tuple(self.selection_rows(index, index + 1)[0].tolist())

    def selection_rows(self, start: int, stop: int) -> np.ndarray:
        """Selections start..stop-1 as rows of residues, one column per factor
        (see `mixed_radix_rows`)."""
        return mixed_radix_rows(self.orders, start, stop)

    def torsion_table(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 of the selection table: row s holds every
        character's argument at `selection(s)`, in turns/lcm.  A table of at
        most TABLE_BLOCK rows is kept once built whole; callers must not
        write to the rows."""
        if self._table is not None:
            return self._table[start:stop]
        rows = np.zeros((stop - start, self.m), dtype=self._units.dtype)
        for digit, units in zip(self.selection_rows(start, stop).T, self._units):
            rows = (rows + digit[:, None] * units) % self.lcm
        if start == 0 and stop == self.selection_count <= TABLE_BLOCK:
            self._table = rows
        return rows

    def args_at(self, angles: np.ndarray | None, sel: np.ndarray) -> np.ndarray:
        """arg gamma at rows of dual points, one row per point: torus angles
        (k x r; None for all zero) and torsion selections (k x s, as
        floats), by the stacked matmuls free @ angles + tau @ selection."""
        args = np.matmul(self.tau, sel[:, :, None])[:, :, 0]
        return args if angles is None else np.matmul(self.free, angles[:, :, None])[:, :, 0] + args

    def point_args(self, point: DualPoint) -> np.ndarray:
        """arg gamma(point) for every character (see `args_at`)."""
        return self.args_at(np.array([point.torus_angles], dtype=np.float64),
                            np.array([point.torsion_selections], dtype=np.float64))[0]


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

def _solve_target(data: _SetData, angles: np.ndarray, grid, budget: Budget,
                  lift_margin: float | None = None):
    """Bracket inf over the dual of the worst-coordinate error for one target.

    `grid` is (n, indices) when the target lies on the n-th-roots grid,
    which unlocks exact integer arithmetic on purely torsion groups.
    Returns (lower, upper, DualPoint, exact_turns | None, lifts), lifts
    being the circle lifts within lift_margin of the value for a set in Z
    (see `_minimax.circle_lifts`), else None.  The budget pays the target's
    charge (see `_solve_rows`) before it is solved; one it cannot pay is
    charged to one unit (`_block_targets`) past the room left, which raises.
    """
    n, indices = grid or (None, None)
    solved, = _solve_rows(data, angles[None], n, [indices], budget.remaining, lift_margin)
    if solved is None:
        unit = _block_targets(data)[1]
        budget.charge((max(budget.remaining, 0) // unit + 1) * unit)
    solution, charge = solved
    budget.charge(charge)
    return solution


def _solve_rows(data: _SetData, angles: np.ndarray, n: int | None, indices,
                limit: int, lift_margin: float | None = None) -> list:
    """`_solve_target` on each row of target angles while `limit` pays
    for their charges: (solution, charge) per target, and None from the
    first target it cannot pay on.

    With a free part a target is charged a unit per selection, so the paid
    targets are known before `_solve_free` solves them.  On a purely
    torsion set it is charged m per selection read up to its first zero
    error (`first_least`), in one pass over the selection table for all
    targets, in exact integer units when they lie on the order-n grid
    (`indices` their grid rows; n None: float angles).
    """
    if data.r:
        cost = data.selection_count * _block_targets(data)[1]
        paid = angles[:max(limit, 0) // cost]
        solved = [(solution, cost) for solution in _solve_free(data, paid, lift_margin)]
        return solved + [None] * (len(angles) - len(solved))
    if n is None:
        def errors(start: int, stop: int, live: list) -> np.ndarray:
            args = TWO_PI * data.torsion_table(start, stop) / data.lcm
            return _dist_array(angles[live, None, :] - args).max(axis=2)
    else:
        modulus = math.lcm(data.lcm, n)
        targets = np.array([[j * (modulus // n) for j in row] for row in indices],
                           dtype=exact_dtype(modulus)).reshape(len(indices), data.m)
        errors = partial(solve_torsion_units, data.torsion_table, modulus // data.lcm,
                         modulus, targets)
    least, first, charge = first_least(errors, data.selection_count, data.m, len(angles),
                                       limit)
    solved = []
    for value, index, cost, spent in zip(least, first, charge, itertools.accumulate(charge)):
        if spent > limit:
            break
        exact = None if n is None else Fraction(value, modulus)
        value = value if n is None else math.tau * value / modulus
        point = DualPoint(data.chars.group, (), data.selection(index))
        solved.append(((value, value, point, exact, None), cost))
    return solved + [None] * (len(angles) - len(solved))


def _solve_free(data: _SetData, angles: np.ndarray,
                lift_margin: float | None = None) -> list:
    """The solutions of `_solve_target` for each row of target angles of a
    set with a free part, charges paid by the caller.

    Each (target, selection) pair is one `min_error_box` row.  A call takes
    `_block_targets` targets and a block of their selections, at most
    TABLE_BLOCK and CIRCLE_BLOCK elements.
    """
    size, unit = _block_targets(data)
    count = data.selection_count
    rows = max(1, min(TABLE_BLOCK, CIRCLE_BLOCK // unit))
    k = len(angles)
    lower, upper, theta = np.full(k, math.inf), np.full(k, math.inf), np.zeros((k, data.r))
    chosen = np.zeros((k, data.s), dtype=exact_dtype(count))
    lifts = [None] * k
    for t in range(0, k, size):
        g = min(size, k - t)
        for start in range(0, count, rows):
            sel = data.selection_rows(start, min(start + rows, count))
            shifts = data.args_at(None, sel.astype(np.float64))
            psi = (angles[t:t + g, None, :] - shifts).reshape(-1, data.m)
            out = (min_error_box(data.free, psi, None) if data.r > 1 else min_error_circle(
                data.slopes, psi, None, lift_margin=None if data.s else lift_margin))
            th, lo, up = out[0].reshape(g, -1, data.r), *(v.reshape(g, -1) for v in out[1:3])
            pick = np.arange(g), up.argmin(axis=1)
            np.minimum(lower[t:t + g], lo.min(axis=1), out=lower[t:t + g])
            # strict: across blocks of selections the first least one wins
            better = up[pick] < upper[t:t + g]
            for best, new in ((upper, up[pick]), (theta, th[pick]), (chosen, sel[pick[1]])):
                best[t:t + g][better] = new[better]
            if len(out) > 3:
                lifts[t:t + g] = out[3]
    return [(lo, up, DualPoint(data.chars.group, tuple(th), tuple(sel)), None, lift)
            for lo, up, th, sel, lift in zip(lower.tolist(), upper.tolist(), theta.tolist(),
                                             chosen.tolist(), lifts)]


def best_point(chars: CharacterSet, phi: TargetMap, tol: float = DEFAULT_TOL,
               budget: int = DEFAULT_BUDGET):
    """Dual point nearly minimizing the error for one target, with a bracket.

    The bracket encloses the true infimum over the whole dual group; its
    upper end is attained by the returned point.  Raises
    BudgetExceededError when the budget runs out before the bracket is
    narrower than tol; with a free part the solve is exact up to rounding.
    """
    if phi.chars != chars:
        raise ValueError("target map was built for a different character set")
    _check_limits(tolerance=tol, budget=budget)
    data = _set_data(chars)
    b = Budget(budget)
    b.charge(subset_count(data.free_key) if data.r > 1 else 0)
    grid = (phi.roots_order, phi.grid_indices) if phi.roots_order else None
    lower, upper, point, exact, _ = _solve_target(data, np.asarray(phi.angles), grid, b)
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

def _shift_basis(data: _SetData, n: int) -> list:
    """Echelon (Hermite) basis over Z_n of the order-n shift group, the
    target shifts phi -> phi + arg gamma(y) generated by the free columns
    mod n (y a 2pi/n step of one torus angle) and by each torsion column
    whose arguments lie on the n-grid (y one step of that factor).  The d-th
    row has zeros before coordinate d and, at d, the least positive value (a
    divisor of n) over group elements with zeros before d; None if they all
    have 0 there."""
    gens = [data.free[:, j] % n for j in range(data.r)]
    for i, order in enumerate(data.orders):
        col = [row[i] for row in data.torsion]
        if all(n * t % order == 0 for t in col):
            gens.append(np.array([n * t // order % n for t in col], dtype=np.int64))
    basis = []
    for d in range(data.m):
        pivot, rest = np.zeros(data.m, dtype=np.int64), []
        for g in gens:
            # Euclid on coordinate d, by row steps that keep the group
            while g[d]:
                pivot, g = g, (pivot - pivot[d] // g[d] * g) % n
            rest.append(g)
        if pivot[d]:
            e = math.gcd(int(pivot[d]), n)
            # the multiples of the pivot that vanish at d stay in the group,
            # taken before the scaling, which need not be a unit mod n
            rest.append(n // e * pivot % n)
            pivot = pow(int(pivot[d]) // e, -1, n // e) * pivot % n
        basis.append(pivot if pivot[d] else None)
        gens = [g for g in rest if g.any()]
    return basis


def _grid_targets(basis: list, n: int):
    """The least target of each order-n orbit of `_orbit_reps`, in
    lexicographic order.  Every least element lies in the product of
    range(h[d]) at the pivots d of `basis` and range(n) elsewhere; the rows
    of that product that are their own representatives are kept.  It is
    built about TABLE_BLOCK entries at a time, so a scan stopped early
    builds only what it read and the temporaries stay small enough for the
    allocator to reuse."""
    radices = [n if h is None else int(h[d]) for d, h in enumerate(basis)]
    count = math.prod(radices)
    block = max(1, TABLE_BLOCK // len(radices))
    for start in range(0, count, block):
        rows = mixed_radix_rows(radices, start, min(start + block, count)).astype(np.int64)
        keep = (_orbit_reps(rows, basis, n) == rows).all(axis=1)
        yield from map(tuple, rows[keep].tolist())


def _orbit_reps(cells: np.ndarray, basis: list, n: int) -> np.ndarray:
    """Lexicographically least image of each row of `cells` under the order-n
    target transforms v -> +-v + h, h in the shift group with echelon
    `basis` (see `_shift_basis`): the representative of the row's orbit, so
    a row is canonical iff it is its own image."""
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


def _orbit_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """Integer key of each order-n index row (its digits in base n); Python
    integers (an object array) once n^m nears 2^61."""
    m = rows.shape[1]
    dtype = exact_dtype(n**m)
    weights = np.array([n**d for d in range(m - 1, -1, -1)], dtype=dtype)
    return rows.astype(dtype, copy=False) @ weights


def _fresh(keys: np.ndarray, seen: np.ndarray):
    """(positions, seen): the position of the first occurrence of each key
    that is not in `seen`, a non-empty sorted array of keys, in increasing
    order, and seen with those keys added.  One sort of the keys and one
    search of `seen`, so every key is kept at its first occurrence in scan
    order."""
    keys, first = np.unique(keys, return_index=True)
    at = np.searchsorted(seen, keys)
    old = seen[np.minimum(at, len(seen) - 1)] == keys
    return np.sort(first[~old]), np.insert(seen, at[~old], keys[~old])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], ..., starts[i] + counts[i] - 1 for each i, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


@dataclass
class _Cells:
    """Order-n cells as arrays: index rows (k x m), upper ends and lifts in
    CSR form, cell i owning the next count[i] rows of nu (lift vectors) and
    vals (their inner values), in cell order.  A cell without lifts has
    count 0; a cell with lifts has at least one."""

    rows: np.ndarray
    upper: np.ndarray
    count: np.ndarray
    nu: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, indices: tuple, upper: float, lifts) -> "_Cells":
        """One cell with lifts (nu, vals) or None."""
        nu, vals = lifts or (np.zeros((0, len(indices)), dtype=np.int64), np.zeros(0))
        return cls(np.array([indices], dtype=np.int64), np.array([upper]),
                   np.array([len(vals)]), nu, vals)

    @classmethod
    def gather(cls, pieces: list, m: int) -> "_Cells":
        """The cells of `pieces` in turn, as one."""
        pieces = [cls.of((0,) * m, 0.0, None).take(np.arange(0))] + pieces
        return cls(*(np.concatenate([getattr(p, name) for p in pieces])
                     for name in ("rows", "upper", "count", "nu", "vals")))

    def take(self, sel: np.ndarray, cut: np.ndarray | None = None) -> "_Cells":
        """The cells at the indices `sel`, in that order; given cut, the one
        at sel[i] keeps only its lifts of value at most cut[i]."""
        count = self.count[sel]
        lifts = _ranges((np.cumsum(self.count) - self.count)[sel], count)
        if cut is not None:
            owner = np.repeat(np.arange(len(sel)), count)
            near = self.vals[lifts] <= cut[owner]
            lifts, count = lifts[near], np.bincount(owner[near], minlength=len(sel))
        return _Cells(self.rows[sel], self.upper[sel], count, self.nu[lifts], self.vals[lifts])


@dataclass
class _LiftedBlock:
    """Lifted children of a block of parents, in scan order (see
    `_children`).  `cells` holds each child's index row, upper end and, as
    its lifts, every lift of its parent moved to the child with the inner
    value there; lower and cost are per child, and a child keeps the lifts
    of value at most cut (see `lifts`)."""

    cells: _Cells
    lower: np.ndarray
    cost: np.ndarray
    cut: np.ndarray

    def lifts(self, sel: np.ndarray) -> _Cells:
        """The children at the indices `sel` with the lifts they keep."""
        return self.cells.take(sel, self.cut[sel])


def _children(data: _SetData, parents: _Cells, basis: list, n: int, seen: np.ndarray):
    """Order-n targets 2t + d, d in {-1, 0, 1}^m other than 0, whose cells of
    radius pi/n cover the order-n/2 cells of the rows t of `parents`: one per
    orbit, skipping orbits whose key is in `seen` (sorted keys, see `_fresh`),
    in the order of the parents and then of d.

    Parents go in blocks of about CHILD_BLOCK children, each block all with
    lifts or all without.  Children of parents without lifts come one at a
    time as (indices, None).  Those of a block of parents with lifts come
    as one (None, `_LiftedBlock`) item: a parent's lifts hold the best lift
    of each of its children, so a child's value is the least inner value
    over them, from one `line_distances` call over every (child, lift) pair
    of the block.  A child's bracket is value -+ a slack covering the
    rounding of the closed form, its cost the lifts read times
    `line_term_count`, and it keeps the lifts within LIFT_REACH * pi/n of
    its value.
    """
    m = data.m
    offsets = mixed_radix_rows((3,) * m, 0, 3**m) - 1
    offsets = offsets[offsets.any(axis=1)]
    per = max(1, CHILD_BLOCK // len(offsets))
    margin = LIFT_REACH * math.pi / n
    terms = line_term_count(data.slopes) if data.slopes is not None else 0
    slack = 1e-12 * max(1.0, float(np.abs(data.free).max(initial=0))) ** 2
    lifted = parents.count > 0
    first = np.cumsum(parents.count) - parents.count
    start = 0
    while start < len(lifted):
        # up to `per` parents, stopping where lifted parents give way to
        # parents without lifts or the other way round
        run = lifted[start:start + per] != lifted[start]
        stop = start + int(run.argmax() if run.any() else len(run))
        raw = (2 * parents.rows[start:stop, None, :] + offsets).reshape(-1, m)
        kids = raw % n
        new, seen = _fresh(_orbit_keys(_orbit_reps(kids, basis, n), n), seen)
        if not lifted[start]:
            yield from ((tuple(row), None) for row in kids[new].tolist())
        elif len(new):
            parent = start + new // len(offsets)
            count = parents.count[parent]
            pairs = _ranges(first[parent], count)
            child = np.repeat(np.arange(len(new)), count)
            nu = parents.nu[pairs]
            # values at the unwrapped angles raw * 2pi/n, nearest the parent
            vals = line_distances(data.slopes, (raw[new] * (TWO_PI / n))[child] + TWO_PI * nu)
            values = np.minimum.reduceat(vals, np.cumsum(count) - count)
            cells = _Cells(kids[new], values + slack, count, nu + (raw[new] // n)[child], vals)
            yield None, _LiftedBlock(cells, np.maximum(values - slack, 0.0), count * terms,
                                     values + (margin + LIFT_EPS))
        start = stop


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
    the last few witness points as probes (character argument rows, oldest
    first), the budget, the work counters and the pool of `threads` workers,
    if any, solving ahead.  `tol` is the cap-exit margin."""

    data: _SetData
    tol: float
    budget: Budget
    pool: ProcessPoolExecutor | None = None
    threads: int = 1
    stats: WorkStats = field(default_factory=WorkStats)
    best: _Incumbent | None = None
    probes: np.ndarray = field(init=False)

    def __post_init__(self):
        # the identity of the dual group is the first probe
        self.probes = np.zeros((1, self.data.m))


def _scan_targets(scan: _Scan, n: int, items, cap: float, radius: float = 0.0,
                  slack: float = 0.0, opened: list | None = None,
                  lift_margin: float | None = None):
    """Solve order-n targets in scan order, keeping the incumbent worst target.

    Each target stands for the cell of targets within `radius` of it in
    every coordinate.  The inner minimum is 1-Lipschitz in the target, so
    value + radius bounds the whole cell; the cell closes once that bound is
    within `slack` of the incumbent's lower end.  A probe point's error is a
    value bound that closes a cell without solving it (a pruned target).
    Solved cells that stay open are appended to `opened` as `_Cells`, with
    the lifts within lift_margin of their value.

    items yields (indices, solved, verdict), see `_solved_ahead`: a
    (solution, cost) pair solved ahead is used only if the cost fits in the
    remaining budget, else the target is solved here, and a probe verdict
    read ahead only while its incumbent is still the scan's (see `_probe`),
    so charges and stops match a scan that solves and probes each target in
    turn.  A block of children valued from lifts (indices None, see
    `_children`) skips the probes and is decided in one pass by
    `_scan_lifted`, with the same decisions.

    Returns (closed_hi, open_hi, status): the largest bound over closed and
    over open cells, and 'capped' when the incumbent reached `cap`, 'done'
    when the iterator was exhausted, 'budget' when the work limit was hit.
    """
    data, budget, stats, tol = scan.data, scan.budget, scan.stats, scan.tol
    best = scan.best
    step = TWO_PI / n
    closed_hi = open_hi = 0.0
    try:
        # the first scan pays for the vertex systems (free rank 2 on) up front
        budget.charge(0 if budget.used or data.r < 2 else subset_count(data.free_key))
    except BudgetExceededError:
        return closed_hi, open_hi, "budget"
    status = "done"
    for indices, solved, verdict in items:
        if indices is None:
            block_closed, block_open, status = _scan_lifted(scan, n, solved, cap, radius,
                                                            slack, opened)
            closed_hi, open_hi = max(closed_hi, block_closed), max(open_hi, block_open)
            best = scan.best
            if status != "done":
                break
            continue
        angles = np.array(indices, dtype=np.float64) * step
        try:
            if best is not None:
                probed = _probe(scan, angles, radius, slack, verdict)
                if probed is not None:
                    stats.targets_pruned += 1
                    closed_hi = max(closed_hi, probed)
                    continue
            if solved is not None and solved[1] <= budget.remaining:
                solution, cost = solved
                budget.charge(cost)
            else:
                solution = _solve_target(data, angles, (n, tuple(indices)), budget,
                                         lift_margin)
        except BudgetExceededError:
            status = "budget"
            break
        lower, upper, point, exact, lifts = solution
        stats.targets_enumerated += 1
        if best is None or lower > best.lower:
            scan.best = best = _Incumbent(lower, upper, n, tuple(indices), point, exact)
            scan.probes = np.vstack([scan.probes[-3:], data.point_args(point)])  # last four
        bound = upper + radius
        if bound - best.lower <= slack:
            closed_hi = max(closed_hi, bound)
        else:
            open_hi = max(open_hi, bound)
            if opened is not None:
                opened.append(_Cells.of(tuple(indices), upper, lifts))
        if best.lower >= cap - tol:
            status = "capped"
            break
    return closed_hi, open_hi, status


def _scan_lifted(scan: _Scan, n: int, block: _LiftedBlock, cap: float, radius: float,
                 slack: float, opened: list):
    """Decide a `_LiftedBlock` in one pass, as `_scan_targets` would decide
    its children in turn: each is charged its cost and enumerated, becomes
    the incumbent if its lower end beats the running one, closes or opens
    against the running incumbent, and the scan stops once the incumbent
    reaches cap - tol.

    The budget stop is found in the running sum of the costs, and the
    charge runs one child past the room, as the loop's would.  Only the
    children that raise the incumbent (for their witness point and probe
    row) or stay open (appended to `opened`) build their lifts.  Returns
    (closed_hi, open_hi, status) over the decided children, status 'done'
    when all were decided.
    """
    budget, best, cells = scan.budget, scan.best, block.cells
    spent = np.cumsum(block.cost)
    # children whose charges fit, then how far the scan gets
    fit = int(np.searchsorted(spent, budget.remaining, side="right"))
    prior = -math.inf if best is None else best.lower
    running = np.maximum.accumulate(np.maximum(block.lower, prior))
    capped = np.flatnonzero(running >= cap - scan.tol)
    done, status = len(spent), "done"
    if capped.size and capped[0] < fit:
        done, status = int(capped[0]) + 1, "capped"
    elif fit < done:
        done, status = fit, "budget"
    with contextlib.suppress(BudgetExceededError):
        budget.charge(int(spent[done] if status == "budget" else spent[done - 1]))
    scan.stats.targets_enumerated += done
    before = np.concatenate([[prior], running[:-1]])
    for i in np.flatnonzero(block.lower[:done] > before[:done]).tolist():
        cell = block.lifts(np.array([i]))
        indices = tuple(cell.rows[0].tolist())
        point = _lift_point(scan.data, np.array(indices, dtype=np.float64) * (TWO_PI / n),
                            (cell.nu, cell.vals))
        scan.best = _Incumbent(float(block.lower[i]), float(cell.upper[0]), n, indices,
                               point, None)
        scan.probes = np.vstack([scan.probes[-3:], scan.data.point_args(point)])
    bound = cells.upper[:done] + radius
    closes = bound - running[:done] <= slack
    if not closes.all():
        opened.append(block.lifts(np.flatnonzero(~closes)))
    return (float(bound[closes].max(initial=0.0)), float(bound[~closes].max(initial=0.0)),
            status)


def _probe(scan: _Scan, angles: np.ndarray, radius: float, slack: float, verdict=None):
    """The `_probe_bounds` verdict of the scan's probes on one target,
    charging m per probe read as a loop over them would: at exhaustion one
    past the room left, which raises.  A verdict (incumbent, bound, read)
    read ahead is taken while its incumbent is still the scan's, and with it
    the probes and lower end it was read against."""
    if verdict is not None and verdict[0] is scan.best:
        probed, read = verdict[1:]
    else:
        (probed, read), = _probe_bounds(angles[None], scan.probes, radius, scan.best.lower,
                                        slack)
    m = scan.data.m
    scan.budget.charge(min(read, max(scan.budget.remaining, 0) // m + 1) * m)
    return probed


def _probe_bounds(angles: np.ndarray, probes: np.ndarray, radius: float, lower: float,
                  slack: float) -> list:
    """(bound, read) for each row of target angles: the bound the first
    probe point (a row of character arguments) to close the cell of radius
    `radius` around the target against the lower end `lower` puts on it, or
    None, and the probes read to it; one `_dist_array` call for all rows."""
    bounds = _dist_array(angles[:, None, :] - probes).max(axis=2) + radius
    verdicts = []
    for row, closes in zip(bounds.tolist(), (bounds - lower <= slack).tolist()):
        i = closes.index(True) if True in closes else None
        verdicts.append((None, len(closes)) if i is None else (row[i], i + 1))
    return verdicts


def _block_targets(data: _SetData) -> tuple[int, int]:
    """(targets, unit): how many targets `_solve_rows` takes per call, as
    many as keep one element per target, selection and unit within
    CIRCLE_BLOCK but at least 1, and the budget units one selection of a
    target is charged: m on a purely torsion set, the vertex candidates of
    a row (`vertex_systems`) on a set with a free part."""
    unit = vertex_systems(data.free_key)[1] if data.r else data.m
    return max(1, CIRCLE_BLOCK // (data.selection_count * unit)), unit


def _solve_run(chars: CharacterSet, n: int, limit: int, run,
               lift_margin: float | None = None, probes=None, lower: float | None = None,
               radius: float = 0.0, slack: float = 0.0):
    """Solve the order-n targets of a run ahead of the scan, in the scan's
    process or in a pool worker.  Per target: its verdict (see
    `_probe_bounds`) against the scan's probes and lower end as they stood
    when the run was read, None without an incumbent; and its (solution,
    budget units charged) from one `_solve_rows` call, or None for a target
    the verdict closes (the scan will most likely prune it, and solves it
    itself otherwise) or one that would take the run past `limit`.  A limit
    that cannot pay the largest charge of one target leaves every target to
    the scan, so a target the budget cannot pay is read only once."""
    data = _set_data(chars)
    angles = np.array(run, dtype=np.float64).reshape(len(run), data.m) * (TWO_PI / n)
    verdicts = ([None] * len(run) if lower is None
                else _probe_bounds(angles, probes, radius, lower, slack))
    todo = [t for t, verdict in enumerate(verdicts) if verdict is None or verdict[0] is None]
    if data.selection_count * _block_targets(data)[1] > limit:
        todo = []
    solved = [None] * len(run)
    for t, solution in zip(todo, _solve_rows(data, angles[todo], n, [run[t] for t in todo],
                                             limit, lift_margin)):
        solved[t] = solution
    return list(zip(verdicts, solved))


def _solved_ahead(scan: _Scan, n: int, items, lift_margin: float | None = None,
                  radius: float = 0.0, slack: float = 0.0):
    """The (indices, solved) pairs of `items` as (indices, solved, verdict)
    triples for `_scan_targets` with cell radius `radius` and closing slack
    `slack`.  A pair without a solution gets the (solution, cost) that
    `_solve_run` found ahead, or None, and the verdict (incumbent, bound,
    read) read with the incumbent of that moment, or None.

    Runs in flight are each capped by the budget left when read: with a
    pool 2*threads runs, doubling from one target up to MAX_RUN so short
    scans still use every worker; without, one run of `_block_targets`
    targets, solved in the scan's process once the run before it is
    decided.  `_scan_targets` takes the decisions in scan order either way,
    so results do not depend on the block size or the thread count."""
    if scan.pool is not None:
        depth, sizes = 2 * scan.threads, (min(1 << i, MAX_RUN) for i in itertools.count())
    else:
        depth, sizes = 1, itertools.repeat(_block_targets(scan.data)[0])

    def read(count: int):
        run = list(itertools.islice(items, count))
        todo = [indices for indices, solved in run if solved is None]
        best = scan.best
        args = (scan.data.chars, n, scan.budget.remaining, todo, lift_margin,
                scan.probes, None if best is None else best.lower, radius, slack)
        if not todo:
            return run, best, lambda: ()
        if scan.pool is None:
            return run, best, partial(_solve_run, *args)
        return run, best, scan.pool.submit(_solve_run, *args).result

    in_flight = deque()
    while True:
        while len(in_flight) < depth:
            run, best, ahead = read(next(sizes))
            if not run:
                break
            in_flight.append((run, best, ahead))
        if not in_flight:
            return
        run, best, ahead = in_flight.popleft()
        ahead = iter(ahead())
        for indices, solved in run:
            verdict = None
            if solved is None:
                verdict, solved = next(ahead)
            yield indices, solved, None if verdict is None else (best, *verdict)


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

    Enumerates the least target of each orbit of the target grid under
    negation and the full translation group of `_shift_basis`, in
    lexicographic order (see `_grid_targets`), solving the inner
    minimization for each.  seed_targets (index tuples) are solved first, which both raises
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
    _check_limits(tolerance=tol, budget=budget)
    data = _set_data(chars)
    cap = grid_cap(n)
    seeds = [tuple(int(j) % n for j in seed) for seed in seed_targets]
    for seed in seeds:
        if len(seed) != data.m:
            raise ValueError("seed target has wrong number of entries")

    idx_iter = itertools.chain(seeds, _grid_targets(_shift_basis(data, n), n))
    with _pool(threads) as pool:
        scan = _Scan(data, tol, Budget(budget), pool, threads)
        cells = ((indices, None) for indices in idx_iter)
        with contextlib.closing(_solved_ahead(scan, n, cells)) as items:
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
    refined from it without a full solve.  A level holds its open cells as
    arrays (`_Cells`); the lifted children of a block of parents are valued
    (`_children`) and decided (`_scan_lifted`) in one pass each, with the
    decisions and charges of a scan that takes them one at a time.  The
    upper end is the least, over completed levels, of the largest bound
    over all cells.  Stops certified
    once the bracket is tol wide, uncertified when the next level would
    pass max_order or the budget runs out (see work.stop_reason); each
    work.ladder entry is (n, lower, upper, level completed).  ValueError for
    max_order < 2, which leaves no level to scan.
    """
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    _check_limits(tolerance=tol, budget=budget)
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
            targets = _grid_targets(_shift_basis(scan.data, n), n)
            cells = ((indices, None) for indices in targets)
        else:
            cells, closed = _next_level(scan.data, n, parents, scan.best.lower, tol, opened)
            closed_top = max(closed_top, closed)
        with contextlib.closing(_solved_ahead(scan, n, cells, lift_margin, radius, tol)) as items:
            closed_hi, _, status = _scan_targets(scan, n, items, upper, radius, tol, opened,
                                                 lift_margin)
        lower = scan.best.lower if scan.best is not None else 0.0
        if status == "done":
            parents = _Cells.gather(opened, scan.data.m)
            closed_top = max(closed_top, closed_hi)
            level_top = max(closed_top, float((parents.upper + radius).max(initial=0.0)))
            upper = max(lower, min(upper, level_top))
        ladder.append((n, lower, upper, status != "budget"))
        if status != "done" or upper - lower <= tol:
            return upper, lower, ladder, status
        if 2 * n > max_order:
            return upper, lower, ladder, "max_order"
        n *= 2


def _next_level(data: _SetData, n: int, parents: _Cells, lower: float, tol: float,
                opened: list):
    """Split the open order-n/2 cells `parents` into order-n cells.

    A parent still open against `lower` keeps its centre 2t, whose value is
    known, as an order-n cell (appended to `opened` unless it closes, with
    the parent's lifts near enough for the smaller cell) and contributes its
    other children to the returned `_children` iterator, largest parent
    bound first.  Returns (children, largest bound of the cells closed
    here).
    """
    radius = math.pi / n
    order = np.argsort(-parents.upper, kind="stable")
    bound = parents.upper[order] + 2 * radius
    keep = bound - lower > tol
    closed = float(bound[~keep].max(initial=0.0))
    parents = parents.take(order[keep])
    bound = parents.upper + radius
    still = bound - lower > tol
    closed = max(closed, float(bound[~still].max(initial=0.0)))
    centres = parents.take(np.flatnonzero(still),
                           parents.upper[still] + LIFT_REACH * radius + LIFT_EPS)
    centres.rows *= 2
    opened.append(centres)
    basis = _shift_basis(data, n)
    seen = np.unique(_orbit_keys(_orbit_reps(2 * parents.rows, basis, n), n))
    return _children(data, parents, basis, n, seen), closed
