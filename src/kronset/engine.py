"""Certified brackets for angular interpolation constants of character sets.

For a finite set E of characters, the quantities computed here are the
worst-case best approximation errors

    sup over targets phi   of   inf over dual points x   of
        max_{gamma in E} dist(phi(gamma), arg gamma(x))

with targets ranging either over maps into the n-th-roots angle grid
(`alpha_n`) or over all angle-valued maps (`alpha`, bracketed by refining
grid cells of the target torus).  Every returned bracket is two-sided and
sound: lower ends come from solved targets, upper ends from exhaustive
enumeration, the universal farthest-root cap, or bounds on order-n cells
that cover the target torus: value(t) + pi/n, or a cell's certified
maximum.  For sets of up to three characters in Z, refined cells take
their values from a few integer lifts of the target kept by the cell they
were split from, and those lifts certify the cell's maximum
(`_minimax.cell_maxima`).  Lifts take one flat form, rows of lift vectors
with their values and owners, from `_minimax.min_error_circle` through
`_Targets` and `_Cells` to the certificate; a lifted child keeps those
within LIFT_REACH radii of its value from the moment it is made.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from ._minimax import (
    CIRCLE_BLOCK,
    LIFT_EPS,
    TABLE_BLOCK,
    _dist_array,
    cell_maxima,
    circle_slack,
    circle_unit,
    column_echelon,
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
    _check_same_group,
    chordal_of_angle,
    torsion_angles,
    torsion_table,
)

DEFAULT_TOL = 1e-3
DEFAULT_BUDGET = 10**8
#: largest roots-grid order the continuous-constant refinement will reach
LADDER_MAX_ORDER = 1 << 13
#: grid targets a block holds on a set the sieve solves (see `_blocks`).
#: On the free-rank-1 `grid` tasks and its coset scan, 256, 512 and 1024
#: ran about 55%, 35% and 20% slower than 2048, and 4096 as fast
SIEVE_RUN = 2048
#: most grid targets one sieve call takes (see `_block_targets`): 2048 ran
#: about 5% faster, but raised a `grid` pass's peak resident size by 2.8 MB
SIEVE_CALL = 256
#: how far past its threshold a pass sieves a block, as a share of the gap
#: from the incumbent to pi (see `_scan_targets`).  On the same tasks and
#: the `grid` coset scan, fixed reaches of 0.5 and 1.0 ran about 20% and
#: 15% slower than 0.3 of the gap, and 0.4 of it 25% slower
SIEVE_REACH = 0.3
#: children split from a block of parents at a time (see `_children`).  On
#: `ladder` 2^11 runs as fast as 2^12 with half the temporaries; 2^10 is
#: about 10% slower
CHILD_BLOCK = 1 << 11
#: an open cell of radius r keeps the lifts within LIFT_REACH * r of its
#: value: enough to hold, for each cell refined from it, every lift within
#: two radii of that cell's value, which its certified maximum reads, and
#: so its best lift
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


def _past_room(room: int, unit: int) -> int:
    """The charge that stops a computation on work the budget cannot pay:
    whole units up to one unit past `room`, the budget left."""
    return (max(room, 0) // unit + 1) * unit


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
        return TargetMap.from_angles(self.chars, np.add(self.angles,
                                                        _set_data(self.chars).point_args(y)))

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
    return radix_digits(radices, np.arange(start, stop, dtype=exact_dtype(math.prod(radices))))


def radix_digits(radices, index: np.ndarray) -> np.ndarray:
    """The rows at the positions `index` of the product of range(r) over
    `radices` (see `mixed_radix_rows`), of the dtype of `index`."""
    rows = np.empty((len(index), len(radices)), dtype=index.dtype)
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
        self.free_key = tuple(map(tuple, self.free.tolist()))
        # a free part of reduced rank at most 1, B = A U with one column, is
        # solved on the circle: line holds B's slopes (the set's own in Z)
        # and turn U's column (None in Z), so the torus point is theta * turn
        self.line = self.turn = None
        if self.r:
            h, u, rank = column_echelon(self.free_key)
            if rank <= 1:
                self.line = self.free[:, 0].copy() if self.r == 1 else np.array(h[0])
                self.turn = None if self.r == 1 else np.array(u[0], dtype=np.float64)
        self.selection_count = g.dual_torsion_size
        self._table = self._shifts = None

    def selection(self, index: int) -> tuple[int, ...]:
        """The index-th torsion selection (see `selection_rows`)."""
        return tuple(self.selection_rows(index, index + 1)[0].tolist())

    def selection_rows(self, start: int, stop: int) -> np.ndarray:
        """Selections start..stop-1 as rows of residues, one column per factor
        (see `mixed_radix_rows`)."""
        return mixed_radix_rows(self.orders, start, stop)

    def torsion_table(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 of the selection table: row s holds every
        character's torsion argument at `selection(s)`, in turns/lcm
        (`groups.torsion_table`).  A table of at most TABLE_BLOCK rows is
        kept once built whole; callers must not write to the rows."""
        if self._table is not None:
            return self._table[start:stop]
        rows = torsion_table(self.chars.group, self.torsion, self.selection_rows(start, stop))
        if start == 0 and stop == self.selection_count <= TABLE_BLOCK:
            self._table = rows
        return rows

    def shift_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 of the torsion shifts, the float view of
        `torsion_table` (`groups.torsion_angles`): the target shifts of the
        free-part solve and the torsion arguments of the float torsion
        solve.  With at most TABLE_BLOCK selections every row is built at
        the first call and kept; callers must not write to the rows."""
        if self._shifts is None and self.selection_count <= TABLE_BLOCK:
            self._shifts = torsion_angles(self.torsion_table(0, self.selection_count), self.lcm)
        if self._shifts is not None:
            return self._shifts[start:stop]
        return torsion_angles(self.torsion_table(start, stop), self.lcm)

    def args_at(self, angles: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """arg gamma at rows of dual points, one row per point: torus angles
        (k x r) and torsion selections (k x s, integers), free @ angles plus
        the float view of the points' torsion table."""
        torsion = torsion_angles(torsion_table(self.chars.group, self.torsion, sel), self.lcm)
        return np.matmul(self.free, angles[:, :, None])[:, :, 0] + torsion

    def point_args(self, point: DualPoint) -> np.ndarray:
        """arg gamma(point) for every character (see `args_at`)."""
        _check_same_group(self.chars, point)
        return self.args_at(np.array([point.torus_angles], dtype=np.float64),
                            np.array([point.torsion_selections], dtype=np.int64))[0]


@lru_cache(maxsize=256)
def _set_data(chars: CharacterSet) -> _SetData:
    return _SetData(chars)


def approx_error(chars: CharacterSet, phi: TargetMap, x: DualPoint) -> float:
    """max over the set of the arc distance between target and evaluation
    (`_SetData.point_args`)."""
    if phi.chars != chars:
        raise ValueError("target map was built for a different character set")
    return float(_dist_array(np.subtract(phi.angles, _set_data(chars).point_args(x))).max())


# ---------------------------------------------------------------------------
# single-target inner minimization over the dual group
# ---------------------------------------------------------------------------

@dataclass
class _Targets:
    """Targets and their inner solutions as arrays: index rows (None off
    the grid) and per target its bracket (nan while unsolved), charge,
    witness torus angles and selection index and exact value in
    turns/`modulus` (a grid target of a purely torsion set; else modulus
    None).  Circle lifts are flat: lift i of target owner[i] is nu[i], of
    inner value vals[i], each target's in class order.  Witnesses are built
    on demand.  `top` holds the bounds on the cells of solved targets
    (`certify`), value + radius for those without lifts; it is None until
    a scan that keeps lifts solves a target.  `valued` marks lifted
    children (`_children`), valued and bounded when made, whose witnesses
    attain their least lifts."""

    rows: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray
    cost: np.ndarray
    theta: np.ndarray
    sel: np.ndarray
    exact: np.ndarray
    owner: np.ndarray
    nu: np.ndarray
    vals: np.ndarray
    modulus: int | None
    top: np.ndarray | None = None
    valued: bool = False

    @classmethod
    def empty(cls, data: _SetData, k: int, n: int | None = None, rows=None) -> "_Targets":
        """k unsolved targets, of the order-n grid (n None: off it)."""
        modulus = math.lcm(data.lcm, n) if n and not data.r else None
        return cls(rows, np.full(k, np.nan), np.full(k, np.nan), np.zeros(k, dtype=np.int64),
                   np.zeros((k, data.r)), np.zeros(k, dtype=exact_dtype(data.selection_count)),
                   np.zeros(k, dtype=exact_dtype(modulus or 1)), np.zeros(0, dtype=np.int64),
                   np.zeros((0, data.m), dtype=np.int64), np.zeros(0), modulus)

    def add_lifts(self, owner: np.ndarray, nu: np.ndarray, vals: np.ndarray):
        """Append lifts of the targets at `owner`."""
        self.owner, self.nu, self.vals = (np.concatenate(pair) for pair in zip(
            (self.owner, self.nu, self.vals), (owner, nu, vals)))

    def put(self, at: np.ndarray, new: "_Targets"):
        """Take the solutions and lifts of `new` as those of the targets at
        `at`."""
        for name in ("lower", "upper", "cost", "theta", "sel", "exact"):
            getattr(self, name)[at] = getattr(new, name)
        self.add_lifts(at[new.owner], new.nu, new.vals)

    def take(self, sel: np.ndarray, top: np.ndarray) -> _Cells:
        """The targets at the indices `sel` as cells bounded by `top`, with
        their lifts, gathered by one stable sort."""
        where = np.full(len(self.lower), -1)
        where[sel] = np.arange(len(sel))
        cell = where[self.owner]
        order = np.flatnonzero(cell >= 0)
        order = order[np.argsort(cell[order], kind="stable")]
        return _Cells(self.rows[sel], self.upper[sel], top,
                      np.bincount(cell[order], minlength=len(sel)), self.nu[order],
                      self.vals[order])

    def certify(self, data: _SetData, n: int, at: np.ndarray):
        """Bound the order-n cells of the solved targets at `at` by their
        certified maxima (`_cell_tops`), and add that work to their charges."""
        radius = math.pi / n
        if self.top is None:
            self.top = self.upper + radius
        cells = self.take(at, self.upper[at] + radius)
        self.top[at], work = _cell_tops(data, cells, n)
        self.cost[at] += work

    def witness(self, data: _SetData, n: int | None, i: int):
        """(DualPoint, exact value or None) of target i."""
        theta = tuple(self.theta[i].tolist())
        if self.valued:
            mine = np.flatnonzero(self.owner == i)
            nu = self.nu[mine[int(self.vals[mine].argmin())]]
            theta = (line_witness(data.line, self.rows[i] * (TWO_PI / n) + TWO_PI * nu)
                     % TWO_PI,)
        return (DualPoint(data.chars.group, theta, data.selection(int(self.sel[i]))),
                None if self.modulus is None else Fraction(int(self.exact[i]), self.modulus))


def _solve_rows(data: _SetData, angles: np.ndarray, n: int | None, indices,
                limit: int, lift_margin: float | None = None,
                cap: float | None = None) -> _Targets:
    """Bracket inf over the dual of the worst-coordinate error for each row
    of target angles while `limit` pays for their charges, as `_Targets`:
    from the first target it cannot pay on, the targets stay unsolved, at
    no charge.  Given lift_margin, a target of a set in Z keeps the circle
    lifts within lift_margin of its value (`_minimax.min_error_circle`).

    With a free part a target is charged a unit per selection, so the paid
    targets are known before `_solve_free` solves them; given a cap, the
    sieve leaves unsolved (but charged) the targets whose lower end would
    pass it.  On a purely torsion set it is charged m per selection read up
    to its first zero error (`first_least`), in one pass over the selection
    table for all targets, in exact integer units when they lie on the
    order-n grid (`indices` their grid rows; n None: float angles), floated
    in lowest terms (`groups.torsion_angles`).
    """
    out = _Targets.empty(data, len(angles), n, indices)
    if data.r:
        cost = data.selection_count * _block_targets(data)[1]
        paid = min(len(angles), max(limit, 0) // cost)
        out.cost[:paid] = cost if paid else 0  # an unpaid cost may pass int64
        _solve_free(data, angles[:paid], out, lift_margin, cap)
        return out
    if n is None:
        def errors(start: int, stop: int, live: list) -> np.ndarray:
            return _dist_array(angles[live, None, :] - data.shift_rows(start, stop)).max(axis=2)
    else:
        modulus = out.modulus
        targets = indices.astype(exact_dtype(modulus)) * (modulus // n)
        errors = partial(solve_torsion_units, data.torsion_table, modulus // data.lcm,
                         modulus, targets)
    least, first, charge = first_least(errors, data.selection_count, data.m, len(angles),
                                       limit)
    paid = sum(spent <= limit for spent in itertools.accumulate(charge))
    if n is None:
        value = np.array(least[:paid], dtype=np.float64)
    else:
        out.exact[:paid] = least[:paid]
        value = torsion_angles(out.exact[:paid], out.modulus)
    out.lower[:paid] = out.upper[:paid] = value
    out.sel[:paid], out.cost[:paid] = first[:paid], charge[:paid]
    return out


def _solve_free(data: _SetData, angles: np.ndarray, out: _Targets,
                lift_margin: float | None = None, cap: float | None = None):
    """The solutions of `_solve_rows` for each row of target angles of a
    set with a free part, charges paid by the caller, written into the
    first targets of `out`, from one kernel call per block of `_kernel_rows`
    (`_block_targets` targets at a time): `min_error_circle` at reduced
    rank 1, with `cap` (a target is solved if one of its selections is),
    else `min_error_box`."""
    size = _block_targets(data)[0]
    k = len(angles)
    lower, upper, theta, chosen = out.lower, out.upper, out.theta, out.sel
    lower[:k] = upper[:k] = math.inf
    width = data.m if data.line is not None else vertex_systems(data.free_key)[1]
    # the kernel solves every row a little past the cap, so a target it
    # solves has no unsolved selection that could beat its best one
    reach = None if cap is None else cap + 2 * circle_slack(data.line) + LIFT_EPS
    for t, g, start, psi in _kernel_rows(data, angles, size, width):
        if data.line is None:
            got = min_error_box(data.free, psi)
        else:
            # the first three arguments go by position, as tracing hooks need
            got = min_error_circle(data.line, psi, reach,
                                   lift_margin=None if data.s else lift_margin)
            got = (got[0][:, None] if data.turn is None
                   else np.mod(got[0][:, None] * data.turn, TWO_PI), *got[1:])
        th, lo, up = got[0].reshape(g, -1, data.r), *(v.reshape(g, -1) for v in got[1:3])
        pick = np.arange(g), up.argmin(axis=1)
        np.minimum(lower[t:t + g], lo.min(axis=1), out=lower[t:t + g])
        # strict: across blocks of selections the first least one wins
        better = up[pick] < upper[t:t + g]
        for best, new in ((upper, up[pick]), (theta, th[pick]), (chosen, start + pick[1])):
            best[t:t + g][better] = new[better]
        if len(got) > 3:
            # one selection: kernel row i is target t + i
            out.add_lifts(t + got[3][0], *got[3][1:])
    if cap is not None:
        # targets whose lower end the sieve did not find within the cap
        missed = ~(lower[:k] <= cap)
        lower[:k][missed] = upper[:k][missed] = np.nan


def _kernel_rows(data: _SetData, angles: np.ndarray, size: int, width: int):
    """The kernel rows of targets of a set with a free part, one per
    (target, selection) pair, the target angles less the selection's
    `shift_rows`: (t, g, start, psi) per block, psi the rows of the g
    targets from t at a block of selections from start, as many as keep
    one element per row and `width` within CIRCLE_BLOCK (at least one, at
    most TABLE_BLOCK), `size` targets at a time."""
    count = data.selection_count
    rows = max(1, min(TABLE_BLOCK, CIRCLE_BLOCK // width))
    for t in range(0, len(angles), size):
        g = min(size, len(angles) - t)
        for start in range(0, count, rows):
            shifts = data.shift_rows(start, min(start + rows, count))
            yield t, g, start, (angles[t:t + g, None, :] - shifts).reshape(-1, data.m)


def best_point(chars: CharacterSet, phi: TargetMap, budget: int = DEFAULT_BUDGET):
    """Dual point minimizing the error for one target, with a bracket.

    The bracket encloses the true infimum over the whole dual group; its
    upper end is attained by the returned point.  The solve is exact (up to
    rounding with a free part); BudgetExceededError when the budget runs
    out.
    """
    if phi.chars != chars:
        raise ValueError("target map was built for a different character set")
    _check_limits(budget=budget)
    data = _set_data(chars)
    b = Budget(budget)
    b.charge(subset_count(data.free_key) if data.r and data.line is None else 0)
    n = phi.roots_order
    solved = _solve_rows(data, np.array([phi.angles]), n,
                         None if n is None else np.array([phi.grid_indices]), b.remaining)
    # the row's charge, or one unit past the room when the budget cannot pay
    b.charge(int(solved.cost[0]) or _past_room(b.remaining, _block_targets(data)[1]))
    point, exact = solved.witness(data, n, 0)
    attained = approx_error(chars, phi, point)
    return point, ErrorBracket(min(float(solved.lower[0]), attained), attained, exact)


# ---------------------------------------------------------------------------
# symmetry-reduced enumeration of roots-grid targets
# ---------------------------------------------------------------------------

def _shift_basis(data: _SetData, n: int) -> list:
    """Echelon (Hermite) basis over Z_n of the order-n shift group, the
    target shifts phi -> phi + arg gamma(y) generated by the free columns
    mod n (y a 2pi/n step of one torus angle) and by each torsion factor (y
    the least multiple k = order / gcd(order, n g) of one step of that
    factor that puts every argument, read from `torsion_table`, on the
    n-grid, g the gcd of the factor's column).  The d-th row has zeros
    before coordinate d and, at d, the least positive value (a divisor of
    n) over group elements with zeros before d; None if they all have 0
    there."""
    gens = [data.free[:, j] % n for j in range(data.r)]
    for i, order in enumerate(data.orders):
        k = order // math.gcd(order, n * math.gcd(*(row[i] for row in data.torsion)))
        # the selection k (mod order) at factor i, 0 elsewhere (`selection`)
        at = k % order * math.prod(data.orders[i + 1:])
        args = data.torsion_table(at, at + 1)[0].tolist()
        gens.append(np.array([a * n // data.lcm for a in args], dtype=np.int64))
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
    lexicographic order, as arrays of index rows.  Every least element lies
    in the product of range(h[d]) at the pivots d of `basis` and range(n)
    elsewhere; the rows of that product that are their own representatives
    are kept.  It is built about TABLE_BLOCK entries at a time, so a scan
    stopped early builds only what it read and the temporaries stay small
    enough for the allocator to reuse."""
    radices = [n if h is None else int(h[d]) for d, h in enumerate(basis)]
    count = math.prod(radices)
    block = max(1, TABLE_BLOCK // len(radices))
    for start in range(0, count, block):
        rows = mixed_radix_rows(radices, start, min(start + block, count)).astype(np.int64)
        yield rows[(_orbit_reps(rows, basis, n) == rows).all(axis=1)]


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
    that is not in `seen`, a sorted array of keys, in increasing
    order, and seen with those keys added.  One sort of the keys and one
    search of `seen`, so every key is kept at its first occurrence in scan
    order."""
    keys, first = np.unique(keys, return_index=True)
    at = np.searchsorted(seen, keys)
    old = seen[np.minimum(at, len(seen) - 1)] == keys if len(seen) else at < 0
    return np.sort(first[~old]), np.insert(seen, at[~old], keys[~old])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], ..., starts[i] + counts[i] - 1 for each i, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


@dataclass
class _Cells:
    """Order-n cells as arrays: index rows (k x m), upper ends (of the
    centres' values), tops (bounds on the whole cells) and lifts in CSR
    form, cell i owning the next count[i] rows of nu (lift vectors) and vals
    (their inner values at the centre), in cell order.  A cell without
    lifts has count 0 and top value + radius; a cell with lifts has at
    least one, and its top from `_cell_tops`."""

    rows: np.ndarray
    upper: np.ndarray
    top: np.ndarray
    count: np.ndarray
    nu: np.ndarray
    vals: np.ndarray

    @classmethod
    def gather(cls, pieces: list, m: int) -> "_Cells":
        """The cells of `pieces` in turn, as one."""
        none = np.zeros((0, m), dtype=np.int64)
        pieces = [cls(none, np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64), none,
                      np.zeros(0))] + pieces
        return cls(*(np.concatenate([getattr(p, name) for p in pieces])
                     for name in ("rows", "upper", "top", "count", "nu", "vals")))

    def take(self, sel: np.ndarray) -> "_Cells":
        """The cells at the indices `sel`, in that order."""
        lifts = _ranges((np.cumsum(self.count) - self.count)[sel], self.count[sel])
        return _Cells(self.rows[sel], self.upper[sel], self.top[sel], self.count[sel],
                      self.nu[lifts], self.vals[lifts])


def _lift_margin(data: _SetData, n: int) -> float | None:
    """How far above its value a solved order-n target keeps lifts, on a
    set of at most LIFT_MAX_SIZE characters in Z (else None): LIFT_REACH
    radii of its cell."""
    if data.r != 1 or data.s or data.m > LIFT_MAX_SIZE:
        return None
    return LIFT_REACH * math.pi / n


def _lift_slack(data: _SetData) -> float:
    """Rounding slack of inner values and cell bounds taken from lifts."""
    return 1e-12 * max(1.0, float(np.abs(data.free).max(initial=0))) ** 2


def _cell_tops(data: _SetData, cells: _Cells, n: int):
    """(top, work) of order-n cells: a cell with lifts is bounded by its
    certified maximum (`_minimax.cell_maxima`) plus the lift slack when that
    is below its top, value + radius; work is what `cell_maxima` examined.
    The certificate reads the lifts within two radii of the centre's value,
    the only ones that can be least anywhere on the cell."""
    radius = math.pi / n
    top, work = cells.top.copy(), np.zeros(len(cells.top), dtype=np.int64)
    lifted = np.flatnonzero(cells.count)
    if len(lifted):
        owner = np.repeat(np.arange(len(cells.count)), cells.count)
        value = np.minimum.reduceat(cells.vals, (np.cumsum(cells.count) - cells.count)[lifted])
        slot = np.cumsum(cells.count > 0) - 1
        near = cells.vals <= value[slot[owner]] + (2 * radius + LIFT_EPS)
        u = cells.rows[owner[near]] * (TWO_PI / n) + TWO_PI * cells.nu[near]
        bound, work[lifted] = cell_maxima(data.line, u, slot[owner[near]], len(lifted), radius)
        top[lifted] = np.minimum(top[lifted], bound + _lift_slack(data))
    return top, work


def _children(data: _SetData, parents: _Cells, basis: list, n: int, seen: np.ndarray):
    """Order-n targets 2t + d, d in {-1, 0, 1}^m, whose cells of radius pi/n
    cover the order-n/2 cells of the rows t of `parents`: one per orbit,
    skipping orbits whose key is in `seen` (sorted keys, see `_fresh`), in
    the order of the parents and then of d.  The centre 2t (d = 0) is a
    child of a parent with lifts only; `_next_level` keeps the others'.

    Parents go in blocks of about CHILD_BLOCK children, each block all with
    lifts or all without.  Children of a block of parents without lifts
    come as one array of index rows.  Those of a block with lifts come as
    one `_Targets` marked valued: a parent's lifts hold every lift within
    two radii of each of its children's values, so a child's value is the
    least inner value over them, from one `line_distances` call over every
    (child, lift) pair of the block.  A child keeps the lifts within
    LIFT_REACH * pi/n of its value, which hold the ones within two radii
    that its certified maximum, its top, reads (`_Targets.certify`).  Its
    bracket is value -+ a slack covering the rounding of the closed form,
    its cost every parent lift read times `line_term_count` plus the
    certificate's work.
    """
    m = data.m
    steps = mixed_radix_rows((3,) * m, 0, 3**m) - 1
    per = max(1, CHILD_BLOCK // len(steps))
    radius = math.pi / n
    terms = line_term_count(data.line) if data.line is not None else 0
    slack = _lift_slack(data)
    lifted = parents.count > 0
    first = np.cumsum(parents.count) - parents.count
    start = 0
    while start < len(lifted):
        # up to `per` parents, stopping where lifted parents give way to
        # parents without lifts or the other way round
        run = lifted[start:start + per] != lifted[start]
        stop = start + int(run.argmax() if run.any() else len(run))
        offsets = steps if lifted[start] else steps[steps.any(axis=1)]
        raw = (2 * parents.rows[start:stop, None, :] + offsets).reshape(-1, m)
        kids = raw % n
        new, seen = _fresh(_orbit_keys(_orbit_reps(kids, basis, n), n), seen)
        if not lifted[start]:
            yield kids[new]
        elif len(new):
            parent = start + new // len(offsets)
            count = parents.count[parent]
            pairs = _ranges(first[parent], count)
            child = np.repeat(np.arange(len(new)), count)
            nu = parents.nu[pairs]
            # values at the unwrapped angles raw * 2pi/n, nearest the parent
            vals = line_distances(data.line, (raw[new] * (TWO_PI / n))[child] + TWO_PI * nu)
            values = np.minimum.reduceat(vals, np.cumsum(count) - count)
            keep = vals <= (values + (LIFT_REACH * radius + LIFT_EPS))[child]
            block = _Targets.empty(data, len(new), n, kids[new])
            block.lower[:], block.upper[:] = np.maximum(values - slack, 0.0), values + slack
            block.cost[:] = count * terms
            block.add_lifts(child[keep], (nu + (raw[new] // n)[child])[keep], vals[keep])
            block.certify(data, n, np.arange(len(new)))
            block.valued = True
            yield block
        start = stop


@dataclass
class _Incumbent:
    lower: float
    order: int
    indices: tuple[int, ...]
    point: DualPoint
    exact: Fraction | None


@dataclass
class _Scan:
    """What the scans of one computation share: the incumbent worst target,
    the budget and the work counters.  `tol` is the cap-exit margin, and
    `passes` counts the decision passes of its scans."""

    data: _SetData
    tol: float
    budget: Budget
    stats: WorkStats = field(default_factory=WorkStats)
    best: _Incumbent | None = None
    passes: int = field(init=False, default=0)


def _first(mask: np.ndarray) -> int:
    """Index of the first True of a mask, its length if none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _scan_targets(scan: _Scan, n: int, items, cap: float, radius: float = 0.0,
                  slack: float = 0.0, opened: list | None = None,
                  lift_margin: float | None = None):
    """Decide order-n targets in scan order, keeping the incumbent worst target.

    Each target stands for the cell of targets within `radius` of it in
    every coordinate.  The inner minimum is 1-Lipschitz in the target, so
    value + radius bounds the whole cell, and given lift_margin a solved
    target with lifts is bounded by its certified maximum instead
    (`_Targets.certify`, which adds that work to its charge), as lifted
    cells are (their top); the cell closes once its bound is within `slack`
    of the incumbent's lower end.  Cells that stay open are appended to
    `opened` as `_Cells` with the lifts their targets keep: a solved
    target those within lift_margin of its value, a lifted child those
    within LIFT_REACH radii.

    items yields `_Targets` blocks (see `_blocks`), unsolved or lifted
    children marked valued, whose cells are valued and bounded already.  A
    pass over a block's arrays takes the
    decisions and charges of a loop over its targets in turn, each against
    the incumbent as it stood there (a running maximum of lower ends), up
    to the first budget stop or cap exit; only the pass's last incumbent
    builds its witness.  A lifted block takes one pass, and so does a
    `_Targets` block of a set the sieve does not solve: its unsolved
    targets are solved in one `_solve_rows` call, as far as the room pays.
    On a set the sieve solves (free part of reduced rank 1) the loop sieves
    a target at its threshold U = the incumbent's lower end + slack
    (`min_error_circle`'s cap), which solves it exactly when its lower end
    is at most U, else once more without a cap, and charges each sieve
    (one, uncapped, before the first incumbent).  A pass sieves every
    unsolved target of the block in one `_solve_rows` call, past U by
    SIEVE_REACH of the gap from the incumbent to pi, and ends before the
    next target that sieve left unsolved.  The pass that starts there sieves
    it without a cap when the room pays both its sieves.  A target closed
    under its threshold counts as pruned, one that raises the incumbent or
    is sieved again as enumerated.

    The budget stop is the first charge past the room left, charged one
    `_block_targets` unit past it or, for a lifted cell and a solved target
    whose solve the room pays but not its certificate, charged whole.

    Returns (closed_hi, open_hi, status): the largest bound over closed and
    over open cells, and 'capped' when the incumbent reached `cap`, 'done'
    when the iterator was exhausted, 'budget' when the work limit was hit.
    """
    data, budget, stats = scan.data, scan.budget, scan.stats
    closed_hi = open_hi = 0.0
    try:
        budget.charge(0 if budget.used or not data.r or data.line is not None
                      else subset_count(data.free_key))
    except BudgetExceededError:
        return closed_hi, open_hi, "budget"
    sieve = data.line is not None
    unit = _block_targets(data)[1]
    solve = data.selection_count * unit
    for block in items:
        # targets decided against the sieve's thresholds
        threshold = sieve and not block.valued
        rows, lower, upper, cost = block.rows, block.lower, block.upper, block.cost

        def put(at: np.ndarray, cap: float | None = None):
            """Solve the targets at `at` under `cap`, and certify their cells."""
            block.put(at, _solve_rows(data, rows[at] * (TWO_PI / n), n, rows[at],
                                      budget.remaining, lift_margin, cap))
            if lift_margin is not None:
                block.certify(data, n, at)

        pos = 0
        while pos < len(rows):
            prior = -math.inf if scan.best is None else scan.best.lower
            todo = pos + np.flatnonzero(np.isnan(lower[pos:]))
            if len(todo) and not sieve:
                put(todo)
            elif len(todo):
                # every unsolved target, sieved past the threshold (a target
                # solved under one cap keeps its solution, which is its
                # solution under any); the first, before an incumbent or left
                # above the cap, without one when the room pays its sieves
                if scan.best is not None:
                    put(todo, prior + slack + SIEVE_REACH * (math.pi - prior))
                if np.isnan(lower[pos]) and budget.remaining >= solve * (1 + (prior > -math.inf)):
                    put(np.array([pos]))
            # lower ends of the targets a solve decides: nan where unsolved
            # (costs 0) as the budget could not pay, or left above the sieve's
            # cap, where a pass on a sieved block ends
            low = lower[pos:]
            if sieve:
                low = low[:1 + _first(np.isnan(low[1:]))]
            size = len(low)
            paid = cost[pos:pos + size]
            # the incumbent's lower end before each target, and after the last
            run = np.fmax.accumulate(np.concatenate([[prior], low]))
            # per target the charges before its last solve: a sieve at a
            # threshold its lower end passes
            ahead = np.zeros(size, dtype=np.int64)
            again = threshold & ~(low <= run[:-1] + slack) & (paid > 0) & (run[:-1] > -math.inf)
            if again.any():  # a solve's charge may not fit in int64
                ahead[again] = solve
            spent = np.cumsum(ahead + paid)
            # the first target whose charges pass the room, or that the room
            # could not pay for, and the first solved one that finds the
            # incumbent at the cap
            stop = min(int(np.searchsorted(spent, budget.remaining, side="right")),
                       _first(np.isnan(low)))
            at_cap = _first(~np.isnan(low) & (run[1:] >= cap - scan.tol))
            end = min(at_cap + 1, stop)
            status = "capped" if at_cap < stop else "budget" if stop < size else None
            budget.used += int(spent[end - 1]) if end else 0
            if status == "budget":
                room, before = budget.remaining, int(ahead[stop])
                at = pos + stop
                # a lifted cell is charged whole, and so is a solved target
                # whose solve the room pays but not the certificate after it
                whole = block.valued or (not np.isnan(lower[at]) and solve <= room - before)
                budget.used += (_past_room(room, unit) if before > room else before + (
                    int(cost[at]) if whole else _past_room(room - before, unit)))
            done = pos + np.arange(end)
            bound = upper[done] + radius if block.top is None else block.top[done]
            shut = bound - run[1:end + 1] <= slack
            raised = low[:end] > run[:end]
            # cells the threshold sieve closes are pruned; a target that
            # raises the incumbent or was sieved again is enumerated
            pruned = int((shut & ~raised & (ahead[:end] == 0)).sum()) if threshold else 0
            stats.targets_pruned += pruned
            stats.targets_enumerated += end - pruned
            closed_hi = max(closed_hi, float(bound[shut].max(initial=0.0)))
            open_hi = max(open_hi, float(bound[~shut].max(initial=0.0)))
            if opened is not None and not shut.all():
                opened.append(block.take(done[~shut], bound[~shut]))
            if raised.any():
                # the pass's last raise is the incumbent, and builds its witness
                i = int(done[np.flatnonzero(raised)[-1]])
                point, exact = block.witness(data, n, i)
                scan.best = _Incumbent(float(lower[i]), n, tuple(rows[i].tolist()), point,
                                       exact)
            pos += end
            scan.passes += 1
            if status:
                return closed_hi, open_hi, status
    return closed_hi, open_hi, "done"


def _block_targets(data: _SetData) -> tuple[int, int]:
    """(targets, unit): how many targets `_solve_rows` takes per kernel
    call, which is also the block a scan reads on a set the sieve does not
    solve (see `_blocks`), and the budget units one selection of a target
    is charged: m on a purely torsion set, `circle_unit` on one the sieve
    solves, the vertex candidates of a row (`vertex_systems`) on the
    others.  A call takes as many targets as keep one element per target,
    selection and unit (m for the sieve, which bounds its own temporaries)
    within CIRCLE_BLOCK, at least 1; the sieve takes at most SIEVE_CALL."""
    if data.line is not None:
        unit = circle_unit(data.line.tolist())
        return max(1, min(SIEVE_CALL, CIRCLE_BLOCK // (data.selection_count * data.m))), unit
    unit = vertex_systems(data.free_key)[1] if data.r else data.m
    return max(1, CIRCLE_BLOCK // (data.selection_count * unit)), unit


def _blocks(data: _SetData, n: int, items):
    """The items of a scan, arrays of index rows of order-n targets and
    valued `_Targets` (lifted children), as blocks for `_scan_targets`, in
    order: the rows are sliced into unsolved `_Targets` of SIEVE_RUN rows
    on a set the sieve solves, else of one kernel call's targets
    (`_block_targets`), the last before a valued block or the end shorter."""
    size = SIEVE_RUN if data.line is not None else _block_targets(data)[0]
    rows = np.zeros((0, data.m), dtype=np.int64)
    for item in itertools.chain(items, [None]):
        bare = isinstance(item, np.ndarray)
        if bare:
            rows = np.concatenate([rows, item])
        # whole blocks, and every row left before a valued block or the end
        cut = len(rows) - len(rows) % size if bare else len(rows)
        for start in range(0, cut, size):
            yield _Targets.empty(data, min(size, cut - start), n, rows[start:start + size])
        rows = rows[cut:]
        if item is not None and not bare:
            yield item


def alpha_n(chars: CharacterSet, n: int, tol: float = DEFAULT_TOL,
            budget: int = DEFAULT_BUDGET, seed_targets=()) -> KroneckerResult:
    """Certified bracket for the n-th-roots-grid interpolation constant.

    Enumerates the least target of each orbit of the target grid under
    negation and the full translation group of `_shift_basis`, in
    lexicographic order (see `_grid_targets`), solving the inner
    minimization for each.  seed_targets (rows of indices) are solved
    first, which both raises the incumbent early and, across growing sets,
    keeps certified lower bounds monotone.  If the budget runs out a partial
    result is returned with certified=False: its lower end is still sound,
    the upper end falls back to the universal cap.
    """
    if n < 2:
        raise ValueError("roots grid order must be >= 2")
    _check_limits(tolerance=tol, budget=budget)
    data = _set_data(chars)
    cap = grid_cap(n)
    seeds = [[int(j) % n for j in seed] for seed in seed_targets]
    if any(len(seed) != data.m for seed in seeds):
        raise ValueError("seed target has wrong number of entries")

    rows = itertools.chain([np.array(seeds, dtype=np.int64).reshape(-1, data.m)],
                           _grid_targets(_shift_basis(data, n), n))
    scan = _Scan(data, tol, Budget(budget))
    closed_hi, open_hi, status = _scan_targets(scan, n, _blocks(data, n, rows), cap)
    best, stats = scan.best, scan.stats
    stats.inner_evals = scan.budget.used
    stats.budget_exhausted = status == "budget"
    stats.stop_reason = status
    if best is None:
        return KroneckerResult(chars, ErrorBracket(0.0, cap), n, None, None, stats, False)
    upper, exact = cap, None
    if status == "done":
        upper, exact = min(max(closed_hi, open_hi, best.lower), cap), best.exact
    elif status == "capped" and best.exact == Fraction(n // 2, n):
        # a cap exit keeps the exact value only when it equals the cap
        exact = best.exact
    return KroneckerResult(chars, ErrorBracket(best.lower, upper, exact), n,
                           TargetMap.from_grid(chars, n, best.indices), best.point, stats,
                           status != "budget")


def alpha(chars: CharacterSet, tol: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET,
          max_order: int = LADDER_MAX_ORDER) -> KroneckerResult:
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
    `_minimax.min_error_circle`), which give the exact value of every cell
    refined from it without a full solve, and a cell with lifts is bounded
    by its certified maximum (`_cell_tops`) in place of value(t) + pi/n, so
    the upper end need not trail the lower one by pi/n.  A level holds its
    open cells as arrays (`_Cells`); the lifted children of a block of
    parents are valued and bounded in one pass (`_children`), each keeping
    the lifts within LIFT_REACH radii of its value, and decided like solved
    targets by `_scan_targets`, with the decisions and charges of a scan
    that takes them one at a time.  The upper end is the least, over
    completed levels, of the largest bound over all cells.  Stops certified
    once the bracket is tol wide, uncertified when the next level would
    pass max_order or the budget runs out (see work.stop_reason); each
    work.ladder entry is (n, lower, upper, level completed).  ValueError
    for max_order < 2, which leaves no level to scan.
    """
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    _check_limits(tolerance=tol, budget=budget)
    scan = _Scan(_set_data(chars), tol / 2, Budget(budget))
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
    """The level loop of `alpha`: returns (upper, lower, ladder, stop reason).
    A completed level's upper end is the largest bound (top) over the cells
    closed so far and the cells left open."""
    upper = math.pi
    closed_top = 0.0  # largest bound over cells closed at earlier levels
    ladder = []
    n, parents = 2, None
    while True:
        radius = math.pi / n
        opened = []
        if parents is None:
            cells = _grid_targets(_shift_basis(scan.data, n), n)
        else:
            cells, closed = _next_level(scan.data, n, parents, scan.best.lower, tol, opened)
            closed_top = max(closed_top, closed)
        closed_hi, _, status = _scan_targets(scan, n, _blocks(scan.data, n, cells), upper,
                                             radius, tol, opened, _lift_margin(scan.data, n))
        lower = scan.best.lower if scan.best is not None else 0.0
        if status == "done":
            parents = _Cells.gather(opened, scan.data.m)
            closed_top = max(closed_top, closed_hi)
            level_top = max(closed_top, float(parents.top.max(initial=0.0)))
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

    A parent still open against `lower` (its top) contributes its children
    to the returned iterator (`_children`), largest parent value first.  A
    parent with lifts has its centre 2t among them, valued and bounded
    again for the smaller cell.  One without lifts keeps its centre's
    value: unless its order-n cell closes at value + pi/n, the centre is an
    open cell (appended to `opened`), or, when the smaller cell now takes
    lifts (`_lift_margin`) and the set has more than one character, it is
    solved again with them, before the children.  Returns (targets,
    largest bound of the cells closed here).
    """
    radius = math.pi / n
    order = np.argsort(-parents.upper, kind="stable")
    keep = parents.top[order] - lower > tol
    closed = float(parents.top[order[~keep]].max(initial=0.0))
    parents = parents.take(order[keep])
    bare = np.flatnonzero(parents.count == 0)
    bound = parents.upper[bare] + radius
    still = bound - lower > tol
    closed = max(closed, float(bound[~still].max(initial=0.0)))
    # a centre whose smaller cell now takes lifts is solved again, with them;
    # a single character's is not: it keeps its centre's value at no charge,
    # as without lifts
    margin = _lift_margin(data, n)
    again = still & (margin is not None and data.m > 1
                     and parents.upper[bare] + margin < math.pi - LIFT_EPS)
    centres = parents.take(bare[still & ~again])
    centres.rows *= 2
    centres.top = bound[still & ~again]
    opened.append(centres)
    basis = _shift_basis(data, n)
    keys = _orbit_keys(_orbit_reps(2 * parents.rows[bare], basis, n), n)
    solve = 2 * parents.rows[bare[again]]
    first = np.sort(np.unique(keys[again], return_index=True)[1])
    children = _children(data, parents, basis, n, np.unique(keys))
    return itertools.chain([solve[first]], children), closed
