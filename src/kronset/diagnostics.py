"""Separated-set witnesses, counting bounds, and arithmetic diagnostics.

The net machinery builds greedy maximal separated subsets of the dual
group under the set-sup chordal metric and evaluates the volume and
roots-counting lower bounds on their cardinality.  The candidates'
arguments come a block at a time from the index rows of the universe,
and the greedy pass takes a chunk's gaps to the admitted points in a few
array calls.  The arithmetic side checks quasi-independence (no
nontrivial {-1,0,1} relation summing to the identity) and counts pair-sum
coincidences.  Both work on integer arrays: the characters' coordinates
form one matrix (int64 while every signed sum fits, Python integers
beyond), one kernel (`_signed_sums`) sums signed rows of it with the
torsion columns reduced modulo their orders, and a stable lexicographic
sort groups equal sums, so witnesses and quadruples come in the order of
a plain loop over supports, signings and pairs.  A classifier turns certified
chordal upper bounds into the sufficient interpolation flags.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._minimax import TABLE_BLOCK, _dist_array, exact_dtype
from .engine import KroneckerResult, _check_limits, _set_data, mixed_radix_rows
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
#: candidates per chunk of `maximal_separated_set`, and the float64
#: elements of one (candidates x admitted points x characters) block of its
#: gaps (128 KB, which stays in cache: twice that ran up to 1.4x slower)
NET_CHUNK = 32
NET_BLOCK = 1 << 14


def roots_threshold(n: int) -> float:
    """2 sin(pi (1 - 1/n) / 2) = |1 - e^{i pi (1 - 1/n)}|, the chord of an
    arc of pi (1 - 1/n).  For odd n it is the distance from 1 to the
    farthest n-th root of unity; for even n that root is -1, at distance 2."""
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


def _universe(data, grid_cells: int | None, budget: int):
    """Candidate dual points in canonical order (exact torsion exhaustion,
    an evenly spaced grid on each torus coordinate), TABLE_BLOCK at a time:
    yields each block's rows of grid and torsion indices (see
    `mixed_radix_rows`), torus angles and character arguments
    (`_SetData.args_at`)."""
    r = data.r
    if r > 0 and (not grid_cells or grid_cells < 1):
        raise ValueError("groups with free rank need a torus grid resolution")
    radices = (grid_cells,) * r + data.orders
    size = math.prod(radices)
    if size > budget:
        raise BudgetExceededError(f"candidate universe of {size} points exceeds budget {budget}")
    for start in range(0, size, TABLE_BLOCK):
        rows = mixed_radix_rows(radices, start, min(start + TABLE_BLOCK, size))
        angles = TWO_PI * rows[:, :r] / grid_cells if r else np.zeros((len(rows), 0))
        yield rows, angles, data.args_at(angles, rows[:, r:])


def _gaps(args: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(candidate, point) matrix of the largest arc distance over the
    characters from each row of args to each row of points."""
    return _dist_array(args[:, None, :] - points[None, :, :]).max(axis=2)


def maximal_separated_set(chars: CharacterSet, epsilon: float,
                          grid_cells: int | None = None,
                          budget: int = 1_000_000) -> SeparatedSet:
    """Greedy maximal epsilon-separated set over the candidate universe.

    A candidate is admitted iff its set-sup chordal distance to every point
    admitted so far is >= epsilon; the pass order is canonical, so the
    result is deterministic.  Maximality holds relative to the universe:
    every candidate ends up within < epsilon of some member.

    Candidates go in chunks: the gaps of a chunk to the points admitted
    before it and among its own candidates are taken in a few array calls,
    and the pass then keeps each candidate's nearest gap as points are
    admitted, the same float the candidate-by-candidate pass takes.
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
    span = max(1, NET_BLOCK // (NET_CHUNK * data.m))    # admitted points per gap block
    for rows, angles, block_args in _universe(data, grid_cells, budget):
        count += len(rows)
        for lo in range(0, len(rows), NET_CHUNK):
            args = block_args[lo:lo + NET_CHUNK]
            near = np.full(len(args), math.inf)
            for j in range(0, len(admitted), span):
                points = admitted_args[j:min(j + span, len(admitted))]
                np.minimum(near, _gaps(args, points).min(axis=1), out=near)
            inner = _gaps(args, args)
            for i in range(len(args)):
                gap = float(near[i])
                # chordal_of_angle is increasing, so the nearest admitted point decides
                if gap < math.inf and chordal_of_angle(gap) < floor:
                    continue
                k = len(admitted)
                if k == len(admitted_args):
                    admitted_args = np.concatenate([admitted_args, np.empty_like(admitted_args)])
                admitted_args[k] = args[i]
                admitted.append(DualPoint(chars.group, tuple(angles[lo + i].tolist()),
                                          tuple(rows[lo + i, data.r:].tolist())))
                np.minimum(near, inner[:, i], out=near)
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

def _coordinates(chars: CharacterSet) -> np.ndarray:
    """The characters' coordinates as one matrix, free columns then torsion
    columns, in int64 while a signed sum of every character fits, else as
    Python integers (see `exact_dtype`)."""
    rows = [g.free_coords + g.torsion_coords for g in chars]
    bound = len(rows) * max([abs(v) for row in rows for v in row]
                            + list(chars.group.torsion_orders))
    return np.array(rows, dtype=exact_dtype(bound)).reshape(len(rows), -1)


def _signed_sums(chars: CharacterSet, coords: np.ndarray, index, signs) -> np.ndarray:
    """Row k: the sum over c of signs[k, c] * coords[index[k, c]], with the
    torsion columns reduced modulo their orders.  index and signs broadcast
    to one (rows, terms) shape."""
    index, signs = np.broadcast_arrays(index, signs)
    sums = np.zeros((len(index), coords.shape[1]), dtype=coords.dtype)
    for column, sign in zip(index.T, signs.T):
        sums += sign[:, None] * coords[column]
    orders = chars.group.torsion_orders
    if orders:
        sums[:, -len(orders):] %= orders
    return sums


def _runs(rows: np.ndarray):
    """Stable lexicographic order of the rows, first column primary (the
    order of `sorted` on the coordinate tuples, ties in row order), and
    the position in that order where each run of equal rows starts."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    return order, starts


def _signings(n: int) -> np.ndarray:
    """Every {1,0,-1} signing of n characters, in itertools.product order."""
    return 1 - mixed_radix_rows((3,) * n, 0, 3**n)


def _canonical_witness(coeffs) -> tuple[int, ...]:
    for c in coeffs:
        if c != 0:
            return coeffs if c > 0 else tuple(-v for v in coeffs)
    return coeffs


def _quasi_direct(chars: CharacterSet, budget: int):
    """Smallest-support-first search for a {-1,0,1} relation; the leading
    nonzero coefficient is normalized to +1.

    Each (support, signing) is one row, taken in the order of a loop over
    supports in combinations order and signings in product order, charged
    the support size; rows go in blocks of at most TABLE_BLOCK that the
    budget left pays for, so the search stops (or raises) where that loop
    would.
    """
    m = len(chars)
    coords = _coordinates(chars)
    work = 0
    for size in range(1, m + 1):
        supports = itertools.combinations(range(m), size)
        # a row: its support's index, then one binary digit per sign after the first
        radices = (math.comb(m, size),) + (2,) * (size - 1)
        count = math.prod(radices)
        read, held = 0, []        # supports read so far; the block's supports
        start = 0
        while start < count:
            take = min(TABLE_BLOCK, count - start)
            if work + take * size > budget:
                take = max(int((budget - work) // size), 0)
                if take == 0:
                    raise BudgetExceededError("signed-sum enumeration exceeded budget")
            stop = start + take
            rows = mixed_radix_rows(radices, start, stop)
            # supports first..last-1: the last one read if the block begins
            # inside it, then the next ones
            first, last = int(rows[0, 0]), int(rows[-1, 0]) + 1
            held = held[-1:] if first < read else []
            held += itertools.islice(supports, last - read)
            read = last
            signs = 1 - 2 * rows
            signs[:, 0] = 1
            index = np.array(held, dtype=np.intp)[rows[:, 0] - first]
            zero = ~(_signed_sums(chars, coords, index, signs) != 0).any(axis=1)
            if zero.any():
                k = int(zero.argmax())
                witness = [0] * m
                for idx, sign in zip(index[k].tolist(), signs[k].tolist()):
                    witness[idx] = sign
                return False, tuple(witness)
            work += take * size
            start = stop
    return True, None


def _quasi_mitm(chars: CharacterSet, budget: int):
    """Meet-in-the-middle over a half split: the signed sums of every
    signing of each half, and the first left signing whose sum cancels a
    right one, found by one stable sort of both halves' sums."""
    m = len(chars)
    half = (m + 1) // 2
    if 3 ** half * half > budget:
        raise BudgetExceededError("half-enumeration exceeds budget")
    coords = _coordinates(chars)
    left, right = _signings(half), _signings(m - half)
    sums = _signed_sums(chars, coords, np.arange(half), left)
    zero = ~(sums != 0).any(axis=1)
    zero[len(left) // 2] = False            # the all-zero signing
    if zero.any():
        witness = tuple(left[zero.argmax()].tolist()) + (0,) * (m - half)
        return False, _canonical_witness(witness)

    # after a stable sort a run's first row is its first left signing, if any
    both = np.concatenate([sums, _signed_sums(chars, coords, np.arange(half, m), -right)])
    order, starts = _runs(both)
    first = np.empty(len(both), dtype=np.intp)
    first[order] = order[np.repeat(starts, np.diff(np.r_[starts, len(both)]))]
    hit = first[len(left):]
    found = hit < len(left)
    # the only zero left sum is now the all-zero signing: skip the all-zero pair
    found[len(right) // 2] = False
    if not found.any():
        return True, None
    k = int(found.argmax())
    witness = tuple(left[hit[k]].tolist()) + tuple(right[k].tolist())
    return False, _canonical_witness(witness)


def quasi_independent(chars: CharacterSet, budget: int = 3**16,
                      method: str = "auto"):
    """True iff no nontrivial {-1,0,1}-relation over the set sums to the
    identity; returns (flag, witness coefficients or None).

    "direct" charges the support size per (support, signing) examined and
    returns the first relation of least support, leading coefficient +1;
    "mitm" charges 3^h * h up front (h = ceil(|F|/2)) and returns the
    relation of the first right-half signing, in product order, that
    cancels a left-half one, with the first such left signing, normalized
    to a positive leading coefficient; "auto" takes "direct" while
    3^|F| * |F| is at most the budget and 3^13.
    """
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

    Returns (count, quadruples); each quadruple is (g1, g2, g3, g4), four of
    the set's own elements, with g1 + g2 = g3 + g4 and {g3, g4} != {g1, g2},
    listed deterministically:
    by sum in lexicographic order, then by pair in (i <= j) order.  The
    budget pays one unit per pair and per coincidence; the count is known
    before any quadruple is listed, and BudgetExceededError is raised
    before then if pairs plus coincidences exceed it.
    """
    _check_limits(budget=budget)
    m = len(chars)
    n_pairs = m * (m + 1) // 2
    if n_pairs > budget:
        raise BudgetExceededError(f"{n_pairs} pairs exceed budget {budget}")
    pairs = np.stack(np.triu_indices(m), axis=1)      # (i, j), i <= j, in loop order
    order, starts = _runs(_signed_sums(chars, _coordinates(chars), pairs, 1))
    sizes = np.diff(np.r_[starts, n_pairs])
    count = int((sizes * (sizes - 1) // 2).sum())
    if n_pairs + count > budget:
        raise BudgetExceededError(
            f"{n_pairs} pairs and {count} coincidences exceed budget {budget}")
    # (a, b) positions a < b in one run: runs in order, then combinations order
    after = np.repeat(starts + sizes, sizes) - np.arange(n_pairs) - 1
    a = np.repeat(np.arange(n_pairs), after)
    b = a + 1 + np.arange(count) - np.repeat(np.cumsum(after) - after, after)
    elements = np.fromiter(chars, dtype=object, count=m)
    quads = elements[np.hstack([pairs[order[a]], pairs[order[b]]])]
    return count, list(zip(*quads.T))


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
