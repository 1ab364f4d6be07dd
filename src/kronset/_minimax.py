"""Certified minimizers for the worst-coordinate approximation error.

Two continuous solvers live here.  For a single torus coordinate the
objective theta -> max_k dist(a_k * theta, psi_k) is piecewise linear with
slopes +-a_k, so its exact minimum is found by enumerating tent kinks and
the V-shaped crossings between tents.  For several torus coordinates a
Lipschitz branch-and-bound over boxes produces a bracket of requested
width instead.  On a purely torsion dual the minimum is exact: every
selection's error is read, a block at a time, from a table of the
characters' arguments in integer angle units.  All of them charge their
evaluation counts against a budget.
"""
from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError

TWO_PI = 2.0 * math.pi
BOX_INIT_CELLS = 4  # per free axis, in min_error_box's first grid
#: most torsion selections read (and table rows held) at a time
TABLE_BLOCK = 1 << 12


#: 2*pi as a 26-bit head and its exact tail, so that q * head and q * tail
#: are exact for every integer |q| < MOD_QMAX
_TWO_PI_HEAD = math.ldexp(math.floor(math.ldexp(TWO_PI, 23)), -23)
_TWO_PI_TAIL = TWO_PI - _TWO_PI_HEAD
MOD_QMAX = float(1 << 23)
#: fewest elements `_mod_2pi` reduces itself; below it np.mod's one pass
#: beats the fixed cost of its several
MOD_CUTOVER = 1 << 11


def _mod_2pi(y: np.ndarray) -> np.ndarray:
    """np.mod(y, 2*pi), bit for bit, at a fraction of its cost on large arrays.

    numpy reduces by fmod and, for a negative remainder, adds 2*pi once.
    Here r = (y - q*head) - q*tail with q = floor(y / 2*pi), for |q| <
    MOD_QMAX.  Where q >= 0 or q <= -2 both steps are exact, as fmod and
    numpy's sum are.  Where q == -1 the sum y + head is exact or rounded to
    the 2**-50 grid, on which tail lies at an even number of steps, so r is
    y + 2*pi rounded once, as numpy's is.  Elements whose rounded q was one
    off (r outside [0, 2*pi)) go through np.mod, and so does the whole
    array when it is small or reaches |q| >= MOD_QMAX (or holds inf or nan).
    """
    if y.size < MOD_CUTOVER:
        return np.mod(y, TWO_PI)
    q = np.multiply(y, 1.0 / TWO_PI)
    np.floor(q, out=q)
    if not (-MOD_QMAX < q.min() and q.max() < MOD_QMAX):
        return np.mod(y, TWO_PI)
    r = np.multiply(q, _TWO_PI_HEAD)
    np.subtract(y, r, out=r)
    np.multiply(q, _TWO_PI_TAIL, out=q)
    r -= q
    if r.min() < 0.0 or r.max() >= TWO_PI:
        off = r < 0.0
        off |= r >= TWO_PI
        np.mod(y, TWO_PI, out=r, where=off)
    return r


def _dist_array(x: np.ndarray) -> np.ndarray:
    """Elementwise arc distance of angles from 0, in [0, pi]:
    |np.mod(x + pi, 2*pi) - pi| bit for bit, reduced by `_mod_2pi`."""
    d = _mod_2pi(x + math.pi)
    d -= math.pi
    return np.abs(d, out=d)


#: most elements of a block's (rows x characters x candidates) array
CIRCLE_BLOCK = 1 << 16
#: most float64 elements of one character block's temporaries in
#: `min_error_circle` (64 KB): glibc serves these from its heap and keeps them
#: for the next block, where larger ones would be mapped and unmapped anew
CIRCLE_TEMP = 1 << 13


@lru_cache(maxsize=256)
def circle_pieces(slopes: tuple):
    """Candidate minimizers of max_k dist(a_k*theta, psi_k) on the circle,
    as pieces (J, K, step, d, count), and the evaluations one row of
    `min_error_circle` is charged (candidates times characters).

    Candidates are the kinks of each tent (its zeros and peaks) and, for
    every pair of tents, the crossings where one descends into the other:
    with matching slope signs these satisfy (a_j + a_k) theta = psi_j + psi_k
    mod 2*pi, with opposite signs (a_j - a_k) theta = psi_j - psi_k mod 2*pi.
    A piece holds the candidates (P[J] + P[K] + step*t) / d, t < count, with
    P = [psi, -psi, 0]; the first is the candidate 0."""
    m = len(slopes)
    nz = [i for i, a in enumerate(slopes) if a != 0]
    pieces = [(2 * m, 2 * m, 0.0, 1, 1)]
    pieces += [(i, 2 * m, math.pi, slopes[i], 2 * abs(slopes[i])) for i in nz]
    for p, q in itertools.combinations(nz, 2):
        a, b = slopes[p], slopes[q]
        d, pk = (a + b, q) if a * b > 0 else (a - b, m + q)
        pieces.append((p, pk, TWO_PI, d, abs(d)))
    return tuple(pieces), sum(piece[-1] for piece in pieces) * m


def circle_plan(slopes: tuple):
    """The candidates of `circle_pieces` as index and offset arrays, with
    the nonzero-slope mask and max |a|: (J, K, OFF, DIV, mask, max |a|),
    candidate c being (P[J[c]] + P[K[c]] + OFF[c]) / DIV[c] mod 2*pi."""
    pieces = circle_pieces(slopes)[0]
    size = [piece[-1] for piece in pieces]
    j, k, step, div = (np.repeat(col, size) for col in list(zip(*pieces))[:4])
    off = step * np.concatenate([np.arange(c, dtype=np.float64) for c in size])
    return j, k, off, div, np.array(slopes) != 0, float(max(map(abs, slopes)))


#: plans of at most CIRCLE_BLOCK evaluations a row, kept for the next call
_small_plan = lru_cache(maxsize=16)(circle_plan)


def min_error_circle(slopes: np.ndarray, psi: np.ndarray, budget, lift_margin=None):
    """Exact minimum of theta -> max_k dist(a_k*theta, psi_k).

    Takes the targets as rows psi[s] and returns arrays (theta, lower,
    upper) of one entry per row, with upper attained at theta and lower =
    upper minus a slack covering floating-point placement of the candidate
    points; every row is charged before the candidates or their plan are
    built.  Given lift_margin, also returns as a fourth item a list of each
    row's lifts within lift_margin of its minimum (see `circle_lifts`).

    Candidates and residuals are reduced by `_mod_2pi`, and the characters
    are folded into the objective a block at a time, each block's
    temporaries holding at most CIRCLE_TEMP elements (or one character's).
    """
    key = tuple(slopes.tolist())
    cost = circle_pieces(key)[1]
    budget.charge(len(psi) * cost)
    j, k, off, div, mask, amax = (_small_plan if cost <= CIRCLE_BLOCK else circle_plan)(key)
    const_err = _dist_array(psi[:, ~mask]).max(axis=1, initial=0.0)
    p = np.concatenate([psi, -psi, np.zeros((len(psi), 1))], axis=1)
    cands = p[:, j]
    cands += p[:, k]
    cands += off
    cands /= div
    cands = _mod_2pi(cands)
    a, u = slopes[mask].astype(np.float64)[:, None], psi[:, mask, None]
    vals = np.repeat(const_err[:, None], cands.shape[1], axis=1)
    step = max(1, CIRCLE_TEMP // cands.size)
    for c in range(0, len(a), step):
        resid = a[c:c + step] * cands[:, None, :]
        resid -= u[:, c:c + step]
        np.maximum(vals, _dist_array(resid).max(axis=1), out=vals)
    vmin = vals.min(axis=1)
    # smallest theta among ties keeps results schedule-independent
    theta = np.where(vals <= vmin[:, None] + 1e-12, cands, np.inf).min(axis=1)
    upper = np.maximum(_dist_array(a * theta[:, None, None] - u).max(axis=1, initial=0.0)[:, 0],
                       const_err)
    # the slack covers floating-point placement of the candidates; constant
    # (zero-slope) constraints bound the objective exactly at every theta
    lower = np.maximum(np.maximum(const_err, np.minimum(vmin, upper)
                                  - 1e-12 * max(1.0, amax)), 0.0)
    if lift_margin is None:
        return theta, lower, upper
    return theta, lower, upper, [circle_lifts(slopes, row, c, v, up + lift_margin)
                                 for row, c, v, up in zip(psi, cands, vals, upper)]


# ---------------------------------------------------------------------------
# lifts: the circle objective as a minimum of convex functions of the target
# ---------------------------------------------------------------------------
#
# With u = psi + 2*pi*nu for an integer vector nu (a lift of the target),
#
#     min over theta of max_k dist(a_k*theta, psi_k)
#         = min over nu of  min over real s of max_k |a_k*s - u_k|,
#
# and nu, nu + a give the same inner value.  Each inner value is a convex,
# 1-Lipschitz (sup-norm) function of the target, so a small set of lifts
# found once gives the exact minimum at every nearby target.

LIFT_EPS = 1e-9


def _line_terms(slopes: np.ndarray):
    """Index pairs (j, k) of nonzero slopes and indices of zero slopes."""
    return _line_terms_of(tuple(slopes.tolist()))


@lru_cache(maxsize=256)
def _line_terms_of(slopes: tuple):
    nz = np.flatnonzero(slopes)
    j, k = np.triu_indices(len(nz), 1)
    return nz[j], nz[k], np.flatnonzero(np.asarray(slopes) == 0)


def line_term_count(slopes: np.ndarray) -> int:
    """Terms `line_distances` takes the largest of, per lift (at least 1)."""
    j, _, zero = _line_terms(slopes)
    return max(1, len(j) + len(zero))


def line_distances(slopes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min over real s of max_k |a_k*s - u_k|, over the last axis of u.

    The largest of these V-shaped functions is least at the crossing of
    two of them, so the minimum is the largest over pairs of the pair's
    crossing height |a_k u_j - a_j u_k| / (|a_j| + |a_k|); a zero slope
    adds the constant |u_k|.
    """
    a = slopes.astype(np.float64)
    j, k, zero = _line_terms(slopes)
    terms = np.abs(u[..., j] * a[k] - u[..., k] * a[j]) / (np.abs(a[j]) + np.abs(a[k]))
    if zero.size:
        terms = np.concatenate([terms, np.abs(u[..., zero])], axis=-1)
    return terms.max(axis=-1, initial=0.0)


def line_witness(slopes: np.ndarray, u: np.ndarray) -> float:
    """A real s attaining `line_distances` for one lift u: the best of the
    pairwise crossings and, for a single nonzero slope, its zero."""
    a = slopes.astype(np.float64)
    j, k, _ = _line_terms(slopes)
    same = a[j] * a[k] > 0
    cross = np.where(same, (u[j] + u[k]) / np.where(same, a[j] + a[k], 1.0),
                     (u[j] - u[k]) / np.where(same, 1.0, a[j] - a[k]))
    nz = np.flatnonzero(slopes)
    s = np.concatenate([cross, u[nz] / a[nz]])
    vals = np.abs(a[None, nz] * s[:, None] - u[None, nz]).max(axis=1)
    return float(s[vals.argmin()])


def circle_lifts(slopes: np.ndarray, psi: np.ndarray, cands: np.ndarray,
                 vals: np.ndarray, cut: float):
    """Every lift nu (one per class modulo the slopes) whose inner value is
    at most `cut`, with those values, from the circle candidates and their
    objective values; None when every slope is 0 or cut reaches pi, where
    residuals stop determining their lift.

    A lift's inner minimum sits at a crossing of two of its lines, which is
    a circle candidate whose residuals a*theta - u all lie in [-pi, pi], so
    rounding the candidate's residuals recovers the lift and its value.
    """
    if cut >= math.pi - LIFT_EPS or not slopes.any():
        return None
    near = vals <= cut + LIFT_EPS
    theta = cands[near]
    nu = np.rint((slopes[None, :] * theta[:, None] - psi[None, :]) / TWO_PI).astype(np.int64)
    j0 = int(np.flatnonzero(slopes)[0])
    nu -= (nu[:, j0] // slopes[j0])[:, None] * slopes[None, :]
    keys, inverse = np.unique(nu, axis=0, return_inverse=True)
    best = np.full(len(keys), math.inf)
    np.minimum.at(best, inverse.ravel(), vals[near])
    return keys, best


def min_error_box(free_matrix: np.ndarray, psi: np.ndarray, tol: float, budget):
    """Lipschitz-certified bracket for the minimum over the torus power.

    free_matrix is the (m x r) integer matrix of free coordinates; the
    objective is Lipschitz in coordinate j with constant max_k |A_kj|, and
    never below the constant error of its all-zero rows.  Splits boxes until
    incumbent - global lower bound <= tol, charging m evaluations per probed
    centre.
    """
    m, r = free_matrix.shape
    lip = np.abs(free_matrix).max(axis=0).astype(np.float64)
    zero_rows = ~free_matrix.any(axis=1)
    # all-zero rows put a constant floor under the objective everywhere
    floor = float(_dist_array(psi[zero_rows]).max()) if zero_rows.any() else None

    def value(theta: np.ndarray) -> float:
        return float(_dist_array(free_matrix @ theta - psi).max())

    def bound(val: float, width: np.ndarray) -> float:
        lb = val - 0.5 * float(lip @ width)
        return lb if floor is None else max(lb, floor)

    counter = itertools.count()
    heap = []
    best_val, best_theta = math.inf, None
    steps = [BOX_INIT_CELLS if lip[j] > 0 else 1 for j in range(r)]
    for corner in itertools.product(*[range(s) for s in steps]):
        lo = np.array([TWO_PI * c / s for c, s in zip(corner, steps)])
        width = np.array([TWO_PI / s for s in steps])
        centre = lo + width / 2.0
        budget.charge(m)
        val = value(centre)
        if val < best_val:
            best_val, best_theta = val, centre
        heapq.heappush(heap, (bound(val, width), next(counter), lo, width, val))

    while heap:
        lb, _, lo, width, val = heapq.heappop(heap)
        if best_val - lb <= tol:
            return best_theta, max(0.0, min(lb, best_val)), best_val
        j = int(np.argmax(lip * width))
        half = width.copy()
        half[j] /= 2.0
        for shift in (0.0, half[j]):
            clo = lo.copy()
            clo[j] += shift
            centre = clo + half / 2.0
            budget.charge(m)
            cval = value(centre)
            if cval < best_val:
                best_val, best_theta = cval, centre
            heapq.heappush(heap, (bound(cval, half), next(counter), clo, half, cval))
    raise BudgetExceededError("box refinement exhausted its candidate heap")


def exact_dtype(bound: int):
    """int64 when integers below `bound` and sums of a few of them fit,
    else Python integers (object arrays), so torsion values stay exact."""
    return np.int64 if bound < 1 << 61 else object


def budget_blocks(count: int, cost: int, rows: int, budget):
    """(start, stop) blocks of rows 0..count-1, at most `rows` at a time and
    never more than the budget left pays for at `cost` units each, which the
    caller charges.  With no room left, charges one row, as a loop charging
    each row would, which raises."""
    start = 0
    while start < count:
        take = min(rows, count - start, max(budget.remaining, 0) // cost)
        if take == 0:
            budget.charge(cost)
        yield start, start + take
        start += take


def first_least(errors, count: int, m: int, budget):
    """Least of the per-selection errors over selections 0..count-1 and the
    first selection attaining it.

    errors(start, stop) gives the errors of selections start..stop-1, read
    in `budget_blocks`.  The charges equal those of a loop that charges m
    before it evaluates each selection and stops at the first zero error:
    m per selection read up to that zero (or all of them), and at
    exhaustion one selection past the room left, which raises.
    """
    best = best_index = None
    for start, stop in budget_blocks(count, m, TABLE_BLOCK, budget):
        worst = errors(start, stop)
        i = int(worst.argmin())
        if worst[i] == 0:
            budget.charge((i + 1) * m)
            return worst[i], start + i
        budget.charge((stop - start) * m)
        if best is None or worst[i] < best:
            best, best_index = worst[i], start + i
    return best, best_index


def solve_torsion_units(table, count: int, scale: int, modulus: int, target_units, budget):
    """Exact inner minimum on a purely torsion dual, in integer angle units.

    table(start, stop) gives rows start..stop-1 of the selection table: row
    s holds every character's argument at the s-th torsion selection, in
    units of a full turn divided by modulus // scale.  target_units[k] is
    character k's target in units of a full turn divided by `modulus`.
    Returns (best_units, index of the first best selection), charging as
    `first_least` does.
    """
    dtype = exact_dtype(modulus)
    t = np.array(target_units, dtype=dtype)

    def errors(start: int, stop: int) -> np.ndarray:
        e = (t - table(start, stop).astype(dtype) * scale) % modulus
        return np.minimum(e, modulus - e).max(axis=1)

    units, index = first_least(errors, count, len(t), budget)
    return int(units), index
