"""Certified minimizers for the worst-coordinate approximation error.

Two continuous solvers live here.  For a single torus coordinate the
objective theta -> max_k dist(a_k * theta, psi_k) is piecewise linear with
slopes +-a_k, so its exact minimum is found by enumerating tent kinks and
the V-shaped crossings between tents.  For several torus coordinates a
Lipschitz branch-and-bound over boxes produces a bracket of requested
width instead.  Both charge their evaluation counts against a budget.
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


def _dist_array(x: np.ndarray) -> np.ndarray:
    """Elementwise arc distance of angles from 0, in [0, pi]."""
    return np.abs(np.mod(x + math.pi, TWO_PI) - math.pi)


def circle_candidate_count(slopes) -> int:
    nz = [int(a) for a in slopes if a != 0]
    count = 1 + sum(2 * abs(a) for a in nz)
    for a, b in itertools.combinations(nz, 2):
        count += abs(a + b) if a * b > 0 else abs(a - b)
    return count


def circle_candidates(slopes: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """All candidate minimizers of max_k dist(a_k*theta, psi_k) on the circle.

    Candidates are the kinks of each tent (its zeros and peaks) and, for
    every pair of tents, the crossings where one descends into the other:
    with matching slope signs these satisfy (a_j + a_k) theta = psi_j + psi_k
    mod 2*pi, with opposite signs (a_j - a_k) theta = psi_j - psi_k mod 2*pi.
    """
    parts = [np.zeros(1)]
    nz = [(int(a), float(p)) for a, p in zip(slopes, psi) if a != 0]
    for a, p in nz:
        t = np.arange(2 * abs(a), dtype=np.float64)
        parts.append((p + math.pi * t) / a)
    for (a, pa), (b, pb) in itertools.combinations(nz, 2):
        if a * b > 0:
            div, rhs = a + b, pa + pb
        else:
            div, rhs = a - b, pa - pb
        t = np.arange(abs(div), dtype=np.float64)
        parts.append((rhs + TWO_PI * t) / div)
    return np.mod(np.concatenate(parts), TWO_PI)


def min_error_circle(slopes: np.ndarray, psi: np.ndarray, budget, lift_margin=None):
    """Exact minimum of theta -> max_k dist(a_k*theta, psi_k).

    Returns (theta, lower, upper) with upper attained at theta and lower =
    upper minus a slack covering floating-point placement of the candidate
    points.  Given lift_margin, also returns the lifts within lift_margin
    of the minimum (see `circle_lifts`) as a fourth item.
    """
    const_err = 0.0
    zero_mask = slopes == 0
    if zero_mask.any():
        const_err = float(np.max(_dist_array(psi[zero_mask])))
    if zero_mask.all():
        budget.charge(len(slopes))
        if lift_margin is not None:
            return 0.0, const_err, const_err, None
        return 0.0, const_err, const_err

    budget.charge(circle_candidate_count(slopes) * len(slopes))
    act_slopes = slopes[~zero_mask].astype(np.float64)
    act_psi = psi[~zero_mask]
    cands = circle_candidates(slopes, psi)
    vals = _dist_array(act_slopes[:, None] * cands[None, :] - act_psi[:, None]).max(axis=0)
    if const_err > 0.0:
        np.maximum(vals, const_err, out=vals)
    vmin = float(vals.min())
    # smallest theta among ties keeps results schedule-independent
    theta = float(cands[vals <= vmin + 1e-12].min())
    upper = max(float(np.max(_dist_array(act_slopes * theta - act_psi))), const_err)
    amax = float(np.max(np.abs(act_slopes)))
    # the slack covers floating-point placement of the candidates; constant
    # (zero-slope) constraints bound the objective exactly at every theta
    lower = max(const_err, min(vmin, upper) - 1e-12 * max(1.0, amax))
    if lift_margin is not None:
        lifts = circle_lifts(slopes, psi, cands, vals, upper + lift_margin)
        return theta, max(0.0, lower), upper, lifts
    return theta, max(0.0, lower), upper


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
    objective values; None when cut reaches pi, where residuals stop
    determining their lift.

    A lift's inner minimum sits at a crossing of two of its lines, which is
    a circle candidate whose residuals a*theta - u all lie in [-pi, pi], so
    rounding the candidate's residuals recovers the lift and its value.
    """
    if cut >= math.pi - LIFT_EPS:
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


def solve_torsion_units(unit_rows, modulus: int, target_units, selections, budget):
    """Exact inner minimum on a purely torsion dual, in integer angle units.

    unit_rows[k][i] is the contribution of one step of torsion factor i to
    character k's argument, target_units[k] the target, both in units of a
    full turn divided by `modulus`.  Enumerates `selections`, returning
    (best_units, best_selection).
    """
    best_units, best_sel = None, None
    for sel in selections:
        budget.charge(len(unit_rows))
        worst = 0
        for row, tu in zip(unit_rows, target_units):
            au = sum(u * c for u, c in zip(row, sel)) % modulus
            e = (tu - au) % modulus
            e = min(e, modulus - e)
            if e > worst:
                worst = e
        if best_units is None or worst < best_units:
            best_units, best_sel = worst, sel
            if worst == 0:
                break
    return best_units, best_sel
