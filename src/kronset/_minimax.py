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


def min_error_circle(slopes: np.ndarray, psi: np.ndarray, budget):
    """Exact minimum of theta -> max_k dist(a_k*theta, psi_k).

    Returns (theta, lower, upper) with upper attained at theta and lower =
    upper minus a slack covering floating-point placement of the candidate
    points.
    """
    const_err = 0.0
    zero_mask = slopes == 0
    if zero_mask.any():
        const_err = float(np.max(_dist_array(psi[zero_mask])))
    if zero_mask.all():
        budget.charge(len(slopes))
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
    return theta, max(0.0, lower), upper


def min_error_box(free_matrix: np.ndarray, psi: np.ndarray, tol: float, budget):
    """Lipschitz-certified bracket for the minimum over the torus power.

    free_matrix is the (m x r) integer matrix of free coordinates; the
    objective is Lipschitz in coordinate j with constant max_k |A_kj|.
    Splits boxes until incumbent - global lower bound <= tol, charging m
    evaluations per probed centre.
    """
    m, r = free_matrix.shape
    lip = np.abs(free_matrix).max(axis=0).astype(np.float64)

    def value(theta: np.ndarray) -> float:
        return float(_dist_array(free_matrix @ theta - psi).max())

    def bound(val: float, width: np.ndarray) -> float:
        return val - 0.5 * float(lip @ width)

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
