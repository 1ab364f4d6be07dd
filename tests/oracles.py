"""Independent brute-force oracles used to pin expected values in the tests.

Everything in this file is deliberately kept separate from the library code
paths: plain target enumeration, a scalar piecewise-linear minimizer, a
lift enumeration (`lifts_within`), and a dense target grid.  The library is
checked against these, never the other way around.  Four exceptions are
exhaustive forms of faster library code (`vertex_systems_loop`,
`min_error_box_full`, `separated_set_loop`, and `scan_targets_loop`, the
outer scan one target at a time): they share its helpers, and the library
must give their results bit for bit.  The arithmetic
diagnostics (`quasi_direct_loop`, `quasi_mitm_loop`, `b2_loop`) are the
scalar loops the library's integer-array forms must match in flag,
witness, count, quadruple order and budget stops.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from kronset import engine
from kronset._minimax import subset_count
from kronset.errors import BudgetExceededError

TWO_PI = 2.0 * math.pi


def circle_dist(a: float, b: float = 0.0) -> float:
    """Arc distance between two angles, in [0, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d < 0.0:
        d += TWO_PI
    return min(d, TWO_PI - d)


def min_error_breakpoints(slopes, targets) -> tuple[float, float]:
    """Exact minimum over theta of max_k dist(slopes[k]*theta, targets[k]).

    The objective is piecewise linear in theta, so the minimum sits at a
    kink of one tent function or at a crossing of two tents with opposite
    slope signs.  Enumerates every such candidate and evaluates all of them.
    Returns (theta, value).
    """
    slopes = list(slopes)
    targets = list(targets)
    const_err = 0.0
    cands = [0.0]
    for a, psi in zip(slopes, targets):
        if a == 0:
            const_err = max(const_err, circle_dist(psi))
            continue
        for t in range(2 * abs(a)):
            cands.append((psi + math.pi * t) / a % TWO_PI)
    for (a, pa), (b, pb) in itertools.combinations(
        [(a, p) for a, p in zip(slopes, targets) if a != 0], 2
    ):
        if a * b > 0:
            div, rhs = a + b, pa + pb
        else:
            div, rhs = a - b, pa - pb
        for t in range(abs(div)):
            cands.append((rhs + TWO_PI * t) / div % TWO_PI)

    best_theta, best_val = 0.0, math.inf
    for theta in cands:
        val = const_err
        for a, psi in zip(slopes, targets):
            if a != 0:
                val = max(val, circle_dist(a * theta, psi))
        if val < best_val - 1e-15 or (abs(val - best_val) <= 1e-15 and theta < best_theta):
            best_theta, best_val = theta, val
    return best_theta, best_val


def min_error_torus_slices(free, psi, slices: int) -> tuple[float, float]:
    """Minimum over the r-torus of s -> max_k dist(A_k.s, psi_k), A = free,
    from the exact minimum over the last coordinate (`min_error_breakpoints`)
    on each slice of a grid of slices^(r-1) values of the others.

    Returns (value, slack): the least slice minimum, which is never below
    the true minimum, and a bound on how far above it lies, since every
    point is within pi/slices of a slice in each gridded coordinate:
    pi/slices times max_k sum_{j<r} |A_kj|.
    """
    free = [[int(a) for a in row] for row in free]
    step = TWO_PI / slices
    best = math.inf
    for cell in itertools.product(range(slices), repeat=len(free[0]) - 1):
        targets = [p - sum(a * step * c for a, c in zip(row, cell)) for row, p in zip(free, psi)]
        best = min(best, min_error_breakpoints([row[-1] for row in free], targets)[1])
    return best, math.pi / slices * max(sum(abs(a) for a in row[:-1]) for row in free)


def scan_cells_loop(lowers, tops, costs, incumbent, used: int, limit: int, cap: float,
                    tol: float, slack: float) -> dict:
    """Reference decisions of the continuous-constant scan on cells whose
    values and bounds (tops) are known ahead, one cell at a time in order:
    charge the cell's cost (past `limit` the scan stops on the budget, the
    charge made), count it, make its lower end the incumbent's if it beats
    it (incumbent None: none yet), close the cell if its top is within
    slack of the incumbent, else open it, and stop once the incumbent
    reaches cap - tol.

    Returns a dict: used, enumerated, incumbents (the positions of the cells
    that became the incumbent), closed_hi and open_hi (largest bound over
    closed and open cells, 0 if none), opened (positions) and status
    ('done', 'capped' or 'budget').
    """
    out = {"enumerated": 0, "incumbents": [], "closed_hi": 0.0, "open_hi": 0.0,
           "opened": [], "status": "done"}
    for i, (lower, bound, cost) in enumerate(zip(lowers, tops, costs)):
        used += int(cost)
        if used > limit:
            out["status"] = "budget"
            break
        out["enumerated"] += 1
        if incumbent is None or lower > incumbent:
            incumbent = lower
            out["incumbents"].append(i)
        if bound - incumbent <= slack:
            out["closed_hi"] = max(out["closed_hi"], bound)
        else:
            out["open_hi"] = max(out["open_hi"], bound)
            out["opened"].append(i)
        if incumbent >= cap - tol:
            out["status"] = "capped"
            break
    out["used"] = used
    return out


def scan_targets_loop(scan, n: int, items, cap: float, radius: float = 0.0,
                      slack: float = 0.0, opened=None, lift_margin=None):
    """Reference for `engine._scan_targets`, with its arguments and results:
    the scan decided one target at a time, in order.

    On a set the sieve solves (`data.line`), a target is solved by
    `engine._solve_target` under the threshold cap = the incumbent's lower
    end + slack (no cap before the first incumbent), its charge paid or
    the scan stopped; one it leaves unsolved is solved again without a cap,
    charged again.  Otherwise `engine._solve_target` solves it, charging
    its cost or stopping the scan.  Given lift_margin, a solved target is
    charged the work of its cell's certified maximum (`engine._cell_tops`).
    A cell of a lifted block is charged its cost.  Then the target raises
    the incumbent if its lower end beats it, closes or opens by its top
    (value + radius without lifts), and is counted: as pruned if its
    threshold sieve solved it and it closes without raising the incumbent,
    else as enumerated; the scan stops once the incumbent reaches cap - tol.
    Solutions a block already carries are not read."""
    data, budget, stats = scan.data, scan.budget, scan.stats
    closed_hi = open_hi = 0.0
    sieve = data.line is not None
    try:
        budget.charge(0 if budget.used or data.r < 2 or sieve else subset_count(data.free_key))
    except BudgetExceededError:
        return closed_hi, open_hi, "budget"
    for block in items:
        lifted = isinstance(block, engine._LiftedBlock)
        for i, indices in enumerate(block.rows.tolist()):
            angles = np.array(indices, dtype=np.float64) * (TWO_PI / n)
            threshold = None
            try:
                if lifted:
                    budget.charge(int(block.cost[i]))
                    cell = block.take(np.array([i]))
                    lower, upper = float(block.lower[i]), float(cell.upper[0])
                else:
                    if sieve and scan.best is not None:
                        threshold = scan.best.lower + slack
                    solved = engine._solve_target(data, angles, (n, tuple(indices)), budget,
                                                  lift_margin, threshold)
                    if math.isnan(solved[0]):
                        threshold = None
                        solved = engine._solve_target(data, angles, (n, tuple(indices)),
                                                      budget, lift_margin)
                    lower, upper, point, exact, lifts = solved
                    cell = engine._Cells.of(np.array([indices]), np.array([upper]),
                                            np.array([upper + radius]), [lifts])
                    if lift_margin is not None:
                        cell.top, work = engine._cell_tops(data, cell, n)
                        budget.charge(int(work[0]))
            except BudgetExceededError:
                return closed_hi, open_hi, "budget"
            raised = scan.best is None or lower > scan.best.lower
            if raised:
                if lifted:
                    point, exact = block.witness(data, n, i)
                scan.best = engine._Incumbent(lower, n, tuple(indices), point, exact)
            bound = float(cell.top[0])
            shut = bound - scan.best.lower <= slack
            if shut and threshold is not None and not raised:
                stats.targets_pruned += 1
            else:
                stats.targets_enumerated += 1
            if shut:
                closed_hi = max(closed_hi, bound)
            else:
                open_hi = max(open_hi, bound)
                if opened is not None:
                    opened.append(cell)
            if scan.best.lower >= cap - scan.tol:
                return closed_hi, open_hi, "capped"
    return closed_hi, open_hi, "done"


def alpha_n_exhaustive(slopes, n: int) -> tuple[float, tuple[int, ...]]:
    """sup over all maps E -> nth-roots grid of the inner minimum, by full
    enumeration of the n^|E| targets.  Returns (value, worst grid indices)."""
    best_val, best_idx = -1.0, None
    for idx in itertools.product(range(n), repeat=len(slopes)):
        targets = [TWO_PI * j / n for j in idx]
        _, val = min_error_breakpoints(slopes, targets)
        if val > best_val + 1e-15:
            best_val, best_idx = val, idx
    return best_val, best_idx


def _pair_min_errors(a: int, b: int, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """Vectorized exact inner minimum for a two-element set {a, b} over a
    grid of targets: phi1 varies along axis 0, phi2 along axis 1."""
    m1, m2 = len(phi1), len(phi2)
    cand_list = []
    # kinks of each tent
    for t in range(2 * abs(a)):
        th = ((phi1 + math.pi * t) / a) % TWO_PI
        cand_list.append(np.broadcast_to(th[:, None], (m1, m2)))
    for t in range(2 * abs(b)):
        th = ((phi2 + math.pi * t) / b) % TWO_PI
        cand_list.append(np.broadcast_to(th[None, :], (m1, m2)))
    # V-crossings of the two tents
    if a * b > 0:
        div = a + b
        rhs = phi1[:, None] + phi2[None, :]
    else:
        div = a - b
        rhs = phi1[:, None] - phi2[None, :]
    for t in range(abs(div)):
        cand_list.append(((rhs + TWO_PI * t) / div) % TWO_PI)

    cands = np.stack(cand_list, axis=-1)  # (m1, m2, C)

    def dist(x):
        return np.abs(np.mod(x + math.pi, TWO_PI) - math.pi)

    f1 = dist(a * cands - phi1[:, None, None])
    f2 = dist(b * cands - phi2[None, :, None])
    return np.min(np.maximum(f1, f2), axis=-1)


def alpha_pair_grid(a: int, b: int, grid: int = 600, zoom_rounds: int = 6):
    """Dense-outer-grid oracle for the continuous-target constant of {a, b}.

    Scans a grid x grid mesh of target pairs with the exact inner breakpoint
    minimizer, then zooms the mesh around the best cell a few times.
    Returns (value, (phi1, phi2) witness target).
    """
    lo1, hi1 = 0.0, TWO_PI
    lo2, hi2 = 0.0, TWO_PI
    best = (-1.0, (0.0, 0.0))
    for _ in range(zoom_rounds):
        phi1 = np.linspace(lo1, hi1, grid, endpoint=False) % TWO_PI
        phi2 = np.linspace(lo2, hi2, grid, endpoint=False) % TWO_PI
        vals = _pair_min_errors(a, b, phi1, phi2)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j] > best[0]:
            best = (float(vals[i, j]), (float(phi1[i]), float(phi2[j])))
        w1 = (hi1 - lo1) / grid
        w2 = (hi2 - lo2) / grid
        lo1, hi1 = phi1[i] - 2 * w1, phi1[i] + 2 * w1
        lo2, hi2 = phi2[j] - 2 * w2, phi2[j] + 2 * w2
        grid = 40
    return best


def alpha_pair_exact(a: int, b: int) -> float:
    """The continuous-target constant of the pair {a, b} of nonzero
    integers in closed form: pi gcd(a, b) / (|a| + |b|).

    With u = phi + 2 pi nu a lift of the target phi, the inner value is
    the least over nu in Z^2 of min over real s of max(|a s - u_1|,
    |b s - u_2|).  Two V-shaped functions of s have the larger least at
    their crossing, of height |b u_1 - a u_2| / (|a| + |b|).  As nu ranges
    over Z^2, b u_1 - a u_2 = (b phi_1 - a phi_2) + 2 pi (b nu_1 - a nu_2)
    ranges over b phi_1 - a phi_2 + 2 pi gcd(a, b) Z (Bezout), so

        V(phi) = dist(b phi_1 - a phi_2, 2 pi gcd(a, b) Z) / (|a| + |b|).

    b phi_1 - a phi_2 takes every value modulo 2 pi gcd(a, b) on the torus,
    so the supremum of V is pi gcd(a, b) / (|a| + |b|)."""
    return math.pi * math.gcd(a, b) / (abs(a) + abs(b))


def cell_max_lp(slopes, t, radius: float, lifts) -> float:
    """The largest, over the targets t + x with every |x_j| <= radius, of
    the least over the lifts nu (rows of `lifts`) of the distance
    D_nu(u) = min over real s of max_k |a_k s - u_k|, u = t + x + 2 pi nu.

    D_nu is the largest of the affine functions +-(a_k u_j - a_j u_k) /
    (|a_j| + |a_k|) over pairs of nonzero slopes and +-u_k over zero slopes
    (0 when there are none).  The least over lifts of the largest over
    pieces is the largest over selections sigma, one piece a lift, of the
    least over lifts; for each sigma the linear program max z subject to z
    <= c_i + g_i.x and |x_j| <= radius is solved by enumerating its
    vertices, the points where m + 1 linearly independent constraints are
    tight, and keeping the feasible one of largest z.  Every selection is
    enumerated, so keep the lifts few (the cost is P^L selections)."""
    a = [int(v) for v in slopes]
    m = len(a)
    grads = []
    for j, k in itertools.combinations(range(m), 2):
        if a[j] and a[k]:
            g = np.zeros(m)
            g[j], g[k] = a[k] / (abs(a[j]) + abs(a[k])), -a[j] / (abs(a[j]) + abs(a[k]))
            grads += [g, -g]
    for k in range(m):
        if not a[k]:
            g = np.zeros(m)
            g[k] = 1.0
            grads += [g, -g]
    grads = np.array(grads or [np.zeros(m)])
    u = np.asarray(t, dtype=np.float64) + TWO_PI * np.asarray(lifts, dtype=np.float64)
    values = u @ grads.T
    # constraints rows . (x, z) <= rhs: the box, then one per lift
    box = np.zeros((2 * m, m + 1))
    box[np.arange(m), np.arange(m)] = 1.0
    box[m + np.arange(m), np.arange(m)] = -1.0
    subsets = np.array(list(itertools.combinations(range(2 * m + len(u)), m + 1)))
    best = -math.inf
    for sigma in itertools.product(range(len(grads)), repeat=len(u)):
        rows = np.concatenate([box, np.concatenate([-grads[list(sigma)], np.ones((len(u), 1))],
                                                   axis=1)])
        rhs = np.concatenate([np.full(2 * m, radius), values[np.arange(len(u)), list(sigma)]])
        mats = rows[subsets]
        ok = np.abs(np.linalg.det(mats)) > 1e-12
        points = np.linalg.solve(mats[ok], rhs[subsets[ok]][:, :, None])[:, :, 0]
        feasible = (points @ rows.T <= rhs + 1e-12).all(axis=1)
        best = max(best, float(points[feasible, m].max(initial=-math.inf)))
    return best


def best_point_torsion_exhaustive(orders, torsion_rows, target_turns):
    """Exact inner minimum over the full dual of a finite product group.

    orders: torsion orders [m_1, ..., m_s]; torsion_rows: per character the
    residue vector; target_turns: per character the target as a fraction of
    a full turn (exact rationals are fine).  Returns (value_turns, point).
    """
    from fractions import Fraction

    best_val, best_pt = None, None
    for point in itertools.product(*[range(m) for m in orders]):
        worst = Fraction(0)
        for row, tgt in zip(torsion_rows, target_turns):
            arg = sum(Fraction(t * c, m) for t, c, m in zip(row, point, orders)) % 1
            d = (Fraction(tgt) - arg) % 1
            d = min(d, 1 - d)
            worst = max(worst, d)
        if best_val is None or worst < best_val:
            best_val, best_pt = worst, point
    return best_val, best_pt


def shift_group(free_rows, torsion_rows, orders, n: int) -> list:
    """Every order-n target shift phi -> phi + arg gamma(y), as index rows,
    by breadth-first closure with no size cap.  The generators are the free
    columns mod n and, for each torsion factor, every multiple j of one
    step whose arguments, j t/order turns, all lie on the n-grid, found by
    trying each j < order."""
    gens = [tuple(a % n for a in col) for col in zip(*free_rows)]
    for i, order in enumerate(orders):
        col = [row[i] for row in torsion_rows]
        gens += [tuple(n * j * t // order % n for t in col) for j in range(1, order)
                 if all(n * j * t % order == 0 for t in col)]
    zero = (0,) * len(free_rows)
    group, frontier = {zero}, [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % n for a, b in zip(v, g))
            if w not in group:
                group.add(w)
                frontier.append(w)
    return sorted(group)


def orbit_least(rows, shifts, n: int) -> list:
    """Least element of each row's orbit under v -> +-v + h, h in shifts,
    compared as base-n integers, which orders them lexicographically."""
    rows = np.asarray(rows, dtype=np.int64)
    m = rows.shape[1]
    weights = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
    least = np.full(len(rows), n**m, dtype=np.int64)
    for h in shifts:
        for sign in (1, -1):
            least = np.minimum(least, (sign * rows + np.asarray(h)) % n @ weights)
    return [tuple(int(k) // n**(m - 1 - d) % n for d in range(m)) for k in least]


def orbit_minima(shifts, m: int, n: int) -> list:
    """Sorted least elements of the orbits of all order-n targets of m
    characters under v -> +-v + h, h in shifts."""
    targets = list(itertools.product(range(n), repeat=m))
    return sorted(set(orbit_least(targets, shifts, n)))


def torsion_units_loop(unit_rows, modulus: int, target_units, selections, budget):
    """Reference per-selection scan of a purely torsion dual in integer
    angle units: charges len(unit_rows) before each selection, stops at the
    first zero error.  Returns (best_units, first best selection)."""
    best_units, best_sel = None, None
    for sel in selections:
        budget.charge(len(unit_rows))
        worst = 0
        for row, tu in zip(unit_rows, target_units):
            e = (tu - sum(u * c for u, c in zip(row, sel))) % modulus
            worst = max(worst, min(e, modulus - e))
        if best_units is None or worst < best_units:
            best_units, best_sel = worst, sel
            if worst == 0:
                break
    return best_units, best_sel


def torsion_units_stacked(table, scale: int, modulus: int, targets, start: int, stop: int,
                          live: list):
    """`_minimax.solve_torsion_units` as one (targets x selections x
    characters) array reduced over the characters."""
    e = (targets[live, None, :] - table(start, stop).astype(targets.dtype) * scale) % modulus
    return np.minimum(e, modulus - e).max(axis=2)


def _dist(x):
    return np.abs(np.mod(x + math.pi, TWO_PI) - math.pi)


def circle_candidates_loop(slopes, psi) -> np.ndarray:
    """Reference candidate list of the rank-1 solve, built piece by piece:
    0, the kinks of the tent when only one slope is nonzero, then the
    crossings of each pair.  Once two slopes are nonzero, a point where a
    tent's two sides are both largest has objective 0, which some pair's
    crossing attains too, so no minimum needs the kinks."""
    parts = [np.zeros(1)]
    nz = [(int(a), float(p)) for a, p in zip(slopes, psi) if a != 0]
    for a, p in nz if len(nz) == 1 else ():
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


def circle_objective_loop(slopes, psi, thetas) -> np.ndarray:
    """max_k dist(a_k*theta, psi_k) at each theta, one character at a time;
    a zero slope contributes its constant dist(psi_k)."""
    vals = np.zeros(len(thetas))
    for a, p in zip(slopes, psi):
        term = _dist(float(a) * thetas - p) if a != 0 else np.full(len(thetas), _dist(p))
        vals = np.maximum(vals, term)
    return vals


def min_error_circle_loop(slopes, psi, budget):
    """Reference rank-1 solve of one target: charges candidates x
    characters (m when every slope is 0) before evaluating them, and
    returns (theta, lower, upper) with the smallest theta among ties."""
    slopes, psi = np.asarray(slopes), np.asarray(psi)
    zero = slopes == 0
    const_err = float(np.max(_dist(psi[zero]))) if zero.any() else 0.0
    if zero.all():
        budget.charge(len(slopes))
        return 0.0, const_err, const_err
    cands = circle_candidates_loop(slopes, psi)
    budget.charge(len(cands) * len(slopes))
    vals = circle_objective_loop(slopes, psi, cands)
    act, act_psi = slopes[~zero].astype(np.float64), psi[~zero]
    vmin = float(vals.min())
    theta = float(cands[vals <= vmin + 1e-12].min())
    upper = max(float(np.max(_dist(act * theta - act_psi))), const_err)
    lower = max(const_err, min(vmin, upper) - 1e-12 * max(1.0, float(np.abs(act).max())))
    return theta, max(0.0, lower), upper


def _det(rows) -> int:
    """Exact determinant of a small square integer matrix."""
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, a in enumerate(rows[0]) if a) if rows else 1


def vertex_systems_loop(free: tuple):
    """Reference `_minimax.vertex_systems`: each signed subset's adjugate by
    Laplace expansion in Python, one subset at a time."""
    from kronset._minimax import column_echelon
    h, u, rank = column_echelon(free)
    r = max(rank, 1)
    b, cols = (free, None) if r == len(free[0]) else (tuple(zip(*h[:r])), u[:r])
    pieces = [(k, sign, tuple(sign * x for x in b[k]))
              for k in range(len(b)) if any(b[k]) for sign in (1, -1)]
    systems = [((0,) * (r + 1), ((0,) * r,) * (r + 1), ((0,) * r,) * r, 1, (1,) * r)]
    for subset in itertools.combinations(range(len(pieces)), r + 1):
        if tuple(sorted(i ^ 1 for i in subset)) < subset:
            continue
        (k0, s0, g0), *rest = (pieces[i] for i in subset)
        mat = [tuple(x - y for x, y in zip(g0, g)) for _, _, g in rest]
        adj = tuple(tuple((-1) ** (i + j) * _det([row[:i] + row[i + 1:]
                                                  for k, row in enumerate(mat) if k != j])
                          for j in range(r)) for i in range(r))
        det = sum(mat[0][j] * adj[j][0] for j in range(r))
        # det times the barycentric coordinates of 0 among the gradients
        bary = [sum(adj[j][i] * g0[j] for j in range(r)) for i in range(r)]
        if det and min(det * x for x in bary + [det - sum(bary)]) >= 0:
            weights = [tuple(s0 * sum(row) for row in adj)]
            weights += [tuple(-s * row[i] for row in adj) for i, (_, s, _) in enumerate(rest)]
            systems.append(((k0, *(k for k, _, _ in rest)), tuple(weights), adj, det,
                            tuple(col[j] for j, col in enumerate(column_echelon(mat)[0]))))
    return systems, sum(abs(s[3]) for s in systems) * len(b), b, cols


def min_error_box_full(free, psi, budget):
    """Reference vertex kernel: `_minimax.min_error_box` as it was before
    it screened its candidates, valuing every candidate of every row
    exactly.  The screened kernel must give the same bits and charges."""
    from kronset._minimax import (CIRCLE_BLOCK, CIRCLE_TEMP, _dist_array, _mod_2pi,
                                  _residuals, _small_plan, vertex_plan, vertex_systems)
    key = tuple(map(tuple, free.tolist()))
    cost = vertex_systems(key)[1]
    budget.charge(len(psi) * cost)
    terms, weights, system, off, div, b, mask, slack, _, cols = (
        _small_plan if cost <= CIRCLE_BLOCK else vertex_plan)(key)
    const_err = _dist_array(psi[:, ~mask]).max(axis=1, initial=0.0)
    # one (rows x candidates) array per coordinate t_j
    y = weights * psi[:, terms].transpose(1, 0, 2)[:, None]
    cands = sum(y[1:], y[0])[:, :, system]
    cands += off[:, None]
    cands /= div
    cands = _mod_2pi(cands)
    vals = np.repeat(const_err[:, None], cands.shape[2], axis=1)
    step, coords, u = max(1, CIRCLE_TEMP // cands[0].size), cands[:, :, None], psi[:, mask, None]
    for c in range(0, b.shape[1], step):
        resid = _residuals(b[:, c:c + step], coords, u[:, c:c + step])
        np.maximum(vals, _dist_array(resid).max(axis=1), out=vals)
    vmin = vals.min(axis=1)
    # the least point among ties keeps results schedule-independent
    near = vals <= vmin[:, None] + 1e-12
    theta = np.empty((len(cands), len(psi)))
    for j, coord in enumerate(cands):
        coord = np.where(near, coord, np.inf)
        theta[j] = coord.min(axis=1)
        if j + 1 < len(cands):
            near &= coord == theta[j, :, None]
    upper = np.maximum(_dist_array(_residuals(b, theta[:, :, None, None], u))
                       .max(axis=1, initial=0.0)[:, 0], const_err)
    # constant (zero-row) constraints bound the objective exactly everywhere
    lower = np.maximum(np.maximum(const_err, np.minimum(vmin, upper) - slack), 0.0)
    s = theta.T if cols is None else _mod_2pi(_residuals(cols, theta[:, :, None], 0.0))
    return s, lower, upper


def line_value(slopes, u) -> float:
    """min over real s of max_k |a_k s - u_k| for one lift u (a zero slope
    adds the constant |u_k|), by valuing the largest at every pairwise
    crossing and every zero of a nonzero slope, one at a time."""
    nz = [(int(a), float(x)) for a, x in zip(slopes, u) if a]
    floor = max([abs(float(x)) for a, x in zip(slopes, u) if not a], default=0.0)
    points = [x / a for a, x in nz]
    for (a, x), (b, y) in itertools.combinations(nz, 2):
        points += [(x + y) / (a + b)] if a * b > 0 else [(x - y) / (a - b)]
    best = min((max(abs(a * s - x) for a, x in nz) for s in points), default=0.0)
    return max(best, floor)


def lifts_within(slopes, psi, cap: float) -> dict:
    """Every lift class of inner value at most cap, as {nu: value}: nu the
    representative whose first nonzero slope's entry lies in [0, |a|) (that
    is nu_j - (nu_j // a_j) a, in Python's floor division), value its
    `line_value` at u = psi + 2 pi nu.  For cap < pi.

    Brute force over lift vectors, with the nonzero slopes taken in
    increasing |a|: the first runs over one representative per class, and
    each next nu_k over the box its pair with the previous one allows
    (|a_k u_p - a_p u_k| <= cap (|a_p| + |a_k|) is necessary), so no
    vector of value at most cap is skipped; a zero slope takes the nu_k
    nearest -psi_k / 2 pi, the only one with |u_k| < pi."""
    slopes = [int(a) for a in slopes]
    psi = [float(p) for p in psi]
    m = len(slopes)
    nz = sorted((k for k in range(m) if slopes[k]), key=lambda k: abs(slopes[k]))
    base = [0] * m
    for k in range(m):
        if not slopes[k]:
            base[k] = round(-psi[k] / TWO_PI)
    out = {}
    if not nz:
        return out

    def extend(nu, rest):
        if not rest:
            u = [p + TWO_PI * v for p, v in zip(psi, nu)]
            value = line_value(slopes, u)
            if value <= cap:
                j = next(k for k in range(m) if slopes[k])
                shift = nu[j] // slopes[j]
                out[tuple(v - shift * a for v, a in zip(nu, slopes))] = value
            return
        p, k = next(j for j in reversed(nz) if j not in rest), rest[0]
        a, b = slopes[p], slopes[k]
        up = psi[p] + TWO_PI * nu[p]
        # |b up - a uk| <= cap (|a| + |b|): uk within cap (|a| + |b|) / |a| of b up / a
        centre, half = b * up / a, cap * (abs(a) + abs(b)) / abs(a)
        lo = math.floor((centre - half - psi[k]) / TWO_PI)
        hi = math.ceil((centre + half - psi[k]) / TWO_PI)
        for v in range(lo, hi + 1):
            nu[k] = v
            extend(nu, rest[1:])

    first = nz[0]
    for v in range(abs(slopes[first])):
        nu = list(base)
        nu[first] = v
        extend(nu, nz[1:])
    return out


def circle_selections_loop(slopes, tau, angles, selections, budget):
    """Reference solve on free rank 1 plus torsion: one
    `min_error_circle_loop` per selection, with the targets shifted by
    tau @ selection.  Returns (least lower, least upper, its theta, the
    first selection attaining it)."""
    lower, best = math.inf, None
    for sel in selections:
        theta, lo, up = min_error_circle_loop(slopes, angles - tau @ np.asarray(sel), budget)
        lower = min(lower, lo)
        if best is None or up < best[0]:
            best = (up, theta, sel)
    return lower, *best


def net_universe(free_rows, torsion_rows, orders, grid_cells=None):
    """The greedy net's candidate points in canonical order, each as
    ((torus angles, torsion selection), per-character arguments)."""
    r = len(free_rows[0]) if free_rows else 0
    ranges = [range(grid_cells) for _ in range(r)] + [range(m) for m in orders]
    points = []
    for combo in itertools.product(*ranges):
        angles = tuple(TWO_PI * t / grid_cells for t in combo[:r])
        sel = combo[r:]
        args = [sum(a * th for a, th in zip(free, angles))
                + sum(TWO_PI * t * c / m for t, c, m in zip(tors, sel, orders))
                for free, tors in zip(free_rows, torsion_rows)]
        points.append(((angles, sel), args))
    return points


def greedy_separated(points, floor: float):
    """Scalar greedy pass: a point is kept iff the chord 2 sin(d/2) of its
    largest arc distance d to every kept point is at least floor."""
    kept = []
    for key, args in points:
        if all(2.0 * math.sin(max(circle_dist(a, b) for a, b in zip(args, other)) / 2.0)
               >= floor for _, other in kept):
            kept.append((key, args))
    return [key for key, _ in kept]


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


def _canonical_witness(coeffs) -> tuple[int, ...]:
    for c in coeffs:
        if c != 0:
            return coeffs if c > 0 else tuple(-v for v in coeffs)
    return coeffs


def quasi_direct_loop(chars, budget):
    """Smallest-support-first search for a {-1,0,1} relation, one signed
    sum at a time, charging the support size per signing."""
    m = len(chars)
    work = 0
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            for rest in itertools.product((1, -1), repeat=size - 1):
                signs = (1,) + rest
                work += size
                if work > budget:
                    raise BudgetExceededError("signed-sum enumeration exceeded budget")
                free, tors = _signed_sum(chars, support, signs)
                if not any(free) and not any(tors):
                    witness = [0] * m
                    for idx, sign in zip(support, signs):
                        witness[idx] = sign
                    return False, tuple(witness)
    return True, None


def quasi_mitm_loop(chars, budget):
    """Meet-in-the-middle with a dict: every signed sum of the first half
    keyed to its first signing, the second half scanned for a negation."""
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


def b2_loop(chars, budget):
    """Pair sums bucketed in a dict; coincidences listed bucket by bucket in
    sorted key order, pairs within a bucket in loop order.  Charges only
    the pairs."""
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


def separated_set_loop(chars, epsilon: float, grid_cells=None):
    """The greedy net pass one candidate at a time, with the library's own
    argument and distance helpers: ((torus angles, torsion selection) of
    each admitted point, universe size).  The library's chunked pass must
    give the same points."""
    from kronset._minimax import _dist_array
    from kronset.engine import _set_data
    from kronset.groups import DualPoint, chordal_of_angle

    group = chars.group
    r = group.free_rank
    data = _set_data(chars)
    ranges = [range(grid_cells) for _ in range(r)] + [range(m) for m in group.torsion_orders]
    admitted, admitted_args = [], []
    count = 0
    for combo in itertools.product(*ranges):
        count += 1
        point = DualPoint(group, tuple(TWO_PI * t / grid_cells for t in combo[:r]), combo[r:])
        args = data.point_args(point)
        if admitted and chordal_of_angle(float(
                _dist_array(args - np.array(admitted_args)).max(axis=1).min())) < epsilon - 1e-12:
            continue
        admitted_args.append(args)
        admitted.append((point.torus_angles, point.torsion_selections))
    return admitted, count


def mixed_example_error_curve(big_n: int, u_grid: int = 10_000):
    """Best approximation error for the sign-flip target on the paired
    coset-like set in Z x Z2^N, minimized over a u-grid with the per-factor
    binary choice resolved exactly at each u."""
    u = np.linspace(0.0, TWO_PI, u_grid, endpoint=False)

    def dist(x):
        return np.abs(np.mod(x + math.pi, TWO_PI) - math.pi)

    worst = np.zeros_like(u)
    for n in range(1, big_n + 1):
        e0 = np.maximum(dist(n * u - math.pi), dist(-n * u))      # c_n = 0
        e1 = np.maximum(dist(n * u), dist(-n * u - math.pi))      # c_n = 1
        worst = np.maximum(worst, np.minimum(e0, e1))
    k = int(np.argmin(worst))
    return float(worst[k]), float(u[k])


if __name__ == "__main__":
    print("alpha({1,2})   =", alpha_pair_grid(1, 2)[0], " pi/3 =", math.pi / 3)
    print("alpha({1,-1})  =", alpha_pair_grid(-1, 1)[0], " pi/2 =", math.pi / 2)
    print("alpha({1,3})   =", alpha_pair_grid(1, 3)[0], " pi/4 =", math.pi / 4)
    print("alpha_3({1,4,7})    =", alpha_n_exhaustive([1, 4, 7], 3))
    print("alpha_3({-2,1,4})   =", alpha_n_exhaustive([-2, 1, 4], 3))
    print("best_point {1,2} phi=(0,pi):", min_error_breakpoints([1, 2], [0.0, math.pi]))
    for n in (4, 6, 8, 10):
        v, u = mixed_example_error_curve(n)
        print(f"mixed N={n}: err={v:.6f}  (pi - pi/{n+1} = {math.pi - math.pi/(n+1):.6f})  u={u:.4f}")
