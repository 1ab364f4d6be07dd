"""Certified minimizers for the worst-coordinate approximation error.

Three exact solvers live here.  On a free part of reduced rank 1 (sets in
Z, Z times torsion factors, collinear sets in Z^r) `min_error_circle`
sieves the circle for the lift classes within a cap of the target and
values each in closed form (`line_distances`).  On a free part of rank
r' >= 2 the objective is piecewise linear, so after a unimodular change of
coordinates its minimum sits at one of finitely many vertices, found in
closed form and, on large calls, screened in a cheap pass first
(`min_error_box`).  On a purely torsion dual every selection's error is
read from a table of the characters' arguments in integer angle units.
The free-part solvers charge their evaluations to a budget when given one;
the torsion search returns each target's charge for its caller to pay.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
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
#: most float64 elements of one temporary in `min_error_box`'s character
#: blocks and the sieve's steps (64 KB): glibc serves these from its heap and
#: keeps them for the next block, where larger ones would be mapped anew and
#: add to the peak resident size
CIRCLE_TEMP = 1 << 13


def column_echelon(rows):
    """(H, U, rank): H = A U in lower column echelon form (columns past
    `rank` zero, positive pivots) for the integer rows of A, U unimodular,
    both as lists of columns.  For a nonsingular A, prod range(H[j][j])
    holds one vector of each coset of A's column lattice."""
    m, r = len(rows), len(rows[0])
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(r)] for j in range(r)]
    rank = 0
    for i in range(m):
        while any(c[i] for c in cols[rank + 1:]):
            j = min((j for j in range(rank, r) if cols[j][i]), key=lambda j: abs(cols[j][i]))
            cols[rank], cols[j] = cols[j], cols[rank]
            for c in cols[rank + 1:]:
                q = c[i] // cols[rank][i]
                c[:] = [x - q * y for x, y in zip(c, cols[rank])]
        if rank < r and cols[rank][i]:
            cols[rank] = [x if cols[rank][i] > 0 else -x for x in cols[rank]]
            rank += 1
    return [c[:m] for c in cols], [c[m:] for c in cols], rank


def _dets(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack (S x k x k) of integer matrices, by
    Laplace expansion along the first row, each step over the whole stack."""
    if mats.shape[1] == 0:
        return np.ones(len(mats), dtype=mats.dtype)
    total = mats[:, 0, 0] * _dets(mats[:, 1:, 1:])
    for j in range(1, mats.shape[1]):
        term = mats[:, 0, j] * _dets(np.delete(mats[:, 1:], j, axis=2))
        total = total - term if j % 2 else total + term
    return total


def subset_count(free: tuple) -> int:
    """Signed subsets `vertex_systems` examines: C(2m', r'+1) / 2."""
    return math.comb(2 * sum(map(any, free)), max(column_echelon(free)[2], 1) + 1) // 2


@lru_cache(maxsize=256)
def vertex_systems(free: tuple):
    """Candidates for the least s -> max_k dist(A_k.s, psi_k) on the torus,
    A the integer rows `free`: (systems, evaluations charged per row, B, U).

    B = A U has full column rank r' >= 1, U the first r' columns of a
    unimodular matrix (`column_echelon`; B = A, U None at full rank), and
    s = U t.  For a lift u = psi + 2*pi*nu the least max_k |B_k.t - u_k| is
    at a vertex where r'+1 signed pieces sigma_i (B_{k_i}.t - u_{k_i}) are
    equal, with affinely independent gradients sigma_i B_{k_i} holding 0 in
    their hull: mod 2*pi, M t = c with M_i = sigma_0 B_{k_0} - sigma_i B_{k_i}
    and c_i = sigma_0 psi_{k_0} - sigma_i psi_{k_i}, so t = adj M (c + 2*pi*n)
    / det M for the |det M| vectors n of M's coset box.  A system is (rows
    k, weights w, adj M, det M, box), sum_t w[t] psi[k[t]] = adj M c, one
    per pair of opposite subsets; the first is the candidate 0.  The
    engine solves free parts of reduced rank 1 on the circle instead
    (`min_error_circle`), so it asks for these from r' = 2 on.
    """
    h, u, rank = column_echelon(free)
    r = max(rank, 1)
    b, cols = (free, None) if r == len(free[0]) else (tuple(zip(*h[:r])), u[:r])
    pieces = [(k, sign) for k in range(len(b)) if any(b[k]) for sign in (1, -1)]
    big = max((abs(x) for row in b for x in row), default=0)
    dtype = exact_dtype(math.factorial(r + 2) * (2 * big + 1) ** (r + 1))
    grads = np.array([[sign * x for x in b[k]] for k, sign in pieces], dtype=dtype).reshape(-1, r)
    rows, signs = np.array(pieces, dtype=np.int64).reshape(-1, 2).T
    systems = [((0,) * (r + 1), ((0,) * r,) * (r + 1), ((0,) * r,) * r, 1, (1,) * r)]
    subsets = itertools.combinations(range(len(pieces)), r + 1)
    for chunk in iter(lambda: list(itertools.islice(subsets, TABLE_BLOCK)), []):
        block = np.array(chunk, dtype=np.int64)
        # one of each pair of opposite subsets: not above its flip, compared lexicographically
        flip = np.sort(block ^ 1, axis=1)
        differ = flip != block
        first = differ.argmax(axis=1)
        at = np.arange(len(block))
        block = block[~(differ.any(axis=1) & (flip[at, first] < block[at, first]))]
        g0, rest = grads[block[:, 0]], grads[block[:, 1:]]
        mat = g0[:, None, :] - rest
        adj = np.empty_like(mat)
        for i in range(r):
            for j in range(r):
                minor = np.delete(np.delete(mat, j, axis=1), i, axis=2)
                adj[:, i, j] = _dets(minor) if (i + j) % 2 == 0 else -_dets(minor)
        det = (mat[:, 0, :] * adj[:, :, 0]).sum(axis=1)
        # det times the barycentric coordinates of 0 among the gradients
        bary = (adj * g0[:, :, None]).sum(axis=1)
        coords = np.concatenate([bary, (det - bary.sum(axis=1))[:, None]], axis=1)
        take = (det != 0) & np.where(det > 0, (coords >= 0).all(axis=1), (coords <= 0).all(axis=1))
        block, mat, adj, det = block[take], mat[take], adj[take], det[take]
        weights = np.concatenate([(signs[block[:, 0], None] * adj.sum(axis=2))[:, None],
                                  -signs[block[:, 1:], None] * adj.transpose(0, 2, 1)], axis=1)
        # M's coset box, the diagonal of its column echelon form: g_k / g_{k-1},
        # g_k the gcd of the k x k minors of M's first k rows (g_r = |det M|)
        gcds = [np.ones(len(mat), dtype=dtype)]
        for k in range(1, r):
            gcds.append(np.gcd.reduce([_dets(mat[:, :k, list(c)])
                                       for c in itertools.combinations(range(r), k)]))
        gcds.append(abs(det))
        box = np.stack([g // f for f, g in zip(gcds, gcds[1:])], axis=1)
        for ks, w, a, d, n in zip(rows[block].tolist(), weights.tolist(), adj.tolist(),
                                  det.tolist(), box.tolist()):
            systems.append((tuple(ks), tuple(map(tuple, w)), tuple(map(tuple, a)), d, tuple(n)))
    return systems, sum(abs(s[3]) for s in systems) * len(b), b, cols


def vertex_plan(free: tuple):
    """`vertex_systems` as arrays (terms, weights, system, offsets, divisors,
    nonzero rows of B by column, their mask, slack, margin, U): candidate c
    of the kept systems is (y[system[c]] + offsets[c]) / divisors[c] mod
    2*pi, y = sum_t weights[t] psi[terms[t]]; the slack 1e-12 max(1, W A)
    covers the rounding of candidates and residuals, W = max_k |B_k|_1 and
    A = max |adj M|.  margin = (gain, floor) bounds the screen's cut in
    `min_error_box` at gain * max|psi| + floor.

    The margin's bound, with u = 2**-53, P = max|psi| and r' coordinates:
    an unreduced candidate coordinate is at most A (2 r' P + 2 pi) (its
    y sums 2 r' weights of at most A, its offset at most 2 pi A (|det M| - 1),
    both over |det M|), so |B_k.t| <= W C with C = (A + 1) (2 r' P + 2 pi).
    The exact pass reduces t and the residual mod the float 2*pi, off the
    true 2 pi by under u 2 pi per turn, and rounds r' + 3 sums of at most
    W 2 pi + P + pi; the screen rounds r' + 4 sums of at most (W C + P) / 2
    pi turns and subtracts its nearest integer exactly.  Both values of a
    candidate stay within E = 8 (r' + 6) u (W (C + 2 pi) + P + 4) of the true
    arc distance (twice the first-order sum), so a cut at the least
    screened value plus 2 E + 1e-12 keeps every candidate within 1e-12 of
    the exact minimum.
    """
    systems, _, b, cols = vertex_systems(free)
    size = [abs(s[3]) for s in systems]
    off = np.concatenate([TWO_PI * (np.array(adj) @ np.array(np.unravel_index(np.arange(n), box)))
                          for (_, _, adj, _, box), n in zip(systems, size)], axis=1)
    mask = np.array(list(map(any, b)))
    r = len(b[0])
    width = float(max(map(sum, np.abs(b).tolist())))
    adj = float(max(np.abs(s[2]).max() for s in systems))
    rounding = 16 * (r + 6) * 2.0 ** -53
    margin = (rounding * (2 * r * width * (adj + 1) + 1),
              rounding * (TWO_PI * width * (adj + 2) + 4) + 1e-12)
    return (np.array([s[0] for s in systems]).T,
            np.array([s[1] for s in systems], dtype=np.float64).transpose(1, 2, 0)[:, :, None],
            np.repeat(np.arange(len(systems)), size), off,
            np.repeat([float(s[3]) for s in systems], size),
            np.array(b, dtype=np.float64)[mask].T[:, :, None].copy(), mask,
            1e-12 * max(1.0, width * adj), margin,
            None if cols is None else np.array(cols, dtype=np.float64))


#: fewest evaluations (rows x candidates x characters, the call's charge)
#: for which `min_error_box` screens its candidates before the exact pass;
#: below it the screen's fixed cost of a few dozen numpy calls outweighs
#: what it saves
SCREEN_CUTOVER = 1 << 13

#: plans of at most CIRCLE_BLOCK evaluations a row, kept for the next call
_small_plan = lru_cache(maxsize=16)(vertex_plan)


def _plan(key: tuple):
    """`vertex_plan(key)`, kept for the next call if small (`_small_plan`)."""
    return (_small_plan if vertex_systems(key)[1] <= CIRCLE_BLOCK else vertex_plan)(key)


def _residuals(coeffs, coords, u):
    """sum_j coeffs[j] * coords[j] - u, summed in a fixed order."""
    resid = coeffs[0] * coords[0]
    for j in range(1, len(coeffs)):
        resid += coeffs[j] * coords[j]
    resid -= u
    return resid


def _screened(b, cands, psi):
    """Rows x candidates: the objective at the unreduced candidates `cands`,
    in turns, each character's residual reduced by its nearest integer (a
    few array passes a character, where `_dist_array` takes about 17).
    Within the plan's margin of the exact value (see `vertex_plan`)."""
    turn = 1.0 / TWO_PI
    coords = np.multiply(cands, turn)
    psi = (psi * turn).T[:, :, None].copy()
    best = np.zeros(coords.shape[1:])
    x, n = np.empty_like(best), np.empty_like(best)
    for k, slopes in enumerate(b[:, :, 0].T.tolist()):
        np.multiply(coords[0], slopes[0], out=x)
        for j in range(1, len(coords)):
            np.multiply(coords[j], slopes[j], out=n)
            x += n
        x -= psi[k]
        np.rint(x, out=n)
        x -= n
        np.abs(x, out=x)
        np.maximum(best, x, out=best)
    return best


def _screen(b, cands, psi, floor, cut):
    """Rows x candidates mask of the candidates whose `_screened` value is
    at most the row's least (or its floor) plus `cut`."""
    turn = 1.0 / TWO_PI
    best = _screened(b, cands, psi)
    least = np.maximum(best.min(axis=1), floor * turn)
    return best <= (least + cut * turn)[:, None]


def _survivors(cands, keep):
    """The candidates `keep` marks, each row's moved to its front in order,
    the rest of the row zero: (candidates, mask of the ones kept)."""
    counts = keep.sum(axis=1)
    index = np.flatnonzero(keep)
    row = index // keep.shape[1]
    pos = np.arange(len(index)) - np.repeat(np.cumsum(counts) - counts, counts)
    out = np.zeros(cands.shape[:2] + (counts.max(),))
    out[:, row, pos] = cands.reshape(len(cands), -1)[:, index]
    return out, np.arange(out.shape[2]) < counts[:, None]


def min_error_box(free: np.ndarray, psi: np.ndarray, budget=None):
    """Exact minimum of s -> max_k dist(A_k.s, psi_k) on the torus, A the
    (m x r) integer matrix `free`, for each row psi[i] of targets.

    Returns arrays (s, lower, upper), charging every row m per candidate
    the plan keeps, `vertex_systems(key)[1]`, to `budget` (None: the
    caller has paid) before any work; callers pay for the systems
    themselves up front (`subset_count`).  s is the least candidate
    (lexicographically, in B's coordinates t) within 1e-12 of the least
    value, upper attained at s, lower = upper minus the plan's slack.

    From SCREEN_CUTOVER evaluations on, `_screen` first drops every
    candidate whose screened value exceeds the row's least by more than the
    plan's margin: none of them is within 1e-12 of the minimum.  The exact
    pass values the rest as it values every candidate below the cutover, so
    values, ties and witnesses are the same bits.  The rows of A are folded
    in a block at a time, temporaries of at most CIRCLE_TEMP elements.
    """
    key = tuple(map(tuple, free.tolist()))
    cost = vertex_systems(key)[1]
    if budget is not None:
        budget.charge(len(psi) * cost)
    plan = _plan(key)
    b, mask, slack, margin, cols = plan[5:]
    const_err = _dist_array(psi[:, ~mask]).max(axis=1, initial=0.0)
    u = psi[:, mask, None]
    cands = _candidates(plan, psi)
    kept = None
    if len(psi) * cost >= SCREEN_CUTOVER:
        cut = margin[0] * float(np.abs(psi).max()) + margin[1]
        cands, kept = _survivors(cands, _screen(b, cands, u[:, :, 0], const_err, cut))
    cands = _mod_2pi(cands)
    vals = np.repeat(const_err[:, None], cands.shape[2], axis=1)
    step, coords = max(1, CIRCLE_TEMP // cands[0].size), cands[:, :, None]
    for c in range(0, b.shape[1], step):
        resid = _residuals(b[:, c:c + step], coords, u[:, c:c + step])
        np.maximum(vals, _dist_array(resid).max(axis=1), out=vals)
    if kept is not None:
        vals[~kept] = np.inf
    vmin = vals.min(axis=1)
    # the least point among ties keeps results schedule-independent
    near = vals <= vmin[:, None] + 1e-12
    theta = np.empty((len(cands), len(psi)))
    for j, coord in enumerate(cands):
        coord = np.where(near, coord, np.inf)
        theta[j] = coord.min(axis=1)
        if j + 1 < len(cands):
            near &= coord == theta[j, :, None]
    upper = _objective(b, theta, u, const_err)
    # constant (zero-row) constraints bound the objective exactly everywhere
    lower = np.maximum(np.maximum(const_err, np.minimum(vmin, upper) - slack), 0.0)
    return _torus_point(cols, theta), lower, upper


def _candidates(plan, psi: np.ndarray) -> np.ndarray:
    """The plan's candidates for each row of psi, not yet reduced: one
    (rows x candidates) array per coordinate t_j."""
    terms, weights, system, off, div = plan[:5]
    y = weights * psi[:, terms].transpose(1, 0, 2)[:, None]
    cands = np.take(sum(y[1:], y[0]), system, axis=2)
    cands += off[:, None]
    cands /= div
    return cands


def _objective(b, theta: np.ndarray, u: np.ndarray, const_err: np.ndarray) -> np.ndarray:
    """The objective at one reduced point theta[:, i] (B's coordinates) a
    row, with the bits the exact pass gives that point as a candidate."""
    return np.maximum(_dist_array(_residuals(b, theta[:, :, None, None], u))
                      .max(axis=1, initial=0.0)[:, 0], const_err)


def _torus_point(cols, theta: np.ndarray) -> np.ndarray:
    """The torus points s = U t of the rows' points t = theta[:, i]."""
    return theta.T if cols is None else _mod_2pi(_residuals(cols, theta[:, :, None], 0.0))


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


@lru_cache(maxsize=256)
def _line_terms(slopes: tuple):
    """Index pairs (j, k) of nonzero slopes, indices of zero slopes, and
    over the pairs as floats a_j, a_k, |a_j| + |a_k|, the sign s of a_j a_k
    and a_j + s a_k."""
    nz = np.flatnonzero(slopes)
    j, k = np.triu_indices(len(nz), 1)
    a = np.array(slopes, dtype=np.float64)
    j, k = nz[j], nz[k]
    s = np.where(a[j] * a[k] > 0, 1.0, -1.0)
    return (j, k, np.flatnonzero(a == 0), a[j], a[k], np.abs(a[j]) + np.abs(a[k]), s,
            a[j] + s * a[k])


def line_term_count(slopes: np.ndarray) -> int:
    """Terms `line_distances` takes the largest of, per lift (at least 1)."""
    j, _, zero, *_ = _line_terms(tuple(slopes.tolist()))
    return max(1, len(j) + len(zero))


def _line_values(slopes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The signed terms of `line_distances` over the last axis of u: each
    pair's (a_k u_j - a_j u_k) / (|a_j| + |a_k|), then each zero slope's
    u_k.  Each is linear in u with a gradient of L1 norm 1 that is
    orthogonal to the slopes (`_line_pieces`)."""
    j, k, zero, aj, ak, norm, *_ = _line_terms(tuple(slopes.tolist()))
    terms = (u[..., j] * ak - u[..., k] * aj) / norm
    return np.concatenate([terms, u[..., zero]], axis=-1) if zero.size else terms


def line_distances(slopes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min over real s of max_k |a_k*s - u_k|, over the last axis of u.

    The largest of these V-shaped functions is least at the crossing of
    two of them, so the minimum is the largest over pairs of the pair's
    crossing height |a_k u_j - a_j u_k| / (|a_j| + |a_k|); a zero slope
    adds the constant |u_k|.
    """
    return np.abs(_line_values(slopes, u)).max(axis=-1, initial=0.0)


def line_witness(slopes: np.ndarray, u: np.ndarray) -> float:
    """A real s attaining `line_distances` for one lift u (`_crossings`)."""
    return float(_crossings(slopes, u[None])[0])


def _crossings(slopes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A real s attaining `line_distances` for each row of lifts u: the
    crossing of the pair of largest term, where the largest of the V-shapes
    is least, or the zero of a lone nonzero slope (0 with none)."""
    j, k, _, _, _, _, sign, den = _line_terms(tuple(slopes.tolist()))
    if not len(j):
        nz = np.flatnonzero(slopes)[:1]
        return u[:, nz].sum(axis=1) / float(slopes[nz].sum()) if len(nz) else np.zeros(len(u))
    if len(j) == 1:
        return (u[:, j[0]] + sign[0] * u[:, k[0]]) / den[0]
    pick = np.abs(_line_values(slopes, u)[:, :len(j)]).argmax(axis=1)
    at = np.arange(len(u))
    return (u[at, j[pick]] + sign[pick] * u[at, k[pick]]) / den[pick]


def circle_unit(slopes) -> int:
    """Budget units a row of `min_error_circle` is charged: m per crossing
    of two tents (or kink of a lone one) and 1, m (1 + (m' - 1) sum_k |a_k|)
    over m' nonzero slopes, m (1 + 2|a|) for one; it bounds the sieve's
    intervals."""
    nz = [abs(int(a)) for a in slopes if a]
    return len(slopes) * (1 + (2 * nz[0] if len(nz) == 1 else (len(nz) - 1) * sum(nz)))


def circle_slack(slopes: np.ndarray) -> float:
    """Rounding slack of `min_error_circle`'s values, far above the error of
    valuing a lift or a point in float64."""
    return 1e-12 * max(1.0, float(np.abs(slopes).max(initial=0)))


def _sieve(a: np.ndarray, q: np.ndarray, reach: float):
    """(row, arcs) of every nonempty intersection of one arc a character,
    {t : |a_i t - q_i - j_i| <= reach} in turns, for the rows q (k x m') of
    targets, slopes a positive and non-decreasing: each intersection's row,
    in order, and its arcs' indices j (as floats).  Each character after
    the first cuts every interval by the (at most K) arcs meeting it, as
    (intervals x K) arrays; where that would pass CIRCLE_TEMP elements the
    rows are halved and each half sieved on its own."""
    k, count = q.shape
    a0 = int(a[0])
    row = np.repeat(np.arange(k), a0)
    arcs = np.tile(np.arange(a0, dtype=np.float64), k)[:, None]
    lo = (q[row, 0] + arcs[:, 0] - reach) / a0
    hi = lo + 2 * reach / a0
    for i in range(1, count):
        x = q[row, i]
        first = np.ceil(a[i] * lo - reach - x)
        width = int((np.floor(a[i] * hi + reach - x) - first).max(initial=-1)) + 1
        if width * len(row) > CIRCLE_TEMP and k > 1:
            (r0, n0), (r1, n1) = _sieve(a, q[:k // 2], reach), _sieve(a, q[k // 2:], reach)
            return np.concatenate([r0, r1 + k // 2]), np.concatenate([n0, n1])
        j = first[:, None] + np.arange(width)
        c = (x[:, None] + j - reach) / a[i]
        lo = np.maximum(lo[:, None], c)
        c += 2 * reach / a[i]
        hi = np.minimum(hi[:, None], c)
        src, at = np.nonzero(lo <= hi)
        lo, hi, row = lo[src, at], hi[src, at], row[src]
        arcs = np.concatenate([arcs[src], j[src, at, None]], axis=1)
    return row, arcs


@lru_cache(maxsize=256)
def _circle_plan(slopes: tuple):
    """(zero mask, nonzero indices in increasing |a|, their slopes, signs
    and |a| as floats, `circle_slack`, pairs of nonzero slopes) of a slope
    tuple."""
    a = np.array(slopes, dtype=np.int64)
    nz = np.flatnonzero(a)
    order = nz[np.argsort(np.abs(a[nz]), kind="stable")]
    line = a[order].astype(np.float64)
    return (a == 0, order, line[None, :, None], np.sign(line), np.abs(line), circle_slack(a),
            len(nz) * (len(nz) - 1) // 2)


def min_error_circle(slopes: np.ndarray, psi: np.ndarray, budget=None, *, cap=None,
                     lift_margin=None):
    """Exact minimum over theta of max_k dist(a_k theta, psi_k), a the
    integer `slopes`, for each row psi[i] of targets: (theta, lower, upper),
    each row charged `circle_unit` to `budget` (None: the caller has paid).

    `_sieve` lists a row's lift classes (lifts nu modulo the slopes) within
    its reach, valued by `line_distances` a block at a time.  theta is the
    least reduced `_crossings` point of the classes whose nonzero slopes'
    part is within 1e-12 of least, upper the objective there, lower =
    min(least value, upper) - `circle_slack`.  Without a cap the reach is
    pi (1 - 1/m') for m' nonzero slopes: m' arcs of measure 2 (pi - U)
    cannot cover the circle, so every minimum lies below it.  With a cap,
    rows whose lower end passes it get theta nan and lower = upper = inf,
    the others their uncapped results bit for bit.  Given lift_margin, also
    each solved row's classes of value at most upper + lift_margin
    (`_lift_classes`); the sieve then reaches lift_margin further.
    """
    if budget is not None:
        budget.charge(len(psi) * circle_unit(slopes.tolist()))
    k, m = psi.shape
    zero, order, line, sign, steps, slack, pairs = _circle_plan(tuple(slopes.tolist()))
    flat = len(order) < m
    const_err = _dist_array(psi[:, zero]).max(axis=1) if flat else np.zeros(k)
    limit = math.pi * (1 - 1 / max(len(order), 1)) if cap is None else cap
    row = np.flatnonzero(const_err <= limit) if cap is not None and flat else np.arange(k)
    if not len(order):
        nu = np.empty((len(row), m), dtype=np.int64)
    else:
        # with lifts and no cap a row's value may be its zero slopes' constant
        span = (max(limit, float(const_err.max(initial=0.0)))
                if cap is None and lift_margin is not None else limit)
        reach = min(span + (lift_margin or 0.0), math.pi - LIFT_EPS) + LIFT_EPS + 2 * slack
        at, arcs = _sieve(steps, psi[row][:, order] * (sign / TWO_PI), reach / TWO_PI)
        row, nu = row[at], np.empty((len(at), m), dtype=np.int64)
        nu[:, order] = arcs * sign
    if flat:
        nu[:, zero] = np.rint(-psi[row][:, zero] / TWO_PI)
    u = psi[row] + TWO_PI * nu
    # the largest pair term of each class, a block at a time; zero slopes
    # add theirs
    part = np.zeros(len(u))
    step = max(1, CIRCLE_TEMP // max(pairs, 1))
    for c in range(0, len(u) if pairs else 0, step):
        part[c:c + step] = np.abs(_line_values(slopes, u[c:c + step])[:, :pairs]).max(axis=1)
    vals = np.maximum(part, np.abs(u[:, zero]).max(axis=1)) if flat else part
    vmin = np.full(k, np.inf)
    np.minimum.at(vmin, row, vals)
    # the witness is the least point among the classes whose pair part is
    # within 1e-12 of least: those, unlike the ties of the zero slopes'
    # constant, are found under any cap that solves the row
    least = vmin
    if flat:
        least = np.full(k, np.inf)
        np.minimum.at(least, row, part)
    near = part <= least[row] + 1e-12
    # 2 pi stands for no point: np.mod may round a point up to it
    theta = np.full(k, TWO_PI)
    np.minimum.at(theta, row[near], np.mod(_crossings(slopes, u[near]), TWO_PI))
    upper = np.maximum(_dist_array(line * theta[:, None, None] - psi[:, order, None]).max(
        axis=1, initial=0.0)[:, 0], const_err)
    lower = np.maximum(np.maximum(const_err, np.minimum(vmin, upper) - slack), 0.0)
    missed = np.isinf(vmin)
    if cap is not None:
        missed |= lower > limit
    if missed.any():
        theta[missed], lower[missed], upper[missed] = np.nan, np.inf, np.inf
    if lift_margin is None:
        return theta, lower, upper
    return theta, lower, upper, _lift_classes(slopes, row, nu, vals, upper + lift_margin)


def _lift_classes(slopes: np.ndarray, row: np.ndarray, nu: np.ndarray, vals: np.ndarray,
                  cut: np.ndarray) -> list:
    """Per row, its classes (rows of nu, in `row`) of value at most its cut
    + LIFT_EPS, as (nu - (nu_j // a_j) a at the first nonzero slope j,
    values), distinct, in lexicographic order, each with its least value;
    None for a row whose cut reaches pi - LIFT_EPS, where a class has no
    longer one arc a character, or when every slope is 0."""
    lifts = [None] * len(cut)
    nz = np.flatnonzero(slopes)
    near = vals <= np.where(cut < math.pi - LIFT_EPS, cut + LIFT_EPS, -np.inf)[row]
    if not len(nz) or not near.any():
        return lifts
    nu, vals = nu[near], vals[near]
    nu -= (nu[:, nz[0]] // slopes[nz[0]])[:, None] * slopes
    # (row, class) keys, sorted; each distinct one keeps its least value
    key = np.column_stack([row[near], nu])
    order = np.lexsort(key.T[::-1])
    key, vals = key[order], vals[order]
    at = np.flatnonzero(np.concatenate([[True], (key[1:] != key[:-1]).any(axis=1)]))
    key, vals = key[at], np.minimum.reduceat(vals, at)
    row = key[:, 0].tolist()
    bounds = [i for i in range(len(row) + 1) if i in (0, len(row)) or row[i] != row[i - 1]]
    for start, stop in zip(bounds, bounds[1:]):
        lifts[row[start]] = (key[start:stop, 1:], vals[start:stop])
    return lifts


#: most (selection, dual system) pairs `cell_maxima` examines for one cell;
#: a cell past it gets no bound, so its caller keeps value + radius.  The
#: `ladder` triples need at most 81 selections of 26 systems a cell at
#: order 8; {-12,5,11} reaches 1,296 selections there, and its cells close
#: an order later
CELL_SYSTEMS = 1 << 13


@lru_cache(maxsize=256)
def _line_pieces(slopes: tuple) -> np.ndarray:
    """Gradients (P x m) of the affine pieces whose largest is
    `line_distances`: the terms of `_line_values`, then their negatives; one
    zero piece when there are no terms (a single character)."""
    grads = _line_values(np.array(slopes), np.eye(len(slopes))).T
    return np.concatenate([grads, -grads]) if len(grads) else np.zeros((1, len(slopes)))


@lru_cache(maxsize=64)
def _dual_systems(k: int, m: int, j0: int):
    """The dual systems `cell_maxima` tries on k lifts of m characters, by
    support size s = 1 .. min(k, m): (S, J) with one system a row, S its s
    lifts and J s - 1 of the m coordinates.  At s = m one J is enough: the
    gradients lie in the plane orthogonal to the slopes, on which the
    coordinates other than j0, a character of nonzero slope, determine the
    last."""
    out = []
    for s in range(1, min(k, m) + 1):
        coords = [tuple(j for j in range(m) if j != j0)] if s == m else list(
            itertools.combinations(range(m), s - 1))
        rows = list(itertools.product(itertools.combinations(range(k), s), coords))
        out.append((np.array([S for S, _ in rows], dtype=np.int64),
                    np.array([J for _, J in rows], dtype=np.int64).reshape(len(rows), s - 1)))
    return out


@lru_cache(maxsize=64)
def _system_counts(most: int, m: int) -> np.ndarray:
    """The dual systems `_dual_systems` lists per selection on k = 0 ..
    most lifts of m characters: the sum over s < m of C(k, s) C(m, s - 1),
    plus C(k, m)."""
    return np.array([sum(math.comb(k, s) * (1 if s == m else math.comb(m, s - 1))
                         for s in range(1, min(k, m) + 1)) for k in range(most + 1)])


def _dual_least(c: np.ndarray, g: np.ndarray, radius: float, least: np.ndarray, systems):
    """`least` lowered to the least dual bound sum_i l_i c_i + radius |sum_i
    l_i g_i|_1 over the systems of support 2 and more, for each row of
    piece values c (rows x k) and gradients g (rows x k x m).

    A system's l solves (sum_i l_i g_i)_j = 0 for j in J, sum_i l_i = 1 on
    its support S of two or three lifts (LIFT_MAX_SIZE keeps m at most 3):
    l is proportional to the signed minors of the J columns of the
    support's gradients (at three, the cross product of the two columns).  Negative parts are dropped before l is
    scaled to sum 1, so every l tried lies in the simplex and its bound
    holds; a singular system gives none."""
    for S, J in systems[1:]:
        gs = g[:, S]
        gj = g[:, S[:, :, None], J[:, None, :]]
        if S.shape[1] == 2:
            w = gj[..., ::-1, 0] * np.array([1.0, -1.0])
        else:
            a, b = gj[..., 0], gj[..., 1]
            w = a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]
        w *= np.sign(w.sum(axis=-1, keepdims=True))
        np.maximum(w, 0.0, out=w)
        total = w.sum(axis=-1)
        lam = w / np.where(total > 0.0, total, np.nan)[..., None]
        bound = np.einsum("rqs,rqs->rq", lam, c[:, S])
        bound += radius * np.abs(np.einsum("rqs,rqsj->rqj", lam, gs)).sum(axis=-1)
        np.fmin(least, bound.min(axis=1, initial=np.inf, where=total > 0.0), out=least)
    return least


def cell_maxima(slopes: np.ndarray, u: np.ndarray, cell: np.ndarray, cells: int,
                radius: float):
    """Upper bounds on the largest inner value over cells of targets, each
    every target within `radius` of its centre in every coordinate, from
    lifts: u (L x m) the lifts' unwrapped targets phi + 2 pi nu at the
    centres and `cell` the cell of each, non-decreasing, each of the
    `cells` cells owning at least one.  Returns (bound, work) per cell:
    bound at least the largest over the cell of the least over its lifts of
    `line_distances` (inf for a cell past CELL_SYSTEMS), and the
    (selection, system) pairs examined.

    A lift's distance is the largest of affine pieces c + g.x of the
    offset x from the centre, |g|_1 = 1 (`_line_pieces`), so only pieces
    within 2 radius of its value at the centre can be the largest on the
    cell.  The least over lifts of the largest over those pieces is the
    largest over selections sigma, one kept piece a lift, of the least over
    lifts; by LP duality the largest over the cell of min_i c_i + g_i.x is
    the least over l in the simplex of sum_i l_i c_i + radius |sum_i l_i
    g_i|_1.  That is piecewise linear, least at a vertex of the arrangement
    of the planes (sum_i l_i g_i)_j = 0 in the simplex, and as the g_i span
    at most m - 1 dimensions such a vertex has at most m lifts in its
    support: `_dual_systems` lists them all, so the bound is the maximum
    up to rounding.  The selections of a cell go in two rounds: first the
    one of largest singleton bound min_i c_i + radius, then only those
    whose singleton bound beats that one's bound.

    The cells of one lift take the largest of their selections' singleton
    bounds at once.  The others are valued together, those of fewer lifts
    than the most padded with a constant lift above every value on the
    cells, which is never least there; a cell's work counts its own lifts'
    systems.
    """
    m = u.shape[1]
    terms = _line_values(slopes, u)
    c = np.concatenate([terms, -terms], axis=1) if terms.shape[1] else np.zeros((len(u), 1))
    keep = c >= c.max(axis=1, keepdims=True) - (2 * radius + LIFT_EPS)
    radix = keep.sum(axis=1)
    k = np.bincount(cell, minlength=cells)
    first = np.cumsum(k) - k
    sels = np.multiply.reduceat(radix.astype(np.float64), first)
    count = _system_counts(int(k.max()), m)[k]
    bound, work = np.full(cells, np.inf), np.zeros(cells, dtype=np.int64)
    grads = _line_pieces(tuple(slopes.tolist()))
    fits = sels * count <= CELL_SYSTEMS
    one = np.flatnonzero(fits & (k == 1))
    bound[one] = np.where(keep, c + radius * np.abs(grads).sum(axis=1), -np.inf)[first[one]].max(
        axis=1)
    work[one] = radix[first[one]]
    at = np.flatnonzero(fits & (k > 1))
    if not len(at):
        return bound, work
    size = int(k[at].max())
    systems = _dual_systems(size, m, int(np.flatnonzero(slopes)[0]))
    # each lift's kept pieces first, in order; the padding lift (row L) has
    # one piece, of gradient 0 and a value above the cells' largest, in a
    # column P of its own
    P = c.shape[1]
    piece = np.concatenate([np.argsort(~keep, axis=1, kind="stable"), np.full((1, P), P)])
    c = np.concatenate([np.concatenate([c, np.full((len(c), 1), -np.inf)], axis=1),
                        np.full((1, P + 1), -np.inf)])
    c[-1, -1] = float(c.max()) + 2 * radius + 1.0
    grads = np.concatenate([grads, np.zeros((1, m))])
    radix = np.append(radix, 1)
    lifts = np.where(np.arange(size) < k[at, None], first[at, None] + np.arange(size), len(u))
    sel = sels[at].astype(np.int64)
    # cells a chunk, about CIRCLE_BLOCK elements of gradients at a time
    ends = np.cumsum(sel)
    start = 0
    while start < len(at):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + CIRCLE_BLOCK // (size * m),
                                                  side="right")))
        part = at[start:stop]
        bound[part], seen = _selections_max(c, grads, piece, radix, lifts[start:stop],
                                            sel[start:stop], radius, systems)
        work[part] = sel[start:stop] * k[part] + seen * (count[part] - k[part])
        start = stop
    return bound, work


def _selections_max(c, grads, piece, radix, lifts: np.ndarray, sel: np.ndarray,
                    radius: float, systems):
    """(bound, selections valued in full) of each of a chunk of cells of
    `cell_maxima`: `lifts` (cells x k) their lifts, sel their selection
    counts."""
    k = lifts.shape[1]
    owner = np.repeat(np.arange(len(lifts)), sel)
    q = np.arange(len(owner)) - np.repeat(np.cumsum(sel) - sel, sel)
    chosen = np.empty((len(owner), k), dtype=np.int64)
    for i in range(k - 1, -1, -1):
        lift = lifts[owner, i]
        q, digit = np.divmod(q, radix[lift])
        chosen[:, i] = piece[lift, digit]
    cs, gs = c[lifts[owner], chosen], grads[chosen]
    # the singleton bounds; a selection's value is at most their least
    single = (cs + radius * np.abs(gs).sum(axis=2)).min(axis=1)
    starts = np.cumsum(sel) - sel
    largest = np.maximum.reduceat(single, starts)
    hit = np.flatnonzero(single == largest[owner])
    lead = hit[np.unique(owner[hit], return_index=True)[1]]
    bound = _dual_least(cs[lead], gs[lead], radius, single[lead], systems)
    rest = np.flatnonzero(single > bound[owner])
    rest = rest[rest != lead[owner[rest]]]
    step = max(1, CIRCLE_BLOCK // (len(systems[-1][0]) * k * gs.shape[2]))
    for at in range(0, len(rest), step):
        rows = rest[at:at + step]
        got = _dual_least(cs[rows], gs[rows], radius, single[rows], systems)
        np.maximum.at(bound, owner[rows], got)
    return bound, 1 + np.bincount(owner[rest], minlength=len(lifts))


def exact_dtype(bound: int):
    """int64 when integers below `bound` and sums of a few of them fit,
    else Python integers (object arrays), so torsion values stay exact."""
    return np.int64 if bound < 1 << 61 else object


def first_least(errors, count: int, m: int, k: int, limit: int):
    """Per target of a block of k: the least of its errors over selections
    0..count-1, the first selection attaining it and its charge, as lists.

    errors(start, stop, live) gives the errors of the targets `live` (a
    list) at selections start..stop-1, one row per target, read TABLE_BLOCK
    selections at a time.  A target is charged as a loop that charges m
    before it evaluates each selection and stops at the first zero error
    would be: m per selection read up to that zero, or all of them.  A
    target whose running charge passes `limit` is read no further.
    """
    least, first, charge = [None] * k, [0] * k, [0] * k
    live = list(range(k))
    for start in range(0, count, TABLE_BLOCK):
        if not live:
            break
        stop = min(start + TABLE_BLOCK, count)
        worst = errors(start, stop, live)
        at = worst.argmin(axis=1)
        still = []
        for t, i, value in zip(live, at.tolist(), worst[np.arange(len(live)), at].tolist()):
            if least[t] is None or value < least[t]:
                least[t], first[t] = value, start + i
            charge[t] += (i + 1 if value == 0 else stop - start) * m
            if value != 0 and charge[t] <= limit:
                still.append(t)
        live = still
    return least, first, charge


def solve_torsion_units(table, scale: int, modulus: int, targets: np.ndarray,
                        start: int, stop: int, live: list) -> np.ndarray:
    """The exact `first_least` errors on a purely torsion dual, in units of
    a full turn divided by `modulus`, of the rows `live` of `targets` (one
    target per row, one column per character, of dtype
    `exact_dtype(modulus)`) at selections start..stop-1.  table(start, stop)
    gives those rows of the selection table, whose units are `scale` times
    larger.  One character at a time, its distances folded into the
    running largest by np.maximum."""
    rows, targets = table(start, stop).astype(targets.dtype) * scale, targets[live]
    worst = None
    for k in range(targets.shape[1]):
        e = (targets[:, k, None] - rows[:, k]) % modulus
        e = np.minimum(e, modulus - e)
        worst = e if worst is None else np.maximum(worst, e, out=worst)
    return worst
