"""Seeded task lists for the kronset benchmark.

Every workload is a list of tasks.  A task is the argument vector of one
``kronset`` command plus the facts the correctness checks need (the group,
the elements, the grid order).  The same seed always gives the same list.

The lists are built so that different seeds give comparable loads: each
family keeps the inputs' cost-driving property (candidate count, set size,
torsion order sum) inside a narrow band and lets the seed pick the instance.
"""
from __future__ import annotations

import itertools
import math
import random

LADDER_TOL = 1e-3
#: inner-evaluation budget for the ladder's deliberately uncertified sets
LADDER_TRIPLE_BUDGET = 500_000
#: grid orders of the ``grid`` workload
GRID_ORDERS = (5, 6, 8)
POOL_THREADS = 2


def _fmt(elements) -> str:
    return ",".join("[" + ",".join(str(v) for v in e) + "]" for e in elements)


def _task(tid: str, argv: list, kind: str, group: str, elements, **facts) -> dict:
    """One task; ``group`` and ``elements`` are written into ``--set``."""
    elements = [tuple(e) for e in elements]
    return {"id": tid, "kind": kind, "group": group, "elements": elements,
            "argv": argv[:1] + ["--set", f"{group} : {_fmt(elements)}"] + argv[1:],
            **facts}


def candidate_count(slopes) -> int:
    """Number of circle candidates the rank-1 solver evaluates (kinks plus
    pairwise crossings); it sets the per-target kernel cost.  Kept here
    rather than imported so that task lists never depend on program code."""
    nz = [a for a in slopes if a]
    count = 1 + sum(2 * abs(a) for a in nz)
    for a, b in itertools.combinations(nz, 2):
        count += abs(a + b) if a * b > 0 else abs(a - b)
    return count


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"kronset-bench/{workload}/{seed}")


# ---------------------------------------------------------------------------
# ladder: the continuous constant through the restart ladder
# ---------------------------------------------------------------------------

_PAIRS = sorted(
    ((a, b) for a in range(-12, 13) for b in range(a + 1, 13)
     if a and b and math.gcd(a, b) == 1),
    key=lambda p: (candidate_count(p), p),
)
LADDER_PAIRS = 16


def ladder(seed: int) -> list[dict]:
    """Coprime pairs from sixteen candidate-count strata, then two triples
    under a fixed budget that stops their ladders before certification."""
    rng = _rng("ladder", seed)
    tasks = []
    size = len(_PAIRS) / LADDER_PAIRS
    for i in range(LADDER_PAIRS):
        a, b = rng.choice(_PAIRS[round(i * size):round((i + 1) * size)])
        tasks.append(_task(f"pair{i}", ["alpha", "--tol", str(LADDER_TOL)],
                           "alpha", "Z", [(a,), (b,)], slopes=(a, b),
                           tol=LADDER_TOL))
    for i in range(2):
        while True:
            trip = sorted(rng.sample([v for v in range(-12, 13) if v], 3))
            if math.gcd(*trip) == 1 and 36 <= candidate_count(trip) <= 44:
                break
        tasks.append(_task(f"triple{i}", ["alpha", "--tol", str(LADDER_TOL),
                                          "--budget", str(LADDER_TRIPLE_BUDGET)],
                           "alpha", "Z", [(v,) for v in trip], slopes=tuple(trip),
                           tol=LADDER_TOL))
    return tasks


# ---------------------------------------------------------------------------
# grid: fixed roots-grid orders, the scan and the float kernels
# ---------------------------------------------------------------------------

#: candidate-count band per order for the rank-1 lacunary sets
_RANK1_BAND = {5: (9000, 9600), 6: (3800, 4100), 8: (1200, 1300)}


def _lacunary(rng: random.Random, n: int) -> list[int]:
    lo, hi = _RANK1_BAND[n]
    while True:
        terms = [rng.randint(1, 3)]
        for _ in range(4):
            terms.append(terms[-1] * rng.randint(3, 5) + rng.randint(0, 2))
        if math.gcd(terms[0], n) == 1 and lo <= candidate_count(terms) <= hi:
            return terms


def _plane_set(rng: random.Random) -> list[tuple[int, int]]:
    """Four nonzero elements of Z^2 in [-3, 3]^2, pairwise independent."""
    while True:
        pts = set()
        while len(pts) < 4:
            p = (rng.randint(-3, 3), rng.randint(-3, 3))
            if p != (0, 0):
                pts.add(p)
        pts = sorted(pts)
        if all(p[0] * q[1] != p[1] * q[0] for p, q in itertools.combinations(pts, 2)):
            return pts


def _mixed_set(rng: random.Random) -> list[tuple[int, ...]]:
    """Five distinct elements of Z x Z2^3 with free coordinates in [1, 9]
    and a free-part candidate count in a fixed band."""
    while True:
        pts = set()
        while len(pts) < 5:
            pts.add((rng.randint(1, 9),) + tuple(rng.randint(0, 1) for _ in range(3)))
        if 150 <= candidate_count([p[0] for p in pts]) <= 200:
            return sorted(pts)


def grid(seed: int, threads: int = 1) -> list[dict]:
    rng = _rng("grid", seed)
    extra = ["--threads", str(threads)] if threads > 1 else []
    tasks = []
    for n, i in itertools.product(GRID_ORDERS, range(2)):
        tasks.append(_task(f"z-n{n}-{i}", ["alpha-n", "--n", str(n)] + extra, "alpha_n",
                           "Z", [(t,) for t in _lacunary(rng, n)], n=n))
    # at an even order the symmetry group of these sets, and with it the
    # number of targets, swings with the seed; order 5 keeps it fixed
    argv = ["alpha-n", "--n", "5"] + extra
    for i in range(6):
        tasks.append(_task(f"z2-n5-{i}", argv, "alpha_n", "Z^2", _plane_set(rng), n=5))
    for i in range(8):
        tasks.append(_task(f"zxz2-n5-{i}", argv, "alpha_n", "Z x Z2^3",
                           _mixed_set(rng), n=5))
    tasks.append({"id": "coset-n4-k3", "kind": "coset", "coset_n": 4, "truncation": 3,
                  "argv": ["gallery", "--example", "coset", "--n", "4",
                           "--truncation", "3"] + extra})
    return tasks


def pooled(seed: int) -> list[dict]:
    """The ``grid`` list of the same seed, scanned by a process pool."""
    return grid(seed, threads=POOL_THREADS)


# ---------------------------------------------------------------------------
# exact: purely torsion scans and the diagnostics
# ---------------------------------------------------------------------------

def _cyclic_set(rng: random.Random, m: int, k: int) -> list[tuple[int]]:
    while True:
        els = sorted(rng.sample(range(1, m), k))
        if math.gcd(m, *els) == 1:
            return [(e,) for e in els]


def exact(seed: int) -> list[dict]:
    rng = _rng("exact", seed)
    tasks = []
    # cyclic groups in complementary pairs, so the summed order is fixed; an
    # odd grid order keeps the scan from stopping early at the cap pi
    for i in range(6):
        m1 = rng.randint(50, 135)
        for j, m in enumerate((m1, 270 - m1)):
            tasks.append(_task(f"zm{i}{j}-m{m}", ["alpha-n", "--n", "5"], "alpha_n",
                               f"Z{m}", _cyclic_set(rng, m, 4), n=5, orders=(m,)))
    for p, i in itertools.product((7, 11, 13), range(2)):
        pts = set()
        while len(pts) < 4:
            pts.add((rng.randrange(p), rng.randrange(p)))
        tasks.append(_task(f"zp2-p{p}-{i}", ["alpha-n", "--n", str(p)], "alpha_n",
                           f"Z{p}^2", sorted(pts), n=p, orders=(p, p)))
    basis = [tuple(int(i == j) for j in range(9)) for i in range(9)]
    tasks.append(_task("net-z2^9", ["net", "--epsilon", "1"], "net", "Z2^9", basis))
    terms = [rng.randint(1, 3)]
    for _ in range(15):
        terms.append(3 * terms[-1] + rng.randint(1, 3))
    tasks.append(_task("quasi-16", ["quasi", "--method", "mitm"], "quasi", "Z",
                       [(t,) for t in terms]))
    tasks.append(_task("b2-200", ["b2"], "b2", "Z",
                       [(v,) for v in sorted(rng.sample(range(1, 20_000), 200))]))
    return tasks


WORKLOADS = {"ladder": ladder, "grid": grid, "exact": exact, "pooled": pooled}

WARMUP = ["alpha-n", "--set", "Z : [1],[2]", "--n", "2"]


def smoke(workload: str) -> list[dict]:
    """One tiny task of the workload's kind, for the smoke test."""
    if workload == "ladder":
        return [_task("pair", ["alpha", "--tol", "0.2"], "alpha", "Z", [(1,), (2,)],
                      slopes=(1, 2), tol=0.2)]
    if workload == "exact":
        return [_task("zm", ["alpha-n", "--n", "3"], "alpha_n", "Z7", [(1,), (3,)],
                      n=3, orders=(7,))]
    extra = ["--threads", str(POOL_THREADS)] if workload == "pooled" else []
    return [_task("z", ["alpha-n", "--n", "4"] + extra, "alpha_n", "Z",
                  [(1,), (2,), (3,)], n=4)]
