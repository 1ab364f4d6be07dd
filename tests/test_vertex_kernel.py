"""The screened vertex kernel and the batched vertex systems against their
exhaustive references in `oracles`: the same bits, lifts and charges."""
import itertools
import math
import random

import numpy as np
import pytest

import oracles
from kronset import _minimax, engine
from kronset._minimax import min_error_box, vertex_systems
from kronset.cli import parse_set_spec
from kronset.engine import Budget
from kronset.errors import BudgetExceededError

TWO_PI = 2.0 * math.pi


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_same(rng, free, psi, lift_margin=None):
    """`min_error_box` equals `oracles.min_error_box_full` bit for bit, with
    the same lifts and the same `Budget.used`, in full and cut short."""
    free, psi = np.asarray(free), np.asarray(psi, dtype=np.float64)
    got, want = Budget(10**12), Budget(10**12)
    out = min_error_box(free, psi, got, lift_margin=lift_margin)
    ref = oracles.min_error_box_full(free, psi, want, lift_margin=lift_margin)
    assert len(out) == len(ref)
    for a, b in zip(out[:3], ref[:3]):
        assert np.array_equal(bits(a), bits(b)), (free.tolist(), psi.tolist())
    for a, b in zip(*(o[3] if len(o) > 3 else () for o in (out, ref))):
        assert (a is None) == (b is None), (free.tolist(), psi.tolist())
        if b is not None:
            assert np.array_equal(a[0], b[0]) and np.array_equal(bits(a[1]), bits(b[1]))
    assert got.used == want.used
    limit = rng.randrange(got.used)
    short, ref_short = Budget(limit), Budget(limit)
    with pytest.raises(BudgetExceededError):
        min_error_box(free, psi, short, lift_margin=lift_margin)
    with pytest.raises(BudgetExceededError):
        oracles.min_error_box_full(free, psi, ref_short, lift_margin=lift_margin)
    assert short.used == ref_short.used


def random_angles(rng, rows, m):
    """Rows of targets: on a roots grid (ties among candidates), all zero
    (exact ties everywhere) or uniform."""
    kind = rng.choice(["grid", "zero", "uniform"])
    if kind == "grid":
        n = rng.choice([2, 3, 4, 6])
        return TWO_PI * np.array([[rng.randrange(n) for _ in range(m)] for _ in range(rows)]) / n
    if kind == "zero":
        return np.zeros((rows, m))
    return np.array([[rng.uniform(0, TWO_PI) for _ in range(m)] for _ in range(rows)])


@pytest.fixture(params=["screened", "default"])
def cutover(request, monkeypatch):
    """Every call screened (cutover 0), or only those at the cutover."""
    if request.param == "screened":
        monkeypatch.setattr(_minimax, "SCREEN_CUTOVER", 0)
    return request.param


class TestScreenedKernel:
    @pytest.mark.parametrize("lift_margin", [None, 0.1, 0.4])
    def test_rank_one_slopes(self, cutover, lift_margin):
        rng = random.Random(601)
        for _ in range(60):
            slopes = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.3:
                a = rng.randint(1, 9)
                slopes += [a, -a]
            rng.shuffle(slopes)
            psi = random_angles(rng, rng.choice([1, 3, 40]), len(slopes))
            assert_same(rng, np.array(slopes)[:, None], psi, lift_margin)

    @pytest.mark.parametrize("slopes", [(1, 10, 100, 1000, 10000), (-3, 0, 41, -700, 9999),
                                        (2, 17, 301, 4000), (5, -5, 120, 2400)])
    @pytest.mark.parametrize("lift_margin", [None, 0.1, 0.4])
    def test_lacunary_slopes(self, cutover, slopes, lift_margin):
        rng = random.Random(603)
        free = np.array(slopes)[:, None]
        for _ in range(2):
            assert_same(rng, free, random_angles(rng, 2, len(slopes)), lift_margin)

    @pytest.mark.parametrize("slopes, n, grid", [
        ((-2504, 9370, -6651, 401), 2, (0, 0, 0, 1)),
        ((7507, -6255, 5000, -918), 2, (0, 1, 0, 0)),
        ((430, 7520, 4702), 6, (3, 4, 1)),
        ((4005, 5337, 5007), 6, (4, 2, 1)),
    ])
    def test_ties_the_screen_rounds_apart(self, cutover, slopes, n, grid):
        # tied minima whose screened values differ by more than the 1e-12
        # tie window: a cut without the rounding margin drops the least
        psi = TWO_PI * np.array([grid], dtype=np.float64) / n
        assert_same(random.Random(619), np.array(slopes)[:, None], psi)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_torsion_shifted_rows(self, cutover, k):
        # Z x Z2^k: each target is one row per selection, shifted by pi steps
        rng = random.Random(607 + k)
        for _ in range(12):
            m = rng.randint(2, 5)
            slopes = np.array([rng.choice([0, rng.randint(-40, 40)]) for _ in range(m)])
            tau = np.pi * np.array([[rng.randrange(2) for _ in range(k)] for _ in range(m)])
            sel = np.array(list(itertools.product(range(2), repeat=k)), dtype=np.float64)
            angles = random_angles(rng, 3, m)
            psi = (angles[:, None, :] - sel @ tau.T).reshape(-1, m)
            assert_same(rng, slopes[:, None], psi, rng.choice([None, 0.1, 0.4]))

    @pytest.mark.parametrize("r", [2, 3])
    def test_plane_and_space_sets(self, cutover, r):
        rng = random.Random(611 + r)
        for case in range(24):
            rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(2, 4))]
            if case % 3 == 0:
                rows.append([0] * r)
            if case % 3 == 1:
                rows.append([rng.choice([-2, -1, 2]) * a for a in rows[0]])
            rng.shuffle(rows)
            assert_same(rng, rows, random_angles(rng, rng.choice([1, 5]), len(rows)))

    @pytest.mark.parametrize("r", [1, 2])
    def test_every_row_zero(self, cutover, r):
        # nothing to screen: every candidate keeps the constant floor
        rng = random.Random(617)
        for m in (1, 3):
            assert_same(rng, np.zeros((m, r), dtype=np.int64), random_angles(rng, 64, m))

    def test_the_screen_drops_most_lacunary_candidates(self):
        slopes = np.array([3, 16, 48, 240, 1200])
        plan = _minimax.vertex_plan(((3,), (16,), (48,), (240,), (1200,)))
        b, margin = plan[5], plan[8]
        psi = np.array([[0.3, 1.1, 2.0, 4.4, 5.9]])
        cands = _minimax._candidates(plan, psi)
        keep = _minimax._screen(b, cands, psi, np.zeros(1), margin[0] * 5.9 + margin[1])
        assert len(slopes) * keep.size > _minimax.SCREEN_CUTOVER
        assert 1 <= keep.sum() <= keep.size // 100


class TestQuickBound:
    """`quick_bound` is the exact objective at one candidate of the plan's
    first 1/QUICK_PART, the best screened one: at least the row's minimum, and
    within the screen's margin of the slice's least, valued in full."""

    @staticmethod
    def check(free, psi):
        free = np.asarray(free)
        s, value = _minimax.quick_bound(free, psi)
        *_, slack, margin, _ = _minimax.vertex_plan(tuple(map(tuple, free.tolist())))
        full = oracles.quick_bound_full(free, psi)
        cut = margin[0] * float(np.abs(psi).max()) + margin[1]
        assert (value >= min_error_box(free, psi)[1]).all(), (free.tolist(), psi.tolist())
        # its own candidate, a torus point, attains it
        at_s = np.abs(np.mod(s @ free.T - psi + math.pi, TWO_PI) - math.pi).max(axis=1)
        assert np.abs(value - at_s).max() <= slack, (free.tolist(), psi.tolist())
        assert (value >= full - slack).all() and (value <= full + cut).all()

    @pytest.mark.parametrize("r, k", [(1, 0), (1, 2), (2, 0), (2, 1)])
    def test_bounds_the_minimum_from_its_slice(self, r, k):
        # Z^r x Z2^k: one row per target and selection, shifted by pi steps
        rng = random.Random(641 + 4 * r + k)
        sel = np.array(list(itertools.product(range(2), repeat=k)), dtype=np.float64)
        for case in range(30):
            m = rng.randint(2, 5)
            big = rng.choice([3, 9, 40]) if r == 1 else rng.choice([2, 4])
            free = [[rng.choice([0, rng.randint(-big, big)]) for _ in range(r)] for _ in range(m)]
            if case % 3 == 1:
                free[-1] = [rng.choice([-2, 3]) * a for a in free[0]]
            tau = np.pi * np.array([[rng.randrange(2) for _ in range(k)] for _ in range(m)])
            angles = random_angles(rng, 3, m)
            self.check(free, (angles[:, None, :] - sel.reshape(2**k, k) @ tau.reshape(m, k).T)
                       .reshape(-1, m))

    @pytest.mark.parametrize("slopes", [(3, 16, 48, 240, 1200), (1, 4, 12, 38, 154)])
    def test_lacunary_slopes(self, slopes):
        # the slice is 1/QUICK_PART of the candidates, and a row of it is
        # charged 1/QUICK_PART of the solve
        key = tuple((a,) for a in slopes)
        assert (_minimax.quick_size(key) * len(slopes) * _minimax.QUICK_PART
                <= vertex_systems(key)[1])
        rng = random.Random(643)
        for _ in range(4):
            self.check(np.array(slopes)[:, None], random_angles(rng, 8, len(slopes)))


class TestVertexSystems:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_systems_match_the_loop(self, r):
        rng = random.Random(701 + r)
        for case in range(40 if r < 4 else 12):
            m = rng.randint(1, 7 if r < 4 else 6)
            big = rng.choice([1, 3, 9])
            rows = [tuple(rng.randint(-big, big) for _ in range(r)) for _ in range(m)]
            if case % 2 and m > 1:
                # rank-deficient: a multiple of another row, or a zero row
                rows[-1] = tuple(rng.choice([0, -2, 3]) * a for a in rows[0])
            self.check(tuple(rows))

    def test_entries_beyond_int64(self):
        self.check(((10**12, 3, 1), (5, -10**13, 2), (1, 1, 10**11), (7, 2, -3)))
        self.check(((10**18, 1), (3, -10**18), (1, 1)))

    @staticmethod
    def check(key):
        got = vertex_systems.__wrapped__(key)
        assert got == oracles.vertex_systems_loop(key), key
        assert all(type(x) is int for system in got[0]
                   for x in (system[3], *system[4], *itertools.chain(*system[1], *system[2])))


class TestTentKinks:
    """At free rank 1 with two or more nonzero rows, no system pairs the two
    signs of one row: both largest means a value of 0, which every pair's
    crossing then attains too.  One nonzero row keeps its kinks, and free
    rank 2 and more keeps every system."""

    @staticmethod
    def per_row(b):
        """Candidates a row of B = `b` (r' = 1) is valued at: 0, then the
        kinks of a lone nonzero slope or the crossings of each pair."""
        nz = [a for (a,) in b if a]
        if len(nz) == 1:
            return 1 + 2 * abs(nz[0])
        return 1 + sum(abs(x) + abs(y) for x, y in itertools.combinations(nz, 2))

    @pytest.mark.parametrize("spec", [
        "Z : [3],[16],[48],[240],[1200]", "Z : [2],[-7]", "Z : [0],[5],[-9],[4]",
        "Z : [0],[7]", "Z x Z2^3 : [3,0,0,0],[3,0,0,1],[6,1,0,0],[6,1,1,0],[8,1,1,0]",
        "Z x Z2^3 : [0,1,0,0],[5,0,0,1],[5,1,1,0]", "Z x Z2^3 : [0,1,0,0],[4,0,1,1]",
        "Z^2 : [1,2],[2,4],[-3,-6]", "Z^2 : [1,0],[0,1]", "Z^2 : [1,0],[0,1],[2,-1]"])
    def test_targets_of_minimum_zero(self, spec):
        # psi_k = a_k.s0 plus a torsion selection's shift: the minimum is 0,
        # and a kernel missing the vertex there gives it a positive upper end
        E = parse_set_spec(spec)[1]
        data = engine._set_data(E)
        slack = _minimax.vertex_plan(data.free_key)[7]
        rng = random.Random(659)
        for _ in range(8):
            s0 = [rng.uniform(0, TWO_PI) for _ in range(E.group.free_rank)]
            sel = [rng.randrange(m) for m in E.group.torsion_orders]
            angles = np.array([math.fsum(a * s for a, s in zip(c.free_coords, s0))
                               + TWO_PI * sum(t * x / m for t, x, m in
                                              zip(c.torsion_coords, sel, E.group.torsion_orders))
                               for c in E]) % TWO_PI
            lower, upper, *_ = engine._solve_target(data, angles, None, Budget(10**9))
            assert lower == 0.0 and upper <= slack, (spec, angles.tolist())

    def test_one_nonzero_slope_keeps_its_kinks(self):
        # the candidates are 0 and the kinks, whose targets are every angle
        for slopes in ((7,), (0, -5), (0, 3, 0, 0)):
            key = tuple((a,) for a in slopes)
            nz = [a for a in slopes if a][0]
            assert vertex_systems(key)[1] == len(slopes) * (1 + 2 * abs(nz))

    @pytest.mark.parametrize("key", [((1, 2), (2, 4), (-3, -6)), ((2, -2), (0, 0), (-1, 1)),
                                     ((1, 2), (0, 0))])
    def test_collinear_plane_sets_follow_the_rule(self, key):
        # column_echelon leaves one column, so the rank-1 rule applies to it
        systems, cost, b, cols = vertex_systems(key)
        assert len(b[0]) == 1 and cols is not None
        assert cost == len(key) * self.per_row(b)
        assert vertex_systems.__wrapped__(key) == oracles.vertex_systems_loop(key)

    def test_the_charge_a_row_is_pinned(self):
        # m (1 + sum_{j<k} |a_j| + |a_k|), or m (1 + 2|a|) for one nonzero slope
        rng = random.Random(661)
        for _ in range(200):
            slopes = [rng.choice([0, rng.randint(-30, 30)]) for _ in range(rng.randint(1, 6))]
            key = tuple((a,) for a in slopes)
            assert vertex_systems(key)[1] == len(slopes) * self.per_row(key), slopes
        key = ((3,), (16,), (48,), (240,), (1200,))
        assert vertex_systems(key)[1] == 5 * 6029
