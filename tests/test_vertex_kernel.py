"""The screened vertex kernel and the batched vertex systems against their
exhaustive references in `oracles` (the same bits and charges), and the
rank-1 sieve against the brute-force oracles (values within its slack, the
same lift classes and charges)."""
import itertools
import math
import random

import numpy as np
import pytest

import oracles
from kronset import Character, CharacterSet, GroupSpec, _minimax, engine
from kronset._minimax import min_error_box, min_error_circle, vertex_systems
from kronset.cli import parse_set_spec
from kronset.engine import Budget
from kronset.errors import BudgetExceededError

TWO_PI = 2.0 * math.pi


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_same(rng, free, psi):
    """`min_error_box` equals `oracles.min_error_box_full` bit for bit, with
    the same `Budget.used`, in full and cut short."""
    free, psi = np.asarray(free), np.asarray(psi, dtype=np.float64)
    got, want = Budget(10**12), Budget(10**12)
    out = min_error_box(free, psi, got)
    ref = oracles.min_error_box_full(free, psi, want)
    assert len(out) == len(ref)
    for a, b in zip(out, ref):
        assert np.array_equal(bits(a), bits(b)), (free.tolist(), psi.tolist())
    assert got.used == want.used
    limit = rng.randrange(got.used)
    short, ref_short = Budget(limit), Budget(limit)
    with pytest.raises(BudgetExceededError):
        min_error_box(free, psi, short)
    with pytest.raises(BudgetExceededError):
        oracles.min_error_box_full(free, psi, ref_short)
    assert short.used == ref_short.used


def assert_sieved(rng, slopes, psi, lift_margin=None):
    """`min_error_circle` on rows of targets against the oracles: each
    value within the sieve's slack of `oracles.min_error_breakpoints`',
    lower <= value <= upper, upper attained at theta, the lift classes of
    `oracles.lifts_within` (each value within 1e-9), and the charge of
    `oracles.min_error_circle_loop` (m per candidate of the old kernel), in
    full and cut short."""
    slopes, psi = np.asarray(slopes), np.asarray(psi, dtype=np.float64)
    got, want = Budget(10**12), Budget(10**12)
    theta, lower, upper, *lifts = min_error_circle(slopes, psi, got, lift_margin=lift_margin)
    slack = _minimax.circle_slack(slopes)
    # the oracle's own rounding, which grows with the slopes
    eps = 1e-14 * max(1, int(np.abs(slopes).max()))
    for i, row in enumerate(psi):
        value = oracles.min_error_breakpoints(slopes.tolist(), row.tolist())[1]
        oracles.min_error_circle_loop(slopes, row, want)
        case = (slopes.tolist(), row.tolist())
        assert lower[i] <= value + eps and value - eps <= upper[i] <= value + slack, case
        at = oracles.circle_objective_loop(slopes, row, np.array([theta[i]]))[0]
        assert abs(at - upper[i]) <= 1e-12, case
        if lift_margin is None:
            continue
        cut = upper[i] + lift_margin
        if not slopes.any() or cut >= math.pi - _minimax.LIFT_EPS:
            assert lifts[0][i] is None, case
            continue
        nu, vals = lifts[0][i]
        assert [tuple(v) for v in nu.tolist()] == sorted(map(tuple, nu.tolist()))
        found = dict(zip(map(tuple, nu.tolist()), vals.tolist()))
        # classes within 1e-9 of the cut may fall either side of it
        inner = oracles.lifts_within(slopes, row, cut - 1e-9)
        outer = oracles.lifts_within(slopes, row, cut + _minimax.LIFT_EPS + 1e-9)
        assert set(inner) <= set(found) <= set(outer), case
        assert all(abs(found[c] - outer[c]) <= 1e-9 for c in found), case
    assert got.used == want.used
    # the whole call is charged before any work
    short = Budget(rng.randrange(got.used))
    with pytest.raises(BudgetExceededError):
        min_error_circle(slopes, psi, short, lift_margin=lift_margin)
    assert short.used == got.used


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
    """Every vertex call screened (cutover 0) and every sieve step cut into
    blocks of a few elements, or the defaults."""
    if request.param == "screened":
        monkeypatch.setattr(_minimax, "SCREEN_CUTOVER", 0)
        monkeypatch.setattr(_minimax, "CIRCLE_BLOCK", 8)
        monkeypatch.setattr(_minimax, "CIRCLE_TEMP", 8)
    return request.param


class TestScreenedKernel:
    """The vertex kernel at free rank 2 and more; at rank 1 (the rank-1
    tests) the sieve that replaced it there."""

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
            assert_sieved(rng, slopes, psi, lift_margin)

    @pytest.mark.parametrize("slopes", [(1, 10, 100, 1000, 10000), (-3, 0, 41, -700, 9999),
                                        (2, 17, 301, 4000), (5, -5, 120, 2400)])
    @pytest.mark.parametrize("lift_margin", [None, 0.1, 0.4])
    def test_lacunary_slopes(self, cutover, slopes, lift_margin):
        rng = random.Random(603)
        for _ in range(2):
            assert_sieved(rng, slopes, random_angles(rng, 2, len(slopes)), lift_margin)

    @pytest.mark.parametrize("slopes, n, grid", [
        ((-2504, 9370, -6651, 401), 2, (0, 0, 0, 1)),
        ((7507, -6255, 5000, -918), 2, (0, 1, 0, 0)),
        ((430, 7520, 4702), 6, (3, 4, 1)),
        ((4005, 5337, 5007), 6, (4, 2, 1)),
    ])
    def test_ties_the_screen_rounds_apart(self, cutover, slopes, n, grid):
        # tied minima that the vertex screen once rounded apart: the sieve
        # finds the value and a point attaining it
        psi = TWO_PI * np.array([grid], dtype=np.float64) / n
        assert_sieved(random.Random(619), slopes, psi)

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
            assert_sieved(rng, slopes, psi, rng.choice([None, 0.1, 0.4]))

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
        # nothing to sieve: every row keeps the constant floor, exactly; a
        # zero free part of any rank reduces to zero slopes
        rng = random.Random(617)
        for m in (1, 3):
            g = GroupSpec(r, (4,))
            E = CharacterSet(g, tuple(Character(g, [0] * r, (t,)) for t in range(m)))
            data = engine._SetData(E)
            assert data.line.tolist() == [0] * m and (data.turn is None) == (r == 1)
            psi = random_angles(rng, 64, m)
            assert_sieved(rng, data.line, psi)
            floor = np.abs(np.mod(psi + math.pi, TWO_PI) - math.pi).max(axis=1)
            _, lower, upper = min_error_circle(data.line, psi)
            assert np.array_equal(lower, upper) and np.allclose(upper, floor, atol=1e-15)

    def test_the_screen_drops_most_lacunary_candidates(self):
        slopes = np.array([3, 16, 48, 240, 1200])
        plan = _minimax.vertex_plan(((3,), (16,), (48,), (240,), (1200,)))
        b, margin = plan[5], plan[8]
        psi = np.array([[0.3, 1.1, 2.0, 4.4, 5.9]])
        cands = _minimax._candidates(plan, psi)
        keep = _minimax._screen(b, cands, psi, np.zeros(1), margin[0] * 5.9 + margin[1])
        assert len(slopes) * keep.size > _minimax.SCREEN_CUTOVER
        assert 1 <= keep.sum() <= keep.size // 100


class TestSieve:
    """The rank-1 sieve under caps below, at and above each row's minimum:
    a row is solved exactly when its lower end is at most the cap, and then
    as it is without a cap, bit for bit."""

    @staticmethod
    def check_caps(slopes, psi, lift_margin=None):
        slopes = np.asarray(slopes)
        full = min_error_circle(slopes, psi, lift_margin=lift_margin)
        slack = _minimax.circle_slack(slopes)
        for cap in (full[1] - 0.3, full[1] - 2 * slack, full[1], full[2], full[2] + 0.2):
            for i, value in enumerate(cap.tolist()):
                got = min_error_circle(slopes, psi[i:i + 1], cap=value, lift_margin=lift_margin)
                if full[1][i] <= value:
                    assert bits([g[0] for g in got[:3]]).tolist() == bits([f[i] for f in full[:3]]).tolist()
                    if lift_margin is not None and full[3][i] is not None:
                        assert np.array_equal(got[3][0][0], full[3][i][0])
                        assert np.array_equal(bits(got[3][0][1]), bits(full[3][i][1]))
                else:
                    assert np.isnan(got[0][0]) and got[1][0] == got[2][0] == math.inf
                    assert lift_margin is None or got[3][0] is None

    def test_random_slopes_under_caps(self):
        # zeros, negatives and repeated slopes in [-12, 12]
        rng = random.Random(631)
        for _ in range(80):
            slopes = [rng.choice([0, rng.randint(-12, 12)]) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.3:
                slopes.append(rng.choice(slopes) or 5)
            psi = random_angles(rng, 3, len(slopes))
            self.check_caps(slopes, psi, rng.choice([None, 0.1, 0.4]))

    @pytest.mark.parametrize("slopes", [(1, 4, 16, 64, 256, 1024, 4096), (3, 16, 48, 240, 1200),
                                        (-4096, 512, -64, 8, 1)])
    def test_lacunary_slopes_under_caps(self, slopes):
        rng = random.Random(637)
        self.check_caps(slopes, random_angles(rng, 4, len(slopes)))
        assert_sieved(rng, slopes, random_angles(rng, 3, len(slopes)), 0.05)

    def test_no_minimum_exceeds_the_full_cap(self):
        # m' nonzero slopes leave a point within pi (1 - 1/m') of every target
        rng = random.Random(641)
        worst = 0.0
        for _ in range(300):
            slopes = np.array([rng.choice([-1, 1]) * rng.randint(1, 12)
                               for _ in range(rng.randint(1, 5))])
            psi = random_angles(rng, 8, len(slopes))
            bound = math.pi * (1 - 1 / len(slopes))
            _, lower, upper = min_error_circle(slopes, psi)
            assert (lower <= bound + 1e-12).all(), (slopes.tolist(), psi.tolist())
            worst = max(worst, float((upper - bound).max()))
        assert worst > -0.5

    @pytest.mark.parametrize("spec", ["Z^2 : [1,2],[2,4],[-3,-6]", "Z^2 : [2,-1],[-4,2],[6,-3]",
                                      "Z^3 : [1,1,0],[3,3,0],[0,0,0],[-2,-2,0]"])
    def test_collinear_sets_sieve_their_line(self, spec):
        # B = A U has one column: the sieve runs on its slopes, and the torus
        # point U theta attains the value
        E = parse_set_spec(spec)[1]
        data = engine._SetData(E)
        assert data.line is not None and data.turn is not None
        rng = random.Random(643)
        for _ in range(10):
            angles = random_angles(rng, 1, len(E))[0]
            lower, upper, point, _, _ = engine._solve_target(data, angles, None, Budget(10**9))
            value = oracles.min_error_breakpoints(data.line.tolist(), angles.tolist())[1]
            assert lower <= value + 1e-12 <= upper + 2e-12
            assert upper <= value + _minimax.circle_slack(data.line)
            phi = engine.TargetMap.from_angles(E, angles)
            assert engine.approx_error(E, phi, point) == pytest.approx(upper, abs=1e-12)


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
    """The charge of a rank-1 row (`_minimax.circle_unit`) is that of the
    old rank-1 vertex kernel without each tent's own kinks: m per crossing
    of two nonzero rows, or m per kink of a lone one; and the sieve finds a
    minimum of 0, where every pair's crossing meets."""

    @staticmethod
    def per_row(b):
        """Candidates a row of B = `b` (r' = 1) is charged for: 0, then the
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
        # and a kernel missing the point there gives it a positive upper end
        E = parse_set_spec(spec)[1]
        data = engine._set_data(E)
        slack = (_minimax.vertex_plan(data.free_key)[7] if data.line is None
                 else _minimax.circle_slack(data.line))
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
        # 0 and the 2|a| kinks, whose targets are every angle
        for slopes in ((7,), (0, -5), (0, 3, 0, 0)):
            nz = [a for a in slopes if a][0]
            assert _minimax.circle_unit(slopes) == len(slopes) * (1 + 2 * abs(nz))

    @pytest.mark.parametrize("key", [((1, 2), (2, 4), (-3, -6)), ((2, -2), (0, 0), (-1, 1)),
                                     ((1, 2), (0, 0))])
    def test_collinear_plane_sets_follow_the_rule(self, key):
        # column_echelon leaves one column, whose slopes a row is charged for
        g = GroupSpec(2)
        data = engine._SetData(CharacterSet(g, tuple(Character(g, row, ()) for row in key)))
        b = tuple((a,) for a in data.line.tolist())
        assert data.turn is not None
        assert engine._block_targets(data)[1] == len(key) * self.per_row(b)
        assert vertex_systems.__wrapped__(key) == oracles.vertex_systems_loop(key)

    def test_the_charge_a_row_is_pinned(self):
        # m (1 + sum_{j<k} |a_j| + |a_k|), or m (1 + 2|a|) for one nonzero slope
        rng = random.Random(661)
        for _ in range(200):
            slopes = [rng.choice([0, rng.randint(-30, 30)]) for _ in range(rng.randint(1, 6))]
            key = tuple((a,) for a in slopes)
            assert _minimax.circle_unit(slopes) == len(slopes) * self.per_row(key), slopes
        assert _minimax.circle_unit((3, 16, 48, 240, 1200)) == 5 * 6029
