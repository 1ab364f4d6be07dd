import itertools
import math
import random

import numpy as np
import pytest

import oracles
from kronset import (
    BudgetExceededError,
    Character,
    CharacterSet,
    DualPoint,
    ErrorBracket,
    GroupSpec,
    KroneckerResult,
    WorkStats,
    alpha,
)
from kronset import diagnostics
from kronset.diagnostics import (
    b2_coincidences,
    classify,
    maximal_separated_set,
    pisier_report,
    quasi_independent,
    roots_count_bound,
    roots_threshold,
    sup_chordal_distance,
    volume_bound,
)


def basis_set(d):
    g = GroupSpec(0, (2,) * d)
    chars = tuple(
        Character(g, (), tuple(1 if i == j else 0 for i in range(d))) for j in range(d)
    )
    return CharacterSet(g, chars)


def random_set(rng, kind, size):
    """A random set of about `size` distinct characters of one of the test
    groups; "big" draws entries of Z beyond 2**62 (Python-integer sums)."""
    if kind in ("Z", "big"):
        g = GroupSpec(1)
        if kind == "Z":
            draw = lambda: ((rng.randint(-12, 12),), ())
        else:
            draw = lambda: ((rng.choice((1, -1)) * rng.randint(0, 3) * 2**62
                             + rng.randint(-3, 3),), ())
    elif kind == "Z^2":
        g = GroupSpec(2)
        draw = lambda: ((rng.randint(-3, 3), rng.randint(-3, 3)), ())
    elif kind == "ZxZ2^k":
        k = rng.randint(1, 3)
        g = GroupSpec(1, (2,) * k)
        draw = lambda: ((rng.randint(-4, 4),), tuple(rng.randrange(2) for _ in range(k)))
    elif kind == "Zm":
        m = rng.randint(2, 40)
        g = GroupSpec(0, (m,))
        draw = lambda: ((), (rng.randrange(m),))
    else:
        m = rng.randint(2, 7)
        g = GroupSpec(0, (m, m))
        draw = lambda: ((), (rng.randrange(m), rng.randrange(m)))
    elements = sorted({draw() for _ in range(3 * size)})
    elements = rng.sample(elements, min(size, len(elements)))
    if rng.random() < 0.2:
        elements.append((g.zero_character().free_coords, g.zero_character().torsion_coords))
    return CharacterSet(g, tuple(Character(g, *e) for e in set(elements)))


SET_KINDS = ("Z", "big", "Z^2", "ZxZ2^k", "Zm", "Zm^2")


def outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceededError:
        return "budget"


def synthetic_result(chars, kappa_upper, n=None, kappa_lower=0.0):
    to_angle = lambda c: 2.0 * math.asin(min(c, 2.0) / 2.0)
    bracket = ErrorBracket(to_angle(kappa_lower), to_angle(kappa_upper))
    return KroneckerResult(chars, bracket, n, None, None, WorkStats(), True)


class TestSeparatedSets:
    def test_cube_basis_full_group(self):
        F = basis_set(3)
        S = maximal_separated_set(F, 1.0)
        assert len(S) == 8
        assert S.universe_size == 8
        for x, y in itertools.combinations(S.points, 2):
            assert sup_chordal_distance(F, x, y) == 2.0

    def test_integer_grid_of_four(self):
        F = CharacterSet.of_integers([1])
        S = maximal_separated_set(F, math.sqrt(2), grid_cells=4)
        assert len(S) == 4
        angles = sorted(p.torus_angles[0] for p in S.points)
        assert angles == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2], abs=1e-12)

    def test_oversized_epsilon_keeps_first(self):
        F = CharacterSet.of_integers([1])
        S = maximal_separated_set(F, 2.0 + 1e-6, grid_cells=8)
        assert len(S) == 1
        assert S.points[0].torus_angles[0] == 0.0

    def test_separation_and_maximality_recheck(self):
        F = basis_set(3)
        eps = 1.3
        S = maximal_separated_set(F, eps)
        for x, y in itertools.combinations(S.points, 2):
            assert sup_chordal_distance(F, x, y) >= eps - 1e-12
        # maximality over the exact universe
        g = F.group
        for combo in itertools.product(range(2), repeat=3):
            cand = DualPoint(g, (), combo)
            assert any(
                sup_chordal_distance(F, cand, p) < eps for p in S.points
            ) or cand in S.points

    def test_determinism(self):
        F = CharacterSet.of_integers([1, 3])
        s1 = maximal_separated_set(F, 0.9, grid_cells=50)
        s2 = maximal_separated_set(F, 0.9, grid_cells=50)
        assert s1.points == s2.points

    def test_matches_scalar_greedy_pass(self):
        # random Z_m^2 and Z x Z2 universes against a point-by-point pass
        rng = random.Random(53)
        groups = [(GroupSpec(0, (m, m)), None) for m in (3, 4, 5, 7)]
        groups += [(GroupSpec(1, (2,)), cells) for cells in (6, 12, 25)]
        for g, cells in groups:
            for _ in range(3):
                elements = {(tuple(rng.randint(-4, 4) for _ in range(g.free_rank)),
                             tuple(rng.randrange(m) for m in g.torsion_orders))
                            for _ in range(rng.randint(2, 4))}
                F = CharacterSet(g, tuple(Character(g, *e) for e in sorted(elements)))
                eps = rng.uniform(0.2, 1.95)
                S = maximal_separated_set(F, eps, grid_cells=cells)
                universe = oracles.net_universe([c.free_coords for c in F],
                                                [c.torsion_coords for c in F],
                                                g.torsion_orders, cells)
                expected = oracles.greedy_separated(universe, eps - 1e-12)
                assert [(p.torus_angles, p.torsion_selections) for p in S.points] == expected

    @pytest.mark.parametrize("chunk,block", [(32, 1 << 14), (5, 64), (1, 1)])
    def test_matches_candidate_loop(self, chunk, block, monkeypatch):
        # the chunked pass against the candidate-by-candidate one, bit for
        # bit, across chunk, gap-block and universe-block boundaries
        monkeypatch.setattr(diagnostics, "NET_CHUNK", chunk)
        monkeypatch.setattr(diagnostics, "NET_BLOCK", block)
        monkeypatch.setattr(diagnostics, "TABLE_BLOCK", 97)
        rng = random.Random(f"net-{chunk}")
        cases = [(basis_set(6), 1.0, None),
                 (CharacterSet.of_integers([1, 3, 7]), 0.4, 150),
                 (CharacterSet.of_integers([2, -5]), 1.9, 200)]
        for g, cells in ((GroupSpec(2), 9), (GroupSpec(3), 4), (GroupSpec(1, (2, 3)), 11),
                         (GroupSpec(0, (13, 13)), None)):
            elements = {(tuple(rng.randint(-4, 4) for _ in range(g.free_rank)),
                         tuple(rng.randrange(m) for m in g.torsion_orders)) for _ in range(4)}
            F = CharacterSet(g, tuple(Character(g, *e) for e in sorted(elements)))
            cases.append((F, rng.uniform(0.2, 1.9), cells))
        for F, eps, cells in cases:
            S = maximal_separated_set(F, eps, grid_cells=cells)
            points, count = oracles.separated_set_loop(F, eps, cells)
            assert [(p.torus_angles, p.torsion_selections) for p in S.points] == points
            assert S.universe_size == count

    def test_universe_arguments_are_point_args(self):
        from kronset.engine import _set_data
        for g, cells in ((GroupSpec(3), 5), (GroupSpec(1, (2, 2)), 13), (GroupSpec(0, (7, 5)), None)):
            rng = random.Random(str(g))
            elements = {(tuple(rng.randint(-9, 9) for _ in range(g.free_rank)),
                         tuple(rng.randrange(m) for m in g.torsion_orders)) for _ in range(5)}
            F = CharacterSet(g, tuple(Character(g, *e) for e in sorted(elements)))
            data = _set_data(F)
            for rows, angles, args in diagnostics._universe(data, cells, 10**6):
                for row, angle, arg in zip(rows.tolist(), angles, args):
                    point = DualPoint(g, tuple(angle.tolist()), row[g.free_rank:])
                    assert point.torus_angles == tuple(
                        2.0 * math.pi * t / cells for t in row[:g.free_rank])
                    assert np.array_equal(arg.view(np.int64),
                                          data.point_args(point).view(np.int64))

    def test_universe_budget(self):
        F = CharacterSet.of_integers([1])
        with pytest.raises(BudgetExceededError):
            maximal_separated_set(F, 1.0, grid_cells=100, budget=10)

    def test_grid_required_for_free_rank(self):
        F = CharacterSet.of_integers([1])
        with pytest.raises(ValueError):
            maximal_separated_set(F, 1.0)


class TestPisierReport:
    def test_rate_of_eight_over_three(self):
        F = basis_set(3)
        S = maximal_separated_set(F, 1.0)
        rep = pisier_report(F, S)
        assert rep.rate == 1.0
        assert rep.condition_met

    def test_single_point_fails(self):
        F = CharacterSet.of_integers([1])
        S = maximal_separated_set(F, 2.5, grid_cells=4)
        rep = pisier_report(F, S)
        assert rep.cardinality == 1
        assert rep.rate == 0.0
        assert not rep.condition_met


class TestCountingBounds:
    def test_sqrt2_gives_powers_of_two(self):
        eta, bound = volume_bound(math.sqrt(2), 3)
        assert eta == pytest.approx(math.pi / 2, abs=1e-12)
        assert bound == pytest.approx(8.0, abs=1e-9)

    def test_near_diameter_is_vacuous(self):
        _, bound = volume_bound(2.0 - 1e-9, 5)
        assert bound == pytest.approx(1.0, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            volume_bound(2.0, 3)
        with pytest.raises(ValueError):
            volume_bound(0.0, 3)

    @pytest.mark.parametrize("n,f,expected", [(2, 3, 8.0), (3, 2, 2.25), (5, 0, 1.0)])
    def test_roots_count(self, n, f, expected):
        assert roots_count_bound(n, f) == pytest.approx(expected, abs=1e-12)

    def test_roots_threshold_values(self):
        assert roots_threshold(2) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert roots_threshold(3) == pytest.approx(math.sqrt(3), abs=1e-12)


class TestQuasiIndependence:
    def test_small_independent_pair(self):
        assert quasi_independent(CharacterSet.of_integers([1, 2])) == (True, None)

    def test_arithmetic_relation(self):
        ok, witness = quasi_independent(CharacterSet.of_integers([1, 2, 3]))
        assert not ok
        assert witness == (1, 1, -1)

    def test_powers_of_two(self):
        ok, _ = quasi_independent(CharacterSet.of_integers([1, 2, 4, 8]))
        assert ok

    def test_witness_validates(self):
        rng = random.Random(61)
        for _ in range(20):
            entries = rng.sample(range(-12, 13), rng.randint(2, 6))
            E = CharacterSet.of_integers(entries)
            ok, witness = quasi_independent(E)
            if ok:
                assert witness is None
            else:
                total = sum(c * g.free_coords[0] for c, g in zip(witness, E))
                assert total == 0 and any(witness)

    def test_methods_agree(self):
        rng = random.Random(67)
        for _ in range(25):
            size = rng.randint(2, 12)
            entries = rng.sample(range(-40, 41), size)
            E = CharacterSet.of_integers(entries)
            d_ok, d_wit = quasi_independent(E, method="direct", budget=3**14)
            m_ok, m_wit = quasi_independent(E, method="mitm", budget=3**14)
            assert d_ok == m_ok
            for wit in (d_wit, m_wit):
                if wit is not None:
                    total = sum(c * g.free_coords[0] for c, g in zip(wit, E))
                    assert total == 0

    def test_torsion_relation(self):
        g = GroupSpec(0, (2, 2))
        E = CharacterSet(g, (Character(g, (), (1, 0)), Character(g, (), (0, 1)),
                             Character(g, (), (1, 1))))
        ok, witness = quasi_independent(E)
        assert not ok
        total_t = [0, 0]
        for c, ch in zip(witness, E):
            total_t[0] += c * ch.torsion_coords[0]
            total_t[1] += c * ch.torsion_coords[1]
        assert total_t[0] % 2 == 0 and total_t[1] % 2 == 0

    def test_budget(self):
        E = CharacterSet.of_integers(list(range(1, 14)))
        with pytest.raises(BudgetExceededError):
            quasi_independent(E, method="direct", budget=100)


class TestB2Coincidences:
    def test_one_coincidence(self):
        count, quads = b2_coincidences(CharacterSet.of_integers([1, 2, 3]))
        assert count == 1
        (g1, g2, g3, g4), = quads
        assert g1.free_coords[0] + g2.free_coords[0] == g3.free_coords[0] + g4.free_coords[0]

    def test_powers_of_two_clean(self):
        assert b2_coincidences(CharacterSet.of_integers([1, 2, 4, 8]))[0] == 0

    def test_dense_interval(self):
        count, _ = b2_coincidences(CharacterSet.of_integers([1, 2, 3, 4]))
        assert count >= 2

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            b2_coincidences(CharacterSet.of_integers(list(range(1, 30))), budget=10)


def direct_work(m):
    """What the direct search charges to examine every signed sum of m."""
    return sum(math.comb(m, k) * 2 ** (k - 1) * k for k in range(1, m + 1))


class TestArithmeticArrays:
    """The integer-array diagnostics against the scalar loops: same flag,
    witness, count, quadruples in order, and budget stops."""

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_quasi_matches_loops(self, kind):
        rng = random.Random(f"quasi-{kind}")
        for _ in range(40):
            F = random_set(rng, kind, rng.randint(1, 9))
            for method, loop in (("direct", oracles.quasi_direct_loop),
                                 ("mitm", oracles.quasi_mitm_loop)):
                assert quasi_independent(F, 10**7, method) == loop(F, 10**7), (F, method)

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_b2_matches_loop(self, kind):
        rng = random.Random(f"b2-{kind}")
        for _ in range(30):
            F = random_set(rng, kind, rng.randint(1, 24))
            count, quads = b2_coincidences(F, 10**7)
            assert (count, quads) == oracles.b2_loop(F, 10**7), F
            for g1, g2, g3, g4 in quads:
                assert g1 + g2 == g3 + g4

    def test_large_runs_keep_loop_order(self):
        # runs of equal sums far longer than a sort's insertion cutoff:
        # only a stable sort lists them, and matches them, in loop order
        g = GroupSpec(0, (7, 7))
        cube = CharacterSet(g, tuple(Character(g, (), (a, b))
                                     for a in range(7) for b in range(7)))
        dense = [CharacterSet.of_integers(range(1, 41)),
                 CharacterSet.of_integers(range(-15, 16)), cube]
        for F in dense:
            assert b2_coincidences(F, 10**8) == oracles.b2_loop(F, 10**8)
        for F in (CharacterSet.of_integers(range(1, 15)),
                  CharacterSet.of_integers([3, 5, 6, 9, 10, 12, 17, 20, 24, 33, 40, 48])):
            assert quasi_independent(F, 10**7, "mitm") == oracles.quasi_mitm_loop(F, 10**7)

    def test_first_left_match(self):
        # many left signings share each sum; the loop keys a sum to its first
        rng = random.Random(83)
        for _ in range(30):
            F = CharacterSet.of_integers(rng.sample(range(1, 30), rng.randint(6, 12)))
            assert quasi_independent(F, 10**7, "mitm") == oracles.quasi_mitm_loop(F, 10**7)

    def test_torsion_sums_wrap(self):
        # relations that exist only modulo the orders
        g = GroupSpec(1, (5,))
        F = CharacterSet(g, (Character(g, (1,), (2,)), Character(g, (2,), (4,)),
                             Character(g, (3,), (1,))))
        assert quasi_independent(F, method="mitm") == oracles.quasi_mitm_loop(F, 3**16)
        assert quasi_independent(F, method="direct") == (False, (1, 1, -1))
        Z9 = GroupSpec(0, (9,))
        F = CharacterSet(Z9, tuple(Character(Z9, (), (t,)) for t in (1, 4, 7, 8)))
        assert b2_coincidences(F) == oracles.b2_loop(F, 10**6)
        assert b2_coincidences(F)[0] > 0

    def test_sums_beyond_int64(self):
        big = 2**62
        F = CharacterSet.of_integers([big, big + 1, 2 * big + 1, 3])
        assert diagnostics._coordinates(F).dtype == object
        assert quasi_independent(F, method="direct") == (False, (0, 1, 1, -1))
        assert quasi_independent(F, method="mitm") == oracles.quasi_mitm_loop(F, 3**16)
        count, quads = b2_coincidences(F)
        assert (count, quads) == oracles.b2_loop(F, 10**6)

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_direct_stops_where_loop_stops(self, kind):
        rng = random.Random(f"direct-budget-{kind}")
        for _ in range(6):
            F = random_set(rng, kind, rng.randint(1, 5))
            for budget in range(direct_work(len(F)) + 2):
                assert (outcome(quasi_independent, F, budget, "direct")
                        == outcome(oracles.quasi_direct_loop, F, budget)), (F, budget)

    def test_direct_blocks_cut_by_budget(self, monkeypatch):
        # blocks of a few rows split supports and get cut by the budget
        monkeypatch.setattr(diagnostics, "TABLE_BLOCK", 3)
        for entries in ([1, 2, 4, 8, 15], [1, 2, 4, 8, 16]):
            F = CharacterSet.of_integers(entries)
            for budget in range(direct_work(5) + 2):
                assert (outcome(quasi_independent, F, budget, "direct")
                        == outcome(oracles.quasi_direct_loop, F, budget)), budget
        assert quasi_independent(F, direct_work(5), "direct") == (True, None)

    def test_mitm_budget_boundary(self):
        for entries in ([1, 2, 4, 8, 16], [1, 2, 3, 5, 8, 13], [2, 3, 7]):
            F = CharacterSet.of_integers(entries)
            h = (len(F) + 1) // 2
            need = 3**h * h
            with pytest.raises(BudgetExceededError):
                quasi_independent(F, need - 1, "mitm")
            assert quasi_independent(F, need, "mitm") == oracles.quasi_mitm_loop(F, need)

    def test_b2_budget_covers_quadruples(self):
        F = CharacterSet.of_integers(range(1, 21))
        pairs = 20 * 21 // 2
        count, quads = b2_coincidences(F, 10**6)
        assert count == len(quads) > 0
        with pytest.raises(BudgetExceededError, match="pairs exceed"):
            b2_coincidences(F, pairs - 1)
        with pytest.raises(BudgetExceededError, match="coincidences exceed"):
            b2_coincidences(F, pairs + count - 1)
        assert b2_coincidences(F, pairs + count) == (count, quads)
        clean = CharacterSet.of_integers([1, 2, 4, 8])
        assert b2_coincidences(clean, 10) == (0, [])

    def test_auto_method_rule(self):
        # "direct" while 3^m * m is within the budget and 3^13, else "mitm"
        rng = random.Random(89)
        for m in range(1, 12):
            F = CharacterSet.of_integers(rng.sample(range(1, 4 * m + 2), m))
            for budget in (3**m * m - 1, 3**m * m, 3**13, 10**7):
                direct = 3**m * m <= min(budget, 3**13)
                loop = oracles.quasi_direct_loop if direct else oracles.quasi_mitm_loop
                assert (outcome(quasi_independent, F, budget)
                        == outcome(loop, F, budget)), (m, budget)


class TestClassify:
    def test_small_kappa_fires_both(self):
        E = CharacterSet.of_integers([1, 2])
        rep = classify(E, synthetic_result(E, 1.2))
        assert rep.i0_sufficient and rep.sidon_by_kappa
        assert not rep.inconclusive

    def test_straddling_bracket_inconclusive(self):
        E = CharacterSet.of_integers([1, 2])
        rep = classify(E, synthetic_result(E, 2.0, kappa_lower=1.99))
        assert not rep.sidon_by_kappa
        assert rep.inconclusive

    def test_roots_route(self):
        E = CharacterSet.of_integers([1, 2])
        below = synthetic_result(E, roots_threshold(3) - 1e-6, n=3)
        rep = classify(E, synthetic_result(E, 2.0), [below])
        assert rep.sidon_by_kappa_n and rep.fired_orders == (3,)
        at = synthetic_result(E, roots_threshold(3), n=3)
        rep = classify(E, synthetic_result(E, 2.0), [at])
        assert not rep.sidon_by_kappa_n  # strict threshold

    def test_i0_implies_sidon(self):
        rng = random.Random(71)
        E = CharacterSet.of_integers([1, 2])
        for _ in range(30):
            rep = classify(E, synthetic_result(E, rng.uniform(0, 2)))
            if rep.i0_sufficient:
                assert rep.sidon_by_kappa

    def test_shrinking_upper_only_adds_flags(self):
        rng = random.Random(73)
        E = CharacterSet.of_integers([1, 2])
        for _ in range(20):
            hi = rng.uniform(0.2, 2.0)
            tighter = max(0.0, hi - rng.uniform(0, 0.2))
            r1 = classify(E, synthetic_result(E, hi))
            r2 = classify(E, synthetic_result(E, tighter))
            assert (not r1.i0_sufficient) or r2.i0_sufficient
            assert (not r1.sidon_by_kappa) or r2.sidon_by_kappa

    def test_real_pipeline(self):
        E = CharacterSet.of_integers([1, 2])
        res = alpha(E)
        rep = classify(E, res)
        assert rep.sidon_by_kappa and rep.i0_sufficient
        assert rep.kappa_bracket[1] < 1.1
