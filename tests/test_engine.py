import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from kronset import (
    Character,
    CharacterSet,
    DualPoint,
    ErrorBracket,
    GroupSpec,
    TargetMap,
    alpha,
    alpha_n,
    approx_error,
    best_point,
    grid_cap,
)
from kronset import engine
from kronset._minimax import (
    line_distances,
    line_witness,
    min_error_box,
    min_error_circle,
)
from kronset.engine import Budget

TWO_PI = 2.0 * math.pi


def z2cube_set():
    g = GroupSpec(0, (2, 2, 2))
    coords = [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)]
    return CharacterSet(g, tuple(Character(g, (), c) for c in coords))


def z2cube_flip_target(chars, n=2):
    idx = [1 if c.torsion_coords == (1, 0, 1) else 0 for c in chars]
    return TargetMap.from_grid(chars, n, idx)


def random_group_set(rng, group, zero=False):
    """2-3 random distinct characters of a small group, optionally with 0."""
    def draw():
        return Character(group, [rng.randint(-3, 3) for _ in range(group.free_rank)],
                         [rng.randrange(m) for m in group.torsion_orders])
    elements = {draw().coords: None for _ in range(rng.randint(2, 3))}
    if zero:
        elements[group.zero_character().coords] = None
    return CharacterSet(group, tuple(Character(group, *c) for c in elements))


def random_int_set(rng, max_size=3, max_entry=10):
    size = rng.randint(1, max_size)
    entries = rng.sample(range(-max_entry, max_entry + 1), size)
    return CharacterSet.of_integers(entries)


class TestApproxError:
    def test_exact_match(self):
        E = CharacterSet.of_integers([1])
        phi = TargetMap.from_angles(E, [0.0])
        assert approx_error(E, phi, DualPoint(E.group, (0.0,), ())) == 0.0

    def test_cube_at_identity(self):
        E = z2cube_set()
        phi = z2cube_flip_target(E)
        assert approx_error(E, phi, E.group.identity_point()) == math.pi

    def test_two_element_hand_value(self):
        E = CharacterSet.of_integers([1, 2])
        phi = TargetMap.from_angles(E, [0.0, math.pi])
        err = approx_error(E, phi, DualPoint(E.group, (math.pi / 3,), ()))
        assert err == pytest.approx(math.pi / 3, abs=1e-12)

    def test_wrong_set_rejected(self):
        E = CharacterSet.of_integers([1, 2])
        F = CharacterSet.of_integers([1, 3])
        phi = TargetMap.from_angles(F, [0.0, 0.0])
        with pytest.raises(ValueError):
            approx_error(E, phi, DualPoint(E.group, (0.0,), ()))


class TestBestPoint:
    def test_single_character_reaches_any_target(self):
        E = CharacterSet.of_integers([1])
        for c in (0.3, 2.0, 5.9):
            point, bracket = best_point(E, TargetMap.from_angles(E, [c]))
            assert bracket.upper <= 1e-12
            assert point.torus_angles[0] == pytest.approx(c, abs=1e-12)

    def test_pair_balanced_minimum(self):
        E = CharacterSet.of_integers([1, 2])
        phi = TargetMap.from_angles(E, [0.0, math.pi])
        point, bracket = best_point(E, phi)
        assert bracket.upper == pytest.approx(math.pi / 3, abs=1e-12)
        assert point.torus_angles[0] == pytest.approx(math.pi / 3, abs=1e-12)

    def test_cube_flip_target_exact(self):
        E = z2cube_set()
        point, bracket = best_point(E, z2cube_flip_target(E))
        assert bracket.exact_turns == Fraction(1, 2)
        assert bracket.lower == math.pi and bracket.upper == math.pi
        # the chordal constant is exactly 2
        assert bracket.chordal()[1] == 2.0

    def test_cube_exhaustive_oracle_agreement(self):
        E = z2cube_set()
        rows = [c.torsion_coords for c in E]
        rng = random.Random(2)
        for _ in range(10):
            idx = [rng.randrange(4) for _ in rows]
            phi = TargetMap.from_grid(E, 4, idx)
            val, _ = oracles.best_point_torsion_exhaustive(
                (2, 2, 2), rows, [Fraction(j, 4) for j in idx])
            _, bracket = best_point(E, phi)
            assert bracket.exact_turns == val

    def test_breakpoint_oracle_agreement_random(self):
        rng = random.Random(17)
        for _ in range(40):
            E = random_int_set(rng, max_size=3, max_entry=6)
            angles = [rng.uniform(0, TWO_PI) for _ in range(len(E))]
            phi = TargetMap.from_angles(E, angles)
            slopes = [c.free_coords[0] for c in E]
            _, expected = oracles.min_error_breakpoints(slopes, phi.angles)
            _, bracket = best_point(E, phi)
            assert bracket.upper == pytest.approx(expected, abs=1e-9)
            assert bracket.lower <= expected + 1e-9

    def test_translation_invariance(self):
        rng = random.Random(23)
        for _ in range(15):
            E = random_int_set(rng, max_size=3, max_entry=8)
            phi = TargetMap.from_angles(E, [rng.uniform(0, TWO_PI) for _ in range(len(E))])
            y = DualPoint(E.group, (rng.uniform(0, TWO_PI),), ())
            _, b1 = best_point(E, phi)
            _, b2 = best_point(E, phi.translated(y))
            assert b1.upper == pytest.approx(b2.upper, abs=1e-9)

    def test_negation_invariance(self):
        rng = random.Random(29)
        for _ in range(15):
            E = random_int_set(rng, max_size=3, max_entry=8)
            phi = TargetMap.from_angles(E, [rng.uniform(0, TWO_PI) for _ in range(len(E))])
            _, b1 = best_point(E, phi)
            _, b2 = best_point(E, phi.negated())
            assert b1.upper == pytest.approx(b2.upper, abs=1e-9)

    def test_mixed_group_with_torsion(self):
        g = GroupSpec(1, (2,))
        E = CharacterSet(g, (Character(g, (1,), (1,)), Character(g, (2,), (0,))))
        phi = TargetMap.from_angles(E, [0.25, 4.0])
        point, bracket = best_point(E, phi)
        assert approx_error(E, phi, point) == pytest.approx(bracket.upper, abs=1e-12)

    def test_continuous_target_on_torsion_group(self):
        g = GroupSpec(0, (2, 2))
        E = CharacterSet(g, (Character(g, (), (1, 0)), Character(g, (), (0, 1))))
        phi = TargetMap.from_angles(E, [0.4, 2.9])
        _, bracket = best_point(E, phi)
        brute = min(
            max(oracles.circle_dist(0.4, math.pi * c1),
                oracles.circle_dist(2.9, math.pi * c2))
            for c1 in (0, 1) for c2 in (0, 1)
        )
        assert bracket.upper == pytest.approx(brute, abs=1e-12)

    def test_box_solver_zero_row_floor(self):
        # the all-zero row fixes the objective at pi everywhere
        budget = Budget(10**4)
        _, lower, upper = min_error_box(np.array([[0, -3], [0, 0], [1, -1]]),
                                        np.array([0.0, math.pi, 0.0]), 1e-2, budget)
        assert lower == upper == math.pi

    def test_rank_two_box_solver(self):
        g = GroupSpec(2)
        E = CharacterSet(g, (Character(g, (1, 0), ()), Character(g, (0, 1), ()),
                             Character(g, (1, 1), ())))
        phi = TargetMap.from_angles(E, [0.0, 0.0, math.pi])
        point, bracket = best_point(E, phi, tol=5e-3, budget=10**7)
        assert bracket.width <= 5e-3 + 1e-12
        # splitting pi across three constraints cannot do better than pi/3
        assert bracket.upper >= math.pi / 3 - 5e-3
        assert approx_error(E, phi, point) == pytest.approx(bracket.upper, abs=1e-12)


class TestAlphaN:
    def test_identity_only_set(self):
        E = CharacterSet.of_integers([0])
        res = alpha_n(E, 2)
        assert res.alpha.lower == math.pi and res.alpha.upper == math.pi
        assert res.certified

    def test_identity_membership_forces_pi(self):
        rng = random.Random(31)
        for _ in range(5):
            entries = [0] + rng.sample(range(1, 9), 2)
            E = CharacterSet.of_integers(entries)
            res = alpha_n(E, 2)
            assert res.alpha.lower == math.pi

    def test_oracle_agreement_small(self):
        rng = random.Random(37)
        for _ in range(12):
            E = random_int_set(rng, max_size=2, max_entry=5)
            n = rng.choice([2, 3, 4])
            expected, _ = oracles.alpha_n_exhaustive(
                [c.free_coords[0] for c in E], n)
            res = alpha_n(E, n, tol=1e-6)
            assert res.certified
            assert res.alpha.lower <= expected + 1e-9
            assert res.alpha.upper >= expected - 1e-9
            assert res.alpha.width <= 1e-6 + 1e-9

    def test_truncated_coset_value(self):
        # frozen via the exhaustive 27-target oracle: alpha_3({1,4,7}) = 4*pi/15
        expected = 4 * math.pi / 15
        check, _ = oracles.alpha_n_exhaustive([1, 4, 7], 3)
        assert check == pytest.approx(expected, abs=1e-12)
        res = alpha_n(CharacterSet.of_integers([1, 4, 7]), 3)
        assert res.alpha.lower <= expected <= res.alpha.upper + 1e-12
        assert res.alpha.width <= 1e-3

    def test_odd_cap_holds(self):
        rng = random.Random(41)
        for _ in range(8):
            E = random_int_set(rng)
            res = alpha_n(E, 5)
            assert res.alpha.upper <= grid_cap(5) + 1e-12

    def test_witness_revalidates(self):
        rng = random.Random(43)
        for _ in range(10):
            E = random_int_set(rng)
            res = alpha_n(E, 4)
            err = approx_error(E, res.worst_target, res.witness_point)
            assert res.alpha.lower - 1e-9 <= err <= res.alpha.upper + 1e-3

    def test_negated_set_same_constant(self):
        rng = random.Random(47)
        for _ in range(8):
            E = random_int_set(rng)
            r1 = alpha_n(E, 3)
            r2 = alpha_n(E.negated(), 3)
            assert r1.alpha.lower == pytest.approx(r2.alpha.lower, abs=2e-3)

    def test_budget_exhaustion_partial(self):
        E = CharacterSet.of_integers(list(range(1, 9)))
        res = alpha_n(E, 16, budget=1000)
        assert not res.certified
        assert res.work.budget_exhausted
        assert res.alpha.upper == math.pi  # even-n fallback cap

    def test_thread_pool_matches_serial(self):
        # the whole result, work counters included, must not depend on the
        # thread count: plain, seeded, capped and budget-limited scans
        rng = random.Random(61)
        orders = itertools.cycle((3, 4, 5, 8))
        groups = [GroupSpec(1), GroupSpec(2), GroupSpec(1, (2,)),
                  GroupSpec(0, (12,)), GroupSpec(0, (5, 5))]
        cases = [(CharacterSet.of_integers([0, 1]), 2, {"seed_targets": [(1, 1)]}, 3)]
        for g in groups:
            for mode in ("plain", "seeded", "budget", "capped"):
                E = random_group_set(rng, g, zero=mode == "capped")
                n = next(orders)
                kw = {"tol": 1e-2}
                if mode == "seeded":
                    kw["seed_targets"] = [[rng.randrange(n) for _ in E] for _ in range(2)]
                if mode == "budget":
                    kw["budget"] = rng.randint(1, alpha_n(E, n, **kw).work.inner_evals - 1)
                cases.append((E, n, kw, 2))
        for E, n, kw, threads in cases:
            serial = alpha_n(E, n, **kw)
            assert alpha_n(E, n, threads=threads, **kw) == serial, (E, n, kw)
            assert serial.work.budget_exhausted == ("budget" in kw)
        E = CharacterSet.of_integers([1, 3])
        assert alpha(E, tol=1e-2, threads=2) == alpha(E, tol=1e-2)

    def test_seed_targets_raise_lower_bound(self):
        E = CharacterSet.of_integers([-2, 1, 4])
        full = alpha_n(E, 3)
        seeded = alpha_n(E, 3, budget=2000,
                         seed_targets=[full.worst_target.grid_indices])
        assert seeded.alpha.lower >= full.alpha.lower - 1e-12

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            alpha_n(CharacterSet.of_integers([1]), 1)


class TestAlphaLadder:
    def test_single_nonzero_characters(self):
        for k in (1, 2, 5):
            res = alpha(CharacterSet.of_integers([k]))
            assert res.certified
            assert res.alpha.upper <= 1e-3

    def test_identity_is_pi_exact(self):
        res = alpha(CharacterSet.of_integers([0]))
        assert res.alpha.lower == math.pi and res.alpha.upper == math.pi
        assert res.work.ladder[0][0] == 2  # settled at the first rung

    def test_pair_value(self):
        res = alpha(CharacterSet.of_integers([1, 2]))
        assert res.certified
        assert res.alpha.lower <= math.pi / 3 <= res.alpha.upper
        assert res.alpha.width <= 1e-3

    def test_ladder_ordering(self):
        rng = random.Random(53)
        for _ in range(6):
            E = random_int_set(rng)
            rungs = {n: alpha_n(E, n) for n in (2, 4, 8)}
            for n in (2, 4):
                lo_n = rungs[n].alpha.lower
                hi_2n = rungs[2 * n].alpha.upper
                assert lo_n <= hi_2n + 2e-3
                assert rungs[2 * n].alpha.lower <= rungs[n].alpha.upper + math.pi / n + 2e-3

    def test_subset_monotonicity(self):
        rng = random.Random(59)
        for _ in range(6):
            E = random_int_set(rng, max_size=3)
            if len(E) < 2:
                continue
            F = E.subset(range(len(E) - 1))
            rF = alpha_n(F, 4)
            rE = alpha_n(E, 4)
            assert rF.alpha.lower <= rE.alpha.upper + 2e-3

    def test_refinement_properties(self):
        rng = random.Random(68)
        tol, grid = 1e-2, 100
        pooled = 0
        for _ in range(12):
            E = random_int_set(rng, max_size=3, max_entry=6)
            res = alpha(E, tol=tol)
            lo, hi = res.alpha.lower, res.alpha.upper
            if res.certified:
                assert res.alpha.width <= tol
            # the refinement never visits odd orders or 6
            for n in (3, 5, 6):
                assert hi >= alpha_n(E, n).alpha.lower - 1e-12, (E, n)
            assert lo <= alpha_n(E, 16).alpha.upper + math.pi / 16 + 1e-12
            if len(E) == 2:
                sup, _ = oracles.alpha_pair_grid(*(c.free_coords[0] for c in E), grid=grid)
                assert lo - math.pi / grid <= sup <= hi, E
            orders = [level[0] for level in res.work.ladder]
            assert orders == [2 << i for i in range(len(orders))]
            uppers = [level[2] for level in res.work.ladder]
            assert all(b <= a for a, b in zip(uppers, uppers[1:]))
            if len(E) >= 2 and pooled < 2:
                pooled += 1
                assert alpha(E, tol=tol, threads=2) == res

    def test_budget_flag(self):
        res = alpha(CharacterSet.of_integers([1, 2, 3]), budget=5000)
        assert not res.certified

    def test_kappa_variants_order_preserved(self):
        res = alpha(CharacterSet.of_integers([1, 2]))
        lo, hi = res.kappa
        assert lo <= hi
        assert lo == pytest.approx(2 * math.sin(res.alpha.lower / 2), abs=1e-15)
        assert hi == pytest.approx(2 * math.sin(res.alpha.upper / 2), abs=1e-15)


class TestLifts:
    @staticmethod
    def random_slopes(rng):
        while True:
            slopes = np.array([rng.randint(-8, 8) for _ in range(rng.randint(1, 3))])
            if slopes.any():
                return slopes

    def test_lifts_give_the_exact_value_near_the_target(self):
        rng = random.Random(211)
        checked = 0
        for _ in range(200):
            slopes = self.random_slopes(rng)
            psi = np.array([rng.uniform(0, TWO_PI) for _ in slopes])
            radius = rng.choice([0.05, 0.1, 0.2])
            _, _, upper, lifts = min_error_circle(slopes, psi, Budget(10**6),
                                                  lift_margin=4 * radius)
            if lifts is None:
                continue
            nu, vals = lifts
            here = line_distances(slopes, psi + TWO_PI * nu)
            assert np.allclose(here, vals, atol=1e-12)
            assert here.min() == pytest.approx(upper, abs=1e-12)
            # every target within radius has its best lift among them
            for _ in range(5):
                near = psi + np.array([rng.uniform(-radius, radius) for _ in slopes])
                _, _, want, _ = min_error_circle(slopes, near, Budget(10**6), lift_margin=0.0)
                got = line_distances(slopes, near + TWO_PI * nu).min()
                assert got == pytest.approx(want, abs=1e-9), (slopes, psi, near)
            checked += 1
        assert checked > 100

    def test_line_witness_attains_the_value(self):
        rng = random.Random(223)
        for _ in range(100):
            slopes = self.random_slopes(rng)
            u = np.array([rng.uniform(-3, 3) for _ in slopes])
            s = line_witness(slopes, u)
            assert np.abs(slopes * s - u).max() == pytest.approx(
                float(line_distances(slopes, u)), abs=1e-12)

    def test_lifted_refinement_matches_full_solves(self, monkeypatch):
        rng = random.Random(227)
        sets = [CharacterSet.of_integers([-3, -1, 6]), CharacterSet.of_integers([2, 5])]
        sets += [random_int_set(rng, max_size=3, max_entry=6) for _ in range(4)]
        lifted = [alpha(E, tol=1e-2) for E in sets]
        monkeypatch.setattr(engine, "LIFT_MAX_SIZE", 0)
        for E, res in zip(sets, lifted):
            full = alpha(E, tol=1e-2)
            assert res.certified == full.certified
            assert res.alpha.lower == pytest.approx(full.alpha.lower, abs=1e-9), E
            assert res.alpha.upper == pytest.approx(full.alpha.upper, abs=1e-9), E
            assert [lv[0] for lv in res.work.ladder] == [lv[0] for lv in full.work.ladder]
            assert res.work.inner_evals <= full.work.inner_evals

    def test_hard_triple_certifies_within_half_a_million_evaluations(self):
        # the costliest three-element set with entries up to 12 and 36-44
        # circle candidates certifies at tol 1e-3 in about 2.6e5 evaluations
        res = alpha(CharacterSet.of_integers([-6, 1, 3]), tol=1e-3, budget=500_000)
        assert res.certified and res.work.stop_reason == "done"
        assert res.alpha.width <= 1e-3


class TestSymmetryQuotient:
    def test_canonical_targets_are_orbit_minima(self):
        import itertools
        from kronset.engine import _canonical_targets, _set_data, _symmetry_shifts

        rng = random.Random(99)
        for trial in range(6):
            if trial % 2 == 0:
                E = CharacterSet.of_integers(rng.sample(range(-6, 7), rng.randint(1, 3)))
            else:
                g = GroupSpec(1, (2,))
                elems = set()
                while len(elems) < 2:
                    elems.add((rng.randint(-4, 4), rng.randint(0, 1)))
                E = CharacterSet(g, tuple(Character(g, (a,), (t,)) for a, t in elems))
            n = rng.choice([2, 3, 4])
            data = _set_data(E)
            shifts = _symmetry_shifts(data, n)
            transforms = [(s, sh) for s in (1, -1) for sh in shifts
                          if not (s == 1 and not any(sh))]
            canon = set(_canonical_targets(data.m, n, transforms))
            expected = set()
            for t in itertools.product(range(n), repeat=data.m):
                orbit = {t}
                for s, sh in transforms:
                    orbit.add(tuple((s * v + d) % n for v, d in zip(t, sh)))
                expected.add(min(orbit))
            assert canon == expected

    def test_orbit_reps_are_orbit_minima(self):
        from kronset.engine import _orbit_reps, _set_data, _shift_basis, _symmetry_shifts

        rng = random.Random(103)
        groups = [GroupSpec(1), GroupSpec(2), GroupSpec(1, (2,)), GroupSpec(0, (4, 6))]
        for trial in range(12):
            E = random_group_set(rng, groups[trial % len(groups)])
            n = rng.choice([4, 6, 8, 16])
            data = _set_data(E)
            shifts = _symmetry_shifts(data, n)
            cells = [[rng.randrange(n) for _ in E] for _ in range(20)]
            reps = _orbit_reps(np.array(cells, dtype=np.int64), _shift_basis(data, n), n)
            for cell, rep in zip(cells, reps.tolist()):
                orbit = [[(s * v + d) % n for v, d in zip(cell, sh)]
                         for s in (1, -1) for sh in shifts]
                assert rep == min(orbit), (E, n, cell)

    def test_quotient_matches_full_enumeration_on_mixed_group(self):
        import itertools

        rng = random.Random(101)
        for _ in range(4):
            g = GroupSpec(1, (2,))
            elems = set()
            while len(elems) < rng.randint(1, 2):
                elems.add((rng.randint(-4, 4), rng.randint(0, 1)))
            E = CharacterSet(g, tuple(Character(g, (a,), (t,)) for a, t in elems))
            n = rng.choice([2, 3, 4])
            res = alpha_n(E, n, tol=1e-6)
            brute = -1.0
            for idx in itertools.product(range(n), repeat=len(E)):
                phi = TargetMap.from_grid(E, n, idx)
                _, br = best_point(E, phi, tol=1e-6)
                brute = max(brute, br.upper)
            assert res.alpha.lower <= brute + 1e-9
            assert res.alpha.upper >= brute - 1e-9


class TestStructures:
    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            ErrorBracket(1.0, 0.5)
        b = ErrorBracket(-1e-15, math.pi + 1e-15)
        assert b.lower == 0.0 and b.upper == math.pi

    def test_target_validation(self):
        E = CharacterSet.of_integers([1, 2])
        with pytest.raises(ValueError):
            TargetMap.from_angles(E, [0.0])
        with pytest.raises(ValueError):
            TargetMap(E, (0.0, 0.1), roots_order=4, grid_indices=(0, 1))

    def test_grid_target_roundtrip(self):
        E = CharacterSet.of_integers([1, 2])
        phi = TargetMap.from_grid(E, 8, [3, 11])
        assert phi.grid_indices == (3, 3)
        assert phi.angles[0] == pytest.approx(3 * TWO_PI / 8, abs=1e-15)

    def test_grid_cap_values(self):
        assert grid_cap(2) == math.pi
        assert grid_cap(3) == pytest.approx(2 * math.pi / 3, abs=1e-15)
        assert grid_cap(4) == math.pi
        with pytest.raises(ValueError):
            grid_cap(1)
