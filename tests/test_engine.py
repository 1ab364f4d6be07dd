import collections
import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial

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
from kronset import _minimax, engine
from kronset._minimax import (
    line_distances,
    line_witness,
    min_error_box,
    min_error_circle,
    vertex_systems,
)
from kronset.cli import parse_set_spec
from kronset.engine import Budget
from kronset.errors import BudgetExceededError
from kronset.groups import angular_distance, evaluate_arg

TWO_PI = 2.0 * math.pi


def z2cube_set():
    g = GroupSpec(0, (2, 2, 2))
    coords = [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)]
    return CharacterSet(g, tuple(Character(g, (), c) for c in coords))


def z2cube_flip_target(chars, n=2):
    idx = [1 if c.torsion_coords == (1, 0, 1) else 0 for c in chars]
    return TargetMap.from_grid(chars, n, idx)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def solutions(data, solved):
    """`_Targets` as one ((lower, upper, point, exact, lifts), charge) pair
    per target, None for a target left unsolved; lifts as
    `oracles.row_lifts` reads them."""
    lifts = solved.owner, solved.nu, solved.vals
    return [None if math.isnan(lower) else (
        (lower, solved.upper[i], *solved.witness(data, None, i), oracles.row_lifts(lifts, i)),
        int(solved.cost[i])) for i, lower in enumerate(solved.lower.tolist())]


def random_group_set(rng, group, zero=False):
    """2-3 random distinct characters of a small group, optionally with 0."""
    def draw():
        return Character(group, [rng.randint(-3, 3) for _ in range(group.free_rank)],
                         [rng.randrange(m) for m in group.torsion_orders])
    elements = {draw().coords: None for _ in range(rng.randint(2, 3))}
    if zero:
        elements[group.zero_character().coords] = None
    return CharacterSet(group, tuple(Character(group, *c) for c in elements))


def circle_row(slopes, psi, **kw):
    """`min_error_circle` on one row of target angles: (theta, lower, upper)
    as floats, and the row's lifts given lift_margin (`oracles.row_lifts`)."""
    theta, lower, upper, *lifts = min_error_circle(slopes, psi[None], **kw)
    row = float(theta[0]), float(lower[0]), float(upper[0])
    return (*row, oracles.row_lifts(lifts[0], 0)) if lifts else row


def row_cost(free):
    """Budget units one kernel row of the integer matrix `free` is charged:
    the sieve's on one column, the vertex kernel's on more."""
    free = np.asarray(free)
    if free.shape[1] == 1:
        return _minimax.circle_unit(free[:, 0].tolist())
    return vertex_systems(tuple(map(tuple, free.tolist())))[1]


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

    def test_mixed_group_oracle(self):
        # the bracket holds the least, over torsion selections, of the
        # breakpoint oracle's value at the shifted targets
        rng = random.Random(313)
        for _ in range(60):
            g = GroupSpec(1, (rng.randint(2, 6),))
            E = random_group_set(rng, g, zero=rng.random() < 0.2)
            m = g.torsion_orders[0]
            if rng.random() < 0.5:
                n = rng.choice([2, 3, 4, 5])
                phi = TargetMap.from_grid(E, n, [rng.randrange(n) for _ in E])
            else:
                phi = TargetMap.from_angles(E, [rng.uniform(0, TWO_PI) for _ in E])
            slopes = [c.free_coords[0] for c in E]
            want = min(oracles.min_error_breakpoints(
                slopes, [a - TWO_PI * c.torsion_coords[0] * sel / m
                         for a, c in zip(phi.angles, E)])[1] for sel in range(m))
            _, bracket = best_point(E, phi)
            assert bracket.lower - 1e-12 <= want <= bracket.upper + 1e-12, (E, phi)

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
        _, lower, upper = min_error_box(np.array([[0, -3], [0, 0], [1, -1]]),
                                        np.array([[0.0, math.pi, 0.0]]))
        assert lower[0] == upper[0] == math.pi

    def test_rank_two_box_solver(self):
        g = GroupSpec(2)
        E = CharacterSet(g, (Character(g, (1, 0), ()), Character(g, (0, 1), ()),
                             Character(g, (1, 1), ())))
        phi = TargetMap.from_angles(E, [0.0, 0.0, math.pi])
        point, bracket = best_point(E, phi, budget=10**7)
        # splitting pi across three constraints cannot do better than pi/3,
        # and s = (pi/3, pi/3) attains it
        assert bracket.width <= 1e-9
        assert bracket.lower <= math.pi / 3 <= bracket.upper <= math.pi / 3 + 1e-12
        assert approx_error(E, phi, point) == pytest.approx(bracket.upper, abs=1e-12)

    @pytest.mark.parametrize("spec, grid, path", [
        ("Z12 : [1],[5],[8]", (6, (1, 5, 2)), "torsion grid"),
        ("Z12 : [1],[5],[8]", None, "torsion off-grid"),
        ("Z x Z2 : [1,0],[3,1],[-4,1]", None, "sieve"),
        ("Z^2 : [1,0],[0,1],[1,2],[2,-1]", None, "vertex kernel"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_budget_boundary_on_each_solve_path(self, spec, grid, path):
        # a budget equal to the charge pays for the solve, one unit less
        # stops it: the charge is the reference loop's on the torsion grid
        # (the selections up to the first zero error), m per selection off
        # it, a unit per selection on a free part, and the vertex systems
        # up front at r' = 2
        E = parse_set_spec(spec)[1]
        data = engine._set_data(E)
        phi = (TargetMap.from_angles(E, [0.3, 2.2, 4.1, 5.0][:len(E)]) if grid is None
               else TargetMap.from_grid(E, *grid))
        if grid is not None:
            _, args = TestTorsionTable.solve(data, grid[0], [grid[1]], 10**9)
            ref = Budget(10**9)
            oracles.torsion_units_loop(*args[0], itertools.product(*map(range, data.orders)),
                                       ref)
            charge = ref.used
            assert charge < data.m * data.selection_count
        else:
            unit = engine._block_targets(data)[1]
            charge = data.selection_count * unit
            if path == "vertex kernel":
                charge += _minimax.subset_count(data.free_key)
        want = best_point(E, phi)
        assert best_point(E, phi, budget=charge) == want
        with pytest.raises(BudgetExceededError):
            best_point(E, phi, budget=charge - 1)


class TestTorsionTable:
    """The selection-table solve against the exhaustive oracle and against
    the per-selection reference loop's budget charges."""

    GROUPS = ((12,), (5, 5), (4, 6))

    @staticmethod
    def solve(data, n, rows, limit):
        """`_solve_rows` on a block of grid targets, with the arguments the
        reference loop takes for each of them."""
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(data.chars))
        got = solutions(data, engine._solve_rows(data, rows * (TWO_PI / n), n, rows, limit))
        modulus = math.lcm(data.lcm, n)
        unit_rows = [tuple(t * (modulus // m) for t, m in zip(row, data.orders))
                     for row in data.torsion]
        return got, [(unit_rows, modulus, [j * (modulus // n) for j in idx])
                     for idx in rows.tolist()]

    def test_exact_values_and_first_selection(self):
        rng = random.Random(43)
        for orders in self.GROUPS:
            g = GroupSpec(0, orders)
            for n in (2, 3, 5, 8):
                for _ in range(4):
                    E = random_group_set(rng, g)
                    idx = [rng.randrange(n) for _ in E]
                    val, sel = oracles.best_point_torsion_exhaustive(
                        orders, [c.torsion_coords for c in E], [Fraction(j, n) for j in idx])
                    point, bracket = best_point(E, TargetMap.from_grid(E, n, idx))
                    assert bracket.exact_turns == val, (E, n, idx)
                    assert point.torsion_selections == sel, (E, n, idx)

    @pytest.mark.parametrize("block", [None, 5])
    def test_budget_charges_match_the_reference_loop(self, monkeypatch, block):
        if block is not None:
            # blocks split the table, and no table is kept
            monkeypatch.setattr(_minimax, "TABLE_BLOCK", block)
            monkeypatch.setattr(engine, "TABLE_BLOCK", block)
        rng = random.Random(47)
        stops, cuts = set(), set()
        for orders in self.GROUPS:
            g = GroupSpec(0, orders)
            for n in (3, 4, 6):
                for _ in range(6):
                    E = random_group_set(rng, g)
                    data = engine._SetData(E)
                    rows = []
                    for _ in range(rng.randint(1, 6)):
                        idx = [rng.randrange(n) for _ in E]
                        if rng.random() < 0.5:
                            # a target attained by some selection stops at a zero
                            sel = data.selection(rng.randrange(data.selection_count))
                            turns = [t * n for t in oracles.torsion_turns(E, sel)]
                            if all(t.denominator == 1 for t in turns):
                                idx = [int(t) % n for t in turns]
                        rows.append(tuple(idx))
                    got, args = self.solve(data, n, rows, 10**9)
                    refs = []
                    for (solution, charge), arg in zip(got, args):
                        ref = Budget(10**9)
                        units, sel = oracles.torsion_units_loop(
                            *arg, itertools.product(*map(range, orders)), ref)
                        assert solution[3] == Fraction(units, arg[1])
                        assert solution[2].torsion_selections == sel
                        assert charge == ref.used
                        stops.add(units == 0)
                        refs.append(charge)
                    # cut short: the targets the limit pays, then None; a scan
                    # solving them in turn stops where the loop's charges do
                    limit = rng.randrange(sum(refs))
                    paid = len(list(itertools.takewhile(
                        lambda total: total <= limit, itertools.accumulate(refs))))
                    short, _ = self.solve(data, n, rows, limit)
                    assert short == got[:paid] + [None] * (len(rows) - paid)
                    cuts.add(paid > 0)
                    scan, ref = Budget(limit), Budget(limit)
                    with pytest.raises(BudgetExceededError):
                        for idx in rows:
                            oracles.solve_target(data, np.array(idx) * (TWO_PI / n), (n, idx),
                                                 scan)
                    with pytest.raises(BudgetExceededError):
                        for arg in args:
                            oracles.torsion_units_loop(
                                *arg, itertools.product(*map(range, orders)), ref)
                    assert scan.used == ref.used
        assert stops == {True, False} and cuts == {True, False}

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_kernel_matches_the_stacked_formula(self, dtype):
        # the kernel folds one character at a time into the running largest;
        # the reduce over a (targets x selections x characters) array it
        # replaced is the oracle, on int64 and on Python integers past it
        rng = random.Random(53)
        for _ in range(40):
            k, count, m = rng.randint(1, 30), rng.randint(1, 300), rng.randint(1, 6)
            lcm = rng.randint(2, 40)
            scale = rng.randint(1, 9) << (64 if dtype is object else 0)
            modulus = lcm * scale
            table = np.array([[rng.randrange(lcm) for _ in range(m)] for _ in range(count)],
                             dtype=dtype)
            targets = np.array([[rng.randrange(modulus) for _ in range(m)] for _ in range(k)],
                               dtype=dtype)
            live = sorted(rng.sample(range(k), rng.randint(1, k)))
            start = rng.randrange(count)
            stop = rng.randint(start + 1, count)
            args = (lambda a, b: table[a:b], scale, modulus, targets, start, stop, live)
            got = _minimax.solve_torsion_units(*args)
            want = oracles.torsion_units_stacked(*args)
            assert got.dtype == want.dtype == dtype and got.shape == (len(live), stop - start)
            assert got.tolist() == want.tolist()

    def test_budget_is_consulted_before_the_table_is_built(self):
        # 2^24 selections: a table built whole would take about 400 MB
        g = GroupSpec(0, (2,) * 24)
        units = [[1] + [0] * 23, [0, 1] + [0] * 22, [1, 1] + [0] * 22]
        E = CharacterSet(g, tuple(Character(g, (), u) for u in units))
        tracemalloc.start()
        try:
            res = alpha_n(E, 2, budget=10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.work.stop_reason == "budget"
        assert peak < 64 * 2**20

    def test_orders_beyond_int64(self, monkeypatch):
        # 2^64 selections and a modulus of 3 * 2^64: selection indices,
        # targets and charges take Python integers.  The all-zero target
        # stops at selection 0 (3 units); the next one is charged to one
        # selection past the room left, and read once, to the first block of
        # 4096 selections that passes the 99,997 units left (the ninth)
        reads = []

        def spy(table, scale, modulus, targets, start, stop, live):
            reads.append((start, stop))
            return _minimax.solve_torsion_units(table, scale, modulus, targets, start, stop,
                                                live)

        monkeypatch.setattr(engine, "solve_torsion_units", spy)
        g = GroupSpec(0, (2**64,))
        E = CharacterSet(g, tuple(Character(g, (), (u,)) for u in (1, 3, 2**40 + 5)))
        res = alpha_n(E, 3, budget=10**5)
        assert (res.work.targets_enumerated, res.work.inner_evals) == (1, 100002)
        assert reads == [(0, 4096)] + [(b << 12, (b + 1) << 12) for b in range(9)]
        assert res.work.stop_reason == "budget" and res.alpha.lower == 0.0
        phi = TargetMap.from_grid(E, 3, (1, 2, 0))
        with pytest.raises(BudgetExceededError):
            best_point(E, phi, budget=10**4)


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

    def test_budget_stops_match_the_reference_loop(self, monkeypatch):
        # budgets that stop the scan anywhere: the charges and decisions of
        # the reference loop, which solves one target at a time
        rng = random.Random(331)
        groups = [GroupSpec(1), GroupSpec(2), GroupSpec(1, (2,)), GroupSpec(0, (12,))]
        cases = [(CharacterSet.of_integers([1, 2, 3, 5, 8]), 8)]
        cases += [(random_group_set(rng, g), n) for g in groups for n in (3, 4, 5, 8)]
        for E, n in cases:
            full = alpha_n(E, n, tol=1e-2)
            limits = [rng.randint(1, full.work.inner_evals) for _ in range(8)]
            got = [alpha_n(E, n, tol=1e-2, budget=b) for b in limits]
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_scan_targets", oracles.scan_targets_loop)
                assert alpha_n(E, n, tol=1e-2) == full, (E, n)
                for b, res in zip(limits, got):
                    assert alpha_n(E, n, tol=1e-2, budget=b) == res, (E, n, b)

    def test_seed_targets_raise_lower_bound(self):
        E = CharacterSet.of_integers([-2, 1, 4])
        full = alpha_n(E, 3)
        seeded = alpha_n(E, 3, budget=2000,
                         seed_targets=[full.worst_target.grid_indices])
        assert seeded.alpha.lower >= full.alpha.lower - 1e-12

    def test_exact_lower_ends_follow_the_torsion_rule(self):
        # a purely torsion bracket with exact_turns p/q has both ends at
        # 2 pi p / q in lowest terms (`groups.torsion_angles`), bit for bit:
        # a half turn is pi and a quarter turn pi/2 whatever the modulus
        rng = random.Random(337)
        cases = [(parse_set_spec(spec)[1], n) for spec, n in [
            ("Z30 : [0],[15]", 2), ("Z22 : [1],[11]", 4), ("Z99 : [46],[53],[69],[89]", 5)]]
        for _ in range(16):
            g = rng.choice([GroupSpec(0, (rng.randint(6, 120),)),
                            GroupSpec(0, (rng.choice((3, 5, 7)),) * 2)])
            cases.append((random_group_set(rng, g), rng.choice((2, 3, 4, 5, 6, 8))))
        results = [alpha_n(E, n) for E, n in cases]
        assert results[0].alpha.lower == math.pi and results[1].alpha.lower == math.pi / 2
        exact = [res for res in results if res.alpha.exact_turns is not None]
        for res in exact:
            turns = res.alpha.exact_turns
            value = TWO_PI * turns.numerator / turns.denominator
            assert res.alpha.lower == res.alpha.upper == value, (res.chars, res.roots_order)
        assert len(exact) >= 15, len(exact)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            alpha_n(CharacterSet.of_integers([1]), 1)

    def test_invalid_tolerance_and_max_order(self):
        E = CharacterSet.of_integers([1, 2])
        for tol in (-1.0, math.nan):
            for solve in (lambda: alpha(E, tol=tol), lambda: alpha_n(E, 3, tol=tol)):
                with pytest.raises(ValueError):
                    solve()
        for max_order in (0, 1):
            with pytest.raises(ValueError):
                alpha(E, max_order=max_order)
        # the smallest cap still scans level 2
        assert alpha(E, max_order=2).work.ladder[0][0] == 2


class TestScanBlocks:
    """Scans solve and decide their targets a block at a time; the scan's
    decisions are those of a loop over the targets in turn, so no result,
    witness or charge depends on the block size."""

    block_targets = staticmethod(engine._block_targets)

    @classmethod
    def blocks_of(cls, patch, size):
        # blocks and kernel calls of at most `size` targets; 0 decides every
        # target in turn by the reference loop, which solves each
        def capped(data):
            targets, unit = cls.block_targets(data)
            return min(targets, size), unit

        if size:
            patch.setattr(engine, "_block_targets", capped)
            patch.setattr(engine, "SIEVE_RUN", size)
        else:
            patch.setattr(engine, "_scan_targets", oracles.scan_targets_loop)

    @staticmethod
    def random_rank1_set(rng, group, zero=False, most=5):
        def draw():
            return Character(group, [rng.randint(-9, 9)],
                             [rng.randrange(m) for m in group.torsion_orders])
        elements = {draw().coords: None for _ in range(rng.randint(2, most))}
        if zero:
            elements[group.zero_character().coords] = None
        return CharacterSet(group, tuple(Character(group, *c) for c in elements))

    def assert_same_at_every_block_size(self, monkeypatch, solve, want):
        for size in (1, 0):
            with monkeypatch.context() as patch:
                self.blocks_of(patch, size)
                assert solve() == want, size

    def test_results_do_not_depend_on_the_block_size(self, monkeypatch):
        rng = random.Random(401)
        groups = [GroupSpec(1), GroupSpec(1, (2,)), GroupSpec(1, (2, 2)),
                  GroupSpec(1, (2, 2, 2)), GroupSpec(1, (3, 4))]
        torsion = [GroupSpec(0, (12,)), GroupSpec(0, (5, 5)), GroupSpec(0, (4, 6))]
        cases = []
        for g in groups + [GroupSpec(2), GroupSpec(2, (2,))] + torsion:
            for zero in (False, True):
                E = (self.random_rank1_set if g.free_rank == 1 else random_group_set)(rng, g, zero)
                n = rng.choice((3, 4, 5, 8))
                kw = {"tol": 1e-2}
                if rng.random() < 0.5:
                    kw["seed_targets"] = [[rng.randrange(n) for _ in E]]
                used = alpha_n(E, n, **kw).work.inner_evals
                cases.append((E, n, kw))
                # budgets that stop the scan inside a block, and before it
                cases += [(E, n, dict(kw, budget=rng.randint(1, used - 1))) for _ in range(3)]
        batched = inside = 0
        for E, n, kw in cases:
            want = alpha_n(E, n, **kw)
            assert want.work.budget_exhausted == ("budget" in kw)
            self.assert_same_at_every_block_size(monkeypatch, lambda: alpha_n(E, n, **kw), want)
            batched += engine._block_targets(engine._set_data(E))[0] > 1
            # a torsion scan's targets all fit in its first block
            inside += (not E.group.free_rank and want.work.budget_exhausted
                       and want.work.targets_enumerated > 0)
        assert batched >= 8 and inside >= 3, (batched, inside)
        # alpha: sets of more than LIFT_MAX_SIZE characters, lifted scans on
        # pairs and triples in Z, and sets of up to three characters in Z x Z2
        sets = [CharacterSet.of_integers([1, 2, 3, 5])]
        sets += [CharacterSet.of_integers(rng.sample(range(-9, 10), size))
                 for size in (2, 2, 3, 3)]
        sets += [self.random_rank1_set(rng, GroupSpec(1, (2,)), most=3) for _ in range(2)]
        for E in sets:
            default = alpha(E, tol=0.05)
            assert default.certified, E
            used = default.work.inner_evals
            cases = [({}, default)]
            for budget in (used // 2, rng.randint(1, used - 1)):
                cases.append(({"budget": budget}, alpha(E, tol=0.05, budget=budget)))
                assert cases[-1][1].work.stop_reason == "budget"
            for kw, want in cases:
                self.assert_same_at_every_block_size(
                    monkeypatch, lambda: alpha(E, tol=0.05, **kw), want)

    @staticmethod
    def reference(E, angles, budget):
        """(lower, upper, theta, selection) of one target from the loops of
        `oracles`: one `min_error_circle_loop` in Z, else one per selection."""
        orders = E.group.torsion_orders
        slopes = np.array([c.free_coords[0] for c in E])
        if not orders:
            theta, lower, upper = oracles.min_error_circle_loop(slopes, angles, budget)
            return lower, upper, theta, ()
        tau = np.array([[TWO_PI * t / m for t, m in zip(c.torsion_coords, orders)] for c in E])
        return oracles.circle_selections_loop(slopes, tau, angles,
                                              itertools.product(*map(range, orders)), budget)

    @pytest.mark.parametrize("orders", [(), (2, 2, 2), (12,), (3, 4), (2,) * 12])
    def test_blocks_match_one_target_at_a_time(self, orders):
        g = GroupSpec(1, orders)
        rng = random.Random(409)
        bits = lambda xs: np.array(xs, dtype=np.float64).view(np.int64).tolist()
        # a Z x Z2^12 target passes CIRCLE_BLOCK alone: blocks of its selections
        wide = len(orders) == 12
        for _ in range(1 if wide else 12):
            E = self.random_rank1_set(rng, g)
            data = engine._SetData(E)
            cost = data.selection_count * engine._block_targets(data)[1]
            assert (cost > _minimax.CIRCLE_BLOCK) == wide
            margin = rng.choice([None, 0.1, 0.4]) if not orders else None
            n = rng.choice((3, 4, 5, 8))
            targets = 2 if wide else rng.randint(1, 6)
            run = np.array([[rng.randrange(n) for _ in E] for _ in range(targets)])
            angles = run * (TWO_PI / n)
            ref = Budget(10**9)
            solved = solutions(data, engine._solve_rows(data, angles, n, run, 10**9, margin))
            want = [self.reference(E, a, ref) for a in angles]
            assert [charge for _, charge in solved] == [cost] * len(run)
            assert ref.used == len(run) * cost
            got = [solution for solution, _ in solved]
            slack = _minimax.circle_slack(data.line)
            for a, (lo, up, point, exact, lifts), (ref_lo, ref_up, theta, sel) in zip(
                    angles, got, want):
                # the sieve's bracket holds the reference's value, its upper
                # end within the slack, attained at its point
                assert lo <= ref_up + 1e-12 and ref_up - 1e-12 <= up <= ref_up + slack, (E, run)
                attained = approx_error(E, TargetMap.from_angles(E, a), point)
                assert attained == pytest.approx(up, abs=1e-12) and exact is None
                # and are a one-target solve's, bit for bit
                one = oracles.solve_target(data, a, None, Budget(10**9), margin)
                one_point = one.witness(data, None, 0)[0]
                assert bits([lo, up, *point.torus_angles]) == bits(
                    [one.lower[0], one.upper[0], *one_point.torus_angles]), (E, run)
                assert point == one_point
                # each row's lifts are those of a one-row call
                row_lifts = None if margin is None else circle_row(
                    data.line, a, lift_margin=margin)[3]
                assert (lifts is None) == (row_lifts is None)
                if lifts is not None:
                    assert np.array_equal(lifts[0], row_lifts[0])
                    assert bits(lifts[1]) == bits(row_lifts[1])
            # cut short: the targets the limit pays, then None; a scan solving
            # them in turn is charged as the loop over the rows, one row past
            # the room
            limit = rng.randrange(ref.used)
            paid = limit // cost
            short = solutions(data, engine._solve_rows(data, angles, n, run, limit, margin))
            assert [s is None for s in short] == [t >= paid for t in range(len(run))]
            assert [s[0][:4] for s in short[:paid]] == [s[:4] for s in got[:paid]]
            short, ref = Budget(limit), Budget(limit)
            with pytest.raises(BudgetExceededError):
                for a in angles:
                    oracles.solve_target(data, a, None, short, margin)
            with pytest.raises(BudgetExceededError):
                for a in angles:
                    self.reference(E, a, ref)
            assert short.used == ref.used

    def test_stale_verdicts_are_read_again(self, monkeypatch):
        # in {1,2,3,5,8} at n = 8, read as one block of 40 targets, the
        # incumbent changes inside the block: the targets a threshold sieve
        # left unsolved are sieved again under the next threshold, and many
        # are solved then; the decisions are the reference loop's
        E, n = CharacterSet.of_integers([1, 2, 3, 5, 8]), 8
        data = engine._set_data(E)
        targets = grid_targets(E, n)[:40]

        def scan(decide):
            state = engine._Scan(data, 1e-3, Budget(10**9))
            rows = np.array(targets)
            status = decide(state, n, iter([engine._Targets.empty(data, len(rows), n, rows)]),
                            grid_cap(n))
            return status, state.stats, state.budget.used, state.best

        verdicts = collections.defaultdict(list)
        solve_rows = engine._solve_rows

        def spy(data, angles, order, rows, limit, lift_margin=None, cap=None):
            out = solve_rows(data, angles, order, rows, limit, lift_margin, cap)
            for row, lower in zip(map(tuple, rows.tolist()), out.lower.tolist()):
                verdicts[row].append((cap, not math.isnan(lower)))
            return out

        reference = scan(oracles.scan_targets_loop)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_solve_rows", spy)
            got = scan(engine._scan_targets)
        again = [v for v in verdicts.values() if len(v) > 1]
        # read again under a higher threshold, and solved there
        stale = [v for v in again if len({cap for cap, _ in v}) > 1]
        reopened = [v for v in again if not v[0][1] and any(ok for _, ok in v[1:])]
        assert len(stale) > 10 and len(reopened) > 10, (len(stale), len(reopened))
        assert got == reference

    @pytest.mark.parametrize("solve, lifted", [
        (lambda: alpha_n(CharacterSet.of_integers([1, 4, 12, 38, 154]), 8), False),
        (lambda: alpha_n(parse_set_spec(
            "Z x Z2^3 : [3,0,0,0],[3,0,0,1],[6,1,0,0],[6,1,1,0],[8,1,1,0]")[1], 5), False),
        (lambda: alpha(CharacterSet.of_integers([-6, 1, 3])), True),
        (lambda: alpha_n(parse_set_spec("Z^2 : [1,0],[0,1],[1,2],[2,-1]")[1], 5), False),
        (lambda: alpha_n(parse_set_spec(
            "Z^2 x Z2 : [1,0,0],[0,1,1],[1,1,1],[2,-1,0]")[1], 6), False),
    ], ids=["lacunary Z", "Z x Z2^3", "lifted Z", "Z^2", "Z^2 x Z2"])
    def test_scan_blocks_stay_within_the_element_bound(self, monkeypatch, solve, lifted):
        sizes = []

        # the sieve takes exactly three arguments by position (the cap
        # third), as tracing hooks that bind them need, and lift_margin by
        # keyword; the sieve's elements are its target angles (it bounds its
        # own temporaries), the vertex kernel's its candidates times
        # characters
        def spy_on(kernel):
            def spy(free, psi, *args, **kw):
                assert len(args) == (free.ndim == 1)
                cost = psi.shape[1] if free.ndim == 1 else row_cost(free)
                sizes.append((len(psi), len(psi) * cost, kw.get("lift_margin") is not None))
                return kernel(free, psi, *args, **kw)
            return spy

        for name in ("min_error_circle", "min_error_box"):
            monkeypatch.setattr(engine, name, spy_on(getattr(engine, name)))
        assert solve().certified
        assert max(elements for _, elements, _ in sizes) <= _minimax.CIRCLE_BLOCK
        assert max(rows for rows, _, kept in sizes if kept == lifted) > 1


class TestDecisionPass:
    """One array pass decides every block of a scan, solved or lifted, as
    the reference loop (`oracles.scan_targets_loop`) decides its targets
    one at a time."""

    @staticmethod
    def split(rng, block):
        """A block cut into up to four random runs, in order, each target
        with its solution, top and lifts."""
        k = len(block.rows)
        cuts = sorted(rng.sample(range(1, k), rng.randint(0, min(3, k - 1))))
        for start, stop in zip([0] + cuts, cuts + [k]):
            mine = (block.owner >= start) & (block.owner < stop)
            yield dataclasses.replace(
                block, owner=block.owner[mine] - start, nu=block.nu[mine],
                vals=block.vals[mine], top=None if block.top is None else block.top[start:stop],
                **{name: getattr(block, name)[start:stop]
                   for name in ("rows", "lower", "upper", "cost", "theta", "sel", "exact")})

    def test_scans_match_the_reference_loop(self, monkeypatch):
        rng = random.Random(1601)
        blocks = engine._blocks
        read = []

        def random_runs(data, n, items):
            # random block partitions; counts the targets of the blocks
            # before the last one the scan takes
            read.clear()
            for block in blocks(data, n, items):
                for part in self.split(rng, block):
                    read.append(len(part.rows))
                    yield part

        groups = [GroupSpec(1), GroupSpec(1, (2,)), GroupSpec(2), GroupSpec(0, (12,)),
                  GroupSpec(0, (2, 2, 2))]
        cases = []
        for g in groups:
            for _ in range(3):
                E = random_group_set(rng, g)
                cases.append((partial(alpha_n, E, rng.choice((3, 4, 5, 8)), tol=1e-2), True))
        for elements in ([1, 3], [-4, 3], [-3, 1, 4]):
            cases.append((partial(alpha, CharacterSet.of_integers(elements), tol=0.05), False))
        # threshold passes whose incumbent changes inside a block of hundreds
        sieved = [partial(alpha_n, CharacterSet.of_integers([1, 4, 12, 38, 154]), 5),
                  partial(alpha_n, parse_set_spec(
                      "Z x Z2^3 : [1,0,1,0],[2,1,0,0],[4,1,1,1],[7,0,0,1]")[1], 4)]
        cases += [(solve, True) for solve in sieved]
        inside = stops = sieve_inside = 0
        for solve, grid in cases:
            used = solve().work.inner_evals
            for budget in [used] + [rng.randint(1, used - 1) for _ in range(3)]:
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "_scan_targets", oracles.scan_targets_loop)
                    want = solve(budget=budget)
                with monkeypatch.context() as patch:
                    TestScanBlocks.blocks_of(patch, rng.randint(1, 20))
                    # blocks of a set the sieve solves from 1 to TABLE_BLOCK targets
                    patch.setattr(engine, "SIEVE_RUN",
                                  rng.choice([1, 7, 64, engine.SIEVE_RUN, engine.TABLE_BLOCK]))
                    patch.setattr(engine, "_blocks", random_runs)
                    got = solve(budget=budget)
                assert got == want, (solve, budget)
                if grid and got.work.stop_reason == "budget":
                    decided = got.work.targets_enumerated + got.work.targets_pruned
                    stops += 1
                    inside += sum(read[:-1]) < decided and read[-1] > 1
                    sieve_inside += (solve in sieved and sum(read[:-1]) < decided
                                     and read[-1] > 1)
        assert stops >= 20 and inside >= 5 and sieve_inside >= 2, (stops, inside, sieve_inside)

    def test_targets_solved_ahead_are_not_solved_again(self, monkeypatch):
        # a block whose targets carry their solutions is decided, and
        # charged, as the loop that solves each target decides it, with no
        # solve call; every target beats the incumbent, and none is pruned
        E, n = parse_set_spec("Z12 : [1],[5]")[1], 8
        data = engine._set_data(E)
        rows = np.array([(1, 2), (3, 7), (5, 4)])
        block = engine._solve_rows(data, rows * (TWO_PI / n), n, rows, 10**9)
        assert (block.lower > 0.0).all()

        def scan(decide):
            state = engine._Scan(data, 1e-3, Budget(10**9))
            state.best = engine._Incumbent(0.0, n, (0, 0), E.group.identity_point(), None)
            out = decide(state, n, iter([block]), math.pi, 0.01, 4.0, [], None)
            return out, state.best, state.stats, state.budget.used

        want = scan(oracles.scan_targets_loop)
        monkeypatch.setattr(engine, "_solve_rows", lambda *args: pytest.fail("solved again"))
        got = scan(engine._scan_targets)
        assert got == want
        assert got[2].targets_pruned == 0 and got[1].lower == block.lower.max()

    @staticmethod
    def sieved_block(monkeypatch, data, n, rows, prior, cap, slack=0.0, limit=10**12,
                     lift_margin=None):
        """`_scan_targets` on one unsolved block of index rows, from an
        incumbent of lower end `prior`, checked against the reference loop:
        (status, stats, budget used, incumbent, kernel solves, passes)."""
        radius = 0.0 if lift_margin is None else math.pi / n
        solves = []
        solve_rows = engine._solve_rows

        def spy(data, angles, n, rows, *args):
            solves.append(len(rows))
            return solve_rows(data, angles, n, rows, *args)

        def scan(decide):
            state = engine._Scan(data, 1e-3, Budget(limit))
            state.best = engine._Incumbent(prior, n, (0,) * data.m,
                                           data.chars.group.identity_point(), None)
            opened = []
            block = engine._Targets.empty(data, len(rows), n, rows)
            out = decide(state, n, iter([block]), cap, radius, slack, opened, lift_margin)
            cells = engine._Cells.gather(opened, data.m)
            return (out, state.stats, state.budget.used, state.best, cells.rows.tolist(),
                    cells.top.tolist()), state.passes

        want, _ = scan(oracles.scan_targets_loop)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_solve_rows", spy)
            got, passes = scan(engine._scan_targets)
        assert got == want
        return got[0][2], got[1], got[2], got[3], solves, passes

    @staticmethod
    def values(data, n, rows):
        """Exact lower ends of the order-n targets at index rows."""
        return engine._solve_rows(data, rows * (TWO_PI / n), n, rows, 10**12).lower

    @staticmethod
    def pick(data, n, want):
        """Canonical order-n targets whose lower ends are nearest each value
        of `want`, in that order, and their lower ends."""
        rows = np.concatenate(list(engine._grid_targets(engine._shift_basis(data, n), n)))
        lower = TestDecisionPass.values(data, n, rows)
        at = [int(np.abs(lower - v).argmin()) for v in want]
        return rows[at], lower[at]

    def test_one_pass_decides_several_raisers_under_one_sieve(self, monkeypatch):
        # from an incumbent of 0.5 the threshold sieve reaches past every
        # value of the block: its six raisers are solved by one sieve call
        # and decided in one pass, with the loop's decisions and charges
        E, n = CharacterSet.of_integers([1, 4, 12, 38, 154]), 8
        data = engine._set_data(E)
        rows, lower = self.pick(data, n, [0.3, 0.6, 0.4, 0.7, 0.2, 0.8, 0.9, 0.5, 1.0, 0.6,
                                          1.05, 0.1])
        raises = int((np.diff(np.maximum.accumulate(np.r_[0.5, lower])) > 0).sum())
        status, stats, used, best, solves, passes = self.sieved_block(
            monkeypatch, data, n, rows, 0.5, grid_cap(n))
        assert raises >= 5 and (status, solves, passes) == ("done", [len(rows)], 1)
        assert best.lower == lower.max() and stats.targets_enumerated == raises
        # from 0, targets left above the cap end passes and are sieved again
        status, _, _, _, solves, passes = self.sieved_block(
            monkeypatch, data, n, rows, 0.0, grid_cap(n))
        assert status == "done" and len(solves) == passes > 1

    def test_a_raiser_inside_the_slack_is_solved_once(self, monkeypatch):
        # alpha's cells close within a slack of the incumbent: a target
        # whose lower end beats the incumbent by less than the slack is
        # solved under its threshold, charged once, and raises the incumbent
        E, n, slack = CharacterSet.of_integers([-3, 1, 4]), 8, 0.05
        data = engine._set_data(E)
        rows, lower = self.pick(data, n, [0.3, 0.9, 0.5, 1.0, 0.2, 0.95])
        prior = float(lower[1]) - slack / 2
        assert prior < lower[1] <= prior + slack and lower[3] > prior + slack
        unit = data.selection_count * engine._block_targets(data)[1]
        status, stats, used, best, _, passes = self.sieved_block(
            monkeypatch, data, n, rows, prior, grid_cap(n), slack,
            lift_margin=engine._lift_margin(data, n))
        assert status == "done" and best.lower == lower.max() and passes == 1
        # one sieve a target, a second for each past its threshold (target
        # 3, not target 1), and the cells' certificates
        before = np.maximum.accumulate(np.r_[prior, lower[:-1]])
        assert (lower > before + slack).tolist() == [False] * 3 + [True] + [False] * 2
        assert used > (len(rows) + 1) * unit and stats.targets_enumerated >= 2

    def test_budget_stops_and_cap_exits_inside_a_pass(self, monkeypatch):
        # every budget stop in a block with raisers before and after it, and
        # cap exits at a raiser in the middle of the block
        E, n = CharacterSet.of_integers([1, 4, 12, 38, 154]), 8
        data = engine._set_data(E)
        rows, lower = self.pick(data, n, [0.6, 0.3, 0.7, 0.2, 0.8, 0.4, 0.9, 0.5, 1.0, 0.1])
        unit = data.selection_count * engine._block_targets(data)[1]
        between = 0
        for limit in [unit * t + unit // 2 for t in range(len(rows) + 1)]:
            status, stats, used, best, _, _ = self.sieved_block(
                monkeypatch, data, n, rows, 0.5, grid_cap(n), limit=limit)
            decided = stats.targets_enumerated + stats.targets_pruned
            # stopped after a raise, with a raiser still ahead
            between += (status == "budget" and best.lower > 0.5
                        and lower[decided:].max() > best.lower)
        assert between >= 3, between
        for j in (4, 6):
            status, stats, _, best, _, passes = self.sieved_block(
                monkeypatch, data, n, rows, 0.5, float(lower[j]) + 5e-4)
            assert (status, best.lower, passes) == ("capped", lower[j], 1)
            assert stats.targets_enumerated + stats.targets_pruned == j + 1
        # an incumbent at the cap already exits at the first target decided
        status, stats, _, _, _, _ = self.sieved_block(monkeypatch, data, n, rows[1:], 0.5, 0.5)
        assert status == "capped" and stats.targets_enumerated + stats.targets_pruned == 1

    def test_a_lacunary_scan_takes_few_passes_and_sieve_calls(self, monkeypatch):
        # 2,056 targets in blocks of SIEVE_RUN, each sieved at once in calls
        # of SIEVE_CALL targets; passes ended at every change of incumbent
        # before (29 passes, 21 sieve calls).  A purely torsion set's block
        # is solved whole and decided in one pass
        scans, calls = [], []
        scan_targets, circle = engine._scan_targets, engine.min_error_circle

        def spy(scan, *args):
            scans.append(scan)
            return scan_targets(scan, *args)

        monkeypatch.setattr(engine, "_scan_targets", spy)
        monkeypatch.setattr(engine, "min_error_circle",
                            lambda *args, **kw: calls.append(len(args[1])) or circle(*args, **kw))
        res = alpha_n(CharacterSet.of_integers([1, 4, 12, 38, 154]), 8)
        assert (res.work.targets_enumerated, res.work.targets_pruned) == (20, 2036)
        assert (len(calls), scans[0].passes) == (11, 4)
        assert max(calls) == engine.SIEVE_CALL
        scans.clear()
        res = alpha_n(parse_set_spec("Z13 : [1],[3],[5],[9]")[1], 5)
        assert res.work.targets_enumerated == 313 and scans[0].passes == 1

    @pytest.mark.parametrize("solve", [
        lambda: alpha_n(CharacterSet.of_integers([1, 4, 12, 38, 154]), 8),
        lambda: alpha_n(parse_set_spec(
            "Z x Z2^3 : [3,0,0,0],[3,0,0,1],[6,1,0,0],[6,1,1,0],[8,1,1,0]")[1], 5),
        lambda: alpha_n(parse_set_spec("Z13 : [1],[3],[5],[9]")[1], 5),
        lambda: alpha(CharacterSet.of_integers([-3, 1, 4]), tol=0.05),
    ], ids=["Z", "Z x Z2^3", "Z13", "lifted Z"])
    def test_witnesses_are_built_only_for_incumbents(self, monkeypatch, solve):
        points, raised = [], []
        dual_point, incumbent = engine.DualPoint, engine._Incumbent

        def counted(*args):
            points.append(dual_point(*args))
            return points[-1]

        def spy(*args):
            raised.append(incumbent(*args))
            return raised[-1]

        monkeypatch.setattr(engine, "DualPoint", counted)
        monkeypatch.setattr(engine, "_Incumbent", spy)
        res = solve()
        # one dual point per change of incumbent, not one per solved target;
        # on a set the sieve solves, the targets its threshold sieve closes
        # are solved too, and count as pruned
        assert points == [best.point for best in raised]
        solved = res.work.targets_enumerated + (
            res.work.targets_pruned if engine._set_data(res.chars).line is not None else 0)
        assert solved > 5 * len(raised)


class TestProbeWindow:
    """Pruning is sound: the threshold sieves, the only rule that closes a
    target unsolved, keep every target that could raise the incumbent.
    (The class keeps the name of the probe window it tested before, so
    that its test ids stay stable.)"""

    @staticmethod
    def exhaustive(E, n):
        """(least, largest) bound on the roots-grid constant of E at order
        n from the oracles, over every target of the grid."""
        g, m = E.group, len(E)
        tau = np.array([[TWO_PI * t / o for t, o in zip(c.torsion_coords, g.torsion_orders)]
                        for c in E]).reshape(m, -1)
        free = [c.free_coords for c in E]
        least = largest = 0.0
        for idx in itertools.product(range(n), repeat=m):
            angles = np.array(idx) * (TWO_PI / n)
            if not g.free_rank:
                turns, _ = oracles.best_point_torsion_exhaustive(
                    g.torsion_orders, [c.torsion_coords for c in E], [Fraction(j, n) for j in idx])
                lo = hi = TWO_PI * float(turns)
            elif g.free_rank == 2:
                hi, slack = oracles.min_error_torus_slices(free, angles, 40)
                lo = hi - slack
            else:
                selections = itertools.product(*map(range, g.torsion_orders))
                lo = hi = min(oracles.min_error_breakpoints(
                    [a for a, in free], angles - tau @ np.array(sel, dtype=float))[1]
                    for sel in selections)
            least, largest = max(least, lo), max(largest, hi)
        return least, largest

    def test_pruned_targets_cannot_raise_the_incumbent(self):
        # the lower end is the largest exact value over every canonical
        # target (up to tol on a cap exit), so no target the scan pruned
        # could have raised it, and the brackets contain the exhaustive values
        rng = random.Random(1803)
        cases = [(random_group_set(rng, g), n) for g in (GroupSpec(1), GroupSpec(1, (2,)),
                                                          GroupSpec(0, (12,)))
                 for n in (3, 4, 5, 6) for _ in range(2)]
        cases += [(random_group_set(rng, GroupSpec(2)), n) for n in (3, 4)]
        cases += [(CharacterSet.of_integers([1, 2, 3, 5, 8]), 8)]
        pruned = 0
        for E, n in cases:
            res = alpha_n(E, n)
            data = engine._set_data(E)
            rows = np.concatenate(list(engine._grid_targets(engine._shift_basis(data, n), n)))
            best = engine._solve_rows(data, rows * (TWO_PI / n), n, rows, 10**12).lower.max()
            tol = engine.DEFAULT_TOL if res.work.stop_reason == "capped" else 0.0
            assert best - tol <= res.alpha.lower <= best, (E, n, res.alpha, best)
            pruned += res.work.targets_pruned
            if len(E) <= 3:
                least, largest = self.exhaustive(E, n)
                assert res.alpha.lower <= largest + 1e-9 and least - 1e-9 <= res.alpha.upper, (
                    E, n, res.alpha, least, largest)
        assert pruned > 200, pruned

    def test_threshold_sieves_solve_exactly_or_leave_targets_above(self, monkeypatch):
        # every target a threshold sieve solves gets its uncapped solution,
        # bit for bit, and every one it leaves unsolved lies above its cap,
        # on sets in Z, Z x Z2^k and collinear Z^2; the brackets contain the
        # exhaustive values
        rng = random.Random(1807)
        solve_rows = engine._solve_rows
        calls = []

        def spy(data, angles, n, rows, limit, lift_margin=None, cap=None):
            out = solve_rows(data, angles, n, rows, limit, lift_margin, cap)
            if cap is not None:
                calls.append((data, angles, n, rows, cap, out))
            return out

        monkeypatch.setattr(engine, "_solve_rows", spy)
        cases = [(random_group_set(rng, g), n) for g in (GroupSpec(1), GroupSpec(1, (2,)))
                 for n in (3, 4, 5, 6) for _ in range(2)]
        cases += [(parse_set_spec("Z^2 : [1,-2],[-2,4],[3,-6]")[1], 6),
                  (CharacterSet.of_integers([3, 16, 48, 240, 1200]), 5)]
        solved = unsolved = 0
        for E, n in cases:
            calls.clear()
            res = alpha_n(E, n)
            for data, angles, order, rows, cap, out in calls:
                fresh = solve_rows(data, angles, order, rows, 10**12)
                got = ~np.isnan(out.lower) & (out.cost > 0)
                for name in ("lower", "upper", "theta", "sel"):
                    assert bits(getattr(out, name)[got]) == bits(getattr(fresh, name)[got])
                missed = np.isnan(out.lower) & (out.cost > 0)
                assert (fresh.lower[missed] > cap).all(), (E, n, cap)
                solved, unsolved = solved + got.sum(), unsolved + missed.sum()
            if len(E) <= 3:
                least, largest = self.exhaustive(E, n)
                assert res.alpha.lower <= largest + 1e-9 and least - 1e-9 <= res.alpha.upper, (
                    E, n, res.alpha, least, largest)
        assert solved > 200 and unsolved > 20, (solved, unsolved)

    def test_threshold_passes_stop_where_the_loop_stops(self, monkeypatch):
        # budgets that stop a lacunary scan in its first threshold pass, after
        # a change of incumbent and late: the reference loop's charges
        E, n = CharacterSet.of_integers([3, 16, 48, 240, 1200]), 5
        data = engine._set_data(E)
        solve = data.selection_count * engine._block_targets(data)[1]
        stops = 0
        for budget in (solve + 7, 3 * solve + 1, 40 * solve + solve // 2, 200 * solve):
            got = alpha_n(E, n, budget=budget)
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_scan_targets", oracles.scan_targets_loop)
                assert alpha_n(E, n, budget=budget) == got
            stops += got.work.stop_reason == "budget"
        assert stops == 4


class TestWorkCounters:
    """`work` blocks of fixed computations: targets enumerated and pruned,
    inner evaluations, stop reason and ladder."""

    # the cells of order 8 close by their certified maxima
    LADDER = ((2, 2.617993877991495), (4, 1.8325957145940466), (8, 1.0471975512325988))

    @pytest.mark.parametrize("solve, work", [
        (lambda: alpha_n(CharacterSet.of_integers([1, 4, 12, 38, 154]), 8),
         (20, 2036, 8683875, "done", ())),
        (lambda: alpha_n(parse_set_spec(
            "Z x Z2^3 : [3,0,0,0],[3,0,0,1],[6,1,0,0],[6,1,1,0],[8,1,1,0]")[1], 5),
         (21, 292, 1344000, "done", ())),
        (lambda: alpha_n(parse_set_spec("Z^2 : [1,0],[0,1],[1,2],[2,-1]")[1], 5),
         (13, 0, 3824, "done", ())),
        (lambda: alpha_n(parse_set_spec("Z13 : [1],[3],[5],[9]")[1], 5),
         (313, 0, 16228, "done", ())),
        (lambda: alpha(CharacterSet.of_integers([-6, 1, 3])),
         (10, 31, 10026, "done",
          tuple((n, 1.0471975511905975, upper, True) for n, upper in LADDER))),
        (lambda: alpha_n(CharacterSet.of_integers([1, 2, 3, 5, 8]), 8, budget=60_000),
         (9, 138, 60060, "budget", ())),
        # the threshold sieves close most of the targets
        (lambda: alpha_n(CharacterSet.of_integers([3, 16, 48, 240, 1200]), 5),
         (17, 296, 9736835, "done", ())),
    ], ids=["lacunary Z", "Z x Z2^3", "Z^2", "Z13", "lifted Z", "budget stop",
            "lacunary Z above the cutover"])
    def test_work_is_pinned(self, solve, work):
        w = solve().work
        assert (w.targets_enumerated, w.targets_pruned, w.inner_evals, w.stop_reason,
                w.ladder) == work


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

    def test_budget_flag(self):
        res = alpha(CharacterSet.of_integers([1, 2, 3]), budget=2000)
        assert not res.certified

    @pytest.mark.parametrize("elements, kw", [
        ([-3, -1, 6], {"tol": 1e-2}),
        ([1, 4, 16, 64, 256], {"tol": 1e-3, "budget": 3 * 10**6}),
    ], ids=["-3,-1,6 by full solves", "Hadamard q=4"])
    def test_closed_top_is_the_largest_own_bound_of_the_closed_cells(self, monkeypatch,
                                                                     elements, kw):
        # every closed cell's bound is its own (value + radius): each
        # level's largest closed bound, and the alpha it gives, are the
        # reference loop's, which bounds closed cells by their own tops
        monkeypatch.setattr(engine, "LIFT_MAX_SIZE", 0)
        E = CharacterSet.of_integers(elements)

        def run(decide):
            closed = []

            def spy(*args):
                out = decide(*args)
                closed.append(out[0])
                return out

            with monkeypatch.context() as patch:
                patch.setattr(engine, "_scan_targets", spy)
                return alpha(E, **kw), closed

        got, closed = run(engine._scan_targets)
        want, ref_closed = run(oracles.scan_targets_loop)
        assert got == want and closed == ref_closed
        assert len(closed) >= 3 and max(closed) > 0.0

    def test_kappa_variants_order_preserved(self):
        res = alpha(CharacterSet.of_integers([1, 2]))
        lo, hi = res.kappa
        assert lo <= hi
        assert lo == pytest.approx(2 * math.sin(res.alpha.lower / 2), abs=1e-15)
        assert hi == pytest.approx(2 * math.sin(res.alpha.upper / 2), abs=1e-15)


class TestModTwoPi:
    """`_minimax._mod_2pi` against np.mod, bit for bit (compared as int64)."""

    @staticmethod
    def assert_same(y):
        with np.errstate(invalid="ignore"):
            want, got = np.mod(y, TWO_PI), _minimax._mod_2pi(y)
        diff = got.view(np.int64) != want.view(np.int64)
        assert not diff.any(), (y[diff][:4], got[diff][:4], want[diff][:4])

    @staticmethod
    def finite_cases(rng):
        """Arrays past the cut-over and within |q| < MOD_QMAX, which
        `_mod_2pi` reduces itself."""
        k = np.concatenate([np.arange(-2048, 2048),
                            rng.integers(1 - 2**23, 2**23, 1 << 14)]).astype(np.float64)
        multiples = [k * TWO_PI]
        for direction in (np.inf, -np.inf):
            near = multiples[0]
            for _ in range(2):  # one and two ulps away
                near = np.nextafter(near, direction)
                multiples.append(near)
        n = np.repeat(np.arange(1, 65), 129)
        j = np.tile(np.arange(-64, 65), 64)
        bound = _minimax.MOD_QMAX * TWO_PI
        below = np.nextafter(np.full(4, bound), 0.0)
        below[2:] = -below[2:]
        return {
            "multiples": np.concatenate(multiples),
            "grid": TWO_PI * j / n,
            "uniform": rng.uniform(-100.0, 100.0, 1 << 14),
            "one turn below zero": rng.uniform(-TWO_PI, 0.0, 1 << 14),
            "signed zeros and tiny": np.concatenate(
                [[0.0, -0.0, 5e-324, -5e-324, -1e-300, 1e-300, -1e-17], rng.uniform(-9, 9, 4096)]),
            "below the bound": np.concatenate([below, rng.uniform(-bound, bound, 4096)]),
        }

    def test_fast_path_matches_np_mod(self):
        for name, y in self.finite_cases(np.random.default_rng(19)).items():
            assert y.size >= _minimax.MOD_CUTOVER, name
            self.assert_same(y)
            rng = np.random.default_rng(23)
            rng.shuffle(y)
            for part in np.array_split(y, max(1, y.size // _minimax.MOD_CUTOVER)):
                self.assert_same(part)

    @pytest.mark.parametrize("extra", [[np.inf], [-np.inf], [np.nan],
                                       [_minimax.MOD_QMAX * TWO_PI], [-1e300, 1e300]])
    def test_whole_array_fallback_matches_np_mod(self, extra):
        y = np.concatenate([extra, np.random.default_rng(29).uniform(-50, 50, 4096)])
        self.assert_same(y)

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1])
    def test_sizes_around_the_cut_over(self, offset):
        size = _minimax.MOD_CUTOVER + offset
        y = np.random.default_rng(31).uniform(-20, 20, size)
        y[:7] = [0.0, -0.0, -5e-324, -1e-300, -TWO_PI, TWO_PI, np.nextafter(-TWO_PI, 0)]
        self.assert_same(y)


class TestCircleKernel:
    """The rank-1 sieve, alone and over blocks of selections, against the
    per-selection reference loop: values within the sieve's slack, points
    attaining them, and the same budget charges."""

    GROUPS = ((2, 2, 2), (12,), (3, 4))

    @staticmethod
    def random_slopes(rng):
        return np.array([rng.choice([0, rng.randint(-7, 7)]) for _ in range(rng.randint(1, 5))])

    @staticmethod
    def random_angles(rng, m):
        # grid targets make ties among candidates, uniform ones do not
        if rng.random() < 0.5:
            n = rng.choice([2, 3, 4, 6])
            return np.array([TWO_PI * rng.randrange(n) / n for _ in range(m)])
        return np.array([rng.uniform(0, TWO_PI) for _ in range(m)])

    @staticmethod
    def assert_breakpoint_value(slopes, psi, upper):
        """upper is within the sieve's slack of the minimum over every tent
        kink and crossing."""
        slack = _minimax.circle_slack(np.asarray(slopes))
        assert abs(upper - oracles.min_error_breakpoints(slopes, psi)[1]) <= slack, (slopes, psi)

    @staticmethod
    def assert_row(slopes, psi, row, ref):
        """A sieved row (theta, lower, upper) holds the reference loop's
        value (lower <= it, upper within the slack of it, upper attained at
        theta)."""
        slack = _minimax.circle_slack(np.asarray(slopes))
        theta, lower, upper = row[:3]
        assert lower <= ref[2] + 1e-12 and ref[2] - 1e-12 <= upper <= ref[2] + slack, (slopes, psi)
        at = oracles.circle_objective_loop(slopes, psi, np.array([theta]))[0]
        assert at == pytest.approx(upper, abs=1e-12), (slopes, psi)

    def test_one_row_matches_the_reference(self):
        rng = random.Random(307)
        for _ in range(300):
            slopes = self.random_slopes(rng)
            psi = self.random_angles(rng, len(slopes))
            want = Budget(10**9)
            row = circle_row(slopes, psi)
            self.assert_row(slopes, psi, row, oracles.min_error_circle_loop(slopes, psi, want))
            # the reference loop's charge is the unit the engine pays a row
            assert want.used == _minimax.circle_unit(slopes.tolist())
            self.assert_breakpoint_value(slopes, psi, row[2])

    @pytest.mark.parametrize("block", [None, 1])
    def test_selection_blocks_match_the_reference_loop(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(_minimax, "TABLE_BLOCK", block)
            monkeypatch.setattr(engine, "TABLE_BLOCK", block)
        rng = random.Random(311)
        for orders in self.GROUPS:
            g = GroupSpec(1, orders)
            for _ in range(25):
                slopes = self.random_slopes(rng)
                coords = {(int(a), *(rng.randrange(m) for m in orders)): None for a in slopes}
                E = CharacterSet(g, tuple(Character(g, c[:1], c[1:]) for c in coords))
                self.check_selections(rng, E, self.random_angles(rng, len(E)))

    @staticmethod
    def check_selections(rng, E, angles):
        """A one-target solve (`oracles.solve_target`) on free rank 1 plus
        torsion against the loop over selections: brackets, witness and
        charges, in full and cut short."""
        orders = E.group.torsion_orders
        slopes = np.array([c.free_coords[0] for c in E])
        tau = np.array([[TWO_PI * t / m for t, m in zip(c.torsion_coords, orders)] for c in E])
        data = engine._SetData(E)

        def reference(budget):
            return oracles.circle_selections_loop(
                slopes, tau, angles, itertools.product(*map(range, orders)), budget)

        full, ref = Budget(10**9), Budget(10**9)
        one = oracles.solve_target(data, angles, None, full)
        lower, upper, point = one.lower[0], one.upper[0], one.witness(data, None, 0)[0]
        ref_lower, ref_upper, theta, sel = reference(ref)
        slack = _minimax.circle_slack(slopes)
        assert lower <= ref_upper + 1e-12 and ref_upper - 1e-12 <= upper <= ref_upper + slack, (
            E, angles)
        attained = approx_error(E, TargetMap.from_angles(E, angles), point)
        assert attained == pytest.approx(upper, abs=1e-12), (E, angles)
        assert full.used == ref.used
        # the blocked selections give, bit for bit, the least of one-row
        # sieves, one per selection (the first least upper end's point)
        rows = [circle_row(slopes, psi)
                for psi in angles - data.shift_rows(0, data.selection_count)]
        best = min(range(len(rows)), key=lambda s: rows[s][2])
        assert bits([lower, upper, *point.torus_angles]) == bits(
            [min(row[1] for row in rows), rows[best][2], rows[best][0]]), (E, angles)
        limit = rng.randrange(full.used)
        short, ref = Budget(limit), Budget(limit)
        with pytest.raises(BudgetExceededError):
            oracles.solve_target(data, angles, None, short)
        with pytest.raises(BudgetExceededError):
            reference(ref)
        assert short.used == ref.used

    # rows of thousands of candidates: candidates and residuals take
    # _mod_2pi's own reduction, and the characters go in several blocks
    LACUNARY = ((3, 16, 48, 240, 1200), (1, 5, 20, 101, 507), (-3, 16, 0, -240, 1200))

    @pytest.mark.parametrize("slopes", LACUNARY)
    def test_lacunary_rows_match_the_reference(self, slopes):
        slopes = np.array(slopes)
        assert row_cost(slopes[:, None]) // len(slopes) >= _minimax.MOD_CUTOVER
        rng = random.Random(313)
        margin = 0.05
        for _ in range(6):
            psi = self.random_angles(rng, len(slopes))
            want = Budget(10**9)
            theta, lower, upper, lifts = circle_row(slopes, psi, lift_margin=margin)
            self.assert_row(slopes, psi, (theta, lower, upper),
                            oracles.min_error_circle_loop(slopes, psi, want))
            assert want.used == _minimax.circle_unit(slopes.tolist())
            assert circle_row(slopes, psi) == (theta, lower, upper)
            self.assert_breakpoint_value(slopes, psi, upper)
            # the lift classes of the brute-force oracle, those within 1e-9
            # of the cut either way
            cut = upper + margin
            assert (lifts is None) == (cut >= math.pi - _minimax.LIFT_EPS)
            if lifts is not None:
                found = dict(zip(map(tuple, lifts[0].tolist()), lifts[1].tolist()))
                inner = oracles.lifts_within(slopes, psi, cut - 1e-9)
                outer = oracles.lifts_within(slopes, psi, cut + _minimax.LIFT_EPS + 1e-9)
                assert set(inner) <= set(found) <= set(outer)
                assert all(abs(found[c] - outer[c]) <= 1e-9 for c in found)

    @pytest.mark.parametrize("slopes", [(3, 16, 48, 100), (11, 31, 90), (-11, 31, 0, 90)])
    def test_wide_selection_blocks_match_the_reference_loop(self, slopes):
        # 8 selections of hundreds of candidates, all in one kernel call
        g = GroupSpec(1, (2, 2, 2))
        rng = random.Random(317)
        torsion = rng.sample(list(itertools.product(range(2), repeat=3)), len(slopes))
        E = CharacterSet(g, tuple(Character(g, (a,), t) for a, t in zip(slopes, torsion)))
        assert 8 * row_cost(np.array(slopes)[:, None]) // len(slopes) >= _minimax.MOD_CUTOVER
        for _ in range(4):
            self.check_selections(rng, E, self.random_angles(rng, len(E)))

    def test_one_lacunary_row_keeps_its_temporaries_small(self):
        # whole (characters x candidates) temporaries would peak at 1.1 MB
        # here; blocks of CIRCLE_TEMP elements keep them near one row's size
        slopes, psi = np.array([3, 16, 48, 240, 1200]), np.array([0.3, 1.1, 2.0, 4.4, 5.9])
        circle_row(slopes, psi)  # the plan is cached from here on
        tracemalloc.start()
        try:
            circle_row(slopes, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 768 * 2**10

    def test_budget_is_consulted_before_a_block_is_built(self):
        # 2^20 selections of 25 candidates each: one block of all of them
        # would take about 630 MB
        g = GroupSpec(1, (2,) * 20)
        rows = [(1, [1] + [0] * 19), (2, [0, 1] + [0] * 18), (3, [1, 1] + [0] * 18)]
        E = CharacterSet(g, tuple(Character(g, (a,), u) for a, u in rows))
        tracemalloc.start()
        try:
            res = alpha_n(E, 2, budget=10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.work.stop_reason == "budget"
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("solve", [lambda E: alpha_n(E, 2, budget=10**5),
                                       lambda E: alpha(E, budget=10**5)],
                             ids=["alpha_n", "alpha"])
    @pytest.mark.parametrize("g, rows", [
        (GroupSpec(1), [(1, []), (10**9, [])]),
        (GroupSpec(1, (2,)), [(1, [1]), (-10**9, [0]), (3, [1])]),
    ], ids=["Z", "Z x Z2"])
    def test_budget_is_consulted_before_a_plan_is_built(self, solve, g, rows):
        # a slope of 10^9 gives one row about 4 x 10^9 candidates, whose
        # plan alone would take over 100 GB
        E = CharacterSet(g, tuple(Character(g, (a,), u) for a, u in rows))
        tracemalloc.start()
        try:
            res = solve(E)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.work.stop_reason == "budget"
        assert peak < 16 * 2**20

    def test_torsion_orders_beyond_int64_stop_on_the_budget(self):
        g = GroupSpec(1, (2**64,))
        rows = [(1, [1]), (2, [3]), (3, [2**63 + 5])]
        E = CharacterSet(g, tuple(Character(g, (a,), u) for a, u in rows))
        res = alpha_n(E, 2, budget=10**5)
        assert res.work.stop_reason == "budget"
        data = engine._SetData(E)
        index = 2**64 - 3
        assert data.selection(index) == (index,)

    def test_blocks_stay_within_the_element_bound(self):
        # 2^12 selections of 85 candidates each: a block of all of them would
        # hold about 10^6 elements, 8 MB per array
        g = GroupSpec(1, (2,) * 12)
        rows = [(5, [1] + [0] * 11), (7, [0, 1] + [0] * 10), (9, [1, 1] + [0] * 10)]
        E = CharacterSet(g, tuple(Character(g, (a,), u) for a, u in rows))
        tracemalloc.start()
        try:
            best_point(E, TargetMap.from_angles(E, [0.3, 1.1, 2.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTorusVertices:
    """The exact solve on free rank >= 2 against the slice oracle, on sets
    with zero rows, collinear pairs and rank-deficient matrices."""

    SLICES = {2: 128, 3: 20}

    @staticmethod
    def random_rows(rng, r, kind):
        def vec():
            return [rng.randint(-3, 3) for _ in range(r)]
        if kind == "line":
            while not any(v := vec()):
                pass
            g = math.gcd(*v)
            return [[c * a // g for a in v] for c in rng.sample([-3, -2, -1, 1, 2, 3], 3)]
        rows = [vec() for _ in range(rng.randint(2, 4))]
        if kind == "zero":
            rows.append([0] * r)
        elif kind == "collinear":
            rows.append([rng.choice([-2, -1, 2]) * a for a in rows[0]])
        elif kind == "plane":
            # rows in the span of two vectors: rank at most 2 in Z^3
            u, v = rows[:2]
            rows = [[a * x + b * y for x, y in zip(u, v)]
                    for a, b in [(1, 0), (0, 1), (1, 1), (1, -1)]]
        return rows

    @classmethod
    def random_set(cls, rng, group, kind):
        rows = cls.random_rows(rng, group.free_rank, kind)
        coords = {(*row, *(rng.randrange(m) for m in group.torsion_orders)): None
                  for row in rows}
        r = group.free_rank
        return CharacterSet(group, tuple(Character(group, c[:r], c[r:]) for c in coords))

    def test_values_match_the_slice_oracle(self):
        rng = random.Random(419)
        kinds = itertools.cycle(("random", "zero", "collinear", "line", "plane"))
        checked = set()
        for g, sets in [(GroupSpec(2), 40), (GroupSpec(3), 12), (GroupSpec(2, (2,)), 24)]:
            for _ in range(sets):
                kind = next(kinds)
                E = self.random_set(rng, g, kind)
                data = engine._SetData(E)
                angles = TestCircleKernel.random_angles(rng, len(E))
                one = oracles.solve_target(data, angles, None, Budget(10**9))
                lower, upper, point = one.lower[0], one.upper[0], one.witness(data, None, 0)[0]
                want, slack = math.inf, 0.0
                for sel in itertools.product(*map(range, g.torsion_orders)):
                    psi = angles - (oracles.torsion_args(E, sel) if data.s else 0.0)
                    value, slack = oracles.min_error_torus_slices(
                        data.free, psi, self.SLICES[g.free_rank])
                    want = min(want, value)
                # the lower end also sits the kernel's rounding slack below
                rounding = _minimax.vertex_plan(data.free_key)[7]
                assert lower >= want - slack - rounding - 1e-12, (E, angles)
                assert upper <= want + 1e-12, (E, angles)
                assert approx_error(E, TargetMap.from_angles(E, angles), point) == \
                    pytest.approx(upper, abs=1e-12), (E, angles)
                checked.add((g.free_rank, int(np.linalg.matrix_rank(data.free))))
        assert checked >= {(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}, checked

    @pytest.mark.parametrize("spec, slopes", [
        ("Z^2 : [2,-1],[-4,2],[6,-3]", [1, -2, 3]),
        ("Z^2 x Z2 : [0,3,1],[0,-1,0],[0,2,1]", [3, -1, 2]),
        ("Z^3 : [1,1,0],[3,3,0],[0,0,0],[-2,-2,0]", [1, 3, 0, -2]),
    ])
    def test_a_set_on_a_line_has_the_value_of_its_slopes(self, spec, slopes):
        _, E = parse_set_spec(spec)
        g = GroupSpec(1, E.group.torsion_orders)
        F = CharacterSet(g, tuple(Character(g, (a,), c.torsion_coords)
                                  for a, c in zip(slopes, E)))
        rng = random.Random(421)
        for _ in range(20):
            angles = TestCircleKernel.random_angles(rng, len(E))
            _, got = best_point(E, TargetMap.from_angles(E, angles))
            _, want = best_point(F, TargetMap.from_angles(F, angles))
            assert got.upper == pytest.approx(want.upper, abs=1e-12), (spec, angles)
            assert got.lower == pytest.approx(want.lower, abs=1e-12), (spec, angles)

    def test_budget_is_paid_before_the_systems_are_built(self):
        # 12 characters in Z^4 make C(24, 5) / 2 = 21252 signed subsets to
        # examine before the first target; a budget below that stops first
        _, E = parse_set_spec(Z4_SET)
        assert _minimax.subset_count(engine._set_data(E).free_key) == 21252
        for solve in (lambda: alpha_n(E, 3, budget=10_000), lambda: alpha(E, budget=10_000)):
            res = solve()
            assert res.work.stop_reason == "budget" and res.work.inner_evals == 21252
        with pytest.raises(BudgetExceededError):
            best_point(E, TargetMap.from_angles(E, [0.0] * len(E)), budget=10_000)


#: twelve characters in Z^4 with entries in [-3, 3]
Z4_SET = ("Z^4 : [-3,-2,-3,-1],[-3,-2,1,1],[-3,2,-2,0],[-1,-2,3,3],[0,-2,-2,-3],[0,-2,3,3],"
          "[0,3,-2,0],[0,3,-2,2],[1,-3,1,-2],[1,-1,2,-1],[2,1,-3,3],[3,2,3,2]")


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
            _, _, upper, lifts = circle_row(slopes, psi, lift_margin=4 * radius)
            if lifts is None:
                continue
            nu, vals = lifts
            here = line_distances(slopes, psi + TWO_PI * nu)
            assert np.allclose(here, vals, atol=1e-12)
            assert here.min() == pytest.approx(upper, abs=1e-12)
            # every target within radius has its best lift among them
            for _ in range(5):
                near = psi + np.array([rng.uniform(-radius, radius) for _ in slopes])
                _, _, want, _ = circle_row(slopes, near, lift_margin=0.0)
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
        # lifted cells are bounded by their certified maxima, full solves by
        # value + pi/n, so the lifted upper ends are lower and not equal
        rng = random.Random(227)
        sets = [CharacterSet.of_integers([-3, -1, 6]), CharacterSet.of_integers([2, 5])]
        sets += [random_int_set(rng, max_size=3, max_entry=6) for _ in range(4)]
        lifted = [alpha(E, tol=1e-2) for E in sets]
        monkeypatch.setattr(engine, "LIFT_MAX_SIZE", 0)
        for E, res in zip(sets, lifted):
            full = alpha(E, tol=1e-2)
            assert res.certified == full.certified
            assert res.alpha.lower == pytest.approx(full.alpha.lower, abs=1e-9), E
            assert res.alpha.upper <= full.alpha.upper + 1e-9, E
            assert len(res.work.ladder) <= len(full.work.ladder)
            assert res.work.inner_evals <= full.work.inner_evals, E
            slopes = [c.free_coords[0] for c in E]
            if len(E) == 2:
                value = oracles.alpha_pair_exact(*slopes)
                for bracket in (res.alpha, full.alpha):
                    assert bracket.lower - 1e-9 <= value <= bracket.upper + 1e-9, E
            else:
                # the exhaustive grid values are lower ends of alpha
                for n in (3, 4, 6):
                    value = oracles.alpha_n_exhaustive(slopes, n)[0]
                    assert value <= min(res.alpha.upper, full.alpha.upper) + 1e-9, (E, n)

    def test_hard_triple_certifies_within_half_a_million_evaluations(self):
        # the costliest three-element set with entries up to 12 and 36-44
        # circle candidates certifies at tol 1e-3 in about 1.3e4 evaluations,
        # at order 8
        res = alpha(CharacterSet.of_integers([-6, 1, 3]), tol=1e-3, budget=500_000)
        assert res.certified and res.work.stop_reason == "done"
        assert res.alpha.width <= 1e-3

    def test_lifts_are_sorted_distinct_rows_with_their_least_values(self, monkeypatch):
        # `_minimax._lift_classes` on lift vectors of three rows with
        # repeats, in and across classes, and tied values; the reference,
        # row by row: np.unique over the canonical rows, least value per
        # row.  The flat result is ordered by row, and a row whose cut
        # reaches pi - LIFT_EPS keeps none
        def unique_lifts(slopes, nu, vals, cut):
            near = vals <= cut + _minimax.LIFT_EPS
            if not near.any():
                return nu[:0], vals[:0]
            nu = nu[near]
            j0 = int(np.flatnonzero(slopes)[0])
            nu = nu - (nu[:, j0] // slopes[j0])[:, None] * slopes[None, :]
            keys, inverse = np.unique(nu, axis=0, return_inverse=True)
            best = np.full(len(keys), math.inf)
            np.minimum.at(best, inverse.ravel(), vals[near])
            return keys, best

        rng = random.Random(229)
        checked = 0
        for _ in range(150):
            slopes = self.random_slopes(rng)
            psi = np.array([rng.uniform(0, TWO_PI) for _ in slopes])
            # candidates on a coarse grid repeat lifts; values with ties
            cands = np.array([rng.randrange(24) * TWO_PI / 24 for _ in range(rng.randint(1, 40))])
            vals = np.array([rng.choice([0.1, 0.2, 0.3, rng.uniform(0, 1)]) for _ in cands])
            cuts = np.array([rng.choice([0.15, 0.5, 1.0]) for _ in range(2)] + [math.pi])
            nu = np.rint((slopes[None, :] * cands[:, None] - psi[None, :]) / TWO_PI).astype(np.int64)
            # the same classes again, moved by multiples of the slopes
            nu[::3] += rng.randint(-2, 2) * slopes
            row = np.array([rng.randrange(3) for _ in cands])
            got = _minimax._lift_classes(slopes, row, nu.copy(), vals, cuts)
            assert (np.diff(got[0]) >= 0).all() and (got[0] != 2).all()
            for r in (0, 1):
                want = unique_lifts(slopes, nu[row == r], vals[row == r], cuts[r])
                mine = got[0] == r
                assert np.array_equal(got[1][mine], want[0]) and got[1].dtype == want[0].dtype
                assert np.array_equal(got[2][mine], want[1])
                checked += len(want[1]) > 0
        assert checked > 150


def lift_classes(slopes, nu) -> set:
    """The lift vectors nu as classes modulo the slopes (nu and nu + a give
    the same inner values), each as the representative whose first nonzero
    slope's entry lies in [0, |a|)."""
    j0 = int(np.flatnonzero(slopes)[0])
    nu = np.asarray(nu, dtype=np.int64).reshape(-1, len(slopes))
    nu = nu - (nu[:, j0] // slopes[j0])[:, None] * slopes[None, :]
    return set(map(tuple, nu.tolist()))


class TestCellMaxima:
    """Cells with lifts are bounded by their certified maxima
    (`_minimax.cell_maxima`, through `engine._cell_tops`)."""

    @staticmethod
    def random_cell(rng):
        """(slopes, n, index row, lifts within LIFT_REACH radii, upper) of a
        random order-n cell of a set of 1-3 characters in Z, or None when
        its centre takes no lifts."""
        while True:
            # in the set's own (sorted) order
            slopes = np.array(sorted(rng.sample(range(-12, 13), rng.randint(1, 3))))
            if slopes.any():
                break
        n = rng.choice([8, 16, 32, 64])
        row = np.array([rng.randrange(n) for _ in slopes])
        _, _, upper, lifts = circle_row(slopes, row * (TWO_PI / n),
                                        lift_margin=engine.LIFT_REACH * math.pi / n)
        return None if lifts is None else (slopes, n, row, lifts, upper)

    @staticmethod
    def tops(slopes, n, row, lifts, upper):
        """(top, work) of the one cell from `engine._cell_tops`."""
        data = engine._set_data(CharacterSet.of_integers(slopes.tolist()))
        nu, vals = lifts
        cell = engine._Cells(row[None], np.array([upper]), np.array([upper + math.pi / n]),
                             np.array([len(vals)]), nu, vals)
        top, work = engine._cell_tops(data, cell, n)
        return float(top[0]), int(work[0])

    def test_certificates_match_the_lp_oracle(self):
        rng = random.Random(241)
        exact = 0
        for _ in range(160):
            drawn = self.random_cell(rng)
            if drawn is None:
                continue
            slopes, n, row, (nu, vals), upper = drawn
            radius = math.pi / n
            slack = engine._lift_slack(engine._set_data(CharacterSet.of_integers(slopes.tolist())))
            top, work = self.tops(slopes, n, row, (nu, vals), upper)
            assert top <= upper + radius + slack
            # the lifts the certificate reads: within two radii of the value
            near = nu[vals <= vals.min() + 2 * radius + _minimax.LIFT_EPS]
            pieces = len(_minimax._line_pieces(tuple(slopes.tolist())))
            if pieces ** len(near) > 300:
                continue
            centre = row * (TWO_PI / n)
            want = oracles.cell_max_lp(slopes, centre, radius, near)
            assert top >= want - 1e-12, (slopes, n, row)
            bound, _ = _minimax.cell_maxima(slopes, centre + TWO_PI * near,
                                            np.zeros(len(near), dtype=np.int64), 1, radius)
            if np.isfinite(bound[0]):
                assert top == pytest.approx(want, abs=1e-9), (slopes, n, row)
                assert work > 0
                exact += 1
            # the true inner value at the cell's corners and inside it
            corners = np.array(list(itertools.product((-radius, radius), repeat=len(slopes))))
            inside = np.array([[rng.uniform(-radius, radius) for _ in slopes]
                               for _ in range(200)])
            for x in np.concatenate([corners, inside]):
                value = oracles.min_error_breakpoints(slopes, centre + x)[1]
                assert top >= value - 1e-12, (slopes, n, row, x)
        assert exact > 30, exact

    def test_cells_past_the_cap_keep_value_plus_radius(self, monkeypatch):
        monkeypatch.setattr(_minimax, "CELL_SYSTEMS", 1)
        rng = random.Random(251)
        checked = 0
        for _ in range(60):
            drawn = self.random_cell(rng)
            if drawn is None:
                continue
            slopes, n, row, (nu, vals), upper = drawn
            if len(nu) < 2 or (vals <= vals.min() + 2 * math.pi / n).sum() < 2:
                continue
            assert self.tops(slopes, n, row, (nu, vals), upper) == (upper + math.pi / n, 0)
            checked += 1
        assert checked > 10

    def test_children_keep_the_lifts_their_certificates_read(self):
        # a lifted child keeps only the lifts within LIFT_REACH radii of its
        # value: `_cell_tops` on those gives the top and work, bit for bit,
        # of `_cell_tops` on every lift of its parent moved to the child,
        # and the child's charge still counts every parent lift read
        rng = random.Random(271)
        checked = dropped = 0
        for _ in range(40):
            E = CharacterSet.of_integers(rng.sample(range(-9, 10), rng.randint(2, 3)))
            data = engine._set_data(E)
            n = rng.choice([8, 16, 32])
            radius = math.pi / n
            row = np.array([rng.randrange(n // 2) for _ in E])
            _, _, upper, lifts = circle_row(data.line, row * (TWO_PI / (n // 2)),
                                            lift_margin=engine.LIFT_REACH * 2 * radius)
            if lifts is None:
                continue
            nu, vals = lifts
            parent = engine._Cells(row[None], np.array([upper]), np.array([upper + 2 * radius]),
                                   np.array([len(vals)]), nu, vals)
            (block,) = engine._children(data, parent, engine._shift_basis(data, n), n,
                                        np.zeros(0, dtype=np.int64))
            assert block.valued
            # every parent lift moved to each child, with its value there
            raw = 2 * row + (block.rows - 2 * row + 1) % n - 1
            every = line_distances(data.line, (raw * (TWO_PI / n))[:, None] + TWO_PI * nu)
            k = len(block.rows)
            top = block.upper + radius
            full = engine._Cells(block.rows, block.upper, top, np.full(k, len(nu)),
                                 (nu + (raw // n)[:, None]).reshape(-1, len(E)), every.ravel())
            kept = block.take(np.arange(k), top)
            want, got = engine._cell_tops(data, full, n), engine._cell_tops(data, kept, n)
            assert bits(got[0]) == bits(want[0]) == bits(block.top), (E, n, row)
            assert got[1].tolist() == want[1].tolist(), (E, n, row)
            terms = _minimax.line_term_count(data.line)
            assert block.cost.tolist() == (len(nu) * terms + want[1]).tolist()
            near = every <= (every.min(axis=1) + engine.LIFT_REACH * radius
                             + _minimax.LIFT_EPS)[:, None]
            assert kept.count.tolist() == near.sum(axis=1).tolist()
            dropped += int((kept.count < len(nu)).sum())
            checked += k
        assert checked > 100 and dropped > 20, (checked, dropped)

    def test_open_cells_keep_every_lift_within_two_radii(self, monkeypatch):
        # each open cell's lifts hold every lift class within two radii of
        # its centre's value, solved afresh, with its value there
        rng = random.Random(257)
        next_level = engine._next_level
        levels = []

        def spy(data, n, parents, *args):
            levels.append((data, n // 2, parents))
            return next_level(data, n, parents, *args)
        monkeypatch.setattr(engine, "_next_level", spy)
        checked = 0
        for _ in range(10):
            E = random_int_set(rng, max_size=3, max_entry=12)
            levels.clear()
            alpha(E, tol=1e-3)
            for data, n, cells in levels:
                radius = math.pi / n
                start = np.cumsum(cells.count) - cells.count
                for row, first, count in zip(cells.rows, start, cells.count):
                    if not count:
                        continue
                    angles = row * (TWO_PI / n)
                    lifts = circle_row(data.line, angles, lift_margin=2 * radius)[3]
                    nu, vals = cells.nu[first:first + count], cells.vals[first:first + count]
                    assert lift_classes(data.line, lifts[0]) <= lift_classes(data.line, nu)
                    fresh = line_distances(data.line, angles + TWO_PI * nu)
                    assert np.allclose(fresh, vals, atol=1e-9)
                    checked += 1
        assert checked > 100, checked


class TestPairs:
    def test_closed_form_matches_the_grid_oracle(self):
        for a, b in [(1, 2), (-3, 5), (-4, 6)]:
            grid, _ = oracles.alpha_pair_grid(a, b, grid=200)
            assert grid <= oracles.alpha_pair_exact(a, b) + 1e-12
            assert grid >= oracles.alpha_pair_exact(a, b) - 1e-3

    def test_every_coprime_pair_certifies_by_order_16(self):
        pairs = [(a, b) for a in range(-12, 13) for b in range(a + 1, 13)
                 if a and b and math.gcd(a, b) == 1]
        for a, b in pairs:
            res = alpha(CharacterSet.of_integers([a, b]), tol=1e-3)
            value = oracles.alpha_pair_exact(a, b)
            assert res.certified, (a, b)
            assert res.alpha.lower - 1e-12 <= value <= res.alpha.upper + 1e-12, (a, b)
            assert res.work.ladder[-1][0] <= 16, (a, b)


class TestLiftedBlocks:
    N, RADIUS, SLACK, TOL = 16, math.pi / 16, 0.05, 5e-4

    @staticmethod
    def block(rng, data, k, uniform):
        """A random valued block of k lifted cells of order N with distinct
        rows, lower ends drawn from three values (so ties are common), tops
        between the upper end and the upper end plus the radius, uniform or
        mixed costs, and 1-3 lifts a cell, the least at the cell's value."""
        n, m = TestLiftedBlocks.N, data.m
        rows = rng.sample(list(itertools.product(range(n), repeat=m)), k)
        levels = sorted(rng.uniform(0.2, 1.0) for _ in range(3))
        lower = np.array([rng.choice(levels) for _ in range(k)])
        upper = lower + np.array([rng.choice([0.0, 1e-12, rng.uniform(0, 0.3)]) for _ in range(k)])
        cost = np.array([rng.randint(1, 9) for _ in range(k)])
        if uniform:
            cost[:] = cost[0]
        count = np.array([rng.randint(1, 3) for _ in range(k)])
        vals = []
        for value, c in zip(lower, count):
            cell = [value] + [value + rng.choice([0.1, 0.3]) for _ in range(c - 1)]
            rng.shuffle(cell)
            vals += cell
        nu = np.array([[rng.randint(-2, 2) for _ in range(m)] for _ in vals], dtype=np.int64)
        top = upper + np.array([rng.choice([TestLiftedBlocks.RADIUS, rng.uniform(0, 0.2)])
                                for _ in range(k)])
        block = engine._Targets.empty(data, k, n, np.array(rows, dtype=np.int64))
        block.lower[:], block.upper[:], block.cost[:] = lower, upper, cost
        block.add_lifts(np.repeat(np.arange(k), count), nu, np.array(vals))
        block.top, block.valued = top, True
        return block

    @staticmethod
    def kept_lifts(block, i):
        """Cell i's lifts, read one by one."""
        return [(tuple(nu), v) for nu, v, owner in zip(
            block.nu.tolist(), block.vals.tolist(), block.owner.tolist()) if owner == i]

    def test_block_decisions_match_the_cell_loop(self, monkeypatch):
        rng = random.Random(233)
        E = CharacterSet.of_integers([-3, 1, 4])
        data = engine._set_data(E)
        made = []
        incumbent = engine._Incumbent

        def recorded(*args):
            made.append(incumbent(*args))
            return made[-1]
        monkeypatch.setattr(engine, "_Incumbent", recorded)
        seen = set()
        for trial in range(48):
            k = rng.randint(1, 9)
            base = self.block(rng, data, k, uniform=trial % 2 == 0)
            prior = None if trial % 3 == 0 else rng.choice(
                [0.1, float(base.lower.min()), float(np.median(base.lower)), 2.0])
            # the incumbent never reaches the cap, or first does at the first,
            # a middle or the last cell, which beats every lower end
            variants = [(base, 10.0, None)]
            for j in sorted({0, k // 2, k - 1}):
                lower = base.lower.copy()
                lower[j] = max(float(lower.max()), prior or 0.0) + 0.1
                variants.append((dataclasses.replace(base, lower=lower),
                                 float(lower[j]) + self.TOL, j))
            for block, cap, hit in variants:
                spent = np.cumsum(block.cost)
                used = rng.randrange(100)
                # stop on the budget at every cell, and not at all
                limits = [used + int(spent[p] - block.cost[p]) + rng.randrange(block.cost[p])
                          for p in range(k)] + [used + int(spent[-1]) + rng.randrange(3)]
                for limit in limits:
                    self.check(data, block, prior, used, limit, cap, made)
                    want = oracles.scan_cells_loop(
                        block.lower.tolist(), block.top.tolist(), block.cost.tolist(),
                        prior, used, limit, cap, self.TOL, self.SLACK)
                    stop = want["enumerated"] - (want["status"] == "capped")
                    seen.add((want["status"], stop, hit))
        # every stop: capped at the first, a middle and the last cell,
        # the budget at every cell of a 9-cell block, and none
        assert {("capped", 0, 0), ("done", 9, None)} <= seen
        assert {("capped", j, j) for j in (4, 8)} <= seen
        assert {("budget", p, None) for p in range(9)} <= seen

    def check(self, data, block, prior, used, limit, cap, made):
        n, m = self.N, data.m
        scan = engine._Scan(data, self.TOL, Budget(limit))
        scan.budget.used = used
        if prior is not None:
            scan.best = engine._Incumbent(prior, n // 2, (0,) * m,
                                          DualPoint(data.chars.group, (0.0,), ()), None)
        made.clear()
        opened = []
        got = engine._scan_targets(scan, n, iter([block]), cap, self.RADIUS, self.SLACK, opened)
        want = oracles.scan_cells_loop(
            block.lower.tolist(), block.top.tolist(), block.cost.tolist(), prior,
            used, limit, cap, self.TOL, self.SLACK)
        case = (block, prior, used, limit, cap)
        assert got == (want["closed_hi"], want["open_hi"], want["status"]), case
        assert scan.budget.used == want["used"], case
        assert scan.stats.targets_enumerated == want["enumerated"], case
        rows = block.rows.tolist()
        # the block is decided in one pass: only the loop's last incumbent
        # is made, with its witness
        assert [(c.indices, c.lower, c.order) for c in made] == [
            (tuple(rows[i]), block.lower[i], n) for i in want["incumbents"][-1:]], case
        # the incumbent's witness attains its least lift
        for c, i in zip(made, want["incumbents"][-1:]):
            nu, vals = zip(*self.kept_lifts(block, i))
            angles = np.array(rows[i], dtype=np.float64) * (TWO_PI / n)
            s = line_witness(data.line, angles + TWO_PI * np.array(nu[int(np.argmin(vals))]))
            assert c.point == DualPoint(data.chars.group, (s % TWO_PI,), ())
        assert scan.best is (made[-1] if made else scan.best)
        cells = engine._Cells.gather(opened, m)
        assert cells.rows.tolist() == [rows[i] for i in want["opened"]], case
        assert cells.upper.tolist() == [block.upper[i] for i in want["opened"]]
        assert cells.top.tolist() == [block.top[i] for i in want["opened"]]
        lifts = [(tuple(nu), v) for nu, v in zip(cells.nu.tolist(), cells.vals.tolist())]
        assert lifts == [lift for i in want["opened"] for lift in self.kept_lifts(block, i)]
        assert cells.count.tolist() == [len(self.kept_lifts(block, i)) for i in want["opened"]]

    # {-2,1,7} and {-7,-2,1}: alpha is off every dyadic grid, so cell maxima
    # hold the upper end at alpha from order 8 on while the lower end climbs
    # with the grid; the completed levels (n, lower, upper) recorded once
    LADDERS = {
        (-2, 1, 7): [(2, 1.178097245089172, 2.7488935718910685),
                     (4, 1.178097245089172, 1.9634954084936203),
                     (8, 1.178097245089172, 1.22931886449718),
                     (16, 1.178097245089172, 1.22931886449718),
                     (32, 1.2026409376533427, 1.22931886449718),
                     (64, 1.2149127839564278, 1.22931886449718),
                     (128, 1.227184630259513, 1.22931886449718)],
        (-7, -2, 1): [(2, 1.1780972450891725, 2.748893571891069),
                      (4, 1.1780972450891725, 1.9634954084936207),
                      (8, 1.1780972450891725, 1.2293188644971802),
                      (16, 1.1780972450891725, 1.2293188644971802),
                      (32, 1.2026409376533427, 1.22931886449718),
                      (64, 1.2149127839564278, 1.22931886449718),
                      (128, 1.227184630259513, 1.2293188644971798)],
    }

    @pytest.mark.parametrize("elements, budget, levels, lower, evals, solved, pruned, order, "
                             "worst, theta", [
        ((-2, 1, 7), 12_000, 4, 1.2026409376533427, 12_002, 140, 19, 32, (13, 0, 15),
         5.080544369477243),
        ((-2, 1, 7), 20_000, 7, 1.227184630259513, 20_012, 711, 19, 128, (53, 0, 55),
         1.227184630308513),
        ((-7, -2, 1), 12_000, 4, 1.2026409376533427, 12_005, 170, 19, 32, (31, 19, 16),
         4.344233591292136),
        ((-7, -2, 1), 20_000, 7, 1.227184630259513, 20_010, 758, 19, 128, (119, 75, 64),
         1.9144080232812801),
    ], ids=["-2,1,7 at 12000", "-2,1,7 at 20000", "-7,-2,1 at 12000", "-7,-2,1 at 20000"])
    def test_budget_stop_inside_a_lifted_block(self, monkeypatch, elements, budget, levels,
                                               lower, evals, solved, pruned, order, worst,
                                               theta):
        E = CharacterSet.of_integers(elements)
        blocks = []
        read_blocks = engine._blocks

        def spy(*args):
            for block in read_blocks(*args):
                blocks.append(block)
                yield block
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_blocks", spy)
            res = alpha(E, tol=1e-3, budget=budget)
        # the budget ran out inside a block of lifted cells, not at its edge
        assert blocks[-1].valued and len(blocks[-1].lower) > 1
        done = self.LADDERS[elements][:levels]
        upper = done[-1][2]
        ladder = tuple((n, lo, up, True) for n, lo, up in done)
        assert res.work.ladder == ladder + ((2 << levels, lower, upper, False),)
        assert (res.alpha.lower, res.alpha.upper, res.certified) == (lower, upper, False)
        work = res.work
        assert (work.inner_evals, work.targets_enumerated, work.targets_pruned) == (
            evals, solved, pruned)
        assert work.stop_reason == "budget" and work.budget_exhausted
        assert res.worst_target == TargetMap.from_grid(E, order, worst)
        assert res.witness_point == DualPoint(E.group, (theta,), ())


def shift_group(E, n):
    """The oracle's order-n shift group of a character set."""
    return oracles.shift_group([c.free_coords for c in E], [c.torsion_coords for c in E],
                               E.group.torsion_orders, n)


def grid_targets(E, n):
    """The canonical order-n targets of a set, as index tuples."""
    data = engine._set_data(E)
    rows = engine._grid_targets(engine._shift_basis(data, n), n)
    return [tuple(row) for block in rows for row in block.tolist()]


class TestSymmetryQuotient:
    def test_canonical_targets_are_orbit_minima(self):
        rng = random.Random(99)
        groups = [GroupSpec(1), GroupSpec(2), GroupSpec(3), GroupSpec(1, (2, 4)),
                  GroupSpec(0, (4, 6)), GroupSpec(0, (5, 5)), GroupSpec(0, (3, 3, 3, 3))]
        for trial in range(56):
            E = random_group_set(rng, groups[trial % len(groups)], zero=rng.random() < 0.2)
            # half the orders put every torsion column on the grid
            lcm = E.group.torsion_lcm
            n = max(2, rng.choice([rng.randint(2, 16), lcm * rng.randint(1, 16 // lcm)]))
            want = oracles.orbit_minima(shift_group(E, n), len(E), n)
            assert grid_targets(E, n) == want, (E, n)

    @pytest.mark.parametrize("spec, n", [
        ("Z3^4 : [1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1],[1,1,1,1]", 3),
        ("Z^2 : [1,0],[0,1],[1,2]", 9),
        ("Z11^2 : [1,0],[0,1],[2,5]", 11),
        # the pivot 4 at n = 6 scales by 2, not a unit: 3 * (4, 0, 1, 4) must stay
        ("Z : [-8],[-6],[-5],[-2]", 6),
    ])
    def test_canonical_targets_on_large_shift_groups(self, spec, n):
        # shift groups of 81 and 121 elements
        _, E = parse_set_spec(spec)
        want = oracles.orbit_minima(shift_group(E, n), len(E), n)
        assert grid_targets(E, n) == want

    @pytest.mark.parametrize("spec, n, orbits", [
        ("Z4 : [1],[3]", 2, 2),
        ("Z130 : [7],[13],[16],[97]", 5, 63),
        ("Z140 : [11],[35],[52],[119]", 5, 63),
        ("Z2 x Z6 : [0,4],[1,0],[1,1],[1,4]", 3, 14),
        ("Z x Z4 : [1,1],[2,3],[3,2]", 2, None),
    ])
    def test_torsion_steps_join_the_shift_group_at_their_least_grid_multiple(
            self, spec, n, orbits):
        # a factor whose one step leaves some argument off the n-grid still
        # shifts the targets by its least multiple that lands them all on
        # it: one target per orbit of the oracle's group, which tries every
        # multiple, and the bracket of every target solved
        _, E = parse_set_spec(spec)
        want = oracles.orbit_minima(shift_group(E, n), len(E), n)
        assert grid_targets(E, n) == want and len(want) == (orbits or len(want))
        data = engine._set_data(E)
        rows = np.array(list(itertools.product(range(n), repeat=len(E))))
        every = engine._solve_rows(data, rows * (TWO_PI / n), n, rows, 10**12)
        res = alpha_n(E, n)
        assert res.certified
        if data.r:
            # targets of one orbit agree up to rounding
            assert res.alpha.lower == pytest.approx(every.lower.max(), abs=1e-12)
        else:
            assert res.alpha.lower == every.lower.max()
            assert res.alpha.exact_turns == Fraction(int(every.exact.max()), every.modulus)

    def test_blocks_stream_the_seeds_then_the_orbit_minima(self, monkeypatch):
        # alpha_n's scan reads unsolved blocks of index rows: the seeds
        # reduced mod n, in the order given, then one target per orbit in
        # lexicographic order, cut into blocks of the scan's size
        rng = random.Random(113)
        groups = [GroupSpec(1), GroupSpec(2), GroupSpec(1, (2,)), GroupSpec(1, (2, 2, 2)),
                  GroupSpec(0, (4, 6)), GroupSpec(0, (12,))]
        blocks = []

        def drain(scan, n, items, *args):
            blocks.extend(items)
            return 0.0, 0.0, "done"

        block_targets = engine._block_targets
        monkeypatch.setattr(engine, "_scan_targets", drain)
        monkeypatch.setattr(engine, "_block_targets",
                            lambda data: (min(3, block_targets(data)[0]), block_targets(data)[1]))
        for trial in range(36):
            E = random_group_set(rng, groups[trial % len(groups)], zero=rng.random() < 0.2)
            n = rng.randint(2, 9)
            seeds = [[rng.randrange(-2 * n, 2 * n) for _ in E] for _ in range(rng.randint(0, 4))]
            monkeypatch.setattr(engine, "SIEVE_RUN", rng.randint(1, 8))
            blocks.clear()
            alpha_n(E, n, seed_targets=seeds)
            data = engine._set_data(E)
            size = (engine.SIEVE_RUN if data.line is not None
                    else engine._block_targets(data)[0])
            assert all(isinstance(b, engine._Targets) and np.isnan(b.lower).all()
                       and b.rows.dtype == np.int64 for b in blocks)
            assert [len(b.rows) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
            assert 0 < len(blocks[-1].rows) <= size
            rows = [tuple(row) for b in blocks for row in b.rows.tolist()]
            assert rows == [tuple(j % n for j in seed) for seed in seeds] + oracles.orbit_minima(
                shift_group(E, n), len(E), n), (E, n, seeds)

    def test_next_level_streams_solved_centres_before_children(self, monkeypatch):
        # a level's targets: the centres of parents without lifts that are
        # solved again, as one array of rows 2t, then the children, arrays
        # of rows 2t + d (d != 0) and lifted blocks; no orbit comes twice
        rng = random.Random(131)
        next_level = engine._next_level
        levels = []

        def spy(data, n, *args):
            items, closed = next_level(data, n, *args)
            levels.append((data, n, list(items)))
            return iter(levels[-1][2]), closed

        monkeypatch.setattr(engine, "_next_level", spy)
        sets = [random_int_set(rng, max_size=3, max_entry=9) for _ in range(6)]
        sets += [CharacterSet.of_integers([1, 2, 3, 5]),
                 parse_set_spec("Z x Z2 : [1,0],[2,1],[3,1]")[1]]
        centres = lifted = 0
        for E in sets:
            levels.clear()
            alpha(E, tol=1e-2)
            for data, n, items in levels:
                first, *rest = items
                assert isinstance(first, np.ndarray) and (first % 2 == 0).all()
                for item in rest:
                    if isinstance(item, np.ndarray):
                        assert not (item % 2 == 0).all(axis=1).any(), (E, n)
                    lifted += 0 if isinstance(item, np.ndarray) else len(item.rows)
                rows = np.concatenate([first] + [getattr(item, "rows", item) for item in rest])
                keys = engine._orbit_keys(engine._orbit_reps(
                    rows, engine._shift_basis(data, n), n), n)
                assert len(np.unique(keys)) == len(keys), (E, n)
                centres += len(first)
        assert centres > 10 and lifted > 10, (centres, lifted)

    def test_orbit_reps_are_orbit_minima(self):
        from kronset.engine import _orbit_reps, _set_data, _shift_basis

        rng = random.Random(103)
        groups = [GroupSpec(1), GroupSpec(2), GroupSpec(1, (2,)), GroupSpec(0, (4, 6))]
        for trial in range(12):
            E = random_group_set(rng, groups[trial % len(groups)])
            n = rng.choice([4, 6, 8, 16])
            cells = [[rng.randrange(n) for _ in E] for _ in range(20)]
            reps = _orbit_reps(np.array(cells, dtype=np.int64), _shift_basis(_set_data(E), n), n)
            want = oracles.orbit_least(cells, shift_group(E, n), n)
            assert list(map(tuple, reps.tolist())) == want, (E, n)

    @pytest.mark.parametrize("m, n", [(3, 8), (6, 1024), (7, 1024), (9, 8192)])
    def test_orbit_keys_are_base_n_digits(self, m, n):
        # int64 keys up to n^m = 2^60, Python integers past it
        rng = random.Random(107)
        rows = [[rng.randrange(n) for _ in range(m)] for _ in range(50)] + [[n - 1] * m]
        want = [sum(c * n**(m - 1 - d) for d, c in enumerate(row)) for row in rows]
        assert engine._orbit_keys(np.array(rows, dtype=np.int64), n).tolist() == want

    @pytest.mark.parametrize("m, n", [(3, 8), (9, 8192)])
    def test_fresh_keys_match_a_set_loop(self, m, n):
        # blocks of keys with repeats within and across blocks, int64 and
        # Python-integer keys: the positions a loop over a set keeps
        rng = random.Random(109)
        pool = [[rng.randrange(n) for _ in range(m)] for _ in range(40)]
        first = engine._orbit_keys(np.array(pool[:5], dtype=np.int64), n)
        seen, kept = np.unique(first), set(first.tolist())
        for _ in range(6):
            keys = engine._orbit_keys(np.array([rng.choice(pool) for _ in range(30)],
                                               dtype=np.int64), n)
            want = []
            for i, key in enumerate(keys.tolist()):
                if key not in kept:
                    kept.add(key)
                    want.append(i)
            new, seen = engine._fresh(keys, seen)
            assert new.tolist() == want
            assert seen.tolist() == sorted(kept)

    def test_quotient_matches_full_enumeration_on_mixed_group(self):
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
                _, br = best_point(E, phi)
                brute = max(brute, br.upper)
            assert res.alpha.lower <= brute + 1e-9
            assert res.alpha.upper >= brute - 1e-9

        # shift groups of 81 and 128 elements; a basis of too large a group
        # skips the targets that reach the cap
        g = GroupSpec(0, (2,) * 7)
        coords = [tuple(int(i == j) for i in range(7)) for j in range(7)] + [(1, 1, 1, 0, 0, 0, 0)]
        z2 = CharacterSet(g, tuple(Character(g, (), c) for c in coords))
        _, z3 = parse_set_spec("Z3^4 : [1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1],[1,1,1,1]")
        for E, n in [(z3, 3), (z2, 2)]:
            orders, rows = E.group.torsion_orders, [c.torsion_coords for c in E]
            cap = Fraction(1, 2) if n % 2 == 0 else Fraction(n - 1, 2 * n)
            sup = Fraction(0)
            for idx in itertools.product(range(n), repeat=len(E)):
                value, _ = oracles.best_point_torsion_exhaustive(
                    orders, rows, [Fraction(j, n) for j in idx])
                sup = max(sup, value)
                if sup == cap:  # at the identity no target errs more than the cap
                    break
            assert alpha_n(E, n).alpha.exact_turns == sup == cap, E

    def test_enumeration_stays_lazy_past_int64(self):
        # the product of target rows has 64^11 = 2^66 rows
        E = CharacterSet.of_integers(range(1, 13))
        tracemalloc.start()
        try:
            res = alpha_n(E, 64, budget=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.work.stop_reason == "budget" and not res.certified
        assert res.work.targets_enumerated > 0
        assert peak < 16 << 20


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

    def test_point_args_match_the_summed_parts(self):
        # free part plus torsion part (the Fraction sum floated in lowest
        # terms), each left out on a group without it
        rng = random.Random(109)
        groups = [GroupSpec(1), GroupSpec(2), GroupSpec(0, (4, 6)), GroupSpec(1, (2, 3))]
        for g in groups:
            for _ in range(10):
                E = random_group_set(rng, g)
                data = engine._SetData(E)
                x = DualPoint(g, [rng.uniform(0, TWO_PI) for _ in range(g.free_rank)],
                              [rng.randrange(m) for m in g.torsion_orders])
                want = np.zeros(len(E))
                if g.free_rank:
                    want += data.free @ np.asarray(x.torus_angles)
                if g.torsion_rank:
                    want += oracles.torsion_args(E, x.torsion_selections)
                got = data.point_args(x)
                assert np.array_equal(got, want), (E, x)
                assert np.allclose([angular_distance(a, evaluate_arg(c, x))
                                    for a, c in zip(got, E)], 0.0, atol=1e-12)

    def test_rows_of_points_match_one_point_at_a_time(self):
        # `args_at` on a block of points gives, bit for bit, free @ angles
        # plus the torsion arguments of each point alone
        rng = random.Random(113)
        bits = lambda xs: np.asarray(xs, dtype=np.float64).view(np.int64).tolist()
        groups = [GroupSpec(1), GroupSpec(3), GroupSpec(0, (4, 6)), GroupSpec(1, (2, 3)),
                  GroupSpec(2, (5,))]
        for g in groups:
            for _ in range(6):
                E = random_group_set(rng, g)
                data = engine._SetData(E)
                k = rng.randint(1, 40)
                angles = np.array([[rng.uniform(0, TWO_PI) for _ in range(g.free_rank)]
                                   for _ in range(k)]).reshape(k, g.free_rank)
                sel = np.array([[rng.randrange(m) for m in g.torsion_orders]
                                for _ in range(k)], dtype=np.int64).reshape(k, g.torsion_rank)
                want = [data.free @ a + oracles.torsion_args(E, t) for a, t in zip(angles, sel)]
                assert bits(data.args_at(angles, sel)) == bits(want), E

    @pytest.mark.parametrize("block", [None, 2])
    def test_shift_rows_are_the_torsion_args_of_each_selection(self, monkeypatch, block):
        # kept whole with at most TABLE_BLOCK selections, else built per call
        if block is not None:
            monkeypatch.setattr(engine, "TABLE_BLOCK", block)
        rng = random.Random(127)
        bits = lambda xs: np.asarray(xs, dtype=np.float64).view(np.int64).tolist()
        for g in [GroupSpec(1), GroupSpec(1, (2, 3)), GroupSpec(2, (5,)), GroupSpec(1, (2,) * 4)]:
            E = random_group_set(rng, g)
            data = engine._SetData(E)
            count = data.selection_count
            whole = data.shift_rows(0, count)
            assert bits(whole) == bits([oracles.torsion_args(E, t)
                                        for t in data.selection_rows(0, count).tolist()]), E
            start = rng.randrange(count)
            stop = rng.randint(start + 1, count)
            part = data.shift_rows(start, stop)
            assert bits(part) == bits(whole[start:stop]), E
            assert np.shares_memory(part, whole) == (count <= (block or engine.TABLE_BLOCK)), E
