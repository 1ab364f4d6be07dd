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
    GroupMismatchError,
    GroupSpec,
    TargetMap,
    angular_distance,
    approx_error,
    best_point,
    chordal_of_angle,
    evaluate_arg,
    evaluate_turns,
)
from kronset.cli import parse_set_spec
from kronset.engine import _set_data

TWO_PI = 2.0 * math.pi


class TestGroupSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupSpec(0, ())
        with pytest.raises(ValueError):
            GroupSpec(1, (1,))
        with pytest.raises(ValueError):
            GroupSpec(-1, (2,))
        assert GroupSpec(2).free_rank == 2
        assert GroupSpec(0, (2, 3, 4)).torsion_lcm == 12
        assert GroupSpec(0, (2, 3, 4)).dual_torsion_size == 24

    def test_describe(self):
        assert GroupSpec(1, (2, 2)).describe() == "Z x Z2 x Z2"


class TestEvaluateArg:
    def test_free_multiplication(self):
        g = GroupSpec(1)
        gamma = Character(g, (3,), ())
        x = DualPoint(g, (math.pi / 2,), ())
        assert evaluate_arg(gamma, x) == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_order_two_character(self):
        g = GroupSpec(0, (2,))
        gamma = Character(g, (), (1,))
        x = DualPoint(g, (), (1,))
        assert evaluate_arg(gamma, x) == math.pi

    def test_mixed_additive_components(self):
        g = GroupSpec(1, (2,))
        gamma = Character(g, (2,), (1,))
        x = DualPoint(g, (math.pi / 3,), (1,))
        assert evaluate_arg(gamma, x) == pytest.approx(5 * math.pi / 3, abs=1e-12)

    def test_identity_character_is_zero(self):
        g = GroupSpec(2, (3,))
        zero = g.zero_character()
        rng = random.Random(7)
        for _ in range(20):
            x = DualPoint(g, (rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)),
                          (rng.randrange(3),))
            assert evaluate_arg(zero, x) == 0.0

    def test_additivity(self):
        g = GroupSpec(1, (2, 3))
        rng = random.Random(11)
        for _ in range(50):
            a = Character(g, (rng.randrange(-5, 6),), (rng.randrange(2), rng.randrange(3)))
            b = Character(g, (rng.randrange(-5, 6),), (rng.randrange(2), rng.randrange(3)))
            x = DualPoint(g, (rng.uniform(0, TWO_PI),), (rng.randrange(2), rng.randrange(3)))
            lhs = evaluate_arg(a + b, x)
            rhs = (evaluate_arg(a, x) + evaluate_arg(b, x)) % TWO_PI
            assert angular_distance(lhs, rhs) < 1e-10

    def test_group_mismatch(self):
        g1, g2 = GroupSpec(1), GroupSpec(2)
        with pytest.raises(GroupMismatchError):
            evaluate_arg(Character(g1, (1,), ()), DualPoint(g2, (0.0, 0.0), ()))

    def test_torsion_exactness(self):
        g = GroupSpec(0, (4, 6))
        rng = random.Random(3)
        for _ in range(30):
            gamma = Character(g, (), (rng.randrange(4), rng.randrange(6)))
            x = DualPoint(g, (), (rng.randrange(4), rng.randrange(6)))
            turns = evaluate_turns(gamma, x)
            assert isinstance(turns, Fraction)
            assert g.torsion_lcm % turns.denominator == 0
            assert evaluate_arg(gamma, x) == (TWO_PI * turns.numerator / turns.denominator) % TWO_PI

    def test_turns_requires_torsion_group(self):
        g = GroupSpec(1)
        with pytest.raises(ValueError):
            evaluate_turns(Character(g, (1,), ()), DualPoint(g, (0.0,), ()))


class TestOneTorsionRule:
    """Every torsion argument is the set's integer table in turns/lcm,
    floated as 2 pi num / den in lowest terms, whoever reads it."""

    @staticmethod
    def bits(xs):
        return np.asarray(xs, dtype=np.float64).view(np.int64).tolist()

    def test_point_args_are_the_integer_rule_at_every_selection(self):
        _, E = parse_set_spec("Z3 x Z5 x Z7 : [1,1,1],[2,3,4],[1,4,6],[0,2,5]")
        data = _set_data(E)
        assert data.selection_count == 105
        for index in range(data.selection_count):
            x = DualPoint(E.group, (), data.selection(index))
            got = data.point_args(x)
            want = oracles.torsion_args(E, x.torsion_selections)
            assert self.bits(got) == self.bits(want), x
            assert self.bits(got) == self.bits([evaluate_arg(g, x) for g in E]), x
            assert ((0.0 <= got) & (got < TWO_PI)).all(), x

    @pytest.mark.parametrize("m", [22, 26, 30])
    def test_half_turns_are_pi_exactly(self, m):
        # 2 pi (m/2) / m is not pi in floats for these m; 2 pi 1 / 2 is
        g = GroupSpec(0, (m,))
        E = CharacterSet(g, (Character(g, (), (1,)), Character(g, (), (m // 2,))))
        data = _set_data(E)
        for sel in (1, 3, m - 1):
            x = DualPoint(g, (), (sel,))
            assert evaluate_turns(E[1], x) == Fraction(1, 2)
            assert evaluate_arg(E[1], x) == math.pi
            assert data.point_args(x)[1] == math.pi
            assert approx_error(E, TargetMap.from_angles(E, [0.0, 0.0]), x) == math.pi

    def test_solver_and_attained_error_read_the_same_floats(self):
        # the float torsion solve and `approx_error` at its witness agree to
        # the bit, so the bracket closes
        _, E = parse_set_spec("Z22 : [1],[11]")
        phi = TargetMap.from_angles(E, [math.pi, TWO_PI / 22])
        point, bracket = best_point(E, phi)
        assert bracket.lower == bracket.upper == approx_error(E, phi, point)


class TestAngularDistance:
    @pytest.mark.parametrize("a,b,expected", [
        (0.0, math.pi, math.pi),
        (0.1, TWO_PI - 0.1, 0.2),
        (math.pi / 2, math.pi / 2, 0.0),
    ])
    def test_examples(self, a, b, expected):
        assert angular_distance(a, b) == pytest.approx(expected, abs=1e-14)

    def test_metric_properties(self):
        rng = random.Random(5)
        pts = [rng.uniform(-10, 10) for _ in range(12)]
        for a in pts:
            for b in pts:
                d = angular_distance(a, b)
                assert 0.0 <= d <= math.pi + 1e-15
                assert d == pytest.approx(angular_distance(b, a), abs=1e-12)
                for c in pts:
                    assert angular_distance(a, c) <= d + angular_distance(b, c) + 1e-9


class TestChordal:
    def test_antipodal(self):
        assert chordal_of_angle(math.pi) == 2.0

    def test_quarter(self):
        assert chordal_of_angle(math.pi / 2) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_roots_threshold_shape(self):
        # the n = 2 threshold of the roots-grid criterion
        assert chordal_of_angle(math.pi * (1 - 0.5)) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_monotone(self):
        grid = [i * math.pi / 200 for i in range(201)]
        vals = [chordal_of_angle(d) for d in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0 and vals[-1] == 2.0

    def test_domain(self):
        with pytest.raises(ValueError):
            chordal_of_angle(math.pi + 0.1)
        with pytest.raises(ValueError):
            chordal_of_angle(-0.1)


class TestCharacterOps:
    def test_integer_addition(self):
        E = CharacterSet.of_integers([2, 3])
        total = E[0] + E[1]
        assert total.free_coords == (5,)

    def test_characteristic_two(self):
        g = GroupSpec(0, (2, 2, 2))
        e12 = Character(g, (), (1, 1, 0))
        e13 = Character(g, (), (1, 0, 1))
        assert (e12 + e13).torsion_coords == (0, 1, 1)

    def test_self_inverse(self):
        g = GroupSpec(0, (2,))
        gamma = Character(g, (), (1,))
        assert (-gamma).torsion_coords == (1,)
        assert (gamma + gamma).is_identity()

    def test_is_identity(self):
        g = GroupSpec(1, (3,))
        assert g.zero_character().is_identity()
        assert not Character(g, (0,), (1,)).is_identity()


class TestCharacterSet:
    def test_canonical_ordering(self):
        E = CharacterSet.of_integers([5, -2, 3])
        assert [c.free_coords[0] for c in E] == [-2, 3, 5]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CharacterSet.of_integers([1, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CharacterSet(GroupSpec(1), ())

    def test_mismatched_member_rejected(self):
        with pytest.raises(GroupMismatchError):
            CharacterSet(GroupSpec(1), (Character(GroupSpec(2), (1, 0), ()),))

    def test_torsion_reduction(self):
        g = GroupSpec(0, (3,))
        c = Character(g, (), (5,))
        assert c.torsion_coords == (2,)

    def test_negated(self):
        E = CharacterSet.of_integers([1, 2])
        assert [c.free_coords[0] for c in E.negated()] == [-2, -1]

    def test_wrong_coordinate_counts(self):
        g = GroupSpec(1, (2,))
        with pytest.raises(GroupMismatchError):
            Character(g, (1, 2), (0,))
        with pytest.raises(GroupMismatchError):
            DualPoint(g, (0.0,), ())
