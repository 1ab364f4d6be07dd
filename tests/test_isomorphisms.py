"""alpha and alpha_n agree across maps that preserve them.

An injective homomorphism of the discrete groups whose dual map is onto
leaves every character set's values at dual points unchanged as a set of
vectors, and with them both constants: scaling a set in Z by k != 0, a
unimodular change of basis of Z^2 (a collinear set of Z^2 is also the image
of a set in Z), multiplying Z_m by a unit, and the CRT split of Z_pq into
Z_p x Z_q.  These maps move a set between solve paths (the sieve on a set
in Z or on the echelon form of a collinear one, the vertex kernel at rank
2, a different torsion table), so each pair of brackets must overlap and
exact values must agree.
"""
import math
import random

import pytest

from kronset import Character, CharacterSet, GroupSpec, alpha, alpha_n


def assert_agree(a, b, tol, case):
    """The two results' brackets overlap within tol, and their exact values
    are equal where both have one."""
    x, y = a.alpha, b.alpha
    assert x.lower <= y.upper + tol and y.lower <= x.upper + tol, (case, x, y)
    if x.exact_turns is not None and y.exact_turns is not None:
        assert x.exact_turns == y.exact_turns, (case, x, y)


def integers(rng, size, bound):
    return sorted(rng.sample([v for v in range(-bound, bound + 1) if v], size))


def plane(vectors):
    g = GroupSpec(2)
    return CharacterSet(g, tuple(Character(g, v, ()) for v in vectors))


def cyclic(m, residues):
    g = GroupSpec(0, (m,))
    return CharacterSet(g, tuple(Character(g, (), (r,)) for r in residues))


def unimodular(rng):
    """A random 2 x 2 integer matrix of determinant +-1, as rows."""
    u = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 3)):
        k = rng.choice([-2, -1, 1, 2])
        step = [[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]]
        u = [[sum(a * b for a, b in zip(row, col)) for col in zip(*step)] for row in u]
    if rng.random() < 0.5:
        u = [u[1], u[0]]
    return u


def apply(u, vectors):
    return [tuple(sum(a * b for a, b in zip(row, v)) for row in u) for v in vectors]


def primitive(rng):
    while True:
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if math.gcd(*v) == 1:
            return v


GRID_TOL = 1e-9


class TestGridConstant:
    def test_scaling_a_set_in_z(self):
        rng = random.Random(1601)
        for _ in range(30):
            values = integers(rng, rng.randint(2, 4), 9)
            k = rng.choice([-3, -2, -1, 2, 3, 5])
            n = rng.randint(3, 6)
            a = alpha_n(CharacterSet.of_integers(values), n)
            b = alpha_n(CharacterSet.of_integers([k * v for v in values]), n)
            assert_agree(a, b, GRID_TOL, (values, k, n))

    @pytest.mark.parametrize("values", [(1, 3, 9, 27), (1, 4, 16, 64), (1, 3, 9, 27, 81)])
    def test_scaling_lacunary_sets(self, values):
        for k, n in ((2, 5), (-3, 6), (5, 4)):
            a = alpha_n(CharacterSet.of_integers(values), n)
            b = alpha_n(CharacterSet.of_integers([k * v for v in values]), n)
            assert_agree(a, b, GRID_TOL, (values, k, n))

    def test_unimodular_images_in_z2(self):
        rng = random.Random(1607)
        for _ in range(30):
            vectors = list({(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)})
            if rng.random() < 0.3:
                # a collinear set: the sieve on its echelon form
                v = primitive(rng)
                vectors = [(c * v[0], c * v[1]) for c in integers(rng, rng.randint(2, 3), 4)]
            u = unimodular(rng)
            n = rng.randint(3, 5)
            a = alpha_n(plane(vectors), n)
            b = alpha_n(plane(apply(u, vectors)), n)
            assert_agree(a, b, GRID_TOL, (vectors, u, n))

    def test_collinear_sets_in_z2_against_z(self):
        rng = random.Random(1609)
        for _ in range(25):
            values = integers(rng, rng.randint(2, 4), 6)
            v = primitive(rng)
            n = rng.randint(3, 6)
            a = alpha_n(CharacterSet.of_integers(values), n)
            b = alpha_n(plane([(c * v[0], c * v[1]) for c in values]), n)
            assert_agree(a, b, GRID_TOL, (values, v, n))

    def test_unit_multiples_in_zm(self):
        rng = random.Random(1613)
        for _ in range(30):
            m = rng.randint(5, 40)
            residues = rng.sample(range(m), rng.randint(2, 4))
            unit = rng.choice([u for u in range(2, m) if math.gcd(u, m) == 1])
            n = rng.randint(3, 6)
            a = alpha_n(cyclic(m, residues), n)
            b = alpha_n(cyclic(m, sorted({unit * r % m for r in residues})), n)
            assert a.alpha.exact_turns is not None
            assert_agree(a, b, 0.0, (m, residues, unit, n))

    def test_crt_splits(self):
        rng = random.Random(1619)
        for _ in range(30):
            p, q = rng.choice([(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (3, 7), (5, 7), (2, 11)])
            residues = rng.sample(range(p * q), rng.randint(2, 4))
            g = GroupSpec(0, (p, q))
            split = CharacterSet(g, tuple(Character(g, (), (r % p, r % q)) for r in residues))
            n = rng.randint(2, 6)
            a = alpha_n(cyclic(p * q, residues), n)
            b = alpha_n(split, n)
            assert a.alpha.exact_turns is not None
            assert_agree(a, b, 0.0, (p, q, residues, n))


class TestContinuousConstant:
    TOL = 0.05

    def test_collinear_sets_in_z2_against_z(self):
        rng = random.Random(1621)
        for _ in range(8):
            values = integers(rng, rng.randint(2, 3), 5)
            v = primitive(rng)
            a = alpha(CharacterSet.of_integers(values), tol=self.TOL)
            b = alpha(plane([(c * v[0], c * v[1]) for c in values]), tol=self.TOL)
            assert a.certified and b.certified
            assert_agree(a, b, self.TOL, (values, v))

    def test_unimodular_images_in_z2(self):
        rng = random.Random(1627)
        for _ in range(8):
            vectors = list({(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)} - {(0, 0)})
            u = unimodular(rng)
            a = alpha(plane(vectors), tol=self.TOL)
            b = alpha(plane(apply(u, vectors)), tol=self.TOL)
            assert_agree(a, b, self.TOL, (vectors, u))

    def test_scaling_a_set_in_z(self):
        rng = random.Random(1631)
        for _ in range(8):
            values = integers(rng, rng.randint(2, 3), 6)
            k = rng.choice([-2, 2, 3])
            a = alpha(CharacterSet.of_integers(values), tol=self.TOL)
            b = alpha(CharacterSet.of_integers([k * v for v in values]), tol=self.TOL)
            assert_agree(a, b, self.TOL, (values, k))
