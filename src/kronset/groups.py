"""Finitely generated discrete abelian groups and their compact duals.

A group here is Z^r (+) Z_{m_1} (+) ... (+) Z_{m_s}.  Characters carry
integer coordinates on the free factors and residues on the torsion
factors; dual points carry torus angles and residue selections.  Character
evaluation is split into a floating free part and an exact rational torsion
part so that computations on purely torsion groups stay bit-exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import GroupMismatchError

TWO_PI = 2.0 * math.pi

#: tolerance used whenever exact (rational) and floating angles are compared
ANGLE_ATOL = 1e-12


def _reduce_angle(theta: float) -> float:
    """Reduce an angle into [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    # fmod can land exactly on 2*pi after the correction above
    return 0.0 if theta >= TWO_PI else theta


def angular_distance(a: float, b: float) -> float:
    """Shortest arc distance between two angles, in [0, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d < 0.0:
        d += TWO_PI
    return min(d, TWO_PI - d)


def chordal_of_angle(d: float) -> float:
    """Chord length |1 - e^{id}| = 2 sin(d/2) for an arc distance d in [0, pi]."""
    if not -ANGLE_ATOL <= d <= math.pi + ANGLE_ATOL:
        raise ValueError(f"arc distance {d!r} outside [0, pi]")
    return 2.0 * math.sin(min(max(d, 0.0), math.pi) / 2.0)


@dataclass(frozen=True)
class GroupSpec:
    """Shape of a finitely generated discrete abelian group."""

    free_rank: int = 0
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion_orders", tuple(int(m) for m in self.torsion_orders))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(m < 2 for m in self.torsion_orders):
            raise ValueError("torsion orders must all be >= 2")
        if self.free_rank + len(self.torsion_orders) == 0:
            raise ValueError("group must have at least one factor")

    @property
    def torsion_rank(self) -> int:
        return len(self.torsion_orders)

    @property
    def torsion_lcm(self) -> int:
        return math.lcm(*self.torsion_orders) if self.torsion_orders else 1

    @property
    def dual_torsion_size(self) -> int:
        """Number of points in the finite part of the dual group."""
        return math.prod(self.torsion_orders)

    def zero_character(self) -> "Character":
        return Character(self, (0,) * self.free_rank, (0,) * self.torsion_rank)

    def identity_point(self) -> "DualPoint":
        return DualPoint(self, (0.0,) * self.free_rank, (0,) * self.torsion_rank)

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z{m}" for m in self.torsion_orders]
        return " x ".join(parts)


def _check_same_group(a, b):
    if a.group != b.group:
        raise GroupMismatchError(f"mixed groups {a.group.describe()} and {b.group.describe()}")


@dataclass(frozen=True)
class Character(object):
    """An element of the discrete group: a character of the compact dual."""

    group: GroupSpec
    free_coords: tuple[int, ...] = ()
    torsion_coords: tuple[int, ...] = ()

    def __post_init__(self):
        free = tuple(int(v) for v in self.free_coords)
        if len(free) != self.group.free_rank:
            raise GroupMismatchError(
                f"expected {self.group.free_rank} free coordinates, got {len(free)}"
            )
        tors = tuple(int(t) % m for t, m in zip(self.torsion_coords, self.group.torsion_orders))
        if len(self.torsion_coords) != self.group.torsion_rank:
            raise GroupMismatchError(
                f"expected {self.group.torsion_rank} torsion coordinates,"
                f" got {len(self.torsion_coords)}"
            )
        object.__setattr__(self, "free_coords", free)
        object.__setattr__(self, "torsion_coords", tors)

    @property
    def coords(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Sort key: lexicographic by (free, torsion) coordinates."""
        return (self.free_coords, self.torsion_coords)

    def __add__(self, other: "Character") -> "Character":
        _check_same_group(self, other)
        return Character(
            self.group,
            tuple(a + b for a, b in zip(self.free_coords, other.free_coords)),
            tuple(a + b for a, b in zip(self.torsion_coords, other.torsion_coords)),
        )

    def __neg__(self) -> "Character":
        return Character(
            self.group,
            tuple(-a for a in self.free_coords),
            tuple(-t for t in self.torsion_coords),
        )

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def is_identity(self) -> bool:
        return not any(self.free_coords) and not any(self.torsion_coords)

    def torsion_turns(self, selections: tuple[int, ...]) -> Fraction:
        """Exact torsion contribution to arg gamma(x), as a fraction of a turn."""
        total = Fraction(0)
        for t, c, m in zip(self.torsion_coords, selections, self.group.torsion_orders):
            total += Fraction(t * c, m)
        return total % 1


@dataclass(frozen=True)
class DualPoint:
    """A point of the compact dual group: torus angles plus residue selections."""

    group: GroupSpec
    torus_angles: tuple[float, ...] = ()
    torsion_selections: tuple[int, ...] = ()

    def __post_init__(self):
        angles = tuple(_reduce_angle(float(a)) for a in self.torus_angles)
        if len(angles) != self.group.free_rank:
            raise GroupMismatchError(
                f"expected {self.group.free_rank} torus angles, got {len(angles)}"
            )
        sel = tuple(int(c) % m for c, m in zip(self.torsion_selections, self.group.torsion_orders))
        if len(self.torsion_selections) != self.group.torsion_rank:
            raise GroupMismatchError(
                f"expected {self.group.torsion_rank} torsion selections,"
                f" got {len(self.torsion_selections)}"
            )
        object.__setattr__(self, "torus_angles", angles)
        object.__setattr__(self, "torsion_selections", sel)


def evaluate_arg(gamma: Character, x: DualPoint) -> float:
    """arg gamma(x) in [0, 2*pi).

    The torsion part is accumulated as an exact rational multiple of a turn
    before being floated, so purely torsion groups see no rounding noise.
    """
    _check_same_group(gamma, x)
    free = sum(a * theta for a, theta in zip(gamma.free_coords, x.torus_angles))
    turns = gamma.torsion_turns(x.torsion_selections)
    if free == 0.0:
        return _reduce_angle(TWO_PI * turns.numerator / turns.denominator)
    return _reduce_angle(free + TWO_PI * turns.numerator / turns.denominator)


def evaluate_turns(gamma: Character, x: DualPoint) -> Fraction:
    """Exact arg gamma(x) as a fraction of a turn; purely torsion groups only."""
    _check_same_group(gamma, x)
    if gamma.group.free_rank != 0:
        raise ValueError("exact evaluation requires a purely torsion group")
    return gamma.torsion_turns(x.torsion_selections)


@dataclass(frozen=True)
class CharacterSet:
    """A finite set of distinct characters in canonical (lexicographic) order."""

    group: GroupSpec
    elements: tuple[Character, ...]

    def __post_init__(self):
        elems = tuple(sorted(self.elements, key=lambda g: g.coords))
        if not elems:
            raise ValueError("character set must be nonempty")
        for g in elems:
            if g.group != self.group:
                raise GroupMismatchError("character from a different group")
        for a, b in zip(elems, elems[1:]):
            if a.coords == b.coords:
                raise ValueError(f"duplicate character {a.coords}")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def of_integers(cls, values) -> "CharacterSet":
        """Convenience constructor for subsets of Z."""
        group = GroupSpec(free_rank=1)
        return cls(group, tuple(Character(group, (int(v),), ()) for v in values))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i) -> Character:
        return self.elements[i]

    def __contains__(self, gamma: Character) -> bool:
        return any(g.coords == gamma.coords for g in self.elements)

    def negated(self) -> "CharacterSet":
        return CharacterSet(self.group, tuple(-g for g in self.elements))

    def subset(self, indices) -> "CharacterSet":
        return CharacterSet(self.group, tuple(self.elements[i] for i in indices))
