"""Certified interpolation-constant brackets, end to end.

Walks through the basic objects: character sets, target maps, the inner
best-approximation search, and the alpha / kappa brackets.
"""
import math

from kronset import (
    Character,
    CharacterSet,
    GroupSpec,
    TargetMap,
    alpha,
    alpha_n,
    best_point,
)

# --- a two-element set in Z -------------------------------------------------
# The worst continuous target for {1, 2} is (0, pi); the best dual point
# sits at theta = pi/3 and the constant equals pi/3.
E = CharacterSet.of_integers([1, 2])
phi = TargetMap.from_angles(E, [0.0, math.pi])
point, bracket = best_point(E, phi)
print("best point for target (0, pi):", point.torus_angles)
print("error bracket:", (bracket.lower, bracket.upper))

res = alpha(E)
print("alpha({1,2}) bracket:", (res.alpha.lower, res.alpha.upper))
print("   expected pi/3 =", math.pi / 3)
print("kappa bracket:", res.kappa)

# --- roots-grid variants ----------------------------------------------------
# Restricting targets to the n-th-roots grid gives the graded constants;
# they climb toward the continuous value as the grid refines.
for n in (2, 4, 8, 16):
    rung = alpha_n(E, n)
    print(f"alpha_{n:<2}: [{rung.alpha.lower:.6f}, {rung.alpha.upper:.6f}]"
          f"  worst target {rung.worst_target.grid_indices}")

# --- a purely torsion group: everything is exact ----------------------------
g = GroupSpec(0, (2, 2, 2))
cube = CharacterSet(g, tuple(
    Character(g, (), c) for c in [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)]
))
flip = TargetMap.from_grid(cube, 2, [0, 0, 1, 0])  # pi on the (1,0,1) character
point, bracket = best_point(cube, flip)
print("\ncube obstruction target error:", bracket.upper, "== pi:", bracket.upper == math.pi)
print("as a fraction of a turn:", bracket.exact_turns)
print("chordal constant:", bracket.chordal()[1])

# --- the identity character forces the maximum ------------------------------
res0 = alpha(CharacterSet.of_integers([0]))
print("\nalpha({0}):", (res0.alpha.lower, res0.alpha.upper), "== pi exactly")
