"""tame_groups: one item per (group, representation, q) rung.

Each item closes the generators (grouprep), runs the tame engine
(massengine) and, for |G| <= 200, the involution check.  The rungs put
both engine paths to work: pair enumeration up to |G| = 1000 (S5, S6, B4,
L27) and the by-class path above it (S7, B5).  The seed only picks q among
primes in a fixed residue class modulo exp(G), which fixes m0 and every
power q^j mod exp(G); the work per rung and the masses do not change.
"""

from __future__ import annotations

import random

import oracle
from common import Item, class_functions_of
from massdual import (
    ClassFunction,
    FiniteGroup,
    MonomialMatrix,
    TameScenario,
    direct_sum,
    group_closure,
    perm_from_cycles,
    permutation_matrix,
    tame_involution_check,
    tame_total_masses,
)

INVOLUTION_MAX_ORDER = 200


def _cycle(n):
    return [list(range(1, n + 1))]


def symmetric_doubled(n):
    """S_n on n points, permutation matrix doubled (dim 2n)."""
    gens = [perm_from_cycles(n, [[1, 2]]), perm_from_cycles(n, _cycle(n))]
    mats = [direct_sum(permutation_matrix(g), permutation_matrix(g)) for g in gens]
    return gens, mats


def hyperoctahedral(n):
    """B_n on the 2n signed basis vectors (+e_i is point i, -e_i point n+i),
    with its signed monomial matrices of root order 2."""

    def signed(images, signs):
        perm = [0] * (2 * n)
        for j, (t, s) in enumerate(zip(images, signs)):
            perm[j], perm[n + j] = (n + t, t) if s else (t, n + t)
        return tuple(perm), MonomialMatrix(tuple(images), tuple(signs), 2)

    plain = [0] * n
    flip = [1] + [0] * (n - 1)
    pairs = [
        signed([1, 0] + list(range(2, n)), plain),
        signed([(j + 1) % n for j in range(n)], plain),
        signed(list(range(n)), flip),
    ]
    return [p for p, _ in pairs], [m for _, m in pairs]


def on_seven_points(cycle_lists):
    gens = [perm_from_cycles(7, c) for c in cycle_lists]
    return gens, [permutation_matrix(g) for g in gens]


SEVEN_CYCLE = [[1, 2, 3, 4, 5, 6, 7]]
TIMES_TWO = [[2, 3, 5], [4, 7, 6]]  # x -> 2x on Z/7, points 1..7 = 0..6


def cyclic_seven_weights():
    """C7 acting diagonally with weights (1, 2, 4) on zeta_7."""
    return [perm_from_cycles(7, SEVEN_CYCLE)], [MonomialMatrix((0, 1, 2), (1, 2, 4), 7)]


# name, generator builder, |G|, exp(G), residue of q mod exp(G).  The large
# rungs take q = 1 mod exp(G) (m0 = 1), which keeps a pass near 5 s so a run
# holds several passes; the small ones keep m0 > 1 (S4, B3, F21: 2; C7: 6),
# so the engine still sums over more than one residue class
RUNGS = [
    ("S4", lambda: symmetric_doubled(4), 24, 12, 5),
    ("S5", lambda: symmetric_doubled(5), 120, 60, 1),
    ("S6", lambda: symmetric_doubled(6), 720, 60, 1),
    ("S7", lambda: symmetric_doubled(7), 5040, 420, 1),
    ("B3", lambda: hyperoctahedral(3), 48, 12, 5),
    ("B4", lambda: hyperoctahedral(4), 384, 24, 1),
    ("B5", lambda: hyperoctahedral(5), 3840, 120, 1),
    ("L27", lambda: on_seven_points([SEVEN_CYCLE, TIMES_TWO, [[1, 2], [3, 6]]]), 168, 84, 1),
    ("F21", lambda: on_seven_points([SEVEN_CYCLE, TIMES_TWO]), 21, 21, 13),
    ("C7", cyclic_seven_weights, 7, 7, 3),
]

PRIME_CHOICES = 8

LAYER_METRICS = (
    [f"grouprep.closure.{name}_s" for name, *_ in RUNGS]
    + ["grouprep.classes_s", "grouprep.weights_s", "grouprep.elements"]
    + [f"massengine.tame.{name}_s" for name, *_ in RUNGS]
    + [f"massengine.involution.{name}_s" for name, _, size, *_ in RUNGS if size <= INVOLUTION_MAX_ORDER]
    + ["massengine.residue_classes"]
)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, int(n**0.5) + 1))


def primes_in_class(residue: int, modulus: int, count: int) -> list[int]:
    out, n = [], residue
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += modulus
    return out


class TameGroups:
    digests_any_seed = True  # the digests hold no q, so every seed must match them
    spawns = False

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.items = []
        self.spec = {}
        for name, build, size, exponent, residue in RUNGS:
            q = rng.choice(primes_in_class(residue, exponent, PRIME_CHOICES))
            gens, mats = build()
            self.spec[name] = (gens, mats, q, size)
            self.items.append(Item(name, self._runner(name, gens, mats, q, size)))

    @staticmethod
    def _runner(name, gens, mats, q, size):
        def run(tr):
            group, rep = tr.call(f"grouprep.closure.{name}", group_closure, gens, mats)
            scenario = TameScenario(group, rep, q)
            masses = tr.call(f"massengine.tame.{name}", tame_total_masses, scenario)
            involution = None
            if size <= INVOLUTION_MAX_ORDER:
                involution = tr.call(
                    f"massengine.involution.{name}", tame_involution_check, scenario
                )
            return {"group": group, "rep": rep, "q": q, "masses": masses, "involution": involution}

        return run

    def canon(self, item, out):
        # q is left out: every q in the rung's residue class gives these masses
        return {
            "rung": item.id,
            "order": len(out["group"]),
            "mass_v": out["masses"].mass_v.to_json(),
            "mass_w": out["masses"].mass_w.to_json(),
            "involution": out["involution"],
        }

    def class_functions(self, out):
        return class_functions_of(out["masses"])

    def side(self, tr, item, out):
        group, rep = out["group"], out["rep"]
        tr.call("grouprep.classes", FiniteGroup(group.degree, group.elements).conjugacy_classes)
        tr.call("grouprep.weights", lambda: [rep.tame_weights(g) for g in group])
        tr.count("grouprep.elements", len(group))
        tr.count("massengine.residue_classes", oracle.residue_classes(group.elements, out["q"]))

    def check(self, item, doc):
        gens, mats, q, size = self.spec[item.id]
        mass_v = ClassFunction.from_json(doc["mass_v"])
        mass_w = ClassFunction.from_json(doc["mass_w"])
        if doc["order"] != size:
            return f"|G| = {doc['order']}, want {size}"
        if mass_w.dual() != mass_v:
            return "D(mass_w) != mass_v"
        if size <= INVOLUTION_MAX_ORDER:
            if doc["involution"] is not True:
                return "involution check failed"
            matrices = oracle.closure(gens, [(m.perm, m.exps) for m in mats], mats[0].root_order)
            if len(matrices) != size:
                return f"oracle closure has {len(matrices)} elements, want {size}"
            e = mats[0].root_order
            mv, mw = oracle.pair_count_masses(matrices, lambda g: (*matrices[g], e), q)
            if (mv, mw) != (mass_v, mass_w):
                return "pair-count oracle disagrees"
        return None
