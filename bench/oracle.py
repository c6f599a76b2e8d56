"""Independent oracles for the exact output checks.

Nothing here imports massengine or grouprep: the pair counter, the tame
weights and the partition table are restated from their definitions, so
they stay a reference when the engines are rewritten.  Only qsym's
ClassFunction is used, to put oracle masses into canonical form.
"""

from __future__ import annotations

import math
from fractions import Fraction

from massdual import ClassFunction

Perm = tuple


def compose(a: Perm, b: Perm) -> Perm:
    """Apply b first, then a."""
    return tuple(a[i] for i in b)


def cycles(a: Perm) -> list[list[int]]:
    seen = [False] * len(a)
    out = []
    for s in range(len(a)):
        if not seen[s]:
            cyc = []
            i = s
            while not seen[i]:
                seen[i] = True
                cyc.append(i)
                i = a[i]
            out.append(cyc)
    return out


def order(a: Perm) -> int:
    return math.lcm(*(len(c) for c in cycles(a)))


def power(a: Perm, k: int) -> Perm:
    out = tuple(range(len(a)))
    for _ in range(k % order(a)):
        out = compose(out, a)
    return out


def multiplicative_order(q: int, e: int) -> int:
    """Order of q modulo e (1 when e = 1)."""
    if e == 1:
        return 1
    k, acc = 1, q % e
    while acc != 1:
        acc = acc * q % e
        k += 1
    return k


def residue_classes(elements, q: int) -> int:
    """m0: the order of q modulo the group exponent."""
    return multiplicative_order(q, math.lcm(*(order(g) for g in elements)))


def tame_weights(perm: Perm, exps: tuple, root_order: int) -> tuple[Fraction, Fraction]:
    """(v, w) of a monomial matrix whose column j holds zeta^exps[j] in row perm[j].

    A cycle of length c with exponent sum s has eigenvalue exponents
    (s + e*t)/(c*e) mod 1, t = 0..c-1; v sums them, w = (#nonzero) - v.
    """
    e = root_order
    fr = []
    for cyc in cycles(perm):
        c = len(cyc)
        s = sum(exps[j] for j in cyc)
        fr.extend(Fraction((s + e * t) % (c * e), c * e) for t in range(c))
    v = sum(fr, Fraction(0))
    return v, sum(1 for x in fr if x) - v


def closure(gens, mats, root_order: int) -> dict:
    """All elements of <gens> with their monomial matrices, by breadth-first
    search; mats[i] = (perm, exps) of generator i.  Products follow the
    convention that column j of A*B holds zeta^(A.exps[B.perm[j]] + B.exps[j])."""

    def mat_mul(a, b):
        (pa, ea), (pb, eb) = a, b
        return compose(pa, pb), tuple((ea[pb[j]] + eb[j]) % root_order for j in range(len(pb)))

    ident = tuple(range(len(gens[0])))
    dim = len(mats[0][0])
    out = {ident: (tuple(range(dim)), (0,) * dim)}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s, m in zip(gens, mats):
                h = compose(g, s)
                if h not in out:
                    out[h] = mat_mul(out[g], m)
                    nxt.append(h)
        frontier = nxt
    return out


def pair_count_masses(elements, matrix_of, q: int) -> tuple[ClassFunction, ClassFunction]:
    """Tame masses by brute force over pairs (g, h) with h g h^-1 = g^(q^r).

    matrix_of(g) returns (perm, exps, root_order) of g's monomial matrix.
    """
    elements = list(elements)
    n = len(elements)
    e = math.lcm(*(order(g) for g in elements))
    m0 = multiplicative_order(q, e)
    weights = {g: tame_weights(*matrix_of(g)) for g in elements}
    polys_v, polys_w = [], []
    for j in range(m0):
        t = pow(q, j, e)
        pv: dict[Fraction, Fraction] = {}
        pw: dict[Fraction, Fraction] = {}
        for g in elements:
            target = power(g, t)
            hits = sum(1 for h in elements if compose(h, g) == compose(target, h))
            if hits:
                v, w = weights[g]
                pv[-v] = pv.get(-v, Fraction(0)) + Fraction(hits, n)
                pw[w] = pw.get(w, Fraction(0)) + Fraction(hits, n)
        polys_v.append(pv)
        polys_w.append(pw)
    return (
        ClassFunction.from_class_polys(m0, polys_v),
        ClassFunction.from_class_polys(m0, polys_w),
    )


def partition_table(n: int) -> list[list[int]]:
    """P[m][k] = partitions of m into exactly k parts, 0 <= k <= m <= n."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            table[m][k] = table[m - 1][k - 1] + (table[m - k][k] if m - k >= k else 0)
    return table


def q_pow(log2_q0: int, exp, r: int) -> Fraction:
    """(q^r)^exp at q = 2^log2_q0, exact; the exponent of 2 must be an integer."""
    k = Fraction(exp) * log2_q0 * r
    if k.denominator != 1:
        raise ValueError(f"Q^{exp} at q = 2^{log2_q0}, r = {r} is irrational")
    return Fraction(2) ** k.numerator
