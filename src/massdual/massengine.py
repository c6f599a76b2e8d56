"""Total masses of local Galois representations.

Three independent engines live here.

Tame masses: for a residue field of order q^r coprime to |G|, the
continuous homomorphisms from the tame Galois group correspond to pairs
(g, h) in G^2 with h g h^(-1) = g^(q^r), and the total mass against weight
v is (1/|G|) * sum over pairs of q^(-r*v(g)); against w the exponent is
+r*w(g).  The number of h for a given g is |C_G(g)| when g^(q^r) is
conjugate to g and 0 otherwise, so each conjugacy class C with C^(q^r) = C
contributes exactly Q^(-v(C)) (resp. Q^(w(C))).  C -> C^q permutes the
classes, and C^(q^r) = C when r is a multiple of C's cycle length, so the
result is a ClassFunction with modulus the lcm of those cycle lengths.

Ramification profiles: wild cases enter declaratively, as finitely many
strata (count, v, w) plus geometric families indexed by a discriminant
exponent i, with affine forms a*i + b for the count exponent and weights.
Families are summed with cf_geometric_sum, so a family whose mass series
diverges yields Infinite rather than an analytic continuation.

Partition-indexed formulas: the mass of etale algebras of degree n (sum of
P(n, n-m) Q^(-m) against v, the mirror sum against w), the double-sum mass
refining it by discriminant and splitting data, and the Hilbert scheme
counts tied to them by #Hilb^n(A^2) = mass_v(n) * Q^(2n).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import DivergentSeries, InvalidParams, NotTame
from .qsym import (
    ClassFunction,
    Infinite,
    _frac,
    _json_frac,
    _json_int,
    cf_geometric_sum,
    frac_str,
    iroot,
    is_infinite,
)

MassValue = Union[ClassFunction, type(Infinite)]


class MassPair(namedtuple("MassPair", "mass_v mass_w")):
    """Masses of one scenario against the weights v and w."""

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return not (is_infinite(self.mass_v) or is_infinite(self.mass_w))

    def to_json(self) -> dict:
        def enc(m):
            return "infinite" if is_infinite(m) else m.to_json()

        return {"mass_v": enc(self.mass_v), "mass_w": enc(self.mass_w)}

    @classmethod
    def from_json(cls, obj: Mapping) -> "MassPair":
        return cls(mass_from_json(obj["mass_v"]), mass_from_json(obj["mass_w"]))


def mass_from_json(m) -> MassValue:
    """One side of a MassPair document: a ClassFunction document or "infinite"."""
    return Infinite if m == "infinite" else ClassFunction.from_json(m)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_BASES_EXACT_BELOW = 3317044064679887385961981  # Sorenson-Webster 2015


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41 below 3.3e24, where it is
    exact (Sorenson-Webster 2015); Baillie-PSW above."""
    if n < 2 or any(n % p == 0 for p in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    if n < _SMALL_BASES_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    return _bpsw(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat test of odd n > 2 to a base a that n does not divide."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 2 with Selfridge's parameters: D the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if iroot(n, 2) ** 2 == n:  # no such D exists
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return n == abs(d)
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = k * 2^s with k odd

    def half(x):
        return (x + n if x & 1 else x) // 2 % n

    # U_k, V_k and Q^k by doubling along the bits of k = (n + 1) >> s
    u, v, qk = 1, 1, q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _bpsw(n: int) -> bool:
    """Baillie-PSW (Baillie-Wagstaff 1980): a strong base-2 test and a
    strong Lucas test.  No composite is known to pass both."""
    if n < 3 or n % 2 == 0:
        return n == 2
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _is_prime_power(q: int) -> bool:
    """q = p^k for a prime p.  A small prime factor is divided out;
    otherwise q is an exact l-th power (l prime) of a prime power, or prime."""
    if q < 2:
        return False
    for p in _SMALL_PRIMES:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    for k in range(2, q.bit_length() // 5 + 1):  # every prime factor exceeds 2^5
        if _is_prime(k) and iroot(q, k) ** k == q:
            return _is_prime_power(iroot(q, k))
    return _is_prime(q)


class TameScenario(namedtuple("TameScenario", "group rep q")):
    """A FiniteGroup G with a MonomialRep over F_q, q coprime to |G|."""

    __slots__ = ()

    def __new__(cls, group, rep, q: int):
        if not _is_prime_power(q):
            raise ValueError(f"q = {q} is not a prime power")
        if math.gcd(q, len(group)) != 1:
            raise NotTame(f"residue characteristic of q = {q} divides |G| = {len(group)}")
        return super().__new__(cls, group, rep, q)


def _stable_classes(group, q: int) -> list[list[int]]:
    """For each residue class j = 0..m-1 of r, the indices of the conjugacy
    classes C with C^(q^j) = C, where m is the lcm of the cycle lengths of
    C -> C^q.  That map permutes the classes (one power per class), and
    C^(q^j) = C exactly when the length of C's cycle under it divides j."""
    frob = [group.class_index(group.power(g, q)) for g in group.class_representatives()]
    length = []  # each cycle is at most m long, so this walk is no longer than the answer
    for i, x in enumerate(frob):
        k = 1
        while x != i:
            x, k = frob[x], k + 1
        length.append(k)
    return [[i for i, c in enumerate(length) if j % c == 0] for j in range(math.lcm(*length))]


def _stable_weights(scenario: TameScenario) -> tuple[int, list[int], list[int], list[list[int]]]:
    """(n, v, w, stable): v and w of each class, read once per class (rho is a homomorphism),
    as int numerators over n, the lcm of their denominators, and _stable_classes."""
    weights = [scenario.rep.tame_weights(g)[:2] for g in scenario.group.class_representatives()]
    n = math.lcm(*(x.denominator for wt in weights for x in wt))
    v, w = ([x.numerator * (n // x.denominator) for x in side] for side in zip(*weights))
    return n, v, w, _stable_classes(scenario.group, scenario.q)


def _tame_masses(n: int, v: list[int], w: list[int], stable: list[list[int]]) -> MassPair:
    """Q^(-v(C)) and Q^(w(C)) for each stable class C, counted as ints over n."""
    sides = ([Counter([x[i] for i in s]) for s in stable] for x in ([-y for y in v], w))
    return MassPair(*(ClassFunction._from_int_polys(len(stable), n, side) for side in sides))


def _involutive(n: int, v: list[int], w: list[int], stable: list[list[int]]) -> bool:
    return all(sorted([v[i] for i in s]) == sorted([w[i] for i in s]) for s in stable)


def tame_total_masses(scenario: TameScenario, *, threads: int = 1, full_threshold: int = 1000) -> MassPair:
    """Total masses of the tame scenario, one residue class of r at a time.

    Each Frobenius-stable conjugacy class C contributes Q^(-v(C)) to mass_v
    and Q^(w(C)) to mass_w; the weights are computed once per class.
    threads and full_threshold are accepted for compatibility and ignored.
    """
    return _tame_masses(*_stable_weights(scenario))


def tame_involution_check(scenario: TameScenario) -> bool:
    """Check on every residue class that the sorted v(C^(-1)) equal the
    sorted w(C) over the stable conjugacy classes C.

    No inverse map is needed: (C^t)^(-1) = (C^(-1))^t, so C -> C^(-1)
    permutes the stable classes of each residue class, and the sorted
    v(C^(-1)) over them are the sorted v(C)."""
    return _involutive(*_stable_weights(scenario))


# ---------------------------------------------------------------------------
# Ramification profiles


class ProfileStratum(namedtuple("ProfileStratum", "count v w")):
    """Finitely many representations sharing one weight pair.

    count is a ClassFunction of r (a point count, so it should evaluate to
    nonnegative rationals); v and w are the shared weights, Fractions.
    """

    __slots__ = ()

    def __new__(cls, count: ClassFunction, v, w):
        v, w = _frac(v), _frac(w)
        for q0 in (2, 3, 4, 5):
            for r0 in (1, 2, 3):
                # a Decimal sample carries its precision in significant digits, so its sign is right
                if count.eval(q0, r0) < 0:
                    raise ValueError(f"stratum count is negative at q0={q0}, r0={r0}")
        return super().__new__(cls, count, v, w)


class GeometricFamily(namedtuple("GeometricFamily", "i0 i1 coeff count_exp v_exp w_exp")):
    """A family of strata indexed by i = i0, ..., i1 (i1 None means infinity).

    The stratum at index i counts coeff * Q^(count_a*i + count_b) points and
    carries weights v = v_a*i + v_b, w = w_a*i + w_b.  count_exp, v_exp and
    w_exp are the pairs (a, b), held as Fractions.
    """

    __slots__ = ()

    def __new__(cls, i0: int, i1: Optional[int], coeff: ClassFunction, count_exp, v_exp, w_exp):
        count_exp, v_exp, w_exp = (tuple(map(_frac, p)) for p in (count_exp, v_exp, w_exp))
        i0, i1 = _json_int(i0), None if i1 is None else _json_int(i1)
        if i1 is not None and i1 < i0:
            raise ValueError("family range is empty; use i1 >= i0 or drop the family")
        return super().__new__(cls, i0, i1, coeff, count_exp, v_exp, w_exp)


class RamificationProfile(namedtuple("RamificationProfile", "group_order strata families")):
    """Declarative description of a (possibly wild) mass computation:
    tuples of ProfileStrata and GeometricFamilies over a group of order
    group_order."""

    __slots__ = ()

    def __new__(cls, group_order: int, strata=(), families=()):
        if (group_order := _json_int(group_order)) < 1:
            raise InvalidParams("group_order must be a positive integer")
        return super().__new__(cls, group_order, tuple(strata), tuple(families))


def _profile_side(profile: RamificationProfile, weight: str, sign: int) -> MassValue:
    """Strata and families against one weight: sign * weight is the Q-exponent."""
    try:
        total = ClassFunction.zero()
        for s in profile.strata:
            total = total + s.count * ClassFunction.monomial(sign * getattr(s, weight))
        for fam in profile.families:
            (ca, cb), (xa, xb) = fam.count_exp, getattr(fam, f"{weight}_exp")
            a, b = ca + sign * xa, cb + sign * xb
            total = total + cf_geometric_sum(fam.coeff, a, b, fam.i0, fam.i1)
    except DivergentSeries:
        return Infinite
    return total * Fraction(1, profile.group_order)


def profile_total_masses(profile: RamificationProfile) -> MassPair:
    """Sum strata and families against both weights; divergence means Infinite."""
    return MassPair(_profile_side(profile, "v", -1), _profile_side(profile, "w", 1))


def builtin_profile(name: str, n: Optional[int] = None, m: Optional[int] = None) -> RamificationProfile:
    """Built-in quadratic ramification profiles.

    quad_char0_sigma: residue characteristic zero analogue, weight scale n.
    quad_char2_sigma: the order-2 wild family in residue characteristic 2.
    quad_char2_upsilon: the two-parameter (m, n) variant; needs both m and n.
    """
    two_qm1 = ClassFunction.poly({1: 2, 0: -2})  # 2(Q - 1)
    unramified = (ProfileStratum(ClassFunction.constant(1), 0, 0),) * 2

    def char2(i0, i1, v_exp, w_exp):
        return GeometricFamily(i0, i1, two_qm1, (1, -1), v_exp, w_exp)

    if name == "quad_char0_sigma":
        if n is None or n < 1:
            raise InvalidParams("quad_char0_sigma needs an integer n >= 1")
        return RamificationProfile(
            group_order=2,
            strata=unramified
            + (
                ProfileStratum(two_qm1, Fraction(n), 0),
                ProfileStratum(
                    ClassFunction.poly({1: 2}),
                    Fraction(3 * n, 2),
                    Fraction(-n, 2),
                ),
            ),
        )
    if name == "quad_char2_sigma":
        if n is None or n < 1:
            raise InvalidParams("quad_char2_sigma needs an integer n >= 1")
        families = (char2(1, None, (n, 0), (-n, n)),)
    elif name == "quad_char2_upsilon":
        if m is None or n is None or m < 0 or n < 1:
            raise InvalidParams(
                "quad_char2_upsilon needs integers m >= 0 and n >= 1"
            )
        families = (char2(1, m, (n, 0), (-n, n)),) if m >= 1 else ()
        families += (char2(m + 1, None, (n + 1, -m), (-n - 1, 1 + m + n)),)
    else:
        raise InvalidParams(f"unknown builtin profile {name!r}")
    return RamificationProfile(group_order=2, strata=unramified, families=families)


# ---------------------------------------------------------------------------
# Partition-indexed mass formulas


def _partition_numbers(n: int) -> list[int]:
    """p(0), ..., p(n) by Euler's pentagonal recurrence: p(m) is the signed sum
    of p(m - g) over the pentagonal numbers g = j(3j - 1)/2 and j(3j + 1)/2."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        j, g = 1, 1
        while g <= m:
            t = p[m - g] + (p[m - g - j] if g + j <= m else 0)
            p[m] += t if j % 2 else -t
            j, g = j + 1, g + 3 * j + 1
    return p


def _euler_pass(n: int, p: Optional[list[int]] = None) -> tuple[list[int], dict[int, int]]:
    """[P(n, 0), ..., P(n, n)], P(m, k) the partitions of m into exactly k parts, and given
    p(0..n) Kedlaya's {n - k: sum over j of P(j, k) * p(n - j)}, in O(n) memory by one pass of
    Euler's product prod 1/(1 - x^k) (Andrews, The Theory of Partitions, ch. 1): at step k, b[m]
    counts partitions of m <= n - k into parts <= k, so P(t + k, k) = b[t], and c, started at
    p(0..n), is [x^m] sum_j p(j) x^j prod_(i <= k) 1/(1 - x^i): Kedlaya's sum c[n - k], no products."""
    b, c, row, w = [1] + [0] * n, [] if p is None else p[: n + 1], [], {}
    for k in range(n + 1):
        if k:  # times 1/(1 - x^k), in place with m increasing
            for s in (b, c):
                del s[-1:]  # c is empty without p
                for m in range(k, len(s)):
                    s[m] += s[m - k]
        row.append(b[-1])
        if c:
            w[n - k] = c[-1]
    return row, w


def partition_count(n: int, k: Optional[int] = None) -> int:
    """Partitions of n, or partitions of n into exactly k parts."""
    if n < 0 or (k is not None and not 0 <= k <= n):
        return 0
    return _partition_numbers(n)[n] if k is None else _euler_pass(n)[0][k]


def bhargava_masses(n: int) -> MassPair:
    """Masses of degree-n etale algebras: sums of P(n, n-m) Q^(-+m)."""
    if n < 1:
        raise InvalidParams("n must be a positive integer")
    row = _euler_pass(n)[0]
    return MassPair(*(ClassFunction.poly({s * m: row[n - m] for m in range(n)}) for s in (-1, 1)))


def kedlaya_masses(n: int) -> MassPair:
    """The double-sum refinement: sum over j <= n and i <= j of
    P(j, i) * P(n - j) * Q^(i - n) against v, Q^(n - i) against w."""
    if n < 1:
        raise InvalidParams("n must be a positive integer")
    w = _euler_pass(n, _partition_numbers(n))[1]
    return MassPair(ClassFunction.poly({-e: c for e, c in w.items()}), ClassFunction.poly(w))


class _Strata(Sequence):
    """The ClassFunctions make(0), ..., make(n), each built when it is read."""

    def __init__(self, n: int, make):
        self._range, self._make = range(n + 1), make

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, m):
        return list(map(self._make, self._range[m])) if isinstance(m, slice) else self._make(self._range[m])

    def __eq__(self, other):  # as the lists it stands for, so equal HilbertCounts compare equal
        return list(self) == (list(other) if isinstance(other, _Strata) else other)


HilbertCounts = namedtuple("HilbertCounts", ["hilb_plane", "fiber", "c_strata", "d_strata"])


def hilbert_counts(n: int) -> HilbertCounts:
    """Point counts around Hilb^n of the plane.

    hilb_plane = sum_m P(n, n-m) Q^(2n-m); the punctual piece C_m has
    P(m) Q^m points, the graded piece D_m has sum_i P(m, i) Q^(m-i), and
    fiber = sum_j C_(n-j) * D_j recovers the count over a fixed fiber:
    its Q^(n-i) coefficient is the sum of P(n-j) * P(j, i), as in kedlaya_masses.
    c_strata and d_strata build C_m and D_m when they are read.
    """
    if n < 1:
        raise InvalidParams("n must be a positive integer")
    p = _partition_numbers(n)
    row, w = _euler_pass(n, p)
    hilb = ClassFunction.poly(dict(enumerate(row, n)))  # P(n, k) Q^(n + k)
    c_strata = _Strata(n, lambda m: ClassFunction.poly({m: p[m]}))
    d_strata = _Strata(n, lambda m: ClassFunction.poly(dict(enumerate(reversed(_euler_pass(m)[0])))))
    return HilbertCounts(hilb, ClassFunction.poly(w), c_strata, d_strata)


# ---------------------------------------------------------------------------
# profile serialization


def _exp_pair_json(pair) -> list:
    return [frac_str(pair[0]), frac_str(pair[1])]


def profile_to_json(profile: RamificationProfile) -> dict:
    return {
        "group_order": profile.group_order,
        "strata": [
            {
                "count": s.count.to_json(),
                "v": frac_str(s.v),
                "w": frac_str(s.w),
            }
            for s in profile.strata
        ],
        "families": [
            {
                "i0": f.i0,
                "i1": f.i1,
                "coeff": f.coeff.to_json(),
                "count_exp": _exp_pair_json(f.count_exp),
                "v_exp": _exp_pair_json(f.v_exp),
                "w_exp": _exp_pair_json(f.w_exp),
            }
            for f in profile.families
        ],
    }


def _stratum_from_json(s: Mapping) -> ProfileStratum:
    v, w, count = _json_frac(s["v"]), _json_frac(s["w"]), ClassFunction.from_json(s["count"])
    s.get("count")  # the count is checked as a whole: read it once more, after its parts
    return ProfileStratum(count, v, w)


def profile_from_json(obj: Mapping) -> RamificationProfile:
    # each record reads the value its constructor checks last (a stratum's count,
    # a family's i1), so an error is reported against that value
    strata = tuple(map(_stratum_from_json, obj.get("strata", ())))
    families = tuple(
        GeometricFamily(
            coeff=ClassFunction.from_json(f["coeff"]),
            **{key: tuple(map(_json_frac, f[key])) for key in ("count_exp", "v_exp", "w_exp")},
            i0=_json_int(f["i0"]),
            i1=f.get("i1"),
        )
        for f in obj.get("families", ())
    )
    return RamificationProfile(group_order=obj["group_order"], strata=strata, families=families)
