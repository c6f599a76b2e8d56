import json
import math
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from massdual import (
    ClassFunction,
    GeometricFamily,
    InvalidParams,
    MassPair,
    MonomialMatrix,
    MonomialRep,
    NotTame,
    ProfileStratum,
    Q,
    RamificationProfile,
    TameScenario,
    bhargava_masses,
    builtin_profile,
    group_closure,
    hilbert_counts,
    is_infinite,
    kedlaya_masses,
    partition_count,
    perm_from_cycles,
    permutation_rep,
    profile_from_json,
    profile_to_json,
    profile_total_masses,
    tame_involution_check,
    tame_total_masses,
)
from massdual import grouprep
from massdual.grouprep import perm_inv, perm_mul, perm_order
from massdual.massengine import (
    _bpsw,
    _euler_pass,
    _is_prime,
    _is_prime_power,
    _partition_numbers,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
)
from massdual.qsym import Infinite
from massdual.verify import tame_catalog

F = Fraction

one = ClassFunction.constant(1)


def enumerate_partitions(n):
    """Partitions of n as decreasing tuples, by direct recursion."""
    def rec(left, maxp, acc):
        if left == 0:
            yield tuple(acc)
            return
        for p in range(min(left, maxp), 0, -1):
            acc.append(p)
            yield from rec(left - p, p, acc)
            acc.pop()

    yield from rec(n, n, [])


# -- partition formulas ------------------------------------------------------


def partition_table(n):
    """P[m][k] = partitions of m into exactly k parts, 0 <= k <= m <= n, row by
    row: those with a part 1 plus those with all parts >= 2 (O(n^2) memory)."""
    table = [[1]]
    for m in range(1, n + 1):
        row = [0] * (m + 1)
        for k in range(1, m + 1):
            row[k] = table[m - 1][k - 1] + (table[m - k][k] if 2 * k <= m else 0)
        table.append(row)
    return table


def check_formulas_against_the_table(n):
    table = partition_table(n)
    parts = [sum(row) for row in table]
    row = table[n]
    assert _partition_numbers(n) == parts
    assert [partition_count(n, k) for k in range(n + 1)] == row
    assert partition_count(n) == parts[n]
    assert bhargava_masses(n) == MassPair(
        ClassFunction.poly({-m: row[n - m] for m in range(n)}), ClassFunction.poly({m: row[n - m] for m in range(n)})
    )
    # Kedlaya's w[n - i] = sum over j of P(j, i) * p(n - j)
    w = dict.fromkeys(range(n + 1), 0)
    for j in range(n + 1):
        for i, c in enumerate(table[j]):
            w[n - i] += c * parts[n - j]
    assert _euler_pass(n, parts) == (row, w)
    assert kedlaya_masses(n) == MassPair(ClassFunction.poly({-e: c for e, c in w.items()}), ClassFunction.poly(w))
    counts = hilbert_counts(n)
    assert counts.hilb_plane == ClassFunction.poly({2 * n - m: row[n - m] for m in range(n + 1)})
    assert counts.fiber == ClassFunction.poly(w)
    assert len(counts.c_strata) == len(counts.d_strata) == n + 1
    for m in range(n + 1):
        assert counts.c_strata[m] == ClassFunction.poly({m: parts[m]})
        assert counts.d_strata[m] == ClassFunction.poly({m - i: c for i, c in enumerate(table[m]) if c})


def test_formulas_match_the_table_for_every_n_up_to_60():
    for n in range(1, 61):
        check_formulas_against_the_table(n)


@settings(max_examples=5, deadline=None)
@given(st.integers(61, 300))
@example(300)
def test_formulas_match_the_table_up_to_300(n):
    check_formulas_against_the_table(n)


def test_hilbert_strata_are_sequences_built_when_read():
    counts = hilbert_counts(4)
    d = [ClassFunction.poly({m - i: c for i, c in enumerate(row) if c}) for m, row in enumerate(partition_table(4))]
    assert list(counts.d_strata) == d and counts.d_strata[1:4] == d[1:4] and counts.d_strata[::-2] == d[::-2]
    assert counts.d_strata == d and counts == hilbert_counts(4) and counts != hilbert_counts(5)
    assert counts.d_strata[-1] == d[4] and counts.c_strata[-5] == one
    assert d[2] in counts.d_strata and counts.d_strata.index(d[3]) == 3
    with pytest.raises(IndexError):
        counts.c_strata[5]
    with pytest.raises(IndexError):
        counts.d_strata[-6]


def test_partition_count_against_enumeration():
    for n in range(13):
        parts = list(enumerate_partitions(n))
        assert partition_count(n) == len(parts)
        for k in range(n + 2):
            assert partition_count(n, k) == sum(1 for p in parts if len(p) == k)


def test_partition_count_large_n_in_a_fresh_table():
    # iterative, so no recursion limit and no dependence on earlier calls
    assert partition_count(500) == 2300165032574323995027
    assert partition_count(500, 1) == partition_count(500, 500) == 1
    assert partition_count(500, 2) == 250
    assert partition_count(5, 6) == partition_count(5, -1) == 0


def test_partition_count_known_values():
    assert partition_count(10) == 42
    assert partition_count(50) == 204226
    assert partition_count(7, 3) == 4
    assert partition_count(0) == 1
    assert partition_count(-1) == 0


def test_bhargava_small_cases():
    assert bhargava_masses(1) == MassPair(one, one)
    assert bhargava_masses(2) == MassPair(1 + 1 / Q, Q + 1)
    m3 = bhargava_masses(3)
    assert m3.mass_v == ClassFunction.poly({0: 1, -1: 1, -2: 1})
    assert m3.mass_w == ClassFunction.poly({2: 1, 1: 1, 0: 1})
    with pytest.raises(InvalidParams):
        bhargava_masses(0)


def test_kedlaya_small_cases():
    assert kedlaya_masses(1) == MassPair(1 + 1 / Q, Q + 1)
    m2 = kedlaya_masses(2)
    assert m2.mass_v == ClassFunction.poly({0: 1, -1: 2, -2: 2})
    assert m2.mass_w == ClassFunction.poly({0: 1, 1: 2, 2: 2})
    with pytest.raises(InvalidParams):
        kedlaya_masses(0)


def test_hilbert_strata_pieces():
    counts = hilbert_counts(3)
    assert counts.hilb_plane == ClassFunction.poly({6: 1, 5: 1, 4: 1})
    assert counts.c_strata[2] == ClassFunction.poly({2: 2})
    assert counts.d_strata[2] == Q + 1
    assert counts.c_strata[0] == one


def test_hilbert_identities():
    for n in range(1, 11):
        counts = hilbert_counts(n)
        assert counts.hilb_plane == bhargava_masses(n).mass_v * Q ** (2 * n)
        assert counts.fiber == kedlaya_masses(n).mass_w


# -- tame enumeration --------------------------------------------------------


def z3_plane():
    z = perm_from_cycles(3, [[1, 2, 3]])
    return group_closure([z], [MonomialMatrix((0, 1), (1, 1), 3)])


def test_tame_z3_split_case():
    group, rep = z3_plane()
    masses = tame_total_masses(TameScenario(group, rep, 7))
    assert masses.mass_v == ClassFunction.poly({0: 1, F(-2, 3): 1, F(-4, 3): 1})
    assert masses.mass_w == ClassFunction.poly({0: 1, F(2, 3): 1, F(4, 3): 1})


def test_tame_z3_inert_case_has_two_residue_classes():
    group, rep = z3_plane()
    masses = tame_total_masses(TameScenario(group, rep, 2))
    assert masses.mass_v == ClassFunction.from_class_polys(
        2, [{0: 1, F(-2, 3): 1, F(-4, 3): 1}, {0: 1}]
    )
    assert masses.mass_w == ClassFunction.from_class_polys(
        2, [{0: 1, F(2, 3): 1, F(4, 3): 1}, {0: 1}]
    )


def test_tame_matches_partition_formula():
    t = perm_from_cycles(2, [[1, 2]])
    group, _ = group_closure([t])
    scenario = TameScenario(group, permutation_rep(group, 2), 3)
    assert tame_total_masses(scenario) == bhargava_masses(2)


def test_tame_enumeration_paths_agree():
    group, rep = z3_plane()
    scenario = TameScenario(group, rep, 2)
    base = tame_total_masses(scenario)
    assert tame_total_masses(scenario, full_threshold=1) == base
    assert tame_total_masses(scenario, threads=3) == base
    assert tame_total_masses(scenario, threads=2, full_threshold=1) == base


def test_tame_involution():
    group, rep = z3_plane()
    assert tame_involution_check(TameScenario(group, rep, 2))
    assert tame_involution_check(TameScenario(group, rep, 7))


def pair_count_oracle(scenario):
    """Masses and involution verdict by enumerating every pair (g, h) with
    h g h^(-1) = g^t, t = q^j mod exp(G), one residue class j at a time."""
    group, rep, q = scenario.group, scenario.rep, scenario.q
    e = math.lcm(*(perm_order(g) for g in group))
    m0 = next(k for k in range(1, e + 1) if pow(q, k, e) == 1 % e)
    polys_v, polys_w, involution = [], [], True
    for j in range(m0):
        t = pow(q, j, e)
        pairs = set()
        for g in group:
            target = group.identity
            for _ in range(t):
                target = perm_mul(target, g)
            for h in group:
                if perm_mul(perm_mul(h, g), perm_inv(h)) == target:
                    pairs.add((g, h))
        pv, pw = {}, {}
        for g, _ in pairs:
            wt = rep.tame_weights(g)
            pv[-wt.v] = pv.get(-wt.v, 0) + F(1, len(group))
            pw[wt.w] = pw.get(wt.w, 0) + F(1, len(group))
        polys_v.append(pv)
        polys_w.append(pw)
        involution &= all((perm_inv(g), h) in pairs for g, h in pairs)
        involution &= sorted(rep.tame_weights(perm_inv(g)).v for g, _ in pairs) == sorted(
            rep.tame_weights(g).w for g, _ in pairs
        )
    masses = MassPair(
        ClassFunction.from_class_polys(m0, polys_v),
        ClassFunction.from_class_polys(m0, polys_w),
    )
    return masses, involution


def symmetric_doubled(n, q):
    group, _ = group_closure(
        [perm_from_cycles(n, [[1, 2]]), perm_from_cycles(n, [list(range(1, n + 1))])]
    )
    return TameScenario(group, permutation_rep(group, 2), q)


def frobenius21(q):
    """x -> x + 1 and x -> 2x on Z/7.  Squaring swaps its two classes of
    elements of order 3, while every class of S_n is fixed by every t."""
    group, _ = group_closure(
        [perm_from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]]), perm_from_cycles(7, [[2, 3, 5], [4, 7, 6]])]
    )
    return TameScenario(group, permutation_rep(group), q)


ORACLE_SCENARIOS = tame_catalog() + [
    # exp(S4) = 12: q = 5, 7 give two residue classes, q = 13, 25 one
    *((f"S4-doubled-q{q}", symmetric_doubled(4, q)) for q in (5, 7, 13, 25)),
    # exp(S5) = 60: q = 7 gives four residue classes, q = 11 two, q = 61 one
    *((f"S5-doubled-q{q}", symmetric_doubled(5, q)) for q in (7, 11, 61)),
    # exp(F21) = 21: q = 2 gives six residue classes
    ("F21-q2", frobenius21(2)),
]


@pytest.mark.parametrize("name,scenario", ORACLE_SCENARIOS, ids=[n for n, _ in ORACLE_SCENARIOS])
def test_class_engine_matches_pair_count_oracle(name, scenario):
    masses, involution = pair_count_oracle(scenario)
    assert involution
    assert tame_total_masses(scenario) == masses
    assert tame_involution_check(scenario) is involution


def per_residue_masses(scenario):
    """Masses from the definition, one residue class j of r at a time: the
    class of g contributes when g^t, t = q^j mod exp(G), lies in it again."""
    group, rep, q = scenario.group, scenario.rep, scenario.q
    reps = [c[0] for c in group.conjugacy_classes()]
    e = math.lcm(*(perm_order(g) for g in reps))
    m0 = next(k for k in range(1, e + 1) if pow(q, k, e) == 1 % e)
    polys_v, polys_w = [], []
    for j in range(m0):
        stable = [g for i, g in enumerate(reps) if group.class_index(group.power(g, pow(q, j, e))) == i]
        polys_v.append(Counter(-rep.tame_weights(g).v for g in stable))
        polys_w.append(Counter(rep.tame_weights(g).w for g in stable))
    masses = MassPair(ClassFunction.from_class_polys(m0, polys_v), ClassFunction.from_class_polys(m0, polys_w))
    return m0, masses


def cyclic_101():
    """C_101 acting with weights (1, 2, 4) on zeta_101: 101 classes."""
    p = 101
    return group_closure(
        [perm_from_cycles(p, [list(range(1, p + 1))])], [MonomialMatrix((0, 1, 2), (1, 2, 4), p)]
    )


def count_calls(monkeypatch, owner, name):
    """The argument tuples of every call to owner.name (self first for a method)."""
    calls, f = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or f(*args))
    return calls


def count_tame_work(monkeypatch):
    """Calls of the cycle rotation that takes a power (FiniteGroup.power and the
    Frobenius class map both use it), the weight reader and the cycle walks that
    give element orders, each as a list of argument tuples."""
    return {
        "power": count_calls(monkeypatch, grouprep, "_rotate"),
        "weights": count_calls(monkeypatch, MonomialRep, "_tame_ints"),
        "order": count_calls(monkeypatch, grouprep, "perm_order"),
        "cycles": count_calls(monkeypatch, grouprep, "perm_cycles"),
    }


def test_tame_engine_takes_one_power_per_class(monkeypatch):
    # C_101 with q = 2, a primitive root mod 101: 101 classes, m0 = 100, and
    # Frobenius moves the 100 nontrivial classes round one cycle; taking a
    # power per class and residue costs m0 * 101 powers and grows as p^3.
    # Per class an engine call takes one power, its Frobenius image, and reads
    # its weights once; the period is read off the Frobenius cycles
    p, q = 101, 2
    group, rep = cyclic_101()
    scenario = TameScenario(group, rep, q)
    m0, expected = per_residue_masses(scenario)
    assert m0 == p - 1 and len(group.conjugacy_classes()) == p

    calls = count_tame_work(monkeypatch)
    for engine in (lambda: tame_total_masses(scenario) == expected, lambda: tame_involution_check(scenario)):
        assert engine()
        assert 0 < len(calls["power"]) <= p and len(calls["weights"]) <= p
        assert all(m == q for *_, m in calls["power"])
        for c in calls.values():
            c.clear()


def test_tame_engine_takes_one_element_order_per_class(monkeypatch):
    # the period is the lcm of the Frobenius cycle lengths, so no engine call on
    # C_101 (q = 2) takes the order of a class (exp(G) for the period took one per
    # class) or decomposes one into a list of cycles: one power and one weight
    # reading per class, each walking the cycles itself
    group, rep = cyclic_101()
    scenario = TameScenario(group, rep, 2)
    classes = len(group.conjugacy_classes())
    calls = count_tame_work(monkeypatch)
    for engine in (tame_total_masses, tame_involution_check):
        engine(scenario)
        assert 0 < len(calls["power"]) <= classes and len(calls["weights"]) <= classes
        assert all(m == 2 for *_, m in calls["power"])
        assert calls["order"] == calls["cycles"] == []
        for c in calls.values():
            c.clear()


def hyperoctahedral3():
    """B3 on the six signed basis vectors (+e_i is point i, -e_i point i + 3)."""
    gens = [
        perm_from_cycles(6, [[1, 2], [4, 5]]),
        perm_from_cycles(6, [[1, 2, 3], [4, 5, 6]]),
        perm_from_cycles(6, [[1, 4]]),
    ]
    mats = [
        MonomialMatrix((1, 0, 2), (0, 0, 0), 2),
        MonomialMatrix((1, 2, 0), (0, 0, 0), 2),
        MonomialMatrix((0, 1, 2), (1, 0, 0), 2),
    ]
    return group_closure(gens, mats)


EXACTNESS_GROUPS = {
    "S4-doubled": lambda: symmetric_doubled(4, 5)[:2],
    "B3": hyperoctahedral3,
    "F21": lambda: frobenius21(2)[:2],
    "C7": lambda: group_closure(
        [perm_from_cycles(7, [list(range(1, 8))])], [MonomialMatrix((0, 1, 2), (1, 2, 4), 7)]
    ),
}


def prime_at_least(start, r, e):
    """The least prime p >= start with p = r mod e; one exists when gcd(r, e) = 1."""
    p = start + (r - start) % e
    while p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += e
    return p


@pytest.mark.parametrize("name", list(EXACTNESS_GROUPS))
@given(start=st.integers(2, 10**6), k=st.integers(1, 3))
@settings(max_examples=8, deadline=None)
def test_tame_masses_are_exact_for_every_residue_of_q(name, start, k):
    # every unit residue r of q mod exp(G) as a prime p = r, and the prime power
    # p^k; a prime dividing |G| divides exp(G), so q is coprime to |G|
    group, rep = EXACTNESS_GROUPS[name]()
    e = group.exponent()
    for r in (r for r in range(e) if math.gcd(r, e) == 1):
        p = prime_at_least(start, r, e)
        for q in (p, p**k):
            scenario = TameScenario(group, rep, q)
            assert tame_total_masses(scenario) == per_residue_masses(scenario)[1]
            assert tame_involution_check(scenario)


class ShiftedV(MonomialRep):
    """A representation whose v is 1 too large away from the identity: V is
    2e larger and a is 1 larger, so that w = a - v is unchanged."""

    def _tame_ints(self, g):
        v, a = super()._tame_ints(g)
        return (v, a) if g == tuple(range(len(g))) else (v + 2 * self.root_order, a + 1)


@pytest.mark.parametrize(
    "scenario",
    [TameScenario(*z3_plane(), 2), TameScenario(*z3_plane(), 7), symmetric_doubled(4, 5), frobenius21(2)],
    ids=["Z3-q2", "Z3-q7", "S4-doubled-q5", "F21-q2"],
)
def test_involution_check_fails_when_v_and_w_do_not_match(scenario):
    assert tame_involution_check(scenario)
    rep = scenario.rep
    shifted = TameScenario(scenario.group, ShiftedV(rep.dim, rep.root_order, rep.matrices), scenario.q)
    assert not tame_involution_check(shifted)


def test_prime_power_test_is_fast_and_exact():
    start = time.perf_counter()
    assert _is_prime_power(10**18 + 3)  # prime; trial division did not finish
    assert not _is_prime_power((10**9 + 7) * (10**9 + 9))
    assert _is_prime_power((2**61 - 1) ** 3)
    assert not _is_prime_power((2**61 - 1) * (2**31 - 1))
    assert _is_prime_power(2**127) and _is_prime_power(3**80)
    assert not _is_prime_power(10**18) and not _is_prime_power(2**64 + 1)
    assert time.perf_counter() - start < 5
    assert [q for q in range(-2, 30) if _is_prime_power(q)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29
    ]


def miller_rabin_13(n):
    """Miller-Rabin to the 13 prime bases up to 41, restated as the oracle
    for the Baillie-PSW test; exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_bpsw_above_the_exact_miller_rabin_range():
    assert _is_prime(2**4423 - 1)  # Mersenne prime, 1332 digits
    p, q = 2**1000 + 297, 2**1001 + 27
    assert _is_prime(p) and _is_prime(q) and not _is_prime(p * q)
    assert _is_prime_power(p**3) and not _is_prime_power(p * q)
    # strong base-2 pseudoprimes, the last to every prime base up to 23;
    # below 3.3e24 _is_prime never sends them to the Lucas test
    for n in (2047, 3215031751, 3825123056546413051):
        assert not _bpsw(n) and not _is_prime(n)
    # the first strong Lucas pseudoprimes with Selfridge's parameters pass
    # the Lucas half, as they must, and fail base 2
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas_probable_prime(n) and not _bpsw(n)


@given(st.integers(0, 2**89 - 1))
@example(2**88 - 1)  # 2^89 - 1, a Mersenne prime above 3.3e24
@settings(max_examples=300, deadline=None)
def test_bpsw_agrees_with_miller_rabin_below_2_90(k):
    n = 2 * k + 1
    assert _bpsw(n) == miller_rabin_13(n) == _is_prime(n)


def sieve_primes(limit):
    """The primes below limit, by the sieve of Eratosthenes."""
    composite = [False] * limit
    for p in range(2, limit):
        for m in range(p * p, limit, p) if not composite[p] else ():
            composite[m] = True
    return [n for n in range(2, limit) if not composite[n]]


def test_trial_division_decides_below_43_squared():
    assert [n for n in range(-2, 10**4) if _is_prime(n)] == sieve_primes(10**4)
    assert _is_prime(1847) and not _is_prime(1849) and _is_prime_power(1849)  # 1849 = 43^2
    # 2021 = 43 * 47: the first composite past 43^2 with no prime factor up to 41
    assert next(n for n in range(1850, 10**4) if all(n % p for p in range(2, 42)) and not _is_prime(n)) == 2021
    assert not _is_prime(2021) and not _is_prime_power(2021)
    with pytest.raises(ValueError, match="q = 2021 is not a prime power"):
        TameScenario(*z3_plane(), 2021)


def test_tame_scenario_validation():
    group, rep = z3_plane()
    with pytest.raises(NotTame):
        TameScenario(group, rep, 3)
    with pytest.raises(ValueError):
        TameScenario(group, rep, 6)  # not a prime power


@pytest.mark.parametrize("q", [7.0, 7.5, "x", True])
def test_tame_scenario_refuses_a_q_that_is_no_integer(q):
    # 7.0 used to reach math.gcd (TypeError), 7.5 int.bit_length (AttributeError), "x" a < (TypeError)
    with pytest.raises(ValueError, match=re.escape(repr(q))):
        TameScenario(*z3_plane(), q)


def test_tame_scenario_reads_an_integer_string_as_its_int():
    group, rep = z3_plane()
    scenario = TameScenario(group, rep, "7")
    assert scenario.q == 7 and type(scenario.q) is int
    assert tame_total_masses(scenario) == tame_total_masses(TameScenario(group, rep, 7))


# -- ramification profiles ---------------------------------------------------


def test_char0_profile_masses():
    masses = profile_total_masses(builtin_profile("quad_char0_sigma", n=2))
    assert masses.mass_v == 1 + 1 / Q
    assert masses.mass_w == Q + 1


def test_char2_profile_matches_closed_form():
    for n in (2, 3, 5):
        masses = profile_total_masses(builtin_profile("quad_char2_sigma", n=n))
        ratio = 1 - ClassFunction.monomial(1 - n)
        assert masses.mass_v == one + (Q - 1) * ClassFunction.monomial(-n) / ratio
        assert masses.mass_w == one + (Q - 1) / ratio


def test_char2_profile_diverges_at_n1():
    masses = profile_total_masses(builtin_profile("quad_char2_sigma", n=1))
    assert is_infinite(masses.mass_v)
    assert is_infinite(masses.mass_w)
    assert not masses.is_finite


@pytest.mark.parametrize(
    "v_exp, w_exp, divergent",
    [((2, 0), (0, 0), "mass_w"), ((0, 0), (-2, 0), "mass_v")],
)
def test_profile_diverges_on_one_side_only(v_exp, w_exp, divergent):
    # Q^(i-1) strata at index i: the weights make one side sum Q^(-i-1) and
    # the other Q^(i-1), which diverges
    family = GeometricFamily(
        i0=1, i1=None, coeff=one, count_exp=(1, -1), v_exp=v_exp, w_exp=w_exp
    )
    masses = profile_total_masses(RamificationProfile(group_order=1, families=(family,)))
    finite = "mass_v" if divergent == "mass_w" else "mass_w"
    assert is_infinite(getattr(masses, divergent))
    assert getattr(masses, finite) == Q**-2 / (1 - Q**-1)
    assert not masses.is_finite


def test_upsilon_is_always_finite():
    for m in range(0, 4):
        for n in range(1, 4):
            masses = profile_total_masses(builtin_profile("quad_char2_upsilon", m=m, n=n))
            assert masses.is_finite


def test_upsilon_11_masses():
    masses = profile_total_masses(builtin_profile("quad_char2_upsilon", m=1, n=1))
    assert masses.mass_v == ClassFunction.constant(2)
    assert masses.mass_w == 2 * Q


def test_builtin_profile_validation():
    with pytest.raises(InvalidParams):
        builtin_profile("quad_char0_sigma")
    with pytest.raises(InvalidParams):
        builtin_profile("quad_char2_upsilon", n=1)
    with pytest.raises(InvalidParams):
        builtin_profile("septic_mystery", n=1)


def test_stratum_count_must_be_nonnegative():
    with pytest.raises(ValueError):
        ProfileStratum(ClassFunction.constant(-1), 0, 0)


def test_family_range_validation():
    with pytest.raises(ValueError):
        GeometricFamily(
            i0=3, i1=1, coeff=one, count_exp=(1, 0), v_exp=(0, 0), w_exp=(0, 0)
        )


def test_profile_group_order_validation():
    with pytest.raises(InvalidParams):
        RamificationProfile(group_order=0)


def test_custom_profile_mixed_strata_and_family():
    # one stratum at weight 0 and a convergent tail
    profile = RamificationProfile(
        group_order=1,
        strata=(ProfileStratum(one, 0, 0),),
        families=(
            GeometricFamily(
                i0=1,
                i1=None,
                coeff=Q - 1,
                count_exp=(F(0), F(0)),
                v_exp=(F(2), F(0)),
                w_exp=(F(-2), F(1)),
            ),
        ),
    )
    masses = profile_total_masses(profile)
    # sum (Q-1) Q^(-2i) = (Q-1) Q^-2 / (1 - Q^-2) = 1/(Q+1)
    assert masses.mass_v == one + 1 / (Q + 1)
    assert masses.mass_w == one + (Q - 1) * Q ** -1 / (1 - Q**-2)


def test_profile_json_roundtrip():
    profile = builtin_profile("quad_char2_upsilon", m=2, n=3)
    doc = json.loads(json.dumps(profile_to_json(profile)))
    back = profile_from_json(doc)
    assert profile_total_masses(back) == profile_total_masses(profile)
    assert back.group_order == profile.group_order
    assert len(back.strata) == len(profile.strata)
    assert len(back.families) == len(profile.families)


def test_mass_pair_json_with_infinite():
    pair = MassPair(Infinite, Infinite)
    assert not pair.is_finite
    back = MassPair.from_json(pair.to_json())
    assert is_infinite(back.mass_v) and is_infinite(back.mass_w)
    finite = bhargava_masses(2)
    assert MassPair.from_json(finite.to_json()) == finite


@pytest.mark.parametrize("n", [1093**2, 3511**2])
def test_bpsw_refuses_the_squares_of_the_wieferich_primes(n):
    # both pass the strong base-2 test, so only the Lucas test's perfect-square guard refuses them
    assert _strong_probable_prime(n, 2)
    assert not _bpsw(n)


def test_the_lucas_test_refuses_a_square_before_it_looks_for_d():
    # no D has (D/n) = -1 for a square n: the search would read about 2^60 Jacobi symbols
    assert not _strong_lucas_probable_prime((2**61 - 1) ** 2)


def test_bpsw_of_5_ends_at_the_jacobi_symbol_0():
    # (5/5) = 0 at the first D, 5 = |D|
    assert _bpsw(5)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: hilbert_counts(0), "positive integer", id="hilbert-0"),
        pytest.param(lambda: hilbert_counts(-3), "positive integer", id="hilbert--3"),
        pytest.param(lambda: builtin_profile("quad_char2_sigma", n=0), "n >= 1", id="char2-sigma-0"),
    ],
)
def test_malformed_arguments_are_refused(call, message):
    with pytest.raises(InvalidParams, match=message):
        call()
