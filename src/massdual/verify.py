"""Acceptance fixtures: every claim the package is sold on, runnable at will.

Each check function returns a CheckResult; suites group them so the command
line can run `verify --suite tame` etc.  Frozen expected values were derived
by hand or by an independent brute-force oracle before the engines existed;
comments next to each fixture say which.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import namedtuple
from fractions import Fraction

from .duality import duality_report
from .grouprep import (
    MonomialMatrix,
    group_closure,
    perm_from_cycles,
    permutation_matrix,
    permutation_rep,
    rep_direct_sum,
)
from .massengine import (
    MassPair,
    TameScenario,
    bhargava_masses,
    builtin_profile,
    hilbert_counts,
    kedlaya_masses,
    profile_total_masses,
    tame_involution_check,
    tame_total_masses,
)
from .qsym import (
    ClassFunction,
    Q,
    cf_from_terms,
    cf_geometric_sum,
    is_infinite,
)
from .stringy import (
    ResolutionData,
    builtin_resolution,
    convert_strata_map,
    gm_duality_check,
    mckay_identity_check,
    stringy_count,
)


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


# ---------------------------------------------------------------------------
# tame catalog


def _s2():
    t = perm_from_cycles(2, [[1, 2]])
    return group_closure([t], [permutation_matrix(t)])


def _s3():
    t = perm_from_cycles(3, [[1, 2]])
    c = perm_from_cycles(3, [[1, 2, 3]])
    return group_closure([t, c], [permutation_matrix(t), permutation_matrix(c)])


def _z3_diag(weights=(1,)):
    z = perm_from_cycles(3, [[1, 2, 3]])
    dim = len(weights)
    mat = MonomialMatrix(tuple(range(dim)), tuple(weights), 3)
    return group_closure([z], [mat])


def _z2_sign():
    t = perm_from_cycles(2, [[1, 2]])
    return group_closure([t], [MonomialMatrix((0,), (1,), 2)])


def _signed_2d():
    # signed permutations of rank 2, acting on the four signed basis vectors
    swp = perm_from_cycles(4, [[1, 2], [3, 4]])
    flp = perm_from_cycles(4, [[1, 3]])
    mats = [MonomialMatrix((1, 0), (0, 0), 2), MonomialMatrix((0, 1), (1, 0), 2)]
    return group_closure([swp, flp], mats)


def tame_catalog() -> list[tuple[str, TameScenario]]:
    """Every tame scenario the duality suite runs over."""
    out = []
    g, rep = _z2_sign()
    out.append(("Z2-sign-q3", TameScenario(g, rep, 3)))
    g, rep = _z3_diag((1,))
    out.append(("Z3-diag-q7", TameScenario(g, rep, 7)))
    out.append(("Z3-diag-q2", TameScenario(g, rep, 2)))
    g, rep = _z3_diag((1, 1))
    out.append(("Z3-plane-q7", TameScenario(g, rep, 7)))
    g, rep = _s2()
    out.append(("S2-doubled-q3", TameScenario(g, permutation_rep(g, 2), 3)))
    g, rep = _s3()
    out.append(("S3-doubled-q5", TameScenario(g, permutation_rep(g, 2), 5)))
    out.append(("S3-doubled-q7", TameScenario(g, permutation_rep(g, 2), 7)))
    g, rep = _z2_sign()
    out.append(("signed1-doubled-q3", TameScenario(g, rep_direct_sum(g, rep, rep), 3)))
    g, rep = _signed_2d()
    out.append(("signed2-doubled-q3", TameScenario(g, rep_direct_sum(g, rep, rep), 3)))
    return out


# independent partition oracle: enumerate partitions outright


def _oracle_partition_counts(n: int) -> dict[int, int]:
    """{k: number of partitions of n into exactly k parts} by enumeration."""
    counts: dict[int, int] = {}

    def rec(left, maxp, size):
        if left == 0:
            counts[size] = counts.get(size, 0) + 1
            return
        for p in range(min(left, maxp), 0, -1):
            rec(left - p, p, size + 1)

    if n == 0:
        return {0: 1}
    rec(n, n, 0)
    return counts


# ---------------------------------------------------------------------------
# criteria


def criterion_1_bhargava() -> CheckResult:
    """Degree-n etale masses match an enumerated partition oracle, N <= 20."""
    from . import cli  # deferred: cli imports this module

    for n in range(1, 21):
        oracle = _oracle_partition_counts(n)
        exp_v = ClassFunction.poly(
            {Fraction(-m): Fraction(oracle.get(n - m, 0)) for m in range(n)}
        )
        exp_w = ClassFunction.poly(
            {Fraction(m): Fraction(oracle.get(n - m, 0)) for m in range(n + 1)}
        )
        masses = bhargava_masses(n)
        if masses.mass_v != exp_v or masses.mass_w != exp_w:
            return CheckResult("bhargava reproduction", False, f"mismatch at n={n}")
        if not duality_report(masses, 2 * n).strong:
            return CheckResult("bhargava reproduction", False, f"not strongly dual at n={n}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["formula", "bhargava", "--n", str(n), "--report", "json"])
        emitted = MassPair.from_json(json.loads(buf.getvalue()))
        if code != 0 or emitted.mass_v != exp_v or emitted.mass_w != exp_w:
            return CheckResult("bhargava reproduction", False, f"cli mismatch at n={n}")
    return CheckResult("bhargava reproduction", True, "N = 1..20, library and cli")


def criterion_2_tame_vs_formula() -> CheckResult:
    """Tame enumeration reproduces the partition-indexed formulas."""
    g2, _ = _s2()
    g3, _ = _s3()
    cases = [
        (TameScenario(g2, permutation_rep(g2, 2), 3), bhargava_masses(2)),
        (TameScenario(g3, permutation_rep(g3, 2), 5), bhargava_masses(3)),
        (TameScenario(g3, permutation_rep(g3, 2), 7), bhargava_masses(3)),
    ]
    g1, r1 = _z2_sign()
    cases.append((TameScenario(g1, rep_direct_sum(g1, r1, r1), 3), kedlaya_masses(1)))
    gd, rd = _signed_2d()
    cases.append((TameScenario(gd, rep_direct_sum(gd, rd, rd), 3), kedlaya_masses(2)))
    for scenario, expected in cases:
        masses = tame_total_masses(scenario)
        if masses.mass_v != expected.mass_v or masses.mass_w != expected.mass_w:
            return CheckResult(
                "tame vs formula", False, f"mismatch for |G|={len(scenario.group)}, q={scenario.q}"
            )
    return CheckResult("tame vs formula", True, f"{len(cases)} scenarios")


def criterion_3_tame_duality() -> CheckResult:
    """Involution and strong duality across the whole tame catalog."""
    for name, scenario in tame_catalog():
        if not tame_involution_check(scenario):
            return CheckResult("tame duality suite", False, f"involution fails: {name}")
        masses = tame_total_masses(scenario)
        if masses.mass_w.dual() != masses.mass_v:
            return CheckResult("tame duality suite", False, f"not strongly dual: {name}")
    return CheckResult("tame duality suite", True, f"{len(tame_catalog())} scenarios")


def criterion_4_char2() -> CheckResult:
    """Order-2 wild masses match their closed forms; n=1 diverges (exit 3)."""
    from . import cli

    one = ClassFunction.constant(1)
    for n in range(2, 11):
        masses = profile_total_masses(builtin_profile("quad_char2_sigma", n=n))
        qm1 = Q - 1
        exp_v = one + qm1 * ClassFunction.monomial(-n) / (1 - ClassFunction.monomial(1 - n))
        exp_w = one + qm1 / (1 - ClassFunction.monomial(1 - n))
        if masses.mass_v != exp_v or masses.mass_w != exp_w:
            return CheckResult("char-2 quadratic", False, f"closed form mismatch at n={n}")
        if not duality_report(masses, 2 * n).strong:
            return CheckResult("char-2 quadratic", False, f"not strongly dual at n={n}")
    m1 = profile_total_masses(builtin_profile("quad_char2_sigma", n=1))
    if not (is_infinite(m1.mass_v) and is_infinite(m1.mass_w)):
        return CheckResult("char-2 quadratic", False, "n=1 should be Infinite")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["profile", "--builtin", "quad_char2_sigma", "--n", "1", "--report", "json"])
    if code != 3:
        return CheckResult("char-2 quadratic", False, f"n=1 exit code {code}, want 3")
    return CheckResult("char-2 quadratic", True, "n = 2..10 closed forms; n=1 divergent, exit 3")


def criterion_5_weak_failure() -> CheckResult:
    """The (m,n) = (1,1) two-parameter profile breaks even weak duality."""
    masses = profile_total_masses(builtin_profile("quad_char2_upsilon", m=1, n=1))
    if masses.mass_v != ClassFunction.constant(2) or masses.mass_w != 2 * Q:
        return CheckResult("weak-duality failure witness", False, "masses are not (2, 2Q)")
    report = duality_report(masses, 4)
    if report.strong or report.weak:
        return CheckResult(
            "weak-duality failure witness", False, f"verdicts ({report.strong}, {report.weak})"
        )
    # hand value: 2Q^4 - 2Q - (2Q^3 - 2)
    if report.weak_residual != 2 * Q**4 - 2 * Q**3 - 2 * Q + 2:
        return CheckResult("weak-duality failure witness", False, "wrong weak residual")
    return CheckResult("weak-duality failure witness", True, "masses (2, 2Q), both verdicts false")


# Verdicts below were derived by hand from the displayed closed forms:
# n=1: mass_v = 2 - Q^-1 + Q^(-1/2), mass_w = Q + Q^(1/2);
#      D(mass_w) = Q^-1 + Q^(-1/2) differs from mass_v, and the weak
#      residual works out to 2(Q-1)^2, nonzero: both verdicts false.
# n=2: mass_v = 1 + Q^-1, mass_w = Q + 1 = Q*(1 + Q^-1): D(mass_w) =
#      Q^-1 + 1 = mass_v: strong (hence weak) holds.
# n>=3: the weak residual contains the monomial -Q^(5n/2 - 1), which
#      nothing can cancel (all other exponents are smaller), so both fail.
CHAR0_VERDICTS = {
    1: (False, False),
    2: (True, True),
    3: (False, False),
    4: (False, False),
    5: (False, False),
    6: (False, False),
}


def criterion_6_char0() -> CheckResult:
    """Char-0 quadratic masses match the displayed forms; verdicts match the
    recorded hand derivation (CHAR0_VERDICTS), not any prose expectation."""
    for n in range(1, 7):
        masses = profile_total_masses(builtin_profile("quad_char0_sigma", n=n))
        exp_v = (
            ClassFunction.constant(1)
            + ClassFunction.monomial(-n + 1)
            - ClassFunction.monomial(-n)
            + ClassFunction.monomial(Fraction(-3 * n, 2) + 1)
        )
        exp_w = Q + ClassFunction.monomial(Fraction(-n, 2) + 1)
        if masses.mass_v != exp_v or masses.mass_w != exp_w:
            return CheckResult("char-0 quadratic", False, f"mass mismatch at n={n}")
        report = duality_report(masses, 2 * n)
        if (report.strong, report.weak) != CHAR0_VERDICTS[n]:
            return CheckResult(
                "char-0 quadratic",
                False,
                f"verdict at n={n}: ({report.strong}, {report.weak}) != recorded",
            )
    m1 = profile_total_masses(builtin_profile("quad_char0_sigma", n=1))
    if duality_report(m1, 2).weak_residual != 2 * (Q - 1) ** 2:
        return CheckResult("char-0 quadratic", False, "n=1 weak residual is not 2(Q-1)^2")
    return CheckResult("char-0 quadratic", True, "n = 1..6 masses and recorded verdicts")


def criterion_7_mckay_hilbert() -> CheckResult:
    """Hilbert-scheme counts tie to both mass formulas for n <= 10."""
    for n in range(1, 11):
        counts = hilbert_counts(n)
        bh = bhargava_masses(n)
        ke = kedlaya_masses(n)
        if counts.hilb_plane != bh.mass_v * ClassFunction.monomial(2 * n):
            return CheckResult("mckay-hilbert identity", False, f"plane count at n={n}")
        if counts.fiber != ke.mass_w:
            return CheckResult("mckay-hilbert identity", False, f"fiber count at n={n}")
    return CheckResult("mckay-hilbert identity", True, "n = 1..10, both identities")


def _random_strata_map(rng: random.Random) -> dict:
    keys = []
    n = rng.randint(1, 4)
    for _ in range(rng.randint(1, 4)):
        keys.append(frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))))
    out = {}
    for key in keys:
        poly = {
            Fraction(rng.randint(0, 3)): Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3))
        }
        out[key] = ClassFunction.poly(poly)
    return out


def criterion_8_stringy() -> CheckResult:
    """A1-cone duality, the c = -1 divergence, and conversion involution."""
    fx = builtin_resolution("a1_cone")
    total = stringy_count(fx["total"])
    origin = stringy_count(fx["origin"])
    if total != Q**2 + Q or origin != Q + 1:
        return CheckResult("stringy fixtures", False, "A1 counts are off")
    if not gm_duality_check(total, origin, 2):
        return CheckResult("stringy fixtures", False, "A1 quotient duality fails")
    divergent = ResolutionData(
        dim=2, horizontal=(Fraction(-1),), strata={frozenset([1]): Q + 1}
    )
    if not is_infinite(stringy_count(divergent)):
        return CheckResult("stringy fixtures", False, "c = -1 fixture should be Infinite")
    rng = random.Random(8128)
    for i in range(100):
        counts = _random_strata_map(rng)
        normalized = {k: cf for k, cf in counts.items() if not cf.is_zero}
        roundtrip = convert_strata_map(convert_strata_map(counts, True), False)
        if roundtrip != normalized:
            return CheckResult("stringy fixtures", False, f"involution fails at sample {i}")
        roundtrip2 = convert_strata_map(convert_strata_map(counts, False), True)
        if roundtrip2 != normalized:
            return CheckResult("stringy fixtures", False, f"involution fails at sample {i} (other order)")
    return CheckResult("stringy fixtures", True, "A1 duality, divergence, 100 involution samples")


def _random_terms(rng: random.Random):
    terms = []
    for _ in range(rng.randint(1, 4)):
        coeff = Fraction(rng.randint(-4, 4))
        root = Fraction(rng.choice([0, 1]), 2)
        q_exp = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        terms.append((coeff, root, q_exp))
    den_exp = rng.choice([None, 1, 2, -1, Fraction(1, 2), Fraction(-3, 2)])
    return terms, den_exp


def _negate_terms(terms):
    return [((c), (-root) % 1, -qe) for c, root, qe in terms]


def _agree_at_20_points(f: ClassFunction, g: ClassFunction) -> bool:
    """Pointwise agreement at r = 1..20 with q0 = 2^N.

    That choice of q0 makes every needed root of q0 rational, so both
    sides evaluate to exact Fractions and agreement carries no tolerance.
    """
    n = math.lcm(f.root_order, g.root_order)
    q0 = Fraction(2) ** n
    return all(f.eval(q0, r) == g.eval(q0, r) for r in range(1, 21))


def criterion_9_qsym_properties() -> CheckResult:
    """500 random term lists: dual is a ring involution, equality is sound,
    and every construction certifies its own denominator exponent."""
    rng = random.Random(57721)
    built = 0
    while built < 500:
        terms_a, den_a = _random_terms(rng)
        terms_b, den_b = _random_terms(rng)
        f = cf_from_terms(terms_a, den_a)
        g = cf_from_terms(terms_b, den_b)
        built += 2
        if (f + g).dual() != f.dual() + g.dual():
            return CheckResult("qsym property suite", False, "dual is not additive")
        if (f * g).dual() != f.dual() * g.dual():
            return CheckResult("qsym property suite", False, "dual is not multiplicative")
        if f.dual().dual() != f:
            return CheckResult("qsym property suite", False, "dual is not an involution")
        if cf_from_terms(_negate_terms(terms_a), None if den_a is None else -den_a) != f.dual():
            return CheckResult("qsym property suite", False, "dual disagrees with negated terms")
        if not f.admissible_witness(den_a if den_a is not None else 1):
            return CheckResult("qsym property suite", False, "witness fails declared c")
        if (f == g) != _agree_at_20_points(f, g):
            return CheckResult("qsym property suite", False, "equality/evaluation mismatch")
        if (f == f.dual().dual()) != _agree_at_20_points(f, f.dual().dual()):
            return CheckResult("qsym property suite", False, "equality/evaluation mismatch (dual pair)")
    return CheckResult("qsym property suite", True, f"{built} random term lists")


def criterion_10_z3_end_to_end() -> CheckResult:
    """Tame cyclic-3 masses against the one-divisor c = -1/3 resolution."""
    group, rep = _z3_diag((1, 1))
    masses = tame_total_masses(TameScenario(group, rep, 7))  # q = 1 mod 3
    total = stringy_count(
        ResolutionData(
            dim=2,
            horizontal=(Fraction(-1, 3),),
            strata={frozenset(): Q**2 - 1, frozenset([1]): Q + 1},
        )
    )
    origin = stringy_count(
        ResolutionData(
            dim=2,
            horizontal=(Fraction(-1, 3),),
            strata={frozenset([1]): Q + 1},
        )
    )
    if not mckay_identity_check(masses, total, origin, 2):
        return CheckResult("Z/3 end to end", False, "McKay identity fails")
    return CheckResult("Z/3 end to end", True, "tame masses match the resolution count at d=2")


ALL_CRITERIA = [
    criterion_1_bhargava,
    criterion_2_tame_vs_formula,
    criterion_3_tame_duality,
    criterion_4_char2,
    criterion_5_weak_failure,
    criterion_6_char0,
    criterion_7_mckay_hilbert,
    criterion_8_stringy,
    criterion_9_qsym_properties,
    criterion_10_z3_end_to_end,
]

SUITES = {
    "all": ALL_CRITERIA,
    "tame": [criterion_2_tame_vs_formula, criterion_3_tame_duality],
    "partitions": [criterion_1_bhargava, criterion_7_mckay_hilbert],
    "stringy": [criterion_8_stringy, criterion_10_z3_end_to_end],
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [check() for check in SUITES[name]]
