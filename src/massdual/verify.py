"""Acceptance fixtures: every claim the package is sold on, runnable at will.

A criterion returns the detail of its PASS line, and `_require` states a
failure: its detail is the FAIL line.  `run_suite` alone builds CheckResults;
suites group the criteria so the command line can run `verify --suite tame`.
Frozen expected values were derived by hand or by an independent brute-force
oracle before the engines existed; comments next to each fixture say which.
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
    _involutive,
    _stable_weights,
    _tame_masses,
    bhargava_masses,
    builtin_profile,
    hilbert_counts,
    kedlaya_masses,
    profile_total_masses,
    tame_total_masses,
)
from .qsym import (
    ClassFunction,
    Q,
    cf_from_terms,
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

    rec(n, n, 0)
    return counts


# ---------------------------------------------------------------------------
# criteria


class _Failed(Exception):
    """A requirement of a criterion does not hold; the message says which."""


def _require(ok, detail: str) -> None:
    # not `assert`, which `python -O` strips
    if not ok:
        raise _Failed(detail)


def criterion_1_bhargava() -> str:
    """Degree-n etale masses match an enumerated partition oracle, N <= 20."""
    from . import cli  # deferred: cli imports this module

    for n in range(1, 21):
        oracle = _oracle_partition_counts(n)
        exp_v = ClassFunction.poly({-m: oracle.get(n - m, 0) for m in range(n)})
        exp_w = ClassFunction.poly({m: oracle.get(n - m, 0) for m in range(n + 1)})
        masses = bhargava_masses(n)
        _require(masses.mass_v == exp_v and masses.mass_w == exp_w, f"mismatch at n={n}")
        _require(duality_report(masses, 2 * n).strong, f"not strongly dual at n={n}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["formula", "bhargava", "--n", str(n), "--report", "json"])
        emitted = MassPair.from_json(json.loads(buf.getvalue()))
        _require(code == 0 and emitted.mass_v == exp_v and emitted.mass_w == exp_w, f"cli mismatch at n={n}")
    return "N = 1..20, library and cli"


def criterion_2_tame_vs_formula() -> str:
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
        _require(masses == expected, f"mismatch for |G|={len(scenario.group)}, q={scenario.q}")
    return f"{len(cases)} scenarios"


def criterion_3_tame_duality() -> str:
    """Involution and strong duality across the whole tame catalog."""
    catalog = tame_catalog()
    for name, scenario in catalog:
        table = _stable_weights(scenario)
        _require(_involutive(*table), f"involution fails: {name}")
        masses = _tame_masses(*table)
        _require(masses.mass_w.dual() == masses.mass_v, f"not strongly dual: {name}")
    return f"{len(catalog)} scenarios"


def criterion_4_char2() -> str:
    """Order-2 wild masses match their closed forms; n=1 diverges (exit 3)."""
    from . import cli

    one = ClassFunction.constant(1)
    for n in range(2, 11):
        masses = profile_total_masses(builtin_profile("quad_char2_sigma", n=n))
        qm1 = Q - 1
        exp_v = one + qm1 * ClassFunction.monomial(-n) / (1 - ClassFunction.monomial(1 - n))
        exp_w = one + qm1 / (1 - ClassFunction.monomial(1 - n))
        _require(masses.mass_v == exp_v and masses.mass_w == exp_w, f"closed form mismatch at n={n}")
        _require(duality_report(masses, 2 * n).strong, f"not strongly dual at n={n}")
    m1 = profile_total_masses(builtin_profile("quad_char2_sigma", n=1))
    _require(is_infinite(m1.mass_v) and is_infinite(m1.mass_w), "n=1 should be Infinite")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["profile", "--builtin", "quad_char2_sigma", "--n", "1", "--report", "json"])
    _require(code == 3, f"n=1 exit code {code}, want 3")
    return "n = 2..10 closed forms; n=1 divergent, exit 3"


def criterion_5_weak_failure() -> str:
    """The (m,n) = (1,1) two-parameter profile breaks even weak duality."""
    masses = profile_total_masses(builtin_profile("quad_char2_upsilon", m=1, n=1))
    _require(masses.mass_v == ClassFunction.constant(2) and masses.mass_w == 2 * Q, "masses are not (2, 2Q)")
    report = duality_report(masses, 4)
    _require(not (report.strong or report.weak), f"verdicts ({report.strong}, {report.weak})")
    # hand value: 2Q^4 - 2Q - (2Q^3 - 2)
    _require(report.weak_residual == 2 * Q**4 - 2 * Q**3 - 2 * Q + 2, "wrong weak residual")
    return "masses (2, 2Q), both verdicts false"


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


def criterion_6_char0() -> str:
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
        _require(masses.mass_v == exp_v and masses.mass_w == exp_w, f"mass mismatch at n={n}")
        report = duality_report(masses, 2 * n)
        _require(
            (report.strong, report.weak) == CHAR0_VERDICTS[n],
            f"verdict at n={n}: ({report.strong}, {report.weak}) != recorded",
        )
    m1 = profile_total_masses(builtin_profile("quad_char0_sigma", n=1))
    _require(duality_report(m1, 2).weak_residual == 2 * (Q - 1) ** 2, "n=1 weak residual is not 2(Q-1)^2")
    return "n = 1..6 masses and recorded verdicts"


def criterion_7_mckay_hilbert() -> str:
    """Hilbert-scheme counts tie to both mass formulas for n <= 10."""
    for n in range(1, 11):
        counts = hilbert_counts(n)
        bh = bhargava_masses(n)
        ke = kedlaya_masses(n)
        _require(counts.hilb_plane == bh.mass_v * ClassFunction.monomial(2 * n), f"plane count at n={n}")
        _require(counts.fiber == ke.mass_w, f"fiber count at n={n}")
    return "n = 1..10, both identities"


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


def criterion_8_stringy() -> str:
    """A1-cone duality, the c = -1 divergence, and conversion involution."""
    fx = builtin_resolution("a1_cone")
    total = stringy_count(fx["total"])
    origin = stringy_count(fx["origin"])
    _require(total == Q**2 + Q and origin == Q + 1, "A1 counts are off")
    _require(gm_duality_check(total, origin, 2), "A1 quotient duality fails")
    divergent = ResolutionData(
        dim=2, horizontal=(Fraction(-1),), strata={frozenset([1]): Q + 1}
    )
    _require(is_infinite(stringy_count(divergent)), "c = -1 fixture should be Infinite")
    rng = random.Random(8128)
    for i in range(100):
        counts = _random_strata_map(rng)
        normalized = {k: cf for k, cf in counts.items() if not cf.is_zero}
        roundtrip = convert_strata_map(convert_strata_map(counts, True), False)
        _require(roundtrip == normalized, f"involution fails at sample {i}")
        roundtrip2 = convert_strata_map(convert_strata_map(counts, False), True)
        _require(roundtrip2 == normalized, f"involution fails at sample {i} (other order)")
    return "A1 duality, divergence, 100 involution samples"


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


def criterion_9_qsym_properties() -> str:
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
        _require((f + g).dual() == f.dual() + g.dual(), "dual is not additive")
        _require((f * g).dual() == f.dual() * g.dual(), "dual is not multiplicative")
        ff = f.dual().dual()
        _require(ff == f, "dual is not an involution")
        negated = cf_from_terms(_negate_terms(terms_a), None if den_a is None else -den_a)
        _require(negated == f.dual(), "dual disagrees with negated terms")
        _require(f.admissible_witness(den_a if den_a is not None else 1), "witness fails declared c")
        _require((f == g) == _agree_at_20_points(f, g), "equality/evaluation mismatch")
        _require((f == ff) == _agree_at_20_points(f, ff), "equality/evaluation mismatch (dual pair)")
    return f"{built} random term lists"


def criterion_10_z3_end_to_end() -> str:
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
    _require(mckay_identity_check(masses, total, origin, 2), "McKay identity fails")
    return "tame masses match the resolution count at d=2"


# each criterion's name, written only here: its PASS/FAIL line carries it
ALL_CRITERIA = {
    criterion_1_bhargava: "bhargava reproduction",
    criterion_2_tame_vs_formula: "tame vs formula",
    criterion_3_tame_duality: "tame duality suite",
    criterion_4_char2: "char-2 quadratic",
    criterion_5_weak_failure: "weak-duality failure witness",
    criterion_6_char0: "char-0 quadratic",
    criterion_7_mckay_hilbert: "mckay-hilbert identity",
    criterion_8_stringy: "stringy fixtures",
    criterion_9_qsym_properties: "qsym property suite",
    criterion_10_z3_end_to_end: "Z/3 end to end",
}

SUITES = {
    "all": list(ALL_CRITERIA),
    "tame": [criterion_2_tame_vs_formula, criterion_3_tame_duality],
    "partitions": [criterion_1_bhargava, criterion_7_mckay_hilbert],
    "stringy": [criterion_8_stringy, criterion_10_z3_end_to_end],
}


def _check(criterion) -> CheckResult:
    """PASS with the detail criterion returns; FAIL with the detail of the
    requirement that failed, or with the type and message of what it raised."""
    name = ALL_CRITERIA[criterion]
    try:
        return CheckResult(name, True, criterion())
    except _Failed as exc:
        return CheckResult(name, False, str(exc))
    except Exception as exc:  # a broken fixture is a failed check, and the rest still run
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [_check(criterion) for criterion in SUITES[name]]
