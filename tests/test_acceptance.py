"""Acceptance gate: one test per shipped correctness criterion.

Each test runs the corresponding fixture in massdual.verify through the same
path the `massdual verify` subcommand takes and prints a single PASS/FAIL line
so the criterion outcomes are readable straight from the pytest output.  All
comparisons inside the fixtures are exact; there are no tolerances anywhere.
"""

import re
from fractions import Fraction

import pytest

from massdual import ClassFunction, Q, cf_dual
from massdual.massengine import builtin_profile, profile_total_masses
from massdual.verify import ALL_CRITERIA, CHAR0_VERDICTS, SUITES, _check, _oracle_partition_counts, run_suite

F = Fraction


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion, capsys):
    result = _check(criterion)
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}: {result.name} - {result.detail}")
    assert result.passed, result.detail


def test_suites_and_their_criteria():
    names = {suite: [ALL_CRITERIA[criterion] for criterion in members] for suite, members in SUITES.items()}
    assert names == {
        "all": [
            "bhargava reproduction",
            "tame vs formula",
            "tame duality suite",
            "char-2 quadratic",
            "weak-duality failure witness",
            "char-0 quadratic",
            "mckay-hilbert identity",
            "stringy fixtures",
            "qsym property suite",
            "Z/3 end to end",
        ],
        "tame": ["tame vs formula", "tame duality suite"],
        "partitions": ["bhargava reproduction", "mckay-hilbert identity"],
        "stringy": ["stringy fixtures", "Z/3 end to end"],
    }
    choices = "['all', 'partitions', 'stringy', 'tame']"
    with pytest.raises(ValueError, match=re.escape(f"unknown suite 'bogus'; choose from {choices}")):
        run_suite("bogus")


def test_partition_oracle_counts_the_empty_partition():
    assert _oracle_partition_counts(0) == {0: 1}


def test_char0_verdicts_match_hand_derivation():
    """Pin the computed residually-split verdicts against a by-hand check.

    For n = 1 the masses are mass_v = 2 + Q^(-1/2) - Q^(-1) and
    mass_w = Q + Q^(1/2), so D(mass_w) = Q^(-1) + Q^(-1/2) != mass_v, and at
    d = 2 the weak residual works out to 2(Q - 1)^2: both fail.  For n = 2
    we get mass_v = 1 + Q^(-1) and mass_w = Q + 1, which is the strongly
    dual pair shared with the squarefree-quadratic count.  For n >= 3,
    D(mass_w) = Q^(-1) + Q^(n/2-1) has a strictly positive exponent while
    every exponent of mass_v is <= 0, so strong fails; at d = 2n the weak
    residual contains -Q^(5n/2-1), which dominates every other term.
    """
    for n, (strong, weak) in CHAR0_VERDICTS.items():
        masses = profile_total_masses(builtin_profile("quad_char0_sigma", n=n))
        assert (cf_dual(masses.mass_w) == masses.mass_v) is strong, n
        assert strong == weak or n == 1, n

    n1 = profile_total_masses(builtin_profile("quad_char0_sigma", n=1))
    half = ClassFunction.monomial(F(1, 2))
    assert n1.mass_v == 2 + half**-1 - Q**-1
    assert n1.mass_w == Q + half
    weak_lhs = n1.mass_v * Q**2 - n1.mass_w
    weak_rhs = cf_dual(n1.mass_w) * Q**2 - cf_dual(n1.mass_v)
    assert weak_lhs - weak_rhs == 2 * (Q - 1) ** 2

    n2 = profile_total_masses(builtin_profile("quad_char0_sigma", n=2))
    assert cf_dual(n2.mass_w) == n2.mass_v
