"""The record types are immutable named tuples that validate in __new__.

Each one builds alike from positions and keywords, keeps its field order
(the CLI reports read `_asdict()`), refuses assignment, and raises the same
exception types it always did.
"""

import json
import sys
from fractions import Fraction

import pytest

from massdual import (
    CheckResult,
    ClassFunction,
    DualityReport,
    GeometricFamily,
    InvalidParams,
    MassPair,
    MonomialMatrix,
    NotTame,
    ProfileStratum,
    Q,
    RamificationProfile,
    ResolutionData,
    TameScenario,
    VerticalRow,
    bhargava_masses,
    builtin_profile,
    duality_report,
    group_closure,
    perm_from_cycles,
    permutation_matrix,
    profile_total_masses,
)
from massdual.qsym import Infinite, RationalFunctionX

F = Fraction
NEEDS_LIMIT = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str limit")

_swap = perm_from_cycles(2, [[1, 2]])
S2, S2_REP = group_closure([_swap], [permutation_matrix(_swap)])
STRATUM = ProfileStratum(count=2 * (Q - 1), v=F(1, 2), w=F(0))
ROW = VerticalRow(a=F(1), counts={frozenset([1]): Q})

# field values as each constructor keeps them, in field order
RECORDS = {
    DualityReport: dict(
        strong=False, weak=True, dim=2, strong_residual=Q - 1, weak_residual=ClassFunction.zero()
    ),
    MonomialMatrix: dict(perm=(1, 0), exps=(1, 0), root_order=2),
    MassPair: dict(mass_v=Q + 1, mass_w=Infinite),
    TameScenario: dict(group=S2, rep=S2_REP, q=3),
    ProfileStratum: dict(count=2 * (Q - 1), v=F(1, 2), w=F(0)),
    GeometricFamily: dict(
        i0=1, i1=None, coeff=2 * (Q - 1), count_exp=(F(1), F(-1)), v_exp=(F(2), F(0)), w_exp=(F(-2), F(2))
    ),
    RamificationProfile: dict(group_order=2, strata=(STRATUM,), families=()),
    RationalFunctionX: dict(k=F(1, 2), n={-1: 2, 0: 1}, d={0: 1, 1: 1}),
    VerticalRow: dict(a=F(1), counts={frozenset([1]): Q}),
    ResolutionData: dict(
        dim=2, horizontal=(F(1),), strata={frozenset(): Q**2}, vertical=(ROW,), mode="closed"
    ),
    CheckResult: dict(name="a check", passed=True, detail="what it saw"),
}
ids = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_positional_and_keyword_construction_agree(cls):
    fields = RECORDS[cls]
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position
    assert type(by_keyword) is cls
    assert list(by_keyword._asdict().items()) == list(fields.items())


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_cannot_be_assigned(cls):
    record = cls(**RECORDS[cls])
    for name, value in RECORDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


def test_defaults():
    assert RamificationProfile(1) == RamificationProfile(group_order=1, strata=(), families=())
    assert ResolutionData(dim=1)._asdict() == dict(dim=1, horizontal=(), strata={}, vertical=(), mode="open")
    assert CheckResult("a check", False).detail == ""


def test_construction_normalises_its_arguments():
    assert MonomialMatrix((1, 0), (3, -1), 2).exps == (1, 1)
    assert ProfileStratum(Q, 1, "1/2")[1:] == (F(1), F(1, 2))
    family = GeometricFamily(0, 3, Q, [1, "-1/2"], (0, 1), (2, 0))
    assert (family.count_exp, family.v_exp, family.w_exp) == ((F(1), F(-1, 2)), (F(0), F(1)), (F(2), F(0)))
    assert RamificationProfile(2, [STRATUM], []) == RamificationProfile(2, (STRATUM,))
    row = VerticalRow("3/2", {(1,): Q, (2,): ClassFunction.zero()})
    assert row == (F(3, 2), {frozenset([1]): Q})
    data = ResolutionData(2, [1, "1/2"], {(): Q}, [ROW])
    assert data == (2, (F(1), F(1, 2)), {frozenset(): Q}, (ROW,), "open")


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: TameScenario(S2, S2_REP, 6), ValueError, "q = 6 is not a prime power"),
        (lambda: TameScenario(S2, S2_REP, 4), NotTame, "residue characteristic of q = 4 divides"),
        (lambda: RamificationProfile(0), InvalidParams, "group_order must be a positive integer"),
        (lambda: GeometricFamily(3, 2, Q, (1, 0), (0, 0), (0, 0)), ValueError, "family range is empty"),
        (lambda: ProfileStratum(ClassFunction.constant(-1), 0, 0), ValueError, "count is negative"),
        (lambda: ResolutionData(dim=0), ValueError, "dim must be a positive integer"),
        (lambda: ResolutionData(dim=1, mode="half"), ValueError, "mode must be 'open' or 'closed'"),
        (lambda: ResolutionData(dim=1, horizontal=(1, 0)), ValueError, "multiplicity 0"),
        (lambda: VerticalRow(1, {(1,): 2}), TypeError, "must be ClassFunctions"),
        (lambda: MonomialMatrix((0, 0), (0, 0), 1), ValueError, "not a permutation"),
        (lambda: MonomialMatrix((1, 0), (0,), 1), ValueError, "one exponent per column"),
        (lambda: MonomialMatrix((0,), (0,), 0), ValueError, "root_order must be positive"),
        # rationals are read as qsym reads them: a float is not exact
        (lambda: ProfileStratum(Q, 0.1, 0), TypeError, "floats are not exact"),
        (lambda: GeometricFamily(1, None, Q, (0.1, 0), (0, 0), (0, 0)), TypeError, "floats are not exact"),
        pytest.param(
            lambda: ProfileStratum(Q, "1e10000000", 0), ValueError, "a decimal exponent beyond", marks=NEEDS_LIMIT
        ),
        pytest.param(
            lambda: GeometricFamily(1, None, Q, (1, 0), ("1e10000000", 0), (0, 0)),
            ValueError,
            "a decimal exponent beyond",
            marks=NEEDS_LIMIT,
        ),
        # integer fields refuse what int() would truncate
        (lambda: GeometricFamily(1.5, None, Q, (1, 0), (0, 0), (0, 0)), ValueError, "expected an integer, got 1.5"),
        (lambda: GeometricFamily(1, 2.5, Q, (1, 0), (0, 0), (0, 0)), ValueError, "expected an integer, got 2.5"),
        (lambda: RamificationProfile(2.5), ValueError, "expected an integer, got 2.5"),
        (lambda: ResolutionData(dim=2.5), ValueError, "expected an integer, got 2.5"),
        (lambda: VerticalRow(1, {(1.7,): Q}), ValueError, "expected an integer, got 1.7"),
    ],
)
def test_validation_keeps_its_exception_types(build, error, match):
    with pytest.raises(error, match=match) as caught:
        build()
    assert caught.type is error


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "masses",
    [bhargava_masses(4), profile_total_masses(builtin_profile("quad_char2_sigma", n=1))],
    ids=["finite", "infinite"],
)
def test_json_roundtrip_is_byte_identical(masses):
    text = dumps(masses.to_json())
    assert dumps(MassPair.from_json(json.loads(text)).to_json()) == text
    if masses.is_finite:
        report = dumps(duality_report(masses, 3).to_json())
        assert dumps(DualityReport.from_json(json.loads(report)).to_json()) == report
