import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from massdual import (
    ClassFunction,
    InfiniteInput,
    MalformedStrata,
    MassPair,
    Q,
    ResolutionData,
    VerticalRow,
    bhargava_masses,
    builtin_resolution,
    cf_from_terms,
    convert_strata_map,
    gm_duality_check,
    gm_quotient,
    hilbert_counts,
    is_infinite,
    mckay_identity_check,
    open_closed_convert,
    poincare_check,
    resolution_from_json,
    resolution_to_json,
    stringy_count,
)
from massdual.qsym import Infinite
from massdual.stringy import _divergent_divisor

F = Fraction

empty = frozenset()
one = ClassFunction.constant(1)


def test_a1_cone_conversion():
    closed = {empty: Q**2 + Q, frozenset([1]): Q + 1}
    opened = convert_strata_map(closed, True)
    assert opened == {empty: Q**2 - 1, frozenset([1]): Q + 1}
    assert convert_strata_map(opened, False) == closed


def test_conversion_is_identity_without_incidence():
    counts = {empty: Q**3}
    assert convert_strata_map(counts, True) == counts
    assert convert_strata_map(counts, False) == counts


def test_conversion_fills_missing_subsets():
    # a {1,2} stratum contributes to the closed counts of {1} and {2}
    opened = {frozenset([1, 2]): one}
    closed = convert_strata_map(opened, False)
    assert closed[frozenset([1])] == one
    assert closed[frozenset([2])] == one
    assert closed[empty] == one


@st.composite
def strata_maps(draw):
    n = draw(st.integers(1, 4))
    out = {}
    for _ in range(draw(st.integers(1, 4))):
        key = frozenset(draw(st.sets(st.integers(1, n), max_size=n)))
        coeffs = draw(
            st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=3)
        )
        out[key] = ClassFunction.poly({F(e): F(c) for e, c in coeffs.items()})
    return out


@given(strata_maps())
@settings(max_examples=80, deadline=None)
def test_conversion_involution(counts):
    normalized = {k: cf for k, cf in counts.items() if not cf.is_zero}
    assert convert_strata_map(convert_strata_map(counts, True), False) == normalized
    assert convert_strata_map(convert_strata_map(counts, False), True) == normalized


def test_open_closed_convert_roundtrips_resolution():
    data = ResolutionData(
        dim=2,
        horizontal=(F(-1, 3),),
        strata={empty: Q**2 + Q, frozenset([1]): Q + 1},
        mode="closed",
    )
    opened = open_closed_convert(data)
    assert opened.mode == "open"
    assert opened.strata[empty] == Q**2 - 1
    back = open_closed_convert(opened)
    assert back.mode == "closed"
    assert back.strata == data.strata


MULTIPLICITIES = [F(-3, 2), F(-1), F(-1, 2), F(1, 3), F(2), F(-2, 3), F(1, 2), F(5, 6)]


@st.composite
def resolutions(draw):
    """Open or closed resolution data on 0 to 5 divisors, some with c <= -1 (met
    or not), a vertical row or two, counts with modulus 2 and with denominators,
    and now and then a key past the last divisor."""
    n = draw(st.integers(0, 5))
    horizontal = draw(st.lists(st.sampled_from(MULTIPLICITIES), min_size=n, max_size=n))
    top = n + draw(st.sampled_from([0, 0, 0, 0, 1]))
    keys = st.frozensets(st.integers(1, top), max_size=top) if top else st.just(empty)
    exps = st.sampled_from([F(0), F(1), F(3, 2), F(2)])
    polys = st.dictionaries(exps, st.integers(-2, 2), max_size=2).map(ClassFunction.poly)
    # (a*(-1)^r + b) Q^e: one value on even r and another on odd r
    alternating = st.builds(
        lambda a, b, e: cf_from_terms([(a, F(1, 2), e), (b, 0, e)]), st.integers(-2, 2), st.integers(-2, 2), exps
    )
    dens = st.sampled_from([Q + 2, ClassFunction.monomial(F(1, 2)) - 3, Q**2 - Q + 1])
    quotients = st.builds(lambda p, d: p / d, polys, dens)
    counts = st.dictionaries(keys, st.one_of(polys, alternating, quotients), max_size=5)
    vertical = st.lists(st.builds(VerticalRow, st.sampled_from([F(-1), F(0), F(1, 2), F(2)]), counts), max_size=2)
    mode = draw(st.sampled_from(["open", "closed"]))
    return ResolutionData(dim=2, horizontal=horizontal, strata=draw(counts), vertical=draw(vertical), mode=mode)


def _termwise_count(data):
    """Batyrev's sum stratum by stratum: each count times its factors, added to its
    row's sum, and each row's sum times Q^(-a) added to one running total."""
    n = len(data.horizontal)
    rows = data.rows()
    for _, counts in rows:
        for key in counts:
            if not key <= set(range(1, n + 1)):
                raise MalformedStrata(f"stratum {sorted(key)} references divisors outside 1..{n}")
    if any(data.horizontal[j - 1] <= -1 for _, counts in rows for key in counts for j in key):
        return Infinite

    def factor(j):  # only a met divisor has one: an unmet c = -1 would divide by zero
        f = (Q - 1) / (ClassFunction.monomial(1 + data.horizontal[j - 1]) - 1)
        return f - 1 if data.mode == "closed" else f

    total = ClassFunction.zero()
    for a, counts in rows:
        row_sum = ClassFunction.zero()
        for key, cf in counts.items():
            term = cf
            for j in sorted(key):
                term = term * factor(j)
            row_sum = row_sum + term
        total = total + ClassFunction.monomial(-a) * row_sum
    return total


def outcome(data, count=stringy_count):
    try:
        value = count(data)
    except MalformedStrata:
        return MalformedStrata
    return "infinite" if is_infinite(value) else value


@given(resolutions())
@settings(max_examples=200, deadline=None)
def test_closed_strata_count_as_their_open_conversion(data):
    # closed strata are summed with the factors f_j - 1; the conversion is the oracle
    assert outcome(data) == outcome(open_closed_convert(data))


@given(resolutions())
@settings(max_examples=200, deadline=None)
def test_elimination_counts_as_the_termwise_sum(data):
    assert outcome(data) == outcome(data, _termwise_count)


@given(resolutions())
@settings(max_examples=200, deadline=None)
def test_the_divergent_divisor_is_the_least_heavy_one_met(data):
    # the CLI names this divisor, and stringy_count is Infinite exactly when there is one
    n = len(data.horizontal)
    assume(all(key <= set(range(1, n + 1)) for _, counts in data.rows() for key in counts))
    heavy = [j for _, counts in data.rows() for key in counts for j in key if data.horizontal[j - 1] <= -1]
    assert _divergent_divisor(data) == min(heavy, default=None)
    assert is_infinite(stringy_count(data)) == bool(heavy)


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_the_full_lattice_takes_one_product_per_stratum(monkeypatch, mode):
    # each step takes f_j times the strata that meet j, once each: 2^5 - 1 products on
    # the full lattice of 5 divisors, where one product per stratum and divisor made 81
    keys = [frozenset(s) for k in range(6) for s in combinations(range(1, 6), k)]
    data = ResolutionData(
        dim=5, horizontal=MULTIPLICITIES[2:7], strata={key: Q ** len(key) + i for i, key in enumerate(keys)}, mode=mode
    )
    expected = _termwise_count(data)
    calls = []
    mul = ClassFunction.__mul__
    monkeypatch.setattr(ClassFunction, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    assert stringy_count(data) == expected
    assert len(calls) <= 2**5 - 1


def test_crepant_data_passes_through():
    count = hilbert_counts(2).hilb_plane
    data = ResolutionData(dim=4, horizontal=(), strata={empty: count})
    assert stringy_count(data) == count


def test_z3_cone_count():
    data = ResolutionData(
        dim=2,
        horizontal=(F(-1, 3),),
        strata={empty: Q**2 - 1, frozenset([1]): Q + 1},
    )
    expected = (Q**2 - 1) + (Q + 1) * (Q - 1) / (ClassFunction.monomial(F(2, 3)) - 1)
    count = stringy_count(data)
    assert count == expected
    assert count == Q**2 + ClassFunction.monomial(F(4, 3)) + ClassFunction.monomial(F(2, 3))


def test_closed_mode_is_converted_automatically():
    data_closed = ResolutionData(
        dim=2,
        horizontal=(F(-1, 3),),
        strata={empty: Q**2 + Q, frozenset([1]): Q + 1},
        mode="closed",
    )
    data_open = ResolutionData(
        dim=2,
        horizontal=(F(-1, 3),),
        strata={empty: Q**2 - 1, frozenset([1]): Q + 1},
    )
    assert stringy_count(data_closed) == stringy_count(data_open)


def test_heavy_divisor_gives_infinite():
    data = ResolutionData(
        dim=2, horizontal=(F(-1),), strata={frozenset([1]): Q + 1}
    )
    assert is_infinite(stringy_count(data))
    deeper = ResolutionData(
        dim=2, horizontal=(F(-3, 2),), strata={frozenset([1]): one}
    )
    assert is_infinite(stringy_count(deeper))


def test_heavy_divisor_with_zero_stratum_is_harmless():
    data = ResolutionData(
        dim=2,
        horizontal=(F(-1), F(-1, 2)),
        strata={
            empty: Q**2,
            frozenset([1]): ClassFunction.zero(),
            frozenset([2]): Q - 1,
        },
    )
    count = stringy_count(data)
    assert count == Q**2 + (Q - 1) ** 2 / (ClassFunction.monomial(F(1, 2)) - 1)


def test_vertical_rows_shift_by_their_discrepancy():
    data = ResolutionData(
        dim=1,
        horizontal=(),
        strata={empty: Q},
        vertical=(VerticalRow(F(1), {empty: Q}), VerticalRow(F(-1), {empty: one})),
    )
    assert stringy_count(data) == Q + 1 + Q


def test_unknown_divisor_index_is_malformed():
    data = ResolutionData(dim=2, horizontal=(F(1, 2),), strata={frozenset([2]): one})
    with pytest.raises(MalformedStrata):
        stringy_count(data)


def test_relabeling_divisors_is_invariant():
    a = ResolutionData(
        dim=2,
        horizontal=(F(-1, 3), F(1, 2)),
        strata={empty: Q**2, frozenset([1]): Q + 1, frozenset([2]): Q - 1},
    )
    b = ResolutionData(
        dim=2,
        horizontal=(F(1, 2), F(-1, 3)),
        strata={empty: Q**2, frozenset([2]): Q + 1, frozenset([1]): Q - 1},
    )
    assert stringy_count(a) == stringy_count(b)


def test_unmet_divisor_is_invariant():
    base = ResolutionData(
        dim=2, horizontal=(F(-1, 3),), strata={empty: Q**2, frozenset([1]): Q + 1}
    )
    padded = ResolutionData(
        dim=2,
        horizontal=(F(-1, 3), F(-1)),
        strata={empty: Q**2, frozenset([1]): Q + 1, frozenset([2]): ClassFunction.zero()},
    )
    assert stringy_count(base) == stringy_count(padded)


def test_poincare_examples():
    assert poincare_check(Q**2 + 5 * Q + 1, 2)
    assert poincare_check(Q + 1, 1)
    assert not poincare_check(Q**2 + Q, 2)
    with pytest.raises(InfiniteInput):
        poincare_check(Infinite, 2)


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=3),
    st.lists(st.integers(1, 5), min_size=1, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_poincare_is_multiplicative(half_a, half_b):
    def palindrome(half):
        coeffs = half + half[-2::-1]
        return (
            ClassFunction.poly({F(i): F(c) for i, c in enumerate(coeffs)}),
            len(coeffs) - 1,
        )

    f, d1 = palindrome(half_a)
    g, d2 = palindrome(half_b)
    assert poincare_check(f, d1)
    assert poincare_check(g, d2)
    assert poincare_check(f * g, d1 + d2)


def test_gm_quotient_examples():
    assert gm_quotient(Q**2 + Q, Q + 1) == Q + 1
    assert gm_quotient(Q + 1, Q + 1) == ClassFunction.zero()
    assert gm_quotient(Q**3, one) == Q**2 + Q + 1
    with pytest.raises(InfiniteInput):
        gm_quotient(Infinite, one)


def test_gm_duality_a1_fixture():
    fx = builtin_resolution("a1_cone")
    total = stringy_count(fx["total"])
    origin = stringy_count(fx["origin"])
    assert total == Q**2 + Q
    assert origin == Q + 1
    assert gm_duality_check(total, origin, 2)
    assert not gm_duality_check(total, origin, 3)


def test_gm_duality_regression_fixture():
    # recorded verdict: the quotient is (Q+1)(Q^2+Q+1), which is palindromic
    total = Q**4 + Q**3 + Q**2
    origin = Q**2 + Q + 1
    assert gm_quotient(total, origin) == Q**3 + 2 * Q**2 + 2 * Q + 1
    assert gm_duality_check(total, origin, 4)


def test_gm_duality_zero_quotient():
    for d in (1, 2, 5):
        assert gm_duality_check(Q + 1, Q + 1, d)


def test_mckay_identity_for_partition_fixtures():
    for n in range(1, 11):
        masses = bhargava_masses(n)
        total = hilbert_counts(n).hilb_plane
        assert mckay_identity_check(masses, total, masses.mass_w, 2 * n)
    assert not mckay_identity_check(
        bhargava_masses(2), hilbert_counts(2).hilb_plane, bhargava_masses(2).mass_w, 5
    )


def test_mckay_rejects_infinite():
    masses = MassPair(one, one)
    with pytest.raises(InfiniteInput):
        mckay_identity_check(masses, Infinite, one, 2)


def test_resolution_validation():
    with pytest.raises(ValueError):
        ResolutionData(dim=0, horizontal=(), strata={})
    with pytest.raises(ValueError):
        ResolutionData(dim=1, horizontal=(), strata={}, mode="ajar")
    with pytest.raises(ValueError):
        ResolutionData(dim=1, horizontal=(F(0),), strata={})
    with pytest.raises(TypeError):
        ResolutionData(dim=1, horizontal=(), strata={empty: 7})


def test_resolution_json_roundtrip():
    data = ResolutionData(
        dim=3,
        horizontal=(F(-1, 3), F(2)),
        strata={empty: Q**2, frozenset([1, 2]): Q + 1},
        vertical=(VerticalRow(F(1, 2), {frozenset([1]): Q - 1}),),
        mode="closed",
    )
    doc = json.loads(json.dumps(resolution_to_json(data)))
    back = resolution_from_json(doc)
    assert back.dim == data.dim
    assert back.mode == data.mode
    assert back.horizontal == data.horizontal
    assert back.strata == data.strata
    assert back.vertical == data.vertical
    assert stringy_count(back) == stringy_count(data)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: mckay_identity_check(MassPair(Infinite, Q), Q, Q, 2), InfiniteInput, "finite masses", id="mckay"
        ),
        pytest.param(lambda: builtin_resolution("a2_cone"), ValueError, "unknown builtin", id="builtin"),
    ],
)
def test_malformed_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
