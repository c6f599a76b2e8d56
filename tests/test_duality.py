from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massdual import (
    ClassFunction,
    DualityReport,
    InfiniteMass,
    MassPair,
    Q,
    bhargava_masses,
    builtin_profile,
    cf_dual,
    duality_report,
    profile_total_masses,
)
from massdual.qsym import Infinite

F = Fraction


def test_bhargava_is_strongly_dual():
    report = duality_report(bhargava_masses(3), 6)
    assert report.strong and report.weak
    assert report.strong_residual.is_zero
    assert report.weak_residual.is_zero
    assert report.dim == 6


def test_upsilon_11_fails_both_dualities():
    masses = profile_total_masses(builtin_profile("quad_char2_upsilon", m=1, n=1))
    report = duality_report(masses, 4)
    assert not report.strong
    assert not report.weak
    assert report.strong_residual == 2 / Q - 2
    assert report.weak_residual == 2 * Q**4 - 2 * Q**3 - 2 * Q + 2


def test_char2_quadratic_is_strongly_dual():
    masses = profile_total_masses(builtin_profile("quad_char2_sigma", n=2))
    report = duality_report(masses, 4)
    assert report.strong and report.weak


def test_char0_n1_fails_weakly_with_square_residual():
    masses = profile_total_masses(builtin_profile("quad_char0_sigma", n=1))
    report = duality_report(masses, 2)
    assert (report.strong, report.weak) == (False, False)
    assert report.weak_residual == 2 * (Q - 1) ** 2


def test_char0_n2_is_strongly_dual():
    masses = profile_total_masses(builtin_profile("quad_char0_sigma", n=2))
    report = duality_report(masses, 4)
    assert (report.strong, report.weak) == (True, True)


def test_infinite_masses_are_rejected():
    masses = profile_total_masses(builtin_profile("quad_char2_sigma", n=1))
    with pytest.raises(InfiniteMass, match="^duality verdicts need finite masses: mass_v and mass_w are infinite$"):
        duality_report(masses, 2)
    with pytest.raises(InfiniteMass, match="^duality verdicts need finite masses: mass_v is infinite$"):
        duality_report(MassPair(Infinite, ClassFunction.constant(1)), 2)
    with pytest.raises(InfiniteMass, match="^duality verdicts need finite masses: mass_w is infinite$"):
        duality_report(MassPair(ClassFunction.constant(1), Infinite), 2)


def test_report_json_roundtrip():
    report = duality_report(bhargava_masses(2), 4)
    back = DualityReport.from_json(report.to_json())
    assert back == report
    # bool("false") is True: verdicts must be JSON booleans
    for key in ("strong", "weak"):
        for bad in ("false", 0, 1, None):
            with pytest.raises(ValueError):
                DualityReport.from_json({**report.to_json(), key: bad})
    with pytest.raises(ValueError):
        DualityReport.from_json({**report.to_json(), "dim": 4.5})


@given(
    st.dictionaries(
        st.integers(-3, 3).map(F), st.integers(-4, 4).map(F), min_size=1, max_size=4
    ),
    st.integers(0, 6),
)
@settings(max_examples=80, deadline=None)
def test_strong_duality_implies_weak(coeffs, dim):
    mass_w = ClassFunction.poly(coeffs)
    masses = MassPair(cf_dual(mass_w), mass_w)
    report = duality_report(masses, dim)
    if mass_w.is_zero:
        assert report.strong
    assert not report.strong or report.weak
    assert report.strong  # constructed to be strongly dual
    assert report.weak


@given(
    st.dictionaries(
        st.integers(-3, 3).map(F), st.integers(-4, 4).map(F), min_size=1, max_size=3
    ),
    st.dictionaries(
        st.integers(-3, 3).map(F), st.integers(-4, 4).map(F), min_size=1, max_size=3
    ),
    st.integers(0, 5),
)
@settings(max_examples=80, deadline=None)
def test_verdicts_match_residuals(cv, cw, dim):
    masses = MassPair(ClassFunction.poly(cv), ClassFunction.poly(cw))
    report = duality_report(masses, dim)
    assert report.strong == (cf_dual(masses.mass_w) == masses.mass_v)
    lhs = masses.mass_v * Q**dim - masses.mass_w
    rhs = cf_dual(masses.mass_w) * Q**dim - cf_dual(masses.mass_v)
    assert report.weak == (lhs == rhs)
    assert report.weak_residual == lhs - rhs
