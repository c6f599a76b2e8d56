import cmath
import math
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from massdual import (
    ClassFunction,
    DivergentSeries,
    NonRealInput,
    PoleAtEvaluationPoint,
    Q,
    ZeroDenominatorExponent,
    cf_admissible_witness,
    cf_dual,
    cf_eval,
    cf_from_terms,
    cf_geometric_sum,
    cf_ring,
)
from massdual.qsym import (
    LaurentPoly,
    _cyclotomic,
    _divisors,
    _gcd_prs,
    _primitive,
    _rational_root_sum,
    _rf_mirror,
    iroot,
    poly_divmod,
    poly_gcd,
    ratfun,
)

F = Fraction

one = ClassFunction.constant(1)


def test_single_monomial_term():
    f = cf_from_terms([(1, 0, 1)])
    assert f == Q
    assert f.modulus == 1 and f.root_order == 1


def test_sign_character_splits_into_two_classes():
    f = cf_from_terms([(1, F(1, 2), 0)])
    assert f.modulus == 2
    assert f == ClassFunction.from_class_polys(2, [{0: 1}, {0: -1}])
    # squaring the sign character collapses back to one class
    assert f * f == one


def test_simple_denominator():
    f = cf_from_terms([(1, 0, 0)], den_exp=1)
    assert f == 1 / (Q - 1)
    entry = f.classes[0]
    assert dict(entry.den.items()) == {0: F(-1), 1: F(1)}


def test_zero_denominator_exponent_rejected():
    with pytest.raises(ZeroDenominatorExponent):
        cf_from_terms([(1, 0, 1)], den_exp=0)


def test_non_real_input_rejected():
    with pytest.raises(NonRealInput):
        cf_from_terms([(1, F(1, 3), 0)])


def test_conjugate_pair_is_real():
    # zeta_3^r + zeta_3^(2r) equals 2 on r = 0 mod 3 and -1 elsewhere
    f = cf_from_terms([(1, F(1, 3), 0), (1, F(2, 3), 0)])
    assert f == ClassFunction.from_class_polys(3, [{0: 2}, {0: -1}, {0: -1}])


# the Moebius function mu(m) for m = 1..30
MOBIUS = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1,
          0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1]


def primitive_exponents(m):
    return [k for k in range(m) if math.gcd(k, m) == 1]


def test_sum_of_primitive_roots_is_mobius():
    for m, mu in enumerate(MOBIUS, start=1):
        pairs = [(k, F(1)) for k in primitive_exponents(m)]
        assert _rational_root_sum(pairs, m) == mu


def test_cyclotomic_polynomial_vanishes_at_the_primitive_roots():
    # monic of degree phi(m) with every primitive m-th root as a root
    for m in range(1, 31):
        phi = _cyclotomic(m)
        roots = primitive_exponents(m)
        assert phi.min_exp == 0 and phi.max_exp == len(roots) and phi.coeff(len(roots)) == 1
        for k in roots:
            zeta = cmath.exp(2j * cmath.pi * k / m)
            assert abs(sum(float(c) * zeta**e for e, c in phi.items())) < 1e-9


def test_root_sum_ignores_multiples_of_the_cyclotomic_polynomial():
    rng = random.Random(4)
    for m in range(1, 31):
        for _ in range(5):
            v = F(rng.randint(-9, 9), rng.randint(1, 5))
            pairs = [(m * rng.randint(-3, 3), v)]
            for _ in range(rng.randint(1, 3)):
                c, k = F(rng.randint(-4, 4), rng.randint(1, 3)), rng.randrange(m)
                pairs += [
                    (e + k + m * rng.randint(-3, 3), c * b) for e, b in _cyclotomic(m).items()
                ]
            rng.shuffle(pairs)
            assert _rational_root_sum(pairs, m) == v


def test_root_sum_with_a_primitive_root_is_irrational():
    for m in range(1, 31):
        got = _rational_root_sum([(0, F(3, 2)), (1, F(1))], m)
        assert got == {1: F(5, 2), 2: F(1, 2)}.get(m)


def test_ring_add_mul_scale():
    assert cf_ring("add", Q, 1 / Q) == ClassFunction.poly({1: 1, -1: 1})
    assert cf_ring("mul", 1 / (Q - 1), Q - 1) == one
    assert cf_ring("scale_pow", one + 1 / Q, exponent=2) == Q**2 + Q
    assert cf_ring("sub", Q, Q) == ClassFunction.zero()
    assert cf_ring("neg", Q) == -Q
    with pytest.raises(ValueError):
        cf_ring("compose", Q, Q)


def test_dual_of_monomials():
    assert cf_dual(Q) == 1 / Q
    half = ClassFunction.monomial(F(1, 2))
    assert cf_dual(Q + half) == 1 / Q + ClassFunction.monomial(F(-1, 2))
    assert cf_dual(ClassFunction.constant(F(7, 3))) == ClassFunction.constant(F(7, 3))


def test_dual_char2_pair():
    # the n = 3 wild quadratic masses are swapped by the involution
    n = 3
    mass_w = one + (Q - 1) / (1 - ClassFunction.monomial(1 - n))
    mass_v = one + (Q - 1) * ClassFunction.monomial(-n) / (
        1 - ClassFunction.monomial(1 - n)
    )
    assert cf_dual(mass_w) == mass_v
    assert cf_dual(mass_v) == mass_w


def test_dual_fixes_class_indicator():
    ind = ClassFunction.from_class_polys(2, [{0: 1}, {}])
    assert cf_dual(ind) == ind
    assert cf_dual(cf_dual(ind)) == ind


def test_eval_exact_integral_exponents():
    f = one + 1 / Q
    assert cf_eval(f, 2, 3) == F(9, 8)
    g = ClassFunction.poly({0: 1, -1: 2, -2: 2})
    assert cf_eval(g, 3, 1) == F(17, 9)


def test_eval_exact_rational_root():
    # q0 = 4 makes q^(r/2) rational, so the result stays a Fraction
    f = Q + ClassFunction.monomial(F(1, 2))
    assert cf_eval(f, 4, 1) == 6
    assert cf_eval(f, F(9, 4), 1) == F(9, 4) + F(3, 2)
    # r0 cancels part of the root: q^(3/6) at q0 = 4 is rational, q^(1/6) is not
    sixth = ClassFunction.monomial(F(1, 6))
    val = cf_eval(sixth, 4, 3)
    assert isinstance(val, Fraction) and val == 2
    assert cf_eval(ClassFunction.monomial(F(1, 2)) + ClassFunction.monomial(F(1, 3)), 2, 6) == 12
    assert isinstance(cf_eval(sixth, 4, 1), Decimal)


def test_eval_exact_root_of_a_huge_square():
    # the root is taken in integers: a float root misses it past 2^53
    val = ClassFunction.monomial(F(1, 2)).eval((10**30 + 7) ** 2, 1)
    assert isinstance(val, Fraction)
    assert val == 10**30 + 7
    assert cf_eval(ClassFunction.monomial(F(1, 3)), 3**3000, 1) == 3**1000


def test_iroot_is_the_integer_floor_root():
    for k in range(1, 9):
        for n in list(range(200)) + [2**300 - 1, 2**300, 10**50 + 1]:
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k


def test_eval_decimal_fallback_and_precision():
    f = ClassFunction.monomial(F(1, 2))
    val = cf_eval(f, 2, 1)
    assert isinstance(val, Decimal)
    assert str(val).startswith("1.414213562373095048")
    short = cf_eval(f, 2, 1, precision=8)
    assert len(str(short).replace(".", "").lstrip("0")) <= 9


def test_eval_respects_env_precision(monkeypatch):
    monkeypatch.setenv("GML_PRECISION", "10")
    f = ClassFunction.monomial(F(1, 2))
    assert len(str(cf_eval(f, 2, 1)).replace(".", "")) <= 11


def test_eval_pole():
    f = 1 / (Q - 2)
    with pytest.raises(PoleAtEvaluationPoint):
        cf_eval(f, 2, 1)


def test_eval_argument_validation():
    with pytest.raises(ValueError):
        cf_eval(one, 1, 1)
    with pytest.raises(ValueError):
        cf_eval(one, 2, 0)


def test_geometric_sum_telescopes_to_constant():
    s = cf_geometric_sum(Q - 1, -1, 0, 1)
    assert s == one


def test_geometric_sum_char2_term():
    s = cf_geometric_sum(Q - 1, -1, -1, 1)
    assert s == 1 / Q


def test_geometric_sum_finite_and_empty():
    s = cf_geometric_sum(one, 2, 0, 0, 3)
    assert s == ClassFunction.poly({0: 1, 2: 1, 4: 1, 6: 1})
    assert cf_geometric_sum(one, 1, 0, 5, 4) == ClassFunction.zero()


def test_geometric_sum_divergent():
    with pytest.raises(DivergentSeries):
        cf_geometric_sum(one, 1, 0, 1)
    with pytest.raises(DivergentSeries):
        cf_geometric_sum(one, 0, 0, 1)
    # a zero coefficient never diverges
    assert cf_geometric_sum(ClassFunction.zero(), 1, 0, 1) == ClassFunction.zero()


def test_admissible_witness_examples():
    f = 1 / (Q - 1)
    assert cf_admissible_witness(f, 1)
    assert not cf_admissible_witness(f * f, 1)
    assert cf_admissible_witness(Q + 1, 1)
    with pytest.raises(ValueError):
        cf_admissible_witness(f, 0)


def test_witness_scales_with_root_order():
    f = 1 / (ClassFunction.monomial(F(1, 2)) - 1)
    assert cf_admissible_witness(f, F(1, 2))
    assert not cf_admissible_witness(f, F(1, 3))


def test_canonical_modulus_folds():
    f = ClassFunction.from_class_polys(2, [{1: 1}, {1: 1}])
    assert f.modulus == 1
    assert f == Q


def test_canonical_root_order_rescales():
    f = ClassFunction.from_class_polys(1, [{F(2, 4): 1}])
    assert f.root_order == 2
    assert f == ClassFunction.monomial(F(1, 2))


def test_pow_and_rdiv():
    f = Q + 1
    assert f**0 == one
    assert f**3 == f * f * f
    assert f**-1 == 1 / f
    assert (2 / f) * f == ClassFunction.constant(2)


def test_pow_by_squaring_matches_repeated_multiplication():
    f = cf_from_terms([(1, F(1, 2), F(1, 2)), (2, 0, -1), (1, 0, 0)], den_exp=F(1, 2))
    assert f.modulus > 1 and f.root_order > 1
    for k in range(-4, 10):
        base = f if k >= 0 else one / f
        expected = one
        for _ in range(abs(k)):
            expected = expected * base
        assert f**k == expected


def test_import_leaves_mpmath_unloaded():
    code = (
        "import sys, massdual\n"
        "assert 'mpmath' not in sys.modules\n"
        "massdual.cf_eval(massdual.ClassFunction.monomial('1/2'), 2, 1)\n"
        "assert 'mpmath' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_json_roundtrip_and_hash():
    f = cf_from_terms([(1, F(1, 2), F(3, 2)), (2, 0, -1)], den_exp=F(1, 2))
    assert ClassFunction.from_json(f.to_json()) == f
    assert hash(f) == hash(ClassFunction.from_json(f.to_json()))
    # integer strings are integers; floats and bools are refused, not truncated
    doc = {"modulus": "1", "root_order": "2", "classes": [{"num": [["1", "1"]], "den": [["1", 0]]}]}
    assert ClassFunction.from_json(doc) == ClassFunction.monomial(F(1, 2))
    for bad in ({**doc, "root_order": 2.0}, {**doc, "modulus": True}):
        with pytest.raises(ValueError):
            ClassFunction.from_json(bad)


def test_immutability():
    with pytest.raises(AttributeError):
        Q.modulus = 3


@st.composite
def term_lists(draw):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = F(draw(st.integers(-3, 3)))
        root = F(draw(st.sampled_from([0, 1])), 2)
        q_exp = F(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2])))
        terms.append((coeff, root, q_exp))
    den_exp = draw(st.sampled_from([None, 1, -1, 2, F(1, 2)]))
    return terms, den_exp


@given(term_lists(), term_lists())
@settings(max_examples=80, deadline=None)
def test_dual_is_ring_involution(ta, tb):
    f = cf_from_terms(*ta)
    g = cf_from_terms(*tb)
    assert cf_dual(f + g) == cf_dual(f) + cf_dual(g)
    assert cf_dual(f * g) == cf_dual(f) * cf_dual(g)
    assert cf_dual(cf_dual(f)) == f


@given(term_lists())
@settings(max_examples=80, deadline=None)
def test_dual_matches_negated_term_list(ta):
    terms, den_exp = ta
    f = cf_from_terms(terms, den_exp)
    negated = [(c, (-root) % 1, -qe) for c, root, qe in terms]
    neg_den = None if den_exp is None else -F(den_exp)
    assert cf_from_terms(negated, neg_den) == cf_dual(f)


@given(term_lists())
@settings(max_examples=60, deadline=None)
def test_constructed_functions_certify_their_denominator(ta):
    terms, den_exp = ta
    f = cf_from_terms(terms, den_exp)
    assert cf_admissible_witness(f, den_exp if den_exp is not None else 1)


WITNESS_EXPONENTS = (1, -1, 2, F(1, 2), F(-1, 2), F(-3, 2), F(2, 3), 3, -6)


@given(term_lists(), term_lists())
# 1/(Q^2 - 1) times Q^(1/2): false for c = 1, -1, 1/2, -1/2, -3/2, 2/3, 3
@example(([(1, 0, 0)], 2), ([(1, 0, F(1, 2))], None))
@settings(max_examples=60, deadline=None)
def test_witness_agrees_with_the_ring_product(ta, tb):
    f = cf_from_terms(*ta)
    for h in (f, f * cf_from_terms(*tb)):
        for c in WITNESS_EXPONENTS:
            product = (ClassFunction.monomial(c) - 1) * h
            assert cf_admissible_witness(h, c) == all(e.is_poly for e in product.classes)


def _exact_q0(base, *fns):
    n = math.lcm(*(f.root_order for f in fns))
    return F(base) ** n


@given(term_lists(), term_lists(), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_ring_homomorphism(ta, tb, r0):
    f = cf_from_terms(*ta)
    g = cf_from_terms(*tb)
    q0 = _exact_q0(2, f, g, f * g, f + g)
    assert cf_eval(f * g, q0, r0) == cf_eval(f, q0, r0) * cf_eval(g, q0, r0)
    assert cf_eval(f + g, q0, r0) == cf_eval(f, q0, r0) + cf_eval(g, q0, r0)


@given(term_lists(), term_lists())
@settings(max_examples=60, deadline=None)
def test_canonical_equality_is_evaluation_equality(ta, tb):
    f = cf_from_terms(*ta)
    g = cf_from_terms(*tb)
    if f == g:
        q0 = _exact_q0(2, f, g)
        for r0 in range(1, 21):
            assert cf_eval(f, q0, r0) == cf_eval(g, q0, r0)
    else:
        # a nonzero difference must show up within one span of each class
        h = f - g
        bound = h.modulus * (1 + h.degree_span())
        for base in (2, 3, 5):
            q0 = _exact_q0(base, h)
            assert any(cf_eval(h, q0, r0) != 0 for r0 in range(1, bound + 1))


@given(term_lists(), term_lists())
@settings(max_examples=80, deadline=None)
def test_mirror_needs_no_gcd(ta, tb):
    f = cf_from_terms(*ta)
    for e in (f * cf_from_terms(*tb)).classes + f.classes:
        assert _rf_mirror(e) == ratfun(e.num.mirror(), e.den.mirror())


def _check_divmod(a, b):
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or (r.min_exp >= 0 and r.max_exp < b.max_exp)
    return q, r


nonzero = st.builds(F, st.integers(-5, 5).filter(bool), st.sampled_from([1, 2, 3]))
polys = st.dictionaries(st.integers(0, 12), nonzero, max_size=8).map(LaurentPoly)


@given(polys, polys.filter(lambda b: not b.is_zero))
@settings(max_examples=100, deadline=None)
def test_divmod_is_division_with_remainder(a, b):
    _check_divmod(a, b)


def test_divmod_edge_cases():
    a = LaurentPoly({0: 1, 3: F(2, 3), 7: -4})
    # constant and non-monic divisors
    q, r = _check_divmod(a, LaurentPoly({0: F(-3, 2)}))
    assert r.is_zero and q == a.scale(F(-2, 3))
    _check_divmod(a, LaurentPoly({0: 1, 2: 3}))
    _check_divmod(LaurentPoly(), LaurentPoly({1: 2}))
    # a sparse dividend whose two terms are 10^6 - 1 apart
    big = 10**6
    q, r = _check_divmod(LaurentPoly({big: 1, 1: 1}), LaurentPoly({big: 1}))
    assert q == LaurentPoly.one() and r == LaurentPoly({1: 1})
    with pytest.raises(ZeroDivisionError):
        poly_divmod(a, LaurentPoly())


@pytest.mark.parametrize("a", [F(-3, 2), -1, 0, F(1, 3), 2])
def test_finite_geometric_sum_matches_term_by_term(a):
    coeffs = [Q - 1, 1 / (Q + 1), cf_from_terms([(3, F(1, 2), F(1, 2))])]
    for b in (F(-1, 2), 0, F(2, 3), 5):
        for i0 in (-2, 0, 3):
            for i1 in (i0 - 2, i0 - 1, i0, i0 + 1, i0 + 6):
                terms = ClassFunction.zero()
                for i in range(i0, i1 + 1):
                    terms = terms + ClassFunction.poly({a * i + b: 1})
                for c in coeffs:
                    assert cf_geometric_sum(c, a, b, i0, i1) == c * terms


def test_long_finite_geometric_sum():
    s = cf_geometric_sum(1, 1, 0, 1, 10**5)
    assert s.modulus == 1 and s.root_order == 1
    (entry,) = s.classes
    assert entry.is_poly
    assert entry.num.terms == {e: 1 for e in range(1, 10**5 + 1)}


def test_finite_geometric_sum_with_a_polynomial_coefficient():
    s = cf_geometric_sum(Q - 1, 1, 0, 1, 2000)
    assert s == Q**2001 - Q


@given(
    st.lists(st.tuples(st.integers(-30, 30), nonzero), max_size=12),
    st.tuples(st.integers(-30, 30), nonzero | st.just(F(1))),
)
@settings(max_examples=100, deadline=None)
def test_product_by_a_monomial_matches_the_general_product(terms, mono):
    p, m = LaurentPoly(terms), LaurentPoly([mono])
    # the schoolbook product: LaurentPoly adds up terms with equal exponents
    want = LaurentPoly([(e1 + e2, c1 * c2) for e1, c1 in terms for e2, c2 in [mono]])
    assert p * m == want and m * p == want


def test_divisors_match_the_scan():
    for n in range(1, 501):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


# -- gcd over Z ------------------------------------------------------------------


def _euclid_gcd(a, b):
    """The oracle: monic gcd by Euclid over Q."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return a.scale(1 / a.terms[a.max_exp])


def _monic(p):
    return LaurentPoly(p.terms).scale(F(1) / p.terms[p.max_exp])


sparse_polys = st.dictionaries(
    st.integers(0, 25),
    st.builds(F, st.integers(-1000, 1000).filter(bool), st.sampled_from([1, 1, 2, 3, 7])),
    min_size=1,
    max_size=5,
).map(LaurentPoly)


@given(sparse_polys, sparse_polys, sparse_polys)
@settings(max_examples=150, deadline=None)
def test_gcd_over_z_matches_euclid_over_q(a, b, planted):
    a, b = a * planted, b * planted
    want = _euclid_gcd(a, b)
    ca, pa = _primitive(a)
    cb, pb = _primitive(b)
    assert pa.scale(ca) == a and pb.scale(cb) == b
    for gcd in (poly_gcd, _gcd_prs):
        g, qa, qb = gcd(pa, pb)
        assert all(type(c) is int for p in (g, qa, qb) for c in p.terms.values())
        assert g.terms[g.max_exp] > 0 and _primitive(g)[0] == 1
        assert _monic(g) == want
        assert (g * qa).terms == pa.terms and (g * qb).terms == pb.terms
    # ratfun's normal form is the one the oracle's gcd gives
    vn, vd = a.min_exp, b.min_exp
    n0, d0 = a.shift(-vn), b.shift(-vd)
    g = _euclid_gcd(n0, d0)
    n0, d0 = poly_divmod(n0, g)[0], poly_divmod(d0, g)[0]
    lc = d0.terms[d0.max_exp]
    reduced = ratfun(a, b)
    assert reduced.num == n0.scale(1 / lc).shift(vn - vd) and reduced.den == d0.scale(1 / lc)


def test_gcd_of_sparse_binomials_stays_sparse():
    a, b = LaurentPoly._of({20000: 1, 0: -1}), LaurentPoly._of({12000: 1, 0: -1})
    for gcd in (poly_gcd, _gcd_prs):
        g, qa, qb = gcd(a, b)
        assert g.terms == {4000: 1, 0: -1}
        assert qa.terms == {e: 1 for e in range(0, 20000, 4000)}
        assert qb.terms == {8000: 1, 4000: 1, 0: 1}
    (entry,) = ((Q**20000 - 1) / (Q**12000 - 1)).classes
    assert entry.num.terms == {e: 1 for e in range(0, 20000, 4000)}
    assert entry.den.terms == {8000: 1, 4000: 1, 0: 1}


def test_dual_difference_of_a_sparse_quotient_is_exact():
    # a 4-term input on which Euclid over Q ran for minutes
    num = {31: F(3, 4), -8: F(3, 4), 43: F(5)}
    den = {45: F(1), 23: F(-2), 10: F(-2), -35: F(-2)}
    f = ClassFunction.poly(num) / ClassFunction.poly(den)
    h = f.dual() * Q**2 - f

    def value(x):  # f at Q = x, straight from its terms
        return sum(c * x**e for e, c in num.items()) / sum(c * x**e for e, c in den.items())

    for q0 in (2, 3, F(5, 2)):
        for r0 in (1, 2, 3):
            x = F(q0) ** r0
            assert cf_eval(h, q0, r0) == value(1 / x) * x**2 - value(x)
