import cmath
import fractions
import heapq
import math
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from unittest import mock

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
from massdual import bhargava_masses, duality_report, qsym
from massdual.qsym import (
    EXACT_EVAL_MAX_BITS,
    Infinite,
    LaurentPoly,
    RationalFunctionX,
    _cyclotomic,
    _divisors,
    _divmod_z,
    _frac,
    _gcd_prs,
    _ints,
    _json_frac,
    _json_int,
    _primitive,
    _rational_root_sum,
    _rf_add,
    _rf_div,
    _rf_mirror,
    _rf_mul,
    _reduced,
    _zmul,
    frac_str,
    iroot,
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
        pairs = [(k, 1) for k in primitive_exponents(m)]
        assert _rational_root_sum(pairs, m) == mu


def poly_divmod(a, b):
    """The oracle: division with remainder over Q of polynomials with no negative exponent."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    assert a.is_zero or a.min_exp >= 0
    assert b.min_exp >= 0
    db = b.max_exp
    lb = b.terms[db]
    quo, rem = {}, dict(a.terms)
    # max-heap of rem's exponents; each step cancels e and adds only exponents
    # below it, so an exponent popped but no longer in rem is just skipped
    pending = [-e for e in rem]
    heapq.heapify(pending)
    while pending and -pending[0] >= db:
        e = -heapq.heappop(pending)
        if e not in rem:
            continue
        c = quo[e - db] = rem[e] / lb
        for eb, cb in b.terms.items():
            ne = e - db + eb
            if ne in rem:
                acc = rem[ne] - c * cb
            else:
                acc = -c * cb
                heapq.heappush(pending, -ne)
            if acc:
                rem[ne] = acc
            else:
                del rem[ne]
    return LaurentPoly(quo), LaurentPoly(rem)


@lru_cache(maxsize=None)
def _cyclotomic_oracle(n):
    """Phi_n by its recursive definition: x^n - 1 divided by every lower Phi_d, d | n."""
    poly = LaurentPoly({n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            poly = poly_divmod(poly, _cyclotomic_oracle(d))[0]
    return poly


def _root_sum_oracle(pairs, m):
    """sum c * zeta_m^e over Q: the remainder of sum c * x^(e mod m) modulo Phi_m, if constant."""
    rem = poly_divmod(LaurentPoly((e % m, c) for e, c in pairs), _cyclotomic_oracle(m))[1]
    return rem.coeff(0) if rem.terms.keys() <= {0} else None


def test_moebius_cyclotomic_matches_the_recursive_definition():
    for n in range(1, 201):
        want = _cyclotomic_oracle(n)
        assert _cyclotomic(n) == tuple(want.coeff(i) for i in range(want.max_exp + 1)), n


def test_cyclotomic_polynomial_vanishes_at_the_primitive_roots():
    # monic of degree phi(m) with every primitive m-th root as a root
    for m in range(1, 31):
        phi = _cyclotomic(m)
        roots = primitive_exponents(m)
        assert phi[0] != 0 and len(phi) - 1 == len(roots) and phi[-1] == 1
        for k in roots:
            zeta = cmath.exp(2j * cmath.pi * k / m)
            assert abs(sum(c * zeta**e for e, c in enumerate(phi))) < 1e-9


def test_root_sum_ignores_multiples_of_the_cyclotomic_polynomial():
    # the root sum takes integer coefficients: the rational ones here are taken times 60
    rng = random.Random(4)
    for m in range(1, 31):
        for _ in range(5):
            v = F(rng.randint(-9, 9), rng.randint(1, 5))
            pairs = [(m * rng.randint(-3, 3), v)]
            for _ in range(rng.randint(1, 3)):
                c, k = F(rng.randint(-4, 4), rng.randint(1, 3)), rng.randrange(m)
                pairs += [
                    (e + k + m * rng.randint(-3, 3), c * b) for e, b in enumerate(_cyclotomic(m))
                ]
            rng.shuffle(pairs)
            assert _rational_root_sum([(e, int(c * 60)) for e, c in pairs], m) == v * 60
            assert _root_sum_oracle(pairs, m) == v


def test_root_sum_with_a_primitive_root_is_irrational():
    for m in range(1, 31):
        got = _rational_root_sum([(0, 3), (1, 2)], m)
        assert got == {1: 5, 2: 1}.get(m)


def _per_residue(terms, den_exp=None):
    """The oracle for cf_from_terms: one root sum per residue class j, not per divisor,
    each by division by the recursive Phi_m over Q."""
    norm = [(F(c), F(root) % 1, F(q_exp)) for c, root, q_exp in terms]
    m = math.lcm(1, *(root.denominator for _, root, _ in norm))
    n = math.lcm(1 if den_exp is None else F(den_exp).denominator, *(q_exp.denominator for *_, q_exp in norm))
    den = _one() if den_exp is None else LaurentPoly({int(F(den_exp) * n): 1, 0: -1})
    entries = []
    for j in range(m):
        by_exp = {}
        for c, root, q_exp in norm:
            by_exp.setdefault(int(q_exp * n), []).append((int(root * m) * j, c))
        values = {}
        for e, pairs in by_exp.items():
            values[e] = _root_sum_oracle(pairs, m)
            if values[e] is None:
                raise NonRealInput(f"coefficients on the class r = {j} (mod {m}) are not rational")
        entries.append(ratfun(LaurentPoly(values), den))
    return ClassFunction(m, n, entries)


@st.composite
def rooted_term_lists(draw):
    """Terms whose roots of unity have orders dividing some M <= 60, often
    completed to whole Galois orbits (so rational on every class), often not."""
    m = draw(st.integers(1, 60))
    orders = [d for d in range(1, m + 1) if m % d == 0]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = F(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3])))
        order, q_exp = draw(st.sampled_from(orders)), F(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2])))
        b = draw(st.integers(0, order - 1))
        units = primitive_exponents(order) if draw(st.booleans()) else [1]
        terms += [(coeff, F(a * b, order), q_exp) for a in units]
    return terms, draw(st.sampled_from([None, 1, -2, F(1, 2)]))


@given(rooted_term_lists())
@example(([(1, F(1, 6), 0), (1, F(5, 6), 0), (1, F(1, 4), 0)], None))  # classes 0, 2 rational; 1 not
@example(([(1, F(1, 8), 0), (1, F(5, 8), 0)], None))  # 0 on the odd classes; 2i on r = 2 (mod 8)
@settings(max_examples=150, deadline=None)
def test_from_terms_per_divisor_matches_per_residue(ta):
    try:
        want = _per_residue(*ta)
    except NonRealInput as exc:
        with pytest.raises(NonRealInput) as caught:
            cf_from_terms(*ta)
        assert str(caught.value) == str(exc)
    else:
        got = cf_from_terms(*ta)
        assert got == want and hash(got) == hash(want)


def _phi(m):
    return len(primitive_exponents(m))


def test_ramanujan_sums_over_four_root_orders():
    # sum over q of c_q(r) = sum of the primitive q-th roots to the r-th power,
    # c_q(r) = mu(t) * phi(q) / phi(t) for t = q / gcd(q, r); M = 7*9*11*13 = 9009
    orders = (7, 9, 11, 13)
    f = cf_from_terms([(1, F(k, q), 0) for q in orders for k in primitive_exponents(q)])
    assert f.modulus == 9009 and f.root_order == 1

    def c(q, r):
        t = q // math.gcd(q, r)
        return MOBIUS[t - 1] * _phi(q) // _phi(t)

    want = [sum(c(q, r) for q in orders) for r in range(9009)]
    assert f == ClassFunction.from_class_polys(9009, [{0: v} for v in want])


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


def test_iroot_with_a_large_root_order():
    # below 2^k the root is 1 at once; Newton from 3 would cost about k digits
    for n, k in [(2, 10**6), (3**100, 10**6), (2**999, 1000), (2**1000 - 1, 1000)]:
        assert iroot(n, k) == 1
    assert iroot(2**1000, 1000) == 2
    assert ClassFunction.monomial(F(1, 100000007)).eval(2, 1, 20) == Decimal("1.0000000069314713444")


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
    # the variable is read only where a Decimal is made: an exact value ignores it
    monkeypatch.setenv("GML_PRECISION", "junk")
    assert cf_eval(f, 4, 1) == 2
    with pytest.raises(ValueError, match="GML_PRECISION"):
        cf_eval(f, 2, 1)


ROOT = ClassFunction.monomial(F(1, 2))
EVAL_POINTS = [  # (f, q0, r0): each needs an irrational root of q0
    (Q + ROOT, 2, 1),
    (Q + ROOT, 2, 10**12 + 1),  # an exponent of 12 digits
    (2 + 1 / ROOT - 1 / Q, 2, 10**12 + 1),  # integral at every precision: 2.0
    # 2^(r0/2) on both sides of the last fixed exponent, 4, 49 and 199
    (ROOT, 2, 33), (ROOT, 2, 35), (ROOT, 2, 327), (ROOT, 2, 333), (ROOT, 2, 1325), (ROOT, 2, 1331),
    # 2^(-r0/2) on both sides of the first fixed exponent, -4, -15 and -65
    (1 / ROOT, 2, 25), (1 / ROOT, 2, 27), (1 / ROOT, 2, 99), (1 / ROOT, 2, 101),
    (1 / ROOT, 2, 427), (1 / ROOT, 2, 433),
    (ROOT - Q, 2, 1),  # negative
    (1 / ROOT, 2, 1001),  # tiny
    (ROOT, F(7, 5), 3),
]
# str(f.eval(q0, r0, precision)) as the mpmath-based evaluation wrote it
PINNED_DECIMALS = {
    5: [
        "3.4142",
        "1.9152E+301029995664",
        "2.0",
        "92682.0",
        "1.8536E+5",
        "1.6535E+49",
        "1.3228E+50",
        "2.7063E+199",
        "2.165E+200",
        "0.00017263",
        "0.000086317",
        "1.2561E-15",
        "6.2804E-16",
        "5.3715E-65",
        "6.7144E-66",
        "-0.58579",
        "2.1602E-151",
        "1.6565",
    ],
    50: [
        "3.4142135623730950488016887242096980785696718753769",
        "1.9152488462985486569610118991397896749425419135039E+301029995664",
        "2.0",
        "92681.900023683157118267472229806773277142016024704",
        "185363.80004736631423653494445961354655428403204941",
        "16535003495550779306661991744110472180033553566633.0",
        "1.3228002796440623445329593395288377744026842853306E+50",
        "2.7062762571932898113567420015030877475191683688721E+199",
        "2.1650210057546318490853936012024701980153346950977E+200",
        "0.00017263349150062195419942489309200415998164939884973",
        "0.000086316745750310977099712446546002079990824699424863",
        "1.2560739669470200475147058975708507931387386550321E-15",
        "6.2803698347351002375735294878542539656936932751605E-16",
        "5.3715042753944098778285063806519922358450659687231E-65",
        "6.7143803442430123472856329758149902948063324609039E-66",
        "-0.58578643762690495119831127579030192143032812462305",
        "2.1601662187239421773112728697271247209843141569559E-151",
        "1.6565023392678924919188519216372527735563403446224",
    ],
    200: [
        (
            "3.4142135623730950488016887242096980785696718753769480731766797379907324784621070388"
            "503875343276415727350138462309122970249248360558507372126441214970999358314132226659"
            "275055927557999505011527820605715"
        ),
        (
            "1.9152488462985486569610118991397896749425419135038581139642625703414716654879203335"
            "179742941036828629293690750488561296938112233995099683003155498531189475054031895330"
            "283795060141531709513760470676976E+301029995664"
        ),
        "2.0",
        (
            "92681.900023683157118267472229806773277142016024703668923706883308960643708492646898"
            "098997449696318110761867426589068297825474055756233913967845146433941394647496960634"
            "225006526844105556043548725121612"
        ),
        (
            "185363.80004736631423653494445961354655428403204940733784741376661792128741698529379"
            "619799489939263622152373485317813659565094811151246782793569029286788278929499392126"
            "845001305368821111208709745024322"
        ),
        (
            "16535003495550779306661991744110472180033553566632.577064800732368548337897628314267"
            "577018438827888582322902273857285786789842385884754105836464531338143112012232400402"
            "182225997040838270523288112226561"
        ),
        (
            "132280027964406234453295933952883777440268428533060.61651840585894838670318102651414"
            "061614751062310865858321819085828629431873908707803284669171625070514489609785920321"
            "745780797632670616418630489781249"
        ),
        (
            "270627625719328981135674200150308774751916836887209800735643295099504237481075567618"
            "768462501592828155171702378350339231434399619373627922465073559918471164662726324432"
            "67383747469052389214438553901278.0"
        ),
        (
            "2.1650210057546318490853936012024701980153346950976784058851463607960338998486045409"
            "501477000127426252413736190268027138514751969549890233797205884793477693173018105954"
            "613906997975241911371550843121023E+200"
        ),
        (
            "0.0001726334915006219541994248930920041599816493988497251065889501633289468357497689"
            "256409164470614796841717546199012344112579253950263489669449028468624389570106705594"
            "0746185371005319823614516025171637835"
        ),
        (
            "0.0000863167457503109770997124465460020799908246994248625532944750816644734178748844"
            "628204582235307398420858773099506172056289626975131744834724514234312194785053352797"
            "03730926855026599118072580125858189177"
        ),
        (
            "1.2560739669470200475147058975708507931387386550321033180003735711866963229096212718"
            "353231834879238461999529674448015521769804401726939755091941832684020992795599115740"
            "46809328524965066354781823730288E-15"
        ),
        (
            "6.2803698347351002375735294878542539656936932751605165900018678559334816145481063591"
            "766159174396192309997648372240077608849022008634698775459709163420104963977995578702"
            "340466426248253317739091186514398E-16"
        ),
        (
            "5.3715042753944098778285063806519922358450659687231023692605545907486189567209329813"
            "232443191719313040264447307531404914439562902892459395496319450719412764363734586476"
            "02006774203964667977330716064912E-65"
        ),
        (
            "6.7143803442430123472856329758149902948063324609038779615756932384357736959011662266"
            "540553989649141300330559134414256143049453628615574244370399313399265955454668233095"
            "0250846775495583497166339508114E-66"
        ),
        (
            "-0.585786437626904951198311275790301921430328124623051926823320262009267521537892961"
            "149612465672358427264986153769087702975075163944149262787355878502900064168586777334"
            "07249440724420004949884721793942853"
        ),
        (
            "2.1601662187239421773112728697271247209843141569559015801300451662773824051508790705"
            "898421091863776484174962038993647376740750300381653680687989495560358776137401355237"
            "376395491729191182437377593720878E-151"
        ),
        (
            "1.6565023392678924919188519216372527735563403446224152904063215073599902885495828502"
            "944107076112705698648151778319912755964075942794654803826417859825487059547490825036"
            "269161026724237832681960338892312"
        ),
    ],
}


@pytest.mark.parametrize("precision", [5, 50, 200])
def test_decimal_eval_matches_the_pinned_strings(precision):
    got = [str(f.eval(q0, r0, precision)) for f, q0, r0 in EVAL_POINTS]
    assert got == PINNED_DECIMALS[precision]


def test_decimal_eval_is_correctly_rounded():
    # 2^(10^17 + 1) = 6.64...E+30102999566398119: the exponent's 18 digits
    # are guard digits too, so the leading digit is right even at precision 1
    assert str((Q + ROOT).eval(2, 10**17 + 1, 1)) == "7.0E+30102999566398119"
    # 4^(1/3) = 1.5874010519681994748..., 3^(1/2) = 1.7320508075688772935...
    cube = ClassFunction.monomial(F(1, 3))
    assert [str(cube.eval(4, 1, p)) for p in (1, 2, 3, 4)] == ["2.0", "1.6", "1.59", "1.587"]
    assert str(ROOT.eval(3, 1, 19)) == "1.732050807568877294"


def test_decimal_eval_of_terms_that_cancel_is_zero():
    # terms q0^t whose t differ by an integer share one power of the root, so
    # their exact cancellation survives: 2^(3/2) = 2*2^(1/2), 3^(4/3) = 3*3^(1/3),
    # (1/2)(3/2)^(-4/3) = (9/8)(3/2)^(-10/3), and with q0 = 9 = 3^2 the root is
    # 3^(1/2), so 9^(3/4) = 3*9^(1/4)
    fourth = ClassFunction.monomial(F(1, 4))
    cancel = [
        (ClassFunction.monomial(F(3, 2)) - 2 * ROOT, 2, 1),
        (ClassFunction.monomial(F(4, 3)) - 3 * ClassFunction.monomial(F(1, 3)), 3, 1),
        (ClassFunction.monomial(F(3, 4)) - 3 * fourth, 9, 1),
        (ClassFunction.monomial(F(3, 4)) - F(3, 2) * fourth, F(9, 4), 1),
        (
            ClassFunction.poly({F(-2, 3): F(1, 2), F(-5, 3): F(-9, 8)})
            / (ClassFunction.monomial(F(1, 3)) + F(1, 2)),
            F(3, 2),
            2,
        ),
    ]
    for f, q0, r0 in cancel:
        assert [str(f.eval(q0, r0, p)) for p in (5, 50, 200)] == ["0.0"] * 3


def test_decimal_eval_near_a_tie_doubles_the_guard_digits():
    # at q0 = 10^40 + 1 the digits after the 200th are 4, 17 nines, 7... (first
    # value) and 5, 34 zeros, 996... (second): 15 guard digits round the first
    # up and the second down, and only more guard digits settle them
    big = 10**40 + 1
    near_below = ClassFunction.poly({0: F(15, 4), F(-1, 4): F(3, 4), F(-11, 4): F(3, 4)}) / (Q**3 - F(3, 2))
    near_above = F(9, 16) * ClassFunction.monomial(F(-7, 3)) / (ClassFunction.monomial(F(5, 3)) - F(1, 8))
    assert str(near_below.eval(big, 2, 200)) == (
        "3.75000000000000000000749999999999999999774999999999999999999512500000000000000078750000"
        "0000000000001828124999999999999789999999999999999999482031250000000000047250000000000000"
        "0001230175781249999999905E-240"
    )
    assert str(near_above.eval(big, 5, 200)) == (
        "5.62499999999999999999999999999999999998875000000000000000000000000000000000001181249999"
        "9999999999999999999999999999991337500000000000000000000000000000000004980937499999999999"
        "9999999999999999999976092E-801"
    )


def test_eval_pole():
    f = 1 / (Q - 2)
    with pytest.raises(PoleAtEvaluationPoint):
        cf_eval(f, 2, 1)


def test_decimal_eval_pole():
    # (R^2 - 2) vanishes at R = q0^(1/2) = sqrt(2): the decimal branch finds the pole
    R = ClassFunction.monomial(F(1, 2))
    f = 1 / ((R**2 - 2) * (R + 1))
    assert f.root_order == 2
    with pytest.raises(PoleAtEvaluationPoint, match="q0=2, r0=1"):
        f.eval(2, 1)
    assert type(f.eval(3, 1)) is Decimal


def test_exact_eval_size_cap():
    # Q at q0 = 2 is 2^r0: 2 bits a unit of span, so r0 = cap/2 is the last allowed
    r0 = EXACT_EVAL_MAX_BITS // 2
    assert cf_eval(Q, 2, r0) == 2**r0
    with pytest.raises(ValueError, match=f"q0=2, r0={r0 + 1} would exceed"):
        cf_eval(Q, 2, r0 + 1)
    with pytest.raises(ValueError, match="q0=4, r0=1000000000001"):
        cf_eval(ClassFunction.monomial(F(1, 2)), 4, 10**12 + 1)
    # 9/4 = (3/2)^2: the root has a denominator, and the message prints q0 as p/q
    with pytest.raises(ValueError, match="q0=9/4, r0=1000000000001 would exceed"):
        cf_eval(ClassFunction.monomial(F(1, 2)), F(9, 4), 10**12 + 1)


def test_eval_argument_validation():
    for q0 in (1, F(1), "1", F(1, 2), "0", 0):
        with pytest.raises(ValueError, match="q0 must be a rational > 1"):
            cf_eval(one, q0, 1)
    with pytest.raises(TypeError, match="floats are not exact"):
        cf_eval(one, 2.0, 1)
    with pytest.raises(ValueError):
        cf_eval(one, 2, 0)
    for precision in (0, -5, "7.5", True, 2.0):
        with pytest.raises(ValueError, match="GML_PRECISION"):
            cf_eval(ROOT, 2, 1, precision)
        # precision is read only for a Decimal: an exact value returns its Fraction
        assert cf_eval(ROOT, 4, 1, precision) == 2
    # 2^(+-(10^30 + 1)/2) is beyond the decimal exponent range either way
    for f in (ROOT, 1 / ROOT):
        with pytest.raises(ValueError, match="exponent range"):
            cf_eval(f, 2, 10**30 + 1)


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


def test_mpmath_never_loads():
    # a None entry in sys.modules makes every import of mpmath fail
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import massdual\n"
        "from massdual.cli import run\n"
        "print(massdual.cf_eval(massdual.ClassFunction.monomial('1/2'), 2, 1))\n"
        "sys.exit(run(['profile', '--builtin', 'quad_char0_sigma', '--n', '1', '--eval', '2', '1']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "1.4142135623730950488016887242096980785696718753769"
    assert "mass_v(2,1) = 2.2071067811865475244008443621048490392848359376885" in lines


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


def test_from_json_keeps_the_last_value_of_a_repeated_exponent():
    doc = {"modulus": 1, "root_order": 1, "classes": [{"num": [["1", 2], ["3", 2]], "den": [["1", 0]]}]}
    assert ClassFunction.from_json(doc) == 3 * Q**2


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str limit")
def test_an_exponent_of_more_digits_than_the_limit_is_named():
    # int() would refuse the exponent itself, with a text that does not name the value
    limit = sys.get_int_max_str_digits()
    for text in ("1e" + "9" * (limit + 700), " -2.5E+" + "1_000" * limit + " "):
        with pytest.raises(ValueError, match=r"^'.*': a decimal exponent beyond"):
            _frac(text)
    for text in ("x1e" + "9" * (limit + 700), "1e" + "0" * limit + "1", "1e" + "9" * (limit + 1) + "_"):
        with pytest.raises(ValueError) as caught:
            F(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(caught.value))}$"):
            _frac(text)


@pytest.mark.parametrize(
    "read",
    [
        lambda: _json_int(F(3, 2)),
        lambda: Q.eval(2, 1.5),
        lambda: Q.eval(2, F(3, 2)),
        lambda: LaurentPoly({1.5: 1}),
        lambda: cf_geometric_sum(one, 1, 0, 0, 2.9),
        lambda: cf_geometric_sum(one, 1, 0, 0.5, 3),
        lambda: duality_report(bhargava_masses(2), 2.5),
    ],
    ids=["json_int", "eval-r0-float", "eval-r0-fraction", "laurent-exponent", "sum-i1", "sum-i0", "report-dim"],
)
def test_integer_readers_refuse_what_int_would_truncate(read):
    with pytest.raises(ValueError, match="expected an integer, got"):
        read()


# JSON coefficients: ints, the "p" and "p/q" that to_json writes, near misses of them, and other values
json_coefficients = st.one_of(
    st.integers(-10**30, 10**30),
    st.from_regex(r"-?\d+(/[1-9]\d*)?", fullmatch=True),
    st.from_regex(r"[-+ ]?[0-9]{0,3}([./eE_][-+0-9]{0,3})?[ \n]?", fullmatch=True),
    st.text(alphabet="0123456789/-+.e_ \n\u0663", max_size=7),
    st.floats(width=32),
    st.booleans(),
    st.none(),
)


@given(json_coefficients)
@example(" 7 ")
@example("1/0")
@example("0/05")
@example("-0")
@example(" -1.5E+4301 ")  # valid, with an exponent past the default int-string digit limit
@example("e4301")
@settings(max_examples=300, deadline=None)
def test_json_coefficients_read_like_fraction_of_their_str(c):
    # a literal whose exponent is past the digit limit is refused before Fraction builds 10^exp
    m, limit = fractions._RATIONAL_FORMAT.match(str(c)), getattr(sys, "get_int_max_str_digits", int)()
    if limit and m and m["exp"] and abs(int(m["exp"])) > limit:
        with pytest.raises(ValueError, match="a decimal exponent beyond"):
            _json_frac(c)
        return
    try:
        want = F(str(c))
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as caught:
            _json_frac(c)
        assert str(caught.value) == str(exc)
    else:
        assert _json_frac(c) == want
        doc = {"modulus": 1, "root_order": 1, "classes": [{"num": [[c, 1], ["1", 0]], "den": [["2", 0]]}]}
        assert ClassFunction.from_json(doc) == (want * Q + 1) / 2


def _class_polys_oracle(modulus, class_polys):
    """from_class_polys by the route over Q: LaurentPolys of Fractions, then ratfun."""
    polys = [[(F(e), F(c)) for e, c in d.items()] for d in class_polys]
    n = math.lcm(1, *(e.denominator for p in polys for e, _ in p))
    nums = [LaurentPoly((int(e * n), c) for e, c in p) for p in polys]
    return ClassFunction(modulus, n, [ratfun(p, _one()) for p in nums])


@st.composite
def spelled_rationals(draw):
    """p/q as an int, a Fraction, its str, or the unreduced string "p/q"."""
    p, q = draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3, 4, 6]))
    kind = draw(st.sampled_from(["int", "fraction", "str", "unreduced"]))
    if kind == "int":
        return p
    return {"fraction": F(p, q), "str": str(F(p, q)), "unreduced": f"{p}/{q}"}[kind]


@given(st.lists(st.dictionaries(spelled_rationals(), spelled_rationals(), max_size=6), min_size=1, max_size=3))
@example([{}])  # an empty mapping
@example([{1: 1, "1": -1, F(1, 2): 2, "2/4": -2}])  # exponents that meet after scaling, cancelling to zero
@example([{"3/6": "1/3", F(1, 2): "2/6", 0: 5}, {}, {"-4/4": F(-3, 2), -1: "3/2"}])
@settings(max_examples=200, deadline=None)
def test_from_class_polys_matches_the_route_over_q(polys):
    got = ClassFunction.from_class_polys(len(polys), polys)
    want = _class_polys_oracle(len(polys), polys)
    assert got == want and hash(got) == hash(want)


def test_builders_refuse_floats():
    for build in (
        lambda: ClassFunction.from_class_polys(2, [{0: 1}, {0.5: 1}]),
        lambda: ClassFunction.from_class_polys(1, [{F(1, 2): 1, 2: 1.5}]),
        lambda: ClassFunction.poly({1: 0.25}),
        lambda: ClassFunction.monomial(1.5),
        lambda: ClassFunction.monomial(1, 2.0),
        lambda: ClassFunction.constant(0.5),
        lambda: cf_from_terms([(0.5, 0, 1)]),
    ):
        with pytest.raises(TypeError, match="floats are not exact"):
            build()


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
        assert _rf_mirror(e) == ratfun(_mirror(e.num), _mirror(e.den))


def _check_divmod(a, b):
    q, r = poly_divmod(a, b)
    assert _sum(_schoolbook(q, b), r) == a
    assert r.is_zero or (r.min_exp >= 0 and r.max_exp < b.max_exp)
    return q, r


nonzero = st.builds(F, st.integers(-5, 5).filter(bool), st.sampled_from([1, 2, 3]))
polys = st.dictionaries(st.integers(0, 12), nonzero, max_size=8).map(LaurentPoly)


@given(polys, polys.filter(lambda b: not b.is_zero))
@settings(max_examples=100, deadline=None)
def test_divmod_is_division_with_remainder(a, b):
    _check_divmod(a, b)


int_polys = st.dictionaries(st.integers(0, 12), st.integers(-5, 5).filter(bool), max_size=8)


@given(int_polys, int_polys.filter(bool), int_polys)
@settings(max_examples=150, deadline=None)
def test_divmod_z_matches_division_over_q(a, b, q):
    # a plus a multiple of b as well: its quotient over Q is more often integral
    multiple = _sum(LaurentPoly(a), _schoolbook(LaurentPoly(b), LaurentPoly(q)))
    for dividend in (a, {e: int(c) for e, c in multiple.terms.items()}):
        want_q, want_r = poly_divmod(LaurentPoly(dividend), LaurentPoly(b))
        got = _divmod_z(dividend, b)
        if all(c.denominator == 1 for c in want_q.terms.values()):
            assert got == (want_q.terms, want_r.terms)
            assert all(type(c) is int for p in got for c in p.values())
        else:
            assert got is None


def test_divmod_edge_cases():
    a = LaurentPoly({0: 1, 3: F(2, 3), 7: -4})
    # constant and non-monic divisors
    q, r = _check_divmod(a, LaurentPoly({0: F(-3, 2)}))
    assert r.is_zero and q == _scaled(a, F(-2, 3))
    _check_divmod(a, LaurentPoly({0: 1, 2: 3}))
    _check_divmod(LaurentPoly(), LaurentPoly({1: 2}))
    # a sparse dividend whose two terms are 10^6 - 1 apart
    big = 10**6
    q, r = _check_divmod(LaurentPoly({big: 1, 1: 1}), LaurentPoly({big: 1}))
    assert q == _one() and r == LaurentPoly({1: 1})
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


def test_long_geometric_sum_with_a_binomial_coefficient():
    # 2*10^5 products by +-1 once made this take most of a second; it telescopes
    s = cf_geometric_sum(Q - 1, 1, 0, 1, 10**5)
    assert s == Q ** (10**5 + 1) - Q
    assert s.classes[0].num.terms == {10**5 + 1: 1, 1: -1}


def test_long_finite_geometric_sum():
    s = cf_geometric_sum(1, 1, 0, 1, 10**5)
    assert s.modulus == 1 and s.root_order == 1
    (entry,) = s.classes
    assert entry.is_poly
    assert entry.num.terms == {e: 1 for e in range(1, 10**5 + 1)}


def test_finite_geometric_sum_with_a_polynomial_coefficient():
    s = cf_geometric_sum(Q - 1, 1, 0, 1, 2000)
    assert s == Q**2001 - Q


small_ints = st.integers(-5, 5).filter(bool)


@given(
    st.dictionaries(st.integers(-30, 30), small_ints, max_size=12),
    st.tuples(st.integers(-30, 30), small_ints),
    small_ints,
    st.none() | st.dictionaries(st.integers(-60, 60), small_ints, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_product_by_a_monomial_matches_the_general_product(terms, mono, k, acc):
    # _zmul(a, b, k, acc) = acc + k*a*b; with no acc a monomial side is a shift and a scaling
    (e2, c2), want = mono, dict(acc or {})
    for e, c in terms.items():
        want[e + e2] = want.get(e + e2, 0) + k * c * c2
    want = {e: c for e, c in want.items() if c}
    for a, b in ((terms, dict([mono])), (dict([mono]), terms)):
        assert _zmul(a, b, k, None if acc is None else dict(acc)) == want


def test_divisors_match_the_scan():
    for n in range(1, 501):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


# -- gcd over Z ------------------------------------------------------------------


def _euclid_gcd(a, b):
    """The oracle: monic gcd by Euclid over Q."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return _scaled(a, 1 / a.terms[a.max_exp])


def _monic(p):
    return _scaled(p, 1 / p.terms[p.max_exp])


sparse_polys = st.dictionaries(
    st.integers(0, 25),
    st.builds(F, st.integers(-1000, 1000).filter(bool), st.sampled_from([1, 1, 2, 3, 7])),
    min_size=1,
    max_size=5,
).map(LaurentPoly)


# gcd(x, x) = x and a planted x^3: a gcd that drops the x^v of its inputs or remainders fails these
@given(sparse_polys, sparse_polys, sparse_polys)
@example(LaurentPoly({1: 1}), LaurentPoly({1: 1}), LaurentPoly({1: 1}))
@example(LaurentPoly({0: 2, 1: 1}), LaurentPoly({0: F(1, 3), 2: -1}), LaurentPoly({3: 1}))
@settings(max_examples=150, deadline=None)
def test_gcd_over_z_matches_euclid_over_q(a, b, planted):
    a, b = _schoolbook(a, planted), _schoolbook(b, planted)
    want = _euclid_gcd(a, b)
    pa, pb = _primitive(_ints(a)[1]), _primitive(_ints(b)[1])
    for p, over_q in ((pa, a), (pb, b)):  # p = c * over_q, primitive
        assert _monic(LaurentPoly(p)) == _monic(over_q) and p[max(p)] > 0 and math.gcd(*p.values()) == 1
    for gcd in (poly_gcd, _gcd_prs):
        g, qa, qb = gcd(pa, pb)
        assert all(type(c) is int for p in (g, qa, qb) for c in p.values())
        assert g[max(g)] > 0 and math.gcd(*g.values()) == 1
        assert _monic(LaurentPoly(g)) == want
        assert _schoolbook(LaurentPoly(g), LaurentPoly(qa)).terms == pa
        assert _schoolbook(LaurentPoly(g), LaurentPoly(qb)).terms == pb
    # ratfun's normal form is the one the oracle's gcd gives
    got = ratfun(a, b)
    assert (got.num, got.den) == _normal_form(a, b)


def test_poly_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    # (x + 1)(x + 2) and (x + 1)(x - 3): each of GCDHEU's six points finds x + 1,
    # and a failed trial division at each sends poly_gcd to _gcd_prs
    a, b = {0: 2, 1: 3, 2: 1}, {0: -3, 1: -2, 2: 1}
    want = _gcd_prs(a, b)
    div, trials, fallbacks = qsym._div_z, [], []

    def failing_div(p, q):  # the first six trial divisions fail; _gcd_prs's own succeed
        if len(trials) < 6:
            trials.append(q)
            return None
        return div(p, q)

    monkeypatch.setattr(qsym, "_div_z", failing_div)
    monkeypatch.setattr(qsym, "_gcd_prs", lambda p, q: fallbacks.append((p, q)) or _gcd_prs(p, q))
    assert poly_gcd(a, b) == want == ({0: 1, 1: 1}, {0: 2, 1: 1}, {0: -3, 1: 1})
    assert trials == [{0: 1, 1: 1}] * 6 and fallbacks == [(a, b)]


def _normal_form(num, den):
    """The oracle for ratfun's num/den views: shifts, Euclid over Q and a monic denominator."""
    if num.is_zero:
        return LaurentPoly(), _one()
    vn, vd = num.min_exp, den.min_exp
    n0, d0 = _scaled(num, 1, -vn), _scaled(den, 1, -vd)
    g = _euclid_gcd(n0, d0)
    n0, d0 = poly_divmod(n0, g)[0], poly_divmod(d0, g)[0]
    lc = d0.terms[d0.max_exp]
    return _scaled(n0, 1 / lc, vn - vd), _scaled(d0, 1 / lc)


# The ring over Q for the oracles, term by term over .terms: the LaurentPoly
# constructor adds up equal exponents and drops zeros, and nothing here runs _zmul.
def _schoolbook(a, b):
    """The Fraction product a*b."""
    return LaurentPoly([(e1 + e2, c1 * c2) for e1, c1 in a.terms.items() for e2, c2 in b.terms.items()])


def _sum(a, b):
    return LaurentPoly([*a.terms.items(), *b.terms.items()])


def _scaled(p, c, k=0):
    """c * x^k * p."""
    return LaurentPoly([(e + k, c * v) for e, v in p.terms.items()])


def _mirror(p):
    """p at x^-1."""
    return LaurentPoly([(-e, c) for e, c in p.terms.items()])


def _one():
    return LaurentPoly({0: 1})


laurent_polys = st.dictionaries(
    st.integers(-6, 12),
    st.builds(F, st.integers(-30, 30).filter(bool), st.sampled_from([1, 1, 2, 3, 4, 9])),
    max_size=4,
).map(LaurentPoly)
# reduced entries, the zero entry among them
entries = st.builds(ratfun, laurent_polys, laurent_polys.filter(lambda p: not p.is_zero))


def _rf(num, den):
    return ratfun(LaurentPoly(num), LaurentPoly(den))


def _full_gcd_route(a, b):
    """a + b, a*b and a/b as the whole products term by term, each reduced by one full gcd over Z."""
    (pa, qa), (pb, qb) = (a.k.numerator, a.k.denominator), (b.k.numerator, b.k.denominator)
    na, da, nb, db = (LaurentPoly(p) for p in (a.n, a.d, b.n, b.d))

    def prod(p, q):  # the int dict of p*q
        return _ints(_schoolbook(p, q))[1]

    t = _sum(_scaled(_schoolbook(na, db), pa * qb), _scaled(_schoolbook(nb, da), pb * qa))
    add = _reduced(_ints(t)[1], prod(da, db), F(1, qa * qb))
    div = {_rf_div: _reduced(prod(na, db), prod(da, nb), a.k / b.k)} if b.k else {}
    return {_rf_add: add, _rf_mul: _reduced(prod(na, nb), prod(da, db), a.k * b.k), **div}


@given(entries, entries)
@settings(max_examples=150, deadline=None)
# equal denominators whose sum cancels a factor: x/(x^2 - 1) - 1/(x^2 - 1) = 1/(x + 1)
@example(_rf({1: 1}, {2: 1, 0: -1}), _rf({0: -1}, {2: 1, 0: -1}))
# denominators sharing a factor with multiplicity: 1/(x - 1)^2 + 1/((x - 1)(x + 1))
@example(_rf({0: 1}, {2: 1, 1: -2, 0: 1}), _rf({0: 1}, {2: 1, 0: -1}))
# unequal denominators whose sum cancels their shared factor:
# 1/((x - 1)(x + 1)) - (3/2)/((x - 1)(x + 2)) = (-1/2)/((x + 1)(x + 2))
@example(_rf({0: 1}, {2: 1, 0: -1}), _rf({0: F(-3, 2)}, {2: 1, 1: 1, 0: -2}))
# a sum that is exactly zero
@example(_rf({1: F(3, 2), 0: 1}, {1: 1, 0: 2}), _rf({1: F(-3, 2), 0: -1}, {1: 1, 0: 2}))
# a product that cancels on both cross pairs: (x + 1)(x + 3)/(x - 2) * (2/3)(x - 2)(x + 5)/((x + 1)(x + 7))
@example(_rf({2: 1, 1: 4, 0: 3}, {1: 1, 0: -2}), _rf({2: 2, 1: 6, 0: -20}, {2: 3, 1: 24, 0: 21}))
# a numerator carrying x^-2 against a nontrivial denominator: x^-2 (x + 1)/(x - 1) and (x - 1)/(x + 1)
@example(_rf({-1: 1, -2: 1}, {1: 1, 0: -1}), _rf({1: 1, 0: -1}, {1: 1, 0: 1}))
# division by an entry whose numerator carries x^3: (x + 1)/(x - 2) / (x^3 (x + 1)/(x - 2))
@example(_rf({1: 1, 0: 1}, {1: 1, 0: -2}), _rf({4: 5, 3: 5}, {1: 1, 0: -2}))
def test_entry_ring_ops_over_z_match_fraction_products(a, b):
    for op, expected in _full_gcd_route(a, b).items():
        assert op(a, b) == expected
    want = {
        _rf_add: _normal_form(_sum(_schoolbook(a.num, b.den), _schoolbook(b.num, a.den)), _schoolbook(a.den, b.den)),
        _rf_mul: _normal_form(_schoolbook(a.num, b.num), _schoolbook(a.den, b.den)),
    }
    if not b.is_zero:
        want[_rf_div] = _normal_form(_schoolbook(a.num, b.den), _schoolbook(a.den, b.num))
    for op, expected in want.items():
        got = op(a, b)
        assert (got.num, got.den) == expected
        assert all(type(c) is Fraction for p in (got.num, got.den) for c in p.terms.values())
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            _rf_div(a, b)


def test_gcd_of_sparse_binomials_stays_sparse():
    a, b = {20000: 1, 0: -1}, {12000: 1, 0: -1}
    for gcd in (poly_gcd, _gcd_prs):
        g, qa, qb = gcd(a, b)
        assert g == {4000: 1, 0: -1}
        assert qa == {e: 1 for e in range(0, 20000, 4000)}
        assert qb == {8000: 1, 4000: 1, 0: 1}
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


# t^N for the root order N of the function: every root the evaluation needs is t^r
@given(entries, st.sampled_from([1, 2, 3]), st.sampled_from([F(3, 2), F(2), F(5, 4), F(7, 3)]), st.integers(1, 4))
@example(ratfun(LaurentPoly(), _one()), 2, F(3, 2), 3)  # zero numerator
@example(ratfun(LaurentPoly({0: 1}), LaurentPoly({0: F(-27, 8), 1: 1})), 3, F(3, 2), 3)  # a pole
@settings(max_examples=150, deadline=None)
def test_exact_eval_matches_fraction_powers(entry, n, t, r0):
    f = ClassFunction(1, n, [entry])
    q0 = t**n  # 9/4, 27/8, 25/16, ...
    e = f.class_entry(r0)
    x = t ** (r0 * n // f.root_order)  # x = q0^(r0/N) for the canonical root order N
    num = sum((c * x**k for k, c in e.num.terms.items()), F(0))
    den = sum((c * x**k for k, c in e.den.terms.items()), F(0))
    # q0 as a Fraction, as "p/q" text and, when integral, as an int: one outcome
    for q in [q0, f"{q0.numerator}/{q0.denominator}"] + [q0.numerator] * (q0.denominator == 1):
        if den == 0:
            with pytest.raises(PoleAtEvaluationPoint):
                cf_eval(f, q, r0)
        else:
            got = cf_eval(f, q, r0)
            assert type(got) is Fraction and got == num / den


# -- the canonical triple k*n/d -------------------------------------------------


def _assert_canonical(entry):
    """k a Fraction; n, d int, primitive, coprime, positive leading coefficients; x does not divide d."""
    k, n, d = entry
    assert type(entry) is RationalFunctionX and type(k) is Fraction
    assert type(n) is dict and type(d) is dict
    assert all(type(c) is int for p in (n, d) for c in p.values())
    assert min(d) == 0 and d[max(d)] > 0 and math.gcd(*d.values()) == 1
    if not k:
        assert n == {} and d == {0: 1}
        return
    assert n[max(n)] > 0 and math.gcd(*n.values()) == 1
    assert _gcd_prs({e - min(n): c for e, c in n.items()}, d)[0] == {0: 1}


@st.composite
def orbit_term_lists(draw):
    """Whole Galois orbits of roots of order dividing 12: rational on every class."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = F(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3])))
        order, q_exp = draw(st.sampled_from([1, 2, 3, 4, 6, 12])), F(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2])))
        b = draw(st.integers(0, order - 1))
        terms += [(coeff, F(a * b, order), q_exp) for a in primitive_exponents(order)]
    return terms, draw(st.sampled_from([None, 1, -1, 2, F(1, 2)]))


@given(orbit_term_lists(), orbit_term_lists())
@settings(max_examples=80, deadline=None)
def test_every_route_keeps_entries_canonical(ta, tb):
    f, g = cf_from_terms(*ta), cf_from_terms(*tb)
    invertible = not any(e.is_zero for e in g.classes)
    results = [f + g, f - g, f * g, f.dual(), (f * g).dual(), f.scale_pow(F(-3, 2))]
    if invertible:
        results.append(f / g)
    results += [ClassFunction.from_json(h.to_json()) for h in results]
    for h in results:
        for entry in h.classes:
            _assert_canonical(entry)
    # equal functions built by different routes are equal tuples with equal hashes
    same = [
        ((f + g) * g, f * g + g * g),
        ((f * g).dual(), f.dual() * g.dual()),
        (f.dual().dual(), f),
        (ClassFunction.from_json((f * g).to_json()), f * g),
        (f.scale_pow(F(1, 2)).scale_pow(F(-1, 2)), f),
    ]
    if invertible:
        same.append(((f * g) / g, f))
    for x, y in same:
        assert x == y and hash(x) == hash(y)


# str(f) as recorded before the printers read the integer triple; together the
# cases reach every branch of the text report
PINNED_TEXT = {
    "zero": (ClassFunction.zero, "0"),
    # a coefficient of +-1 at a nonzero exponent prints as the bare power
    "unit-coefficients": (
        lambda: Q**2 - Q + ClassFunction.monomial(F(1, 2)) - ClassFunction.monomial(F(-3, 2)) + Q**-1,
        "Q^2 - Q + Q^(1/2) + Q^-1 - Q^(-3/2)",
    ),
    "fractional": (lambda: F(3, 2) * ClassFunction.monomial(F(1, 2)) - F(1, 3), "3/2*Q^(1/2) - 1/3"),
    "negative-leading": (
        lambda: -(Q**3) + F(5, 7) * ClassFunction.monomial(F(-2, 3)) - 1,
        "-Q^3 - 1 + 5/7*Q^(-2/3)",
    ),
    "quotient": (lambda: (Q + F(1, 2)) / (2 * Q**2 - 3), "(1/2*Q + 1/4) / (Q^2 - 3/2)"),
    "classes": (
        lambda: cf_from_terms([(1, F(1, 3), 1), (1, F(2, 3), 1), (F(1, 2), 0, F(-1, 2))], 1)
        + cf_from_terms([(2, F(1, 2), 0)]),
        "r = 0 (mod 6): (4*Q - 2 + 1/2*Q^(-1/2)) / (Q - 1)\n"
        "r = 1 (mod 6): (-3*Q + 2 + 1/2*Q^(-1/2)) / (Q - 1)\n"
        "r = 2 (mod 6): (Q - 2 + 1/2*Q^(-1/2)) / (Q - 1)\n"
        "r = 3 (mod 6): (2 + 1/2*Q^(-1/2)) / (Q - 1)\n"
        "r = 4 (mod 6): (Q - 2 + 1/2*Q^(-1/2)) / (Q - 1)\n"
        "r = 5 (mod 6): (-3*Q + 2 + 1/2*Q^(-1/2)) / (Q - 1)",
    ),
}


@pytest.mark.parametrize("name", PINNED_TEXT)
def test_text_reports_match_the_pinned_strings(name):
    build, text = PINNED_TEXT[name]
    f = build()
    assert str(f) == text
    assert repr(f) == "ClassFunction[" + text.replace("\n", "; ") + "]"


# The route the printers took before they read the integer triple: the num/den
# views, one Fraction(c*kn, kd) per coefficient in the order of the int dicts,
# taken apart again by frac_str.  It is the oracle for to_json, render and eval.
def _old_views(entry):
    lc = entry.d[max(entry.d)]
    return tuple(
        LaurentPoly._of({e: F(c * k.numerator, k.denominator) for e, c in p.items()})
        for p, k in ((entry.n, entry.k / lc), (entry.d, F(1, lc)))
    )


def _old_to_json(f):
    def side(p):
        return [[frac_str(c), e] for e, c in p.items()]

    return {
        "modulus": f.modulus,
        "root_order": f.root_order,
        "classes": [{"num": side(num), "den": side(den)} for num, den in map(_old_views, f.classes)],
    }


def _old_render_exp(e):
    if e == 1:
        return "Q"
    if e.denominator == 1:
        return f"Q^{e.numerator}"
    return f"Q^({frac_str(e)})"


def _old_render_poly(p, n):
    if p.is_zero:
        return "0"
    parts = []
    for e, c in sorted(p.terms.items(), reverse=True):
        exp = F(e, n)
        if exp == 0:
            piece = frac_str(abs(c))
        else:
            mag = abs(c)
            piece = _old_render_exp(exp) if mag == 1 else f"{frac_str(mag)}*{_old_render_exp(exp)}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(parts)


def _old_render(f):
    def entry(e):
        num, den = (_old_render_poly(p, f.root_order) for p in _old_views(e))
        return num if e.is_poly else f"({num}) / ({den})"

    if f.modulus == 1:
        return entry(f.classes[0])
    return "\n".join(f"r = {j} (mod {f.modulus}): {entry(e)}" for j, e in enumerate(f.classes))


def _old_sides(entry):
    """eval's terms as the old route read them: (e, c.numerator, c.denominator) off the views."""
    return tuple([(e, c.numerator, c.denominator) for e, c in p.terms.items()] for p in _old_views(entry))


def _eval_outcome(f, q0, r0, precision):
    try:
        value = f.eval(q0, r0, precision)
    except PoleAtEvaluationPoint as exc:
        return "pole", str(exc)
    return type(value), str(value)


@given(orbit_term_lists(), orbit_term_lists(), st.sampled_from(["+", "*", "/"]))
@settings(max_examples=80, deadline=None)
def test_printers_and_decimal_eval_match_the_route_through_the_views(ta, tb, op):
    f, g = cf_from_terms(*ta), cf_from_terms(*tb)
    if op == "/" and any(e.is_zero for e in g.classes):
        op = "*"
    h = f + g if op == "+" else f * g if op == "*" else f / g
    for x in (f, h, h.dual()):
        for e in x.classes:
            old = _old_views(e)
            assert (e.num, e.den) == old
            assert [list(p.terms.items()) for p in (e.num, e.den)] == [list(p.terms.items()) for p in old]
        assert x.to_json() == _old_to_json(x)
        assert str(x) == _old_render(x)
        # 2 and 5/2 have no rational root, so a root order above 1 takes the decimal branch
        points = [(q0, r0, precision) for q0 in (2, F(5, 2), 4) for r0 in (1, 3) for precision in (5, 40)]
        got = [_eval_outcome(x, *p) for p in points]
        with mock.patch.object(qsym, "_sides", _old_sides):
            assert got == [_eval_outcome(x, *p) for p in points]


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: ClassFunction(0, 1, []), "must be positive", id="modulus-0"),
        pytest.param(lambda: cf_ring("scale_pow", Q), "needs an exponent", id="scale_pow"),
        # refused before the 2^20 + 1 entries are built
        pytest.param(lambda: cf_geometric_sum(1, 1, 0, 0, qsym.MAX_SUM_TERMS), "exceeds the cap", id="sum-cap"),
        pytest.param(lambda: Q ** F(1, 2), "unsupported operand", id="fractional-power"),
        # the fallbacks answer, rather than raise
        pytest.param(lambda: repr(Infinite) == "Infinite", None, id="repr-Infinite"),
        pytest.param(lambda: LaurentPoly({0: 1}) != 1 and Q != 1, None, id="eq-other-type"),
        pytest.param(lambda: hash(LaurentPoly({1: 2})) == hash(LaurentPoly([(1, 1), (1, 1)])), None, id="hash"),
    ],
)
def test_argument_checks_and_fallbacks(call, error):
    if error is None:
        assert call()
    else:
        with pytest.raises((TypeError, ValueError), match=error):
            call()
