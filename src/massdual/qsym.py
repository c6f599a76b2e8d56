"""Exact algebra of class functions of r that are rational in x = q^(r/N).

The quantities this package manipulates (total masses, stringy point counts)
are functions of a positive integer r of a constrained shape: on each residue
class of r modulo some M they agree with a rational function, with rational
coefficients, of x = q^(r/N).  This module implements that class of functions
exactly, together with the dual involution D that substitutes q^(-r) for q^r,
geometric series summation, admissibility certificates, evaluation, and a
serialization format.

Canonical form.  A ClassFunction stores (modulus M, root_order N, one reduced
rational function in x per residue class).  Construction always canonicalizes:

* each class entry is a triple k*n/d: a Fraction k and coprime integer
  polynomials n and d, plain dicts {exponent: int}, each primitive with a
  positive leading coefficient, x not dividing d.  `_reduced` builds it from
  integer dicts; ratfun reads LaurentPolys over Q into them,
* N is minimal (exponents rescaled by their gcd with N),
* M is minimal (classes folded to the smallest divisor of M that repeats).

Two ClassFunctions are equal as functions of r exactly when their canonical
forms are equal componentwise, so `==` decides function equality.

Arithmetic runs over Z: products, sums, reductions, gcds, root-of-unity sums
and exact evaluation work on the int dicts n and d, and only k is a Fraction.
LaurentPoly is always a polynomial over Q: the num/den views of an entry.
"""

from __future__ import annotations

import decimal
import heapq
import math
import os
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    DivergentSeries,
    NonRealInput,
    PoleAtEvaluationPoint,
    ZeroDenominatorExponent,
)

DEFAULT_EVAL_PRECISION = 50
EXACT_EVAL_MAX_BITS = 2**20  # exact values past about 315 000 digits are refused
MAX_SUM_TERMS = 2**20  # a finite geometric sum builds one entry per term


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    limit = getattr(sys, "get_int_max_str_digits", int)() if isinstance(x, str) else 0
    if limit and "e" in (low := x.lower()):
        # Fraction(x) builds 10^exponent itself: refuse a literal whose exponent passes the limit,
        # its digits counted before int(), which refuses more than `limit` of them with its own text
        head, _, tail = low.rpartition("e")
        groups = tail.rstrip()[tail[:1] in ("+", "-"):].split("_")  # int()'s digit groups, if tail is one
        digits = "".join(groups).lstrip("0") if all(g.isdecimal() for g in groups) else ""
        if len(digits) > len(str(limit)) or digits and int(digits) > limit:
            try:
                Fraction(head + "e0")  # raises unless x is a literal
            except ValueError:  # no literal: Fraction(x) fails at once, with its own error
                pass
            else:
                raise ValueError(f"{x!r}: a decimal exponent beyond {limit} builds an integer of over "
                                 f"{limit} digits")
    return Fraction(x)


def _ratio(x) -> tuple[int, int]:
    """(p, q) with x = p/q and q >= 1; an int makes no Fraction."""
    x = x if isinstance(x, int) else _frac(x)
    return x.numerator, x.denominator


def frac_str(x: Fraction) -> str:
    """Render a Fraction as 'p' or 'p/q' (used by every JSON emitter here)."""
    return _ratio_str(x.numerator, x.denominator)


def _ratio_str(a: int, b: int) -> str:
    """frac_str of a/b for a pair in lowest terms, b >= 1."""
    return str(a) if b == 1 else f"{a}/{b}"


class _InfiniteType:
    """Singleton marking a divergent (infinite) mass or point count."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"


Infinite = _InfiniteType()


def is_infinite(x) -> bool:
    return isinstance(x, _InfiniteType)


# ---------------------------------------------------------------------------
# Laurent polynomials over Q, sparse representation


class LaurentPoly:
    """Sparse Laurent polynomial over Q: dict {exponent: nonzero Fraction}.

    Products run on the integer form P/L of `_ints`.  The integer kernel
    (class entries, the gcd over Z) works on plain int dicts instead."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data: dict[int, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for e, c in items:
            e, c = _json_int(e), _frac(c)
            data[e] = data[e] + c if e in data else c
        self.terms = {e: c for e, c in data.items() if c}

    @classmethod
    def _of(cls, terms: dict) -> "LaurentPoly":
        """Wrap a dict {int exponent: nonzero Fraction} without checking it."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._of({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        return min(self.terms)

    @property
    def max_exp(self) -> int:
        return max(self.terms)

    def coeff(self, e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"LaurentPoly({dict(self.items())!r})"

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        data = dict(self.terms)
        for e, c in other.terms.items():
            acc = data[e] + c if e in data else c
            if acc:
                data[e] = acc
            else:
                del data[e]
        return LaurentPoly._of(data)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        (la, a), (lb, b) = _ints(self), _ints(other)
        return LaurentPoly._of({e: Fraction(c, la * lb) for e, c in _zmul(a, b).items()})

    def scale(self, c) -> "LaurentPoly":
        c = _frac(c)
        if not c:
            return LaurentPoly.zero()
        return LaurentPoly._of({e: k * c for e, k in self.terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x^k."""
        return self if not k else LaurentPoly._of({e + k: c for e, c in self.terms.items()})

    def mirror(self) -> "LaurentPoly":
        """Substitute x -> x^-1."""
        return LaurentPoly._of({-e: c for e, c in self.terms.items()})


def _ints(p: LaurentPoly) -> tuple[int, dict]:
    """The integer form (L, P) of p = P/L: L the lcm of the denominators, P
    an integer dict.  gcd(content of P, L) = 1, so the form is canonical."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    if den == 1:
        return 1, {e: c.numerator for e, c in p.terms.items()}
    return den, {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}


def _zmul(a: dict, b: dict, k: int = 1, acc: Optional[dict] = None) -> dict:
    """acc + k*a*b for integer polynomials {exponent: int}, zeros dropped;
    acc, when given, is consumed."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1 and acc is None:  # a monomial: a shift and a scaling
        ((e2, c2),) = b.items()
        c2 *= k
        return {e + e2: c * c2 for e, c in a.items()}
    out = {} if acc is None else acc
    get = out.get
    for e2, c2 in b.items():
        c2 *= k
        for e1, c1 in a.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _terms(p: dict, k: Fraction) -> list[tuple[int, int, int]]:
    """The terms of k*p for an integer dict p, in p's order: (e, a, b) with
    a/b the coefficient in lowest terms and b >= 1, one gcd each and no Fraction."""
    kn, kd = k.numerator, k.denominator
    out = []
    for e, c in p.items():
        g = math.gcd(a := c * kn, kd)
        out.append((e, a // g, kd // g))
    return out


def _shift(p: dict, k: int) -> dict:
    """x^k * p for an integer dict p."""
    return {e + k: c for e, c in p.items()} if k else p


def _divmod_z(a: dict, b: dict) -> Optional[tuple[dict, dict]]:
    """(quotient, remainder) of int dicts a and b != 0 with no negative exponent,
    or None at the first quotient coefficient that is not an integer."""
    db = max(b)
    lb = b[db]
    quo: dict[int, int] = {}
    rem = dict(a)
    # max-heap of rem's exponents; each step cancels e and adds only exponents
    # below it, so an exponent popped but no longer in rem is just skipped
    pending = [-e for e in rem]
    heapq.heapify(pending)
    while pending and -pending[0] >= db:
        e = -heapq.heappop(pending)
        if e not in rem:
            continue
        c = quo[e - db] = rem[e] // lb
        if c * lb != rem[e]:
            return None
        for eb, cb in b.items():
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
    return quo, rem


def _div_z(a: dict, b: dict) -> Optional[dict]:
    """a / b for integer polynomials, or None when b does not divide a over Z."""
    qr = _divmod_z(a, b)
    return None if qr is None or qr[1] else qr[0]


def _split(p: dict) -> tuple[int, int, dict]:
    """(g, v, P) with p = g*x^v*P for an integer dict p: g the content, signed
    like the leading coefficient, v the least exponent, P primitive with P(0) != 0."""
    g, v = math.gcd(*p.values()), min(p)
    g = g if p[max(p)] > 0 else -g
    return g, v, p if g == 1 and v == 0 else {e - v: c // g for e, c in p.items()}


def _primitive(p: dict) -> dict:
    """p over its content: primitive, leading coefficient > 0, x^v kept."""
    _, v, prim = _split(p)
    return _shift(prim, v)


def poly_gcd(a: dict, b: dict) -> tuple[dict, dict, dict]:
    """(g, a/g, b/g): g the gcd over Z of nonzero int dicts a and b, no exponent negative.

    g is primitive with a positive leading coefficient.  GCDHEU (Char, Geddes
    and Gonnet 1989): for xi >= 2*min(|a|, |b|) + 2 in the max norm, the
    balanced xi-adic digits of gcd(a(xi), b(xi)) are g once g divides both
    exactly, and those divisions give the cofactors.  xi starts at + 29,
    where spurious integer factors are rare; after six points `_gcd_prs`
    decides.  One pow per term keeps sparse inputs sparse.
    """
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(6):
        h = math.gcd(sum(c * pow(xi, e) for e, c in a.items()),
                     sum(c * pow(xi, e) for e, c in b.items()))
        digits, e, half = {}, 0, xi // 2
        while h:
            d = (h + half) % xi - half  # the balanced digit
            if d:
                digits[e] = d
            h, e = (h - d) // xi, e + 1
        g = _primitive(digits)
        if g == {0: 1}:
            return g, a, b
        if (qa := _div_z(a, g)) is not None and (qb := _div_z(b, g)) is not None:
            return g, qa, qb
        xi = xi * 73794 * iroot(xi, 4) // 27011
    return _gcd_prs(a, b)


def _gcd_prs(a: dict, b: dict) -> tuple[dict, dict, dict]:
    """poly_gcd by the primitive remainder sequence over Z, in polynomial time.

    Each step takes the pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g,
    an exact division over Z, and removes its content (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 6).  Each x^v stays, or gcd(x, x) would be 1."""
    f, g = (a, b) if max(a) >= max(b) else (b, a)
    f, g = _primitive(f), _primitive(g)
    while g:
        k = g[max(g)] ** (max(f) - max(g) + 1)
        r = _divmod_z({e: c * k for e, c in f.items()}, g)[1]
        f, g = g, _primitive(r) if r else r
    return f, _div_z(a, f), _div_z(b, f)


# ---------------------------------------------------------------------------
# Reduced rational functions in x


class RationalFunctionX(namedtuple("RationalFunctionX", "k n d")):
    """The rational function k*n/d in x, in the canonical form ratfun builds.

    k is a Fraction; n and d are int dicts {exponent: int}, each primitive
    with a positive leading coefficient, coprime, and x does not divide d
    (n may carry x^v).  The zero entry is (0, {}, {0: 1}).  The triple is
    unique, so equality and the hash over the dicts' items are exact.  Dicts
    are shared (`_ONE`, cf_from_terms's `den`, `_split`'s pass-through), so
    none may be mutated after `_reduced`.  Nothing is checked: use ratfun.
    """

    __slots__ = ()

    def __hash__(self):
        return hash((self.k, frozenset(self.n.items()), frozenset(self.d.items())))

    @property
    def num(self) -> LaurentPoly:
        """The numerator over Q, for the denominator `den`."""
        return LaurentPoly._of({e: Fraction(a, b) for e, a, b in _sides(self)[0]})

    @property
    def den(self) -> LaurentPoly:
        """The denominator over Q: minimal exponent 0, leading coefficient 1."""
        return LaurentPoly._of({e: Fraction(a, b) for e, a, b in _sides(self)[1]})

    @property
    def is_zero(self) -> bool:
        return not self.k

    @property
    def is_poly(self) -> bool:
        return self.d == {0: 1}


def _sides(entry: RationalFunctionX) -> tuple[list, list]:
    """The `_terms` of the numerator and the denominator, scaled so that the
    denominator is monic: the one reader of an entry's coefficients."""
    lc = entry.d[max(entry.d)]
    return _terms(entry.n, entry.k / lc), _terms(entry.d, Fraction(1, lc))


def ratfun(num: LaurentPoly, den: LaurentPoly) -> RationalFunctionX:
    """Build the canonical entry num/den from LaurentPolys over Q.

    Each side is read into its integer form (`_ints`); `_reduced` does the
    rest.  `from_json` builds here; the other builders in this module start
    from integers and call `_reduced` directly.
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    (ln, n), (ld, d) = _ints(num), _ints(den)
    return _reduced(n, d, Fraction(ld, ln))


def _reduced(n: dict, d: dict, k: Fraction, bound: Optional[dict] = None) -> RationalFunctionX:
    """ratfun(k*n, d) for integer dicts n and d != 0.

    Each side is an integer content times x^v times a primitive polynomial,
    and the contents go into k.  Every common factor of the primitive parts
    must divide `bound`, a primitive polynomial with a nonzero constant term
    (d's primitive part when omitted): poly_gcd cancels gcd(n, bound) over Z
    and d is divided by it.  `_ONE` says they are coprime, so no gcd runs.
    """
    if not n:
        return _RF_ZERO
    (gn, vn, n0), (gd, vd, d0) = _split(n), _split(d)
    bound = d0 if bound is None else bound
    if len(n0) > 1 and len(bound) > 1:  # else one side is x^k times a constant, a unit
        h, n0, rest = poly_gcd(n0, bound)
        d0 = rest if bound is d0 else d0 if h == _ONE else _div_z(d0, h)
    return RationalFunctionX(Fraction(k.numerator * gn, k.denominator * gd), _shift(n0, vn - vd), d0)


_ONE = {0: 1}
_RF_ZERO = RationalFunctionX(Fraction(0), {}, _ONE)
_RF_ONE = RationalFunctionX(Fraction(1), _ONE, _ONE)


def _gcd(a: dict, b: dict) -> tuple[dict, dict, dict]:
    """poly_gcd(a, b) for b with a nonzero constant term: a's x^v, which b cannot
    share, is kept aside for poly_gcd, and a constant side gives 1 at no cost."""
    if len(a) == 1 or len(b) == 1:
        return _ONE, a, b
    g, a0, b0 = poly_gcd(_shift(a, -(v := min(a))), b)
    return g, _shift(a0, v), b0


def _rf_add(a: RationalFunctionX, b: RationalFunctionX) -> RationalFunctionX:
    """a + b by Henrici's rule (Knuth, TAOCP 2, 4.5.1): with g = gcd(d_a, d_b),
    t = k_a*n_a*(d_b/g) + k_b*n_b*(d_a/g) over d_a*(d_b/g).  A factor t shares
    with that denominator divides g, so t is reduced against g alone."""
    if a.is_zero or b.is_zero:
        return b if a.is_zero else a
    (pa, qa), (pb, qb) = (a.k.numerator, a.k.denominator), (b.k.numerator, b.k.denominator)
    m = math.lcm(qa, qb)  # m*t has integer coefficients
    g, da, db = (a.d, _ONE, _ONE) if a.d == b.d else _gcd(a.d, b.d)
    num = _zmul(b.n, da, pb * (m // qb), _zmul(a.n, db, pa * (m // qa)))
    return _reduced(num, a.d if db is _ONE else _zmul(a.d, db), Fraction(1, m), g)


def _rf_mul(a: RationalFunctionX, b: RationalFunctionX) -> RationalFunctionX:
    """a*b by Henrici's rule: n_a cancels against d_b and n_b against d_a, so the
    product of the cofactors is coprime, primitive (Gauss's lemma) and canonical."""
    if a == _RF_ONE or b.is_zero:
        return b
    if b == _RF_ONE or a.is_zero:
        return a
    (_, na, db), (_, nb, da) = _gcd(a.n, b.d), _gcd(b.n, a.d)
    return RationalFunctionX(a.k * b.k, _zmul(na, nb), _zmul(da, db))


def _rf_div(a: RationalFunctionX, b: RationalFunctionX) -> RationalFunctionX:
    """a * (1/b): for b = k*x^v*n0/d the inverse (1/k)*x^-v*d/n0 is canonical as it stands."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero class function")
    return _rf_mul(a, RationalFunctionX(1 / b.k, _shift(b.d, -(v := min(b.n))), _shift(b.n, -v)))


def _rf_mirror(a: RationalFunctionX) -> RationalFunctionX:
    # reversal keeps n and d primitive and coprime: only the signs of the new
    # leading coefficients, the old lowest ones, move into k
    if a.is_zero:
        return a
    top, sn, sd = max(a.d), a.n[min(a.n)] < 0, a.d[0] < 0
    n = {top - e: -c if sn else c for e, c in a.n.items()}
    d = {top - e: -c if sd else c for e, c in a.d.items()}
    return RationalFunctionX(-a.k if sn != sd else a.k, n, d)


def _rf_stretch(a: RationalFunctionX, k: int) -> RationalFunctionX:
    # substituting x -> x^k keeps the triple canonical
    if k == 1:
        return a
    return RationalFunctionX(a.k, *({e * k: c for e, c in p.items()} for p in (a.n, a.d)))


# ---------------------------------------------------------------------------
# Cyclotomic helpers for collapsing root-of-unity coefficients


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, dense and lowest first: the product over squarefree t | n of
    (x^(n/t) - 1)^mu(t) (Lang, Algebra, VI §3).  The factors with mu = 1
    multiply in, then the others divide out exactly from the low end."""
    primes: list[int] = []
    for d in _divisors(n)[1:]:  # increasing: a divisor with no smaller prime factor is prime
        primes += [d] if all(d % p for p in primes) else []
    ups, downs = [n], []
    for p in primes:
        ups, downs = ups + [d // p for d in downs], downs + [d // p for d in ups]
    poly = [1]
    for d in ups:
        poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in downs:  # poly = q * (x^d - 1), so q[i] = q[i - d] - poly[i]
        poly = [-c for c in poly[:-d]]
        for i in range(d, len(poly)):
            poly[i] += poly[i - d]
    return tuple(poly)


def _rational_root_sum(pairs: Iterable[tuple[int, int]], k: int) -> Optional[int]:
    """sum c * zeta_k^b over int pairs (b, c) if rational, else None.  The
    dense list acc[b % k], reduced top-down by the monic Phi_k, is the sum in
    the basis 1, zeta, ..., zeta^(phi(k)-1): rational when only acc[0] is left."""
    if k == 1:
        return sum(c for _, c in pairs)
    acc, phi = [0] * k, _cyclotomic(k)
    for b, c in pairs:
        acc[b % k] += c
    deg, low = len(phi) - 1, [(j, f) for j, f in enumerate(phi[:-1]) if f]
    for i in range(k - 1, deg - 1, -1):
        if c := acc[i]:  # subtract c * x^(i - deg) * Phi_k, which clears acc[i]
            for j, f in low:
                acc[i - deg + j] -= c * f
    return None if any(acc[1:deg]) else acc[0]


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by integer Newton iteration."""
    if n < 2 or k == 1:
        return n
    if n.bit_length() <= k:  # n < 2^k; Newton from 3 would cost about k digits
        return 1
    # start just above the root: n >> (s*k) has a root of about 60 bits,
    # whose float estimate is off by far less than the 2^-40 margin
    s = max(0, n.bit_length() // k - 60)
    x = int(2 ** (math.log2(n >> (s * k)) / k))
    x = (x + (x >> 40) + 2) << s
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in increasing order, by trial division to sqrt(n)."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


# ---------------------------------------------------------------------------
# Class functions


class ClassFunction:
    """A function of r >= 1, rational in x = q^(r/N) on each class of r mod M.

    Instances are immutable and always in canonical form, so `==` decides
    equality as functions of r.  Arithmetic (+, -, *, /) aligns modulus and
    root order first.  `dual()` substitutes q^(-r) for q^r.
    """

    __slots__ = ("modulus", "root_order", "classes")

    def __init__(self, modulus: int, root_order: int, entries: Sequence[RationalFunctionX]):
        """One entry per residue class, each built by ratfun or `_reduced`."""
        modulus = int(modulus)
        root_order = int(root_order)
        if modulus < 1 or root_order < 1:
            raise ValueError("modulus and root_order must be positive")
        if len(entries) != modulus:
            raise ValueError("need exactly one class entry per residue class")
        # minimal root order: rescale exponents by their gcd with N
        g = root_order
        for e in entries if root_order > 1 else ():
            g = math.gcd(g, *e.n, *e.d)
        if g > 1:
            root_order //= g
            entries = [RationalFunctionX(e.k, *({x // g: c for x, c in p.items()} for p in (e.n, e.d)))
                       for e in entries]
        # minimal modulus: fold classes onto the smallest repeating divisor
        for d in _divisors(modulus) if modulus > 1 else ():
            if all(entries[j] == entries[j % d] for j in range(modulus)):
                entries = entries[:d]
                modulus = d
                break
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "root_order", root_order)
        object.__setattr__(self, "classes", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("ClassFunction is immutable")

    # -- builders ----------------------------------------------------------

    @classmethod
    def zero(cls) -> "ClassFunction":
        return cls(1, 1, [_RF_ZERO])

    @classmethod
    def constant(cls, c) -> "ClassFunction":
        return cls.poly({0: c})

    @classmethod
    def poly(cls, terms: Mapping) -> "ClassFunction":
        """Laurent polynomial in Q = q^r: mapping {rational exponent: coeff}."""
        return cls.from_class_polys(1, [terms])

    @classmethod
    def monomial(cls, exp, coeff=1) -> "ClassFunction":
        return cls.poly({exp: coeff})

    @classmethod
    def from_class_polys(cls, modulus: int, class_polys: Sequence[Mapping]) -> "ClassFunction":
        """One {rational Q-exponent: coeff} mapping per residue class; with the
        exponents over n and the coefficients over l, each is an int dict."""
        polys = [[(_ratio(e), _ratio(c)) for e, c in d.items()] for d in class_polys]
        n = math.lcm(1, *(eq for p in polys for (_, eq), _ in p))
        l = math.lcm(1, *(cq for p in polys for _, (_, cq) in p))
        sums: list[dict[int, int]] = [{} for _ in polys]
        for num, p in zip(sums, polys):
            for (ep, eq), (cp, cq) in p:
                num[ep * (n // eq)] = num.get(ep * (n // eq), 0) + cp * (l // cq)
        return cls._from_int_polys(modulus, n, sums, Fraction(1, l))

    @classmethod
    def _from_int_polys(cls, modulus: int, n: int, sums: Sequence[Mapping], k=1) -> "ClassFunction":
        """One int dict {Q-exponent * n: coeff / k} per residue class."""
        return cls(modulus, n, [_reduced({e: c for e, c in p.items() if c}, _ONE, k) for p in sums])

    # -- structural helpers --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.classes)

    def class_entry(self, r: int) -> RationalFunctionX:
        return self.classes[r % self.modulus]

    def degree_span(self) -> int:
        """Largest exponent span across all numerators and denominators."""
        return max(max(p) - min(p) if p else 0 for e in self.classes for p in (e.n, e.d))

    @staticmethod
    def _coerce(other) -> "ClassFunction":
        if isinstance(other, ClassFunction):
            return other
        return ClassFunction.constant(other)

    # -- ring structure ------------------------------------------------------

    def _binop(self, other, op) -> "ClassFunction":
        other = self._coerce(other)
        if self.modulus == other.modulus and self.root_order == other.root_order:
            return ClassFunction(self.modulus, self.root_order, list(map(op, self.classes, other.classes)))
        m = math.lcm(self.modulus, other.modulus)
        n = math.lcm(self.root_order, other.root_order)

        def side(f):
            return [_rf_stretch(f.classes[j % f.modulus], n // f.root_order) for j in range(m)]

        return ClassFunction(m, n, list(map(op, side(self), side(other))))

    def __add__(self, other):
        return self._binop(other, _rf_add)

    __radd__ = __add__

    def __neg__(self):
        entries = [RationalFunctionX(-e.k, e.n, e.d) for e in self.classes]  # n and d stay reduced
        return ClassFunction(self.modulus, self.root_order, entries)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        return self._binop(other, _rf_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, _rf_div)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else ClassFunction.constant(1) / self
        out = ClassFunction.constant(1)
        for bit in bin(abs(k))[2:]:  # repeated squaring, high bit first
            out = out * out
            if bit == "1":
                out = out * base
        return out

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.root_order == other.root_order
            and self.classes == other.classes
        )

    def __hash__(self):
        return hash((self.modulus, self.root_order, self.classes))

    # -- the dual involution ---------------------------------------------------

    def dual(self) -> "ClassFunction":
        """Substitute q^(-r) for q^r; an involutive ring automorphism."""
        return ClassFunction(self.modulus, self.root_order, [_rf_mirror(e) for e in self.classes])

    def scale_pow(self, c) -> "ClassFunction":
        """Multiply by q^(c*r) for rational c."""
        c = _frac(c)
        n = math.lcm(self.root_order, c.denominator)
        k = int(c * n)
        # x^k is a unit, so shifting the numerator keeps the entry reduced
        stretched = (_rf_stretch(e, n // self.root_order) for e in self.classes)
        return ClassFunction(self.modulus, n, [RationalFunctionX(e.k, _shift(e.n, k), e.d) for e in stretched])

    # -- evaluation -------------------------------------------------------------

    def eval(self, q0, r0: int, precision: Optional[int] = None):
        """Value at q = q0 (rational > 1) and r = r0 (positive integer).

        An exact Fraction whenever the required root of q0 is rational, else a Decimal
        rounded half-up to `precision` significant digits (GML_PRECISION, default 50),
        which is read and checked only then.
        """
        qa, qz = _ratio(q0)
        if qa <= qz:
            raise ValueError("q0 must be a rational > 1")
        if (r0 := _json_int(r0)) < 1:
            raise ValueError("r0 must be a positive integer")
        entry = self.class_entry(r0)
        # q^(e*r0/N) = y^k, k = e*r0/g, y = q0^(1/b) = s^(d/b): b = N/g least, d | b largest with q0 = s^d
        b = self.root_order // (g := math.gcd(self.root_order, r0 * math.gcd(*entry.n, *entry.d)))
        d, a, z = next(((d, a, z) for d in range(min(b, qa.bit_length()), 1, -1) if b % d == 0
                        and (a := iroot(qa, d)) ** d == qa and (z := iroot(qz, d)) ** d == qz), (1, qa, qz))
        if d == b:  # s = a/z > 1 (z = 1 for an integral q0); scaled by a^-lo * z^hi, n and d give integer sums
            ks = (*entry.n, *entry.d)
            lo, hi = min(ks) * r0 // g, max(ks) * r0 // g  # g divides e*r0 for every exponent e
            if (hi - lo) * a.bit_length() > EXACT_EVAL_MAX_BITS:
                raise ValueError(f"the exact value at q0={_ratio_str(qa, qz)}, r0={r0} would exceed "
                                 f"{EXACT_EVAL_MAX_BITS} bits")
            num, den = (sum(c * a ** (e * r0 // g - lo) for e, c in p.items()) if z == 1 else
                        sum(c * a ** (e * r0 // g - lo) * z ** (hi - e * r0 // g) for e, c in p.items())
                        for p in (entry.n, entry.d))
            if den == 0:
                raise PoleAtEvaluationPoint(f"denominator vanishes at q0={_ratio_str(qa, qz)}, r0={r0}")
            return Fraction(entry.k.numerator * num, entry.k.denominator * den)
        precision = os.environ.get("GML_PRECISION", DEFAULT_EVAL_PRECISION) if precision is None else precision
        if not str(precision).isdecimal() or int(precision) < 1:
            raise ValueError(f"GML_PRECISION (precision) must be a positive integer, got {precision!r}")
        precision, q0 = int(precision), _ratio_str(qa, qz)
        b, top = b // d, max(abs(e) for e in (*entry.n, *entry.d)) * r0 // g + b  # above |k|, j
        wide = dict(Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX, traps=[decimal.Overflow, decimal.Underflow])

        def value(guard):  # y^k = s^m * y^j, k = m*b + j: one sum per j, as the y^j are independent
            with decimal.localcontext(decimal.Context(precision + guard + len(str(top)), **wide)) as ctx:
                q, low = decimal.Decimal(a) / z, decimal.Context(len(str(b)) + 20, **wide)
                y, sums = (q.ln(low) / b).exp(low), ({}, {})
                for _ in range(ctx.prec.bit_length()):  # Newton's method on y^b = s, from 20 digits on
                    y -= (y - q / y ** (b - 1)) / b
                for by_j, side in zip(sums, _sides(entry)):
                    for e, c, cd in side:
                        m, j = divmod(e * r0 // g, b)
                        by_j[j] = by_j.get(j, 0) + c * q**m / cd
                num, den = (sum(v * y**j for j, v in by_j.items()) for by_j in sums)
                if abs(den) < decimal.Decimal(f"1e-{precision + 5}"):
                    raise PoleAtEvaluationPoint(f"denominator vanishes at q0={q0}, r0={r0}")
                return num / den

        out, exact = (decimal.Context(p, decimal.ROUND_HALF_UP, **wide) for p in (precision, decimal.MAX_PREC))
        try:  # double the guard digits until val, give or take its change since the last, rounds one way
            guard, last, val = 30, value(15), value(30)
            while guard < 200 and out.plus(last) != out.plus(val.fma(2, last.copy_negate(), exact)):
                guard, last, val = 2 * guard, val, value(2 * guard)
        except (decimal.Overflow, decimal.Underflow):
            raise ValueError(f"the value at q0={q0}, r0={r0} is beyond the decimal exponent range") from None
        # the layout --eval has always printed: an integral fixed value as N.0, a lone digit as d.0E+X
        sign, digits, x = (val.normalize(out) or decimal.Decimal(0)).as_tuple()
        pad = max(x + 1, 0) if -max(precision // 3, 5) < x + len(digits) - 1 < precision else int(len(digits) == 1)
        return decimal.Decimal((sign, digits + (0,) * pad, x - pad))

    # -- admissibility ------------------------------------------------------------

    def admissible_witness(self, c) -> bool:
        """True when (q^(c*r) - 1) * self is a Laurent polynomial classwise.

        An entry k*n/d is reduced and x does not divide d, so d divides
        n * (x^k - 1) exactly when it divides x^|k| - 1.  d is primitive, so by
        Gauss's lemma it divides over Z if at all.
        """
        c = _frac(c)
        if c == 0:
            raise ValueError("witness exponent c must be nonzero")
        n = math.lcm(self.root_order, c.denominator)
        factor = {abs(int(c * n)): 1, 0: -1}
        stretch = n // self.root_order
        return all(_div_z(factor, {x * stretch: v for x, v in e.d.items()}) is not None for e in self.classes)

    # -- rendering ------------------------------------------------------------------

    def render(self) -> str:
        if self.modulus == 1:
            return _render_entry(self.classes[0], self.root_order)
        return "\n".join(
            f"r = {j} (mod {self.modulus}): {_render_entry(e, self.root_order)}"
            for j, e in enumerate(self.classes)
        )

    def __str__(self):
        return self.render()

    def __repr__(self):
        body = self.render().replace("\n", "; ")
        return f"ClassFunction[{body}]"

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> dict:
        """JSON object; exponents are integers in units of 1/root_order."""

        def side(terms):
            return [[_ratio_str(a, b), e] for e, a, b in sorted(terms)]

        return {
            "modulus": self.modulus,
            "root_order": self.root_order,
            "classes": [{"num": side(num), "den": side(den)} for num, den in map(_sides, self.classes)],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ClassFunction":
        def side(pairs):  # a repeated exponent keeps its last value
            return LaurentPoly({_json_int(e): _json_frac(c) for c, e in pairs})

        # each value is checked as it is read, classes last, so an error is reported against its key
        if (modulus := _json_int(obj["modulus"])) < 1 or (root_order := _json_int(obj["root_order"])) < 1:
            raise ValueError("modulus and root_order must be positive")
        return cls(modulus, root_order, [ratfun(side(c["num"]), side(c["den"])) for c in obj["classes"]])


def _json_int(x) -> int:
    """An int, an integer string or another integral number; floats, bools and any
    number that int() would truncate are refused."""
    if isinstance(x, (bool, float)) or (n := int(x)) != x and not isinstance(x, str):
        raise ValueError(f"expected an integer, got {x!r}")
    return n


def _json_frac(x) -> Fraction:
    """A JSON rational: an int as itself, any other value by its text through _frac (0.5 as "0.5")."""
    return _frac(x if type(x) is int else str(x))


def _render_exp(e: int, n: int) -> str:
    """Q^(e/n) for e != 0."""
    g = math.gcd(e, n)
    return "Q" if e == n else f"Q^{e // g}" if g == n else f"Q^({e // g}/{n // g})"


def _render_poly(terms: list, n: int) -> str:
    if not terms:
        return "0"
    parts = []
    for e, a, b in sorted(terms, reverse=True):
        mag = _ratio_str(abs(a), b)
        piece = mag if e == 0 else _render_exp(e, n) if abs(a) == b == 1 else f"{mag}*{_render_exp(e, n)}"
        if not parts:
            parts.append(piece if a > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if a > 0 else f"- {piece}")
    return " ".join(parts)


def _render_entry(e: RationalFunctionX, n: int) -> str:
    num, den = _sides(e)
    if e.is_poly:
        return _render_poly(num, n)
    return f"({_render_poly(num, n)}) / ({_render_poly(den, n)})"


# module-level symbol for the monomial q^r, convenient in client code
Q = ClassFunction.monomial(1)


# ---------------------------------------------------------------------------
# Operations in the names clients look for


def cf_from_terms(terms: Iterable, den_exp=None) -> ClassFunction:
    """Build sum_i n_i * alpha_i^r / (q^(c*r) - 1) as a ClassFunction.

    Each term is (coeff, root, q_exp): the summand coeff * zeta^(root*r) *
    q^(q_exp * r), where root is a rational b/M meaning the root of unity
    e^(2*pi*i*b/M).  den_exp is the c of an optional denominator
    q^(c*r) - 1; None means denominator 1.

    Raises ZeroDenominatorExponent for c = 0 and NonRealInput when the
    root-of-unity coefficients fail to collapse to a rational on some
    residue class of r.
    """
    if den_exp is not None:
        den_exp = _frac(den_exp)
        if den_exp == 0:
            raise ZeroDenominatorExponent("denominator exponent c must be nonzero")
    norm = [(_ratio(coeff), _frac(root), _frac(q_exp)) for coeff, root, q_exp in terms]
    m = math.lcm(1, *(root.denominator for _, root, _ in norm))
    n = math.lcm(1 if den_exp is None else den_exp.denominator, *(q_exp.denominator for *_, q_exp in norm))
    l = math.lcm(1, *(q for (_, q), _, _ in norm))
    # coeff * zeta^(root*r) * q^(q_exp*r) = (c/l) * zeta_m^(b*r) * x^e for the integers b = root*m,
    # c = coeff*l and e = q_exp*n; each entry is (1/l) * (integer root sums) / (x^(den_exp*n) - 1)
    by_exp: dict[int, list[tuple[int, int]]] = {}
    for (p, q), root, q_exp in norm:
        e = q_exp.numerator * (n // q_exp.denominator)
        by_exp.setdefault(e, []).append((root.numerator * (m // root.denominator), p * (l // q)))
    den = {0: 1} if den_exp is None else {den_exp.numerator * (n // den_exp.denominator): 1, 0: -1}
    k = Fraction(1, l)
    # zeta -> zeta^a (a a unit mod m) carries class j to a*j, fixes a rational sum and keeps an
    # irrational one irrational, so class g = gcd(j, m) decides and fills class j; at j = g,
    # zeta_m^(b*g) = zeta_(m/g)^b.  Class 0 (g = m) goes first, then g ascending, so the first
    # failure is the least failing class.
    by_gcd = {}
    for g in (m, *_divisors(m)[:-1]):
        sums = {e: _rational_root_sum(pairs, m // g) for e, pairs in by_exp.items()}
        if None in sums.values():
            raise NonRealInput(f"coefficients on the class r = {g % m} (mod {m}) are not rational")
        by_gcd[g] = _reduced({e: v for e, v in sums.items() if v}, den, k)
    return ClassFunction(m, n, [by_gcd[math.gcd(j, m)] for j in range(m)])


def cf_ring(op: str, a: ClassFunction, b: Optional[ClassFunction] = None, exponent=None) -> ClassFunction:
    """Ring operations by name: add, sub, mul, neg, scale_pow."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    if op == "scale_pow":
        if exponent is None:
            raise ValueError("scale_pow needs an exponent")
        return a.scale_pow(exponent)
    raise ValueError(f"unknown ring operation {op!r}")


def cf_dual(f: ClassFunction) -> ClassFunction:
    return f.dual()


def cf_eval(f: ClassFunction, q0, r0: int, precision: Optional[int] = None):
    return f.eval(q0, r0, precision)


def cf_geometric_sum(coeff, a, b, i0: int, i1: Optional[int] = None) -> ClassFunction:
    """Sum of coeff * Q^(a*i + b) for i from i0 to i1 (i1 = None means infinity).

    A finite range is built directly in reduced form: coefficient 1 at each
    exponent a*i + b, so for a != 0 more than MAX_SUM_TERMS terms raise
    ValueError before anything is allocated.  The infinite sum has closed form
    coeff * Q^(a*i0 + b) / (1 - Q^a) and converges exactly when a < 0;
    otherwise DivergentSeries is raised (unless coeff is zero).
    """
    a, b, i0 = _frac(a), _frac(b), _json_int(i0)
    coeff = ClassFunction._coerce(coeff)
    if i1 is not None:
        n = _json_int(i1) - i0 + 1
        if n <= 0:
            return ClassFunction.zero()
        if a == 0:
            return coeff * ClassFunction.monomial(b, n)
        if n > MAX_SUM_TERMS:
            raise ValueError(f"a geometric sum of {n} terms exceeds the cap of {MAX_SUM_TERMS} terms")
        head = a * i0 + b
        root_order = math.lcm(head.denominator, a.denominator)
        e0, step = int(head * root_order), int(a * root_order)
        num = dict.fromkeys(range(e0, e0 + n * step, step), 1)
        return coeff * ClassFunction(1, root_order, [RationalFunctionX(Fraction(1), num, _ONE)])
    if coeff.is_zero:
        return ClassFunction.zero()
    if a >= 0:
        raise DivergentSeries(
            f"geometric series with exponent {frac_str(a)}*i + {frac_str(b)} diverges"
        )
    head = ClassFunction.monomial(a * i0 + b)
    return coeff * head / (1 - ClassFunction.monomial(a))


def cf_admissible_witness(f: ClassFunction, c) -> bool:
    return f.admissible_witness(c)
