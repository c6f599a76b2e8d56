"""Stringy point counts from resolution data, and the identities they satisfy.

Input is a stratified description of a resolution: finitely many boundary
divisors with rational multiplicities c_j (horizontal data), plus optional
vertical rows with their own discrepancy shifts a_h.  Each row carries a
map from subsets J of divisor indices to the point count of the stratum
cut out by exactly (open mode) or at least (closed mode) the divisors in J.

The count is

    sum_h Q^(-a_h) * sum_J #(stratum_{h,J}) * prod_{j in J} (Q - 1)/(Q^(1+c_j) - 1),

finite exactly when every divisor met by a nonzero stratum has c_j > -1;
otherwise the count is Infinite.  Open and closed strata are related by an
inclusion-exclusion transform that is its own inverse.  Folded into the sum, it
weighs a closed stratum J by the sum over J' <= J of (-1)^|J - J'| prod_{j in J'} f_j,
which is prod_{j in J} (f_j - 1) for the open factors f_j = (Q - 1)/(Q^(1+c_j) - 1).
The sum is taken by Horner's rule in the divisors, eliminating one at a time in
increasing order: it is A + f_j * B, where A holds the strata without j and B those
with j, j dropped from their keys.

The checks below are the standard identities: Poincare duality f = D(f)*Q^d
for the count of a proper crepant-resolvable ambient space, the multiplicative
group quotient (total - origin)/(Q - 1) with duality exponent d - 1 for cone
singularities, and the wild McKay comparison with total masses,
#st(X) = M(v) * Q^d and #st(X)_origin = M(-w).
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional, Union

from .errors import InfiniteInput, MalformedStrata
from .qsym import ClassFunction, Infinite, _frac, _json_frac, _json_int, frac_str, is_infinite

StrataMap = Mapping[frozenset, ClassFunction]
StringyCount = Union[ClassFunction, type(Infinite)]


class VerticalRow(namedtuple("VerticalRow", "a counts")):
    """Strata sharing one vertical discrepancy shift a (a Fraction)."""

    __slots__ = ()

    def __new__(cls, a, counts: Mapping):
        return super().__new__(cls, _frac(a), _normalize_strata(counts))


class ResolutionData(namedtuple("ResolutionData", "dim horizontal strata vertical mode")):
    """Divisor multiplicities plus stratified point counts.

    horizontal holds the multiplicities c_j as Fractions, indexed 1..n in
    stratum keys.  strata are the counts with no vertical shift; the
    VerticalRows in vertical add their own Q^(-a) factor.  mode is "open"
    (counts of exact-incidence strata) or "closed" (counts of
    at-least-incidence strata).
    """

    __slots__ = ()

    def __new__(cls, dim: int, horizontal=(), strata: Mapping = None, vertical=(), mode: str = "open"):
        dim = _positive_dim(dim)
        if mode not in ("open", "closed"):
            raise ValueError("mode must be 'open' or 'closed'")
        horizontal = tuple(map(_multiplicity, horizontal))
        return super().__new__(cls, dim, horizontal, _normalize_strata(strata or {}), tuple(vertical), mode)

    def rows(self) -> list[tuple[Fraction, dict]]:
        """All rows as (shift a, strata map); the horizontal map is the a=0 row."""
        out = []
        if self.strata:
            out.append((Fraction(0), self.strata))
        for row in self.vertical:
            out.append((row.a, row.counts))
        return out


def _positive_dim(dim) -> int:
    if (dim := _json_int(dim)) < 1:
        raise ValueError("dim must be a positive integer")
    return dim


def _multiplicity(c) -> Fraction:
    """A divisor multiplicity c_j as a Fraction; a divisor with c_j = 0 is no divisor."""
    if (c := _frac(c)) == 0:
        raise ValueError("divisors with multiplicity 0 must be dropped")
    return c


def _normalize_strata(counts: Mapping) -> dict:
    """Freeze keys to frozensets of ints and drop zero counts."""
    out = {}
    for key, cf in counts.items():
        key = frozenset(map(_json_int, key))
        if not isinstance(cf, ClassFunction):
            raise TypeError("stratum counts must be ClassFunctions")
        if not cf.is_zero:
            out[key] = cf
    return out


def _downward_closure(keys) -> set[frozenset]:
    space = set()
    for key in keys:
        key = tuple(sorted(key))
        for size in range(len(key) + 1):
            for sub in combinations(key, size):
                space.add(frozenset(sub))
    if not space:
        space.add(frozenset())
    return space


def convert_strata_map(counts: StrataMap, to_open: bool) -> dict:
    """Inclusion-exclusion between open and closed stratum counts.

    closed[J] = sum over J' >= J of open[J']; inverting gives
    open[J] = sum over J' >= J of (-1)^(|J'| - |J|) closed[J'].  Both
    directions are computed by the same alternating/plain sum over the
    supersets present in the input; zero results are dropped.
    """
    counts = _normalize_strata(counts)
    out = {}
    for key in _downward_closure(counts):
        acc = ClassFunction.zero()
        for sup, cf in counts.items():
            if key <= sup:
                if to_open and (len(sup) - len(key)) % 2:
                    acc = acc - cf
                else:
                    acc = acc + cf
        if not acc.is_zero:
            out[key] = acc
    return out


def open_closed_convert(data: ResolutionData) -> ResolutionData:
    """Swap a resolution description between open and closed stratum counts."""
    to_open = data.mode == "closed"
    return ResolutionData(
        dim=data.dim,
        horizontal=data.horizontal,
        strata=convert_strata_map(data.strata, to_open),
        vertical=tuple(
            VerticalRow(row.a, convert_strata_map(row.counts, to_open))
            for row in data.vertical
        ),
        mode="open" if to_open else "closed",
    )


def _met_divisors(data: ResolutionData) -> set[int]:
    """The divisors met by a nonzero stratum of some row."""
    return {j for _, counts in data.rows() for key, cf in counts.items() if not cf.is_zero for j in key}


def _divergent_divisor(data: ResolutionData) -> Optional[int]:
    """The least divisor j with c_j <= -1 met by a nonzero stratum, which makes the count
    Infinite; None when there is none.  Every stratum key must lie in 1..n."""
    return min((j for j in _met_divisors(data) if data.horizontal[j - 1] <= -1), default=None)


def stringy_count(data: ResolutionData) -> StringyCount:
    """Evaluate the stringy count; Infinite when a c_j <= -1 divisor is met.
    Closed strata meet the same divisors as their open conversion, so both modes diverge alike.

    The rows are merged into one map {key: Q^(-a) * count}; then each divisor j met by
    a nonzero stratum, in increasing order, turns the map into A + f_j * B (A the strata
    without j, B those with j, j dropped from their keys), and the count is what is left
    at the empty key.  At most one product per stratum and divisor."""
    n = len(data.horizontal)
    valid = set(range(1, n + 1))
    rows = data.rows()
    for _, counts in rows:
        for key in counts:
            if not key <= valid:
                raise MalformedStrata(
                    f"stratum {sorted(key)} references divisors outside 1..{n}"
                )
    if _divergent_divisor(data) is not None:
        return Infinite
    # only divisors met by a nonzero stratum contribute a factor; the rest
    # may carry arbitrary multiplicities (including c = -1) harmlessly
    factors = {}
    for j in sorted(_met_divisors(data)):
        f = ClassFunction.poly({1: 1, 0: -1}) / (ClassFunction.monomial(1 + data.horizontal[j - 1]) - 1)
        factors[j] = f - 1 if data.mode == "closed" else f
    strata: dict = {}
    for a, counts in rows:
        for key, cf in counts.items():
            cf = cf.scale_pow(-a) if a else cf
            strata[key] = strata[key] + cf if key in strata else cf
    # each partial sum involves only the factors up to j, so no sum reduces against them all
    for j, f in factors.items():
        for key in [key for key in strata if j in key]:
            rest, term = key - {j}, strata.pop(key) * f
            strata[rest] = strata[rest] + term if rest in strata else term
    return strata.get(frozenset(), ClassFunction.zero())


def poincare_check(count: StringyCount, dim: int) -> bool:
    """Self-duality f = D(f) * Q^dim of a stringy count."""
    if is_infinite(count):
        raise InfiniteInput("Poincare check needs a finite count")
    return count == count.dual() * ClassFunction.monomial(dim)


def gm_quotient(total: StringyCount, origin: StringyCount) -> ClassFunction:
    """(total - origin)/(Q - 1), the count of the multiplicative-group quotient."""
    if is_infinite(total) or is_infinite(origin):
        raise InfiniteInput("quotient needs finite counts")
    return (total - origin) / (ClassFunction.poly({1: 1, 0: -1}))


def gm_duality_check(total: StringyCount, origin: StringyCount, dim: int) -> bool:
    """Self-duality of the quotient with exponent dim - 1."""
    quot = gm_quotient(total, origin)
    return quot == quot.dual() * ClassFunction.monomial(dim - 1)


def mckay_identity_check(
    masses,
    stringy_total: StringyCount,
    stringy_origin: StringyCount,
    dim: int,
) -> bool:
    """Wild McKay comparison of a MassPair: total = mass_v * Q^dim and origin = mass_w."""
    if not masses.is_finite:
        raise InfiniteInput("McKay check needs finite masses")
    if is_infinite(stringy_total) or is_infinite(stringy_origin):
        raise InfiniteInput("McKay check needs finite counts")
    return (
        stringy_total == masses.mass_v * ClassFunction.monomial(dim)
        and stringy_origin == masses.mass_w
    )


def builtin_resolution(name: str) -> dict[str, ResolutionData]:
    """Built-in resolution fixtures, keyed by role (total / origin)."""
    if name == "a1_cone":
        # crepant resolution of the quadric cone surface: no boundary divisor,
        # ambient count Q^2 + Q, exceptional fiber over the vertex Q + 1
        return {
            "total": ResolutionData(
                dim=2, strata={frozenset(): ClassFunction.poly({2: 1, 1: 1})}
            ),
            "origin": ResolutionData(
                dim=2, strata={frozenset(): ClassFunction.poly({1: 1, 0: 1})}
            ),
        }
    raise ValueError(f"unknown builtin resolution {name!r}")


# ---------------------------------------------------------------------------
# serialization


def _key_str(key: frozenset) -> str:
    return json.dumps(sorted(key), separators=(",", ":"))


def _strata_to_json(counts: Mapping) -> dict:
    items = sorted(counts.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return {_key_str(k): cf.to_json() for k, cf in items}


def _strata_from_json(obj: Mapping) -> dict:
    out = {}
    for key, cf in obj.items():
        idx = frozenset(_json_int(j) for j in json.loads(key))
        out[idx] = ClassFunction.from_json(cf)
    return out


def resolution_to_json(data: ResolutionData) -> dict:
    out = {
        "dim": data.dim,
        "mode": data.mode,
        "horizontal": [{"c": frac_str(c)} for c in data.horizontal],
        "strata": _strata_to_json(data.strata),
    }
    if data.vertical:
        out["vertical"] = [
            {"a": frac_str(row.a), "strata": _strata_to_json(row.counts)}
            for row in data.vertical
        ]
    return out


def resolution_from_json(obj: Mapping) -> ResolutionData:
    # dim, each c and each a are checked where they are read, mode is read last,
    # so an error is reported against its key
    return ResolutionData(
        dim=_positive_dim(obj["dim"]),
        horizontal=tuple(_multiplicity(_json_frac(h["c"])) for h in obj.get("horizontal", ())),
        strata=_strata_from_json(obj.get("strata", {})),
        vertical=tuple(
            VerticalRow(_json_frac(r["a"]), _strata_from_json(r["strata"]))
            for r in obj.get("vertical", ())
        ),
        mode=obj.get("mode", "open"),
    )
