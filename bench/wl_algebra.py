"""exact_algebra: in-process user computations, almost all of it in qsym.

Small items are criterion-9-style pairs of term lists; each runs
cf_from_terms, +, *, dual, ==, admissible_witness and eval, and they set
p50_ms.  Ladders of large functions (finite geometric sums, the
quad_char2_upsilon profile with its duality report, stringy counts over
2^k strata, partition formulas) set most of wall_s and share the top
decile, where p90_ms falls, with the largest pairs; their rungs show the
scaling exponent.  grouprep does no work here.

The seed moves values, not cost: it shifts all exponents of a pair (or of
a stringy rung's strata) by a common amount and draws the geometric sums'
coefficients and offset.  Term counts, coefficients of pairs and strata,
exponent spans and denominators, ladder sizes and the divisor
multiplicities come from fixed tables; the pairs' coefficients stay fixed
because they decide which factors cancel, and so the cost.  Every value is
checked at q = 2^N, where N clears all exponent denominators, against a
Fraction evaluation of the item's defining sum."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from itertools import combinations

import oracle
from common import Item, class_functions_of
from massdual import (
    ClassFunction,
    DualityReport,
    MassPair,
    ResolutionData,
    builtin_profile,
    cf_admissible_witness,
    cf_dual,
    cf_eval,
    cf_from_terms,
    cf_geometric_sum,
    duality_report,
    hilbert_counts,
    kedlaya_masses,
    poincare_check,
    profile_total_masses,
    stringy_count,
)

F = Fraction

PAIRS = 150
STRUCTURE_SEED = 57721  # fixes every shape and coefficient the seed does not move
DEN_EXPS = [None, F(1), F(2), F(-1), F(1, 2), F(-3, 2)]
EVAL_RS = (1, 2)

GEOM_TERMS = (500, 1000, 2000, 4000)
PROFILE_M = (25, 50, 100, 200)
PROFILE_N = 2
PROFILE_DIM = 2 * PROFILE_N
STRINGY_K = (2, 3, 4, 5)
# divisor multiplicities c_j of the stringy rungs; rung k uses the first k
STRINGY_C = (F(-1, 2), F(-2, 3), F(1, 2), F(1, 3), F(-1, 6))
FORMULA_N = (10, 20, 40, 80)

LAYER_METRICS = (
    [f"qsym.{op}_s" for op in ("from_terms", "ring", "dual", "eq", "eval", "witness")]
    + [f"qsym.geomsum.{n}_s" for n in GEOM_TERMS]
    + ["qsym.calls", "qsym.max_span", "qsym.json_s"]
    + [f"massengine.profile.{m}_s" for m in PROFILE_M]
    + ["massengine.formula_s"]
    + [f"stringy.count.k{k}_s" for k in STRINGY_K]
    + ["stringy.poincare_s", "duality.report_s", "duality.reports"]
)

NUMERATORS = {1: [-4, -3, -2, -1, 0, 1, 2, 3, 4], 2: [-3, -1, 1, 3], 3: [-4, -2, -1, 1, 2, 4]}
COEFFS = [-4, -3, -2, -1, 1, 2, 3, 4]


def term_list(srng: random.Random, shift: int):
    """(terms, den_exp) of a fixed shape drawn from srng, every exponent
    moved by shift.  A common shift changes the values but not the spans,
    so the gcds cost the same for every seed."""
    terms, used = [], set()
    for _ in range(srng.randint(1, 4)):
        root_num, qden = srng.choice([0, 1]), srng.choice([1, 2, 3])
        while True:
            q_exp = F(srng.choice(NUMERATORS[qden]), qden)
            if q_exp not in used:  # distinct exponents: no two terms merge
                break
        used.add(q_exp)
        terms.append((F(srng.choice(COEFFS)), F(root_num, 2), q_exp + shift))
    return terms, srng.choice(DEN_EXPS)


def terms_value(terms, den_exp, log2_q0: int, r: int, dual: bool = False) -> Fraction:
    """sum c * (-1)^(2*root*r) * Q^(+-e) / (Q^(+-c) - 1) at Q = (2^log2_q0)^r."""
    sign = -1 if dual else 1
    num = sum(
        (c * (-1) ** (root.numerator * r) * oracle.q_pow(log2_q0, sign * e, r) for c, root, e in terms),
        F(0),
    )
    if den_exp is None:
        return num
    return num / (oracle.q_pow(log2_q0, sign * den_exp, r) - 1)


def _exp_lcm(*exps) -> int:
    return math.lcm(*(F(e).denominator for e in exps if e is not None))


class ExactAlgebra:
    digests_any_seed = False
    spawns = False

    def __init__(self, seed: int, workdir: str):
        srng = random.Random(STRUCTURE_SEED)
        vrng = random.Random(seed)
        self.items = []
        self.spec = {}
        for i in range(PAIRS):
            shift = vrng.randint(-2, 2)  # one shift per pair keeps f + g's span fixed
            ta, ca = term_list(srng, shift)
            tb, cb = term_list(srng, shift)
            log2_q0 = _exp_lcm(ca, cb, *(e for _, _, e in ta + tb))
            self._add(f"pair{i:03d}", self._pair, (ta, ca, tb, cb, log2_q0))
        for n in GEOM_TERMS:
            c1, c0 = vrng.randint(1, 9), vrng.randint(1, 9)
            b = F(vrng.choice(NUMERATORS[3]), 3)
            self._add(f"geomsum{n}", self._geomsum, (n, c1, c0, b))
        for m in PROFILE_M:
            self._add(f"profile{m}", self._profile, (m, PROFILE_DIM))
        for k in STRINGY_K:
            shift = vrng.randint(0, 2)  # multiplies the count by Q^shift
            strata = {}
            for size in range(k + 1):
                for J in combinations(range(1, k + 1), size):
                    # a count of degree dim - |J| with nonzero coefficients
                    deg = k - size
                    strata[J] = {e + shift: srng.choice(COEFFS) for e in range(max(deg - 1, 0), deg + 1)}
            self._add(f"stringy{k}", self._stringy, (k, strata))
        for n in FORMULA_N:
            self._add(f"hilbert{n}", self._hilbert, (n,))
            self._add(f"kedlaya{n}", self._kedlaya, (n,))
        self.ptable = oracle.partition_table(max(FORMULA_N))

    def _add(self, item_id, method, args):
        self.spec[item_id] = args
        self.items.append(Item(item_id, lambda tr: method(tr, *args)))

    # -- items ---------------------------------------------------------------

    @staticmethod
    def _pair(tr, ta, ca, tb, cb, log2_q0):
        c = tr.call
        f = c("qsym.from_terms", cf_from_terms, ta, ca)
        g = c("qsym.from_terms", cf_from_terms, tb, cb)
        s = c("qsym.ring", operator.add, f, g)
        p = c("qsym.ring", operator.mul, f, g)
        fd = c("qsym.dual", cf_dual, f)
        out = {
            "f": f, "g": g, "s": s, "p": p, "fd": fd,
            "inv_ok": c("qsym.eq", operator.eq, c("qsym.dual", cf_dual, fd), f),
            "f_eq_g": c("qsym.eq", operator.eq, f, g),
            "wit_f": c("qsym.witness", cf_admissible_witness, f, ca or 1),
            "wit_g": c("qsym.witness", cf_admissible_witness, g, cb or 1),
        }
        q0 = 2**log2_q0
        out["vals"] = {
            f"{key}@{r}": c("qsym.eval", cf_eval, out[key], q0, r)
            for key in ("f", "g", "s", "p", "fd")
            for r in EVAL_RS
        }
        return out

    @staticmethod
    def _geomsum(tr, n, c1, c0, b):
        def run():
            coeff = ClassFunction.poly({1: c1, 0: c0})
            return cf_geometric_sum(coeff, 1, b, 1, n)

        return {"sum": tr.call(f"qsym.geomsum.{n}", run)}

    @staticmethod
    def _profile(tr, m, dim):
        def run():
            return profile_total_masses(builtin_profile("quad_char2_upsilon", m=m, n=PROFILE_N))

        masses = tr.call(f"massengine.profile.{m}", run)
        report = tr.call("duality.report", duality_report, masses, dim)
        tr.count("duality.reports")
        return {"masses": masses, "report": report}

    @staticmethod
    def _stringy(tr, k, strata):
        def run():
            data = ResolutionData(
                dim=k,
                horizontal=STRINGY_C[:k],
                strata={frozenset(J): ClassFunction.poly(p) for J, p in strata.items()},
            )
            return stringy_count(data)

        count = tr.call(f"stringy.count.k{k}", run)
        return {"count": count, "poincare": tr.call("stringy.poincare", poincare_check, count, k)}

    @staticmethod
    def _hilbert(tr, n):
        counts = tr.call("massengine.formula", hilbert_counts, n)
        return {"hilb_plane": counts.hilb_plane, "fiber": counts.fiber}

    @staticmethod
    def _kedlaya(tr, n):
        return {"masses": tr.call("massengine.formula", kedlaya_masses, n)}

    # -- output handling -----------------------------------------------------

    def canon(self, item, out):
        def enc(x):
            if hasattr(x, "to_json"):
                return x.to_json()
            if isinstance(x, dict):
                return {k: enc(v) for k, v in x.items()}
            if isinstance(x, Fraction):
                return str(x)
            if isinstance(x, bool):
                return x
            return {"inexact": str(x)}  # an eval that did not stay exact

        return {"item": item.id, **enc(out)}

    def class_functions(self, out):
        return class_functions_of(out)

    # -- exact checks on the canonical output --------------------------------

    def check(self, item, doc):
        kind = item.id.rstrip("0123456789")
        return getattr(self, f"_check_{kind}")(doc, *self.spec[item.id])

    @staticmethod
    def _check_pair(doc, ta, ca, tb, cb, log2_q0):
        for flag in ("inv_ok", "wit_f", "wit_g"):
            if doc[flag] is not True:
                return f"{flag} is {doc[flag]}"
        for r in EVAL_RS:
            fa = terms_value(ta, ca, log2_q0, r)
            fb = terms_value(tb, cb, log2_q0, r)
            want = {
                "f": fa, "g": fb, "s": fa + fb, "p": fa * fb,
                "fd": terms_value(ta, ca, log2_q0, r, dual=True),
            }
            for key, value in want.items():
                got = doc["vals"][f"{key}@{r}"]
                if not isinstance(got, str) or F(got) != value:
                    return f"{key}({r}) = {got}, defining sum gives {value}"
                if ClassFunction.from_json(doc[key]).eval(2**log2_q0, r) != value:
                    return f"printed {key} evaluates to another value at r={r}"
            if doc["f_eq_g"] and fa != fb:
                return f"f == g but f({r}) != g({r})"
        return None

    @staticmethod
    def _check_geomsum(doc, n, c1, c0, b):
        total = ClassFunction.from_json(doc["sum"])
        for r in EVAL_RS:
            q = oracle.q_pow(3, 1, r)
            want = (c1 * q + c0) * oracle.q_pow(3, b, r) * sum(q**i for i in range(1, n + 1))
            got = total.eval(8, r)
            if got != want:
                return f"sum at r={r} is {got}, want {want}"
        return None

    @staticmethod
    def _check_profile(doc, m, dim):
        n = PROFILE_N

        def masses_at(q):
            # upsilon(m, n): two unit strata, then 2(Q-1) Q^(i-1) points with
            # v = n*i, w = n - n*i for i <= m and v = (n+1)i - m,
            # w = 1 + m + n - (n+1)i beyond; the total is divided by |G| = 2
            head_v = sum((q ** ((1 - n) * i - 1) for i in range(1, m + 1)), F(0))
            tail_v = q ** (-n * (m + 1) + m - 1) / (1 - q ** (-n))
            head_w = sum((q ** ((1 - n) * (i - 1)) for i in range(1, m + 1)), F(0))
            tail_w = q ** (-n * (m + 1) + m + n) / (1 - q ** (-n))
            return 1 + (q - 1) * (head_v + tail_v), 1 + (q - 1) * (head_w + tail_w)

        masses = MassPair.from_json(doc["masses"])
        report = DualityReport.from_json(doc["report"])
        if report.dim != dim:
            return f"report dim {report.dim}, want {dim}"
        for r in EVAL_RS:
            q = F(2) ** r
            mv, mw = masses_at(q)
            dmv, dmw = masses_at(1 / q)
            strong_res = dmw - mv
            weak_res = (mv * q**dim - mw) - (dmw * q**dim - dmv)
            want = {
                "mass_v": (masses.mass_v, mv),
                "mass_w": (masses.mass_w, mw),
                "strong_residual": (report.strong_residual, strong_res),
                "weak_residual": (report.weak_residual, weak_res),
            }
            for key, (cf, value) in want.items():
                got = cf.eval(2, r)
                if got != value:
                    return f"{key}({r}) = {got}, defining sum gives {value}"
            if report.strong and strong_res or report.weak and weak_res:
                return "verdict true but residual nonzero"
        return None

    @staticmethod
    def _check_stringy(doc, k, strata):
        cs = STRINGY_C[:k]
        log2_q0 = _exp_lcm(*cs)
        count = ClassFunction.from_json(doc["count"])

        def count_at(r, dual):
            s = -1 if dual else 1
            q = oracle.q_pow(log2_q0, s, r)
            total = F(0)
            for J, poly in strata.items():
                term = sum((c * q**e for e, c in poly.items()), F(0))
                for j in J:
                    term *= (q - 1) / (oracle.q_pow(log2_q0, s * (1 + cs[j - 1]), r) - 1)
                total += term
            return total

        for r in EVAL_RS:
            want = count_at(r, False)
            got = count.eval(2**log2_q0, r)
            if got != want:
                return f"count({r}) = {got}, defining sum gives {want}"
            mirrored = count_at(r, True) * oracle.q_pow(log2_q0, k, r)
            if doc["poincare"] and mirrored != want:
                return f"poincare_check true but f != D(f) Q^{k} at r={r}"
        return None

    def _check_hilbert(self, doc, n):
        P = self.ptable
        parts = [sum(row) for row in P]
        plane_cf = ClassFunction.from_json(doc["hilb_plane"])
        fiber_cf = ClassFunction.from_json(doc["fiber"])
        for r in EVAL_RS:
            q = F(2) ** r
            plane = sum((P[n][n - m] * q ** (2 * n - m) for m in range(n + 1)), F(0))
            fiber = sum(
                (parts[n - j] * q ** (n - j) * sum((P[j][i] * q ** (j - i) for i in range(j + 1)), F(0))
                 for j in range(n + 1)),
                F(0),
            )
            if plane_cf.eval(2, r) != plane or fiber_cf.eval(2, r) != fiber:
                return f"hilbert({n}) disagrees with the partition sums at r={r}"
        return None

    def _check_kedlaya(self, doc, n):
        P = self.ptable
        parts = [sum(row) for row in P]
        masses = MassPair.from_json(doc["masses"])
        for r in EVAL_RS:
            q = F(2) ** r
            mv = mw = F(0)
            for j in range(n + 1):
                for i in range(j + 1):
                    c = P[j][i] * parts[n - j]
                    mv += c * q ** (i - n)
                    mw += c * q ** (n - i)
            if masses.mass_v.eval(2, r) != mv or masses.mass_w.eval(2, r) != mw:
                return f"kedlaya({n}) disagrees with the partition sums at r={r}"
        return None
