"""cli_requests: a fixed mix of `python -m massdual.cli` subprocesses.

One request runs at a time (closed loop, one client).  The fixed cost of a
process -- interpreter start and `import massdual` -- dominates p50_ms, so
import and lazy-loading work shows here and nowhere else; the heavier
requests (verify suites, large duality pairs, tame with the involution
check, bigger stringy files) set p90_ms.  Every request is replayed in
process through massdual.cli.run after the pass, and the exit code and the
parsed stdout must agree with it.  The seed draws evaluation points and
coefficients, never the sizes or the mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

from common import Item, spawn
from massdual import ClassFunction, builtin_profile, profile_total_masses

SUBCOMMANDS = ("formula", "profile", "stringy", "duality", "tame", "verify")

LAYER_METRICS = (
    ["cli.interp_ms", "cli.import_ms", "cli.stdout_bytes"]
    + [f"cli.{sub}_ms" for sub in SUBCOMMANDS]
)


def _cf_json(terms: dict) -> dict:
    """A Laurent polynomial in Q as a ClassFunction document."""
    num = [[str(c), e] for e, c in sorted(terms.items())]
    return {"modulus": 1, "root_order": 1, "classes": [{"num": num, "den": [["1", 0]]}]}


def _cycles_1based(perm) -> list:
    seen, out = set(), []
    for s in range(len(perm)):
        if s not in seen:
            cyc, i = [], s
            while i not in seen:
                seen.add(i)
                cyc.append(i + 1)
                i = perm[i]
            if len(cyc) > 1:
                out.append(cyc)
    return out


def group_document(gens, mats) -> dict:
    return {
        "kind": "tame",
        "payload": {
            "degree": len(gens[0]),
            "generators": [_cycles_1based(g) for g in gens],
            "rep": {
                "dim": mats[0].dim,
                "root_order": mats[0].root_order,
                "matrices": [{"perm": [p + 1 for p in m.perm], "exps": list(m.exps)} for m in mats],
            },
        },
    }


def stringy_document(k: int, rng: random.Random) -> dict:
    cs = ["-1/2", "1/3", "-2/3", "1/2"][:k]
    strata = {}
    for mask in range(2**k):
        J = [j + 1 for j in range(k) if mask >> j & 1]
        deg = k - len(J)
        strata[json.dumps(J, separators=(",", ":"))] = _cf_json(
            {e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in range(max(deg - 1, 0), deg + 1)}
        )
    return {"kind": "stringy", "payload": {"dim": k, "mode": "open", "horizontal": [{"c": c} for c in cs], "strata": strata}}


class Request:
    def __init__(self, argv, stdin=None, expect=None):
        self.argv = argv
        self.stdin = stdin
        self.expect = expect  # required exit code, when the mix fixes it
        self.sub = argv[0]


class CliRequests:
    digests_any_seed = False
    spawns = True  # items run in child processes

    def __init__(self, seed: int, workdir: str):
        from wl_tame import hyperoctahedral, primes_in_class, symmetric_doubled

        rng = random.Random(seed)
        self.workdir = workdir
        reqs: list[Request] = []

        def q0r0(decimal=False):
            # a non-square q0 at odd r0 makes half-integer exponents decimal;
            # the slot, not the seed, decides which evaluation path runs
            if decimal:
                return ["--eval", str(rng.choice([2, 3, 5, 6, 7])), str(rng.choice([1, 3]))]
            return ["--eval", str(rng.randint(2, 9)), str(rng.randint(1, 3))]

        for n in range(2, 16):
            reqs.append(Request(["formula", "bhargava", "--n", str(n)] + (q0r0() if n % 2 else [])))
        for n in range(2, 12):
            reqs.append(Request(["formula", "kedlaya", "--n", str(n)] + (q0r0() if n % 2 else [])))
        for n in list(range(3, 13)) + [40, 40]:
            reqs.append(Request(["formula", "hilbert", "--n", str(n)]))
        for n in range(1, 7):
            reqs.append(Request(["profile", "--builtin", "quad_char0_sigma", "--n", str(n)] + q0r0(n % 2 == 1)))
        for n in range(2, 8):
            reqs.append(Request(["profile", "--builtin", "quad_char2_sigma", "--n", str(n)] + q0r0()))
        for _ in range(2):
            reqs.append(Request(["profile", "--builtin", "quad_char2_sigma", "--n", "1"], expect=3))
        for m, n in ((0, 1), (1, 1), (2, 2), (3, 1), (4, 3), (5, 2)):
            reqs.append(Request(["profile", "--builtin", "quad_char2_upsilon", "--m", str(m), "--n", str(n)]))
        for _ in range(4):
            reqs.append(Request(["stringy", "--builtin", "a1_cone", "--d", "2", "--check-gm"]))
        for i, k in enumerate((1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4)):
            path = self._write(f"stringy{i}.json", stringy_document(k, rng))
            reqs.append(Request(["stringy", "--file", path, "--d", str(k), "--check-poincare"]))
        for i in range(12):
            exps = rng.sample(range(-6, 7), 4)
            coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in exps]
            mv = dict(zip((-e for e in exps), coeffs))
            mw = dict(zip(exps, coeffs))
            if i % 2:  # break strong duality in one coefficient
                mw[exps[0]] += 1
            doc = {"mass_v": _cf_json(mv), "mass_w": _cf_json(mw)}
            reqs.append(Request(["duality", "--mv", "-", "--mw", "-", "--d", str(rng.randint(1, 4))], json.dumps(doc)))
        for m in (60, 80, 100, 100):
            masses = profile_total_masses(builtin_profile("quad_char2_upsilon", m=m, n=2))
            reqs.append(Request(["duality", "--mv", "-", "--mw", "-", "--d", str(rng.randint(2, 6))], json.dumps(masses.to_json())))
        # q from a fixed residue class modulo exp(G), so m0 and the cost stay put
        groups = [
            ("s3", symmetric_doubled(3), 6, 5),
            ("s4", symmetric_doubled(4), 12, 5),
            ("b2", hyperoctahedral(2), 4, 3),
            ("b3", hyperoctahedral(3), 12, 5),
            ("s5", symmetric_doubled(5), 60, 1),
        ]
        for name, (gens, mats), exponent, residue in groups:
            path = self._write(f"group_{name}.json", group_document(gens, mats))
            primes = primes_in_class(residue, exponent, 6)
            for _ in range(2):
                reqs.append(Request(["tame", "--group", path, "--q", str(rng.choice(primes)), "--check-involution"]))
        reqs.append(Request(["duality", "--mv", "-", "--mw", "-", "--d", "2"], '{"mass_v": [1, 2', expect=2))
        for suite in ("stringy", "partitions"):
            reqs.append(Request(["verify", "--suite", suite]))
        self.items = [
            Item(f"req{i:03d}-{r.sub}", self._runner(r)) for i, r in enumerate(reqs)
        ]
        self.by_id = dict(zip((it.id for it in self.items), reqs))

    def _write(self, name, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _runner(self, req: Request):
        argv = ["-m", "massdual.cli"] + req.argv + ["--report", "json"]

        def run(tr):
            code, stdout = tr.call(f"cli.{req.sub}", spawn, argv, req.stdin)
            tr.count("cli.stdout_bytes", len(stdout.encode()))
            return {"code": code, "stdout": stdout}

        return run

    def canon(self, item, out):
        stdout = out["stdout"]
        return {"item": item.id, "code": out["code"], "stdout": json.loads(stdout) if stdout.strip() else None}

    @staticmethod
    def cf_documents(parsed) -> list[dict]:
        found, stack = [], [parsed]
        while stack:
            x = stack.pop()
            if isinstance(x, dict):
                if {"modulus", "root_order", "classes"} <= set(x):
                    found.append(x)
                else:
                    stack.extend(x.values())
        return found

    def class_functions(self, out):
        parsed = json.loads(out["stdout"]) if out["stdout"].strip() else None
        return [ClassFunction.from_json(d) for d in self.cf_documents(parsed)]

    def check(self, item, doc):
        from massdual import cli

        req = self.by_id[item.id]
        buf = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(req.stdin or "")
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(req.argv + ["--report", "json"])
        finally:
            sys.stdin = saved
        if doc["code"] != code:
            return f"exit code {doc['code']}, in process {code}"
        if req.expect is not None and code != req.expect:
            return f"exit code {code}, want {req.expect}"
        if code not in (0, 1, 2, 3):
            return f"undocumented exit code {code}"
        want = json.loads(buf.getvalue()) if buf.getvalue().strip() else None
        if doc["stdout"] != want:
            return "stdout differs from the in-process result"
        for cf in self.cf_documents(doc["stdout"]):
            if ClassFunction.from_json(cf).to_json() != cf:
                return "printed ClassFunction is not canonical"
        return None
