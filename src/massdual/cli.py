"""Command line entry point.

Subcommands load scenario files and run the engines; each returns its report
and its verdicts (the booleans of the checks it ran) or raises _Divergent.  run
alone applies --eval, prints the report as text or JSON, and picks the exit
code: 0 when every verdict holds, 1 when one fails, 2 on an input or usage
error or an input too large to compute, 3 when a mass diverges.

JSON documents may be wrapped as {"kind": ..., "payload": ..., "metadata":
...}; the payload is what the engines read.  Identical inputs produce
byte-identical JSON output (keys sorted, forms canonical).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .duality import duality_report
from .errors import MassdualError
from .grouprep import group_from_json
from .massengine import (
    MassPair,
    TameScenario,
    _involutive,
    _stable_weights,
    _tame_masses,
    bhargava_masses,
    builtin_profile,
    hilbert_counts,
    kedlaya_masses,
    mass_from_json,
    profile_from_json,
    profile_total_masses,
)
from .qsym import ClassFunction, _frac, cf_dual, is_infinite
from .stringy import (
    builtin_resolution,
    gm_duality_check,
    poincare_check,
    resolution_from_json,
    stringy_count,
)
from .verify import SUITES, run_suite

BUILTIN_PROFILES = ("quad_char0_sigma", "quad_char2_sigma", "quad_char2_upsilon")


def _write(lines: list) -> None:
    """Print lines to stdout; a reader that closes the pipe early is not an error."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(obj: dict, report: str) -> None:
    """Print a report whose values are ClassFunctions or plain JSON values."""
    if report == "json":
        _write([json.dumps(obj, indent=2, sort_keys=True, default=ClassFunction.to_json)])
        return
    lines = []
    for key, val in obj.items():
        body = str(val)
        if "\n" in body:
            lines += [f"{key}:", *(f"  {line}" for line in body.split("\n"))]
        else:
            lines.append(f"{key} = {body}")
    _write(lines)


_INPUT_ERRORS = (MassdualError, OSError, KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError)


def _text(exc: BaseException) -> str:
    # a KeyError's text is only the key
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(option: str, text: str, loader):
    """loader(document in text), an input error prefixed by the option and the
    JSON path of the value the loader read last.  The path is found by loading
    once more over traced copies, so a document that loads pays nothing; a
    MassdualError (a group too large, say) names only the option."""
    doc, trail = None, [""]
    try:
        doc = json.loads(text)
        return loader(doc)
    except _INPUT_ERRORS as exc:
        if doc is not None and not isinstance(exc, MassdualError):
            with contextlib.suppress(Exception):  # the first error is the one reported
                loader(_trace(doc, "", trail))
        where = trail[0].lstrip(".")
        raise ValueError(f"{option}: {where}{': ' * bool(where)}{_text(exc)}") from None


def _trace(value, path: str, trail: list):
    """value, a dict or list copied so that reading it records in trail[0] the
    JSON path of each value read, such as .classes[0].den; a missing key or a
    finished iteration leaves the path of the container."""
    trail[0] = path
    if isinstance(value, (dict, list)):
        value = (_TracedDict if isinstance(value, dict) else _TracedList)(value)
        value.path, value.trail = path, trail
    return value


class _TracedDict(dict):
    __slots__ = ("path", "trail")

    def __getitem__(self, key):
        self.trail[0] = self.path
        step = f".{key}" if isinstance(key, str) and key.isidentifier() else f"[{json.dumps(key)}]"
        return _trace(dict.__getitem__(self, key), self.path + step, self.trail)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def items(self):
        yield from ((key, self[key]) for key in self.keys())
        self.trail[0] = self.path


class _TracedList(list):
    __slots__ = ("path", "trail")

    def __iter__(self):
        yield from (_trace(v, f"{self.path}[{i}]", self.trail) for i, v in enumerate(list.__iter__(self)))
        self.trail[0] = self.path


def _payload(doc: dict, kind: str) -> dict:
    """Unwrap a scenario file; a bare payload is accepted as-is."""
    if isinstance(doc, dict) and "kind" in doc and "payload" in doc:
        if doc["kind"] != kind:
            raise ValueError(f"scenario file has kind {doc['kind']!r}, expected {kind!r}")
        return doc["payload"]
    return doc


def _eval_report(out: dict, spec: list) -> None:
    """Append each ClassFunction of the report evaluated at q = spec[0], r = spec[1]."""
    q0, r0 = _frac(spec[0]), int(spec[1])
    values = {f"{key}({q0},{r0})": cf.eval(q0, r0) for key, cf in out.items() if isinstance(cf, ClassFunction)}
    # an exact value may pass int-to-str's 4300-digit default (EXACT_EVAL_MAX_BITS
    # is the bound); lift it only for these str() calls, as run() also serves in process
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        out.update((key, str(v)) for key, v in values.items())
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class _Divergent(Exception):
    """A total mass diverges; the message is the reason that run() reports."""


def _cmd_tame(args) -> tuple:
    group, rep = _load("--group", _read(args.group), lambda d: group_from_json(_payload(d, "tame")))
    table = _stable_weights(TameScenario(group, rep, args.q))  # masses and verdict read one table
    out = _tame_masses(*table)._asdict()
    if args.check_involution:
        out["involution"] = _involutive(*table)
    return out, [out.get("involution", True)]


def _cmd_profile(args) -> tuple:
    if args.file:
        profile = _load("--file", _read(args.file), lambda d: profile_from_json(_payload(d, "profile")))
    else:
        profile = builtin_profile(args.builtin, n=args.n, m=args.m)
    masses = profile_total_masses(profile)
    if not masses.is_finite:
        raise _Divergent("a geometric family has ratio exponent >= 0")
    return masses._asdict(), []


def _cmd_formula(args) -> tuple:
    if args.which == "hilbert":
        counts = hilbert_counts(args.n)
        return {"hilb_plane": counts.hilb_plane, "fiber": counts.fiber}, []
    masses = bhargava_masses(args.n) if args.which == "bhargava" else kedlaya_masses(args.n)
    return {**masses._asdict(), "strong": cf_dual(masses.mass_w) == masses.mass_v}, []


def _resolutions_from_json(doc) -> dict:
    payload = _payload(doc, "stringy")
    if "total" in payload or "origin" in payload:
        return {role: resolution_from_json(payload[role]) for role in ("total", "origin") if role in payload}
    return {"total": resolution_from_json(payload)}


def _cmd_stringy(args) -> tuple:
    if args.builtin:
        fixtures = builtin_resolution(args.builtin)
    else:
        fixtures = _load("--file", _read(args.file), _resolutions_from_json)
    counts = {}
    for role, data in fixtures.items():
        counts[role] = stringy_count(data)
        if is_infinite(counts[role]):
            raise _Divergent(f"{role}: a met exceptional divisor has multiplicity <= -1")
    out = {f"count_{role}": cf for role, cf in counts.items()}
    if args.check_poincare:
        if args.d is None:
            raise ValueError("--check-poincare needs --d")
        out["poincare"] = poincare_check(counts["total"], args.d)
    if args.check_gm:
        if args.d is None:
            raise ValueError("--check-gm needs --d")
        if "origin" not in counts:
            raise ValueError("--check-gm needs both total and origin counts")
        out["gm"] = gm_duality_check(counts["total"], counts["origin"], args.d)
    return out, [out.get("poincare", True), out.get("gm", True)]


def _cmd_duality(args) -> tuple:
    mv = _read(args.mv)  # stdin is read once, so `--mv - --mw -` sees one document
    texts = (mv, mv if args.mv == args.mw == "-" else _read(args.mw))
    # each file holds a bare mass or a MassPair document with the side we want
    masses = MassPair(*(
        _load(option, text, lambda d, f=field: mass_from_json(d[f] if f in d else d))
        for option, field, text in zip(("--mv", "--mw"), ("mass_v", "mass_w"), texts)
    ))
    if not masses.is_finite:
        raise _Divergent("duality verdicts need finite masses")
    report = duality_report(masses, args.d)
    return report._asdict(), [report.weak]


def _cmd_verify(args) -> tuple:
    results = run_suite(args.suite)
    verdicts = [r.passed for r in results]
    if args.report == "json":
        return {"suite": args.suite, "results": [r._asdict() for r in results]}, verdicts
    width = max(len(r.name) for r in results)
    _write([f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}" for r in results])
    return None, verdicts  # the PASS/FAIL table is its own layout


@functools.lru_cache(maxsize=None)  # parse_args leaves it as it was; help and errors look up sys.stdout late
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="massdual",
        description="Exact total masses, stringy counts, and duality verdicts.",
        epilog="GML_PRECISION sets significant digits for decimal evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p):
        p.add_argument("--report", choices=("text", "json"), default="text")

    def add_eval(p):
        p.add_argument(
            "--eval",
            nargs=2,
            metavar=("Q0", "R0"),
            help="also evaluate the masses at q = Q0 (rational), r = R0",
        )

    p = sub.add_parser("tame", help="total masses of a tame scenario from a group file")
    p.add_argument("--group", required=True, help="group+representation JSON, or -")
    p.add_argument("--q", required=True, type=int, help="residue field size")
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.add_argument("--check-involution", action="store_true")
    add_report(p)
    add_eval(p)
    p.set_defaults(func=_cmd_tame)

    p = sub.add_parser("profile", help="total masses of a ramification profile")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=BUILTIN_PROFILES)
    src.add_argument("--file", help="profile JSON, or -")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument(
        "--q-symbolic",
        action="store_true",
        help="emit masses symbolically in q (the default and only mode)",
    )
    add_report(p)
    add_eval(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("formula", help="closed-form mass and count families")
    p.add_argument("which", choices=("bhargava", "kedlaya", "hilbert"))
    p.add_argument("--n", required=True, type=int)
    add_report(p)
    add_eval(p)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("stringy", help="stringy point count of resolution data")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="resolution JSON, or -")
    src.add_argument("--builtin", choices=("a1_cone",))
    p.add_argument("--d", type=int, help="dimension for the duality checks")
    p.add_argument("--check-poincare", action="store_true")
    p.add_argument("--check-gm", action="store_true")
    add_report(p)
    p.set_defaults(func=_cmd_stringy)

    p = sub.add_parser("duality", help="strong/weak duality verdicts for a mass pair")
    p.add_argument("--mv", required=True, help="mass_v JSON file, or -")
    p.add_argument("--mw", required=True, help="mass_w JSON file, or -")
    p.add_argument("--d", required=True, type=int)
    add_report(p)
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("verify", help="run the bundled acceptance fixtures")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    add_report(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out, verdicts = args.func(args)
        if getattr(args, "eval", None):
            _eval_report(out, args.eval)
        if out is not None:
            _emit(out, args.report)
        return 0 if all(verdicts) else 1
    except _Divergent as exc:
        _emit({"divergent": True, "reason": str(exc)}, args.report)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {_text(exc)}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:  # an input too large to compute, like GroupTooLarge
        print(f"error: input too large to compute: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
