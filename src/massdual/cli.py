"""Command line entry point.

Subcommands load scenario files and run the engines; each returns its report
and its verdicts (the booleans of the checks it ran) or raises _Divergent.  _run
applies --eval, renders the report (_emit) and picks the exit code: 0 when every
verdict holds, 1 when one fails, 2 on an input or usage error or an input too
large to compute, 3 when a mass diverges; run alone prints.
Each subcommand imports the engines it runs in its first lines, so a request
loads no other.

JSON documents may be wrapped as {"kind": ..., "payload": ..., "metadata":
...}; the payload is what the engines read.  Identical inputs produce
byte-identical JSON output (keys sorted, forms canonical).
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
import types

from .errors import InfiniteMass, MassdualError
from .qsym import ClassFunction, _frac, cf_dual, frac_str, is_infinite

BUILTIN_PROFILES = ("quad_char0_sigma", "quad_char2_sigma", "quad_char2_upsilon")


def _emit(obj, report: str) -> list:
    """The lines of a report: a list of lines as is, or a dict of ClassFunctions, exact numbers and JSON
    values, each in full (int-to-str's digit limit is lifted while they are built, as run serves in process)."""
    if isinstance(obj, list):
        return obj
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        # an --eval key (name, Q0, R0) becomes name(Q0,R0) here, as Q0 may pass the limit
        obj = {"%s(%s,%s)" % key if isinstance(key, tuple) else key: val for key, val in obj.items()}
        if report == "json":  # a ClassFunction as its JSON object, a Fraction or Decimal as its text
            return [json.dumps(obj, indent=2, sort_keys=True,
                               default=lambda v: v.to_json() if isinstance(v, ClassFunction) else str(v))]
        lines = []
        for key, val in obj.items():
            body = str(val)
            if "\n" in body:
                lines += [f"{key}:", *(f"  {line}" for line in body.split("\n"))]
            else:
                lines.append(f"{key} = {body}")
        return lines
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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
    """loader(document in text), read once over traced copies: an input error is prefixed by the
    option and the JSON path of the value the loader read last; a MassdualError (a group too large,
    say) names only the option."""
    trail = [""]
    try:
        return loader(_trace(json.loads(text), "", trail))
    except _INPUT_ERRORS as exc:
        where = "" if isinstance(exc, MassdualError) else trail[0].lstrip(".")
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


_TracedDict.__name__, _TracedList.__name__ = "dict", "list"  # as Python's error texts name the JSON types


def _payload(doc: dict, kind: str) -> dict:
    """Unwrap a scenario file; a bare payload is accepted as-is."""
    if isinstance(doc, dict) and "kind" in doc and "payload" in doc:
        if doc["kind"] != kind:
            raise ValueError(f"scenario file has kind {doc['kind']!r}, expected {kind!r}")
        return doc["payload"]
    return doc


class _Divergent(Exception):
    """A total mass diverges; the message is the reason that run() reports."""


def _cmd_tame(args) -> tuple:
    from .grouprep import group_from_json
    from .massengine import TameScenario, _involutive, _stable_weights, _tame_masses

    group, rep = _load("--group", _read(args.group), lambda d: group_from_json(_payload(d, "tame")))
    table = _stable_weights(TameScenario(group, rep, args.q))  # masses and verdict read one table
    out = _tame_masses(*table)._asdict()
    if args.check_involution:
        out["involution"] = _involutive(*table)
    return out, [out.get("involution", True)]


def _cmd_profile(args) -> tuple:
    from .massengine import builtin_profile, profile_from_json, profile_total_masses

    if args.file:
        profile = _load("--file", _read(args.file), lambda d: profile_from_json(_payload(d, "profile")))
    else:
        profile = builtin_profile(args.builtin, n=args.n, m=args.m)
    masses = profile_total_masses(profile)
    if not masses.is_finite:
        raise _Divergent("a geometric family has ratio exponent >= 0")
    return masses._asdict(), []


def _cmd_formula(args) -> tuple:
    from .massengine import bhargava_masses, hilbert_counts, kedlaya_masses

    if args.which == "hilbert":
        counts = hilbert_counts(args.n)
        return {"hilb_plane": counts.hilb_plane, "fiber": counts.fiber}, []
    masses = bhargava_masses(args.n) if args.which == "bhargava" else kedlaya_masses(args.n)
    return {**masses._asdict(), "strong": cf_dual(masses.mass_w) == masses.mass_v}, []


def _resolutions_from_json(doc) -> dict:
    from .stringy import resolution_from_json

    payload = _payload(doc, "stringy")
    if "total" in payload or "origin" in payload:
        return {role: resolution_from_json(payload[role]) for role in ("total", "origin") if role in payload}
    return {"total": resolution_from_json(payload)}


def _cmd_stringy(args) -> tuple:
    from .stringy import _divergent_divisor, builtin_resolution, gm_duality_check, poincare_check, stringy_count

    if args.builtin:
        fixtures = builtin_resolution(args.builtin)
    else:
        fixtures = _load("--file", _read(args.file), _resolutions_from_json)
    counts = {}
    for role, data in fixtures.items():
        counts[role] = stringy_count(data)
        if is_infinite(counts[role]):
            j = _divergent_divisor(data)
            c = frac_str(data.horizontal[j - 1])
            raise _Divergent(f"{role}: divisor {j} (c = {c}) is met by a nonzero stratum and has multiplicity <= -1")
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
    from .duality import duality_report
    from .massengine import MassPair, mass_from_json

    mv = _read(args.mv)  # stdin is read once, so `--mv - --mw -` sees one document
    texts = (mv, mv if args.mv == args.mw == "-" else _read(args.mw))
    # each file holds a bare mass or a MassPair document with the side we want
    masses = MassPair(*(
        _load(option, text, lambda d, f=field: mass_from_json(d[f] if f in d else d))
        for option, field, text in zip(("--mv", "--mw"), ("mass_v", "mass_w"), texts)
    ))
    try:
        report = duality_report(masses, args.d)
    except InfiniteMass as exc:
        raise _Divergent(str(exc))
    return report._asdict(), [report.weak]


def _cmd_verify(args) -> tuple:
    sys.modules.setdefault("massdual.cli", sys.modules[__name__])  # under -m, verify runs this module
    from .verify import run_suite

    results = run_suite(args.suite)
    verdicts = [r.passed for r in results]
    if args.report == "json":
        return {"suite": args.suite, "results": [r._asdict() for r in results]}, verdicts
    width = max(len(r.name) for r in results)
    return [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}" for r in results], verdicts


# The option table: each subcommand's function, help line and options.  An option is (flag, values,
# arity, required, default, help); values is int, a tuple of choices, the metavar of a free string or
# None for a switch (arity 0, sets True).  A flag without dashes is a positional.
_REPORT = ("--report", ("text", "json"), 1, False, "text", "print the report as text or as JSON")
_EVAL = ("--eval", "Q0 R0", 2, False, None, "also evaluate the masses at q = Q0 (rational), r = R0")
_ONE_OF = ("--builtin", "--file")  # profile and stringy read exactly one of the two
_COMMANDS = {
    "tame": (_cmd_tame, "total masses of a tame scenario from a group file", [
        ("--group", "FILE", 1, True, None, "group+representation JSON, or -"),
        ("--q", int, 1, True, None, "residue field size"),
        ("--threads", int, 1, False, 1, "accepted and ignored"),
        ("--check-involution", None, 0, False, False, "also check the duality involution"), _REPORT, _EVAL]),
    "profile": (_cmd_profile, "total masses of a ramification profile", [
        ("--builtin", BUILTIN_PROFILES, 1, False, None, "a built-in profile"),
        ("--file", "FILE", 1, False, None, "profile JSON, or -"),
        ("--n", int, 1, False, None, "size of the built-in profile"),
        ("--m", int, 1, False, None, "number of strata of a finite built-in family"),
        ("--q-symbolic", None, 0, False, False, "masses symbolic in q (the only mode)"), _REPORT, _EVAL]),
    "formula": (_cmd_formula, "closed-form mass and count families", [
        ("which", ("bhargava", "kedlaya", "hilbert"), 1, True, None, "the family"),
        ("--n", int, 1, True, None, "size of the family"), _REPORT, _EVAL]),
    "stringy": (_cmd_stringy, "stringy point count of resolution data", [
        ("--file", "FILE", 1, False, None, "resolution JSON, or -"),
        ("--builtin", ("a1_cone",), 1, False, None, "a built-in resolution"),
        ("--d", int, 1, False, None, "dimension for the duality checks"),
        ("--check-poincare", None, 0, False, False, "check stringy Poincare duality (needs --d)"),
        ("--check-gm", None, 0, False, False, "check the quotient duality (needs --d and origin data)"), _REPORT]),
    "duality": (_cmd_duality, "strong/weak duality verdicts for a mass pair", [
        ("--mv", "FILE", 1, True, None, "mass_v JSON file, or -"),
        ("--mw", "FILE", 1, True, None, "mass_w JSON file, or -"),
        ("--d", int, 1, True, None, "dimension"), _REPORT]),
    "verify": (_cmd_verify, "run the bundled acceptance fixtures", [
        ("--suite", ("all", "partitions", "stringy", "tame"), 1, False, "all", "the fixtures to run"), _REPORT]),
}
_TOP = ("command", tuple(_COMMANDS), 1, True, None, "the subcommand")
_ABOUT = "Exact total masses, stringy counts, and duality verdicts."


class _Usage(Exception):
    """An argv the table refuses: args are the subcommand ("" at the top level) and the message."""


def _help(command: str) -> str:
    """The help of a subcommand (of massdual for ""); its first line is the usage."""
    def form(option):  # as written on the command line: the flag, then the metavar
        flag, values, arity = option[:3]
        meta = values if isinstance(values, str) else flag[2:].upper() if values is int else "{%s}" % ",".join(values or ())
        return " ".join([flag] * flag.startswith("-") + [meta] * bool(arity))

    about, options = _COMMANDS[command][1:] if command else (_ABOUT, [_TOP])
    pair = " | ".join(form(o) for o in options if o[0] in _ONE_OF)
    forms = [f"({pair})"] * bool(pair) + [form(o) if o[3] else f"[{form(o)}]" for o in options if o[0] not in _ONE_OF]
    rows = [(form(o), o[5]) for o in options] if command else [(c, spec[1]) for c, spec in _COMMANDS.items()]
    rows.append(("-h/--help", "show this help and exit"))
    width = max(len(f) for f, _ in rows)
    usage = " ".join([f"usage: massdual {command}".rstrip(), "[-h]", *forms, *["..."] * (not command)])
    body = "\n".join(f"  {f:<{width}}  {text}" for f, text in rows)
    return "\n\n".join([usage, about, body, "GML_PRECISION sets significant digits for decimal evaluation."])


def _parse(argv: list, command="", extras=()) -> tuple:
    """(subcommand, namespace) of argv, read from the table by the rules of the standard library's parser,
    which this replaced; the namespace is None when argv asks for help.  The top level ("") reads up to
    the subcommand, whose parse reads the rest."""
    options = {o[0]: o for o in (_COMMANDS[command][2] if command else [_TOP])}
    flags = ["-h", "--help", *(flag for flag in options if flag.startswith("-"))]
    stop = argv.index("--") if "--" in argv else len(argv)  # past the first "--" every token is a value
    marks = []  # per token: None for a value, "--" for the first "--", else (flag, value after "=" or None)
    for j, token in enumerate(argv):  # a flag's unique prefix names it; an unknown option is ("", None)
        name, eq, explicit = token.partition("=")
        matches = [flag for flag in flags if flag == name] or [flag for flag in flags if flag.startswith(name)]
        # a token that starts with "-" is a value only when it is "-", like -1 or -.5, or holds a space
        value = token[:1] != "-" or token == "-" or not matches and (re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token)
        if j >= stop or value:
            marks.append("--" if j == stop else None)
        elif len(matches) > 1:
            raise _Usage(command, f"ambiguous option: {token} could match {', '.join(matches)}")
        else:
            marks.append((matches[0], explicit if eq else None) if matches else ("", None))
    positional = [flag for flag in options if not flag.startswith("-")]
    seen, extras, i = {}, list(extras), 0
    while i < len(argv):
        mark, token = marks[i], argv[i]
        if mark in (None, "--"):  # the positional takes [--] VALUE [--]
            k = i + (mark == "--" and command != "")  # "massdual -- x" names the subcommand "--"
            take = positional and positional[0] not in seen and k < len(argv)
            mark, i = ((positional[0], argv[k]), k) if take else (("", None), i)
        (flag, explicit), i = mark, i + 1
        name, kind, arity = options.get(flag, ("-h/--help", None, 0))[:3]
        strings = argv[i : i + arity] if explicit is None else [explicit]
        if len(strings) != arity or (explicit is None and any(marks[i : i + arity])):
            wanted = f"expected {'one argument' if arity == 1 else f'{arity} arguments'}"
            raise _Usage(command, f"argument {name}: {wanted if arity else f'ignored explicit argument {explicit!r}'}")
        i += arity * (explicit is None)
        if flag in ("-h", "--help"):
            return command, None
        if not flag:
            extras.append(token)
            continue
        try:
            value = int(strings[0]) if kind is int else strings[0] if arity == 1 else strings or True
        except ValueError:
            raise _Usage(command, f"argument {flag}: invalid int value: {strings[0]!r}") from None
        if isinstance(kind, tuple) and value not in kind:
            raise _Usage(command, f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        if not command:
            return _parse(argv[i:], value, extras)
        seen[flag], i = value, i + (flag in positional and marks[i : i + 1] == ["--"])
        if set(_ONE_OF) <= seen.keys():
            raise _Usage(command, f"argument {flag}: not allowed with argument {_ONE_OF[flag == _ONE_OF[0]]}")
    missing = [flag for flag, option in options.items() if option[3] and flag not in seen]
    if missing:
        raise _Usage(command, f"the following arguments are required: {', '.join(missing)}")
    if set(_ONE_OF) <= options.keys() and not seen.keys() & set(_ONE_OF):
        raise _Usage(command, f"one of the arguments {' '.join(f for f in options if f in _ONE_OF)} is required")
    if extras:
        raise _Usage(command, f"unrecognized arguments: {' '.join(extras)}")
    values = {flag.lstrip("-").replace("-", "_"): seen.get(flag, option[4]) for flag, option in options.items()}
    return command, types.SimpleNamespace(command=command, **values)


def _run(argv: list) -> tuple:
    """(exit code, lines of the report) of argv; usage and error text go to stderr."""
    try:
        command, args = _parse(argv)
    except _Usage as exc:  # the usage line, then "massdual CMD: error: ..."
        command, message = exc.args
        prog = f"massdual {command}".rstrip()
        _put(sys.stderr, [_help(command).partition("\n")[0], f"{prog}: error: {message}"])
        return 2, []
    if args is None:
        return 0, [_help(command)]
    try:
        out, verdicts = _COMMANDS[command][0](args)
        if getattr(args, "eval", None):  # Q0 and R0 are read under the digit limit, which _emit lifts
            q0, r0 = _frac(args.eval[0]), int(args.eval[1])
            out.update({(key, q0, r0): cf.eval(q0, r0) for key, cf in out.items() if isinstance(cf, ClassFunction)})
        return 0 if all(verdicts) else 1, _emit(out, args.report)
    except _Divergent as exc:
        return 3, _emit({"divergent": True, "reason": str(exc)}, args.report)
    except _INPUT_ERRORS as exc:
        _put(sys.stderr, [f"error: {_text(exc)}"])
        return 2, []
    except (MemoryError, OverflowError) as exc:  # an input too large to compute, like GroupTooLarge
        _put(sys.stderr, [f"error: input too large to compute: {str(exc) or 'out of memory'}"])
        return 2, []


def _put(stream, lines: list):
    """Print lines to stream and flush it; an OSError is returned, and what is still buffered goes to
    devnull, so the flush at exit cannot fail again (CPython would exit 120)."""
    try:
        print(*lines, sep="\n", file=stream, flush=True)
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc


def run(argv=None) -> int:
    """Print the report of argv, if any, and return its exit code; a reader that closes the pipe early
    is not an error, an unwritable stdout exits 2 and an unwritable stderr keeps the exit code."""
    code, lines = _run(sys.argv[1:] if argv is None else list(argv))
    exc = _put(sys.stdout, lines) if lines else None
    if exc and not isinstance(exc, BrokenPipeError):
        _put(sys.stderr, [f"error: cannot write the report: {exc.strerror}"])
        return 2
    return code


def main() -> None:
    code = run(sys.argv[1:])
    gc.freeze()  # the collections at exit then walk none of the objects the request made
    sys.exit(code)


if __name__ == "__main__":
    main()
