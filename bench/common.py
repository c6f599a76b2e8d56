"""Pieces shared by the workloads: items, canonical JSON and cache resets."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import calibration
from massdual import ClassFunction


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable  # run(tracer) -> output


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def class_functions_of(*objs) -> list[ClassFunction]:
    """Every ClassFunction inside mass pairs, reports, dicts, lists and tuples."""
    out = []
    stack = list(objs)
    while stack:
        x = stack.pop()
        if isinstance(x, ClassFunction):
            out.append(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif hasattr(x, "__dataclass_fields__"):
            stack.extend(getattr(x, f) for f in x.__dataclass_fields__)
    return out


def roundtrip_json(cfs) -> list[ClassFunction]:
    """to_json then from_json of each ClassFunction, as the CLI does."""
    return [ClassFunction.from_json(json.loads(json.dumps(cf.to_json()))) for cf in cfs]


def clear_caches() -> int:
    """Empty every functools cache in the loaded massdual modules, so each
    pass starts cold whatever earlier passes computed."""
    cleared = 0
    for name, mod in list(sys.modules.items()):
        if name == "massdual" or name.startswith("massdual."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
                    cleared += 1
    return cleared


REQUEST_TIMEOUT_S = 60
STARTUP_PROBES = 5


def spawn(argv, stdin=None) -> tuple[int, str]:
    """Run `python argv...` with the environment run.py pinned; (code, stdout)."""
    proc = subprocess.run(
        [sys.executable] + argv,
        input=stdin,
        capture_output=True,
        text=True,
        env=os.environ,
        timeout=REQUEST_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def startup_probes() -> dict:
    """cli.interp_ms: a bare interpreter start as measured -- the floor, and
    the calibration of every other cli time; cli.import_ms: what `import
    massdual` adds to it, at the reference speed.  Medians over fresh
    processes."""
    imports = []
    with calibration.Sampler(dict(os.environ)) as sampler:
        for _ in range(STARTUP_PROBES):
            t0 = time.perf_counter()
            spawn(["-c", "import massdual"])
            imports.append(sampler.scaled(t0, time.perf_counter()))
            sampler.sample()
    return {
        "cli.interp_ms": statistics.median(sampler.seconds) * 1000,
        "cli.import_ms": (statistics.median(imports) - calibration.REF_START_S) * 1000,
    }
