"""One workload run in a fresh interpreter; started by run.py.

    worker.py --workload W --seed S --seconds T --trace 0|1 --workdir DIR [--probe]
    worker.py --workload W --record      (rewrite W's digests for DEFAULT_SEED)

The worker imports massdual, builds the workload's inputs and prints
"ready".  With --probe it stops there: run.py times that span as setup.
Otherwise it runs whole passes over the item list, one item at a time,
while one more pass fits in T seconds (always at least one pass; with
--trace 1 at least one untraced and one traced, alternating).
Every pass starts with massdual's caches emptied.  Outputs are checked
after the passes, outside every timed region, and the last stdout line is
a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calibration
import common
from tracing import Tracer, self_time_by_name

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
DEFAULT_SEED = 1


def load_workload(name: str, seed: int, workdir: str):
    if name == "tame_groups":
        from wl_tame import TameGroups as cls
    elif name == "exact_algebra":
        from wl_algebra import ExactAlgebra as cls
    elif name == "cli_requests":
        from wl_cli import CliRequests as cls
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return cls(seed, workdir)


def run_pass(wl, tr: Tracer):
    """One pass over the items: (item seconds, scale factor, canonical
    outputs, errors).  Item seconds are at the reference speed
    (calibration.py); the pass's scale factor, from all its calibration
    chunks, scales layer times.

    Only the canonical JSON of each output outlives its item, so memory in
    use does not grow with the number of passes."""
    common.clear_caches()
    tr.reset()
    spans, docs, errors = [], {}, {}
    with calibration.Sampler(dict(os.environ) if wl.spawns else None) as sampler:
        for item in wl.items:
            t0 = time.perf_counter()
            try:
                out = tr.item(item.id, lambda: item.run(tr))
            except Exception:  # an item that raises counts as failed, the pass goes on
                spans.append((t0, time.perf_counter()))
                sampler.sample()
                errors[item.id] = traceback.format_exc(limit=3)
                continue
            spans.append((t0, time.perf_counter()))
            sampler.sample()
            try:
                if tr.enabled:
                    if hasattr(wl, "side"):
                        wl.side(tr, item, out)
                    cfs = wl.class_functions(out)
                    tr.call("qsym.json", common.roundtrip_json, cfs)
                    for cf in cfs:
                        tr.maximum("qsym.max_span", cf.degree_span())
                docs[item.id] = wl.canon(item, out)
            except Exception:
                errors[item.id] = traceback.format_exc(limit=3)
            del out
    return [sampler.scaled(a, b) for a, b in spans], sampler.factor(), docs, errors


def layer_values(tr: Tracer, factor: float) -> dict:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json,
    with times scaled by the pass's factor."""
    selfs = self_time_by_name(tr.spans)
    out = {f"{name}_s": t * factor for name, t in selfs.items() if name != "item"}
    out["qsym.calls"] = sum(1 for s in tr.spans if s.name.startswith("qsym."))
    for name, ms in _per_subcommand_ms(tr).items():
        out[name] = ms * factor
    out.update(tr.counts)
    out.update(tr.maxima)
    # cli spans are reported as a median per request, not a sum
    return {k: v for k, v in out.items() if not (k.startswith("cli.") and k.endswith("_s"))}


def write_spans(tr: Tracer, path: str) -> None:
    """The last traced pass's spans, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in tr.spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def _per_subcommand_ms(tr: Tracer) -> dict:
    by_sub: dict[str, list[float]] = {}
    for s in tr.spans:
        if s.name.startswith("cli."):
            by_sub.setdefault(s.name, []).append((s.end_ns - s.start_ns) / 1e6)
    return {f"{name}_ms": statistics.median(v) for name, v in by_sub.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.record:
        args.seed = DEFAULT_SEED

    import massdual

    src = os.path.join(os.path.dirname(BENCH_DIR), "src")
    if not os.path.abspath(massdual.__file__).startswith(src + os.sep):
        raise SystemExit(f"massdual imported from {massdual.__file__}, not from {src}")
    workdir = args.workdir or os.path.join(os.path.dirname(BENCH_DIR), ".bench_run", "record")
    os.makedirs(workdir, exist_ok=True)
    wl = load_workload(args.workload, args.seed, workdir)
    print("ready", flush=True)
    if args.probe:
        return 0
    common.spawn(["-m", "massdual.cli", "formula", "bhargava", "--n", "2"])  # untimed warm-up

    plain, traced = Tracer(False), Tracer(True)
    passes = {False: [], True: []}  # per-item seconds of each untraced / traced pass
    factors = []  # each pass's scale factor, in the order run
    layers: list[dict] = []
    attempts: dict[str, list] = {item.id: [] for item in wl.items}  # digest or Failure
    first_docs: dict = {}
    min_passes = {False: 1, True: 1 if args.trace else 0}
    started = time.perf_counter()
    while True:
        tr = traced if args.trace and len(passes[False]) > len(passes[True]) else plain
        times, factor, docs, errors = run_pass(wl, tr)
        passes[tr.enabled].append(times)
        factors.append(factor)
        if tr.enabled:
            layers.append(layer_values(tr, factor))
        for item in wl.items:
            if item.id in errors:
                attempts[item.id].append(Failure(errors[item.id]))
            else:
                attempts[item.id].append(common.digest(docs[item.id]))
                first_docs.setdefault(item.id, docs[item.id])
        del docs
        done = len(passes[False]) + len(passes[True])
        elapsed = time.perf_counter() - started
        # start another pass only if a whole one still fits in the budget
        if all(len(passes[k]) >= n for k, n in min_passes.items()) and elapsed * (1 + 1 / done) > args.seconds:
            break
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_requests" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    probes = common.startup_probes() if args.trace else {}

    recorded = {}
    if not args.record and (args.seed == DEFAULT_SEED or wl.digests_any_seed):
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh).get(args.workload, {})
    failures: dict[str, str] = {}
    failed = 0
    for item in wl.items:
        runs = attempts[item.id]
        good = next((d for d in runs if not isinstance(d, Failure)), None)
        problem = None
        if good is not None:
            try:
                problem = wl.check(item, first_docs[item.id])
            except Exception:
                problem = traceback.format_exc(limit=3)
            if not problem and recorded and recorded.get(item.id) != good:
                problem = "digest differs from the one recorded for this seed"
        bad = [d for d in runs if isinstance(d, Failure) or d != good or problem]
        failed += len(bad)
        if bad:
            failures[item.id] = problem or next((str(d) for d in runs if isinstance(d, Failure)), "output differs between passes")

    if args.record:
        if failed:
            raise SystemExit(f"not recording digests: {failed} failed attempts: {failures}")
        store = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                store = json.load(fh)
        store["seed"] = DEFAULT_SEED
        store[args.workload] = {item.id: attempts[item.id][0] for item in wl.items}
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if args.trace:
        write_spans(traced, os.path.join(os.path.dirname(BENCH_DIR), ".bench_run", f"spans-{args.workload}-{args.seed}.jsonl"))

    names = set().union(*layers) if layers else set()
    result = {
        "item_times": passes[False],
        "traced_item_times": passes[True],
        "factors": factors,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(len(r) for r in attempts.values()),
        "failed": failed,
        "failures": {k: v[-600:] for k, v in sorted(failures.items())[:20]},
        "layers": {k: statistics.median(d.get(k, 0.0) for d in layers) for k in names},
        "probes": probes,
    }
    print(json.dumps(result))
    return 0


class Failure(str):
    """Error text standing in for an item's output digest."""


if __name__ == "__main__":
    sys.exit(main())
