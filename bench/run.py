"""The massdual benchmark: one workload run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root.  Workloads (see BENCHMARK.json):
tame_groups, exact_algebra, cli_requests.  Every child process gets a pinned
environment: PYTHONPATH is the checkout's src, bytecode is cached in a
directory this run owns (never in src/), PYTHONHASHSEED is fixed and
GML_PRECISION is unset.

Every time is reported in seconds at a reference machine speed: measured
seconds times the ratio of a fixed calibration chunk's reference time to
its time sampled while the work ran (calibration.py), which cancels the
swings in speed of a shared VM.

setup_s is the median of several fresh interpreters that import massdual
and build the workload's inputs.  The workload itself then runs in one more
fresh interpreter (bench/worker.py), whose numbers become
  wall_s       time to finish the fixed item list: the sum over items of
               each item's median time across the run's passes,
  p50_ms/p90_ms  median and 90th percentile of those per-item times,
  peak_rss_mb  peak resident memory (for cli_requests: of the largest child).
With --trace 1 the same run also makes traced passes and reports the
per-layer self times, counts, startup probes and the tracing overhead.
Failed items (raised, unexpected exit code, or an exact check that does not
hold) are counted in "failed"; fail_ratio = failed / attempted.

The last stdout line is the JSON result; lines before it give the run's
context and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calibration
from tracing import percentile, samples_beyond

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_PROBES = 11
DEADLINE_S = 170  # the whole run, probes included, ends before this
END_TO_END = ("setup_s", "wall_s", "p50_ms", "p90_ms", "peak_rss_mb")


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 1


def source_digest() -> str:
    """SHA-256 over src/ (paths and bytes): the code under test, git or not."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU.  The vCPUs
    of a shared VM can differ in speed by half at the same moment, so a
    calibration chunk says how fast the measured work ran only if both ran
    on the same CPU.  The measured work never runs beside a chunk, and a
    request's client waits while its child runs, so nothing competes."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env(run_dir: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("GML_PRECISION", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(run_dir, "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, run_dir, env, probe: bool) -> subprocess.Popen:
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", os.path.join(run_dir, "inputs"),
    ]
    if probe:
        cmd.append("--probe")
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True
    )


def stop(proc: subprocess.Popen) -> None:
    """Kill the worker and everything it started, then reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def wait_ready(proc: subprocess.Popen, deadline: float) -> None:
    """Block until the worker prints 'ready' (right after its set-up)."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not get ready (got {line.strip()[:200]!r})")


def measure_setup(args, run_dir, env, deadline) -> float:
    """One untimed start that fills the bytecode cache, then timed starts:
    the median of their times at the reference speed."""
    times = []
    with calibration.Sampler(env) as sampler:
        for i in range(SETUP_PROBES + 1):
            t0 = time.perf_counter()
            proc = start_worker(args, run_dir, env, probe=True)
            try:
                wait_ready(proc, deadline)
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            finally:
                stop(proc)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe exited with {proc.returncode}")
            if i:
                times.append(sampler.scaled(t0, time.perf_counter()))
            sampler.sample()
    return statistics.median(times)


def run_worker(args, run_dir, env, deadline) -> dict:
    proc = start_worker(args, run_dir, env, probe=False)
    try:
        wait_ready(proc, deadline)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload did not finish in time")
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def item_times(passes: list[list[float]]) -> list[float]:
    """Each item's median time over the run's passes."""
    return [statistics.median(times) for times in zip(*passes)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    cpu = pin_to_one_cpu()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "massdual", "__init__.py")):
        return fail(f"no massdual sources under {os.path.join(ROOT, 'src')}")
    with open(bench_json, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_start": os.getloadavg(),
        "parent_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }
    run_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(run_dir, "inputs"), exist_ok=True)
    env = child_env(run_dir)
    try:
        setup_s = measure_setup(args, run_dir, env, deadline)
        res = run_worker(args, run_dir, env, deadline)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    context["loadavg_end"] = os.getloadavg()

    per_item = item_times(res["item_times"])
    per_item_ms = [t * 1000 for t in per_item]
    e2e = {
        "setup_s": setup_s,
        "wall_s": sum(per_item),
        "p50_ms": percentile(per_item_ms, 50),
        "p90_ms": percentile(per_item_ms, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    fail_ratio = res["failed"] / res["attempted"]
    if args.trace:
        layers = dict(res["layers"])
        layers.update(res["probes"])
        layers["trace.overhead_s"] = sum(item_times(res["traced_item_times"])) - e2e["wall_s"]
        wanted = spec["per_layer"]
    else:
        layers = e2e
        wanted = spec["end_to_end"]
    unknown = set(layers) - {m["name"] for m in wanted}
    if unknown and args.trace:
        return fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}

    print(json.dumps({"context": context}))
    n = len(per_item)
    print(
        f"{args.workload} seed {args.seed}: {len(res['item_times'])} untraced + "
        f"{len(res['traced_item_times'])} traced passes of {n} items; "
        f"p90 over {n} per-item times has {samples_beyond(n, 90)} beyond it; "
        f"pass scale factors {' '.join(f'{f:.3f}' for f in res['factors'])}"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in END_TO_END:
        print(f"  {name:<12} {e2e[name]:.6g} {units.get(name, '')}")
    print(f"  {'fail_ratio':<12} {fail_ratio:.6g} 1  ({res['failed']} of {res['attempted']} attempts)")
    for item_id, why in res["failures"].items():
        print(f"  FAILED {item_id}: {why.strip().splitlines()[-1][:200]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
