#!/usr/bin/env python3
"""End-to-end replay benchmark of the SlackVM simulator.

Builds perfbench/ (the product's sources plus the slackbench worker) into
.bench_build/perfbench, generates the workload's inputs from --seed, runs
the workload through the product's public entry points for --seconds, checks
every simulated result, and prints one JSON object as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (host time, throughput,
memory, set-up time, simulated PMs); with --trace 1 they are the per-layer
ones from the traced run (span self-times, counts, latencies), with traced
and untraced repetitions alternating so the tracing overhead is measured.

Usage:
    python3 perfbench/run.py --workload trace_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all                 # every workload, both modes
    python3 perfbench/run.py --regen-digests       # rewrite perfbench/digests/

Every repetition runs in a fresh worker process, so peak RSS is per
repetition. Output checks, any of which fails the run (correct=false, every
operation counted failed, exit status 1):
  * every repetition of the run, traced or not, yields the same canonical
    RunResult digest (doubles as hex-floats);
  * the counter identities of every RunResult hold (checked by the worker);
  * the replayed row count equals the generated row count;
  * the digest equals the stored one in perfbench/digests/ when --seed has
    one, and otherwise one extra repetition at the default seed does.
A worker that fails or times out fails the run the same way; --all then
carries on with the next workload.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "slackbench"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests"

WORKLOADS = ["trace_stream", "control_loop", "fig4_grid"]
DEFAULT_SEED = 42
HELD_OUT_SEED = 7
DEFAULT_SECONDS = 30
WORKER_TIMEOUT_S = 170

CPUS = sorted(os.sched_getaffinity(0))

# Minimum repetitions per run, even when one outlasts --seconds.
MIN_UNTRACED_REPS = 3
MIN_TRACED_REPS = 2  # and as many untraced ones, alternating


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def ensure_built():
    if not (ROOT / "src" / "sim" / "replay.hpp").is_file():
        raise SystemExit("perfbench: product sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def worker(*args):
    """Run the worker once; returns (result lines, summary dict)."""
    proc = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"slackbench {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    results = [line[2:] for line in lines if line.startswith("R ")]
    return results, json.loads(lines[-1])


def environment(workload, seed):
    _, env = worker("env")
    env["git_commit"] = "unavailable"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        if commit.returncode == 0:
            env["git_commit"] = commit.stdout.strip()
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            sha.update(str(path.relative_to(ROOT)).encode())
            sha.update(path.read_bytes())
    env["src_sha256"] = sha.hexdigest()
    env["workload"] = workload
    env["seed"] = seed
    return env


def setup(workload, seed, work, cpu=None):
    """Generate inputs + prepare; returns (the worker's own set-up time in s,
    rows a repetition replays)."""
    args = ["setup", "--workload", workload, "--seed", str(seed), "--work", str(work)]
    if cpu is not None:
        args += ["--cpu", str(cpu)]
    _, summary = worker(*args)
    return summary["setup_s"], summary["rows"]


def rep(workload, seed, work, traced, cpu=None):
    args = ["rep", "--workload", workload, "--seed", str(seed), "--work", str(work)]
    if traced:
        args.append("--traced")
    if cpu is not None:
        args += ["--cpu", str(cpu)]
    return worker(*args)


def digest_path(workload, seed):
    return DIGESTS / f"{workload}-seed{seed}.txt"


def load_digest(workload, seed):
    path = digest_path(workload, seed)
    if not path.is_file():
        return None
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def compare(expected, actual, what):
    """Returns a list of mismatch descriptions (empty when equal)."""
    if expected is None:
        return [f"{what}: no stored digest"]
    if expected == actual:
        return []
    problems = [f"{what}: {len(actual)} result lines, expected {len(expected)}"] \
        if len(expected) != len(actual) else []
    for want, got in zip(expected, actual):
        if want != got:
            problems.append(f"{what}: first differing result\n  want {want}\n  got  {got}")
            break
    return problems


def anchor_check(workload):
    """One untraced repetition at the default seed against its stored digest."""
    work = WORK / f"{workload}-anchor-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup(workload, DEFAULT_SEED, work)
        results, summary = rep(workload, DEFAULT_SEED, work, traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = compare(load_digest(workload, DEFAULT_SEED), results,
                       f"anchor seed {DEFAULT_SEED}")
    if summary["identity_violations"]:
        problems.append(f"anchor: {summary['identity_violations']} identity violations")
    return problems


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def run_workload(workload, seed, seconds, trace, units):
    """One benchmark run; returns the result object. A worker that fails or
    times out fails the run: every operation attempted, including the
    failing repetition's, counts as failed."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    generated_rows = 0
    untraced, traced = [], []
    try:
        setup_s, generated_rows = setup(workload, seed, work, CPUS[0])
        setup_times = [setup_s]
        digests = []
        walls = {False: [], True: []}  # set-up + repetition walls, for pacing
        deadline = time.monotonic() + seconds
        while True:
            want_traced = bool(trace) and len(traced) < len(untraced)
            if trace:
                enough = len(traced) >= MIN_TRACED_REPS and len(untraced) >= MIN_TRACED_REPS
            else:
                enough = len(untraced) >= MIN_UNTRACED_REPS
            estimate = statistics.median(walls[want_traced]) if walls[want_traced] else 0.0
            if enough and time.monotonic() + estimate > deadline:
                break
            # Other tenants slow each CPU in phases of several seconds, per
            # CPU; rotating the repetitions over the CPUs samples those
            # phases independently instead of riding one CPU's phase.
            cpu = CPUS[(len(untraced) + len(traced)) % len(CPUS)]
            start = time.monotonic()
            if not trace:
                # Set up again before every repetition, so that setup_s is
                # sampled over the whole run, as wall_s is, not in one burst.
                setup_s, rows = setup(workload, seed, work, cpu)
                setup_times.append(setup_s)
                if rows != generated_rows:
                    raise BenchError(f"set-up generated {generated_rows} rows, then {rows}")
            results, summary = rep(workload, seed, work, want_traced, cpu)
            walls[want_traced].append(time.monotonic() - start)
            (traced if want_traced else untraced).append(summary)
            digests.append(results)
    except (BenchError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: CHECK FAILED [{workload} seed {seed}]: {e}")
        attempted = sum(r["attempted"] for r in untraced + traced) + max(generated_rows, 1)
        return {"correct": False, "attempted": attempted, "failed": attempted,
                "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = statistics.median(setup_times)

    problems = []
    reps = untraced + traced
    if any(d != digests[0] for d in digests):
        problems.append("repetitions disagree: results changed between runs or under tracing")
    violations = sum(r["identity_violations"] for r in reps)
    if violations:
        problems.append(f"{violations} counter-identity violations")
    if generated_rows and any(r["rows"] != generated_rows for r in reps):
        problems.append(f"replayed rows {reps[0]['rows']} != generated rows {generated_rows}")
    if seed in (DEFAULT_SEED, HELD_OUT_SEED):
        problems += compare(load_digest(workload, seed), digests[0], f"seed {seed}")
    else:
        try:
            problems += anchor_check(workload)
        except (BenchError, subprocess.TimeoutExpired) as e:
            problems.append(f"anchor: {e}")

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not problems
    if not correct:
        failed = attempted
    first = reps[0]
    if trace:
        metrics = traced_metrics(traced, untraced, first, units)
    else:
        wall_s = median_of(untraced, "wall_s")
        metrics = {
            "wall_s": (wall_s, "s"),
            "vm_events_per_s": (2 * first["rows"] / wall_s, "1/s"),
            "peak_rss_mib": (median_of(untraced, "rss_kib") / 1024.0, "MiB"),
            "setup_s": (setup_s, "s"),
            "opened_pms": (first["opened_pms"], "count"),
        }
    for p in problems:
        log(f"perfbench: CHECK FAILED [{workload} seed {seed}]: {p}")
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "untraced_reps": len(untraced), "traced_reps": len(traced),
              "wall_s_each": [r["wall_s"] for r in untraced],
              "setup_s_each": setup_times, "failed_share": failed / attempted,
              "pm_saving_pct": first["pm_saving_pct"],
              "p90_inflation": first["p90_inflation"]}
    if trace:
        detail["notes"] = TRACE_NOTES
    log("perfbench: " + json.dumps(detail))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


TRACE_NOTES = [
    "fault timetable and migration flight events fire inside EventQueue::step "
    "and are charged to queue.self_s",
    "with faults on, arrivals are placed inside fault.deploy_or_defer, so place.calls is 0",
    "ingest.self_s is the pump: source pulls plus the loop handing rows to the queue",
    "shard.* come from trace_stream only: sim::replay_sharded over its file, "
    "traced at the demux seam; shard.self_s excludes the demux's source pulls",
]

def traced_metrics(traced, untraced, first, units):
    """Per-layer metrics: each the median over the traced repetitions."""
    values = {key: statistics.median(t["layers"][key] for t in traced)
              for key in traced[0]["layers"]}
    for key in ("shard.speedup", "shard.parallel_efficiency", "shard.barriers"):
        values.setdefault(key, 0.0)  # serial workloads: no shard layer
    overhead = median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1.0
    values["trace.overhead_pct"] = 100.0 * overhead
    values["failed_share"] = first["failed"] / first["attempted"]
    values["pm_saving_pct"] = first["pm_saving_pct"]
    values["p90_inflation"] = first["p90_inflation"]
    if values.keys() != units.keys():
        raise SystemExit("perfbench: the traced run's metrics differ from BENCHMARK.json's "
                         f"per_layer list: {sorted(values.keys() ^ units.keys())}")
    return {key: (value, units[key]) for key, value in values.items()}


def regen_digests():
    """Rewrite the stored digests: default and held-out seed, every workload.
    Each is taken from an untraced repetition and confirmed by a traced one."""
    DIGESTS.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            work = WORK / f"{workload}-regen-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                setup(workload, seed, work)
                results, summary = rep(workload, seed, work, traced=False)
                traced_results, _ = rep(workload, seed, work, traced=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if traced_results != results or summary["identity_violations"]:
                raise BenchError(f"{workload} seed {seed}: traced run disagrees or "
                                 "identities fail; not writing a digest")
            text = f"# {workload} seed {seed}: one line per result, doubles as hex-floats\n"
            digest_path(workload, seed).write_text(text + "\n".join(results) + "\n")
            log(f"perfbench: wrote {digest_path(workload, seed).relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--regen-digests", action="store_true",
                        help="rewrite the stored result digests and exit")
    args = parser.parse_args()
    if not (args.workload or args.all or args.regen_digests):
        parser.error("one of --workload, --all or --regen-digests is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ensure_built()
    if args.regen_digests:
        try:
            regen_digests()
        except (BenchError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {e}")
            return 1
        return 0
    runs = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.all \
        else [(args.workload, args.trace)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        try:
            env = environment(workload, args.seed)
        except (BenchError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {e}")
            env = {"workload": workload, "seed": args.seed, "error": str(e)}
        print(json.dumps({"environment": env}), flush=True)
        result = run_workload(workload, args.seed, args.seconds, trace, units)
        if args.all:
            print(json.dumps({"workload": workload, "trace": trace, **result}), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{workload}/" if args.all else ""
        for name, metric in result["metrics"].items():
            combined["metrics"][prefix + name] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
