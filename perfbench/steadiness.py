#!/usr/bin/env python3
"""Steadiness evidence for the replay benchmark.

Runs perfbench/run.py --runs times per workload, each with another seed,
and reports, per end-to-end metric, the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1) /
median, next to the metric's bound from BENCHMARK.json. A spread at or
above a third of the bound is flagged. Seeds run from 1 to --runs.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/results/steadiness.json
    python3 perfbench/steadiness.py --runs 5 --workloads fig4_grid
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the evidence as JSON here")
    args = parser.parse_args()

    report = {"run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    flagged = []
    for workload in args.workloads.split(","):
        values = {}
        runs = []
        for i in range(args.runs):
            seed = FIRST_SEED + i
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
            result = json.loads(lines[-1])
            env = next(json.loads(l)["environment"] for l in lines if l.startswith('{"environment"'))
            detail = next(json.loads(l[len("perfbench: "):]) for l in proc.stderr.splitlines()
                          if l.startswith('perfbench: {"workload"'))
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "wall_s_each": detail["wall_s_each"],
                         "setup_s_each": detail["setup_s_each"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name]}
            mark = ""
            if spread >= bounds[name] / 3:
                mark = "  <-- spread >= bound/3"
                flagged.append(f"{workload}/{name}")
            print(f"  {name:16s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]}{mark}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        report["environment"] = {k: env[k] for k in ("compiler", "build_type", "nproc",
                                                     "git_commit", "src_sha256")}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if flagged:
        print("not steady: " + ", ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
