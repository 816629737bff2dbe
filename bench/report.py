"""Run every workload over several seeds and summarise.

    python3 bench/report.py [--seeds 1,2,3] [--seconds 30] [--workloads a,b]
                            [--traced] [--out FILE] [--write-digests]

For each workload (by default those of BENCHMARK.json) and seed it runs
``run.py`` untraced and prints, for each end-to-end metric and each numeric
figure of the detail line, the median, the quartiles and their spread as a
share of the median. With ``--traced`` it
adds one traced run per workload at the first seed and reports the tracing
overhead as traced over untraced throughput. ``--out`` writes all results as
JSON; ``--write-digests`` stores each run's warm-up transcript digest in
digests.json, which later runs check against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=float, default=30.0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [w["name"] for w in json.load(fh)["workloads"]]
    ap.add_argument("--workloads", default=",".join(listed))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            detail, result = run(workload, seed, args.seconds, 0)
            runs.append({"detail": detail, "result": result})
            status = "ok" if result["correct"] else f"FAILED {detail['problems']}"
            print(f"{workload} seed {seed}: {status}", file=sys.stderr)
        entry = {"runs": runs, "env": runs[0]["detail"]["env"]}
        # The end-to-end metrics, then the numeric figures of the detail line.
        figures = [("result", "metrics"), ("detail", "extra")]
        entry["summary"] = {
            name: {"unit": m["unit"], **spread([r[line][key][name]["value"] for r in runs])}
            for line, key in figures for name, m in runs[0][line][key].items()
        }
        if args.traced:
            detail, result = run(workload, seeds[0], args.seconds, 1)
            traced = result["metrics"]["bench.traced_ops_per_s"]["value"]
            untraced = entry["summary"]["ops_per_s"]["median"]
            entry["traced"] = {"detail": detail, "result": result,
                               "overhead": {"traced_ops_per_s": traced,
                                            "untraced_ops_per_s": untraced,
                                            "traced_over_untraced": traced / untraced}}
        report["workloads"][workload] = entry

        print(f"\n{workload}  ({len(seeds)} seeds, {args.seconds:g} s each)")
        for name, s in entry["summary"].items():
            print(f"  {name:24s} {s['median']:12.4f} {s['unit']:8s} "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  spread {s['iqr_share']:.1%}")
        if args.traced:
            o = entry["traced"]["overhead"]
            print(f"  tracing overhead: {o['traced_ops_per_s']:.3f} traced vs "
                  f"{o['untraced_ops_per_s']:.3f} untraced ops/s "
                  f"(x{o['traced_over_untraced']:.3f})")
            for name, m in entry["traced"]["result"]["metrics"].items():
                print(f"    {name:42s} {m['value']:14.4f} {m['unit']}")

    if args.write_digests:
        path = os.path.join(HERE, "digests.json")
        with open(path) as fh:
            stored = json.load(fh)
        for workload, entry in report["workloads"].items():
            for r in entry["runs"]:
                if r["result"]["correct"]:
                    stored.setdefault(workload, {})[str(r["detail"]["seed"])] = r["detail"]["digest"]
        with open(path, "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    ok = all(r["result"]["correct"] for e in report["workloads"].values() for r in e["runs"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
