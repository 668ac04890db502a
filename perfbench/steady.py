#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median, quartiles and spread (IQR / median) against its bound.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--trace] [--out perfbench/BASELINE.json]

Run from the repository root. Every run's result line is appended to
.bench_build/steady.jsonl. With --out, the medians, quartiles, bounds,
host metadata and traced overheads are written as the baseline; its
"dropped_metrics" and "notes" keys are kept.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr}")
    meta = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), {})
    return meta, json.loads(lines[-1])


def summary(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "bound": bound}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    ap.add_argument("--out")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = a.workload or [w["name"] for w in bench["workloads"]]
    os.makedirs(".bench_build", exist_ok=True)
    log = open(".bench_build/steady.jsonl", "a")
    out = {"run_seconds": bench["run_seconds"], "runs_per_workload": a.runs, "workloads": {}}
    ok = True
    for w in names:
        results = []
        for i in range(a.runs):
            seed = a.first_seed + i
            meta, res = run(bench["command"], w, seed, bench["run_seconds"], 0)
            log.write(json.dumps({"workload": w, "seed": seed, "meta": meta, "result": res}) + "\n")
            log.flush()
            if not res["correct"] or res["failed"]:
                ok = False
            if set(res["metrics"]) != {m["name"] for m in bench["end_to_end"]}:
                sys.exit(f"{w}: metrics {sorted(res['metrics'])} are not the end_to_end set")
            results.append(res)
        entry = {"seeds": [a.first_seed, a.first_seed + a.runs - 1],
                 "attempted_median": statistics.median(r["attempted"] for r in results),
                 "failed_total": sum(r["failed"] for r in results), "metrics": {}}
        out["host"] = {k: meta[k] for k in ("cpu", "nproc", "gomaxprocs", "go", "commit")}
        print(f"{w}: {a.runs} runs, failed {entry['failed_total']}")
        for m in bench["end_to_end"]:
            s = summary([r["metrics"][m["name"]]["value"] for r in results], bounds[m["name"]])
            s["unit"] = m["unit"]
            entry["metrics"][m["name"]] = s
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (spread above a third of the bound)"
            print(f"  {m['name']:<12} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} bound {s['bound']}{flag}")
        if a.trace:
            _, res = run(bench["command"], w, a.first_seed, bench["run_seconds"], 1)
            t = res["metrics"]
            if set(t) != {m["name"] for m in bench["per_layer"]}:
                sys.exit(f"{w}: traced metrics {sorted(t)} are not the per_layer set")
            entry["tracing"] = {k: t[k]["value"] for k in
                                ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans")}
            print(f"  tracing overhead {t['trace.overhead_s']['value']:.6g} s"
                  f" (traced {t['trace.wall_s']['value']:.6g} s, untraced {t['trace.untraced_wall_s']['value']:.6g} s)")
        out["workloads"][w] = entry
    if a.out:
        if os.path.exists(a.out):
            old = json.load(open(a.out))
            for k in ("dropped_metrics", "notes"):
                if k in old:
                    out[k] = old[k]
        with open(a.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
