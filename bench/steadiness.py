#!/usr/bin/env python3
"""Steadiness of the benchmark: repeated fresh runs, raw and rescaled spreads.

Usage (from the repository root)::

    python3 bench/steadiness.py --runs 10 --gap 20 --tag set1

Runs ``bench/run.py`` once per seed and workload, each in a fresh process,
one after another, cycling through the workloads and sleeping ``--gap``
seconds between runs so that the runs of one workload are spread over
time.  For every end-to-end metric it reports the median and quartiles of
the rescaled values (what the benchmark prints) beside the raw ones, and
the spread (Q3 - Q1) / median that the bounds in ``BENCHMARK.json`` are
set from.  The table is printed and written to
``bench/out/steadiness-<tag>.json``.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _summary(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload (default 10)")
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--gap", type=float, default=20.0, help="pause between runs, seconds")
    p.add_argument("--tag", default="latest")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    rows = {w: [] for w in workloads}
    failures = []
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{w} seed {seed}: FAILED\n{done.stderr}", flush=True)
                failures.append(f"{w} seed {seed}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            detail = json.loads((HERE / "out" / f"result-{w}-{seed}-trace0.json").read_text())
            rows[w].append({"seed": seed, "result": result, "raw": detail["raw"]})
            print(f"{w} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            time.sleep(args.gap)

    report = {}
    for w, runs in rows.items():
        report[w] = {"failed_share": sorted({r["result"]["failed"] / r["result"]["attempted"]
                                            for r in runs})}
        for metric in runs[0]["result"]["metrics"]:
            report[w][metric] = {
                "rescaled": _summary([r["result"]["metrics"][metric]["value"] for r in runs]),
                "raw": _summary([r["raw"][metric] for r in runs]),
            }
    print(f"\n{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'raw median':>11} {'raw spread':>10}")
    for w, metrics in report.items():
        for metric, s in metrics.items():
            if metric == "failed_share":
                continue
            r, raw = s["rescaled"], s["raw"]
            print(f"{w:14} {metric:12} {r['median']:10.4g} {r['q1']:10.4g} {r['q3']:10.4g} "
                  f"{r['spread']:7.3f} {raw['median']:11.4g} {raw['spread']:10.3f}")
        print(f"{w:14} failed share {metrics['failed_share']}")
    out = HERE / "out" / f"steadiness-{args.tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    report["failed_runs"] = failures
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwritten to {out.relative_to(ROOT)}")
    if failures:
        print("failed runs: " + ", ".join(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
