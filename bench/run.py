#!/usr/bin/env python3
"""Benchmark for selfsync: one workload, one process, drift-corrected times.

Usage (from the repository root)::

    python3 bench/run.py --workload mc-study --seed 0 --seconds 35 --trace 0

Workloads: ``mc-study``, ``large-network``, ``cli-session`` (see
``workloads.py`` and the README).  The run builds its inputs from
``--seed``, then issues one operation at a time in a closed loop for about
``--seconds`` seconds, always completing whole operations.  Every timed
program call sits between reference slices (``reference.py``); its time is
rescaled to the slices' fixed nominal speed, which cancels most of this
guest's second-to-second speed drift.  Every operation's outputs are
checked against independent computations (``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``op_ms``, ``peak_rss_mb``); with
``--trace 1`` every other operation runs with spans around each layer's
calls (``spans.py``) and the metrics are the per-layer ones.  Details,
raw times and spans go to ``bench/out/``.
"""
import os
import sys
import time

T0 = time.perf_counter()

# One BLAS/OpenMP thread, and fixed glibc malloc thresholds.  By default
# glibc raises its mmap threshold as large blocks are freed, so whether a
# ~30 MB block lands on the heap depended on the seed and peak RSS came out
# bimodal (209 or 240 MB on cli-session).  Fixed at 4 MB (mmap) and 32 MB
# (trim), peak RSS repeats within 2% and per-step temporaries below 4 MB
# still reuse heap memory as they do by default.  glibc reads these at
# start-up, so the process re-executes itself once with them set.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "4194304",
    "MALLOC_TRIM_THRESHOLD_": "33554432",
}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 4
COLD_START_RUNS = 3
WORKLOAD_NAMES = ("mc-study", "large-network", "cli-session")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    p.add_argument("--fingerprint", action="store_true",
                   help="untimed: run the operations the fingerprint covers, check them, "
                        "print the fingerprint and exit")
    return p.parse_args(argv)


def _setup(args):
    """Import the program and build the workload's inputs; returns (workload, seconds)."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, OUT / f"{args.workload}-{args.seed}")
    return wl, time.perf_counter() - T0


def _setup_probes(args) -> "list[float]":
    """Set-up time of fresh interpreters, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _cold_start_ms(checks) -> "list[float]":
    """``python -m selfsync analyze`` on a 3-node graph in a fresh interpreter."""
    from workloads import ZERO_RATE_GRAPH

    graph = OUT / "cold-start-graph.json"
    graph.write_text(json.dumps(ZERO_RATE_GRAPH))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(COLD_START_RUNS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "selfsync", "analyze", "--graph", str(graph)],
                              capture_output=True, text=True, timeout=120, env=env)
        times.append((time.perf_counter() - start) * 1e3)
        if done.returncode != 0 or json.loads(done.stdout)["class"] != "SC":
            raise checks.CheckFailure(f"cold-start analyze exited {done.returncode}: {done.stderr}")
    return times


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _layer_metrics(tracer, factors: "list[float]") -> dict:
    """Per-layer figures from the spans, each time rescaled by its step's factor."""
    own = tracer.self_ms()
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)

    def ms(span):
        return span.ms * factors[span.step]

    nets = [s for s in by_name["netgen.ensure_connectivity"] if "attempts" in s.attrs]
    classify = by_name["digraph.classify"]
    sims = by_name["dynamics.simulate"]
    csvs = by_name["dynamics.write_trajectory_csv"]
    debias = by_name["consensus.debias_two_step"]
    steps = sum(s.attrs["steps"] for s in sims)

    def per_step(value):
        return sum(value(s) * s.attrs["steps"] for s in sims) / steps if steps else 0.0

    def held_mb(s):
        n, h, m = s.attrs["n"], s.attrs["steps"], s.attrs["m_max"]
        return ((m + h) * n + 2 * h * n + h) * 8 / 1e6

    return {
        "netgen.network_ms": (_mean(ms(s) for s in nets), "ms"),
        "netgen.attempts": (_mean(s.attrs["attempts"] for s in nets), "count"),
        "netgen.edges": (_mean(s.attrs["edges"] for s in nets), "count"),
        "digraph.classify_ms": (_mean(ms(s) for s in classify if not tracer.under(s, "bench.ring")), "ms"),
        "digraph.ring_classify_ms": (_mean(ms(s) for s in classify if tracer.under(s, "bench.ring")), "ms"),
        "digraph.load_graph_ms": (_mean(ms(s) for s in by_name["digraph.load_graph"]), "ms"),
        "dynamics.step_us": (sum(ms(s) for s in sims) * 1e3 / steps if steps else 0.0, "us"),
        "dynamics.step_n": (per_step(lambda s: s.attrs["n"]), "count"),
        "dynamics.step_edges": (per_step(lambda s: s.attrs["edges"]), "count"),
        "dynamics.step_m_max": (per_step(lambda s: s.attrs["m_max"]), "count"),
        "dynamics.step_mb_computed": (
            per_step(lambda s: (17 * s.attrs["edges"] + 10 * s.attrs["n"]) * 8 / 1e6), "MB"),
        "dynamics.trajectory_mb": (max((held_mb(s) for s in sims), default=0.0), "MB"),
        "dynamics.detect_ms": (_mean(ms(s) for s in by_name["dynamics.detect_consensus"]), "ms"),
        "dynamics.csv_ms": (_mean(ms(s) for s in csvs), "ms"),
        "dynamics.csv_mb": (_mean(s.attrs["bytes"] / 1e6 for s in csvs), "MB"),
        "consensus.predict_ms": (_mean(ms(s) for s in by_name["consensus.predict"]), "ms"),
        "consensus.debias_analytic_ms": (
            _mean(ms(s) for s in debias if s.attrs["mode"] == "ANALYTIC"), "ms"),
        "consensus.debias_simulated_ms": (
            _mean(ms(s) for s in debias if s.attrs["mode"] == "SIMULATED"), "ms"),
        "experiments.study_self_ms": (
            _mean(own[s.id] * factors[s.step] for s in by_name["experiments.run_estimation_study"]), "ms"),
        "experiments.topology_study_ms": (
            _mean(ms(s) for s in by_name["experiments.run_topology_study"]), "ms"),
        **{
            f"cli.{sub}_ms": (_mean(ms(s) for s in by_name[f"cli.{sub}"]), "ms")
            for sub in ("analyze", "predict", "simulate", "debias", "study")
        },
    }


def _fingerprint_only(wl, checks, tracer) -> int:
    """Run and check the operations the fingerprint covers, with no timing."""
    for index in range(wl.fingerprint_ops):
        cfg = wl.config(index)
        out, calls = wl.steps(index, cfg, tracer)
        for call in calls:
            call()
        wl.check(index, cfg, out, checks)
    wl.finish(checks)
    print(json.dumps(wl.fingerprint()))
    return 0


def _loop(args, wl, ref, tracer, checks) -> dict:
    """Run whole operations for about ``args.seconds``; every call between two slices."""
    refs = [ref.run()]
    steps = []  # (operation index, raw ms), one per timed call
    traced_ops = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        cfg = wl.config(index)
        # Start every operation from the same collector state, with the
        # previous operation's outputs and the checks' garbage gone.
        gc.collect()
        out, calls = wl.steps(index, cfg, tracer)
        for call in calls:
            if traced:
                tracer.step = len(steps)
                tracer.install()
            start = time.perf_counter()
            try:
                call()
                raw_ms = (time.perf_counter() - start) * 1e3
            finally:
                if traced:
                    tracer.remove()
            refs.append(ref.run())
            steps.append((index, raw_ms))
        traced_ops.append(traced)
        attempted += wl.calls_per_op
        failed += wl.check(index, cfg, out, checks)
        del out, calls
        index += 1
        elapsed = time.perf_counter() - loop_start
        if index >= max(wl.min_ops, 2 if args.trace else 1) and elapsed + elapsed / index > args.seconds:
            break
    wl.finish(checks)
    return {"refs": refs, "steps": steps, "traced_ops": traced_ops,
            "attempted": attempted, "failed": failed}


def _rescale(ref, run: dict) -> "tuple[list[float], list[list]]":
    """Per-step factors and per-operation [raw ms, rescaled ms, traced].

    Step j ran between slices j and j + 1.  It is rescaled by the median of
    the four slices around it (two before, two after): near enough in time
    to follow the drift, and one slice disturbed by what ran just before it
    barely moves the median.
    """
    refs = run["refs"]
    factors = [ref.nominal_ms / statistics.median(refs[max(0, j - 1) : j + 3])
               for j in range(len(run["steps"]))]
    ops = [[0.0, 0.0, traced] for traced in run["traced_ops"]]
    for (index, raw_ms), factor in zip(run["steps"], factors):
        ops[index][0] += raw_ms
        ops[index][1] += raw_ms * factor
    return factors, ops


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "selfsync" / "__init__.py").is_file():
        print(f"error: no selfsync package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    wl, own_setup_s = _setup(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    import checks
    import reference
    import spans

    tracer = spans.Tracer()
    if args.fingerprint:
        return _fingerprint_only(wl, checks, tracer)

    ref = reference.Reference(args.workload)
    try:
        run = _loop(args, wl, ref, tracer, checks)
        cold = _cold_start_ms(checks) if args.trace else []
    except checks.CheckFailure:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    factors, ops = _rescale(ref, run)
    median_factor = statistics.median(factors)
    plain = [scaled for _, scaled, traced in ops if not traced]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "op_raw_ms": [raw for raw, _, _ in ops],
        "op_rescaled_ms": [scaled for _, scaled, _ in ops],
        "op_traced": [traced for *_, traced in ops],
        "step_raw_ms": [raw for _, raw in run["steps"]],
        "ref_ms": run["refs"],
        "fingerprint": wl.fingerprint(),
    }
    if args.trace:
        traced_ms = [scaled for _, scaled, traced in ops if traced]
        layers = _layer_metrics(tracer, factors)
        layers["cli.cold_start_ms"] = (statistics.median(cold) * median_factor, "ms")
        layers["bench.ref_ms"] = (statistics.median(run["refs"]), "ms")
        layers["bench.trace_overhead_ms"] = (
            statistics.median(traced_ms) - statistics.median(plain), "ms")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        setups = [own_setup_s] + _setup_probes(args)
        detail["setup_raw_s"] = setups
        detail["raw"] = {
            "setup_s": statistics.median(setups),
            "op_ms": statistics.median(raw for raw, _, _ in ops),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            "setup_s": {"value": statistics.median(setups) * median_factor, "unit": "s"},
            "op_ms": {"value": statistics.median(plain), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("raw " + json.dumps(detail["raw"]))
    detail["metrics"] = metrics
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    print("fingerprint " + json.dumps(detail["fingerprint"]))
    print(json.dumps({"correct": True, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
