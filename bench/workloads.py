"""The three benchmark workloads, driven through ``selfsync``'s public functions.

Each workload builds its inputs from the benchmark seed in ``setup`` and
``config``.  ``steps`` splits one operation into a few program calls; the
runner times each step on its own and runs a reference slice between
steps, so every timed call sits next to a reading of the machine's speed.
``check`` then tests the operation's outputs against the independent
computations of :mod:`checks`.  The program receives only the generated
inputs.

Functions are called through their modules (``netgen.ensure_connectivity``,
``digraph.classify``, ...) so that the traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import warnings
from pathlib import Path

import numpy as np

from selfsync import cli, consensus, digraph, dynamics, experiments, netgen

__all__ = ["WORKLOADS", "McStudy", "LargeNetwork", "CliSession"]


def _op_seed(seed: int, tag: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


def _edge_arrays(g: "digraph.Digraph") -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """dst, src, gain, delay arrays of a graph's edges."""
    m = len(g.edges)
    dst = np.fromiter((e.dst for e in g.edges), dtype=np.int64, count=m)
    src = np.fromiter((e.src for e in g.edges), dtype=np.int64, count=m)
    gain = np.fromiter((e.gain for e in g.edges), dtype=float, count=m)
    delay = np.fromiter((e.delay_s for e in g.edges), dtype=float, count=m)
    return dst, src, gain, delay


def _dense(n: int, dst: np.ndarray, src: np.ndarray, vals: np.ndarray) -> np.ndarray:
    mat = np.zeros((n, n))
    mat[dst, src] = vals
    return mat


class McStudy:
    """Batches of the acceptance-8 Monte Carlo estimation study.

    One operation is ``run_estimation_study`` on ``BATCH_RUNS`` runs of the
    default study (40 nodes, Rayleigh links, delays spanning 100 steps,
    horizon 3000, K = 1).  The acceptance-8 statistics are checked on the
    pooled runs of the first ``POOL_OPS`` batches.  Two of them are 3-sigma
    tests of true hypotheses, so a pool drawn from the benchmark seed fails
    them by chance on some seeds (seed 209 did);
    the pooled batches therefore take fixed seeds, the same in every run,
    and only the later batches draw theirs from the benchmark seed.
    """

    name = "mc-study"
    BATCH_RUNS = 2
    POOL_OPS = 16
    min_ops = POOL_OPS
    fingerprint_ops = POOL_OPS
    calls_per_op = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.base = experiments.EstimationConfig(runs=self.BATCH_RUNS)
        self.pooled: list[dict[str, np.ndarray]] = []

    def config(self, index: int) -> "experiments.EstimationConfig":
        seed = _op_seed(0, 0x6D63, index) if index < self.POOL_OPS else _op_seed(self.seed, 0x6D63, index)
        return dataclasses.replace(self.base, seed=seed)

    def steps(self, index: int, cfg, tracer):
        out = {}

        def study():
            out["summary"] = experiments.run_estimation_study(cfg)

        return out, [study]

    def check(self, index: int, cfg, out: dict, checks) -> int:
        finals = {k: getattr(out["summary"], f"finals_{k}") for k in "abcd"}
        checks.check_mc_batch(finals)
        if index < self.POOL_OPS:
            self.pooled.append(finals)
        return 0

    def finish(self, checks) -> None:
        if len(self.pooled) < self.POOL_OPS:
            raise checks.CheckFailure(f"only {len(self.pooled)} of {self.POOL_OPS} pooled batches ran")
        checks.check_mc_pooled(self._pool(), self.base.truth)

    def _pool(self) -> dict[str, np.ndarray]:
        return {k: np.concatenate([p[k] for p in self.pooled[: self.POOL_OPS]]) for k in "abcd"}

    def fingerprint(self) -> dict:
        pool = self._pool()
        return {f"final_mean_{k}": float(pool[k].mean()) for k in "abcd"}


class LargeNetwork:
    """Build and analyse one n=640 Rayleigh network (E ~ 400k) per operation.

    The operation draws a strongly connected network with
    ``ensure_connectivity``, runs ``classify``, a quantized ``predict`` and
    an ANALYTIC ``debias_two_step``, a short ``simulate`` at a coupling
    that keeps ``StepSizeWarning`` silent, and ``classify`` plus
    ``predict`` on a directed ring with random gains.
    """

    name = "large-network"
    N = 640
    HEAR_THRESHOLD = 0.1
    DELAY_SPAN_S = 0.05
    STEP_S = 1e-3
    COUPLING = 0.1
    SIM_STEPS = 100
    RING_N = 400
    min_ops = 4
    fingerprint_ops = 1
    calls_per_op = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.first: "dict | None" = None

    def config(self, index: int) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x6C6E, index]))
        radio = netgen.RadioConfig(
            n=self.N,
            hear_threshold=self.HEAR_THRESHOLD,
            fading=netgen.Fading.RAYLEIGH,
            delay_span_s=self.DELAY_SPAN_S,
            seed=_op_seed(self.seed, 0x6C6E, index),
        )
        params = dynamics.NodeParams(
            weights=rng.uniform(1.0, 2.0, self.N), stats=rng.normal(1.0, 1.0, self.N)
        )
        heard = rng.uniform(0.5, 2.0, self.RING_N)
        ring = digraph.Digraph(
            self.RING_N,
            tuple(digraph.Edge((i + 1) % self.RING_N, i, float(heard[(i + 1) % self.RING_N]), 0.01)
                  for i in range(self.RING_N)),
        )
        ring_params = dynamics.NodeParams(
            weights=rng.uniform(1.0, 2.0, self.RING_N), stats=rng.normal(0.0, 1.0, self.RING_N)
        )
        return {"radio": radio, "params": params, "ring": ring, "heard": heard,
                "ring_params": ring_params}

    def steps(self, index: int, cfg: dict, tracer):
        params, ring = cfg["params"], cfg["ring"]
        sim_cfg = dynamics.SimConfig(self.COUPLING, self.STEP_S, self.SIM_STEPS)
        out = {}

        def generate():
            out["graph"] = netgen.ensure_connectivity(cfg["radio"], "SC").graph

        def analyse():
            out["report"] = digraph.classify(out["graph"])

        def rate():
            out["pred"] = consensus.predict(out["graph"], params, self.COUPLING,
                                            quantize_step=self.STEP_S)

        def debias():
            out["debias"] = consensus.debias_two_step(out["graph"], params, sim_cfg,
                                                      consensus.DebiasMode.ANALYTIC)

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", dynamics.StepSizeWarning)
                out["traj"] = dynamics.simulate(out["graph"], params, sim_cfg)
            out["warnings"] = [str(w.message) for w in caught]

        def ring_analyse():
            with tracer.span("bench.ring"):
                out["ring_report"] = digraph.classify(ring)

        def ring_rate():
            with tracer.span("bench.ring"):
                out["ring_pred"] = consensus.predict(ring, cfg["ring_params"], self.COUPLING,
                                                     quantize_step=self.STEP_S)

        return out, [generate, analyse, rate, debias, run, ring_analyse, ring_rate]

    def check(self, index: int, cfg: dict, out: dict, checks) -> int:
        params, g = cfg["params"], out["graph"]
        dst, src, gain_e, delay_e = _edge_arrays(g)
        checks.check_class("network", out["report"].kind.value, g.n, dst, src)
        gain = _dense(g.n, dst, src, gain_e)
        lags = _dense(g.n, dst, src, np.rint(delay_e / self.STEP_S)).astype(np.int64)
        gamma = checks.influence(gain)
        want = checks.closed_form_omega(gamma, gain, lags * self.STEP_S, params.weights,
                                        params.stats, self.COUPLING)
        checks.check_close("network omega*", out["pred"].global_omega, want, 1e-9)
        checks.check_debias("network", out["debias"].estimate, gamma, params.weights,
                            params.stats, 1e-9)
        if out["warnings"]:
            raise checks.CheckFailure(f"simulate warned: {out['warnings'][0]}")
        traj = out["traj"]
        checks.check_euler(traj.states, traj.derivs, self.STEP_S)
        m_max = int(lags.max())
        checks.check_rhs(traj.states, traj.derivs, [0, m_max, self.SIM_STEPS - 1], gain, lags,
                         params.weights, params.stats, self.COUPLING)

        ring, heard, rp = cfg["ring"], cfg["heard"], cfg["ring_params"]
        rdst, rsrc, rgain, rdelay = _edge_arrays(ring)
        checks.check_class("ring", out["ring_report"].kind.value, ring.n, rdst, rsrc)
        checks.check_ring_influence(out["ring_report"].influence, heard)
        rgamma = (1.0 / heard) / np.linalg.norm(1.0 / heard)
        rgain_m = _dense(ring.n, rdst, rsrc, rgain)
        rdelay_m = _dense(ring.n, rdst, rsrc, np.rint(rdelay / self.STEP_S) * self.STEP_S)
        want = checks.closed_form_omega(rgamma, rgain_m, rdelay_m, rp.weights, rp.stats,
                                        self.COUPLING)
        checks.check_close("ring omega*", out["ring_pred"].global_omega, want, 1e-9)
        if self.first is None:
            self.first = {"omega": out["pred"].global_omega, "debias": out["debias"].estimate,
                          "ring_omega": out["ring_pred"].global_omega}
        return 0

    def finish(self, checks) -> None:
        pass

    def fingerprint(self) -> dict:
        return dict(self.first or {})


# The zero-rate case: a unit-gain 3-ring whose closed-form rate is 0.
ZERO_RATE_GRAPH = {
    "n": 3,
    "edges": [{"dst": (i + 1) % 3, "src": i, "gain": 1.0, "delay_s": 0.02} for i in range(3)],
}
ZERO_RATE_PARAMS = {"c": [1.0, 1.0, 1.0], "u": [1.0, -1.0, 0.0]}


class CliSession:
    """One cycle of in-process ``selfsync.cli.main`` calls on files from setup.

    The cycle runs ``analyze``, ``predict`` and ``debias --mode simulated``
    on a 40-node graph, ``simulate --out`` for ``SIM_HORIZON`` steps,
    ``study --preset chain`` and ``--preset forest``, and the simulated
    ``debias`` of the zero-rate 3-ring.  That last call exits 3 today
    (``detect_consensus`` scales its tolerances by a rate that is itself 0)
    and is counted as attempted and failed.
    """

    name = "cli-session"
    N = 40
    COUPLING = 30.0
    STEP_S = 1e-3
    SIM_HORIZON = 12_000
    STUDY_LAG_STEPS = 50
    min_ops = 3
    fingerprint_ops = 1
    calls_per_op = 7

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x636C]))
        pairs = {((i + 1) % self.N, i) for i in range(self.N)}
        for i in range(self.N):
            for j in rng.choice(self.N, 8, replace=False):
                if int(j) != i:
                    pairs.add((i, int(j)))
        self.edges = sorted(pairs)
        self.gains = rng.uniform(0.05, 0.25, len(self.edges))
        self.delays = rng.uniform(0.0, 0.05, len(self.edges))
        self.weights = rng.uniform(1.0, 2.0, self.N)
        self.stats = rng.normal(0.0, 1.0, self.N)
        graph = {"n": self.N, "edges": [
            {"dst": d, "src": s, "gain": float(a), "delay_s": float(t)}
            for (d, s), a, t in zip(self.edges, self.gains, self.delays)
        ]}
        self.graph_path = workdir / "graph.json"
        self.params_path = workdir / "params.json"
        self.ring_path = workdir / "ring3.json"
        self.ring_params_path = workdir / "ring3_params.json"
        self.graph_path.write_text(json.dumps(graph))
        self.params_path.write_text(json.dumps({"c": self.weights.tolist(), "u": self.stats.tolist()}))
        self.ring_path.write_text(json.dumps(ZERO_RATE_GRAPH))
        self.ring_params_path.write_text(json.dumps(ZERO_RATE_PARAMS))
        self.digest: "str | None" = None

    def config(self, index: int) -> "list[tuple[str, list[str]]]":
        out = self.dir / "cycle"
        g, p = str(self.graph_path), str(self.params_path)
        k = str(self.COUPLING)
        return [
            ("analyze", ["analyze", "--graph", g, "--out", f"{out}/report.json"]),
            ("predict", ["predict", "--graph", g, "--params", p, "--coupling", k,
                         "--quantize-step", str(self.STEP_S), "--out", f"{out}/prediction.json"]),
            ("debias", ["debias", "--graph", g, "--params", p, "--coupling", k,
                        "--mode", "simulated", "--out", f"{out}/debias.json"]),
            ("simulate", ["simulate", "--graph", g, "--params", p, "--coupling", k,
                          "--horizon", str(self.SIM_HORIZON), "--init", "random",
                          "--seed", str(self.seed), "--out", f"{out}/trajectory.csv"]),
            ("study", ["study", "--preset", "chain", "--lag-steps", str(self.STUDY_LAG_STEPS),
                       "--outdir", f"{out}/chain"]),
            ("study", ["study", "--preset", "forest", "--lag-steps", str(self.STUDY_LAG_STEPS),
                       "--outdir", f"{out}/forest"]),
            ("debias", ["debias", "--graph", str(self.ring_path), "--params",
                        str(self.ring_params_path), "--coupling", "30", "--mode", "simulated",
                        "--out", f"{out}/zero_rate.json"]),
        ]

    def steps(self, index: int, calls, tracer):
        cycle = self.dir / "cycle"
        cycle.mkdir(exist_ok=True)
        (cycle / "zero_rate.json").unlink(missing_ok=True)
        out = {"codes": [], "stderr": io.StringIO()}

        def run(group):
            def step():
                with contextlib.redirect_stderr(out["stderr"]):
                    for sub, argv in group:
                        with tracer.span(f"cli.{sub}"):
                            out["codes"].append(cli.main(argv))
            return step

        # The three quick calls on the 40-node graph share one timed step.
        return out, [run(calls[:3])] + [run([c]) for c in calls[3:]]

    def check(self, index: int, calls, out: dict, checks) -> int:
        codes = out["codes"]
        if codes[:6] != [0] * 6:
            raise checks.CheckFailure(
                f"exit codes {codes[:6]}, expected all 0\n{out['stderr'].getvalue()}")
        cycle = self.dir / "cycle"
        # Every cycle gets the same inputs, and the CLI's outputs depend only
        # on its inputs; a cycle byte-identical to one already checked in
        # full is as correct as that one.
        digest = self._digest(cycle)
        if digest != self.digest:
            self._check_outputs(cycle, checks)
            self.digest = self.digest or digest
        # The zero-rate debias: its closed form is 0; today it exits 3.
        if codes[6] == 3:
            return 1
        if codes[6] != 0:
            raise checks.CheckFailure(f"zero-rate debias exited {codes[6]}")
        zero = json.loads((cycle / "zero_rate.json").read_text())
        checks.check_close("zero-rate debias estimate", zero["estimate"], 0.0, 0.0, 1e-9)
        return 0

    def _check_outputs(self, cycle: Path, checks) -> None:
        report = json.loads((cycle / "report.json").read_text())
        checks.check_report_class(report, self.N, self.edges)

        dst = np.array([d for d, _ in self.edges])
        src = np.array([s for _, s in self.edges])
        gain = _dense(self.N, dst, src, self.gains)
        delay = _dense(self.N, dst, src, np.rint(self.delays / self.STEP_S) * self.STEP_S)
        gamma = checks.influence(gain)
        want = checks.closed_form_omega(gamma, gain, delay, self.weights, self.stats, self.COUPLING)
        pred = json.loads((cycle / "prediction.json").read_text())
        checks.check_close("predict omega*", pred["global_omega"], want, 1e-9)
        deb = json.loads((cycle / "debias.json").read_text())
        checks.check_debias("debias", deb["estimate"], gamma, self.weights, self.stats, 1e-6)

        checks.check_csv(cycle / "trajectory.csv", self.N, self.SIM_HORIZON, self.STEP_S)
        checks.check_chain(json.loads((cycle / "chain" / "prediction.json").read_text()),
                           30.0, self.STUDY_LAG_STEPS * self.STEP_S)
        checks.check_forest(json.loads((cycle / "forest" / "prediction.json").read_text()))

    @staticmethod
    def _digest(cycle: Path) -> str:
        h = hashlib.sha256()
        for path in sorted(p for p in cycle.rglob("*") if p.is_file() and p.name != "zero_rate.json"):
            h.update(str(path.relative_to(cycle)).encode() + b"\0")
            h.update(path.read_bytes())
        return h.hexdigest()

    def finish(self, checks) -> None:
        pass

    def fingerprint(self) -> dict:
        return {"outputs_sha256": self.digest}


WORKLOADS = {w.name: w for w in (McStudy, LargeNetwork, CliSession)}
