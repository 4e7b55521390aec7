"""Acceptance gate: nine end-to-end checks at pinned tolerances.

Each test prints exactly one line, ``ACCEPTANCE <n>: PASS`` or
``ACCEPTANCE <n>: FAIL``, before asserting (run with ``pytest -s`` to see
the lines on success).  Corpora are seeded so reruns are reproducible.
"""
import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from _oracles import brute_root_union, graph_from_adj, reaches_all_set, with_delay_matrix
from selfsync import (
    ConnectivityClass,
    DebiasMode,
    Digraph,
    Edge,
    EstimationConfig,
    NodeParams,
    SimConfig,
    StepSizeWarning,
    VerdictKind,
    classify,
    debias_two_step,
    detect_consensus,
    disjoint_union,
    laplacian,
    predict,
    run_estimation_study,
    run_topology_study,
    simulate,
)

COUPLING = 30.0
STEP = 1e-3


def _line(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"ACCEPTANCE {num}: {status}{suffix}")


def _random_digraph(rng, n: int, density: float):
    adj = (rng.random((n, n)) < density) & ~np.eye(n, dtype=bool)
    gains = rng.uniform(0.1, 2.0, (n, n))
    delays = rng.uniform(0.0, 0.1, (n, n))
    return graph_from_adj(adj, gains, delays)


def _verdicts(graphs, params, horizon: int) -> list:
    """Each graph's verdict over ``horizon`` steps, all simulated as one disjoint union.

    Each block of the union's trajectory is its graph's own run bit for bit,
    and each is detected on its own columns.
    """
    union = disjoint_union(graphs)
    traj = simulate(union, NodeParams(weights=np.concatenate([p.weights for p in params]),
                                      stats=np.concatenate([p.stats for p in params])),
                    SimConfig(COUPLING, STEP, horizon))
    bounds = np.cumsum([0] + [g.n for g in graphs])
    return [
        detect_consensus(traj.derivs[:, lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@pytest.fixture(scope="module")
def sync_corpus():
    """60 random weighted digraphs, simulated to their terminal verdicts.

    Weights are kept at 1 or above so the explicit-Euler step ratio stays
    below ~0.55 for every draw; the detector gets one longer rerun when a
    trajectory has not settled yet (class-blind, so it cannot hide a true
    mismatch in either direction).  All 60 graphs run as one disjoint union,
    and the unsettled ones rerun as a second.
    """
    rng = np.random.default_rng(101)
    densities = [0.15, 0.3, 0.6]
    records = []
    start = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        for i in range(60):
            n = int(rng.integers(3, 11))
            g = _random_digraph(rng, n, densities[i % 3])
            params = NodeParams(
                weights=rng.uniform(1.0, 2.0, n), stats=rng.uniform(0.5, 2.0, n)
            )
            records.append({"graph": g, "params": params, "kind": classify(g).kind})
        verdicts = _verdicts([r["graph"] for r in records], [r["params"] for r in records], 15000)
        for rec, verdict in zip(records, verdicts):
            rec["verdict"] = verdict
        rerun = [rec for rec in records if rec["verdict"].kind is VerdictKind.NONE]
        if rerun:
            verdicts = _verdicts([r["graph"] for r in rerun], [r["params"] for r in rerun], 45000)
            for rec, verdict in zip(rerun, verdicts):
                rec["verdict"] = verdict
    return {"records": records, "elapsed": time.monotonic() - start}


def test_1_global_sync_iff_single_root_class(sync_corpus):
    """Derivatives synchronize globally exactly on SC / single-root graphs."""
    records, elapsed = sync_corpus["records"], sync_corpus["elapsed"]
    mismatches = []
    for i, rec in enumerate(records):
        is_global = rec["verdict"].kind is VerdictKind.GLOBAL
        rooted = rec["kind"] in (ConnectivityClass.SC, ConnectivityClass.QSC_NOT_SC)
        if is_global != rooted:
            mismatches.append((i, rec["kind"].value, rec["verdict"].kind.value))
    counts = {}
    for rec in records:
        counts[rec["kind"].value] = counts.get(rec["kind"].value, 0) + 1
    ok = (
        not mismatches
        and len(records) >= 50
        and all(counts.get(k.value, 0) >= 5 for k in ConnectivityClass)
        and elapsed < 60.0
    )
    _line(1, ok, f"mismatches={mismatches} classes={counts} elapsed={elapsed:.1f}s")
    assert mismatches == []
    assert len(records) >= 50
    for kind in ConnectivityClass:
        assert counts.get(kind.value, 0) >= 5, counts
    assert elapsed < 60.0


def test_2_settled_rate_matches_quantized_closed_form(sync_corpus):
    """On every globally synchronized run, the detected rate equals the
    closed form evaluated with step-quantized delays to 1e-4 relative."""
    worst = 0.0
    checked = 0
    for rec in sync_corpus["records"]:
        if rec["verdict"].kind is not VerdictKind.GLOBAL:
            continue
        checked += 1
        expected = predict(
            rec["graph"], rec["params"], COUPLING, quantize_step=STEP
        ).global_omega
        worst = max(worst, abs(rec["verdict"].omega - expected) / abs(expected))
    ok = checked >= 10 and worst < 1e-4
    _line(2, ok, f"checked={checked} worst_rel={worst:.3e}")
    assert checked >= 10
    assert worst < 1e-4


def test_3_branching_locks_every_node_to_root_statistic():
    """On 20 random out-branchings with random delays, every node's terminal
    derivative equals the root's statistic to 1e-6 absolute."""
    rng = np.random.default_rng(303)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        for _ in range(20):
            n = int(rng.integers(4, 11))
            edges = tuple(
                Edge(dst, int(rng.integers(0, dst)),
                     float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 0.1)))
                for dst in range(1, n)
            )
            g = Digraph(n, edges)
            params = NodeParams(
                weights=rng.uniform(0.5, 2.0, n), stats=rng.uniform(-1.0, 2.0, n)
            )
            traj = simulate(g, params, SimConfig(COUPLING, STEP, 6000))
            worst = max(worst, float(np.max(np.abs(traj.derivs[-1] - params.stats[0]))))
    ok = worst < 1e-6
    _line(3, ok, f"worst_abs={worst:.3e}")
    assert worst < 1e-6


def test_4_uniform_cycles_match_balanced_closed_form():
    """Unit-gain cycles: the simulated rate matches the balanced-form value
    (weighted statistic sum over weight-plus-delay-load sum) to 1e-4, and
    the general prediction collapses to that form to 1e-12."""
    rng = np.random.default_rng(404)
    worst_sim, worst_pred = 0.0, 0.0
    for n in (3, 5, 8):
        lag_steps = rng.integers(0, 101, size=n)
        delays = lag_steps * STEP
        g = Digraph(n, tuple(
            Edge((i + 1) % n, i, 1.0, float(delays[i])) for i in range(n)
        ))
        c = rng.uniform(0.5, 2.0, n)
        u = rng.uniform(-1.0, 2.0, n)
        params = NodeParams(weights=c, stats=u)
        balanced_form = float(c @ u) / (float(c.sum()) + COUPLING * float(delays.sum()))

        pred = predict(g, params, COUPLING).global_omega
        worst_pred = max(worst_pred, abs(pred - balanced_form) / abs(balanced_form))

        verdict = detect_consensus(simulate(g, params, SimConfig(COUPLING, STEP, 20000)).derivs)
        assert verdict.kind is VerdictKind.GLOBAL
        worst_sim = max(worst_sim, abs(verdict.omega - balanced_form) / abs(balanced_form))
    ok = worst_sim < 1e-4 and worst_pred < 1e-12
    _line(4, ok, f"worst_sim={worst_sim:.3e} worst_pred={worst_pred:.3e}")
    assert worst_sim < 1e-4
    assert worst_pred < 1e-12


def test_5_forest_preset_forms_two_predicted_clusters():
    """The two-root forest preset settles into exactly the two predicted
    clusters (rates to 1e-4 relative); the middle nodes join neither."""
    result = run_topology_study("forest")
    detected = {grp.members: grp.omega for grp in result.verdict.groups}
    ok = result.verdict.kind is VerdictKind.CLUSTERED and len(result.prediction.clusters) == 2
    worst = 0.0
    for cluster in result.prediction.clusters:
        if cluster.members not in detected:
            ok = False
            continue
        worst = max(worst, abs(detected[cluster.members] - cluster.omega) / abs(cluster.omega))
        if 6 in cluster.members or 7 in cluster.members:
            ok = False
    ok = ok and worst < 1e-4
    _line(5, ok, f"verdict={result.verdict.kind.value} worst_rel={worst:.3e}")
    assert result.verdict.kind is VerdictKind.CLUSTERED
    assert len(result.prediction.clusters) == 2
    for cluster in result.prediction.clusters:
        assert cluster.members in detected
        assert abs(detected[cluster.members] - cluster.omega) <= 1e-4 * abs(cluster.omega)
        assert 6 not in cluster.members and 7 not in cluster.members


def test_6_two_step_debias_is_delay_independent():
    """For 10 single-root graphs under 3 delay assignments (one all-zero),
    the two-step estimate moves by less than 1e-6 relative and equals the
    influence-weighted statistic mean to 1e-6."""
    rng = np.random.default_rng(606)
    worst_spread, worst_target = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            edges = {}
            for dst in range(1, n):
                src = int(rng.integers(0, dst))
                edges[(dst, src)] = Edge(dst, src, float(rng.uniform(0.5, 1.5)), 0.0)
            for _ in range(int(rng.integers(0, 2 * n))):
                dst, src = int(rng.integers(0, n)), int(rng.integers(0, n))
                if dst != src and (dst, src) not in edges:
                    edges[(dst, src)] = Edge(dst, src, float(rng.uniform(0.5, 1.5)), 0.0)
            g0 = Digraph(n, tuple(edges.values()))
            params = NodeParams(
                weights=rng.uniform(1.0, 2.0, n), stats=rng.uniform(0.5, 2.0, n)
            )
            assignments = (
                np.zeros((n, n)),
                rng.uniform(0.0, 0.05, (n, n)),
                rng.uniform(0.0, 0.1, (n, n)),
            )
            cfg = SimConfig(COUPLING, STEP, 15000)
            estimates = [
                debias_two_step(with_delay_matrix(g0, dm), params, cfg,
                                DebiasMode.SIMULATED).estimate
                for dm in assignments
            ]
            gamma = classify(g0).influence
            target = float(gamma @ (params.weights * params.stats)) / float(
                gamma @ params.weights
            )
            spread = (max(estimates) - min(estimates)) / abs(np.mean(estimates))
            worst_spread = max(worst_spread, spread)
            worst_target = max(
                worst_target, max(abs(e - target) / abs(target) for e in estimates)
            )
    ok = worst_spread < 1e-6 and worst_target < 1e-6
    _line(6, ok, f"worst_spread={worst_spread:.3e} worst_target={worst_target:.3e}")
    assert worst_spread < 1e-6
    assert worst_target < 1e-6


def test_7_influence_vector_residual_and_support():
    """On 200 random digraphs (n <= 8): the influence vector annihilates
    the Laplacian to 1e-10 relative, and its support is exactly the
    brute-force reaches-all set (single-root case) or the brute-force
    union of root components (multi-root case)."""
    rng = np.random.default_rng(707)
    qsc_branch, multi_branch = 0, 0
    failures = []
    for i in range(200):
        n = int(rng.integers(2, 9))
        density = float(rng.choice([0.15, 0.35, 0.6]))
        adj = (rng.random((n, n)) < density) & ~np.eye(n, dtype=bool)
        gains = rng.uniform(0.2, 2.0, (n, n))
        g = graph_from_adj(adj, gains)
        gamma = classify(g).influence
        lap = laplacian(g)
        lap_norm = float(np.max(np.abs(lap).sum(axis=1)))
        if float(np.max(np.abs(gamma @ lap))) > 1e-10 * max(lap_norm, 1e-300):
            failures.append((i, "residual"))
        support = set(np.flatnonzero(gamma > 0.0))
        dominating = reaches_all_set(n, adj)
        if dominating:
            qsc_branch += 1
            if support != dominating:
                failures.append((i, "support-vs-reaches-all"))
        else:
            multi_branch += 1
            if support != brute_root_union(n, adj):
                failures.append((i, "support-vs-root-union"))
    ok = not failures and qsc_branch >= 40 and multi_branch >= 40
    _line(7, ok, f"failures={failures} branches=({qsc_branch},{multi_branch})")
    assert failures == []
    assert qsc_branch >= 40 and multi_branch >= 40


def test_8_estimation_study_statistics():
    """Full-scale estimation study (40 nodes, 100 runs, fading links,
    delays spanning 100 steps): (i) the no-delay network mean matches the
    centralized mean within 3 standard errors of their paired difference;
    (ii) the delayed estimate is biased toward zero by more than 3 standard
    errors (positive delays inflate the rate denominator); (iii) the
    two-step estimate lands within 3 standard errors of the truth; (iv) its
    spread stays within 25% of the centralized estimator's spread."""
    start = time.monotonic()
    summary = run_estimation_study(EstimationConfig())
    elapsed = time.monotonic() - start
    runs = summary.runs
    truth = summary.truth

    diff = summary.finals_b - summary.finals_a
    se_diff = float(diff.std(ddof=0)) / np.sqrt(runs)
    check_i = abs(float(diff.mean())) <= 3.0 * se_diff

    bias_c = float(summary.finals_c.mean()) - truth
    se_c = float(summary.finals_c.std(ddof=0)) / np.sqrt(runs)
    check_ii = bias_c < 0.0 and abs(bias_c) > 3.0 * se_c

    bias_d = float(summary.finals_d.mean()) - truth
    se_d = float(summary.finals_d.std(ddof=0)) / np.sqrt(runs)
    check_iii = abs(bias_d) <= 3.0 * se_d

    std_ratio = float(summary.finals_d.std(ddof=0)) / float(summary.finals_a.std(ddof=0))
    check_iv = abs(std_ratio - 1.0) <= 0.25

    ok = check_i and check_ii and check_iii and check_iv and elapsed < 600.0
    _line(
        8, ok,
        f"i={check_i} ii={check_ii} iii={check_iii} iv={check_iv} "
        f"bias_c={bias_c:.3f} std_ratio={std_ratio:.3f} elapsed={elapsed:.0f}s",
    )
    assert check_i, (float(diff.mean()), se_diff)
    assert check_ii, (bias_c, se_c)
    assert check_iii, (bias_d, se_d)
    assert check_iv, std_ratio
    assert elapsed < 600.0


def test_9_subcommand_outputs_are_byte_identical(tmp_path):
    """Every subcommand, run twice with the same config and seed in a fresh
    interpreter, produces byte-identical output files and stdout."""
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "n": 3,
        "edges": [
            {"dst": 1, "src": 0, "gain": 1.0, "delay_s": 0.02},
            {"dst": 2, "src": 1, "gain": 0.8, "delay_s": 0.01},
            {"dst": 0, "src": 2, "gain": 1.2, "delay_s": 0.03},
        ],
    }))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"c": [1.0, 2.0, 1.5], "u": [0.5, 1.5, -0.25]}))

    commands = {
        "analyze": ["analyze", "--graph", graph, "--out", "{out}/report.json"],
        "predict": ["predict", "--graph", graph, "--params", params,
                    "--out", "{out}/prediction.json"],
        "simulate": ["simulate", "--graph", graph, "--params", params,
                     "--horizon", "400", "--init", "random", "--seed", "11",
                     "--out", "{out}/trajectory.csv"],
        "debias": ["debias", "--graph", graph, "--params", params,
                   "--horizon", "4000", "--out", "{out}/debias.json"],
        "study": ["study", "--preset", "forest", "--horizon", "3000",
                  "--outdir", "{out}"],
        "mc-estimate": ["mc-estimate", "--nodes", "6", "--runs", "2",
                        "--horizon", "200", "--seed", "5", "--out", "{out}/mc.csv"],
    }

    unequal = []
    for name, template in commands.items():
        outputs = []
        for tag in ("first", "second"):
            outdir = tmp_path / f"{name}-{tag}"
            outdir.mkdir()
            argv = [str(a).replace("{out}", str(outdir)) for a in template]
            proc = subprocess.run(
                [sys.executable, "-m", "selfsync", *argv],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, (name, proc.stderr)
            files = {
                p.name: p.read_bytes() for p in sorted(outdir.iterdir())
            }
            outputs.append((files, proc.stdout))
        if outputs[0] != outputs[1]:
            unequal.append(name)
        if not outputs[0][0]:
            unequal.append(f"{name}:no-files")
    ok = unequal == []
    _line(9, ok, f"unequal={unequal}")
    assert unequal == []
