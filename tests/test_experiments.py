"""Preset topology studies and the Monte Carlo estimation study."""
import numpy as np
import pytest

from selfsync import (
    PRESETS,
    ConnectivityClass,
    Digraph,
    Edge,
    EstimationConfig,
    VerdictKind,
    classify,
    preset_network,
    run_estimation_study,
    run_topology_study,
)


# === Presets ===

def test_chain_preset_structure():
    g, params = preset_network("chain", delay_s=0.05)
    rep = classify(g)
    assert rep.kind is ConnectivityClass.QSC_NOT_SC
    assert tuple(rep.sccs[i] for i in rep.root_sccs) == ((0, 1, 2),)
    assert params.n == 9
    assert np.array_equal(params.stats, np.arange(1.0, 10.0))


def test_forest_preset_structure():
    g, params = preset_network("forest", delay_s=0.05)
    rep = classify(g)
    assert rep.kind is ConnectivityClass.WC_NOT_QSC
    assert tuple(rep.sccs[i] for i in rep.root_sccs) == ((0,), (3,))
    assert params.n == 8


def _cycle(nodes, delay_s):
    return [Edge(nodes[(i + 1) % len(nodes)], nodes[i], 1.0, delay_s) for i in range(len(nodes))]


@pytest.mark.parametrize("delay_s", [0.0, 0.05, 3])
def test_presets_are_their_edge_built_graphs(delay_s):
    chain = Digraph(9, _cycle((0, 1, 2), delay_s) + _cycle((3, 4, 5), delay_s)
                    + _cycle((6, 7, 8), delay_s)
                    + [Edge(3, 0, 1.0, delay_s), Edge(6, 3, 1.0, delay_s)])
    forest = Digraph(8, [Edge(d, s, 1.0, delay_s) for d, s in
                         [(1, 0), (2, 0), (4, 3), (5, 3), (6, 7), (7, 6), (6, 1), (7, 4)]])
    assert preset_network("chain", delay_s=delay_s)[0] == chain
    assert preset_network("forest", delay_s=delay_s)[0] == forest


@pytest.mark.parametrize("name", PRESETS)
def test_preset_network_returns_fresh_arrays(name):
    # Writing into one call's result leaves the preset table, and so every
    # later call, as it was.
    g, params = preset_network(name, delay_s=0.01)
    stats = params.stats.copy()
    params.stats[:] = -1.0
    params.weights[:] = 7.0
    again, fresh = preset_network(name, delay_s=0.01)
    assert np.array_equal(fresh.stats, stats) and np.array_equal(fresh.weights, np.ones(g.n))
    assert again == g
    for a, b in [(params.stats, fresh.stats), (params.weights, fresh.weights),
                 (g.dst, again.dst), (g.src, again.src)]:
        assert not np.shares_memory(a, b)


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset_network("ring", delay_s=0.0)


# === Topology studies ===

def test_chain_study_reaches_global_predicted_rate():
    result = run_topology_study("chain")
    assert result.verdict.kind is VerdictKind.GLOBAL
    # Root cycle statistics are 1, 2, 3 with unit weights and three unit
    # in-gains delayed by 50 ms at K = 30: (1+2+3) / (3 + 30*3*0.05) = 0.8.
    assert result.prediction.global_omega == pytest.approx(0.8, rel=1e-12)
    assert result.verdict.omega == pytest.approx(
        result.prediction.global_omega, rel=1e-6
    )


def test_forest_study_two_clusters_middle_in_neither():
    result = run_topology_study("forest")
    assert result.verdict.kind is VerdictKind.CLUSTERED
    assert result.prediction.unresolved == (6, 7)
    assert len(result.prediction.clusters) == 2

    detected = {grp.members: grp.omega for grp in result.verdict.groups}
    for cluster in result.prediction.clusters:
        assert cluster.members in detected
        assert detected[cluster.members] == pytest.approx(cluster.omega, rel=1e-6)
        assert 6 not in cluster.members and 7 not in cluster.members


def test_forest_rates_are_the_root_statistics():
    # Singleton roots with no in-edges: delays cancel and each tree locks
    # to its root's statistic exactly.
    result = run_topology_study("forest")
    omegas = sorted(c.omega for c in result.prediction.clusters)
    assert omegas == [2.0, 4.0]


def test_study_report_json_overlay():
    result = run_topology_study("chain", horizon=10000)
    doc = result.report_json_dict()
    assert doc["class"] == "QSC_NOT_SC"
    assert doc["detected"]["verdict"] == "GLOBAL"
    assert doc["detected"]["omega"] == pytest.approx(doc["global_omega"], rel=1e-6)


def test_study_zero_lag_matches_zero_delay_prediction():
    result = run_topology_study("chain", lag_steps=0, horizon=4000)
    assert result.verdict.kind is VerdictKind.GLOBAL
    assert result.prediction.global_omega == pytest.approx(2.0, rel=1e-12)
    assert result.verdict.omega == pytest.approx(2.0, rel=1e-8)


def test_study_argument_validation():
    from selfsync import Digraph, Edge, NodeParams

    g = Digraph(2, (Edge(1, 0, 1.0, 0.0),))
    params = NodeParams(weights=[1.0, 1.0], stats=[1.0, 2.0])
    with pytest.raises(ValueError):
        run_topology_study("chain", graph=g, params=params)
    with pytest.raises(ValueError):
        run_topology_study(None)
    with pytest.raises(ValueError):
        run_topology_study(None, graph=g)  # params missing
    with pytest.raises(ValueError):
        run_topology_study("chain", lag_steps=-1)


def test_study_with_user_graph():
    from selfsync import Digraph, Edge, NodeParams

    g = Digraph(2, (Edge(1, 0, 1.0, 0.01),))
    params = NodeParams(weights=[1.0, 1.0], stats=[3.0, 0.0])
    result = run_topology_study(None, graph=g, params=params, horizon=3000)
    assert result.verdict.kind is VerdictKind.GLOBAL
    assert result.verdict.omega == pytest.approx(3.0, abs=1e-8)


# === Estimation study ===

def test_estimation_config_validation():
    with pytest.raises(ValueError):
        EstimationConfig(nodes=1)
    with pytest.raises(ValueError):
        EstimationConfig(runs=0)
    with pytest.raises(ValueError):
        EstimationConfig(amplitude=0.0)
    with pytest.raises(ValueError):
        EstimationConfig(noise_var=0.0)


def test_estimation_study_small_scale():
    cfg = EstimationConfig(nodes=8, runs=4, horizon=900, seed=12)
    summary = run_estimation_study(cfg)
    assert summary.steps.shape == (900,)
    assert summary.finals_a.shape == (4,)
    # Centralized estimates are per-run constants.
    assert np.array_equal(summary.mean_a, np.full(900, summary.mean_a[0]))
    # The debiased curve ends close to the no-delay curve.
    assert summary.mean_d[-1] == pytest.approx(summary.mean_b[-1], abs=0.02)
    doc = summary.summary_dict()
    assert doc["runs"] == 4
    assert doc["ml_variance"] == pytest.approx(1.0 / 8.0, rel=1e-15)


def test_estimation_study_deterministic():
    cfg = EstimationConfig(nodes=6, runs=3, horizon=400, seed=7)
    s1 = run_estimation_study(cfg)
    s2 = run_estimation_study(cfg)
    for attr in ("mean_a", "mean_b", "mean_c", "mean_d", "finals_d"):
        assert np.array_equal(getattr(s1, attr), getattr(s2, attr))


def _study_runs(cfg):
    """Each run's graph, params, all-ones params and centralized estimate, drawn
    from the same seeds as ``run_estimation_study`` draws them."""
    from selfsync import (
        Fading, NodeParams, RadioConfig, centralized_ml, ensure_connectivity, ml_setup,
    )
    from selfsync.netgen import _NOISE_TAG, _RUN_TAG, _child_seed, _rng

    amps = np.full(cfg.nodes, cfg.amplitude)
    variances = np.full(cfg.nodes, cfg.noise_var)
    for run in range(cfg.runs):
        radio = RadioConfig(
            n=cfg.nodes, area_side=1.0, tx_power=cfg.tx_power,
            hear_threshold=cfg.hear_threshold, fading=Fading.RAYLEIGH,
            delay_span_s=cfg.delay_span_steps * cfg.step_s,
            seed=_child_seed(cfg.seed, _RUN_TAG, run),
        )
        g = ensure_connectivity(radio, "SC", max_attempts=cfg.max_attempts).graph
        obs = amps * cfg.truth + _rng(cfg.seed, _NOISE_TAG, run).normal(0.0, np.sqrt(variances))
        params = ml_setup(amps, variances, obs)
        reference = NodeParams(weights=params.weights, stats=np.ones(cfg.nodes))
        yield g, params, reference, centralized_ml(amps, variances, obs)[0]


def _record_passes(monkeypatch, links: int, window: int) -> list:
    """Patch the pass budget and window; return the list each pass's runs go to."""
    from selfsync import experiments

    real_pass = experiments._estimation_pass
    passes = []
    monkeypatch.setattr(experiments, "_PASS_LINKS", links)
    monkeypatch.setattr(experiments, "_PASS_WINDOW", window)
    monkeypatch.setattr(experiments, "_estimation_pass", lambda runs, *rest: (
        passes.append([run for run, _, _ in runs]), real_pass(runs, *rest)))
    return passes


def test_estimation_study_equals_three_separate_simulations(monkeypatch):
    # The study simulates consecutive runs' three networks as disjoint unions,
    # a window of steps at a time; rebuild every run here with three separate
    # simulate calls instead.  The second input spans three passes (link
    # budget patched down) with a horizon that its window does not divide.
    from selfsync import SimConfig, simulate
    from selfsync import experiments

    for cfg, links, window, want_passes in (
        (EstimationConfig(nodes=6, runs=2, horizon=300, seed=5),
         experiments._PASS_LINKS, experiments._PASS_WINDOW, [[0, 1]]),
        (EstimationConfig(nodes=6, runs=5, horizon=300, seed=6), 200, 64,
         [[0, 1], [2, 3], [4]]),
    ):
        passes = _record_passes(monkeypatch, links, window)
        summary = run_estimation_study(cfg)
        assert passes == want_passes

        sim_cfg = SimConfig(coupling=cfg.coupling, step_s=cfg.step_s, horizon=cfg.horizon)
        curves = {key: np.empty((cfg.runs, cfg.horizon)) for key in "abcd"}
        for run, (g, params, reference, central) in enumerate(_study_runs(cfg)):
            curves["a"][run] = central
            curves["b"][run] = simulate(g.with_delays(0.0), params, sim_cfg).derivs.mean(axis=1)
            curves["c"][run] = simulate(g, params, sim_cfg).derivs.mean(axis=1)
            curves["d"][run] = curves["c"][run] / simulate(g, reference, sim_cfg).derivs.mean(axis=1)
        for key, mat in curves.items():
            assert np.array_equal(getattr(summary, f"mean_{key}"), mat.mean(axis=0))
            assert np.array_equal(getattr(summary, f"finals_{key}"), mat[:, -1])


def test_diverging_pass_names_its_runs_and_the_first_bad_step(monkeypatch):
    # Two runs per pass, 64-step windows; the first pass diverges in its
    # fifth window, at the first step any of its six copies would.
    import warnings

    from selfsync import SimConfig, SimulationDiverged, StepSizeWarning, simulate

    cfg = EstimationConfig(nodes=6, runs=3, horizon=400, coupling=2000.0, seed=3)
    passes = _record_passes(monkeypatch, 200, 64)
    sim_cfg = SimConfig(coupling=cfg.coupling, step_s=cfg.step_s, horizon=cfg.horizon)
    firsts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        with pytest.raises(SimulationDiverged) as info:
            run_estimation_study(cfg)
        for g, params, reference, _ in list(_study_runs(cfg))[:2]:
            for graph, p in ((g.with_delays(0.0), params), (g, params), (g, reference)):
                with pytest.raises(SimulationDiverged) as own:
                    simulate(graph, p, sim_cfg)
                firsts.append(own.value.step)
    assert passes == [[0, 1]]
    assert 4 * 64 <= info.value.step == min(firsts) < 5 * 64
    assert str(info.value) == f"runs 0-1: non-finite derivative at step {min(firsts)}"


def test_estimation_study_zero_delay_collapses_curves():
    cfg = EstimationConfig(nodes=6, runs=3, horizon=400, delay_span_steps=0, seed=7)
    summary = run_estimation_study(cfg)
    assert np.array_equal(summary.mean_b, summary.mean_c)
    assert np.array_equal(summary.finals_b, summary.finals_c)


def test_estimation_summary_csv(tmp_path):
    cfg = EstimationConfig(nodes=6, runs=2, horizon=50, seed=1)
    summary = run_estimation_study(cfg)
    path = tmp_path / "mc.csv"
    summary.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,mean_a,mean_b,mean_c,mean_d,std_a,std_b,std_c,std_d"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == summary.mean_a[0]


def test_estimation_summary_csv_is_the_plain_repr_join(tmp_path):
    # The step column is integers stacked as objects with the float curves;
    # two row blocks, each the plain repr of every value.
    summary = run_estimation_study(EstimationConfig(nodes=4, runs=2, horizon=1100, seed=3))
    path = tmp_path / "mc.csv"
    summary.write_csv(path)
    names = ["mean_a", "mean_b", "mean_c", "mean_d", "std_a", "std_b", "std_c", "std_d"]
    columns = [summary.steps.tolist()] + [getattr(summary, name).tolist() for name in names]
    want = "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns))
    assert path.read_text() == "step," + ",".join(names) + "\n" + want
