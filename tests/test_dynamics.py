"""Simulator and terminal-rate detector tests.

Hand-computable fixed points: an isolated integrator tracks its own
statistic; a mutual pair with unit gains, unit weights, delay tau on both
links and coupling K settles its derivatives to
2 / (2 + 2*K*tau) * sum(u) / ... -- concretely u = [1, 1], K = 1,
tau = 0.5 gives the rate 2/3.
"""
import csv
import io
import multiprocessing
import os
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsync import (
    ConsensusVerdict,
    Digraph,
    Edge,
    InitialCondition,
    NodeParams,
    SimConfig,
    SimulationDiverged,
    StepSizeWarning,
    Trajectory,
    VerdictKind,
    classify,
    detect_consensus,
    quantize_delays,
    simulate,
)
from selfsync import dynamics
from selfsync.dynamics import WINDOW


def mutual_pair(delay: float = 0.0, gain: float = 1.0) -> Digraph:
    return Digraph(2, (Edge(0, 1, gain, delay), Edge(1, 0, gain, delay)))


# === Delay quantization ===

def test_quantize_rounds_half_to_even():
    g = Digraph(2, (Edge(0, 1, 1.0, 0.0025), Edge(1, 0, 1.0, 0.0035)))
    q = quantize_delays(g, 1e-3)
    assert q.lags.dtype == np.int64
    assert q.lags.tolist() == [2, 4]  # 2.5 steps -> 2, 3.5 steps -> 4, in edge order
    assert q.m_max == 4


def test_quantize_exact_multiples_pass_through():
    g = mutual_pair(delay=0.05)
    q = quantize_delays(g, 1e-3)
    assert q.lags.tolist() == [50, 50]
    assert q.m_max == 50
    assert quantize_delays(Digraph(3, ()), 1e-3).m_max == 0


def test_quantize_rejects_bad_step():
    with pytest.raises(ValueError):
        quantize_delays(mutual_pair(), 0.0)


def test_quantize_rejects_lags_beyond_int64():
    with pytest.raises(ValueError, match="2\\*\\*63"):
        quantize_delays(mutual_pair(delay=0.02), 1e-300)
    assert quantize_delays(mutual_pair(delay=1.0), 2.0**-62).m_max == 2**62


# === Simulation fixed points ===

def test_isolated_node_integrates_its_statistic():
    g = Digraph(1, ())
    params = NodeParams(weights=[2.0], stats=[5.0])
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=100)
    traj = simulate(g, params, cfg)
    assert np.array_equal(traj.derivs, np.full((100, 1), 5.0))
    assert np.allclose(traj.states[:, 0], 5.0 * traj.times, rtol=0, atol=1e-12)


def test_pair_zero_delay_settles_to_weighted_mean():
    g = mutual_pair()
    params = NodeParams(weights=[1.0, 1.0], stats=[1.0, 3.0])
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=2000)
    verdict = detect_consensus(simulate(g, params, cfg))
    assert verdict.kind is VerdictKind.GLOBAL
    assert verdict.omega == pytest.approx(2.0, abs=1e-9)


def test_pair_with_delay_matches_hand_value():
    g = mutual_pair(delay=0.5)
    params = NodeParams(weights=[1.0, 1.0], stats=[1.0, 1.0])
    cfg = SimConfig(coupling=1.0, step_s=1e-3, horizon=8000)
    verdict = detect_consensus(simulate(g, params, cfg))
    assert verdict.kind is VerdictKind.GLOBAL
    assert verdict.omega == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_euler_identity_bitwise():
    g = mutual_pair(delay=0.013)
    params = NodeParams(weights=[1.0, 2.0], stats=[0.3, -1.1])
    cfg = SimConfig(coupling=4.0, step_s=1e-3, horizon=500)
    traj = simulate(g, params, cfg)
    stepped = traj.states[:-1] + cfg.step_s * traj.derivs[:-1]
    assert np.array_equal(stepped, traj.states[1:])


def test_simulation_is_deterministic():
    g = mutual_pair(delay=0.02)
    params = NodeParams(weights=[1.0, 1.0], stats=[2.0, -1.0])
    cfg = SimConfig(coupling=5.0, step_s=1e-3, horizon=300)
    t1, t2 = simulate(g, params, cfg), simulate(g, params, cfg)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.derivs, t2.derivs)


def test_terminal_rate_ignores_initial_history():
    g = mutual_pair(delay=0.03)
    params = NodeParams(weights=[1.0, 1.0], stats=[1.0, 2.0])
    rng = np.random.default_rng(0)
    omegas = []
    for _ in range(3):
        hist = rng.normal(0.0, 5.0, size=(31, 2))
        cfg = SimConfig(
            coupling=10.0, step_s=1e-3, horizon=6000,
            init=InitialCondition.samples(hist),
        )
        verdict = detect_consensus(simulate(g, params, cfg))
        assert verdict.kind is VerdictKind.GLOBAL
        omegas.append(verdict.omega)
    assert max(omegas) - min(omegas) < 1e-8 * max(abs(v) for v in omegas)


def test_constant_history_feeds_delayed_terms():
    # One-way link with a 5-step delay: the listener's first derivatives
    # read the constant history until the live signal arrives.
    g = Digraph(2, (Edge(1, 0, 1.0, 0.005),))
    params = NodeParams(weights=[1.0, 1.0], stats=[0.0, 0.0])
    cfg = SimConfig(
        coupling=1.0, step_s=1e-3, horizon=20,
        init=InitialCondition.constant(np.array([3.0, 1.0])),
    )
    traj = simulate(g, params, cfg)
    assert traj.states[0, 0] == 3.0 and traj.states[0, 1] == 1.0
    # xdot_1(0) = 1 * (x_0(-5 steps) - x_1(0)) = 3 - 1 = 2
    assert traj.derivs[0, 1] == 2.0
    # Source node has no in-edges: it never moves.
    assert np.array_equal(traj.states[:, 0], np.full(20, 3.0))


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        InitialCondition.samples(np.zeros(5))  # not 2-d
    cond = InitialCondition.samples(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        cond.fill(rows=10, n=2)  # not enough history rows
    with pytest.raises(ValueError):
        cond.fill(rows=2, n=4)  # wrong node count
    with pytest.raises(ValueError):
        InitialCondition.constant(np.array([1.0, 2.0, 3.0])).fill(rows=2, n=2)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(coupling=0.0, step_s=1e-3, horizon=10)
    with pytest.raises(ValueError):
        SimConfig(coupling=1.0, step_s=-1e-3, horizon=10)
    with pytest.raises(ValueError):
        SimConfig(coupling=1.0, step_s=1e-3, horizon=0)
    with pytest.raises(ValueError):
        NodeParams(weights=[1.0, -1.0], stats=[0.0, 0.0])
    with pytest.raises(ValueError):
        NodeParams(weights=[1.0], stats=[0.0, 0.0])


def test_params_graph_size_mismatch():
    with pytest.raises(ValueError):
        simulate(
            mutual_pair(),
            NodeParams(weights=[1.0], stats=[1.0]),
            SimConfig(coupling=1.0, step_s=1e-3, horizon=10),
        )


# === Stability guard and divergence ===

def test_step_size_warning_fires():
    g = mutual_pair()
    params = NodeParams(weights=[1.0, 1.0], stats=[0.0, 0.0])
    cfg = SimConfig(coupling=200.0, step_s=1e-3, horizon=10)
    with pytest.warns(StepSizeWarning):
        simulate(g, params, cfg)


def test_step_size_warning_quiet_in_safe_regime():
    g = mutual_pair()
    params = NodeParams(weights=[1.0, 1.0], stats=[0.0, 0.0])
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StepSizeWarning)
        simulate(g, params, cfg)


def test_divergence_raises_with_step_index():
    # Far beyond the explicit-Euler stability bound: the pair's difference
    # mode multiplies by |1 - 2*h*K| = 9 each step and overflows.
    g = mutual_pair()
    params = NodeParams(weights=[1.0, 1.0], stats=[1.0, -1.0])
    cfg = SimConfig(coupling=5000.0, step_s=1e-3, horizon=5000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        with pytest.raises(SimulationDiverged) as info:
            simulate(g, params, cfg)
    assert info.value.step == 324


# === Terminal-rate detector ===

def synthetic_trajectory(derivs: np.ndarray) -> Trajectory:
    derivs = np.asarray(derivs, dtype=float)
    h = 1e-3
    states = np.zeros_like(derivs)
    states[1:] = np.cumsum(derivs[:-1] * h, axis=0)
    times = np.arange(derivs.shape[0]) * h
    return Trajectory(step_s=h, times=times, states=states, derivs=derivs)


def test_detector_global():
    traj = synthetic_trajectory(np.full((500, 4), 5.0))
    verdict = detect_consensus(traj)
    assert verdict.kind is VerdictKind.GLOBAL
    assert verdict.omega == 5.0
    assert verdict.groups[0].members == (0, 1, 2, 3)
    assert verdict.unsettled == ()


def test_detector_clustered_two_levels():
    derivs = np.empty((500, 4))
    derivs[:, :2] = 1.0
    derivs[:, 2:] = 2.0
    verdict = detect_consensus(synthetic_trajectory(derivs))
    assert verdict.kind is VerdictKind.CLUSTERED
    assert verdict.omega is None
    assert [g.members for g in verdict.groups] == [(0, 1), (2, 3)]
    assert [g.omega for g in verdict.groups] == [1.0, 2.0]


def test_detector_none_when_drifting():
    derivs = np.ones((500, 2))
    derivs[:, 1] = np.linspace(0.0, 1.0, 500)  # never settles
    verdict = detect_consensus(synthetic_trajectory(derivs))
    assert verdict.kind is VerdictKind.NONE
    assert verdict.unsettled == (1,)


def test_detector_edgeless_graph_gives_singleton_clusters():
    g = Digraph(3, ())
    params = NodeParams(weights=np.ones(3), stats=[1.0, 2.0, 3.0])
    cfg = SimConfig(coupling=1.0, step_s=1e-3, horizon=400)
    verdict = detect_consensus(simulate(g, params, cfg))
    assert verdict.kind is VerdictKind.CLUSTERED
    assert [grp.members for grp in verdict.groups] == [(0,), (1,), (2,)]
    assert [grp.omega for grp in verdict.groups] == [1.0, 2.0, 3.0]


def test_detector_merges_within_tolerance():
    derivs = np.empty((500, 2))
    derivs[:, 0] = 1.0
    derivs[:, 1] = 1.0 + 1e-9  # inside sync_tol * scale
    verdict = detect_consensus(synthetic_trajectory(derivs))
    assert verdict.kind is VerdictKind.GLOBAL


def test_detector_validation():
    with pytest.raises(ValueError):
        detect_consensus(synthetic_trajectory(np.ones((WINDOW, 2))))
    assert detect_consensus(synthetic_trajectory(np.ones((WINDOW + 1, 2)))).kind is VerdictKind.GLOBAL


def zero_rate_ring() -> tuple[Digraph, NodeParams, SimConfig]:
    """Unit-gain 3-ring whose closed-form rate is exactly 0."""
    g = Digraph(3, [Edge((i + 1) % 3, i, 1.0, 0.02) for i in range(3)])
    params = NodeParams(weights=np.ones(3), stats=[1.0, -1.0, 0.0])
    return g, params, SimConfig(coupling=30.0, step_s=1e-3, horizon=6000)


def test_detector_reads_zero_rate_ring_as_global():
    verdict = detect_consensus(simulate(*zero_rate_ring()))
    assert verdict.kind is VerdictKind.GLOBAL
    assert abs(verdict.omega) < 1e-12


def test_detector_reads_zero_mean_statistics_as_global():
    """Sign-mixed statistics shifted to a gamma*c-weighted mean of 0 settle at rate 0."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        links = {((i + 1) % n, i) for i in range(n)}
        links |= {(d, s) for d in range(n) for s in range(n) if d != s and rng.random() < 0.5}
        g = Digraph(n, [Edge(d, s, rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.02))
                        for d, s in sorted(links)])
        weights = rng.uniform(1.0, 2.0, n)
        stats = rng.normal(0.0, 1.0, n)
        gc = classify(g).influence * weights
        stats -= np.dot(gc, stats) / gc.sum()
        params = NodeParams(weights=weights, stats=stats)
        verdict = detect_consensus(simulate(g, params, SimConfig(10.0, 1e-3, 6000)))
        assert verdict.kind is VerdictKind.GLOBAL, (n, verdict)
        assert abs(verdict.omega) < 1e-9


def test_verdict_json_dict():
    verdict = detect_consensus(synthetic_trajectory(np.full((300, 2), 7.0)))
    doc = verdict.to_json_dict()
    assert doc["verdict"] == "GLOBAL"
    assert doc["omega"] == 7.0
    assert doc["groups"] == [{"members": [0, 1], "omega": 7.0}]
    assert doc["unsettled"] == []


# === Trajectory CSV ===

def test_trajectory_csv_round_trip(tmp_path):
    g = mutual_pair(delay=0.004)
    params = NodeParams(weights=[1.0, 1.5], stats=[0.7, -0.2])
    cfg = SimConfig(coupling=3.0, step_s=1e-3, horizon=50)
    traj = simulate(g, params, cfg)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_0", "x_1", "xdot_0", "xdot_1"]
    assert len(rows) == 51
    for k, row in enumerate(rows[1:]):
        vals = [float(cell) for cell in row]
        assert vals[0] == traj.times[k]
        assert vals[1] == traj.states[k, 0] and vals[2] == traj.states[k, 1]
        assert vals[3] == traj.derivs[k, 0] and vals[4] == traj.derivs[k, 1]


# Extremes of the float format: signed zero, the smallest subnormal, the
# largest finite values, and the switches between fixed and exponent form.
SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1 / 3, -2.5e-7)
# One CPU forces the in-process path; two force the worker pool.
CPU_SETS = pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "pooled"])


@CPU_SETS
@settings(deadline=None, max_examples=12)
@given(rows=st.sampled_from([1, 1023, 1024, 1025, 2049]),
       n=st.integers(1, 3),
       pool=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                     | st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_trajectory_csv_is_the_plain_repr_join(tmp_path_factory, cpus, rows, n, pool, seed):
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(pool + list(SPECIAL_FLOATS)), size=(rows, 1 + 2 * n))
    traj = Trajectory(1e-3, values[:, 0], values[:, 1 : 1 + n], values[:, 1 + n :])
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: cpus)
        blocks = -(-rows // dynamics._CSV_BLOCK_ROWS)
        assert dynamics._csv_workers(blocks) == min(len(cpus), blocks)
        traj.write_csv(path)
    header = ",".join(["t"] + [f"x_{i}" for i in range(n)] + [f"xdot_{i}" for i in range(n)])
    want = "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())
    assert path.read_bytes() == (header + "\n" + want).encode()
    assert multiprocessing.active_children() == []


def _die_in_worker(parent: int):
    """A block formatter that kills the worker process it runs in."""
    def block(columns, start):
        if os.getpid() == parent:
            raise AssertionError("the writer formatted in-process")
        os._exit(1)
    return block


def test_crashed_csv_worker_raises_and_leaves_no_child(monkeypatch, tmp_path):
    traj = Trajectory(1e-3, np.zeros(3000), np.zeros((3000, 2)), np.zeros((3000, 2)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(dynamics, "_csv_block", _die_in_worker(os.getpid()))
    with pytest.raises(OSError, match="CSV worker process died") as err:
        traj.write_csv(tmp_path / "traj.csv")
    assert isinstance(err.value.__cause__, BrokenProcessPool)
    assert multiprocessing.active_children() == []
