"""Simulator and terminal-rate detector tests.

Hand-computable fixed points: an isolated integrator tracks its own
statistic; a mutual pair with unit gains, unit weights, delay tau on both
links and coupling K settles its derivatives to
2 / (2 + 2*K*tau) * sum(u) / ... -- concretely u = [1, 1], K = 1,
tau = 0.5 gives the rate 2/3.
"""
import csv
import errno
import io
import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsync import (
    ConsensusVerdict,
    Digraph,
    Edge,
    GenerationBudgetError,
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

from _oracles import repr_join


def mutual_pair(delay: float = 0.0, gain: float = 1.0) -> Digraph:
    return Digraph(2, (Edge(0, 1, gain, delay), Edge(1, 0, gain, delay)))


# === Delay quantization ===

def test_quantize_rounds_half_to_even():
    g = Digraph(2, (Edge(0, 1, 1.0, 0.0025), Edge(1, 0, 1.0, 0.0035)))
    lags = quantize_delays(g, 1e-3)
    assert lags.dtype == np.int64
    assert lags.tolist() == [2, 4]  # 2.5 steps -> 2, 3.5 steps -> 4, in edge order
    assert lags.max() == 4


def test_quantize_exact_multiples_pass_through():
    g = mutual_pair(delay=0.05)
    assert quantize_delays(g, 1e-3).tolist() == [50, 50]
    empty = quantize_delays(Digraph(3, ()), 1e-3)
    assert empty.dtype == np.int64 and empty.max(initial=0) == 0


def test_quantize_rejects_bad_step():
    with pytest.raises(ValueError):
        quantize_delays(mutual_pair(), 0.0)


def test_quantize_rejects_lags_beyond_int64():
    with pytest.raises(ValueError, match="2\\*\\*63"):
        quantize_delays(mutual_pair(delay=0.02), 1e-300)
    assert quantize_delays(mutual_pair(delay=1.0), 2.0**-62).max() == 2**62


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
    verdict = detect_consensus(simulate(g, params, cfg).derivs)
    assert verdict.kind is VerdictKind.GLOBAL
    assert verdict.omega == pytest.approx(2.0, abs=1e-9)


def test_pair_with_delay_matches_hand_value():
    g = mutual_pair(delay=0.5)
    params = NodeParams(weights=[1.0, 1.0], stats=[1.0, 1.0])
    cfg = SimConfig(coupling=1.0, step_s=1e-3, horizon=8000)
    verdict = detect_consensus(simulate(g, params, cfg).derivs)
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
            init=hist,
        )
        verdict = detect_consensus(simulate(g, params, cfg).derivs)
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
        init=np.array([3.0, 1.0]),
    )
    traj = simulate(g, params, cfg)
    assert traj.states[0, 0] == 3.0 and traj.states[0, 1] == 1.0
    # xdot_1(0) = 1 * (x_0(-5 steps) - x_1(0)) = 3 - 1 = 2
    assert traj.derivs[0, 1] == 2.0
    # Source node has no in-edges: it never moves.
    assert np.array_equal(traj.states[:, 0], np.full(20, 3.0))


def test_initial_condition_validation():
    with pytest.raises(ValueError, match="scalar"):
        SimConfig(1.0, 1e-3, 10, np.zeros((3, 2, 1)))  # more than 2-d
    for bad in (np.nan, np.inf, -np.inf, [[0.0, np.nan]]):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(1.0, 1e-3, 10, bad)
    history = SimConfig(1.0, 1e-3, 10, np.zeros((3, 2))).init
    with pytest.raises(ValueError, match=r"needs at least 10 rows of 2 columns"):
        dynamics._history(history, rows=10, n=2)  # not enough history rows
    with pytest.raises(ValueError, match=r"needs at least 2 rows of 4 columns"):
        dynamics._history(history, rows=2, n=4)  # wrong node count
    with pytest.raises(ValueError, match="1 or 2 values"):
        dynamics._history(np.array([1.0, 2.0, 3.0]), rows=2, n=2)
    # Through simulate: a 3-node graph with m_max = 5 needs 6 rows of 3.
    g = Digraph(3, (Edge(1, 0, 1.0, 0.005),))
    params = NodeParams(weights=np.ones(3), stats=np.zeros(3))
    for bad in ([1.0, 2.0], np.zeros((5, 3)), np.zeros((6, 2))):
        with pytest.raises(ValueError):
            simulate(g, params, SimConfig(1.0, 1e-3, 10, bad))


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
        # In 100-step blocks the same step falls in the fourth block.
        with pytest.raises(SimulationDiverged) as blocked:
            for _ in dynamics._integrate(g, params, cfg, 100):
                pass
    assert info.value.step == blocked.value.step == 324
    assert str(blocked.value) == "non-finite derivative at step 324"


def test_errors_survive_pickle_and_copy():
    import copy
    import pickle

    for err, attr in ((SimulationDiverged("runs 0-2: non-finite derivative at step 7", step=7),
                       "step"),
                      (GenerationBudgetError("run 3: no SC graph in 64 attempts", attempts=64),
                       "attempts")):
        for twin in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
            assert type(twin) is type(err)
            assert str(twin) == str(err)
            assert getattr(twin, attr) == getattr(err, attr)


# === Windowed kernel ===

def test_integrate_blocks_reproduce_simulate():
    # m_max = 12; a sampled history that is not flat, and a horizon that no
    # window below divides evenly.
    g = Digraph(3, (
        Edge(1, 0, 1.0, 0.012), Edge(2, 1, 0.8, 0.0), Edge(0, 2, 1.2, 0.007),
        Edge(0, 1, 0.5, 0.003),
    ))
    params = NodeParams(weights=[1.0, 2.0, 1.5], stats=[0.3, -1.0, 2.0])
    history = np.random.default_rng(4).normal(size=(20, 3))
    cfg = SimConfig(coupling=30.0, step_s=1e-3, horizon=250,
                    init=history)
    m_max = int(quantize_delays(g, cfg.step_s).max())
    assert m_max == 12
    whole = simulate(g, params, cfg)
    for window in (1, 7, m_max, cfg.horizon):
        starts, states, derivs = [], [], []
        for start, block_states, block_derivs in dynamics._integrate(g, params, cfg, window):
            starts.append(start)
            states.append(block_states.copy())
            derivs.append(block_derivs.copy())
        assert starts == list(range(0, cfg.horizon, window))
        assert np.array_equal(np.concatenate(states), whole.states)
        assert np.array_equal(np.concatenate(derivs), whole.derivs)


def test_a_gather_past_the_existing_states_raises(monkeypatch):
    # The tiles gather with mode="clip", which would clamp a bad tap to some
    # other state; a lag of -1 (a state one step ahead) must raise instead.
    monkeypatch.setattr(dynamics, "quantize_delays", lambda g, step_s: np.array([-1, 0]))
    params = NodeParams(weights=[1.0, 1.0], stats=[1.0, -1.0])
    with pytest.raises(ValueError, match="does not exist yet"):
        simulate(mutual_pair(), params, SimConfig(coupling=1.0, step_s=1e-3, horizon=10))


# === Terminal-rate detector ===

def test_detector_global():
    verdict = detect_consensus(np.full((500, 4), 5.0))
    assert verdict.kind is VerdictKind.GLOBAL
    assert verdict.omega == 5.0
    assert verdict.groups[0].members == (0, 1, 2, 3)
    assert verdict.unsettled == ()


def test_detector_clustered_two_levels():
    derivs = np.empty((500, 4))
    derivs[:, :2] = 1.0
    derivs[:, 2:] = 2.0
    verdict = detect_consensus(derivs)
    assert verdict.kind is VerdictKind.CLUSTERED
    assert verdict.omega is None
    assert [g.members for g in verdict.groups] == [(0, 1), (2, 3)]
    assert [g.omega for g in verdict.groups] == [1.0, 2.0]


def test_detector_none_when_drifting():
    derivs = np.ones((500, 2))
    derivs[:, 1] = np.linspace(0.0, 1.0, 500)  # never settles
    verdict = detect_consensus(derivs)
    assert verdict.kind is VerdictKind.NONE
    assert verdict.unsettled == (1,)


def test_detector_edgeless_graph_gives_singleton_clusters():
    g = Digraph(3, ())
    params = NodeParams(weights=np.ones(3), stats=[1.0, 2.0, 3.0])
    cfg = SimConfig(coupling=1.0, step_s=1e-3, horizon=400)
    verdict = detect_consensus(simulate(g, params, cfg).derivs)
    assert verdict.kind is VerdictKind.CLUSTERED
    assert [grp.members for grp in verdict.groups] == [(0,), (1,), (2,)]
    assert [grp.omega for grp in verdict.groups] == [1.0, 2.0, 3.0]


def test_detector_merges_within_tolerance():
    derivs = np.empty((500, 2))
    derivs[:, 0] = 1.0
    derivs[:, 1] = 1.0 + 1e-9  # inside sync_tol * scale
    verdict = detect_consensus(derivs)
    assert verdict.kind is VerdictKind.GLOBAL


def test_detector_validation():
    with pytest.raises(ValueError):
        detect_consensus(np.ones((WINDOW, 2)))
    assert detect_consensus(np.ones((WINDOW + 1, 2))).kind is VerdictKind.GLOBAL


def zero_rate_ring() -> tuple[Digraph, NodeParams, SimConfig]:
    """Unit-gain 3-ring whose closed-form rate is exactly 0."""
    g = Digraph(3, [Edge((i + 1) % 3, i, 1.0, 0.02) for i in range(3)])
    params = NodeParams(weights=np.ones(3), stats=[1.0, -1.0, 0.0])
    return g, params, SimConfig(coupling=30.0, step_s=1e-3, horizon=6000)


def test_detector_reads_zero_rate_ring_as_global():
    verdict = detect_consensus(simulate(*zero_rate_ring()).derivs)
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
        verdict = detect_consensus(simulate(g, params, SimConfig(10.0, 1e-3, 6000)).derivs)
        assert verdict.kind is VerdictKind.GLOBAL, (n, verdict)
        assert abs(verdict.omega) < 1e-9


def test_verdict_json_dict():
    verdict = detect_consensus(np.full((300, 2), 7.0))
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
    dynamics.write_trajectory_csv(traj, path)

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
# The writer formats in-process whatever the CPU count: one CPU or two give
# the same bytes and start no child process.
CPU_SETS = pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "pooled"])


def _block_rows(width: int) -> int:
    """Rows per CSV block of a table ``width`` values wide."""
    return max(1, dynamics._CSV_BLOCK_VALUES // width)


@CPU_SETS
@settings(deadline=None, max_examples=12)
@given(blocks=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]),
       n=st.integers(1, 3),
       pool=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                     | st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_trajectory_csv_is_the_plain_repr_join(tmp_path_factory, cpus, blocks, n, pool, seed):
    # Whole blocks plus a few rows: one row, one short of a block, exactly
    # one block, one row over, and two blocks and a row.
    whole, extra = blocks
    rows = whole * _block_rows(1 + 2 * n) + extra
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(pool + list(SPECIAL_FLOATS)), size=(rows, 1 + 2 * n))
    traj = Trajectory(1e-3, values[:, 0], values[:, 1 : 1 + n], values[:, 1 + n :])
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        dynamics.write_trajectory_csv(traj, path)
    header = ",".join(["t"] + [f"x_{i}" for i in range(n)] + [f"xdot_{i}" for i in range(n)])
    assert path.read_bytes() == (header + "\n" + repr_join(values.tolist())).encode()
    assert multiprocessing.active_children() == []


def test_csv_block_keys_distinct_values_by_their_bits():
    # Float-keyed np.unique would merge 0.0 with -0.0; the bit view keeps
    # every value's own repr, NaNs of either sign and infinities included.
    specials = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
                5e-324, 1e-5, 1e16]
    step = _block_rows(7)
    values = np.random.default_rng(5).choice(np.array(specials), size=(step + 3, 7))
    values[0] = specials[:7]
    columns = (values[:, 0], values[:, 1:4], values[:, 4:])
    blocks = [block.tobytes() for block in dynamics._csv_blocks(columns)]
    assert len(blocks) == 2
    for start, got in zip((0, step), blocks):
        assert got == repr_join(values[start : start + step].tolist()).encode()
    assert blocks[0].startswith(b"0.0,-0.0,nan,nan,inf,-inf,5e-324\n")


def _near_edge_values() -> list:
    """Values in [1e-4, 1.2e-4) with a 16- or 15-digit candidate within 5**-18
    of an edge of their rounding interval, relative to its half-width.

    x = m * 2**-66 has its edges at (2m -+ 1) * 2**-67, and y = x * 10**20;
    solving 5**(20 - j) * (2m -+ 1) = 1 (mod 2**(47 + j)) puts a multiple of
    10**j that close to an edge.
    """
    values = []
    for j in (1, 2):
        half_mod = 2 ** (46 + j)
        for sign in (1, -1):
            m = (pow(5 ** (20 - j), -1, 2 * half_mod) + sign) % (2 * half_mod) // 2
            m += -(-(int(1e-4 * 2**66) - m) // half_mod) * half_mod
            values += [(m + i * half_mod) * 2.0**-66 for i in range(3)]
    return values


NEAR_EDGE = _near_edge_values()

# Ties between two candidates inside the rounding interval: at 16 digits
# (y = x * 10**k an integer ending in 5) and at 17 (y ending in .5).
TIES = [9690124307582.0625, -77256148706487.875, 961686587088387.75, 1e15 + 0.25, 1e15 + 0.75]


def _fallback_class(x: float) -> str:
    mag = abs(x)
    if x != x or mag == float("inf"):
        return "non-finite"
    if mag == 0.0 or mag < 2.2250738585072014e-308:
        return "zero" if mag == 0.0 else "subnormal"
    if not 1e-4 <= mag < 1e16:
        return "out of range"
    if np.frexp(mag)[0] == 0.5:
        return "power of two"
    return "tie" if x in TIES else "edge" if x in NEAR_EDGE else "other"


def test_csv_kernel_sweep_is_the_plain_repr_join_and_takes_every_fallback(monkeypatch):
    rng = np.random.default_rng(19)
    tens = 10.0 ** np.arange(-5, 18)
    places = 10.0 ** rng.integers(0, 8, 20_000)
    sweep = np.concatenate([
        rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64),
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens,
        2.0 ** np.arange(-30, 61), -(2.0 ** np.arange(-30, 61)),
        1e-4 * np.arange(20_000),
        np.rint(rng.normal(0.0, 1e3, 20_000) * places) / places,
        np.nextafter([1e-4, 1e-4, 1e16, 1e16], [0, 1, 0, 1e17]),
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e300, -1e-300],
        TIES, NEAR_EDGE,
    ])
    sweep = np.append(sweep, np.zeros(-sweep.size % 9)).reshape(-1, 9)
    fallen = []
    monkeypatch.setattr(dynamics, "repr", lambda x: fallen.append(x) or repr(x), raising=False)
    got = b"".join(dynamics._csv_blocks((sweep,)))
    assert got == repr_join(sweep.tolist()).encode()
    classes = {_fallback_class(x) for x in fallen}
    assert classes >= {"non-finite", "zero", "subnormal", "out of range", "power of two",
                       "edge"}
    assert "tie" not in classes  # ties go to the even candidate in the kernel


@settings(deadline=None, max_examples=40)
@given(blocks=st.sampled_from([(0, 1), (0, 2), (1, -1), (1, 1)]),
       cols=st.integers(1, 4),
       pool=st.lists(st.floats(), min_size=1, max_size=30),
       steps=st.none() | st.lists(st.integers(-(2**53) + 1, 2**53 - 1), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_csv_blocks_are_the_plain_repr_join(blocks, cols, pool, steps, seed):
    whole, extra = blocks
    rows = whole * _block_rows(cols + (steps is not None)) + extra
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(pool), size=(rows, cols))
    columns, lines = (values,), values.tolist()
    if steps is not None:
        ints = rng.choice(np.array(steps, dtype=np.int64), size=rows)
        columns, lines = (ints, values), [[i, *row] for i, row in zip(ints.tolist(), lines)]
    got = b"".join(dynamics._csv_blocks(columns))
    assert got == repr_join(lines).encode()


@settings(deadline=None, max_examples=30)
@given(width=st.sampled_from([1, 3, 19, 81]),
       rows=st.integers(1, 40),
       pool=st.lists(st.floats(), min_size=1, max_size=30),
       steps=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_csv_bytes_do_not_depend_on_the_block_budget(tmp_path_factory, width, rows, pool,
                                                     steps, seed):
    # Budgets of 1 and 7 values split every table into rows of their own or
    # a few; 81 fits whole rows of the narrow tables.  The default's own
    # splits are checked against the repr join above.
    rng = np.random.default_rng(seed)
    columns = (rng.choice(np.array(pool), size=(rows, width)),)
    if steps:
        columns = (rng.integers(-(2**53) + 1, 2**53, rows),) + columns
    header = ",".join(f"c{i}" for i in range(width + steps))
    written = []
    for budget in (1, 7, 81, dynamics._CSV_BLOCK_VALUES):
        path = tmp_path_factory.mktemp("csv") / "table.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_CSV_BLOCK_VALUES", budget)
            dynamics._write_csv(path, header, columns)
        written.append(path.read_bytes())
    assert written[1:] == written[:1] * 3


def test_trajectory_csv_memory_is_bounded_by_the_block():
    # An 81-column trajectory (40 nodes) is written in blocks whose
    # temporaries, not the table, set the writer's traced peak: about 12k
    # rows, then the same blocks four times over, peak no higher.
    rng = np.random.default_rng(3)
    rows = 30 * _block_rows(81)
    table = np.column_stack([np.arange(rows) * 1e-3, rng.normal(size=(rows, 40)),
                             np.round(rng.normal(size=(rows, 40)), 4)])
    peaks = []
    for copies in (1, 4):
        values = np.tile(table, (copies, 1))
        traj = Trajectory(1e-3, values[:, 0], values[:, 1:41], values[:, 41:])
        tracemalloc.start()
        try:
            dynamics.write_trajectory_csv(traj, os.devnull)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 8e6
    assert peaks[1] <= peaks[0]


def test_integer_csv_columns_must_be_exact_as_floats():
    with pytest.raises(ValueError, match="2\\*\\*53"):
        dynamics._csv_block([np.array([2**53]), np.zeros(1)])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_csv_write_raises_oserror():
    traj = Trajectory(1e-3, np.zeros(3000), np.zeros((3000, 2)), np.zeros((3000, 2)))
    with pytest.raises(OSError) as err:
        dynamics.write_trajectory_csv(traj, "/dev/full")
    assert err.value.errno == errno.ENOSPC
