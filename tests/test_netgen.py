"""Radio-network generation: placement, channel model, connectivity retry."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsync import (
    ConnectivityClass,
    Fading,
    GenerationBudgetError,
    RadioConfig,
    build_channel,
    classify,
    ensure_connectivity,
    place_nodes,
)

from _oracles import dense_build_channel


# === Config validation ===

def test_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(n=0)
    with pytest.raises(ValueError):
        RadioConfig(n=3, hear_threshold=-0.1)
    with pytest.raises(ValueError):
        RadioConfig(n=3, tx_power=(1.0, 2.0))  # wrong length
    with pytest.raises(ValueError):
        RadioConfig(n=2, tx_power=-1.0)
    with pytest.raises(ValueError):
        RadioConfig(n=2, wave_speed=0.0)
    with pytest.raises(ValueError):
        RadioConfig(n=2, delay_offset_s=-1e-9)
    with pytest.raises(ValueError):
        RadioConfig(n=2, seed=-1)


@pytest.mark.parametrize("field", [
    "hear_threshold", "path_loss_exponent", "wave_speed", "delay_offset_s", "delay_span_s",
])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        RadioConfig(n=2, **{field: float("nan")})


def test_infinite_wave_speed_means_zero_delays():
    cfg = RadioConfig(n=4, wave_speed=float("inf"), seed=3)
    g = build_channel(cfg, place_nodes(cfg))
    assert g.dst.size > 0 and np.all(g.delay_s == 0.0)


# === Placement ===

def test_place_nodes_shape_and_bounds():
    cfg = RadioConfig(n=50, area_side=3.0, seed=11)
    pos = place_nodes(cfg)
    assert pos.shape == (50, 2)
    assert np.all(pos >= 0.0) and np.all(pos <= 3.0)


def test_generation_is_deterministic():
    cfg = RadioConfig(n=12, fading=Fading.RAYLEIGH, hear_threshold=0.2, seed=42)
    pos1, pos2 = place_nodes(cfg), place_nodes(cfg)
    assert np.array_equal(pos1, pos2)
    g1, g2 = build_channel(cfg, pos1), build_channel(cfg, pos2)
    assert g1 == g2

    other = RadioConfig(n=12, fading=Fading.RAYLEIGH, hear_threshold=0.2, seed=43)
    assert build_channel(other, place_nodes(other)) != g1


# === Channel model, no fading ===

def test_path_loss_amplitude_exact():
    cfg = RadioConfig(n=3, tx_power=(4.0, 9.0, 1.0), path_loss_exponent=2.0)
    pos = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.5]])
    g = build_channel(cfg, pos)
    a = g.gain_matrix()
    # a[dst, src] = sqrt(P_src / d^eta)
    assert a[0, 1] == pytest.approx(np.sqrt(9.0 / 9.0), rel=1e-15)
    assert a[1, 0] == pytest.approx(np.sqrt(4.0 / 9.0), rel=1e-15)
    assert a[0, 2] == pytest.approx(np.sqrt(1.0 / 0.25), rel=1e-15)
    assert a[2, 0] == pytest.approx(np.sqrt(4.0 / 0.25), rel=1e-15)


def test_coincident_nodes_rejected_under_path_loss():
    cfg = RadioConfig(n=2, path_loss_exponent=2.0)
    pos = np.zeros((2, 2))
    with pytest.raises(ValueError):
        build_channel(cfg, pos)
    # With a zero exponent the gain is distance-free and coincidence is fine.
    flat = RadioConfig(n=2, path_loss_exponent=0.0)
    g = build_channel(flat, pos)
    assert len(g.edges) == 2


def test_hearing_threshold_gates_edges():
    cfg = RadioConfig(n=20, fading=Fading.RAYLEIGH, seed=5)
    pos = place_nodes(cfg)
    full = build_channel(cfg, pos).gain_matrix()
    thr = float(np.median(full[full > 0]))
    graph = build_channel(
        RadioConfig(n=20, fading=Fading.RAYLEIGH, hear_threshold=thr, seed=5), pos
    )
    expect = np.where(full >= thr, full, 0.0)
    assert np.array_equal(graph.gain_matrix(), expect)
    # Edges come out in row-major (dst, src) order.
    assert np.all(np.diff(graph.dst * 20 + graph.src) > 0)


# === Rayleigh fading statistics ===

def test_rayleigh_mean_square_amplitude():
    """E[a^2] = P_src / (1 + d^2), within sampling error over ~10k links."""
    n = 100
    cfg = RadioConfig(n=n, area_side=1.0, tx_power=2.5, fading=Fading.RAYLEIGH, seed=123)
    pos = place_nodes(cfg)
    amp = build_channel(cfg, pos).gain_matrix()
    diff = pos[:, None, :] - pos[None, :, :]
    dist2 = (diff**2).sum(axis=2)
    off = ~np.eye(n, dtype=bool)
    ratio = amp[off] ** 2 * (1.0 + dist2[off]) / 2.5
    # Each entry is half a squared unit-Rayleigh draw: mean 1, variance 1.
    assert abs(ratio.mean() - 1.0) < 4.0 / np.sqrt(ratio.size)


def test_rayleigh_directions_independent():
    n = 80
    cfg = RadioConfig(n=n, fading=Fading.RAYLEIGH, seed=9)
    amp = build_channel(cfg, place_nodes(cfg)).gain_matrix()
    iu = np.triu_indices(n, k=1)
    fwd, bwd = amp[iu], amp.T[iu]
    corr = np.corrcoef(fwd, bwd)[0, 1]
    assert abs(corr) < 0.05
    assert not np.array_equal(fwd, bwd)


# === Delays ===

def test_delay_formula_exact():
    cfg = RadioConfig(n=2, wave_speed=10.0, delay_offset_s=0.25)
    pos = np.array([[0.0, 0.0], [3.0, 4.0]])  # distance 5
    g = build_channel(cfg, pos)
    for e in g.edges:
        assert e.delay_s == 0.25 + 5.0 / 10.0


def test_delay_span_solves_wave_speed():
    cfg = RadioConfig(n=30, delay_span_s=0.1, seed=77)
    pos = place_nodes(cfg)
    g = build_channel(cfg, pos)
    assert g.delay_s.max() == pytest.approx(0.1, rel=1e-12)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    # With no offset, each link's delay is its distance over the wave speed.
    wave = dist[g.dst, g.src] / g.delay_s
    assert wave == pytest.approx(np.full(g.dst.size, dist.max() / 0.1), rel=1e-12)


@pytest.mark.parametrize("n", [5, 40, 200])
@pytest.mark.parametrize("fading", list(Fading))
@pytest.mark.parametrize("span", [None, 0.05])
def test_build_channel_matches_an_independent_computation(n, fading, span):
    # Pure path loss gives amplitudes 1/d >= 1/sqrt(2) in the unit square,
    # so its threshold is higher to gate some pairs.
    threshold = 2.0 if fading is Fading.NONE else 0.3
    for seed in (0, 1, 2):
        cfg = RadioConfig(n=n, fading=fading, hear_threshold=threshold, delay_offset_s=1e-3,
                          delay_span_s=span, wave_speed=40.0, seed=seed)
        pos = place_nodes(cfg)
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        off_diag = ~np.eye(n, dtype=bool)
        if fading is Fading.NONE:
            amp = np.sqrt(1.0 / np.where(off_diag, dist, 1.0) ** 2.0)
        else:
            draws = np.random.default_rng(np.random.SeedSequence([seed, 1])).rayleigh(
                scale=1.0, size=(n, n))
            amp = draws * np.sqrt(1.0 / (2.0 * (1.0 + dist**2)))
        wave = 40.0 if span is None else dist.max() / span
        dst, src = np.nonzero(off_diag & (amp >= threshold))
        g = build_channel(cfg, pos)
        assert 0 < dst.size < n * (n - 1)
        for got, want in ((g.dst, dst), (g.src, src), (g.gain, amp[dst, src]),
                          (g.delay_s, 1e-3 + dist[dst, src] / wave)):
            assert np.array_equal(got, want)


@settings(deadline=None, max_examples=80)
@given(n=st.integers(1, 30), fading=st.sampled_from(list(Fading)),
       area=st.sampled_from([1.0, 0.0, 30.0]), eta=st.sampled_from([0.0, 2.0, 3.5]),
       threshold=st.floats(0.0, 2.0), span=st.sampled_from([None, 0.0, 0.05]),
       offset=st.sampled_from([0.0, 1e-3, 0.0173]), per_node=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_build_channel_is_the_dense_oracle_bitwise(n, fading, area, eta, threshold, span,
                                                   offset, per_node, seed, data):
    powers = st.floats(0.1, 10.0)
    tx_power = (tuple(data.draw(st.lists(powers, min_size=n, max_size=n))) if per_node
                else data.draw(powers))
    cfg = RadioConfig(n=n, area_side=area, tx_power=tx_power, path_loss_exponent=eta,
                      hear_threshold=threshold, fading=fading, wave_speed=40.0,
                      delay_offset_s=offset, delay_span_s=span, seed=seed)
    pos = place_nodes(cfg)
    try:
        want = dense_build_channel(cfg, pos)
    except ValueError as exc:  # coincident nodes, the same error either way
        with pytest.raises(ValueError, match=str(exc)):
            build_channel(cfg, pos)
        return
    got = build_channel(cfg, pos)
    for name in ("dst", "src", "gain", "delay_s"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fading, threshold", [(Fading.RAYLEIGH, 0.1), (Fading.NONE, 0.0)])
def test_build_channel_peak_memory_at_n640(fading, threshold):
    # The bench's large network: nearly every pair is heard, so each n x n
    # or per-link array is about 3.3 MB.  Dense n x n arithmetic with a
    # fresh array per operation peaked at 48.7e6 bytes on the Rayleigh draw.
    cfg = RadioConfig(n=640, fading=fading, hear_threshold=threshold, delay_span_s=0.05,
                      seed=1)
    pos = place_nodes(cfg)
    tracemalloc.start()
    try:
        g = build_channel(cfg, pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.dst.size > 390_000
    assert peak <= 33e6


def test_delay_span_zero_means_no_delay():
    cfg = RadioConfig(n=10, delay_span_s=0.0, seed=3)
    g = build_channel(cfg, place_nodes(cfg))
    assert all(e.delay_s == 0.0 for e in g.edges)


def test_delay_span_needs_two_distinct_positions_only_when_links_exist():
    # A lone node has no links, so any wave speed serves its delay span.
    net = ensure_connectivity(RadioConfig(n=1, delay_span_s=0.02), "SC")
    assert net.graph.n == 1 and net.graph.dst.size == 0
    assert classify(net.graph).kind is ConnectivityClass.SC
    # Two or more coincident nodes leave the span unsolvable.
    coincident = RadioConfig(n=2, area_side=0.0, fading=Fading.RAYLEIGH, delay_span_s=0.02)
    with pytest.raises(ValueError, match="all nodes are coincident"):
        ensure_connectivity(coincident, "SC")


# === Connectivity retry loop ===

def test_ensure_connectivity_reaches_sc():
    cfg = RadioConfig(n=15, fading=Fading.RAYLEIGH, hear_threshold=0.3, seed=2)
    net = ensure_connectivity(cfg, "SC")
    assert classify(net.graph).kind is ConnectivityClass.SC
    assert net.attempts >= 1
    assert net.positions.shape == (15, 2)

    again = ensure_connectivity(cfg, "SC")
    assert again.graph == net.graph
    assert again.attempts == net.attempts


def test_ensure_connectivity_qsc_accepts_sc():
    cfg = RadioConfig(n=10, fading=Fading.RAYLEIGH, seed=4)
    net = ensure_connectivity(cfg, "QSC")
    assert classify(net.graph).kind in (
        ConnectivityClass.SC,
        ConnectivityClass.QSC_NOT_SC,
    )


def test_ensure_connectivity_budget_error():
    # An absurd threshold with no decay can never produce edges.
    cfg = RadioConfig(n=2, fading=Fading.RAYLEIGH, hear_threshold=1e9, seed=0)
    with pytest.raises(GenerationBudgetError) as info:
        ensure_connectivity(cfg, "SC", max_attempts=3, threshold_decay=1.0)
    assert info.value.attempts == 3


def test_ensure_connectivity_rejects_bad_target():
    cfg = RadioConfig(n=3)
    with pytest.raises(ValueError):
        ensure_connectivity(cfg, "WC")
