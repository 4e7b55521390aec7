"""Command-line harness: wire formats, flag/config merging, exit codes."""
import json
import subprocess
import sys

import pytest

from selfsync.cli import main


@pytest.fixture()
def chain_files(tmp_path):
    """Two-node chain (1 hears 0) plus explicit statistics."""
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "n": 2,
        "edges": [{"dst": 1, "src": 0, "gain": 1.0, "delay_s": 0.01}],
    }))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"c": [1.0, 1.0], "u": [3.0, -1.0]}))
    return graph, params


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === analyze ===

def test_analyze_stdout(chain_files, capsys):
    graph, _ = chain_files
    code, out, _ = run_cli(["analyze", "--graph", graph], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "QSC_NOT_SC"
    assert doc["influence"] == [1.0, 0.0]


def test_analyze_out_file(chain_files, tmp_path, capsys):
    graph, _ = chain_files
    out = tmp_path / "report.json"
    code, printed, _ = run_cli(["analyze", "--graph", graph, "--out", out], capsys)
    assert code == 0 and printed == ""
    assert json.loads(out.read_text())["class"] == "QSC_NOT_SC"


# === predict ===

def test_predict_root_statistic(chain_files, capsys):
    graph, params = chain_files
    code, out, _ = run_cli(["predict", "--graph", graph, "--params", params], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["global_omega"] == 3.0
    assert doc["clusters"][0]["root"] == [0]


def test_predict_ml_params(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "n": 2,
        "edges": [
            {"dst": 0, "src": 1, "gain": 1.0, "delay_s": 0.0},
            {"dst": 1, "src": 0, "gain": 1.0, "delay_s": 0.0},
        ],
    }))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"A": [1.0, 2.0], "sigma2": [1.0, 1.0], "y": [1.0, 4.0]}))
    code, out, _ = run_cli(["predict", "--graph", graph, "--params", params], capsys)
    assert code == 0
    assert json.loads(out)["global_omega"] == pytest.approx(9.0 / 5.0, rel=1e-12)


# === simulate ===

def test_simulate_writes_csv(chain_files, tmp_path, capsys):
    graph, params = chain_files
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        ["simulate", "--graph", graph, "--params", params,
         "--horizon", 50, "--out", out], capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_0,x_1,xdot_0,xdot_1"
    assert len(lines) == 51


def test_simulate_constant_init(chain_files, tmp_path, capsys):
    graph, params = chain_files
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        ["simulate", "--graph", graph, "--params", params, "--horizon", 5,
         "--init", "constant:2.5", "--out", out], capsys,
    )
    assert code == 0
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[1]) == 2.5 and float(first[2]) == 2.5


def test_simulate_random_init_is_seeded(chain_files, tmp_path, capsys):
    graph, params = chain_files
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    for out, seed in ((out1, 5), (out2, 5), (out3, 6)):
        code, _, _ = run_cli(
            ["simulate", "--graph", graph, "--params", params, "--horizon", 20,
             "--init", "random", "--seed", seed, "--out", out], capsys,
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_simulate_requires_horizon_and_out(chain_files, capsys):
    graph, params = chain_files
    code, _, err = run_cli(["simulate", "--graph", graph, "--params", params,
                            "--out", "/tmp/x.csv"], capsys)
    assert code == 1
    code, _, err = run_cli(["simulate", "--graph", graph, "--params", params,
                            "--horizon", 10], capsys)
    assert code == 1
    assert "out" in err


# === debias ===

def test_debias_json(chain_files, capsys):
    graph, params = chain_files
    code, out, _ = run_cli(
        ["debias", "--graph", graph, "--params", params, "--horizon", 2000,
         "--decision", "identity"], capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"] == pytest.approx(3.0, abs=1e-8)
    assert doc["mode"] == "SIMULATED"
    assert doc["decision"] == pytest.approx(3.0, abs=1e-8)


def test_debias_analytic_mode(chain_files, capsys):
    graph, params = chain_files
    code, out, _ = run_cli(
        ["debias", "--graph", graph, "--params", params, "--mode", "analytic"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "ANALYTIC"
    assert doc["estimate"] == 3.0


def test_debias_disconnected_is_numerical_failure(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "n": 4,
        "edges": [
            {"dst": 0, "src": 1, "gain": 1.0, "delay_s": 0.0},
            {"dst": 1, "src": 0, "gain": 1.0, "delay_s": 0.0},
            {"dst": 2, "src": 3, "gain": 1.0, "delay_s": 0.0},
            {"dst": 3, "src": 2, "gain": 1.0, "delay_s": 0.0},
        ],
    }))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"c": [1.0] * 4, "u": [1.0, 1.0, 2.0, 2.0]}))
    code, _, err = run_cli(
        ["debias", "--graph", graph, "--params", params, "--horizon", 500], capsys
    )
    assert code == 3
    assert "numerical failure" in err


# === study ===

def test_study_writes_outputs(tmp_path, capsys):
    outdir = tmp_path / "study"
    code, _, _ = run_cli(
        ["study", "--preset", "forest", "--outdir", outdir, "--horizon", 6000],
        capsys,
    )
    assert code == 0
    doc = json.loads((outdir / "prediction.json").read_text())
    assert doc["class"] == "WC_NOT_QSC"
    assert doc["unresolved"] == [6, 7]
    assert doc["detected"]["verdict"] == "CLUSTERED"
    assert (outdir / "trajectory.csv").read_text().startswith("t,x_0")


def test_study_rejects_preset_plus_graph(chain_files, tmp_path, capsys):
    graph, _ = chain_files
    code, _, _ = run_cli(
        ["study", "--preset", "chain", "--graph", graph, "--outdir", tmp_path],
        capsys,
    )
    assert code == 1


def test_study_unknown_preset(tmp_path, capsys):
    code, _, err = run_cli(["study", "--preset", "torus", "--outdir", tmp_path], capsys)
    assert code == 1
    assert "preset" in err


# === mc-estimate ===

def test_mc_estimate_small(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, printed, _ = run_cli(
        ["mc-estimate", "--nodes", 6, "--runs", 2, "--horizon", 200, "--out", out],
        capsys,
    )
    assert code == 0
    doc = json.loads(printed)
    assert doc["runs"] == 2
    assert out.read_text().startswith("step,mean_a")


def test_mc_estimate_budget_failure(tmp_path, capsys):
    code, _, err = run_cli(
        ["mc-estimate", "--nodes", 2, "--runs", 1, "--horizon", 100,
         "--hear-threshold", 1e12, "--max-attempts", 1,
         "--out", tmp_path / "mc.csv"], capsys,
    )
    assert code == 3
    assert "numerical failure" in err


# === config file merging ===

def test_config_supplies_defaults_flags_override(chain_files, tmp_path, capsys):
    graph, params = chain_files
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "mode": "SIMULATE",
        "graph": str(graph),
        "params": str(params),
        "horizon": 10,
        "out": str(tmp_path / "from_config.csv"),
    }))
    code, _, _ = run_cli(["simulate", "--config", config], capsys)
    assert code == 0
    assert len((tmp_path / "from_config.csv").read_text().splitlines()) == 11

    override = tmp_path / "override.csv"
    code, _, _ = run_cli(
        ["simulate", "--config", config, "--horizon", 25, "--out", override], capsys
    )
    assert code == 0
    assert len(override.read_text().splitlines()) == 26


def test_config_mode_mismatch(chain_files, tmp_path, capsys):
    graph, _ = chain_files
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "PREDICT"}))
    code, _, err = run_cli(["analyze", "--graph", graph, "--config", config], capsys)
    assert code == 1
    assert "mode" in err


def test_config_malformed_json(chain_files, tmp_path, capsys):
    graph, _ = chain_files
    config = tmp_path / "cfg.json"
    config.write_text("{oops")
    code, _, _ = run_cli(["analyze", "--graph", graph, "--config", config], capsys)
    assert code == 2


# === data-error exit codes ===

def test_missing_graph_file(capsys):
    code, _, err = run_cli(["analyze", "--graph", "/nonexistent/g.json"], capsys)
    assert code == 2
    assert "data error" in err


def test_malformed_graph_file(tmp_path, capsys):
    bad = tmp_path / "g.json"
    bad.write_text("not json at all")
    code, _, _ = run_cli(["analyze", "--graph", bad], capsys)
    assert code == 2


def test_params_length_mismatch(chain_files, tmp_path, capsys):
    graph, _ = chain_files
    params = tmp_path / "p3.json"
    params.write_text(json.dumps({"c": [1.0] * 3, "u": [1.0] * 3}))
    code, _, _ = run_cli(["predict", "--graph", graph, "--params", params], capsys)
    assert code == 2


def test_params_unknown_shape(chain_files, tmp_path, capsys):
    graph, _ = chain_files
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"watts": [1.0, 2.0]}))
    code, _, _ = run_cli(["predict", "--graph", graph, "--params", params], capsys)
    assert code == 2


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_missing_graph_flag(capsys):
    code, _, err = run_cli(["analyze"], capsys)
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("argv, config", [
    (["debias", "--graph", "{graph}", "--params", "{params}", "--horizon", 100], None),
    (["study", "--preset", "chain", "--horizon", 150, "--outdir", "{tmp}/study"], None),
    (["simulate", "--graph", "{graph}", "--params", "{params}", "--out", "{tmp}/t.csv"],
     {"horizon": "abc"}),
    (["predict", "--graph", "{graph}", "--params", "{params}"], {"seed": "x"}),
    (["mc-estimate", "--out", "{tmp}/mc.csv"], {"seed": -1}),
    (["predict", "--graph", "{graph}", "--params", "{params}"], {"coupling": "abc"}),
    (["debias", "--graph", "{graph}", "--params", "{params}", "--mode", "analytic",
      "--decision", "bogus"], None),
    (["analyze"], {"graph": 5}),
    (["predict", "--graph", "{graph}"], {"params": [1]}),
    (["simulate", "--graph", "{graph}", "--params", "{params}", "--horizon", 10,
      "--out", "{tmp}/t.csv"], {"init": 5}),
    (["study", "--preset", "chain", "--horizon", 300], {"outdir": 5}),
    (["analyze", "--graph", "{graph}", "--out", "{tmp}/missing/report.json"], None),
    (["simulate", "--graph", "{graph}", "--params", "{params}", "--horizon", 10,
      "--out", "{tmp}/missing/t.csv"], None),
    (["study", "--preset", "chain", "--horizon", 300, "--outdir", "{graph}/study"], None),
    (["mc-estimate", "--nodes", 4, "--runs", 1, "--horizon", 10,
      "--out", "{tmp}/missing/mc.csv"], None),
])
def test_bad_values_are_usage_errors(chain_files, tmp_path, capsys, argv, config):
    graph, params = chain_files
    args = [str(a).format(graph=graph, params=params, tmp=tmp_path) for a in argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert err.startswith("usage error:")
    assert "Traceback" not in err


# === params with seeded observations ===

def test_params_truth_draws_seeded_observations(chain_files, tmp_path, capsys):
    graph, _ = chain_files
    params = tmp_path / "ml.json"
    params.write_text(json.dumps({"A": [1.0, 1.0], "sigma2": [0.01, 0.01], "truth": 2.0}))
    code, out1, _ = run_cli(
        ["debias", "--graph", graph, "--params", params, "--mode", "analytic",
         "--seed", 3], capsys,
    )
    assert code == 0
    code, out2, _ = run_cli(
        ["debias", "--graph", graph, "--params", params, "--mode", "analytic",
         "--seed", 3], capsys,
    )
    assert out1 == out2
    est = json.loads(out1)["estimate"]
    assert est == pytest.approx(2.0, abs=0.5)

    code, out3, _ = run_cli(
        ["debias", "--graph", graph, "--params", params, "--mode", "analytic",
         "--seed", 4], capsys,
    )
    assert json.loads(out3)["estimate"] != est


# === module entry point ===

def test_python_dash_m_entry(chain_files, tmp_path):
    graph, _ = chain_files
    proc = subprocess.run(
        [sys.executable, "-m", "selfsync", "analyze", "--graph", str(graph)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"] == "QSC_NOT_SC"

    bad = subprocess.run(
        [sys.executable, "-m", "selfsync", "analyze", "--graph", "/missing.json"],
        capture_output=True, text=True,
    )
    assert bad.returncode == 2
