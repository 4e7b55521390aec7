"""Command-line harness: wire formats, flag/config merging, exit codes."""
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsync import cli, dynamics, load_graph
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


@pytest.mark.parametrize("coupling, code, tail", [
    (150, 0, " (consensus under any lag is still guaranteed below 1)\n"),
    # Past stiffness 1 the run may never settle: the NONE names no horizon.
    (1500, 3, ", and at 1 or more consensus under any lag is no longer guaranteed\n"
              "numerical failure: statistic run did not reach global sync (verdict NONE)\n"),
])
def test_step_size_warning_is_one_stderr_line(tmp_path, capsys, coupling, code, tail):
    graph, params = tmp_path / "ring.json", tmp_path / "p.json"
    graph.write_text(json.dumps({"n": 3, "edges": [
        {"dst": (i + 1) % 3, "src": i, "gain": 1.0, "delay_s": 0.02} for i in range(3)]}))
    params.write_text(json.dumps({"c": [1.0] * 3, "u": [1.0, -1.0, 0.0]}))
    argv = ["debias", "--graph", graph, "--params", params, "--mode", "simulated",
            "--coupling", coupling]
    for _ in range(2):  # shown on every call, not once per process
        got, _, err = run_cli(argv, capsys)
        assert got == code
        assert err == (f"warning: step_s * coupling rate reaches {coupling / 1000:g}, over the "
                       "accuracy guard 0.1: expect a stiff, possibly inaccurate integration"
                       + tail)


def test_one_parser_serves_every_call(chain_files, capsys):
    # main builds its parser once per process; calls that alternate
    # subcommands and usage errors read as if each had a fresh parser.
    graph, params = chain_files
    calls = [
        ["analyze", "--graph", graph],
        ["predict", "--graph", graph, "--bogus", 1],
        ["predict", "--graph", graph, "--params", params],
        ["simulate", "--graph", graph, "--params", params],
        ["frobnicate"],
        ["debias", "--graph", graph, "--params", params, "--mode", "analytic"],
        ["analyze", "--graph", graph],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    assert [code for code, _, _ in fresh] == [0, 1, 0, 1, 1, 0, 0]
    assert [run_cli(argv, capsys) for argv in calls] == fresh
    assert cli._build_parser() is cli._build_parser()


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


def test_mc_estimate_divergence_is_one_line_numerical_failure(tmp_path, capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dynamics.StepSizeWarning)
        code, printed, err = run_cli(
            ["mc-estimate", "--nodes", 6, "--runs", 3, "--horizon", 2000,
             "--coupling", 2000, "--seed", 3, "--out", tmp_path / "mc.csv"], capsys,
        )
    assert code == 3
    assert printed == ""
    assert err == "numerical failure: runs 0-2: non-finite derivative at step 286\n"


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


@pytest.mark.parametrize("bad", ["directory", "binary"])
@pytest.mark.parametrize("argv", [
    ["analyze", "--graph", "{bad}"],
    ["analyze", "--graph", "{graph}", "--config", "{bad}"],
    ["predict", "--graph", "{graph}", "--params", "{bad}"],
])
def test_unreadable_input_files_are_data_errors(chain_files, tmp_path, capsys, argv, bad):
    graph, _ = chain_files
    path = tmp_path
    if bad == "binary":
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe\x00{")
    code, _, err = run_cli([a.format(graph=graph, bad=path) for a in argv], capsys)
    assert code == 2
    assert err.startswith("data error:")
    assert "Traceback" not in err


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


def test_params_truth_with_negative_variance_is_data_error(chain_files, tmp_path, capsys):
    graph, _ = chain_files
    params = tmp_path / "ml.json"
    params.write_text(json.dumps({"A": [1.0, 1.0], "sigma2": [-1.0, 1.0], "truth": 2.0}))
    code, _, err = run_cli(["predict", "--graph", graph, "--params", params], capsys)
    assert code == 2
    assert err.startswith("data error:") and "variances" in err


_PARAMS_BASES = {
    "c": {"c": [1.0, 1.0], "u": [3.0, -1.0]},
    "u": {"c": [1.0, 1.0], "u": [3.0, -1.0]},
    "A": {"A": [1.0, 2.0], "sigma2": [1.0, 1.0], "y": [1.0, 4.0]},
    "sigma2": {"A": [1.0, 2.0], "sigma2": [1.0, 1.0], "y": [1.0, 4.0]},
    "y": {"A": [1.0, 2.0], "sigma2": [1.0, 1.0], "y": [1.0, 4.0]},
    "truth": {"A": [1.0, 1.0], "sigma2": [1.0, 1.0], "truth": 2.0},
}


@pytest.mark.parametrize("bad", ["1", True, float("nan"), float("inf"), 10**400],
                         ids=["string", "bool", "nan", "inf", "huge"])
@pytest.mark.parametrize("field", list(_PARAMS_BASES))
def test_params_fields_must_be_finite_numbers(chain_files, tmp_path, capsys, field, bad):
    graph, _ = chain_files
    doc = dict(_PARAMS_BASES[field])
    doc[field] = bad if field == "truth" else [bad, 1.0]
    params = tmp_path / "p.json"
    params.write_text(json.dumps(doc))
    code, out, err = run_cli(["predict", "--graph", graph, "--params", params], capsys)
    assert code == 2 and out == ""
    assert err.startswith("data error:") and f"{field} must" in err
    assert "Traceback" not in err


def test_params_bases_are_valid(chain_files, tmp_path, capsys):
    graph, _ = chain_files
    for doc in _PARAMS_BASES.values():
        params = tmp_path / "p.json"
        params.write_text(json.dumps(doc))
        code, _, _ = run_cli(["predict", "--graph", graph, "--params", params], capsys)
        assert code == 0


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
    *[(["simulate", "--graph", "{graph}", "--params", "{params}", "--horizon", 10,
        "--init", f"constant:{v}", "--out", "{tmp}/t.csv"], None)
      for v in ("nan", "inf", "-inf", "1e400")],
    *[(["debias", "--graph", "{graph}", "--params", "{params}", "--mode", "analytic",
        "--decision", f"threshold:{v}"], None) for v in ("nan", "inf", "-inf")],
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


# === config contract: keys are option names, values are checked ===

# Every option of every subcommand, as its config key, and the kind of value
# it takes; --config is the only flag without a key.
_KEYS = {
    "analyze": {"graph": "text", "out": "text", "seed": "number"},
    "predict": {"graph": "text", "params": "text", "coupling": "number",
                "quantize_step": "number", "out": "text", "seed": "number"},
    "simulate": {"graph": "text", "params": "text", "ts": "number", "horizon": "number",
                 "coupling": "number", "init": "text", "out": "text", "seed": "number"},
    "debias": {"graph": "text", "params": "text", "ts": "number", "horizon": "number",
               "coupling": "number", "mode_choice": "text", "decision": "text",
               "out": "text", "seed": "number"},
    "study": {"preset": "text", "graph": "text", "params": "text", "ts": "number",
              "coupling": "number", "horizon": "number", "lag_steps": "number",
              "outdir": "text", "seed": "number"},
    "mc-estimate": {"nodes": "number", "runs": "number", "coupling": "number", "ts": "number",
                    "horizon": "number", "delay_span_steps": "number",
                    "hear_threshold": "number", "tx_power": "number", "amplitude": "number",
                    "noise_var": "number", "truth": "number", "max_attempts": "number",
                    "out": "text", "seed": "number"},
}
_WRONG = {"text": [5], "number": ["1", True]}
# A config that runs each subcommand quickly when no key is spoiled.
_BASE = {
    "analyze": {"graph": "{graph}"},
    "predict": {"graph": "{graph}", "params": "{params}"},
    "simulate": {"graph": "{graph}", "params": "{params}", "horizon": 10, "out": "{tmp}/t.csv"},
    "debias": {"graph": "{graph}", "params": "{params}", "mode_choice": "analytic"},
    "study": {"horizon": 300, "outdir": "{tmp}/study"},
    "mc-estimate": {"nodes": 4, "runs": 1, "horizon": 50, "out": "{tmp}/mc.csv"},
}


def _run_with_config(command, config, files, capsys, argv=()):
    graph, params, tmp = files
    doc = {k: v.format(graph=graph, params=params, tmp=tmp) if isinstance(v, str) else v
           for k, v in config.items()}
    path = tmp / "cfg.json"
    path.write_text(json.dumps(doc))
    return run_cli([command, "--config", path, *argv], capsys)


@pytest.mark.parametrize("command, key, value", [
    (command, key, value)
    for command, keys in _KEYS.items()
    for key, kind in keys.items()
    for value in _WRONG[kind]
])
def test_wrong_typed_config_values_are_usage_errors(chain_files, tmp_path, capsys,
                                                    command, key, value):
    files = (*chain_files, tmp_path)
    code, _, err = _run_with_config(command, {**_BASE[command], key: value}, files, capsys)
    assert code == 1
    assert err.startswith("usage error:") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, key", [("predict", "coupling"), ("mc-estimate", "truth")])
def test_config_numbers_beyond_float_range_are_usage_errors(chain_files, tmp_path, capsys,
                                                            command, key):
    files = (*chain_files, tmp_path)
    code, _, err = _run_with_config(command, {**_BASE[command], key: 10**400}, files, capsys)
    assert code == 1
    assert err.startswith("usage error:") and key in err


def test_config_base_runs_every_subcommand(chain_files, tmp_path, capsys):
    for command, config in _BASE.items():
        code, _, err = _run_with_config(command, config, (*chain_files, tmp_path), capsys)
        assert code == 0, (command, err)


def test_config_runs_key_sets_the_run_count(tmp_path, capsys):
    config = {"runs": 1, "nodes": 4, "horizon": 50, "out": "{tmp}/mc.csv"}
    code, out, err = _run_with_config("mc-estimate", config, (None, None, tmp_path), capsys)
    assert code == 0, err
    assert json.loads(out)["runs"] == 1


@pytest.mark.parametrize("key", ["horizn", "mc_runs", "config"])
def test_unknown_config_keys_are_usage_errors(tmp_path, capsys, key):
    code, _, err = _run_with_config(
        "mc-estimate", {key: 1}, (None, None, tmp_path), capsys,
        argv=["--nodes", 4, "--runs", 1, "--horizon", 50, "--out", tmp_path / "mc.csv"],
    )
    assert code == 1
    assert err.startswith("usage error:") and repr(key) in err


@pytest.mark.parametrize("argv", [
    ["mc-estimate", "--hear-threshold", "nan", "--out", "{tmp}/mc.csv"],
    ["analyze", "--graph", "{graph}", "--seed", -1],
    ["predict", "--graph", "{tmp}/missing.json", "--params", "{params}", "--coupling", -1],
    ["study", "--params", "{params}", "--outdir", "{tmp}/study"],
])
def test_flag_values_are_checked_before_files_are_read(chain_files, tmp_path, capsys, argv):
    graph, params = chain_files
    args = [str(a).format(graph=graph, params=params, tmp=tmp_path) for a in argv]
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert err.startswith("usage error:")


@pytest.mark.parametrize("command, mode", [
    ("simulate", "simulate"), ("simulate", "Simulate"),
    ("mc-estimate", "mc-estimate"), ("mc-estimate", "MC_ESTIMATE"), ("mc-estimate", "mc_estimate"),
])
def test_config_mode_names_the_subcommand_in_any_case(chain_files, tmp_path, capsys,
                                                      command, mode):
    files = (*chain_files, tmp_path)
    code, _, err = _run_with_config(command, {**_BASE[command], "mode": mode}, files, capsys)
    assert code == 0, err


@pytest.mark.parametrize("mode", [5, None, "predict", "analyze_x"])
def test_config_mode_must_be_the_subcommand_name(chain_files, tmp_path, capsys, mode):
    files = (*chain_files, tmp_path)
    code, _, err = _run_with_config("analyze", {**_BASE["analyze"], "mode": mode}, files, capsys)
    assert code == 1
    assert err.startswith("usage error:") and "mode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(_KEYS))
def test_help_lists_each_flag_once(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    flags = ["--mode" if key == "mode_choice" else "--" + key.replace("_", "-")
             for key in _KEYS[command]]
    assert sorted(listed) == sorted(flags + ["--config"])


# === zero rate and quantization limits ===

@pytest.fixture()
def zero_rate_ring_files(tmp_path):
    """Unit-gain 3-ring whose closed-form rate is exactly 0."""
    graph = tmp_path / "ring3.json"
    graph.write_text(json.dumps({"n": 3, "edges": [
        {"dst": (i + 1) % 3, "src": i, "gain": 1.0, "delay_s": 0.02} for i in range(3)
    ]}))
    params = tmp_path / "ring3_params.json"
    params.write_text(json.dumps({"c": [1.0, 1.0, 1.0], "u": [1.0, -1.0, 0.0]}))
    return graph, params


def test_debias_zero_rate_ring(zero_rate_ring_files, capsys):
    graph, params = zero_rate_ring_files
    code, out, err = run_cli(
        ["debias", "--graph", graph, "--params", params, "--decision", "threshold:0"], capsys
    )
    assert code == 0, err
    assert abs(json.loads(out)["estimate"]) < 1e-9


def test_unsettled_simulated_debias_names_its_horizon(zero_rate_ring_files, capsys):
    # Stiffness 0.3 keeps consensus under any lag, but it settles slowly:
    # 6000 steps read NONE, and 40000 steps settle.
    graph, params = zero_rate_ring_files
    argv = ["debias", "--graph", graph, "--params", params, "--mode", "simulated",
            "--coupling", 300]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err == (
        "warning: step_s * coupling rate reaches 0.3, over the accuracy guard 0.1: expect a "
        "stiff, possibly inaccurate integration (consensus under any lag is still guaranteed "
        "below 1)\n"
        "numerical failure: statistic run did not reach global sync (verdict NONE) in 6000 "
        "steps; a longer horizon (--horizon) may let it settle\n"
    )
    code, out, _ = run_cli(argv + ["--horizon", 40000], capsys)
    assert code == 0
    assert abs(json.loads(out)["estimate"]) < 1e-9


def test_debias_exp_decision_overflow_is_numerical_failure(zero_rate_ring_files, capsys):
    graph, params = zero_rate_ring_files
    params.write_text(json.dumps({"c": [1.0, 1.0, 1.0], "u": [800.0, 800.0, 800.0]}))
    code, out, err = run_cli(
        ["debias", "--graph", graph, "--params", params, "--mode", "analytic",
         "--decision", "exp"], capsys
    )
    assert code == 3 and out == ""
    assert err == "numerical failure: decision exp overflows at estimate 800.0\n"


@pytest.mark.parametrize("command", ["simulate", "debias"])
def test_horizon_too_large_to_allocate_is_a_usage_error(zero_rate_ring_files, tmp_path,
                                                         capsys, command):
    # 10**15 steps of 3 states need 24 PB, beyond any address space.
    graph, params = zero_rate_ring_files
    code, out, err = run_cli(
        [command, "--graph", graph, "--params", params, "--horizon", 10**15,
         "--out", tmp_path / "out"], capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("usage error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_predict_rejects_lags_beyond_int64(zero_rate_ring_files, capsys):
    graph, params = zero_rate_ring_files
    code, out, err = run_cli(
        ["predict", "--graph", graph, "--params", params, "--quantize-step", 1e-300], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


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


def test_truth_noise_and_random_init_draw_separate_streams(chain_files, tmp_path):
    graph, _ = chain_files
    params = tmp_path / "ml.json"
    params.write_text(json.dumps({"A": [1.0, 1.0], "sigma2": [1.0, 1.0], "truth": 0.0}))
    noise = cli._load_params_file(str(params), 2, 5).stats
    history = cli._build_init("random", load_graph(graph), 1e-3, 5)
    assert not any(np.array_equal(noise, row) for row in history)


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


# === fuzz guard: every input maps to an exit code, never a traceback ===
# Sizes stay small (at most 6 nodes, 2000 steps, 2 runs), and every step
# size either keeps the delay history short or overflows the lag outright.

_BAD_JSON = ["", "{", "[]", "null", '{"n": 2}', '{"n": 1e400, "edges": []}']
_BAD_VALUES = [0.0, -1.0, "1", None, 1e400]


def _rarely(draw) -> bool:
    return draw(st.integers(0, 4)) == 0


@st.composite
def _graph_text(draw, n):
    """A small graph file; one in five is corrupt, one in five holds a bad field."""
    if _rarely(draw):
        return draw(st.sampled_from(_BAD_JSON))
    pairs = [(d, s) for d in range(n) for s in range(n) if d != s]
    edges = [
        {"dst": d, "src": s, "gain": draw(st.sampled_from([1.0, 0.3, 2.0])),
         "delay_s": draw(st.sampled_from([0.0, 0.02, 0.05]))}
        for d, s in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    ] if pairs else []
    if edges and _rarely(draw):
        field = draw(st.sampled_from(["dst", "src", "gain", "delay_s"]))
        edges[0][field] = draw(st.sampled_from(_BAD_VALUES + [n, -0.01]))
    return json.dumps({"n": n, "edges": edges})


@st.composite
def _params_text(draw, n):
    """Sign-mixed statistics for ``n`` nodes (or one more); sometimes corrupt."""
    if _rarely(draw):
        return draw(st.sampled_from(_BAD_JSON))
    n += _rarely(draw)
    positive = st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=n, max_size=n)
    signed = st.lists(st.sampled_from([1.0, -1.0, 0.0, 2.5]), min_size=n, max_size=n)
    amps = st.lists(st.sampled_from([1.0, -1.0, 2.5]), min_size=n, max_size=n)
    doc = draw(st.sampled_from([
        {"c": draw(positive), "u": draw(signed)},
        {"A": draw(amps), "sigma2": draw(positive), "y": draw(signed)},
        {"A": draw(amps), "sigma2": draw(positive), "truth": 1.0},
    ]))
    if _rarely(draw):
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(st.sampled_from(_BAD_VALUES)) if key == "truth" else (
            [draw(st.sampled_from(_BAD_VALUES))] * n
        )
    return json.dumps(doc)


# Flags every example passes, then flags drawn one by one.
_REQUIRED = {
    "analyze": ["--graph"],
    "predict": ["--graph", "--params"],
    "simulate": ["--graph", "--params", "--horizon", "--out"],
    "debias": ["--graph", "--params"],
    "study": ["--outdir"],
    "mc-estimate": ["--out", "--nodes", "--runs", "--horizon"],
}
_OPTIONAL = {
    "analyze": ["--out", "--config"],
    "predict": ["--coupling", "--quantize-step", "--out", "--seed", "--config"],
    "simulate": ["--ts", "--coupling", "--init", "--seed", "--config"],
    "debias": ["--ts", "--horizon", "--coupling", "--mode", "--decision", "--out", "--seed",
               "--config"],
    "study": ["--preset", "--graph", "--params", "--ts", "--coupling", "--horizon",
              "--lag-steps", "--seed", "--config"],
    "mc-estimate": ["--ts", "--delay-span-steps", "--hear-threshold", "--tx-power",
                    "--amplitude", "--noise-var", "--max-attempts", "--seed", "--config"],
}
_FLAGS = {
    "--graph": st.just("{graph}"),
    "--params": st.just("{params}"),
    "--out": st.sampled_from(["{tmp}/out"] * 4 + ["{tmp}", "{tmp}/missing/out"]),
    "--outdir": st.sampled_from(["{tmp}/study"] * 4 + ["{graph}/study"]),
    "--preset": st.sampled_from(["chain", "forest", "torus"]),
    "--coupling": st.sampled_from(["30", "1", "0", "-2", "nan", "abc"]),
    "--ts": st.sampled_from(["1e-3", "0.01", "0.1", "1e-300", "0", "inf"]),
    "--horizon": st.sampled_from(["150", "250", "600", "2000", "0"]),
    "--quantize-step": st.sampled_from(["1e-3", "0.1", "1e-300", "-1"]),
    "--init": st.sampled_from(["zero", "constant:2", "constant:x", "random", "other"]),
    "--mode": st.sampled_from(["simulated", "analytic", "other"]),
    "--decision": st.sampled_from(["identity", "exp", "threshold:0", "threshold:x", "other"]),
    "--lag-steps": st.sampled_from(["0", "5", "50", "-1"]),
    "--nodes": st.sampled_from(["2", "3", "6", "1"]),
    "--runs": st.sampled_from(["1", "2", "1", "0"]),
    "--delay-span-steps": st.sampled_from(["0", "10", "-1"]),
    "--hear-threshold": st.sampled_from(["0.1", "0.5", "1e12", "-1", "nan"]),
    "--tx-power": st.sampled_from(["1", "4", "0", "nan"]),
    "--noise-var": st.sampled_from(["1", "0.1", "0", "-1", "nan"]),
    "--amplitude": st.sampled_from(["1", "-2", "0", "nan"]),
    "--max-attempts": st.sampled_from(["1", "8", "0"]),
    "--seed": st.sampled_from(["0", "3", "-1"]),
    "--config": st.just("{config}"),
}
_CONFIGS = [{"horizon": "abc"}, {"horizon": 300.0}, {"ts": None}, {"mode": "ANALYZE"},
            {"coupling": [1]}, {"seed": 2}, {"init": "random"}]
# Valid config values for the options whose values are not paths (a path
# in a config file cannot name the example's temporary directory).
_VALID = {"preset": "forest", "init": "random", "mode_choice": "analytic", "decision": "exp",
          "coupling": 2.0, "ts": 0.01, "quantize_step": 0.01, "horizon": 300, "lag_steps": 5,
          "nodes": 3, "runs": 1, "delay_span_steps": 10, "hear_threshold": 0.5,
          "tx_power": 4.0, "amplitude": -2.0, "noise_var": 0.1, "truth": 2.0, "seed": 3}


@st.composite
def _option_config(draw, command):
    """A config built from the subcommand's option names, valid or spoiled."""
    keys = _KEYS[command]
    key = draw(st.sampled_from(sorted(keys)))
    valid = [{k: _VALID[k]} for k in sorted(keys) if k in _VALID]
    return draw(st.sampled_from(valid + [
        {key: draw(st.sampled_from(_WRONG[keys[key]]))},
        {"horizn": 5},
        {"runs": 1},
        {"mode": command},
    ]))


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    argv = [command]
    for flag in _REQUIRED[command]:
        argv += [flag, draw(_FLAGS[flag])]
    for flag in _OPTIONAL[command]:
        if draw(st.integers(0, 2)) == 0:
            argv += [flag, draw(_FLAGS[flag])]
    n = draw(st.integers(1, 6))
    files = {
        "graph": draw(_graph_text(n)),
        "params": draw(_params_text(n)),
        "config": json.dumps(draw(st.one_of(st.sampled_from(_CONFIGS), _option_config(command)))),
    }
    return argv, files


@settings(deadline=None, max_examples=50)
@given(_invocations())
def test_cli_fuzz_exit_codes_without_tracebacks(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"tmp": tmp}
        for name, text in files.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_csv_write_is_a_one_line_usage_error(chain_files, capsys):
    graph, params = chain_files
    code, _, err = run_cli(["simulate", "--graph", graph, "--params", params,
                            "--horizon", 3000, "--out", "/dev/full"], capsys)
    assert code == 1
    assert err == "usage error: cannot write /dev/full: No space left on device\n"


# === a fixed session, pinned by digest ===

# The sha256 of every command's exit code, stdout, stderr and output files
# in _SESSION, recorded before the preset table, seed-stream helpers and
# tile plan were each folded into one place; any moved byte changes it.
_SESSION_SHA256 = "4bca76e41cc5ce219929f2b0d3c59e1034979bda40b5a905d8e8bcdac5f107ef"
_SESSION = [
    ["mc-estimate", "--nodes", 6, "--runs", 3, "--horizon", 300, "--seed", 3,
     "--out", "mc.csv"],
    ["study", "--preset", "chain", "--horizon", 3001, "--lag-steps", 7, "--outdir", "chain"],
    ["study", "--preset", "forest", "--horizon", 2003, "--lag-steps", 4, "--outdir", "forest"],
    ["simulate", "--graph", "ring.json", "--params", "p.json", "--horizon", 400,
     "--init", "random", "--seed", 11, "--out", "traj.csv"],
    ["debias", "--graph", "ring.json", "--params", "p.json", "--mode", "simulated",
     "--coupling", 150, "--decision", "threshold:0.4"],
    ["debias", "--graph", "ring.json", "--params", "p.json", "--mode", "analytic"],
]


def test_fixed_session_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("ring.json").write_text(json.dumps({"n": 3, "edges": [
        {"dst": 1, "src": 0, "gain": 1.0, "delay_s": 0.02},
        {"dst": 2, "src": 1, "gain": 0.8, "delay_s": 0.01},
        {"dst": 0, "src": 2, "gain": 1.2, "delay_s": 0.03},
    ]}))
    Path("p.json").write_text(json.dumps({"c": [1.0, 2.0, 1.5], "u": [0.5, 1.5, -0.25]}))
    digest = hashlib.sha256()
    for argv in _SESSION:
        before = set(Path().rglob("*"))
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        digest.update(f"{argv}\n{code}\n{out}\n{err}\n".encode())
        for made in sorted(set(Path().rglob("*")) - before):
            if made.is_file():
                digest.update(f"{made}\n".encode() + made.read_bytes())
    assert digest.hexdigest() == _SESSION_SHA256
