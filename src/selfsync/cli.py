"""Command-line harness for the consensus toolkit.

Subcommands::

    analyze      graph JSON -> connectivity report JSON
    predict      graph + params -> closed-form rate prediction JSON
    simulate     graph + params -> trajectory CSV
    debias       graph + params -> two-step debiased estimate JSON
    study        preset or user topology -> trajectory CSV + report JSON
    mc-estimate  Monte Carlo estimation study -> summary CSV + stdout JSON

Every subcommand accepts ``--config FILE`` (a flat JSON object whose keys
match the long flag names with dashes as underscores); explicit flags win
over config values.  Outputs depend only on inputs and seeds: rerunning a
command with the same config produces byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Argument values the library rejects with ``ValueError`` (a horizon too
short to detect consensus, say), config paths and words that are not
strings, and output paths that cannot be written are usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .consensus import (
    DebiasError,
    DebiasMode,
    DecisionRule,
    apply_decision,
    debias_two_step,
    ml_setup,
    predict,
)
from .digraph import (
    Digraph,
    GraphFormatError,
    NullSpaceError,
    classify,
    load_graph,
)
from .dynamics import (
    InitialCondition,
    NodeParams,
    SimConfig,
    SimulationDiverged,
    quantize_delays,
    simulate,
)
from .experiments import (
    PRESETS,
    EstimationConfig,
    run_estimation_study,
    run_topology_study,
)
from .netgen import GenerationBudgetError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_INIT_SEED_TAG = 9


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _read_json(path: str, what: str) -> dict:
    """The JSON object in ``what`` file ``path``; any failure is a data error."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{what} file {path} must hold a JSON object")
    return doc


def _load_config(path: "str | None") -> dict:
    return {} if path is None else _read_json(path, "config")


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _text(args: argparse.Namespace, config: dict, key: str, default=None) -> "str | None":
    """A path or word from the flags or the config; config values must be strings."""
    value = _resolve(args, config, key, default)
    if value is not None and not isinstance(value, str):
        raise UsageError(f"{key} must be a string, got {value!r}")
    return value


@contextmanager
def _writing(path):
    """Report a failure to write an output ``path`` as a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_mode(config: dict, command: str) -> None:
    mode = config.get("mode")
    if mode is not None and mode != command.upper().replace("-", "_"):
        raise UsageError(f"config mode {mode!r} contradicts subcommand {command!r}")


def _load_graph_file(path: "str | None") -> Digraph:
    if path is None:
        raise UsageError("a graph file is required (--graph)")
    try:
        return load_graph(path)
    except OSError as exc:
        raise DataError(f"cannot read graph file {path}: {exc.strerror or exc}") from exc
    except GraphFormatError as exc:
        raise DataError(f"graph file {path}: {exc}") from exc


def _load_params_file(path: "str | None", n: int, seed: int) -> NodeParams:
    """Node parameters from JSON: explicit u/c, or ML observation fields.

    Accepted shapes: ``{"c": [...], "u": [...]}``;
    ``{"A": [...], "sigma2": [...], "y": [...]}``; or
    ``{"A": [...], "sigma2": [...], "truth": x}`` where observations are
    then drawn as ``y = A * truth + noise`` from the command seed.
    """
    if path is None:
        raise UsageError("a parameter file is required (--params)")
    doc = _read_json(path, "params")
    try:
        if "u" in doc or "c" in doc:
            params = NodeParams(
                weights=np.asarray(doc["c"], dtype=float),
                stats=np.asarray(doc["u"], dtype=float),
            )
        elif "A" in doc:
            amps = np.asarray(doc["A"], dtype=float)
            variances = np.asarray(doc["sigma2"], dtype=float)
            if "y" in doc:
                obs = np.asarray(doc["y"], dtype=float)
            else:
                truth = float(doc["truth"])
                if not np.all(variances > 0):  # before the square root below
                    raise ValueError("noise variances must be positive")
                rng = np.random.default_rng(np.random.SeedSequence([seed, _INIT_SEED_TAG]))
                obs = amps * truth + rng.normal(0.0, np.sqrt(variances))
            params = ml_setup(amps, variances, obs)
        else:
            raise KeyError("u/c or A/sigma2 fields")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"params file {path} is malformed: {exc}") from exc
    if params.n != n:
        raise DataError(f"params file {path} describes {params.n} nodes, graph has {n}")
    return params


def _emit_json(doc: dict, out: "str | None") -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with _writing(out):
            Path(out).write_text(text)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(value: float, name: str) -> float:
    if not _is_number(value) or not np.isfinite(value) or value <= 0:
        raise UsageError(f"{name} must be positive, got {value!r}")
    return float(value)


def _integer(value: int, name: str, minimum: int) -> int:
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if not _is_number(value) or not whole or value < minimum:
        raise UsageError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _seed(args: argparse.Namespace, config: dict) -> int:
    return _integer(_resolve(args, config, "seed", 0), "--seed", 0)


def _build_init(text: str, graph: Digraph, step_s: float, seed: int) -> InitialCondition:
    if text == "zero":
        return InitialCondition.zero()
    if text.startswith("constant:"):
        try:
            return InitialCondition.constant(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise UsageError(f"bad constant initial condition {text!r}") from exc
    if text == "random":
        m_max = quantize_delays(graph, step_s).m_max
        rng = np.random.default_rng(np.random.SeedSequence([seed, _INIT_SEED_TAG]))
        return InitialCondition.samples(rng.normal(0.0, 1.0, size=(m_max + 1, graph.n)))
    raise UsageError(f"unknown initial condition {text!r}; use zero, constant:<v>, or random")


def _cmd_analyze(args: argparse.Namespace, config: dict) -> int:
    graph = _load_graph_file(_text(args, config, "graph"))
    report = classify(graph)
    _emit_json(report.to_json_dict(), _text(args, config, "out"))
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace, config: dict) -> int:
    graph = _load_graph_file(_text(args, config, "graph"))
    seed = _seed(args, config)
    params = _load_params_file(_text(args, config, "params"), graph.n, seed)
    coupling = _positive(_resolve(args, config, "coupling", 30.0), "--coupling")
    quantize_step = _resolve(args, config, "quantize_step", None)
    if quantize_step is not None:
        quantize_step = _positive(quantize_step, "--quantize-step")
    prediction = predict(graph, params, coupling, quantize_step=quantize_step)
    _emit_json(prediction.to_json_dict(), _text(args, config, "out"))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, config: dict) -> int:
    graph = _load_graph_file(_text(args, config, "graph"))
    seed = _seed(args, config)
    params = _load_params_file(_text(args, config, "params"), graph.n, seed)
    step_s = _positive(_resolve(args, config, "ts", 1e-3), "--ts")
    horizon = _integer(_resolve(args, config, "horizon", None), "--horizon", 1)
    coupling = _positive(_resolve(args, config, "coupling", 30.0), "--coupling")
    init = _build_init(_text(args, config, "init", "zero"), graph, step_s, seed)
    out = _text(args, config, "out")
    if out is None:
        raise UsageError("simulate requires an output CSV path (--out)")
    cfg = SimConfig(coupling=coupling, step_s=step_s, horizon=horizon, init=init)
    traj = simulate(graph, params, cfg)
    with _writing(out):
        traj.write_csv(out)
    return EXIT_OK


def _cmd_debias(args: argparse.Namespace, config: dict) -> int:
    graph = _load_graph_file(_text(args, config, "graph"))
    seed = _seed(args, config)
    params = _load_params_file(_text(args, config, "params"), graph.n, seed)
    step_s = _positive(_resolve(args, config, "ts", 1e-3), "--ts")
    horizon = _integer(_resolve(args, config, "horizon", 6000), "--horizon", 1)
    coupling = _positive(_resolve(args, config, "coupling", 30.0), "--coupling")
    mode_text = _text(args, config, "mode_choice", "simulated").lower()
    if mode_text not in ("simulated", "analytic"):
        raise UsageError(f"--mode must be simulated or analytic, got {mode_text!r}")
    mode = DebiasMode.SIMULATED if mode_text == "simulated" else DebiasMode.ANALYTIC
    cfg = SimConfig(coupling=coupling, step_s=step_s, horizon=horizon)
    result = debias_two_step(graph, params, cfg, mode)
    doc = result.to_json_dict()
    decision_text = _text(args, config, "decision")
    if decision_text is not None:
        rule = DecisionRule.parse(decision_text)
        doc["decision"] = apply_decision(rule, result.estimate).value
    _emit_json(doc, _text(args, config, "out"))
    return EXIT_OK


def _cmd_study(args: argparse.Namespace, config: dict) -> int:
    preset = _text(args, config, "preset")
    graph_path = _text(args, config, "graph")
    params_path = _text(args, config, "params")
    if preset is not None and graph_path is not None:
        raise UsageError("give either --preset or --graph/--params, not both")
    if preset is None and graph_path is None:
        preset = "chain"
    if preset is not None and preset not in PRESETS:
        raise UsageError(f"unknown preset {preset!r}; choose from {PRESETS}")

    step_s = _positive(_resolve(args, config, "ts", 1e-3), "--ts")
    coupling = _positive(_resolve(args, config, "coupling", 30.0), "--coupling")
    horizon = _integer(_resolve(args, config, "horizon", 10000), "--horizon", 1)
    lag_steps = _integer(_resolve(args, config, "lag_steps", 50), "--lag-steps", 0)
    outdir = _text(args, config, "outdir")
    if outdir is None:
        raise UsageError("study requires an output directory (--outdir)")

    graph = params = None
    if graph_path is not None:
        graph = _load_graph_file(graph_path)
        seed = _seed(args, config)
        params = _load_params_file(params_path, graph.n, seed)

    result = run_topology_study(
        preset,
        graph=graph,
        params=params,
        coupling=coupling,
        step_s=step_s,
        lag_steps=lag_steps,
        horizon=horizon,
    )
    out = Path(outdir)
    with _writing(outdir):
        out.mkdir(parents=True, exist_ok=True)
        result.trajectory.write_csv(out / "trajectory.csv")
        Path(out / "prediction.json").write_text(
            json.dumps(result.report_json_dict(), indent=2) + "\n"
        )
    return EXIT_OK


def _cmd_mc_estimate(args: argparse.Namespace, config: dict) -> int:
    out = _text(args, config, "out")
    if out is None:
        raise UsageError("mc-estimate requires an output CSV path (--out)")
    try:
        cfg = EstimationConfig(
            nodes=_integer(_resolve(args, config, "nodes", 40), "--nodes", 1),
            runs=_integer(_resolve(args, config, "mc_runs", 100), "--runs", 1),
            coupling=_positive(_resolve(args, config, "coupling", 1.0), "--coupling"),
            step_s=_positive(_resolve(args, config, "ts", 1e-3), "--ts"),
            horizon=_integer(_resolve(args, config, "horizon", 3000), "--horizon", 1),
            delay_span_steps=_integer(
                _resolve(args, config, "delay_span_steps", 100), "--delay-span-steps", 0
            ),
            hear_threshold=float(_resolve(args, config, "hear_threshold", 0.1)),
            tx_power=float(_resolve(args, config, "tx_power", 1.0)),
            amplitude=float(_resolve(args, config, "amplitude", 1.0)),
            noise_var=float(_resolve(args, config, "noise_var", 1.0)),
            truth=float(_resolve(args, config, "truth", 1.0)),
            seed=_seed(args, config),
            max_attempts=_integer(
                _resolve(args, config, "max_attempts", 64), "--max-attempts", 1
            ),
        )
    except TypeError as exc:  # a null or list config value given to float()
        raise UsageError(str(exc)) from exc
    summary = run_estimation_study(cfg)
    with _writing(out):
        summary.write_csv(out)
    sys.stdout.write(json.dumps(summary.summary_dict(), indent=2) + "\n")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="selfsync", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--seed", type=int, help="seed for any randomized inputs (default 0)")

    p = sub.add_parser("analyze", help="connectivity report for a graph file")
    common(p)
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("predict", help="closed-form rate prediction")
    common(p)
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--params", help="node parameter JSON file")
    p.add_argument("--coupling", type=float, help="coupling gain (default 30)")
    p.add_argument(
        "--quantize-step", dest="quantize_step", type=float,
        help="quantize delays to this step before predicting (default: nominal delays)",
    )
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("simulate", help="run the coupled integrators, write trajectory CSV")
    common(p)
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--params", help="node parameter JSON file")
    p.add_argument("--ts", type=float, help="step size in seconds (default 1e-3)")
    p.add_argument("--horizon", type=int, help="number of steps (required)")
    p.add_argument("--coupling", type=float, help="coupling gain (default 30)")
    p.add_argument("--init", help="zero | constant:<v> | random (default zero)")
    p.add_argument("--out", help="output CSV path (required)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("debias", help="two-step debiased estimate")
    common(p)
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--params", help="node parameter JSON file")
    p.add_argument("--ts", type=float, help="step size in seconds (default 1e-3)")
    p.add_argument("--horizon", type=int, help="steps per run (default 6000)")
    p.add_argument("--coupling", type=float, help="coupling gain (default 30)")
    p.add_argument(
        "--mode", dest="mode_choice", choices=("simulated", "analytic"),
        help="estimate from simulations or closed forms (default simulated)",
    )
    p.add_argument("--decision", help="decision rule: identity | exp | threshold:<level>")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(handler=_cmd_debias)

    p = sub.add_parser("study", help="preset topology study: trajectory + prediction report")
    common(p)
    p.add_argument("--preset", help=f"one of {', '.join(PRESETS)} (default chain)")
    p.add_argument("--graph", help="user graph JSON file instead of a preset")
    p.add_argument("--params", help="node parameter JSON file (with --graph)")
    p.add_argument("--ts", type=float, help="step size in seconds (default 1e-3)")
    p.add_argument("--coupling", type=float, help="coupling gain (default 30)")
    p.add_argument("--horizon", type=int, help="number of steps (default 10000)")
    p.add_argument(
        "--lag-steps", dest="lag_steps", type=int,
        help="preset uniform delay in steps (default 50)",
    )
    p.add_argument("--outdir", help="directory for trajectory.csv and prediction.json")
    p.set_defaults(handler=_cmd_study)

    p = sub.add_parser("mc-estimate", help="Monte Carlo estimation study, summary CSV")
    common(p)
    p.add_argument("--nodes", type=int, help="sensors per network (default 40)")
    p.add_argument("--runs", dest="mc_runs", type=int, help="Monte Carlo runs (default 100)")
    p.add_argument("--coupling", type=float, help="coupling gain (default 1)")
    p.add_argument("--ts", type=float, help="step size in seconds (default 1e-3)")
    p.add_argument("--horizon", type=int, help="steps per run (default 3000)")
    p.add_argument(
        "--delay-span-steps", dest="delay_span_steps", type=int,
        help="largest propagation delay in steps (default 100)",
    )
    p.add_argument(
        "--hear-threshold", dest="hear_threshold", type=float,
        help="minimum link amplitude (default 0.1)",
    )
    p.add_argument("--tx-power", dest="tx_power", type=float, help="transmit power (default 1)")
    p.add_argument("--amplitude", type=float, help="observation amplitude (default 1)")
    p.add_argument("--noise-var", dest="noise_var", type=float, help="noise variance (default 1)")
    p.add_argument("--truth", type=float, help="true scalar being estimated (default 1)")
    p.add_argument(
        "--max-attempts", dest="max_attempts", type=int,
        help="connectivity attempts per run (default 64)",
    )
    p.add_argument("--out", help="output CSV path (required)")
    p.set_defaults(handler=_cmd_mc_estimate)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        _check_mode(config, args.command)
        return args.handler(args, config)
    except (DataError, GraphFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SimulationDiverged, NullSpaceError, DebiasError, GenerationBudgetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
