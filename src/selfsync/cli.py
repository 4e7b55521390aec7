"""Command-line harness for the consensus toolkit.

Subcommands::

    analyze      graph JSON -> connectivity report JSON
    predict      graph + params -> closed-form rate prediction JSON
    simulate     graph + params -> trajectory CSV
    debias       graph + params -> two-step debiased estimate JSON
    study        preset or user topology -> trajectory CSV + report JSON
    mc-estimate  Monte Carlo estimation study -> summary CSV + stdout JSON

Every subcommand accepts ``--config FILE``: a flat JSON object whose keys
are the option names, the long flags with dashes as underscores, except
that ``--mode`` reads ``mode_choice``; an optional ``mode`` key names the
subcommand, in any case.  A key the subcommand does not take is a usage
error, and explicit flags win over config values.  Every value is checked
before any input file is read.  Outputs depend only on inputs and seeds:
rerunning a command with the same config produces byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Argument values the library rejects with ``ValueError`` (a horizon too
short to detect consensus, say), requests too large to allocate (a
horizon of 10**12 steps) and output paths that cannot be written are
usage errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dynamics
from .consensus import (
    DebiasError,
    DebiasMode,
    DecisionRule,
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
_NOISE_SEED_TAG = 10


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


@contextmanager
def _writing(path):
    """Report a failure to write an output ``path`` as a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_graph_file(path: str) -> Digraph:
    try:
        return load_graph(path)
    except OSError as exc:
        raise DataError(f"cannot read graph file {path}: {exc.strerror or exc}") from exc
    except GraphFormatError as exc:
        raise DataError(f"graph file {path}: {exc}") from exc


def _numbers(doc: dict, key: str) -> np.ndarray:
    """Field ``key`` of a params file: a JSON list of finite numbers."""
    values = doc[key]
    if not isinstance(values, list):
        raise ValueError(f"{key} must be a list of numbers, got {values!r}")
    bad = [v for v in values if not _finite(v)]
    if bad:
        raise ValueError(f"{key} must hold finite numbers, got {bad[0]!r}")
    return np.array(values, dtype=float)


def _load_params_file(path: str, n: int, seed: int) -> NodeParams:
    """Node parameters from JSON: explicit u/c, or ML observation fields.

    Accepted shapes: ``{"c": [...], "u": [...]}``;
    ``{"A": [...], "sigma2": [...], "y": [...]}``; or
    ``{"A": [...], "sigma2": [...], "truth": x}`` where observations are
    then drawn as ``y = A * truth + noise`` from the command seed.
    """
    doc = _read_json(path, "params")
    try:
        if "u" in doc or "c" in doc:
            params = NodeParams(weights=_numbers(doc, "c"), stats=_numbers(doc, "u"))
        elif "A" in doc:
            amps, variances = _numbers(doc, "A"), _numbers(doc, "sigma2")
            if "y" in doc:
                obs = _numbers(doc, "y")
            else:
                truth = doc["truth"]
                if not _finite(truth):
                    raise ValueError(f"truth must be a finite number, got {truth!r}")
                if not np.all(variances > 0):  # before the square root below
                    raise ValueError("noise variances must be positive")
                rng = np.random.default_rng(np.random.SeedSequence([seed, _NOISE_SEED_TAG]))
                obs = amps * float(truth) + rng.normal(0.0, np.sqrt(variances))
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


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{name} must be a string, got {value!r}")
    return value


def _finite(value) -> bool:
    # The bound also rejects NaN, infinities and ints too large for a float.
    return _is_number(value) and abs(value) <= sys.float_info.max


def _real(value, name: str) -> float:
    if not _finite(value):
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _positive(value, name: str) -> float:
    if not _is_number(value) or not 0 < value <= sys.float_info.max:
        raise UsageError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _whole(minimum: int):
    def check(value, name: str) -> int:
        whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if not _is_number(value) or not whole or value < minimum:
            raise UsageError(f"{name} must be an integer >= {minimum}, got {value!r}")
        return int(value)
    return check


def _build_init(text: str, graph: Digraph, step_s: float, seed: int) -> "float | np.ndarray":
    if text == "zero":
        return 0.0
    if text.startswith("constant:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad constant initial condition {text!r}") from exc
    if text == "random":
        m_max = int(quantize_delays(graph, step_s).max(initial=0))
        rng = np.random.default_rng(np.random.SeedSequence([seed, _INIT_SEED_TAG]))
        return rng.normal(0.0, 1.0, size=(m_max + 1, graph.n))
    raise UsageError(f"unknown initial condition {text!r}; use zero, constant:<v>, or random")


def _cmd_analyze(opts: argparse.Namespace) -> None:
    _emit_json(classify(_load_graph_file(opts.graph)).to_json_dict(), opts.out)


def _cmd_predict(opts: argparse.Namespace) -> None:
    graph = _load_graph_file(opts.graph)
    params = _load_params_file(opts.params, graph.n, opts.seed)
    prediction = predict(graph, params, opts.coupling, quantize_step=opts.quantize_step)
    _emit_json(prediction.to_json_dict(), opts.out)


def _cmd_simulate(opts: argparse.Namespace) -> None:
    graph = _load_graph_file(opts.graph)
    params = _load_params_file(opts.params, graph.n, opts.seed)
    init = _build_init(opts.init, graph, opts.ts, opts.seed)
    cfg = SimConfig(coupling=opts.coupling, step_s=opts.ts, horizon=opts.horizon, init=init)
    traj = simulate(graph, params, cfg)
    with _writing(opts.out):
        # Through the module, so that a wrapped name (bench/spans.py) sees the call.
        dynamics.write_trajectory_csv(traj, opts.out)


def _cmd_debias(opts: argparse.Namespace) -> None:
    mode = DebiasMode.__members__.get(opts.mode_choice.upper())
    if mode is None:
        raise UsageError(f"--mode must be simulated or analytic, got {opts.mode_choice!r}")
    rule = None if opts.decision is None else DecisionRule.parse(opts.decision)
    graph = _load_graph_file(opts.graph)
    params = _load_params_file(opts.params, graph.n, opts.seed)
    cfg = SimConfig(coupling=opts.coupling, step_s=opts.ts, horizon=opts.horizon)
    result = debias_two_step(graph, params, cfg, mode)
    doc = result.to_json_dict()
    if rule is not None:
        doc["decision"] = rule(result.estimate)
    _emit_json(doc, opts.out)


def _cmd_study(opts: argparse.Namespace) -> None:
    mixed = opts.graph is not None and opts.preset is not None
    if mixed or (opts.graph is None) != (opts.params is None):
        raise UsageError("give either --preset or both --graph and --params")
    graph = params = None
    if opts.graph is not None:
        graph = _load_graph_file(opts.graph)
        params = _load_params_file(opts.params, graph.n, opts.seed)
    result = run_topology_study(
        "chain" if opts.graph is None and opts.preset is None else opts.preset,
        graph=graph,
        params=params,
        coupling=opts.coupling,
        step_s=opts.ts,
        lag_steps=opts.lag_steps,
        horizon=opts.horizon,
    )
    out = Path(opts.outdir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        dynamics.write_trajectory_csv(result.trajectory, out / "trajectory.csv")
        Path(out / "prediction.json").write_text(
            json.dumps(result.report_json_dict(), indent=2) + "\n"
        )


def _cmd_mc_estimate(opts: argparse.Namespace) -> None:
    knobs = vars(opts)
    out = knobs.pop("out")
    summary = run_estimation_study(EstimationConfig(step_s=knobs.pop("ts"), **knobs))
    with _writing(out):
        summary.write_csv(out)
    sys.stdout.write(json.dumps(summary.summary_dict(), indent=2) + "\n")


# Option name -> (type of its flag, check of its value, help).
_OPTIONS = {
    "seed": (int, _whole(0), "seed for any randomized inputs"),
    "graph": (str, _text, "graph JSON file"),
    "params": (str, _text, "node parameter JSON file"),
    "out": (str, _text, "output path"),
    "outdir": (str, _text, "directory for trajectory.csv and prediction.json"),
    "preset": (str, _text, f"one of {', '.join(PRESETS)}; chain when no --graph is given"),
    "init": (str, _text, "initial history: zero | constant:<v> | random"),
    "mode_choice": (str, _text, "estimate from simulations or closed forms: simulated | analytic"),
    "decision": (str, _text, "decision rule: identity | exp | threshold:<level>"),
    "coupling": (float, _positive, "coupling gain"),
    "ts": (float, _positive, "step size in seconds"),
    "quantize_step": (float, _positive, "quantize delays to this step; nominal delays if omitted"),
    "horizon": (int, _whole(1), "number of steps per run"),
    "lag_steps": (int, _whole(0), "preset uniform delay in steps"),
    "nodes": (int, _whole(1), "sensors per network"),
    "runs": (int, _whole(1), "Monte Carlo runs"),
    "delay_span_steps": (int, _whole(0), "largest propagation delay in steps"),
    "hear_threshold": (float, _real, "minimum link amplitude"),
    "tx_power": (float, _real, "transmit power"),
    "amplitude": (float, _real, "observation amplitude"),
    "noise_var": (float, _real, "noise variance"),
    "truth": (float, _real, "true scalar being estimated"),
    "max_attempts": (int, _whole(1), "connectivity attempts per run"),
}

_REQUIRED = object()  # the default of an option a subcommand cannot run without
_COMMON = {"seed": 0}

# Subcommand -> (help, handler, {option: default}); mc-estimate takes its
# defaults from EstimationConfig, whose step_s is the --ts option.
_COMMANDS = {
    "analyze": ("connectivity report for a graph file", _cmd_analyze,
                {"graph": _REQUIRED, "out": None}),
    "predict": ("closed-form rate prediction", _cmd_predict,
                {"graph": _REQUIRED, "params": _REQUIRED, "coupling": 30.0,
                 "quantize_step": None, "out": None}),
    "simulate": ("run the coupled integrators, write trajectory CSV", _cmd_simulate,
                 {"graph": _REQUIRED, "params": _REQUIRED, "ts": 1e-3, "horizon": _REQUIRED,
                  "coupling": 30.0, "init": "zero", "out": _REQUIRED}),
    "debias": ("two-step debiased estimate", _cmd_debias,
               {"graph": _REQUIRED, "params": _REQUIRED, "ts": 1e-3, "horizon": 6000,
                "coupling": 30.0, "mode_choice": "simulated", "decision": None, "out": None}),
    "study": ("preset topology study: trajectory + prediction report", _cmd_study,
              {"preset": None, "graph": None, "params": None, "ts": 1e-3, "coupling": 30.0,
               "horizon": 10000, "lag_steps": 50, "outdir": _REQUIRED}),
    "mc-estimate": ("Monte Carlo estimation study, summary CSV", _cmd_mc_estimate, {
        **{"ts" if f.name == "step_s" else f.name: f.default
           for f in fields(EstimationConfig) if f.name not in _COMMON},
        "out": _REQUIRED,
    }),
}


def _flag(name: str) -> str:
    return "--mode" if name == "mode_choice" else "--" + name.replace("_", "-")


def _options(args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """Each option of the subcommand from its flag, else the config, else its default."""
    command = args.command
    mode = config.get("mode", command)
    if not isinstance(mode, str) or mode.lower().replace("_", "-") != command:
        raise UsageError(f"config mode {mode!r} contradicts subcommand {command!r}")
    defaults = {**_COMMON, **_COMMANDS[command][2]}
    unknown = sorted(set(config) - set(defaults) - {"mode"})
    if unknown:
        raise UsageError(f"{command} takes no config key {', '.join(map(repr, unknown))}")
    opts = argparse.Namespace()
    for name, default in defaults.items():
        value, where = getattr(args, name), _flag(name)
        if value is None:
            value, where = config.get(name, default), f"config {name}"
        if value is _REQUIRED:
            raise UsageError(f"{command} requires {_flag(name)}")
        # A default needs no check; any other value, a config null included, does.
        setattr(opts, name, value if value is default else _OPTIONS[name][1](value, where))
    return opts


@functools.cache  # parsing leaves the parser as it was; build it once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="selfsync", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (summary, _, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for name, default in {**_COMMON, **defaults}.items():
            kind, _, text = _OPTIONS[name]
            if default is _REQUIRED:
                text += " (required)"
            elif default is not None:
                text += f" (default {default})"
            p.add_argument(_flag(name), dest=name, type=kind, help=text)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one ``warning: <message>`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings():  # restores the warning display on return
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            config = {} if args.config is None else _read_json(args.config, "config")
            _COMMANDS[args.command][1](_options(args, config))
            return EXIT_OK
        except (DataError, GraphFormatError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except (UsageError, ValueError, MemoryError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (SimulationDiverged, NullSpaceError, DebiasError, GenerationBudgetError,
                OverflowError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
