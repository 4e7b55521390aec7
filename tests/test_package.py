"""Package surface: every exported name resolves."""
import importlib
import importlib.util
import sys
from pathlib import Path

import selfsync

MODULES = ("cli", "consensus", "digraph", "dynamics", "experiments", "netgen")
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_package_all_is_the_modules_alls():
    # The package re-exports each library module's __all__, in module order,
    # and nothing else; the CLI exports nothing.
    modules = [importlib.import_module(f"selfsync.{name}") for name in MODULES if name != "cli"]
    assert selfsync.__all__ == [attr for module in modules for attr in module.__all__]
    assert len(set(selfsync.__all__)) == len(selfsync.__all__)
    assert not hasattr(importlib.import_module("selfsync.cli"), "__all__")
    assert selfsync.write_trajectory_csv is selfsync.dynamics.write_trajectory_csv


def test_star_import_and_every_all_resolve():
    namespace = {}
    exec("from selfsync import *", namespace)
    assert set(selfsync.__all__) <= set(namespace)
    for name in MODULES:
        module = importlib.import_module(f"selfsync.{name}")
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert missing == [], (name, missing)
        exec(f"from selfsync.{name} import *", {})


def test_every_traced_binding_resolves(monkeypatch):
    # The benchmark's traced run wraps each name where its callers bind it
    # (experiments.simulate, cli.run_topology_study, ...); a name that a
    # refactor drops would break the traced run alone.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    originals = [getattr(module, attr) for module, attr, _, _ in spans._BINDINGS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.active and len(tracer._saved) == len(spans._BINDINGS)
    finally:
        tracer.remove()
    assert [getattr(module, attr) for module, attr, _, _ in spans._BINDINGS] == originals
