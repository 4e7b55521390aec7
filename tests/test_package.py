"""Package surface: every exported name resolves."""
import importlib

import selfsync

MODULES = ("cli", "consensus", "digraph", "dynamics", "experiments", "netgen")


def test_star_import_and_every_all_resolve():
    namespace = {}
    exec("from selfsync import *", namespace)
    assert set(selfsync.__all__) <= set(namespace)
    for name in MODULES:
        module = importlib.import_module(f"selfsync.{name}")
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert missing == [], (name, missing)
        exec(f"from selfsync.{name} import *", {})
