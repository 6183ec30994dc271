"""The pipeline benchmark wraps program functions by module and name, and
its model probes call them; a rename that drops one of them must fail
here, not only in perfbench's own tests."""

import ast
import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
PROBE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "probe.py")
PROBED_MODULES = ("autodiff", "ingest", "losses", "model")


def test_every_traced_target_resolves():
    # load the benchmark's target table without wrapping anything
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_every_probed_attribute_resolves():
    # probe.py reports a probe whose function is gone as missing instead
    # of failing, which would silently drop its per-layer metrics
    with open(PROBE, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in PROBED_MODULES}
    assert ("model", "w2s_forward") in used and ("autodiff", "backward") in used
    missing = [f"{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(importlib.import_module(f"kgmlsm.{module}"), attr)]
    assert missing == []
