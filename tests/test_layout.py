"""`ingest.stack_dataset` is the one array view of a dataset: only the
module that defines the sample layout and the simulator that builds
samples may reach into `Dataset.samples`."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "kgmlsm")
SAMPLE_LAYOUT_MODULES = {"ingest.py", "cropsim.py"}


def test_only_ingest_and_cropsim_touch_dataset_samples():
    touched = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) in SAMPLE_LAYOUT_MODULES:
            continue
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        touched += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                    if (isinstance(node, ast.Attribute) and node.attr == "samples")
                    or (isinstance(node, ast.keyword) and node.arg == "samples")]
    assert touched == []
