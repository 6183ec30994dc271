"""`ingest` alone knows how a dataset holds its samples, one record array
of `SAMPLE_DTYPE`: only `ingest` names that dtype or `np.recarray`, and
only `ingest` reaches into `Dataset.samples`; the other modules read the
arrays of `stack_dataset`. `metrics` alone turns
per-seed scores into their summary, and `cropsim.draw_unit_year` alone
draws a simulated unit-year's weather and management. Only `autodiff`
binds a tensor's `data`, so a stored parameter stays a view of
`ParamStore.vector`. Every graph-free forward of the model runs in
blocks through `model.forward_blocks`. Only `artifacts` calls `open`,
so it alone knows the file formats, and only `artifacts` names its text
block size (`_CHUNK_ROWS`, `_CHUNK_CELLS`, `_block_rows`); beside it,
only `ingest` calls `read_csv_blocks`. No function or
class of the package goes unnamed: each is called, passed or imported
somewhere in `src`, `tests` or `perfbench`. No module of the package
imports the test oracles `gradcheck` and `chain_oracle`, and no layer is
built out of the tape's op-by-op primitives. `optim` handles the
parameters and their gradient only as arrays."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "kgmlsm")


def _modules():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as f:
            yield os.path.basename(path), ast.parse(f.read())


def test_only_ingest_touches_dataset_samples():
    touched = []
    for name, tree in _modules():
        if name == "ingest.py":
            continue
        touched += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                    if (isinstance(node, ast.Attribute) and node.attr == "samples")
                    or (isinstance(node, ast.keyword) and node.arg == "samples")]
    assert touched == []


def test_only_autodiff_binds_tensor_data():
    """Outside `autodiff`, nothing assigns to `<expr>.data` but an object's
    own `self.data` (`cli.RunPaths` has one)."""
    bound = [f"{name}:{node.lineno}" for name, tree in _modules() if name != "autodiff.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "data"
             and isinstance(node.ctx, ast.Store)
             and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert bound == []


def test_only_ingest_names_the_sample_records():
    """The record layout of a dataset is `ingest`'s decision: no other
    module of the package names `SAMPLE_DTYPE` or `np.recarray`."""
    layout = {"SAMPLE_DTYPE", "recarray"}
    named = [f"{name}: {ref}" for name, tree in _modules() if name != "ingest.py"
             for ref in _names(tree) if ref in layout]
    assert named == [] and layout <= set(_names(dict(_modules())["ingest.py"]))


def test_package_imports_no_test_oracle():
    oracles = {"gradcheck", "chain_oracle"}
    found = [f"{name}:{node.lineno}" for name, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and oracles & {part for dotted in [getattr(node, "module", None) or ""]
                            + [alias.name for alias in node.names] for part in dotted.split(".")}]
    assert found == []


def test_layers_are_nodes_not_tape_chains():
    """Outside `autodiff`, a module imports from it only the tensor, the
    store, `node`, `gradients`, `_as_tensor`, `mean` and `square`, and never
    the module itself: every layer is one node with its own backward."""
    allowed = {"ParamStore", "Tensor", "node", "gradients", "_as_tensor", "mean", "square"}
    found = []
    for name, tree in _modules():
        if name == "autodiff.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
                found += [f"{name}: {alias.name}" for alias in node.names
                          if alias.name not in allowed]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{name}: {alias.name}" for alias in node.names
                          if alias.name.split(".")[-1] == "autodiff"]
    assert found == []


def test_optim_handles_parameters_only_as_arrays():
    """`optim` sees the parameters as `ParamStore.vector` and their gradient
    as one vector of its layout: it imports nothing from `autodiff` but
    `gradients`, calls no `.items()` or `.names()`, and subscripts only by
    slices, so it indexes no store or gradient by name."""
    found = []
    for node in ast.walk(dict(_modules())["optim.py"]):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
            found += [alias.name for alias in node.names if alias.name != "gradients"]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if "autodiff" in alias.name]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("items", "names"):
            found.append(f"{node.func.attr}():{node.lineno}")
        elif isinstance(node, ast.Subscript) and not isinstance(node.slice, ast.Slice):
            found.append(f"[{ast.unparse(node.slice)}]:{node.lineno}")
    assert found == []


def test_cli_and_training_leave_per_seed_aggregation_to_metrics():
    """`evaluate` and `ablate` score through `metrics.score_seeds`: the
    modules that call them compute no mean or median and collect no
    per-seed lists of their own."""
    found = []
    for name, tree in _modules():
        if name not in ("cli.py", "training.py"):
            continue
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            called = getattr(func, "id", getattr(func, "attr", None))
            numpy = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "np"
            if called == "defaultdict" or (numpy and called in ("mean", "median")):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_cropsim_draws_a_unit_year_in_one_function():
    """Field station-years and county-years share one draw path: in
    `cropsim`, only `draw_unit_year` calls `synth_weather` and
    `sample_management`."""
    tree = dict(_modules())["cropsim.py"]
    allowed = {id(node) for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "draw_unit_year"
               for node in ast.walk(fn)}
    inside, outside = 0, []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if getattr(func, "id", getattr(func, "attr", None)) in ("synth_weather",
                                                               "sample_management"):
            inside += id(node) in allowed
            outside += [] if id(node) in allowed else [f"cropsim.py:{node.lineno}"]
    assert outside == [] and inside >= 2


def test_graph_free_forwards_run_in_blocks():
    """Every graph-free forward of the yield network goes through
    `model.forward_blocks`: in a module that names `forward_graph`,
    `.constants()` is called only inside `forward_blocks`, which calls
    `forward_graph`."""
    outside, inside = [], set()
    for name, tree in _modules():
        if "forward_graph" not in set(_names(tree)):
            continue
        allowed = {id(node) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "forward_blocks"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            called = getattr(func, "id", getattr(func, "attr", None))
            if called in ("constants", "forward_graph") and id(node) in allowed:
                inside.add(called)
            elif called == "constants":
                outside.append(f"{name}:{node.lineno}")
    assert outside == [] and inside == {"constants", "forward_graph"}


def test_only_artifacts_opens_files():
    """The CSV and JSON formats are known to `artifacts` alone: no other
    module of the package calls `open`."""
    opened = [f"{name}:{node.lineno}" for name, tree in _modules() if name != "artifacts.py"
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"]
    assert opened == []


def test_only_artifacts_names_the_text_block_size():
    """How many rows or cells a CSV block holds is `artifacts`' decision
    alone: no other module of the package names its block-size constants
    or the helper that applies them."""
    sizes = {"_CHUNK_ROWS", "_CHUNK_CELLS", "_block_rows"}
    named = [f"{name}: {ref}" for name, tree in _modules() if name != "artifacts.py"
             for ref in _names(tree) if ref in sizes]
    assert named == [] and sizes <= set(_names(dict(_modules())["artifacts.py"]))


def test_only_artifacts_and_ingest_read_csv_blocks():
    """No module but `artifacts`, which defines it, and `ingest` calls
    `read_csv_blocks`, so `ingest._counties` stays the one block-wise
    reader of the county files."""
    calls = [f"{name}:{node.lineno}" for name, tree in _modules()
             if name not in ("artifacts.py", "ingest.py")
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "read_csv_blocks"]
    assert calls == []


def _names(tree):
    """Every name a tree refers to: bare names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_function_and_class_is_named_somewhere():
    """No dead helpers: each function and class defined in `src/kgmlsm`,
    dunder methods aside, is called, passed or imported by name somewhere
    in `src`, `tests` or `perfbench`."""
    named = set()
    for folder in ("src", "tests", "perfbench"):
        for path in glob.glob(os.path.join(ROOT, folder, "**", "*.py"), recursive=True):
            with open(path, encoding="utf-8") as f:
                named.update(_names(ast.parse(f.read())))
    unnamed = [f"{name}:{node.lineno} {node.name}"
               for name, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert unnamed == []
