"""Spans around the program's public functions, for the traced run.

Nothing in the program is edited: each target function is replaced, in
every program module that binds it, by a wrapper that records a span
(name, start, end, parent span, note). Run as a script, this file executes
one CLI stage in-process with every target wrapped and writes the spans:

    python3 perfbench/tracing.py SPANS.json STAGE --config CONFIG

A target the program no longer has is listed as missing; the stage still
runs and the metrics built on that target are left out.
"""

import functools
import importlib
import json
import sys
import time

# (module, function) pairs timed by the per-layer metrics, with the note
# each span keeps: a row or sample count, or the baseline kind.
TARGETS = {
    ("kgmlsm.kernels", "bucket_water_balance"): None,
    ("kgmlsm.cropsim", "build_field_dataset"): None,
    ("kgmlsm.cropsim", "build_county_inputs"): None,
    ("kgmlsm.ingest", "write_pixels_csv"): None,
    ("kgmlsm.ingest", "read_pixels_csv"): None,
    ("kgmlsm.ingest", "read_daily_csv"): None,
    ("kgmlsm.ingest", "spatial_average_all"): lambda args, kw: len(args[0]),
    ("kgmlsm.ingest", "build_county_dataset"): None,
    ("kgmlsm.ingest", "write_samples_csv"): None,
    ("kgmlsm.ingest", "read_samples_csv"): None,
    ("kgmlsm.filtering", "fit_sm_regressor"): None,
    ("kgmlsm.filtering", "screen_field_samples"): None,
    ("kgmlsm.model", "ModelBundle.predict"): lambda args, kw: len(args[1]),
    ("kgmlsm.model", "save_checkpoint"): None,
    ("kgmlsm.model", "load_checkpoint"): None,
    ("kgmlsm.optim", "adam_step"): None,
    ("kgmlsm.training", "pretrain"): None,
    ("kgmlsm.metrics", "baseline_fit_predict"): lambda args, kw: str(args[0]),
    ("kgmlsm.metrics", "error_report"): None,
    ("kgmlsm.attnreport", "extract"): None,
    ("kgmlsm.attnreport", "category_report"): None,
    ("kgmlsm.attnreport", "write_raw_csv"): None,
}


def span_name(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1,
                    note(args, kwargs) if note else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
        return traced


def install(recorder, targets=TARGETS):
    """Wrap every target found; return the names of those not found.

    A function imported by name into another program module (cropsim's
    `bucket_water_balance`, training's `adam_step`) is rebound there too.
    """
    program = [m for name, m in sys.modules.items() if name.startswith("kgmlsm.")]
    missing = []
    for (module_name, attr), note in targets.items():
        try:
            owner = importlib.import_module(module_name)
            *path, fn_name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
        except (ImportError, AttributeError):
            missing.append(span_name(module_name, attr))
            continue
        wrapped = recorder.wrap(span_name(module_name, attr), original, note)
        setattr(owner, fn_name, wrapped)
        for module in program:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    from kgmlsm import cli

    recorder = Recorder()
    missing = install(recorder)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"missing": missing, "spans": recorder.spans}, f)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced round

# metric: (span, note filter, statistic, scale, unit); the statistic is the
# total, the mean per call, or the total per unit of the note.
SPAN_METRICS = {
    "kernels.station_year_us": ("kernels.bucket_water_balance", None, "mean", 1e6, "us"),
    "cropsim.field_dataset_s": ("cropsim.build_field_dataset", None, "sum", 1.0, "s"),
    "cropsim.county_inputs_s": ("cropsim.build_county_inputs", None, "sum", 1.0, "s"),
    "ingest.pixels_write_s": ("ingest.write_pixels_csv", None, "sum", 1.0, "s"),
    "ingest.pixels_read_s": ("ingest.read_pixels_csv", None, "sum", 1.0, "s"),
    "ingest.daily_read_s": ("ingest.read_daily_csv", None, "sum", 1.0, "s"),
    "ingest.spatial_average_us_per_row": ("ingest.spatial_average_all", None, "per_note", 1e6, "us"),
    "ingest.county_dataset_s": ("ingest.build_county_dataset", None, "sum", 1.0, "s"),
    "ingest.samples_write_s": ("ingest.write_samples_csv", None, "sum", 1.0, "s"),
    "ingest.samples_read_s": ("ingest.read_samples_csv", None, "sum", 1.0, "s"),
    "filtering.fit_ms": ("filtering.fit_sm_regressor", None, "sum", 1e3, "ms"),
    "filtering.screen_ms": ("filtering.screen_field_samples", None, "sum", 1e3, "ms"),
    "model.predict_us_per_sample": ("model.ModelBundle.predict", None, "per_note", 1e6, "us"),
    "model.checkpoint_save_ms": ("model.save_checkpoint", None, "mean", 1e3, "ms"),
    "model.checkpoint_load_ms": ("model.load_checkpoint", None, "mean", 1e3, "ms"),
    "metrics.mlp_baseline_s": ("metrics.baseline_fit_predict", {"mlp"}, "sum", 1.0, "s"),
    "metrics.linear_baselines_ms": ("metrics.baseline_fit_predict", {"lr", "ridge"}, "sum", 1e3, "ms"),
    "metrics.error_report_ms": ("metrics.error_report", None, "sum", 1e3, "ms"),
    "attnreport.extract_s": ("attnreport.extract", None, "sum", 1.0, "s"),
    "attnreport.category_report_s": ("attnreport.category_report", None, "sum", 1.0, "s"),
    "attnreport.write_raw_s": ("attnreport.write_raw_csv", None, "sum", 1.0, "s"),
}


def _under(spans, span, ancestor):
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(traces):
    """traces: the {"missing", "spans"} dicts of one round's stages.

    Returns ({metric: (value, unit)}, {metric: why it is absent}).
    """
    missing = set().union(*(t["missing"] for t in traces))
    found, absent = {}, {}
    for metric, (name, kinds, stat, scale, unit) in SPAN_METRICS.items():
        sel = [s for t in traces for s in t["spans"]
               if s[0] == name and (kinds is None or s[4] in kinds)]
        if name in missing:
            absent[metric] = f"{name} not found in the program"
        elif not sel:
            absent[metric] = f"{name} not called by this workload"
        else:
            value = sum(s[2] - s[1] for s in sel) * scale
            if stat == "mean":
                value /= len(sel)
            elif stat == "per_note":
                value /= sum(s[4] for s in sel)
            found[metric] = (value, unit)

    # Adam and whole training steps of the model: pretrain's batches only
    step_metrics = ("optim.adam_step_ms", "training.step_ms")
    pretrain = [s for t in traces for s in t["spans"] if s[0] == "training.pretrain"]
    steps = [s for t in traces for s in t["spans"]
             if s[0] == "optim.adam_step" and _under(t["spans"], s, "training.pretrain")]
    if {"optim.adam_step", "training.pretrain"} & missing:
        absent.update({m: "optim.adam_step or training.pretrain not found in the program"
                       for m in step_metrics})
    elif not steps:
        absent.update({m: "training.pretrain not called by this workload" for m in step_metrics})
    else:
        found["optim.adam_step_ms"] = (1e3 * sum(s[2] - s[1] for s in steps) / len(steps), "ms")
        found["training.step_ms"] = (1e3 * sum(s[2] - s[1] for s in pretrain) / len(steps), "ms")
    return found, absent


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
