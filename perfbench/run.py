#!/usr/bin/env python3
"""Pipeline benchmark: the kgmlsm CLI stages on three workloads.

    python3 perfbench/run.py --workload prep|train|score --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each CLI stage runs in a process
of its own, so its time and peak RSS belong to it alone. With --trace 0
the last line of output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced round (see README.md).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(HERE)
RUNS = ".perfbench_runs"


class StageFailed(Exception):
    pass


class Bench:
    """One run directory inside the checkout, and the stages run in it."""

    def __init__(self, workload, seed, root=ROOT, runs_dir=None, scale=None):
        self.workload, self.seed, self.root = workload, int(seed), root
        self.scale = scale or workload.scale
        runs_dir = runs_dir or os.path.join(root, RUNS)
        os.makedirs(runs_dir, exist_ok=True)
        self.run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=runs_dir)
        self.config_path = os.path.join(self.run_dir, "config.json")
        self.cfg = None
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cli_times = {}  # stage -> (seconds, peak RSS MB) of its last untraced run

    def close(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.run_dir))
        except OSError:
            pass  # another run still uses it

    def spawn(self, args):
        """Run one Python process; return (seconds, peak RSS MB, exit code)."""
        with open(os.path.join(self.run_dir, "stages.log"), "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, cwd=self.root, env=self.env,
                                    stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_maxrss / 1024.0, proc.returncode

    def stage(self, name, traced_to=None, config=None):
        prog = ["-m", "kgmlsm.cli"] if traced_to is None else [
            os.path.join(HERE, "tracing.py"), traced_to]
        seconds, rss, code = self.spawn(prog + [name, "--config", config or self.config_path])
        if code != 0:
            with open(os.path.join(self.run_dir, "stages.log"), encoding="utf-8") as f:
                tail = "".join(f.readlines()[-5:])
            raise StageFailed(f"`kgmlsm {name}` exited {code}:\n{tail}")
        if traced_to is None:
            self.cli_times[name] = (seconds, rss)
        return seconds, rss

    def write_config(self, cfg):
        self.cfg = cfg
        inputs.write_config(self.config_path, cfg)

    def files(self):
        out = {}
        for base, _, names in os.walk(self.run_dir):
            for n in names:
                st = os.stat(os.path.join(base, n))
                out[os.path.join(base, n)] = (st.st_size, st.st_mtime_ns)
        return out

    def path(self, *parts):
        return os.path.join(self.run_dir, *parts)


def count_rows(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f) - 1


# ---------------------------------------------------------------------------
# workloads: inputs and set-up stages, timed stages, and what a round made

STAGES = ("simulate", "ingest", "filter", "pretrain", "finetune", "evaluate", "attn-report")


class Workload:
    def stage_config(self, b, stage):
        """The config on which the traced run runs a stage the workload
        does not time: by default the workload's own."""
        return b.config_path


class Prep(Workload):
    """simulate, ingest and filter on a county-heavy config; its config's
    short fixed training is run only by the traced run."""

    name, timed, scale, setup_repeats = "prep", ("simulate", "ingest", "filter"), inputs.PREP, 3

    def setup(self, b):
        b.write_config(inputs.prep_config(b.root, b.run_dir, b.seed, b.scale))

    def outcome(self, b, times):
        n = checks.check_prep(b.cfg, b.run_dir)
        county = checks.read_samples(b.path("data", "county_samples.csv"))
        rmse = checks.ridge_cv_rmse(county)
        return n / sum(times.values()), rmse


class Train(Workload):
    """pretrain, finetune, evaluate and attn-report on the demo data."""

    name, scale, setup_repeats = "train", inputs.TRAIN, 1
    timed = ("pretrain", "finetune", "evaluate", "attn-report")

    def setup(self, b):
        b.write_config(inputs.train_config(b.root, b.run_dir, b.seed, b.scale))
        for stage in ("simulate", "ingest", "filter"):
            b.stage(stage)

    def outcome(self, b, times):
        rmse = checks.check_train(b.cfg, b.run_dir)
        seed = b.cfg["seeds"][0]
        target = int(b.cfg["target_year"])
        county = checks.read_rows(b.path("data", "county_truth.csv"))
        n_train = math.floor(0.8 * sum(int(r["year"]) < target for r in county))
        samples = (count_rows(b.path("pretrain", f"seed{seed}", "epochs.csv"))
                   * count_rows(b.path("filter", "field_filtered.csv"))
                   + count_rows(b.path("finetune", f"seed{seed}", "epochs.csv")) * n_train)
        return samples / (times["pretrain"] + times["finetune"]), rmse


class Score(Workload):
    """evaluate and attn-report over paper-scale county samples."""

    name, scale, setup_repeats = "score", inputs.SCORE, 1
    timed = ("evaluate", "attn-report")

    def setup(self, b):
        b.write_config(inputs.score_config(b.run_dir, b.seed, b.scale))
        b.n_samples = inputs.write_score_inputs(b.path("data"), b.seed, b.scale)
        for stage in ("pretrain", "finetune"):
            b.stage(stage)

    def stage_config(self, b, stage):
        """The data stages run on a small demo-style config in a directory
        of their own, since the workload's samples are generated."""
        if stage not in ("simulate", "ingest", "filter"):
            return b.config_path
        path = b.path("data_stages", "config.json")
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path))
            inputs.write_config(path, inputs.score_data_config(
                b.root, os.path.dirname(path), b.seed, b.scale))
        return path

    def outcome(self, b, times):
        rmse = checks.check_score(b.cfg, b.run_dir, b.n_samples)
        n_test = count_rows(b.path("evaluate", "errors.csv"))
        return (n_test + b.n_samples) / sum(times.values()), rmse


WORKLOADS = {w.name: w for w in (Prep(), Train(), Score())}


# ---------------------------------------------------------------------------
# measuring


def set_up(b):
    """Program start-up check, inputs and set-up stages; returns seconds."""
    start = time.perf_counter()
    _, _, code = b.spawn(["-m", "kgmlsm.cli", "--help"])
    if code != 0:
        raise StageFailed(f"the program does not start (`kgmlsm --help` exited {code})")
    b.workload.setup(b)
    return time.perf_counter() - start


def run_round(b, trace_dir=None):
    """The timed stages once, then the output checks.

    Returns a dict of the round's figures; "error" holds a failed check.
    """
    before = b.files()
    times, rss = {}, {}
    for stage in b.workload.timed:
        traced_to = None if trace_dir is None else os.path.join(trace_dir, f"{stage}.json")
        times[stage], rss[stage] = b.stage(stage, traced_to)
    after = b.files()
    written = sum(size for p, (size, mtime) in after.items() if before.get(p) != (size, mtime))
    out = {"wall_s": sum(times.values()), "peak_rss_mb": max(rss.values()),
           "artifact_mb": written / 2 ** 20, "error": None}
    try:
        out["samples_per_s"], out["test_rmse"] = b.workload.outcome(b, times)
    except (checks.CheckFailed, OSError, KeyError, ValueError) as e:
        out["error"] = f"{type(e).__name__}: {e}"
    return out


END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "samples_per_s": "samples/s",
              "artifact_mb": "MB", "test_rmse": "t/ha"}


def measure(b, seconds):
    """Set-up (median of the workload's repeats), then whole rounds until
    `seconds` of timed stages have run; medians of the round figures."""
    setups = [set_up(b) for _ in range(b.workload.setup_repeats)]
    rounds, start = [], time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(b))
    metrics = {"setup_s": statistics.median(setups)}
    for name in list(END_TO_END)[1:]:
        values = [r[name] for r in rounds if name in r]  # a failed check leaves the last two out
        if values:
            metrics[name] = statistics.median(values)
    return rounds, metrics


def measure_traced(b):
    """Set-up, one untraced round, one traced round, then every stage the
    workload does not time, untraced (unless set-up ran it) and traced,
    and the model probes."""
    set_up(b)
    plain = run_round(b)
    trace_dir = b.path("trace")
    os.makedirs(trace_dir)
    traced = run_round(b, trace_dir)
    for stage in STAGES:
        if stage in b.workload.timed:
            continue
        config = b.workload.stage_config(b, stage)
        if stage not in b.cli_times:
            b.stage(stage, config=config)
        b.stage(stage, os.path.join(trace_dir, f"{stage}.json"), config)
    traces = []
    for stage in STAGES:
        with open(os.path.join(trace_dir, f"{stage}.json"), encoding="utf-8") as f:
            traces.append(json.load(f))
    found, absent = tracing.layer_metrics(traces)

    probe_out = os.path.join(trace_dir, "probe.json")
    args = [probe_out, b.run_dir, str(b.cfg["seeds"][0])]
    _, _, code = b.spawn([os.path.join(HERE, "probe.py")] + args)
    if code != 0:
        raise StageFailed(f"model probe exited {code}")
    with open(probe_out, encoding="utf-8") as f:
        probe = json.load(f)
    found.update({k: tuple(v) for k, v in probe["metrics"].items()})
    absent.update({m: "probe function not found in the program" for m in probe["missing"]})

    for stage, (seconds, rss) in b.cli_times.items():
        key = stage.replace("-", "_")
        found[f"cli.{key}_s"] = (seconds, "s")
        found[f"cli.{key}_peak_rss_mb"] = (rss, "MB")
    data = os.path.join(os.path.dirname(b.workload.stage_config(b, "ingest")), "data")
    found["ingest.intermediate_mb"] = (sum(
        os.path.getsize(os.path.join(data, name)) for name in ("pixels.csv", "daily.csv"))
        / 2 ** 20, "MB")
    found["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    for metric, why in sorted(absent.items()):
        print(f"perfbench: {metric} not reported: {why}", file=sys.stderr)
    return [plain, traced], found


def result(workload, seed, seconds, trace, root=ROOT, runs_dir=None, scale=None):
    """Run one benchmark invocation; return the result object."""
    w = WORKLOADS[workload]
    b = Bench(w, seed, root, runs_dir, scale)
    try:
        if trace:
            rounds, found = measure_traced(b)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(found.items())}
        else:
            rounds, values = measure(b, seconds)
            metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END
                       if k in values}
    finally:
        b.close()
    for r in rounds:
        if r["error"]:
            print(f"perfbench: check failed: {r['error']}", file=sys.stderr)
    n_stages = len(w.timed)
    return {"correct": all(r["error"] is None for r in rounds),
            "attempted": n_stages * len(rounds), "failed": 0, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "kgmlsm", "cli.py")):
        print(f"perfbench: no kgmlsm sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        out = result(args.workload, args.seed, args.seconds, bool(args.trace))
    except StageFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
