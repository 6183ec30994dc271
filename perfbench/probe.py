"""Model probes for the traced run, on the workload's own checkpoints and
samples: forward and backward time of the W2S encoder and of the attention
head on one pretrain batch of 64, and the tracemalloc peak of one
`ModelBundle.predict` over the county samples.

    python3 perfbench/probe.py OUT.json RUN_DIR SEED

A probe whose program function is gone is reported as missing.
"""

import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

REPEATS = 15


def fwd_bwd(run_dir, seed):
    from kgmlsm import autodiff, ingest, losses, model

    bundle = model.load_checkpoint(os.path.join(run_dir, "pretrain", f"seed{seed}", "model"))
    source = os.path.join(run_dir, "filter", "field_filtered.csv")
    if not os.path.exists(source):
        source = os.path.join(run_dir, "data", "field_samples.csv")
    field = ingest.read_samples_csv(source)
    idx = np.random.default_rng([seed, 64]).permutation(len(field))[:64]
    batch = model.standardize(model.stack_dataset(
        ingest.Dataset(level=field.level, samples=[field.samples[i] for i in idx])), bundle.stats)
    params, config = bundle.params, bundle.config
    tensor = autodiff.Tensor
    times = {"model.w2s_fwd_ms": [], "model.w2s_bwd_ms": [],
             "model.attention_fwd_ms": [], "model.attention_bwd_ms": []}
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sm_hat = model.w2s_forward(tensor(batch["w"]), params)
        t1 = time.perf_counter()
        loss = losses.sm_loss(batch["s"], sm_hat)
        t2 = time.perf_counter()
        autodiff.backward(loss)
        t3 = time.perf_counter()
        x = model.assemble_input(tensor(batch["w"]), tensor(batch["aux"]), tensor(batch["v"]),
                                 tensor(batch["s"]), config)
        t4 = time.perf_counter()
        y, _ = model.attention_forward(x, params, config)
        t5 = time.perf_counter()
        loss = autodiff.mean(autodiff.square(y - tensor(batch["y_std"])))
        t6 = time.perf_counter()
        autodiff.backward(loss)
        t7 = time.perf_counter()
        for name, dt in zip(times, (t1 - t0, t3 - t2, t5 - t4, t7 - t6)):
            times[name].append(dt)
    return {name: (1e3 * statistics.median(v), "ms") for name, v in times.items()}


def predict_peak(run_dir, seed):
    from kgmlsm import ingest, model

    bundle = model.load_checkpoint(os.path.join(run_dir, "finetune", f"seed{seed}", "model"))
    county = ingest.read_samples_csv(os.path.join(run_dir, "data", "county_samples.csv"))
    tracemalloc.start()
    try:
        bundle.predict(county)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"model.predict_peak_alloc_mb": (peak / 2 ** 20, "MB")}


def main(argv):
    out_path, run_dir, seed = argv[0], argv[1], int(argv[2])
    found, missing = {}, []
    for probe in (predict_peak, fwd_bwd):
        try:
            found.update(probe(run_dir, seed))
        except (ImportError, AttributeError) as e:
            missing.append(f"{probe.__name__}: {e}")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"metrics": found, "missing": missing}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
