#!/usr/bin/env python3
"""Benchmark of the advmtl library, driven only through its public calls.

    python3 perfbench/run.py --workload desk-asp --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

A run is one process and one caller: it sets the workload up several
times (``setup_s`` is their median), then repeats the workload's calls
back to back until the next iteration would end past ``--seconds``.
Times are given at a reference machine speed (``speed.py``).
``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` is a separate run that wraps the library's public functions
and reports the per-layer metrics. ``--workload all`` runs every workload
untraced and traced, one process each, and prints both sets side by side
with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs, traces and
digests go to ``.perfbench_out/`` at the repository root. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_THREADS = 1  # fixed, at most nproc, so digests do not depend on the machine
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900
UNMEASURED = -1  # value of a per-layer metric whose hook could not attach
# Units of the timings reported beside the BENCHMARK.json metrics. They are
# printed and recorded, but carry no bound: at this run length their spread
# between runs is too wide for one (see README.md).
REPORTED_UNITS = {"probe_s": "s", "ckpt_save_s": "s", "ckpt_load_s": "s",
                  "eval_sents_per_s": "sentences/s"}

# Per-layer metrics: name -> (kind, source, hook keys it needs).
#   setup_share  span time as % of set-up time
#   share        span time as % of the time inside the timed library calls
#   self_share   span self time (children excluded), same base as share
#   count        counter per loop iteration
#   per_step     counter per backward pass;  per_sgd  counter per sgd_step
#   ratio        counter over counter
LSTM = ("nn.lstm_encode", "nn.lstm_split")
PER_LAYER = {
    "data.generate_synthetic_pct": ("setup_share", "data.generate_synthetic",
                                    ("data.generate_synthetic",)),
    "data.encode_corpus_pct": ("setup_share", "data.encode_corpus", ("data.encode_corpus",)),
    "data.batcher_pct": ("share", "data.batcher", ("data.next_labeled", "data.next_unlabeled")),
    "data.batches": ("count", "data.batches", ("data.next_labeled", "data.next_unlabeled")),
    "autodiff.backward_pct": ("share", "autodiff.backward", ("autodiff.backward",)),
    "autodiff.backward_self_pct": ("self_share", "autodiff.backward",
                                   ("autodiff.backward", "nn.lstm_encode", "nn.lstm_bwd",
                                    "autodiff.take_rows", "autodiff.take_rows_bwd")),
    "autodiff.tape_nodes_per_step": ("per_step", "tape_nodes", ("autodiff.backward",)),
    "autodiff.take_rows_fwd_pct": ("share", "autodiff.take_rows_fwd", ("autodiff.take_rows",)),
    "autodiff.take_rows_bwd_pct": ("share", "autodiff.take_rows_bwd",
                                   ("autodiff.take_rows", "autodiff.take_rows_bwd")),
    "autodiff.grad_bytes_per_step": ("per_step", "grad_bytes", ("autodiff.backward",)),
    "autodiff.grad_zero_frac": ("ratio", ("grad_zero_bytes", "grad_bytes"),
                                ("autodiff.backward",)),
    "autodiff.clamp_events": ("count", "clamp_events", ("autodiff.backward",)),
    "nn.embed_rows_touched_frac": ("per_step", "rows_touched_frac",
                                   ("autodiff.backward", "autodiff.take_rows", "models.bind")),
    "nn.lstm_shared_fwd_pct": ("share", "nn.lstm_shared_fwd", LSTM),
    "nn.lstm_private_fwd_pct": ("share", "nn.lstm_private_fwd", LSTM),
    "nn.lstm_shared_bwd_pct": ("share", "nn.lstm_shared_bwd", LSTM + ("nn.lstm_bwd",)),
    "nn.lstm_private_bwd_pct": ("share", "nn.lstm_private_bwd", LSTM + ("nn.lstm_bwd",)),
    "nn.lstm_timesteps": ("count", "nn.lstm_timesteps", ("nn.lstm_encode",)),
    "nn.softmax_classify_pct": ("share", "nn.softmax_classify", ("nn.softmax_classify",)),
    "losses.diff_loss_pct": ("share", "losses.diff_loss", ("losses.diff_loss",)),
    "losses.adversarial_loss_pct": ("share", "losses.adversarial_loss",
                                    ("losses.adversarial_loss",)),
    "models.discriminate_pct": ("share", "models.discriminate", ("models.discriminate",)),
    "models.bind_pct": ("share", "models.bind", ("models.bind",)),
    "models.bind_calls": ("count", "models.bind_calls", ("models.bind",)),
    "models.forward_pct": ("share", "models.forward", ("models.forward",)),
    "models.forward_shared_pct": ("share", "models.forward_shared", ("models.forward_shared",)),
    "models.copy_pct": ("share", "models.copy", ("models.copy",)),
    "models.save_checkpoint_pct": ("share", "models.save_checkpoint",
                                   ("models.save_checkpoint",)),
    "models.load_checkpoint_pct": ("share", "models.load_checkpoint",
                                   ("models.load_checkpoint",)),
    "models.checkpoint_bytes": ("count", "models.checkpoint_bytes",
                                ("models.save_checkpoint",)),
    "train.train_multitask_pct": ("share", "train.train_multitask", ("train.train_multitask",)),
    "train.sgd_step_pct": ("share", "train.sgd_step", ("train.sgd_step",)),
    "train.sgd_step_bytes": ("per_sgd", "sgd_bytes", ("train.sgd_step",)),
    "train.evaluate_pct": ("share", "train.evaluate", ("train.evaluate",)),
    "train.shared_features_pct": ("share", "train.shared_features", ("train.shared_features",)),
    "train.fit_probe_pct": ("share", "train.fit_probe", ("train.fit_probe",)),
    "train.probe_shared_purity_pct": ("share", "train.probe_shared_purity",
                                      ("train.probe_shared_purity",)),
    "train.shared_private_cosine_pct": ("share", "train.shared_private_cosine",
                                        ("train.shared_private_cosine",)),
    "trace.overhead_pct": ("overhead", None, ()),
    "trace.unmeasured": ("unmeasured", None, ()),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def code_hash() -> str:
    """Hash of the library and benchmark sources: digests are compared per code version."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "advmtl"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "seed": seed}


def time_summary(speed, spans: list) -> dict:
    """Median seconds at the reference speed, and as measured (``raw_*``)."""
    ref = [speed.at_reference(span) for span in spans]
    raw = [seconds for _, _, seconds in spans]
    return {"value": statistics.median(ref), "n": len(ref), "min": min(ref), "max": max(ref),
            "raw_median": statistics.median(raw)}


def throughput_summary(speed, calls: dict) -> dict:
    """Sentences per second from repeated identical calls.

    Each call key's time is the median of its calls at the reference speed;
    the value is all keys' sentences over the sum of those medians.
    ``raw_median`` does the same with the seconds as measured.
    """
    sentences = sum(n for n, _ in calls.values())

    def rate(seconds_of, pick):
        return sentences / sum(pick([seconds_of(span) for span in spans])
                               for _, spans in calls.values())

    return {"value": rate(speed.at_reference, statistics.median),
            "n": min(len(spans) for _, spans in calls.values()),
            "min": rate(speed.at_reference, max), "max": rate(speed.at_reference, min),
            "raw_median": rate(lambda span: span[2], statistics.median)}


def check_digests(key: str, digests: list[dict], probe_digest: str, ops) -> dict:
    """All iterations, and every earlier run of the same code and seed, must agree."""
    ops.check("digests equal across iterations", all(d == digests[0] for d in digests))
    first = dict(digests[0], probe=probe_digest)
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    if key in known:
        ops.check("digests equal those of earlier runs of this code and seed",
                  known[key] == first)
    else:
        known[key] = first
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return first


def per_layer(tracer, setup_totals, setup_s, loop, iter_counters, ops) -> dict:
    """Per-layer metric values from the traced run's spans and counters."""
    totals, self_totals, overhead_s = loop
    counters = iter_counters[0] if iter_counters else {}
    ops.check("per-layer counts equal across iterations",
              all(c == counters for c in iter_counters))
    base = ops.measured_s
    out = {}
    for name, (kind, src, hooks) in PER_LAYER.items():
        if any(h in tracer.unmeasured for h in hooks):
            out[name] = UNMEASURED
        elif kind == "setup_share":
            out[name] = 100.0 * setup_totals.get(src, 0.0) / setup_s
        elif kind == "share":
            out[name] = 100.0 * totals.get(src, 0.0) / base
        elif kind == "self_share":
            out[name] = 100.0 * self_totals.get(src, 0.0) / base
        elif kind == "count":
            out[name] = counters.get(src, 0)
        elif kind in ("per_step", "per_sgd"):
            calls = counters.get("steps" if kind == "per_step" else "sgd_calls", 0)
            out[name] = counters.get(src, 0) / calls if calls else 0
        elif kind == "ratio":
            num, den = src
            out[name] = counters.get(num, 0) / counters[den] if counters.get(den) else 0
        elif kind == "overhead":
            out[name] = 100.0 * overhead_s / base
        elif kind == "unmeasured":
            out[name] = len(tracer.unmeasured)
    return out


def run_one(args) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "advmtl", "__init__.py")):
        return fail(f"library sources not found under {SRC}")
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, SRC)
    import advmtl
    if not os.path.abspath(advmtl.__file__).startswith(SRC + os.sep):
        return fail(f"imported advmtl from {advmtl.__file__}, not from {SRC}")
    import workloads as W
    from speed import SpeedProbe
    from tracer import Tracer

    if args.workload not in W.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    quiet = tracer.suspended if tracer else nullcontext
    speed = SpeedProbe(wl.speed)
    ops = W.Ops(quiet, speed)
    setup_spans = []

    def set_up():
        mark = speed.mark()
        state = W.set_up(wl, args.seed, work_dir)
        setup_spans.append(speed.since(mark))
        return state

    def set_up_again():
        # Extra set-ups are spread over the run, like the loop's samples, so
        # that setup_s does not hinge on the machine's speed in the first
        # seconds of a process. Their state is identical and is discarded.
        with quiet():
            set_up()

    try:
        speed.start()
        state = set_up()
        if tracer:
            setup_totals = tracer.take_times()[0]
            tracer.take_counters()

        iterations, iter_counters, probed = 0, [], False
        start = perf_counter()
        while True:
            # Tapes are reference cycles (node <-> tape) that keep the weights
            # they saw alive until a full collection. Collecting between
            # iterations keeps one iteration's garbage out of the next, so
            # peak RSS does not depend on how many iterations fit the run.
            gc.collect()
            if iterations and len(setup_spans) < W.SETUP_REPS:
                set_up_again()
            t0 = perf_counter()
            try:
                model, errors = W.iteration(wl, state, ops)
                if tracer:
                    iter_counters.append(tracer.take_counters())
                if not probed:
                    probed = True
                    W.probe(state, ops, model, errors)
            except W.OpFailed:
                pass
            if tracer:  # the once-per-run probe is not part of an iteration
                tracer.take_counters()
            model = None
            iterations += 1
            elapsed, last = perf_counter() - start, perf_counter() - t0
            if elapsed + last > args.seconds:
                break
        gc.collect()
        while len(setup_spans) < W.SETUP_REPS:
            set_up_again()
        if tracer:
            loop = tracer.take_times()
    finally:
        speed.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        if tracer:
            tracer.uninstall()

    digests = {}
    if ops.digests:
        key = f"{args.workload}:{args.seed}:{code_hash()}"
        digests = check_digests(key, ops.digests, ops.probe_digest, ops)
    layer = {}
    if tracer:
        first = setup_spans[0]
        layer = per_layer(tracer, setup_totals, first[1] - first[0], loop, iter_counters, ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops.samples["setup_s"] = setup_spans
    e2e = {name: time_summary(speed, spans) for name, spans in ops.samples.items()}
    e2e.update({name: throughput_summary(speed, c) for name, c in ops.calls.items()})
    e2e["peak_rss_mb"] = {"value": rss_mb, "n": 1}
    e2e = dict(sorted(e2e.items()))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed),
              "sents_per_s_is": "train_sents_per_s" if wl.train else "eval_sents_per_s",
              "iterations": iterations, "speed_probe": speed.summary(),
              "attempted": ops.attempted, "failed": ops.failed,
              "fail_frac": ops.failed / max(ops.attempted, 1),
              "digests": digests, "end_to_end": e2e, "notes": sorted(ops.notes)}

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    if tracer:
        report["per_layer"] = layer
        report["unmeasured"] = tracer.unmeasured
        report["per_layer_seconds_per_iteration"] = {
            k: v / iterations for k, v in sorted(loop[0].items())}
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz"),
                     {"workload": args.workload, "seed": args.seed})
        source = layer
    else:
        source = {k: v["value"] for k, v in e2e.items()}
    for m in spec[section]:
        if m["name"] not in source:
            return fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}

    print_report(report, spec)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def metric_units(spec: dict) -> dict:
    return dict(REPORTED_UNITS, **{m["name"]: m["unit"]
                                   for m in spec["end_to_end"] + spec["per_layer"]})


def print_report(report: dict, spec: dict) -> None:
    units = metric_units(spec)
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"iterations={report['iterations']} env={json.dumps(report['environment'])}")
    print(f"  (sents_per_s is {report['sents_per_s_is']} here)")
    for name, s in report["end_to_end"].items():
        extra = (f" (n={s['n']}, min {s['min']:.6g}, max {s['max']:.6g}, "
                 f"as measured {s['raw_median']:.6g})" if "raw_median" in s else "")
        print(f"  {name:<28} {s['value']:>14.6g} {units.get(name, ''):<12}{extra}")
    print(f"  {'fail_frac':<28} {report['fail_frac']:>14.6g} {'ratio':<12} "
          f"({report['failed']} failed of {report['attempted']} attempted)")
    for name, v in report.get("per_layer", {}).items():
        print(f"  {name:<28} {v:>14.6g} {units.get(name, '')}")
    for key, why in report.get("unmeasured", {}).items():
        print(f"  unmeasured: {key}: {why}")
    for note in report["notes"]:
        print(f"  note: {note}")
    if report["digests"]:
        print(f"  digests: params {report['digests']['params'][:16]} "
              f"eval {report['digests']['eval'][:16]}")


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    reports, ok = {}, True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("report ")]
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}, no result")
                ok = False
                continue
            reports[name, trace] = json.loads(lines[-1][len("report "):])
    units = metric_units(spec)
    attempted = failed = 0
    for name in names:
        plain, traced = reports.get((name, 0)), reports.get((name, 1))
        if plain is None or traced is None:
            continue
        attempted += plain["attempted"] + traced["attempted"]
        failed += plain["failed"] + traced["failed"]
        same = plain["digests"] == traced["digests"]
        ok = ok and same and plain["failed"] == 0 and traced["failed"] == 0
        print(f"\n== {name} (seed {args.seed}; sents_per_s is {plain['sents_per_s_is']}; "
              f"env {json.dumps(plain['environment'])})")
        print(f"  {'end-to-end metric':<28} {'untraced':>14} {'traced':>14} "
              f"{'overhead':>14}  unit")
        for metric, s in plain["end_to_end"].items():
            t = traced["end_to_end"].get(metric, {}).get("value", float("nan"))
            print(f"  {metric:<28} {s['value']:>14.6g} {t:>14.6g} "
                  f"{t - s['value']:>+14.6g}  {units.get(metric, '')}")
        print(f"  {'fail_frac':<28} {plain['fail_frac']:>14.6g} {traced['fail_frac']:>14.6g} "
              f"{'':>14}  ratio")
        print(f"  digests {'equal' if same else 'DIFFER'} untraced vs traced: "
              f"params {plain['digests'].get('params', '')[:16]} "
              f"eval {plain['digests'].get('eval', '')[:16]}")
        print(f"  {'per-layer metric':<28} {'value':>14}  unit")
        for metric, v in traced["per_layer"].items():
            print(f"  {metric:<28} {v:>14.6g}  {units.get(metric, '')}")
        for key, why in traced.get("unmeasured", {}).items():
            print(f"  unmeasured: {key}: {why}")
    print(json.dumps({"correct": ok and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "workloads": {f"{n}/trace{t}": r["end_to_end"]
                                                      for (n, t), r in reports.items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
