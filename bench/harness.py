"""One benchmark run of one workload, in this process; bench/run.py starts it
with the environment pinned.

    python3 bench/harness.py --workload train --seed 0 --seconds 15 --trace 0

One client runs the workload's operation in a closed loop until --seconds
have passed: the next operation starts only when the previous one returned.
With --trace 0 it prints the end-to-end metrics; with --trace 1 operations
alternate untraced and traced, and it prints the per-layer metrics of the
traced ones plus the tracing overhead.  After every operation, outside its
timing, it runs the reference loop of calibration.py, so that operation
times can be given in units of the host's speed at that moment.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The full record, with the environment, goes to .bench_out/, and
with --trace 1 the spans too.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import mean, median
from time import perf_counter, process_time

import numpy as np

import calibration
import lrmt
from measure import error_rate
from tracing import Tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

# A run that has measured this many times --seconds stops even if a workload
# still wants samples, so that a broken program cannot keep it looping.
MAX_LOOP_FACTOR = 3

# The bounded metrics of BENCHMARK.json.  wall_ref and cpu_ref are the mean
# operation's wall and CPU time over the mean reference loop's.  Means, not
# medians: the reference loops fill a fixed share of every operation's time,
# so both means weigh the host's slow and fast spells alike.  The raw median
# seconds are printed beside them, but drift with the host's load.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref",
              "peak_rss_mb": "MB"}

# Reference loops run after each operation, until they took this share of it.
CALIBRATION_SHARE = 0.1

# name -> (unit, derivation from one traced operation's layer totals)
PER_LAYER = {}


def _self_s(span):
    return lambda t: t.get(span + "_s", 0.0)


def _calls(span):
    return lambda t: t.get(span + "_calls", 0)


def _count(counter):
    return lambda t: t.get(counter, 0)


def _ratio(num, den):
    return lambda t: t.get(num, 0) / t[den] if t.get(den) else 0.0


for _span in ("numerics.backward", "numerics.loss", "numerics.clip",
              "numerics.adam", "model.encode", "model.decode_step",
              "model.forward_tf", "model.greedy_decode", "text.make_batches",
              "text.load_manifest", "postag.pos_tag", "xray.capture",
              "xray.mass_matrices", "bleu.evaluate_corpus", "bleu.bleu4",
              "training.train_epoch", "training.evaluate_loss",
              "training.ckpt_from_model", "training.ckpt_to_model",
              "training.ckpt_save", "report.export_analysis", "cli.sequential"):
    PER_LAYER[_span + "_s"] = ("s", _self_s(_span))
for _span in ("numerics.backward", "model.encode", "model.decode_step",
              "model.greedy_decode", "xray.capture", "training.ckpt_from_model",
              "training.ckpt_to_model"):
    PER_LAYER[_span + "_calls"] = ("count", _calls(_span))
PER_LAYER.update({
    "numerics.infer_taped_ratio": ("ratio", _ratio("numerics.infer_taped",
                                                   "numerics.infer_steps")),
    "model.encode_rows": ("count", _count("model.encode_rows")),
    "model.decode_step_rows": ("count", _count("model.decode_step_rows")),
    "text.batches": ("count", _count("text.batches")),
    "text.pad_fraction": ("ratio", _ratio("text.pad_cells", "text.cells")),
    "postag.tokens": ("count", _count("postag.tokens")),
    "xray.tokens": ("count", _count("xray.tokens")),
    "bleu.sentences": ("count", _count("bleu.sentences")),
    "training.epochs": ("count", _calls("training.train_epoch")),
    "training.ckpt_bytes": ("bytes", _count("training.ckpt_bytes")),
    "report.bytes": ("bytes", _count("report.bytes")),
})


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no mode="dicts"
        blas = {}
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "lrmt": lrmt.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _operate(workload, state, outcome, samples, label, tracer=None,
             run_id=None):
    """One operation, traced when `tracer` is given, then its output checks.
    Returns its wall and process CPU seconds."""
    wall0, cpu0 = perf_counter(), process_time()
    try:
        if tracer:
            with tracer.installed(run_id):
                result = workload.run(state)
        else:
            result = workload.run(state)
    except Exception:  # noqa: BLE001 - one failed operation, keep measuring
        traceback.print_exc()
        result = None
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    if result is None:
        outcome.operation(False, "%s raised" % label)
    else:
        try:
            workload.check(state, result, wall, outcome, samples)
        except Exception:  # noqa: BLE001 - output the checks cannot read
            traceback.print_exc()
            outcome.operation(False, "checking %s raised" % label)
    return wall, cpu


def _calibrate(after_wall, walls, cpus):
    """Reference loops after an operation of `after_wall` seconds."""
    spent = 0.0
    while spent < CALIBRATION_SHARE * after_wall:
        wall, cpu = calibration.sample()
        walls.append(wall)
        cpus.append(cpu)
        spent += wall


def run(args, workdir):
    """Set up, loop, and return the result record."""
    workload = WORKLOADS[args.workload]()
    setup_times = []
    for i in range(workload.setup_repeats):
        started = perf_counter()
        state = workload.setup(args.seed, workdir / ("setup-%d" % i))
        setup_times.append(perf_counter() - started)

    tracer = Tracer() if args.trace else None
    outcome = Outcome()
    # One operation before the clock starts: the first call pays for cold
    # caches and first-use allocations.  Its output is checked like any other.
    _operate(workload, state, outcome, defaultdict(list), "warm-up")
    calibration.sample()   # the reference loop's own warm-up
    cal_walls, cal_cpus = [], []
    samples = {False: defaultdict(list), True: defaultdict(list)}
    walls = {False: [], True: []}
    cpus = {False: [], True: []}
    traced_runs = []
    began = perf_counter()
    op = 0
    while True:
        traced = bool(args.trace) and op % 2 == 1
        run_id = "%s-%d-op%d" % (args.workload, args.seed, op)
        wall, cpu = _operate(workload, state, outcome, samples[traced],
                             "operation %d" % op, tracer if traced else None,
                             run_id)
        walls[traced].append(wall)
        cpus[traced].append(cpu)
        _calibrate(wall, cal_walls, cal_cpus)
        if traced:
            traced_runs.append(run_id)
        op += 1
        elapsed = perf_counter() - began
        if elapsed < args.seconds:
            continue
        if elapsed < MAX_LOOP_FACTOR * args.seconds:
            if args.trace and not traced_runs:
                continue
            if not args.trace and not workload.enough(samples[False]):
                continue
        break

    detail = workload.summarise(samples[False]) if samples[False] else {}
    detail["error_rate"] = (error_rate(outcome.failed, outcome.attempted),
                            "ratio", outcome.attempted)
    detail["wall_s"] = (median(walls[False]), "s", len(walls[False]))
    detail["cpu_s"] = (median(cpus[False]), "s", len(cpus[False]))
    detail["reference_s"] = (mean(cal_walls), "s", len(cal_walls))
    end_to_end = {
        "setup_s": (median(setup_times), len(setup_times)),
        "wall_ref": (mean(walls[False]) / mean(cal_walls), len(walls[False])),
        "cpu_ref": (mean(cpus[False]) / mean(cal_cpus), len(cpus[False])),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    record = {"environment": environment(args), "problems": outcome.problems[:20],
              "attempted": outcome.attempted, "failed": outcome.failed,
              "operation_wall_s": {"untraced": walls[False], "traced": walls[True]},
              "operation_cpu_s": {"untraced": cpus[False], "traced": cpus[True]},
              "reference_s": {"wall": cal_walls, "cpu": cal_cpus},
              "end_to_end": {k: {"value": v, "unit": END_TO_END[k], "n": n}
                             for k, (v, n) in end_to_end.items()},
              "workload_metrics": {k: {"value": v, "unit": u, "n": n}
                                   for k, (v, u, n) in detail.items()}}
    if args.trace:
        totals = tracer.layer_totals()
        per_op = [totals.get(run_id, {}) for run_id in traced_runs]
        record["per_layer"] = {
            name: {"value": median([derive(t) for t in per_op]), "unit": unit,
                   "n": len(per_op)}
            for name, (unit, derive) in PER_LAYER.items()}
        record["per_layer"]["trace.overhead_ratio"] = {
            "value": median(walls[True]) / median(walls[False]), "unit": "ratio",
            "n": len(walls[True])}
        tracer.dump(OUT / ("spans_%s_seed%d.json" % (args.workload, args.seed)))
    return record


def _print_table(title, table):
    print("# %s" % title)
    for name, m in table.items():
        print("%-28s %16.6g %-6s n=%d" % (name, m["value"], m["unit"], m["n"]))


def main(argv=None):
    args = parse_args(argv)
    if Path(lrmt.__file__).resolve().parent != ROOT / "src" / "lrmt":
        print("harness: lrmt imported from %s, not from this checkout's src/"
              % lrmt.__file__, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = "BENCH_%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True),
                            encoding="utf-8")

    print("# env %s" % json.dumps(record["environment"], sort_keys=True))
    for problem in record["problems"]:
        print("# FAILED: %s" % problem)
    _print_table("end to end, untraced operations", record["end_to_end"])
    _print_table("workload", record["workload_metrics"])
    chosen = record["per_layer"] if args.trace else record["end_to_end"]
    if args.trace:
        _print_table("per layer, traced operations (self time)", chosen)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
