#!/usr/bin/env python3
"""Repository benchmark for the STMBench7 testbed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first run builds the library and the
sb7perf program (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Every measured run is its own sb7perf
process, so no run inherits another's state.

Workloads (see BENCHMARK.json for why each was chosen):
  read-medium    tl2, mix r, medium structure, 4 closed-loop workers
  rw-small       mvstm, mix rw, small structure, 4 closed-loop workers
  serve-durable  the rw-small world behind OpServer with a group-commit
                 redo log, open-loop Poisson load from 2 connections on the
                 rate ladder below

--trace 0 prints the end-to-end metrics: ops_per_s (closed loop: successful
operations per second; serve: goodput of the highest ladder step that met
the limit), setup_s and peak_rss_mb. --trace 1 prints the per-layer
metrics.
The per-layer run makes untraced and traced runs: the metrics only the
tracer gives come from the traced ones, every other metric from the
untraced ones, and trace.overhead_share compares the two.

Correctness gates: closed-loop runs must pass the structural invariant
checker; every serve run must replay its redo log to the live world's
fingerprint. A run that fails a gate prints "correct": false with no
metrics and exits 1. The last line of stdout is the JSON result; a
readable table goes to stderr.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# serve-durable: offered rates (requests/s) and the sojourn-time limit. A
# step meets the limit when its p99 and the median of its last quarter (a
# growing backlog moves it) are within the limit and nothing was refused or
# lost. A step is saturated when the server refuses a request (its ingress
# queue is full) or answers fewer than OVERLOAD_SHARE of the offered rate
# inside the window; the climb stops at the first saturated step, whose
# goodput is the server's capacity.
#
# End to end, serve-durable reports the goodput of the highest step met
# (ops_per_s). Capacity and sojourn times are per-layer metrics only: on a
# 4-core VM with a shared disk, capacity (it rides on fsync latency) spread
# 18-29% across seeds even as the median of several saturated runs, and the
# median sojourn at 250-500 requests/s 10-43%; the end-to-end bound is 25%. The
# seed's capacity ranged over 1.0k-3k requests/s, so the steps are 8x apart:
# the lowest sits at half the lowest capacity seen and the next above the
# highest, so the highest step met does not flip between runs.
#
# Every run of a step is a few seconds long: the server slows the longer it
# runs (unreclaimed objects pile up, see ebr.pending_end), and after 15 s at
# 500 requests/s it missed the limit. The lowest step runs several times to
# fill its share of --seconds and reports medians over its runs.
LADDER = [500, 4000, 32000]
P99_LIMIT_MS = 250.0
OVERLOAD_SHARE = 0.8
# Share of --seconds spent on the lowest step, and the window of every run.
LOWEST_STEP_SHARE = 2 / 3
STEP_SECONDS = 4.0

WORKLOADS = {
    "read-medium": {
        "mode": "closed",
        "args": ["--strategy", "tl2", "--mix", "r", "--scale", "medium", "--threads", "4"],
        "setup_samples": 5,
    },
    "rw-small": {
        "mode": "closed",
        "args": ["--strategy", "mvstm", "--mix", "rw", "--scale", "small", "--threads", "4"],
        "setup_samples": 15,
    },
    "serve-durable": {
        "mode": "serve",
        "args": [],
        "setup_samples": 15,
    },
}

END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.build_s": "s",
    "ops.short_traversal.mean_us": "us",
    "ops.short_op.mean_us": "us",
    "ops.struct_mod.mean_us": "us",
    "ops.failed_share": "share",
    "stm.commit_ratio": "ratio",
    "stm.reads_per_op": "count",
    "stm.writes_per_op": "count",
    "stm.validation_steps_per_op": "count",
    "stm.abort.read_validation": "share",
    "stm.abort.write_lock": "share",
    "stm.abort.snapshot_too_old": "share",
    "stm.read_ns": "ns",
    "stm.validation_ns": "ns",
    "stm.commit_ns": "ns",
    "stm.backoff_ns": "ns",
    "stm.wasted_share": "share",
    "mvstm.ro_abort_ratio": "ratio",
    "ebr.epoch_advances_per_s": "1/s",
    "ebr.pending_end": "count",
    "redo.members_per_group": "count",
    "redo.fsyncs_per_s": "1/s",
    "redo.bytes_per_commit": "B",
    "redo.replay_us_per_group": "us",
    "net.exec_p50_us": "us",
    "net.exec_p99_us": "us",
    "net.overhead_p50_us": "us",
    "net.rejected": "count",
    "net.lost": "count",
    "net.gen_late_p99_ms": "ms",
    "serve.p50_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.max_rate_ok": "1/s",
    "serve.capacity_per_s": "1/s",
    "serve.samples": "count",
    "error_share": "share",
    "span.build.self_s": "s",
    "span.run.self_s": "s",
    "span.check.self_s": "s",
    "span.replay.self_s": "s",
    "span.request.self_s": "s",
    "trace.overhead_share": "share",
}

# Per-layer metrics that only a traced run produces.
TRACER_ONLY = {"stm.read_ns", "stm.validation_ns", "stm.commit_ns", "stm.backoff_ns",
               "stm.wasted_share"}

# Length of one closed-loop run; --seconds is split over several of them.
SUBRUN_SECONDS = 2.5
# Wall-clock budget for all measuring processes of one invocation (the build
# comes before it).
BUDGET_S = 170
deadline = 0.0  # set once the build is done


class BenchError(Exception):
    pass


class GateFailure(Exception):
    """A run's output failed a correctness gate."""

    def __init__(self, reason, attempted):
        super().__init__(reason)
        self.attempted = attempted


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds sb7perf; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the repository sources are not next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out, "--target", "sb7perf", "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "sb7perf")


def child(binary, mode, args, seconds, seed, trace=False, setup_only=False):
    """Runs one sb7perf process and returns its JSON result."""
    cmd = [binary, mode, *args, "--seconds", repr(seconds), "--seed", str(seed),
           "--trace", "1" if trace else "0", "--setup-only", "1" if setup_only else "0"]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before: " + " ".join(cmd))
    try:
        # On timeout subprocess.run kills the process and waits for it.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                               proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def setup_seconds(binary, workload, seed, samples):
    """Median set-up time, topping `samples` up with set-up-only processes."""
    samples = list(samples)
    spec = WORKLOADS[workload]
    args = spec["args"]
    if spec["mode"] == "serve":
        args = args + ["--log", log_path(seed, "setup")]
    while len(samples) < spec["setup_samples"]:
        samples.append(child(binary, spec["mode"], args, 1.0, seed, setup_only=True)["setup_s"])
    return statistics.median(samples)


def log_path(seed, tag):
    run_dir = os.path.join(build_dir(), "run")
    os.makedirs(run_dir, exist_ok=True)
    return os.path.join(run_dir, "redo-%d-%s-%s.log" % (os.getpid(), seed, tag))


# ------------------------------------------------------------- closed loop --

def run_closed(binary, workload, seed, seconds, trace):
    """Splits --seconds over several short runs, each its own process with its
    own world, and reports medians over them. Short runs keep each one close
    to the state the seed measurements describe (rw-small slows down as
    unreclaimed objects pile up) and the median rides out machine stalls.
    With the tracer, every world is run once untraced and once traced, so
    trace.overhead_share compares runs of the same world."""
    spec = WORKLOADS[workload]
    passes = (False, True) if trace else (False,)
    count = max(2, round(seconds / SUBRUN_SECONDS / len(passes)))
    untraced, traced = [], []
    for i in range(count):
        for with_tracer in passes:
            run = child(binary, "closed", spec["args"], seconds / count / len(passes),
                        seed * 1000 + i, trace=with_tracer)
            gate(run)
            (traced if with_tracer else untraced).append(run)
    attempted = sum(int(run["attempted"]) for run in untraced + traced)
    if not trace:
        metrics = {
            "ops_per_s": median(untraced, "ops_per_s"),
            "setup_s": setup_seconds(binary, workload, seed, [r["setup_s"] for r in untraced]),
            "peak_rss_mb": median(untraced, "peak_rss_mb"),
        }
        return metrics, attempted, 0
    metrics = layers(untraced, traced)
    metrics["trace.overhead_share"] = statistics.median(
        1.0 - t["ops_per_s"] / u["ops_per_s"] for u, t in zip(untraced, traced))
    return metrics, attempted, 0


def median(runs, name):
    return statistics.median(float(run.get(name, 0.0)) for run in runs)


def gate(result):
    if result.get("correct") != 1:
        raise GateFailure(result.get("error", "correctness gate failed"),
                          int(result.get("attempted", 1)))


def layers(untraced, traced):
    """Per-layer medians: tracer-only metrics over the traced runs, the rest
    over the untraced ones; layers a workload bypasses read 0."""
    metrics = {}
    for name in PER_LAYER:
        traced_only = name in TRACER_ONLY or name.startswith("span.")
        metrics[name] = median(traced if traced_only else untraced, name)
    return metrics


# ------------------------------------------------------------------ serve --

def step_met(step):
    return (step["net.rejected"] == 0 and step["net.lost"] == 0 and step["net.bad"] == 0
            and step["p99_ms"] <= P99_LIMIT_MS and step["tail_p50_ms"] <= P99_LIMIT_MS)


def saturated(step):
    return step["net.rejected"] > 0 or step["goodput_per_s"] < OVERLOAD_SHARE * step["rate"]


def serve_step(binary, seed, rate, trace=False):
    args = ["--rate", str(rate), "--log", log_path(seed, rate)]
    step = child(binary, "serve", args, STEP_SECONDS, seed, trace=trace)
    gate(step)
    return step


def run_ladder(binary, seed, seconds):
    """Climbs the ladder until a step is saturated; returns the runs."""
    lowest_runs = max(1, round(seconds * LOWEST_STEP_SHARE / STEP_SECONDS))
    runs = [serve_step(binary, seed, LADDER[0]) for _ in range(lowest_runs)]
    for rate in LADDER[1:]:
        if any(saturated(run) for run in runs):
            break
        runs.append(serve_step(binary, seed, rate))
    return runs


def ladder_summary(runs):
    """(the runs of the highest step that met the limit with every step below
    it, or None; attempted; failed). Lost and bad requests fail on every
    step, refused ones on the lowest step, which sits far below capacity;
    higher up, refusing is the admission bound doing its job."""
    met = None
    for rate in LADDER:
        at_rate = [run for run in runs if run["rate"] == rate]
        if not at_rate or not all(step_met(run) for run in at_rate):
            break
        met = at_rate
    attempted = sum(int(run["attempted"]) for run in runs)
    failed = sum(run["net.lost"] + run["net.bad"] for run in runs)
    failed += sum(run["net.rejected"] for run in runs if run["rate"] == LADDER[0])
    return met, attempted, int(failed)


def run_serve(binary, workload, seed, seconds, trace):
    runs = run_ladder(binary, seed, seconds)
    met, attempted, failed = ladder_summary(runs)
    lowest = [run for run in runs if run["rate"] == LADDER[0]]
    if not trace:
        metrics = {
            "ops_per_s": median(met, "goodput_per_s") if met else 0.0,
            "setup_s": setup_seconds(binary, workload, seed, [r["setup_s"] for r in runs]),
            "peak_rss_mb": median(lowest, "peak_rss_mb"),
        }
        return metrics, attempted, failed
    traced = serve_step(binary, seed, LADDER[0], trace=True)
    metrics = layers(lowest, [traced])
    for name in ("redo.members_per_group", "redo.fsyncs_per_s", "redo.bytes_per_commit",
                 "redo.replay_us_per_group", "net.gen_late_p99_ms"):
        metrics[name] = median(met or lowest, name)
    metrics["net.rejected"] = float(sum(run["net.rejected"] for run in lowest))
    metrics["net.lost"] = float(sum(run["net.lost"] for run in runs))
    metrics["serve.p50_ms"] = median(lowest, "p50_ms")
    metrics["serve.p99_ms"] = median(lowest, "p99_ms")
    metrics["serve.samples"] = median(lowest, "samples")
    metrics["serve.max_rate_ok"] = float(met[0]["rate"]) if met else 0.0
    metrics["serve.capacity_per_s"] = float(runs[-1]["goodput_per_s"])
    metrics["trace.overhead_share"] = (1.0 - median(lowest, "net.exec_p50_us")
                                       / traced["net.exec_p50_us"])
    return metrics, attempted + int(traced["attempted"]), failed


# ------------------------------------------------------------------- main --

def main():
    global deadline
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        binary = build()
        deadline = time.monotonic() + BUDGET_S
        runner = run_serve if WORKLOADS[opts.workload]["mode"] == "serve" else run_closed
        metrics, attempted, failed = runner(binary, opts.workload, opts.seed, opts.seconds,
                                            bool(opts.trace))
    except GateFailure as failure:
        sys.stderr.write("correctness gate failed: %s\n" % failure)
        print(json.dumps({"correct": False, "attempted": max(1, failure.attempted),
                          "failed": 1, "metrics": {}}))
        return 1
    except BenchError as error:
        sys.stderr.write("error: %s\n" % error)
        return 1

    units = PER_LAYER if opts.trace else END_TO_END
    if opts.trace:
        metrics["error_share"] = failed / attempted if attempted else 0.0
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, entry in result.items():
        sys.stderr.write("%-32s %16.6g %s\n" % (name, entry["value"], entry["unit"]))
    sys.stderr.write("attempted %d, failed %d\n" % (attempted, failed))
    print(json.dumps({"correct": True, "attempted": max(1, attempted), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
