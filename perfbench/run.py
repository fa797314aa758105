#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload <distill|serve|table02|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package (into
`$CARGO_TARGET_DIR`, default `.bench_build`), then starts fresh processes of
it, each in a private directory that is removed at the end:

* `--trace 0`: one measured run, plus further set-up-only processes;
  `setup_s` is the median set-up time of all of them, `peak_rss_mb` the
  measured run's peak resident set. Prints the end-to-end metrics.
* `--trace 1`: one untraced run, then one traced run (`CAE_TRACE=1`) of the
  same seed. Checks that tracing left the outputs bit-identical, prints the
  tracing overhead and the traced run's per-layer metrics, and keeps the
  benchmark's spans in `$CARGO_TARGET_DIR/perfbench-spans/`.

The metric names and units come from `BENCHMARK.json`.

Every process runs with the autotuner's on-disk cache off (tuning happens
inside its own set-up), with no `CAE_*` setting inherited from the caller,
and with its temp and results directories inside the private directory.

Each workload's result ends with one JSON line, `{"correct", "attempted",
"failed", "metrics"}`; `--workload all` runs the three in turn. Exits
non-zero without a result line if the program cannot be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

# Set-ups per untraced run (the measured run's own plus set-up-only runs).
SETUPS = 3
# No process may outlive this many seconds after its workload started.
DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(root, manifest)):
        fail(f"{manifest} not found; run from the repository root")
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(root, target, "release", "perfbench"), os.path.join(root, target)


class Runner:
    """Starts benchmark processes, each fresh and in its own directory."""

    def __init__(self, binary, target, seed, seconds):
        self.binary = binary
        self.target = target
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        # Where the last traced process's spans were kept.
        self.spans = None

    def child(self, workload, trace, setup_only=False):
        """Runs one process; returns (its JSON result, peak RSS in MiB)."""
        scratch = os.path.join(self.target, "perfbench-runs")
        os.makedirs(scratch, exist_ok=True)
        run_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
        try:
            env = {k: v for k, v in os.environ.items() if not k.startswith("CAE_")}
            env.update(
                CAE_AUTOTUNE_CACHE="off",
                CAE_TRACE="1" if trace else "0",
                CAE_RESULTS_DIR=os.path.join(run_dir, "results"),
                TMPDIR=run_dir,
            )
            cmd = [self.binary, "--workload", workload,
                   "--seed", str(self.seed), "--seconds", str(self.seconds),
                   "--out", run_dir]
            if setup_only:
                cmd.append("--setup-only")
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=run_dir)
            watchdog = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read().decode()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                proc.stdout.close()
            if proc.returncode != 0:
                fail(f"{workload} process exited with {proc.returncode}")
            lines = out.strip().splitlines()
            if not lines:
                fail(f"{workload} process printed nothing")
            if trace:
                self.spans = os.path.join(self.target, "perfbench-spans",
                                          f"{workload}-seed{self.seed}.jsonl")
                os.makedirs(os.path.dirname(self.spans), exist_ok=True)
                shutil.copyfile(os.path.join(run_dir, "spans.jsonl"), self.spans)
            return json.loads(lines[-1]), usage.ru_maxrss / 1024.0
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


def print_checks(result):
    for name, ok, detail in result["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")


def measure(runner, workload, trace, bench):
    """Runs one workload; prints its checks and figures, returns its result
    with the metrics `bench` (BENCHMARK.json) lists for the mode."""
    result, rss_mb = runner.child(workload, trace=False)
    print_checks(result)
    correct = all(ok for _, ok, _ in result["checks"])

    if not trace:
        setups = [result["setup_s"]]
        setups += [runner.child(workload, trace=False, setup_only=True)[0]["setup_s"]
                   for _ in range(SETUPS - 1)]
        values = dict(result["metrics"], setup_s=statistics.median(setups), peak_rss_mb=rss_mb)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    else:
        traced, _ = runner.child(workload, trace=True)
        print_checks(traced)
        identical = traced["digest"] == result["digest"]
        print(f"check {'ok  ' if identical else 'FAIL'} traced_output_identical: "
              f"digest {traced['digest']} traced, {result['digest']} untraced")
        correct = correct and identical and all(ok for _, ok, _ in traced["checks"])
        overhead = 100.0 * (traced["window_s"] / result["window_s"] - 1.0)
        layers = dict(traced["layers"], **{"trace.overhead_pct": overhead})
        print(f"tracing overhead: traced window {traced['window_s']:.3f} s, "
              f"untraced {result['window_s']:.3f} s ({overhead:+.1f}%)")
        window = layers.get("window_s", 0.0)
        parts = {k: v for k, v in layers.items() if k.startswith("window.") and v}
        print(f"window {window:.3f} s = " + " + ".join(f"{k} {v:.3f}" for k, v in parts.items())
              + f" (sum {sum(parts.values()):.3f} s)")
        print(f"spans: {runner.spans}")
        # A layer the workload does not reach reads 0.
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
        result = traced

    print(f"attempted {result['attempted']}, failed {result['failed']}")
    return {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main():
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except OSError as e:
        fail(f"BENCHMARK.json: {e}; run from the repository root")
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary, target = build(root)
    for workload in workloads if args.workload == "all" else [args.workload]:
        if args.workload == "all":
            print(f"== {workload}")
        runner = Runner(binary, target, args.seed, args.seconds)
        print(json.dumps(measure(runner, workload, args.trace == 1, bench)), flush=True)


if __name__ == "__main__":
    main()
