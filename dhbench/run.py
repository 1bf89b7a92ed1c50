#!/usr/bin/env python3
"""Builds and runs the DynaHash wall-clock benchmark.

    python3 dhbench/run.py --workload <serve-zipf|ingest-elastic|tpch-downsized> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `dhbench` package in
release mode (into `$CARGO_TARGET_DIR`, or `dhbench/target`), runs one
workload in a child process, and prints the child's report. The last line
is one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones, including `peak_rss_mb`,
the child's peak resident set; with `--trace 1` they are the per-layer ones
and the first spans of the run go to `dhbench/out/trace-<workload>.jsonl`.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-zipf", "ingest-elastic", "tpch-downsized")
# The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the path of its executable."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("dhbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "dhbench")


def run_child(argv):
    """Runs the benchmark; returns (exit code, stdout, peak RSS in MiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    # ru_maxrss is in KiB on Linux.
    return os.waitstatus_to_exitcode(status), out, usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    binary = build()
    argv = [binary, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        argv += ["--trace-out", os.path.join(out_dir, f"trace-{a.workload}.jsonl")]
    code, out, peak_mb = run_child(argv)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        sys.exit(f"dhbench: workload exited with code {code} and no result")
    result = json.loads(lines[-1])
    if not a.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MiB"}
        result["metrics"] = dict(sorted(result["metrics"].items()))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
