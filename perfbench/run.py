#!/usr/bin/env python3
"""The ccsim benchmark: one command, run from the root of the repository.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the simulator from ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, checks its simulated outputs, and prints one JSON line last on
stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. At the
default seed every point's outputs must equal perfbench/pins.json;
--update-pins rewrites the workload's entry there from a clean run.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
DEFAULT_SEED = 42
WORKLOADS = ("lowconflict_inf", "thrash_finite", "sweep_audited")
PINNED_FIELDS = ("algorithm", "mpl", "lifetime_commits", "events", "commits",
                 "throughput", "digest")
# The binary must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 160


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds incrementally; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            code = subprocess.run(step, stdout=sys.stderr.fileno()).returncode
        except OSError as e:
            fail("cannot run %s: %s" % (step[0], e))
        if code != 0:
            fail("build step failed: " + " ".join(step))
    return build_dir, os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def pinned(point):
    return {k: point[k] for k in PINNED_FIELDS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir, binary = build()
    trace_dir = os.path.join(os.path.dirname(build_dir), "perfbench-trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode)
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        fail("unreadable output from perfbench:\n" + proc.stdout)

    points = result["points"]
    attempted = sum(p["runs"] for p in points)
    failed = sum(p["failed"] for p in points)
    problems = ["check %s: %s" % (name, why)
                for name, why in sorted(result["checks"].items()) if why]

    pins = load_pins()
    if args.seed == DEFAULT_SEED and args.update_pins:
        if problems or failed:
            fail("not pinning a run that failed its checks")
        pins[args.workload] = [pinned(p) for p in points]
        with open(PINS, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")
    elif args.seed == DEFAULT_SEED:
        expected = pins.get(args.workload)
        if expected is None or len(expected) != len(points):
            problems.append("no pinned outputs for " + args.workload)
            failed = attempted
        else:
            for want, point in zip(expected, points):
                got = pinned(point)
                if got != want:
                    problems.append("point %s mpl=%s: %s, pinned %s" % (
                        point["algorithm"], point["mpl"], got, want))
                    failed += point["runs"] - point["failed"]

    metrics = result["metrics"]
    declared = declared_metrics(args.trace)
    printed = [(name, m["unit"]) for name, m in metrics.items()]
    if sorted(printed) != sorted(declared):
        fail("metrics %s differ from BENCHMARK.json's %s" % (printed, declared))

    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)
    print("perfbench: %s seed=%d trace=%d: %d of %d point runs failed "
          "(error_rate %.4f)" % (args.workload, args.seed, args.trace, failed,
                                 attempted, failed / max(attempted, 1)),
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
