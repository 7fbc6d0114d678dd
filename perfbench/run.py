#!/usr/bin/env python3
"""Runs one workload of the NGD detection benchmark and prints its metrics.

    python3 perfbench/run.py --workload kb_audit --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the ngdperf binary plus the library from src/) into
.bench_build/perfbench; later runs only rebuild what changed.

A run sets the workload up from --seed (median of several set-ups,
reported as setup_s), then measures for --seconds in one ngdperf process,
which checks every output against the expected result fixed at set-up.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (a layer a workload never calls reads 0), and
the spans go to .bench_build/traces/ as Chrome trace-event JSON. The last
line of stdout is the result:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

--scale smoke runs the same workloads and checks at seconds-long sizes.
Scratch files live in .bench_work/<pid>/ and are removed on every exit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ngdperf")
MAX_THREADS = 4
# A run must end within 180 s; the measured part gets what set-up left.
RUN_DEADLINE_S = 170.0
# Set-up repeats at least this often, and until this much time is spent,
# so that the median of a fast set-up is not a single noisy sample.
MIN_SETUPS = 3
MIN_SETUP_TIME_S = 1.0
MAX_SETUPS = 15


class BenchError(Exception):
    pass


_child = None


def _run(cmd, timeout, capture=True):
    """Runs cmd to completion; a signal to us stops and reaps the child."""
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=None, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except BaseException as e:
        # A timeout, or a signal to us: stop and reap the child first.
        _child.kill()
        _child.wait()
        _child = None
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError("timed out: " + " ".join(cmd))
        raise
    code = _child.returncode
    _child = None
    if code != 0:
        raise BenchError("exit status %s: %s" % (code, " ".join(cmd)))
    return out


def _stop_child():
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no src/ next to perfbench/: nothing to build")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        _run(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300, capture=False)
    _run(["cmake", "--build", BUILD_DIR, "-j", str(MAX_THREADS)], 880,
         capture=False)


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError("ngdperf printed nothing")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names or args.workload not in workloads:
        ap.error("unknown workload %r (have %s)" % (args.workload, names))
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    build()
    started = time.monotonic()  # the 180 s limit excludes a first build
    params = []
    for key, value in workloads[args.workload]["params"][args.scale].items():
        params += ["--param", "%s=%s" % (key, value)]

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        workload = ["--workload", args.workload, "--seed", str(args.seed),
                    "--dir", work] + params
        # A traced run reports no setup_s, so one set-up is enough.
        min_setups = 1 if args.trace else MIN_SETUPS
        min_time = 0.0 if args.trace else MIN_SETUP_TIME_S
        setups = []
        while len(setups) < min_setups or (sum(setups) < min_time and
                                           len(setups) < MAX_SETUPS):
            out = _run([BINARY, "setup"] + workload, 120)
            setups.append(float(last_json(out)["setup_s"]))

        run_cmd = [BINARY, "run"] + workload + [
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            run_cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
        left = RUN_DEADLINE_S - (time.monotonic() - started)
        if left < args.seconds:
            raise BenchError("set-up left no time to measure")
        result = last_json(_run(run_cmd, left))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only if no other run uses it
        except OSError:
            pass

    got = dict(result["metrics"])
    got["setup_s"] = statistics.median(setups)
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            value = float(got[m["name"]])
        elif args.trace:
            value = 0.0  # the workload never calls into this layer
        else:
            raise BenchError("ngdperf did not report " + m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    for e in result.get("errors", []):
        print("# error: " + e)
    print("# %s seed %d: %d set-ups, fail_rate %d/%d" % (
        args.workload, args.seed, len(setups), failed, attempted))
    if args.trace:
        for name in sorted(metrics):
            print("# %-32s %.6g %s" % (name, metrics[name]["value"],
                                        metrics[name]["unit"]))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _on_signal(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        code = main()
    except BenchError as e:
        print("run.py: " + str(e), file=sys.stderr)
        code = 2
    finally:
        _stop_child()
    sys.exit(code)
