#!/usr/bin/env python3
"""Builds the ipin benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The program's last line of standard output
is the result object; build output goes to standard error. --selftest runs
the benchmark's own tests: the statistics and tracer self-test, the metric
catalogue against BENCHMARK.json, every workload in smoke mode (tiny inputs,
all checks on, traced and untraced), and one run per workload with a
deliberately wrong reference that must fail.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["build", "campaign", "serve"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "ipin"))):
        print("perfbench: the library sources are not in this checkout",
              file=sys.stderr)
        return False
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "ipin_perfbench", "perfbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def run(args, capture=False):
    """Runs the benchmark binary in its own process group, so that a run
    cut by the timeout takes its child processes with it."""
    proc = subprocess.Popen(
        [os.path.join(build_dir(), "ipin_perfbench")] + args, cwd=ROOT,
        stdout=subprocess.PIPE if capture else None, start_new_session=True,
        text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, out or ""


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    code = subprocess.run([os.path.join(build_dir(), "perfbench_selftest")]
                          ).returncode
    check(code == 0, "statistics and tracer self-test")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, listed = run(["--list_metrics"], capture=True)
    catalogue = {"end_to_end": [], "per_layer": []}
    for line in listed.splitlines():
        kind, name, unit = line.split()
        catalogue[kind].append((name, unit))
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        check(declared == catalogue[kind],
              "BENCHMARK.json %s matches the program's catalogue" % kind)

    for workload in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run(["--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", trace, "--smoke"],
                            capture=True)
            result = last_json(out)
            ok = (code == 0 and result is not None
                  and sorted(result) == ["attempted", "correct", "failed",
                                         "metrics"]
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1
                  and sorted(result["metrics"]) ==
                  sorted(m["name"] for m in spec[kind]))
            check(ok, "smoke %s --trace %s: correct, every metric" %
                  (workload, trace))
        code, out = run(["--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", "0", "--smoke", "--wrong_reference"],
                        capture=True)
        result = last_json(out)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              "smoke %s with a wrong reference fails its ops" % workload)

    print("selftest: %s" % ("passed" if not failures else
                            "%d failed" % len(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return selftest()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        argv.append("--smoke")
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
