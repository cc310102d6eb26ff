#!/usr/bin/env python3
"""Blocking gate: dispatched SIMD sketch kernels must beat the scalar baseline.

Runs bench_micro_sketch's Kernel* benches. The scalar and dispatched variants
of each workload live in the same binary and run back to back in the same
process, so the ratio is a clean same-machine, same-run comparison — no
cross-run or cross-host noise. The scalar reference is compiled with
auto-vectorization disabled, so it is the true portable baseline.

Fails (exit 1) if the dispatched target is avx2 and any enforced kernel —
union estimate, cellwise max, estimate-from-ranks, CELF coverage gain — is
below --min-speedup x scalar. On hosts where dispatch resolves to
scalar/sse2/neon the ratios are reported but nothing is enforced: the 2x
contract is an AVX2 claim. The sparse-row estimate and the row check are
report-only.

Usage:
  scripts/check_kernel_speedup.py --bench=build/bench/bench_micro_sketch \
      [--min-speedup=2.0] [--min-time=0.05]
"""

import argparse
import json
import re
import subprocess
import sys

# Kernels under contract. Every other Kernel* pair (EstimateSparse,
# RowCheck) is reported only.
ENFORCED = ("UnionEstimate", "CellwiseMax", "EstimateFromRanks", "CoverageGain")

NAME_RE = re.compile(r"^BM_Kernel(\w+?)(Scalar|Dispatched)/(\d+)$")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True,
                        help="path to the bench_micro_sketch binary")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--min-time", default="0.05",
                        help="benchmark_min_time per bench, seconds")
    args = parser.parse_args()

    cmd = [
        args.bench,
        "--benchmark_filter=BM_Kernel",
        "--benchmark_format=json",
        f"--benchmark_min_time={args.min_time}",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    report = json.loads(out.stdout)

    # (kind, arg) -> {"Scalar": cpu_time, "Dispatched": cpu_time}
    times = {}
    target = None
    for bench in report.get("benchmarks", []):
        match = NAME_RE.match(bench["name"])
        if not match:
            continue
        kind, variant, arg = match.groups()
        times.setdefault((kind, int(arg)), {})[variant] = bench["cpu_time"]
        if variant == "Dispatched" and bench.get("label"):
            target = bench["label"]

    if not times:
        print("no BM_Kernel* benchmarks found — wrong binary?", file=sys.stderr)
        return 1
    if target is None:
        print("dispatched benches carry no target label", file=sys.stderr)
        return 1

    enforcing = target == "avx2"
    print(f"dispatched target: {target} "
          f"({'enforcing' if enforcing else 'report-only'}, "
          f"min speedup {args.min_speedup:.2f}x on {', '.join(ENFORCED)})")

    failures = []
    for (kind, arg) in sorted(times):
        pair = times[(kind, arg)]
        if "Scalar" not in pair or "Dispatched" not in pair:
            continue
        ratio = pair["Scalar"] / pair["Dispatched"]
        enforced = enforcing and kind in ENFORCED
        verdict = ""
        if enforced:
            verdict = "ok" if ratio >= args.min_speedup else "TOO SLOW"
            if ratio < args.min_speedup:
                failures.append(f"{kind}/{arg}: {ratio:.2f}x")
        print(f"  {kind}/{arg}: scalar {pair['Scalar']:.0f}ns, "
              f"{target} {pair['Dispatched']:.0f}ns -> {ratio:.2f}x {verdict}")

    if failures:
        print("kernel speedup gate FAILED: " + "; ".join(failures),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
