#!/usr/bin/env python3
"""The benchmark's own test.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seed <n>] [--workload <name> ...]

For each workload it runs the benchmark briefly twice untraced and twice
traced, and checks that
  * every run exits 0 and ends with a result object of exactly the keys
    correct/attempted/failed/metrics, with correct true and nothing failed;
  * every metric BENCHMARK.json names is present with its unit;
  * the untraced runs sampled the host probe in set-up and in the window,
    and report each timing as measured beside its scaled value;
  * the counted per-layer metrics (hits, rows, groups, bytes, blocks, spans)
    and the traced runs' answer digests repeat exactly;
  * the same answers, replayed once more, equal those of the reference
    executor in tests/reference_executor.cc, with the same digest.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFCHECK = os.path.join(ROOT, ".bench_build", "perfbench", "feisu_refcheck")

# Per-layer metrics that count work rather than time it.
COUNTED = [
    "leaf.rows_scanned_per_query", "leaf.values_decoded_per_query",
    "expr.encoded_predicate_ratio", "index.hit_ratio", "index.composed_share",
    "index.evictions", "index.memory_mb", "exec.partial_rows_per_query",
    "exec.groups_per_query", "cluster.tasks_per_query",
    "cluster.blocks_skipped_ratio", "ingest.rows_per_block",
    "columnar.bytes_per_row", "storage.stored_mb", "core.blocks_removed",
    "trace.spans",
]
# The reference executor is row-at-a-time; bound its share of the test.
REFCHECK_ITEMS = 60


def fail(message):
    sys.exit("selftest: FAIL: " + message)


def run_bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if run.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), run.returncode,
                                    run.stderr[-2000:]))
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("%s printed no context and result" % workload)
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s trace=%d: correct=%s failed=%s" % (
            workload, trace, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted %r" % result["attempted"])
    return context, result["metrics"]


def check_units(metrics, declared, what):
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            fail("%s: missing metric %s" % (what, entry["name"]))
        if got["unit"] != entry["unit"]:
            fail("%s: %s has unit %s, declared %s" % (
                what, entry["name"], got["unit"], entry["unit"]))
        if not isinstance(got["value"], (int, float)):
            fail("%s: %s is not a number" % (what, entry["name"]))
    extra = set(metrics) - {e["name"] for e in declared}
    if extra:
        fail("%s: undeclared metrics %s" % (what, sorted(extra)))


def check_probe(context, metrics, what):
    """Timings are scaled by the host probe (perfbench/hostprobe.h)."""
    probe = context["host_probe"]
    if probe["setup_samples"] < 1 or probe["window_samples"] < 1:
        fail("%s: host probe not sampled: %s" % (what, probe))
    for name, measured in context["unscaled"].items():
        scaled = metrics[name]
        if measured["unit"] != scaled["unit"] or measured["value"] <= 0:
            fail("%s: unscaled %s is %s" % (what, name, measured))
    for name in ("setup_s", "qps", "p50_ms", "p99_ms"):
        if name not in context["unscaled"]:
            fail("%s: %s has no unscaled value" % (what, name))


def main():
    parser = argparse.ArgumentParser(description="perfbench self-test")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for _ in range(2):
            context, metrics = run_bench(workload, args.seed, 0)
            check_units(metrics, spec["end_to_end"], workload + " untraced")
            check_probe(context, metrics, workload + " untraced")
            if metrics["success_ratio"]["value"] != 1:
                fail("%s: success_ratio %s" % (workload,
                                               metrics["success_ratio"]))

        traced = [run_bench(workload, args.seed, 1) for _ in range(2)]
        for context, metrics in traced:
            check_units(metrics, spec["per_layer"], workload + " traced")
            if not os.path.exists(os.path.join(ROOT, context["trace_file"])):
                fail("%s: no span file %s" % (workload, context["trace_file"]))
        (ctx_a, m_a), (ctx_b, m_b) = traced
        for name in COUNTED:
            if m_a[name]["value"] != m_b[name]["value"]:
                fail("%s: %s differs between runs: %s vs %s" % (
                    workload, name, m_a[name]["value"], m_b[name]["value"]))
        if ctx_a["answer_digest"] != ctx_b["answer_digest"]:
            fail("%s: traced digests differ" % workload)

        ref = subprocess.run(
            [REFCHECK, "--workload", workload, "--seed", str(args.seed),
             "--items", str(REFCHECK_ITEMS)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if ref.returncode != 0:
            fail("%s: reference check failed:\n%s%s" % (
                workload, ref.stdout, ref.stderr[-2000:]))
        verdict = json.loads(ref.stdout.strip().splitlines()[-1])
        if verdict["answer_digest"] != ctx_a["answer_digest"]:
            fail("%s: reference-checked digest %s != traced digest %s" % (
                workload, verdict["answer_digest"], ctx_a["answer_digest"]))
        if verdict["checked"] == 0:
            fail("%s: the reference executor checked no query" % workload)
        print("selftest: %s ok (%d answers checked against the reference, "
              "%d shapes it does not implement)" % (
                  workload, verdict["checked"], verdict["skipped"]))
    print("selftest: ok")


if __name__ == "__main__":
    main()
