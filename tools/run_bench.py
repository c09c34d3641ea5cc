#!/usr/bin/env python3
"""Runs the performance-tracking benches and emits BENCH_micro_ops.json
plus BENCH_qps.json (multi-query sustained throughput).

Invokes `bench_micro_ops` (google-benchmark, JSON format) and
`bench_fig9a_smartindex` (paper-figure reproduction, text output) from an
existing build tree, then writes one JSON artifact combining:

  * every micro-op's wall time (ns) and reported counters — including the
    `values_decoded_per_iter` / `values_skipped_per_iter` counters that
    quantify the late-materialization win, and
  * the fig9a stdout summary (speedup table + REPRODUCED verdict).

CI uploads the artifact on every run so perf regressions are diffable
across commits. Stdlib only; no third-party dependencies.

The artifact's `context` block carries the git SHA (plus a -dirty suffix
for uncommitted trees) and the CMake build type, so recorded numbers are
attributable to an exact source state and optimization level.

With --compare BASELINE.json the run additionally diffs the
`agg_consume_speedup`, `compressed_eval_speedup` and `qps_speedup`
blocks against a previously recorded artifact and exits 1 when any
speedup regressed by more than 25% — CI runs this as a blocking step.
Adding --static-json ANALYZE.json cross-checks that the git SHA in a
feisu_analyze --json artifact matches this bench run's tree, so a
recorded baseline can never pair clean-static claims with numbers from a
different checkout.

Usage:
  python3 tools/run_bench.py [--build-dir build] [--out BENCH_micro_ops.json]
                             [--qps-out BENCH_qps.json] [--filter REGEX]
                             [--skip-fig9a] [--skip-qps]
                             [--compare BASELINE.json]
                             [--static-json ANALYZE.json]
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys


def run_micro_ops(build_dir: pathlib.Path, bench_filter: str) -> dict:
    binary = build_dir / "bench" / "bench_micro_ops"
    if not binary.exists():
        sys.exit(f"error: {binary} not found — build the repo first "
                 f"(cmake --build {build_dir} --target bench_micro_ops)")
    cmd = [str(binary), "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    benchmarks = []
    for entry in report.get("benchmarks", []):
        row = {
            "name": entry.get("name"),
            "real_time_ns": entry.get("real_time"),
            "cpu_time_ns": entry.get("cpu_time"),
            "iterations": entry.get("iterations"),
        }
        # google-benchmark inlines user counters as extra numeric fields
        # (values_decoded_per_iter, items_per_second, ...); keep them all.
        for key, value in entry.items():
            if key in row or key in ("run_name", "run_type", "repetitions",
                                     "repetition_index", "threads",
                                     "time_unit", "family_index",
                                     "per_family_instance_index"):
                continue
            if isinstance(value, (int, float)):
                row[key] = value
        benchmarks.append(row)
    return {"context": report.get("context", {}), "benchmarks": benchmarks}


def git_sha() -> str:
    """HEAD's SHA, with a -dirty suffix when the tree has local changes;
    "unknown" outside a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if rev.returncode != 0:
            return "unknown"
        sha = rev.stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"],
                                capture_output=True, text=True, check=False)
        if status.returncode == 0 and status.stdout.strip():
            sha += "-dirty"
        return sha
    except OSError:
        return "unknown"


def cmake_build_type(build_dir: pathlib.Path) -> str:
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file():
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(),
                      re.MULTILINE)
        if m:
            return m.group(1).strip() or "unspecified"
    return "unknown"


def agg_speedups(micro_ops: dict) -> dict:
    """Vectorized-vs-map-baseline aggregation speedups, per cardinality.

    Pairs BM_AggConsume/<card> with BM_AggConsumeMapBaseline/<card>; the
    high-cardinality entry is the PR 4 acceptance number (>= 2x)."""
    times = {row["name"]: row.get("real_time_ns")
             for row in micro_ops.get("benchmarks", [])}
    speedups = {}
    for name, t in times.items():
        prefix = "BM_AggConsume/"
        if not name.startswith(prefix) or not t:
            continue
        card = name[len(prefix):]
        baseline = times.get(f"BM_AggConsumeMapBaseline/{card}")
        if baseline:
            speedups[card] = {
                "map_baseline_ns": baseline,
                "vectorized_ns": t,
                "speedup": baseline / t,
            }
    return speedups


# (encoded bench, frozen reference, artifact label): the compressed-domain
# pairs BENCH_micro_ops.json tracks. Each reference is bench-local code
# (a per-value decode of the payload, then a per-row compare or group-by)
# that never changes, so the ratio moves only with the encoded kernel: a
# faster engine decode path cannot read as an encoded-kernel regression.
# Benches with args pair per arg (label gets an _x<arg> suffix).
COMPRESSED_EVAL_PAIRS = [
    ("BM_DictPredicateEncoded", "BM_DictPredicateReference",
     "dict_predicate"),
    ("BM_RlePredicateEncoded", "BM_RlePredicateReference", "rle_predicate"),
    ("BM_AggConsumeDictCodes", "BM_AggGroupByStringReference",
     "dict_group_by"),
]


def compressed_eval_speedups(micro_ops: dict) -> dict:
    """Encoded-kernel vs frozen-reference speedups for the compressed-domain
    execution paths (dict/RLE predicates, group-by on dict codes)."""
    times = {row["name"]: row.get("real_time_ns")
             for row in micro_ops.get("benchmarks", [])}
    speedups = {}
    for encoded_name, baseline_name, label in COMPRESSED_EVAL_PAIRS:
        for name, t in times.items():
            if name != encoded_name and \
                    not name.startswith(encoded_name + "/"):
                continue
            if not t:
                continue
            suffix = name[len(encoded_name):]
            baseline = times.get(baseline_name + suffix)
            if not baseline:
                continue
            key = label + suffix.replace("/", "_x")
            speedups[key] = {
                "reference_ns": baseline,
                "encoded_ns": t,
                "speedup": baseline / t,
            }
    return speedups


# A speedup may drop to this fraction of its recorded baseline before
# --compare calls it a regression (>25% loss fails).
REGRESSION_TOLERANCE = 0.75


def compare_speedups(baseline: dict, current: dict) -> list:
    """Failure strings for every tracked speedup that regressed by more
    than 25% (or disappeared) relative to the baseline artifact."""
    failures = []
    for block in ("agg_consume_speedup", "compressed_eval_speedup",
                  "qps_speedup"):
        for key, row in sorted(baseline.get(block, {}).items()):
            old = row.get("speedup")
            if not old:
                continue
            new = current.get(block, {}).get(key, {}).get("speedup")
            if new is None:
                failures.append(f"{block}/{key}: missing from current run "
                                f"(baseline {old:.2f}x)")
            elif new < old * REGRESSION_TOLERANCE:
                failures.append(f"{block}/{key}: {old:.2f}x -> {new:.2f}x "
                                f"(more than 25% regression)")
    return failures


def run_qps(build_dir: pathlib.Path) -> dict:
    """Runs bench_qps (multi-query sustained-throughput sweep); its stdout
    is already a JSON artifact."""
    binary = build_dir / "bench" / "bench_qps"
    if not binary.exists():
        sys.exit(f"error: {binary} not found — build the repo first "
                 f"(cmake --build {build_dir} --target bench_qps)")
    proc = subprocess.run([str(binary)], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def run_fig9a(build_dir: pathlib.Path) -> dict:
    binary = build_dir / "bench" / "bench_fig9a_smartindex"
    if not binary.exists():
        sys.exit(f"error: {binary} not found — build the repo first "
                 f"(cmake --build {build_dir} --target "
                 f"bench_fig9a_smartindex)")
    proc = subprocess.run([str(binary)], capture_output=True, text=True,
                          check=True)
    reproduced = "-> REPRODUCED" in proc.stdout
    return {"stdout": proc.stdout, "reproduced": reproduced}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build tree with the bench binaries")
    parser.add_argument("--out", default="BENCH_micro_ops.json",
                        help="output artifact path")
    parser.add_argument("--filter", default="",
                        help="optional --benchmark_filter regex")
    parser.add_argument("--skip-fig9a", action="store_true",
                        help="skip the ~20s fig9a reproduction run")
    parser.add_argument("--skip-qps", action="store_true",
                        help="skip the multi-query QPS sweep")
    parser.add_argument("--qps-out", default="BENCH_qps.json",
                        help="QPS artifact path")
    parser.add_argument("--compare", metavar="BASELINE_JSON",
                        help="diff the speedup blocks against a previous "
                             "artifact; exit 1 on a >25%% regression")
    parser.add_argument("--static-json", metavar="ANALYZE_JSON",
                        help="with --compare: a feisu_analyze --json "
                             "artifact; fails when its context git SHA "
                             "does not match this bench run's tree "
                             "(guards stale-artifact re-records)")
    args = parser.parse_args()

    build_dir = pathlib.Path(args.build_dir)
    artifact = {"micro_ops": run_micro_ops(build_dir, args.filter)}
    artifact["micro_ops"].setdefault("context", {})
    artifact["micro_ops"]["context"]["git_sha"] = git_sha()
    artifact["micro_ops"]["context"]["cmake_build_type"] = \
        cmake_build_type(build_dir)
    speedups = agg_speedups(artifact["micro_ops"])
    if speedups:
        artifact["agg_consume_speedup"] = speedups
    compressed = compressed_eval_speedups(artifact["micro_ops"])
    if compressed:
        artifact["compressed_eval_speedup"] = compressed
    if not args.skip_fig9a:
        artifact["fig9a_smartindex"] = run_fig9a(build_dir)
    qps = None
    if not args.skip_qps:
        qps = run_qps(build_dir)
        qps.setdefault("context", {})["git_sha"] = \
            artifact["micro_ops"]["context"]["git_sha"]
        # The speedup block rides along in the main artifact too, so one
        # --compare pass gates every tracked *_speedup metric.
        artifact["qps_speedup"] = qps.get("qps_speedup", {})
        qps_path = pathlib.Path(args.qps_out)
        qps_path.write_text(json.dumps(qps, indent=2) + "\n")

    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")

    # Human-readable pulse of the late-materialization counters.
    for row in artifact["micro_ops"]["benchmarks"]:
        if "values_decoded_per_iter" in row:
            print(f"{row['name']}: {row['real_time_ns']:.0f} ns, "
                  f"{row['values_decoded_per_iter']:.0f} values decoded "
                  f"per iteration")
    for card, row in sorted(speedups.items(), key=lambda kv: int(kv[0])):
        print(f"agg Consume x{card} groups: {row['vectorized_ns']:.0f} ns "
              f"vectorized vs {row['map_baseline_ns']:.0f} ns map baseline "
              f"-> {row['speedup']:.2f}x")
    for key, row in sorted(compressed.items()):
        print(f"compressed eval {key}: {row['encoded_ns']:.0f} ns encoded "
              f"vs {row['reference_ns']:.0f} ns reference "
              f"-> {row['speedup']:.2f}x")
    if not args.skip_fig9a:
        verdict = ("REPRODUCED"
                   if artifact["fig9a_smartindex"]["reproduced"]
                   else "NOT reproduced")
        print(f"fig9a SmartIndex speedup: {verdict}")
    if qps is not None:
        for key, row in sorted(qps.get("qps_speedup", {}).items()):
            print(f"multi-query QPS {key}: {row['serial_qps']:.1f} serial "
                  f"vs {row['concurrent_qps']:.1f} concurrent "
                  f"-> {row['speedup']:.2f}x "
                  f"({'meets' if qps.get('reproduced') else 'BELOW'} "
                  f"{qps.get('target_speedup', 3.0):.0f}x target)")
        print(f"wrote {args.qps_out}")
    print(f"wrote {out_path}")

    if args.compare:
        baseline_path = pathlib.Path(args.compare)
        if not baseline_path.is_file():
            sys.exit(f"error: --compare baseline {baseline_path} not found")
        baseline = json.loads(baseline_path.read_text())
        failures = compare_speedups(baseline, artifact)
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            print(f"--compare: {len(failures)} tracked speedup(s) regressed "
                  f"vs {baseline_path}", file=sys.stderr)
            return 1
        print(f"--compare: no tracked speedup regressed vs {baseline_path}")
        if args.static_json:
            static_path = pathlib.Path(args.static_json)
            if not static_path.is_file():
                sys.exit(f"error: --static-json {static_path} not found")
            static = json.loads(static_path.read_text())
            static_sha = static.get("context", {}).get("git_sha", "missing")
            bench_sha = artifact["micro_ops"]["context"]["git_sha"]
            if static_sha != bench_sha:
                print(f"--static-json: analyzed tree {static_sha} does not "
                      f"match benched tree {bench_sha}; re-run "
                      f"feisu_analyze.py --json on this checkout",
                      file=sys.stderr)
                return 1
            print(f"--static-json: analyzed and benched trees agree "
                  f"({bench_sha})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
