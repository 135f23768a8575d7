#!/usr/bin/env python3
"""Data-plane benchmark runner: emits / updates BENCH_dataplane.json.

Runs the tracked data-plane benchmarks from a Release build tree:

  bench_throughput       end-to-end Encoder->Decoder packets/sec and MB/s
                         (its own JSON output is embedded verbatim); its
                         *_telemetry workloads gate the observability
                         budget: >= 98% of the plain twin's MB/s and a
                         bit-identical wire_ratio, else this script fails;
                         its file1_tiered row drives the L1/L2 CacheTier
                         (DESIGN.md section 14) and must stay present —
                         the wire gate pins its ratio like every v1/v2 row
  bench_mt_throughput    sharded-gateway scaling sweep (1/2/4/8 shards);
                         embedded verbatim, one entry per shard count plus
                         a single-flow wire-identity probe whose wire_ratio
                         must equal bench_throughput's file1 baseline
  bench_micro_rabin      google-benchmark scan/selection microbenches
                         (bytes_per_second extracted per benchmark)

and merges the numbers into the output JSON under `--label` (default:
"current"), preserving any other labels already present.  The committed
convention (see DESIGN.md "Performance"):

  {
    "baseline": { ... numbers before a data-plane PR ... },
    "current":  { ... numbers after it, same machine ... }
  }

Each entry is stamped with the scan kernel, CPU flags, and hardware
thread count that produced it, and merging refuses to put entries from a
different kernel tier (--allow-kernel-change) or CPU topology
(--allow-topology-change) side by side: such pairs are not comparisons.

`--repeat N` runs each bench binary N times and keeps the fastest
result per benchmark, which (together with bench_throughput's own
warm-up + best-of-passes scheme) makes the numbers reproducible on
shared or single-core machines.

Usage:
  python3 tools/bench_json.py --build build-release --out BENCH_dataplane.json
  python3 tools/bench_json.py --build build-release --label baseline --repeat 5
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# ISA extensions relevant to the kernel dispatch (util/simd.h: scan, CRC-32,
# GF(256)) — recorded per entry so a number can always be traced to the
# silicon and kernel tier that produced it.
_KERNEL_FLAGS = ("sse2", "avx", "avx2", "avx512f", "bmi2", "pclmulqdq",
                 "neon", "asimd")


def detect_cpu_flags():
    """Returns the dispatch-relevant ISA flags of this machine (Linux:
    parsed from /proc/cpuinfo; elsewhere: empty — the kernel name still
    identifies the tier)."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return []
    for line in text.splitlines():
        if line.lower().startswith(("flags", "features")):
            have = set(line.split(":", 1)[1].split())
            return [f for f in _KERNEL_FLAGS if f in have]
    return []


def check_kernel_consistency(entry):
    """All three bench binaries stamp the scan kernel they dispatched; a
    mismatch means the environment changed between runs (e.g. a
    BYTECACHE_SCAN_KERNEL override leaked into one process) and the entry
    would blend incomparable numbers."""
    kernels = {
        name: entry[name].get("kernel", "?")
        for name in ("bench_throughput", "bench_mt_throughput")
    }
    kernels["bench_micro_rabin"] = entry["kernel"]
    if len(set(kernels.values())) != 1:
        sys.exit(f"bench_json: benches disagree on the scan kernel: {kernels}"
                 " — did the environment change between runs?")


def check_kernel_change(doc, label, entry, allow):
    """Refuses to merge an entry next to labels measured under a different
    scan kernel: a before/after pair that silently switched tiers (or
    machines) is not a comparison.  `--allow-kernel-change` overrides for
    the one legitimate case — pinning a scalar `baseline` against a SIMD
    `current` to record the dispatch win itself."""
    for other_label, other in doc.items():
        if other_label == label or not isinstance(other, dict):
            continue
        other_kernel = other.get("kernel")
        if other_kernel is None:  # pre-stamping entry: nothing to compare
            continue
        if other_kernel != entry["kernel"] and not allow:
            sys.exit(
                f"bench_json: label '{other_label}' was measured under the "
                f"'{other_kernel}' kernel but this run dispatched "
                f"'{entry['kernel']}'; cross-kernel numbers are not "
                "comparable — rerun with the same kernel (or pass "
                "--allow-kernel-change if the tier switch is the point)")


def check_topology_change(doc, label, entry, allow):
    """Refuses to merge an entry next to labels measured on a different
    CPU topology: the bench_mt_throughput shard-scaling curve (1/2/4/8
    shards) bends entirely differently on 4 cores than on 32, so a
    before/after pair that silently moved machines (or a container that
    changed its CPU quota) records a scaling regression that is really a
    hardware change.  Entries from before hardware_concurrency stamping
    are skipped, like pre-stamping entries in check_kernel_change.
    `--allow-topology-change` overrides for deliberate cross-machine
    comparisons."""
    for other_label, other in doc.items():
        if other_label == label or not isinstance(other, dict):
            continue
        other_hw = other.get("hardware_concurrency")
        if other_hw is None:  # pre-stamping entry: nothing to compare
            continue
        if other_hw != entry["hardware_concurrency"] and not allow:
            sys.exit(
                f"bench_json: label '{other_label}' was measured with "
                f"{other_hw} hardware threads but this machine has "
                f"{entry['hardware_concurrency']}; shard-curve numbers are "
                "not comparable across topologies — rerun on the same "
                "machine (or pass --allow-topology-change if the "
                "cross-machine comparison is the point)")


def check_wire_ratio_drift(doc, label, entry, allow):
    """Refuses to merge an entry whose v1/v2 wire_ratio differs from any
    label already in the file.  The throughput workloads replay a fixed
    corpus through a deterministic codec, so their wire_ratio is exact
    machine-independent arithmetic: a change means the v1/v2 wire format
    (or the codec's decisions) drifted, and recording the new number next
    to the old would silently bless the drift.  The coded (v3) workload
    is exempt — that format is this PR's to evolve, and its golden
    vectors pin the bytes instead.  `--allow-wire-change` overrides for a
    deliberate format migration."""
    new = {r["name"]: r["wire_ratio"]
           for r in entry.get("bench_throughput", {}).get("results", [])
           if "_coded" not in r["name"]}
    for other_label, other in doc.items():
        if other_label == label or not isinstance(other, dict):
            continue
        for r in other.get("bench_throughput", {}).get("results", []):
            name = r["name"]
            if name not in new or "wire_ratio" not in r:
                continue
            if abs(r["wire_ratio"] - new[name]) > 1e-9 and not allow:
                sys.exit(
                    f"bench_json: workload '{name}' recorded wire_ratio "
                    f"{r['wire_ratio']} under label '{other_label}' but this "
                    f"run produced {new[name]}; the v1/v2 wire format must "
                    "not drift — fix the regression (or pass "
                    "--allow-wire-change if the format migration is the "
                    "point)")


def check_tier_row(entry):
    """The file1_tiered workload replays the file1 stream through the
    L1/L2 CacheTier (DESIGN.md §14); it is the tier's only tracked
    number, and check_wire_ratio_drift pins its wire_ratio across labels
    exactly like the flat rows (the tiered codec is still a
    deterministic function of the corpus).  Refuse to record an entry
    that silently dropped the row — an untracked tier is an ungated
    tier."""
    names = {r["name"]
             for r in entry.get("bench_throughput", {}).get("results", [])}
    if "file1_tiered" not in names:
        sys.exit("bench_json: bench_throughput no longer reports the "
                 "'file1_tiered' workload — the cache-tier row is part of "
                 "the tracked set (DESIGN.md §14); restore it rather than "
                 "dropping the tier's only gated number")


def self_test():
    """Offline check of the merge gates (no bench binaries needed);
    registered as the bench_json_selftest ctest."""
    entry = {"kernel": "avx2", "hardware_concurrency": 8}

    def exits(fn):
        try:
            fn()
        except SystemExit:
            return True
        return False

    doc = {"baseline": {"kernel": "scalar", "hardware_concurrency": 8}}
    assert exits(lambda: check_kernel_change(doc, "current", entry, False)), \
        "kernel gate must refuse a cross-kernel merge"
    check_kernel_change(doc, "current", entry, True)  # override allowed
    check_kernel_change(doc, "baseline", entry, False)  # same label: fine
    check_kernel_change({"baseline": {}}, "current", entry, False)  # legacy

    doc = {"baseline": {"kernel": "avx2", "hardware_concurrency": 32}}
    assert exits(lambda: check_topology_change(doc, "current", entry, False)), \
        "topology gate must refuse a cross-topology merge"
    check_topology_change(doc, "current", entry, True)  # override allowed
    check_topology_change(doc, "baseline", entry, False)  # same label: fine
    check_topology_change({"baseline": {}}, "current", entry, False)  # legacy
    same = {"baseline": {"kernel": "avx2", "hardware_concurrency": 8}}
    check_kernel_change(same, "current", entry, False)
    check_topology_change(same, "current", entry, False)

    def bt(name, ratio):
        return {"bench_throughput": {"results": [
            {"name": name, "wire_ratio": ratio}]}}

    wentry = bt("file1_naive_valuesampling", 0.5)
    doc = {"baseline": bt("file1_naive_valuesampling", 0.6)}
    assert exits(lambda: check_wire_ratio_drift(doc, "current", wentry,
                                                False)), \
        "wire gate must refuse a v1/v2 wire_ratio drift"
    check_wire_ratio_drift(doc, "current", wentry, True)  # override allowed
    check_wire_ratio_drift(doc, "baseline", wentry, False)  # same label: fine
    same = {"baseline": bt("file1_naive_valuesampling", 0.5)}
    check_wire_ratio_drift(same, "current", wentry, False)  # identical: fine
    coded = bt("file1_coded", 0.7)
    check_wire_ratio_drift({"baseline": bt("file1_coded", 0.9)}, "current",
                           coded, False)  # v3 row exempt: free to evolve

    tiered = bt("file1_tiered", 0.55)
    doc = {"baseline": bt("file1_tiered", 0.56)}
    assert exits(lambda: check_wire_ratio_drift(doc, "current", tiered,
                                                False)), \
        "the cache-tier row must be pinned by the wire gate like v1/v2 rows"
    check_wire_ratio_drift({"baseline": bt("file1_tiered", 0.55)}, "current",
                           tiered, False)  # identical: fine
    assert exits(lambda: check_tier_row(bt("file1_naive_valuesampling",
                                           0.5))), \
        "tier gate must refuse an entry that dropped the file1_tiered row"
    check_tier_row(tiered)  # row present: fine

    print("bench_json: self-test passed")


def run_json_bench(build, name, repeat):
    """Runs a bench binary that prints one JSON doc with a `results` list,
    keeping per-workload the run with the higher MB/s (lower noise).
    Returns (best_doc, all_run_docs); the raw runs let gates compare
    workloads pair-wise within one process run instead of across runs."""
    exe = Path(build) / "bench" / name
    if not exe.exists():
        sys.exit(f"bench_json: {exe} not found (build the bench targets)")
    best = None
    runs = []
    for _ in range(repeat):
        proc = subprocess.run([str(exe)], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"bench_json: {exe} failed (decode failures?):\n"
                     f"{proc.stdout}\n{proc.stderr}")
        doc = json.loads(proc.stdout)
        runs.append(doc)
        if best is None:
            best = json.loads(proc.stdout)
            continue
        for cur, new in zip(best["results"], doc["results"]):
            assert cur["name"] == new["name"]
            if new["mb_per_s"] > cur["mb_per_s"]:
                cur.update(new)
    return best, runs


def check_telemetry_overhead(entry, runs):
    """Gates the telemetry budget: each *_telemetry workload replays its
    plain twin with the metrics registry + sampled spans attached, and
    must keep >= 98% of the twin's MB/s with a bit-identical wire_ratio
    (instrumentation must never change what goes on the wire).

    The MB/s ratio is taken pair-wise within a single process run (twins
    execute back-to-back, so machine-state drift cancels) and the best
    run wins; comparing cross-run best-of numbers would pit a lucky plain
    spike against an unlucky instrumented run and gate on noise.  Records
    the measured ratios under `telemetry_overhead`."""
    by_name = {r["name"]: r for r in entry["bench_throughput"]["results"]}
    overhead = {}
    for name, probe in by_name.items():
        if not name.endswith("_telemetry"):
            continue
        base = by_name.get(name[:-len("_telemetry")])
        if base is None:
            continue
        if abs(probe["wire_ratio"] - base["wire_ratio"]) > 1e-9:
            sys.exit(f"bench_json: telemetry run {name} wire_ratio "
                     f"{probe['wire_ratio']} != plain {base['wire_ratio']}"
                     " — instrumentation changed the wire format")
        ratio = 0.0
        for run in runs:
            run_by_name = {r["name"]: r for r in run["results"]}
            p = run_by_name[name]["mb_per_s"]
            b = run_by_name[base["name"]]["mb_per_s"]
            ratio = max(ratio, p / b if b > 0 else 1.0)
        if ratio < 0.98:
            sys.exit(f"bench_json: telemetry overhead gate failed: {name} "
                     f"ran at {ratio:.3f}x of its plain twin (< 0.98)")
        overhead[name] = {"throughput_ratio": round(ratio, 4)}
    entry["telemetry_overhead"] = overhead


def check_wire_identity(entry):
    """The 1-shard/1-flow sharded run replays bench_throughput's exact
    file1 stream; a wire_ratio mismatch means sharding changed the wire
    format, which the design forbids — fail loudly rather than record it."""
    by_name = {r["name"]: r for r in entry["bench_throughput"]["results"]}
    base = by_name.get("file1_naive_valuesampling")
    probe = {r["name"]: r for r in entry["bench_mt_throughput"]["results"]}
    one = probe.get("file1_1flow_1shard")
    if base is None or one is None:
        return
    if abs(base["wire_ratio"] - one["wire_ratio"]) > 1e-9:
        sys.exit("bench_json: sharded 1-shard wire_ratio "
                 f"{one['wire_ratio']} != plain baseline "
                 f"{base['wire_ratio']} — wire format drifted")


def run_bench_micro_rabin(build, repeat):
    """Returns ({bench_name: numbers}, dispatched_kernel_name).  The
    kernel comes from the report context bench_micro_rabin's main()
    stamps via AddCustomContext."""
    exe = Path(build) / "bench" / "bench_micro_rabin"
    if not exe.exists():
        sys.exit(f"bench_json: {exe} not found (build the bench targets)")
    out = {}
    kernel = "?"
    for _ in range(repeat):
        proc = subprocess.run(
            [str(exe), "--benchmark_format=json", "--benchmark_min_time=0.2"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"bench_json: {exe} failed:\n{proc.stderr}")
        data = json.loads(proc.stdout)
        kernel = data.get("context", {}).get("scan_kernel", kernel)
        for b in data.get("benchmarks", []):
            entry = {"real_time_ns": round(b.get("real_time", 0.0), 1)}
            if "bytes_per_second" in b:
                entry["mb_per_s"] = round(b["bytes_per_second"] / 1e6, 2)
            if "payload_mb_per_s" in b:  # counters surface as plain keys
                entry["payload_mb_per_s"] = round(b["payload_mb_per_s"], 2)
            prev = out.get(b["name"])
            if prev is None or entry["real_time_ns"] < prev["real_time_ns"]:
                out[b["name"]] = entry
    return out, kernel


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build",
                        help="build tree holding bench/ binaries")
    parser.add_argument("--out", default="BENCH_dataplane.json",
                        help="JSON file to create or merge into")
    parser.add_argument("--label", default="current",
                        help="top-level key to write (baseline/current/...)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each bench N times, keep the fastest")
    parser.add_argument("--allow-kernel-change", action="store_true",
                        help="permit merging next to labels measured under "
                             "a different scan kernel (deliberate "
                             "scalar-vs-SIMD comparisons only)")
    parser.add_argument("--allow-wire-change", action="store_true",
                        help="permit merging next to labels whose v1/v2 "
                             "wire_ratio differs (deliberate wire-format "
                             "migrations only)")
    parser.add_argument("--allow-topology-change", action="store_true",
                        help="permit merging next to labels measured with a "
                             "different hardware thread count (deliberate "
                             "cross-machine comparisons only)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the merge gates offline and exit")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return

    bt_best, bt_runs = run_json_bench(
        args.build, "bench_throughput", args.repeat)
    mt_best, _ = run_json_bench(
        args.build, "bench_mt_throughput", args.repeat)
    micro, micro_kernel = run_bench_micro_rabin(args.build, args.repeat)
    entry = {
        "machine": platform.machine(),
        "kernel": micro_kernel,
        "cpu_flags": detect_cpu_flags(),
        # The shard-scaling curve is only meaningful relative to the
        # core count that produced it (check_topology_change).
        "hardware_concurrency": os.cpu_count(),
        "bench_throughput": bt_best,
        "bench_mt_throughput": mt_best,
        "bench_micro_rabin": micro,
    }
    check_kernel_consistency(entry)
    check_tier_row(entry)
    check_wire_identity(entry)
    check_telemetry_overhead(entry, bt_runs)

    out_path = Path(args.out)
    doc = {}
    if out_path.exists():
        doc = json.loads(out_path.read_text())
    check_kernel_change(doc, args.label, entry, args.allow_kernel_change)
    check_topology_change(doc, args.label, entry, args.allow_topology_change)
    check_wire_ratio_drift(doc, args.label, entry, args.allow_wire_change)
    doc[args.label] = entry
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    print(f"bench_json: wrote {out_path} [{args.label}] "
          f"(kernel={entry['kernel']})")
    for bench in ("bench_throughput", "bench_mt_throughput"):
        for r in entry[bench]["results"]:
            print(f"  {r['name']:32s} {r['mb_per_s']:8.2f} MB/s "
                  f"{r['packets_per_s']:10.0f} pkt/s")


if __name__ == "__main__":
    main()
