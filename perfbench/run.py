#!/usr/bin/env python3
"""The repository benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the benchmark package (CMakeLists.txt
in this directory: the repository's src/ libraries, the bytecache_gateway
middlebox and the measuring binary) into .bench_build/perfbench, runs the
workload, checks the result, and prints it as the last stdout line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer ledger.  Exits non-zero, printing no result, when the build
fails, a check fails, or the output does not match the schema.  See
README.md for the workloads, metrics and method.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("hot_replay", "churn_mix", "tunnel_open")

END_TO_END = {
    "goodput_mbps": "MB/s",
    "pkt_latency_p50_us": "us",
    "pkt_latency_p99_us": "us",
    "pkt_latency_p99_us_hi": "us",
    "max_rate_kpps": "kpps",
    "wire_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "rabin.enc_scan_ns_per_kb": "ns/KiB",
    "rabin.dec_scan_ns_per_kb": "ns/KiB",
    "rabin.enc_anchors_per_kb": "1/KiB",
    "rabin.dec_anchors_per_kb": "1/KiB",
    "util.crc32_ns_per_kb": "ns/KiB",
    "core.encode_ns_p50": "ns",
    "core.encode_ns_p99": "ns",
    "core.decode_ns_p50": "ns",
    "core.decode_ns_p99": "ns",
    "core.wire_serialize_ns_per_pkt": "ns",
    "core.wire_parse_ns_per_pkt": "ns",
    "core.encoded_share": "ratio",
    "core.regions_per_pkt": "count",
    "core.deps_per_pkt": "count",
    "core.retransmissions_per_kpkt": "1/kpkt",
    "core.flushes_per_kpkt": "1/kpkt",
    "core.unattributed_ns_per_pkt": "ns",
    "cache.probe_ns_per_pkt": "ns",
    "cache.update_ns_per_pkt": "ns",
    "cache.hit_ratio": "ratio",
    "cache.stale_hit_ratio": "ratio",
    "cache.fps_purged_per_kpkt": "1/kpkt",
    "cache.l2_hits_per_kpkt": "1/kpkt",
    "cache.demotions_per_kpkt": "1/kpkt",
    "cache.promotions_per_kpkt": "1/kpkt",
    "cache.host_evictions_per_kpkt": "1/kpkt",
    "fec.add_member_ns_per_pkt": "ns",
    "fec.repair_bytes_share": "ratio",
    "gateway.submit_ns_p50": "ns",
    "gateway.submit_ns_p99": "ns",
    "gateway.transit_ns_p50": "ns",
    "gateway.transit_ns_p99": "ns",
    "gateway.shard_imbalance": "ratio",
    "gateway.ring_stall_ns": "ns/pkt",
    "net.send_ns_p50": "ns",
    "net.gen_late_us_p99": "us",
    "net.loss_ratio_hi": "ratio",
    "net.encoder_cpu_share": "ratio",
    "net.decoder_cpu_share": "ratio",
    "net.tunnel_dgrams_per_plain": "ratio",
    "net.gw_encode_ns_p50": "ns",
    "net.gw_decode_ns_p50": "ns",
    "obs.trace_overhead_ratio": "ratio",
}

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark package; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no repository sources under {ROOT}/src; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def validate(result, trace):
    """Schema errors of one printed result (an empty list when valid)."""
    errors = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        errors.append("correct is not a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        v = result.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            errors.append(f"{key} is not a whole number >= {least}")
    expected = PER_LAYER if trace else END_TO_END
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return errors + ["metrics is not an object"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"metrics missing {missing}, unexpected {extra}")
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errors.append(f"{name}: not a {{value, unit}} object")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r} is not a finite number")
        if name in expected and m["unit"] != expected[name]:
            errors.append(f"{name}: unit {m['unit']!r}, expected {expected[name]!r}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not build():
        log("build failed")
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--bin-dir", os.path.join(BUILD, "bc_src", "app")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"workload failed (exit {proc.returncode})")
        if lines:
            log(f"its last line: {lines[-1]}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log(f"last line is not JSON: {e}")
        return 1
    errors = validate(result, args.trace == 1)
    if not result.get("correct", False):
        errors.append("the workload reported incorrect output")
    if errors:
        for e in errors:
            log(f"invalid result: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
