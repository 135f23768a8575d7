#!/usr/bin/env python3
"""Gate on bench_resilience's loss frontier: the gated rows complete.

bench_resilience prints its table a second time as CSV, after a "(CSV)"
line.  This reads that output from a file (or stdin, given "-") and
exits 1 if a `coded` or `ack_gated` row completed fewer than 100% of its
transfers at a uniform-loss or reorder point, or if the sweep lacks
either row at such a point, so that a renamed row cannot turn the gate
into a no-op.  Gilbert-Elliott ("bursty") rows are printed but not
gated: both answers can still stall a trial under long bursts.  The
sweep runs in simulated time, so its outcome does not depend on the
machine.

Usage:
  ./build-release/bench/bench_resilience > sweep.txt
  python3 tools/check_loss_sweep.py sweep.txt
  python3 tools/check_loss_sweep.py --self-test
"""

import argparse
import csv
import io
import sys

POLICIES = ("coded", "ack_gated")
UNGATED_CHANNEL = "bursty"


def incomplete_rows(text):
    """(policy, channel, rate %, completion %) of every gated row below 100%.

    Raises ValueError when the output has no CSV section or lacks a gated
    policy's rows.
    """
    marker = "(CSV)"
    at = text.find(marker)
    if at < 0:
        raise ValueError("no (CSV) section in the sweep output")
    rows = csv.DictReader(io.StringIO(text[at + len(marker):].strip()))
    gated = [r for r in rows if r.get("policy") in POLICIES and
             r.get("channel") != UNGATED_CHANNEL]
    for policy in POLICIES:
        if not any(r["policy"] == policy for r in gated):
            raise ValueError(f"the sweep has no gated {policy} rows")
    return [(r["policy"], r["channel"], r["rate %"], r["completion %"])
            for r in gated if float(r["completion %"].rstrip("%")) < 100.0]


def self_test():
    head = "table\n\n(CSV)\nchannel,rate %,policy,completion %,mean s\n"
    ok = head + ("uniform,1,coded,100.0%,0.46\nuniform,1,ack_gated,100.0%,0.5\n"
                 "uniform,1,none,67.0%,1.70\nbursty,10,ack_gated,98.3%,6.6\n"
                 "reorder,2,coded,100.0%,0.4\n")
    assert incomplete_rows(ok) == [], "a complete sweep must pass"
    bad = head + ("uniform,1,coded,100.0%,0.46\n"
                  "uniform,10,coded,83.3%,40.1\nuniform,1,ack_gated,100.0%,0.5\n")
    assert incomplete_rows(bad) == [("coded", "uniform", "10", "83.3%")], \
        "an 83% coded row must fail"
    bad = head + ("uniform,1,coded,100.0%,0.46\n"
                  "uniform,5,ack_gated,99.2%,1.5\n")
    assert incomplete_rows(bad) == [("ack_gated", "uniform", "5", "99.2%")], \
        "a 99% ack_gated row must fail"
    for broken in ("no csv here\n", head + "uniform,1,naive,100.0%,0.5\n",
                   head + "uniform,1,coded,100.0%,0.5\n",
                   head + ("uniform,1,coded,100.0%,0.5\n"
                           "bursty,1,ack_gated,100.0%,0.5\n")):
        try:
            incomplete_rows(broken)
        except ValueError:
            continue
        raise AssertionError(f"accepted a sweep without gated rows: {broken!r}")
    print("check_loss_sweep: self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep", nargs="?",
                        help="bench_resilience output file, or - for stdin")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker's own tests and exit")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if args.sweep is None:
        parser.error("a sweep output file (or -) is required")
    if args.sweep == "-":
        text = sys.stdin.read()
    else:
        with open(args.sweep, encoding="utf-8") as f:
            text = f.read()
    try:
        bad = incomplete_rows(text)
    except ValueError as e:
        print(f"check_loss_sweep: {e}", file=sys.stderr)
        return 1
    for policy, channel, rate, completion in bad:
        print(f"check_loss_sweep: {policy} completed {completion} at "
              f"{rate}% {channel}", file=sys.stderr)
    if bad:
        return 1
    print("check_loss_sweep: every gated " + " and ".join(POLICIES) +
          " row completed 100%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
