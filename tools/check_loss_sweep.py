#!/usr/bin/env python3
"""Gate on bench_resilience's loss sweep: every coded-repair row completes.

bench_resilience prints its table a second time as CSV, after a "(CSV)"
line.  This reads that output from a file (or stdin, given "-") and
exits 1 if a row of the `coded` policy completed fewer than 100% of its
transfers, or if the sweep has no coded row at all, so that a renamed
row cannot turn the gate into a no-op.  The sweep runs in simulated
time, so its outcome does not depend on the machine.

Usage:
  ./build-release/bench/bench_resilience --quick > sweep.txt
  python3 tools/check_loss_sweep.py sweep.txt
  python3 tools/check_loss_sweep.py --self-test
"""

import argparse
import csv
import io
import sys

POLICY = "coded"


def incomplete_rows(text):
    """(loss %, completion %) of every coded row below 100%.

    Raises ValueError when the output has no CSV section or no coded row.
    """
    marker = "(CSV)"
    at = text.find(marker)
    if at < 0:
        raise ValueError("no (CSV) section in the sweep output")
    rows = csv.DictReader(io.StringIO(text[at + len(marker):].strip()))
    coded = [r for r in rows if r.get("policy") == POLICY]
    if not coded:
        raise ValueError(f"the sweep has no {POLICY} rows")
    return [(r["actual loss %"], r["completion %"]) for r in coded
            if float(r["completion %"].rstrip("%")) < 100.0]


def self_test():
    head = ("table\n\n(CSV)\nactual loss %,policy,completion %,"
            "duration s\n")
    ok = head + "1,coded,100%,0.46\n1,naive,67%,1.70\n10,coded,100%,5.65\n"
    assert incomplete_rows(ok) == [], "a complete sweep must pass"
    bad = head + "1,coded,100%,0.46\n10,coded,83%,40.1\n"
    assert incomplete_rows(bad) == [("10", "83%")], "an 83% row must fail"
    for broken in ("no csv here\n", head + "1,naive,100%,0.5\n"):
        try:
            incomplete_rows(broken)
        except ValueError:
            continue
        raise AssertionError(f"accepted a sweep without coded rows: {broken!r}")
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
    for loss, completion in bad:
        print(f"check_loss_sweep: {POLICY} completed {completion} at "
              f"{loss}% loss", file=sys.stderr)
    if bad:
        return 1
    print(f"check_loss_sweep: every {POLICY} row completed 100%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
