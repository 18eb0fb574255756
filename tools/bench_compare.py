#!/usr/bin/env python3
"""Diff two figure-bench runs and flag regressions beyond a noise threshold.

Usage:
    tools/bench_compare.py [--threshold PCT] [--strict] BASELINE CURRENT
    tools/bench_compare.py --exact BASELINE CURRENT

BASELINE and CURRENT are either single `BENCH_<fig>.json` files (the format
bench/bench_common.cpp writes: {"id", "series", "points": [{"series", "x",
"seconds"}]}) or directories of them — directories are matched by file name,
so `tools/bench_compare.py bench/baselines build/bench` compares every
figure present in both.

For every (series, x) point present on both sides the relative delta
`(current - baseline) / baseline` is computed. Points slower than the
threshold (default 10%, about the run-to-run noise of the simulator
figures on a loaded CI box) are flagged as regressions, points faster
than the threshold as improvements; everything else is noise.

--exact is the gate for simulated figures, whose seconds are virtual time
and deterministic: figure JSON carries them at round-trip precision, so any
difference in a point's seconds is a behaviour change, and a point present
on only one side fails too. The threshold is ignored.

Exit status: 0, or 1 with --strict when any regression was flagged, or 1
with --exact on any mismatch. The CI job runs the threshold comparison
informationally (no --strict) so a noisy box cannot fail the build, and
--exact on the simulated fig10 as a gate. Stdlib only.
"""

import argparse
import json
import os
import sys


def load_points(path):
    """BENCH json -> {(series, x): seconds}."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    points = {}
    for p in doc.get("points", []):
        points[(p.get("series"), p.get("x"))] = float(p.get("seconds", 0.0))
    return doc.get("id", os.path.basename(path)), points


def pair_inputs(baseline, current):
    """Yields (label, baseline_path, current_path) pairs."""
    if os.path.isdir(baseline) != os.path.isdir(current):
        raise ValueError("BASELINE and CURRENT must both be files or both "
                         "be directories")
    if not os.path.isdir(baseline):
        yield os.path.basename(current), baseline, current
        return
    base_names = {n for n in os.listdir(baseline)
                  if n.startswith("BENCH_") and n.endswith(".json")}
    cur_names = {n for n in os.listdir(current)
                 if n.startswith("BENCH_") and n.endswith(".json")}
    for name in sorted(base_names & cur_names):
        yield name, os.path.join(baseline, name), os.path.join(current, name)
    for name in sorted(base_names - cur_names):
        print("bench_compare: note: %s only in baseline" % name)
    for name in sorted(cur_names - base_names):
        print("bench_compare: note: %s only in current (no baseline yet)"
              % name)


def compare_one(label, base_path, cur_path, threshold):
    """Returns (regressions, improvements, compared) counts."""
    try:
        fig_id, base = load_points(base_path)
        _, cur = load_points(cur_path)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print("bench_compare: %s: unreadable: %s" % (label, e),
              file=sys.stderr)
        return 0, 0, 0
    regressions = improvements = compared = 0
    for key in sorted(base.keys() & cur.keys(),
                      key=lambda k: (str(k[0]), str(k[1]))):
        b, c = base[key], cur[key]
        if b <= 0.0:
            continue
        compared += 1
        delta = (c - b) / b
        if delta > threshold:
            regressions += 1
            verdict = "REGRESSION"
        elif delta < -threshold:
            improvements += 1
            verdict = "improvement"
        else:
            continue
        series, x = key
        print("  %s [%s @ %s]: %.3gs -> %.3gs (%+.1f%%) %s"
              % (fig_id, series, x, b, c, 100.0 * delta, verdict))
    return regressions, improvements, compared


def compare_exact(label, base_path, cur_path):
    """Returns (mismatches, compared) counts; every mismatch is printed."""
    try:
        fig_id, base = load_points(base_path)
        _, cur = load_points(cur_path)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print("bench_compare: %s: unreadable: %s" % (label, e),
              file=sys.stderr)
        return 1, 0
    mismatches = 0
    for key in sorted(base.keys() | cur.keys(),
                      key=lambda k: (str(k[0]), str(k[1]))):
        series, x = key
        if key not in cur:
            print("  %s [%s @ %s]: missing from current" % (fig_id, series, x))
        elif key not in base:
            print("  %s [%s @ %s]: not in baseline" % (fig_id, series, x))
        elif base[key] != cur[key]:
            print("  %s [%s @ %s]: %r -> %r" % (fig_id, series, x, base[key],
                                                cur[key]))
        else:
            continue
        mismatches += 1
    return mismatches, len(base.keys() & cur.keys())


def main(argv):
    ap = argparse.ArgumentParser(
        prog="bench_compare.py",
        description="diff two BENCH_*.json runs and flag regressions")
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0, metavar="PCT",
                    help="noise threshold in percent (default 10)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when any regression was flagged")
    ap.add_argument("--exact", action="store_true",
                    help="exit 1 unless every point's seconds are equal "
                    "and both sides have the same points")
    args = ap.parse_args(argv[1:])
    threshold = args.threshold / 100.0

    total_reg = total_imp = total_cmp = figures = 0
    try:
        pairs = list(pair_inputs(args.baseline, args.current))
    except ValueError as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2
    if args.exact:
        return exact_main(args, pairs)
    for label, base_path, cur_path in pairs:
        reg, imp, cmp_n = compare_one(label, base_path, cur_path, threshold)
        total_reg += reg
        total_imp += imp
        total_cmp += cmp_n
        figures += 1 if cmp_n else 0
    print("bench_compare: %d figure(s), %d point(s) compared: "
          "%d regression(s), %d improvement(s) beyond %.0f%%"
          % (figures, total_cmp, total_reg, total_imp, args.threshold))
    if figures == 0:
        print("bench_compare: nothing to compare", file=sys.stderr)
        return 2
    return 1 if (args.strict and total_reg) else 0


def exact_main(args, pairs):
    if not pairs:
        print("bench_compare: nothing to compare", file=sys.stderr)
        return 2
    total_bad = total_cmp = 0
    if os.path.isdir(args.baseline):
        # A baseline figure the current run did not write is all missing
        # points (pair_inputs has already named it).
        paired = {label for label, _, _ in pairs}
        total_bad += len([n for n in os.listdir(args.baseline)
                          if n.startswith("BENCH_") and n.endswith(".json")
                          and n not in paired])
    for label, base_path, cur_path in pairs:
        bad, cmp_n = compare_exact(label, base_path, cur_path)
        total_bad += bad
        total_cmp += cmp_n
    print("bench_compare: %d figure(s), %d point(s) compared exactly: "
          "%d mismatch(es)" % (len(pairs), total_cmp, total_bad))
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
