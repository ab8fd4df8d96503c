#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against the committed baseline.

CI bench regression gate (stdlib only): fails when the mean wall time of any
maintenance/scratch phase histogram regresses by more than --threshold
(default 25%). Tiny phases below --floor-ms are skipped — at microsecond
scale the container's scheduling jitter dwarfs any real regression.

Also gates the pattern-quality SLIs (midas_quality_* gauges): coverage,
label coverage and diversity are higher-is-better ratios, so a fresh value
more than --quality-drop below the baseline fails the gate — a speedup that
trades away panel quality is a regression, not a win. Cognitive load is
lower-is-better and gated on the symmetric increase. Quality gauges present
only in the fresh run report as "new" and pass (same contract as new
phases: a first run has nothing to compare against).

Usage:
    tools/bench_compare.py BASELINE.json FRESH.json \
        [--threshold 0.25] [--floor-ms 0.05] [--quality-drop 0.02] \
        [--out delta.md]

Exit codes: 0 ok, 1 regression found, 2 usage/parse error.

The BENCH json schema is bench/bench_common.cc's WriteBenchJson output:
{"suite": ..., "scale": ..., "host_cores": ..., "metrics": {"histograms":
{"<name>": {"count": N, "sum": MS, "buckets": [...]}, ...}, ...}}.
Comparisons use per-phase mean (sum/count): counts differ across runs when
the bench harness adapts iteration counts, so raw sums are not comparable.
"""

import argparse
import json
import sys


def load(path, missing_ok=False):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        if missing_ok:
            sys.stderr.write(
                f"bench_compare: no usable baseline at {path} ({e}); "
                "reporting fresh phases as new\n")
            return None
        sys.stderr.write(f"bench_compare: cannot read {path}: {e}\n")
        sys.exit(2)


def phase_means(doc):
    """{histogram name -> mean ms} for phase-shaped duration histograms."""
    hists = doc.get("metrics", {}).get("histograms", {})
    means = {}
    for name, h in hists.items():
        if not name.endswith("_ms"):
            continue
        count = h.get("count", 0)
        if not count:
            continue
        means[name] = h.get("sum", 0.0) / count
    return means


# Quality SLIs worth gating: (gauge name, higher_is_better). Ratios in
# [0, 1] except cognitive load, so deltas are compared absolutely.
QUALITY_GAUGES = [
    ("midas_quality_coverage", True),
    ("midas_quality_label_coverage", True),
    ("midas_quality_diversity", True),
    ("midas_quality_cognitive_load", False),
]


def quality_values(doc):
    """{gauge name -> value} for the gated midas_quality_* gauges."""
    gauges = doc.get("metrics", {}).get("gauges", {})
    return {name: gauges[name] for name, _ in QUALITY_GAUGES if name in gauges}


def compare_quality(base_doc, fresh_doc, drop):
    """Returns (rows, failures) for the quality-SLI table."""
    base = quality_values(base_doc) if base_doc is not None else {}
    fresh = quality_values(fresh_doc)
    rows, failures = [], []
    for name, higher_better in QUALITY_GAUGES:
        if name not in fresh:
            if name in base:
                rows.append((name, base[name], None, None, "missing"))
            continue
        if name not in base:
            rows.append((name, None, fresh[name], None, "new"))
            continue
        b, f = base[name], fresh[name]
        delta = f - b
        bad = delta < -drop if higher_better else delta > drop
        verdict = "REGRESSION" if bad else "ok"
        if bad:
            failures.append((name, b, f, delta))
        rows.append((name, b, f, delta, verdict))
    return rows, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed relative regression (0.25 = +25%%)")
    parser.add_argument("--floor-ms", type=float, default=0.05,
                        help="skip phases whose baseline mean is below this")
    parser.add_argument("--quality-drop", type=float, default=0.02,
                        help="max allowed absolute drop in a quality SLI "
                             "(increase, for cognitive load)")
    parser.add_argument("--out", help="write the delta table here (markdown)")
    args = parser.parse_args()

    # A missing or phase-less baseline is not an error: the first run of a
    # new bench suite (or a baseline refresh) has nothing to compare against,
    # so every fresh phase is reported as "new" and the gate passes.
    base_doc = load(args.baseline, missing_ok=True)
    fresh_doc = load(args.fresh)
    base = phase_means(base_doc) if base_doc is not None else {}
    fresh = phase_means(fresh_doc)
    if base_doc is not None and not base:
        sys.stderr.write(
            "bench_compare: baseline has no phase histograms; "
            "reporting fresh phases as new\n")

    base_cores = base_doc.get("host_cores", "?") if base_doc else "?"
    fresh_cores = fresh_doc.get("host_cores", "?")
    rows = []
    regressions = []
    for name in sorted(base):
        if name not in fresh:
            rows.append((name, base[name], None, None, "missing"))
            continue
        b, f = base[name], fresh[name]
        delta = (f - b) / b if b > 0 else 0.0
        if b < args.floor_ms:
            verdict = "skipped (tiny)"
        elif delta > args.threshold:
            verdict = "REGRESSION"
            regressions.append((name, b, f, delta))
        else:
            verdict = "ok"
        rows.append((name, b, f, delta, verdict))
    for name in sorted(set(fresh) - set(base)):
        rows.append((name, None, fresh[name], None, "new"))

    lines = [
        f"# Bench delta: {args.baseline} -> {args.fresh}",
        "",
        f"Baseline host cores: {base_cores}; fresh host cores: {fresh_cores}.",
        f"Threshold: +{args.threshold:.0%} on per-phase mean;"
        f" floor: {args.floor_ms} ms.",
        "",
        "| phase | baseline mean ms | fresh mean ms | delta | verdict |",
        "|---|---|---|---|---|",
    ]
    for name, b, f, delta, verdict in rows:
        bs = f"{b:.4f}" if b is not None else "-"
        fs = f"{f:.4f}" if f is not None else "-"
        ds = f"{delta:+.1%}" if delta is not None else "-"
        lines.append(f"| {name} | {bs} | {fs} | {ds} | {verdict} |")

    quality_rows, quality_failures = compare_quality(
        base_doc, fresh_doc, args.quality_drop)
    if quality_rows:
        lines += [
            "",
            f"Quality SLI gate: max absolute drop {args.quality_drop}.",
            "",
            "| quality SLI | baseline | fresh | delta | verdict |",
            "|---|---|---|---|---|",
        ]
        for name, b, f, delta, verdict in quality_rows:
            bs = f"{b:.4f}" if b is not None else "-"
            fs = f"{f:.4f}" if f is not None else "-"
            ds = f"{delta:+.4f}" if delta is not None else "-"
            lines.append(f"| {name} | {bs} | {fs} | {ds} | {verdict} |")
    table = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(table)
    sys.stdout.write(table)

    if base_cores != fresh_cores:
        sys.stdout.write(
            "\nnote: host core counts differ; wall-time comparison is only "
            "meaningful on matching hardware.\n")
    failed = False
    if regressions:
        failed = True
        sys.stdout.write("\nFAIL: wall-time regressions over threshold:\n")
        for name, b, f, delta in regressions:
            sys.stdout.write(
                f"  {name}: {b:.4f} ms -> {f:.4f} ms ({delta:+.1%})\n")
    if quality_failures:
        failed = True
        sys.stdout.write("\nFAIL: quality SLI regressions over threshold:\n")
        for name, b, f, delta in quality_failures:
            sys.stdout.write(
                f"  {name}: {b:.4f} -> {f:.4f} ({delta:+.4f})\n")
    if failed:
        sys.exit(1)
    sys.stdout.write(
        "\nOK: no phase or quality SLI regressed beyond threshold.\n")
    sys.exit(0)


if __name__ == "__main__":
    main()
