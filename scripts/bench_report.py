"""Render and regression-check BENCH_P3-style benchmark JSON files.

Two subcommands:

``report``
    Pretty-print a benchmark JSON (tables per axis, speedup columns)::

        python scripts/bench_report.py report BENCH_P3.json

``check``
    Compare a freshly measured JSON against a committed baseline and exit
    non-zero when a watched metric regressed beyond the allowed ratio —
    e.g. the CI gate on the sparse tier's large-history speedup::

        python scripts/bench_report.py check \
            --baseline BENCH_P3.json --current /tmp/bench_now.json \
            --metric large/n=1024/speedup --min-ratio 0.5

    ``--max-ratio`` bounds lower-is-better metrics (latencies):
    fail when ``current > max_ratio * baseline``.  ``--min-ratio`` bounds
    higher-is-better metrics (speedups): fail when
    ``current < min_ratio * baseline``.  Of the timed fields, prefer
    gating on ``speedup`` — both sides of a speedup are measured on the
    same machine in the same run, so the verdict does not depend on how
    fast the runner hardware happens to be.

    ``--min-value`` / ``--max-value`` gate on the current measurement
    alone (no baseline): fail when ``current < min_value`` or
    ``current > max_value``.  Use these for deterministic work counters
    (e.g. ``--metric propose/n=64/full_fits --max-value 4``), which do not
    depend on the runner at all, and for properties that must hold on the
    runner itself — e.g. "parallel hyperfit beats serial at all" on a
    multi-core CI machine, where a ratio against a baseline recorded on
    different hardware would be meaningless.

    A gated metric missing from either JSON exits 2 with a message naming
    the metric (stale benchmark file), distinct from exit 1 (regression).

Metrics are addressed as ``section/cell/field`` paths into the JSON
(e.g. ``propose/n=64/incremental_ms``).
"""

import argparse
import json
import sys


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _lookup(results, metric):
    node = results
    for part in metric.split("/"):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(f"metric {metric!r} not found (missing {part!r})")
        node = node[part]
    if not isinstance(node, (int, float)):
        raise KeyError(f"metric {metric!r} resolves to {type(node).__name__}, not a number")
    return float(node)


PREFERRED_SECTION_ORDER = (
    "propose",
    "large",
    "throughput",
    "batch",
    "hyperfit",
    "harness",
    "cache",
    "fleet",
    "service",
    "drift",
    "sweep",
)
_META_KEYS = {"schema", "quick", "config"}


def _sections(results):
    """Table sections of a benchmark JSON: every dict-of-dicts data key.

    Known sections render in their preferred order; any section a newer
    schema adds still renders (after them, in name order) instead of being
    silently dropped.
    """
    names = [
        key
        for key, value in results.items()
        if key not in _META_KEYS
        and isinstance(value, dict)
        and value
        and all(isinstance(cell, dict) for cell in value.values())
    ]
    return sorted(
        names,
        key=lambda name: (
            PREFERRED_SECTION_ORDER.index(name)
            if name in PREFERRED_SECTION_ORDER
            else len(PREFERRED_SECTION_ORDER),
            name,
        ),
    )


def render(results):
    lines = []
    quick = " (quick)" if results.get("quick") else ""
    lines.append(f"# {results.get('schema', 'benchmark')}{quick}")
    for section in _sections(results):
        cells = results.get(section)
        if not cells:
            continue
        lines.append("")
        lines.append(f"## {section}")
        fields = sorted({f for cell in cells.values() for f in cell})
        header = ["cell"] + fields
        rows = [header, ["-" * len(h) for h in header]]
        for name in sorted(cells):
            row = [name]
            for field in fields:
                value = cells[name].get(field)
                row.append("-" if value is None else f"{value:.2f}")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def cmd_report(args):
    print(render(_load(args.path)))
    return 0


def cmd_check(args):
    bounds = (args.max_ratio, args.min_ratio, args.max_value, args.min_value)
    if sum(bound is not None for bound in bounds) != 1:
        print(
            "check: pass exactly one of "
            "--max-ratio / --min-ratio / --max-value / --min-value"
        )
        return 2
    ratio_mode = args.max_ratio is not None or args.min_ratio is not None
    if ratio_mode and args.baseline is None:
        print("check: ratio bounds compare against a baseline; pass --baseline")
        return 2
    current = _load(args.current)
    baseline = _load(args.baseline) if args.baseline is not None else None
    failures = []
    for metric in args.metric:
        try:
            now = _lookup(current, metric)
        except KeyError as exc:
            # A missing gated metric is a stale benchmark file, not a code
            # regression — name the metric AND the offending file instead of
            # dumping a traceback, and exit with the usage status so CI logs
            # read unambiguously.
            print(f"check: {exc.args[0]}")
            print(
                f"check: current file {args.current!r} does not carry this "
                "metric — regenerate it with the current benchmark script"
            )
            return 2
        try:
            base = _lookup(baseline, metric) if ratio_mode else None
        except KeyError as exc:
            print(f"check: {exc.args[0]}")
            print(
                f"check: baseline file {args.baseline!r} does not carry this "
                "metric — regenerate the committed baseline with the current "
                "benchmark script"
            )
            return 2
        if ratio_mode:
            ratio = now / base if base > 0 else float("inf")
            if args.max_ratio is not None:
                regressed = ratio > args.max_ratio
                bound = f"max {args.max_ratio:.2f}"
            else:
                regressed = ratio < args.min_ratio
                bound = f"min {args.min_ratio:.2f}"
            status = "REGRESSED" if regressed else "ok"
            print(
                f"{metric}: baseline {base:.2f} current {now:.2f} "
                f"ratio {ratio:.2f} ({bound}) {status}"
            )
        else:
            if args.max_value is not None:
                regressed = now > args.max_value
                bound = f"max value {args.max_value:.2f}"
            else:
                regressed = now < args.min_value
                bound = f"min value {args.min_value:.2f}"
            status = "REGRESSED" if regressed else "ok"
            print(f"{metric}: current {now:.2f} ({bound}) {status}")
        if regressed:
            failures.append(metric)
    if failures:
        print(f"FAIL: {len(failures)} metric(s) regressed beyond the allowed bound")
        return 1
    print("PASS: no metric regressed beyond the allowed bound")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="pretty-print a benchmark JSON")
    report.add_argument("path")
    report.set_defaults(func=cmd_report)

    check = sub.add_parser("check", help="regression-gate against a baseline")
    check.add_argument(
        "--baseline", default=None,
        help="committed baseline JSON (required for the ratio bounds)",
    )
    check.add_argument("--current", required=True)
    check.add_argument(
        "--metric",
        action="append",
        required=True,
        help="section/cell/field path, e.g. large/n=1024/speedup "
        "(repeatable)",
    )
    check.add_argument(
        "--max-ratio", type=float, default=None,
        help="fail when current > max_ratio * baseline (lower-is-better metrics)",
    )
    check.add_argument(
        "--min-ratio", type=float, default=None,
        help="fail when current < min_ratio * baseline (higher-is-better metrics)",
    )
    check.add_argument(
        "--max-value", type=float, default=None,
        help="fail when current > max_value — absolute bound, no baseline needed",
    )
    check.add_argument(
        "--min-value", type=float, default=None,
        help="fail when current < min_value — absolute bound for metrics that "
        "must hold on the runner itself (e.g. a live multi-core speedup floor)",
    )
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
