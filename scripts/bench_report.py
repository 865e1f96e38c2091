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
    runner itself — e.g. "the process-parallel sweep at least matches the
    serial one" on a multi-core CI machine, where a ratio against a
    baseline recorded on different hardware would be meaningless.

    A gated metric missing from either JSON exits 2 with a message naming
    the metric (stale benchmark file), distinct from exit 1 (regression).

    ``--exact`` compares every deterministic field of a run with the
    committed file and fails on any difference::

        python scripts/bench_report.py check --exact \
            --baseline BENCH_P4.json --current /tmp/bench_p4_now.json

    ``EXACT_FIELDS`` lists each schema's deterministic fields (simulated
    time, work counters, sweep statistics); timings are never listed.  A
    quick run covers a subset of the committed cells, so cells the run
    did not produce are not compared, and ``RUN_SIZE_CELLS`` (values that
    depend on the run's seed list or repeat count) are compared only when
    both files have the same ``quick`` flag.  A listed field or cell the
    committed file lacks exits 2 (stale file); a schema with no list
    exits 2 too.

Metrics are addressed as ``section/cell/field`` paths into the JSON
(e.g. ``propose/n=64/incremental_ms``).
"""

import argparse
import fnmatch
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


#: Deterministic fields per schema for ``check --exact``: section → cell
#: pattern → field patterns (``fnmatch`` globs).  Timings are never listed.
EXACT_FIELDS = {
    "bench_p3_surrogate/v4": {
        "propose": {"n=*": ("full_fits",)},
        "batch": {"*": ("full_fits",)},
    },
    "bench_p4_fleet/v1": {
        "fleet": {
            "seed=*": (
                "fleet_best", "fleet_machine_h", "fleet_wall_h",
                "itemisation_error_s", "matched_speedup", "shard*_machine_h",
                "single_best", "single_machine_h", "single_wall_h", "wall_speedup",
            ),
            "aggregate": ("matched_speedup", "wall_speedup"),
        },
    },
    "bench_p5_throughput/v2": {
        "throughput": {"n=*": ("scalar_samples",)},
    },
    "bench_p7_service/v1": {
        "service": {
            "seed=*": ("cold_*", "warm_*", "tenants_per_generation"),
            "sessions_per_hour": ("warm_vs_cold", "warm_vs_cold_min"),
        },
    },
    "bench_p8_drift/v1": {
        "drift": {
            "seed=*": (
                "adaptive_recovery_s", "adaptive_trials", "detections",
                "false_alarms", "first_detection_wall_s", "oblivious_recovery_s",
                "oblivious_trials", "recovery_speedup",
            ),
            "recovery": ("speedup_mean", "speedup_min"),
        },
    },
    "bench_p9_sweep/v2": {
        "sweep": {
            "optimum": ("samples", "scalar_evals"),
            "demo:*": ("seeds", "mean", "median", "q1", "q3", "iqr", "min", "max", "mean_trials"),
            "throughput": ("sessions",),
        },
    },
    "bench_p10_checkpoint/v1": {
        "checkpoint": {
            "quick": ("fsyncs", "replaces", "trials", "identical"),
            "resume": ("identical",),
        },
    },
}

#: Cells whose values depend on how much a run does — its seed list, or
#: how many timed rounds it counts — which a quick run shortens
#: (``section/cell`` globs): compared only when both files have the same
#: ``quick`` flag.
RUN_SIZE_CELLS = (
    "batch/*",
    "fleet/aggregate",
    "service/sessions_per_hour",
    "drift/recovery",
    "sweep/demo:*",
    "sweep/throughput",
)


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


def check_exact(baseline, current):
    """``(compared, differences, stale, skipped)`` over the listed fields.

    ``differences`` and ``stale`` are lists of ``section/cell/field``
    paths; ``stale`` names listed cells or fields the run produced but the
    committed file lacks (or the reverse, for a cell both carry).
    """
    spec = EXACT_FIELDS[baseline["schema"]]
    same_size = baseline.get("quick") == current.get("quick")
    compared, differences, stale, skipped = 0, [], [], 0
    for section, cells in spec.items():
        base_cells = baseline.get(section, {})
        now_cells = current.get(section, {})
        for pattern, field_patterns in cells.items():
            for cell in sorted(fnmatch.filter(now_cells, pattern)):
                path = f"{section}/{cell}"
                if any(fnmatch.fnmatchcase(path, glob) for glob in RUN_SIZE_CELLS):
                    if not same_size:
                        skipped += 1
                        continue
                if cell not in base_cells:
                    stale.append(path)
                    continue
                base, now = base_cells[cell], now_cells[cell]
                fields = {
                    field
                    for field in set(base) | set(now)
                    if any(fnmatch.fnmatchcase(field, glob) for glob in field_patterns)
                }
                for field in sorted(fields):
                    if field not in base or field not in now:
                        stale.append(f"{path}/{field}")
                        continue
                    compared += 1
                    if base[field] != now[field]:
                        differences.append(f"{path}/{field}")
                        print(
                            f"{path}/{field}: baseline {base[field]!r} "
                            f"current {now[field]!r} DIFFERS"
                        )
    return compared, differences, stale, skipped


def cmd_check_exact(args):
    bounds = (args.max_ratio, args.min_ratio, args.max_value, args.min_value)
    if args.baseline is None or args.metric or any(b is not None for b in bounds):
        print(
            "check: --exact compares a whole file; pass --baseline, "
            "and no --metric or bound"
        )
        return 2
    baseline, current = _load(args.baseline), _load(args.current)
    schema = baseline.get("schema")
    if schema not in EXACT_FIELDS:
        print(f"check: no deterministic fields are listed for schema {schema!r}")
        return 2
    if current.get("schema") != schema:
        print(
            f"check: current file {args.current!r} has schema "
            f"{current.get('schema')!r}, baseline has {schema!r}"
        )
        return 2
    compared, differences, stale, skipped = check_exact(baseline, current)
    for path in stale:
        print(
            f"check: {path} is missing from one file — regenerate the committed "
            f"baseline {args.baseline!r} with the current benchmark script"
        )
    if not compared:
        print("check: no deterministic field was compared")
    if stale or not compared:
        return 2
    note = f", {skipped} run-size cell(s) skipped (quick vs full)" if skipped else ""
    if differences:
        print(f"FAIL: {len(differences)} of {compared} deterministic field(s) differ{note}")
        return 1
    print(f"PASS: {compared} deterministic field(s) equal the committed file{note}")
    return 0


def cmd_check(args):
    if args.exact:
        return cmd_check_exact(args)
    bounds = (args.max_ratio, args.min_ratio, args.max_value, args.min_value)
    if sum(bound is not None for bound in bounds) != 1:
        print(
            "check: pass exactly one of "
            "--max-ratio / --min-ratio / --max-value / --min-value / --exact"
        )
        return 2
    if not args.metric:
        print("check: bounds gate named metrics; pass --metric")
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
        default=[],
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
    check.add_argument(
        "--exact", action="store_true",
        help="fail when any deterministic field differs from --baseline",
    )
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
