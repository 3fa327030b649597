#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a checked-in baseline.

Usage:
    tools/perf_compare.py BASELINE.json CURRENT.json [--band 0.25]
    tools/perf_compare.py --advisor-json BENCH_advisor_validation.json \
        [--min-precision 0.8]

Every benchmark present in both files is compared. Each `sim_*` field
present in both rows (a simulated quantity such as `sim_total_ns`) must
match exactly: the simulation is deterministic, so any difference is a
model change. The host timing, `items_per_second` when available
(higher is better), else `real_time` (lower is better), must stay
within the +/-band guard window. A readable delta table is printed;
any failed comparison exits nonzero.

With --advisor-json the script instead summarizes an advisor
validation run (bench/advisor_validation --json): the aggregate
precision/recall block and per-benchmark rank agreement are printed,
and any gated metric below --min-precision (or a negative Kendall tau)
exits nonzero -- the same gate the bench itself applies, usable on an
archived JSON artifact without rerunning the sweep.

The baselines live in bench/baseline/. BENCH_micro_engine.json is
regenerated on purposeful perf changes with:

    ./build/bench/micro_engine --benchmark_min_time=0.2 \
        --benchmark_out=bench/baseline/BENCH_micro_engine.json \
        --benchmark_out_format=json

On a noisy host, run it a few times and keep, per benchmark, the entry
with the lowest real_time ("best of N"): minima are far more stable
than single runs, and a too-slow baseline would hide regressions.
BENCH_scale_sweep.json and BENCH_coherence_sweep.json hold simulated
totals only; after an intentional model change, regenerate them with
`scale_sweep --fast --json=bench/baseline` and
`coherence_sweep --json=bench/baseline`.

Absolute timings shift with host hardware; the guard band is meant for
same-machine A/B runs (local development, a dedicated perf runner). On
shared CI the timing compares are advisory (continue-on-error) and the
table is what reviewers read; the exact sim_* compare is a hard gate.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """Returns {name: row} for the non-aggregate rows of a benchmark JSON."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    return {bench["name"]: bench for bench in data.get("benchmarks", [])
            if bench.get("run_type") != "aggregate"}


def timing(row):
    """Returns (value, kind) of a row's host timing; kind None if none."""
    if "items_per_second" in row:
        return float(row["items_per_second"]), "items/s"
    if "real_time" in row:
        return float(row["real_time"]), "time:" + row.get("time_unit", "ns")
    return 0.0, None


def fmt_rate(value):
    for unit, scale in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if value >= scale:
            return f"{value / scale:.3f}{unit}/s"
    return f"{value:.1f}/s"


def summarize_advisor(path, min_precision):
    """Prints and gates a BENCH_advisor_validation.json artifact."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    agg = data["aggregate"]
    gated = [
        ("migration precision", agg["migration_precision"]),
        ("migration recall", agg["migration_recall"]),
        ("target agreement", agg["target_agreement"]),
        ("ft-home agreement", agg["home_agreement"]),
        ("ping-pong precision", agg["pingpong_precision"]),
        ("cold-home precision", agg["cold_home_precision"]),
    ]
    failures = 0
    print(f"advisor validation ({path}):")
    for name, value in gated:
        ok = value >= min_precision
        failures += 0 if ok else 1
        print(f"  {name:<22} {value:.3f}  "
              f"{'ok' if ok else 'BELOW ' + format(min_precision, '.2f')}")
    tau = agg["min_kendall_tau"]
    tau_ok = tau > 0.0
    failures += 0 if tau_ok else 1
    print(f"  {'min kendall tau-a':<22} {tau:.3f}  "
          f"{'ok' if tau_ok else 'ANTI-CORRELATED'}")
    vectors_ok = bool(agg.get("vectors_exact", False))
    failures += 0 if vectors_ok else 1
    print(f"  {'migration vectors':<22} "
          f"{'exact' if vectors_ok else 'MISMATCH'}")
    print()
    for bench in data.get("benchmarks", []):
        agrees = "agrees" if bench["verdict_agrees"] else "DISAGREES"
        print(f"  {bench['benchmark']:<4} tau={bench['kendall_tau']:+.3f}  "
              f"predicted={bench['predicted_best']:<10} "
              f"actual={bench['actual_best']:<10} verdict {agrees}")
    if failures:
        print(f"\n{failures} advisor metric(s) below the "
              f"{min_precision:.2f} floor")
        return 1
    print(f"\nall advisor metrics at or above {min_precision:.2f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument(
        "--band",
        type=float,
        default=0.25,
        help="allowed fractional regression/improvement window "
        "(default 0.25 = +/-25%%)",
    )
    parser.add_argument(
        "--advisor-json",
        help="summarize and gate a BENCH_advisor_validation.json instead "
        "of comparing benchmark timings",
    )
    parser.add_argument(
        "--min-precision",
        type=float,
        default=0.8,
        help="gate for --advisor-json metrics (default 0.8)",
    )
    args = parser.parse_args()

    if args.advisor_json:
        return summarize_advisor(args.advisor_json, args.min_precision)
    if not args.baseline or not args.current:
        parser.error("baseline and current are required unless "
                     "--advisor-json is given")

    base = load_benchmarks(args.baseline)
    cur = load_benchmarks(args.current)
    shared = [name for name in base if name in cur]

    rows = []
    for name in shared:
        for field, base_value in base[name].items():
            cur_value = cur[name].get(field)
            if field.startswith("sim_") and cur_value is not None:
                ok = cur_value == base_value
                rows.append((f"{name} {field}", f"{base_value} -> {cur_value}",
                             0.0 if ok else cur_value / base_value - 1.0,
                             "ok" if ok else "CHANGED"))
        base_value, kind = timing(base[name])
        cur_value, cur_kind = timing(cur[name])
        if kind is None or kind != cur_kind or base_value <= 0:
            continue
        # Normalize so that delta > 0 always means "faster".
        if kind == "items/s":
            delta = cur_value / base_value - 1.0
            shown = f"{fmt_rate(base_value)} -> {fmt_rate(cur_value)}"
        else:
            unit = kind.partition(":")[2]
            delta = base_value / cur_value - 1.0
            shown = f"{base_value:.1f}{unit} -> {cur_value:.1f}{unit}"
        ok = abs(delta) <= args.band
        rows.append((name, shown, delta, "ok" if ok else
                     ("REGRESSED" if delta < 0 else "IMPROVED*")))
    if not rows:
        print("perf_compare: nothing comparable between the two files",
              file=sys.stderr)
        return 2

    name_width = max(len(r[0]) for r in rows)
    value_width = max(len(r[1]) for r in rows)
    print(f"{'benchmark':<{name_width}}  {'baseline -> current':<{value_width}}"
          f"  {'delta':>8}  verdict")
    print("-" * (name_width + value_width + 22))
    for name, shown, delta, verdict in rows:
        print(f"{name:<{name_width}}  {shown:<{value_width}}"
              f"  {delta:+8.1%}  {verdict}")
    failures = sum(verdict != "ok" for *_, verdict in rows)
    if failures:
        print(f"\n{failures} comparison(s) failed (sim_* changed or timing "
              f"outside +/-{args.band:.0%}). If intentional, regenerate the "
              "baseline (see tools/perf_compare.py --help).")
        return 1
    print(f"\nall {len(rows)} comparisons ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
