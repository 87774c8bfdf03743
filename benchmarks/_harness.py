"""Helpers shared by the benchmark harness, plus the perf-regression gate.

Besides the ``run_once`` pytest-benchmark wrapper, this module implements the
CI performance gate: the repository commits a ``BENCH_baseline.json`` snapshot
of benchmark means, and ``python benchmarks/_harness.py check <results.json>``
diffs a fresh pytest-benchmark JSON artifact against it, failing (exit code 1)
when any *tracked* benchmark slowed down by more than the tolerance (25% by
default; override with ``--tolerance`` or ``QUORUM_BENCH_TOLERANCE``).

Benchmarks present in the results but absent from the baseline are untracked
and ignored; tracked benchmarks missing from the results are reported (they
usually indicate a renamed test) but do not fail the gate.  Refresh the
baseline after an intentional perf change or a CI-hardware change with::

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-enable \
        --benchmark-json=results.json
    python benchmarks/_harness.py update results.json
"""

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"
DEFAULT_TOLERANCE = 0.25


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiment benchmarks are full evaluation sweeps (minutes, not
    microseconds), so a single round is both sufficient and necessary.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def load_benchmark_means(results_path):
    """``{fullname: mean seconds}`` from a pytest-benchmark JSON artifact."""
    with open(results_path) as handle:
        data = json.load(handle)
    return {entry["fullname"]: float(entry["stats"]["mean"])
            for entry in data.get("benchmarks", [])}


def load_baseline(baseline_path=DEFAULT_BASELINE):
    """The committed baseline: ``{"benchmarks": {fullname: mean seconds}}``."""
    with open(baseline_path) as handle:
        return json.load(handle)


def diff_against_baseline(means, baseline, tolerance=DEFAULT_TOLERANCE):
    """Compare fresh means against a baseline mapping.

    Returns ``(regressions, missing)``: ``regressions`` holds
    ``(name, baseline_seconds, measured_seconds, slowdown_fraction)`` tuples
    for every tracked benchmark that exceeded the tolerated slowdown;
    ``missing`` lists tracked benchmarks absent from the fresh results.
    """
    regressions = []
    missing = []
    for name, baseline_seconds in sorted(baseline["benchmarks"].items()):
        if name not in means:
            missing.append(name)
            continue
        measured = means[name]
        slowdown = measured / baseline_seconds - 1.0
        if slowdown > tolerance:
            regressions.append((name, baseline_seconds, measured, slowdown))
    return regressions, missing


def check(results_path, baseline_path=DEFAULT_BASELINE, tolerance=None):
    """Gate a results artifact against the baseline; returns the exit code."""
    if tolerance is None:
        tolerance = float(os.environ.get("QUORUM_BENCH_TOLERANCE",
                                         DEFAULT_TOLERANCE))
    means = load_benchmark_means(results_path)
    baseline = load_baseline(baseline_path)
    regressions, missing = diff_against_baseline(means, baseline, tolerance)
    for name in missing:
        print(f"[bench-gate] WARNING: tracked benchmark missing from results: "
              f"{name}")
    tracked = len(baseline["benchmarks"]) - len(missing)
    if regressions:
        print(f"[bench-gate] FAIL: {len(regressions)} of {tracked} tracked "
              f"benchmarks regressed beyond {tolerance:.0%}:")
        for name, base, measured, slowdown in regressions:
            print(f"  {name}: {base:.3f}s -> {measured:.3f}s "
                  f"(+{slowdown:.0%})")
        return 1
    if tracked == 0:
        # Fail closed: an empty artifact (misconfigured benchmark run, mass
        # rename) must not read as a passing gate.
        print("[bench-gate] FAIL: no tracked benchmark present in the results")
        return 1
    print(f"[bench-gate] OK: {tracked} tracked benchmarks within "
          f"{tolerance:.0%} of the baseline")
    return 0


def update(results_path, baseline_path=DEFAULT_BASELINE, min_seconds=0.5):
    """Rewrite the committed baseline from a fresh results artifact.

    Benchmarks faster than ``min_seconds`` are left untracked: below ~0.5 s
    a 25% relative gate measures scheduler jitter on shared CI runners, not
    regressions, and the macro benchmarks cover the same code paths.
    """
    means = load_benchmark_means(results_path)
    tracked = {name: round(mean, 4) for name, mean in sorted(means.items())
               if mean >= min_seconds}
    skipped = len(means) - len(tracked)
    if skipped:
        print(f"[bench-gate] leaving {skipped} sub-{min_seconds}s benchmarks "
              f"untracked")
    payload = {
        "note": ("Benchmark means (seconds) recorded by "
                 "`python benchmarks/_harness.py update`; the CI gate fails on "
                 ">25% slowdown of any entry.  Refresh after intentional perf "
                 "changes or CI-hardware changes.  Benchmarks faster than "
                 "0.5s stay untracked (jitter-dominated)."),
        "benchmarks": tracked,
    }
    with open(baseline_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench-gate] baseline updated: {len(tracked)} tracked benchmarks "
          f"-> {baseline_path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff pytest-benchmark JSON artifacts against the "
                    "committed BENCH_baseline.json")
    parser.add_argument("command", choices=("check", "update"))
    parser.add_argument("results", help="pytest-benchmark JSON artifact")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--tolerance", type=float, default=None,
                        help="tolerated fractional slowdown (default 0.25, or "
                             "QUORUM_BENCH_TOLERANCE)")
    parser.add_argument("--min-seconds", type=float, default=0.5,
                        help="update only: leave faster benchmarks untracked")
    args = parser.parse_args(argv)
    if args.command == "update":
        return update(args.results, args.baseline,
                      min_seconds=args.min_seconds)
    return check(args.results, args.baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
