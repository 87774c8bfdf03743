"""Quorum benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is the separate traced run that reports the per-layer metrics and writes its
spans to ``.perfbench_work/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is ``{"meta": ...}``: host, BLAS, thread pinning, git sha and seed.  The exit
code is 0 only when every correctness gate passed.

See ``perfbench/README.md`` for the workloads, the metrics and what each
metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from meta import pin_threads  # noqa: E402  (must precede any numpy import)

pin_threads()

WORKLOADS = ("fit-paper", "fit-noisy", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    """``{name: unit}`` that BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import fits
    import serve
    from meta import host_metadata
    from spans import Tracer

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    tracer = Tracer()
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        result = serve.run(args.seed, args.seconds, trace, workdir, tracer)
    else:
        result = fits.run(args.workload, args.seed, args.seconds, trace,
                          workdir, tracer)

    declared = declared_metrics(trace)
    if set(result.metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(result.metrics)} do not match BENCHMARK.json "
            f"{sorted(declared)}")
    for name, (value, unit, _) in result.metrics.items():
        result.check(math.isfinite(value) and unit == declared[name],
                     f"metric {name} unmeasured ({value}) or unit {unit!r}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = host_metadata(ROOT, args.workload, args.seed)
    meta.update(trace=args.trace, seconds=args.seconds)
    record = {
        "meta": meta,
        "metrics": {name: {"value": value, "unit": unit, "samples": samples}
                    for name, (value, unit, samples) in result.metrics.items()},
        "attempted": result.attempted,
        "failures": result.failures,
    }
    (workdir / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    if trace:
        tracer.write(workdir / f"{stem}-spans.jsonl")

    for name, (value, unit, samples) in result.metrics.items():
        print(f"{name:<30} {value:>14.6g} {unit:<6} n={samples}")
    failed = len(result.failures)
    print(f"ops attempted={result.attempted} "
          f"succeeded={result.attempted - failed} failed={failed}")
    for failure in result.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0,
                           "unit": unit}
                    for name, (value, unit, _) in result.metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
