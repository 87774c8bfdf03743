"""Fast self-test of the benchmark itself (not of the program).

Usage, from the repository root::

    python3 perfbench/selftest.py

It checks the span arithmetic on a hand-built span tree, runs every workload
at tiny size in both modes, and checks that a deliberately corrupted score is
counted as a failed operation.  It exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.ROOT / "src"))


def expect(condition: bool, detail: object) -> None:
    """A check that survives ``python -O``."""
    if not condition:
        raise AssertionError(detail)


def check_span_arithmetic() -> None:
    from spans import Span, coverage, layer_self_times, self_times

    # fit [0, 10] has children a [1, 4] (with child a1 [2, 3]), b [3, 6]
    # overlapping a, and c [8, 12] running past the root's end.
    spans = [
        Span("fit", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a1", 2.0, 3.0, parent=1),
        Span("b", 3.0, 6.0, parent=0),
        Span("c", 8.0, 12.0, parent=0),
        Span("fit", 20.0, 21.0),
    ]
    expected = [3.0, 2.0, 1.0, 3.0, 4.0, 1.0]
    got = self_times(spans)
    expect(all(math.isclose(a, b) for a, b in zip(got, expected)), got)
    expect(math.isclose(coverage(spans, 0), 0.7), coverage(spans, 0))
    expect(coverage(spans, 5) == 0.0, coverage(spans, 5))
    totals = layer_self_times(spans, 0)
    expect(totals == {"fit": 3.0, "a": 2.0, "a1": 1.0, "b": 3.0, "c": 4.0},
           totals)


def invoke(workload: str, trace: int, seconds: float = 0.3) -> tuple:
    """``run.main`` in this process; returns (exit code, final JSON line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", str(seconds), "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def shrink() -> None:
    """Tiny configurations: a few members, one or two set-ups, two cycles."""
    import fits
    import serve

    fits.WORKLOADS["fit-paper"]["config"] = \
        fits.WORKLOADS["fit-paper"]["config"].with_overrides(ensemble_groups=8)
    fits.WORKLOADS["fit-noisy"]["config"] = \
        fits.WORKLOADS["fit-noisy"]["config"].with_overrides(ensemble_groups=2)
    fits.SETUP_REPEATS = 2
    serve.CONFIG = serve.CONFIG.with_overrides(ensemble_groups=4)
    serve.CYCLES = 2
    serve.SETUP_REPEATS = 1


def check_workloads() -> None:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, final = invoke(workload, trace)
            expect(code == 0 and final["correct"] and final["failed"] == 0
                   and final["attempted"] >= 1, (workload, trace, final))
            print(f"ok  {workload} trace={trace} "
                  f"attempted={final['attempted']}", file=sys.stderr)


@contextlib.contextmanager
def patched(owner, name: str, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def one_ulp_off(scores):
    import numpy as np

    scores = np.array(scores, dtype=float)
    scores[0] = np.nextafter(scores[0], np.inf)
    return scores


def check_corruption_is_counted() -> None:
    import numpy as np

    from repro.core import QuorumDetector
    from repro.serving import OnlineScorer

    original_scores = QuorumDetector.anomaly_scores
    original_score = OnlineScorer.score

    def nan_scores(self):
        scores = original_scores(self)
        scores[0] = np.nan
        return scores

    def off_by_ulp(self):
        return one_ulp_off(original_scores(self))

    def served_off_by_ulp(self, features, mode="reference"):
        result = original_score(self, features, mode)
        result.scores = one_ulp_off(result.scores)
        return result

    cases = (
        ("fit-paper", 0, QuorumDetector, "anomaly_scores", nan_scores),
        ("fit-paper", 1, QuorumDetector, "anomaly_scores", off_by_ulp),
        ("serve-mixed", 0, OnlineScorer, "score", served_off_by_ulp),
    )
    for workload, trace, owner, name, corrupt in cases:
        with patched(owner, name, corrupt):
            code, final = invoke(workload, trace)
        expect(code != 0 and not final["correct"] and final["failed"] >= 1,
               (workload, trace, final))
        print(f"ok  corrupted {owner.__name__}.{name} on {workload} "
              f"trace={trace}: failed={final['failed']}", file=sys.stderr)


def main() -> int:
    check_span_arithmetic()
    print("ok  span self-time and coverage arithmetic", file=sys.stderr)
    shrink()
    check_workloads()
    check_corruption_is_counted()
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
