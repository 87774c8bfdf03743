"""Command-line interface for the Quorum reproduction.

Installed as the ``quorum-repro`` console script::

    quorum-repro datasets                         # list Table I datasets
    quorum-repro detect --dataset breast_cancer   # run Quorum, print metrics
    quorum-repro detect --csv mydata.csv --label-column is_anomaly
    quorum-repro compare --dataset power_plant    # Quorum vs classical baselines
    quorum-repro experiment table1 fig8 table2    # regenerate paper artifacts
    quorum-repro report --output report.md        # full evaluation report
    quorum-repro fit --dataset letter --save-model model.json   # train once
    quorum-repro score --model model.json --csv new.csv         # score many
    quorum-repro serve --model model.json --port 8765           # /v1 runtime
    quorum-repro serve --model a.json --models canary=b.json    # multi-model
    quorum-repro jobs submit --server http://127.0.0.1:8765 \\
        --kind replay_dataset --dataset letter --wait           # async job
    quorum-repro loadtest --model model.json --replicas 2 \\
        --concurrency 4 8 16 --report loadtest.json             # fleet perf
    quorum-repro fleet --model model.json --replicas 3          # self-healing


Every command prints GitHub-flavoured markdown so output can be pasted straight
into issues or EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.baselines import (
    HBOSDetector,
    IsolationForestDetector,
    KMeansDetector,
    LocalOutlierFactorDetector,
    PCAReconstructionDetector,
)
from repro.core.config import BACKENDS
from repro.core.detector import QuorumDetector
from repro.data.dataset import Dataset
from repro.data.io import load_dataset_csv
from repro.data.registry import DATASET_SPECS, available_datasets, load_dataset
from repro.experiments.common import ExperimentSettings, markdown_table
from repro.experiments.fig8 import format_fig8, run_fig8
from repro.experiments.fig9 import format_fig9, run_fig9
from repro.experiments.fig10 import format_fig10, run_fig10
from repro.experiments.report import render_report, run_full_evaluation, write_report
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.metrics.classification import evaluate_top_k
from repro.metrics.detection import detection_rate_curve
from repro.quantum.backend import available_simulation_backends

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="quorum-repro",
        description="Zero-training quantum anomaly detection (Quorum, DAC 2025) "
                    "reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the Table I evaluation datasets")

    detect = subparsers.add_parser("detect", help="run Quorum on a dataset")
    _add_data_arguments(detect)
    _add_detector_arguments(detect)
    detect.add_argument("--top", type=int, default=10,
                        help="how many top-scoring samples to list")
    _add_execution_arguments(detect)

    compare = subparsers.add_parser("compare",
                                    help="compare Quorum against classical baselines")
    _add_data_arguments(compare)
    compare.add_argument("--ensembles", type=int, default=50)
    compare.add_argument("--seed", type=int, default=1234)
    _add_execution_arguments(compare)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate paper tables/figures (table1, fig8, fig9, "
                           "fig10, table2)")
    experiment.add_argument("artifacts", nargs="+",
                            choices=("table1", "fig8", "fig9", "fig10", "table2"),
                            help="which artifacts to regenerate")
    experiment.add_argument("--ensembles", type=int, default=60)
    experiment.add_argument("--seed", type=int, default=11)
    experiment.add_argument("--skip-noisy", action="store_true",
                            help="skip the expensive noisy runs in fig9")
    _add_execution_arguments(experiment)

    report = subparsers.add_parser("report", help="run the full evaluation sweep")
    report.add_argument("--ensembles", type=int, default=60)
    report.add_argument("--seed", type=int, default=11)
    report.add_argument("--skip-noisy", action="store_true")
    report.add_argument("--output", type=str, default=None,
                        help="write the markdown report to this path")
    report.add_argument("--json", type=str, default=None,
                        help="also dump machine-readable results to this path")
    _add_execution_arguments(report)

    fit = subparsers.add_parser(
        "fit", help="fit Quorum and persist the ensemble as a model artifact")
    _add_data_arguments(fit)
    _add_detector_arguments(fit)
    fit.add_argument("--save-model", type=str, required=True, metavar="PATH",
                     help="write the versioned model bundle to this path")
    _add_execution_arguments(fit)

    score = subparsers.add_parser(
        "score", help="score samples against a saved model without refitting")
    score.add_argument("--model", type=str, required=True, metavar="PATH",
                       help="model bundle written by `fit --save-model`")
    _add_data_arguments(score)
    score.add_argument("--mode", choices=("reference", "replay"),
                       default="reference",
                       help="'reference' scores against frozen fit-time bucket "
                            "statistics; 'replay' requires the exact training "
                            "set and reproduces the fit scores bitwise")
    score.add_argument("--top", type=int, default=10,
                       help="how many top-scoring samples to list")

    serve = subparsers.add_parser(
        "serve", help="serve saved model(s) over the stdlib-only /v1 HTTP API")
    serve.add_argument("--model", type=str, default=None, metavar="PATH",
                       help="default model bundle written by "
                            "`fit --save-model`")
    serve.add_argument("--models", type=str, nargs="+", default=None,
                       metavar="ID=PATH",
                       help="additional model bundles registered under "
                            "pinned ids, e.g. --models prod=a.json "
                            "canary=b.json")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port; 0 binds an ephemeral port (printed on "
                            "startup)")
    serve.add_argument("--max-batch-samples", type=int, default=512,
                       help="sample budget of one coalesced micro-batch")
    serve.add_argument("--batch-window-ms", type=float, default=0.0,
                       help="how long to wait for concurrent requests to "
                            "coalesce before executing a batch (default 0: "
                            "dispatch at once when idle; requests arriving "
                            "during a batch still coalesce)")
    serve.add_argument("--job-workers", type=int, default=2,
                       help="worker threads executing POST /v1/jobs work")
    serve.add_argument("--job-ttl", type=float, default=900.0,
                       metavar="SECONDS",
                       help="how long finished jobs (and results) stay "
                            "retrievable")
    serve.add_argument("--session-ttl", type=float, default=600.0,
                       metavar="SECONDS",
                       help="idle TTL of /v1/sessions")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.add_argument("--debug-hooks", action="store_true",
                       help="enable /v1/_debug fault-injection hooks "
                            "(chaos testing only; never in production)")

    fleet = subparsers.add_parser(
        "fleet",
        help="run a self-healing replica fleet behind a round-robin proxy")
    fleet.add_argument("--model", type=str, required=True, metavar="PATH",
                       help="model bundle every replica serves")
    fleet.add_argument("--replicas", type=int, default=2,
                       help="how many serve subprocesses to supervise")
    fleet.add_argument("--host", type=str, default="127.0.0.1",
                       help="proxy listen host (replicas bind loopback)")
    fleet.add_argument("--port", type=int, default=0,
                       help="proxy TCP port; 0 binds an ephemeral port "
                            "(printed on startup)")
    fleet.add_argument("--target-rps", type=float, default=None,
                       help="size the fleet for this request rate instead of "
                            "--replicas (needs --per-replica-rps)")
    fleet.add_argument("--per-replica-rps", type=float, default=None,
                       help="measured single-replica capacity (the loadtest "
                            "saturation knee) used with --target-rps")
    fleet.add_argument("--max-batch-samples", type=int, default=512,
                       help="per-replica micro-batch sample budget")
    fleet.add_argument("--batch-window-ms", type=float, default=0.0,
                       help="per-replica micro-batch coalescing window")
    fleet.add_argument("--health-interval", type=float, default=1.0,
                       metavar="SECONDS", help="health-loop cadence")
    fleet.add_argument("--probe-timeout", type=float, default=2.0,
                       metavar="SECONDS",
                       help="health-probe timeout (bounds hang detection)")
    fleet.add_argument("--eject-after", type=int, default=3,
                       help="consecutive probe failures before a replica "
                            "leaves the rotation")
    fleet.add_argument("--readmit-after", type=int, default=2,
                       help="consecutive probe successes before an ejected "
                            "replica returns")
    fleet.add_argument("--backoff-base", type=float, default=0.5,
                       metavar="SECONDS",
                       help="first restart delay after a crash (doubles per "
                            "consecutive crash)")
    fleet.add_argument("--backoff-max", type=float, default=30.0,
                       metavar="SECONDS", help="restart-delay ceiling")
    fleet.add_argument("--crash-loop-threshold", type=int, default=3,
                       help="crashes within the window that park a replica")
    fleet.add_argument("--crash-loop-window", type=float, default=30.0,
                       metavar="SECONDS", help="crash-loop detection window")
    fleet.add_argument("--status-interval", type=float, default=10.0,
                       metavar="SECONDS",
                       help="print a machine-readable JSON status line this "
                            "often (0 disables)")
    fleet.add_argument("--events", type=str, default=None, metavar="PATH",
                       help="append every flight-recorder event (spawns, "
                            "ejects, restarts, drains, crash-loop trips) to "
                            "this JSONL file as it happens; '-' streams "
                            "them to stderr on exit only")
    fleet.add_argument("--debug-hooks", action="store_true",
                       help="start replicas with /v1/_debug fault-injection "
                            "hooks enabled (chaos testing only)")

    loadtest = subparsers.add_parser(
        "loadtest",
        help="measure a serve replica fleet under closed-loop load")
    loadtest.add_argument("--model", type=str, required=True, metavar="PATH",
                          help="model bundle every replica serves")
    loadtest.add_argument("--replicas", type=int, default=1,
                          help="how many serve subprocesses to fan requests "
                               "across (K>1 also measures a 1-replica "
                               "baseline for scale-out efficiency)")
    loadtest.add_argument("--concurrency", type=int, nargs="+", default=[8],
                          metavar="N",
                          help="closed-loop worker counts to sweep")
    loadtest.add_argument("--duration", type=float, default=2.0,
                          metavar="SECONDS",
                          help="measured window per (window, replicas, "
                               "concurrency) combination")
    loadtest.add_argument("--warmup", type=float, default=0.25,
                          metavar="SECONDS",
                          help="excluded warmup ahead of each measurement")
    loadtest.add_argument("--mode", choices=("reference", "replay"),
                          default="reference",
                          help="'reference' sends synthetic probes; 'replay' "
                               "sends the training set (pass --dataset/--csv) "
                               "and doubles as a determinism check")
    loadtest.add_argument("--samples-per-request", type=int, default=4,
                          help="probe samples per request in reference mode")
    loadtest.add_argument("--batch-window-ms", type=float, nargs="+",
                          default=[2.0], metavar="MS",
                          help="replica micro-batch windows to sweep")
    loadtest.add_argument("--max-batch-samples", type=int, default=512,
                          help="replica micro-batch sample budget")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="probe-generation seed (reference mode)")
    loadtest.add_argument("--no-baseline", action="store_true",
                          help="skip the 1-replica baseline sweep (and the "
                               "scale-out efficiency it enables)")
    loadtest.add_argument("--report", type=str, default=None, metavar="PATH",
                          help="write the full JSON report here "
                               "('-' for stdout)")
    _add_data_arguments(loadtest, required=False)

    jobs = subparsers.add_parser(
        "jobs", help="drive async jobs on a running `quorum-repro serve`")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    submit = jobs_sub.add_parser(
        "submit", help="submit a job (POST /v1/jobs) and print its id")
    submit.add_argument("--server", type=str, required=True, metavar="URL",
                        help="base URL of a running server, e.g. "
                             "http://127.0.0.1:8765")
    submit.add_argument("--kind", choices=("replay_dataset", "score", "fit"),
                        required=True)
    submit.add_argument("--model-id", type=str, default=None,
                        help="target model id (default: the server's default "
                             "model)")
    _add_data_arguments(submit)
    submit.add_argument("--mode", choices=("reference", "replay"),
                        default="reference",
                        help="scoring mode for --kind score")
    submit.add_argument("--register-as", type=str, default=None,
                        help="model id the fitted artifact registers under "
                             "(--kind fit)")
    submit.add_argument("--save-path", type=str, default=None,
                        help="server-side path the fitted artifact is saved "
                             "to (--kind fit)")
    submit.add_argument("--params", type=str, default=None, metavar="JSON",
                        help="extra kind-specific params as a JSON object "
                             "(merged over the flag-derived ones)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print its "
                             "result")
    submit.add_argument("--poll-interval", type=float, default=0.5,
                        metavar="SECONDS")

    for verb, help_text in (
            ("status", "print one job's status (GET /v1/jobs/{id})"),
            ("result", "print a finished job's result "
                       "(GET /v1/jobs/{id}/result)"),
            ("cancel", "cancel a job (DELETE /v1/jobs/{id})")):
        sub = jobs_sub.add_parser(verb, help=help_text)
        sub.add_argument("--server", type=str, required=True, metavar="URL")
        sub.add_argument("job_id", type=str)

    return parser


def _add_detector_arguments(parser: argparse.ArgumentParser) -> None:
    """Detector knobs shared by the commands that fit an ensemble."""
    parser.add_argument("--ensembles", type=int, default=50,
                        help="number of ensemble members (paper: 1000)")
    parser.add_argument("--shots", type=int, default=4096,
                        help="shots per circuit; 0 means exact probabilities")
    parser.add_argument("--qubits", type=int, default=3,
                        help="encoding qubits n (circuits use 2n+1 qubits)")
    parser.add_argument("--bucket-probability", type=float, default=0.75,
                        help="target probability of >=1 anomaly per bucket")
    parser.add_argument("--anomaly-fraction", type=float, default=None,
                        help="estimated anomaly fraction (default: 0.05)")
    parser.add_argument("--backend", choices=BACKENDS, default="analytic")
    parser.add_argument("--simulation-backend",
                        choices=available_simulation_backends(), default="numpy",
                        help="batched numerical kernel implementation the "
                             "engines run on")
    parser.add_argument("--noisy", action="store_true",
                        help="apply the Brisbane-like noise model "
                             "(requires --backend density_matrix)")
    parser.add_argument("--seed", type=int, default=1234)


def _build_detector(args: argparse.Namespace) -> QuorumDetector:
    """One QuorumDetector from the shared detector + execution flags."""
    return QuorumDetector(
        num_qubits=args.qubits,
        ensemble_groups=args.ensembles,
        shots=None if args.shots == 0 else args.shots,
        bucket_probability=args.bucket_probability,
        anomaly_fraction_estimate=args.anomaly_fraction,
        backend=args.backend,
        simulation_backend=args.simulation_backend,
        compile_circuits=not args.no_compile,
        noisy=args.noisy,
        seed=args.seed,
        n_jobs=args.jobs,
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="ensemble workers: 1 runs members serially, N>1 "
                             "runs them on a process pool of N workers; "
                             "scores are bit-identical either way")
    parser.add_argument("--no-compile", action="store_true",
                        help="simulate every sample's full circuit instead "
                             "of folding it into cached compiled observables "
                             "(reference path; slower)")


def _add_data_arguments(parser: argparse.ArgumentParser,
                        required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--dataset", choices=available_datasets(),
                       help="one of the Table I datasets")
    group.add_argument("--csv", type=str, help="path to a CSV file")
    parser.add_argument("--label-column", type=str, default="label",
                        help="label column name for --csv input")
    parser.add_argument("--no-labels", action="store_true",
                        help="treat the --csv file as unlabeled (every column "
                             "is a feature; metrics that need labels are "
                             "skipped)")
    parser.add_argument("--data-seed", type=int, default=0,
                        help="generation seed for the synthetic Table I datasets")


def _load_data(args: argparse.Namespace) -> Dataset:
    if args.dataset:
        return load_dataset(args.dataset, seed=args.data_seed)
    label_column = None if args.no_labels else args.label_column
    return load_dataset_csv(args.csv, label_column=label_column)


def _load_data_checked(args: argparse.Namespace) -> Optional[Dataset]:
    """Like :func:`_load_data`, but turn load failures into a clean message.

    Returns ``None`` after printing to stderr; callers exit 2.
    """
    try:
        return _load_data(args)
    except (OSError, ValueError) as error:
        hint = ""
        if "label column" in str(error) and not args.no_labels:
            hint = " (for an unlabeled CSV, pass --no-labels)"
        print(f"cannot load data: {error}{hint}", file=sys.stderr)
        return None


def _command_datasets(_: argparse.Namespace) -> int:
    rows = [
        (spec.display_name, spec.name, spec.samples, spec.anomalies, spec.features,
         spec.bucket_probability)
        for spec in DATASET_SPECS.values()
    ]
    print(markdown_table(
        ["Dataset", "key", "Samples", "Anomalies", "Features", "Pr[anomaly/bucket]"],
        rows))
    return 0


def _command_detect(args: argparse.Namespace) -> int:
    dataset = _load_data_checked(args)
    if dataset is None:
        return 2
    detector = _build_detector(args)
    detector.fit(dataset)
    scores = detector.anomaly_scores()

    print(f"Dataset: {dataset.name} ({dataset.num_samples} samples, "
          f"{dataset.num_features} features)")
    if dataset.num_anomalies > 0:
        report = evaluate_top_k(scores, dataset.labels, dataset.num_anomalies)
        curve = detection_rate_curve(scores, dataset.labels)
        print(markdown_table(
            ["Precision", "Recall", "F1", "Accuracy", "DR@10%", "DR@20%"],
            [(f"{report.precision:.3f}", f"{report.recall:.3f}",
              f"{report.f1:.3f}", f"{report.accuracy:.3f}",
              f"{curve.rate_at(0.10):.2f}", f"{curve.rate_at(0.20):.2f}")]))
    _print_top_samples(scores, dataset, args.top)
    return 0


def _print_top_samples(scores, dataset: Dataset, top: int) -> None:
    """The shared 'Top N samples by anomaly score' table (detect and score)."""
    print(f"\nTop {top} samples by anomaly score:")
    rows = []
    for index in scores.argsort()[::-1][:top]:
        label = "anomaly" if dataset.labels[index] else "normal"
        rows.append((int(index), f"{scores[index]:.2f}",
                     label if dataset.num_anomalies else "?"))
    print(markdown_table(["sample", "score", "true label"], rows))


def _command_compare(args: argparse.Namespace) -> int:
    dataset = _load_data_checked(args)
    if dataset is None:
        return 2
    if dataset.num_anomalies == 0:
        print("the compare command needs labeled data to report metrics",
              file=sys.stderr)
        return 2
    detector = QuorumDetector(ensemble_groups=args.ensembles, shots=4096,
                              seed=args.seed,
                              anomaly_fraction_estimate=dataset.anomaly_fraction,
                              compile_circuits=not args.no_compile,
                              n_jobs=args.jobs)
    detector.fit(dataset)
    methods = {
        "Quorum (quantum)": detector.anomaly_scores(),
        "Isolation Forest": IsolationForestDetector(seed=args.seed).fit_scores(
            dataset.data),
        "Local Outlier Factor": LocalOutlierFactorDetector().fit_scores(dataset.data),
        "HBOS": HBOSDetector().fit_scores(dataset.data),
        "k-means distance": KMeansDetector(seed=args.seed).fit_scores(dataset.data),
        "PCA reconstruction": PCAReconstructionDetector().fit_scores(dataset.data),
    }
    rows = []
    for name, scores in methods.items():
        report = evaluate_top_k(scores, dataset.labels, dataset.num_anomalies)
        rows.append((name, f"{report.precision:.3f}", f"{report.recall:.3f}",
                     f"{report.f1:.3f}"))
    print(markdown_table(["Method", "Precision", "Recall", "F1"], rows))
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    settings = ExperimentSettings(ensemble_groups=args.ensembles, seed=args.seed,
                                  compile_circuits=not args.no_compile,
                                  n_jobs=args.jobs)
    for artifact in args.artifacts:
        if artifact == "table1":
            print("\n## Table I\n")
            print(format_table1(run_table1(seed=settings.seed)))
        elif artifact == "fig8":
            print("\n## Fig. 8\n")
            print(format_fig8(run_fig8(settings)))
        elif artifact == "fig9":
            print("\n## Fig. 9\n")
            print(format_fig9(run_fig9(settings,
                                       include_noisy=not args.skip_noisy)))
        elif artifact == "fig10":
            print("\n## Fig. 10\n")
            print(format_fig10(run_fig10(settings)))
        elif artifact == "table2":
            print("\n## Table II\n")
            print(format_table2(run_table2(settings)))
    return 0


def _command_fit(args: argparse.Namespace) -> int:
    dataset = _load_data_checked(args)
    if dataset is None:
        return 2
    detector = _build_detector(args)
    detector.fit(dataset)
    path = detector.save_model(args.save_model)
    diagnostics = detector.diagnostics()
    print(f"model saved to {path}")
    print(markdown_table(
        ["Samples", "Members", "Runs", "Bucket size", "Backend", "Noisy"],
        [(diagnostics["num_samples"], args.ensembles, diagnostics["num_runs"],
          diagnostics["bucket_size"], args.backend, args.noisy)]))
    return 0


def _command_score(args: argparse.Namespace) -> int:
    from repro.serving.artifact import ArtifactError, load_model
    from repro.serving.scorer import OnlineScorer

    dataset = _load_data_checked(args)
    if dataset is None:
        return 2
    try:
        artifact = load_model(args.model)
    except ArtifactError as error:
        print(f"cannot load model: {error}", file=sys.stderr)
        return 2
    with OnlineScorer(artifact) as scorer:
        try:
            result = scorer.score(dataset.features_only(), mode=args.mode)
        except (ValueError, ArtifactError) as error:
            print(f"scoring failed: {error}", file=sys.stderr)
            return 2
    scores = result.scores
    print(f"Scored {result.num_samples} samples against "
          f"{len(artifact.members)} frozen members "
          f"({result.num_runs} runs, mode={result.mode})")
    _print_top_samples(scores, dataset, args.top)
    if dataset.num_anomalies > 0:
        report = evaluate_top_k(scores, dataset.labels, dataset.num_anomalies)
        print(markdown_table(
            ["Precision", "Recall", "F1", "Accuracy"],
            [(f"{report.precision:.3f}", f"{report.recall:.3f}",
              f"{report.f1:.3f}", f"{report.accuracy:.3f}")]))
    return 0


def _parse_model_specs(specs: Optional[Sequence[str]]) -> dict:
    """``ID=PATH`` specs -> an ``{model_id: path}`` mapping (ids must be
    pinned so clients know how to address each model)."""
    models = {}
    for spec in specs or ():
        model_id, separator, path = spec.partition("=")
        if not separator:
            raise ValueError(
                f"--models entry {spec!r} must be ID=PATH (pin an id so "
                "clients can address the model)")
        if not model_id or not path:
            raise ValueError(f"--models entry {spec!r} has an empty id or "
                             "path")
        if model_id in models:
            raise ValueError(f"--models id {model_id!r} given twice")
        models[model_id] = path
    return models


def _command_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serving.models import ApiError
    from repro.serving.server import run_server

    def _terminate(signum, frame):  # noqa: ARG001 - signal API
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        models = _parse_model_specs(args.models)
        if args.model is None and not models:
            print("serve needs --model and/or --models", file=sys.stderr)
            return 2
        return run_server(
            args.model, host=args.host, port=args.port,
            quiet=not args.verbose,
            scorer_kwargs={
                "max_batch_samples": args.max_batch_samples,
                "batch_window_s": args.batch_window_ms / 1000.0,
            },
            models=models,
            job_workers=args.job_workers,
            job_ttl_s=args.job_ttl,
            session_ttl_s=args.session_ttl,
            debug_hooks=args.debug_hooks,
        )
    except KeyboardInterrupt:
        # SIGTERM landed before run_server's own handler could (mid-boot
        # drain from a supervisor): still a clean, deliberate shutdown.
        return 0
    except ApiError as error:
        # Registry load failures (bad bundle, duplicate id).
        print(f"cannot load model: {error.message}", file=sys.stderr)
        return 2
    except ValueError as error:
        # Invalid batching/worker/TTL flags or malformed --models specs.
        print(f"cannot start server: {error}", file=sys.stderr)
        return 2


def _command_fleet(args: argparse.Namespace) -> int:
    import json
    import signal
    import time

    from repro.serving.supervisor import FleetSupervisor, SupervisorPolicy
    from repro.serving.telemetry import FlightRecorder

    def _terminate(signum, frame):  # noqa: ARG001 - signal API
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    if (args.target_rps is None) != (args.per_replica_rps is None):
        print("--target-rps and --per-replica-rps go together",
              file=sys.stderr)
        return 2

    def _dump_events(supervisor) -> None:
        """Stream the flight-recorder ring to stderr (abnormal exit)."""
        recorder = getattr(supervisor, "recorder", None)
        if recorder is None:  # tests stub the supervisor without one
            return
        dumped = recorder.dump(sys.stderr)
        print(f"flight recorder: {dumped} event(s) above", file=sys.stderr)

    try:
        policy = SupervisorPolicy(
            health_interval_s=args.health_interval,
            probe_timeout_s=args.probe_timeout,
            eject_after=args.eject_after,
            readmit_after=args.readmit_after,
            backoff_base_s=args.backoff_base,
            backoff_max_s=args.backoff_max,
            crash_loop_threshold=args.crash_loop_threshold,
            crash_loop_window_s=args.crash_loop_window)
        recorder = None
        if args.events and args.events != "-":
            recorder = FlightRecorder(capacity=2048, sink=args.events)
        supervisor = FleetSupervisor(
            args.model, replicas=args.replicas, policy=policy,
            proxy_host=args.host, proxy_port=args.port,
            batch_window_ms=args.batch_window_ms,
            max_batch_samples=args.max_batch_samples,
            debug_hooks=args.debug_hooks, recorder=recorder)
    except ValueError as error:
        print(f"cannot configure fleet: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot open --events sink: {error}", file=sys.stderr)
        return 2
    try:
        try:
            supervisor.start()
        except OSError as error:
            print(f"cannot start fleet: {error}", file=sys.stderr)
            return 2
        status = supervisor.status()
        if not any(slot["alive"] for slot in status["slots"]):
            # Every initial spawn failed outright (bad model path, broken
            # env): fail fast with the diagnosis instead of crash-looping.
            reasons = {slot["last_transition_reason"]
                       for slot in status["slots"]}
            print("cannot start fleet: no replica came up: "
                  + "; ".join(sorted(reasons)), file=sys.stderr)
            _dump_events(supervisor)
            return 2
        if args.target_rps is not None:
            chosen = supervisor.autoscale_to_target(args.target_rps,
                                                    args.per_replica_rps)
            print(f"autoscaled to {chosen} replicas for "
                  f"{args.target_rps:.0f} rps", flush=True)
        supervisor.start_health_loop()
        host, port = supervisor.proxy.address
        print(f"fleet serving {args.model} with {supervisor.target_replicas} "
              f"replicas on http://{host}:{port}", flush=True)
        while True:
            time.sleep(args.status_interval if args.status_interval > 0
                       else 3600.0)
            if args.status_interval > 0:
                print(json.dumps(supervisor.status(), sort_keys=True),
                      flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        exit_codes = supervisor.close()
        dirty = [code for code in exit_codes if code != 0]
        if dirty:
            print(f"warning: replica(s) exited non-zero on shutdown: "
                  f"{dirty}", file=sys.stderr)
        if args.events == "-" or dirty:
            # --events '-' asked for the ring on exit; a dirty shutdown
            # gets it regardless (the events are the post-mortem).
            _dump_events(supervisor)
    return 0


def _jobs_api(server: str, path: str, payload: Optional[dict] = None,
              method: Optional[str] = None) -> dict:
    """One JSON round trip against a running server's /v1 API."""
    import json
    import urllib.request

    url = server.rstrip("/") + path
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300) as response:
        return json.load(response)


def _command_loadtest(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.serving.artifact import ArtifactError
    from repro.serving.loadtest import run_loadtest

    replay_samples = None
    if args.mode == "replay":
        if not (args.dataset or args.csv):
            print("replay mode sends the training set: pass --dataset or "
                  "--csv", file=sys.stderr)
            return 2
        dataset = _load_data_checked(args)
        if dataset is None:
            return 2
        replay_samples = dataset.features_only()
    try:
        report = run_loadtest(
            args.model,
            replicas=args.replicas,
            concurrencies=args.concurrency,
            duration_s=args.duration,
            mode=args.mode,
            samples_per_request=args.samples_per_request,
            batch_windows_ms=args.batch_window_ms,
            max_batch_samples=args.max_batch_samples,
            warmup_s=args.warmup,
            seed=args.seed,
            replay_samples=replay_samples,
            single_replica_baseline=not args.no_baseline)
    except (ArtifactError, ValueError, RuntimeError) as error:
        print(f"loadtest failed: {error}", file=sys.stderr)
        return 2
    _print_loadtest_summary(report)
    if args.report:
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.report == "-":
            print(payload)
        else:
            Path(args.report).write_text(payload + "\n", encoding="utf-8")
            print(f"report written to {args.report}")
    if not report["replica_exits"]["clean"]:
        print("warning: replica(s) exited non-zero: "
              f"{report['replica_exits']['exit_codes']}", file=sys.stderr)
        return 1
    return 0


def _print_loadtest_summary(report: dict) -> None:
    rows = []
    for run in report["runs"]:
        latency = run["latency_ms"]
        rows.append((
            str(run["replicas"]),
            f"{run['batch_window_ms']:g}",
            str(run["concurrency"]),
            str(run["requests"]),
            str(run["errors"]),
            f"{run['throughput_rps']:.1f}",
            f"{latency['p50']:.1f}",
            f"{latency['p95']:.1f}",
            f"{latency['p99']:.1f}",
        ))
    print(markdown_table(
        ["replicas", "window ms", "conc", "requests", "errors", "rps",
         "p50 ms", "p95 ms", "p99 ms"], rows))
    scale_out = report["scale_out"]
    if scale_out is not None:
        print(f"\nscale-out 1->{scale_out['fleet_replicas']}: "
              f"{scale_out['throughput_single_rps']:.1f} -> "
              f"{scale_out['throughput_fleet_rps']:.1f} rps "
              f"(speedup {scale_out['speedup']:.2f}x, "
              f"efficiency {scale_out['efficiency']:.0%})")
    suggestion = report["suggestion"]
    print(f"suggested batching: --batch-window-ms "
          f"{suggestion['batch_window_ms']:g} --max-batch-samples "
          f"{suggestion['max_batch_samples']} (knee at concurrency "
          f"{suggestion['knee_concurrency']}, "
          f"{suggestion['peak_throughput_rps']:.1f} rps)")


def _command_jobs(args: argparse.Namespace) -> int:
    import json
    import time
    import urllib.error

    try:
        if args.jobs_command == "submit":
            params: dict = {}
            dataset = _load_data_checked(args)
            if dataset is None:
                return 2
            params["samples"] = dataset.features_only().tolist()
            if args.kind == "score":
                params["mode"] = args.mode
            if args.kind == "fit":
                if args.register_as:
                    params["register_as"] = args.register_as
                if args.save_path:
                    params["save_path"] = args.save_path
            if args.params:
                try:
                    extra = json.loads(args.params)
                except json.JSONDecodeError as error:
                    print(f"--params is not valid JSON: {error}",
                          file=sys.stderr)
                    return 2
                if not isinstance(extra, dict):
                    print("--params must be a JSON object", file=sys.stderr)
                    return 2
                params.update(extra)
            job = _jobs_api(args.server, "/v1/jobs",
                           {"kind": args.kind, "model_id": args.model_id,
                            "params": params})
            print(f"job {job['job_id']} submitted ({job['kind']}, "
                  f"status={job['status']})")
            if not args.wait:
                return 0
            while job["status"] in ("queued", "running"):
                time.sleep(args.poll_interval)
                job = _jobs_api(args.server, f"/v1/jobs/{job['job_id']}")
            print(f"job {job['job_id']} finished: {job['status']}")
            if job["status"] != "succeeded":
                print(json.dumps(job.get("error"), indent=2), file=sys.stderr)
                return 1
            result = _jobs_api(args.server,
                               f"/v1/jobs/{job['job_id']}/result")
            print(json.dumps(result["result"], indent=2))
            return 0

        if args.jobs_command == "status":
            print(json.dumps(
                _jobs_api(args.server, f"/v1/jobs/{args.job_id}"), indent=2))
            return 0
        if args.jobs_command == "result":
            payload = _jobs_api(args.server,
                                f"/v1/jobs/{args.job_id}/result")
            print(json.dumps(payload["result"], indent=2))
            return 0
        # cancel
        job = _jobs_api(args.server, f"/v1/jobs/{args.job_id}",
                        method="DELETE")
        print(f"job {job['job_id']}: {job['status']}")
        return 0
    except urllib.error.HTTPError as error:
        try:
            envelope = json.load(error)["error"]
            print(f"server error [{envelope['code']}]: "
                  f"{envelope['message']}", file=sys.stderr)
        except Exception:
            print(f"server error: HTTP {error.code}", file=sys.stderr)
        return 2
    except (urllib.error.URLError, OSError) as error:
        print(f"cannot reach server {args.server}: {error}", file=sys.stderr)
        return 2


def _command_report(args: argparse.Namespace) -> int:
    settings = ExperimentSettings(ensemble_groups=args.ensembles, seed=args.seed,
                                  compile_circuits=not args.no_compile,
                                  n_jobs=args.jobs)
    report = run_full_evaluation(settings, include_noisy=not args.skip_noisy)
    if args.output:
        path = write_report(report, args.output, json_path=args.json)
        print(f"report written to {path}")
    else:
        print(render_report(report))
    return 0


_COMMANDS = {
    "datasets": _command_datasets,
    "detect": _command_detect,
    "compare": _command_compare,
    "experiment": _command_experiment,
    "report": _command_report,
    "fit": _command_fit,
    "score": _command_score,
    "serve": _command_serve,
    "fleet": _command_fleet,
    "loadtest": _command_loadtest,
    "jobs": _command_jobs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
