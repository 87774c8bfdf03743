"""Tests for the quorum-repro command-line interface."""

import logging
import threading

import numpy as np
import pytest

from repro.cli import _parse_model_specs, build_parser, main
from repro.core.detector import QuorumDetector
from repro.data.dataset import Dataset
from repro.data.io import load_dataset_csv, save_dataset_csv


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detect_requires_data_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect"])

    def test_dataset_and_csv_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--dataset", "letter",
                                       "--csv", "x.csv"])

    def test_experiment_artifact_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig42"])

    def test_statevector_backend_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "--dataset", "letter",
                                       "--save-model", "model.json",
                                       "--backend", "statevector"])
        error = capsys.readouterr().err
        assert "invalid choice: 'statevector'" in error
        allowed = error.split("choose from")[1]
        assert "analytic" in allowed and "density_matrix" in allowed


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "Breast Cancer" in output
        assert "power_plant" in output

    def test_detect_on_builtin_dataset(self, capsys):
        exit_code = main(["detect", "--dataset", "power_plant",
                          "--ensembles", "4", "--shots", "0", "--top", "3",
                          "--seed", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Precision" in output
        assert "score" in output

    def test_detect_on_csv_without_labels(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        dataset = Dataset("toy", rng.normal(size=(40, 4)),
                          np.zeros(40, dtype=int))
        path = save_dataset_csv(dataset, tmp_path / "toy.csv")
        exit_code = main(["detect", "--csv", str(path), "--ensembles", "3",
                          "--shots", "0", "--top", "2"])
        assert exit_code == 0
        assert "Top 2 samples" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        exit_code = main(["compare", "--dataset", "power_plant",
                          "--ensembles", "4", "--seed", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Isolation Forest" in output
        assert "Quorum (quantum)" in output

    def test_compare_rejects_unlabeled_csv(self, tmp_path, capsys):
        dataset = Dataset("toy", np.random.default_rng(1).normal(size=(20, 3)),
                          np.zeros(20, dtype=int))
        path = save_dataset_csv(dataset, tmp_path / "toy.csv")
        exit_code = main(["compare", "--csv", str(path), "--ensembles", "3"])
        assert exit_code == 2

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Pr[Anomaly in Bucket]" in capsys.readouterr().out

    def test_fit_then_score_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        dataset = Dataset("toy", rng.normal(size=(30, 4)),
                          np.zeros(30, dtype=int))
        csv_path = save_dataset_csv(dataset, tmp_path / "toy.csv")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--csv", str(csv_path), "--save-model",
                     str(model_path), "--ensembles", "3", "--shots", "128",
                     "--seed", "4"]) == 0
        assert "model saved to" in capsys.readouterr().out
        assert model_path.exists()

        assert main(["score", "--model", str(model_path), "--csv",
                     str(csv_path), "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "3 frozen members" in output
        assert "Top 3 samples" in output

    def test_score_replay_matches_fit_bitwise(self, tmp_path, capsys):
        """The CLI replay path reproduces the in-process fit scores."""
        rng = np.random.default_rng(9)
        dataset = Dataset("toy", rng.normal(size=(25, 4)),
                          np.zeros(25, dtype=int))
        csv_path = save_dataset_csv(dataset, tmp_path / "toy.csv")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--csv", str(csv_path), "--save-model",
                     str(model_path), "--ensembles", "2", "--shots", "256",
                     "--seed", "6"]) == 0
        capsys.readouterr()
        assert main(["score", "--model", str(model_path), "--csv",
                     str(csv_path), "--mode", "replay", "--top", "2"]) == 0
        assert "mode=replay" in capsys.readouterr().out

    def test_score_unlabeled_csv_without_label_column(self, tmp_path, capsys):
        """The primary serving flow: score a CSV holding only features."""
        rng = np.random.default_rng(5)
        train = Dataset("train", rng.normal(size=(20, 3)),
                        np.zeros(20, dtype=int))
        train_csv = save_dataset_csv(train, tmp_path / "train.csv")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--csv", str(train_csv), "--save-model",
                     str(model_path), "--ensembles", "2", "--shots", "64",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        unlabeled = tmp_path / "new.csv"
        unlabeled.write_text("a,b,c\n" + "\n".join(
            ",".join(f"{value:.3f}" for value in row)
            for row in rng.normal(size=(5, 3))) + "\n")
        # Without --no-labels the missing label column is a clean exit 2 ...
        assert main(["score", "--model", str(model_path), "--csv",
                     str(unlabeled)]) == 2
        assert "--no-labels" in capsys.readouterr().err
        # ... and with it the file scores as pure features.
        assert main(["score", "--model", str(model_path), "--csv",
                     str(unlabeled), "--no-labels", "--top", "2"]) == 0
        assert "Scored 5 samples" in capsys.readouterr().out

    def test_score_with_missing_model(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        dataset = Dataset("toy", rng.normal(size=(10, 3)),
                          np.zeros(10, dtype=int))
        csv_path = save_dataset_csv(dataset, tmp_path / "toy.csv")
        exit_code = main(["score", "--model", str(tmp_path / "nope.json"),
                          "--csv", str(csv_path)])
        assert exit_code == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_score_with_wrong_feature_count(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        train = Dataset("train", rng.normal(size=(20, 4)),
                        np.zeros(20, dtype=int))
        other = Dataset("other", rng.normal(size=(8, 6)),
                        np.zeros(8, dtype=int))
        train_csv = save_dataset_csv(train, tmp_path / "train.csv")
        other_csv = save_dataset_csv(other, tmp_path / "other.csv")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--csv", str(train_csv), "--save-model",
                     str(model_path), "--ensembles", "2", "--shots", "64",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        exit_code = main(["score", "--model", str(model_path), "--csv",
                          str(other_csv)])
        assert exit_code == 2
        assert "scoring failed" in capsys.readouterr().err

    def test_serve_with_missing_model(self, tmp_path, capsys):
        exit_code = main(["serve", "--model", str(tmp_path / "nope.json"),
                          "--port", "0"])
        assert exit_code == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_serve_with_invalid_batching_flags(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        dataset = Dataset("toy", rng.normal(size=(12, 3)),
                          np.zeros(12, dtype=int))
        csv_path = save_dataset_csv(dataset, tmp_path / "toy.csv")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--csv", str(csv_path), "--save-model",
                     str(model_path), "--ensembles", "1", "--shots", "64",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        exit_code = main(["serve", "--model", str(model_path), "--port", "0",
                          "--max-batch-samples", "0"])
        assert exit_code == 2
        assert "cannot start server" in capsys.readouterr().err

    def test_fit_unlabeled_csv_without_label_column(self, tmp_path, capsys):
        unlabeled = tmp_path / "plain.csv"
        unlabeled.write_text("a,b\n1.0,2.0\n3.0,4.0\n5.0,6.0\n7.0,8.0\n")
        exit_code = main(["fit", "--csv", str(unlabeled), "--save-model",
                          str(tmp_path / "m.json")])
        assert exit_code == 2
        assert "--no-labels" in capsys.readouterr().err
        assert main(["fit", "--csv", str(unlabeled), "--no-labels",
                     "--save-model", str(tmp_path / "m.json"),
                     "--ensembles", "1", "--shots", "64"]) == 0

    def test_fit_requires_save_model_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "--dataset", "letter"])

    def test_report_to_file(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        exit_code = main(["report", "--ensembles", "3", "--seed", "4",
                          "--skip-noisy", "--output", str(output)])
        assert exit_code == 0
        assert output.exists()
        assert "Table II" in output.read_text(encoding="utf-8")


class TestModelSpecs:
    def test_valid_specs_build_a_mapping(self):
        assert _parse_model_specs(["a=x.json", "b=y.json"]) == {
            "a": "x.json", "b": "y.json"}
        assert _parse_model_specs(None) == {}

    @pytest.mark.parametrize("specs, match", [
        (["bare-path.json"], "must be ID=PATH"),
        (["=x.json"], "empty id or path"),
        (["a="], "empty id or path"),
        (["a=x.json", "a=y.json"], "given twice"),
    ])
    def test_invalid_specs_raise(self, specs, match):
        with pytest.raises(ValueError, match=match):
            _parse_model_specs(specs)

    def test_serve_without_any_model_is_exit_2(self, capsys):
        assert main(["serve", "--port", "0"]) == 2
        assert "--model and/or --models" in capsys.readouterr().err

    def test_serve_with_malformed_models_spec_is_exit_2(self, capsys):
        assert main(["serve", "--models", "bare-path.json",
                     "--port", "0"]) == 2
        assert "cannot start server" in capsys.readouterr().err


@pytest.fixture(scope="module")
def jobs_server(tmp_path_factory):
    """A live runtime server plus the CSV its model was fitted on."""
    from repro.serving.artifact import save_model
    from repro.serving.server import build_server

    tmp_path = tmp_path_factory.mktemp("jobs_cli")
    rng = np.random.default_rng(6)
    dataset = Dataset("toy", rng.normal(size=(20, 4)),
                      np.zeros(20, dtype=int))
    csv_path = save_dataset_csv(dataset, tmp_path / "toy.csv")
    features = load_dataset_csv(csv_path).features_only()
    detector = QuorumDetector(ensemble_groups=2, seed=8, shots=256)
    detector.fit(features)
    model_path = save_model(detector, tmp_path / "model.json")

    server = build_server(model_path, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield {"server": f"http://{host}:{port}", "csv": str(csv_path),
           "detector": detector}
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestJobsCommand:
    def test_submit_wait_replay_prints_fit_scores(self, jobs_server, capsys):
        import json

        exit_code = main(["jobs", "submit", "--server",
                          jobs_server["server"], "--kind", "replay_dataset",
                          "--csv", jobs_server["csv"], "--wait",
                          "--poll-interval", "0.05"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "submitted" in output
        assert "finished: succeeded" in output
        payload = json.loads(output[output.index("{"):])
        assert np.array_equal(np.array(payload["scores"]),
                              jobs_server["detector"].anomaly_scores())

    def test_submit_then_status_result_cancel(self, jobs_server, capsys):
        assert main(["jobs", "submit", "--server", jobs_server["server"],
                     "--kind", "score", "--csv", jobs_server["csv"]]) == 0
        job_id = capsys.readouterr().out.split()[1]

        import time
        deadline = time.monotonic() + 30
        while main(["jobs", "status", "--server", jobs_server["server"],
                    job_id]) == 0:
            status_output = capsys.readouterr().out
            if '"status": "succeeded"' in status_output:
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)

        assert main(["jobs", "result", "--server", jobs_server["server"],
                     job_id]) == 0
        assert '"scores"' in capsys.readouterr().out
        # Cancelling a finished job is an acknowledged no-op.
        assert main(["jobs", "cancel", "--server", jobs_server["server"],
                     job_id]) == 0
        assert "succeeded" in capsys.readouterr().out

    def test_unknown_job_id_prints_envelope(self, jobs_server, capsys):
        exit_code = main(["jobs", "status", "--server",
                          jobs_server["server"], "deadbeef"])
        assert exit_code == 2
        assert "server error [job_not_found]" in capsys.readouterr().err

    def test_bad_params_json_fails_before_any_request(self, jobs_server,
                                                      capsys):
        exit_code = main(["jobs", "submit", "--server", "http://127.0.0.1:1",
                          "--kind", "score", "--csv", jobs_server["csv"],
                          "--params", "{not json"])
        assert exit_code == 2
        assert "--params is not valid JSON" in capsys.readouterr().err

    def test_unreachable_server_is_exit_2(self, jobs_server, capsys):
        exit_code = main(["jobs", "status", "--server", "http://127.0.0.1:1",
                          "deadbeef"])
        assert exit_code == 2
        assert "cannot reach server" in capsys.readouterr().err


#: Minimal valid argv for each subcommand that fits an ensemble and therefore
#: takes the execution flags (``--jobs``, ``--no-compile``).
EXECUTION_COMMANDS = {
    "detect": ["detect", "--dataset", "letter"],
    "compare": ["compare", "--dataset", "letter"],
    "experiment": ["experiment", "table1"],
    "report": ["report"],
    "fit": ["fit", "--dataset", "letter", "--save-model", "model.json"],
}


class TestFlagPlumbing:
    """`--simulation-backend` / `--jobs` must reach QuorumConfig unchanged, and
    a fixed seed must score identically whichever combination executes the
    run."""

    def capture_config(self, monkeypatch):
        captured = {}
        original_init = QuorumDetector.__init__

        def spy(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            captured["config"] = self.config

        monkeypatch.setattr(QuorumDetector, "__init__", spy)
        return captured

    def test_detect_flags_reach_quorum_config(self, monkeypatch, capsys):
        captured = self.capture_config(monkeypatch)
        assert main(["detect", "--dataset", "power_plant", "--ensembles", "2",
                     "--shots", "0", "--seed", "2",
                     "--simulation-backend", "numpy-float32",
                     "--jobs", "3"]) == 0
        config = captured["config"]
        assert config.simulation_backend == "numpy-float32"
        assert config.n_jobs == 3
        assert config.compile_circuits is True

    def test_no_compile_flag_reaches_quorum_config(self, monkeypatch, capsys):
        captured = self.capture_config(monkeypatch)
        assert main(["detect", "--dataset", "power_plant", "--ensembles", "2",
                     "--shots", "0", "--seed", "2", "--no-compile"]) == 0
        assert captured["config"].compile_circuits is False

    def test_compiled_and_interpreted_runs_score_identically(self, capsys):
        """The noiseless CLI path is bitwise unchanged by compilation."""
        outputs = {}
        for label, flags in (("compiled", []), ("interpreted", ["--no-compile"])):
            assert main(["detect", "--dataset", "power_plant", "--ensembles",
                         "2", "--seed", "5"] + flags) == 0
            outputs[label] = capsys.readouterr().out
        assert outputs["compiled"] == outputs["interpreted"]

    def test_default_jobs_is_one(self, monkeypatch, capsys):
        captured = self.capture_config(monkeypatch)
        assert main(["detect", "--dataset", "power_plant", "--ensembles", "2",
                     "--shots", "0", "--seed", "2"]) == 0
        assert captured["config"].n_jobs == 1

    @pytest.mark.parametrize("command", ["detect", "compare"])
    def test_jobs_settings_score_identically(self, command, capsys, caplog):
        outputs = {}
        for flags in (["--jobs", "1"], ["--jobs", "2"]):
            argv = [command, "--dataset", "power_plant", "--ensembles", "3",
                    "--seed", "7"] + flags
            if command == "detect":
                argv += ["--shots", "0", "--top", "5"]
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="repro.core.parallel"):
                assert main(argv) == 0
            outputs[tuple(flags)] = capsys.readouterr().out
        if "'processes' executor" not in caplog.text:
            pytest.skip("process pool unavailable here; --jobs 2 ran serially")
        results = set(outputs.values())
        assert len(results) == 1, "scores must not depend on --jobs"

    def test_simulation_backend_flag_runs_end_to_end(self, capsys):
        assert main(["detect", "--dataset", "power_plant", "--ensembles", "2",
                     "--shots", "0", "--seed", "2", "--top", "3",
                     "--simulation-backend", "numpy-float32"]) == 0
        assert "Top 3 samples" in capsys.readouterr().out

    def test_unknown_simulation_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--dataset", "letter",
                                       "--simulation-backend", "cuda"])

    @pytest.mark.parametrize("command", sorted(EXECUTION_COMMANDS))
    def test_jobs_flag_parsed_by_every_fitting_subcommand(self, command):
        argv = EXECUTION_COMMANDS[command]
        assert build_parser().parse_args(argv).jobs == 1
        assert build_parser().parse_args(argv + ["--jobs", "3"]).jobs == 3

    @pytest.mark.parametrize("flags", [["--executor", "serial"],
                                       ["--fused-members"],
                                       ["--no-fused-members"]])
    @pytest.mark.parametrize("command", sorted(EXECUTION_COMMANDS))
    def test_retired_scheduling_flags_rejected_by_every_subcommand(
            self, command, flags):
        argv = EXECUTION_COMMANDS[command]
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + flags)


class TestLoadtestCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["loadtest", "--model", "m.json"])
        assert args.replicas == 1
        assert args.concurrency == [8]
        assert args.mode == "reference"
        assert args.batch_window_ms == [2.0]
        assert args.report is None

    def test_parser_accepts_sweeps(self):
        args = build_parser().parse_args(
            ["loadtest", "--model", "m.json", "--replicas", "2",
             "--concurrency", "2", "4", "8", "--batch-window-ms", "1", "4",
             "--duration", "0.5", "--report", "-"])
        assert args.concurrency == [2, 4, 8]
        assert args.batch_window_ms == [1.0, 4.0]

    def test_model_flag_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest"])

    def test_replay_without_data_is_exit_2(self, capsys):
        exit_code = main(["loadtest", "--model", "m.json", "--mode",
                          "replay"])
        assert exit_code == 2
        assert "--dataset or --csv" in capsys.readouterr().err

    def test_missing_model_is_exit_2(self, tmp_path, capsys):
        exit_code = main(["loadtest", "--model",
                          str(tmp_path / "ghost.json"), "--duration", "0.2"])
        assert exit_code == 2
        assert "loadtest failed" in capsys.readouterr().err

    def test_small_run_writes_report(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        dataset = Dataset("toy", rng.normal(size=(14, 3)),
                          np.zeros(14, dtype=int))
        csv_path = save_dataset_csv(dataset, tmp_path / "toy.csv")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--csv", str(csv_path), "--save-model",
                     str(model_path), "--ensembles", "1", "--shots", "64",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        exit_code = main(["loadtest", "--model", str(model_path),
                          "--concurrency", "2", "--duration", "0.4",
                          "--warmup", "0.1", "--samples-per-request", "2",
                          "--report", str(report_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "| replicas |" in out
        assert "suggested batching" in out
        import json as json_module
        report = json_module.loads(report_path.read_text())
        assert report["runs"][0]["requests"] > 0
        assert report["replica_exits"]["clean"] is True


class TestFleetCommand:
    """The fleet verb drives a (stubbed) FleetSupervisor end to end."""

    class _StubSupervisor:
        instances = []

        def __init__(self, model, replicas, **kwargs):
            self.model = model
            self.target_replicas = replicas
            self.kwargs = kwargs
            self.started = False
            self.loop_started = False
            self.closed = False
            self.autoscaled = None
            self.alive = True
            type(self).instances.append(self)

        class _Proxy:
            address = ("127.0.0.1", 4242)

        proxy = _Proxy()

        def start(self):
            self.started = True

        def start_health_loop(self):
            self.loop_started = True

        def autoscale_to_target(self, target_rps, per_replica_rps):
            self.autoscaled = (target_rps, per_replica_rps)
            self.target_replicas = 3
            return 3

        def status(self):
            return {"slots": [{"alive": self.alive,
                               "last_transition_reason": "boom"}]}

        def close(self):
            self.closed = True
            return [0]

    @pytest.fixture()
    def stub(self, monkeypatch):
        import repro.serving.supervisor as supervisor_module

        self._StubSupervisor.instances = []
        monkeypatch.setattr(supervisor_module, "FleetSupervisor",
                            self._StubSupervisor)
        # The status loop's first sleep ends the (stubbed) serve loop.
        monkeypatch.setattr("time.sleep",
                            lambda seconds: (_ for _ in ()).throw(
                                KeyboardInterrupt()))
        return self._StubSupervisor

    def test_happy_path_serves_and_closes(self, stub, capsys):
        assert main(["fleet", "--model", "m.json", "--replicas", "3"]) == 0
        (supervisor,) = stub.instances
        assert supervisor.started and supervisor.loop_started
        assert supervisor.closed
        out = capsys.readouterr().out
        assert "fleet serving m.json with 3 replicas" in out
        assert "http://127.0.0.1:4242" in out

    def test_autoscale_flags_reach_the_supervisor(self, stub, capsys):
        assert main(["fleet", "--model", "m.json", "--target-rps", "100",
                     "--per-replica-rps", "40"]) == 0
        (supervisor,) = stub.instances
        assert supervisor.autoscaled == (100.0, 40.0)
        assert "autoscaled to 3 replicas" in capsys.readouterr().out

    def test_no_replica_up_fails_fast(self, stub, capsys, monkeypatch):
        # Every slot reports dead once start() returns (bad model path).
        monkeypatch.setattr(
            stub, "start", lambda self: setattr(self, "alive", False))
        assert main(["fleet", "--model", "missing.json"]) == 2
        (supervisor,) = stub.instances
        assert supervisor.closed  # still cleaned up on the failure path
        err = capsys.readouterr().err
        assert "no replica came up" in err
        assert "boom" in err

    def test_mismatched_autoscale_flags_rejected(self, capsys):
        assert main(["fleet", "--model", "m.json",
                     "--target-rps", "100"]) == 2
        assert "--per-replica-rps" in capsys.readouterr().err

    def test_invalid_policy_flags_rejected(self, capsys):
        assert main(["fleet", "--model", "m.json",
                     "--eject-after", "0"]) == 2
        assert "cannot configure fleet" in capsys.readouterr().err
