"""Chaos suite: a real fleet under real faults must converge back to K healthy.

Every test here spawns actual ``quorum-repro serve`` subprocesses under a
:class:`FleetSupervisor` with its health loop running, injects a fault from
:mod:`repro.serving.faults`, and asserts convergence -- plus, where load is
applied, a >= 99% success rate for idempotent requests.  Marked ``chaos`` and
excluded from tier-1 (run with ``pytest -m chaos tests/serving``).
"""

import json
import os
import shutil
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.detector import QuorumDetector
from repro.serving.artifact import save_model
from repro.serving.faults import ChaosGate, FaultInjector
from repro.serving.loadtest import spawn_replica
from repro.serving.server import build_server
from repro.serving.supervisor import (
    CRASH_LOOPED,
    EJECTED,
    STOPPED,
    FleetSupervisor,
    SupervisorPolicy,
)

pytestmark = pytest.mark.chaos

#: Aggressive control-loop settings so faults are detected in seconds.
def _policy(**overrides):
    kwargs = dict(
        health_interval_s=0.25, probe_timeout_s=1.0,
        eject_after=2, readmit_after=2,
        backoff_base_s=0.3, backoff_max_s=2.0, backoff_jitter=0.1,
        crash_loop_threshold=3, crash_loop_window_s=20.0,
        startup_grace_s=60.0, drain_timeout_s=10.0, kill_timeout_s=5.0)
    kwargs.update(overrides)
    return SupervisorPolicy(**kwargs)


def _wait_until(predicate, timeout_s=30.0, poll_s=0.2):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()


def _get_json(base_url, path, timeout=15.0):
    with urllib.request.urlopen(base_url + path, timeout=timeout) as response:
        return json.load(response)


def _post_json(base_url, path, payload, timeout=60.0, attempts=3):
    """POST with client-level retries (scoring is read-only, so safe)."""
    body = json.dumps(payload).encode("utf-8")
    last_error = None
    for _ in range(attempts):
        request = urllib.request.Request(
            base_url + path, data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.load(response)
        except (urllib.error.URLError, OSError) as error:
            last_error = error
            time.sleep(0.5)
    raise AssertionError(f"scoring kept failing: {last_error}")


class _Load:
    """Closed-loop idempotent GET load against the proxy, until stopped."""

    def __init__(self, base_url, concurrency=4, path="/v1/healthz"):
        self._url = base_url + path
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self.ok = 0
        self.failed = 0
        self.failures = []
        self._threads = [threading.Thread(target=self._worker, daemon=True)
                         for _ in range(concurrency)]

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def _worker(self):
        while not self._stop.is_set():
            try:
                with urllib.request.urlopen(self._url,
                                            timeout=20.0) as response:
                    payload = json.load(response)  # truncation would not parse
                ok = response.status == 200 and payload.get("status") == "ok"
            except Exception as error:  # noqa: BLE001 - count, do not mask
                ok = False
                payload = repr(error)
            with self._lock:
                if ok:
                    self.ok += 1
                else:
                    self.failed += 1
                    if len(self.failures) < 5:
                        self.failures.append(payload)

    def stop(self):
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30.0)

    @property
    def success_rate(self):
        total = self.ok + self.failed
        return 1.0 if total == 0 else self.ok / total


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(23)
    return rng.normal(size=(24, 4))


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, training_data):
    detector = QuorumDetector(ensemble_groups=2, seed=17, shots=256)
    detector.fit(training_data)
    return str(save_model(detector,
                          tmp_path_factory.mktemp("model") / "m.json"))


@pytest.fixture()
def fleet(model_path):
    supervisor = FleetSupervisor(model_path, replicas=3, policy=_policy(),
                                 backend_timeout_s=5.0, debug_hooks=True,
                                 batch_window_ms=1.0)
    supervisor.start()
    supervisor.start_health_loop()
    assert supervisor.wait_for_healthy(3, timeout_s=120.0), \
        supervisor.status()
    yield supervisor
    supervisor.close()


def _slot_info(supervisor, slot_id):
    return next(info for info in supervisor.status()["slots"]
                if info["slot"] == slot_id)


class TestSigkill:
    def test_recovers_to_full_strength_under_load(self, fleet):
        victim = _slot_info(fleet, 0)
        with _Load("http://%s:%d" % fleet.proxy.address) as load:
            time.sleep(1.0)  # steady state first
            FaultInjector().kill(victim["pid"])
            # Crash detected (slot left healthy) before "recovered" means
            # anything -- otherwise stale pre-tick state satisfies the wait.
            assert _wait_until(lambda: fleet.healthy_count() < 3,
                               timeout_s=30.0, poll_s=0.05), fleet.status()
            assert fleet.wait_for_healthy(3, timeout_s=60.0), fleet.status()
            time.sleep(1.0)  # steady state after recovery
        assert load.ok > 50
        assert load.success_rate >= 0.99, load.failures
        recovered = _slot_info(fleet, 0)
        assert recovered["restarts"] >= 1
        assert recovered["pid"] != victim["pid"]
        assert _slot_info(fleet, 0)["last_exit"]["exit_code"] == -9


class TestSigstopHang:
    def test_hung_replica_is_ejected_then_readmitted(self, fleet):
        victim = _slot_info(fleet, 0)
        injector = FaultInjector()
        injector.pause(victim["pid"])
        try:
            # Alive but unresponsive: the probe timeout is the only detector.
            assert _wait_until(
                lambda: _slot_info(fleet, 0)["state"] == EJECTED,
                timeout_s=30.0), fleet.status()
            ejected = _slot_info(fleet, 0)
            assert ejected["alive"] is True  # a hang is not a crash
            assert ejected["restarts"] == 0  # and must not trigger a restart
            address = ejected["address"]
            assert address not in fleet.proxy.backend_addresses()
        finally:
            injector.resume(victim["pid"])
        assert fleet.wait_for_healthy(3, timeout_s=60.0), fleet.status()
        assert _slot_info(fleet, 0)["pid"] == victim["pid"]  # same process
        assert address in fleet.proxy.backend_addresses()


class _GatedReplica:
    """A ReplicaProcess whose advertised address is a ChaosGate in front."""

    def __init__(self, process, gate):
        self._process = process
        self.gate = gate

    @property
    def address(self):
        return "%s:%d" % self.gate.address

    def __getattr__(self, name):
        return getattr(self._process, name)

    def close(self, **kwargs):
        self.gate.close()
        return self._process.close(**kwargs)


@pytest.fixture()
def gated_fleet(model_path):
    gates = []

    def spawner():
        process = spawn_replica(model_path, batch_window_ms=1.0)
        gate = ChaosGate(process.host, process.port).start()
        gates.append(gate)
        return _GatedReplica(process, gate)

    supervisor = FleetSupervisor(replicas=3, policy=_policy(),
                                 backend_timeout_s=5.0, spawner=spawner)
    supervisor.start()
    supervisor.start_health_loop()
    assert supervisor.wait_for_healthy(3, timeout_s=120.0), \
        supervisor.status()
    yield supervisor
    supervisor.close()
    for gate in gates:
        gate.close()


class TestConnectRefused:
    def test_refused_backend_is_routed_around_and_readmitted(self,
                                                             gated_fleet):
        gate = gated_fleet._slots[0].process.gate
        with _Load("http://%s:%d" % gated_fleet.proxy.address) as load:
            time.sleep(1.0)
            gate.refuse()
            assert _wait_until(
                lambda: _slot_info(gated_fleet, 0)["state"] == EJECTED,
                timeout_s=30.0), gated_fleet.status()
            gate.restore()
            assert gated_fleet.wait_for_healthy(3, timeout_s=60.0), \
                gated_fleet.status()
            time.sleep(1.0)
        # The proxy retries idempotent GETs on connect-refused, so clients
        # should barely notice the whole eject/readmit cycle.
        assert load.ok > 50
        assert load.success_rate >= 0.99, load.failures


class TestMidResponseDisconnect:
    def test_cut_responses_never_truncate_and_fleet_recovers(self,
                                                             gated_fleet):
        gate = gated_fleet._slots[0].process.gate
        with _Load("http://%s:%d" % gated_fleet.proxy.address) as load:
            time.sleep(1.0)
            gate.cut_responses(after_bytes=20)  # severs inside the headers
            assert _wait_until(
                lambda: _slot_info(gated_fleet, 0)["state"] == EJECTED,
                timeout_s=30.0), gated_fleet.status()
            gate.restore()
            assert gated_fleet.wait_for_healthy(3, timeout_s=60.0), \
                gated_fleet.status()
            time.sleep(1.0)
        # Severed GETs fail over to a live peer; *no* response may be a
        # truncated body passed off as success (_Load parses every payload).
        assert load.ok > 50
        assert load.success_rate >= 0.99, load.failures


class TestCrashLoopBreaker:
    def test_parks_after_repeated_boot_crashes_and_revives(self, model_path,
                                                           tmp_path):
        doomed = tmp_path / "doomed.json"
        shutil.copy(model_path, doomed)
        supervisor = FleetSupervisor(str(doomed), replicas=1,
                                     policy=_policy(), batch_window_ms=1.0)
        supervisor.start()
        supervisor.start_health_loop()
        try:
            assert supervisor.wait_for_healthy(1, timeout_s=120.0)
            os.remove(doomed)  # every respawn from now on crashes on boot
            FaultInjector().kill(_slot_info(supervisor, 0)["pid"])
            assert _wait_until(
                lambda: _slot_info(supervisor, 0)["state"] == CRASH_LOOPED,
                timeout_s=60.0), supervisor.status()
            info = _slot_info(supervisor, 0)
            assert info["next_restart_in_s"] is None  # parked, not retrying
            assert "parked" in info["last_transition_reason"]
            assert info["last_exit"]["exit_code"] not in (None, 0)
            assert supervisor.status()["healthy"] == 0
            parked_spawns = info["restarts"]
            time.sleep(2.0)  # parked means parked: no restart churn
            assert _slot_info(supervisor, 0)["restarts"] == parked_spawns
            # Operator fixes the root cause, then revives the slot.
            shutil.copy(model_path, doomed)
            supervisor.revive(0)
            assert supervisor.wait_for_healthy(1, timeout_s=120.0), \
                supervisor.status()
        finally:
            supervisor.close()


class TestGracefulScaleIn:
    def test_zero_dropped_requests_during_drain(self, fleet):
        injector = FaultInjector()
        for info in fleet.status()["slots"]:
            injector.set_delay(info["address"], 0.2)  # keep requests in flight
        with _Load("http://%s:%d" % fleet.proxy.address,
                   concurrency=6) as load:
            time.sleep(1.0)
            fleet.scale_to(2)
            time.sleep(1.0)
        assert load.ok > 10
        assert load.failed == 0, load.failures  # zero dropped, not "few"
        status = fleet.status()
        assert status["target_replicas"] == 2
        assert status["healthy"] == 2
        stopped = [s for s in status["slots"] if s["state"] == STOPPED]
        assert len(stopped) == 1
        assert stopped[0]["last_exit"]["exit_code"] == 0  # drained, not shot


class TestReplayParity:
    def test_bitwise_parity_through_surviving_replicas(self, fleet,
                                                       model_path,
                                                       training_data):
        base_url = "http://%s:%d" % fleet.proxy.address
        default_model = _get_json(base_url, "/v1/healthz")["default_model"]
        score_path = f"/v1/models/{default_model}/score"
        payload = {"samples": training_data.tolist(), "mode": "replay"}

        before = _post_json(base_url, score_path, payload)
        victim = _slot_info(fleet, 0)
        FaultInjector().kill(victim["pid"])
        assert _wait_until(lambda: fleet.healthy_count() < 3,
                           timeout_s=30.0, poll_s=0.05), fleet.status()
        assert fleet.wait_for_healthy(3, timeout_s=60.0), fleet.status()
        after = _post_json(base_url, score_path, payload)
        assert after["scores"] == before["scores"]  # bitwise, not approx

        # And both match a plain single-process server: replica membership
        # churn must never change what the model computes.
        server = build_server(model_path, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            reference = _post_json(f"http://{host}:{port}", score_path,
                                   payload)
        finally:
            server.shutdown()
            server.server_close()
            server.runtime.close()
            thread.join(timeout=10)
        assert after["scores"] == reference["scores"]
