"""Self-healing fleet supervisor: keeps K replicas serving through failures.

PR 8's loadtest harness was the measuring instrument; this module *acts* on
what it measures.  :class:`FleetSupervisor` owns K ``quorum-repro serve``
subprocesses (via :class:`~repro.serving.loadtest.ReplicaProcess`) plus the
fronting :class:`~repro.serving.proxy.RoundRobinProxy`, and runs the control
loop that keeps the fleet converging back to K healthy replicas:

* **Health loop.**  Every ``health_interval_s`` the supervisor combines
  process liveness (``poll()``) with the proxy's health probe (the same
  ``HEAD /v1/healthz`` that :meth:`RoundRobinProxy.check_backends` sends).
  ``eject_after`` consecutive probe failures remove a replica from rotation;
  ``readmit_after`` consecutive successes put it back.  A replica that fails
  probes but is not yet ejected is ``suspect`` -- still serving, on notice.

* **Crash restart with backoff + circuit breaker.**  A dead process is
  restarted after an exponential backoff with jitter (``backoff_base_s``
  doubling up to ``backoff_max_s``; the jitter de-synchronizes a fleet that
  died together).  ``crash_loop_threshold`` crash events inside
  ``crash_loop_window_s`` trip the breaker: the slot is **parked** as
  ``crash_looped`` (no further restarts burn CPU), the fleet keeps serving
  degraded, and the state is surfaced in :meth:`status` until an operator
  calls :meth:`revive`.

* **Graceful scale-in.**  :meth:`scale_to` drains before it kills: the
  replica leaves the rotation first (new requests route elsewhere; a request
  racing the drain gets the server's ``503 shutting_down`` which the proxy
  transparently replays against another backend), then SIGTERM lets the
  server finish in-flight work (``ServerRuntime.wait_idle``), with SIGKILL
  only after a bounded wait.  Zero dropped in-flight requests, by
  construction at both ends.

Per-replica state machine (reported verbatim in :meth:`status`)::

    starting -> healthy <-> suspect -> ejected -> starting (restart)
                   |                      |
                   v                      v
               draining -> stopped    crash_looped (parked; revive())

Every state change funnels through one place and is recorded into a
:class:`~repro.serving.telemetry.FlightRecorder` -- a bounded ring (plus
optional JSONL sink) of structured events (spawns, ejects, readmits,
restarts, drains, crash-loop trips) with monotonic timestamps, dumped by
``quorum-repro fleet --events`` and on abnormal exit.  :meth:`status` merges
the proxy's windowed :meth:`~repro.serving.proxy.RoundRobinProxy
.backend_stats` into each slot, so the fleet status JSON carries live
per-replica RPS and p95 latency.

Every collaborator is injectable -- ``spawner`` (subprocess creation),
``prober`` (health probe), ``clock`` and ``jitter`` -- so the whole state
machine is unit-testable with fakes and a manual :meth:`tick`, while the
chaos suite exercises the same loop against real processes and real faults
(:mod:`repro.serving.faults`).
"""

from __future__ import annotations

import collections
import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.serving.loadtest import (
    ReplicaProcess,
    ReplicaSpawnError,
    spawn_replica,
)
from repro.serving.proxy import RoundRobinProxy
from repro.serving.telemetry import FlightRecorder

__all__ = [
    "SupervisorPolicy",
    "ReplicaSlot",
    "FleetSupervisor",
    "REPLICA_STATES",
    "STARTING",
    "HEALTHY",
    "SUSPECT",
    "EJECTED",
    "DRAINING",
    "STOPPED",
    "CRASH_LOOPED",
]

STARTING = "starting"
HEALTHY = "healthy"
SUSPECT = "suspect"
EJECTED = "ejected"
DRAINING = "draining"
STOPPED = "stopped"
CRASH_LOOPED = "crash_looped"

#: Every state a replica slot can be in (the machine-readable vocabulary).
REPLICA_STATES = (STARTING, HEALTHY, SUSPECT, EJECTED, DRAINING, STOPPED,
                  CRASH_LOOPED)

#: States in which the slot owns a process the supervisor must watch.
_LIVE_STATES = frozenset({STARTING, HEALTHY, SUSPECT, EJECTED})


@dataclass
class SupervisorPolicy:
    """Tunable knobs of the control loop (all durations in seconds)."""

    #: Cadence of the health loop.
    health_interval_s: float = 1.0
    #: Timeout of one health probe (small: a SIGSTOP-ped replica accepts the
    #: TCP connect but never answers, and only this bound detects it).
    probe_timeout_s: float = 2.0
    #: Consecutive probe failures before a replica leaves the rotation.
    eject_after: int = 3
    #: Consecutive probe successes before an ejected replica is re-admitted.
    readmit_after: int = 2
    #: First restart delay after a crash; doubles per consecutive crash.
    backoff_base_s: float = 0.5
    #: Ceiling of the exponential backoff.
    backoff_max_s: float = 30.0
    #: Jitter fraction: the actual delay is ``backoff * (1 + jitter * u)``
    #: with ``u`` uniform in [0, 1) -- replicas that died together restart
    #: staggered.
    backoff_jitter: float = 0.25
    #: Crash events within the window that trip the circuit breaker.
    crash_loop_threshold: int = 3
    #: Width of the crash-loop detection window.
    crash_loop_window_s: float = 30.0
    #: How long a freshly (re)started replica may fail probes before it is
    #: treated as a failed start (killed and backed off).
    startup_grace_s: float = 30.0
    #: Drain bound on scale-in: SIGTERM, wait this long, then SIGKILL.
    drain_timeout_s: float = 15.0
    #: Reap bound after SIGKILL.
    kill_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.eject_after < 1 or self.readmit_after < 1:
            raise ValueError("eject_after and readmit_after must be >= 1")
        if self.crash_loop_threshold < 1:
            raise ValueError("crash_loop_threshold must be >= 1")
        if self.backoff_base_s <= 0 or self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                "need 0 < backoff_base_s <= backoff_max_s")
        if not (0.0 <= self.backoff_jitter <= 1.0):
            raise ValueError("backoff_jitter must be within [0, 1]")


class ReplicaSlot:
    """One position in the fleet and its state-machine bookkeeping."""

    def __init__(self, slot_id: int) -> None:
        self.slot_id = slot_id
        self.state = STARTING
        self.process: Optional[ReplicaProcess] = None
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.restarts = 0
        self.backoff_s = 0.0
        self.next_restart_at: Optional[float] = None
        self.crash_times: Deque[float] = collections.deque()
        self.last_transition_reason = "created"
        self.last_transition_at = 0.0
        self.state_since = 0.0
        self.last_exit: Optional[Dict[str, object]] = None

    @property
    def address(self) -> Optional[str]:
        return self.process.address if self.process is not None else None

    def info(self, now: float) -> Dict[str, object]:
        """JSON-serializable snapshot (the unit of ``fleet`` status output)."""
        process = self.process
        return {
            "slot": self.slot_id,
            "state": self.state,
            "address": self.address,
            "pid": process.pid if process is not None else None,
            "alive": bool(process is not None and process.alive),
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "consecutive_successes": self.consecutive_successes,
            "state_age_s": round(max(0.0, now - self.state_since), 3),
            "last_transition_reason": self.last_transition_reason,
            "next_restart_in_s": (
                round(max(0.0, self.next_restart_at - now), 3)
                if self.next_restart_at is not None else None),
            "last_exit": self.last_exit,
        }


class FleetSupervisor:
    """Owns K replicas + the fronting proxy and keeps the fleet healthy.

    ``spawner`` (``() -> ReplicaProcess``), ``prober``
    (``(\"host:port\") -> bool``), ``clock`` (``() -> float``, monotonic) and
    ``jitter`` (``() -> float`` in [0, 1)) default to the real thing and are
    injectable for deterministic tests driven by manual :meth:`tick` calls.
    """

    def __init__(self, model_path: Union[str, Path, None] = None,
                 replicas: int = 1, *,
                 policy: Optional[SupervisorPolicy] = None,
                 host: str = "127.0.0.1",
                 proxy_host: str = "127.0.0.1", proxy_port: int = 0,
                 batch_window_ms: float = 0.0, max_batch_samples: int = 512,
                 backend_timeout_s: Optional[float] = None,
                 debug_hooks: bool = False,
                 spawner: Optional[Callable[[], ReplicaProcess]] = None,
                 prober: Optional[Callable[[str], bool]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 jitter: Optional[Callable[[], float]] = None,
                 recorder: Optional[FlightRecorder] = None) -> None:
        if replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        if model_path is None and spawner is None:
            raise ValueError("need a model_path (or an injected spawner)")
        self.policy = policy or SupervisorPolicy()
        # The flight recorder is always on (the ring is cheap); pass one
        # with a sink to also persist every event as JSONL.
        self.recorder = recorder if recorder is not None \
            else FlightRecorder(capacity=2048)
        self.target_replicas = int(replicas)
        self._clock = clock
        if jitter is None:
            import random

            jitter = random.random
        self._jitter = jitter
        if spawner is None:
            spawner = lambda: spawn_replica(  # noqa: E731 - closure over args
                model_path, host=host,
                batch_window_ms=batch_window_ms,
                max_batch_samples=max_batch_samples,
                debug_hooks=debug_hooks)
        self._spawner = spawner
        if prober is None:
            prober = lambda address: RoundRobinProxy.probe(  # noqa: E731
                address, timeout_s=self.policy.probe_timeout_s)
        self._prober = prober
        # The probe timeout doubles as the proxy's per-read bound unless the
        # caller overrides it: a hung (SIGSTOP-ped) backend must fail fast so
        # the proxy's idempotent failover -- not the client -- absorbs it.
        # Scoring can outlast a probe, so leave generous room by default.
        self.proxy = RoundRobinProxy(
            [], host=proxy_host, port=proxy_port, allow_empty=True,
            backend_timeout_s=(backend_timeout_s if backend_timeout_s
                               is not None else 60.0))
        self._slots: Dict[int, ReplicaSlot] = {}
        self._next_slot_id = 0
        self._lock = threading.RLock()
        self._loop_stop = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._started = False

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> "FleetSupervisor":
        """Start the proxy and spawn the initial fleet (no health loop yet)."""
        with self._lock:
            if self._started:
                raise RuntimeError("the supervisor is already started")
            self._started = True
            self.proxy.start()
            now = self._clock()
            for _ in range(self.target_replicas):
                self._add_slot(now)
        return self

    def start_health_loop(self) -> None:
        """Run :meth:`tick` every ``health_interval_s`` in a daemon thread."""
        if self._loop_thread is not None:
            return
        self._loop_stop.clear()
        self._loop_thread = threading.Thread(
            target=self._health_loop, name="fleet-supervisor", daemon=True)
        self._loop_thread.start()

    def _health_loop(self) -> None:
        while not self._loop_stop.wait(self.policy.health_interval_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - the loop must survive
                pass

    def close(self) -> List[int]:
        """Stop the loop, drain every replica gracefully, close the proxy."""
        self._loop_stop.set()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)
            self._loop_thread = None
        exit_codes: List[int] = []
        with self._lock:
            for slot in list(self._slots.values()):
                if slot.process is not None and slot.state in _LIVE_STATES:
                    exit_codes.append(self._drain_slot(slot, "fleet shutdown"))
        self.proxy.close()
        self.recorder.record("fleet_shutdown", exit_codes=exit_codes)
        self.recorder.close()
        return exit_codes

    def __enter__(self) -> "FleetSupervisor":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- observation
    def status(self) -> Dict[str, object]:
        """Machine-readable fleet snapshot (what ``fleet`` prints as JSON).

        Each slot carries live ``rps``/``p50_ms``/``p95_ms`` from the
        proxy's windowed per-backend stats (None while out of rotation or
        before any traffic) -- the inputs live autoscaling needs.
        """
        with self._lock:
            now = self._clock()
            slots = [slot.info(now)
                     for slot in sorted(self._slots.values(),
                                        key=lambda s: s.slot_id)]
            states = [str(info["state"]) for info in slots]
            try:
                proxy_address = "%s:%d" % self.proxy.address
            except Exception:
                proxy_address = None
            backend_stats = self.proxy.backend_stats()
            for info in slots:
                stats = backend_stats.get(info["address"]) \
                    if info["address"] else None
                info["rps"] = stats["rps"] if stats else None
                info["p50_ms"] = stats["p50_ms"] if stats else None
                info["p95_ms"] = stats["p95_ms"] if stats else None
            return {
                "target_replicas": self.target_replicas,
                "healthy": sum(1 for s in states if s == HEALTHY),
                "states": dict(collections.Counter(states)),
                "proxy": {
                    "address": proxy_address,
                    "backends": self.proxy.backend_addresses(),
                    "request_counts": self.proxy.request_counts(),
                    "backend_stats": backend_stats,
                },
                "slots": slots,
            }

    def events(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The flight recorder's retained events, oldest first."""
        return self.recorder.events(limit)

    def healthy_count(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots.values()
                       if slot.state == HEALTHY)

    def wait_for_healthy(self, count: Optional[int] = None,
                         timeout_s: float = 60.0,
                         poll_s: float = 0.25) -> bool:
        """Block until ``count`` replicas are healthy (requires the loop)."""
        goal = self.target_replicas if count is None else int(count)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.healthy_count() >= goal:
                return True
            time.sleep(poll_s)
        return self.healthy_count() >= goal

    # ------------------------------------------------------------- health logic
    def tick(self) -> None:
        """One pass of the control loop over every slot."""
        with self._lock:
            now = self._clock()
            for slot in list(self._slots.values()):
                self._tick_slot(slot, now)

    def _tick_slot(self, slot: ReplicaSlot, now: float) -> None:
        if slot.state not in _LIVE_STATES:
            return
        process = slot.process
        if process is None:
            # Crashed and reaped: waiting out the backoff, then respawn.
            if (slot.state == EJECTED and slot.next_restart_at is not None
                    and now >= slot.next_restart_at):
                self._respawn(slot, now)
            return
        # Process liveness first: a dead process can never probe healthy, and
        # its exit code + stderr tail are the diagnosis.
        if process.poll() is not None:
            self._on_death(slot, now)
            return
        healthy = self._prober(process.address)
        if healthy:
            slot.consecutive_failures = 0
            slot.consecutive_successes += 1
            if slot.state == SUSPECT:
                self._transition(slot, HEALTHY, "probe recovered", now)
            elif slot.state == STARTING:
                self._admit(slot, "startup probe succeeded", now)
            elif (slot.state == EJECTED
                  and slot.consecutive_successes >= self.policy.readmit_after):
                self._admit(
                    slot,
                    f"{slot.consecutive_successes} consecutive probe "
                    f"successes", now)
            return
        slot.consecutive_successes = 0
        slot.consecutive_failures += 1
        if slot.state == STARTING:
            if now - slot.state_since > self.policy.startup_grace_s:
                # Up but never became probeable: treat as a failed start.
                process.kill()
                self._on_death(slot, now, reason="startup grace exceeded")
            return
        if slot.state == HEALTHY:
            self._transition(
                slot, SUSPECT,
                f"probe failed ({slot.consecutive_failures}x)", now)
            return
        if (slot.state == SUSPECT
                and slot.consecutive_failures >= self.policy.eject_after):
            self.proxy.remove_backend(process.address)
            self._transition(
                slot, EJECTED,
                f"{slot.consecutive_failures} consecutive probe failures",
                now)

    # ------------------------------------------------------------ state changes
    def _transition(self, slot: ReplicaSlot, state: str, reason: str,
                    now: float) -> None:
        # Single funnel for every state change -- which makes it the one
        # place the flight recorder needs a hook to see the whole machine.
        self.recorder.record(
            "transition", slot=slot.slot_id, from_state=slot.state,
            to_state=state, reason=reason, address=slot.address)
        slot.state = state
        slot.last_transition_reason = reason
        slot.last_transition_at = now
        slot.state_since = now

    def _admit(self, slot: ReplicaSlot, reason: str, now: float) -> None:
        assert slot.process is not None
        self.proxy.add_backend(slot.process.address)
        slot.consecutive_failures = 0
        slot.backoff_s = 0.0  # a healthy run resets the exponential backoff
        slot.next_restart_at = None
        self._transition(slot, HEALTHY, reason, now)

    def _on_death(self, slot: ReplicaSlot, now: float,
                  reason: Optional[str] = None) -> None:
        process = slot.process
        if process is not None:
            if self.proxy.has_backend(process.address):
                self.proxy.remove_backend(process.address)
            slot.last_exit = process.exit_summary()
            process.close(term_timeout_s=0.0,
                          kill_timeout_s=self.policy.kill_timeout_s)
            slot.process = None
        exit_code = (slot.last_exit or {}).get("exit_code")
        self._record_crash(
            slot, now,
            reason or f"process exited (code {exit_code})")

    def _record_crash(self, slot: ReplicaSlot, now: float,
                      reason: str) -> None:
        """Schedule a backed-off restart, or park the slot if crash-looping."""
        slot.consecutive_failures = 0
        slot.consecutive_successes = 0
        slot.crash_times.append(now)
        window_start = now - self.policy.crash_loop_window_s
        while slot.crash_times and slot.crash_times[0] < window_start:
            slot.crash_times.popleft()
        if len(slot.crash_times) >= self.policy.crash_loop_threshold:
            slot.next_restart_at = None
            self._transition(
                slot, CRASH_LOOPED,
                f"{len(slot.crash_times)} crashes within "
                f"{self.policy.crash_loop_window_s:.0f}s "
                f"(last: {reason}); parked", now)
            return
        slot.backoff_s = (self.policy.backoff_base_s if slot.backoff_s <= 0
                          else min(self.policy.backoff_max_s,
                                   slot.backoff_s * 2))
        delay = slot.backoff_s * (1.0
                                  + self.policy.backoff_jitter * self._jitter())
        slot.next_restart_at = now + delay
        self._transition(
            slot, EJECTED,
            f"{reason}; restart in {delay:.2f}s (backoff)", now)

    def _respawn(self, slot: ReplicaSlot, now: float) -> None:
        slot.next_restart_at = None
        try:
            process = self._spawner()
        except ReplicaSpawnError as error:
            slot.last_exit = {"exit_code": error.exit_code,
                              "stderr_tail": error.stderr_tail}
            kind = ("crashed on boot" if error.exit_code is not None
                    else "failed to start")
            self.recorder.record("spawn_failed", slot=slot.slot_id,
                                 exit_code=error.exit_code)
            self._record_crash(slot, now, f"respawn {kind}: {error}")
            return
        slot.process = process
        slot.restarts += 1
        self.recorder.record("spawn", slot=slot.slot_id,
                             address=process.address, pid=process.pid,
                             attempt=slot.restarts)
        self._transition(slot, STARTING,
                         f"restarted (attempt {slot.restarts})", now)

    def _add_slot(self, now: float) -> ReplicaSlot:
        slot = ReplicaSlot(self._next_slot_id)
        self._next_slot_id += 1
        self._slots[slot.slot_id] = slot
        slot.state_since = now
        self._respawn(slot, now)
        if slot.restarts:  # _respawn counts every spawn; the first is free
            slot.restarts -= 1
            slot.last_transition_reason = "initial start"
        return slot

    def _drain_slot(self, slot: ReplicaSlot, reason: str) -> int:
        """Remove from rotation, SIGTERM, bounded wait, SIGKILL; reap."""
        process = slot.process
        assert process is not None
        now = self._clock()
        self._transition(slot, DRAINING, reason, now)
        self.proxy.remove_backend(process.address)
        # ReplicaProcess.close IS the drain: SIGTERM triggers the server's
        # drain path (503 + Retry-After for new arrivals, wait_idle for
        # in-flight), SIGKILL only fires after the bounded wait.
        exit_code = process.close(
            term_timeout_s=self.policy.drain_timeout_s,
            kill_timeout_s=self.policy.kill_timeout_s)
        slot.last_exit = {"exit_code": exit_code, "stderr_tail": ""}
        slot.process = None
        self._transition(slot, STOPPED, f"drained ({reason})", self._clock())
        return exit_code

    # ----------------------------------------------------------------- scaling
    def scale_to(self, replicas: int) -> None:
        """Grow or shrink the fleet to ``replicas`` slots.

        Scale-in drains the victims gracefully (unhealthy slots are picked
        first, then the youngest); scale-out adds fresh slots immediately.
        """
        if replicas < 0:
            raise ValueError("cannot scale below zero replicas")
        with self._lock:
            now = self._clock()
            self.target_replicas = int(replicas)
            active = [slot for slot in self._slots.values()
                      if slot.state in _LIVE_STATES]
            surplus = len(active) - replicas
            if surplus > 0:
                # Drain unhealthy first (losing them costs nothing), then the
                # newest healthy replicas (oldest have the warmest caches).
                victims = sorted(
                    active,
                    key=lambda s: (s.state == HEALTHY, -s.slot_id))[:surplus]
                for slot in victims:
                    if slot.process is not None:
                        self._drain_slot(slot, "scale-in")
                    else:
                        self._transition(slot, STOPPED, "scale-in", now)
                        slot.next_restart_at = None
            else:
                for _ in range(-surplus):
                    self._add_slot(now)

    def autoscale_to_target(self, target_rps: float,
                            per_replica_rps: float,
                            max_replicas: int = 16) -> int:
        """Size the fleet for a target load; returns the chosen replica count.

        ``per_replica_rps`` is the measured single-replica capacity (the
        loadtest harness's saturation knee is exactly this number).
        """
        if target_rps <= 0 or per_replica_rps <= 0:
            raise ValueError("target_rps and per_replica_rps must be > 0")
        needed = max(1, min(int(max_replicas),
                            math.ceil(target_rps / per_replica_rps)))
        self.scale_to(needed)
        return needed

    def revive(self, slot_id: int) -> None:
        """Un-park a ``crash_looped`` slot: reset the breaker and respawn."""
        with self._lock:
            slot = self._slots.get(slot_id)
            if slot is None:
                raise KeyError(f"no slot {slot_id}")
            if slot.state != CRASH_LOOPED:
                raise ValueError(
                    f"slot {slot_id} is {slot.state}, not {CRASH_LOOPED}")
            slot.crash_times.clear()
            slot.backoff_s = 0.0
            self._respawn(slot, self._clock())
