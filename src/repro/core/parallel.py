"""Serial or process-pool execution of the embarrassingly parallel ensemble.

The detector's members share nothing (Section IV-F calls the design
"embarrassingly parallel").  :func:`run_ensemble_members` builds one cheap,
picklable :class:`~repro.core.ensemble.MemberPlan` per member up front, then
runs the plans through :func:`~repro.core.ensemble.execute_members` -- the
only way members execute, in chunks of stacked array passes -- in one of two
places, chosen by ``QuorumConfig.n_jobs`` alone:

* ``serial`` (``n_jobs == 1`` or a single member) -- one call in the calling
  process.
* ``processes`` (``n_jobs > 1``) -- a process pool whose workers map the
  dataset once from ``multiprocessing.shared_memory`` instead of receiving one
  pickled copy each; each task is a slice of plans, and only the tiny plans
  and result arrays cross process boundaries.

Pool failures -- ``OSError``/``ValueError`` (restricted environments: no
``/dev/shm``, sandboxed fork), ``PicklingError``/``RuntimeError``
(unpicklable state, missing start-method bootstrapping) -- fall back to the
serial loop on freshly re-built plans.  The executor that actually ran is
logged and returned as :attr:`EnsembleRun.executor`, which the detector
reports as ``diagnostics()["executor"]``.

Both paths produce bit-identical scores for a fixed seed: every member owns an
independent RNG stream carried by its plan, and a member's result does not
depend on which other members share its chunk.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
from multiprocessing import shared_memory
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import QuorumConfig
from repro.core.ensemble import (
    EnsembleMemberResult,
    MemberPlan,
    execute_members,
    members_per_chunk,
    plan_member,
)

__all__ = [
    "EnsembleRun",
    "plan_members",
    "run_ensemble_members",
    "derive_member_seeds",
]

logger = logging.getLogger(__name__)

#: Per-worker dataset view and its shared-memory handle, installed by
#: :func:`_init_shared_worker` (the handle must stay referenced for the view's
#: buffer to remain mapped).
_WORKER_DATASET: Optional[np.ndarray] = None
_WORKER_SHM: Optional[shared_memory.SharedMemory] = None


class EnsembleRun(NamedTuple):
    """Outcome of :func:`run_ensemble_members`.

    ``results`` and ``plans`` are in member order; ``executor`` is the path
    that actually ran (``"serial"`` or ``"processes"``), so a pool that fell
    back to the serial loop reports ``"serial"``.
    """

    results: List[EnsembleMemberResult]
    plans: List[MemberPlan]
    executor: str


def derive_member_seeds(master_seed: Optional[int], count: int) -> List[int]:
    """Deterministically derive one child seed per ensemble member."""
    if count < 1:
        raise ValueError("count must be positive")
    seed_sequence = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1)[0]) for child in seed_sequence.spawn(count)]


def _init_shared_worker(shm_name: str, shape: Tuple[int, ...],
                        dtype_str: str) -> None:
    """Pool initializer: map the shared-memory dataset once per worker."""
    global _WORKER_DATASET, _WORKER_SHM
    _WORKER_SHM = shared_memory.SharedMemory(name=shm_name)
    _WORKER_DATASET = np.ndarray(shape, dtype=np.dtype(dtype_str),
                                 buffer=_WORKER_SHM.buf)


def _run_planned_members(args: Tuple[Sequence[MemberPlan], QuorumConfig]
                         ) -> List[EnsembleMemberResult]:
    plans, config = args
    if _WORKER_DATASET is None:
        raise RuntimeError("worker process was not initialized with the dataset")
    return execute_members(_WORKER_DATASET, plans, config)


def _run_process_pool(normalized_data: np.ndarray, plans: Sequence[MemberPlan],
                      config: QuorumConfig) -> List[EnsembleMemberResult]:
    """Execute plans on a process pool fed from shared memory.

    The dataset is written once into ``multiprocessing.shared_memory``; every
    worker maps that one block instead of unpickling its own copy, so task
    payloads shrink to (plans, config) tuples regardless of dataset size.
    Each task is a slice of at most one chunk of plans
    (:func:`~repro.core.ensemble.members_per_chunk`), small enough that every
    worker gets one.
    """
    workers = min(config.n_jobs, len(plans))
    size = min(members_per_chunk(normalized_data.shape[0]),
               -(-len(plans) // workers))
    tasks = [(plans[start:start + size], config)
             for start in range(0, len(plans), size)]
    normalized_data = np.ascontiguousarray(normalized_data)
    shm = shared_memory.SharedMemory(create=True, size=normalized_data.nbytes)
    try:
        view = np.ndarray(normalized_data.shape, dtype=normalized_data.dtype,
                          buffer=shm.buf)
        view[:] = normalized_data
        context = multiprocessing.get_context()
        with context.Pool(
            processes=workers,
            initializer=_init_shared_worker,
            initargs=(shm.name, normalized_data.shape,
                      normalized_data.dtype.str),
        ) as pool:
            return [result
                    for chunk in pool.map(_run_planned_members, tasks)
                    for result in chunk]
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def plan_members(num_samples: int, num_features: int, config: QuorumConfig,
                 seeds: Sequence[int],
                 bucket_size: Optional[int] = None) -> List[MemberPlan]:
    """Build one :class:`~repro.core.ensemble.MemberPlan` per seed, in order.

    Planning is deterministic in the dataset *shape* and the seeds, so the same
    call always reproduces the same plans (feature subsets, buckets, ansatz
    angles, and post-planning RNG snapshots).
    """
    return [
        plan_member(num_samples, num_features, config, index, seed,
                    bucket_size=bucket_size)
        for index, seed in enumerate(seeds)
    ]


def run_ensemble_members(normalized_data: np.ndarray, config: QuorumConfig,
                         seeds: Sequence[int],
                         bucket_size: Optional[int] = None) -> EnsembleRun:
    """Plan every ensemble member, then execute the plans serially or, with
    ``config.n_jobs > 1``, on a process pool (falling back to serial when the
    pool fails).

    The returned :class:`EnsembleRun` carries the results, the executed plans
    in member order -- the detector hands them to :mod:`repro.serving.artifact`
    so a fitted model can be persisted with each member's exact configuration
    and post-planning RNG snapshot -- and the executor that actually ran.
    """
    normalized_data = np.asarray(normalized_data, dtype=float)
    if normalized_data.ndim != 2:
        raise ValueError("normalized_data must be 2-D")
    num_samples, num_features = normalized_data.shape

    def build_plans() -> List[MemberPlan]:
        return plan_members(num_samples, num_features, config, seeds,
                            bucket_size=bucket_size)

    plans = build_plans()
    if config.n_jobs <= 1 or len(plans) <= 1:
        used = "serial"
        results = execute_members(normalized_data, plans, config)
    else:
        try:
            results = _run_process_pool(normalized_data, plans, config)
            used = "processes"
        except (OSError, ValueError, pickle.PicklingError,
                RuntimeError) as error:
            # Restricted environments (no /dev/shm, sandboxed fork, spawn
            # without a picklable __main__) fall back to serial rather than
            # failing the run.
            logger.warning(
                "process pool unavailable (%s: %s); falling back to serial",
                type(error).__name__, error,
            )
            used = "serial"
            # Re-plan before the serial pass: a pool that executed some members
            # before failing advanced those plans' RNGs, and reusing them would
            # silently break the fixed-seed bit-identity guarantee.
            plans = build_plans()
            results = execute_members(normalized_data, plans, config)
    logger.info("ensemble of %d members executed with the %r executor",
                len(plans), used)
    return EnsembleRun(results, plans, used)
