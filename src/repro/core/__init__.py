"""Quorum core: the zero-training unsupervised quantum anomaly detector."""

from repro.core.config import QuorumConfig
from repro.core.bucketing import (
    BucketAssignment,
    assign_buckets,
    bucket_size_for_probability,
    probability_of_anomalous_bucket,
)
from repro.core.feature_selection import select_feature_subset
from repro.core.execution import (
    AnalyticEngine,
    DensityMatrixEngine,
    SwapTestEngine,
    apply_shot_noise,
    make_engine,
)
from repro.core.scoring import (
    AnomalyScores,
    BucketStatistics,
    bucket_deviations,
    bucket_statistics,
    reference_deviations,
)
from repro.core.ensemble import (
    EnsembleMemberResult,
    MemberPlan,
    execute_member,
    plan_member,
    run_ensemble_member,
)
from repro.core.parallel import (
    EnsembleRun,
    plan_members,
    run_ensemble_members,
)
from repro.core.detector import QuorumDetector

__all__ = [
    "QuorumConfig",
    "BucketAssignment",
    "assign_buckets",
    "bucket_size_for_probability",
    "probability_of_anomalous_bucket",
    "select_feature_subset",
    "SwapTestEngine",
    "AnalyticEngine",
    "DensityMatrixEngine",
    "apply_shot_noise",
    "make_engine",
    "AnomalyScores",
    "BucketStatistics",
    "bucket_deviations",
    "bucket_statistics",
    "reference_deviations",
    "EnsembleMemberResult",
    "MemberPlan",
    "plan_member",
    "plan_members",
    "execute_member",
    "run_ensemble_member",
    "EnsembleRun",
    "run_ensemble_members",
    "QuorumDetector",
]
