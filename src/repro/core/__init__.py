"""DollyMP core: knapsack oracle, volume/priority computation (Alg. 1),
the online scheduler (Alg. 2), the cloning policy, and the theoretical
analyses of Secs. 4.1 and 4.2."""

from repro.core.knapsack import max_count_knapsack
from repro.core.volume import (
    dominant_share,
    phase_dominant_share,
    job_volume,
    job_effective_length,
    JobMeasure,
    measure_job,
    measure_single_task_job,
)
from repro.core.transient import compute_priorities, priority_groups
from repro.core.cloning_policy import CloningPolicy, delay_assignment_map
from repro.core.online import DollyMPScheduler
from repro.core.server_learning import LearningDollyMPScheduler, StragglerServerTracker
from repro.core.estimation import EstimatingDollyMPScheduler, PhaseStatsEstimator
from repro.core.locality import (
    assign_tasks_to_containers,
    best_locality_copy,
    clone_placement_order,
)
from repro.core.theory import (
    flow_schedule_all_then_clone_smallest,
    flow_serial_maximal_cloning,
    flow_two_clones_smallest_first,
    theorem1_bound_holds,
)

__all__ = [
    "max_count_knapsack",
    "dominant_share",
    "phase_dominant_share",
    "job_volume",
    "job_effective_length",
    "JobMeasure",
    "measure_job",
    "measure_single_task_job",
    "compute_priorities",
    "priority_groups",
    "CloningPolicy",
    "delay_assignment_map",
    "DollyMPScheduler",
    "LearningDollyMPScheduler",
    "StragglerServerTracker",
    "EstimatingDollyMPScheduler",
    "PhaseStatsEstimator",
    "assign_tasks_to_containers",
    "best_locality_copy",
    "clone_placement_order",
    "flow_schedule_all_then_clone_smallest",
    "flow_serial_maximal_cloning",
    "flow_two_clones_smallest_first",
    "theorem1_bound_holds",
]
