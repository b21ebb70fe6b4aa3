"""adplacer: solvers for affect-aware ad selection and slot placement."""

from .core import (
    Ad,
    AdInventory,
    Polarity,
    ProfilePoint,
    ProgramSpec,
    RelevanceMatrix,
    RewardParams,
    Scene,
    Schedule,
    ScheduleEntry,
    Valence,
    ValidationResult,
    build_profile,
    random_instance,
    reward,
    slot_blocks,
    validate_schedule,
)
from .relevance import KeyframeFeatures, build_relevance_matrix, cosine_similarity
from .solvers import SolveReport, solve_assignment, solve_brute_force, trivial_schedule

__version__ = "0.1.0"

__all__ = [
    "Ad",
    "AdInventory",
    "KeyframeFeatures",
    "Polarity",
    "ProfilePoint",
    "ProgramSpec",
    "RelevanceMatrix",
    "RewardParams",
    "Scene",
    "Schedule",
    "ScheduleEntry",
    "SolveReport",
    "Valence",
    "ValidationResult",
    "build_profile",
    "build_relevance_matrix",
    "cosine_similarity",
    "random_instance",
    "reward",
    "slot_blocks",
    "solve_assignment",
    "solve_brute_force",
    "trivial_schedule",
    "validate_schedule",
]
