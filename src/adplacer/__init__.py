"""adplacer: solvers for affect-aware ad selection and slot placement."""

from .baselines import trivial_schedule
from .core import (
    Ad,
    AdInventory,
    Polarity,
    ProgramSpec,
    RelevanceMatrix,
    RewardParams,
    Scene,
    Schedule,
    ScheduleEntry,
    Valence,
    ValidationResult,
    classify_polarity,
    reward,
    slot_blocks,
    validate_schedule,
)
from .instances import random_instance
from .profile import ProfilePoint, build_profile
from .relevance import KeyframeFeatures, build_relevance_matrix, cosine_similarity
from .solvers import SolveReport, solve_assignment, solve_brute_force

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
    "classify_polarity",
    "cosine_similarity",
    "random_instance",
    "reward",
    "slot_blocks",
    "solve_assignment",
    "solve_brute_force",
    "trivial_schedule",
    "validate_schedule",
]
