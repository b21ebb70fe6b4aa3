"""Exception types shared across the toolkit.

``InputError``, also a ``ValueError``, blames the caller's input: a malformed
file, a missing entity, an out-of-range value or mismatched dimensions.
``adplacer run`` exits 1 on it, 2 on ``InfeasibleK`` or ``InfeasibleInventory``,
and 4, after a traceback, on any other error.
"""


class AdPlacerError(Exception):
    """Base class for every error raised by this package."""


class InputError(AdPlacerError, ValueError):
    """The input or configuration is malformed or out of range."""


class ValenceOutOfRange(InputError):
    """A valence score falls outside the accepted input range."""


class DuplicateSceneId(InputError):
    """Two scenes in one program share an id."""


class DuplicateAdId(InputError):
    """Two ads in one inventory share an id."""


class DimensionMismatch(InputError):
    """Array or matrix dimensions do not agree with their context."""


class InfeasibleSchedule(AdPlacerError):
    """A schedule violates the strict placement constraints."""


class UnknownAdId(AdPlacerError):
    """A schedule references an ad id absent from the inventory."""


class ZeroNormVector(InputError):
    """Cosine similarity is undefined for an all-zero feature vector."""


class FrameCountMismatch(InputError):
    """Aligned frame pairing requires equal keyframe counts."""


class MissingEntity(InputError):
    """A scene or ad id has no feature vectors on record."""


class InfeasibleK(AdPlacerError):
    """The requested ad count cannot be satisfied (odd, negative, or > slots)."""


class InfeasibleInventory(AdPlacerError):
    """The inventory lacks enough high- or low-valence ads."""


class InstanceTooLarge(AdPlacerError):
    """Exhaustive enumeration would exceed the candidate cap."""


class ParseError(InputError):
    """An input file is malformed."""
