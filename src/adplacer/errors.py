"""Exception types shared across the toolkit."""


class AdPlacerError(Exception):
    """Base class for every error raised by this package."""


class ValenceOutOfRange(AdPlacerError, ValueError):
    """A valence score falls outside the accepted input range."""


class DuplicateSceneId(AdPlacerError, ValueError):
    """Two scenes in one program share an id."""


class DuplicateAdId(AdPlacerError, ValueError):
    """Two ads in one inventory share an id."""


class DimensionMismatch(AdPlacerError, ValueError):
    """Array or matrix dimensions do not agree with their context."""


class InfeasibleSchedule(AdPlacerError):
    """A schedule violates the strict placement constraints."""


class UnknownAdId(AdPlacerError):
    """A schedule references an ad id absent from the inventory."""


class ZeroNormVector(AdPlacerError, ValueError):
    """Cosine similarity is undefined for an all-zero feature vector."""


class FrameCountMismatch(AdPlacerError, ValueError):
    """Aligned frame pairing requires equal keyframe counts."""


class MissingEntity(AdPlacerError):
    """A scene or ad id has no feature vectors on record."""


class InfeasibleK(AdPlacerError):
    """The requested ad count cannot be satisfied (odd, negative, or > slots)."""


class InfeasibleInventory(AdPlacerError):
    """The inventory lacks enough high- or low-valence ads."""


class InstanceTooLarge(AdPlacerError):
    """Exhaustive enumeration would exceed the candidate cap."""


class ParseError(AdPlacerError):
    """An input file is malformed."""
