"""Exception types shared across the toolkit.

Each check in a constructor raises a ``ValueError``, apart from k's parity
check (``InfeasibleK``), so ``except ValueError`` catches every rejection; a
value of the wrong Python type may fail first, with a ``TypeError``.
``InputError``, also a ``ValueError``, marks what ``adplacer run`` blames on
its input; ``io`` re-raises a file's fault naming the file, as a
``ParseError`` unless it is an ``InputError``.  ``adplacer run`` exits 1 on
an ``InputError``, 2 on ``InfeasibleK`` or ``InfeasibleInventory``, and 4,
after a traceback, on any other error.
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
