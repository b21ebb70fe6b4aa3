"""Exception types shared across the toolkit.

Each check in a constructor raises a ``ValueError``, apart from k's parity
check (``InfeasibleK``), so ``except ValueError`` catches every rejection; a
value of the wrong Python type may fail first, with a ``TypeError``.
``InputError``, also a ``ValueError``, marks what ``adplacer run`` blames on
its input, and its message says what is wrong; ``io`` re-raises a file's
fault as an ``InputError`` naming the file.  ``adplacer.cli`` maps each
class to its exit code.
"""


class AdPlacerError(Exception):
    """Base class for every error raised by this package."""


class InputError(AdPlacerError, ValueError):
    """The input or configuration is malformed or out of range."""


class InfeasibleSchedule(AdPlacerError):
    """A schedule violates the strict placement constraints."""


class UnknownAdId(AdPlacerError):
    """A schedule references an ad id absent from the inventory."""


class InfeasibleK(AdPlacerError):
    """k ads cannot be placed: k is odd or negative, k exceeds the slots, or
    the inventory holds fewer than k/2 ads of one polarity."""


class InstanceTooLarge(AdPlacerError):
    """Exhaustive enumeration would exceed the candidate cap."""
