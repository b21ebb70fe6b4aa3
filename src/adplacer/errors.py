"""Exception types shared across the toolkit: the three classes that
``adplacer run`` tells apart, each with its own exit code in ``adplacer.cli``.

Each check in a constructor raises a ``ValueError``, apart from k's parity
check (``InfeasibleK``), so ``except ValueError`` catches every rejection; a
value of the wrong Python type may fail first, with a ``TypeError``.
``InputError``, also a ``ValueError``, marks what ``adplacer run`` blames on
its input, and its message says what is wrong; ``io`` re-raises a file's
fault as an ``InputError`` naming the file.  A plain ``AdPlacerError``
refuses a call for any other reason, such as an invalid schedule given to
``reward`` or an ad id absent from the inventory.
"""


class AdPlacerError(Exception):
    """Base class of the two below; raised itself to refuse a call otherwise."""


class InputError(AdPlacerError, ValueError):
    """The input or configuration is malformed or out of range."""


class InfeasibleK(AdPlacerError):
    """k ads cannot be placed: k is odd or negative, k exceeds the slots, or
    the inventory holds fewer than k/2 ads of one polarity."""
