"""Exception types shared across the package."""


class SweeplabError(Exception):
    """Base class for all library errors."""


class NonPositive(SweeplabError):
    """A parameter that must be a positive integer is not."""


class NonCoprime(SweeplabError):
    """The slope pair (m, n) has a common factor."""


class BadLetter(SweeplabError):
    """A path word contains a letter outside the step alphabet."""


class BadCounts(SweeplabError):
    """A path word has the wrong number of North or East letters."""


class NotDyck(SweeplabError):
    """An operation that requires a Dyck path was given a non-Dyck word."""


class LimitExceeded(SweeplabError):
    """Requested enumeration is larger than the configured step limit."""


class IndexOutOfRange(SweeplabError):
    """A step or sweep position lies outside 1..len(word)."""


class NotInImage(SweeplabError):
    """A word has no preimage in the cached sweep table.

    The sweep map is a bijection on Dyck paths, so seeing this error on a
    Dyck input means the library itself is inconsistent.
    """


class InvalidMove(SweeplabError):
    """A removal move does not apply to the given word."""


class NoMoveAvailable(SweeplabError):
    """A positive-area path offered no removal move.

    Like NotInImage this marks an internal inconsistency: every Dyck path
    with positive area has at least one removable cell.
    """


class NonIntegral(SweeplabError):
    """An exact integer division left a remainder.

    Raised by the rank-sum area formula instead of rounding, so a violated
    identity can never pass silently.
    """
