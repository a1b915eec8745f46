"""Exceptions raised by collapsar beyond ordinary argument errors."""


class SqueezingOverflowError(OverflowError):
    """Mode whose squeezing has no faithful truncated representation.

    Raised when the requested mode sits so deep in the infrared (x below the
    configured floor) that the bosonic occupation distribution cannot be
    truncated within the dimension cap ``N_CAP``, or when x = 4 pi m omega
    is not a finite positive float.
    """


class NoSignChangeError(ValueError):
    """The supplied bracket does not straddle a zero of the target function."""
