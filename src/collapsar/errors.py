"""Exceptions raised by collapsar beyond ordinary argument errors."""


class SqueezingOverflowError(OverflowError):
    """Mode whose squeezing has no faithful truncated representation.

    Raised when a bosonic occupation distribution cannot be truncated within
    the dimension cap ``N_CAP`` (every x below about 1e-3), when x falls
    below the fixed infrared floor ``X_MIN`` (which, for bosons, only changes
    the message), or when x = 4 pi m omega overflows to inf.
    """
