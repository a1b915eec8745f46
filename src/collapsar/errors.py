"""Exceptions raised by collapsar beyond ordinary argument errors."""


class SqueezingOverflowError(OverflowError):
    """Mode whose squeezing has no faithful truncated representation.

    Raised for either statistics when x falls below the fixed infrared
    floor ``X_MIN``, and when x = 4 pi m omega overflows to inf.
    """
