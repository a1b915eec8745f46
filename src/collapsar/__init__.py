"""Entanglement entropy of particle pairs created by gravitational collapse.

A collapsing null shell radiates thermally; each radiated mode is one half
of a two-mode squeezed pair whose other half falls across the horizon.
This package computes the entanglement entropy of that division, in closed
form and through an independent truncated Fock-space route, for bosonic
and fermionic fields.
"""

from .errors import SqueezingOverflowError
from .geometry import BlackHoleParams, ModeChannel, SqueezingParams, Statistics
from .fock import partial_trace, von_neumann_entropy
from .states import build_boson_state, build_fermion_state
from .entanglement import (
    CSV_HEADER,
    CrossoverResult,
    EntropyReport,
    boson_entropy,
    crossover,
    entropy_report,
    fermion_entropy,
    report_csv_row,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BlackHoleParams",
    "CSV_HEADER",
    "CrossoverResult",
    "EntropyReport",
    "ModeChannel",
    "SqueezingOverflowError",
    "SqueezingParams",
    "Statistics",
    "boson_entropy",
    "build_boson_state",
    "build_fermion_state",
    "crossover",
    "entropy_report",
    "fermion_entropy",
    "partial_trace",
    "report_csv_row",
    "sweep",
    "von_neumann_entropy",
]
