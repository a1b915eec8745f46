"""Spans around collapsar's layer boundaries, recorded from outside the package.

The traced run rebinds the public names that collapsar's calling modules
hold (``collapsar.entanglement.partial_trace``, ``collapsar.cli.entropy_report``
and so on) to timing wrappers, and restores the originals afterwards.
Nothing under ``src/`` changes, and the untraced run patches nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc
from collections import defaultdict

# (span name, module that defines the function, function, modules whose
# global name for it is rebound).  Every listed caller must hold the name:
# if a refactor drops or renames one, tracing stops with an error instead
# of reporting a layer it no longer measures as 0.
BOUNDARIES = (
    ("geometry.squeezing", "geometry", "squeezing_for", ("entanglement", "cli")),
    ("states.build", "states", "build_boson_state", ("entanglement", "cli")),
    ("states.build", "states", "build_fermion_state", ("entanglement", "cli")),
    ("fock.partial_trace", "fock", "partial_trace", ("entanglement", "cli")),
    ("fock.entropy", "fock", "von_neumann_entropy", ("entanglement",)),
    ("fock.occupation", "fock", "mean_occupation", ("entanglement", "cli")),
    ("entanglement.closed_form", "entanglement", "boson_entropy", ("entanglement",)),
    ("entanglement.closed_form", "entanglement", "fermion_entropy", ("entanglement",)),
    ("entanglement.fit", "entanglement", "temperature_ratio_fit", ("entanglement", "cli")),
    ("entanglement.report", "entanglement", "entropy_report", ("entanglement", "cli")),
    ("entanglement.sweep", "entanglement", "sweep", ("entanglement", "cli")),
    ("entanglement.crossover", "entanglement", "crossover", ("entanglement", "cli")),
    ("entanglement.render", "entanglement", "report_csv_row", ("entanglement", "cli")),
    ("entanglement.render", "entanglement", "report_json_dict", ("entanglement", "cli")),
    ("cli.main", "cli", "main", ("cli",)),
)

# Spans whose per-call tracemalloc peak the memory round records.
PEAK_SPANS = ("fock.partial_trace", "fock.entropy")


def _count_dim(counts: dict, rho) -> None:
    counts["fock.dim_sum"] += rho.dim
    counts["fock.dim_max"] = max(counts["fock.dim_max"], rho.dim)


def _count_amplitudes(counts: dict, state) -> None:
    counts["states.amplitudes"] += len(state.coefficients)


def _count_iterations(counts: dict, result) -> None:
    counts["entanglement.crossover_iterations"] += result.iterations


# Work counted at the boundary, from the value the layer returns.
COUNTERS = {
    "fock.partial_trace": _count_dim,
    "states.build": _count_amplitudes,
    "entanglement.crossover": _count_iterations,
}
COUNT_NAMES = (
    "fock.dim_sum",
    "fock.dim_max",
    "states.amplitudes",
    "entanglement.crossover_iterations",
)


@contextlib.contextmanager
def _rebound(wrap, names=None):
    """Rebind every traced boundary to ``wrap(span, fn)`` for the block's duration."""
    saved = []
    try:
        for span, home, attr, callers in BOUNDARIES:
            if names is not None and span not in names:
                continue
            original = getattr(importlib.import_module(f"collapsar.{home}"), attr)
            wrapper = wrap(span, original)
            for caller in callers:
                module = importlib.import_module(f"collapsar.{caller}")
                if getattr(module, attr, None) is not original:
                    raise RuntimeError(
                        f"collapsar.{caller}.{attr} is not collapsar.{home}.{attr}: "
                        f"update tracer.BOUNDARIES for span {span}")
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """In-memory span log: (name, start, end, parent index, round id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.round_id = 0
        self._stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self.peaks: dict = defaultdict(int)

    def _timed(self, span: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, self.round_id)
            if counter is not None and self.round_id == 1:
                counter(self.counts, result)
            return result

        return traced

    def _peak(self, span: str, fn):
        peaks = self.peaks

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[span] = max(peaks[span], tracemalloc.get_traced_memory()[1] - base)

        return measured

    @contextlib.contextmanager
    def traced_round(self):
        """Record spans for one round; counts are taken from the first round only."""
        self.round_id += 1
        with _rebound(self._timed):
            yield

    @contextlib.contextmanager
    def memory_round(self):
        """Record the tracemalloc peak inside each call of the PEAK_SPANS boundaries."""
        tracemalloc.start()
        try:
            with _rebound(self._peak, PEAK_SPANS):
                yield
        finally:
            tracemalloc.stop()


def self_times(spans) -> tuple[dict, dict]:
    """Per span name: total self time and total inclusive time, in seconds.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of everything under a span sum to at most
    that span's duration.
    """
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    own: dict = defaultdict(float)
    inclusive: dict = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        own[name] += (end - start) - children[i]
        inclusive[name] += end - start
    return own, inclusive
