"""The fixed references the benchmark times beside the program.

The shared host this benchmark was built on switches between a fast and a
slow state for seconds to minutes at a time (see README.md). The
references slow down with it, so an operation or an import timed next to
them can be expressed in reference units, which the host state moves far
less than wall time. An operation is compared with a fixed computation,
an import with a fresh-interpreter import of fixed third-party modules.
Both are the benchmark's own code with fixed inputs, so no change to
arrayaudit moves them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Modules of the reference import: the third-party part of what
#: arrayaudit imports, fixed here so that no change to arrayaudit moves it.
REFERENCE_IMPORT = ("numpy", "scipy.special")
#: The reference import's fresh-interpreter time on an idle core of the
#: build host (0.20-0.23 s on a 2.1 GHz Xeon); ``setup_s`` is import statistics
import time
#: rescaled to this speed.
NOMINAL_IMPORT_S = 0.2

_RNG = np.random.default_rng(0)
_TEXT = ",".join(f"{x:.17g}" for x in _RNG.lognormal(8.0, 2.0, 4000))
_MATRIX = np.where(_RNG.random((500, 60)) < 0.01, np.nan, _RNG.standard_normal((500, 60)))


def reference_computation() -> float:
    """About 2.5 ms of fixed work of the three kinds the workloads do: token
    parsing, interpreter-bound dict updates, and masked column statistics
    (on a matrix small enough not to move the worker's peak RSS)."""
    values = [float(t) for t in _TEXT.split(",")]
    counts: dict[int, int] = {}
    for i in range(8000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    filled = np.where(np.isnan(_MATRIX), 0.0, _MATRIX)
    return len(values) + len(counts) + float(np.corrcoef(filled, rowvar=False).sum() + (filled.T @ filled).sum())


def time_reference(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` reference computations in a row."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_computation()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
